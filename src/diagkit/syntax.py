"""One node layer for programs, terms and formulas.

A notation is a `Sort`: a name and a table with one row per constructor,
giving its name, the head word it prints with and each field's name and
kind. The row makes the constructor's frozen dataclass, which holds the row.
A row's position is its tag and the number of rows is the sort's radix.
Numbering, printing and reading are derived from the rows, and so are
`rewrite` and `children`, a structural map and a fold whose callers give
only their special cases; the reader's messages come from the rows and the
name. Well-formed text is read in one pass over its words; any other text
is read again through the s-expression tree, so its message names an
offset. Every walker recurses one host frame per tree level.

A node's number is radix * payload + tag. The payload is the right-nested
Cantor pairing of the field numbers, pair(a, pair(b, c)): a scalar field is
its own number, a child its child's number and a tuple of children a list
number. Every natural number is the number of exactly one node.
"""

from __future__ import annotations

import sys
from dataclasses import make_dataclass
from functools import lru_cache
from math import isqrt
from typing import Any, Callable, Mapping, Optional, Sequence

from . import sexpr
from .errors import InputError, natural


def pair(a: int, b: int) -> int:
    """Cantor pairing (a+b)(a+b+1)/2 + b; a bijection N x N -> N."""
    s = a + b
    return s * (s + 1) // 2 + b


def unpair(p: int) -> tuple[int, int]:
    """Two-sided inverse of `pair`."""
    w = (isqrt(8 * p + 1) - 1) // 2
    b = p - w * (w + 1) // 2
    return w - b, b


def list_number(codes: Sequence[int]) -> int:
    """The empty list is 0; [head, *rest] is pair(head, list_number(rest)) + 1."""
    out = 0
    for code in reversed(codes):
        out = pair(code, out) + 1
    return out


def list_of(n: int) -> list[int]:
    """Inverse of `list_number`."""
    out = []
    while n != 0:
        head, n = unpair(n - 1)
        out.append(head)
    return out


class Scalar:
    """Field kind: a natural number, spelled by `name` and read back by `code`."""

    def __init__(self, name: Callable[[int], str], code: Callable[[str], Optional[int]]):
        self.name = name
        self.code = code

    def number(self, value: int) -> int:
        return natural(value, "scalar field")

    def denumber(self, n: int) -> int:
        # a decoded field is a natural by construction
        return n


# A report prints each big number several times (a sentence's own number in
# both sides of its certificate), and str(int) is quadratic before 3.12, so
# the printer keeps the decimals of its 32 most recent numbers. typed: an
# untyped memo would print True as 1, or 1 as True, whichever came first.
# isdecimal, not isdigit: "²" is a digit that int() does not read
NAT = Scalar(
    lru_cache(maxsize=32, typed=True)(str),
    lambda text: int(text) if text.isdecimal() else None,
)


class Many:
    """Field kind: a tuple of children of one sort, numbered as a list."""

    def __init__(self, sort: Sort) -> None:
        self.sort = sort

    def number(self, value: tuple) -> int:
        return list_number([self.sort.number(x) for x in value])

    def denumber(self, n: int) -> tuple:
        return tuple([self.sort.denumber(c) for c in list_of(n)])


def _final(cls: type, **kwargs: Any) -> None:
    # a subclass would number and print as its parent
    raise TypeError(f"node class {cls.__mro__[1].__name__} is final")


def _as_tuples(names: Sequence[str]) -> Callable[[Any], None]:
    """A `__post_init__` that stores the `Many` fields `names` as tuples."""

    def __post_init__(self: Any) -> None:
        for name in names:
            object.__setattr__(self, name, tuple(getattr(self, name)))

    return __post_init__


def _kind(node: Any, sort: Optional[Sort] = None) -> type:
    """The class of a node of `sort` (of any sort if None); it holds the row."""
    # node classes are final (see `Sort.declare`), so an inherited row is its own
    own = getattr(node.__class__, "_sort", None)
    if own is None or (sort is not None and own is not sort):
        raise TypeError(f"{node!r} is no {sort.name if sort else 'node'}")
    return node.__class__


class Sort:
    """A notation: its name and its rows; every reader message is built from them."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.radix = 0
        # (class, field kinds) by tag, a leaf's one field included: plain
        # tuples keep `denumber` and `split` as fast as hand-written decoders,
        # and the interpreter compiles every program it runs through `split`
        self.rows: list[tuple[type, tuple]] = []
        # head word -> (class, values it fills, fields left, arity)
        self.heads: dict[str, tuple[type, tuple, tuple, int]] = {}

    def declare(self, *rows: tuple[str, Any, Mapping[str, Any]]) -> tuple[type, ...]:
        """Add rows (name, head, {field: kind}) and return their node classes.

        A row's position is its tag. The head is a word; None for a leaf,
        which prints as its one scalar field; or a symbol table
        {word: (code, arity)} whose code fills the first field and whose other
        field is one `Many`: a word reads and prints only at its arity, and
        any other code or count as `sym<code>`. Each class is
        a frozen dataclass with the row's fields in order, `Many` fields
        stored as tuples, and the caller's module as its `__module__`, as
        `collections.namedtuple` does. The class holds its row as `_sort`,
        `_tag`, `_head`, `_slots` ((kind, name) per field) and `_symbols`
        ((code, arity) -> word), and is final: subclassing it raises `TypeError`.
        """
        module = sys._getframe(1).f_globals.get("__name__", "__main__")
        classes = []
        for name, head, fields in rows:
            kinds = tuple(fields.values())
            table = isinstance(head, Mapping)
            namespace = {
                "_sort": self,
                "_tag": len(self.rows),
                "_head": head,
                "_slots": tuple((field, f) for f, field in fields.items()),
                "_symbols": {code: word for word, code in head.items()} if table else None,
                "__init_subclass__": _final,
            }
            many = [f for f, field in fields.items() if field.__class__ is Many]
            if many:
                namespace["__post_init__"] = _as_tuples(many)
            cls = make_dataclass(name, list(fields), namespace=namespace, frozen=True)
            cls.__module__ = module
            classes.append(cls)
            self.rows.append((cls, kinds))
            if table:
                for word, (code, arity) in head.items():
                    self.heads[word] = (cls, (code,), kinds[1:], arity)
            elif head is not None:
                self.heads[head] = (cls, (), kinds, len(kinds))
        self.radix = len(self.rows)
        return tuple(classes)

    def number(self, node: Any) -> int:
        """The node's number: radix * payload + tag."""
        cls = _kind(node, self)
        field, name = cls._slots[-1]
        payload = field.number(getattr(node, name))
        for field, name in cls._slots[-2::-1]:
            payload = pair(field.number(getattr(node, name)), payload)
        return self.radix * payload + cls._tag

    def split(self, n: int) -> tuple[type, tuple[int, ...]]:
        """Node n's class and its field numbers: one level of `denumber`."""
        cls, fields = self.rows[n % self.radix]
        payload = n // self.radix
        if len(fields) == 1:
            return cls, (payload,)
        numbers = []
        for _ in fields[:-1]:
            value, payload = unpair(payload)
            numbers.append(value)
        numbers.append(payload)
        return cls, tuple(numbers)

    def denumber(self, n: int) -> Any:
        """Total inverse of `number`: every natural number is a node of the sort."""
        cls, fields = self.rows[n % self.radix]
        payload = n // self.radix
        if len(fields) == 1:
            return cls(fields[0].denumber(payload))
        values = []
        for field in fields[:-1]:
            value, payload = unpair(payload)
            values.append(field.denumber(value))
        values.append(fields[-1].denumber(payload))
        return cls(*values)

    def format(self, node: Any) -> str:
        """Prefix notation: a leaf prints bare, any other node as (head fields...)."""
        cls = _kind(node, self)
        slots = cls._slots
        if cls._head is None:
            return slots[0][0].name(getattr(node, slots[0][1]))
        words = [cls._head]
        if cls._symbols is not None:
            slots = slots[1:]
        for field, name in slots:
            value = getattr(node, name)
            if field.__class__ is Many:
                words.extend([field.sort.format(x) for x in value])
            elif field.__class__ is Scalar:
                words.append(field.name(value))
            else:
                words.append(field.format(value))
        if cls._symbols is not None:
            code = getattr(node, cls._slots[0][1])
            words[0] = cls._symbols.get((code, len(words) - 1)) or f"sym{code}"
        return "(" + " ".join(words) + ")"

    def _sym(self, word: str, count: int, pos: int) -> tuple[type, tuple, tuple, int]:
        """The `heads` entry of `sym<k>` at `count` arguments, as `format` spells it."""
        code = NAT.code(word[3:]) if word[:3] == "sym" else None
        for cls, kinds in self.rows:
            if cls._symbols is not None and code is not None and str(code) == word[3:]:
                if (code, count) in cls._symbols:
                    taken = cls._symbols[code, count]
                    raise InputError(f"{word} at arity {count} is spelled {taken} (offset {pos})")
                return cls, (code,), kinds[1:], count
        raise InputError(f"unknown {self.name} operator {word!r} at offset {pos}")

    def parse(self, text: str) -> Any:
        """Read the prefix notation of `format`; errors name an offset.

        Well-formed text is read in one pass over its words. Any other text,
        and a `sym<k>` head, is read again through `read` and the
        s-expression tree, whose messages name an offset.
        """
        words = sexpr.words(text)
        # a RecursionError is neither: text nested too deeply stops here
        try:
            node, i = self._take(words, 0)
            if i == len(words):
                return node
        except (LookupError, ValueError):
            pass
        return self.read(sexpr.parse(text))

    def _take(self, words: list[str], i: int) -> tuple[Any, int]:
        """The node that starts at words[i] and the index after it.

        It decides as `read` does, from the same rows and heads. It raises
        `LookupError` or `ValueError` on any text that `read` refuses, and
        on a `sym<k>` head, which it leaves to `read`.
        """
        word = words[i]
        if word != "(":
            if word != ")":
                for cls, fields in self.rows:
                    if cls._head is None:
                        value = fields[0].code(word)
                        if value is not None:
                            return cls(value), i + 1
            raise LookupError(word)
        cls, values, fields, arity = self.heads[words[i + 1]]
        i += 2
        values = list(values)
        for field in fields:
            if field.__class__ is Sort:
                value, i = field._take(words, i)
            elif field.__class__ is Many:
                # a `Many` is a table row's last field and takes the arguments left
                value = []
                for _ in range(arity + 1 - len(fields)):
                    child, i = field.sort._take(words, i)
                    value.append(child)
            else:
                word = words[i]
                value = None if word == "(" or word == ")" else field.code(word)
                if value is None:
                    raise LookupError(word)
                i += 1
            values.append(value)
        if words[i] != ")":
            raise LookupError(words[i])
        return cls(*values), i + 1

    def read(self, node: sexpr.Node) -> Any:
        """Build a node of this sort from an s-expression; errors name an offset."""
        if isinstance(node, sexpr.Atom):
            for cls, fields in self.rows:
                if cls._head is None:
                    value = fields[0].code(node.text)
                    if value is not None:
                        return cls(value)
            raise InputError(f"{node.text!r} at offset {node.pos} is no {self.name}")
        if not node.items or not isinstance(node.items[0], sexpr.Atom):
            raise InputError(f"expected an operator at offset {node.pos}")
        word, args = node.items[0].text, node.items[1:]
        cls, values, fields, arity = self.heads.get(word) or self._sym(word, len(args), node.pos)
        if len(args) != arity:
            plural = "s" * (arity != 1)
            raise InputError(f"{word} takes {arity} argument{plural} (offset {node.pos})")
        values = list(values)
        args = iter(args)
        for field in fields:
            if field.__class__ is Many:
                values.append(tuple([field.sort.read(a) for a in args]))
                continue
            arg = next(args)
            if field.__class__ is Sort:
                values.append(field.read(arg))
                continue
            # a scalar field read from a head's arguments is a bound variable
            code = field.code(arg.text) if isinstance(arg, sexpr.Atom) else None
            if code is None:
                token = arg.text if isinstance(arg, sexpr.Atom) else "("
                raise InputError(f"{token!r} at offset {arg.pos} is no variable")
            values.append(code)
        return cls(*values)


def rewrite(node: Any, rule: Callable[[Any], Any]) -> Any:
    """Rebuild a tree with the caller's special cases.

    rule(n) returns the replacement of n, which is not examined further, or
    None to keep n's constructor and rewrite its children.
    """
    out = rule(node)
    if out is not None:
        return out
    cls = _kind(node)
    if cls._head is None:
        return node
    values = []
    for field, name in cls._slots:
        value = getattr(node, name)
        if field.__class__ is Sort:
            value = rewrite(value, rule)
        elif field.__class__ is Many:
            value = tuple([rewrite(x, rule) for x in value])
        values.append(value)
    return cls(*values)


def children(node: Any) -> list:
    """The child nodes of a node, in field order, for folds."""
    out = []
    for field, name in _kind(node)._slots:
        if field.__class__ is Sort:
            out.append(getattr(node, name))
        elif field.__class__ is Many:
            out.extend(getattr(node, name))
    return out


def same(a: Any, b: Any) -> bool:
    """Structural equality of two trees, with an explicit stack.

    Unlike the dataclasses' own `==`, which nests several host frames per
    level, it compares trees of any depth.
    """
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a.__class__ is not b.__class__:
            return False
        for field, name in _kind(a)._slots:
            x, y = getattr(a, name), getattr(b, name)
            if field.__class__ is Sort:
                stack.append((x, y))
            elif field.__class__ is Many:
                if len(x) != len(y):
                    return False
                stack.extend(zip(x, y))
            elif x != y:
                return False
    return True
