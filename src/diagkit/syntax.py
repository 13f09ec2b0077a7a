"""One node layer for programs, terms and formulas.

A notation is a `Sort`: a table with one row per constructor, giving its
name, the head word it prints with and each field's name and kind. The row
makes the constructor's frozen dataclass, which holds the row. A row's
position is its tag and the number of rows is the sort's radix. Numbering,
printing and reading are derived from the rows, and so are `rewrite` and
`children`, a structural map and a fold whose callers give only their special
cases. Every walker recurses one host frame per tree level.

A node's number is radix * payload + tag. The payload is the right-nested
Cantor pairing of the field numbers, pair(a, pair(b, c)): a scalar field is
its own number, a child its child's number and a tuple of children a list
number. Every natural number is the number of exactly one node.
"""

from __future__ import annotations

import sys
from dataclasses import make_dataclass
from math import isqrt
from typing import Any, Callable, Mapping, Optional, Sequence

from . import sexpr
from .errors import InputError


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
        return value

    denumber = number


# isdecimal, not isdigit: "²" is a digit that int() does not read
NAT = Scalar(str, lambda text: int(text) if text.isdecimal() else None)


class Many:
    """Field kind: a tuple of children of one sort, numbered as a list."""

    def __init__(self, sort: Sort) -> None:
        self.sort = sort

    def number(self, value: tuple) -> int:
        return list_number([self.sort.number(x) for x in value])

    def denumber(self, n: int) -> tuple:
        return tuple([self.sort.denumber(c) for c in list_of(n)])


def _as_tuples(names: Sequence[str]) -> Callable[[Any], None]:
    """A `__post_init__` that stores the `Many` fields `names` as tuples."""

    def __post_init__(self: Any) -> None:
        for name in names:
            object.__setattr__(self, name, tuple(getattr(self, name)))

    return __post_init__


def _kind(node: Any, sort: Optional[Sort] = None) -> type:
    """The class of a node of `sort` (of any sort if None); it holds the row."""
    # the class's own namespace: a subclass would number and print as its parent
    own = node.__class__.__dict__.get("_sort")
    if own is None or (sort is not None and own is not sort):
        raise TypeError(f"not a {sort.name if sort else 'node'}: {node!r}")
    return node.__class__


# the message for a bad atom or head word, given its text and offset
Message = Callable[[str, int], str]


class Sort:
    """A notation: its rows, and what its reader says of a bad atom or head word."""

    def __init__(self, name: str, atom_error: Message, head_error: Message) -> None:
        self.name = name
        self.atom_error = atom_error
        self.head_error = head_error
        self.radix = 0
        # (class, fields or None for a leaf) by tag: plain tuples keep
        # `denumber` as fast as a hand-written decoder, and the interpreter
        # decodes every program it runs
        self.rows: list[tuple[type, Optional[tuple]]] = []
        # head word -> (class, values it fills, fields left, arity, arity error text)
        self.heads: dict[str, tuple[type, tuple, tuple, int, str]] = {}

    def declare(self, *rows: tuple[str, Any, Mapping[str, Any]]) -> tuple[type, ...]:
        """Add rows (name, head, {field: kind}) and return their node classes.

        A row's position is its tag. The head is a word; None for a leaf,
        which prints as its one scalar field; or a symbol table
        {word: (code, arity)} whose code fills the first field. Each class is
        a frozen dataclass with the row's fields in order, `Many` fields
        stored as tuples, and the caller's module as its `__module__`, as
        `collections.namedtuple` does. The class holds its row as `_sort`,
        `_tag`, `_head`, `_slots` ((kind, name) per field) and `_symbols`.
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
                "_symbols": {code: word for word, (code, _) in head.items()} if table else None,
            }
            many = [f for f, field in fields.items() if field.__class__ is Many]
            if many:
                namespace["__post_init__"] = _as_tuples(many)
            cls = make_dataclass(name, list(fields), namespace=namespace, frozen=True)
            cls.__module__ = module
            classes.append(cls)
            self.rows.append((cls, None if head is None else kinds))
            n = len(fields)
            if table:
                for word, (code, arity) in head.items():
                    self.heads[word] = (cls, (code,), kinds[1:], arity, f"{arity} argument(s)")
            elif head is not None and any(f.__class__ is Scalar for f in kinds):
                self.heads[head] = (cls, (), kinds, n, "a variable and a body")
            elif head is not None:
                self.heads[head] = (cls, (), kinds, n, f"{n} argument" + "s" * (n != 1))
        self.radix = len(self.rows)
        return tuple(classes)

    def number(self, node: Any) -> int:
        cls = _kind(node, self)
        field, name = cls._slots[-1]
        payload = field.number(getattr(node, name))
        for field, name in cls._slots[-2::-1]:
            payload = pair(field.number(getattr(node, name)), payload)
        return self.radix * payload + cls._tag

    def denumber(self, n: int) -> Any:
        cls, fields = self.rows[n % self.radix]
        payload = n // self.radix
        if fields is None:
            return cls(payload)
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
        if cls._symbols is None:
            words = [cls._head]
        else:
            code = getattr(node, slots[0][1])
            words = [cls._symbols.get(code, f"sym{code}")]
            slots = slots[1:]
        for field, name in slots:
            value = getattr(node, name)
            if field.__class__ is Many:
                words.extend([field.sort.format(x) for x in value])
            elif field.__class__ is Scalar:
                words.append(field.name(value))
            else:
                words.append(field.format(value))
        return "(" + " ".join(words) + ")"

    def parse(self, text: str) -> Any:
        return self.read(sexpr.parse(text))

    def read(self, node: sexpr.Node) -> Any:
        """Build a node of this sort from an s-expression; errors name an offset."""
        if isinstance(node, sexpr.Atom):
            for cls, fields in self.rows:
                if fields is None:
                    value = cls._slots[0][0].code(node.text)
                    if value is not None:
                        return cls(value)
            raise InputError(self.atom_error(node.text, node.pos))
        if not node.items or not isinstance(node.items[0], sexpr.Atom):
            raise InputError(f"expected an operator at offset {node.pos}")
        word, args = node.items[0].text, node.items[1:]
        if word not in self.heads:
            raise InputError(self.head_error(word, node.pos))
        cls, values, fields, arity, usage = self.heads[word]
        if len(args) != arity:
            raise InputError(f"{word} takes {usage} (offset {node.pos})")
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
            if not isinstance(arg, sexpr.Atom):
                raise InputError(f"{word} takes {usage} (offset {node.pos})")
            code = field.code(arg.text)
            if code is None:
                raise InputError(f"unknown variable {arg.text!r} at offset {arg.pos}")
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
