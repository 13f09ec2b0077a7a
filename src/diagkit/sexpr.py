"""Minimal s-expression reader shared by the program and formula notations.

Produces a tree of Atom / SList nodes that carry their character offset, so
callers can report positions in their own error messages. `words` gives
the same tokens without offsets, for a reader that needs no positions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from .errors import InputError

Node = Union["Atom", "SList"]


@dataclass(frozen=True)
class Atom:
    text: str
    pos: int


@dataclass(frozen=True)
class SList:
    items: tuple[Node, ...]
    pos: int


_TOKEN = re.compile(r"[()]|[^()\s]+")


def tokenize(text: str) -> list[tuple[str, int]]:
    # for str patterns, \s matches exactly the characters where str.isspace() holds
    return [(m.group(), m.start()) for m in _TOKEN.finditer(text)]


def words(text: str) -> list[str]:
    """The tokens of `tokenize` without their offsets."""
    return _TOKEN.findall(text)


def parse(text: str) -> Node:
    """Read exactly one expression; trailing tokens are an error."""
    tokens = tokenize(text)
    if not tokens:
        raise InputError("empty expression")
    node, rest = _read(tokens, 0)
    if rest != len(tokens):
        tok, pos = tokens[rest]
        raise InputError(f"unexpected {tok!r} at offset {pos}")
    return node


def _read(tokens: list[tuple[str, int]], i: int) -> tuple[Node, int]:
    tok, pos = tokens[i]
    if tok == "(":
        items = []
        i += 1
        while True:
            if i >= len(tokens):
                raise InputError(f"unclosed '(' at offset {pos}")
            if tokens[i][0] == ")":
                return SList(tuple(items), pos), i + 1
            node, i = _read(tokens, i)
            items.append(node)
    if tok == ")":
        raise InputError(f"unexpected ')' at offset {pos}")
    return Atom(tok, pos), i + 1
