"""Named finite instantiations of the diagonal construction.

A table kind (set membership, a describes relation, three-valued
self-description, decimal digits) is its rows plus its `twist`, a
fixed-point-free map on its values. Each table is checked once, when built,
as the evaluation matrix it keeps as `table.matrix`, whose value carrier is
the twist's. One function, `relation_instance`, twists any table's diagonal
and returns the twisted vector with a certificate that it matches no column.
Demo tables ship as JSON data files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .core import (
    Carrier,
    EndoMap,
    EvalMatrix,
    NonRepresentabilityReport,
    _freeze,
    cantor_witness,
)
from .errors import InputError

BIT_CARRIER = Carrier(2)
TRI_LEVELS = ("T", "M", "F")

# each table kind's twist, a fixed-point-free map on its values:
# 0 <-> 1 on bits
negation = EndoMap(BIT_CARRIER, (1, 0))
# true of itself becomes F; meaningless or false of itself becomes T
strong_liar_twist = EndoMap(Carrier(3, TRI_LEVELS), (2, 0, 0))
# digit d becomes 9 - d; no digit is its own image
digit_flip = EndoMap(Carrier(10), tuple(9 - d for d in range(10)))


def _keep_matrix(table, carrier: Carrier, cell) -> None:
    """Check a table as the square matrix `cell`, once, and keep it as `table.matrix`."""
    # values lie in the twist's carrier; neither matrix nor the unannotated
    # twist is a field: ==, hash, repr and fields() see the table's own; replace() checks anew
    object.__setattr__(table, "matrix", EvalMatrix(carrier, carrier, table.twist.carrier, cell))


@dataclass(frozen=True)
class SubsetFamily:
    """A proposed enumeration S_0 .. S_{n-1} of subsets of {0, .., n-1}."""

    subsets: tuple[tuple[int, ...], ...]
    twist = negation

    def __post_init__(self) -> None:
        _freeze(self, "subsets", rows=True)
        carrier = Carrier(len(self.subsets))
        # lengths before the transpose: zip drops the extra entries of a longer row
        if any(len(s) != carrier.size for s in self.subsets):
            raise InputError("every subset must have one entry per element")
        # rows are elements, columns are subsets: cell[n][m] = 1 iff n in S_m
        _keep_matrix(self, carrier, tuple(zip(*self.subsets)))


@dataclass(frozen=True)
class DescribesMatrix:
    """rel[i][j] = 1 iff item j describes (or contains) item i."""

    labels: tuple[str, ...]
    rel: tuple[tuple[int, ...], ...]
    twist = negation

    def __post_init__(self) -> None:
        _freeze(self, "labels")
        _freeze(self, "rel", rows=True)
        _keep_matrix(self, Carrier(len(self.labels), self.labels), self.rel)


@dataclass(frozen=True)
class TriValuedMatrix:
    """Self-description table over T(rue) / M(eaningless) / F(alse)."""

    labels: tuple[str, ...]
    table: tuple[tuple[str, ...], ...]
    twist = strong_liar_twist

    def __post_init__(self) -> None:
        _freeze(self, "labels")
        _freeze(self, "table", rows=True)
        # a letter other than T, M or F lands outside the value carrier
        cell = tuple(
            tuple(TRI_LEVELS.index(v) if v in TRI_LEVELS else -1 for v in row)
            for row in self.table
        )
        _keep_matrix(self, Carrier(len(self.labels), self.labels), cell)


@dataclass(frozen=True)
class DigitMatrix:
    """digits[i][j] = decimal place i of the j-th described real in [0, 1).

    Place 0 is the units digit (zero for every such real), so place i is
    floor(x * 10^i) mod 10.
    """

    labels: tuple[str, ...]
    digits: tuple[tuple[int, ...], ...]
    twist = digit_flip

    def __post_init__(self) -> None:
        _freeze(self, "labels")
        _freeze(self, "digits", rows=True)
        _keep_matrix(self, Carrier(len(self.labels), self.labels), self.digits)


def describes_matrix(
    table: SubsetFamily | DescribesMatrix | TriValuedMatrix | DigitMatrix,
) -> EvalMatrix:
    """The `EvalMatrix` a table was checked as when it was built."""
    return table.matrix


membership_matrix = tri_valued_matrix = digit_matrix = describes_matrix


def relation_instance(
    table: SubsetFamily | DescribesMatrix | TriValuedMatrix | DigitMatrix,
) -> tuple[tuple[int, ...], NonRepresentabilityReport]:
    """The table's diagonal, twisted by its kind's `twist`, with its certificate.

    The vector is no column, and the witness row for column m is m itself:
    the set G = {i : i not in S_i} is absent from a subset family, nothing
    describes exactly the self-undescribers, and the real whose place-i digit
    is 9 minus the diagonal digit is none of the described ones.
    """
    report = cantor_witness(table.matrix, table.twist)
    return report.g.values, report


powerset_instance = richard_instance = relation_instance


def strong_liar_instance(
    m: TriValuedMatrix,
) -> tuple[tuple[str, ...], NonRepresentabilityReport]:
    """Three-valued diagonal twist: T on the diagonal becomes F, M and F become T."""
    values, report = relation_instance(m)
    return tuple(TRI_LEVELS[v] for v in values), report


def bundled(name: str) -> bytes:
    """The bytes of a file under `diagkit/data`, also from a zipped install."""
    # `data` is no package; one joinpath argument, since 3.10 takes only one
    return resources.files("diagkit").joinpath("data/" + name).read_bytes()


def _demo(table: type, name: str, *keys: str):
    """A table built from the named keys of a bundled data file, and the file name."""
    raw = json.loads(bundled(name).decode("utf-8"))
    return table(*[raw[key] for key in keys]), name


def demo_subset_family() -> tuple[SubsetFamily, str]:
    return _demo(SubsetFamily, "powerset.json", "subsets")


def demo_russell() -> tuple[DescribesMatrix, str]:
    return _demo(DescribesMatrix, "russell.json", "t_labels", "f")


def demo_grelling() -> tuple[DescribesMatrix, str]:
    return _demo(DescribesMatrix, "grelling.json", "t_labels", "f")


def demo_strong_liar() -> tuple[TriValuedMatrix, str]:
    return _demo(TriValuedMatrix, "strong_liar.json", "labels", "table")


def demo_richard() -> tuple[DigitMatrix, str]:
    return _demo(DigitMatrix, "richard_digits.json", "labels", "digits")
