"""Named finite instantiations of the diagonal construction.

Each table (set membership, a describes relation, three-valued
self-description, decimal digits) is checked once, when built, as the
evaluation matrix it keeps as `table.matrix`. Each instance twists that
matrix's diagonal by a fixed-point-free map and returns the twisted vector with
a certificate that it matches no column. Demo tables ship as JSON data files.
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
TRI_CARRIER = Carrier(3, TRI_LEVELS)
DIGIT_CARRIER = Carrier(10)

# 0 <-> 1 on bits
negation = EndoMap(BIT_CARRIER, (1, 0))
# true of itself becomes F; meaningless or false of itself becomes T
strong_liar_twist = EndoMap(TRI_CARRIER, (2, 0, 0))
# digit d becomes 9 - d; no digit is its own image
digit_flip = EndoMap(DIGIT_CARRIER, tuple(9 - d for d in range(10)))


def _keep_matrix(table, carrier: Carrier, y: Carrier, cell) -> None:
    """Check a table as the square matrix `cell`, once, and keep it as `table.matrix`."""
    # not a field: ==, hash, repr and fields() see the table's own; replace() checks anew
    object.__setattr__(table, "matrix", EvalMatrix(carrier, carrier, y, cell))


@dataclass(frozen=True)
class SubsetFamily:
    """A proposed enumeration S_0 .. S_{n-1} of subsets of {0, .., n-1}."""

    subsets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _freeze(self, "subsets", rows=True)
        carrier = Carrier(len(self.subsets))
        # lengths before the transpose: zip drops the extra entries of a longer row
        if any(len(s) != carrier.size for s in self.subsets):
            raise InputError("every subset must have one entry per element")
        # rows are elements, columns are subsets: cell[n][m] = 1 iff n in S_m
        _keep_matrix(self, carrier, BIT_CARRIER, tuple(zip(*self.subsets)))


@dataclass(frozen=True)
class DescribesMatrix:
    """rel[i][j] = 1 iff item j describes (or contains) item i."""

    labels: tuple[str, ...]
    rel: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _freeze(self, "labels")
        _freeze(self, "rel", rows=True)
        _keep_matrix(self, Carrier(len(self.labels), self.labels), BIT_CARRIER, self.rel)


@dataclass(frozen=True)
class TriValuedMatrix:
    """Self-description table over T(rue) / M(eaningless) / F(alse)."""

    labels: tuple[str, ...]
    table: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        _freeze(self, "labels")
        _freeze(self, "table", rows=True)
        # a letter other than T, M or F lands outside the value carrier
        cell = tuple(
            tuple(TRI_LEVELS.index(v) if v in TRI_LEVELS else -1 for v in row)
            for row in self.table
        )
        _keep_matrix(self, Carrier(len(self.labels), self.labels), TRI_CARRIER, cell)


@dataclass(frozen=True)
class DigitMatrix:
    """digits[i][j] = decimal place i of the j-th described real in [0, 1).

    Place 0 is the units digit (zero for every such real), so place i is
    floor(x * 10^i) mod 10.
    """

    labels: tuple[str, ...]
    digits: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _freeze(self, "labels")
        _freeze(self, "digits", rows=True)
        _keep_matrix(self, Carrier(len(self.labels), self.labels), DIGIT_CARRIER, self.digits)


def describes_matrix(
    table: SubsetFamily | DescribesMatrix | TriValuedMatrix | DigitMatrix,
) -> EvalMatrix:
    """The `EvalMatrix` a table was checked as when it was built."""
    return table.matrix


membership_matrix = tri_valued_matrix = digit_matrix = describes_matrix


def powerset_instance(
    fam: SubsetFamily,
) -> tuple[tuple[int, ...], NonRepresentabilityReport]:
    """The set G = {i : i not in S_i}, absent from the family.

    Returns G as a characteristic bit-vector plus the certificate; the
    witness row for column m is m itself.
    """
    report = cantor_witness(fam.matrix, negation)
    return report.g.values, report


def relation_instance(
    m: DescribesMatrix,
) -> tuple[tuple[int, ...], NonRepresentabilityReport]:
    """Characteristic vector of the items that do not describe themselves.

    The vector is no column of the relation: nothing describes exactly the
    self-undescribers.
    """
    report = cantor_witness(m.matrix, negation)
    return report.g.values, report


def strong_liar_instance(
    m: TriValuedMatrix,
) -> tuple[tuple[str, ...], NonRepresentabilityReport]:
    """Three-valued diagonal twist: T on the diagonal becomes F, M and F become T."""
    report = cantor_witness(m.matrix, strong_liar_twist)
    letters = tuple(TRI_LEVELS[v] for v in report.g.values)
    return letters, report


def richard_instance(
    m: DigitMatrix,
) -> tuple[tuple[int, ...], NonRepresentabilityReport]:
    """The real whose place-i digit is 9 minus the table's diagonal digit.

    The resulting digit sequence differs from every column at its diagonal
    place, so the real it spells is none of the described ones.
    """
    report = cantor_witness(m.matrix, digit_flip)
    return report.g.values, report


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
