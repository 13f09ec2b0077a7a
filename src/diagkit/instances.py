"""Named finite instantiations of the diagonal construction.

Each instance packages a concrete table (set membership, a describes
relation, three-valued self-description, decimal digits) as an evaluation
matrix, applies the appropriate fixed-point-free twist to its diagonal, and
returns the twisted vector together with a certificate that it matches no
column. Demo tables ship with the package as JSON data files.
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
    cantor_witness,
)

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


@dataclass(frozen=True)
class SubsetFamily:
    """A proposed enumeration S_0 .. S_{n-1} of subsets of {0, .., n-1}."""

    subsets: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "subsets", tuple(tuple(s) for s in self.subsets))
        # checked as the square bit table whose row m is S_m
        carrier = Carrier(self.size)
        EvalMatrix(rows=carrier, cols=carrier, y=BIT_CARRIER, cell=self.subsets)

    @property
    def size(self) -> int:
        return len(self.subsets)


@dataclass(frozen=True)
class DescribesMatrix:
    """rel[i][j] = 1 iff item j describes (or contains) item i."""

    labels: tuple[str, ...]
    rel: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "rel", tuple(tuple(r) for r in self.rel))
        describes_matrix(self)


@dataclass(frozen=True)
class TriValuedMatrix:
    """Self-description table over T(rue) / M(eaningless) / F(alse)."""

    labels: tuple[str, ...]
    table: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "table", tuple(tuple(r) for r in self.table))
        tri_valued_matrix(self)


@dataclass(frozen=True)
class DigitMatrix:
    """digits[i][j] = decimal place i of the j-th described real in [0, 1).

    Place 0 is the units digit (zero for every such real), so place i is
    floor(x * 10^i) mod 10.
    """

    labels: tuple[str, ...]
    digits: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "digits", tuple(tuple(r) for r in self.digits))
        digit_matrix(self)


def membership_matrix(fam: SubsetFamily) -> EvalMatrix:
    """Rows are elements, columns are subsets: cell[n][m] = 1 iff n in S_m."""
    carrier = Carrier(fam.size)
    cell = tuple(zip(*fam.subsets))
    return EvalMatrix(rows=carrier, cols=carrier, y=BIT_CARRIER, cell=cell)


def describes_matrix(m: DescribesMatrix) -> EvalMatrix:
    carrier = Carrier(len(m.labels), m.labels)
    return EvalMatrix(rows=carrier, cols=carrier, y=BIT_CARRIER, cell=m.rel)


def tri_valued_matrix(m: TriValuedMatrix) -> EvalMatrix:
    carrier = Carrier(len(m.labels), m.labels)
    # a letter other than T, M or F lands outside the value carrier
    cell = tuple(
        tuple(TRI_LEVELS.index(v) if v in TRI_LEVELS else -1 for v in row)
        for row in m.table
    )
    return EvalMatrix(rows=carrier, cols=carrier, y=TRI_CARRIER, cell=cell)


def digit_matrix(m: DigitMatrix) -> EvalMatrix:
    carrier = Carrier(len(m.labels), m.labels)
    return EvalMatrix(rows=carrier, cols=carrier, y=DIGIT_CARRIER, cell=m.digits)


def powerset_instance(
    fam: SubsetFamily,
) -> tuple[tuple[int, ...], NonRepresentabilityReport]:
    """The set G = {i : i not in S_i}, absent from the family.

    Returns G as a characteristic bit-vector plus the certificate; the
    witness row for column m is m itself.
    """
    report = cantor_witness(membership_matrix(fam), negation)
    return report.g.values, report


def relation_instance(
    m: DescribesMatrix,
) -> tuple[tuple[int, ...], NonRepresentabilityReport]:
    """Characteristic vector of the items that do not describe themselves.

    The vector is no column of the relation: nothing describes exactly the
    self-undescribers.
    """
    report = cantor_witness(describes_matrix(m), negation)
    return report.g.values, report


def strong_liar_instance(
    m: TriValuedMatrix,
) -> tuple[tuple[str, ...], NonRepresentabilityReport]:
    """Three-valued diagonal twist: T on the diagonal becomes F, M and F become T."""
    report = cantor_witness(tri_valued_matrix(m), strong_liar_twist)
    letters = tuple(TRI_LEVELS[v] for v in report.g.values)
    return letters, report


def richard_instance(
    m: DigitMatrix,
) -> tuple[tuple[int, ...], NonRepresentabilityReport]:
    """The real whose place-i digit is 9 minus the table's diagonal digit.

    The resulting digit sequence differs from every column at its diagonal
    place, so the real it spells is none of the described ones.
    """
    report = cantor_witness(digit_matrix(m), digit_flip)
    return report.g.values, report


def heterological_labels(m: DescribesMatrix) -> tuple[str, ...]:
    """Labels of the items that do not describe themselves."""
    het, _ = relation_instance(m)
    return tuple(label for label, bit in zip(m.labels, het) if bit == 1)


def _demo(table: type, name: str, *keys: str):
    """A table built from the named keys of a bundled data file, and the file name."""
    text = resources.files("diagkit.data").joinpath(name).read_text(encoding="utf-8")
    raw = json.loads(text)
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
