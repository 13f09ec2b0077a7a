"""Finite diagonal-argument engine with machine-checkable certificates.

All set talk is index arithmetic: a carrier is {0, .., size-1} with optional
display labels, an evaluation matrix tabulates a two-argument function into a
value carrier, and the operations below construct the classical diagonal map,
decide representability by brute force, and emit certificates that re-verify
cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import InputError, NotApplicableError


@dataclass(frozen=True)
class Carrier:
    """Finite index set {0, .., size-1} with optional pairwise-distinct labels."""

    size: int
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.size < 1:
            raise InputError("carrier size must be at least 1")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != self.size:
                raise InputError("label count must equal carrier size")
            if len(set(self.labels)) != self.size:
                raise InputError("carrier labels must be pairwise distinct")

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels is not None else str(i)


@dataclass(frozen=True)
class EndoMap:
    """Total self-map on a carrier, stored pointwise: y goes to mapping[y]."""

    carrier: Carrier
    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mapping", tuple(self.mapping))
        if len(self.mapping) != self.carrier.size:
            raise InputError("endomap must define an image for every carrier element")
        for y, image in enumerate(self.mapping):
            if not 0 <= image < self.carrier.size:
                raise InputError(f"endomap sends {y} to {image}, outside the carrier")


@dataclass(frozen=True)
class EvalMatrix:
    """Tabulated f : rows x cols -> y, cell entries indexing into y."""

    rows: Carrier
    cols: Carrier
    y: Carrier
    cell: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cell", tuple(tuple(row) for row in self.cell))
        if len(self.cell) != self.rows.size:
            raise InputError("matrix must have one row per row-carrier element")
        try:
            for t, row in enumerate(self.cell):
                if len(row) != self.cols.size:
                    raise InputError(f"row {t} must have one entry per column")
                for s, value in enumerate(row):
                    if not 0 <= value < self.y.size:
                        raise InputError(f"cell ({t},{s}) lies outside the value carrier")
        except TypeError:
            raise InputError(f"cell ({t},{s}) is not a number") from None

    @property
    def is_square(self) -> bool:
        return self.rows.size == self.cols.size

    def column(self, s: int) -> tuple[int, ...]:
        return tuple(self.cell[t][s] for t in range(self.rows.size))


@dataclass(frozen=True)
class Section:
    """An onto map beta : T -> S together with an explicit right inverse.

    The right inverse is supplied, not searched for; construction fails unless
    beta(beta_bar(s)) = s for every s, which is exactly beta being onto.
    """

    beta: tuple[int, ...]
    beta_bar: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", tuple(self.beta))
        object.__setattr__(self, "beta_bar", tuple(self.beta_bar))
        if not self.beta or not self.beta_bar:
            raise InputError("section requires nonempty beta and beta_bar")
        t_size, s_size = len(self.beta), len(self.beta_bar)
        for t, s in enumerate(self.beta):
            if not 0 <= s < s_size:
                raise InputError(f"beta[{t}] lies outside the column carrier")
        for s, t in enumerate(self.beta_bar):
            if not 0 <= t < t_size:
                raise InputError(f"beta_bar[{s}] lies outside the row carrier")
        for s in range(s_size):
            if self.beta[self.beta_bar[s]] != s:
                raise InputError(
                    f"beta_bar is not a right inverse at {s}: beta is not onto"
                )


@dataclass(frozen=True)
class YMap:
    """A map from a domain carrier into a value carrier, stored pointwise."""

    domain: Carrier
    y: Carrier
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.values) != self.domain.size:
            raise InputError("map must define a value for every domain element")
        for t, value in enumerate(self.values):
            if not 0 <= value < self.y.size:
                raise InputError(f"value at {t} lies outside the value carrier")


@dataclass(frozen=True)
class NonRepresentabilityReport:
    """Certificate that g is no column of the matrix.

    witness_rows[s] is a row index t with g(t) != f(t, s); one differing row
    per column rules out every column.
    """

    g: YMap
    witness_rows: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "witness_rows", tuple(self.witness_rows))


@dataclass(frozen=True)
class FixedPointWitness:
    """Certificate that alpha fixes value = f(column, column)."""

    column: int
    value: int


def fixed_points(alpha: EndoMap) -> set[int]:
    """All y with alpha(y) = y."""
    return {y for y, image in enumerate(alpha.mapping) if image == y}


def _identity_section(f: EvalMatrix) -> Section:
    """beta = beta_bar = identity: the section form's plain diagonal."""
    if not f.is_square:
        raise InputError("matrix must be square for the diagonal composition")
    return Section(range(f.rows.size), range(f.rows.size))


def compose_diagonal(f: EvalMatrix, alpha: EndoMap) -> YMap:
    """The diagonal map g(t) = alpha(f(t, t)); f must be square."""
    return compose_with_section(f, alpha, _identity_section(f))


def compose_with_section(f: EvalMatrix, alpha: EndoMap, sec: Section) -> YMap:
    """The off-diagonal map g(t) = alpha(f(t, beta(t)))."""
    if alpha.carrier != f.y:
        raise InputError("endomap carrier must match the matrix value carrier")
    if len(sec.beta) != f.rows.size:
        raise InputError("beta must be defined on every row")
    if len(sec.beta_bar) != f.cols.size:
        raise InputError("beta_bar must be defined on every column")
    values = tuple(alpha.mapping[f.cell[t][sec.beta[t]]] for t in range(f.rows.size))
    return YMap(f.rows, f.y, values)


def representing_columns(g: YMap, f: EvalMatrix) -> set[int]:
    """All columns s with g = f(-, s); empty means g is not representable."""
    if g.domain != f.rows or g.y != f.y:
        raise InputError("map carriers must match the matrix carriers")
    return {
        s
        for s in range(f.cols.size)
        if all(g.values[t] == f.cell[t][s] for t in range(f.rows.size))
    }


def cantor_witness(
    f: EvalMatrix, alpha: EndoMap, sec: Optional[Section] = None
) -> NonRepresentabilityReport:
    """Construct the section map (by default the diagonal) and certify it is no column.

    The witness row for column s is the proof's canonical one, t = beta_bar(s),
    which is s itself in the diagonal form. Requires alpha to be
    fixed-point-free; otherwise the construction proves nothing.
    """
    if fixed_points(alpha):
        raise NotApplicableError(
            "endomap has a fixed point; the diagonal construction needs a "
            "fixed-point-free map"
        )
    if sec is None:
        sec = _identity_section(f)
    report = NonRepresentabilityReport(compose_with_section(f, alpha, sec), sec.beta_bar)
    # guaranteed by fixed-point-freeness; a failure here is a bug, not bad input
    assert verify_nonrepresentability(f, report)
    return report


def weak_diagonal_fixed_point(
    f: EvalMatrix, alpha: EndoMap
) -> Optional[FixedPointWitness]:
    """If the diagonal map is representable, extract a fixed point of alpha.

    Ties between representing columns break toward the smallest index; absence
    of a witness is a value, not an error.
    """
    g = compose_diagonal(f, alpha)
    columns = representing_columns(g, f)
    if not columns:
        return None
    t = min(columns)
    y0 = f.cell[t][t]
    assert alpha.mapping[y0] == y0
    return FixedPointWitness(column=t, value=y0)


def verify_nonrepresentability(f: EvalMatrix, report: NonRepresentabilityReport) -> bool:
    """Re-check every witnessed inequality against the matrix."""
    g = report.g
    if g.domain != f.rows or g.y != f.y:
        return False
    if len(report.witness_rows) != f.cols.size:
        return False
    for s, t in enumerate(report.witness_rows):
        if not 0 <= t < f.rows.size:
            return False
        if g.values[t] == f.cell[t][s]:
            return False
    return True


def verify_fixed_point(
    f: EvalMatrix, alpha: EndoMap, witness: FixedPointWitness
) -> bool:
    """Re-check alpha(y0) = y0 and y0 = f(t, t) = g(t) for the witness."""
    t, y0 = witness.column, witness.value
    if not (f.is_square and 0 <= t < f.rows.size and 0 <= y0 < f.y.size):
        return False
    if alpha.carrier != f.y:
        return False
    return f.cell[t][t] == y0 and alpha.mapping[y0] == y0
