"""Core engine: diagonal composition, representability, certificates."""

import itertools
import re

import pytest
from hypothesis import given, strategies as st

from diagkit.core import (
    Carrier,
    EndoMap,
    EvalMatrix,
    Section,
    YMap,
    cantor_witness,
    compose_diagonal,
    compose_with_section,
    fixed_points,
    representing_columns,
    verify_fixed_point,
    verify_nonrepresentability,
    weak_diagonal_fixed_point,
)
from diagkit.errors import InputError, NotApplicableError

BITS = Carrier(2)
SWAP = EndoMap(BITS, (1, 0))


def square(cell, y=BITS):
    n = len(cell)
    c = Carrier(n)
    return EvalMatrix(rows=c, cols=c, y=y, cell=cell)


F3 = square(((1, 0, 1), (0, 1, 1), (1, 1, 0)))
# each passes a range check or breaks one with a raw TypeError; none is an index
NON_INDICES = (0.5, 1.0, True, "1", None, [0])


def test_carrier_validation():
    with pytest.raises(InputError):
        Carrier(0)
    with pytest.raises(InputError):
        Carrier(2, ("a",))
    with pytest.raises(InputError):
        Carrier(2, ("a", "a"))
    # a list label does not hash, and a non-string one would print as itself
    for labels in ([[0], [1]], ("a", 1), (b"a", "b")):
        with pytest.raises(InputError, match="^carrier labels must be strings$"):
            Carrier(2, labels)
    # one string is no sequence of labels: tuple("ab") would label by character
    with pytest.raises(InputError, match="^labels must be a sequence, not a str$"):
        Carrier(2, "ab")
    for size in (-1, 0, 2.5, 1.5, 2.0, True, None, "3", [1]):
        message = f"carrier size must be an int.*, got {re.escape(repr(size))}$"
        with pytest.raises(InputError, match=message):
            Carrier(size)


def test_endomap_validation():
    with pytest.raises(InputError):
        EndoMap(BITS, (0,))
    with pytest.raises(InputError):
        EndoMap(BITS, (0, 2))
    for bad in NON_INDICES:
        with pytest.raises(InputError, match=f"endomap sends 0 to {re.escape(repr(bad))}, outside"):
            EndoMap(BITS, (bad, 0))


def test_matrix_validation():
    with pytest.raises(InputError):
        square(((0, 1), (0,)))
    with pytest.raises(InputError):
        square(((0, 2), (0, 1)))
    for bad in NON_INDICES:
        with pytest.raises(InputError, match=r"cell \(1,0\) lies outside the value carrier"):
            square(((0, 1), (bad, 1)))


def test_matrix_rejects_rows_that_are_no_sequence():
    with pytest.raises(InputError, match="^cell must be a sequence of sequences$"):
        EvalMatrix(BITS, BITS, BITS, (1, 2))


def test_compose_diagonal_flips_diagonal():
    g = compose_diagonal(F3, SWAP)
    assert g.values == (0, 0, 1)


def test_compose_diagonal_identity_alpha_returns_diagonal():
    ident = EndoMap(BITS, (0, 1))
    g = compose_diagonal(F3, ident)
    assert g.values == tuple(F3.cell[t][t] for t in range(3))


def test_compose_diagonal_single_cell():
    f = square(((0,),))
    assert compose_diagonal(f, SWAP).values == (1,)


def test_compose_diagonal_requires_square():
    f = EvalMatrix(rows=Carrier(2), cols=Carrier(3), y=BITS, cell=((0, 1, 0), (1, 0, 1)))
    with pytest.raises(InputError):
        compose_diagonal(f, SWAP)


def test_compose_diagonal_requires_matching_carrier():
    other = EndoMap(Carrier(3), (1, 2, 0))
    with pytest.raises(InputError):
        compose_diagonal(F3, other)


SECTION_F = EvalMatrix(
    rows=Carrier(3), cols=Carrier(2), y=BITS, cell=((0, 1), (1, 0), (1, 1))
)
SECTION = Section(beta=(0, 1, 0), beta_bar=(0, 1))


def test_compose_with_section_example():
    g = compose_with_section(SECTION_F, SWAP, SECTION)
    assert g.values == (1, 1, 0)


def test_section_identity_matches_diagonal():
    sec = Section(beta=(0, 1, 2), beta_bar=(0, 1, 2))
    assert compose_with_section(F3, SWAP, sec) == compose_diagonal(F3, SWAP)
    assert cantor_witness(F3, SWAP) == cantor_witness(F3, SWAP, sec)


def test_section_right_inverse_checked():
    Section(beta=(0, 0), beta_bar=(1,))  # beta(beta_bar(0)) = 0, fine
    with pytest.raises(InputError):
        Section(beta=(1, 1), beta_bar=(0, 1))  # misses column 0: not onto
    for bad in NON_INDICES:
        with pytest.raises(InputError, match=r"beta\[1\] lies outside the column carrier"):
            Section(beta=(0, bad), beta_bar=(0, 1))
        with pytest.raises(InputError, match=r"beta_bar\[0\] lies outside the row carrier"):
            Section(beta=(0, 1), beta_bar=(bad, 1))


def test_section_rejects_a_beta_that_is_no_sequence():
    with pytest.raises(InputError, match="^beta must be a sequence$"):
        Section(3, (0,))


def test_ymap_validation():
    with pytest.raises(InputError):
        YMap(BITS, BITS, (0,))
    for bad in (2, -1) + NON_INDICES:
        with pytest.raises(InputError, match="value at 1 lies outside the value carrier"):
            YMap(BITS, BITS, (0, bad))


def test_representing_columns_empty_for_constructed_g():
    g = compose_diagonal(F3, SWAP)
    assert representing_columns(g, F3) == set()


def test_representing_columns_finds_self_column():
    g = YMap(F3.rows, F3.y, F3.column(1))
    assert 1 in representing_columns(g, F3)


def test_representing_columns_constant_matrix():
    f = square(((0, 0), (0, 0)))
    g = YMap(f.rows, f.y, (0, 0))
    assert representing_columns(g, f) == {0, 1}


def test_representing_columns_carrier_mismatch():
    g = YMap(Carrier(2), BITS, (0, 0))
    with pytest.raises(InputError):
        representing_columns(g, F3)


@pytest.mark.parametrize(
    "mapping,expected",
    [((1, 0), set()), ((0, 1, 2), {0, 1, 2}), ((1, 0, 2), {2})],
)
def test_fixed_points(mapping, expected):
    assert fixed_points(EndoMap(Carrier(len(mapping)), mapping)) == expected


def test_cantor_witness_diagonal():
    report = cantor_witness(F3, SWAP)
    assert report.witness_rows == (0, 1, 2)
    assert verify_nonrepresentability(F3, report)


def test_cantor_witness_rejects_fixed_points():
    ident = EndoMap(BITS, (0, 1))
    with pytest.raises(NotApplicableError):
        cantor_witness(F3, ident)


def test_cantor_witness_checks_the_fit_before_the_fixed_points():
    ident = EndoMap(BITS, (0, 1))
    with pytest.raises(InputError, match="^matrix must be square for the diagonal composition$"):
        cantor_witness(SECTION_F, ident)
    with pytest.raises(InputError, match="^beta must be defined on every row$"):
        cantor_witness(SECTION_F, ident, Section(beta=(0, 1), beta_bar=(0, 1)))


def test_cantor_witness_section_rows():
    report = cantor_witness(SECTION_F, SWAP, SECTION)
    assert report.witness_rows == SECTION.beta_bar
    assert verify_nonrepresentability(SECTION_F, report)


def test_weak_diagonal_fixed_point_example():
    y3 = Carrier(3)
    f = EvalMatrix(rows=Carrier(2), cols=Carrier(2), y=y3, cell=((2, 2), (2, 2)))
    alpha = EndoMap(y3, (1, 0, 2))
    witness = weak_diagonal_fixed_point(f, alpha)
    assert witness is not None
    assert (witness.column, witness.value) == (0, 2)
    assert verify_fixed_point(f, alpha, witness)


def test_weak_diagonal_absent_for_fixed_point_free_alpha():
    assert weak_diagonal_fixed_point(F3, SWAP) is None


def test_weak_diagonal_single_cell_identity():
    f = square(((0,),))
    ident = EndoMap(BITS, (0, 1))
    witness = weak_diagonal_fixed_point(f, ident)
    assert witness is not None
    assert (witness.column, witness.value) == (0, 0)


def fixed_point_free_maps(size):
    return [
        m
        for m in itertools.product(range(size), repeat=size)
        if all(m[y] != y for y in range(size))
    ]


@given(st.data())
def test_cantor_property_small(data):
    t = data.draw(st.integers(1, 4), label="t")
    y = data.draw(st.integers(2, 3), label="y")
    cell = data.draw(
        st.lists(
            st.lists(st.integers(0, y - 1), min_size=t, max_size=t),
            min_size=t,
            max_size=t,
        ),
        label="cell",
    )
    carrier_y = Carrier(y)
    f = EvalMatrix(rows=Carrier(t), cols=Carrier(t), y=carrier_y, cell=cell)
    for mapping in fixed_point_free_maps(y):
        g = compose_diagonal(f, EndoMap(carrier_y, mapping))
        assert representing_columns(g, f) == set()


@given(st.data())
def test_generalized_cantor_property_small(data):
    t = data.draw(st.integers(1, 4), label="t")
    s = data.draw(st.integers(1, 4).filter(lambda v: v <= t), label="s")
    y = data.draw(st.integers(2, 3), label="y")
    cell = data.draw(
        st.lists(
            st.lists(st.integers(0, y - 1), min_size=s, max_size=s),
            min_size=t,
            max_size=t,
        ),
        label="cell",
    )
    reps = data.draw(
        st.lists(st.integers(0, t - 1), min_size=s, max_size=s, unique=True),
        label="beta_bar",
    )
    beta = [data.draw(st.integers(0, s - 1)) for _ in range(t)]
    for col, row in enumerate(reps):
        beta[row] = col
    sec = Section(beta=tuple(beta), beta_bar=tuple(reps))
    carrier_y = Carrier(y)
    f = EvalMatrix(rows=Carrier(t), cols=Carrier(s), y=carrier_y, cell=cell)
    for mapping in fixed_point_free_maps(y):
        alpha = EndoMap(carrier_y, mapping)
        g = compose_with_section(f, alpha, sec)
        assert representing_columns(g, f) == set()
        report = cantor_witness(f, alpha, sec)
        assert verify_nonrepresentability(f, report)


def test_exhaustive_two_by_two_oracle():
    # every 2x2 bit matrix against the unique fixed-point-free alpha on bits;
    # the oracle enumerates all four maps T -> Y by brute force
    bits = Carrier(2)
    for flat in itertools.product((0, 1), repeat=4):
        cell = ((flat[0], flat[1]), (flat[2], flat[3]))
        f = EvalMatrix(rows=bits, cols=bits, y=bits, cell=cell)
        g = compose_diagonal(f, SWAP)
        non_columns = [
            m
            for m in itertools.product((0, 1), repeat=2)
            if all(m != f.column(s) for s in range(2))
        ]
        assert g.values in non_columns


def test_tampered_reports_fail_verification():
    from diagkit.core import FixedPointWitness, NonRepresentabilityReport

    report = cantor_witness(F3, SWAP)
    bad_rows = NonRepresentabilityReport(report.g, (0, 0, 0))
    assert not verify_nonrepresentability(F3, bad_rows)
    short = NonRepresentabilityReport(report.g, (0, 1))
    assert not verify_nonrepresentability(F3, short)
    wrong_g = NonRepresentabilityReport(
        YMap(F3.rows, F3.y, F3.column(0)), report.witness_rows
    )
    assert not verify_nonrepresentability(F3, wrong_g)
    for bad in (3, -1) + NON_INDICES:
        off = NonRepresentabilityReport(report.g, (0, 1, bad))
        assert not verify_nonrepresentability(F3, off)
    assert not verify_fixed_point(F3, SWAP, FixedPointWitness(column=0, value=1))


@given(st.data())
def test_fixed_point_witness_soundness(data):
    t = data.draw(st.integers(1, 3), label="t")
    y = data.draw(st.integers(1, 3), label="y")
    cell = data.draw(
        st.lists(
            st.lists(st.integers(0, y - 1), min_size=t, max_size=t),
            min_size=t,
            max_size=t,
        ),
        label="cell",
    )
    mapping = data.draw(
        st.lists(st.integers(0, y - 1), min_size=y, max_size=y), label="alpha"
    )
    carrier_y = Carrier(y)
    f = EvalMatrix(rows=Carrier(t), cols=Carrier(t), y=carrier_y, cell=cell)
    alpha = EndoMap(carrier_y, mapping)
    witness = weak_diagonal_fixed_point(f, alpha)
    if witness is not None:
        assert verify_fixed_point(f, alpha, witness)
        assert alpha.mapping[witness.value] == witness.value


def test_fixed_point_witness_of_non_ints_fails_verification():
    from diagkit.core import FixedPointWitness

    ident = EndoMap(BITS, (0, 1))
    assert verify_fixed_point(F3, ident, FixedPointWitness(column=0, value=1))
    # True indexes like 1 and equals 1, so only the type tells it apart
    for bad in (0.0, 1.0, True, "0", None):
        assert not verify_fixed_point(F3, ident, FixedPointWitness(column=bad, value=1))
        assert not verify_fixed_point(F3, ident, FixedPointWitness(column=0, value=bad))
