"""Named instances: powerset, describes-relations, three-valued, digits."""

import random
from fractions import Fraction
from math import isqrt

import pytest

from diagkit import instances as I
from diagkit.core import fixed_points, verify_nonrepresentability
from diagkit.errors import InputError
from diagkit.universe import bounded_halting_matrix


def test_powerset_example():
    fam = I.SubsetFamily(((0, 0, 0), (1, 0, 0), (1, 1, 0)))
    g, report = I.powerset_instance(fam)
    assert g == (1, 1, 1)
    assert verify_nonrepresentability(I.membership_matrix(fam), report)


def test_powerset_all_empty():
    fam = I.SubsetFamily(((0, 0), (0, 0)))
    g, _ = I.powerset_instance(fam)
    assert g == (1, 1)


def test_powerset_single():
    fam = I.SubsetFamily(((1,),))
    g, _ = I.powerset_instance(fam)
    assert g == (0,)


def test_powerset_validation():
    with pytest.raises(InputError):
        I.SubsetFamily(((0, 1), (0,)))
    with pytest.raises(InputError):
        I.SubsetFamily(((0, 2), (0, 0)))
    with pytest.raises(InputError):
        I.SubsetFamily(((0, "1"), (0, 0)))
    with pytest.raises(InputError):
        I.SubsetFamily(())


def test_table_validation():
    with pytest.raises(InputError):
        I.DescribesMatrix(("a", "a"), ((0, 0), (0, 0)))
    with pytest.raises(InputError):
        I.DescribesMatrix(("a", "b"), ((0, 1),))
    with pytest.raises(InputError):
        I.TriValuedMatrix(("a",), (("Q",),))
    with pytest.raises(InputError):
        I.TriValuedMatrix(("a",), (([1],),))
    with pytest.raises(InputError):
        I.DigitMatrix(("a", "b"), ((0, 10), (0, 0)))


def grelling_table():
    m, _ = I.demo_grelling()
    return m


def test_grelling_diagonal_from_the_lore():
    m = grelling_table()
    assert tuple(m.rel[i][i] for i in range(4)) == (1, 0, 0, 1)
    assert m.labels == ("english", "french", "short", "polysyllabic")


def test_grelling_heterological_set():
    m = grelling_table()
    assert I.heterological_labels(m) == ("french", "short")


def test_relation_identity_matrix():
    n = 3
    m = I.DescribesMatrix(
        tuple(f"w{i}" for i in range(n)),
        tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)),
    )
    het, report = I.relation_instance(m)
    assert het == (0, 0, 0)
    assert verify_nonrepresentability(I.describes_matrix(m), report)


def test_relation_all_ones():
    m = I.DescribesMatrix(("a", "b"), ((1, 1), (1, 1)))
    het, report = I.relation_instance(m)
    assert het == (0, 0)
    assert verify_nonrepresentability(I.describes_matrix(m), report)


def test_powerset_and_relation_paths_agree():
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randint(1, 6)
        subsets = tuple(
            tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(n)
        )
        fam = I.SubsetFamily(subsets)
        g, _ = I.powerset_instance(fam)
        # the membership matrix as a describes-relation: j contains i
        rel = tuple(tuple(subsets[j][i] for j in range(n)) for i in range(n))
        m = I.DescribesMatrix(tuple(str(i) for i in range(n)), rel)
        het, _ = I.relation_instance(m)
        assert g == het


def test_strong_liar_twist_is_fixed_point_free():
    assert fixed_points(I.strong_liar_twist) == set()


def test_strong_liar_diagonal_example():
    m = I.TriValuedMatrix(
        ("a", "b", "c"),
        (("T", "F", "M"), ("T", "M", "T"), ("F", "M", "F")),
    )
    letters, report = I.strong_liar_instance(m)
    assert letters == ("F", "T", "T")
    assert verify_nonrepresentability(I.tri_valued_matrix(m), report)


def test_strong_liar_all_true():
    m = I.TriValuedMatrix(("a", "b"), (("T", "T"), ("T", "T")))
    letters, _ = I.strong_liar_instance(m)
    assert letters == ("F", "F")


def test_strong_liar_single_meaningless():
    m = I.TriValuedMatrix(("a",), (("M",),))
    letters, _ = I.strong_liar_instance(m)
    assert letters == ("T",)


def test_richard_diagonal_example():
    diag = (3, 1, 4, 1, 5)
    n = len(diag)
    rows = tuple(
        tuple(diag[i] if i == j else 0 for j in range(n)) for i in range(n)
    )
    m = I.DigitMatrix(tuple(str(i) for i in range(n)), rows)
    digits, report = I.richard_instance(m)
    assert digits == (6, 8, 5, 8, 4)
    assert verify_nonrepresentability(I.digit_matrix(m), report)


def test_digit_flip_has_no_fixed_point():
    assert fixed_points(I.digit_flip) == set()


# --- independent digit oracles for the bundled table -----------------------


def _atan_inv(x: int, terms: int) -> Fraction:
    s = Fraction(0)
    for k in range(terms):
        s += Fraction((-1) ** k, (2 * k + 1) * x ** (2 * k + 1))
    return s


def _pi() -> Fraction:
    return 16 * _atan_inv(5, 40) - 4 * _atan_inv(239, 40)


def _e() -> Fraction:
    s, f = Fraction(0), 1
    for k in range(45):
        if k:
            f *= k
        s += Fraction(1, f)
    return s


def _digit_places(fr: Fraction, places: int) -> list[int]:
    return [(fr.numerator * 10**i // fr.denominator) % 10 for i in range(places)]


def test_bundled_richard_table_against_oracles():
    m, _ = I.demo_richard()
    n = len(m.labels)
    assert n == 16
    assert m.labels[15] == "pi/10"
    pi_col = [m.digits[i][15] for i in range(n)]
    assert pi_col == _digit_places(_pi() / 10, n)
    assert m.digits[4][15] == 1
    e_col = [m.digits[i][13] for i in range(n)]
    assert e_col == _digit_places(_e() / 10, n)
    sqrt2_col = [m.digits[i][12] for i in range(n)]
    assert sqrt2_col == [isqrt(2 * 10 ** (2 * i) // 100) % 10 for i in range(n)]
    third_col = [m.digits[i][1] for i in range(n)]
    assert third_col == _digit_places(Fraction(1, 3), n)


def test_bundled_richard_diagonal_flips():
    m, _ = I.demo_richard()
    digits, report = I.richard_instance(m)
    for i in range(len(m.labels)):
        assert digits[i] == 9 - m.digits[i][i]
    f = I.digit_matrix(m)
    assert verify_nonrepresentability(f, report)
    # the diagonal output differs from every column at the witnessed row
    for j in range(f.cols.size):
        assert digits[j] != m.digits[j][j]


def test_demo_tables_all_verify():
    fam, _ = I.demo_subset_family()
    _, report = I.powerset_instance(fam)
    assert verify_nonrepresentability(I.membership_matrix(fam), report)
    for loader in (I.demo_russell, I.demo_grelling):
        m, _ = loader()
        _, report = I.relation_instance(m)
        assert verify_nonrepresentability(I.describes_matrix(m), report)
    tri, _ = I.demo_strong_liar()
    _, report = I.strong_liar_instance(tri)
    assert verify_nonrepresentability(I.tri_valued_matrix(tri), report)


def test_halting_matrix_feeds_relation_instance():
    # the finite shadow of the machine-enumeration instance
    m = bounded_halting_matrix(10, 32)
    het, report = I.relation_instance(m)
    assert verify_nonrepresentability(I.describes_matrix(m), report)
    for j in range(10):
        assert het[j] != m.rel[j][j]
