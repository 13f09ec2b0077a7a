"""Formula engine: numbering, substitution, diagonal sentences."""

import dataclasses
import random

import pytest
from hypothesis import given, strategies as st

from helpers import random_formula_with_free_x

from diagkit import formal as F
from diagkit.errors import InputError
from diagkit.formal import (
    And,
    Diag,
    Exists,
    ForAll,
    Imp,
    Less,
    Neg,
    Not,
    Num,
    Pred,
    Unquote,
    Var,
    X,
    Y,
    diag_meta,
    diagonal_sentence,
    formula_of,
    free_vars,
    goedel_number,
    reduce_diag,
    substitute,
    unquote_once,
)

PROV = F.SYMBOLS["Prov"][0]
PRFLEN = F.SYMBOLS["Prflen"][0]
TRUTH = F.SYMBOLS["T"][0]
P = F.SYMBOLS["P"][0]
Q = F.SYMBOLS["Q"][0]


def p_of(t):
    return Pred(P, (t,))


@given(st.integers(0, 10**5))
def test_numbering_roundtrip(n):
    assert goedel_number(formula_of(n)) == n


def test_numbering_injective_on_small_formulas():
    rng = random.Random(11)
    seen = {}
    for _ in range(300):
        phi = random_formula_with_free_x(rng)
        num = goedel_number(phi)
        if num in seen:
            assert seen[num] == phi
        seen[num] = phi
    distinct = {goedel_number(phi) for phi in (p_of(Var(X)), p_of(Num(0)), Not(p_of(Var(X))))}
    assert len(distinct) == 3


def test_numbering_deterministic():
    phi = ForAll(Y, Not(Pred(PROV, (Var(Y), Var(X)))))
    assert goedel_number(phi) == goedel_number(phi)
    again = F.parse_formula("(forall y (not (Prov y x)))")
    assert goedel_number(again) == goedel_number(phi)


def test_numbering_pinned_values():
    # frozen constants guard the numbering scheme against accidental renumbering
    assert goedel_number(p_of(Var(X))) == 110
    assert formula_of(110) == p_of(Var(X))
    assert goedel_number(Pred(TRUTH, (Var(X),))) == 70
    assert F.term_number(Var(X)) == 0
    assert F.term_number(Num(0)) == 1


def test_substitute_simple():
    assert substitute(p_of(Var(X)), X, Num(3)) == p_of(Num(3))


def test_substitute_respects_binding():
    phi = ForAll(X, p_of(Var(X)))
    assert substitute(phi, X, Num(3)) == phi


def test_substitute_only_target_variable():
    phi = And(p_of(Var(X)), Pred(Q, (Var(Y),)))
    assert substitute(phi, X, Num(2)) == And(p_of(Num(2)), Pred(Q, (Var(Y),)))


def test_substitute_rejects_open_terms():
    with pytest.raises(InputError):
        substitute(p_of(Var(X)), X, Diag(Var(Y)))
    # closed diag/neg chains are fine
    substitute(p_of(Var(X)), X, Diag(Num(5)))


def test_substitute_free_variable_bookkeeping():
    rng = random.Random(23)
    for _ in range(100):
        phi = random_formula_with_free_x(rng)
        out = substitute(phi, X, Num(7))
        assert free_vars(out) == free_vars(phi) - {X}


def test_diag_meta_definition():
    phi = p_of(Var(X))
    n = goedel_number(phi)
    assert diag_meta(n) == goedel_number(p_of(Num(n)))


def test_diag_meta_requires_one_free_variable():
    with pytest.raises(InputError):
        diag_meta(goedel_number(p_of(Num(1))))  # closed
    with pytest.raises(InputError):
        diag_meta(goedel_number(Less(Var(X), Var(Y))))  # two free variables


def test_diag_meta_not_idempotent():
    n = goedel_number(p_of(Var(X)))
    with pytest.raises(InputError):
        diag_meta(diag_meta(n))  # the result is closed


def test_reduce_diag_identity_without_redexes():
    phi = ForAll(Y, Imp(p_of(Var(Y)), Pred(Q, (Num(3),))))
    assert reduce_diag(phi) == phi


def test_reduce_diag_neg_rule():
    inner = p_of(Num(1))
    k = goedel_number(inner)
    phi = p_of(Neg(Num(k)))
    assert reduce_diag(phi) == p_of(Num(goedel_number(Not(inner))))


def test_reduce_diag_leaves_variable_arguments_alone():
    phi = p_of(Diag(Var(X)))
    assert reduce_diag(phi) == phi


def test_reduce_diag_fires_only_input_redexes():
    # a numeral produced by an inner rewrite does not enable its parent
    g = goedel_number(p_of(Var(X)))
    phi = p_of(Neg(Diag(Num(g))))
    out = reduce_diag(phi)
    assert out == p_of(Neg(Num(diag_meta(g))))


def test_reduce_diag_error_names_closed_redex():
    closed = goedel_number(p_of(Num(1)))
    with pytest.raises(InputError):
        reduce_diag(p_of(Diag(Num(closed))))


def test_diagonal_sentence_tarski_shape_by_hand():
    e = Not(Pred(TRUTH, (Var(X),)))
    cert = diagonal_sentence(e, X)
    # hand-built construction: G = E[x -> diag x], C = G[x -> numeral of G]
    g = Not(Pred(TRUTH, (Diag(Var(X)),)))
    assert cert.g == g
    c = Not(Pred(TRUTH, (Diag(Num(goedel_number(g))),)))
    assert cert.c == c
    assert cert.reduced == Not(Pred(TRUTH, (Num(goedel_number(c)),)))
    assert cert.verified


def test_diagonal_sentence_bare_predicate():
    cert = diagonal_sentence(p_of(Var(X)), X)
    assert cert.verified


def test_diagonal_sentence_rejects_closed_formula():
    with pytest.raises(InputError):
        diagonal_sentence(p_of(Num(1)), X)


def test_diagonal_sentence_rejects_extra_free_variables():
    with pytest.raises(InputError):
        diagonal_sentence(Less(Var(X), Var(Y)), X)


def test_diagonal_sentence_rejects_diag_numeral_subterms():
    for redex in (Diag(Num(4)), Neg(Num(4))):
        with pytest.raises(InputError):
            diagonal_sentence(And(p_of(Var(X)), p_of(redex)), X)


def test_lemma_identity_on_random_formulas():
    rng = random.Random(0xD1A6)
    for _ in range(60):
        e = random_formula_with_free_x(rng)
        cert = diagonal_sentence(e, X)
        assert cert.verified
        assert cert.reduced == substitute(e, X, Num(cert.c_number))


NAMED_BUILDERS = {
    "goedel": F.goedel_sentence,
    "rosser": F.rosser_sentence,
    "tarski": F.tarski_sentence,
    "parikh": lambda: F.parikh_sentence(100),
    "curry": lambda: F.curry_sentence(F.parse_formula("(Prov 0 0)")),
}


@pytest.mark.parametrize("build", NAMED_BUILDERS.values(), ids=list(NAMED_BUILDERS))
def test_verify_sentence_accepts_named_builders(build):
    assert F.verify_sentence(build())


def test_verify_sentence_accepts_random_certificates():
    rng = random.Random(0xD1A6)
    for _ in range(60):
        assert F.verify_sentence(diagonal_sentence(random_formula_with_free_x(rng), X))


@pytest.mark.parametrize("build", NAMED_BUILDERS.values(), ids=list(NAMED_BUILDERS))
def test_verify_sentence_rejects_each_changed_field(build):
    cert = build()
    changes = {
        "c_number": cert.c_number + 1,
        "target": Not(cert.target),
        # a target without a redex reduces to itself: only C's number tells them apart
        "c": cert.target,
    }
    for field, value in changes.items():
        assert not F.verify_sentence(dataclasses.replace(cert, **{field: value})), field


def test_reduce_idempotent_on_diag_only_outputs():
    rng = random.Random(0x1D3)
    for _ in range(40):
        e = random_formula_with_free_x(rng, allow_selfref_terms=False)
        cert = diagonal_sentence(e, X)
        assert reduce_diag(cert.reduced) == cert.reduced


def test_goedel_sentence_shape():
    cert = F.goedel_sentence()
    assert cert.verified
    assert cert.c == ForAll(
        Y, Not(Pred(PROV, (Var(Y), Diag(Num(cert.g_number)))))
    )
    assert cert.reduced == ForAll(Y, Not(Pred(PROV, (Var(Y), Num(cert.c_number)))))


def test_rosser_sentence_verifies_with_inert_neg():
    cert = F.rosser_sentence()
    assert cert.verified
    # the target keeps the negation-number function unevaluated
    assert F.format_formula(cert.target).count("(neg") == 1


def test_tarski_sentence():
    cert = F.tarski_sentence()
    assert cert.verified
    assert cert.e == Not(Pred(TRUTH, (Var(X),)))


def test_parikh_sentence_shape():
    cert = F.parikh_sentence(100)
    assert cert.verified
    bound = Not(
        Exists(F.M, And(Less(Var(F.M), Num(100)), Pred(PRFLEN, (Var(F.M), Var(X)))))
    )
    assert cert.e == bound
    with pytest.raises(InputError):
        F.parikh_sentence(0)


def test_curry_sentence_unquote_step():
    a = Pred(PROV, (Num(0), Num(0)))
    cert = F.curry_sentence(a)
    assert cert.verified
    assert cert.reduced == Imp(Unquote(Num(cert.c_number)), a)
    # one unquote step exhibits C <-> (C => A)
    assert unquote_once(cert.reduced) == Imp(cert.c, a)
    with pytest.raises(InputError):
        F.curry_sentence(p_of(Var(X)))


def test_unquote_regenerates_forever():
    a = Pred(PROV, (Num(0), Num(0)))
    cert = F.curry_sentence(a)
    once = unquote_once(cert.reduced)
    # each unquoted body carries its own quote: reduce + unquote never closes
    twice = unquote_once(reduce_diag(once))
    assert twice == Imp(once, a)
    assert F.format_formula(twice).count("(unq") == 1
    thrice = unquote_once(reduce_diag(twice))
    assert thrice == Imp(twice, a)


def test_parse_format_roundtrip():
    rng = random.Random(5)
    for _ in range(80):
        phi = random_formula_with_free_x(rng)
        assert F.parse_formula(F.format_formula(phi)) == phi


def test_parse_examples():
    assert F.parse_formula("(forall y (not (Prov y x)))") == ForAll(
        Y, Not(Pred(PROV, (Var(Y), Var(X))))
    )
    assert F.parse_formula("(imp (unq x) (P 0))") == Imp(
        Unquote(Var(X)), p_of(Num(0))
    )
    assert F.parse_formula("(< x 3)") == Less(Var(X), Num(3))


def test_parse_rejects_unknown_symbols_with_position():
    with pytest.raises(InputError) as err:
        F.parse_formula("(forall y (Bogus y x))")
    assert "Bogus" in str(err.value) and "offset" in str(err.value)
    with pytest.raises(InputError):
        F.parse_formula("(Prov x)")  # arity violation
    with pytest.raises(InputError):
        F.parse_formula("(and (P x)")  # unbalanced
