"""Formula engine: numbering, substitution, diagonal sentences."""

import dataclasses
import random
import re

import pytest
from hypothesis import given, strategies as st

from helpers import check_holds_only_inputs, random_formula_with_free_x

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
    assert F.TERMS.number(Var(X)) == 0
    assert F.TERMS.number(Num(0)) == 1


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


NAMED_BUILDERS = {
    "goedel": F.goedel_sentence,
    "rosser": F.rosser_sentence,
    "tarski": F.tarski_sentence,
    "parikh": lambda: F.parikh_sentence(100),
    "curry": lambda: F.curry_sentence(F.parse_formula("(Prov 0 0)")),
}


def _rechecks(cert) -> bool:
    """`verified`, and the evidence recomputed from E: C's number, C reduced."""
    target = substitute(cert.e, cert.variable, Num(cert.c_number))
    return (
        cert.verified
        and goedel_number(cert.c) == cert.c_number
        and reduce_diag(cert.c) == target == cert.target
    )


@pytest.mark.parametrize("build", NAMED_BUILDERS.values(), ids=list(NAMED_BUILDERS))
def test_lemma_certificate_accepts_named_builders(build):
    assert _rechecks(build())


def test_lemma_certificate_accepts_random_certificates():
    rng = random.Random(0xD1A6)
    for _ in range(60):
        assert _rechecks(diagonal_sentence(random_formula_with_free_x(rng), X))


@pytest.mark.parametrize("build", NAMED_BUILDERS.values(), ids=list(NAMED_BUILDERS))
def test_lemma_certificate_rejects_each_changed_field(build):
    cert = build()
    changes = {
        "c_number": cert.c_number + 1,
        "target": Not(cert.target),
        # a target without a redex reduces to itself: only C's number tells them apart
        "c": cert.target,
    }
    # the evidence is computed from E: no certificate can hold another
    for field, value in changes.items():
        with pytest.raises(ValueError):
            dataclasses.replace(cert, **{field: value})
        with pytest.raises(TypeError):
            F.LemmaCertificate(cert.e, cert.variable, **{field: value})


def test_lemma_certificate_holds_only_its_inputs():
    cert = F.tarski_sentence()
    evidence = ("g", "g_number", "c", "c_number", "reduced", "target")
    check_holds_only_inputs(cert, evidence, e=Not(cert.e))
    assert diagonal_sentence is F.LemmaCertificate


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


@pytest.mark.parametrize("n", [1.5, 2.0, True, "3", None, -1, 0, [1]])
def test_parikh_sentence_rejects_bound_that_is_no_int(n):
    # 1.5 used to raise TypeError from indexing, and True verified as the bound 1
    message = f"proof-length bound must be an int.*, got {re.escape(repr(n))}$"
    with pytest.raises(InputError, match=message):
        F.parikh_sentence(n)


@pytest.mark.parametrize(
    "call,n",
    [
        (formula_of, -5),
        (formula_of, 1.5),
        (formula_of, 2.0),
        (formula_of, True),
        (formula_of, "3"),
        (diag_meta, -5),
        (lambda n: F.unquote_once(Unquote(Num(n))), -3),
        (formula_of, None),
        (formula_of, [1]),
    ],
    ids=[
        "negative", "float", "integral-float", "bool", "str", "diag-meta", "unquote",
        "none", "list",
    ],
)
def test_decoding_a_formula_rejects_a_number_that_is_no_natural(call, n):
    # -5 used to raise ValueError from isqrt, 1.5 TypeError from indexing,
    # and True decoded as 1
    formula_of(1)
    message = f"Gödel number must be a natural number, got {re.escape(repr(n))}$"
    with pytest.raises(InputError, match=message):
        call(n)


@pytest.mark.parametrize(
    "formula,bad",
    [
        (Pred(0, (Num(-2),)), -2),
        (Pred(0, (Num(1.5),)), 1.5),
        (Pred(-1, ()), -1),
        (ForAll(-1, Pred(0, ())), -1),
    ],
    ids=["negative-numeral", "float-numeral", "negative-symbol", "negative-variable"],
)
def test_goedel_number_rejects_a_field_that_is_no_natural(formula, bad):
    # Pred(0, (Num(-2),)) used to number as 2750, the number of Pred(0, (Diag(Num(0)),))
    with pytest.raises(InputError, match=f"must be a natural number, got {bad!r}$"):
        goedel_number(formula)


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


def test_each_variable_has_one_spelling():
    # x1 used to read as y, so (forall x1 (P y)) bound the y written as free
    for name in ("x0", "x1", "x7", "x08", "x007", "x012"):
        assert F.var_code(name) is None
    for code in range(40):
        assert F.var_code(F.var_name(code)) == code
    with pytest.raises(InputError, match="'x1' at offset 8 is no variable"):
        F.parse_formula("(forall x1 (P y))")
    assert F.free_vars(F.parse_formula("(forall x8 (P y))")) == {Y}


def test_every_decoded_formula_reads_back():
    # a symbol code off the table, or a table code at another arity, prints sym<k>
    for n in range(2000):
        phi = formula_of(n)
        assert F.parse_formula(F.format_formula(phi)) == phi, n
    assert F.format_formula(formula_of(0)) == "(sym0)"


@pytest.mark.parametrize(
    "text,formula",
    [
        ("(sym7 0)", Pred(7, (Num(0),))),
        ("(sym3)", Pred(F.SYMBOLS["P"][0], ())),
        ("(sym2 x y)", Pred(F.SYMBOLS["T"][0], (Var(X), Var(Y)))),
        ("(sym0 x)", Pred(PROV, (Var(X),))),
        ("(T x)", Pred(F.SYMBOLS["T"][0], (Var(X),))),
    ],
)
def test_sym_reads_at_any_arity_as_the_printer_spells_it(text, formula):
    assert F.parse_formula(text) == formula
    assert F.format_formula(formula) == text


@pytest.mark.parametrize(
    "text,message",
    [
        # a table code at its own arity is spelled with its word
        ("(sym2 x)", "sym2 at arity 1 is spelled T (offset 0)"),
        ("(not (sym0 x y))", "sym0 at arity 2 is spelled Prov (offset 5)"),
        # only the printer's decimals: no leading zero, sign or other digits
        ("(sym02 x)", "unknown formula operator 'sym02' at offset 0"),
        ("(sym00)", "unknown formula operator 'sym00' at offset 0"),
        ("(sym-1 x)", "unknown formula operator 'sym-1' at offset 0"),
        ("(sym٣ x)", "unknown formula operator 'sym٣' at offset 0"),
        ("(sym x)", "unknown formula operator 'sym' at offset 0"),
        ("(Sym7 x)", "unknown formula operator 'Sym7' at offset 0"),
        # table words keep their arity check
        ("(Prov x)", "Prov takes 2 arguments (offset 0)"),
        ("(T)", "T takes 1 argument (offset 0)"),
    ],
)
def test_sym_spellings_that_do_not_read(text, message):
    with pytest.raises(InputError) as err:
        F.parse_formula(text)
    assert str(err.value) == message
