"""Pins one instance of every node kind: its number, its tree and its text.

Programs, terms and formulas share one numbering scheme (radix * payload +
tag, with right-nested Cantor pairing of the fields). A swapped tag or a
changed pairing order in any single kind changes one of the numbers below.
"""

import pytest

from diagkit import formal as F
from diagkit import universe as U
from diagkit.errors import InputError

PROV, T, P, Q, R = (F.SYMBOLS[s][0] for s in ("Prov", "T", "P", "Q", "R"))

PROGRAMS = [
    (U.Var(2), 20, "%2"),
    (U.Const(7), 71, "7"),
    (U.Succ(U.Const(1)), 112, "(succ 1)"),
    (U.Pred(U.Var(1)), 103, "(pred %1)"),
    (U.IfZero(U.Var(1), U.Const(2), U.Const(3)), 10088994, "(ifz %1 2 3)"),
    (U.Pair(U.Const(1), U.Var(2)), 5165, "(pair 1 %2)"),
    (U.Fst(U.Var(1)), 106, "(fst %1)"),
    (U.Snd(U.Const(4)), 417, "(snd 4)"),
    (U.Run(U.Var(1), U.Var(1)), 2208, "(run %1 %1)"),
    (U.Smn(U.Const(10), U.Var(1)), 62269, "(smn 10 %1)"),
    # code 0: the out-of-arity reference every program numbering starts with
    (U.Var(0), 0, "%0"),
]

TERMS = [
    (F.Var(F.Y), 4, "y"),
    (F.Num(5), 21, "5"),
    (F.Diag(F.Var(F.X)), 2, "(diag x)"),
    (F.Neg(F.Num(3)), 55, "(neg 3)"),
    # past the named variables, codes print as x<code>
    (F.Var(9), 36, "x9"),
]

# (formula, number, text, text parses back)
FORMULAS = [
    (F.Pred(PROV, (F.Var(F.Y), F.Var(F.X))), 1700, "(Prov y x)", True),
    (F.Less(F.Var(F.M), F.Num(3)), 7161, "(< m 3)", True),
    (F.Not(F.Pred(T, (F.Num(1),))), 18702, "(not (T 1))", True),
    (
        F.And(F.Pred(P, (F.Num(0),)), F.Pred(Q, (F.Num(1),))),
        29559253,
        "(and (P 0) (Q 1))",
        True,
    ),
    (
        F.Or(F.Pred(Q, (F.Num(1),)), F.Pred(P, (F.Num(0),))),
        29538354,
        "(or (Q 1) (P 0))",
        True,
    ),
    (
        F.Imp(F.Pred(P, (F.Var(F.X),)), F.Pred(P, (F.Num(1),))),
        23575955,
        "(imp (P x) (P 1))",
        True,
    ),
    (
        F.Iff(F.Less(F.Num(0), F.Num(1)), F.Pred(T, (F.Num(2),))),
        779061416,
        "(iff (< 0 1) (T 2))",
        True,
    ),
    (F.ForAll(F.Y, F.Pred(P, (F.Var(F.Y),))), 6757017, "(forall y (P y))", True),
    (F.Exists(F.W, F.Less(F.Var(F.W), F.Num(2))), 28932118, "(exists w (< w 2))", True),
    (F.Unquote(F.Num(12)), 499, "(unq 12)", True),
    (
        F.Pred(R, (F.Diag(F.Var(9)), F.Neg(F.Num(3)))),
        10158490833700,
        "(R (diag x9) (neg 3))",
        True,
    ),
    # an unregistered symbol code has a number and a name but no reader
    (F.Pred(7, (F.Num(0),)), 470, "(sym7 0)", False),
    # zero arguments print bare; the reader holds P to its arity of 1
    (F.Pred(P, ()), 60, "(P)", False),
]


@pytest.mark.parametrize("expr,number,text", PROGRAMS)
def test_program_kind_pinned(expr, number, text):
    assert U.encode(expr) == number
    assert U.decode(number) == expr
    assert U.decode(U.encode(expr)) == expr
    assert U.format_program(expr) == text
    assert U.parse_program(text) == expr


@pytest.mark.parametrize("term,number,text", TERMS)
def test_term_kind_pinned(term, number, text):
    assert F.term_number(term) == number
    assert F.term_of(number) == term
    assert F.term_of(F.term_number(term)) == term
    assert F.format_term(term) == text
    # terms have no reader of their own; read one as the argument of unq
    assert F.parse_formula(f"(unq {text})") == F.Unquote(term)


@pytest.mark.parametrize("phi,number,text,parses", FORMULAS)
def test_formula_kind_pinned(phi, number, text, parses):
    assert F.goedel_number(phi) == number
    assert F.formula_of(number) == phi
    assert F.formula_of(F.goedel_number(phi)) == phi
    assert F.format_formula(phi) == text
    if parses:
        assert F.parse_formula(text) == phi
    else:
        with pytest.raises(InputError):
            F.parse_formula(text)


def test_every_kind_is_pinned():
    kinds = {type(e) for e, _, _ in PROGRAMS}
    kinds |= {type(t) for t, _, _ in TERMS}
    kinds |= {type(phi) for phi, _, _, _ in FORMULAS}
    assert len(kinds) == 10 + 4 + 10
