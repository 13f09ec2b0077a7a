"""The interpreter's cost model, pinned against a recursive reference.

One fuel unit per node visit, in evaluation order: `IfZero` pays for itself,
then its condition, then only the branch it takes; `Run` pays for itself,
then its two operands, then the body it enters with env (x,). The least fuel
at which a program stops diverging is therefore fixed exactly, not only up to
monotonicity.
"""

import pytest

from helpers import cost_model_cases

from diagkit.syntax import pair, rewrite, unpair
from diagkit.universe import (
    PROGRAMS,
    Const,
    Diverged,
    Fst,
    IfZero,
    Pair,
    Pred,
    Run,
    Smn,
    Snd,
    Stuck,
    Succ,
    Value,
    Var,
    encode,
    evaluate,
    smn_meta,
)

FUEL_CAP = 256


# The reference decodes and specializes through the sort table, not through
# `universe.decode`/`smn_meta`, so it shares none of their memo.
def reference_smn(p: int, y: int) -> int:
    """Var 1 becomes Const y and Var 2 becomes Var 1; other nodes are kept."""

    def specialize(e):
        if isinstance(e, Var) and e.index in (1, 2):
            return Const(y) if e.index == 1 else Var(1)
        return None

    return PROGRAMS.number(rewrite(PROGRAMS.denumber(p), specialize))


class _Halt(Exception):
    def __init__(self, outcome) -> None:
        self.outcome = outcome


def reference(body, args, fuel: int):
    """Host-recursive evaluator with the documented step rule."""
    left = fuel

    def visit(e, env):
        nonlocal left
        if left == 0:
            raise _Halt(Diverged())
        left -= 1
        match e:
            case Var(index):
                if not 1 <= index <= len(env):
                    raise _Halt(Stuck())
                return env[index - 1]
            case Const(value):
                return value
            case Succ(child):
                return visit(child, env) + 1
            case Pred(child):
                return max(visit(child, env) - 1, 0)
            case IfZero(cond, then, other):
                return visit(then if visit(cond, env) == 0 else other, env)
            case Pair(a, b):
                x = visit(a, env)
                return pair(x, visit(b, env))
            case Fst(child):
                return unpair(visit(child, env))[0]
            case Snd(child):
                return unpair(visit(child, env))[1]
            case Run(prog, arg):
                code = visit(prog, env)
                x = visit(arg, env)
                return visit(PROGRAMS.denumber(code), (x,))
            case Smn(prog, arg):
                code = visit(prog, env)
                return reference_smn(code, visit(arg, env))

    try:
        return Value(visit(body, tuple(args)))
    except _Halt as halt:
        return halt.outcome


def least_fuel(code: int, args) -> int:
    """The least fuel at which `evaluate` does not diverge, or FUEL_CAP + 1."""
    lo, hi = 0, FUEL_CAP + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if isinstance(evaluate(code, args, mid), Diverged):
            lo = mid + 1
        else:
            hi = mid
    return lo


@pytest.mark.parametrize(
    "body, args, fuel, outcome",
    [
        (Const(7), [], 1, Value(7)),
        (Succ(Succ(Var(1))), [4], 3, Value(6)),
        # IfZero, its condition, then only the branch taken
        (IfZero(Const(0), Const(1), Succ(Succ(Const(2)))), [], 3, Value(1)),
        (IfZero(Const(1), Const(1), Succ(Succ(Const(2)))), [], 5, Value(4)),
        # Run, its two operands, then the body Var 1 (code 10) entered with (x,)
        (Run(Const(10), Const(5)), [], 4, Value(5)),
        (Smn(Const(10), Const(5)), [], 3, Value(smn_meta(10, 5))),
        (Var(2), [1], 1, Stuck()),
    ],
)
def test_least_fuel_examples(body, args, fuel, outcome):
    code = encode(body)
    assert evaluate(code, args, fuel) == outcome
    assert evaluate(code, args, fuel - 1) == Diverged()
    assert least_fuel(code, args) == fuel


def test_least_fuel_matches_reference():
    for code, args in cost_model_cases():
        k = least_fuel(code, args)
        body = PROGRAMS.denumber(code)
        if k > FUEL_CAP:
            assert evaluate(code, args, FUEL_CAP) == Diverged()
            assert reference(body, args, FUEL_CAP) == Diverged()
            continue
        got = evaluate(code, args, k)
        assert not isinstance(got, Diverged)
        assert reference(body, args, k) == got, (code, args, k)
        if k > 0:
            assert reference(body, args, k - 1) == Diverged(), (code, args, k)
