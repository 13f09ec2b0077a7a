"""The interpreter's cost model, pinned against a recursive reference.

One fuel unit per node visit, in evaluation order: `IfZero` pays for itself,
then its condition, then only the branch it takes; `Run` pays for itself,
then its two operands, then the body it enters with env (x,). The least fuel
at which a program stops diverging is therefore fixed exactly, not only up to
monotonicity.
"""

import random

import pytest

from helpers import random_tree

from diagkit.syntax import pair, unpair
from diagkit.universe import (
    OMEGA,
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
    decode,
    encode,
    evaluate,
    smn_meta,
)

FUEL_CAP = 256


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
                return visit(decode(code), (x,))
            case Smn(prog, arg):
                code = visit(prog, env)
                return smn_meta(code, visit(arg, env))

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


def _self_applying(rng: random.Random, depth: int):
    """A unary body that may run its argument; no Pair or Smn, so values stay small."""
    if depth == 0 or rng.random() < 0.25:
        return Var(1) if rng.random() < 0.6 else Const(rng.randint(0, 9))
    roll = rng.random()
    if roll < 0.35:
        return rng.choice((Succ, Pred, Fst, Snd))(_self_applying(rng, depth - 1))
    if roll < 0.75:
        return Run(_self_applying(rng, depth - 1), _self_applying(rng, depth - 1))
    return IfZero(*(_self_applying(rng, depth - 1) for _ in range(3)))


def _cases():
    rng = random.Random(20260305)
    cases = [(OMEGA, [OMEGA])]
    for _ in range(300):
        body = random_tree(rng, rng.randint(1, 3))
        # some arguments are codes of small programs, so Run enters real bodies
        args = [
            encode(random_tree(rng, 2)) if rng.random() < 0.5 else rng.randint(0, 5)
            for _ in range(rng.randint(0, 2))
        ]
        cases.append((encode(body), args))
    for _ in range(200):
        code = encode(_self_applying(rng, rng.randint(1, 4)))
        cases.append((code, [code]))
    return cases


def test_least_fuel_matches_reference():
    for code, args in _cases():
        k = least_fuel(code, args)
        body = decode(code)
        if k > FUEL_CAP:
            assert evaluate(code, args, FUEL_CAP) == Diverged()
            assert reference(body, args, FUEL_CAP) == Diverged()
            continue
        got = evaluate(code, args, k)
        assert not isinstance(got, Diverged)
        assert reference(body, args, k) == got, (code, args, k)
        if k > 0:
            assert reference(body, args, k - 1) == Diverged(), (code, args, k)
