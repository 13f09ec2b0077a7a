"""Shared generators and predicates for the universe test harnesses."""

import random

from diagkit.universe import (
    OMEGA,
    Const,
    Fst,
    IfZero,
    Pair,
    Pred,
    Run,
    Smn,
    Snd,
    Succ,
    Value,
    Var,
    encode,
)

_UNARY = (Succ, Pred, Fst, Snd)
_BINARY = (Pair, Run, Smn)
_SAFE_BINARY = (Pair,)
_TOTAL_BINARY = (Pair, Smn)


def random_tree(rng: random.Random, depth: int):
    """Arbitrary expression tree, any constructor, for roundtrip checks."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return Var(rng.randint(0, 3))
        return Const(rng.randint(0, 30))
    roll = rng.random()
    if roll < 0.45:
        return rng.choice(_UNARY)(random_tree(rng, depth - 1))
    if roll < 0.85:
        ctor = rng.choice(_BINARY)
        return ctor(random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    return IfZero(
        random_tree(rng, depth - 1),
        random_tree(rng, depth - 1),
        random_tree(rng, depth - 1),
    )


def random_safe_binary(rng: random.Random, depth: int):
    """Run/Smn-free binary body: total by construction, uses %1 and %2."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice((Var(1), Var(2), Const(rng.randint(0, 9))))
    roll = rng.random()
    if roll < 0.5:
        return rng.choice(_UNARY)(random_safe_binary(rng, depth - 1))
    if roll < 0.8:
        ctor = rng.choice(_SAFE_BINARY)
        return ctor(
            random_safe_binary(rng, depth - 1), random_safe_binary(rng, depth - 1)
        )
    return IfZero(
        random_safe_binary(rng, depth - 1),
        random_safe_binary(rng, depth - 1),
        random_safe_binary(rng, depth - 1),
    )


def random_total_unary(rng: random.Random, depth: int):
    """Run-free unary body: every evaluation halts with a value."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice((Var(1), Const(rng.randint(0, 9))))
    roll = rng.random()
    if roll < 0.5:
        return rng.choice(_UNARY)(random_total_unary(rng, depth - 1))
    if roll < 0.8:
        ctor = rng.choice(_TOTAL_BINARY)
        return ctor(
            random_total_unary(rng, depth - 1), random_total_unary(rng, depth - 1)
        )
    return IfZero(
        random_total_unary(rng, depth - 1),
        random_total_unary(rng, depth - 1),
        random_total_unary(rng, depth - 1),
    )


def random_self_applying(rng: random.Random, depth: int):
    """A unary body that may run its argument; no Pair or Smn, so values stay small."""
    if depth == 0 or rng.random() < 0.25:
        return Var(1) if rng.random() < 0.6 else Const(rng.randint(0, 9))
    roll = rng.random()
    if roll < 0.35:
        return rng.choice(_UNARY)(random_self_applying(rng, depth - 1))
    if roll < 0.75:
        return Run(
            random_self_applying(rng, depth - 1), random_self_applying(rng, depth - 1)
        )
    return IfZero(*(random_self_applying(rng, depth - 1) for _ in range(3)))


def cost_model_cases():
    """The 501 seeded (code, args) pairs whose least fuel the cost model pins."""
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
        code = encode(random_self_applying(rng, rng.randint(1, 4)))
        cases.append((code, [code]))
    return cases


def outcomes_agree(a, b) -> bool:
    """Equal values, or both non-values."""
    if isinstance(a, Value) or isinstance(b, Value):
        return a == b
    return True


def random_formula_with_free_x(rng: random.Random, allow_selfref_terms: bool = True):
    """A formula of depth <= 5 whose free variables are exactly {x}.

    Diag/Neg subterms, when allowed, are only ever applied to variables, so
    the no-diag-on-numeral requirement holds by construction.
    """
    from diagkit import formal as F

    def term(scope):
        roll = rng.random()
        if allow_selfref_terms and roll < 0.1:
            ctor = F.Diag if rng.random() < 0.5 else F.Neg
            return ctor(F.Var(rng.choice(scope)))
        if roll < 0.55:
            return F.Var(rng.choice(scope))
        return F.Num(rng.randint(0, 9))

    def atomic(scope):
        if rng.random() < 0.3:
            return F.Less(term(scope), term(scope))
        name = rng.choice(("Prov", "Prflen", "T", "P", "Q", "R"))
        code, arity = F.SYMBOLS[name]
        return F.Pred(code, tuple(term(scope) for _ in range(arity)))

    def formula(depth, scope):
        if depth == 0 or rng.random() < 0.3:
            return atomic(scope)
        roll = rng.random()
        if roll < 0.2:
            return F.Not(formula(depth - 1, scope))
        if roll < 0.55:
            ctor = rng.choice((F.And, F.Or, F.Imp, F.Iff))
            return ctor(formula(depth - 1, scope), formula(depth - 1, scope))
        if roll < 0.85:
            ctor = F.ForAll if rng.random() < 0.5 else F.Exists
            fresh = rng.choice((F.Y, F.Z, F.W, F.U, F.V, F.M, F.N))
            return ctor(fresh, formula(depth - 1, scope + [fresh]))
        return F.Unquote(term(scope))

    while True:
        phi = formula(rng.randint(1, 5), [F.X])
        if F.free_vars(phi) == frozenset((F.X,)):
            return phi
