"""A toy computable universe: expressions, their numbering, and an interpreter.

Every natural number is a program: decoding is total, so the unary programs
form an exhaustive enumeration phi_0, phi_1, phi_2, .. indexed by the code of
their body. Running and specializing are object-level primitives (`Run`,
`Smn`), which makes partial application and the classical fixed-point
construction short. Evaluation is fuel-bounded: one unit per node visit,
shared across nested `Run` calls, so every call terminates and outcomes are
monotone in fuel. "Diverged at fuel F" is bounded evidence only, never a
claim of true non-termination; in particular the halting tables built here
are fuel-bounded approximations of the exact halting sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Union

from . import syntax
from .errors import InputError
from .instances import DescribesMatrix
from .syntax import pair, unpair

Expr = Union[
    "Var", "Const", "Succ", "Pred", "IfZero", "Pair", "Fst", "Snd", "Run", "Smn"
]


@dataclass(frozen=True)
class Value:
    n: int


@dataclass(frozen=True)
class Diverged:
    """Fuel ran out."""


@dataclass(frozen=True)
class Stuck:
    """An ill-formed step, e.g. an argument reference out of arity."""


Outcome = Union[Value, Diverged, Stuck]

# Body of Run(Var 1, Var 1): applied to its own code it loops forever.
OMEGA = 2208


def _bad_atom(text: str, pos: int) -> str:
    what = "bad argument reference" if text.startswith("%") else "unknown atom"
    return f"{what} {text!r} at offset {pos}"


# argument references are spelled %i
_ARG = syntax.Scalar(
    lambda index: f"%{index}",
    lambda text: syntax.NAT.code(text[1:]) if text[:1] == "%" else None,
)
PROGRAMS = syntax.Sort(
    "expression",
    atom_error=_bad_atom,
    head_error=lambda word, pos: f"unknown operator {word!r} at offset {pos}",
)
Var, Const, Succ, Pred, IfZero, Pair, Fst, Snd, Run, Smn = PROGRAMS.declare(
    # 1-based argument reference; index 0 decodes from code 0 and is Stuck
    ("Var", None, {"index": _ARG}),
    ("Const", None, {"value": syntax.NAT}),
    ("Succ", "succ", {"child": PROGRAMS}),
    ("Pred", "pred", {"child": PROGRAMS}),
    ("IfZero", "ifz", {"cond": PROGRAMS, "then": PROGRAMS, "other": PROGRAMS}),
    ("Pair", "pair", {"left": PROGRAMS, "right": PROGRAMS}),
    ("Fst", "fst", {"child": PROGRAMS}),
    ("Snd", "snd", {"child": PROGRAMS}),
    ("Run", "run", {"prog": PROGRAMS, "arg": PROGRAMS}),
    ("Smn", "smn", {"prog": PROGRAMS, "arg": PROGRAMS}),
)


def encode(e: Expr) -> int:
    """Code of an expression: 10 * payload + constructor tag."""
    return PROGRAMS.number(e)


# `decode` and `smn_meta` keep this many recent results each. Both are pure,
# charge no fuel and return immutable values, so the memo changes no outcome;
# self-application decodes and specializes the same few codes at every turn.
MEMO_SIZE = 256


@lru_cache(maxsize=MEMO_SIZE)
def decode(n: int) -> Expr:
    """Total inverse of `encode`: every natural number is a program body."""
    return PROGRAMS.denumber(n)


def evaluate(p: int, args: Sequence[int], fuel: int) -> Outcome:
    """Run program p on args with a shared step budget.

    Big-step, deterministic, and monotone: a Value at fuel F is the same
    Value at every larger budget. Each expression node visit costs one unit;
    nested `Run` calls draw on the same budget. Fuel must be a natural
    number; fuel 0 is Diverged at once.
    """
    return evaluate_body(decode(p), args, fuel)


def evaluate_body(body: Expr, args: Sequence[int], fuel: int) -> Outcome:
    """Like `evaluate` but starting from an already-decoded body."""
    # the run loop counts fuel down to 0: a negative budget would never run out
    if fuel < 0:
        raise InputError(f"fuel must be a natural number, got {fuel}")
    # explicit work/value stacks: self-application must not grow the host stack.
    # A work item is (node, env, visit). A visit pays one unit of fuel and
    # pushes the node back to be finished once its children are visited; a
    # finish combines the children's values.
    work: list = [(body, tuple(args), True)]
    vals: list[int] = []
    while work:
        e, env, visit = work.pop()
        if visit:
            if fuel == 0:
                return Diverged()
            fuel -= 1
            match e:
                case Var(index):
                    if 1 <= index <= len(env):
                        vals.append(env[index - 1])
                    else:
                        return Stuck()
                case Const(value):
                    vals.append(value)
                case Run(left, right) | Pair(left, right) | Smn(left, right):
                    work.append((e, env, False))
                    work.append((right, env, True))
                    work.append((left, env, True))
                case Succ(child) | Pred(child) | Fst(child) | Snd(child):
                    work.append((e, env, False))
                    work.append((child, env, True))
                case IfZero(cond):
                    work.append((e, env, False))
                    work.append((cond, env, True))
        else:
            # Run first: self-application finishes a Run at every turn
            match e:
                case Run():
                    x = vals.pop()
                    work.append((decode(vals.pop()), (x,), True))
                case IfZero(_, then, other):
                    work.append((then if vals.pop() == 0 else other, env, True))
                case Succ():
                    vals.append(vals.pop() + 1)
                case Pred():
                    v = vals.pop()
                    vals.append(v - 1 if v > 0 else 0)
                case Fst():
                    vals.append(unpair(vals.pop())[0])
                case Snd():
                    vals.append(unpair(vals.pop())[1])
                case Pair():
                    b = vals.pop()
                    vals.append(pair(vals.pop(), b))
                case Smn():
                    y = vals.pop()
                    vals.append(smn_meta(vals.pop(), y))
    return Value(vals.pop())


@lru_cache(maxsize=MEMO_SIZE)
def smn_meta(p: int, y: int) -> int:
    """Specialize a binary body to its first argument.

    Substitutes Var 1 by Const y and renames Var 2 to Var 1; other argument
    references are left alone. For all x, running the result on [x] agrees
    with running p on [y, x] up to fuel slack.
    """

    def specialize(e: Expr) -> Optional[Expr]:
        if isinstance(e, Var) and e.index in (1, 2):
            return Const(y) if e.index == 1 else Var(1)
        return None

    return encode(syntax.rewrite(decode(p), specialize))


def recursion_fixed_point(h: int) -> int:
    """Index n0 with phi_{n0} = phi_{h(n0)}, for a total unary transformer h.

    The classical construction: a binary body D computes h(phi_m(m)) and runs
    it; specializing D gives the total map m -> index of D(m, -), realized by
    the program t; the fixed point is the value of phi_t at t. Totality of h
    is the caller's obligation (it is not decidable); a nontotal h yields an
    n0 whose verification sampling reports Diverged.
    """
    d_body = Run(Run(Const(h), Run(Var(1), Var(1))), Var(2))
    d = encode(d_body)
    s_body = Smn(Const(d), Var(1))
    t = encode(s_body)
    return smn_meta(d, t)


def quine() -> int:
    """A self-reproducing program q: running q on any input yields q itself.

    Built from the projection body Var 1 (code 10): specializing it to y
    gives the constant-y program, and the fixed point of that transformer
    outputs its own index.
    """
    s_transformer = encode(Smn(Const(10), Var(1)))
    return recursion_fixed_point(s_transformer)


def agree(left: Outcome, right: Outcome) -> bool:
    """Equal values, or neither side a value: non-values are bounded evidence."""
    if isinstance(left, Value) or isinstance(right, Value):
        return left == right
    return True


def recursion_check(
    h: int, fuel: int, fuels: Sequence[int], inputs: Sequence[int]
) -> tuple[int, Outcome, tuple[tuple[int, Outcome, Outcome, int], ...]]:
    """The fixed point n0 of h, h's answer on n0 at `fuel`, and samples.

    A sample (x, phi_n0(x), phi_h(n0)(x), at) is run at the first fuel `at`
    in `fuels` where the two sides are equal, else at the last. There are no
    samples when h gives no index on n0.
    """
    n0 = recursion_fixed_point(h)
    transformed = evaluate(h, [n0], fuel)
    samples = []
    if isinstance(transformed, Value):
        for x in inputs:
            for at in fuels:
                left = evaluate(n0, [x], at)
                right = evaluate(transformed.n, [x], at)
                if left == right:
                    break
            samples.append((x, left, right, at))
    return n0, transformed, tuple(samples)


def verify_recursion(transformed: Outcome, samples: Sequence[tuple]) -> bool:
    """h gave an index, and on every sample (x, left, right, ..) the sides agree."""
    return isinstance(transformed, Value) and all(agree(s[1], s[2]) for s in samples)


@dataclass(frozen=True)
class RefutationWitness:
    """Evidence that a claimed halting decider is wrong or not total.

    The diagonal program g (index g_index) asks the candidate about g itself
    and then does the opposite: halts with 1 when told "diverges", loops when
    told "halts". candidate_answer records the candidate on (g, g) at the
    given fuel; g_run records g on g with the small constant wrapper
    allowance added, so a candidate answer computed within the budget always
    propagates through g.
    """

    g_index: int
    candidate_answer: Outcome
    g_run: Outcome
    fuel: int

    SAID_HALT_BUT_DIVERGED = "SaidHaltButDiverged"
    SAID_DIVERGE_BUT_HALTED = "SaidDivergeButHalted"
    CANDIDATE_NOT_TOTAL = "CandidateNotTotal"

    @property
    def verdict(self) -> str:
        """How the candidate failed, read off its answer."""
        answer = self.candidate_answer
        if not isinstance(answer, Value):
            return self.CANDIDATE_NOT_TOTAL
        if answer.n == 0:
            return self.SAID_DIVERGE_BUT_HALTED
        return self.SAID_HALT_BUT_DIVERGED


# node visits g spends around the candidate's own run: IfZero, Run, Smn,
# Const, Var, Var, then the Const 1 branch
_WRAPPER_ALLOWANCE = 7


def refute_halting(candidate: int, fuel: int) -> RefutationWitness:
    """Diagonalize against a claimed binary halting decider.

    The candidate is read as (n, m) -> {0, 1} with nonzero meaning "program m
    halts on n". Every candidate yields a witness; divergence evidence is
    explicitly bounded by the fuel recorded in it.
    """
    g_body = IfZero(
        Run(Smn(Const(candidate), Var(1)), Var(1)),
        Const(1),
        Run(Const(OMEGA), Const(OMEGA)),
    )
    c = encode(g_body)
    answer = evaluate(candidate, [c, c], fuel)
    g_run = evaluate(c, [c], fuel + _WRAPPER_ALLOWANCE)
    return RefutationWitness(
        g_index=c,
        candidate_answer=answer,
        g_run=g_run,
        fuel=fuel,
    )


def verify_refutation(witness: RefutationWitness) -> bool:
    """g did the opposite of the candidate's answer, if it gave one."""
    answer = witness.candidate_answer
    if not isinstance(answer, Value):
        return True
    return witness.g_run == (Value(1) if answer.n == 0 else Diverged())


@dataclass(frozen=True)
class RiceReport:
    """Self-defeating probe for a claimed decider of a program property.

    The caller asserts the decider answers 1 exactly on indices whose
    function lies in some class A, with phi_a in A and phi_b not in A. The
    probe n0 behaves like phi_b whenever the decider claims n0 is in A and
    like phi_a otherwise, so any total decider contradicts itself on n0.
    """

    decider: int
    a: int
    b: int
    n0: int
    decider_answer: Outcome
    switched_to: Outcome
    samples: tuple[tuple[int, Outcome, Outcome], ...]
    fuel: int

    SAYS_MEMBER_BUT_ACTS_OUTSIDE = "SaysMemberButActsOutside"
    SAYS_NONMEMBER_BUT_ACTS_INSIDE = "SaysNonMemberButActsInside"
    DECIDER_NOT_TOTAL = "DeciderNotTotal"

    @property
    def verdict(self) -> str:
        """How the decider failed, read off its answer."""
        answer = self.decider_answer
        if not isinstance(answer, Value):
            return self.DECIDER_NOT_TOTAL
        if answer.n != 0:
            return self.SAYS_MEMBER_BUT_ACTS_OUTSIDE
        return self.SAYS_NONMEMBER_BUT_ACTS_INSIDE


# node visits the switch spends around the decider's own run: IfZero, Run,
# Const, Var, then the chosen Const branch
_SWITCH_ALLOWANCE = 5
# inputs on which the probe is compared with the program it switched to
RICE_SAMPLE_INPUTS = (0, 1, 2, 3)


def rice_contradiction(decider: int, a: int, b: int, fuel: int) -> RiceReport:
    """Build the self-defeating fixed point for a claimed property decider.

    It is the recursion check of the switch body, sampled at `fuel`, plus the
    decider's own answer on the fixed point.
    """
    h = encode(IfZero(Run(Const(decider), Var(1)), Const(a), Const(b)))
    n0, switched, samples = recursion_check(
        h, fuel + _SWITCH_ALLOWANCE, (fuel,), RICE_SAMPLE_INPUTS
    )
    answer = evaluate(decider, [n0], fuel)
    return RiceReport(
        decider=decider,
        a=a,
        b=b,
        n0=n0,
        decider_answer=answer,
        switched_to=switched,
        samples=tuple((x, left, right) for x, left, right, _ in samples),
        fuel=fuel,
    )


def verify_rice(report: RiceReport) -> bool:
    """If the decider answered, the probe switched to and tracks the other side."""
    answer = report.decider_answer
    if not isinstance(answer, Value):
        return True
    target = report.b if answer.n != 0 else report.a
    return report.switched_to == Value(target) and verify_recursion(
        report.switched_to, report.samples
    )


def bounded_halting_matrix(n: int, fuel: int) -> DescribesMatrix:
    """rel[i][j] = 1 iff program j halts on input i within the fuel budget.

    A finite, fuel-bounded shadow of the exact halting table: column m only
    approximates the true halting set of phi_m from below.
    """
    if n < 1:
        raise InputError("matrix size must be at least 1")
    # column by column, so that each program's code stays in the decode memo
    cols = [
        [1 if isinstance(evaluate(j, [i], fuel), Value) else 0 for i in range(n)]
        for j in range(n)
    ]
    rel = tuple(zip(*cols))
    return DescribesMatrix(labels=tuple(str(i) for i in range(n)), rel=rel)


def parse_program(text: str) -> Expr:
    """Read the prefix notation: numerals are constants, %i argument refs."""
    return PROGRAMS.parse(text)


def parse_program_or_code(text: str) -> int:
    """A bare numeral is a program index; anything else is a program body."""
    stripped = text.strip()
    code = syntax.NAT.code(stripped.removeprefix("-"))
    if code is None:
        return encode(parse_program(text))
    if code > 0 and stripped[0] == "-":
        raise InputError("program index must be a natural number")
    return code


def format_program(e: Expr) -> str:
    """Prefix notation matching `parse_program`."""
    return PROGRAMS.format(e)
