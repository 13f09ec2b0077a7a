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

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Iterable, Optional, Sequence, Union

from . import syntax
from .errors import InputError, natural
from .syntax import pair, unpair

if TYPE_CHECKING:
    from .instances import DescribesMatrix

Expr = Any  # a node of PROGRAMS


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
# the interpreter returns these two: an outcome without fields equals every
# other of its class, so one shared instance of each serves every run
_DIVERGED, _STUCK = Diverged(), Stuck()

# Body of Run(Var 1, Var 1): applied to its own code it loops forever.
OMEGA = 2208


# argument references are spelled %i
_ARG = syntax.Scalar(
    lambda index: f"%{index}",
    lambda text: syntax.NAT.code(text[1:]) if text[:1] == "%" else None,
)
PROGRAMS = syntax.Sort("expression")
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


# a body's code is 10 * payload + constructor tag; its numerals are constants
encode, parse_program, format_program = PROGRAMS.number, PROGRAMS.parse, PROGRAMS.format

# `steps` and `smn_meta` keep this many recent results each. Both are pure,
# charge no fuel and return immutable values, so the memo changes no outcome;
# self-application re-enters the same few codes at every turn.
MEMO_SIZE = 256


def decode(p: int) -> Expr:
    """The body of program p, for a natural p; every natural is a program."""
    return PROGRAMS.denumber(natural(p, "program code"))


@lru_cache(maxsize=MEMO_SIZE)
def steps(p: int) -> tuple[tuple[type, int, object], ...]:
    """Program p as post-order (class, k, a) steps, read straight from its code.

    Fuel is charged at the leaves. Nothing happens between an inner node's
    visit and the visit of its leftmost leaf, so a `Var` or `Const` step
    carries k = 1 + the inner nodes visited just before it; its a is the
    index or the value. An `ifz` step's a is (then, other, tail), its
    branches as codes, which are compiled only when taken; a `run` step's a
    is tail. tail is True for the last step only: a call there needs no
    frame to return to. Other steps have k = 0 and a = None.
    """
    out = []
    charge = 0
    # codes to visit, and the steps that finish them, in reverse order
    todo: list = [p]
    while todo:
        item = todo.pop()
        if item.__class__ is tuple:
            out.append(item)
            continue
        cls, fields = PROGRAMS.split(item)
        charge += 1
        if cls is Var or cls is Const:
            out.append((cls, charge, fields[0]))
            charge = 0
        elif cls is IfZero:
            todo.append((cls, 0, (fields[1], fields[2], not todo)))
            todo.append(fields[0])
        else:
            todo.append((cls, 0, not todo if cls is Run else None))
            todo.extend(fields[::-1])
    return tuple(out)


def reads_argument(p: int) -> bool:
    """Whether a `Var 1` step, the one reader of a program's input, occurs in p's code.

    Both `ifz` branches count, taken or not. Without it p computes the same
    values and spends the same fuel on every input, since a `run` step gives
    its callee a fresh argument made from values.
    """
    todo = [p]
    while todo:
        for cls, _, a in steps(todo.pop()):
            if cls is Var:
                if a == 1:
                    return True
            elif cls is IfZero:
                todo.extend(a[:2])
    return False


def evaluate(p: int, args: Iterable[int], fuel: int) -> Outcome:
    """Run program p on args with a shared step budget.

    Big-step, deterministic, and monotone: a Value at fuel F is the same
    Value at every larger budget. Each expression node visit costs one unit;
    nested `Run` calls draw on the same budget. Fuel must be an `int` and a
    natural number; fuel 0 is Diverged at once.
    """
    # the loop counts fuel down to 0: a negative budget would never run out,
    # and neither would 1.5; True would count as 1. The code and arguments
    # are checked here only: a nested run gets naturals made from naturals.
    natural(fuel, "fuel")
    natural(p, "program code")
    # the tuple first: an iterator of arguments is read once
    try:
        env = tuple(args)
    except TypeError:
        raise InputError(f"program arguments must be an iterable, got {args!r}") from None
    for x in env:
        natural(x, "program argument")
    # todo walks the steps of the code being run; a frame (todo, env) is kept
    # for each run or ifz call not in tail position, to resume after it. The
    # last arm takes the class left over, Smn.
    todo = iter(steps(p))
    frames: list = []
    vals: list[int] = []
    while True:
        for cls, k, a in todo:
            if cls is Var:
                if fuel < k:
                    return _DIVERGED
                fuel -= k
                if not 0 < a <= len(env):
                    return _STUCK
                vals.append(env[a - 1])
            elif cls is Const:
                if fuel < k:
                    return _DIVERGED
                fuel -= k
                vals.append(a)
            elif cls is Run:
                x = vals.pop()
                if not a:
                    frames.append((todo, env))
                todo, env = iter(steps(vals.pop())), (x,)
                break
            elif cls is IfZero:
                then, other, tail = a
                if not tail:
                    frames.append((todo, env))
                todo = iter(steps(then if vals.pop() == 0 else other))
                break
            elif cls is Succ:
                vals[-1] += 1
            elif cls is Pred:
                if vals[-1] > 0:
                    vals[-1] -= 1
            elif cls is Fst:
                vals[-1] = unpair(vals[-1])[0]
            elif cls is Snd:
                vals[-1] = unpair(vals[-1])[1]
            elif cls is Pair:
                b = vals.pop()
                vals[-1] = pair(vals[-1], b)
            else:
                y = vals.pop()
                vals[-1] = smn_meta(vals[-1], y)
        else:
            if not frames:
                return Value(vals.pop())
            todo, env = frames.pop()


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


# node visits g spends around the candidate's own run: IfZero, Run, Smn,
# Const, Var, Var, then the Const 1 branch
_WRAPPER_ALLOWANCE = 7


@dataclass(frozen=True)
class RefutationWitness:
    """Evidence that a claimed halting decider is wrong or not total.

    Built from the candidate and the fuel alone. The candidate is read as
    (n, m) -> {0, 1} with nonzero meaning "program m halts on n". The
    diagonal program g (index g_index) asks the candidate about g itself and
    then does the opposite: halts with 1 when told "diverges", loops when
    told "halts". candidate_answer records the candidate on (g, g) at the
    given fuel; g_run records g on g at fuel + 7 (`_WRAPPER_ALLOWANCE`), so
    a candidate answer computed within the budget always propagates through
    g. Every candidate yields a witness; its divergence evidence is bounded
    by the fuel it ran at, which for g_run is fuel + 7, not the fuel recorded.
    """

    candidate: int
    fuel: int
    g_index: int = field(init=False)
    candidate_answer: Outcome = field(init=False)
    g_run: Outcome = field(init=False)

    SAID_HALT_BUT_DIVERGED = "SaidHaltButDiverged"
    SAID_DIVERGE_BUT_HALTED = "SaidDivergeButHalted"
    CANDIDATE_NOT_TOTAL = "CandidateNotTotal"

    def __post_init__(self) -> None:
        g_body = IfZero(
            Run(Smn(Const(self.candidate), Var(1)), Var(1)),
            Const(1),
            Run(Const(OMEGA), Const(OMEGA)),
        )
        c = encode(g_body)
        object.__setattr__(self, "g_index", c)
        object.__setattr__(self, "candidate_answer", evaluate(self.candidate, [c, c], self.fuel))
        object.__setattr__(self, "g_run", evaluate(c, [c], self.fuel + _WRAPPER_ALLOWANCE))

    @property
    def verdict(self) -> str:
        """How the candidate failed, read off its answer."""
        answer = self.candidate_answer
        if not isinstance(answer, Value):
            return self.CANDIDATE_NOT_TOTAL
        if answer.n == 0:
            return self.SAID_DIVERGE_BUT_HALTED
        return self.SAID_HALT_BUT_DIVERGED


# diagonalize against a claimed binary halting decider
refute_halting = RefutationWitness


def verify_refutation(witness: RefutationWitness) -> bool:
    """g did the opposite of the candidate's answer, if it gave one."""
    answer = witness.candidate_answer
    if not isinstance(answer, Value):
        return True
    return witness.g_run == (Value(1) if answer.n == 0 else Diverged())


# node visits the switch spends around the decider's own run: IfZero, Run,
# Const, Var, then the chosen Const branch
_SWITCH_ALLOWANCE = 5
# inputs on which the probe is compared with the program it switched to
RICE_SAMPLE_INPUTS = (0, 1, 2, 3)


@dataclass(frozen=True)
class RiceReport:
    """Self-defeating probe for a claimed decider of a program property.

    Built from the decider, a, b and the fuel alone. The caller asserts the
    decider answers 1 exactly on indices whose function lies in some class
    A, with phi_a in A and phi_b not in A. The probe n0 behaves like phi_b
    whenever the decider claims n0 is in A and like phi_a otherwise, so any
    total decider contradicts itself on n0. n0, switched_to and samples are
    the recursion check of the switch body: switched_to, the body's run on
    n0, at fuel + 5 (`_SWITCH_ALLOWANCE`), and the samples at `fuel`;
    decider_answer is the decider's own answer on n0, at `fuel`.
    """

    decider: int
    a: int
    b: int
    fuel: int
    n0: int = field(init=False)
    decider_answer: Outcome = field(init=False)
    switched_to: Outcome = field(init=False)
    samples: tuple[tuple[int, Outcome, Outcome], ...] = field(init=False)

    SAYS_MEMBER_BUT_ACTS_OUTSIDE = "SaysMemberButActsOutside"
    SAYS_NONMEMBER_BUT_ACTS_INSIDE = "SaysNonMemberButActsInside"
    DECIDER_NOT_TOTAL = "DeciderNotTotal"

    def __post_init__(self) -> None:
        # a bad fuel is reported as given, not plus the allowance
        natural(self.fuel, "fuel")
        h = encode(IfZero(Run(Const(self.decider), Var(1)), Const(self.a), Const(self.b)))
        n0, switched, samples = recursion_check(
            h, self.fuel + _SWITCH_ALLOWANCE, (self.fuel,), RICE_SAMPLE_INPUTS
        )
        object.__setattr__(self, "n0", n0)
        object.__setattr__(self, "decider_answer", evaluate(self.decider, [n0], self.fuel))
        object.__setattr__(self, "switched_to", switched)
        samples = tuple((x, left, right) for x, left, right, _ in samples)
        object.__setattr__(self, "samples", samples)

    @property
    def verdict(self) -> str:
        """How the decider failed, read off its answer."""
        answer = self.decider_answer
        if not isinstance(answer, Value):
            return self.DECIDER_NOT_TOTAL
        if answer.n != 0:
            return self.SAYS_MEMBER_BUT_ACTS_OUTSIDE
        return self.SAYS_NONMEMBER_BUT_ACTS_INSIDE


# build the self-defeating fixed point for a claimed property decider
rice_contradiction = RiceReport


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
    approximates the true halting set of phi_m from below. A program that
    never reads its argument (`reads_argument`) has the same outcome on
    every input, so its column is run once, on input 0, and repeated.
    """
    from .instances import DescribesMatrix
    natural(n, "matrix size", least=1)

    def halts(j: int, i: int) -> int:
        return 1 if isinstance(evaluate(j, [i], fuel), Value) else 0

    # column by column: `reads_argument` compiles each code into the memo its runs read
    cols = [
        [halts(j, i) for i in range(n)] if reads_argument(j) else [halts(j, 0)] * n
        for j in range(n)
    ]
    rel = tuple(zip(*cols))
    return DescribesMatrix(labels=tuple(str(i) for i in range(n)), rel=rel)


def parse_program_or_code(text: str) -> int:
    """A bare numeral is a program index; anything else is a program body."""
    stripped = text.strip()
    code = syntax.NAT.code(stripped.removeprefix("-"))
    if code is None:
        return encode(parse_program(text))
    if code > 0 and stripped[0] == "-":
        raise InputError("program index must be a natural number")
    return code
