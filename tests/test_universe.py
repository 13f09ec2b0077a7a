"""Toy computable universe: numbering, interpreter, and fixed points."""

import dataclasses
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    check_holds_only_inputs,
    cost_model_cases,
    deadline,
    outcomes_agree,
    random_safe_binary,
    random_total_unary,
    random_tree,
)
from test_cost_model import FUEL_CAP, least_fuel, reference

from diagkit import universe as U
from diagkit.errors import InputError
from diagkit.syntax import children
from diagkit.universe import (
    Const,
    Diverged,
    IfZero,
    OMEGA,
    Pair,
    Run,
    Smn,
    Stuck,
    Succ,
    Value,
    Var,
    decode,
    encode,
    evaluate,
    pair,
    quine,
    recursion_fixed_point,
    refute_halting,
    smn_meta,
    unpair,
)


def test_pairing_examples():
    assert pair(0, 0) == 0
    assert pair(1, 2) == 8
    assert unpair(7) == (2, 1)
    assert pair(2, 1) == 7


@given(st.integers(0, 10**9), st.integers(0, 10**9))
def test_pairing_roundtrip(a, b):
    assert unpair(pair(a, b)) == (a, b)


@given(st.integers(0, 10**12))
def test_unpairing_roundtrip(p):
    a, b = unpair(p)
    assert pair(a, b) == p


def test_encode_examples():
    assert encode(Var(1)) == 10
    assert encode(Const(0)) == 1
    assert encode(Const(2)) == 21
    assert encode(Run(Var(1), Var(1))) == OMEGA
    assert encode(Smn(Const(10), Var(1))) == 62269


@given(st.integers(0, 10**6))
def test_decode_encode_identity_on_codes(n):
    assert encode(decode(n)) == n


def test_decode_encode_identity_on_random_trees():
    rng = random.Random(0x5EED)
    for _ in range(300):
        tree = random_tree(rng, rng.randint(0, 8))
        assert decode(encode(tree)) == tree


def test_eval_const():
    assert evaluate(21, [5], 10) == Value(2)


def test_eval_projection():
    assert evaluate(10, [7], 10) == Value(7)
    # arguments may come as an iterator, which the entry check must not use up
    assert evaluate(10, iter([7]), 5) == Value(7)
    assert evaluate(10, (x for x in [7]), 5) == Value(7)


@pytest.mark.parametrize("fuel", [0, 1, 10, 1000, 100000])
def test_eval_self_application_diverges(fuel):
    assert evaluate(OMEGA, [OMEGA], fuel) == Diverged()


def test_eval_arity_violation_is_stuck():
    assert evaluate(encode(Var(2)), [7], 10) == Stuck()
    assert evaluate(0, [7], 10) == Stuck()  # code 0 decodes to an unfillable reference


def test_eval_pred_of_zero_is_zero():
    assert evaluate(encode(U.Pred(Const(0))), [], 10) == Value(0)
    assert evaluate(encode(U.Pred(Const(5))), [], 10) == Value(4)


def test_eval_pairs_through_cantor_encoding():
    body = Pair(Const(3), Const(4))
    assert evaluate(encode(body), [], 10) == Value(pair(3, 4))
    assert evaluate(encode(U.Fst(body)), [], 10) == Value(3)
    assert evaluate(encode(U.Snd(body)), [], 10) == Value(4)


def test_eval_ifzero_branches():
    body = IfZero(Var(1), Const(1), Const(2))
    code = encode(body)
    assert evaluate(code, [0], 10) == Value(1)
    assert evaluate(code, [9], 10) == Value(2)


def test_eval_fuel_exhaustion():
    body = Succ(Succ(Succ(Const(0))))
    code = encode(body)
    assert evaluate(code, [], 3) == Diverged()
    assert evaluate(code, [], 4) == Value(3)


def test_dispatch_covers_the_sort_in_declaration_order():
    # the run loop's last arm catches the class left over: a new row would
    # silently run as an Smn
    assert [cls for cls, _ in U.PROGRAMS.rows] == [
        Var, Const, Succ, U.Pred, IfZero, Pair, U.Fst, U.Snd, Run, Smn
    ]


def test_program_with_every_constructor_matches_reference():
    # fst (pair (ifz (pred 1) (snd (run (smn P 5) (succ %1))) 9) %1) with
    # P = (pair %1 %2): the Run enters (pair 5 %1), so the value is x + 1
    spec = Smn(Const(encode(Pair(Var(1), Var(2)))), Const(5))
    taken = U.Snd(Run(spec, Succ(Var(1))))
    body = U.Fst(Pair(IfZero(U.Pred(Const(1)), taken, Const(9)), Var(1)))
    nodes, classes = [body], set()
    while nodes:
        node = nodes.pop()
        classes.add(type(node))
        nodes += children(node)
    assert classes == {cls for cls, _ in U.PROGRAMS.rows}
    code = encode(body)
    for args, want in (([], Stuck()), ([0], Value(1)), ([4], Value(5))):
        k = least_fuel(code, args)
        assert evaluate(code, args, k) == reference(body, args, k) == want
        assert evaluate(code, args, k - 1) == reference(body, args, k - 1) == Diverged()


def test_eval_rejects_negative_fuel():
    # the run loop counts down to 0, so a negative budget used to never run out
    for fuel in (-1, -3):
        with pytest.raises(InputError):
            evaluate(10, [1], fuel)
        with pytest.raises(InputError):
            evaluate(encode(Const(1)), [], fuel)
    assert evaluate(10, [1], 0) == Diverged()
    assert evaluate(encode(Const(1)), [], 0) == Diverged()


@pytest.mark.parametrize("fuel", [1.5, 2.0, True, "3", None, -1, [1]])
def test_eval_rejects_fuel_that_is_no_int(fuel):
    # 1.5 went 1.5, 0.5, -0.5, .. past 0 and never ran out; True counted as 1
    message = f"fuel must be a natural number, got {re.escape(repr(fuel))}$"
    with deadline(10), pytest.raises(InputError, match=message):
        evaluate(OMEGA, [OMEGA], fuel)


def test_refutation_rejects_fuel_that_is_no_int():
    # the candidate's run used to hang at fuel 1.5
    with deadline(10), pytest.raises(InputError, match="fuel"):
        refute_halting(11, 1.5)


@pytest.mark.parametrize(
    "build,bad",
    [
        (lambda: encode(Var(-1)), -1),
        (lambda: encode(Const(1.5)), 1.5),
        (lambda: encode(Succ(Const(True))), True),
        (lambda: refute_halting(-1, 10), -1),
    ],
    ids=["negative-index", "float-value", "bool-value", "negative-candidate"],
)
def test_numbering_a_program_rejects_a_field_that_is_no_natural(build, bad):
    # encode(Var(-1)) used to give -10 and encode(Const(1.5)) 16.0; refute_halting
    # encodes its candidate into g, and -1 raised ValueError from isqrt
    with deadline(10), pytest.raises(InputError, match=f"must be a natural number, got {bad!r}$"):
        build()


@pytest.mark.parametrize("fuel", [1.5, "3", None])
def test_rice_names_the_fuel_it_was_given(fuel):
    # the allowance used to be added first: 1.5 was named as 6.5, and "3" or None
    # raised TypeError
    message = f"fuel must be a natural number, got {fuel!r}$"
    with deadline(10), pytest.raises(InputError, match=message):
        U.rice_contradiction(11, 1, 2, fuel)


def _ifz_positions(body) -> set:
    """Where ifz nodes sit: "tail" (the root), "cond", "branch", "inner"."""
    seen, nodes = set(), [(body, "tail")]
    while nodes:
        node, where = nodes.pop()
        if isinstance(node, IfZero):
            seen.add(where)
            nodes += [(node.cond, "cond"), (node.then, "branch"), (node.other, "branch")]
        else:
            nodes += [(child, "inner") for child in children(node)]
    return seen


def _random_program(rng: random.Random, depth: int):
    """Any constructor, ifz at a third of the inner nodes; runs enter such programs."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.4:
            return Var(rng.randint(0, 2))
        if depth > 0 and rng.random() < 0.3:
            return Const(encode(_random_program(rng, depth - 1)))
        return Const(rng.choice((0, 1, 10, OMEGA, rng.randint(0, 40))))
    roll = rng.random()
    if roll < 0.35:
        return IfZero(*(_random_program(rng, depth - 1) for _ in range(3)))
    if roll < 0.65:
        ctor = rng.choice((Succ, U.Pred, U.Fst, U.Snd))
        return ctor(_random_program(rng, depth - 1))
    ctor = rng.choice((Pair, Run, Smn))
    return ctor(_random_program(rng, depth - 1), _random_program(rng, depth - 1))


def test_steps_match_reference_at_least_fuel_and_one_below():
    rng = random.Random(0x57E95)
    classes, positions, outcomes = set(), set(), set()
    for _ in range(400):
        body = _random_program(rng, rng.randint(1, 5))
        nodes = [body]
        while nodes:
            node = nodes.pop()
            classes.add(type(node))
            nodes += children(node)
        positions |= _ifz_positions(body)
        code = encode(body)
        args = [rng.choice((0, 1, 5, 10, code)) for _ in range(rng.randint(0, 2))]
        k = least_fuel(code, args)
        if k > FUEL_CAP:
            assert evaluate(code, args, FUEL_CAP) == reference(body, args, FUEL_CAP) == Diverged()
            continue
        got = evaluate(code, args, k)
        outcomes.add(type(got))
        assert got == reference(body, args, k) != Diverged(), (code, args, k)
        assert evaluate(code, args, k - 1) == reference(body, args, k - 1) == Diverged()
    assert classes == {cls for cls, _ in U.PROGRAMS.rows}
    assert positions == {"tail", "cond", "branch", "inner"}
    assert outcomes == {Value, Stuck}


def test_split_gives_the_field_numbers_of_denumber():
    rng = random.Random(200)
    for n in [*range(10**4), *(rng.getrandbits(200) for _ in range(300))]:
        node = U.PROGRAMS.denumber(n)
        cls, numbers = U.PROGRAMS.split(n)
        assert cls is type(node)
        assert numbers == tuple(f.number(getattr(node, name)) for f, name in cls._slots)


def test_deep_code_compiles_without_host_recursion():
    # (ifz (succ^19000 %1) 0 1), numbered level by level: steps reads the code
    # with its own stack, one level of split at a time
    depth, radix = 19_000, U.PROGRAMS.radix
    cond = encode(Var(1))
    for _ in range(depth):
        cond = radix * cond + Succ._tag
    code = radix * pair(cond, pair(encode(Const(0)), encode(Const(1)))) + IfZero._tag
    assert len(U.steps(code)) == depth + 2
    # ifz, the succ chain and %1, then the branch taken
    assert evaluate(code, [0], depth + 3) == Value(1)
    assert evaluate(code, [0], depth + 2) == Diverged()
    U.steps.cache_clear()  # the memo would hold the 19 002 steps


def test_tail_calls_push_no_frames():
    # OMEGA's run is its last step: a frame per turn would hold 333 333 frames
    tracemalloc.start()
    try:
        assert evaluate(OMEGA, [OMEGA], 10**6) == Diverged()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_eval_deterministic():
    rng = random.Random(7)
    for _ in range(50):
        body = random_safe_binary(rng, 4)
        code = encode(body)
        args = [rng.randint(0, 9), rng.randint(0, 9)]
        fuel = rng.randint(0, 60)
        assert evaluate(code, args, fuel) == evaluate(code, args, fuel)


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(0, 50), st.integers(0, 50))
def test_eval_fuel_monotone(seed, fuel, extra):
    rng = random.Random(seed)
    body = random_safe_binary(rng, 4)
    code = encode(body)
    outcome = evaluate(code, [3, 4], fuel)
    if isinstance(outcome, Value):
        assert evaluate(code, [3, 4], fuel + extra) == outcome


@settings(max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(0, 80), st.integers(0, 80))
def test_eval_fuel_monotone_full_grammar(seed, fuel, extra):
    # includes run/smn nodes, so nested re-entry shares the budget;
    # settled outcomes (Value, Stuck) are stable under extra fuel, only
    # Diverged can resolve further
    rng = random.Random(seed)
    body = random_tree(rng, 4)
    code = encode(body)
    outcome = evaluate(code, [3, 4], fuel)
    if not isinstance(outcome, Diverged):
        assert evaluate(code, [3, 4], fuel + extra) == outcome


def test_smn_examples():
    assert smn_meta(10, 5) == 51
    for y in (0, 1, 7, 123):
        assert smn_meta(encode(Var(2)), y) == 10
        # the quine helper: specializing the projection yields a constant program
        assert smn_meta(10, y) == 10 * y + 1


def test_smn_agrees_with_direct_evaluation():
    rng = random.Random(0xA11CE)
    for _ in range(60):
        body = random_safe_binary(rng, 4)
        code = encode(body)
        for y, x in ((0, 0), (2, 9), (7, 3)):
            direct = evaluate(code, [y, x], 10**5)
            specialized = evaluate(smn_meta(code, y), [x], 10**5)
            assert isinstance(direct, Value)
            assert direct == specialized


def test_recursion_identity_transformer():
    n0 = recursion_fixed_point(10)
    transformed = evaluate(10, [n0], 10**5)
    assert transformed == Value(n0)
    for x in range(3):
        assert outcomes_agree(
            evaluate(n0, [x], 10**5), evaluate(n0, [x], 10**5)
        )


def test_recursion_constant_transformer():
    # transformer always answers 71 = code of the constant-7 program
    h = encode(Const(71))
    n0 = recursion_fixed_point(h)
    for x in range(4):
        assert evaluate(n0, [x], 10**5) == Value(7)


def test_recursion_on_generated_total_transformers():
    rng = random.Random(0xF1D0)
    for _ in range(10):
        h = encode(random_total_unary(rng, 3))
        _, transformed, samples = U.recursion_check(h, 10**6, (10**5, 10**6), range(3))
        assert isinstance(transformed, Value)
        assert [x for x, *_ in samples] == [0, 1, 2]
        for _, left, right, _ in samples:
            assert outcomes_agree(left, right)


def test_recursion_check_retries_at_the_next_fuel_until_the_sides_are_equal():
    # h always answers 71, the constant-7 program: one step gives its value,
    # while the fixed point needs many more
    h = encode(Const(71))
    n0, transformed, samples = U.recursion_check(h, 1, (1, 10**5), [0, 4])
    assert n0 == recursion_fixed_point(h)
    assert transformed == Value(71)
    assert samples == ((0, Value(7), Value(7), 10**5), (4, Value(7), Value(7), 10**5))
    assert U.verify_recursion(transformed, samples)
    _, _, short = U.recursion_check(h, 1, (1,), [0])
    assert short == ((0, Diverged(), Value(7), 1),)
    assert not U.verify_recursion(transformed, short)


def test_recursion_check_takes_no_samples_without_a_transformed_index():
    _, transformed, samples = U.recursion_check(OMEGA, 100, (100,), [0, 1])
    assert transformed == Diverged() and samples == ()
    assert not U.verify_recursion(transformed, samples)


@pytest.mark.parametrize(
    "left,right,want",
    [
        (Value(3), Value(3), True),
        (Value(3), Value(4), False),
        (Value(3), Diverged(), False),
        (Stuck(), Value(0), False),
        (Diverged(), Stuck(), True),
        (Diverged(), Diverged(), True),
    ],
)
def test_agree_is_equal_values_or_two_non_values(left, right, want):
    assert U.agree(left, right) is want
    assert outcomes_agree(left, right) is want


def test_quine_reproduces_itself():
    q = quine()
    for x in (0, 1, 2, q):
        assert evaluate(q, [x], 10**6) == Value(q)


def test_quine_is_recursion_fixed_point_of_projection_transformer():
    # 62269 codes (smn 10 %1): specialize the projection to its first argument
    assert quine() == recursion_fixed_point(62269)


def test_refute_halting_always_yes_candidate():
    witness = refute_halting(encode(Const(1)), 4096)
    assert witness.verdict == U.RefutationWitness.SAID_HALT_BUT_DIVERGED
    assert witness.candidate_answer == Value(1)
    assert witness.g_run == Diverged()
    assert U.verify_refutation(witness)


def test_refute_halting_always_no_candidate():
    witness = refute_halting(encode(Const(0)), 4096)
    assert witness.verdict == U.RefutationWitness.SAID_DIVERGE_BUT_HALTED
    assert witness.candidate_answer == Value(0)
    assert witness.g_run == Value(1)
    assert U.verify_refutation(witness)


def test_refute_halting_self_looping_candidate():
    witness = refute_halting(OMEGA, 4096)
    assert witness.verdict == U.RefutationWitness.CANDIDATE_NOT_TOTAL
    assert witness.candidate_answer == Diverged()
    assert U.verify_refutation(witness)


@pytest.mark.parametrize("fuel", [1, 2, 8, 4096])
def test_g_run_and_switched_to_ran_past_the_fuel_their_reports_print(fuel):
    # the CLI prints `fuel` beside both runs; they ran with the wrapper and switch allowances
    witness = refute_halting(encode(Const(0)), fuel)
    g = witness.g_index
    assert witness.g_run == evaluate(g, [g], fuel + 7)
    report = U.rice_contradiction(encode(Const(0)), 1, OMEGA, fuel)
    switch = encode(IfZero(Run(Const(report.decider), Var(1)), Const(1), Const(OMEGA)))
    assert report.switched_to == evaluate(switch, [report.n0], fuel + 5)
    if fuel == 1:
        # at the printed fuel itself both runs diverge
        assert witness.g_run == Value(1) and evaluate(g, [g], fuel) == Diverged()
        assert report.switched_to == Value(1)
        assert evaluate(switch, [report.n0], fuel) == Diverged()


def test_rice_decider_always_member():
    a, b = 1, OMEGA  # phi_a is constant 0, phi_b loops
    report = U.rice_contradiction(encode(Const(1)), a, b, 10**4)
    assert report.verdict == U.RiceReport.SAYS_MEMBER_BUT_ACTS_OUTSIDE
    assert report.switched_to == Value(b)
    assert U.verify_rice(report)
    # the probe behaves like phi_b although the decider claims it is in A
    for _, got, want in report.samples:
        assert outcomes_agree(got, want)


def test_rice_decider_always_nonmember():
    a, b = 1, OMEGA
    report = U.rice_contradiction(encode(Const(0)), a, b, 10**4)
    assert report.verdict == U.RiceReport.SAYS_NONMEMBER_BUT_ACTS_INSIDE
    assert report.switched_to == Value(a)
    assert U.verify_rice(report)
    for x, got, want in report.samples:
        assert got == want == Value(0)


def test_rice_nontotal_decider():
    report = U.rice_contradiction(OMEGA, 1, OMEGA, 10**4)
    assert report.verdict == U.RiceReport.DECIDER_NOT_TOTAL
    assert U.verify_rice(report)


@pytest.mark.parametrize("decider", [11, encode(Const(0)), OMEGA])
def test_verify_rice_rejects_any_other_verdict(decider):
    report = U.rice_contradiction(decider, 1, OMEGA, 10**4)
    assert U.verify_rice(report)
    # the verdict is read off the decider's answer: no report can store another
    with pytest.raises(TypeError):
        dataclasses.replace(report, verdict="Bogus")


@pytest.mark.parametrize("candidate", [encode(Const(1)), encode(Const(0)), OMEGA])
def test_verify_refutation_rejects_any_other_verdict(candidate):
    witness = refute_halting(candidate, 4096)
    assert U.verify_refutation(witness)
    # the verdict is read off the candidate's answer: no witness can store another
    with pytest.raises(TypeError):
        dataclasses.replace(witness, verdict="Bogus")
    # g's run is computed from the candidate: no witness can hold another
    wrong = Diverged() if witness.g_run == Value(1) else Value(1)
    with pytest.raises(ValueError):
        dataclasses.replace(witness, g_run=wrong)


@pytest.mark.parametrize(
    "construction,cls,inputs,evidence",
    [
        (
            refute_halting,
            U.RefutationWitness,
            (encode(Const(1)), 4096),
            ("g_index", "candidate_answer", "g_run"),
        ),
        (
            U.rice_contradiction,
            U.RiceReport,
            (11, 1, OMEGA, 10**4),
            ("n0", "decider_answer", "switched_to", "samples"),
        ),
    ],
    ids=["refutation", "rice"],
)
def test_certificate_holds_only_its_inputs(construction, cls, inputs, evidence):
    assert construction is cls
    check_holds_only_inputs(cls(*inputs), evidence, fuel=3)


def test_forged_certificates_do_not_construct():
    # each verified while a certificate stored its evidence beside its inputs:
    # decider 11 is Const 1 and answers Value(1) on 0, not Stuck()
    with pytest.raises(TypeError):
        U.RiceReport(
            decider=11, a=1, b=2208, n0=0, decider_answer=Stuck(),
            switched_to=Value(3), samples=(), fuel=1,
        )
    # nor does a witness name no candidate
    with pytest.raises(TypeError):
        U.RefutationWitness(g_index=0, candidate_answer=Diverged(), g_run=Value(5), fuel=1)


def test_bounded_halting_matrix_columns():
    m = U.bounded_halting_matrix(12, 64)
    # the projection (code 10) and the constant-0 program (code 1) always halt
    assert all(m.rel[i][10] == 1 for i in range(12))
    assert all(m.rel[i][1] == 1 for i in range(12))
    # code 0 is a stuck reference: never a value
    assert all(m.rel[i][0] == 0 for i in range(12))


def test_bounded_halting_matrix_omega_cell_rule():
    # the matrix cell rule at (OMEGA, OMEGA) is 0 at any fuel
    for fuel in (1, 64, 10**4):
        assert not isinstance(evaluate(OMEGA, [OMEGA], fuel), Value)


def test_bounded_halting_matrix_size_validation():
    with pytest.raises(InputError):
        U.bounded_halting_matrix(0, 10)


@pytest.mark.parametrize("n", [2.5, 2.0, True, "3", None, -1, 0, 1.5, [1]])
def test_bounded_halting_matrix_rejects_size_that_is_no_int(n):
    # 2.5 used to raise TypeError from range, and True gave a 1 x 1 table
    message = f"matrix size must be an int.*, got {re.escape(repr(n))}$"
    with pytest.raises(InputError, match=message):
        U.bounded_halting_matrix(n, 8)


@pytest.mark.parametrize("code", [-1, 1.5, 2.0, True, "3", None, [1]])
def test_decode_rejects_a_code_that_is_no_natural(code):
    # -1 used to raise ValueError from isqrt and 1.5 TypeError from indexing;
    # True found the memo's entry for 1, or decoded as 1
    decode(1)
    message = f"program code must be a natural number, got {re.escape(repr(code))}$"
    with pytest.raises(InputError, match=message):
        decode(code)


def _clear_memo():
    U.steps.cache_clear()
    U.smn_meta.cache_clear()


def test_memo_stays_bounded():
    _clear_memo()
    for n in range(3 * U.MEMO_SIZE):
        evaluate(n, [n], 8)
        smn_meta(n, 7)
    for memo in (U.steps, U.smn_meta):
        info = memo.cache_info()
        assert info.maxsize == U.MEMO_SIZE
        assert info.misses >= 3 * U.MEMO_SIZE
        assert info.currsize <= info.maxsize


def test_memo_cold_and_warm_give_the_same_outcomes():
    for code, args in cost_model_cases():
        for fuel in (16, 256):
            _clear_memo()
            cold = evaluate(code, args, fuel)
            assert evaluate(code, args, fuel) == cold, (code, args, fuel)
    # the interpreter compiles codes into steps and never decodes them
    assert U.steps.cache_info().hits > 0


def test_bounded_halting_matrix_cycles_through_more_programs_than_the_memo():
    n, fuel = U.MEMO_SIZE + 16, 6
    bodies = [U.PROGRAMS.denumber(j) for j in range(n)]
    want = tuple(
        tuple(1 if isinstance(reference(body, [i], fuel), Value) else 0 for body in bodies)
        for i in range(n)
    )
    _clear_memo()
    assert U.bounded_halting_matrix(n, fuel).rel == want
    # filled column by column, each program's code is compiled once
    assert U.steps.cache_info().misses <= n


def _reference_halts(body, i: int, fuel: int) -> int:
    return 1 if isinstance(reference(body, [i], fuel), Value) else 0


def test_bounded_halting_matrix_matches_the_reference_per_cell():
    # a column whose program never reads %1 is run once; every cell must
    # still be what the reference gives for that cell alone
    sizes = (1, 2, 7, 16, 50, 120)
    bodies = [U.PROGRAMS.denumber(j) for j in range(max(sizes))]
    for fuel in (0, 1, 2, 3, 5, 8, 13, 32, 48, 64):
        want = [[_reference_halts(body, i, fuel) for body in bodies] for i in range(len(bodies))]
        for n in sizes:
            got = U.bounded_halting_matrix(n, fuel).rel
            assert got == tuple(tuple(row[:n]) for row in want[:n]), (n, fuel)


# four programs that read their argument, and two that do not
PROGRAMS_BY_COLUMN = (
    10,  # %1
    OMEGA,  # (run %1 %1)
    encode(U.parse_program("(ifz %1 1 (run 2208 2208))")),
    encode(U.parse_program("(ifz 0 1 %1)")),  # %1 in a branch never taken
    1,  # the constant 0
    encode(Succ(Const(10**30))),
)


def test_columns_that_read_their_argument_run_per_cell(monkeypatch):
    # column j of the table is the program PROGRAMS_BY_COLUMN[j % 6]
    n, fuel = 16, 32
    calls = [0] * n
    real_evaluate, real_reads = U.evaluate, U.reads_argument

    def code(j):
        return PROGRAMS_BY_COLUMN[j % len(PROGRAMS_BY_COLUMN)]

    def evaluate_column(j, args, fuel):
        calls[j] += 1
        return real_evaluate(code(j), args, fuel)

    monkeypatch.setattr(U, "evaluate", evaluate_column)
    monkeypatch.setattr(U, "reads_argument", lambda j: real_reads(code(j)))
    rel = U.bounded_halting_matrix(n, fuel).rel
    for j in range(n):
        body = decode(code(j))
        assert [row[j] for row in rel] == [_reference_halts(body, i, fuel) for i in range(n)]
        assert calls[j] == (n if real_reads(code(j)) else 1)
    assert [real_reads(p) for p in PROGRAMS_BY_COLUMN] == [True] * 4 + [False] * 2
    # the per-row answers that a run on input 0 alone would lose
    assert [row[1] for row in rel] != [rel[0][1]] * n
    assert [row[2] for row in rel] == [1] + [0] * (n - 1)


def _tree_reads_argument(body) -> bool:
    nodes = [body]
    while nodes:
        node = nodes.pop()
        if isinstance(node, Var) and node.index == 1:
            return True
        nodes += children(node)
    return False


def test_reads_argument_agrees_with_a_tree_walk():
    rng = random.Random(0xA59)
    codes = [encode(random_tree(rng, 5)) for _ in range(300)]
    codes += [rng.randrange(10 ** rng.randint(1, 40)) for _ in range(300)]
    codes += [rng.randrange(10**30, 10**60) for _ in range(100)]
    found = [U.reads_argument(p) for p in codes]
    assert found == [_tree_reads_argument(decode(p)) for p in codes]
    # both answers occur, among the big codes too
    assert {True, False} <= set(found) and {True, False} <= set(found[-100:])


@pytest.mark.parametrize("fuel", [-1, 1.5])
def test_bounded_halting_matrix_names_a_bad_fuel(fuel):
    # every column still calls the interpreter, argument-free ones included
    message = f"fuel must be a natural number, got {re.escape(repr(fuel))}$"
    with pytest.raises(InputError, match=message):
        U.bounded_halting_matrix(3, fuel)


@pytest.mark.parametrize(
    "code, args, what, bad",
    [
        (-1, [0], "program code", -1),
        (1.5, [0], "program code", 1.5),
        (10, [-3], "program argument", -3),
        (10, [1.5], "program argument", 1.5),
        (10, [True], "program argument", True),
        (10, [0, -3], "program argument", -3),
        (encode(U.parse_program("(fst %1)")), [-3], "program argument", -3),
    ],
    ids=["code-negative", "code-float", "arg-negative", "arg-float", "arg-bool",
         "second-arg-negative", "fst-of-negative-arg"],
)
def test_evaluate_rejects_a_code_or_argument_that_is_no_natural(code, args, what, bad):
    # -1 raised ValueError from isqrt and 1.5 TypeError from indexing a row;
    # %1 returned -3, 1.5 and True as values, and (fst %1) took isqrt(-3)
    message = f"{what} must be a natural number, got {re.escape(repr(bad))}$"
    with pytest.raises(InputError, match=message):
        evaluate(code, args, 10)


@pytest.mark.parametrize("args", [5, None])
def test_evaluate_rejects_arguments_that_are_no_iterable(args):
    # a raw TypeError ("'int' object is not iterable") escaped before
    message = f"^program arguments must be an iterable, got {args!r}$"
    with pytest.raises(InputError, match=message):
        evaluate(10, args, 5)


def test_program_notation_roundtrip():
    rng = random.Random(3)
    for _ in range(100):
        tree = random_tree(rng, 5)
        text = U.format_program(tree)
        assert U.parse_program(text) == tree


def test_program_notation_examples():
    assert U.parse_program("(ifz (run %1 %1) 1 (run 2208 2208))") == IfZero(
        Run(Var(1), Var(1)), Const(1), Run(Const(2208), Const(2208))
    )
    assert U.format_program(decode(OMEGA)) == "(run %1 %1)"
    assert U.parse_program_or_code("2208") == OMEGA
    assert U.parse_program_or_code("(run %1 %1)") == OMEGA


def test_program_notation_errors():
    with pytest.raises(InputError):
        U.parse_program("(bogus 1)")
    with pytest.raises(InputError):
        U.parse_program("(succ)")
    with pytest.raises(InputError):
        U.parse_program("%x")
    with pytest.raises(InputError):
        U.parse_program_or_code("-5")
    # a second minus sign used to reach int() and raise ValueError
    with pytest.raises(InputError):
        U.parse_program_or_code("--5")
    assert U.parse_program_or_code("-0") == 0
