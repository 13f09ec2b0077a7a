"""Toy computable universe: numbering, interpreter, and fixed points."""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    cost_model_cases,
    outcomes_agree,
    random_safe_binary,
    random_total_unary,
    random_tree,
)

from diagkit import universe as U
from diagkit.errors import InputError
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


def test_eval_rejects_negative_fuel():
    # the run loop counts down to 0, so a negative budget used to never run out
    for fuel in (-1, -3):
        with pytest.raises(InputError):
            evaluate(10, [1], fuel)
        with pytest.raises(InputError):
            U.evaluate_body(Const(1), [], fuel)
    assert evaluate(10, [1], 0) == Diverged()
    assert U.evaluate_body(Const(1), [], 0) == Diverged()


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
    # g must have done the opposite of what the candidate answered
    if isinstance(witness.candidate_answer, Value):
        wrong = Diverged() if witness.g_run == Value(1) else Value(1)
        assert not U.verify_refutation(dataclasses.replace(witness, g_run=wrong))


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


def _clear_memo():
    U.decode.cache_clear()
    U.smn_meta.cache_clear()


def test_memo_stays_bounded():
    _clear_memo()
    for n in range(3 * U.MEMO_SIZE):
        evaluate(n, [n], 8)
        smn_meta(n, 7)
    for memo in (U.decode, U.smn_meta):
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
    assert U.decode.cache_info().hits > 0


def test_bounded_halting_matrix_cycles_through_more_programs_than_the_memo():
    n, fuel = U.MEMO_SIZE + 16, 6
    bodies = [U.PROGRAMS.denumber(j) for j in range(n)]
    want = tuple(
        tuple(
            1 if isinstance(U.evaluate_body(body, [i], fuel), Value) else 0
            for body in bodies
        )
        for i in range(n)
    )
    _clear_memo()
    assert U.bounded_halting_matrix(n, fuel).rel == want
    # filled column by column, each program's code is decoded once
    assert U.decode.cache_info().misses <= n


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
