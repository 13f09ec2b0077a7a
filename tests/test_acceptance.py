"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance and count is pinned here; nothing is deferred to later
calibration.
"""

import itertools
import pathlib
import random
import time

from helpers import (
    outcomes_agree,
    random_formula_with_free_x,
    random_safe_binary,
    random_total_unary,
    random_tree,
)

from diagkit import formal as F
from diagkit.cli import run_command
from diagkit.core import (
    Carrier,
    EndoMap,
    EvalMatrix,
    Section,
    cantor_witness,
    compose_diagonal,
    compose_with_section,
    representing_columns,
    verify_fixed_point,
    verify_nonrepresentability,
    weak_diagonal_fixed_point,
)
from diagkit.instances import demo_richard, richard_instance
from diagkit.universe import (
    Const,
    OMEGA,
    RefutationWitness,
    Value,
    decode,
    encode,
    evaluate,
    quine,
    recursion_check,
    refute_halting,
    smn_meta,
)

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def check(num: int, name: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    line = f"[{status}] criterion {num:02d}: {name}{suffix}"
    print(line)
    assert ok, line


def fixed_point_free_maps(size):
    return [
        m
        for m in itertools.product(range(size), repeat=size)
        if all(m[y] != y for y in range(size))
    ]


def random_matrix(rng, t, s, y_carrier):
    cell = tuple(
        tuple(rng.randrange(y_carrier.size) for _ in range(s)) for _ in range(t)
    )
    return EvalMatrix(rows=Carrier(t), cols=Carrier(s), y=y_carrier, cell=cell)


def test_criterion_01_cantor_suite():
    rng = random.Random(0xC0FFEE)
    start = time.perf_counter()
    failures = 0
    for t in range(1, 6):
        for y in (2, 3):
            y_carrier = Carrier(y)
            alphas = [EndoMap(y_carrier, m) for m in fixed_point_free_maps(y)]
            for _ in range(200):
                f = random_matrix(rng, t, t, y_carrier)
                for alpha in alphas:
                    g = compose_diagonal(f, alpha)
                    if representing_columns(g, f):
                        failures += 1
    elapsed = time.perf_counter() - start
    check(
        1,
        "Cantor suite, |T| in 1..5, |Y| in {2,3}, 200 matrices per shape",
        failures == 0 and elapsed < 5.0,
        f"failures={failures}, {elapsed:.2f}s < 5s",
    )


def test_criterion_02_exhaustive_oracle():
    bits = Carrier(2)
    swap = EndoMap(bits, (1, 0))
    ok = True
    for flat in itertools.product((0, 1), repeat=4):
        f = EvalMatrix(
            rows=bits, cols=bits, y=bits, cell=((flat[0], flat[1]), (flat[2], flat[3]))
        )
        g = compose_diagonal(f, swap)
        # brute-force oracle over all four maps T -> Y
        non_columns = [
            m
            for m in itertools.product((0, 1), repeat=2)
            if all(m != f.column(s) for s in range(2))
        ]
        ok = ok and g.values in non_columns and not representing_columns(g, f)
    check(2, "exhaustive 2x2 oracle over all 16 matrices", ok)


def test_criterion_03_generalized_suite():
    rng = random.Random(0xBEADED)
    failures = 0
    for t in range(1, 6):
        for y in (2, 3):
            y_carrier = Carrier(y)
            alphas = [EndoMap(y_carrier, m) for m in fixed_point_free_maps(y)]
            for _ in range(200):
                s = rng.randint(1, t)
                reps = rng.sample(range(t), s)
                beta = [rng.randrange(s) for _ in range(t)]
                for col, row in enumerate(reps):
                    beta[row] = col
                sec = Section(beta=tuple(beta), beta_bar=tuple(reps))
                f = random_matrix(rng, t, s, y_carrier)
                for alpha in alphas:
                    g = compose_with_section(f, alpha, sec)
                    if representing_columns(g, f):
                        failures += 1
                        continue
                    report = cantor_witness(f, alpha, sec)
                    if report.witness_rows != sec.beta_bar:
                        failures += 1
                    if not verify_nonrepresentability(f, report):
                        failures += 1
    check(3, "generalized suite with random sections", failures == 0, f"failures={failures}")


def test_criterion_04_diagonal_theorem():
    rng = random.Random(0xF00D)
    produced = 0
    failures = 0
    while produced < 500:
        t = rng.randint(1, 4)
        y = rng.randint(2, 4)
        y_carrier = Carrier(y)
        f = random_matrix(rng, t, t, y_carrier)
        target = rng.randrange(t)
        # back out an alpha making g land exactly on the target column
        mapping = [None] * y
        ok = True
        for r in range(t):
            d, want = f.cell[r][r], f.cell[r][target]
            if mapping[d] is None:
                mapping[d] = want
            elif mapping[d] != want:
                ok = False
                break
        if not ok:
            continue
        alpha = EndoMap(
            y_carrier, tuple(m if m is not None else rng.randrange(y) for m in mapping)
        )
        produced += 1
        witness = weak_diagonal_fixed_point(f, alpha)
        if witness is None:
            failures += 1
            continue
        if alpha.mapping[witness.value] != witness.value:
            failures += 1
        if f.cell[witness.column][witness.column] != witness.value:
            failures += 1
        if not verify_fixed_point(f, alpha, witness):
            failures += 1
    check(4, "diagonal theorem on 500 representable instances", failures == 0, f"failures={failures}")


def test_criterion_05_encoding_bijection():
    ok = True
    for n in range(10**6 + 1):
        if encode(decode(n)) != n:
            ok = False
            break
    rng = random.Random(0x5EED)
    for _ in range(1000):
        tree = random_tree(rng, rng.randint(0, 8))
        if decode(encode(tree)) != tree:
            ok = False
            break
    check(5, "encoding bijection, n <= 10^6 and 1000 random trees", ok)


def test_criterion_06_smn():
    rng = random.Random(0xAB)
    start = time.perf_counter()
    failures = 0
    for _ in range(300):
        code = encode(random_safe_binary(rng, 4))
        for y in range(10):
            specialized = smn_meta(code, y)
            for x in range(10):
                direct = evaluate(code, [y, x], 10**5)
                indirect = evaluate(specialized, [x], 10**5)
                if not isinstance(direct, Value) or direct != indirect:
                    failures += 1
    elapsed = time.perf_counter() - start
    check(
        6,
        "s-m-n agreement on 300 random binary bodies, y,x in 0..9",
        failures == 0 and elapsed < 10.0,
        f"failures={failures}, {elapsed:.2f}s < 10s",
    )


def test_criterion_07_recursion_theorem():
    rng = random.Random(0x7EC)
    failures = 0
    for _ in range(25):
        h = encode(random_total_unary(rng, 3))
        # each sample is retried at 10**6 unless the two sides are equal at 10**5
        _, transformed, samples = recursion_check(h, 10**6, (10**5, 10**6), range(6))
        if not isinstance(transformed, Value):
            failures += 1
            continue
        failures += sum(not outcomes_agree(left, right) for _, left, right, _ in samples)
    check(7, "recursion theorem on 25 generated total transformers", failures == 0, f"failures={failures}")


def test_criterion_08_quine():
    start = time.perf_counter()
    q = quine()
    ok = all(evaluate(q, [x], 10**6) == Value(q) for x in (0, 1, 2))
    elapsed = time.perf_counter() - start
    check(8, "quine reproduces itself exactly", ok and elapsed < 1.0, f"{elapsed:.3f}s < 1s")


def test_criterion_09_halting_refutation():
    cases = [
        (encode(Const(1)), RefutationWitness.SAID_HALT_BUT_DIVERGED),
        (encode(Const(0)), RefutationWitness.SAID_DIVERGE_BUT_HALTED),
        (OMEGA, RefutationWitness.CANDIDATE_NOT_TOTAL),
    ]
    ok = True
    for candidate, expected in cases:
        witness = refute_halting(candidate, 4096)
        ok = ok and witness.verdict == expected
    check(9, "halting refutation verdicts for the three canned candidates", ok)


def test_criterion_10_diagonalization_lemma():
    rng = random.Random(0x1E44A)
    failures = 0
    certs = [
        F.goedel_sentence(),
        F.rosser_sentence(),
        F.tarski_sentence(),
        F.parikh_sentence(100),
        F.curry_sentence(F.Pred(F.SYMBOLS["Prov"][0], (F.Num(0), F.Num(0)))),
    ]
    for _ in range(100):
        certs.append(F.diagonal_sentence(random_formula_with_free_x(rng), F.X))
    for cert in certs:
        target = F.substitute(cert.e, cert.variable, F.Num(cert.c_number))
        if F.reduce_diag(cert.c) != target or not cert.verified:
            failures += 1
    check(
        10,
        "diagonalization lemma identity, 100 random E plus the five builders",
        failures == 0,
        f"failures={failures}",
    )


def test_criterion_11_richard_bundled_value():
    m, _ = demo_richard()
    digits, report = richard_instance(m)
    ok = m.labels[15] == "pi/10" and m.digits[4][15] == 1
    for i in range(len(m.labels)):
        ok = ok and digits[i] == 9 - m.digits[i][i]
    check(11, "bundled digit table: f(4,15)=1 and digits[i]=9-f(i,i)", ok)


def test_criterion_12_cli_golden_files(capsys):
    from test_cli import GOLDEN_COMMANDS

    ok = True
    detail = []
    for name, argv in GOLDEN_COMMANDS:
        code = run_command(argv)
        out = capsys.readouterr().out
        golden = (GOLDEN_DIR / f"{name}.json").read_bytes()
        good = code == 0 and out.encode() == golden
        ok = ok and good
        if not good:
            detail.append(name)
    check(12, "CLI reports byte-match the checked-in golden files", ok, ",".join(detail) or "16 commands")
