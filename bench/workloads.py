"""The four benchmark workloads and the golden phase every workload ends with.

Each workload turns a seeded `random.Random` into rounds of items. An item is
one certified construction: a callable, given the tracer, that calls the
library, re-checks the certificate and compares the output with a reference
the benchmark computes on its own. A failed comparison raises `CheckFailed`.
Building a round (input generation) is not timed; calling its items is.

Every round of a workload has the same composition, so two seeds give the
same mix of cheap and costly items and differ only in the concrete inputs.
Inputs are generated as s-expression text or plain tuples; the library sees
them only through its public functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random

from diagkit import cli, core, instances, sexpr
from diagkit import formal as F
from diagkit import universe as U


class CheckFailed(Exception):
    """An output differed from its reference or a certificate did not verify."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------- references
# Cantor pairing and the Run/Smn-free fragment of the program notation,
# written out here so that reference values do not come from the library.

def _pair(a: int, b: int) -> int:
    s = a + b
    return s * (s + 1) // 2 + b


def _unpair(p: int) -> tuple[int, int]:
    w = (math.isqrt(8 * p + 1) - 1) // 2
    b = p - w * (w + 1) // 2
    return w - b, b


def _closed_value(t: tuple) -> int:
    op = t[0]
    if op == "const":
        return t[1]
    if op == "succ":
        return _closed_value(t[1]) + 1
    if op == "pred":
        return max(_closed_value(t[1]) - 1, 0)
    if op == "fst":
        return _unpair(_closed_value(t[1]))[0]
    if op == "snd":
        return _unpair(_closed_value(t[1]))[1]
    if op == "pair":
        return _pair(_closed_value(t[1]), _closed_value(t[2]))
    if op == "ifz":
        return _closed_value(t[2] if _closed_value(t[1]) == 0 else t[3])
    raise ValueError(f"not a closed Run/Smn-free body: {t!r}")


def _text(t: tuple) -> str:
    """Prefix notation shared by programs and formulas."""
    if t[0] == "const":
        return str(t[1])
    if t[0] == "var":
        return f"%{t[1]}"
    if t[0] == "atom":
        return t[1]
    return "(" + " ".join([t[0]] + [_text(c) for c in t[1:]]) + ")"


def _nodes(text: str) -> int:
    return text.count("(") + len(text.replace("(", " ").replace(")", " ").split())


def _kind(outcome) -> str:
    if isinstance(outcome, U.Value):
        return "value"
    if isinstance(outcome, U.Diverged):
        return "diverged"
    return "stuck"


# ------------------------------------------------------- traced library calls

def evaluate(tr, p: int, args: list[int], fuel: int, omega: bool = False):
    with tr.span("universe.evaluate", fuel=fuel, omega=omega) as attrs:
        out = U.evaluate(p, args, fuel)
    attrs["outcome"] = _kind(out)
    return out


def parse_program(tr, text: str) -> int:
    """Text to program index, as the CLI reads --h, --candidate and --decider."""
    with tr.span("sexpr.parse", nodes=_nodes(text)):
        body = U.parse_program(text)
    with tr.span("universe.codec") as attrs:
        code = U.encode(body)
    attrs["digits"] = len(str(code))
    return code


def recursion_check(tr, h: int, fuel: int, retry_fuel: int, inputs) -> tuple[int, object, list]:
    """The fixed point of h and its sample check, as `diagkit universe recursion`."""
    with tr.span("universe.fixed_point") as attrs:
        n0 = U.recursion_fixed_point(h)
    attrs["digits"] = len(str(n0))
    transformed = evaluate(tr, h, [n0], fuel)
    samples = []
    if isinstance(transformed, U.Value):
        for x in inputs:
            tr.count("recursion.samples")
            left = evaluate(tr, n0, [x], fuel)
            right = evaluate(tr, transformed.n, [x], fuel)
            if left != right:
                tr.count("recursion.retries")
                left = evaluate(tr, n0, [x], retry_fuel)
                right = evaluate(tr, transformed.n, [x], retry_fuel)
            agree = left == right if _kind(left) == "value" or _kind(right) == "value" else True
            samples.append((left, right, agree))
    with tr.span("universe.codec", digits=2 * len(str(n0))):
        body = U.decode(n0)
        round_trip = U.encode(body)
        U.format_program(body)
    expect(round_trip == n0, "program code round trip")
    return n0, transformed, samples


def sentence_check(tr, build) -> tuple[F.LemmaCertificate, list[str]]:
    """Build a certificate, re-check it and format it, as `diagkit formal`.

    Returns the certificate and its formatted e, g, c, reduced and target.
    """
    with tr.span("formal.sentence") as attrs:
        cert = build()
    with tr.span("formal.reduce"):
        reduced = F.reduce_diag(cert.c)
        target = F.substitute(cert.e, cert.variable, F.Num(cert.c_number))
    expect(reduced == cert.target == target and cert.verified, "sentence certificate")
    with tr.span("formal.format"):
        texts = [F.format_formula(p) for p in (cert.e, cert.g, cert.c, cert.reduced, cert.target)]
        # the CLI reports the digit counts of both numbers
        digits = len(str(cert.c_number))
        len(str(cert.g_number))
    attrs["digits"] = digits
    with tr.span("formal.goedel"):
        back = F.formula_of(cert.g_number)
        number = F.goedel_number(back)
    expect(back == cert.g and number == cert.g_number, "Goedel number round trip")
    return cert, texts


def run_cli(tr, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with tr.span("cli.run_command"), contextlib.redirect_stdout(buf):
        code = cli.run_command(argv)
    return code, buf.getvalue()


# ------------------------------------------------------------------- tables

CARRIERS = (2, 3, 10)
# three 100×100 matrices, one per carrier, so the median item of a round is
# one of them rather than whichever kind sits next to the middle rank
TABLE_SIZES = (1000, 300, 100, 100, 100, 30, 10)
FILE_SIZE = 100
BUNDLED = {
    # name: (loader, instance, conversion to EvalMatrix)
    "powerset": (instances.demo_subset_family, instances.powerset_instance, instances.membership_matrix),
    "russell": (instances.demo_russell, instances.relation_instance, instances.describes_matrix),
    "grelling": (instances.demo_grelling, instances.relation_instance, instances.describes_matrix),
    "strong_liar": (instances.demo_strong_liar, instances.strong_liar_instance, instances.tri_valued_matrix),
    "richard": (instances.demo_richard, instances.richard_instance, instances.digit_matrix),
}


def _random_cells(rng: random.Random, n: int, k: int) -> bytearray:
    """n*n values in range(k), row-major."""
    scale = bytes(b * k >> 8 for b in range(256))
    return bytearray(rng.randbytes(n * n).translate(scale))


def _rows(cells: bytearray, n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(cells[i * n:(i + 1) * n]) for i in range(n))


def _derangement(rng: random.Random, k: int) -> tuple[int, ...]:
    return tuple((y + rng.randrange(1, k)) % k for y in range(k))


def _permutation(rng: random.Random, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    beta = list(range(n))
    rng.shuffle(beta)
    beta_bar = [0] * n
    for t, s in enumerate(beta):
        beta_bar[s] = t
    return tuple(beta), tuple(beta_bar)


def _matrix_file(rng: random.Random, path: str, n: int, k: int):
    """Write a seeded n×n matrix with a twist and a section in the CLI's format.

    Returns the rows, the twist, beta and the bytes written.
    """
    rows = _rows(_random_cells(rng, n, k), n)
    alpha = _derangement(rng, k)
    beta, beta_bar = _permutation(rng, n)
    labels = [f"t{i}" for i in range(n)]
    doc = {
        "y_labels": [f"v{y}" for y in range(k)],
        "t_labels": labels,
        "s_labels": labels,
        "alpha": list(alpha),
        "f": rows,
        "beta": list(beta),
        "beta_bar": list(beta_bar),
    }
    raw = json.dumps(doc).encode()
    with open(path, "wb") as fh:
        fh.write(raw)
    return rows, alpha, beta, raw


class Tables:
    """Seeded random matrices certified by the core engine; no interpreter."""

    sizes = {
        "matrices_per_round": list(TABLE_SIZES),
        "carriers": list(CARRIERS),
        "json_file_size": FILE_SIZE,
        "bundled_tables": list(BUNDLED),
    }

    def __init__(self, rng: random.Random, tmpdir: str, golden: dict) -> None:
        self.rng = rng
        self.path = os.path.join(tmpdir, "matrix.json")
        self.golden_g = {
            name: golden[f"demo_{name}"]["certificate"]["g"] for name in BUNDLED
        }

    def round(self, r: int) -> list:
        items = []
        for i, n in enumerate(TABLE_SIZES):
            items.append((f"matrix{n}", self._matrix_item(n, CARRIERS[(r + i) % 3])))
        name = list(BUNDLED)[r % len(BUNDLED)]
        items.append(("bundled", self._bundled_item(name)))
        items.append(("json_file", self._file_item(CARRIERS[r % 3])))
        return items

    def _matrix_item(self, n: int, k: int):
        rng = self.rng
        flat = _random_cells(rng, n, k)
        alpha = _derangement(rng, k)
        beta, beta_bar = _permutation(rng, n)
        # a twist with a fixed point y0, and a column planted to represent it
        twist = [rng.randrange(k) for _ in range(k)]
        y0 = rng.randrange(k)
        twist[y0] = y0
        twist = tuple(twist)
        s_star = rng.randrange(n)
        for t in range(n):
            flat[t * n + s_star] = twist[flat[t * n + t]]
        flat[s_star * n + s_star] = y0
        cells = _rows(flat, n)
        g_diag = tuple(alpha[cells[t][t]] for t in range(n))
        g_off = tuple(alpha[cells[t][beta[t]]] for t in range(n))
        g_twist = tuple(twist[cells[t][t]] for t in range(n))

        def item(tr) -> None:
            with tr.span("core.build", cells=n * n):
                f = core.EvalMatrix(core.Carrier(n), core.Carrier(n), core.Carrier(k), cells)
                a = core.EndoMap(f.y, alpha)
                b = core.EndoMap(f.y, twist)
                sec = core.Section(beta, beta_bar)
            with tr.span("core.witness"):
                diag = core.cantor_witness(f, a)
                off = core.cantor_witness(f, a, sec)
            with tr.span("core.search"):
                columns = core.representing_columns(diag.g, f)
                fixed = core.weak_diagonal_fixed_point(f, b)
            with tr.span("core.verify"):
                ok = (
                    core.verify_nonrepresentability(f, diag)
                    and core.verify_nonrepresentability(f, off)
                    and fixed is not None
                    and core.verify_fixed_point(f, b, fixed)
                )
            with tr.span("check"):
                expect(ok, "matrix certificates re-verify")
                expect(not columns, "twisted diagonal is no column")
                expect(diag.g.values == g_diag and off.g.values == g_off, "twisted maps")
                expect(diag.witness_rows == tuple(range(n)), "diagonal witness rows")
                expect(off.witness_rows == beta_bar, "section witness rows")
                expect(fixed.column <= s_star, "planted column found")
                expect(all(cells[t][fixed.column] == g_twist[t] for t in range(n)), "fixed-point column")

        return item

    def _bundled_item(self, name: str):
        load, instance, convert = BUNDLED[name]
        want = self.golden_g[name]

        def item(tr) -> None:
            with tr.span("instances.demo"):
                table, _ = load()
                _, report = instance(table)
            with tr.span("instances.convert"):
                f = convert(table)
            with tr.span("core.verify"):
                ok = core.verify_nonrepresentability(f, report)
            expect(ok, f"{name} certificate re-verifies")
            expect(list(report.g.values) == want, f"{name} matches its golden report")

        return item

    def _file_item(self, k: int):
        n, path = FILE_SIZE, self.path
        rows, alpha, beta, raw = _matrix_file(self.rng, path, n, k)
        sha = hashlib.sha256(raw).hexdigest()
        g_off = tuple(alpha[rows[t][beta[t]]] for t in range(n))

        def item(tr) -> None:
            with tr.span("cli.load_matrix"):
                f, a, sec, inputs = cli.load_matrix_file(path, True)
            with tr.span("core.witness"):
                report = core.cantor_witness(f, a, sec)
            with tr.span("core.verify"):
                ok = core.verify_nonrepresentability(f, report)
            expect(ok, "file matrix certificate re-verifies")
            expect(inputs["sha256"] == sha, "file digest")
            expect(report.g.values == g_off, "file matrix twisted map")

        return item


# ------------------------------------------------------------------ selfref

# The CLI checks a fixed point at fuel 10**5 and retries at 10**6. A diverging
# sample then costs about a second and a whole item 6-30 s, so one run could
# hold only one or two of them; the workload keeps the CLI's procedure (six
# samples, retry at ten times the fuel) at a hundredth of the fuel.
RECURSION_FUEL = 10**3
RECURSION_RETRY_FUEL = 10**4
RECURSION_INPUTS = tuple(range(6))
REFUTE_FUEL = 4096
RICE_FUEL = 10**4
OMEGA_FUEL = 10**6
QUINE_FUEL = 10**6
# twelve constant-valued transformers a round, so the median item falls
# inside their cluster rather than at its edge
FAST_PER_ROUND = 12
CANNED_CANDIDATES = (
    (11, U.RefutationWitness.SAID_HALT_BUT_DIVERGED),  # Const 1
    (1, U.RefutationWitness.SAID_DIVERGE_BUT_HALTED),  # Const 0
    (U.OMEGA, U.RefutationWitness.CANDIDATE_NOT_TOTAL),
)


def _closed_body(rng: random.Random, depth: int) -> tuple:
    """A Run/Smn-free body with no argument reference: a constant program."""
    if depth == 0 or rng.random() < 0.3:
        return ("const", rng.randrange(10))
    roll = rng.random()
    if roll < 0.45:
        return (rng.choice(("succ", "pred", "fst", "snd")), _closed_body(rng, depth - 1))
    if roll < 0.8:
        return ("pair", _closed_body(rng, depth - 1), _closed_body(rng, depth - 1))
    return ("ifz",) + tuple(_closed_body(rng, depth - 1) for _ in range(3))


def _identity_body(rng: random.Random, wrappers: int, kinds: int) -> tuple:
    """A total body whose value is its argument, under wrappers.

    Its fixed point n0 runs itself forever, so every sample diverges on both
    sides and each Run re-enters a code of a few hundred digits. The i-th
    wrapper is of kind `kinds // 4**i % 4`; its constant is seeded.
    """
    body: tuple = ("var", 1)
    for i in range(wrappers):
        c = ("const", rng.randrange(10))
        wrap = kinds // 4**i % 4
        if wrap == 0:
            body = ("fst", ("pair", body, c))
        elif wrap == 1:
            body = ("snd", ("pair", c, body))
        elif wrap == 2:
            body = ("pred", ("succ", body))
        else:
            body = ("ifz", ("succ", c), c, body)
    return body


class SelfRef:
    """Recursion fixed points, the quine, halting refutations, Rice, OMEGA.

    A natural draw of depth-3 total transformers mixes items of about 1 ms
    with about one in five whose samples all diverge, at a random count per
    run. Each round here holds exactly one diverging transformer (identity-
    valued) and twelve constant-valued ones, so every seed has the same mix.
    """

    sizes = {
        "fast_transformers_per_round": FAST_PER_ROUND,
        "diverging_transformers_per_round": 1,
        "recursion_fuel": RECURSION_FUEL,
        "recursion_retry_fuel": RECURSION_RETRY_FUEL,
        "refute_fuel": REFUTE_FUEL,
        "rice_fuel": RICE_FUEL,
        "omega_fuel_once": OMEGA_FUEL,
    }

    def __init__(self, rng: random.Random, tmpdir: str, golden: dict) -> None:
        self.rng = rng

    def round(self, r: int) -> list:
        rng = self.rng
        items = []
        if r == 0:
            items += [("omega", self._omega), ("quine", self._quine)]
        # 0-2 wrappers in turn, and every sequence of wrapper kinds in turn,
        # so each run holds the same share of the costliest bodies
        body = _identity_body(rng, r % 3, r // 3)
        items.append(("diverging_fixed_point", self._fixed_point_item(body, None)))
        for _ in range(FAST_PER_ROUND):
            body = _closed_body(rng, 3)
            items.append(("fixed_point", self._fixed_point_item(body, _closed_value(body))))
        body = _closed_body(rng, 3)
        want = (
            U.RefutationWitness.SAID_DIVERGE_BUT_HALTED
            if _closed_value(body) == 0
            else U.RefutationWitness.SAID_HALT_BUT_DIVERGED
        )
        items.append(("refute", self._refute_item(_text(body), want)))
        candidate, verdict = CANNED_CANDIDATES[r % 3]
        items.append(("refute_canned", self._refute_item(candidate, verdict)))
        items.append(("rice", self._rice_item()))
        return items

    def _fixed_point_item(self, body: tuple, value):
        text = _text(body)

        def item(tr) -> None:
            h = parse_program(tr, text)
            n0, transformed, samples = recursion_check(
                tr, h, RECURSION_FUEL, RECURSION_RETRY_FUEL, RECURSION_INPUTS
            )
            expect(transformed == U.Value(n0 if value is None else value), "transformed index")
            expect(len(samples) == len(RECURSION_INPUTS), "all samples taken")
            expect(all(agree for _, _, agree in samples), "recursion samples agree")
            if value is None:
                expect(
                    all(_kind(a) == _kind(b) == "diverged" for a, b, _ in samples),
                    "identity fixed point diverges",
                )

        return item

    def _omega(self, tr) -> None:
        expect(evaluate(tr, U.OMEGA, [U.OMEGA], OMEGA_FUEL, omega=True) == U.Diverged(), "OMEGA diverges")

    def _quine(self, tr) -> None:
        with tr.span("universe.fixed_point", digits=0) as attrs:
            q = U.quine()
        attrs["digits"] = len(str(q))
        for x in (0, 1, 2):
            expect(evaluate(tr, q, [x], QUINE_FUEL) == U.Value(q), "quine reproduces itself")
        with tr.span("universe.codec", digits=len(str(q))):
            U.format_program(U.decode(q))

    def _refute_item(self, candidate, verdict: str):
        """`candidate` is a program index or the text of a body."""

        def item(tr) -> None:
            code = candidate if isinstance(candidate, int) else parse_program(tr, candidate)
            with tr.span("universe.refute"):
                witness = U.refute_halting(code, REFUTE_FUEL)
                ok = U.verify_refutation(witness)
            expect(ok, "refutation verifies")
            expect(witness.verdict == verdict, f"refutation verdict {witness.verdict}")

        return item

    def _rice_item(self):
        rng = self.rng
        decider = _closed_body(rng, 2)
        says_member = _closed_value(decider) != 0
        a, b = rng.randrange(10**4), rng.randrange(10**4)
        text = _text(decider)

        def item(tr) -> None:
            d = parse_program(tr, text)
            with tr.span("universe.rice"):
                report = U.rice_contradiction(d, a, b, RICE_FUEL)
                ok = U.verify_rice(report)
            expect(ok, "Rice report verifies")
            expect(report.switched_to == U.Value(b if says_member else a), "Rice switch")

        return item


# ------------------------------------------------------------ halting_sweep

# 96 programs make the matrix the costliest item of a round, so the tail is
# its cost and not whichever seeded program table ran longest
HALT_MATRIX_N = 96
HALT_MATRIX_FUEL = (32, 64)
HALT_SPOT_CHECKS = 8
PROGRAM_TABLES_PER_ROUND = 5
PROGRAM_TABLE_SIZE = 16
PROGRAM_TABLE_FUEL = 48
SEEN_BITS = 1 << 23  # a run draws about 25 000 bodies


def _small_body(rng: random.Random, depth: int) -> tuple:
    """A small unary body; `run` on its argument makes it self-applying.

    No `pair` or `smn`: both grow numbers, and a self-applying loop that
    grows its argument doubles its digits each turn, so a run of 48 steps
    could take seconds. `succ`, `pred`, `fst` and `snd` never double them.
    """
    if depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.6:
            return ("var", 1)
        if roll < 0.7:
            return ("var", 2)
        return ("const", rng.randrange(10))
    roll = rng.random()
    if roll < 0.35:
        return (rng.choice(("succ", "pred", "fst", "snd")), _small_body(rng, depth - 1))
    if roll < 0.75:
        return ("run", _small_body(rng, depth - 1), _small_body(rng, depth - 1))
    return ("ifz",) + tuple(_small_body(rng, depth - 1) for _ in range(3))


class HaltingSweep:
    """Many short runs of small distinct programs, certified as halting tables."""

    sizes = {
        "halting_matrix_n": HALT_MATRIX_N,
        "halting_matrix_fuel": list(HALT_MATRIX_FUEL),
        "program_tables_per_round": PROGRAM_TABLES_PER_ROUND,
        "program_table_size": PROGRAM_TABLE_SIZE,
        "program_table_fuel": PROGRAM_TABLE_FUEL,
    }

    def __init__(self, rng: random.Random, tmpdir: str, golden: dict) -> None:
        self.rng = rng
        # one bit per hashed body text drawn so far, allocated and written
        # here once, so that the peak memory does not grow with the number of
        # rounds, which follows the host's speed
        self.seen = bytearray(b"\x00" * (SEEN_BITS // 8))

    def round(self, r: int) -> list:
        items = [("halting_matrix", self._matrix_item())]
        for _ in range(PROGRAM_TABLES_PER_ROUND):
            items.append(("program_table", self._table_item()))
        return items

    def _matrix_item(self):
        rng, n = self.rng, HALT_MATRIX_N
        fuel = rng.randint(*HALT_MATRIX_FUEL)
        spots = [(rng.randrange(n), rng.randrange(n)) for _ in range(HALT_SPOT_CHECKS)]

        def item(tr) -> None:
            with tr.span("universe.halting_matrix"):
                m = U.bounded_halting_matrix(n, fuel)
            certify(tr, m)
            for i, j in spots:
                halts = _kind(evaluate(tr, j, [i], fuel)) == "value"
                expect(m.rel[i][j] == (1 if halts else 0), f"halting cell ({i},{j})")

        return item

    def _table_item(self):
        texts: list[str] = []
        while len(texts) < PROGRAM_TABLE_SIZE:
            text = _text(_small_body(self.rng, 4))
            digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
            byte, bit = divmod(int.from_bytes(digest, "big") % SEEN_BITS, 8)
            if not self.seen[byte] >> bit & 1:  # a false hit only skips a body
                self.seen[byte] |= 1 << bit
                texts.append(text)

        def item(tr) -> None:
            codes = [parse_program(tr, t) for t in texts]
            rel = tuple(
                tuple(
                    1 if _kind(evaluate(tr, p, [x], PROGRAM_TABLE_FUEL)) == "value" else 0
                    for p in codes
                )
                for x in codes
            )
            with tr.span("instances.convert"):
                m = instances.DescribesMatrix(tuple(str(i) for i in range(len(codes))), rel)
            certify(tr, m)

        return item


def certify(tr, m: instances.DescribesMatrix) -> None:
    """Certify a halting table through the relation instance, then re-check it."""
    with tr.span("core.witness"):
        het, report = instances.relation_instance(m)
    with tr.span("instances.convert"):
        f = instances.describes_matrix(m)
    with tr.span("core.verify"):
        ok = core.verify_nonrepresentability(f, report)
    expect(ok, "halting table certificate re-verifies")
    expect(het == tuple(1 - m.rel[i][i] for i in range(len(m.rel))), "diagonal language")


# ---------------------------------------------------------------- sentences

RANDOM_SENTENCES_PER_ROUND = 8
# `and` depth 0..10: each level doubles the digits of the sentence's number
# (depth 10 is about 25 000 digits and 60 ms; depth 16 is the known blow-up)
CURRY_DEPTHS = 11
FORMULA_DEPTH = (1, 4)
# A random E(x) nests at most this many brackets deep. Each level doubles the
# digits of the sentence's number: at 5 and 6 levels one item in a hundred
# took 50-230 ms, a seeded number of them a run. The Curry sweep covers size.
FORMULA_NESTING = 4
PARIKH_BOUND = (1, 10**6)
SCOPE_VARS = ("y", "z", "w", "u", "v", "m", "n")
SYMBOL_ARITY = {"Prov": 2, "Prflen": 2, "T": 1, "P": 1, "Q": 1, "R": 2}


def _formula(rng: random.Random, depth: int, scope: list[str]) -> tuple:
    """A formula over `scope`; diag and neg are applied to variables only."""

    def term() -> tuple:
        roll = rng.random()
        if roll < 0.1:
            return (rng.choice(("diag", "neg")), ("atom", rng.choice(scope)))
        if roll < 0.55:
            return ("atom", rng.choice(scope))
        return ("atom", str(rng.randrange(10)))

    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.3:
            return ("<", term(), term())
        name = rng.choice(list(SYMBOL_ARITY))
        return (name,) + tuple(term() for _ in range(SYMBOL_ARITY[name]))
    roll = rng.random()
    if roll < 0.2:
        return ("not", _formula(rng, depth - 1, scope))
    if roll < 0.55:
        op = rng.choice(("and", "or", "imp", "iff"))
        return (op, _formula(rng, depth - 1, scope), _formula(rng, depth - 1, scope))
    if roll < 0.85:
        var = rng.choice(SCOPE_VARS)
        return (rng.choice(("forall", "exists")), ("atom", var), _formula(rng, depth - 1, scope + [var]))
    return ("unq", term())


def _free(t: tuple, bound: frozenset = frozenset()) -> set[str]:
    if t[0] == "atom":
        return set() if t[1].isdigit() or t[1] in bound else {t[1]}
    if t[0] in ("forall", "exists"):
        return _free(t[2], bound | {t[1][1]})
    out: set[str] = set()
    for c in t[1:]:
        out |= _free(c, bound)
    return out


def _nesting(text: str) -> int:
    """How many brackets deep the text nests."""
    depth = deepest = 0
    for ch in text:
        if ch == "(":
            depth += 1
            deepest = max(deepest, depth)
        elif ch == ")":
            depth -= 1
    return deepest


def _closed_atom(rng: random.Random) -> tuple:
    """A unary atom on a digit, so each depth of a chain costs the same."""
    return (rng.choice(("T", "P", "Q")), ("atom", str(rng.randrange(10))))


class Sentences:
    """Diagonal sentences: random E(x), the five builders, a Curry depth sweep."""

    sizes = {
        "random_sentences_per_round": RANDOM_SENTENCES_PER_ROUND,
        "formula_depth": list(FORMULA_DEPTH),
        "formula_nesting_max": FORMULA_NESTING,
        "curry_and_depths": [0, CURRY_DEPTHS - 1],
        "parikh_bound": list(PARIKH_BOUND),
    }

    def __init__(self, rng: random.Random, tmpdir: str, golden: dict) -> None:
        self.rng = rng
        self.golden = {
            name: golden[f"formal_{name}"]["certificate"] for name in ("goedel", "rosser", "tarski")
        }

    def round(self, r: int) -> list:
        items = [("sentence", self._random_item()) for _ in range(RANDOM_SENTENCES_PER_ROUND)]
        items.append(("builder", self._builder_item(r % 5)))
        items.append(("curry_depth", self._curry_item(r % CURRY_DEPTHS)))
        return items

    def _random_item(self):
        rng = self.rng
        while True:
            tree = _formula(rng, rng.randint(*FORMULA_DEPTH), ["x"])
            text = _text(tree)
            if _free(tree) == {"x"} and _nesting(text) <= FORMULA_NESTING:
                break

        def item(tr) -> None:
            with tr.span("sexpr.parse", nodes=_nodes(text)):
                e = F.parse_formula(text)
            _, texts = sentence_check(tr, lambda: F.diagonal_sentence(e, F.X))
            expect(texts[0] == text, "formula text round trip")

        return item

    def _builder_item(self, which: int):
        rng = self.rng
        if which < 3:
            name = ("goedel", "rosser", "tarski")[which]
            build = getattr(F, f"{name}_sentence")
            want = self.golden[name]

            def item(tr) -> None:
                _, texts = sentence_check(tr, build)
                expect(texts == [want[k] for k in ("e", "g", "c", "reduced", "target")], f"{name} matches golden")

            return item
        if which == 3:
            n = rng.randint(*PARIKH_BOUND)
            want_e = f"(not (exists m (and (< m {n}) (Prflen m x))))"

            def item(tr) -> None:
                _, texts = sentence_check(tr, lambda: F.parikh_sentence(n))
                expect(texts[0] == want_e, "parikh sentence")

            return item
        return self._curry_item(rng.randrange(3))

    def _curry_item(self, depth: int):
        rng = self.rng
        tree = _closed_atom(rng)
        for _ in range(depth):
            tree = ("and", tree, _closed_atom(rng))
        a_text = _text(tree)

        def item(tr) -> None:
            with tr.span("sexpr.parse", nodes=_nodes(a_text)):
                a = F.parse_formula(a_text)
            cert, texts = sentence_check(tr, lambda: F.curry_sentence(a))
            with tr.span("formal.format"):
                unquoted = F.format_formula(F.unquote_once(cert.reduced))
            expect(texts[0] == f"(imp (unq x) {a_text})", "curry sentence")
            expect(unquoted == f"(imp {texts[2]} {a_text})", "curry unquotes to C -> A")

        return item


WORKLOADS = {
    "tables": Tables,
    "selfref": SelfRef,
    "halting_sweep": HaltingSweep,
    "sentences": Sentences,
}


# ------------------------------------------------------------- golden phase

GOLDEN_COMMANDS = {
    "demo_powerset": ["demo", "powerset"],
    "demo_russell": ["demo", "russell"],
    "demo_grelling": ["demo", "grelling"],
    "demo_strong_liar": ["demo", "strong-liar"],
    "demo_richard": ["demo", "richard"],
    "demo_nonre": ["demo", "nonre"],
    "universe_quine": ["universe", "quine"],
    "universe_recursion": ["universe", "recursion", "--h", "711"],
    "universe_refute_halt": ["universe", "refute-halt", "--candidate", "11"],
    "universe_rice": ["universe", "rice", "--decider", "11", "--a", "1", "--b", "2208"],
    "universe_halt_matrix": ["universe", "halt-matrix", "--n", "8", "--fuel", "32"],
    "formal_goedel": ["formal", "goedel"],
    "formal_rosser": ["formal", "rosser"],
    "formal_tarski": ["formal", "tarski"],
    "formal_parikh": ["formal", "parikh", "--n", "100"],
    "formal_curry": ["formal", "curry", "--a", "(Prov 0 0)"],
}


def load_golden(golden_dir: str) -> tuple[dict, dict]:
    """Golden report bytes and their parsed JSON, read once and never written."""
    raw, parsed = {}, {}
    for name in GOLDEN_COMMANDS:
        with open(os.path.join(golden_dir, f"{name}.json"), "rb") as fh:
            raw[name] = fh.read()
        parsed[name] = json.loads(raw[name])
    return raw, parsed


def golden_items(raw: dict, golden: dict, rng: random.Random, tmpdir: str) -> list:
    """Golden CLI reports byte for byte, then the same answers through the library.

    Every workload runs this phase once, after its timed loop. It covers
    every layer, so each layer has spans in every traced run.
    """
    items = []
    for name, argv in GOLDEN_COMMANDS.items():
        def cli_item(tr, name=name, argv=argv) -> None:
            code, out = run_cli(tr, argv)
            expect(code == 0, f"{name} exits 0")
            expect(out.encode() == raw[name], f"{name} stdout matches its golden file")

        items.append((f"golden:{name}", cli_item))

    # the diagonal command has no golden file: compare it with the library
    n = 30
    path = os.path.join(tmpdir, "golden_matrix.json")
    rows, _, _, _ = _matrix_file(rng, path, n, 3)

    def diagonal_item(tr) -> None:
        code, out = run_cli(tr, ["diagonal", "--input", path, "--section"])
        expect(code == 0, "diagonal exits 0")
        report = json.loads(out)
        with tr.span("cli.load_matrix"):
            f, a, sec, _ = cli.load_matrix_file(path, True)
        with tr.span("core.build", cells=n * n):
            rebuilt = core.EvalMatrix(f.rows, f.cols, f.y, tuple(tuple(r) for r in rows))
        with tr.span("core.witness"):
            cert = core.cantor_witness(rebuilt, a, sec)
        with tr.span("core.search"):
            columns = core.representing_columns(cert.g, rebuilt)
        with tr.span("core.verify"):
            ok = core.verify_nonrepresentability(f, cert)
        expect(ok and not columns and rebuilt == f, "diagonal certificate")
        expect(report["certificate"]["g"] == list(cert.g.values), "diagonal command matches the library")

    def instances_item(tr) -> None:
        with tr.span("instances.demo"):
            fam, _ = instances.demo_subset_family()
            _, report = instances.powerset_instance(fam)
        with tr.span("instances.convert"):
            f = instances.membership_matrix(fam)
        with tr.span("core.verify"):
            ok = core.verify_nonrepresentability(f, report)
        expect(ok and list(report.g.values) == golden["demo_powerset"]["certificate"]["g"], "powerset")

    def universe_item(tr) -> None:
        want = golden["universe_recursion"]["certificate"]
        n0, transformed, samples = recursion_check(
            tr, 711, cli.RECURSION_FUEL, cli.RECURSION_RETRY_FUEL,
            cli.RECURSION_SAMPLE_INPUTS,
        )
        expect(n0 == want["n0"] and transformed == U.Value(want["transformed_index"]["n"]), "recursion 711")
        expect([s["agree"] for s in want["samples"]] == [a for _, _, a in samples], "recursion samples")
        expect(evaluate(tr, U.OMEGA, [U.OMEGA], 10**4, omega=True) == U.Diverged(), "OMEGA diverges")
        with tr.span("universe.refute"):
            witness = U.refute_halting(11, 4096)
        expect(witness.verdict == golden["universe_refute_halt"]["certificate"]["verdict"], "refute 11")
        with tr.span("universe.rice"):
            rice = U.rice_contradiction(11, 1, 2208, 10000)
        expect(rice.verdict == golden["universe_rice"]["certificate"]["verdict"], "rice")
        with tr.span("universe.halting_matrix"):
            m = U.bounded_halting_matrix(8, 32)
        expect([list(r) for r in m.rel] == golden["universe_halt_matrix"]["certificate"]["rel"], "halt matrix")

    def formal_item(tr) -> None:
        with tr.span("sexpr.parse", nodes=3):
            a = F.parse_formula("(Prov 0 0)")
        _, texts = sentence_check(tr, lambda: F.curry_sentence(a))
        want = golden["formal_curry"]["certificate"]
        expect(texts == [want[k] for k in ("e", "g", "c", "reduced", "target")], "curry (Prov 0 0)")
        with tr.span("sexpr.parse", nodes=5):
            node = sexpr.parse("(imp (P 1) (Q 2))")
        expect(isinstance(node, sexpr.SList) and len(node.items) == 3, "s-expression reader")

    items += [
        ("golden:diagonal", diagonal_item),
        ("golden:instances", instances_item),
        ("golden:universe", universe_item),
        ("golden:formal", formal_item),
    ]
    return items
