"""CLI: exit codes, report structure, and byte-exact golden files."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from diagkit import core, formal, instances, universe
from diagkit.cli import run_command

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

GOLDEN_COMMANDS = [
    ("demo_powerset", ["demo", "powerset"]),
    ("demo_russell", ["demo", "russell"]),
    ("demo_grelling", ["demo", "grelling"]),
    ("demo_strong_liar", ["demo", "strong-liar"]),
    ("demo_richard", ["demo", "richard"]),
    ("demo_nonre", ["demo", "nonre"]),
    ("universe_quine", ["universe", "quine"]),
    ("universe_recursion", ["universe", "recursion", "--h", "711"]),
    ("universe_refute_halt", ["universe", "refute-halt", "--candidate", "11"]),
    ("universe_rice", ["universe", "rice", "--decider", "11", "--a", "1", "--b", "2208"]),
    ("universe_halt_matrix", ["universe", "halt-matrix", "--n", "8", "--fuel", "32"]),
    ("formal_goedel", ["formal", "goedel"]),
    ("formal_rosser", ["formal", "rosser"]),
    ("formal_tarski", ["formal", "tarski"]),
    ("formal_parikh", ["formal", "parikh", "--n", "100"]),
    ("formal_curry", ["formal", "curry", "--a", "(Prov 0 0)"]),
]


def run(argv, capsys):
    code = run_command(argv)
    out = capsys.readouterr().out
    return code, out


@pytest.mark.parametrize("name,argv", GOLDEN_COMMANDS, ids=[n for n, _ in GOLDEN_COMMANDS])
def test_golden(name, argv, capsys):
    code, out = run(argv, capsys)
    assert code == 0
    path = GOLDEN_DIR / f"{name}.json"
    if os.environ.get("GOLDEN_UPDATE"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_bytes(out.encode())
    assert path.exists(), f"golden file missing; run with GOLDEN_UPDATE=1 ({path})"
    assert out.encode() == path.read_bytes()


def _outcome_from_json(obj):
    if obj["kind"] == "value":
        return universe.Value(obj["n"])
    if obj["kind"] == "diverged":
        return universe.Diverged()
    return universe.Stuck()


def _matrix_for_report(report):
    source = report["inputs"].get("source", "")
    cert = report["certificate"]
    if source.endswith("powerset.json"):
        fam, _ = instances.demo_subset_family()
        return instances.membership_matrix(fam)
    if source.endswith("russell.json"):
        return instances.describes_matrix(instances.demo_russell()[0])
    if source.endswith("grelling.json"):
        return instances.describes_matrix(instances.demo_grelling()[0])
    if source.endswith("strong_liar.json"):
        return instances.tri_valued_matrix(instances.demo_strong_liar()[0])
    if source.endswith("richard_digits.json"):
        return instances.digit_matrix(instances.demo_richard()[0])
    args = report["inputs"]["args"]
    m = universe.bounded_halting_matrix(args["n"], args["fuel"])
    assert cert.get("rel", [list(r) for r in m.rel]) == [list(r) for r in m.rel]
    return instances.describes_matrix(m)


def _reverify_nonrep(report, cert):
    f = _matrix_for_report(report)
    rebuilt = core.NonRepresentabilityReport(
        core.YMap(f.rows, f.y, tuple(cert["g"])), tuple(cert["witness_rows"])
    )
    return core.verify_nonrepresentability(f, rebuilt)


def reverify_through_library(report) -> bool:
    """The certificate payload alone must re-check via public library calls."""
    cert = report["certificate"]
    kind = cert["kind"]
    if kind == "non-representability":
        return _reverify_nonrep(report, cert)
    if kind == "bounded-halting-matrix":
        return _reverify_nonrep(report, cert["non_representability"])
    if kind == "quine":
        q = cert["index"]
        return all(
            universe.evaluate(q, [c["input"]], cert["fuel"]) == universe.Value(q)
            for c in cert["self_checks"]
        )
    if kind == "recursion-fixed-point":
        n0 = cert["n0"]
        transformed = _outcome_from_json(cert["transformed_index"])
        if not isinstance(transformed, universe.Value):
            return False
        for sample in cert["samples"]:
            left = universe.evaluate(n0, [sample["input"]], 10**6)
            right = universe.evaluate(transformed.n, [sample["input"]], 10**6)
            if isinstance(left, universe.Value) or isinstance(right, universe.Value):
                if left != right:
                    return False
        return True
    if kind == "halting-refutation":
        witness = universe.RefutationWitness(
            g_index=cert["diagonal_index"],
            candidate_answer=_outcome_from_json(cert["candidate_answer"]),
            g_run=_outcome_from_json(cert["g_run"]),
            fuel=cert["fuel"],
        )
        fresh = universe.refute_halting(cert["candidate"], cert["fuel"])
        return (
            universe.verify_refutation(witness)
            and fresh == witness
            and witness.verdict == cert["verdict"]
        )
    if kind == "rice-contradiction":
        fresh = universe.rice_contradiction(
            cert["decider"], cert["a"], cert["b"], cert["fuel"]
        )
        return (
            universe.verify_rice(fresh)
            and fresh.n0 == cert["n0"]
            and fresh.verdict == cert["verdict"]
        )
    if kind == "diagonal-sentence":
        c = formal.parse_formula(cert["c"])
        target = formal.parse_formula(cert["target"])
        reduced = formal.parse_formula(cert["reduced"])
        if formal.reduce_diag(c) != target or reduced != target:
            return False
        if "unquoted_once" in cert:
            got = formal.parse_formula(cert["unquoted_once"])
            want = formal.Imp(c, formal.parse_formula(cert["consequent"]))
            if got != want:
                return False
        return True
    return False


@pytest.mark.parametrize("name,argv", GOLDEN_COMMANDS, ids=[n for n, _ in GOLDEN_COMMANDS])
def test_golden_reports_reverify_through_library(name, argv):
    path = GOLDEN_DIR / f"{name}.json"
    report = json.loads(path.read_text())
    assert report["verified"] is True
    assert reverify_through_library(report)


def test_reports_verify_flag_and_shape(capsys):
    code, out = run(["demo", "grelling"], capsys)
    report = json.loads(out)
    assert list(report.keys()) == ["command", "inputs", "certificate", "verified"]
    assert report["command"] == "demo grelling"
    assert report["verified"] is True
    assert code == 0


def test_grelling_report_reverifies_through_library(capsys):
    _, out = run(["demo", "grelling"], capsys)
    report = json.loads(out)
    m, _ = instances.demo_grelling()
    het, cert = instances.relation_instance(m)
    assert report["certificate"]["g"] == list(cert.g.values)
    assert report["certificate"]["witness_rows"] == list(cert.witness_rows)
    assert report["certificate"]["heterological"] == list(
        instances.heterological_labels(m)
    )
    rebuilt = core.NonRepresentabilityReport(
        core.YMap(
            instances.describes_matrix(m).rows,
            instances.BIT_CARRIER,
            tuple(report["certificate"]["g"]),
        ),
        tuple(report["certificate"]["witness_rows"]),
    )
    assert core.verify_nonrepresentability(instances.describes_matrix(m), rebuilt)


def test_quine_report_reverifies_through_library(capsys):
    _, out = run(["universe", "quine"], capsys)
    report = json.loads(out)
    q = report["certificate"]["index"]
    assert universe.evaluate(q, [0], 10**6) == universe.Value(q)
    assert universe.parse_program(report["certificate"]["program"]) == universe.decode(q)


def test_formal_report_reverifies_through_library(capsys):
    _, out = run(["formal", "goedel"], capsys)
    report = json.loads(out)
    cert = report["certificate"]
    c = formal.parse_formula(cert["c"])
    target = formal.parse_formula(cert["target"])
    assert formal.reduce_diag(c) == target
    assert formal.parse_formula(cert["reduced"]) == target


def test_formal_print_number(capsys):
    _, out = run(["formal", "tarski", "--print-number"], capsys)
    report = json.loads(out)
    cert = report["certificate"]
    assert cert["c_number"] == formal.goedel_number(formal.parse_formula(cert["c"]))
    assert len(str(cert["c_number"])) == cert["c_number_digits"]


def write_matrix(tmp_path, data):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps(data))
    return str(path)


GRELLING_FILE = {
    "y_labels": ["no", "yes"],
    "t_labels": ["english", "french", "short", "polysyllabic"],
    "s_labels": ["english", "french", "short", "polysyllabic"],
    "alpha": [1, 0],
    "f": [[1, 0, 0, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 1]],
}


def test_diagonal_command(tmp_path, capsys):
    path = write_matrix(tmp_path, GRELLING_FILE)
    code, out = run(["diagonal", "--input", path], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["certificate"]["flagged"] == ["french", "short"]
    assert report["verified"] is True


def test_diagonal_command_section(tmp_path, capsys):
    data = {
        "y_labels": ["0", "1"],
        "t_labels": ["t0", "t1", "t2"],
        "s_labels": ["s0", "s1"],
        "alpha": [1, 0],
        "f": [[0, 1], [1, 0], [1, 1]],
        "beta": [0, 1, 0],
        "beta_bar": [0, 1],
    }
    code, out = run(["diagonal", "--input", write_matrix(tmp_path, data), "--section"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["certificate"]["construction"] == "section"
    assert report["certificate"]["g"] == [1, 1, 0]
    assert report["certificate"]["witness_rows"] == [0, 1]


def test_diagonal_rejects_fixed_point_alpha(tmp_path, capsys):
    data = dict(GRELLING_FILE, alpha=[0, 1])
    code = run_command(["diagonal", "--input", write_matrix(tmp_path, data)])
    capsys.readouterr()
    assert code == 1  # hypothesis violated: not applicable


# the fragment each case's stderr must contain
MALFORMED_FRAGMENTS = {"alpha": "field 'alpha'", "f": "field 'f'", "labels": "carrier labels"}


@pytest.mark.parametrize(
    "mutate,field",
    [
        (lambda d: d.pop("alpha"), "alpha"),
        (lambda d: d.update(alpha=[1, 7]), "alpha"),
        (lambda d: d.update(f=[[0, 1]]), "f"),
        (lambda d: d.update(f="nope"), "f"),
        (lambda d: d.update(y_labels=["a", "a"]), "labels"),
    ],
)
def test_diagonal_malformed_inputs_exit_2(tmp_path, capsys, mutate, field):
    data = json.loads(json.dumps(GRELLING_FILE))
    mutate(data)
    code = run_command(["diagonal", "--input", write_matrix(tmp_path, data)])
    err = capsys.readouterr().err
    assert code == 2
    assert MALFORMED_FRAGMENTS[field] in err


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: d.pop("alpha"), "missing field 'alpha'"),
        (lambda d: d.update(alpha="nope"), "field 'alpha' must be a list"),
        (lambda d: d.update(alpha=[1, 7]), "field 'alpha': endomap sends 1 to 7, outside the carrier"),
        (lambda d: d.update(beta=[0, "x", 0, 1]), "field 'beta' must contain integers"),
        (lambda d: d.pop("beta_bar"), "--section requires fields 'beta' and 'beta_bar'"),
        (
            lambda d: d.update(beta=[0, 9, 0, 1]),
            "fields 'beta'/'beta_bar': beta[1] lies outside the column carrier",
        ),
    ],
    ids=["alpha-missing", "alpha-not-list", "alpha-range", "beta-type", "beta-bar-missing", "beta-range"],
)
def test_matrix_file_errors_name_their_field_once(tmp_path, capsys, mutate, message):
    data = dict(GRELLING_FILE, beta=[0, 1, 2, 3], beta_bar=[0, 1, 2, 3])
    mutate(data)
    code = run_command(["diagonal", "--input", write_matrix(tmp_path, data), "--section"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("bad", [0.5, 1.0, True])
def test_diagonal_non_integer_cell_exits_2(tmp_path, capsys, bad):
    # 0.5 and 1.0 pass the range check on cells, and true reads as 1
    data = dict(GRELLING_FILE, f=[[bad, 0, 0, 1]] + GRELLING_FILE["f"][1:])
    code = run_command(["diagonal", "--input", write_matrix(tmp_path, data)])
    err = capsys.readouterr().err
    assert code == 2
    assert "field 'f'" in err


def test_diagonal_missing_file_exits_2(capsys):
    code = run_command(["diagonal", "--input", "/no/such/file.json"])
    capsys.readouterr()
    assert code == 2


def test_diagonal_not_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    code = run_command(["diagonal", "--input", str(path)])
    capsys.readouterr()
    assert code == 2


def test_section_flag_without_section_fields(tmp_path, capsys):
    code = run_command(
        ["diagonal", "--input", write_matrix(tmp_path, GRELLING_FILE), "--section"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "beta" in err


def test_unknown_subcommand_exits_2(capsys):
    assert run_command(["bogus"]) == 2
    capsys.readouterr()


def test_universe_accepts_program_text(capsys):
    code, out = run(
        ["universe", "refute-halt", "--candidate", "(run %1 %1)"], capsys
    )
    assert code == 0
    report = json.loads(out)
    assert report["certificate"]["verdict"] == "CandidateNotTotal"


def test_recursion_with_nontotal_transformer_exits_1(capsys):
    # the construction still runs, but sampling cannot certify anything
    code, out = run(["universe", "recursion", "--h", "(run %1 %1)"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["verified"] is False
    assert report["certificate"]["transformed_index"]["kind"] == "diverged"


def test_recursion_report_program_notation_roundtrips(capsys):
    _, out = run(["universe", "recursion", "--h", "711"], capsys)
    report = json.loads(out)
    n0 = report["certificate"]["n0"]
    assert universe.encode(universe.parse_program(report["certificate"]["n0_program"])) == n0


def test_formal_curry_open_consequent_exits_2(capsys):
    code = run_command(["formal", "curry", "--a", "(P x)"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("redex", ["diag", "neg"])
def test_formal_curry_redex_consequent_exits_2(redex, capsys):
    # reduction would fire the redex on one side of the certificate only
    code = run_command(["formal", "curry", "--a", f"(P ({redex} 3))"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: formula must not contain a diag or neg applied to a numeral\n"


@pytest.mark.parametrize(
    "a,b,code", [("1", "1", 1), ("10", "%1", 10)], ids=["same-index", "index-and-body"]
)
def test_universe_rice_same_program_exits_2(a, b, code, capsys):
    # one program cannot be both inside and outside the claimed class
    exit_code = run_command(["universe", "rice", "--decider", "11", "--a", a, "--b", b])
    captured = capsys.readouterr()
    assert exit_code == 2
    assert captured.out == ""
    assert captured.err == f"error: --a and --b must name different programs, both name {code}\n"


def test_formal_parikh_zero_bound_exits_2(capsys):
    code = run_command(["formal", "parikh", "--n", "0"])
    capsys.readouterr()
    assert code == 2


def test_formal_unknown_symbol_exits_2(capsys):
    code = run_command(["formal", "curry", "--a", "(Bogus 1)"])
    err = capsys.readouterr().err
    assert code == 2
    assert "Bogus" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["universe", "halt-matrix", "--n", "2", "--fuel", "-3"],
        ["universe", "rice", "--decider", "11", "--a", "1", "--b", "2208", "--fuel", "-1"],
    ],
)
def test_negative_fuel_exits_2(argv, capsys):
    code, out = run(argv, capsys)
    assert code == 2
    assert out == ""


def test_negative_fuel_refutation_exits_2_without_hanging():
    # this command used to loop forever, so it runs in a child with a deadline
    src = pathlib.Path(__file__).parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    argv = ["universe", "refute-halt", "--candidate", "2208", "--fuel", "-1"]
    proc = subprocess.run(
        [sys.executable, "-m", "diagkit.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "fuel" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["universe", "recursion", "--h", "(succ " * 100_000 + "1" + ")" * 100_000],
        ["formal", "curry", "--a", "(not " * 100_000 + "(Prov 0 0)" + ")" * 100_000],
    ],
    ids=["program", "formula"],
)
def test_deep_nesting_exits_2(argv, capsys):
    # in process: one argument this long is past the OS limit for an argv string
    code = run_command(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: input nests too deeply\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["universe", "recursion", "--h", "²"],
        ["universe", "recursion", "--h", "(succ ²)"],
        ["formal", "curry", "--a", "(P ²)"],
        ["formal", "curry", "--a", "(P x²)"],
    ],
)
def test_non_decimal_digit_exits_2(argv, capsys):
    # "²" is a digit to str.isdigit but not a numeral int() reads
    code = run_command(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_deep_formula_certifies(capsys):
    # 10 000 levels: past what the dataclasses' own == compares
    depth = 10_000
    a = "(not " * depth + "(P 0)" + ")" * depth
    code = run_command(["formal", "curry", "--a", a])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["verified"] is True
