"""Command-line front end: run every construction, emit verifiable reports.

Each invocation prints a single JSON report with stable key order: the echoed
command, a digest of the inputs, the certificate payload, and a verified flag
that the library's `verify_*` recomputes from the certificate right before
emission (the quine checks itself on each input it lists). Exit status is 0
only when the certificate verifies; malformed input, negative fuel and input
that nests too deeply exit 2; a failed verification or an inapplicable
construction exits 1. Divergence evidence in any report names the fuel bound
it was observed at.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from importlib import resources
from typing import Any, Optional

from . import core, formal, instances, universe
from .errors import InputError, NotApplicableError

QUINE_FUEL = 10**6
RECURSION_FUEL = 10**5
RECURSION_RETRY_FUEL = 10**6
RECURSION_SAMPLE_INPUTS = (0, 1, 2, 3, 4, 5)
NONRE_SIZE = 16
NONRE_FUEL = 32


def _sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _outcome_json(outcome: universe.Outcome, fuel: int) -> dict:
    match outcome:
        case universe.Value(n):
            return {"kind": "value", "n": n}
        case universe.Diverged():
            return {"kind": "diverged", "fuel": fuel}
        case universe.Stuck():
            return {"kind": "stuck"}
    raise TypeError(f"not an outcome: {outcome!r}")


def _witness_json(
    f: core.EvalMatrix, report: core.NonRepresentabilityReport
) -> list[dict]:
    return [
        {
            "column": s,
            "column_label": f.cols.label(s),
            "row": t,
            "row_label": f.rows.label(t),
            "g_value": report.g.values[t],
            "cell_value": f.cell[t][s],
        }
        for s, t in enumerate(report.witness_rows)
    ]


def _nonrep_payload(
    f: core.EvalMatrix,
    report: core.NonRepresentabilityReport,
    construction: str,
) -> tuple[dict, bool]:
    payload = {
        "kind": "non-representability",
        "construction": construction,
        "rows": f.rows.size,
        "columns": f.cols.size,
        "values": f.y.size,
        "g": list(report.g.values),
        "witness_rows": list(report.witness_rows),
        "witness": _witness_json(f, report),
    }
    return payload, core.verify_nonrepresentability(f, report)


def _bundled_inputs(name: str) -> dict:
    data = resources.files("diagkit.data").joinpath(name).read_bytes()
    return {"source": f"bundled:{name}", "sha256": _sha256_bytes(data)}


def _args_inputs(args: dict) -> dict:
    data = json.dumps(args, sort_keys=True, separators=(",", ":")).encode()
    return {"args": args, "sha256": _sha256_bytes(data)}


def _require(data: dict, field: str, kind: type) -> Any:
    if field not in data:
        raise InputError(f"missing field {field!r}")
    value = data[field]
    if not isinstance(value, kind):
        raise InputError(f"field {field!r} must be a {kind.__name__}")
    return value


def _all_ints(values: list) -> bool:
    # by type, not isinstance: JSON true is a bool, which is an int subclass
    return {int}.issuperset(map(type, values))


def _int_list(data: dict, field: str) -> tuple[int, ...]:
    value = _require(data, field, list)
    if not _all_ints(value):
        raise InputError(f"field {field!r} must contain integers")
    return tuple(value)


def _str_list(data: dict, field: str) -> tuple[str, ...]:
    value = _require(data, field, list)
    if any(not isinstance(x, str) for x in value):
        raise InputError(f"field {field!r} must contain strings")
    return tuple(value)


def load_matrix_file(
    path: str, want_section: bool
) -> tuple[core.EvalMatrix, core.EndoMap, Optional[core.Section], dict]:
    """Read the JSON matrix format; validation errors name the offending field."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read input file: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"input file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("input file must hold a JSON object")

    y_labels = _str_list(data, "y_labels")
    t_labels = _str_list(data, "t_labels")
    s_labels = _str_list(data, "s_labels")
    try:
        y = core.Carrier(len(y_labels), y_labels)
        rows = core.Carrier(len(t_labels), t_labels)
        cols = core.Carrier(len(s_labels), s_labels)
    except InputError as exc:
        raise InputError(f"bad carrier labels: {exc}") from exc

    # the lists are read outside the try blocks: their errors name the field already
    alpha_images = _int_list(data, "alpha")
    try:
        alpha = core.EndoMap(y, alpha_images)
    except InputError as exc:
        raise InputError(f"field 'alpha': {exc}") from exc

    cell = _require(data, "f", list)
    if any(not isinstance(row, list) for row in cell):
        raise InputError("field 'f' must be a list of rows")
    # EvalMatrix checks only each cell's range, which 0.5 and true pass; the
    # type is checked here, where the JSON comes in, to keep that loop short
    if not all(map(_all_ints, cell)):
        raise InputError("field 'f' must contain integers")
    try:
        f = core.EvalMatrix(rows=rows, cols=cols, y=y, cell=tuple(tuple(r) for r in cell))
    except InputError as exc:
        raise InputError(f"field 'f': {exc}") from exc

    section = None
    if want_section:
        if "beta" not in data or "beta_bar" not in data:
            raise InputError("--section requires fields 'beta' and 'beta_bar'")
        beta, beta_bar = _int_list(data, "beta"), _int_list(data, "beta_bar")
        try:
            section = core.Section(beta, beta_bar)
        except InputError as exc:
            raise InputError(f"fields 'beta'/'beta_bar': {exc}") from exc
        if len(section.beta) != rows.size:
            raise InputError("field 'beta': must have one entry per row")
        if len(section.beta_bar) != cols.size:
            raise InputError("field 'beta_bar': must have one entry per column")

    inputs = {"source": path, "sha256": _sha256_bytes(raw)}
    return f, alpha, section, inputs


def _cmd_diagonal(args: argparse.Namespace) -> tuple[dict, dict, bool]:
    f, alpha, section, inputs = load_matrix_file(args.input, args.section)
    report = core.cantor_witness(f, alpha, section)
    construction = "section" if section is not None else "diagonal"
    payload, ok = _nonrep_payload(f, report, construction)
    if f.y.size == 2:
        payload["flagged"] = [
            f.rows.label(i) for i, v in enumerate(report.g.values) if v == 1
        ]
    return inputs, payload, ok


def _halting_table(n: int, fuel: int) -> tuple[instances.DescribesMatrix, list[int], dict, bool]:
    """The fuel-bounded halting table, certified through the relation instance."""
    m = universe.bounded_halting_matrix(n, fuel)
    het, report = instances.relation_instance(m)
    payload, ok = _nonrep_payload(instances.describes_matrix(m), report, "diagonal")
    return m, [i for i, bit in enumerate(het) if bit == 1], payload, ok


def _cmd_demo(args: argparse.Namespace) -> tuple[dict, dict, bool]:
    which = args.table
    if which == "powerset":
        fam, src = instances.demo_subset_family()
        g, report = instances.powerset_instance(fam)
        f = instances.membership_matrix(fam)
        payload, ok = _nonrep_payload(f, report, "diagonal")
        payload["missing_set"] = [i for i, bit in enumerate(g) if bit == 1]
        return _bundled_inputs(src), payload, ok
    if which in ("russell", "grelling"):
        m, src = instances.demo_russell() if which == "russell" else instances.demo_grelling()
        het, report = instances.relation_instance(m)
        f = instances.describes_matrix(m)
        payload, ok = _nonrep_payload(f, report, "diagonal")
        key = "non_self_members" if which == "russell" else "heterological"
        payload[key] = [m.labels[i] for i, bit in enumerate(het) if bit == 1]
        return _bundled_inputs(src), payload, ok
    if which == "strong-liar":
        m, src = instances.demo_strong_liar()
        letters, report = instances.strong_liar_instance(m)
        f = instances.tri_valued_matrix(m)
        payload, ok = _nonrep_payload(f, report, "diagonal")
        payload["twisted_diagonal"] = list(letters)
        return _bundled_inputs(src), payload, ok
    if which == "richard":
        m, src = instances.demo_richard()
        digits, report = instances.richard_instance(m)
        f = instances.digit_matrix(m)
        payload, ok = _nonrep_payload(f, report, "diagonal")
        payload["digits"] = list(digits)
        payload["described_reals"] = list(m.labels)
        return _bundled_inputs(src), payload, ok
    # nonre: the fuel-bounded halting table fed back through the relation instance
    _, language, payload, ok = _halting_table(NONRE_SIZE, NONRE_FUEL)
    payload.update(n=NONRE_SIZE, fuel=NONRE_FUEL, diagonal_language=language)
    payload["note"] = (
        "fuel-bounded approximation: column m is the set of inputs where "
        f"program m halts within {NONRE_FUEL} steps"
    )
    return _args_inputs({"table": "nonre", "n": NONRE_SIZE, "fuel": NONRE_FUEL}), payload, ok


def _cmd_quine(args: argparse.Namespace) -> tuple[dict, dict, bool]:
    q = universe.quine()
    checks = {x: universe.evaluate(q, [x], QUINE_FUEL) == universe.Value(q) for x in (0, 1, 2)}
    payload = {
        "kind": "quine",
        "index": q,
        "program": universe.format_program(universe.decode(q)),
        "fuel": QUINE_FUEL,
        "self_checks": [{"input": x, "reproduces_itself": ok} for x, ok in checks.items()],
    }
    return _args_inputs({"construction": "quine"}), payload, all(checks.values())


def _cmd_recursion(args: argparse.Namespace) -> tuple[dict, dict, bool]:
    h = universe.parse_program_or_code(args.transformer)
    n0, transformed, samples = universe.recursion_check(
        h, RECURSION_FUEL, (RECURSION_FUEL, RECURSION_RETRY_FUEL), RECURSION_SAMPLE_INPUTS
    )
    payload = {
        "kind": "recursion-fixed-point",
        "transformer": h,
        "n0_digits": len(str(n0)),
        "n0": n0,
        "n0_program": universe.format_program(universe.decode(n0)),
        "transformed_index": _outcome_json(transformed, RECURSION_FUEL),
        "samples": [
            {
                "input": x,
                "fixed_point": _outcome_json(left, fuel),
                "transformed": _outcome_json(right, fuel),
                "agree": universe.agree(left, right),
            }
            for x, left, right, fuel in samples
        ],
    }
    ok = universe.verify_recursion(transformed, samples)
    return _args_inputs({"construction": "recursion", "h": h}), payload, ok


def _cmd_refute_halt(args: argparse.Namespace) -> tuple[dict, dict, bool]:
    candidate = universe.parse_program_or_code(args.candidate)
    witness = universe.refute_halting(candidate, args.fuel)
    payload = {
        "kind": "halting-refutation",
        "candidate": candidate,
        "diagonal_index": witness.g_index,
        "candidate_answer": _outcome_json(witness.candidate_answer, witness.fuel),
        "g_run": _outcome_json(witness.g_run, witness.fuel),
        "verdict": witness.verdict,
        "fuel": witness.fuel,
    }
    echo = {"construction": "refute-halt", "candidate": candidate, "fuel": args.fuel}
    return _args_inputs(echo), payload, universe.verify_refutation(witness)


def _cmd_rice(args: argparse.Namespace) -> tuple[dict, dict, bool]:
    decider = universe.parse_program_or_code(args.decider)
    a = universe.parse_program_or_code(args.a)
    b = universe.parse_program_or_code(args.b)
    if a == b:
        raise InputError(f"--a and --b must name different programs, both name {a}")
    report = universe.rice_contradiction(decider, a, b, args.fuel)
    payload = {
        "kind": "rice-contradiction",
        "decider": decider,
        "a": a,
        "b": b,
        "n0_digits": len(str(report.n0)),
        "n0": report.n0,
        "n0_program": universe.format_program(universe.decode(report.n0)),
        "decider_answer": _outcome_json(report.decider_answer, args.fuel),
        "switched_to": _outcome_json(report.switched_to, args.fuel),
        "samples": [
            {
                "input": x,
                "fixed_point": _outcome_json(left, args.fuel),
                "switched": _outcome_json(right, args.fuel),
            }
            for x, left, right in report.samples
        ],
        "verdict": report.verdict,
        "fuel": args.fuel,
    }
    echo = {"construction": "rice", "decider": decider, "a": a, "b": b, "fuel": args.fuel}
    return _args_inputs(echo), payload, universe.verify_rice(report)


def _cmd_halt_matrix(args: argparse.Namespace) -> tuple[dict, dict, bool]:
    m, language, inner, ok = _halting_table(args.n, args.fuel)
    payload = {
        "kind": "bounded-halting-matrix",
        "n": args.n,
        "fuel": args.fuel,
        "rel": [list(row) for row in m.rel],
        "diagonal_language": language,
        "non_representability": inner,
    }
    echo = {"construction": "halt-matrix", "n": args.n, "fuel": args.fuel}
    return _args_inputs(echo), payload, ok


def _sentence_report(
    args: argparse.Namespace, cert: formal.LemmaCertificate, echo: dict, **extras: Any
) -> tuple[dict, dict, bool]:
    payload = {
        "kind": "diagonal-sentence",
        "name": args.sentence,
        "e": formal.format_formula(cert.e),
        "variable": formal.var_name(cert.variable),
        "g": formal.format_formula(cert.g),
        "c": formal.format_formula(cert.c),
        "g_number_digits": len(str(cert.g_number)),
        "c_number_digits": len(str(cert.c_number)),
        "reduced": formal.format_formula(cert.reduced),
        "target": formal.format_formula(cert.target),
        **extras,
    }
    if args.print_number:
        payload["g_number"] = cert.g_number
        payload["c_number"] = cert.c_number
    return _args_inputs({"sentence": args.sentence, **echo}), payload, formal.verify_sentence(cert)


def _cmd_named_sentence(args: argparse.Namespace) -> tuple[dict, dict, bool]:
    return _sentence_report(args, getattr(formal, f"{args.sentence}_sentence")(), {})


def _cmd_parikh(args: argparse.Namespace) -> tuple[dict, dict, bool]:
    return _sentence_report(args, formal.parikh_sentence(args.n), {"n": args.n}, bound=args.n)


def _cmd_curry(args: argparse.Namespace) -> tuple[dict, dict, bool]:
    consequent = formal.parse_formula(args.a)
    cert = formal.curry_sentence(consequent)
    a = formal.format_formula(consequent)
    unquoted = formal.format_formula(formal.unquote_once(cert.reduced))
    return _sentence_report(args, cert, {"a": a}, consequent=a, unquoted_once=unquoted)


def _command(sub: Any, name: str, run: Any, **kwargs: Any) -> argparse.ArgumentParser:
    """Add a subcommand whose parsed arguments carry their handler as `run`."""
    p = sub.add_parser(name, **kwargs)
    p.set_defaults(run=run)
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagkit",
        description="diagonal arguments, certificates, and self-reference at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(
        sub, "diagonal", _cmd_diagonal, help="run the diagonal construction on a matrix file"
    )
    p.add_argument("--input", required=True, help="JSON matrix file")
    p.add_argument(
        "--section",
        action="store_true",
        help="use the off-diagonal form via the file's beta/beta_bar",
    )

    p = _command(sub, "demo", _cmd_demo, help="run a bundled demonstration table")
    p.add_argument(
        "table",
        choices=["powerset", "russell", "grelling", "strong-liar", "richard", "nonre"],
    )

    p = sub.add_parser("universe", help="toy computable universe constructions")
    usub = p.add_subparsers(dest="construction", required=True)
    _command(usub, "quine", _cmd_quine, help="build and check a self-reproducing program")
    q = _command(usub, "recursion", _cmd_recursion, help="fixed point of a total transformer")
    q.add_argument("--h", dest="transformer", required=True, help="transformer index or program text")
    q = _command(
        usub, "refute-halt", _cmd_refute_halt, help="diagonalize against a halting decider"
    )
    q.add_argument("--candidate", required=True, help="candidate index or program text")
    q.add_argument("--fuel", type=int, default=4096)
    q = _command(usub, "rice", _cmd_rice, help="self-defeating probe for a property decider")
    q.add_argument("--decider", required=True)
    q.add_argument("--a", required=True, help="an index inside the claimed class")
    q.add_argument("--b", required=True, help="an index outside the claimed class")
    q.add_argument("--fuel", type=int, default=10000)
    q = _command(usub, "halt-matrix", _cmd_halt_matrix, help="fuel-bounded halting table")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--fuel", type=int, default=64)

    p = sub.add_parser("formal", help="self-referential sentence constructions")
    fsub = p.add_subparsers(dest="sentence", required=True)
    for name in ("goedel", "rosser", "tarski"):
        _command(fsub, name, _cmd_named_sentence)
    q = _command(fsub, "parikh", _cmd_parikh)
    q.add_argument("--n", type=int, required=True, help="proof-length bound")
    q = _command(fsub, "curry", _cmd_curry)
    q.add_argument("--a", required=True, help="closed consequent formula")
    for q in fsub.choices.values():
        q.add_argument("--print-number", action="store_true")

    return parser


def run_command(argv: list[str]) -> int:
    """Dispatch one command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        inputs, payload, ok = args.run(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotApplicableError as exc:
        print(f"not applicable: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        # the readers, codings and printers recurse once per nesting level
        print("error: input nests too deeply", file=sys.stderr)
        return 2

    report = {
        "command": " ".join(argv),
        "inputs": inputs,
        "certificate": payload,
        "verified": ok,
    }
    print(json.dumps(report, indent=2))
    return 0 if ok else 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
