"""Command-line front end: run every construction, emit verifiable reports.

Each invocation prints a single JSON report with stable key order: the echoed
command, a digest of the inputs, the certificate payload, and a verified flag
that the library's `verify_*` recomputes from the certificate right before
emission. The quine checks itself on each input it lists; a sentence's flag
is its `LemmaCertificate.verified`, read off the evidence its constructor
computed from E alone. Exit status is 0 only when the certificate verifies;
malformed input, negative fuel and input that nests too deeply exit 2; a
failed verification or an inapplicable construction exits 1; any other
exception is an internal error: one `internal error: <Type>: <message>` line
and exit 3. Each command imports only the family it runs. Divergence evidence
names the fuel bound it was observed at, but for two fields that name the
command's fuel: refute-halt's `g_run` ran at fuel + 7 and rice's
`switched_to` at fuel + 5 (`universe`'s wrapper and switch allowances).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from typing import TYPE_CHECKING, Any, Callable, Optional

from . import core
from .errors import InputError, NotApplicableError

if TYPE_CHECKING:
    from . import formal, instances, universe
QUINE_FUEL = 10**6
RECURSION_FUEL = 10**5
RECURSION_RETRY_FUEL = 10**6
RECURSION_SAMPLE_INPUTS = (0, 1, 2, 3, 4, 5)
NONRE_SIZE = 16
NONRE_FUEL = 32


def _outcome_json(outcome: universe.Outcome, fuel: int) -> dict:
    from . import universe
    match outcome:
        case universe.Value(n):
            return {"kind": "value", "n": n}
        case universe.Diverged():
            return {"kind": "diverged", "fuel": fuel}
        case universe.Stuck():
            return {"kind": "stuck"}
    raise TypeError(f"not an outcome: {outcome!r}")


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
        "witness": [
            {
                "column": s,
                "column_label": f.cols.label(s),
                "row": t,
                "row_label": f.rows.label(t),
                "g_value": report.g.values[t],
                "cell_value": f.cell[t][s],
            }
            for s, t in enumerate(report.witness_rows)
        ],
    }
    return payload, core.verify_nonrepresentability(f, report)


def _bundled_inputs(name: str) -> dict:
    from . import instances
    data = instances.bundled(name)
    return {"source": f"bundled:{name}", "sha256": hashlib.sha256(data).hexdigest()}


def _args_inputs(args: dict) -> dict:
    data = json.dumps(args, sort_keys=True, separators=(",", ":")).encode()
    return {"args": args, "sha256": hashlib.sha256(data).hexdigest()}


def _require(data: dict, field: str, kind: type) -> Any:
    if field not in data:
        raise InputError(f"missing field {field!r}")
    value = data[field]
    if not isinstance(value, kind):
        raise InputError(f"field {field!r} must be a {kind.__name__}")
    return value


def _str_list(data: dict, field: str) -> tuple[str, ...]:
    value = _require(data, field, list)
    if any(not isinstance(x, str) for x in value):
        raise InputError(f"field {field!r} must contain strings")
    return tuple(value)


def _checked(where: str, build: Callable[..., Any], *args: Any) -> Any:
    """build(*args), naming `where` in front of the message of any InputError."""
    try:
        return build(*args)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from exc


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
    except ValueError as exc:  # bad JSON, a number past the digit limit or bytes not UTF-8
        raise InputError(f"input file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError("input file must hold a JSON object")

    # each list is read before its check: a list's own errors name the field already
    labels = [_str_list(data, f"{c}_labels") for c in "yts"]
    y, rows, cols = (_checked("bad carrier labels", core.Carrier, len(x), x) for x in labels)
    alpha = _checked("field 'alpha'", core.EndoMap, y, _require(data, "alpha", list))
    cell = _require(data, "f", list)
    if any(not isinstance(row, list) for row in cell):
        raise InputError("field 'f' must be a list of rows")
    f = _checked("field 'f'", core.EvalMatrix, rows, cols, y, cell)

    section = None
    if want_section:
        if "beta" not in data or "beta_bar" not in data:
            raise InputError("--section requires fields 'beta' and 'beta_bar'")
        beta, beta_bar = _require(data, "beta", list), _require(data, "beta_bar", list)
        # whether it fits the matrix is checked where it is composed, in `core`
        section = _checked("fields 'beta'/'beta_bar'", core.Section, beta, beta_bar)

    inputs = {"source": path, "sha256": hashlib.sha256(raw).hexdigest()}
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
    from . import instances, universe
    m = universe.bounded_halting_matrix(n, fuel)
    het, report = instances.relation_instance(m)
    payload, ok = _nonrep_payload(m.matrix, report, "diagonal")
    return m, [i for i, bit in enumerate(het) if bit == 1], payload, ok


def _cmd_demo(args: argparse.Namespace) -> tuple[dict, dict, bool]:
    from . import instances
    which = args.table
    if which == "nonre":
        # the fuel-bounded halting table fed back through the relation instance
        _, language, payload, ok = _halting_table(NONRE_SIZE, NONRE_FUEL)
        payload.update(n=NONRE_SIZE, fuel=NONRE_FUEL, diagonal_language=language)
        payload["note"] = (
            "fuel-bounded approximation: column m is the set of inputs where "
            f"program m halts within {NONRE_FUEL} steps"
        )
        return _args_inputs({"table": "nonre", "n": NONRE_SIZE, "fuel": NONRE_FUEL}), payload, ok
    # each bundled table: its certificate and the keys that follow the common ones
    if which == "powerset":
        table, src = instances.demo_subset_family()
        g, report = instances.powerset_instance(table)
        extras = {"missing_set": [i for i, bit in enumerate(g) if bit == 1]}
    elif which in ("russell", "grelling"):
        table, src = instances.demo_russell() if which == "russell" else instances.demo_grelling()
        het, report = instances.relation_instance(table)
        key = "non_self_members" if which == "russell" else "heterological"
        extras = {key: [table.labels[i] for i, bit in enumerate(het) if bit == 1]}
    elif which == "strong-liar":
        table, src = instances.demo_strong_liar()
        letters, report = instances.strong_liar_instance(table)
        extras = {"twisted_diagonal": list(letters)}
    else:
        table, src = instances.demo_richard()
        digits, report = instances.richard_instance(table)
        extras = {"digits": list(digits), "described_reals": list(table.labels)}
    payload, ok = _nonrep_payload(table.matrix, report, "diagonal")
    payload.update(extras)
    return _bundled_inputs(src), payload, ok


def _cmd_quine(args: argparse.Namespace) -> tuple[dict, dict, bool]:
    from . import universe
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


def _fixed_point_fields(n0: int) -> dict:
    """A fixed point's report fields: its digit count, its code and its program."""
    from . import syntax, universe
    program = universe.format_program(universe.decode(n0))
    return {"n0_digits": len(syntax.NAT.name(n0)), "n0": n0, "n0_program": program}


def _cmd_recursion(args: argparse.Namespace) -> tuple[dict, dict, bool]:
    from . import universe
    h = universe.parse_program_or_code(args.transformer)
    n0, transformed, samples = universe.recursion_check(
        h, RECURSION_FUEL, (RECURSION_FUEL, RECURSION_RETRY_FUEL), RECURSION_SAMPLE_INPUTS
    )
    payload = {
        "kind": "recursion-fixed-point",
        "transformer": h,
        **_fixed_point_fields(n0),
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
    from . import universe
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
    from . import universe
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
        **_fixed_point_fields(report.n0),
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
    from . import formal, syntax
    payload = {
        "kind": "diagonal-sentence",
        "name": args.sentence,
        "e": formal.format_formula(cert.e),
        "variable": formal.var_name(cert.variable),
        "g": formal.format_formula(cert.g),
        "c": formal.format_formula(cert.c),
        # from the numeral printer's memo: G's number printed in c above,
        # and C's prints in reduced and target below
        "g_number_digits": len(syntax.NAT.name(cert.g_number)),
        "c_number_digits": len(syntax.NAT.name(cert.c_number)),
        "reduced": formal.format_formula(cert.reduced),
        "target": formal.format_formula(cert.target),
        **extras,
    }
    if args.print_number:
        payload["g_number"] = cert.g_number
        payload["c_number"] = cert.c_number
    return _args_inputs({"sentence": args.sentence, **echo}), payload, cert.verified


def _cmd_named_sentence(args: argparse.Namespace) -> tuple[dict, dict, bool]:
    from . import formal
    return _sentence_report(args, getattr(formal, f"{args.sentence}_sentence")(), {})


def _cmd_parikh(args: argparse.Namespace) -> tuple[dict, dict, bool]:
    from . import formal
    return _sentence_report(args, formal.parikh_sentence(args.n), {"n": args.n}, bound=args.n)


def _cmd_curry(args: argparse.Namespace) -> tuple[dict, dict, bool]:
    from . import formal
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
    except Exception as exc:  # a fault of diagkit or its install, not a failed check
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    report = {
        "command": " ".join(argv),
        "inputs": inputs,
        "certificate": payload,
        "verified": ok,
    }
    print(json.dumps(report, indent=2))
    return 0 if ok else 1


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (`| head`): point stdout at devnull, or the
        # flush at exit raises again and prints a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
