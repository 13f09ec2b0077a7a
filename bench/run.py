"""Layered benchmark for diagkit.

Run from the root of a checkout:

    python3 bench/run.py --workload tables --seed 1 --seconds 32 --trace 0

Each workload runs in one fresh, single-threaded process as a closed loop with
one caller: the next item starts when the previous one is certified. With
`--trace 0` the last line of stdout is a JSON object with the end-to-end
metrics; with `--trace 1` it holds the per-layer metrics from spans recorded
around each library call. `--workload all` runs every workload, each in its
own process. See bench/README.md for the metrics and the compare command.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOAD_NAMES = ("tables", "selfref", "halting_sweep", "sentences")
SETUP_PROBES = 11
COLD_STARTS = 3
SUBPROCESS_TIMEOUT = 60
# setup ends when diagkit and diagkit.cli are imported and one command has run
SETUP_PROBE = """
import contextlib, io, time
import diagkit, diagkit.cli
with contextlib.redirect_stdout(io.StringIO()):
    diagkit.cli.run_command(["demo", "powerset"])
print(time.monotonic())
"""


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="how long the loop runs")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append this run's record as one JSON line to this file")
    return p.parse_args(argv)


def fail_setup(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def git_sha(root: str) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True,
            text=True, timeout=SUBPROCESS_TIMEOUT,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_record(args: argparse.Namespace, root: str) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(root),
        "loadavg_at_start": list(os.getloadavg()),
    }


def setup_probe(root: str) -> tuple[float, float]:
    """Seconds from starting a fresh process to ready, and the speed probe.

    The process is waited for. The speed probe is the median of five probes
    run just before it.
    """
    speed = statistics.median(probe() for _ in range(5))
    start = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE], cwd=root, env=child_env(root),
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT,
    )
    if out.returncode != 0:
        fail_setup(f"setup probe failed: {out.stderr.strip()[-500:]}")
    return float(out.stdout.split()[-1]) - start, speed


def cold_start_ms(root: str, golden: bytes) -> tuple[float, bool]:
    """`python -m diagkit.cli demo powerset` as a subprocess, to exit."""
    samples, ok = [], True
    for _ in range(COLD_STARTS):
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-m", "diagkit.cli", "demo", "powerset"], cwd=root,
            env=child_env(root), capture_output=True, timeout=SUBPROCESS_TIMEOUT,
        )
        samples.append((time.perf_counter() - start) * 1000)
        ok = ok and out.returncode == 0 and out.stdout == golden
    return statistics.median(samples), ok


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten items beyond it: value, percentile, n."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


# On a shared 2-CPU virtual machine the CPU speed was seen to drift by 40 % and
# more, within a run and between runs, with this process the only busy one;
# no statistic over raw times hides that. So a fixed pure-Python probe, which
# does not touch the library, is timed before every untraced round, and every
# time a metric reports is scaled to the host speed at which the probe takes
# PROBE_REF_S: an item's time is multiplied by PROBE_REF_S over the median
# probe time of its window of rounds. A change to the library moves the item
# times and not the probe, so it moves the metrics as it would move raw times.
# The raw figures are printed beside them and kept in the run record.
WINDOW_SECONDS = 2.0
PROBE_STEPS = 5000
PROBE_REF_S = 0.6e-3  # about the probe's time on that VM when it runs fast
PROBE_TABLE = list(range(7, 7 + 256 * 13, 13))


def probe() -> float:
    """Seconds for a fixed loop of small-integer and list work.

    It creates no container objects, so no garbage collection can fall
    inside it and the heap the items left behind does not change its cost.
    """
    table = PROBE_TABLE
    acc = 0
    start = time.perf_counter()
    for i in range(PROBE_STEPS):
        acc = (acc + table[(i * 7 + acc) & 255]) & 0xFFFF
    return time.perf_counter() - start


def scaled_times(rounds: list[tuple[float, list[float]]]) -> list[float]:
    """Item times scaled to the reference host speed, window by window.

    `rounds` holds (probe seconds, item seconds) per untraced round. A window
    is consecutive rounds holding at least WINDOW_SECONDS of item time; a
    short rest at the end joins the last window.
    """
    windows: list[tuple[list[float], list[float]]] = []
    probes: list[float] = []
    current: list[float] = []
    for probe_s, latencies in rounds:
        probes.append(probe_s)
        current += latencies
        if sum(current) >= WINDOW_SECONDS:
            windows.append((probes, current))
            probes, current = [], []
    if current:
        if windows:
            windows[-1][0].extend(probes)
            windows[-1][1].extend(current)
        else:
            windows.append((probes, current))
    out = []
    for probes, latencies in windows:
        factor = PROBE_REF_S / statistics.median(probes)
        out += [t * factor for t in latencies]
    return out


def run_items(items, tr, first_id: int, log: list) -> None:
    """Call each item once; log (kind, seconds, error or None, item id)."""
    for offset, (kind, fn) in enumerate(items):
        item_id = first_id + offset
        tr.item = item_id
        start = time.perf_counter()
        error = None
        try:
            with tr.span("item", kind=kind):
                fn(tr)
        except Exception as exc:  # an item that raises is a failed item
            error = f"{kind}: {type(exc).__name__}: {exc}"
        log.append((kind, time.perf_counter() - start, error, item_id))


def overhead_ratio(traced: list, untraced: list) -> float:
    """Traced ÷ untraced item time over the traced item mix, kind by kind."""
    by_kind: dict[str, list[list[float]]] = {}
    for log, side in ((traced, 0), (untraced, 1)):
        for kind, seconds, _, _ in log:
            by_kind.setdefault(kind, [[], []])[side].append(seconds)
    num = den = 0.0
    for traced_s, untraced_s in by_kind.values():
        if traced_s and untraced_s:
            num += sum(traced_s)
            den += statistics.mean(untraced_s) * len(traced_s)
    return num / den if den else 0.0


def measure(args: argparse.Namespace, root: str, record: dict) -> tuple[dict, list[str], int]:
    """Run one workload in this process; return metrics, failures and attempts."""
    setup = [setup_probe(root)]
    sys.path.insert(0, os.path.join(root, "src"))
    start = time.perf_counter()
    import diagkit.cli  # noqa: F401  (timed: cli.import_s)

    import_s = time.perf_counter() - start
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(diagkit.__file__).startswith(src + os.sep):
        fail_setup(f"diagkit was imported from {diagkit.__file__}, not from {src}")

    sys.path.insert(0, HERE)
    import spans as tracing
    import workloads

    raw_golden, golden = workloads.load_golden(os.path.join(root, "tests", "golden"))
    rng = random.Random(args.seed)
    tmpdir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=root)
    try:
        workload = workloads.WORKLOADS[args.workload](rng, tmpdir, golden)
        record["input_sizes"] = workload.sizes
        tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
        null = tracing.NullTracer()
        traced_log: list = []
        untraced_log: list = []
        untraced_rounds: list[tuple[float, list[float]]] = []
        r = 0
        loop_start = time.perf_counter()
        deadline = loop_start + args.seconds
        # whole rounds only, so every run ends on the same item mix; the
        # setup probes are spread over the run, between rounds
        while time.perf_counter() < deadline:
            if time.perf_counter() - loop_start >= len(setup) * args.seconds / SETUP_PROBES:
                setup.append(setup_probe(root))
            items = workload.round(r)
            traced = bool(args.trace) and r % 2 == 0
            log = traced_log if traced else untraced_log
            before = len(log)
            probe_s = 0.0 if traced else probe()
            run_items(items, tracer if traced else null, len(traced_log) + len(untraced_log), log)
            if not traced:
                untraced_rounds.append((probe_s, [seconds for _, seconds, _, _ in log[before:]]))
            r += 1
        while len(setup) < SETUP_PROBES:
            setup.append(setup_probe(root))
        golden_log: list = []
        run_items(
            workloads.golden_items(raw_golden, golden, rng, tmpdir),
            tracer, len(traced_log) + len(untraced_log), golden_log,
        )
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    all_logs = traced_log + untraced_log + golden_log
    failures = [error for _, _, error, _ in all_logs if error]
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        selfs = tracing.self_times(tracer.spans)
        sums = tracing.item_self_sums(tracer.spans, selfs)
        for kind, seconds, _, item_id in traced_log + golden_log:
            if sums.get(item_id, 0.0) > seconds + 1e-9:
                failures.append(f"{kind}: span self times exceed the item's wall time")
        cold_ms, cold_ok = cold_start_ms(root, raw_golden["demo_powerset"])
        if not cold_ok:
            failures.append("cold start: output differs from golden demo_powerset")
        layer = tracing.layer_metrics(tracer, selfs)
        units = per_layer_units()
        metrics = {name: (value, units[name]) for name, value in layer.items()}
        metrics["cli.import_s"] = (import_s, "s")
        metrics["cli.cold_start_ms"] = (cold_ms, "ms")
        metrics["trace.overhead_ratio"] = (overhead_ratio(traced_log, untraced_log), "ratio")
        record["traced_items"] = len(traced_log) + len(golden_log)
    else:
        raw = [t for _, latencies in untraced_rounds for t in latencies]
        scaled = scaled_times(untraced_rounds)
        tail_s, tail_pct, n = tail(scaled)
        setup_raw = [seconds for seconds, _ in setup]
        metrics = {
            "throughput_per_s": (len(scaled) / sum(scaled), "items/s"),
            "latency_p50_ms": (statistics.median(scaled) * 1000, "ms"),
            "latency_tail_ms": (tail_s * 1000, "ms"),
            "setup_s": (statistics.median(t * PROBE_REF_S / p for t, p in setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        record["items"] = n
        record["rounds"] = r
        record["tail_percentile"] = tail_pct
        record["probe_ref_ms"] = PROBE_REF_S * 1000
        record["probe_median_ms"] = statistics.median(p for p, _ in untraced_rounds) * 1000
        record["raw"] = {
            "throughput_per_s": len(raw) / sum(raw),
            "latency_p50_ms": statistics.median(raw) * 1000,
            "latency_tail_ms": tail(raw)[0] * 1000,
            "setup_s": statistics.median(setup_raw),
        }
        record["setup_samples_s"] = setup_raw
    attempted = len(all_logs)
    record["error_rate"] = len(failures) / attempted
    return metrics, failures, attempted


def per_layer_units() -> dict[str, str]:
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def print_report(record: dict, metrics: dict, failures: list[str], attempted: int) -> None:
    keys = ("workload", "seed", "trace", "python", "nproc", "git_sha", "loadavg_at_start")
    print("run " + " ".join(f"{k}={record[k]}" for k in keys))
    print(f"input_sizes {json.dumps(record['input_sizes'], sort_keys=True)}")
    if "probe_median_ms" in record:
        print(f"speed probe median {record['probe_median_ms']:.4f} ms; times below are scaled to "
              f"{record['probe_ref_ms']:.4f} ms")
    for name, (value, unit) in metrics.items():
        extra = ""
        if name in record.get("raw", {}):
            extra = f"  (raw {record['raw'][name]:.6g})"
        if name == "latency_tail_ms":
            extra += f"  (p{record['tail_percentile']:.2f} of {record['items']} items)"
        print(f"{name:34s} {value:16.6g} {unit}{extra}")
    print(f"{'error_rate':34s} {record['error_rate']:16.6g} ratio  ({len(failures)} of {attempted})")
    for error in failures[:20]:
        print(f"FAILED {error}", file=sys.stderr)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.out:
            argv += ["--out", args.out]
        out = subprocess.run(argv, capture_output=True, text=True)
        sys.stdout.write(out.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stderr.write(out.stderr)
        worst = max(worst, out.returncode)
        try:
            result = json.loads(out.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return worst


def main(argv: list[str]) -> int:
    # a terminated run still removes its temporary directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    if args.seconds <= 0:
        fail_setup("--seconds must be positive")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "diagkit", "__init__.py")):
        fail_setup("run from the root of a diagkit checkout: src/diagkit is missing")
    if not os.path.isdir(os.path.join(root, "tests", "golden")):
        fail_setup("run from the root of a diagkit checkout: tests/golden is missing")
    if args.workload == "all":
        return run_all(args)

    record = run_record(args, root)
    metrics, failures, attempted = measure(args, root, record)
    print_report(record, metrics, failures, attempted)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(record, **result)) + "\n")
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
