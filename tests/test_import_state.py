"""Importing diagkit: which process-wide state it changes, and what it loads."""

import json
import os
import pathlib
import subprocess
import sys

# runs in a fresh interpreter: the snapshot leaves out what `site` loaded first
CHILD = r"""
import contextlib, io, json, signal, sys, warnings

def state():
    return repr((list(warnings.filters), list(sys.path),
                 signal.getsignal(signal.SIGINT), sys.getswitchinterval()))

kept = state()
before = set(sys.modules)
import diagkit, diagkit.cli
after = state()
with contextlib.redirect_stdout(io.StringIO()):
    code = diagkit.cli.run_command(["demo", "powerset"])
new = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps({
    "state": [kept, after],
    "recursion_limit": sys.getrecursionlimit(),
    "int_digits": getattr(sys, "get_int_max_str_digits", lambda: None)(),
    "code": code,
    "foreign": sorted(new - set(sys.stdlib_module_names) - {"diagkit"}),
}))
"""


def _import_in_a_fresh_interpreter():
    src = pathlib.Path(__file__).parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_sets_only_the_two_limits_and_loads_only_the_stdlib():
    seen = _import_in_a_fresh_interpreter()
    kept, after = seen["state"]
    # warnings.filters, sys.path, the SIGINT handler and the switch interval
    assert after == kept
    assert seen["recursion_limit"] == 20000
    digits = 2_000_000 if hasattr(sys, "get_int_max_str_digits") else None
    assert seen["int_digits"] == digits
    assert seen["code"] == 0
    assert seen["foreign"] == []
