"""Importing diagkit: which process-wide state it changes, and what it loads."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

# runs in a fresh interpreter, on the command in its argv: the snapshot
# leaves out what `site` loaded first
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
    code = diagkit.cli.run_command(sys.argv[1:])
new = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps({
    "state": [kept, after],
    "recursion_limit": sys.getrecursionlimit(),
    "int_digits": getattr(sys, "get_int_max_str_digits", lambda: None)(),
    "code": code,
    "foreign": sorted(new - set(sys.stdlib_module_names) - {"diagkit"}),
    "diagkit": sorted(m for m in sys.modules if m.partition(".")[0] == "diagkit"),
}))
"""


def _in_a_fresh_interpreter(script, *argv):
    src = pathlib.Path(__file__).parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_sets_only_the_two_limits_and_loads_only_the_stdlib():
    seen = _in_a_fresh_interpreter(CHILD, "demo", "powerset")
    kept, after = seen["state"]
    # warnings.filters, sys.path, the SIGINT handler and the switch interval
    assert after == kept
    assert seen["recursion_limit"] == 20000
    digits = 2_000_000 if hasattr(sys, "get_int_max_str_digits") else None
    assert seen["int_digits"] == digits
    assert seen["code"] == 0
    assert seen["foreign"] == []
    # demo powerset needs no program, formula or data package
    assert seen["diagkit"] == [
        "diagkit", "diagkit.cli", "diagkit.core", "diagkit.errors", "diagkit.instances"
    ]


@pytest.mark.parametrize(
    "argv,unloaded",
    [
        (["formal", "goedel"], {"diagkit.universe", "diagkit.instances"}),
        (["universe", "quine"], {"diagkit.formal", "diagkit.instances"}),
    ],
    ids=["formal", "universe"],
)
def test_a_command_loads_only_its_family(argv, unloaded):
    seen = _in_a_fresh_interpreter(CHILD, *argv)
    assert seen["code"] == 0
    assert unloaded.isdisjoint(seen["diagkit"])


FAMILIES = r"""
import json, sys
import diagkit
names = ("formal", "instances", "universe")
loaded = [f"diagkit.{name}" in sys.modules for name in names]
bound = [getattr(diagkit, name) is sys.modules[f"diagkit.{name}"] for name in names]
try:
    diagkit.bogus
    missing = None
except AttributeError as exc:
    missing = str(exc)
star = {}
exec("from diagkit import *", star)
print(json.dumps({"loaded": loaded, "bound": bound, "missing": missing,
                  "unbound": sorted(set(diagkit.__all__) - set(star))}))
"""


def test_families_load_on_first_use():
    seen = _in_a_fresh_interpreter(FAMILIES)
    assert seen["loaded"] == [False, False, False]
    assert seen["bound"] == [True, True, True]
    assert seen["missing"] == "module 'diagkit' has no attribute 'bogus'"
    assert seen["unbound"] == []
