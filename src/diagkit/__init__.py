"""diagkit: diagonal arguments, certificates, and self-reference at desk scale.

Importing it loads `core` and `errors`; `formal`, `instances` and `universe` on first use."""

import sys
from importlib import import_module

# Sentence numbers reach tens of thousands of digits (nested pairing squares
# magnitudes); the interpreter's int<->str guard would reject printing them.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(2_000_000)

# decoded program trees can chain one unary node per decimal digit
sys.setrecursionlimit(20000)

from .core import (
    Carrier,
    EndoMap,
    EvalMatrix,
    FixedPointWitness,
    NonRepresentabilityReport,
    Section,
    YMap,
    cantor_witness,
    compose_diagonal,
    compose_with_section,
    fixed_points,
    representing_columns,
    verify_fixed_point,
    verify_nonrepresentability,
    weak_diagonal_fixed_point,
)
from .errors import InputError, NotApplicableError

__version__ = "0.1.0"


def __getattr__(name: str):
    # PEP 562: a family loads when first read; the import binds it, so this runs once
    if name in ("formal", "instances", "universe"):
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "formal",
    "instances",
    "universe",
    "Carrier",
    "EndoMap",
    "EvalMatrix",
    "FixedPointWitness",
    "InputError",
    "NonRepresentabilityReport",
    "NotApplicableError",
    "Section",
    "YMap",
    "cantor_witness",
    "compose_diagonal",
    "compose_with_section",
    "fixed_points",
    "representing_columns",
    "verify_fixed_point",
    "verify_nonrepresentability",
    "weak_diagonal_fixed_point",
]
