"""First-order-style formulas with self-reference plumbing.

Formulas and terms carry two object-level function symbols on numerals:
`diag`, whose reduction substitutes a formula's own number into itself, and
`neg`, whose reduction takes a number to the number of the negated formula.
Keeping them as inert syntax until reduced is what makes a sentence that
refers to its own number well-founded: the number can be computed before the
occurrence is filled in.

The central construction turns a formula E with one free variable into a
closed C whose diag-reduction is literally E with C's own number plugged in.
There is no proof calculus here; the certificate is that decidable syntactic
identity, checked on explicit trees.

Reduction fires exactly the diag/neg redexes present in its input and does
not re-scan the rewritten spots: computed numerals may spell new redexes
(a `neg` whose argument a `diag` just produced, or the unquoted body of a
self-implication), and firing those would either desynchronize the two sides
of the certificate identity or, for unquote, regenerate the sentence forever.
Unquoting is therefore a separate single-step operation, applied on demand.

Gödel numbers come from a tagged Cantor-pairing scheme with a fixed symbol
table and variable registry, so they are reproducible bit for bit, and every
natural number decodes to a formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Union

from . import syntax
from .errors import InputError

Term = Union["Var", "Num", "Diag", "Neg"]
Formula = Union[
    "Pred", "Less", "Not", "And", "Or", "Imp", "Iff", "ForAll", "Exists", "Unquote"
]


# fixed per session: no dynamic interning, numbers are reproducible
SYMBOLS: dict[str, tuple[int, int]] = {
    "Prov": (0, 2),
    "Prflen": (1, 2),
    "T": (2, 1),
    "P": (3, 1),
    "Q": (4, 1),
    "R": (5, 2),
}

VAR_NAMES = ("x", "y", "z", "w", "u", "v", "m", "n")
X, Y, Z, W, U, V, M, N = range(8)


def var_name(code: int) -> str:
    return VAR_NAMES[code] if code < len(VAR_NAMES) else f"x{code}"


def var_code(name: str) -> Optional[int]:
    if name in VAR_NAMES:
        return VAR_NAMES.index(name)
    if name.startswith("x"):
        return syntax.NAT.code(name[1:])
    return None


def _unknown_term(text: str, pos: int) -> str:
    return f"unknown symbol {text!r} at offset {pos} (expected a term)"


_VAR = syntax.Scalar(var_name, var_code)
TERMS = syntax.Sort("term", atom_error=_unknown_term, head_error=_unknown_term)
Var, Num, Diag, Neg = TERMS.declare(
    ("Var", None, {"code": _VAR}),
    ("Num", None, {"value": syntax.NAT}),
    ("Diag", "diag", {"arg": TERMS}),
    ("Neg", "neg", {"arg": TERMS}),
)
FORMULAS = syntax.Sort(
    "formula",
    atom_error=lambda text, pos: f"expected a formula at offset {pos}, found atom {text!r}",
    head_error=lambda word, pos: f"unknown symbol {word!r} at offset {pos}",
)
Pred, Less, Not, And, Or, Imp, Iff, ForAll, Exists, Unquote = FORMULAS.declare(
    ("Pred", SYMBOLS, {"symbol": syntax.NAT, "args": syntax.Many(TERMS)}),
    ("Less", "<", {"left": TERMS, "right": TERMS}),
    ("Not", "not", {"body": FORMULAS}),
    ("And", "and", {"left": FORMULAS, "right": FORMULAS}),
    ("Or", "or", {"left": FORMULAS, "right": FORMULAS}),
    ("Imp", "imp", {"left": FORMULAS, "right": FORMULAS}),
    ("Iff", "iff", {"left": FORMULAS, "right": FORMULAS}),
    ("ForAll", "forall", {"var": _VAR, "body": FORMULAS}),
    ("Exists", "exists", {"var": _VAR, "body": FORMULAS}),
    # the formula spelled by a number; inert until explicitly unquoted
    ("Unquote", "unq", {"arg": TERMS}),
)


def term_number(t: Term) -> int:
    return TERMS.number(t)


def term_of(n: int) -> Term:
    return TERMS.denumber(n)


def goedel_number(phi: Formula) -> int:
    """Number of a formula under the fixed tagged-pairing scheme."""
    return FORMULAS.number(phi)


def formula_of(n: int) -> Formula:
    """Total inverse of `goedel_number`: every natural spells a formula."""
    return FORMULAS.denumber(n)


def free_vars(phi: Formula) -> frozenset[int]:
    """The free variables of a formula or a term."""
    if isinstance(phi, Var):
        return frozenset((phi.code,))
    out: frozenset[int] = frozenset()
    for child in syntax.children(phi):
        out |= free_vars(child)
    if isinstance(phi, (ForAll, Exists)):
        out -= {phi.var}
    return out


def _subst(phi: Formula, v: int, r: Term) -> Formula:
    def replace(node: Any) -> Any:
        if isinstance(node, Var):
            return r if node.code == v else node
        if isinstance(node, (ForAll, Exists)) and node.var == v:
            return node
        return None

    return syntax.rewrite(phi, replace)


def substitute(phi: Formula, v: int, t: Term) -> Formula:
    """Replace the free occurrences of v by the closed term t."""
    if free_vars(t):
        raise InputError("substituted term must be closed")
    return _subst(phi, v, t)


def diag_meta(n: int) -> int:
    """Number of the formula spelled by n with its own number plugged in.

    The one-free-variable requirement is what makes the result closed.
    """
    phi = formula_of(n)
    free = free_vars(phi)
    if len(free) != 1:
        raise InputError(
            f"diagonalization needs exactly one free variable, found {len(free)}"
        )
    (v,) = free
    return goedel_number(_subst(phi, v, Num(n)))


def _neg_meta(n: int) -> int:
    return goedel_number(Not(formula_of(n)))


def _is_redex(node: Any) -> bool:
    return isinstance(node, (Diag, Neg)) and isinstance(node.arg, Num)


def _fire(node: Any) -> Any:
    # a rewritten spot is not re-scanned: only redexes of the input fire
    if _is_redex(node):
        meta = diag_meta if isinstance(node, Diag) else _neg_meta
        return Num(meta(node.arg.value))
    return None


def reduce_diag(phi: Formula) -> Formula:
    """Rewrite every diag/neg-on-numeral redex of the input, innermost first.

    Numerals produced by a rewrite are not themselves re-examined; see the
    module docstring for why. Unquote nodes are left inert.
    """
    return syntax.rewrite(phi, _fire)


def unquote_once(phi: Formula) -> Formula:
    """Replace each Unquote-on-numeral of the input by the formula it spells.

    Single-step on purpose: a self-implication's body contains its own quote,
    so normalizing would never finish.
    """

    def unquote(node: Any) -> Optional[Formula]:
        if isinstance(node, Unquote) and isinstance(node.arg, Num):
            return formula_of(node.arg.value)
        return None

    return syntax.rewrite(phi, unquote)


def _contains_redex(node: Any) -> bool:
    if _is_redex(node):
        return True
    for child in syntax.children(node):
        if _contains_redex(child):
            return True
    return False


@dataclass(frozen=True)
class LemmaCertificate:
    """A fixed-point sentence C for E together with its decidable check."""

    e: Formula
    variable: int
    g: Formula
    c: Formula
    g_number: int
    c_number: int
    reduced: Formula
    target: Formula

    @property
    def verified(self) -> bool:
        """Reducing C reproduced, tree for tree, E with C's own number for its variable."""
        return syntax.same(self.reduced, self.target)


def diagonal_sentence(e: Formula, v: int) -> LemmaCertificate:
    """Close E over its single free variable v into a self-referential C.

    G is E applied to the diagonalization of its own argument; C is G at G's
    own number. Requires free(E) = {v} and no diag/neg redex in E (a redex
    would fire during the check and desynchronize the sides).
    """
    if free_vars(e) != frozenset((v,)):
        raise InputError(
            f"formula must have exactly the designated free variable {var_name(v)!r}"
        )
    if _contains_redex(e):
        raise InputError("formula must not contain a diag or neg applied to a numeral")
    g = _subst(e, v, Diag(Var(v)))
    g_number = goedel_number(g)
    c = _subst(g, v, Num(g_number))
    c_number = goedel_number(c)
    reduced = reduce_diag(c)
    target = _subst(e, v, Num(c_number))
    return LemmaCertificate(
        e=e,
        variable=v,
        g=g,
        c=c,
        g_number=g_number,
        c_number=c_number,
        reduced=reduced,
        target=target,
    )


def verify_sentence(cert: LemmaCertificate) -> bool:
    """Recheck from scratch that C has c_number and reduces to E at c_number."""
    return (
        cert.verified
        and syntax.same(reduce_diag(cert.c), cert.target)
        and syntax.same(cert.target, _subst(cert.e, cert.variable, Num(cert.c_number)))
        and goedel_number(cert.c) == cert.c_number
    )


def goedel_sentence() -> LemmaCertificate:
    """C equivalent to "no y proves C": for all y, not Prov(y, C)."""
    e = ForAll(Y, Not(Pred(SYMBOLS["Prov"][0], (Var(Y), Var(X)))))
    return diagonal_sentence(e, X)


def rosser_sentence() -> LemmaCertificate:
    """C saying every proof of C has a shorter proof of C's negation below it."""
    prov = SYMBOLS["Prov"][0]
    e = ForAll(
        Y,
        Imp(
            Pred(prov, (Var(Y), Var(X))),
            Exists(W, And(Less(Var(W), Var(Y)), Pred(prov, (Var(W), Neg(Var(X)))))),
        ),
    )
    return diagonal_sentence(e, X)


def tarski_sentence() -> LemmaCertificate:
    """C equivalent to "C is not true": not T(C)."""
    e = Not(Pred(SYMBOLS["T"][0], (Var(X),)))
    return diagonal_sentence(e, X)


def parikh_sentence(n: int) -> LemmaCertificate:
    """C_n saying "I have no proof shorter than n"."""
    if n < 1:
        raise InputError("proof-length bound must be at least 1")
    e = Not(
        Exists(
            M,
            And(Less(Var(M), Num(n)), Pred(SYMBOLS["Prflen"][0], (Var(M), Var(X)))),
        )
    )
    return diagonal_sentence(e, X)


def curry_sentence(a: Formula) -> LemmaCertificate:
    """C equivalent to "if C then A", for a closed A; unquote stays inert."""
    if free_vars(a):
        raise InputError("the consequent must be a closed formula")
    e = Imp(Unquote(Var(X)), a)
    return diagonal_sentence(e, X)


def format_term(t: Term) -> str:
    return TERMS.format(t)


def format_formula(phi: Formula) -> str:
    return FORMULAS.format(phi)


def parse_formula(text: str) -> Formula:
    """Read the prefix notation; unknown symbols are rejected with a position."""
    return FORMULAS.parse(text)
