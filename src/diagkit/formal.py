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

from dataclasses import dataclass, field
from typing import Any, Optional

from . import syntax
from .errors import InputError, natural

Term = Any  # a node of TERMS
Formula = Any  # a node of FORMULAS


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
    """The code `var_name` spells as `name`: one spelling per variable, so x1 is no y."""
    if name in VAR_NAMES:
        return VAR_NAMES.index(name)
    code = syntax.NAT.code(name[1:]) if name.startswith("x") else None
    return code if code is not None and var_name(code) == name else None


_VAR = syntax.Scalar(var_name, var_code)
TERMS = syntax.Sort("term")
Var, Num, Diag, Neg = TERMS.declare(
    ("Var", None, {"code": _VAR}),
    ("Num", None, {"value": syntax.NAT}),
    ("Diag", "diag", {"arg": TERMS}),
    ("Neg", "neg", {"arg": TERMS}),
)
FORMULAS = syntax.Sort("formula")
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


goedel_number = FORMULAS.number
format_formula, parse_formula = FORMULAS.format, FORMULAS.parse


def formula_of(n: int) -> Formula:
    """The formula numbered n, for a natural n; every natural is a formula."""
    return FORMULAS.denumber(natural(n, "Gödel number"))


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
    """A fixed-point sentence C for E together with its decidable check.

    Built from E and its single free variable alone. G is E applied to the
    diagonalization of its own argument; C is G at G's own number; reduced is
    C diag-reduced and target is E with C's number for its variable.
    Requires free(E) = {variable} and no diag/neg redex in E (a redex would
    fire during the check and desynchronize the sides).
    """

    e: Formula
    variable: int
    g: Formula = field(init=False)
    g_number: int = field(init=False)
    c: Formula = field(init=False)
    c_number: int = field(init=False)
    reduced: Formula = field(init=False)
    target: Formula = field(init=False)

    def __post_init__(self) -> None:
        e, v = self.e, self.variable
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
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "g_number", g_number)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "c_number", c_number)
        object.__setattr__(self, "reduced", reduce_diag(c))
        object.__setattr__(self, "target", _subst(e, v, Num(c_number)))

    @property
    def verified(self) -> bool:
        """Reducing C reproduced, tree for tree, E with C's own number for its variable."""
        return syntax.same(self.reduced, self.target)


# close E over its single free variable into a self-referential C
diagonal_sentence = LemmaCertificate


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
    natural(n, "proof-length bound", least=1)
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
