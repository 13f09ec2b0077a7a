"""The node classes that `syntax.Sort.declare` makes from a sort's rows."""

import dataclasses
import pickle

import pytest

from diagkit import formal as F
from diagkit import syntax
from diagkit import universe as U

SORTS = [(U, U.PROGRAMS), (F, F.TERMS), (F, F.FORMULAS)]

NODES = [
    U.IfZero(U.Var(1), U.Const(2), U.Run(U.Const(2208), U.Smn(U.Const(10), U.Var(2)))),
    F.Diag(F.Neg(F.Num(3))),
    F.goedel_sentence().c,
    F.ForAll(F.Y, F.Imp(F.Unquote(F.Var(F.X)), F.Pred(0, (F.Num(1), F.Var(9))))),
]


@pytest.mark.parametrize("module,sort", SORTS, ids=["programs", "terms", "formulas"])
def test_classes_belong_to_the_declaring_module(module, sort):
    for cls, _ in sort.rows:
        assert cls.__module__ == module.__name__
        assert cls.__qualname__ == cls.__name__
        assert getattr(module, cls.__name__) is cls


@pytest.mark.parametrize("node", NODES)
def test_pickle_round_trip_gives_an_equal_value(node):
    back = pickle.loads(pickle.dumps(node))
    assert back == node
    assert hash(back) == hash(node)
    assert back.__class__ is node.__class__


def test_keyword_construction():
    assert U.IfZero(cond=U.Var(1), then=U.Const(2), other=U.Const(3)) == U.IfZero(
        U.Var(1), U.Const(2), U.Const(3)
    )
    assert F.ForAll(var=F.Y, body=F.Not(body=F.Pred(symbol=3, args=[F.Var(code=F.Y)]))) == (
        F.ForAll(F.Y, F.Not(F.Pred(3, (F.Var(F.Y),))))
    )


@pytest.mark.parametrize(
    "node,field",
    [(U.Var(1), "index"), (U.Run(U.Var(1), U.Var(1)), "arg"), (F.Pred(0, ()), "args")],
)
def test_fields_are_frozen(node, field):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(node, field, 0)


def test_positional_class_patterns_match():
    match U.IfZero(U.Var(1), U.Const(2), U.Const(3)):
        case U.IfZero(cond, _, U.Const(other)):
            assert (cond, other) == (U.Var(1), 3)
        case _:
            pytest.fail("IfZero pattern did not match")
    match F.ForAll(F.Y, F.Pred(3, (F.Var(F.Y),))):
        case F.ForAll(var, F.Pred(symbol, (F.Var(code),))):
            assert (var, symbol, code) == (F.Y, 3, F.Y)
        case _:
            pytest.fail("ForAll pattern did not match")


def test_many_fields_are_stored_as_tuples():
    node = F.Pred(0, [F.Var(1)])
    assert node.args == (F.Var(1),)
    assert isinstance(node.args, tuple)
    assert node == F.Pred(0, (F.Var(1),))
    assert hash(node) == hash(F.Pred(0, (F.Var(1),)))


class NotSubclass(F.Not):
    pass


@pytest.mark.parametrize(
    "call",
    [
        lambda: F.FORMULAS.number(U.Var(1)),
        lambda: U.PROGRAMS.format(F.Num(1)),
        lambda: syntax.rewrite(3, lambda n: None),
        lambda: F.goedel_number(NotSubclass(F.Pred(0, ()))),
    ],
    ids=["other-sort-number", "other-sort-format", "non-node", "subclass"],
)
def test_only_a_node_class_of_the_sort_is_a_node(call):
    # a subclass of a node class holds no row of its own, so it is no node
    with pytest.raises(TypeError):
        call()


def test_declare_makes_a_sort_from_rows_alone():
    trees = syntax.Sort(
        "tree",
        atom_error=lambda text, pos: f"bad leaf {text!r}",
        head_error=lambda word, pos: f"bad head {word!r}",
    )
    Leaf, Two = trees.declare(
        ("Leaf", None, {"n": syntax.NAT}),
        ("Two", "two", {"left": trees, "right": trees}),
    )
    assert Leaf.__module__ == __name__
    assert [f.name for f in dataclasses.fields(Two)] == ["left", "right"]
    a, b = Two(Leaf(1), Leaf(2)), Two(Leaf(1), Leaf(5))
    assert trees.number(a) != trees.number(b)
    assert trees.format(a) == "(two 1 2)"
    for node in (a, b):
        assert trees.denumber(trees.number(node)) == node
        assert trees.parse(trees.format(node)) == node
