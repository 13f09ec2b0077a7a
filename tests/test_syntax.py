"""The node classes that `syntax.Sort.declare` makes from a sort's rows."""

import dataclasses
import pickle
import random

import pytest

from diagkit import formal as F
from diagkit import sexpr, syntax
from diagkit import universe as U
from diagkit.errors import InputError

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


@pytest.mark.parametrize(
    "call",
    [
        lambda: F.FORMULAS.number(U.Var(1)),
        lambda: U.PROGRAMS.format(F.Num(1)),
        lambda: syntax.rewrite(3, lambda n: None),
        # node classes are final: a subclass would number and print as its parent
        lambda: type("NotSubclass", (F.Not,), {}),
    ],
    ids=["other-sort-number", "other-sort-format", "non-node", "subclass"],
)
def test_only_a_node_class_of_the_sort_is_a_node(call):
    with pytest.raises(TypeError):
        call()


def test_declare_makes_a_sort_from_rows_alone():
    trees = syntax.Sort("tree")
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
    # the reader's messages come from the sort's name and rows
    with pytest.raises(InputError) as err:
        trees.parse("(two 1 %1)")
    assert str(err.value) == "'%1' at offset 7 is no tree"


@pytest.mark.parametrize(
    "sort,text,message",
    [
        # bad atom
        (U.PROGRAMS, "%x", "'%x' at offset 0 is no expression"),
        (U.PROGRAMS, "(succ foo)", "'foo' at offset 6 is no expression"),
        (F.TERMS, "(diag %1)", "'%1' at offset 6 is no term"),
        (F.FORMULAS, "(not x)", "'x' at offset 5 is no formula"),
        # unknown head
        (U.PROGRAMS, "(Bogus 1)", "unknown expression operator 'Bogus' at offset 0"),
        (F.TERMS, "(quote 1)", "unknown term operator 'quote' at offset 0"),
        (F.FORMULAS, "(Bogus)", "unknown formula operator 'Bogus' at offset 0"),
        # wrong arity: the plural is read off the arity
        (U.PROGRAMS, "(succ 1 2)", "succ takes 1 argument (offset 0)"),
        (U.PROGRAMS, "(pair 1)", "pair takes 2 arguments (offset 0)"),
        (F.TERMS, "(neg)", "neg takes 1 argument (offset 0)"),
        (F.FORMULAS, "(T 1 2)", "T takes 1 argument (offset 0)"),
        (F.FORMULAS, "(Prov 1)", "Prov takes 2 arguments (offset 0)"),
        (F.FORMULAS, "(forall x)", "forall takes 2 arguments (offset 0)"),
        # a list where an operator belongs
        (U.PROGRAMS, "((succ) 1)", "expected an operator at offset 0"),
        (F.TERMS, "()", "expected an operator at offset 0"),
        (F.FORMULAS, "(not ())", "expected an operator at offset 5"),
        # a scalar field given a list or an unknown name
        (F.FORMULAS, "(forall (P x) (P x))", "'(' at offset 8 is no variable"),
        (F.FORMULAS, "(exists q (P q))", "'q' at offset 8 is no variable"),
        (F.FORMULAS, "(forall x1 (P y))", "'x1' at offset 8 is no variable"),
        # sexpr.parse's own messages
        (U.PROGRAMS, "  ", "empty expression"),
        (F.TERMS, "(diag (neg 1)", "unclosed '(' at offset 0"),
        (F.FORMULAS, "(P x))", "unexpected ')' at offset 5"),
    ],
    ids=lambda value: value.name if isinstance(value, syntax.Sort) else None,
)
def test_reader_messages(sort, text, message):
    with pytest.raises(InputError) as err:
        sort.parse(text)
    assert str(err.value) == message


def test_a_non_node_is_named_in_the_sorts_words():
    with pytest.raises(TypeError) as err:
        U.PROGRAMS.number(F.Num(1))
    assert str(err.value) == "Num(value=1) is no expression"
    with pytest.raises(TypeError) as err:
        syntax.children(3)
    assert str(err.value) == "3 is no node"


@pytest.mark.parametrize(
    "values", [(1, True, 1.0), (1.0, True, 1)], ids=["int-first", "float-first"]
)
def test_numerals_print_as_str_prints_them_in_either_order(values):
    # an untyped memo prints the later of 1, True and 1.0 as the first
    syntax.NAT.name.cache_clear()
    for _ in range(2):
        assert [F.TERMS.format(F.Num(v)) for v in values] == [str(v) for v in values]


def test_numeral_memo_stays_bounded():
    syntax.NAT.name.cache_clear()
    maxsize = syntax.NAT.name.cache_info().maxsize
    for n in range(3 * maxsize):
        assert F.TERMS.format(F.Num(10**40 + n)) == str(10**40 + n)
    info = syntax.NAT.name.cache_info()
    assert info.misses >= 3 * maxsize
    assert info.currsize <= maxsize


def _curry_and_chain(depth):
    a = F.Pred(F.SYMBOLS["P"][0], (F.Num(0),))
    for _ in range(depth):
        a = F.And(a, F.Pred(F.SYMBOLS["P"][0], (F.Num(0),)))
    return F.curry_sentence(a)


@pytest.mark.parametrize(
    "build", [F.rosser_sentence, lambda: _curry_and_chain(6)], ids=["rosser", "curry-and-6"]
)
def test_cold_and_warm_numeral_memo_print_the_same_texts(build):
    cert = build()
    nodes = (cert.e, cert.g, cert.c, cert.reduced, cert.target)
    syntax.NAT.name.cache_clear()
    cold = [F.format_formula(p) for p in nodes]
    warm = [F.format_formula(p) for p in nodes]
    assert warm == cold
    assert syntax.NAT.name.cache_info().hits > 0
    # C's number prints in both sides of the certificate
    c_digits = str(cert.c_number)
    assert cold[3].count(c_digits) == cold[4].count(c_digits) > 0


def test_a_numeral_that_is_a_list_does_not_print():
    # a list is no natural; the memo cannot hash it (it used to print as (T [1]))
    with pytest.raises(TypeError, match="unhashable"):
        F.format_formula(F.Pred(F.SYMBOLS["T"][0], (F.Num([1]),)))


def test_a_sort_without_a_symbol_table_reads_no_sym():
    with pytest.raises(InputError, match="^unknown expression operator 'sym1' at offset 0$"):
        U.parse_program("(sym1 %1)")


# a sort whose leaf and bound variable read any word as its length, brackets
# included: the one-pass reader must not read a bracket where `read` sees none
LAX = syntax.Sort("lax")
LAX.declare(
    ("Word", None, {"n": syntax.Scalar(str, len)}),
    ("Two", "two", {"left": LAX, "right": LAX}),
    ("Bind", "bind", {"var": syntax.Scalar(str, len), "body": LAX}),
)

# texts at the reader's edges; some read and some do not
EDGE_TEXTS = [
    "(ifz (run %1 %1) 1 (pred %1))",
    "(smn 2208 (pair %1 (snd %2)))",
    "(diag (neg x12))",
    "(forall y (not (Prov y x)))",
    "(and (R (diag x) 7) (exists z (P (neg z))))",
    "(Prov x y)",
    "(Prov x y z)",
    "(T (diag x) )",
    "(bind y (two x y))",
    # brackets where a lax word would read them
    "(bind ( x)",
    "(bind ) x)",
    "(two 1 ) )",
    # a sym<k> head at and off its word's arity, and a numeral past int()'s digit limit
    "(sym0 x y)",
    "(sym3 0 1)",
    "(not (sym12 (diag 0) x))",
    "(succ " + "7" * 5000 + ")",
    "(neg " + "7" * 5000 + ")",
]

# words a mutation inserts: brackets, heads of each sort, leaves and near-misses
EXTRA_WORDS = ["(", ")", "(", ")", "succ", "pair", "diag", "not", "forall", "Prov", "P",
               "two", "bind", "sym3", "%1", "%0", "7", "x", "y", "x1", "q", "²", "-1"]


def _outcome(call):
    try:
        return call()
    except (LookupError, ValueError) as exc:
        return type(exc), str(exc)


def _mutants(text, rng, count):
    """Copies of text with one or two words deleted, inserted or swapped."""
    for _ in range(count):
        words = sexpr.words(text)
        for _ in range(rng.randint(1, 2)):
            roll = rng.randrange(3)
            if roll == 0 and words:
                del words[rng.randrange(len(words))]
            elif roll == 1:
                words.insert(rng.randrange(len(words) + 1), rng.choice(EXTRA_WORDS))
            elif len(words) > 1:
                k = rng.randrange(len(words) - 1)
                words[k], words[k + 1] = words[k + 1], words[k]
        yield " ".join(words)


@pytest.mark.parametrize("sort", [U.PROGRAMS, F.TERMS, F.FORMULAS, LAX], ids=lambda s: s.name)
def test_one_pass_reader_reads_the_language_of_the_tree_reader(sort):
    # parse gives the node read gives from the s-expression tree, or its
    # exception and message, on printed seeded nodes, edge texts and their mutants
    rng = random.Random(sort.name)
    texts = [sort.format(sort.denumber(rng.randrange(10**k))) for k in range(40) for _ in range(4)]
    read = 0
    for text, count in [(t, 8) for t in texts] + [(t, 40) for t in EDGE_TEXTS]:
        for t in [text, *_mutants(text, rng, count)]:
            got = _outcome(lambda: sort.parse(t))
            assert got == _outcome(lambda: sort.read(sexpr.parse(t))), t
            read += not isinstance(got, tuple)
    assert read > 200


def test_well_formed_text_is_read_without_the_tree(monkeypatch):
    def no_tree(text):
        raise AssertionError("sexpr.parse ran on well-formed text")

    monkeypatch.setattr(sexpr, "parse", no_tree)
    assert U.parse_program("(ifz (run %1 %1) 1 (pred %1))") == U.IfZero(
        U.Run(U.Var(1), U.Var(1)), U.Const(1), U.Pred(U.Var(1))
    )
    prov = F.SYMBOLS["Prov"][0]
    assert F.parse_formula("(forall y (not (Prov y x)))") == F.ForAll(
        F.Y, F.Not(F.Pred(prov, (F.Var(F.Y), F.Var(F.X))))
    )
