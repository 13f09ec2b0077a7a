"""The one rule for a natural-number input, `errors.natural`, at every entry."""

import pytest
from hypothesis import given, strategies as st

from helpers import deadline

from diagkit import formal as F
from diagkit import universe as U
from diagkit.core import Carrier
from diagkit.errors import InputError

# the entries whose numeric input must be an int of at least 1
POSITIVE = {
    "carrier size": Carrier,
    "matrix size": lambda n: U.bounded_halting_matrix(n, 8),
    "proof-length bound": F.parikh_sentence,
}

# every entry that takes a natural number, by the input it checks
ENTRIES = {
    **POSITIVE,
    "fuel": lambda n: U.evaluate(U.OMEGA, [U.OMEGA], n),
    "program code": U.decode,
    "evaluated program code": lambda n: U.evaluate(n, [0], 8),
    "program argument": lambda n: U.evaluate(10, [n], 8),
    "Gödel number": F.formula_of,
    "program argument reference": lambda n: U.encode(U.Var(n)),
    "program constant": lambda n: U.encode(U.Succ(U.Const(n))),
    "formula numeral": lambda n: F.goedel_number(F.Pred(0, (F.Num(n),))),
    "formula symbol": lambda n: F.goedel_number(F.Pred(n, ())),
}

NON_NATURALS = st.one_of(
    st.integers(max_value=-1),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=8),
    st.lists(st.integers(), max_size=3),
)


@pytest.mark.parametrize("value", [0, -1, 1.5, 2.0, True, None, "3", [1]])
def test_the_entries_that_need_at_least_1_share_one_message(value):
    for what, call in POSITIVE.items():
        with pytest.raises(InputError) as err:
            call(value)
        assert str(err.value) == f"{what} must be an int of at least 1, got {value!r}"


@given(st.sampled_from(sorted(ENTRIES)), NON_NATURALS)
def test_every_entry_rejects_what_is_no_natural_by_name(entry, value):
    # never TypeError from indexing a row, nor ValueError from isqrt
    with deadline(10), pytest.raises(InputError) as err:
        ENTRIES[entry](value)
    assert repr(value) in str(err.value)
