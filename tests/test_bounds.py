import itertools

import pytest
from hypothesis import given, strategies as st

from latticestick.bounds import arc_index_upper, construction_count, crossing_stick_bound
from latticestick.errors import InvalidCounts
from oracles import binding_point_count, bounds_agree


def test_binding_point_count_values():
    assert binding_point_count(6, 2, 3) == 5
    assert binding_point_count(2, 1, 1) == 2
    assert binding_point_count(1, 2, 1) == 2


def test_binding_point_count_rejects_nonpositive():
    with pytest.raises(InvalidCounts):
        binding_point_count(1, 1, 3)


def test_arc_index_upper_values():
    assert arc_index_upper(3, 1, 1) == 5
    # six-page presentation of a theta curve with three crossings
    assert arc_index_upper(3, 3, 0) == 6
    assert arc_index_upper(0, 3, 0) == 3


def test_construction_count_values():
    assert construction_count(2, 1, 1, 1, 1) == 4
    assert construction_count(5, 1, 1, 1, 1) == 13
    assert construction_count(3, 3, 2, 1, 0) == 8


def test_crossing_stick_bound_values():
    assert crossing_stick_bound(3, 1, 1, 1, 1, 1) == 13
    assert crossing_stick_bound(4, 1, 1, 1, 1, 1) == 16
    assert crossing_stick_bound(3, 3, 2, 1, 0, 0) == 17


def test_bounds_agree_small_exhaustive():
    for c, e, v, s, b, k in itertools.product(range(7), repeat=6):
        try:
            assert bounds_agree(c, e, v, s, b, k)
        except InvalidCounts:
            pass


@given(
    c=st.integers(0, 10**6),
    e=st.integers(1, 10**6),
    v=st.integers(1, 10**6),
    s=st.integers(1, 10**6),
    b=st.integers(0, 10**6),
    k=st.integers(0, 10**6),
)
def test_bounds_agree_randomized(c, e, v, s, b, k):
    try:
        assert bounds_agree(c, e, v, s, b, k)
    except InvalidCounts:
        pass

