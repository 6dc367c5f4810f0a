import pytest
from hypothesis import given, strategies as st

from powcov.bitset import ElementSet


def sets_of(n):
    return st.sets(st.integers(min_value=0, max_value=n - 1))


@given(st.integers(min_value=1, max_value=64).flatmap(
    lambda n: st.tuples(st.just(n), sets_of(n), sets_of(n))
))
def test_ops_mirror_python_sets(case):
    n, a, b = case
    ea = ElementSet.from_indices(a, n)
    eb = ElementSet.from_indices(b, n)
    assert set(ea | eb) == a | b
    assert set(ea & eb) == a & b
    assert set(ea - eb) == a - b
    assert ea.issubset(eb) == (a <= b)
    assert len(ea) == len(a)
    assert sorted(ea) == sorted(a)
    assert bool(ea) == bool(a)
    for i in range(n):
        assert (i in ea) == (i in a)


def test_constructors():
    assert list(ElementSet.empty(5)) == []
    assert list(ElementSet.full(3)) == [0, 1, 2]
    assert list(ElementSet.singleton(2, 4)) == [2]
    assert ElementSet.from_indices([3, 1, 3], 6).indices() == (1, 3)


def test_range_and_ambient_checks():
    with pytest.raises(ValueError):
        ElementSet.singleton(4, 4)
    with pytest.raises(ValueError):
        ElementSet(1 << 5, 5)
    with pytest.raises(ValueError, match="ambient size"):
        ElementSet.empty(4) | ElementSet.empty(5)
    with pytest.raises(ValueError, match="ambient size"):
        ElementSet.empty(4) & ElementSet.empty(5)
