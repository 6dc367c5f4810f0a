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
    assert ea.bits == sum(1 << i for i in a)
    assert frozenset(ElementSet(ea.bits | eb.bits, n)) == a | b
    assert frozenset(ElementSet(ea.bits & eb.bits, n)) == a & b
    assert (ea.bits & ~eb.bits == 0) == (a <= b)
    assert len(ea) == len(a)
    assert list(ea) == sorted(a)
    assert bool(ea) == bool(a)
    for i in range(n):
        assert (i in ea) == (i in a)


def test_constructors():
    assert list(ElementSet(0, 5)) == []
    assert list(ElementSet.full(3)) == [0, 1, 2]
    assert list(ElementSet.full(0)) == []
    assert tuple(ElementSet.from_indices([3, 1, 3], 6)) == (1, 3)
    assert repr(ElementSet.from_indices([2, 0], 4)) == "ElementSet({0,2}, n=4)"


def test_range_and_ambient_checks():
    with pytest.raises(ValueError, match="index 4 out of range"):
        ElementSet.from_indices([4], 4)
    with pytest.raises(ValueError, match="index -1 out of range"):
        ElementSet.from_indices([-1], 4)
    with pytest.raises(ValueError):
        ElementSet(1 << 5, 5)
    with pytest.raises(ValueError):
        ElementSet(-1, 5)
    with pytest.raises(ValueError, match="negative ambient size"):
        ElementSet(0, -1)
