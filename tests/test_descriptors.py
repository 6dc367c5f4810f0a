import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from powcov.catalog import CatalogEntry, select_entries
from powcov.cli import main
from powcov.descriptors import (
    KINDS, LEAST_ORDER, DescriptorError, GroupDescriptor, parse_descriptor, prime_power,
)
from powcov.groups import build_group

S3_PERM = Path(__file__).resolve().parent / "data" / "s3.perm"


def test_basic_kinds():
    d = parse_descriptor("dihedral:32")
    assert d.kind == "dihedral" and d.params == (32,)
    assert str(parse_descriptor("cyclic:7")) == "cyclic:7"
    e = parse_descriptor("elementary:3^2")
    assert e.kind == "elementary" and e.params == (3, 2)


def test_product_nesting():
    d = parse_descriptor("product:(dihedral:8,cyclic:2)")
    assert d.kind == "product"
    left, right = d.params
    assert left.kind == "dihedral" and right.kind == "cyclic"
    nested = parse_descriptor("product:(product:(cyclic:2,cyclic:2),cyclic:2)")
    assert nested.params[0].kind == "product"


def test_file_kind():
    d = parse_descriptor("file:/tmp/some.cayley")
    assert d.kind == "file" and d.params == ("/tmp/some.cayley",)


def test_perm_kind():
    d = parse_descriptor("perm:/tmp/some.perm")
    assert d.kind == "perm" and d.params == ("/tmp/some.perm",) and d.order is None


def test_order_property():
    assert parse_descriptor("cyclic:1").order == 1
    assert parse_descriptor("dihedral:32").order == 32
    assert parse_descriptor("elementary:3^4").order == 81
    nested = parse_descriptor("product:(product:(cyclic:2,quaternion:8),elementary:5^2)")
    assert nested.order == 2 * 8 * 25
    assert parse_descriptor("file:/tmp/some.cayley").order is None


def test_order_matches_built_group():
    from powcov.catalog import builtin_catalog

    for e in builtin_catalog(max_order=32):
        assert parse_descriptor(e.source).order == build_group(e.source).order


@pytest.mark.parametrize(
    "bad",
    [
        "quaternion:6",
        "dihedral:3",
        "dihedral:2",
        "semidihedral:8",
        "modular:4",
        "elementary:4^2",
        "elementary:3^0",
        "cyclic:0",
        "cyclic:x",
        "unknown:5",
        "product:(cyclic:2)",
        "product:(cyclic:2,cyclic:2",
        "dihedral:16x",
        "dihedral:16 powerful",
        "",
        "dihedral:12",
        "quaternion:24",
        "semidihedral:24",
        "modular:24",
        "perm:",
        "perm:a,b",
    ],
)
def test_rejections(bad):
    with pytest.raises(DescriptorError):
        parse_descriptor(bad)


def test_every_kind_builds_and_keeps_its_order(tmp_path, capsys):
    cayley = tmp_path / "d8.cayley"
    assert main(["construct", "dihedral:8", "--out", str(cayley)]) == 0
    examples = [f"{kind}:{least}" for kind, least in LEAST_ORDER.items()] + [
        "cyclic:6",
        "elementary:3^2",
        "product:(dihedral:8,cyclic:3)",
        f"file:{cayley}",
        f"perm:{S3_PERM}",
    ]
    descriptors = [parse_descriptor(text) for text in examples]
    # A kind the grammar admits but build_group cannot build fails here.
    assert sorted(d.kind for d in descriptors) == sorted(KINDS)
    orders = {}
    for d in descriptors:
        g = build_group(d)
        assert d.order in (None, g.order)
        orders[d.kind] = g.order
    assert (orders["file"], orders["perm"]) == (8, 6)


@pytest.mark.parametrize("kind", sorted(LEAST_ORDER))
def test_each_family_starts_at_its_least_order(kind):
    least = LEAST_ORDER[kind]
    assert build_group(f"{kind}:{least}").order == least
    with pytest.raises(DescriptorError, match=f"{kind} order must be a power of 2, >= {least}"):
        parse_descriptor(f"{kind}:{least // 2}")


def test_prime_power():
    assert [n for n in range(1, 33) if prime_power(n)] == [
        2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
    ]
    assert prime_power(1) is None and prime_power(0) is None and prime_power(12) is None
    assert prime_power(2) == (2, 1) and prime_power(81) == (3, 4) and prime_power(343) == (7, 3)


def test_a_huge_family_order_is_rejected_at_once():
    # Trial division would take hours on this 40-digit odd order.
    with pytest.raises(DescriptorError, match="dihedral order must be a power of 2"):
        parse_descriptor(f"dihedral:{10**39 + 7}")


HUGE_ELEMENTARY = [
    "elementary:1000000000000000003^1",  # trial division would run to 10^9
    "elementary:2^99999999999",  # GroupDescriptor.order would form 2^(10^11)
    "elementary:3^999999999",
]


@pytest.mark.parametrize("text", HUGE_ELEMENTARY)
def test_a_huge_elementary_descriptor_is_refused_at_once(text, capsys):
    t0 = time.perf_counter()
    with pytest.raises(DescriptorError, match=r"exceeds construction cap 512 \(in "):
        parse_descriptor(text)
    # Under --max-order the entry is kept, and its build meets the same error.
    assert select_entries([CatalogEntry("x", text)], 64) == [CatalogEntry("x", text)]
    assert main(["sigma", text, "all", "--no-cache"]) == 2
    assert "exceeds construction cap 512" in capsys.readouterr().err
    assert time.perf_counter() - t0 < 1


@pytest.mark.parametrize(
    "text, message",
    [
        ("elementary:4^2", "4 is not prime"),
        ("elementary:4^99999999999", "4 is not prime"),
        ("elementary:3^0", "exponent must be >= 1"),
    ],
)
def test_a_small_prime_keeps_its_message(text, message):
    with pytest.raises(DescriptorError, match=f"^{message} "):
        parse_descriptor(text)


def test_surrounding_whitespace_tolerated():
    assert str(parse_descriptor("  dihedral:16\n")) == "dihedral:16"


def test_error_carries_position():
    with pytest.raises(DescriptorError) as exc:
        parse_descriptor("quaternion:6")
    assert "position" in str(exc.value)


def test_passthrough_and_idempotence():
    d = parse_descriptor("dihedral:16")
    assert parse_descriptor(d) is d


atoms = st.one_of(
    st.sampled_from([2, 4, 8, 16]).map(lambda m: f"dihedral:{max(m, 4)}"),
    st.integers(min_value=1, max_value=30).map(lambda m: f"cyclic:{m}"),
    st.sampled_from([8, 16, 32]).map(lambda m: f"quaternion:{m}"),
    st.sampled_from([(2, 2), (2, 3), (3, 2), (5, 2)]).map(
        lambda pk: f"elementary:{pk[0]}^{pk[1]}"
    ),
)
trees = st.recursive(
    atoms, lambda kids: st.tuples(kids, kids).map(lambda ab: f"product:({ab[0]},{ab[1]})"),
    max_leaves=4,
)


@given(trees)
def test_canonical_round_trip(text):
    d = parse_descriptor(text)
    assert str(parse_descriptor(str(d))) == str(d)
    assert d.canonical() == str(d)
