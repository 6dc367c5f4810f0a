from collections import Counter

import pytest

import powcov.verify

from powcov.verify import (
    CheckResult,
    SUITE_NAMES,
    SuiteReport,
    format_report,
    run_suite,
)
from powcov.catalog import CatalogEntry, select_entries


def test_report_status_logic():
    ok = CheckResult("x", True, "fine")
    bad = CheckResult("y", False, "broken")
    assert SuiteReport("t", "theorem", "s", (ok,)).status == "PASS"
    assert SuiteReport("t", "theorem", "s", (ok, bad)).status == "FAIL"
    assert SuiteReport("c", "conjecture", "s", (ok,)).status == "CONFIRMED-ON-RANGE"
    assert SuiteReport("c", "conjecture", "s", (bad,)).status == "COUNTEREXAMPLE"
    assert not SuiteReport("t", "theorem", "s", (ok, bad)).passed
    # A range with nothing to compare neither passes nor fails.
    vacuous = CheckResult("z", None, "every value INF")
    for kind in ("theorem", "conjecture"):
        for checks in ((), (vacuous,)):
            rep = SuiteReport("e", kind, "s", checks)
            assert rep.status == "EMPTY" and rep.empty and not rep.passed
    assert SuiteReport("t", "theorem", "s", (vacuous, ok)).status == "PASS"


def test_format_report_shape():
    rep = SuiteReport(
        "demo",
        "theorem",
        "orders up to 8",
        (CheckResult("a", True, "all good"), CheckResult("b", False, "off by one")),
    )
    text = format_report(rep)
    lines = text.splitlines()
    assert lines[0] == "suite demo: FAIL  [orders up to 8]"
    assert lines[1] == "  ok  a: all good"
    assert lines[2] == "  FAIL b: off by one"


def test_unknown_suite_name():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("no-such-suite")


def test_main_theorem_values():
    rep = run_suite("main-theorem", max_n=5)
    assert rep.kind == "theorem" and rep.passed
    assert len(rep.checks) == 4
    for check, size in zip(rep.checks, (3, 5, 9, 17)):
        assert f"sigma_P = {size}," in check.detail
        assert f"expected {size}" in check.detail
    assert [c.label for c in rep.checks] == [
        "dihedral:8",
        "dihedral:16",
        "dihedral:32",
        "dihedral:64",
    ]


def test_sigma_p_plus_1_suite_small():
    rep = run_suite("sigma-equals-p-plus-1", max_order=16)
    assert rep.passed
    labels = [c.label for c in rep.checks]
    assert "cyclic:8" in labels and "dihedral:16" in labels
    cyclic8 = next(c for c in rep.checks if c.label == "cyclic:8")
    assert "INF" in cyclic8.detail
    d16 = next(c for c in rep.checks if c.label == "dihedral:16")
    assert "sigma = 3" in d16.detail


def test_chain_suite_small():
    rep = run_suite("chain", max_order=16)
    assert rep.passed and rep.kind == "theorem"
    assert len(rep.checks) >= 20


def test_quotient_suite_small():
    rep = run_suite("quotient", max_order=32)
    assert rep.passed and rep.kind == "theorem"
    assert all("/" in c.label for c in rep.checks)


def test_product_suite():
    rep = run_suite("product-powerful")
    assert rep.passed
    assert len(rep.checks) == 5
    labels = " ".join(c.label for c in rep.checks)
    assert "dihedral:8" in labels and "quaternion:8" in labels


def test_product_suite_builds_nothing_past_max_order(monkeypatch):
    # Every product case has order at least 16, so max_order=8 keeps none,
    # and each order is read from its descriptor, not from a built group.
    calls = []
    build = powcov.verify.build_group
    monkeypatch.setattr(powcov.verify, "build_group", lambda spec: calls.append(spec) or build(spec))
    rep = run_suite("product-powerful", max_order=8)
    assert rep.status == "EMPTY"
    assert calls == []


def test_conjecture1_range():
    rep = run_suite("conjecture1", max_order=32)
    assert rep.kind == "conjecture"
    assert rep.status == "CONFIRMED-ON-RANGE"
    labels = [c.label for c in rep.checks]
    assert "dihedral:8" in labels
    assert "quaternion:16" in labels
    assert "semidihedral:32" in labels
    assert "modular:16" not in labels  # coclass 2, outside the family


def test_conjecture2_range_and_scope():
    rep = run_suite("conjecture2", max_order=16)
    assert rep.status == "CONFIRMED-ON-RANGE"
    assert "not a proof" in rep.scope
    labels = [c.label for c in rep.checks]
    assert "cyclic:8" not in labels  # cyclic groups are excluded
    assert "dihedral:16" in labels and "modular:16" in labels


def test_pe_shortfall_suite():
    rep = run_suite("pe-d32")
    assert rep.passed and rep.kind == "theorem"
    assert "powerfully embedded" in rep.checks[0].detail


@pytest.mark.parametrize("max_order", [16, 128])
def test_monotonicity_scan(max_order):
    # At 128 the suite covers every nested pair of built-in entries, which is
    # why the sweep report carries no monotonicity section of its own.
    rep = run_suite("monotonicity", max_order=max_order)
    assert rep.status == "CONFIRMED-ON-RANGE"
    assert rep.checks[-1].ok


def test_custom_catalog_restricts_suites():
    cat = [CatalogEntry("d8", "dihedral:8"), CatalogEntry("c4", "cyclic:4")]
    rep = run_suite("sigma-equals-p-plus-1", catalog=cat)
    assert [c.label for c in rep.checks] == ["d8", "c4"]
    assert rep.passed


def test_all_names_run_clean():
    for name in SUITE_NAMES:
        rep = run_suite(name, max_n=3, max_order=16)
        assert rep.passed, f"{name} failed: {format_report(rep)}"


def test_catalog_suites_build_only_groups_within_max_order(tmp_path, constructions):
    (tmp_path / "c5.perm").write_text("version 1\ndegree 5\ngen 1 2 3 4 0\n")
    rep = run_suite("sigma-equals-p-plus-1", max_order=16)
    kept = [e.id for e in select_entries(None, 16)]
    assert [c.label for c in rep.checks] == kept
    assert constructions == Counter(kept)  # a built-in entry's id is its source

    # A perm: source names no order, so it is built to filter, and its check
    # reuses that build; descriptor sources are built only if kept.
    constructions.clear()
    c5 = f"perm:{tmp_path / 'c5.perm'}"
    catalog = [
        CatalogEntry("d8", "dihedral:8"),
        CatalogEntry("d32", "dihedral:32"),
        CatalogEntry("c5", c5),
    ]
    rep = run_suite("sigma-equals-p-plus-1", max_order=8, catalog=catalog)
    assert [c.label for c in rep.checks] == ["d8", "c5"]
    assert constructions == {"dihedral:8": 1, c5: 1}
