from collections import Counter

import pytest

import powcov.catalog


@pytest.fixture(autouse=True)
def isolated_cache_dir(tmp_path, monkeypatch):
    """Keep every test's disk cache in its own temp directory."""
    monkeypatch.setenv("POWCOV_CACHE_DIR", str(tmp_path / "cache"))
    yield


@pytest.fixture
def constructions(monkeypatch) -> Counter:
    """Counts, by source, the groups that catalog entries construct."""
    counts = Counter()
    build = powcov.catalog.build_group

    def counting_build(source):
        counts[source] += 1
        return build(source)

    monkeypatch.setattr(powcov.catalog, "build_group", counting_build)
    return counts
