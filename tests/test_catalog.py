import pytest

from czcp import catalog, correlation
from czcp.correlation import aacs_profile, accs_profile
from czcp.verify import classify, czcp_width, golay_factorization, is_gcp


def test_every_claim_recomputes():
    for eid in catalog.ids():
        entry = catalog.get(eid)
        v = classify(entry.pair)
        assert v.czcp_width == entry.width, eid
        assert v.is_optimal == entry.optimal, eid
        if entry.aacs is not None:
            assert tuple(int(x) for x in aacs_profile(entry.pair)) == entry.aacs, eid
        if entry.accs is not None:
            assert tuple(int(x) for x in accs_profile(entry.pair)) == entry.accs, eid


def test_seed_lookup():
    assert catalog.seed("K6").pair.texts() == ("+----+", "+-+++-")
    assert catalog.seed("K28").width == 13


def test_seed_unknown_id():
    with pytest.raises(KeyError):
        catalog.seed("K7")
    with pytest.raises(KeyError):
        catalog.get("K999")


def test_aliases_resolve_to_composed_entries():
    assert catalog.get("K48").id == "T2K48"
    assert catalog.get("K56").id == "T2K56"


def test_seed_and_composed_tables_disjoint():
    t1 = {e.id for e in catalog.table1_entries()}
    t2 = {e.id for e in catalog.table2_entries()}
    assert t1 == {"K6", "K12", "K24", "K28"}
    assert t2 == {"T2K12", "T2K24", "T2K48", "T2K56"}


def test_kernels_are_gcps():
    for entry in map(catalog.get, ("GCP2", "GCP10", "GCP26")):
        assert is_gcp(entry.pair), entry.id
        assert czcp_width(entry.pair) == entry.width


def test_golay_pair_base_cases():
    assert catalog.golay_pair(2) == catalog.get("GCP2").pair
    assert catalog.golay_pair(10) == catalog.get("GCP10").pair
    assert catalog.golay_pair(1).texts() == ("+", "+")


def test_golay_pair_rejects_non_golay():
    with pytest.raises(ValueError):
        catalog.golay_pair(6)
    with pytest.raises(ValueError):
        catalog.golay_pair(12)


def test_golay_pair_attains_its_family_width():
    # every even Golay length below 20000, families 1 to 4
    lengths = [n for n in range(2, 20000, 2) if golay_factorization(n) is not None]
    assert {catalog.gcp_family(n).family for n in lengths} == {1, 2, 3, 4}
    for n in lengths:
        pair = catalog.golay_pair(n)
        assert is_gcp(pair), n
        assert czcp_width(pair) == catalog.gcp_family(n).width, n


@pytest.mark.parametrize("n", [-2, 0, 1, 5, 6, 12])
def test_gcp_family_rejects_odd_and_non_golay(n):
    with pytest.raises(ValueError):
        catalog.gcp_family(n)


def test_golay_pair_correlates_nothing(monkeypatch):
    def refuse(x, y):
        raise AssertionError("golay_pair correlated")

    monkeypatch.setattr(correlation, "_correlate", refuse)
    assert catalog.golay_pair(1040).n == 1040


def test_optimal_lengths_summary():
    # optimal entries exist at every non-Golay length the summary claims
    by_length = {}
    for entry in catalog.table1_entries() + catalog.table2_entries():
        v = classify(entry.pair)
        if v.is_optimal:
            by_length.setdefault(entry.pair.n, []).append(entry.id)
    assert set(by_length) >= {6, 12, 24, 28, 48, 56}
