import pytest

from czcp import catalog, correlation
from czcp.correlation import aacs_profile, accs_profile
from czcp.turyn import normalize_gcp_for_theorem
from czcp.verify import classify, czcp_width, is_gcp


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
    for entry in catalog.kernel_entries():
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


def test_golay_pair_is_gcp_for_many_lengths():
    for n in (4, 8, 16, 20, 26, 32, 40, 52, 80, 100, 104, 128, 160, 200,
              208, 260, 320, 400, 416, 520, 640, 800, 1040):
        assert is_gcp(catalog.golay_pair(n)), n


def test_golay_pair_explicit_order():
    pair = catalog.golay_pair(20, order=[2, 10])
    assert pair.n == 20 and is_gcp(pair)
    with pytest.raises(ValueError):
        catalog.golay_pair(20, order=[10, 10])


def test_czcp_gcp_small_lengths():
    assert catalog.czcp_gcp(2).width == 1
    assert catalog.czcp_gcp(10).width == 4  # 2N/5
    rep4 = catalog.czcp_gcp(4)
    assert rep4.width == 2 and rep4.family == 1 and rep4.meets_expectation


def test_czcp_gcp_26_kernel_hits_family3():
    rep = catalog.czcp_gcp(26)
    assert rep.width == 12 and rep.expected_width == 12 and rep.meets_expectation


def test_czcp_gcp_order_changes_width_honestly():
    # largest-first at 260 composes 26 then 10 and measures short of 6N/13;
    # smallest-first puts the width-12 kernel last and reaches it
    desc = catalog.czcp_gcp(260, order="desc")
    asc = catalog.czcp_gcp(260, order="asc")
    assert desc.expected_width == asc.expected_width == 120
    assert desc.meets_expectation is False and desc.width == 104
    assert asc.meets_expectation is True and asc.width >= 120


def test_czcp_gcp_normalized_keeps_width():
    plain = catalog.czcp_gcp(20)
    normalized = catalog.czcp_gcp(20, normalize=True)
    assert plain.width == normalized.width
    first = normalized.pair
    assert first.first[0] == -first.second[0]


@pytest.mark.parametrize("normalize", [False, True])
def test_czcp_gcp_classifies_once(monkeypatch, normalize):
    # one classify, three length-n correlations; golay_pair itself correlates nothing
    want = catalog.golay_pair(1040)
    if normalize:
        want = normalize_gcp_for_theorem(want)
    width = czcp_width(want)
    calls = []
    real = correlation._correlate

    def counted(x, y):
        calls.append(len(x))
        return real(x, y)

    monkeypatch.setattr(correlation, "_correlate", counted)
    rep = catalog.czcp_gcp(1040, normalize=normalize)
    assert calls == [1040] * 3
    assert rep.pair == want and rep.width == width


def test_optimal_lengths_summary():
    # optimal entries exist at every non-Golay length the summary claims
    by_length = {}
    for entry in catalog.table1_entries() + catalog.table2_entries():
        v = classify(entry.pair)
        if v.is_optimal:
            by_length.setdefault(entry.pair.n, []).append(entry.id)
    assert set(by_length) >= {6, 12, 24, 28, 48, 56}
