import numpy as np
import pytest

from czcp import catalog
from czcp.correlation import aacs_profile
from czcp.search import (
    SearchSpec,
    _decode,
    _join,
    _scan_block,
    _word_to_sequence,
    canonicalize,
    equivalents,
    merge_results,
    run_search,
)
from czcp.sequences import SequencePair
from czcp.verify import classify, lemma5_structure_holds

from conftest import brute_force_search, random_pair, ref_aacs


def test_canonicalize_idempotent(rng):
    for _ in range(60):
        p = random_pair(rng, rng.randint(1, 10))
        c = canonicalize(p)
        assert canonicalize(c) == c


def test_canonicalize_collapses_negation(rng):
    from czcp.sequences import SequencePair

    for _ in range(60):
        p = random_pair(rng, rng.randint(1, 10))
        q = SequencePair(p.first.negate(), p.second)
        assert canonicalize(q) == canonicalize(p)


def test_equivalents_of_seed_share_canonical_form():
    k6 = catalog.seed("K6").pair
    forms = {canonicalize(q).texts() for q in equivalents(k6)}
    assert len(forms) == 1
    assert len(equivalents(k6)) == 16


def _candidates(spec):
    lo, hi = spec.shard_range
    return [
        SequencePair(*(_word_to_sequence(w, spec.m) for w in _decode(i, spec.m)))
        for i in range(lo, hi)
    ]


def test_candidate_count_length6():
    assert SearchSpec(m=6).space == 128
    assert SearchSpec(m=6).shard_range == (0, 128)
    assert len(_candidates(SearchSpec(m=6))) == 128


def test_candidates_satisfy_half_structure():
    # 2^(M+1) distinct pairs with c0 = d0 = +1 and the half structure: the
    # decoder is a bijection onto the structured space
    for m in (4, 6, 8):
        cands = _candidates(SearchSpec(m=m))
        assert len({p.texts() for p in cands}) == len(cands) == 1 << (m + 1)
        for pair in cands:
            assert pair.first[0] == pair.second[0] == 1
            assert lemma5_structure_holds(pair, m // 2 - 1)


def test_candidate_shards_partition_space():
    full = [p.texts() for p in _candidates(SearchSpec(m=6))]
    for shards in (1, 3, 4, 7):
        specs = [SearchSpec(m=6, shards=shards, shard_index=i) for i in range(shards)]
        ranges = [spec.shard_range for spec in specs]
        assert ranges[0][0] == 0 and ranges[-1][1] == 128
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert [p.texts() for spec in specs for p in _candidates(spec)] == full


def test_aacs_vanishes_above_half_shift():
    # the identity that lets the search skip every shift above M/2: no index
    # pair at such a shift lies inside P+ or inside P-, for every candidate
    for m in range(4, 13, 2):
        for pair in _candidates(SearchSpec(m=m)):
            assert all(ref_aacs(pair, u) == 0 for u in range(m // 2 + 1, m)), m


def _scan_space(m, mid_abs):
    space = SearchSpec(m=m).space
    blocks = [
        _scan_block(np.arange(lo, min(lo + (1 << 20), space), dtype=np.uint64), m, mid_abs)
        for lo in range(0, space, 1 << 20)
    ]
    return np.concatenate(blocks)


def test_join_matches_block_scanner():
    # includes M = 18 and 22, where no candidate survives
    for m in range(2, 23, 2):
        joined = np.sort(np.concatenate([_join(m, middle) for middle in range(4)]))
        assert joined.dtype == np.uint64
        assert np.array_equal(joined, _scan_space(m, None)), m
        for mid_abs in (0, 2):
            assert np.array_equal(_scan_block(joined, m, mid_abs), _scan_space(m, mid_abs))
    assert _scan_space(18, None).size == _scan_space(22, None).size == 0


def test_join_compares_shifts_past_the_key(monkeypatch):
    # up to M = 22 the packed key holds every shift; a shorter key makes the
    # join match on part of each row and compare the rest, as from M = 24 on
    import czcp.search as search_mod

    want = {m: _scan_space(m, None) for m in range(4, 17, 2)}
    for key_shifts in (0, 1, 3):
        monkeypatch.setattr(search_mod, "_KEY_SHIFTS", key_shifts)
        for m, ref in want.items():
            joined = np.sort(np.concatenate([_join(m, middle) for middle in range(4)]))
            assert np.array_equal(joined, ref), (key_shifts, m)


def test_shard_filter_keeps_join_encodings(monkeypatch):
    import czcp.search as search_mod

    seen = []
    real = search_mod._scan_block

    def recording(cands, m, mid_abs):
        seen.append([int(v) for v in cands])
        return real(cands, m, mid_abs)

    monkeypatch.setattr(search_mod, "_scan_block", recording)
    single = run_search(SearchSpec(m=12))
    whole = seen.pop()
    assert whole
    for shards in (3, 7):
        specs = [SearchSpec(m=12, shards=shards, shard_index=i) for i in range(shards)]
        parts = [run_search(spec) for spec in specs]
        for spec, cands in zip(specs, seen):
            lo, hi = spec.shard_range
            assert all(lo <= v < hi for v in cands)
        assert sorted(v for cands in seen for v in cands) == whole
        assert merge_results(parts).pairs == single.pairs
        seen.clear()


def test_search_finds_seed6():
    res = run_search(SearchSpec(m=6, mid_abs=2))
    assert res.candidates_scanned == 128
    assert canonicalize(catalog.seed("K6").pair) in res.pairs


def test_search_finds_seed12():
    res = run_search(SearchSpec(m=12, mid_abs=2))
    assert canonicalize(catalog.seed("K12").pair) in res.pairs


def test_search_matches_full_brute_force_at_6():
    pruned = run_search(SearchSpec(m=6, mid_abs=2))
    brute = brute_force_search(6, mid_abs=2)
    assert brute.candidates_scanned == 4096
    assert [p.texts() for p in pruned.pairs] == [p.texts() for p in brute.pairs]


def test_search_soundness():
    res = run_search(SearchSpec(m=12, mid_abs=2))
    for pair in res.pairs:
        v = classify(pair)
        assert v.czcp_width == 5
        assert abs(v.mid_aacs) == 2
        assert canonicalize(pair) == pair


def test_search_spectrum_of_results():
    for m in (6, 12):
        res = run_search(SearchSpec(m=m, mid_abs=2))
        for pair in res.pairs:
            prof = list(aacs_profile(pair))
            assert prof[0] == 2 * m
            assert abs(prof[m // 2]) == 2
            rest = prof[1 : m // 2] + prof[m // 2 + 1 :]
            assert all(v == 0 for v in rest)


def test_shard_determinism():
    for m in (6, 12):
        single = run_search(SearchSpec(m=m, mid_abs=2))
        for shards in (2, 4, 8):
            parts = [
                run_search(SearchSpec(m=m, mid_abs=2, shards=shards, shard_index=i))
                for i in range(shards)
            ]
            merged = merge_results(parts)
            assert [p.texts() for p in merged.pairs] == [
                p.texts() for p in single.pairs
            ]
            assert merged.candidates_scanned == single.candidates_scanned


def test_search_without_mid_filter_superset():
    filtered = run_search(SearchSpec(m=6, mid_abs=2))
    unfiltered = run_search(SearchSpec(m=6))
    assert set(p.texts() for p in filtered.pairs) <= set(
        p.texts() for p in unfiltered.pairs
    )


def test_odd_length_rejected():
    with pytest.raises(ValueError):
        SearchSpec(m=7)


def test_golay_length_flagged():
    res = run_search(SearchSpec(m=4, mid_abs=2))
    assert res.warnings


def test_large_search_gated():
    with pytest.raises(ValueError):
        run_search(SearchSpec(m=24, mid_abs=2))


def test_length_limit():
    assert SearchSpec(m=40, allow_large=True).space == 1 << 41
    with pytest.raises(ValueError):
        SearchSpec(m=42, allow_large=True)


def test_progress_callback():
    # one call per middle-sign class, nondecreasing, ending at the shard's count
    for spec in (SearchSpec(m=12, mid_abs=2), SearchSpec(m=12, shards=3, shard_index=1)):
        lo, hi = spec.shard_range
        calls = []
        run_search(spec, progress=lambda done, total: calls.append((done, total)))
        assert len(calls) == 4
        assert all(total == hi - lo for _, total in calls)
        done = [d for d, _ in calls]
        assert done == sorted(done) and done[-1] == hi - lo


def test_seed_class_counts_stable():
    # no published count exists; freeze what the exhaustive scan finds
    assert run_search(SearchSpec(m=6, mid_abs=2)).classes == 4
    assert run_search(SearchSpec(m=12, mid_abs=2)).classes == 8


def test_parallel_fanout_matches_single():
    from czcp.search import run_search_parallel

    single = run_search(SearchSpec(m=12, mid_abs=2))
    fanned = run_search_parallel(SearchSpec(m=12, mid_abs=2), jobs=2)
    assert [p.texts() for p in fanned.pairs] == [p.texts() for p in single.pairs]
    assert fanned.candidates_scanned == single.candidates_scanned
