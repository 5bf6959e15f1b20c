import os
import subprocess
import sys
import threading
import time
from collections import Counter
from functools import cache, partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import czcp.search as search_mod
from czcp import catalog
from czcp.search import (
    _MIDDLES,
    _THREADS_MIN_M,
    LargeSearchError,
    SearchSpec,
    SearchSpecError,
    _canonical_words,
    _class_sums,
    _key_pair,
    _parity,
    canonicalize,
    equivalents,
    run_search,
    run_search_parallel,
)
from czcp.sequences import SequencePair
from czcp.verify import classify, czcp_width, lemma5_structure_holds

from conftest import (
    aacs_of_words,
    brute_force_search,
    outside_in_census,
    random_pair,
    ref_accf,
    word_corr,
    word_sequence,
)


def test_canonicalize_idempotent(rng):
    for _ in range(60):
        p = random_pair(rng, rng.randint(1, 10))
        c = canonicalize(p)
        assert canonicalize(c) == c


def test_canonicalize_collapses_negation(rng):
    for _ in range(60):
        p = random_pair(rng, rng.randint(1, 10))
        q = SequencePair(p.first.negate(), p.second)
        assert canonicalize(q) == canonicalize(p)


def test_equivalents_of_seed_share_canonical_form():
    k6 = catalog.seed("K6").pair
    forms = {canonicalize(q).texts() for q in equivalents(k6)}
    assert len(forms) == 1
    assert len(equivalents(k6)) == 16


def _word_pair(x, y, m):
    return SequencePair(word_sequence(x, m), word_sequence(y, m))


def _key_texts(key, m):
    # the key written in binary, position 0 first, is the member's text
    return tuple(format(k, f"0{m}b").translate(str.maketrans("01", "+-")) for k in key)


def _texts(result):
    return [p.texts() for p in result.pairs]


def _progress_calls(run):
    calls = []
    result = run(lambda done, total: calls.append((done, total)))
    return result, calls


def test_key_pair_matches_per_bit_definition(rng):
    # a key's most significant of m bits is position 0, set for -1; keys
    # wider than one or two 64-bit words (M > 64, M > 128) build the same
    for m in range(1, 131):
        keys = (0, (1 << m) - 1, 1 << (m - 1), 1, *(rng.getrandbits(m) for _ in range(6)))
        for a, b in zip(keys, keys[1:]):
            pair = _key_pair((a, b), m)
            for member, k in zip((pair.first, pair.second), (a, b)):
                assert member.values.dtype == np.int8 and not member.values.flags.writeable
                want = [-1 if k >> (m - 1 - j) & 1 else 1 for j in range(m)]
                assert list(member) == want, (m, k)


def test_canonical_words_match_canonicalize_exhaustively():
    for m in (2, 4):
        for x in range(1 << m):
            for y in range(1 << m):
                key = _canonical_words(x, y, m)
                canon = canonicalize(_word_pair(x, y, m))
                assert _key_pair(key, m) == canon, (m, x, y)
                assert _key_texts(key, m) == canon.texts()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_canonical_words_match_canonicalize(data):
    # M up to 96: class keys are Python ints, not bounded by 64 bits
    m = data.draw(st.integers(1, 48).map(lambda k: 2 * k), label="m")
    words = st.integers(0, (1 << m) - 1)
    x, y, x2, y2 = (data.draw(words) for _ in range(4))
    key, key2 = _canonical_words(x, y, m), _canonical_words(x2, y2, m)
    canon, canon2 = canonicalize(_word_pair(x, y, m)), canonicalize(_word_pair(x2, y2, m))
    assert _key_pair(key, m) == canon
    assert _key_texts(key, m) == canon.texts()
    # run_search sorts classes by key; that must be the order of their texts
    assert (key < key2) == (canon.texts() < canon2.texts())
    assert (key == key2) == (canon == canon2)


def test_shard_shares_partition_space():
    # a shard counts its equal share of the space as scanned, so the
    # shards' counts add up to 2^(M+1) at any shard count
    for shards in (1, 3, 4, 7, 64, 65, 200):
        shares = [SearchSpec(m=6, shards=shards, shard_index=i).share for i in range(shards)]
        assert sum(shares) == 128, shards
        assert set(shares) <= {128 // shards, -(-128 // shards)}, shards
    for index in (0, 3, 10**20 - 1):
        assert SearchSpec(m=6, shards=10**20, shard_index=index).share in (0, 1)


# --- the oracle: outside_in_census ---------------------------------------------------


def test_word_corr_matches_definition(rng):
    for _ in range(300):
        n = rng.randint(1, 64)
        a, b, u = rng.getrandbits(n), rng.getrandbits(n), rng.randrange(n)
        got = word_corr(*(np.array([w], dtype=np.uint64) for w in (a, b)), u, n)
        assert got.tolist() == [ref_accf(word_sequence(a, n), word_sequence(b, n), u)]


def _optimal(m, mid_abs):
    """The census's optimal (m, m/2-1) classes with |AACS(m/2)| = mid_abs (any if None)."""
    classes = outside_in_census(m, max(m // 2 - 1, 1)).classes
    return [t for t, (w, mid) in classes.items() if w == m // 2 - 1 and mid_abs in (None, mid)]


@pytest.mark.parametrize("m", [2, 4, 6])
def test_census_matches_brute_force(m):
    # at every width z the census holds exactly the classes that classify
    # finds of width at least z among all 2^(2M) pairs, with their widths
    # and |AACS(M/2)|, in text order
    found = {}
    for x in range(1 << m):
        for y in range(1 << m):
            pair = _word_pair(x, y, m)
            verdict = classify(pair)
            if verdict.czcp_width:
                found[canonicalize(pair).texts()] = (verdict.czcp_width, abs(verdict.mid_aacs))
    for z in range(1, m // 2 + 1):
        want = sorted((t, v) for t, v in found.items() if v[0] >= z)
        assert list(outside_in_census(m, z).classes.items()) == want, z
    assert _optimal(m, None) == _texts(brute_force_search(m))


@pytest.mark.parametrize("m", range(4, 19, 2))
def test_census_frontier_is_the_search_space(m):
    # the tail layers leave exactly 2^(M+1) pairs, every one with the
    # half-sequence structure (Lemma 5): c0 = d0 = +1, d = c below M/2-1 and
    # d = -c above M/2, with any signs at M/2-1 and M/2; the search's space
    x, y = outside_in_census(m, m // 2 - 1).frontier
    assert x.size == SearchSpec(m=m).space == 1 << (m + 1)
    assert np.unique(x << np.uint64(m) | y).size == x.size
    h, ones = m // 2, (1 << m) - 1
    low, high = (1 << (h - 1)) - 1, ones ^ ((1 << (h + 1)) - 1)
    assert not np.any((x | y) & np.uint64(1))
    assert not np.any((x ^ y) & np.uint64(low))
    assert np.all((x ^ y) & np.uint64(high) == high)
    if m <= 10:
        assert all(
            lemma5_structure_holds(_word_pair(a, b, m), h - 1)
            for a, b in zip(x.tolist(), y.tolist())
        )


@pytest.mark.large_census
@pytest.mark.parametrize("m", [20, 22])
def test_search_matches_census_past_tier1(m):
    # run with `-m large_census`; M = 22's frontier of 2^23 pairs takes the
    # pytest process to about 290 MB
    assert outside_in_census(m, m // 2 - 1).frontier[0].size == 1 << (m + 1)
    assert _texts(run_search(SearchSpec(m=m))) == _optimal(m, None)


# --- the search's contract ---------------------------------------------------------


@pytest.fixture
def three_cpus(monkeypatch):
    # run_search_parallel refuses more jobs than os.cpu_count(); the tests
    # that run 2 and 3 jobs report at least 3 CPUs, so they run on any host
    cpus = os.cpu_count() or 1
    monkeypatch.setattr(os, "cpu_count", lambda: max(cpus, 3))


@pytest.fixture
def threads_at_every_length(monkeypatch):
    # run_search_parallel is run_search below _THREADS_MIN_M; from M = 2 on
    # its jobs run on worker threads
    monkeypatch.setattr(search_mod, "_THREADS_MIN_M", 2)


# the join's key holds every shift up to M = 22 and keys 2^16 words at a
# time, and a half's runs are cut only past 12 positions (M > 26); shorter
# keys, one-word blocks and shorter runs run the shifts past the key, the
# block loop and the cut runs at the contract's lengths, on one job, as
# threads run the same key and listing code
_KEYS = {
    "key": {},
    "no-key": {"_KEY_SHIFTS": 0, "_KEY_BLOCK": 1, "_RUN_BITS": 1},
    "short-key": {"_KEY_SHIFTS": 3, "_KEY_BLOCK": 1, "_RUN_BITS": 3},
}


@pytest.mark.usefixtures("three_cpus", "threads_at_every_length")
@pytest.mark.parametrize("key", list(_KEYS))
@pytest.mark.parametrize("m", range(2, 19, 2))
def test_search_contract(monkeypatch, m, key):
    # for every mid_abs, job count and shard: the shards' classes add up to
    # the census's optimal classes with that |AACS(M/2)|, an unsharded search
    # lists them in the census's order, the shards count 2^(M+1) candidates
    # in all, each shard's last progress call reports its share done, and a
    # search verifies the classes it returns, once each, and nothing else
    for name, value in _KEYS[key].items():
        monkeypatch.setattr(search_mod, name, value)
    checked = []
    width = search_mod.czcp_width
    monkeypatch.setattr(search_mod, "czcp_width", lambda pair: checked.append(pair) or width(pair))
    for mid_abs in (None, 0, 2, 4, 6):
        want = _optimal(m, mid_abs)
        for jobs in (1, 2) if key == "key" else (1,):
            for shards in (1, 2, 3, 7):
                union, scanned = set(), 0
                for index in range(shards):
                    spec = SearchSpec(m=m, mid_abs=mid_abs, shards=shards, shard_index=index)
                    checked.clear()
                    if jobs == 1:
                        result, calls = _progress_calls(partial(run_search, spec))
                    else:
                        result, calls = _progress_calls(partial(run_search_parallel, spec, jobs))
                    assert calls[-1] == (spec.share, spec.share), (spec, jobs)
                    assert checked == list(result.pairs), (spec, jobs)
                    if shards == 1:
                        assert _texts(result) == want, (spec, jobs)
                    union.update(_texts(result))
                    scanned += result.candidates_scanned
                assert sorted(union) == want, (m, mid_abs, jobs, shards)
                assert scanned == 1 << (m + 1), (m, mid_abs, jobs, shards)


def test_many_shards_keep_the_union():
    # the key fields lie in [0, 64), so the first 65 shards own all of them,
    # at any shard count, past 2^64 too
    want = _texts(run_search(SearchSpec(m=12)))
    for shards in (64, 2**63, 10**20):
        specs = [SearchSpec(m=12, shards=shards, shard_index=i) for i in range(min(shards, 65))]
        parts = [run_search(spec) for spec in specs]
        assert sorted({t for part in parts for t in _texts(part)}) == want, shards


# run_search's classes at every even M <= 42 with mid_abs unset, as
# {|AACS(M/2)|: classes}; no published count exists, so they are frozen
_CENSUS = {
    2: {},
    4: {0: 1, 2: 2, 4: 2},
    6: {2: 4, 4: 2},
    8: {2: 4, 4: 2},
    10: {0: 2},
    12: {2: 8, 4: 4},
    14: {4: 2},
    16: {2: 8, 4: 4},
    18: {},
    20: {2: 4},
    22: {},
    24: {2: 4, 4: 8},
    26: {0: 2},
    28: {2: 8},
    30: {},
    32: {4: 8},
    34: {},
    36: {},
    38: {},
    40: {4: 4},
    42: {},
}


def _census_classes(m):
    # also runs mid_abs 0, 2 and 4, each of which must return exactly the
    # unset search's classes with that |AACS(M/2)|: past M = 22 the join
    # compares shifts past the key before class 1's filter
    pairs = run_search(SearchSpec(m=m, allow_large=m > 40)).pairs
    mids = [abs(classify(p).mid_aacs) for p in pairs]
    for mid_abs in (0, 2, 4):
        kept = run_search(SearchSpec(m=m, mid_abs=mid_abs, allow_large=m > 40)).pairs
        assert kept == tuple(p for p, v in zip(pairs, mids) if v == mid_abs), (m, mid_abs)
    return pairs, Counter(mids)


def test_census_frozen_to_42():
    for m, want in _CENSUS.items():
        assert _census_classes(m)[1] == want, m


@pytest.mark.large_census
def test_census_frozen_to_48():
    # run with `-m large_census`: four searches a length, 17-30 s on a 2-vCPU
    # host, and M = 48's unset search peaks near 610 MB; it finds the paper's
    # (48, 23) pair
    for m, want in ((44, {}), (46, {}), (48, {2: 16, 4: 4})):
        pairs, counts = _census_classes(m)
        assert counts == want, m
    assert canonicalize(catalog.get("T2K48").pair) in pairs


def test_search_finds_seed6():
    res = run_search(SearchSpec(m=6, mid_abs=2))
    assert res.candidates_scanned == 128
    assert canonicalize(catalog.seed("K6").pair) in res.pairs


def test_search_finds_seed12():
    res = run_search(SearchSpec(m=12, mid_abs=2))
    assert canonicalize(catalog.seed("K12").pair) in res.pairs


def test_odd_length_rejected():
    with pytest.raises(SearchSpecError) as refused:
        SearchSpec(m=7)
    assert refused.value.code == "bad_search"


def test_golay_length_flagged():
    res = run_search(SearchSpec(m=4, mid_abs=2))
    assert res.warnings


def test_large_search_gated():
    # the gate counts a half's 2^(M/2-1) sign words: free up to 2^19 (M = 40)
    with pytest.raises(LargeSearchError) as refused:
        run_search(SearchSpec(m=42, mid_abs=2))
    assert refused.value.code == "large_search_gated"
    assert str(refused.value) == (
        "length 42 lists 2^20 sign words a half; rerun with allow_large (--allow-large)"
    )
    with pytest.raises(LargeSearchError):
        SearchSpec(m=48)
    assert SearchSpec(m=40).space == 1 << 41
    # allow_large stays valid at a free length, as the benchmark passes it at M = 24
    assert SearchSpec(m=24, allow_large=True).space == 1 << 25
    # the checks keep their order: a spec past the gate with another fault reports that
    with pytest.raises(SearchSpecError, match="^mid_abs must be non-negative") as refused:
        SearchSpec(m=42, mid_abs=-1)
    assert refused.value.code == "bad_search"


def test_length_limit():
    assert SearchSpec(m=48, allow_large=True).space == 1 << 49
    for m in (50, 64, 10**18):
        t0 = time.monotonic()
        for allow_large in (False, True):
            with pytest.raises(SearchSpecError) as refused:
                SearchSpec(m=m, allow_large=allow_large)
            assert refused.value.code == "bad_search", m
            assert str(refused.value) == (
                f"length {m} lists 2^{m // 2 - 1} sign words a half, past the limit 2^23"
            )
        # the limit compares exponents and builds no 2^(M/2-1)
        assert time.monotonic() - t0 < 1, m
    with pytest.raises(SearchSpecError, match="^length 50 lists 2"):
        SearchSpec(m=50, mid_abs=-1, shards=0)


# --- proved facts, over the census frontier ----------------------------------------


def _sign(word, j):
    return 1 - 2 * ((word >> np.uint64(j)) & np.uint64(1)).astype(np.int64)


def _middle_class(x, y, m):
    """Bit 0 set where d_(M/2-1) = -c_(M/2-1), bit 1 where d_(M/2) = -c_(M/2)."""
    return (x ^ y) >> np.uint64(m // 2 - 1) & np.uint64(3)


@cache
def _matches(m):
    """The census frontier's pairs whose AACS vanishes at 1..M/2-1.

    They are every pair of width at least M/2-1 with c0 = d0 = +1: the
    matches of all four middle classes, both members of each swap pair.
    """
    x, y = outside_in_census(m, m // 2 - 1).frontier
    for u in range(1, m // 2):
        keep = aacs_of_words(x, y, u, m) == 0
        x, y = x[keep], y[keep]
    x.flags.writeable = y.flags.writeable = False  # cached: one copy for every caller
    return x, y


def test_middle_class_decides_mid_aacs():
    # |AACS(M/2)| = |y + c_(M-1) x|, x = c_(M/2-1) - d_(M/2-1), y = c_(M/2) + d_(M/2),
    # so each middle class reaches fixed values
    reached = {middle: set() for middle in range(4)}
    for m in range(4, 19, 2):
        h = m // 2
        x, y = outside_in_census(m, h - 1).frontier
        middle = _middle_class(x, y, m)
        mid = np.abs(aacs_of_words(x, y, h, m))
        xs = _sign(x, h - 1) - _sign(y, h - 1)
        ys = _sign(x, h) + _sign(y, h)
        assert np.array_equal(mid, np.abs(ys + _sign(x, m - 1) * xs)), m
        # class 1: |AACS(M/2)| = 4 exactly when c_(M/2) = c_(M-1) c_(M/2-1)
        one = middle == 1
        product = _sign(x, h) == _sign(x, m - 1) * _sign(x, h - 1)
        assert np.array_equal(mid[one] == 4, product[one]), m
        # and _MIDDLES' flip is the parity of b_(M/2) ^ b_(M-1) ^ b_(M/2-1)
        # that the search's filter keeps for each value class 1 reaches
        for v in (0, 4):
            ((_, flip),) = _MIDDLES[v]
            kept = _parity(x[one], (h, m - 1, h - 1), flip, m) == 0
            assert np.array_equal(kept, mid[one] == v), (m, v)
        seen = {k: set(mid[middle == k].tolist()) for k in range(4)}
        assert seen == {0: {2}, 1: {0, 4}, 2: {0}, 3: {2}}, m
        for k in range(4):
            reached[k] |= seen[k]
    # the search joins every class that reaches mid_abs but class 3, class 0's
    # reflection, and class 2, whose matches are all perfect (next test)
    values = set().union(*reached.values())
    assert {v: tuple(k for k, _ in entries) for v, entries in _MIDDLES.items()} == {
        None: (0, 1)
    } | {v: tuple(k for k in (0, 1) if v in reached[k]) for v in values}
    # class 1 is filtered, with flip 0 for |AACS(M/2)| = 4 and 1 for 0, exactly
    # when mid_abs picks one of the two values it reaches
    class1 = [(v, flip) for v, entries in _MIDDLES.items() for k, flip in entries if k == 1]
    assert class1 == [(None, None), (0, 1), (4, 0)]
    assert all(flip is None for entries in _MIDDLES.values() for k, flip in entries if k != 1)


def test_class2_matches_are_perfect():
    # class 2 has d = (L, -R) for c = (L, R), so AACS and ACCS vanish from
    # shift M/2 on and a match is a perfect pair of width M/2, which the
    # search's width check (M/2-1) would drop; no other class holds one
    sizes = {}
    for m in range(4, 19, 2):
        x, y = _matches(m)
        two = (_middle_class(x, y, m) == 2).tolist()
        sizes[m] = sum(two)
        for a, b, is_two in zip(x.tolist(), y.tolist(), two):
            verdict = classify(_word_pair(a, b, m))
            assert verdict.is_perfect == is_two and verdict.czcp_width >= m // 2 - 1, (m, a, b)
    assert {m: n for m, n in sizes.items() if n} == {4: 4, 8: 16, 16: 96}


def _pairs_inside(positions, u):
    inside = set(positions)
    return [(i, i + u) for i in sorted(inside) if i + u in inside]


def _half_positions(m, middle):
    """P+ and P- of class `middle`, read off the masks of its description (_class_sums)."""
    (_, lbits, _, _), (_, rbits, _, _), _ = _class_sums(m, middle)
    return tuple([p for p in range(m) if bits >> p & 1] for bits in (lbits, rbits))


def test_pairs_inside_the_halves_are_even_in_number():
    # the join matches d+ against t(u) - d-, t(u) = (k+(u) + k-(u)) / 2, so
    # k+ + k- must be even: for u <= M/2-1 the first u positions lie in P+ and
    # the last u in P-, so the number of pairs that cross between the sets
    # has the parity of u, and the M-u pairs less those are even in number
    for m in range(4, 57, 2):
        for middle in range(4):
            plus, minus = _half_positions(m, middle)
            _, _, totals = _class_sums(m, middle)
            for u in range(1, m // 2):
                k = len(_pairs_inside(plus, u)) + len(_pairs_inside(minus, u))
                assert k % 2 == 0, (m, middle, u)
                assert totals[u - 1] == k // 2, (m, middle, u)


def test_class0_middle_shift_holds_two_plus_pairs():
    # so a class 0 match has c_0 c_(M/2-1) + c_1 c_(M/2) = 0 there, and the
    # join derives c_(M/2) = -c_1 c_(M/2-1) instead of listing it
    for m in range(4, 57, 2):
        h = m // 2
        plus, minus = _half_positions(m, 0)
        assert _pairs_inside(plus, h - 1) == [(0, h - 1), (1, h)], m
        assert _pairs_inside(minus, h - 1) == [], m


def test_class0_matches_have_the_derived_middle_sign():
    found = 0
    for m in range(4, 19, 2):
        h = m // 2
        x, y = _matches(m)
        x = x[_middle_class(x, y, m) == 0]
        assert np.array_equal(_sign(x, h), -_sign(x, 1) * _sign(x, h - 1)), m
        # class 0's description lists P+ without M/2 and its rule sets that bit
        (positions, _, derived, _), _, _ = _class_sums(m, 0)
        assert h not in positions
        listed = x & ~np.uint64(1 << h)
        assert np.array_equal(listed | _parity(listed, *derived), x), m
        found += x.size
    assert found


def test_matches_are_closed_under_swap():
    # swapping c and d keeps s = c d, so the middle class, and every AACS
    # term; it complements c on P-, where c_(M/2+1) = -d_(M/2+1), so that
    # sign flips. The matches of each class therefore come in swap pairs, one
    # of each with c_(M/2+1) = +1, the one the search lists
    found = 0
    for m in range(4, 19, 2):
        x, y = _matches(m)
        assert np.all((x ^ y) >> np.uint64(m // 2 + 1) & np.uint64(1)), m
        middle = _middle_class(x, y, m)
        for k in range(4):
            pairs = set(zip(x[middle == k].tolist(), y[middle == k].tolist()))
            assert {(b, a) for a, b in pairs} == pairs, (m, k)
        found += x.size
    assert found


def test_join_emits_every_class_match_and_filter_keeps_survivors(monkeypatch):
    # the join emits every census match of the joined classes with
    # c_(M/2+1) = +1, one of each swap pair, whatever mid_abs; the filter
    # then keeps those with the requested |AACS(M/2)|, and the search keys
    # one class per kept match (_canonical_words)
    joined, keyed = [], []
    join, canonical = search_mod._join, search_mod._canonical_words

    def recorded_join(*args):
        words = join(*args)
        joined.extend(words.tolist())
        return words

    monkeypatch.setattr(search_mod, "_join", recorded_join)
    monkeypatch.setattr(
        search_mod, "_canonical_words", lambda x, y, m: keyed.append(x) or canonical(x, y, m)
    )
    run_search(SearchSpec(m=2))
    assert joined == keyed == []  # M = 2 joins no class
    for m in range(4, 19, 2):
        h = m // 2
        x, y = _matches(m)
        middle = _middle_class(x, y, m)
        mid = np.abs(aacs_of_words(x, y, h, m))
        listed = (x >> np.uint64(h + 1) & np.uint64(1)) == 0
        for mid_abs in (None, 0, 2, 4):
            emitted = listed & np.isin(middle, [k for k, _ in _MIDDLES[mid_abs]])
            keep = emitted & (mid == mid_abs) if mid_abs is not None else emitted
            joined.clear()
            keyed.clear()
            run_search(SearchSpec(m=m, mid_abs=mid_abs))
            assert sorted(joined) == sorted(x[emitted].tolist()), (m, mid_abs)
            assert sorted(keyed) == sorted(x[keep].tolist()), (m, mid_abs)


def test_search_classes_are_checked_once():
    # run_search verifies one representative per class; that is sound only
    # because every equivalent of a match has its width and |mid_aacs|
    for m in (6, 12, 16):
        x, y = _matches(m)
        assert x.size
        for a, b in zip(x.tolist(), y.tolist()):
            pair = _word_pair(a, b, m)
            want = classify(pair)
            for q in equivalents(pair):
                v = classify(q)
                assert v.czcp_width == want.czcp_width, (m, a, b)
                assert abs(v.mid_aacs) == abs(want.mid_aacs), (m, a, b)
            assert czcp_width(_key_pair(_canonical_words(a, b, m), m)) == want.czcp_width


# --- progress and worker threads ----------------------------------------------------


@pytest.mark.usefixtures("three_cpus")
def test_progress_callback():
    # one call per join pass, nondecreasing, ending at the shard's count: one
    # per joined middle class, and one call when no class is joined (a mid_abs
    # no candidate has, or M = 2); below _THREADS_MIN_M run_search_parallel is
    # run_search, call for call
    for spec, classes in (
        (SearchSpec(m=12, mid_abs=2), 1),
        (SearchSpec(m=12, shards=3, shard_index=1), 2),
        (SearchSpec(m=12, mid_abs=0), 1),
        (SearchSpec(m=12, mid_abs=6), 0),
        (SearchSpec(m=2), 0),
    ):
        calls = []
        run_search(spec, lambda done, total: calls.append((done, total)))
        assert len(calls) == max(classes, 1)
        assert all(total == spec.share for _, total in calls)
        done = [d for d, _ in calls]
        assert done == sorted(done) and done[-1] == spec.share
        for jobs in (1, 2, 3):
            _, got = _progress_calls(lambda p: run_search_parallel(spec, jobs, p))
            assert got == calls, (spec, jobs)


def test_jobs_outside_cpu_count_refused(monkeypatch):
    # the bound is the library's: at a length that runs on threads it is
    # refused before any thread starts, with the message the CLI reports
    # (tests/test_cli.py checks the CLI's refusal at M = 6)
    def no_search(*args, **kwargs):
        raise AssertionError("a search was started")

    # threads start only through ThreadPoolExecutor, and every search
    # describes a class before it lists one
    monkeypatch.setattr(search_mod, "ThreadPoolExecutor", no_search)
    monkeypatch.setattr(search_mod, "_class_sums", no_search)
    cpus = os.cpu_count() or 1
    spec = SearchSpec(m=_THREADS_MIN_M)
    for jobs in (0, -1, cpus + 1, 10**9):
        message = rf"^--jobs must be in 1\.\.{cpus} \(the CPU count\), got {jobs}$"
        with pytest.raises(SearchSpecError, match=message):
            run_search_parallel(spec, jobs)
    # the bound is inclusive: 1 and cpus jobs start the search
    for jobs in (1, cpus):
        with pytest.raises(AssertionError, match="a search was started"):
            run_search_parallel(spec, jobs)


@pytest.mark.usefixtures("three_cpus")
@pytest.mark.parametrize("m", [32, 34])
def test_threaded_search_matches_single(m):
    assert m >= _THREADS_MIN_M
    for mid_abs in (None, 0, 2, 4):
        for shards, index in ((1, 0), (3, 1)):
            spec = SearchSpec(m=m, mid_abs=mid_abs, shards=shards, shard_index=index)
            want = run_search(spec)
            for jobs in (2, 3):
                threads = threading.active_count()
                got, calls = _progress_calls(lambda p: run_search_parallel(spec, jobs, p))
                assert threading.active_count() == threads
                assert _texts(got) == _texts(want), (spec, jobs)
                assert got.candidates_scanned == want.candidates_scanned
                # one call per class and job, ending at the shard's count
                assert len(calls) == jobs * len(_MIDDLES[mid_abs]), (spec, jobs)
                assert calls[-1] == (spec.share, spec.share), (spec, jobs)


def _thread_log(monkeypatch):
    """Wrap the names perfbench/tracer.py wraps; returns {name: set of thread idents}."""
    log = {"_scan_block": set(), "czcp_width": set()}
    for name, threads in log.items():
        def wrapped(*args, _f=getattr(search_mod, name), _threads=threads):
            _threads.add(threading.get_ident())
            return _f(*args)

        monkeypatch.setattr(search_mod, name, wrapped)
    return log


@pytest.mark.usefixtures("three_cpus")
@pytest.mark.parametrize(("m", "threaded"), [(28, False), (30, False), (32, True), (34, True)])
def test_search_runs_on_workers_from_thread_length(monkeypatch, m, threaded):
    # from _THREADS_MIN_M on the passes run on worker threads, alive while
    # progress is reported and joined before the call returns
    log = _thread_log(monkeypatch)
    here = threading.get_ident()
    threads = threading.active_count()
    during = []
    spec = SearchSpec(m=m)
    run_search_parallel(spec, 2, lambda done, total: during.append(threading.active_count()))
    assert threading.active_count() == threads
    assert during and all((n > threads) == threaded for n in during)
    # the names perfbench/tracer.py wraps run only here, since its span stack
    # is one per process; no class reaches czcp_width at M = 30 and 34
    assert log["_scan_block"] == {here} and log["czcp_width"] <= {here}


@pytest.mark.usefixtures("three_cpus")
def test_failing_progress_leaves_no_thread():
    spec = SearchSpec(m=32)

    class Stop(Exception):
        pass

    def progress(done, total):
        raise Stop

    threads = threading.active_count()
    with pytest.raises(Stop):
        run_search_parallel(spec, 2, progress)
    assert threading.active_count() == threads
    assert _texts(run_search_parallel(spec, 2)) == _texts(run_search(spec))


_SRC = os.path.dirname(os.path.dirname(catalog.__file__))

# each script ends by asserting that the process has no child process and
# runs no thread but its main one
_NOTHING_LEFT = (
    "import os, sys, threading\n"
    "def nothing_left():\n"
    "    try:\n"
    "        os.waitpid(-1, os.WNOHANG)\n"
    "    except ChildProcessError:\n"
    "        return threading.active_count() == 1\n"
    "    return False\n"
)


def _run_script(tmp_path, script, status):
    """Run `script` in a fresh interpreter with stdout closed; check its exit."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")]))
    err_file = tmp_path / "err"
    with open(err_file, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, "-c", _NOTHING_LEFT + script],
            stdout=subprocess.PIPE, stderr=err, env=env,
        )
    proc.stdout.close()  # the reader is gone before anything is written
    try:
        assert proc.wait(90) == status, err_file.read_text()
    finally:
        proc.kill()
        proc.wait()
    err = err_file.read_text()
    assert "Traceback" not in err and "Exception ignored" not in err, err


# run_search_parallel refuses more jobs than os.cpu_count(); the scripts
# that run 2 jobs in the library report at least 2 CPUs, so they run on any host
_TWO_CPUS = "_cpus = os.cpu_count\nos.cpu_count = lambda: max(_cpus() or 1, 2)\n"

_FORK_AFTER_CALL = _TWO_CPUS + (
    "import signal\n"
    "from czcp.search import SearchSpec, run_search, run_search_parallel\n"
    "spec = SearchSpec(m=32, mid_abs=2)\n"
    "want = [p.texts() for p in run_search(spec).pairs]\n"
    "def search():\n"
    "    return [p.texts() for p in run_search_parallel(spec, 2).pairs]\n"
    "assert search() == want\n"
    "pid = os.fork()\n"
    "if pid == 0:\n"
    "    signal.alarm(30)  # a child that hangs ends here\n"
    "    sys.exit(0 if search() == want and nothing_left() else 3)\n"
    "assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0\n"
    "assert search() == want\n"
    "assert nothing_left()\n"
)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_searches_on_its_own_threads(tmp_path):
    # the child of a process that has searched on threads searches on its
    # own and exits cleanly; the parent keeps searching after it
    _run_script(tmp_path, _FORK_AFTER_CALL, 0)


_LIBRARY_EXIT = _TWO_CPUS + (
    "from czcp.search import SearchSpec, run_search_parallel\n"
    "for m in (32, 34):\n"
    "    run_search_parallel(SearchSpec(m=m, mid_abs=2), 2)\n"
    "assert nothing_left()\n"
)
_CLI_EXIT = (
    "from czcp.cli import main\n"
    "code = main(['search', '--length', '32', '--mid-abs', '2', '--jobs', '2'])\n"
    "assert nothing_left()\n"
    "sys.exit(code)\n"
)


@pytest.mark.parametrize(
    ("script", "status"), [(_LIBRARY_EXIT, 0), (_CLI_EXIT, 141)], ids=["library", "cli-closed-stdout"]
)
def test_exit_leaves_no_worker_running(tmp_path, script, status):
    if status == 141 and (os.cpu_count() or 1) < 2:
        pytest.skip("--jobs 2 needs two CPUs")
    _run_script(tmp_path, script, status)
