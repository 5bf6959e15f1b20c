import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from czcp import catalog
from czcp.correlation import aacs_profile
from czcp.search import (
    _MIDDLES,
    _THREADS_MIN_M,
    SearchSpec,
    SearchSpecError,
    _canonical_words,
    _class_sums,
    _differ,
    _halves,
    _join,
    _key_parts,
    _key_pair,
    _search,
    canonicalize,
    equivalents,
    run_search,
    run_search_parallel,
)
from czcp.sequences import SequencePair
from czcp.verify import classify, czcp_width, lemma5_structure_holds

from conftest import (
    brute_force_search,
    decode,
    random_pair,
    ref_aacs,
    ref_seed_shape,
    scan_block,
    scan_space,
    word_aacs,
    word_sequence,
)


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


def _word_pair(x, y, m):
    return SequencePair(word_sequence(x, m), word_sequence(y, m))


def _key_texts(key, m):
    # the key written in binary, position 0 first, is the member's text
    return tuple(format(k, f"0{m}b").translate(str.maketrans("01", "+-")) for k in key)


def test_key_pair_matches_per_bit_definition(rng):
    # a key's most significant of m bits is position 0, set for -1; keys
    # wider than 64 bits (M > 64) parse the same
    for m in range(1, 97):
        keys = (0, (1 << m) - 1, 1 << (m - 1), 1, *(rng.getrandbits(m) for _ in range(6)))
        for a, b in zip(keys, keys[1:]):
            pair = _key_pair((a, b), m)
            for member, k in zip((pair.first, pair.second), (a, b)):
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


def _candidates(spec):
    return [
        SequencePair(*(word_sequence(w, spec.m) for w in decode(i, spec.m)))
        for i in range(spec.space)
    ]


def test_candidate_count_length6():
    assert SearchSpec(m=6).space == SearchSpec(m=6).share == 128
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
    # at M = 2 position 0 is a middle position: classes 1 and 3 flip d0
    assert [p.second[0] for p in _candidates(SearchSpec(m=2))] == [1, -1, 1, -1] * 2


def test_shard_shares_partition_space():
    # a shard counts its equal share of the space as scanned, so the
    # shards' counts add up to 2^(M+1) at any shard count
    for shards in (1, 3, 4, 7, 64, 65, 200):
        shares = [SearchSpec(m=6, shards=shards, shard_index=i).share for i in range(shards)]
        assert sum(shares) == 128, shards
        assert set(shares) <= {128 // shards, -(-128 // shards)}, shards
    for index in (0, 3, 10**20 - 1):
        assert SearchSpec(m=6, shards=10**20, shard_index=index).share in (0, 1)


def test_aacs_vanishes_above_half_shift():
    # the identity that lets the search skip every shift above M/2: no index
    # pair at such a shift lies inside P+ or inside P-, for every candidate
    for m in range(4, 13, 2):
        for pair in _candidates(SearchSpec(m=m)):
            assert all(ref_aacs(pair, u) == 0 for u in range(m // 2 + 1, m)), m


def _class_join(m, middle, flip=None):
    """Class `middle`'s whole join as one pass, as an unsharded run_search runs it.

    Its c words come back as candidate encodings, (x << 1) | middle (c0's
    bit 0 is clear), so they compare exactly with conftest's scan_space.
    """
    (left,), (right,) = (_key_parts(m, middle, 1, 0, 1, side) for side in (0, 1))
    x = _join(m, middle, flip, left, right)
    return (x << np.uint64(1)) | np.uint64(middle)


def _whole_join(m):
    return np.sort(np.concatenate([_class_join(m, middle) for middle in range(4)]))


def _swap_fixed(encodings, m):
    """The encodings whose c has c_(M/2+1) = +1: of each swap pair the one the join lists."""
    x, _ = decode(encodings, m)
    return encodings[(x >> np.uint64(m // 2 + 1)) & np.uint64(1) == 0]


def _sign(word, j):
    return 1 - 2 * ((word >> np.uint64(j)) & np.uint64(1)).astype(np.int64)


def test_middle_class_decides_mid_aacs():
    # |AACS(M/2)| = |y + c_(M-1) x|, x = c_(M/2-1) - d_(M/2-1), y = c_(M/2) + d_(M/2),
    # so each middle class reaches fixed values; at M = 2 position M/2-1 is
    # c0, the two terms are one, and class 1 gives only 0
    reached = {middle: set() for middle in range(4)}
    for m in range(2, 17, 2):
        h = m // 2
        index = np.arange(SearchSpec(m=m).space, dtype=np.uint64)
        x, y = decode(index, m)
        mid = np.abs(word_aacs(x, y, m, h))
        if m >= 4:
            xs = _sign(x, h - 1) - _sign(y, h - 1)
            ys = _sign(x, h) + _sign(y, h)
            assert np.array_equal(mid, np.abs(ys + _sign(x, m - 1) * xs)), m
            # class 1's key bit: |AACS(M/2)| = 4 exactly when c_(M/2) = c_(M-1) c_(M/2-1)
            one = index % np.uint64(4) == 1
            product = _sign(x, h) == _sign(x, m - 1) * _sign(x, h - 1)
            assert np.array_equal(mid[one] == 4, product[one]), m
        seen = {k: set(mid[index % 4 == k].tolist()) for k in range(4)}
        assert seen == {0: {2}, 1: {0, 4} if m >= 4 else {0}, 2: {0}, 3: {2}}, m
        for k in range(4):
            reached[k] |= seen[k]
    # the search joins every class that reaches mid_abs but class 3, class 0's
    # reflection, and class 2, whose matches are all perfect (next test)
    values = set().union(*reached.values())
    assert {v: tuple(k for k, _ in entries) for v, entries in _MIDDLES.items()} == {
        None: (0, 1)
    } | {v: tuple(k for k in (0, 1) if v in reached[k]) for v in values}
    # class 1 takes the key bit, 0 for |AACS(M/2)| = 4 and 1 for 0, exactly
    # when mid_abs picks one of the two values it reaches
    class1 = [(v, bit) for v, entries in _MIDDLES.items() for k, bit in entries if k == 1]
    assert class1 == [(None, None), (0, 1), (4, 0)]
    assert all(bit is None for entries in _MIDDLES.values() for k, bit in entries if k != 1)


def test_class2_matches_are_perfect():
    # class 2 has d = (L, -R) for c = (L, R), so AACS and ACCS vanish from
    # shift M/2 on and a join match is a perfect pair of width M/2, which the
    # search's width check (M/2-1) would drop
    sizes = {}
    for m in range(4, 33, 2):
        joined = np.sort(_class_join(m, 2))
        sizes[m] = joined.size
        if m <= 22:
            want = _swap_fixed(scan_space(m, None), m)
            assert np.array_equal(joined, want[want % np.uint64(4) == 2]), m
        for v in joined:
            verdict = classify(_word_pair(*decode(int(v), m), m))
            assert verdict.is_perfect and verdict.czcp_width == m // 2, (m, int(v))
    assert {m: n for m, n in sizes.items() if n} == {4: 2, 8: 8, 16: 48, 20: 32, 32: 384}


def _pairs_inside(positions, u):
    inside = set(positions)
    return [(i, i + u) for i in sorted(inside) if i + u in inside]


def test_pairs_inside_the_halves_are_even_in_number():
    # the join matches d+ against t(u) - d-, t(u) = (k+(u) + k-(u)) / 2, so
    # k+ + k- must be even: for u <= M/2-1 the first u positions lie in P+ and
    # the last u in P-, so the number of pairs that cross between the sets
    # has the parity of u, and the M-u pairs less those are even in number
    for m in range(4, 57, 2):
        for middle in range(4):
            plus, minus = _halves(m, middle)
            for u in range(1, m // 2):
                k = len(_pairs_inside(plus, u)) + len(_pairs_inside(minus, u))
                assert k % 2 == 0, (m, middle, u)


def test_class0_middle_shift_holds_two_plus_pairs():
    # so a class 0 match has c_0 c_(M/2-1) + c_1 c_(M/2) = 0 there, and the
    # join derives c_(M/2) = -c_1 c_(M/2-1) instead of listing it
    for m in range(4, 57, 2):
        h = m // 2
        plus, minus = _halves(m, 0)
        assert _pairs_inside(plus, h - 1) == [(0, h - 1), (1, h)], m
        assert _pairs_inside(minus, h - 1) == [], m


def test_class0_matches_have_the_derived_middle_sign():
    # on the block scanner's matches, the sign the join derives in class 0
    found = 0
    for m in range(4, 23, 2):
        h = m // 2
        matches = scan_space(m, None)
        x, _ = decode(matches[matches % np.uint64(4) == 0], m)
        assert np.array_equal(_sign(x, h), -_sign(x, 1) * _sign(x, h - 1)), m
        found += x.size
    assert found


def test_decode_arrays_match_scalar_decode():
    # the oracle's decoder, on uint64 arrays as scan_block calls it and on ints
    for m in range(2, 13, 2):
        space = SearchSpec(m=m).space
        x, y = decode(np.arange(space, dtype=np.uint64), m)
        assert x.dtype == y.dtype == np.uint64
        assert [(int(a), int(b)) for a, b in zip(x, y)] == [
            decode(i, m) for i in range(space)
        ], m


def _search_joins(m, mid_abs):
    """The joins a search with `mid_abs` runs, as sorted encodings (_class_join)."""
    joins = [_class_join(m, middle, flip) for middle, flip in _MIDDLES.get(mid_abs, ())]
    return np.sort(np.concatenate([np.zeros(0, dtype=np.uint64), *joins]))


def _in_classes(encodings, mid_abs):
    """The encodings of the middle classes a search with `mid_abs` joins."""
    classes = [middle for middle, _ in _MIDDLES.get(mid_abs, ())]
    return encodings[np.isin(encodings % np.uint64(4), classes)]


def test_oracle_matches_are_closed_under_swap():
    # swapping c and d keeps s = c d, so the middle class, and every AACS
    # term; it complements c on P-, where c_(M/2+1) = -d_(M/2+1), so that
    # sign flips. The oracle's matches of each class therefore come in swap
    # pairs, one of each with c_(M/2+1) = +1, the one the join lists
    found = 0
    for m in range(4, 23, 2):
        for mid_abs in (None, 0, 2, 4):
            matches = scan_space(m, mid_abs)
            x, y = decode(matches, m)
            assert np.all((x ^ y) >> np.uint64(m // 2 + 1) & np.uint64(1)), (m, mid_abs)
            for middle in range(4):
                of_class = matches % np.uint64(4) == middle
                pairs = set(zip(x[of_class].tolist(), y[of_class].tolist()))
                assert {(b, a) for a, b in pairs} == pairs, (m, mid_abs, middle)
            assert 2 * _swap_fixed(matches, m).size == matches.size, (m, mid_abs)
            found += matches.size
    assert found


def test_join_matches_block_scanner():
    # includes M = 18 and 22, where no candidate survives; a search's joins
    # hold exactly the scanner's matches of the classes they join that have
    # c_(M/2+1) = +1
    for m in range(4, 23, 2):
        joined = _whole_join(m)
        assert joined.dtype == np.uint64
        assert np.array_equal(joined, _swap_fixed(scan_space(m, None), m)), m
        for mid_abs in (None, 0, 2, 4, 6):
            want = _in_classes(_swap_fixed(scan_space(m, mid_abs), m), mid_abs)
            assert np.array_equal(_search_joins(m, mid_abs), want), (m, mid_abs)
    assert scan_space(18, None).size == scan_space(22, None).size == 0


def test_search_joins_hold_the_matches_of_seed_shape():
    # the join is the search's only check before the width: with class 1's
    # key bit its matches are exactly the joined classes' candidates that the
    # definition accepts with the requested |AACS(M/2)|
    for m in range(4, 29, 2):
        joined = _whole_join(m)
        pairs = [_word_pair(*decode(int(i), m), m) for i in joined]
        for mid_abs in (None, 0, 2, 4):
            want = [int(i) for i, p in zip(joined, pairs) if ref_seed_shape(p, mid_abs)]
            want = _in_classes(np.array(want, dtype=np.uint64), mid_abs)
            assert np.array_equal(_search_joins(m, mid_abs), want), (m, mid_abs)


def test_class1_key_bit_joins_the_filtered_matches():
    # at every even M <= 28, class 1's join with the key bit is the join
    # without it filtered on |AACS(M/2)| by the oracle's scan_block
    found = {0: 0, 4: 0}
    for m in range(4, 29, 2):
        plain = _class_join(m, 1)
        for mid_abs in (0, 4):
            ((middle, flip),) = _MIDDLES[mid_abs]
            assert middle == 1 and flip is not None
            got = np.sort(_class_join(m, 1, flip))
            assert np.array_equal(got, np.sort(scan_block(plain, m, mid_abs))), (m, mid_abs)
            found[mid_abs] += got.size
    # both values occur, so neither side of the bit is vacuous
    assert found[0] and found[4]


def test_join_compares_shifts_past_the_key(monkeypatch):
    # up to M = 22 the packed key holds every shift; a shorter key makes the
    # join match on part of each row and compare the rest, as from M = 24 on
    import czcp.search as search_mod

    want = {m: _swap_fixed(scan_space(m, None), m) for m in range(4, 17, 2)}
    for key_shifts in (0, 1, 3):
        monkeypatch.setattr(search_mod, "_KEY_SHIFTS", key_shifts)
        for m, ref in want.items():
            assert np.array_equal(_whole_join(m), ref), (key_shifts, m)
            # class 1's key bit holds with no key field beside it, too
            for mid_abs in (0, 4):
                want_mid = _in_classes(_swap_fixed(scan_space(m, mid_abs), m), mid_abs)
                assert np.array_equal(_search_joins(m, mid_abs), want_mid), (key_shifts, m)


def test_half_key_blocks_build_the_same_key(monkeypatch):
    # _half_key keys _KEY_BLOCK words at a time; blocks that do not divide
    # the half, down to one word, give the key and the join of one block
    import czcp.search as search_mod

    want = {m: _swap_fixed(scan_space(m, None), m) for m in range(4, 17, 2)}
    words = np.arange(1000, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    whole = search_mod._half_key(words, (1 << 40) - 1, range(1, 11))
    for block in (1, 3, 64):
        monkeypatch.setattr(search_mod, "_KEY_BLOCK", block)
        assert np.array_equal(search_mod._half_key(words, (1 << 40) - 1, range(1, 11)), whole)
        for m, ref in want.items():
            assert np.array_equal(_whole_join(m), ref), (block, m)


def test_shard_joins_partition_the_search(monkeypatch):
    # the shards' matches are disjoint and add up to the unsharded search's
    import czcp.search as search_mod

    seen = []
    real = search_mod._scan_block

    def recording(words):
        seen.extend(int(v) for v in words)
        return real(words)

    monkeypatch.setattr(search_mod, "_scan_block", recording)
    single = run_search(SearchSpec(m=12))
    whole = sorted(seen)
    assert whole
    seen.clear()
    for shards in (3, 7, 64, 2**63, 10**20):
        # the key fields lie in [0, 64): shards past the 64th join nothing
        specs = [SearchSpec(m=12, shards=shards, shard_index=i) for i in range(min(shards, 65))]
        parts = [run_search(spec) for spec in specs]
        assert sorted(seen) == whole
        union = {p.texts() for part in parts for p in part.pairs}
        assert sorted(union) == [p.texts() for p in single.pairs]
        seen.clear()


def test_shard_that_owns_no_field_lists_nothing(monkeypatch):
    # a match's shift-1 field is a P+ word's 32 + d+(1), 0 <= d+(1) <= k+(1).
    # At M = 24 class 0's fields 32..44 fall in shards 0..12 of 16 and class
    # 1's 32..42 in shards 0..10, so shards 11 and 12 list class 0's two
    # halves only and shards 13..15 list nothing
    import czcp.search as search_mod

    listed = []
    real = search_mod._half_words

    def counting(positions):
        listed.append(positions)
        return real(positions)

    monkeypatch.setattr(search_mod, "_half_words", counting)
    counts, union = [], set()
    for index in range(16):
        part = run_search(SearchSpec(m=24, shards=16, shard_index=index, allow_large=True))
        union.update(_texts(part))
        counts.append(len(listed))
        listed.clear()
    assert counts == [4] * 11 + [2] * 2 + [0] * 3
    assert sorted(union) == _texts(run_search(SearchSpec(m=24, allow_large=True)))


def _shard_parts(m, middle, shards, index, jobs):
    """Shard `index`'s `jobs` key parts of each half of class `middle`: (lefts, rights)."""
    return tuple(_key_parts(m, middle, shards, index, jobs, side) for side in (0, 1))


def _same_words(a, b):
    return np.array_equal(np.sort(a), np.sort(b))


def test_key_parts_partition_the_join():
    # shard i of S joins the words whose shift-1 key field is i mod S, and
    # its J passes the fields that are i + S k mod S*J; the field is equal
    # on both sides of every match, so the shards' joins are disjoint and
    # add up to the class's whole join, and a shard's J parts hold exactly
    # the words of its one-job part
    for m in range(4, 21, 2):
        for middle in range(4):
            (left,), (right,) = _shard_parts(m, middle, 1, 0, 1)
            whole = _join(m, middle, None, left, right)
            lbits, rbits, totals = _class_sums(m, middle)
            fields = (  # each side's shift-1 key field (module docstring)
                lambda words: 32 + _differ(words, lbits, 1).astype(np.int64),
                lambda words: 32 + totals[0] - _differ(words, rbits, 1).astype(np.int64),
            )
            for shards in (1, 2, 3, 4, 7):
                joins = []
                for index in range(shards):
                    one_job = _shard_parts(m, middle, shards, index, 1)
                    joins.append(_join(m, middle, None, *one_job[0], *one_job[1]))
                    if m == 20 and shards >= 2:
                        # a shard keys only its own part of P+
                        assert one_job[0][0].size < left.size, (middle, shards, index)
                    for jobs in (1, 2, 3):
                        key = (m, middle, shards, index, jobs)
                        split = _shard_parts(m, middle, shards, index, jobs)
                        for parts, (words,), field in zip(split, one_job, fields):
                            assert len(parts) == jobs, key
                            assert _same_words(np.concatenate(parts), words), key
                            for k, part in enumerate(parts):
                                got = field(part) % (shards * jobs)
                                assert np.all(got == index + shards * k), key
                        got = np.concatenate([_join(m, middle, None, *p) for p in zip(*split)])
                        assert np.unique(got).size == got.size, key
                        assert _same_words(got, joins[-1]), key
                union = np.concatenate(joins)
                assert np.unique(union).size == union.size, (m, middle, shards)
                assert _same_words(union, whole), (m, middle, shards)
            if m >= 8:
                # the split is real: no part of three holds every word of a half
                for half, parts in zip((left, right), _shard_parts(m, middle, 1, 0, 3)):
                    assert max(part.size for part in parts) < half.size, (m, middle)


@pytest.fixture(scope="module")
def whole_joins():
    return {m: _whole_join(m) for m in range(4, 29, 2)}


def _four_class_search(joined, m, mid_abs):
    """run_search's classes from all four middle classes' joins, filtered by scan_block."""
    keys = {_canonical_words(*decode(int(v), m), m) for v in scan_block(joined, m, mid_abs)}
    reps = [_key_pair(key, m) for key in sorted(keys)]
    return [p.texts() for p in reps if czcp_width(p) == m // 2 - 1]


@pytest.mark.usefixtures("three_cpus")
@pytest.mark.parametrize("mid_abs", [None, 0, 1, 2, 4, 6])
def test_search_matches_four_class_reference(whole_joins, mid_abs):
    # joining only the classes mid_abs can reach loses no class; under
    # shards only the union is exact, as a class can be found in several
    for m, joined in whole_joins.items():
        want = _four_class_search(joined, m, mid_abs)
        spec = SearchSpec(m=m, mid_abs=mid_abs, allow_large=True)
        assert [p.texts() for p in run_search(spec).pairs] == want, m
        assert [p.texts() for p in run_search_parallel(spec, 2).pairs] == want, m
        shards = [
            run_search(SearchSpec(m=m, mid_abs=mid_abs, shards=3, shard_index=i, allow_large=True))
            for i in range(3)
        ]
        assert sorted({p.texts() for part in shards for p in part.pairs}) == want, m


def test_search_classes_are_checked_once():
    # run_search verifies one representative per class; that is sound only
    # because every equivalent of a survivor has its width and |mid_aacs|
    for m in (6, 12, 24, 28):
        survivors = scan_block(_whole_join(m), m, None)
        assert survivors.size
        for index in survivors:
            pair = _word_pair(*decode(int(index), m), m)
            want = classify(pair)
            for q in equivalents(pair):
                v = classify(q)
                assert v.czcp_width == want.czcp_width, (m, int(index))
                assert abs(v.mid_aacs) == abs(want.mid_aacs), (m, int(index))
            key = _canonical_words(*decode(int(index), m), m)
            assert czcp_width(_key_pair(key, m)) == want.czcp_width


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


def test_search_keeps_only_optimal_pairs():
    # at M = 2 the target width M/2-1 is 0, which is no CZCP, so no class is kept
    assert run_search(SearchSpec(m=2)).pairs == ()
    for m in (2, 4):
        brute = brute_force_search(m)
        assert [p.texts() for p in run_search(SearchSpec(m=m)).pairs] == [
            p.texts() for p in brute.pairs
        ]
    for m in range(2, 23, 2):
        for pair in run_search(SearchSpec(m=m)).pairs:
            assert classify(pair).is_optimal, (m, pair.texts())


def test_search_spectrum_of_results():
    for m in (6, 12):
        res = run_search(SearchSpec(m=m, mid_abs=2))
        for pair in res.pairs:
            prof = list(aacs_profile(pair))
            assert prof[0] == 2 * m
            assert abs(prof[m // 2]) == 2
            rest = prof[1 : m // 2] + prof[m // 2 + 1 :]
            assert all(v == 0 for v in rest)


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


@pytest.mark.usefixtures("three_cpus")
def test_join_runs_once_per_class_below_thread_length(monkeypatch):
    import czcp.search as search_mod

    joins = []
    real = search_mod._join

    def counting(m, middle, *args):
        joins.append(middle)
        return real(m, middle, *args)

    monkeypatch.setattr(search_mod, "_join", counting)
    for mid_abs in (None, 0, 2, 4, 6):
        spec = SearchSpec(m=24, mid_abs=mid_abs, allow_large=True)
        want = run_search(spec)
        assert joins == [k for k, _ in _MIDDLES.get(mid_abs, ())], mid_abs
        joins.clear()
        assert _texts(run_search_parallel(spec, 2)) == _texts(want)
        assert joins == [k for k, _ in _MIDDLES.get(mid_abs, ())], mid_abs
        joins.clear()


def test_seed_class_counts_stable():
    # no published count exists; freeze what the exhaustive scan finds
    assert run_search(SearchSpec(m=6, mid_abs=2)).classes == 4
    assert run_search(SearchSpec(m=12, mid_abs=2)).classes == 8


# --- worker threads --------------------------------------------------------------


@pytest.fixture
def three_cpus(monkeypatch):
    # run_search_parallel refuses more jobs than os.cpu_count(); the tests
    # that run 2 and 3 jobs report at least 3 CPUs, so they run on any host
    cpus = os.cpu_count() or 1
    monkeypatch.setattr(os, "cpu_count", lambda: max(cpus, 3))


def test_jobs_outside_cpu_count_refused(monkeypatch):
    # the bound is the library's: at a length that runs on threads it is
    # refused before any thread starts, with the message the CLI reports
    # (tests/test_cli.py checks the CLI's refusal at M = 6)
    import czcp.search as search_mod

    def no_search(*args, **kwargs):
        raise AssertionError("a search was started")

    # threads start only through ThreadPoolExecutor, and every pass joins through _join
    monkeypatch.setattr(search_mod, "ThreadPoolExecutor", no_search)
    monkeypatch.setattr(search_mod, "_join", no_search)
    cpus = os.cpu_count() or 1
    spec = SearchSpec(m=_THREADS_MIN_M, allow_large=True)
    for jobs in (0, -1, cpus + 1, 10**9):
        message = rf"^--jobs must be in 1\.\.{cpus} \(the CPU count\), got {jobs}$"
        with pytest.raises(SearchSpecError, match=message):
            run_search_parallel(spec, jobs)
    # the bound is inclusive: 1 and cpus jobs start the search
    for jobs in (1, cpus):
        with pytest.raises(AssertionError, match="a search was started"):
            run_search_parallel(spec, jobs)


def _texts(result):
    return [p.texts() for p in result.pairs]


@pytest.mark.usefixtures("three_cpus")
def test_parallel_matches_single_below_thread_length():
    # below _THREADS_MIN_M run_search_parallel is run_search
    for m in range(2, 21, 2):
        for mid_abs in (None, 0, 2, 4):
            for shards, index in ((1, 0), (3, 1)):
                spec = SearchSpec(m=m, mid_abs=mid_abs, shards=shards, shard_index=index)
                want, got = run_search(spec), run_search_parallel(spec, 2)
                assert _texts(got) == _texts(want), spec
                assert got.candidates_scanned == want.candidates_scanned, spec


def _progress_calls(run):
    calls = []
    result = run(lambda done, total: calls.append((done, total)))
    return result, calls


@pytest.mark.usefixtures("three_cpus")
@pytest.mark.parametrize("m", [32, 34])
def test_threaded_search_matches_single(m):
    assert m >= _THREADS_MIN_M
    for mid_abs in (None, 0, 2, 4):
        for shards, index in ((1, 0), (3, 1)):
            spec = SearchSpec(
                m=m, mid_abs=mid_abs, shards=shards, shard_index=index, allow_large=True
            )
            want = run_search(spec)
            for jobs in (2, 3):
                threads = threading.active_count()
                got, calls = _progress_calls(lambda p: run_search_parallel(spec, jobs, p))
                assert threading.active_count() == threads
                assert _texts(got) == _texts(want), (spec, jobs)
                assert got.candidates_scanned == want.candidates_scanned
                # the same passes run in turn report the same progress
                _, in_turn = _progress_calls(lambda p: _search(spec, p, jobs, map))
                assert calls == in_turn, (spec, jobs)


def _thread_log(monkeypatch):
    """Wrap the names a search calls; returns {name: set of thread idents}."""
    import czcp.search as search_mod

    log = {"_join": set(), "_scan_block": set(), "czcp_width": set()}
    for name, threads in log.items():
        def wrapped(*args, _f=getattr(search_mod, name), _threads=threads):
            _threads.add(threading.get_ident())
            return _f(*args)

        monkeypatch.setattr(search_mod, name, wrapped)
    return log


@pytest.mark.usefixtures("three_cpus")
@pytest.mark.parametrize(("m", "threaded"), [(28, False), (30, False), (32, True), (34, True)])
def test_join_runs_on_workers_from_thread_length(monkeypatch, m, threaded):
    log = _thread_log(monkeypatch)
    here = threading.get_ident()
    threads = threading.active_count()
    run_search_parallel(SearchSpec(m=m, allow_large=True), 2)
    assert threading.active_count() == threads
    if threaded:
        assert log["_join"] and here not in log["_join"]
    else:
        assert log["_join"] == {here}
    # the names perfbench/tracer.py wraps run only here, since its span stack
    # is one per process; no class reaches czcp_width at M = 30 and 34
    assert log["_scan_block"] == {here} and log["czcp_width"] <= {here}


@pytest.mark.usefixtures("three_cpus")
def test_failing_progress_leaves_no_thread():
    spec = SearchSpec(m=32, allow_large=True)

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
    "spec = SearchSpec(m=32, mid_abs=2, allow_large=True)\n"
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
    "    run_search_parallel(SearchSpec(m=m, mid_abs=2, allow_large=True), 2)\n"
    "assert nothing_left()\n"
)
_CLI_EXIT = (
    "from czcp.cli import main\n"
    "code = main(['search', '--length', '32', '--mid-abs', '2', '--allow-large', '--jobs', '2'])\n"
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
