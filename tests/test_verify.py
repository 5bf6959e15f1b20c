from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from czcp import catalog, verify
from czcp.correlation import aacs_profile, accs_profile
from czcp.search import equivalents
from czcp.sequences import BinarySequence, SequencePair
from czcp.verify import (
    classify,
    czc_ratio,
    czcp_width,
    golay_factorization,
    is_gcp,
    lemma5_structure_holds,
    lemma9_condition_holds,
    zcp_width,
)

from conftest import (
    random_pair,
    random_sequence,
    ref_accs,
    ref_czcp_width,
    ref_zcp_width,
)


def test_zcp_width_gcp_is_full_length():
    pair = catalog.get("GCP10").pair
    assert zcp_width(pair) == 10
    assert is_gcp(pair)


def test_zcp_width_trivial_pair():
    assert zcp_width(SequencePair.from_texts("+", "+")) == 1


def _edge_pairs():
    """The width scans' edge cases: every pair of length 1 (no nonzero shift) and
    2 (one), and every catalog GCP (AACS zero at every nonzero shift)."""
    pairs = [
        SequencePair(BinarySequence(a), BinarySequence(b))
        for n in (1, 2)
        for a in product((1, -1), repeat=n)
        for b in product((1, -1), repeat=n)
    ]
    return pairs + [catalog.get(eid).pair for eid in ("GCP2", "GCP10", "GCP26")]


def test_zcp_width_matches_brute_force(rng):
    pairs = _edge_pairs() + [random_pair(rng, rng.randint(1, 16)) for _ in range(300)]
    for p in pairs:
        assert zcp_width(p) == ref_zcp_width(p)


def test_czcp_width_seeds():
    assert czcp_width(catalog.seed("K6").pair) == 2
    assert czcp_width(catalog.seed("K28").pair) == 13


def test_czcp_width_worked_example():
    pair = catalog.get("EX1").pair
    w = czcp_width(pair)
    assert w >= 24  # construction guarantee
    assert w == 24  # and in fact exactly 24


def test_czcp_width_matches_brute_force(rng):
    hits = 0
    for p in _edge_pairs() + [random_pair(rng, rng.randint(2, 14)) for _ in range(400)]:
        w = czcp_width(p)
        assert w == ref_czcp_width(p)
        hits += w > 0
    assert hits  # sanity: the sample is not degenerate


def test_czcp_width_never_exceeds_half(rng):
    for _ in range(300):
        p = random_pair(rng, rng.randint(1, 20))
        assert czcp_width(p) <= p.n // 2
    for eid in catalog.ids():
        p = catalog.get(eid).pair
        assert czcp_width(p) <= p.n // 2


def test_czc_ratio_optimal_seed():
    assert czc_ratio(catalog.seed("K12").pair) == 1


def test_czc_ratio_worked_example():
    assert czc_ratio(catalog.get("EX1").pair) == Fraction(24, 29)


def test_czc_ratio_perfect_length4():
    pair = catalog.golay_pair(4)
    v = classify(pair)
    assert v.is_perfect and v.czc_ratio == 1 and v.z_max == 2


def test_czc_ratio_odd_length_unsupported():
    with pytest.raises(ValueError):
        czc_ratio(SequencePair.from_texts("+-+", "++-"))
    v = classify(SequencePair.from_texts("+-+", "++-"))
    assert v.czc_ratio is None and v.z_max is None and v.mid_aacs is None


def test_golay_factorization_known():
    f = golay_factorization(26)
    assert (f.alpha, f.beta, f.gamma) == (0, 0, 1)
    f = golay_factorization(20)
    assert (f.alpha, f.beta, f.gamma) == (1, 1, 0)
    assert golay_factorization(6) is None
    assert golay_factorization(1).n == 1


def test_golay_factorization_matches_enumeration():
    limit = 1500
    golay = set()
    a = 1
    while a <= limit:
        b = a
        while b <= limit:
            c = b
            while c <= limit:
                golay.add(c)
                c *= 26
            b *= 10
        a *= 2
    for n in range(1, limit + 1):
        f = golay_factorization(n)
        if n in golay:
            assert f is not None and f.n == n
        else:
            assert f is None


def test_lemma5_on_seed():
    assert lemma5_structure_holds(catalog.seed("K24").pair, 11)


def test_lemma5_depth_zero_is_vacuous(rng):
    for _ in range(30):
        p = random_pair(rng, rng.randint(2, 16))
        assert lemma5_structure_holds(p, 0)


def test_lemma5_violation():
    p = SequencePair.from_texts("++++", "+-++")
    assert not lemma5_structure_holds(p, 1)


def test_lemma5_necessary_for_measured_width(rng):
    pairs = [catalog.get(eid).pair for eid in catalog.ids()]
    pairs += [random_pair(rng, rng.randint(2, 14)) for _ in range(200)]
    for p in pairs:
        w = czcp_width(p)
        if p.n % 2 == 0:
            assert lemma5_structure_holds(p, w)


def test_lemma6_structure_forces_tail_cross_zeros(rng):
    for _ in range(300):
        n = 2 * rng.randint(2, 12)
        z = rng.randint(1, n // 2)
        a = random_sequence(rng, n)
        k = rng.choice((1, -1))
        vals_b = [rng.choice((1, -1)) for _ in range(n)]
        for i in range(z):
            vals_b[i] = k * a[i]
            vals_b[n - 1 - i] = -k * a[n - 1 - i]
        p = SequencePair(a, BinarySequence(vals_b))
        # a_i = (a0/b0) b_i pattern with kappa = a0*b0 = k matches construction
        assert lemma5_structure_holds(p, z)
        for u in range(n - z, n):
            assert ref_accs(p, u) == 0


def test_lemma9_on_seeds():
    for eid in ("K6", "K12", "K24", "K28"):
        assert lemma9_condition_holds(catalog.seed(eid).pair)


def test_lemma9_on_length2_gcp():
    assert lemma9_condition_holds(catalog.get("GCP2").pair)


def test_lemma9_odd_length_rejected():
    with pytest.raises(ValueError):
        lemma9_condition_holds(SequencePair.from_texts("+-+", "++-"))


def test_classify_composed48():
    v = classify(catalog.get("K48").pair)
    assert v.n == 48
    assert v.czcp_width == 23
    assert v.is_optimal
    assert v.mid_aacs == 4


def test_classify_worked_example():
    v = classify(catalog.get("EX1").pair)
    assert v.n == 60 and v.czcp_width == 24 and v.mid_aacs == -20
    assert not v.is_optimal  # 24 < 29


def test_classify_length2_kernel():
    v = classify(catalog.get("GCP2").pair)
    assert v.is_gcp and v.is_perfect and v.is_optimal and v.czc_ratio == 1


def test_classify_flag_consistency(rng):
    for _ in range(200):
        p = random_pair(rng, rng.randint(1, 16))
        v = classify(p)
        assert v.is_gcp == (v.zcp_width == v.n)
        if v.is_perfect:
            assert v.is_gcp
        if v.n % 2 == 0:
            assert v.is_optimal == (v.czc_ratio == 1)
            assert v.czc_ratio <= 1
        if v.golay is not None:
            assert v.golay.n == v.n


def test_width_invariant_under_equivalence(rng):
    pairs = [catalog.seed(e).pair for e in ("K6", "K12")]
    pairs += [random_pair(rng, rng.randint(2, 12)) for _ in range(60)]
    for p in pairs:
        w = czcp_width(p)
        for q in equivalents(p):
            assert czcp_width(q) == w


def test_half_length_bound_on_unstructured_random(rng):
    for _ in range(1000):
        p = random_pair(rng, rng.randint(1, 32))
        assert czcp_width(p) <= p.n // 2


def test_classify_computes_each_profile_once(monkeypatch, rng):
    calls = {"aacs_profile": 0, "accs_profile": 0}

    def counted(name):
        fn = getattr(verify, name)

        def wrapper(pair):
            calls[name] += 1
            return fn(pair)

        return wrapper

    for name in calls:
        monkeypatch.setattr(verify, name, counted(name))
    for pair in (catalog.get("EX1").pair, random_pair(rng, 9), random_pair(rng, 400)):
        for name in calls:
            calls[name] = 0
        v = classify(pair)
        assert calls == {"aacs_profile": 1, "accs_profile": 1}
        assert v.zcp_width == zcp_width(pair)
        assert v.czcp_width == czcp_width(pair)
        if pair.n % 2 == 0:
            assert v.czc_ratio == czc_ratio(pair)


def test_verdict_carries_read_only_profiles(rng):
    for pair in (catalog.get("EX1").pair, random_pair(rng, 9), random_pair(rng, 600)):
        v = classify(pair)
        for got, want in ((v.aacs, aacs_profile(pair)), (v.accs, accs_profile(pair))):
            assert got.dtype == np.int64
            assert np.array_equal(got, want)
            with pytest.raises(ValueError):
                got[0] = 0
        # the profiles take no part in equality, hashing or repr
        other = replace(v, aacs=np.zeros_like(v.aacs), accs=np.zeros_like(v.accs))
        assert other == v and hash(other) == hash(v)
        assert repr(other) == repr(v) and " aacs=" not in repr(v)
