"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is an integer (or Fraction) equality at the tolerance the
criterion states: none. Runtime limits are asserted where the criterion
pins them.
"""

import random
import time

import numpy as np

from czcp import catalog
from czcp.correlation import aacs_profile, accs_profile
from czcp.search import (
    SearchSpec,
    canonicalize,
    run_search,
)
from czcp.sequences import BinarySequence, SequencePair
from czcp.turyn import construct_theorem1
from czcp.verify import classify, czcp_width

from conftest import brute_force_search, outside_in_census, ref_accf

SEED_IDS = ("K6", "K12", "K24", "K28")


def _report(num, detail):
    print(f"ACCEPTANCE {num}: PASS ({detail})")


def test_criterion_1_seed_table_fixtures():
    t0 = time.monotonic()
    want = {
        "K6": (6, 2, (12, 0, 0, -2, 0, 0), (-4, -4, 0, 2, 0, 0)),
        "K12": (12, 5, None, None),
        "K24": (24, 11, None, None),
        "K28": (28, 13, None, None),
    }
    for eid in SEED_IDS:
        entry = catalog.seed(eid)
        n, width, aacs, accs = want[eid]
        assert entry.pair.n == n
        assert tuple(int(v) for v in aacs_profile(entry.pair)) == entry.aacs
        assert tuple(int(v) for v in accs_profile(entry.pair)) == entry.accs
        if aacs is not None:
            assert entry.aacs == aacs and entry.accs == accs
        v = classify(entry.pair)
        assert v.czcp_width == width
        assert v.is_optimal
        assert abs(v.mid_aacs) == 2
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(1, f"4 seed fixtures exact in {elapsed:.3f}s")


def test_criterion_2_worked_example_bit_exact():
    t0 = time.monotonic()
    entry = catalog.get("EX1")
    rep = construct_theorem1(catalog.get("GCP10").pair, catalog.seed("K6").pair)
    assert str(rep.pair.first) == str(entry.pair.first)
    assert str(rep.pair.second) == str(entry.pair.second)
    assert tuple(int(v) for v in aacs_profile(rep.pair)) == entry.aacs
    assert tuple(int(v) for v in accs_profile(rep.pair)) == entry.accs
    assert entry.aacs == (120,) + (0,) * 29 + (-20,) + (0,) * 29
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(2, f"60-symbol pair and both profiles exact in {elapsed:.3f}s")


def test_criterion_3_composed_table():
    t0 = time.monotonic()
    gcp2 = catalog.get("GCP2").pair
    expect = {
        "K6": ("T2K12", 12, 5),
        "K12": ("T2K24", 24, 11),
        "K24": ("T2K48", 48, 23),
        "K28": ("T2K56", 56, 27),
    }
    for seed_id, (out_id, n, width) in expect.items():
        entry = catalog.get(out_id)
        rep = construct_theorem1(gcp2, catalog.seed(seed_id).pair)
        assert rep.pair == entry.pair, f"{out_id}: sequence-level mismatch"
        assert tuple(int(v) for v in aacs_profile(rep.pair)) == entry.aacs
        assert tuple(int(v) for v in accs_profile(rep.pair)) == entry.accs
        v = classify(rep.pair)
        assert (v.n, v.czcp_width, v.is_optimal) == (n, width, True)
    k48 = catalog.get("T2K48")
    assert k48.aacs == (96,) + (0,) * 23 + (4,) + (0,) * 23
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(3, f"all four composed pairs exact (no equivalence transform needed) in {elapsed:.3f}s")


def test_criterion_4_spectrum_property():
    t0 = time.monotonic()
    combos = 0
    for n in (2, 4, 8, 10, 16, 20):
        gcp = catalog.golay_pair(n)
        z_a = czcp_width(gcp)
        for seed_id in SEED_IDS:
            seed = catalog.seed(seed_id).pair
            m = seed.n
            rep = construct_theorem1(gcp, seed, auto_normalize=True)
            assert rep.condition_eq4, f"sign condition must hold for N={n}, {seed_id}"
            prof = [int(v) for v in aacs_profile(rep.pair)]
            mn = n * m
            assert prof[0] == 2 * mn
            assert abs(prof[mn // 2]) == 2 * n
            assert all(
                prof[u] == 0 for u in range(1, mn) if u != mn // 2
            ), f"nonzero off-peak AACS for N={n}, {seed_id}"
            assert rep.measured_width >= (m // 2 - 1) * n + z_a
            combos += 1
    assert combos == 24 >= 20
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(4, f"{combos} GCP x seed combinations in {elapsed:.2f}s")


def test_criterion_5_search_reproduction():
    res6 = run_search(SearchSpec(m=6, mid_abs=2))
    assert res6.elapsed < 1.0
    assert canonicalize(catalog.seed("K6").pair) in res6.pairs

    brute = brute_force_search(6, mid_abs=2)
    assert [p.texts() for p in res6.pairs] == [p.texts() for p in brute.pairs]

    res12 = run_search(SearchSpec(m=12, mid_abs=2))
    assert res12.elapsed < 10.0
    assert canonicalize(catalog.seed("K12").pair) in res12.pairs
    _report(
        5,
        f"M=6 ({res6.classes} classes, brute-force match) in {res6.elapsed:.3f}s; "
        f"M=12 ({res12.classes} classes) in {res12.elapsed:.3f}s",
    )


def test_criterion_6_large_searches():
    res24 = run_search(SearchSpec(m=24, mid_abs=2))
    assert res24.elapsed < 300.0
    assert canonicalize(catalog.seed("K24").pair) in res24.pairs
    assert res24.classes == 4

    res28 = run_search(SearchSpec(m=28, mid_abs=2))
    assert res28.elapsed < 3600.0
    assert canonicalize(catalog.seed("K28").pair) in res28.pairs
    assert res28.classes == 8
    _report(
        6,
        f"M=24 in {res24.elapsed:.3f}s ({res24.classes} classes); "
        f"M=28 in {res28.elapsed:.3f}s ({res28.classes} classes)",
    )


def test_criterion_7_property_suites():
    rng = random.Random(20260810)
    t0 = time.monotonic()

    # correlation identities on 10^4 random pairs, N <= 64, all shifts
    for _ in range(10_000):
        n = rng.randint(1, 64)
        av = np.array([rng.choice((1, -1)) for _ in range(n)], dtype=np.int64)
        bv = np.array([rng.choice((1, -1)) for _ in range(n)], dtype=np.int64)
        ab = np.correlate(bv, av, mode="full")  # index N-1+u holds rho(a,b;u)
        ba = np.correlate(av, bv, mode="full")
        assert np.array_equal(ba[n - 1 :], ab[n - 1 :: -1])  # rho(b,a;u) == rho(a,b;-u)
        ra = np.correlate(av, av, mode="full")[n - 1 :]
        rr = np.correlate(av[::-1], av[::-1], mode="full")[n - 1 :]
        assert np.array_equal(ra, rr)  # reversal leaves the AACF alone
        arb = np.correlate(bv[::-1], av, mode="full")[n - 1 :]
        bra = np.correlate(av[::-1], bv, mode="full")[n - 1 :]
        assert np.array_equal(arb, bra)  # rho(a, rev b; u) == rho(b, rev a; u)

    # half-structure forces the tail cross-correlation zone on 10^3 pairs
    for _ in range(1_000):
        n = 2 * rng.randint(2, 16)
        z = rng.randint(1, n // 2)
        a = [rng.choice((1, -1)) for _ in range(n)]
        b = [rng.choice((1, -1)) for _ in range(n)]
        k = rng.choice((1, -1))
        for i in range(z):
            b[i] = k * a[i]
            b[n - 1 - i] = -k * a[n - 1 - i]
        pair = SequencePair(BinarySequence(a), BinarySequence(b))
        accs = accs_profile(pair)
        assert all(int(accs[u]) == 0 for u in range(n - z, n))
        # and the verifier never exceeds the half-length bound
        assert czcp_width(pair) <= n // 2

    # np.correlate vs the naive double loop, entry for entry
    for _ in range(10_000):
        n = rng.randint(1, 64)
        a = [rng.choice((1, -1)) for _ in range(n)]
        b = [rng.choice((1, -1)) for _ in range(n)]
        prof_fast = np.correlate(
            np.array(b, dtype=np.int64), np.array(a, dtype=np.int64), "full"
        )[n - 1 :]
        for u in range(n):
            assert int(prof_fast[u]) == ref_accf(a, b, u)

    # the search vs the outside-in census, which assumes no half structure, at M = 4..16
    for m in range(4, 17, 2):
        census = outside_in_census(m, m // 2 - 1).classes
        want = [t for t, (width, _) in census.items() if width == m // 2 - 1]
        assert [p.texts() for p in run_search(SearchSpec(m=m)).pairs] == want, m

    # shard determinism at M in {6, 12} for 1, 2, 4, 8 shards: the union of
    # the shards' classes is the single run's, and their counts sum to 2^(M+1)
    for m in (6, 12):
        single = run_search(SearchSpec(m=m, mid_abs=2))
        for shards in (1, 2, 4, 8):
            parts = [
                run_search(SearchSpec(m=m, mid_abs=2, shards=shards, shard_index=i))
                for i in range(shards)
            ]
            union = {p.texts() for part in parts for p in part.pairs}
            assert sorted(union) == [p.texts() for p in single.pairs]
            assert sum(part.candidates_scanned for part in parts) == 1 << (m + 1)
    elapsed = time.monotonic() - t0
    _report(7, f"identity, zone, oracle and determinism suites in {elapsed:.1f}s")


def test_criterion_8_composition_width_formulas():
    t0 = time.monotonic()
    details = []
    # the paper's width of seed M composed with a GCP of each family
    formulas = {
        1: ("(M-1)N/2", lambda m, n: (m - 1) * n // 2),
        2: ("(5M-6)N/10", lambda m, n: (5 * m - 6) * n // 10),
        3: ("(13M-14)N/26", lambda m, n: (13 * m - 14) * n // 26),
        4: ("(13M-14)N/26", lambda m, n: (13 * m - 14) * n // 26),
    }
    for n, family in ((2, 1), (4, 1), (8, 1), (10, 2), (26, 3), (260, 4), (2600, 4)):
        gcp = catalog.golay_pair(n)
        assert catalog.gcp_family(n) == (family, czcp_width(gcp)), n
        text, width = formulas[family]
        for seed_id in SEED_IDS:
            seed = catalog.seed(seed_id).pair
            rep = construct_theorem1(gcp, seed, auto_normalize=True)
            assert rep.measured_width == width(seed.n, n), (seed_id, n)
        details.append(f"family {family} (N={n}): width == {text}")
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(8, "; ".join(details) + f" in {elapsed:.2f}s")
