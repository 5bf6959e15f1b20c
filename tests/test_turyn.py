import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from czcp import catalog, correlation, reproduce, turyn
from czcp.correlation import aacs_profile, accs_profile
from czcp.sequences import BinarySequence, SequencePair
from czcp.turyn import (
    ConstructionError,
    _require_gcp,
    composite_profiles,
    condition_eq4_holds,
    construct_gcp,
    construct_lemma8,
    construct_theorem1,
    turyn_compose,
)
from czcp.verify import classify, czcp_width, is_gcp

from conftest import random_pair, ref_turyn_compose

GCP2 = SequencePair.from_texts("+-", "--")


def test_compose_length2_kernels():
    out = turyn_compose(GCP2, GCP2)
    assert out.texts() == ("---+", "++-+")
    v = classify(out)
    assert v.is_gcp and v.is_perfect


def test_compose_reproduces_worked_example():
    rep = turyn_compose(catalog.get("GCP10").pair, catalog.seed("K6").pair)
    assert rep == catalog.get("EX1").pair


def test_compose_length(rng):
    a = random_pair(rng, 5)
    b = random_pair(rng, 7)
    out = turyn_compose(a, b)
    assert out.n == 35


def test_compose_with_unit_second_pair_is_identity(rng):
    # M = 1, c = d = +1: s = P - Q = a and t = P + Q = b
    unit = SequencePair.from_texts("+", "+")
    for _ in range(50):
        a = random_pair(rng, rng.randint(1, 20))
        assert turyn_compose(a, unit) == a


def test_compose_with_unit_first_pair(rng):
    # N = 1: (+, +) gives P = 1, Q = 0, so (c, d) comes back; (-, +) gives
    # P = 0, Q = 1, so (-rev(d), rev(c))
    plus = SequencePair.from_texts("+", "+")
    swap = SequencePair.from_texts("-", "+")
    for _ in range(50):
        b = random_pair(rng, rng.randint(1, 20))
        assert turyn_compose(plus, b) == b
        want = SequencePair(b.second.reverse().negate(), b.first.reverse())
        assert turyn_compose(swap, b) == want


def test_compose_always_binary(rng):
    # BinarySequence construction would reject anything outside {+1,-1}
    for _ in range(200):
        a = random_pair(rng, rng.randint(1, 8))
        b = random_pair(rng, rng.randint(1, 8))
        out = turyn_compose(a, b)
        assert set(out.first) <= {1, -1} and set(out.second) <= {1, -1}


def test_gcp_closure_up_to_length_80():
    kernels = [catalog.get(k).pair for k in ("GCP2", "GCP10", "GCP26")]
    composed = [catalog.golay_pair(n) for n in (4, 8, 20, 40)]
    for a in kernels + composed:
        for b in kernels + composed:
            if a.n * b.n <= 80:
                assert is_gcp(turyn_compose(a, b))


def test_condition_eq4_normalized_gcp_with_seed():
    assert condition_eq4_holds(GCP2, catalog.seed("K6").pair)


def test_condition_eq4_unnormalized_gcp_fails():
    unnormalized = SequencePair.from_texts("+-", "++")
    assert is_gcp(unnormalized)
    assert not condition_eq4_holds(unnormalized, catalog.seed("K6").pair)


def test_condition_eq4_invariant_under_joint_negation(rng):
    seeds = [catalog.seed(e).pair for e in ("K6", "K12", "K24", "K28")]
    for _ in range(50):
        a = random_pair(rng, rng.randint(1, 6))
        neg = SequencePair(a.first.negate(), a.second.negate())
        for b in seeds:
            assert condition_eq4_holds(a, b) == condition_eq4_holds(neg, b)


def test_theorem1_composed_table_row12():
    rep = construct_theorem1(GCP2, catalog.seed("K6").pair)
    assert rep.pair == catalog.get("T2K12").pair
    assert rep.guaranteed_width == 5
    assert rep.measured_width == 5
    assert rep.basis == "theorem1" and rep.condition_eq4
    assert list(aacs_profile(rep.pair)) == [24, 0, 0, 0, 0, 0, -4, 0, 0, 0, 0, 0]


def test_theorem1_worked_example():
    rep = construct_theorem1(catalog.get("GCP10").pair, catalog.seed("K6").pair)
    entry = catalog.get("EX1")
    assert rep.pair == entry.pair
    assert rep.guaranteed_width == 24 and rep.measured_width == 24
    assert tuple(aacs_profile(rep.pair)) == entry.aacs
    assert tuple(accs_profile(rep.pair)) == entry.accs


def test_theorem1_composed_table_row56():
    rep = construct_theorem1(GCP2, catalog.seed("K28").pair)
    assert rep.pair == catalog.get("T2K56").pair
    assert list(aacs_profile(rep.pair)) == [112] + [0] * 27 + [-4] + [0] * 27


def test_theorem1_rejects_non_gcp_first():
    with pytest.raises(ConstructionError) as exc:
        construct_theorem1(catalog.seed("K6").pair, catalog.seed("K6").pair)
    assert exc.value.code == "not_gcp"


def test_theorem1_rejects_golay_length_seed():
    with pytest.raises(ConstructionError) as exc:
        construct_theorem1(GCP2, catalog.golay_pair(4))
    assert exc.value.code == "seed_golay_length"


def test_theorem1_rejects_suboptimal_seed(rng):
    while True:
        p = random_pair(rng, 6)
        if czcp_width(p) != 2:
            break
    with pytest.raises(ConstructionError) as exc:
        construct_theorem1(GCP2, p)
    assert exc.value.code == "seed_not_optimal"


def test_theorem1_rejects_seed_violating_middle_condition():
    # the composed (48,23) pair is optimal but has |mid AACS| = 4
    with pytest.raises(ConstructionError) as exc:
        construct_theorem1(GCP2, catalog.get("K48").pair)
    assert exc.value.code == "seed_eq3"


def test_theorem1_degrades_without_normalization():
    unnormalized = SequencePair.from_texts("+-", "++")
    rep = construct_theorem1(unnormalized, catalog.seed("K6").pair)
    assert rep.basis == "lemma8" and not rep.condition_eq4
    assert rep.guaranteed_width == 4  # (M/2-1)*N only
    assert rep.measured_width >= 4
    assert rep.warnings


def test_theorem1_auto_normalize_restores_guarantee():
    unnormalized = SequencePair.from_texts("+-", "++")
    rep = construct_theorem1(unnormalized, catalog.seed("K6").pair, auto_normalize=True)
    assert rep.normalized and rep.condition_eq4 and rep.basis == "theorem1"
    assert rep.guaranteed_width == 5
    # profile identical to the one from the already-normalized equivalent
    direct = construct_theorem1(GCP2, catalog.seed("K6").pair)
    assert list(aacs_profile(rep.pair)) == list(aacs_profile(direct.pair))


def test_auto_normalize_always_restores_theorem1():
    # every seed meets eq. (3), so negating b always meets eq. (4): a normalized
    # construction needs no second check of the sign condition
    from czcp.search import SearchSpec, run_search
    from czcp.verify import lemma9_condition_holds

    seeds = [
        pair
        for m in (6, 12, 14, 24, 28)
        for pair in run_search(SearchSpec(m=m)).pairs
        if lemma9_condition_holds(pair)
    ]
    built = flipped = 0
    for n in (2, 10, 26):
        gcp = catalog.golay_pair(n)
        for b in (gcp.second, gcp.second.negate()):
            for seed in seeds:
                rep = construct_theorem1(SequencePair(gcp.first, b), seed, auto_normalize=True)
                assert rep.basis == "theorem1" and rep.condition_eq4, (n, seed.texts())
                built += 1
                flipped += rep.normalized
    assert (built, flipped) == (144, 72)


def test_lemma8_composed48():
    rep = construct_lemma8(catalog.golay_pair(4), catalog.get("K48").pair)
    assert rep.guaranteed_width == 4 * 23 == 92
    assert rep.measured_width >= 92
    assert rep.pair.n == 192


def test_lemma8_composed56():
    rep = construct_lemma8(GCP2, catalog.get("K56").pair)
    assert rep.guaranteed_width == 54
    assert rep.measured_width >= 54
    assert rep.pair.n == 112


def test_lemma8_perfect_times_perfect():
    rep = construct_lemma8(GCP2, GCP2)
    v = classify(rep.pair)
    assert rep.guaranteed_width == 2 and v.is_perfect and v.n == 4


def test_lemma8_rejects_non_gcp():
    with pytest.raises(ConstructionError):
        construct_lemma8(catalog.seed("K6").pair, GCP2)


def test_lemma8_width_property(rng):
    gcps = [catalog.golay_pair(n) for n in (2, 4, 10)]
    seeds = [catalog.seed(e).pair for e in ("K6", "K12")]
    for a in gcps:
        for b in seeds:
            rep = construct_lemma8(a, b)
            assert rep.measured_width >= a.n * czcp_width(b)


def test_construct_gcp_mode():
    rep = construct_gcp(GCP2, catalog.get("GCP10").pair)
    assert rep.pair.n == 20 and rep.verdict.is_gcp
    with pytest.raises(ConstructionError):
        construct_gcp(GCP2, catalog.seed("K6").pair)


def test_reports_never_overpromise(rng):
    # measured >= guaranteed on every construction exercised here
    combos = [
        construct_theorem1(GCP2, catalog.seed(e).pair)
        for e in ("K6", "K12", "K24", "K28")
    ]
    combos.append(construct_lemma8(catalog.golay_pair(8), catalog.seed("K6").pair))
    for rep in combos:
        assert rep.measured_width >= rep.guaranteed_width


# --- composite profiles from Turyn's identity ----------------------------------


def full_correlations(pair):
    """(a.a, b.b, a.b) of pair (a, b) in _correlate's full layout."""
    a, b = pair.first, pair.second
    return tuple(correlation._correlate(x, y) for x, y in ((a, a), (b, b), (a, b)))


def assert_profiles_match(profiles, first, second):
    """(aacs, accs) against classify of the composed pair, at every shift."""
    direct = classify(turyn_compose(first, second))
    aacs, accs = profiles
    assert np.array_equal(aacs, direct.aacs), (first.n, second.n)
    assert np.array_equal(accs, direct.accs), (first.n, second.n)


def assert_direct_profiles(first, second):
    profiles = composite_profiles(full_correlations(first), second, classify(second))
    assert_profiles_match(profiles, first, second)


def test_composite_profiles_for_every_reproduced_construction(monkeypatch):
    # every (first, second) pair the reproduce targets compose, normalized or
    # not, with the correlations, second-pair verdict and profiles the
    # construction itself used
    composed, seen = [], []
    real_compose, real_profiles = turyn.turyn_compose, turyn.composite_profiles

    def compose(first, second):
        composed.append((first, second))
        return real_compose(first, second)

    def recorded(first_correlations, second, second_verdict):
        profiles = real_profiles(first_correlations, second, second_verdict)
        seen.append((first_correlations, second, second_verdict, profiles))
        return profiles

    monkeypatch.setattr(turyn, "turyn_compose", compose)
    monkeypatch.setattr(turyn, "composite_profiles", recorded)
    for target in reproduce.TARGETS:
        assert reproduce.reproduce(target).ok, target
    assert len(seen) == len(composed)
    sizes = {(first.n, second.n) for first, second in composed}
    assert {(2, m) for m in (6, 12, 24, 28)} <= sizes  # table2
    assert (10, 6) in sizes  # example1
    assert {(n, m) for n in (2, 4, 10, 26) for m in (6, 12, 24, 28)} <= sizes  # table3
    assert {(n, m) for n in (2, 4) for m in (48, 56)} <= sizes  # lemma8 rows
    for (first, second), (triple, seen_second, verdict, profiles) in zip(composed, seen):
        assert seen_second is second
        for got, want in zip(triple, full_correlations(first)):
            assert np.array_equal(got, want), first.n
        direct = classify(second)
        assert verdict == direct
        assert np.array_equal(verdict.aacs, direct.aacs)
        assert np.array_equal(verdict.accs, direct.accs)
        assert_profiles_match(profiles, first, second)


@pytest.mark.parametrize(
    "build, first, second, normalized",
    [
        (construct_theorem1, catalog.golay_pair(10), catalog.seed("K12").pair, False),
        (
            lambda g, s: construct_theorem1(g, s, auto_normalize=True),
            SequencePair(catalog.golay_pair(10).first, catalog.golay_pair(10).second.negate()),
            catalog.seed("K12").pair,
            True,
        ),
        (construct_lemma8, catalog.golay_pair(4), catalog.get("K48").pair, False),
        (construct_gcp, catalog.golay_pair(10), catalog.golay_pair(26), False),
    ],
    ids=["theorem1", "theorem1-normalized", "lemma8", "gcp"],
)
def test_construction_correlates_each_input_once(monkeypatch, build, first, second, normalized):
    # operands recorded by content: the GCP's a.a, b.b, a.b and the second
    # pair's c.c, d.d, c.d, c.rev(c), d.rev(d), each taken exactly once. No
    # member here is a palindrome, for which c.rev(c) would be c.c again
    calls = []
    real = correlation._correlate

    def recorded(x, y):
        calls.append((len(x), x.values.tobytes(), y.values.tobytes()))
        return real(x, y)

    monkeypatch.setattr(correlation, "_correlate", recorded)
    rep = build(first, second)
    assert rep.normalized is normalized
    assert len(set(calls)) == len(calls)
    assert sorted(n for n, _, _ in calls) == sorted([first.n] * 3 + [second.n] * 5)


@pytest.mark.parametrize("n", [2, 10, 26, 559, 560, 1040])
def test_require_gcp_verdict_matches_classify(rng, n):
    # the verdict a construction derives from its shared a.a, b.b, a.b triple
    # is classify's, on both sides of the decimal kernel's crossover
    pairs = [random_pair(rng, n), random_pair(rng, n)]
    if n in (2, 10, 26, 1040):
        gcp = catalog.golay_pair(n)
        broken = gcp.first.values.copy()
        broken[rng.randrange(n)] *= -1  # one flipped element is never a GCP
        pairs += [gcp, SequencePair(gcp.first, gcp.second.negate())]
        pairs.append(SequencePair(BinarySequence(broken), gcp.second))
    for pair in pairs:
        direct = classify(pair)
        if not direct.is_gcp:
            with pytest.raises(ConstructionError) as exc:
                _require_gcp(pair)
            assert exc.value.code == "not_gcp"
            continue
        triple, verdict = _require_gcp(pair)
        assert verdict == direct
        assert np.array_equal(verdict.aacs, direct.aacs)
        assert np.array_equal(verdict.accs, direct.accs)
        for got, want in zip(triple, full_correlations(pair)):
            assert np.array_equal(got, want)


def test_auto_normalize_at_kernel_length():
    # N = 640 takes the decimal kernel; normalizing negates the shared a.b
    gcp = catalog.golay_pair(640)
    flipped = SequencePair(gcp.first, gcp.second.negate())
    seed = catalog.seed("K28").pair
    assert not condition_eq4_holds(flipped, seed)
    rep = construct_theorem1(flipped, seed, auto_normalize=True)
    assert rep.normalized is True and rep.basis == "theorem1"
    assert rep.pair == turyn_compose(gcp, seed)
    direct = classify(rep.pair)
    assert rep.verdict == direct
    assert np.array_equal(rep.verdict.aacs, direct.aacs)
    assert np.array_equal(rep.verdict.accs, direct.accs)


_PAIRS = st.integers(1, 40).flatmap(
    lambda n: st.tuples(*[st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)] * 2)
)


def _pair(values):
    return SequencePair(BinarySequence(values[0]), BinarySequence(values[1]))


@settings(max_examples=200, deadline=None)
@given(first=_PAIRS, second=_PAIRS)
def test_compose_matches_definition(first, second):
    # any +-1 pairs, lengths 1 to 40, odd lengths included
    first, second = _pair(first), _pair(second)
    out = turyn_compose(first, second)
    for got, want in zip((out.first, out.second), ref_turyn_compose(first, second)):
        assert list(got) == want
        assert got.values.dtype == np.int8
        with pytest.raises(ValueError):
            got.values[0] = 1


@settings(max_examples=200, deadline=None)
@given(first=_PAIRS, second=_PAIRS)
@example(first=([1], [-1]), second=([-1], [-1]))
@example(first=([1], [1]), second=([1, -1, -1, 1, 1, 1, -1], [-1, 1, 1, 1, -1, 1, 1]))
@example(first=([1, -1, -1, 1, 1, 1, -1], [-1, 1, 1, 1, -1, 1, 1]), second=([1], [-1]))
def test_composite_profiles_match_direct_on_random_pairs(first, second):
    # any +-1 pairs: lengths 1 and odd lengths included, no GCP or CZCP needed
    assert_direct_profiles(_pair(first), _pair(second))


@pytest.mark.parametrize("n, m", [(2, 80), (4, 26), (10, 1040)])
def test_construct_gcp_profiles_with_longer_second_pair(n, m):
    # M > N; at M = 1040 the second pair's correlations take the decimal kernel
    rep = construct_gcp(catalog.golay_pair(n), catalog.golay_pair(m))
    direct = classify(rep.pair)
    assert np.array_equal(rep.verdict.aacs, direct.aacs)
    assert np.array_equal(rep.verdict.accs, direct.accs)
    assert rep.verdict == direct and rep.verdict.is_gcp


@pytest.mark.parametrize(
    "build, first, second",
    [
        (construct_theorem1, catalog.golay_pair(10), catalog.seed("K28").pair),
        (construct_lemma8, catalog.golay_pair(4), catalog.get("K48").pair),
        (construct_gcp, catalog.golay_pair(10), catalog.golay_pair(26)),
        # N = 1040 takes the decimal kernel for the GCP's a.a, b.b, a.b
        (construct_theorem1, catalog.golay_pair(1040), catalog.seed("K6").pair),
    ],
    ids=["theorem1", "lemma8", "gcp", "theorem1-kernel"],
)
def test_construction_verdict_arrays_match_classify(build, first, second):
    # fresh, contiguous, read-only int64 of length MN, owning their data like classify's
    rep = build(first, second)
    direct = classify(rep.pair)
    assert rep.verdict == direct
    profiles = (rep.verdict.aacs, rep.verdict.accs)
    for got, want in zip(profiles, (direct.aacs, direct.accs)):
        assert np.array_equal(got, want)
        assert got.dtype == want.dtype == np.int64
        assert got.shape == want.shape == (first.n * second.n,)
        assert got.flags.c_contiguous and got.flags.owndata and not got.flags.writeable
        assert got.base is None and want.base is None
    assert not np.shares_memory(*profiles)
