import decimal

import numpy as np
import pytest

from czcp import catalog, correlation
from czcp.correlation import (
    KRONECKER_MIN_N,
    _correlate,
    _kronecker_correlate,
    _slot_width,
    aacs_profile,
    accs_profile,
)
from czcp.sequences import BinarySequence, SequencePair
from czcp.turyn import _require_gcp, composite_profiles, turyn_compose
from czcp.verify import classify

from conftest import (
    random_pair,
    random_sequence,
    ref_aacs,
    ref_accs,
    ref_accf,
)


# random lengths take the np.correlate route; then the crossover on either side,
# and 1040 and 1217, which the decimal kernel may run at a widened slot
_KERNEL_LENGTHS = [KRONECKER_MIN_N - 1, KRONECKER_MIN_N, 1040, 1217]


def _lengths(rng, count, top):
    return [rng.randint(1, top) for _ in range(count)] + _KERNEL_LENGTHS


def test_autocorrelation_is_symmetric(rng):
    # rho(a;u) == rho(a;-u)
    for n in _lengths(rng, 100, 32):
        a = random_sequence(rng, n)
        full = _correlate(a, a)
        assert np.array_equal(full, full[::-1])


def test_aacs_profile_seed6():
    p = SequencePair.from_texts("+----+", "+-+++-")
    assert list(aacs_profile(p)) == [12, 0, 0, -2, 0, 0]


def test_aacs_profile_seed12():
    p = SequencePair.from_texts("+++-++++--+-", "+++-+---++-+")
    assert list(aacs_profile(p)) == [24, 0, 0, 0, 0, 0, -2, 0, 0, 0, 0, 0]


def test_aacs_profile_zero_shift(rng):
    for _ in range(30):
        p = random_pair(rng, rng.randint(1, 30))
        assert aacs_profile(p)[0] == 2 * p.n


def test_accs_profile_seed6():
    p = SequencePair.from_texts("+----+", "+-+++-")
    assert list(accs_profile(p)) == [-4, -4, 0, 2, 0, 0]


def test_accs_profile_seed28():
    p = SequencePair.from_texts(
        "++-+-++-----+----+--++---+-+", "++-+-++-----+++++-++--+++-+-"
    )
    want = [-4, 0, 4, 0, -12, 0, 4, 0, -12, 0, -12, 0, 4, 0, 2] + [0] * 13
    assert list(accs_profile(p)) == want


def test_accs_profile_self_pair(rng):
    a = random_sequence(rng, 11)
    assert accs_profile(SequencePair(a, a))[0] == 2 * 11


def test_profile_bounds_and_parity(rng):
    for _ in range(100):
        p = random_pair(rng, rng.randint(1, 24))
        aacs = aacs_profile(p)
        accs = accs_profile(p)
        assert aacs[0] == 2 * p.n
        assert np.all(np.abs(aacs) <= 2 * p.n)
        assert np.all(np.abs(accs) <= 2 * p.n)
        assert accs[0] % 2 == 0


# --- symmetry identities ----------------------------------------------------


def test_cross_correlation_transpose_identity(rng):
    # rho(b,a;u) == rho(a,b;-u)
    for n in _lengths(rng, 300, 32):
        a = random_sequence(rng, n)
        b = random_sequence(rng, n)
        assert np.array_equal(_correlate(b, a), _correlate(a, b)[::-1])


def test_reversal_autocorrelation_identity(rng):
    for n in _lengths(rng, 300, 32):
        a = random_sequence(rng, n)
        assert np.array_equal(_correlate(a, a), _correlate(a.reverse(), a.reverse()))


def test_reversed_argument_identity(rng):
    # rho(a, rev b; u) == rho(b, rev a; u)
    for n in _lengths(rng, 300, 32):
        a = random_sequence(rng, n)
        b = random_sequence(rng, n)
        assert np.array_equal(_correlate(a, b.reverse()), _correlate(b, a.reverse()))


def test_energy_invariant_under_reverse_and_negate(rng):
    def energy(s):
        return int(np.sum(_correlate(s, s) ** 2))

    for n in _lengths(rng, 60, 20):
        s = random_sequence(rng, n)
        e = energy(s)
        assert energy(s.reverse()) == e
        assert energy(s.negate()) == e


# --- oracle equivalence of the three computation routes ----------------------


def test_profiles_match_naive_oracle(rng):
    for _ in range(400):
        n = rng.randint(1, 64)
        p = random_pair(rng, n)
        a, b = list(p.first), list(p.second)
        aacs = aacs_profile(p)
        accs = accs_profile(p)
        for u in range(n):
            assert aacs[u] == ref_accf(a, a, u) + ref_accf(b, b, u)
            assert accs[u] == ref_accf(a, b, u) + ref_accf(b, a, u)


# --- Kronecker-substitution kernel -------------------------------------------


def _pattern(kind, n, rng):
    if kind == "plus":
        return BinarySequence([1] * n)
    if kind == "minus":
        return BinarySequence([-1] * n)
    if kind == "alternating":
        return BinarySequence([(-1) ** i for i in range(n)])
    return random_sequence(rng, n)


@pytest.mark.parametrize(
    "n",
    [1, 2, 7, 351, 352, 353, KRONECKER_MIN_N - 1, KRONECKER_MIN_N, KRONECKER_MIN_N + 1]
    + [999, 1000, 1040, 1216, 1217, 9999, 10000],
)
@pytest.mark.parametrize("kind", ["random", "plus", "minus", "alternating"])
def test_kronecker_kernel_matches_correlate_and_reference(rng, n, kind):
    # 999/1000 and 9999/10000 straddle a change of the decimal slot width,
    # 1040 and 1216 are widened to 5 digits, 1217 only when its top slots are zero;
    # below KRONECKER_MIN_N the profiles check the np.correlate route instead
    a = _pattern(kind, n, rng)
    b = random_sequence(rng, n)
    # the pure-Python oracle is O(N) per shift: every shift up to just past the
    # crossover, a sample above it; np.correlate covers every shift at every n
    if n <= KRONECKER_MIN_N + 1:
        shifts = range(n)
    else:
        shifts = sorted({0, 1, 2, n // 2, n - 2, n - 1} | set(rng.sample(range(n), 16)))
    for x, y in ((a, a), (a, b), (b, a)):
        assert _slot_width(x.values < 0, y.values < 0) >= len(str(n))
        got = _kronecker_correlate(x.values, y.values)
        want = np.correlate(y.values.astype(np.int64), x.values.astype(np.int64), "full")
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        xs, ys = list(x), list(y)
        assert [got[n - 1 + s] for s in shifts] == [ref_accf(xs, ys, s) for s in shifts]
        assert [got[n - 1 - s] for s in shifts] == [ref_accf(xs, ys, -s) for s in shifts]
    pair = SequencePair(a, b)
    aacs, accs = aacs_profile(pair), accs_profile(pair)
    assert [aacs[u] for u in shifts] == [ref_aacs(pair, u) for u in shifts]
    assert [accs[u] for u in shifts] == [ref_accs(pair, u) for u in shifts]


def test_kronecker_kernel_at_every_shift_above_1e5():
    # classify of a length-116480 pair takes the decimal kernel; Turyn's identity
    # gives the same profiles from correlations of lengths 4160 and 28
    first, second = catalog.golay_pair(4160), catalog.seed("K28").pair
    pair = turyn_compose(first, second)
    assert pair.n == 116480 > 10**5
    aacs, accs = composite_profiles(_require_gcp(first)[0], second, classify(second))
    assert np.array_equal(aacs_profile(pair), aacs)
    assert np.array_equal(accs_profile(pair), accs)


@pytest.mark.parametrize("n", [(1 << 16) - 1, 1 << 16])
def test_kronecker_kernel_at_slot_width_boundary(n):
    # k_0 = n for the all-minus sequence, the largest digit a 16-bit slot must hold
    shifts = np.arange(1 - n, n, dtype=np.int64)
    overlap = n - np.abs(shifts)
    minus = -np.ones(n, dtype=np.int8)
    alternating = np.where(np.arange(n) % 2, -1, 1).astype(np.int8)
    assert np.array_equal(_kronecker_correlate(minus, minus), overlap)
    assert np.array_equal(_kronecker_correlate(minus, -minus), -overlap)
    assert np.array_equal(
        _kronecker_correlate(alternating, alternating),
        np.where(shifts % 2, -overlap, overlap),
    )


def test_slot_width_is_widened_only_out_of_the_base_case():
    # operands with a nonzero top slot: one digit more exactly where N*d - (d-1)
    # digits stay in libmpdec's base case and one more digit per slot leaves it
    def full(n):
        return _slot_width(np.ones(n, bool), np.ones(n, bool))

    widened = [n for n in range(1, 20001) if full(n) != len(str(n))]
    assert widened == list(range(1000, 1217))
    # leading zero slots shrink the operand: 1217 with x[0] = +1 is widened,
    # and 1040 with 300 of them stays in the base case either way
    tail = np.ones(1217, bool)
    tail[0] = False
    assert _slot_width(tail, np.ones(1217, bool)) == 5
    late = np.ones(1040, bool)
    late[:300] = False
    assert _slot_width(np.ones(1040, bool), late[::-1]) == 4


def _slot_integer(bits, d):
    # sum of bits[i] * 10^(d*(size-1-i)); int(str) would hit the interpreter's digit limit
    value = 0
    for bit in bits:
        value = value * 10**d + int(bit)
    return value


def _decimal_digits(value):
    # len(str(value)) for value > 0, by comparison with powers of ten
    k = value.bit_length() * 3 // 10  # at most the digit count
    while 10**k <= value:
        k += 1
    return k


@pytest.mark.parametrize("kind", ["minus", "alternating"])
def test_kronecker_kernel_refuses_to_round(monkeypatch, rng, kind):
    # minus ends the product in a nonzero digit (Inexact); alternating in zeros (Rounded only);
    # 1040 runs at the widened slot width
    for n, width in ((KRONECKER_MIN_N, 3), (1040, 5)):
        xv = _pattern(kind, n, rng).values
        d = _slot_width(xv < 0, xv < 0)
        assert d == width
        digits = _decimal_digits(_slot_integer(xv < 0, d) * _slot_integer(xv[::-1] < 0, d))
        want = np.correlate(xv.astype(np.int64), xv.astype(np.int64), "full")
        monkeypatch.setattr(correlation._EXACT, "prec", digits)
        assert np.array_equal(_kronecker_correlate(xv, xv), want)
        monkeypatch.setattr(correlation._EXACT, "prec", digits - 1)
        with pytest.raises((decimal.Rounded, decimal.Inexact)):
            _kronecker_correlate(xv, xv)
