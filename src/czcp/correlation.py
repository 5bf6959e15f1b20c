"""Exact aperiodic correlation functions and per-shift sum profiles.

Two routes to the same integers (np.correlate below KRONECKER_MIN_N, the
decimal kernel from there up), tested against the definition-level oracles
in tests/conftest.py:

* below the crossover length KRONECKER_MIN_N the profile functions
  (aacs_profile, accs_profile) use np.correlate on int64 arrays, which is
  also the reference the large-N kernel is tested against;
* from KRONECKER_MIN_N up they use a Kronecker-substitution kernel: the -1
  positions of rev(x) and of y become the d-digit slots of two decimal
  integers, one multiplication yields every coincidence count k_s as a
  slot of the product, and rho(x, y; s) follows from k_s and prefix
  popcounts. The product is computed by the stdlib decimal module
  (libmpdec), which multiplies large operands with an exact
  number-theoretic transform over integer primes, O(N log N) per
  correlation against np.correlate's O(N^2); the decimal radix makes
  packing and unpacking a linear pass over ASCII digits. The crossover,
  about N = 560, was measured on a 2-vCPU x86-64 host.

The slot width (_slot_width) is d = len(str(N)), the narrowest slot that
holds k_s <= N, widened by one digit when that lifts the smaller operand
out of libmpdec's quadratic base case. On 64-bit builds libmpdec stores 19
digits per word, multiplies by the base case while the smaller operand
has at most 256 words (4864 digits), and by Karatsuba above that (and by
the transform once the product exceeds 1024 words). One product of two
4864-digit operands took about 0.8 ms against 0.24 ms at 4865 digits on
the host above. An operand's digits run from its top nonzero slot; when
x[0] = y[N-1] = -1 the widening covers N = 1000..1216 (d = 4 -> 5), and
leading zero slots move that range up. Any d >= len(str(N)) is exact,
since no slot carries, so the width only changes speed.

Either route returns all shifts 1-N..N-1, so accs_profile gets both cross
terms from one correlation. The decimal route stays exact because its
operands are integers with exponent 0 and its context traps Rounded,
Inexact, InvalidOperation and Overflow: a product that does not fit is an
exception, never rounded digits. Nothing here touches floating point.
"""

from __future__ import annotations

import decimal

import numpy as np


KRONECKER_MIN_N = 560  # below this length np.correlate is faster

# a product that would need rounding raises instead (see the module docstring)
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow],
)
_ZERO = ord("0")
_BASECASE_MAX_DIGITS = 256 * 19  # libmpdec's largest base-case operand, 64-bit build


def _slot_width(a, b):
    # digits per slot for the indicators a (of x) and b (of y): len(str(N)), one
    # more when that lifts the smaller operand out of libmpdec's base case.
    # rev(A) starts at a's first 1 and B at b's last 1; the top slot's leading
    # zeros are dropped, so s significant slots are (s-1)*d + 1 digits
    n = a.size
    d = len(str(n))
    slots = n - max(int(np.argmax(a)), int(np.argmax(b[::-1])))
    if (slots - 1) * d + 1 <= _BASECASE_MAX_DIGITS < (slots - 1) * (d + 1) + 1:
        d += 1
    return d


def _decimal_slots(bits, d):
    # the 0/1 vector as one integer, bits[0] in the most significant d-digit slot
    text = np.full((bits.size, d), _ZERO, dtype=np.uint8)
    text[:, -1] += bits
    return _EXACT.create_decimal(text.tobytes().decode("ascii"))


def _kronecker_correlate(xv, yv):
    """rho(x, y; s) for s = 1-N..N-1 from +-1 arrays, by one exact decimal product.

    With a_i = [x_i = -1] and b_j = [y_j = -1], a shift s >= 0 overlaps
    x[:N-s] with y[s:] and gives
    rho(x, y; s) = (N-s) - 2*(popA[:N-s] + popB[s:]) + 4*k_s,
    and rho(x, y; -s) = rho(y, x; s) swaps the roles. The coincidence count
    k_s = sum_i a_i*b_(i+s) is slot N-1+s (counted from the least
    significant) of rev(A)*B written in base 10^d; k_s <= N < 10^d, so no
    slot carries into the next.
    """
    n = xv.size
    a = xv < 0
    b = yv < 0
    d = _slot_width(a, b)
    # most significant slot first, rev(A) reads a[0..N-1] and B reads b[N-1..0]
    product = str(_EXACT.multiply(_decimal_slots(a, d), _decimal_slots(b[::-1], d)))
    text = np.frombuffer(product.rjust((2 * n - 1) * d, "0").encode("ascii"), np.uint8)
    rho = np.zeros(2 * n - 1, dtype=np.int64)
    k = rho[::-1]  # the text's first slot is the top one, shift N-1
    for column in text.reshape(2 * n - 1, d).T:
        k *= 10
        k += column
        k -= _ZERO
    rho *= 4
    overlap = np.arange(n, 0, -1, dtype=np.int64)
    # in place through two views: shifts s = 0..N-1, then s = -1..1-N
    for tail, p, q in ((rho[n - 1 :], a, b), (rho[: n - 1][::-1], b, a)):
        skip = n - tail.size
        tail += overlap[skip:]
        tail -= 2 * np.cumsum(p, dtype=np.int64)[::-1][skip:]
        tail -= 2 * np.cumsum(q[::-1], dtype=np.int64)[::-1][skip:]
    return rho


def _correlate(x, y):
    # rho(x, y; s) for s = 1-N..N-1 as an int64 vector (np.correlate's "full" layout)
    if x.n >= KRONECKER_MIN_N:
        return _kronecker_correlate(x.values, y.values)
    xv = x.values.astype(np.int64)
    yv = y.values.astype(np.int64)
    return np.correlate(yv, xv, mode="full")


def _aacs_tail(aa, bb):
    # shifts 0..N-1 of aa + bb, two autocorrelations in _correlate's full layout
    n = (aa.size + 1) // 2
    return aa[n - 1 :] + bb[n - 1 :]


def _accs_tail(ab):
    # shifts 0..N-1 of rho(a,b;u) + rho(b,a;u) = ab[u] + ab[-u], full layout
    n = (ab.size + 1) // 2
    return ab[n - 1 :] + ab[n - 1 :: -1]


def aacs_profile(pair):
    """Vector of rho(first;u) + rho(second;u) for u = 0..N-1."""
    return _aacs_tail(_correlate(pair.first, pair.first), _correlate(pair.second, pair.second))


def accs_profile(pair):
    """Vector of rho(first,second;u) + rho(second,first;u) for u = 0..N-1.

    rho(second, first; u) = rho(first, second; -u), so one correlation holds both.
    """
    return _accs_tail(_correlate(pair.first, pair.second))

