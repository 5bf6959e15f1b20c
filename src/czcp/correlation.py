"""Exact aperiodic correlation functions and per-shift sum profiles.

Three routes to the same integers:

* accf/aacf: the definitional sums in pure integer Python, the oracle the
  other routes are tested against;
* below the crossover length KRONECKER_MIN_N the profile functions
  (aacs_profile, accs_profile) use np.correlate on int64 arrays, which is
  also the reference the large-N kernel is tested against;
* from KRONECKER_MIN_N up they use a Kronecker-substitution kernel: the -1
  positions of rev(x) and of y become the d-digit slots, d = len(str(N)),
  of two decimal integers, one multiplication yields every coincidence
  count k_s as a slot of the product, and rho(x, y; s) follows from k_s
  and prefix popcounts. The product is computed by the stdlib decimal
  module (libmpdec), which multiplies large operands with an exact
  number-theoretic transform over integer primes, O(N log N) per
  correlation against np.correlate's O(N^2); the decimal radix makes
  packing and unpacking a linear pass over ASCII digits. The crossover,
  about N = 560, was measured on a 2-vCPU x86-64 host.

Either route returns all shifts 1-N..N-1, so accs_profile gets both cross
terms from one correlation. The decimal route stays exact because its
operands are integers with exponent 0 and its context traps Rounded,
Inexact, InvalidOperation and Overflow: a product that does not fit is an
exception, never rounded digits. Nothing here touches floating point.
"""

from __future__ import annotations

import decimal

import numpy as np


def accf(a, b, u):
    """Aperiodic cross-correlation of equal-length sequences at shift u.

    Sum of a[i]*b[i+u] over the overlap for 0 <= u <= N-1, the mirrored
    sum for negative u, and 0 once |u| >= N.
    """
    if a.n != b.n:
        raise ValueError(f"length mismatch: {a.n} vs {b.n}")
    n = a.n
    if abs(u) >= n:
        return 0
    if u >= 0:
        return sum(a[i] * b[i + u] for i in range(n - u))
    return sum(a[i - u] * b[i] for i in range(n + u))


def aacf(a, u):
    """Aperiodic autocorrelation: accf(a, a, u)."""
    return accf(a, a, u)


KRONECKER_MIN_N = 560  # below this length np.correlate is faster

# a product that would need rounding raises instead (see the module docstring)
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow],
)
_ZERO = ord("0")


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
    d = len(str(n))
    a = xv < 0
    b = yv < 0
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


def aacs_profile(pair):
    """Vector of rho(first;u) + rho(second;u) for u = 0..N-1."""
    tail = slice(pair.n - 1, None)
    return _correlate(pair.first, pair.first)[tail] + _correlate(pair.second, pair.second)[tail]


def accs_profile(pair):
    """Vector of rho(first,second;u) + rho(second,first;u) for u = 0..N-1.

    rho(second, first; u) = rho(first, second; -u), so one correlation holds both.
    """
    n = pair.n
    full = _correlate(pair.first, pair.second)
    return full[n - 1 :] + full[n - 1 :: -1]

