"""Exact aperiodic correlation functions and per-shift sum profiles.

Three routes to the same integers:

* accf/aacf: the definitional sums in pure integer Python, the oracle the
  other routes are tested against;
* below the crossover length KRONECKER_MIN_N the profile functions
  (aacs_profile, accs_profile) use np.correlate on int64 arrays, which is
  also the reference the large-N kernel is tested against;
* from KRONECKER_MIN_N up they use a Kronecker-substitution kernel: the -1
  positions of rev(x) and of y become base-2^16 digits (2^32 from length
  2^16) of two Python integers, one built-in Karatsuba multiplication
  yields every coincidence count k_s as a digit of the product, and
  rho(x, y; s) follows from k_s and prefix popcounts. That is O(N^1.58)
  per correlation against np.correlate's O(N^2); the crossover, about
  N = 330, was measured on a 2-vCPU x86-64 host.

Either route returns all shifts 1-N..N-1, so accs_profile gets both cross
terms from one correlation. Nothing here touches floating point.
"""

from __future__ import annotations

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


KRONECKER_MIN_N = 352  # below this length np.correlate is faster


def _kronecker_correlate(xv, yv):
    """rho(x, y; s) for s = 1-N..N-1 from +-1 arrays, by one big-int product.

    With a_i = [x_i = -1] and b_j = [y_j = -1], a shift s >= 0 overlaps
    x[:N-s] with y[s:] and gives
    rho(x, y; s) = (N-s) - 2*(popA[:N-s] + popB[s:]) + 4*k_s,
    and rho(x, y; -s) = rho(y, x; s) swaps the roles. The coincidence count
    k_s = sum_i a_i*b_(i+s) is digit N-1+s of rev(A)*B; k_s <= N, so a
    16-bit digit slot (32-bit from N = 2^16) never carries into the next.
    """
    n = xv.size
    slot = np.dtype("<u2") if n < 1 << 16 else np.dtype("<u4")
    a = xv < 0
    b = yv < 0
    rev_a = int.from_bytes(a[::-1].astype(slot).tobytes(), "little")
    big_b = int.from_bytes(b.astype(slot).tobytes(), "little")
    digits = np.frombuffer((rev_a * big_b).to_bytes(2 * n * slot.itemsize, "little"), slot)
    rho = digits[: 2 * n - 1].astype(np.int64)
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

