"""Classification of sequence pairs: ZCP/CZCP widths, GCP status, ratios.

Width conventions (all shifts positive; negative shifts follow by symmetry):

* ZCP width: largest Z with AACS zero at every shift 0 < u < Z
  (a pair whose AACS vanishes at all nonzero shifts is a GCP, width N).
* CZCP width: largest Z <= N/2 with AACS zero on {1..Z} and {N-Z..N-1}
  and ACCS zero on {N-Z..N-1}. Width 0 means "not a CZCP".
* The CZC ratio divides the width by N/2 for perfect pairs and by
  N/2 - 1 otherwise; it is kept as an exact Fraction and only defined
  for even N.

classify computes the two profiles (AACS and ACCS at shifts 0..N-1) once
per pair, and _verdict derives every field of the PairVerdict from them;
the verdict carries both profiles, so no caller computes them again. The
public width helpers (zcp_width, czcp_width, is_gcp, czc_ratio) read a
field of classify's verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .correlation import aacs_profile, accs_profile


@dataclass(frozen=True)
class GolayFactorization:
    """Exponents (alpha, beta, gamma) with n = 2^alpha * 10^beta * 26^gamma."""

    alpha: int
    beta: int
    gamma: int

    @property
    def n(self):
        return 2**self.alpha * 10**self.beta * 26**self.gamma


def golay_factorization(n):
    """Return the unique GolayFactorization of n, or None if n is not a Golay number."""
    if n < 1:
        raise ValueError("n must be positive")
    m, beta, gamma, twos = n, 0, 0, 0
    while m % 5 == 0:
        m //= 5
        beta += 1
    while m % 13 == 0:
        m //= 13
        gamma += 1
    while m % 2 == 0:
        m //= 2
        twos += 1
    alpha = twos - beta - gamma
    if m != 1 or alpha < 0:
        return None
    return GolayFactorization(alpha, beta, gamma)


def lemma5_structure_holds(pair, z):
    """Half-sequence structure necessary for an (N, Z)-CZCP.

    For i < Z: first[i] == k*second[i] and first[N-1-i] == -k*second[N-1-i],
    with k the product of the two leading signs.
    """
    n = pair.n
    if not 0 <= z <= n // 2:
        raise ValueError(f"Z must lie in [0, {n // 2}]")
    a, b = pair.first, pair.second
    k = a[0] * b[0]
    for i in range(z):
        if a[i] != k * b[i] or a[n - 1 - i] != -k * b[n - 1 - i]:
            return False
    return True


def _middle_terms(pair):
    """(c[M/2-1] - k*d[M/2-1], c[M/2] + k*d[M/2]) with k = d0/c0, for an even pair."""
    m = pair.n
    if m % 2:
        raise ValueError("even length required")
    c, d = pair.first, pair.second
    k = c[0] * d[0]
    return c[m // 2 - 1] - k * d[m // 2 - 1], c[m // 2] + k * d[m // 2]


def lemma9_condition_holds(pair):
    """Vanishing-product condition on the two middle columns of an even pair.

    True iff (c[M/2-1] - k*d[M/2-1]) * (c[M/2] + k*d[M/2]) == 0 with
    k = d0/c0. For optimal non-Golay-length pairs this pins |AACS(M/2)| = 2.
    """
    x, y = _middle_terms(pair)
    return x * y == 0


@dataclass(frozen=True)
class PairVerdict:
    """Full classification record for one pair, with the profiles it came from.

    aacs and accs are read-only int64 vectors over shifts 0..N-1; they take
    no part in equality, hashing or repr.
    """

    n: int
    zcp_width: int
    czcp_width: int
    is_gcp: bool
    is_perfect: bool
    is_optimal: bool
    czc_ratio: Optional[Fraction]  # None when N is odd (ratio unsupported)
    z_max: Optional[int]
    mid_aacs: Optional[int]
    golay: Optional[GolayFactorization]
    aacs: np.ndarray = field(compare=False, repr=False)
    accs: np.ndarray = field(compare=False, repr=False)


def _verdict(aacs, accs):
    """The PairVerdict of the pair whose profiles (shifts 0..N-1) these are.

    The one place where profiles become widths. Index j of aacs[1:] is
    shift j+1. The CZCP width is capped by N/2, by the last shift before
    AACS first turns nonzero, and by N-1 minus the last shift at which
    AACS or ACCS is nonzero: the index of the first nonzero of their
    reversed tails, read over the last N/2 shifts only, since an earlier
    one cannot cap the width below N/2. The verdict keeps both arrays and
    marks them read-only.
    """
    n = aacs.size
    h = n // 2
    (head,) = aacs[1:].nonzero()
    z_zcp = int(head[0]) + 1 if head.size else n
    # shifts N-1 down to N-h, the only ones that can cap the width below h;
    # integer OR: zero only where both are
    (tail,) = (aacs[: n - 1 - h : -1] | accs[: n - 1 - h : -1]).nonzero()
    z = min(h, z_zcp - 1, int(tail[0]) if tail.size else h)
    if n % 2:
        perfect, ratio, z_max, mid = False, None, None, None
    else:
        perfect = z == h
        z_max = h if perfect else h - 1
        ratio = Fraction(z, z_max) if z else Fraction(0)
        mid = int(aacs[h])
    aacs.setflags(write=False)
    accs.setflags(write=False)
    return PairVerdict(
        n=n,
        zcp_width=z_zcp,
        czcp_width=z,
        is_gcp=z_zcp == n,
        is_perfect=perfect,
        is_optimal=ratio == 1,
        czc_ratio=ratio,
        z_max=z_max,
        mid_aacs=mid,
        golay=golay_factorization(n),
        aacs=aacs,
        accs=accs,
    )


def classify(pair):
    """Populate a PairVerdict for the pair; never raises on odd lengths.

    Both correlation profiles are computed once, here, and every field is
    derived from them by _verdict.
    """
    return _verdict(aacs_profile(pair), accs_profile(pair))


def zcp_width(pair):
    """Largest Z with AACS zero for all 0 < u < Z; N when the pair is a GCP."""
    return classify(pair).zcp_width


def czcp_width(pair):
    """Largest Z <= N/2 satisfying both CZCP zone conditions (0 if none)."""
    return classify(pair).czcp_width


def is_gcp(pair):
    return classify(pair).is_gcp


def czc_ratio(pair):
    """Exact CZC ratio Z / Z_max for even-length pairs."""
    if pair.n % 2:
        raise ValueError("CZC ratio is defined for even lengths only")
    return classify(pair).czc_ratio
