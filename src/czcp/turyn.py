"""Turyn composition of sequence pairs and the width-extending construction.

The composition takes a first pair (a, b) of length N and a second pair
(c, d) of length M and produces

    s = c (x) (a+b)/2  -  rev(d) (x) (b-a)/2
    t = d (x) (a+b)/2  +  rev(c) (x) (b-a)/2

of length M*N, where (x) is the block-indexing Kronecker product. The
half-sum and half-difference of a binary pair have disjoint supports, so
every output entry is again +-1.

Composing two GCPs yields a GCP. Composing a GCP with an (M, Z)-CZCP
yields an (NM, NZ)-CZCP, and when the first pair is itself a CZCP of
width Z_A and the middle-column sign condition holds, the width improves
to (M/2 - 1)*N + Z_A with the composite AACS vanishing everywhere except
shifts 0 and MN/2.

The composite's profiles follow from the inputs' own correlations by
Turyn's polynomial identity (R. J. Turyn, J. Combin. Theory A 16, 1974).
Write Y*(z) = Y(1/z), so the coefficient of z^u in X*(z)Y(z) is
rho(x, y; u) = sum x_i y_(i+u); let P = (a+b)/2, Q = (b-a)/2 and w = z^N.
Then

    AACS_st(z) = AACS_cd(w) * AACS_ab(z) / 2
    ACCS_st(z) = ACCS_cd(w) * ACCS_ab(z) / 2 + X(z) + X(1/z)
    X(z)       = w^(M-1) * (C*^2 - D*^2)(w) * (P*Q)(z)

with 4*rho(P, Q; u) = rho(a,b;u) - rho(b,a;u) + rho(b,b;u) - rho(a,a;u).
composite_profiles evaluates the right sides from the first pair's three
length-N correlations (a.a, b.b, a.b), the second pair's verdict, whose
profiles are the symmetric AACS_cd and ACCS_cd at w^0..w^(M-1), and two
length-M correlations (c.rev(c), d.rev(d)). Each profile is then one
integer matrix product: the k block products Y(w)*Z(z) it sums (k = 1 for
the AACS; k = 3 for the ACCS: its own term, X(z) and X(1/z)) are stacked
into an (M, 2k) matrix of Y coefficients and a (2k, N) matrix of Z
coefficients, and their product is the profile's M blocks of N shifts.
No construction correlates its length-MN output. Each input is profiled
once, by the precondition check a construction makes anyway (_require_gcp
for a GCP, classify for a seed), and the check hands its result on.
Negating b (auto-normalization) negates a.b and leaves a.a and b.b alone.
`czcp verify` (classify) measures a pair's profiles directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import correlation
from .sequences import BinarySequence, SequencePair
from .verify import (
    PairVerdict,
    _middle_terms,
    _verdict,
    classify,
    czcp_width,  # noqa: F401  a lookup site perfbench/tracer.py wraps; nothing here calls it
    golay_factorization,
    is_gcp,  # noqa: F401  a lookup site perfbench/tracer.py wraps; nothing here calls it
    lemma9_condition_holds,
)


class ConstructionError(ValueError):
    """A construction precondition failed; `code` is machine-readable."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def turyn_compose(first_pair, second_pair):
    """Compose (a,b) of length N with (c,d) of length M into a length-M*N pair.

    All in int8: P and Q have entries in {-1, 0, +1} with disjoint supports,
    so each block sum below is again +-1 and nothing overflows, and the
    members skip BinarySequence's check.
    """
    a, b = first_pair.first.values, first_pair.second.values
    c, d = second_pair.first.values, second_pair.second.values
    half_sum = (a + b) // 2
    half_diff = (b - a) // 2
    s = np.multiply.outer(c, half_sum)
    s -= np.multiply.outer(d[::-1], half_diff)
    t = np.multiply.outer(d, half_sum)
    t += np.multiply.outer(c[::-1], half_diff)
    return SequencePair(BinarySequence._of_valid(s.ravel()), BinarySequence._of_valid(t.ravel()))


def _block_products(ys, zs):
    """The coefficients of sum_j Y_j(z^N)*Z_j(z) at z^0..z^(MN-1), as a fresh int64 vector.

    Column j of ys, an (M + 1, k) array, holds Y_j at w^0..w^M (w = z^N),
    and row j of zs, a (k, 2N) array, holds Z_j at z^-N..z^(N-1). Both
    are profiles of length-M and length-N sequences, so Y_j at w^M and Z_j
    at z^-N are 0. Shift qN + r with 0 <= r < N collects Y_j,q*Z_j,r and
    Y_j,(q+1)*Z_j,(r-N), and row j of zs, read as two rows of N, is
    Z_j,(r-N) and then Z_j,r. So an (M, 2k) matrix whose row q holds each
    Y_j,(q+1) and Y_j,q, times zs read as a (2k, N) matrix, gives the sum
    block by block: one integer matrix product, written over the result.
    """
    k, m, n = zs.shape[0], ys.shape[0] - 1, zs.shape[1] // 2
    y = np.empty((m, k, 2), dtype=np.int64)
    y[:, :, 0] = ys[1:]
    y[:, :, 1] = ys[:-1]
    profile = np.empty(m * n, dtype=np.int64)
    np.matmul(y.reshape(m, 2 * k), zs.reshape(2 * k, n), out=profile.reshape(m, n))
    return profile


def composite_profiles(first_correlations, second_pair, second_verdict):
    """(aacs, accs) of turyn_compose(first_pair, second_pair) at shifts 0..MN-1.

    first_correlations is the first pair's (a.a, b.b, a.b) in _correlate's
    full layout, as _require_gcp returns it, and second_verdict is the
    second pair's PairVerdict, whose profiles are AACS_cd and ACCS_cd at
    w^0..w^(M-1). Only c.rev(c) and d.rev(d) are correlated here. Evaluates
    Turyn's identity (see the module docstring) as one stacked integer
    matrix product per profile (_block_products): one block product for the
    AACS, three for the ACCS. Every step is exact int64 arithmetic: the
    divisions by 2 and 4 leave no remainder, and with |Y| <= 2M and
    |Z| <= N a sum of at most 6 products is at most 12*MN. Both vectors
    are fresh and contiguous and own their data, and the inputs are not
    modified.
    """
    aa, bb, ab = first_correlations
    c, d = second_pair.first, second_pair.second
    m, n = c.n, (aa.size + 1) // 2
    corr = correlation._correlate
    squares = corr(c, c.reverse()) - corr(d, d.reverse())  # w^(M-1)*(C*^2 - D*^2)(w)
    # Y_j at w^0..w^M: AACS_cd, then ACCS_cd and the w-factors of X(z) and X(1/z)
    ys = np.zeros((m + 1, 4), dtype=np.int64)
    ys[:m, 0] = second_verdict.aacs
    ys[:m, 1] = second_verdict.accs
    ys[:m, 2] = squares[m - 1 :]
    ys[:m, 3] = squares[m - 1 :: -1]
    # Z_j at z^-N..z^(N-1): (a.a + b.b)/2, then (a.b + b.a)/2, rho(P, Q) and its reverse
    zs = np.zeros((4, 2 * n), dtype=np.int64)
    full = zs[:, 1:]
    np.add(aa, bb, out=full[0])
    np.add(ab, ab[::-1], out=full[1])
    np.subtract(ab, ab[::-1], out=full[2])
    full[2] += bb
    full[2] -= aa
    full[3] = full[2, ::-1]
    zs[:2] //= 2
    zs[2:] //= 4
    return _block_products(ys[:, :1], zs[:1]), _block_products(ys[:, 1:], zs[1:])


def condition_eq4_holds(first_pair, second_pair):
    """Sign condition coupling the leading signs of (a,b) to (c,d)'s middle columns."""
    r = first_pair.first[0] * first_pair.second[0]
    x, y = _middle_terms(second_pair)
    return (r + 1) * x + (r - 1) * y == 0


@dataclass(frozen=True)
class ConstructionReport:
    """Outcome of a composition: the pair, the guarantee, and what backs it.

    measured_width is read from the verdict, the composite's profiles.
    """

    pair: SequencePair
    guaranteed_width: int
    verdict: PairVerdict
    basis: str = "lemma8"  # or "theorem1"
    condition_eq4: Optional[bool] = None
    normalized: bool = False
    warnings: tuple = field(default=())

    @property
    def measured_width(self):
        return self.verdict.czcp_width


def _require_gcp(pair, what="first pair"):
    """(the pair's a.a, b.b, a.b correlations, its verdict); raises unless it is a GCP.

    The verdict equals classify(pair) and comes from the triple; a construction
    hands one or the other to composite_profiles, so it correlates each GCP once.
    """
    a, b = pair.first, pair.second
    corr = correlation._correlate
    aa, bb, ab = corr(a, a), corr(b, b), corr(a, b)
    verdict = _verdict(correlation._aacs_tail(aa, bb), correlation._accs_tail(ab))
    if not verdict.is_gcp:
        raise ConstructionError("not_gcp", f"{what} is not a GCP")
    return (aa, bb, ab), verdict


def _compose(first, first_correlations, second, second_verdict):
    """turyn_compose(first, second) and its verdict, from the inputs' profiles."""
    pair = turyn_compose(first, second)
    return pair, _verdict(*composite_profiles(first_correlations, second, second_verdict))


def _require_theorem1_seed(seed):
    """The seed's verdict; raises unless the seed meets Theorem 1's preconditions."""
    m = seed.n
    if m % 2:
        raise ConstructionError("seed_odd_length", "seed length must be even")
    if golay_factorization(m) is not None:
        raise ConstructionError(
            "seed_golay_length",
            f"seed length {m} is a Golay number; the width argument needs a non-Golay length",
        )
    verdict = classify(seed)
    z = verdict.czcp_width
    if z != m // 2 - 1:
        raise ConstructionError(
            "seed_not_optimal",
            f"seed must be an optimal ({m}, {m // 2 - 1})-CZCP, measured width {z}",
        )
    if not lemma9_condition_holds(seed):
        raise ConstructionError(
            "seed_eq3",
            "seed violates the middle-column product condition",
        )
    return verdict


def construct_theorem1(gcp_pair, seed, auto_normalize=False):
    """Width-extending composition of a GCP/CZCP with an optimal seed CZCP.

    The guarantee is (M/2-1)*N + Z_A when the sign condition holds for the
    (possibly normalized) GCP, and the weaker (M/2-1)*N otherwise.
    """
    triple, gcp_verdict = _require_gcp(gcp_pair)
    z_a = gcp_verdict.czcp_width
    seed_verdict = _require_theorem1_seed(seed)
    n = gcp_pair.n
    m = seed.n
    if z_a < 1:
        raise ConstructionError("gcp_zone_zero", "GCP has no cross-correlation zone")

    warnings = ()
    chosen = gcp_pair
    normalized = False
    eq4 = condition_eq4_holds(gcp_pair, seed)
    if auto_normalize and not eq4:
        # the seed passed seed_eq3 (x*y = 0), so negating b always meets eq. (4)
        chosen = SequencePair(gcp_pair.first, gcp_pair.second.negate())
        triple = (triple[0], triple[1], -triple[2])  # a.b changes sign with b
        normalized = eq4 = True
    if eq4:
        guaranteed = (m // 2 - 1) * n + z_a
        basis = "theorem1"
    else:
        guaranteed = (m // 2 - 1) * n
        basis = "lemma8"
        warnings = ("sign condition fails; only the compositional width (M/2-1)*N is guaranteed",)

    pair, verdict = _compose(chosen, triple, seed, seed_verdict)
    return ConstructionReport(pair, guaranteed, verdict, basis, eq4, normalized, warnings)


def construct_lemma8(gcp_pair, czcp_pair):
    """Compose a GCP with any CZCP; the width guarantee is N * Z_B."""
    triple = _require_gcp(gcp_pair)[0]
    v = classify(czcp_pair)
    if v.czcp_width < 1:
        raise ConstructionError("seed_not_czcp", "second pair is not a CZCP")
    pair, verdict = _compose(gcp_pair, triple, czcp_pair, v)
    return ConstructionReport(pair, gcp_pair.n * v.czcp_width, verdict)


def construct_gcp(first_gcp, second_gcp):
    """Compose two GCPs into a GCP of the product length."""
    triple = _require_gcp(first_gcp, "first pair")[0]
    v = _require_gcp(second_gcp, "second pair")[1]
    pair, verdict = _compose(first_gcp, triple, second_gcp, v)
    return ConstructionReport(pair, first_gcp.n * v.czcp_width, verdict)
