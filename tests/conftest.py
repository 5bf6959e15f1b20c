"""Shared helpers: seeded randomness and independent reference oracles.

The reference implementations here are deliberately written from the bare
definitions (explicit index loops, no numpy, no shared code with the
package) so the package's optimized paths are checked against something
that cannot inherit their bugs. The exception is numpy in scan_block, the
bit-parallel scanner the search's join is tested against, and in decode,
its candidate decoder; check_scan_block checks both against ref_seed_shape.
"""

import random

import numpy as np
import pytest

from czcp.search import SearchResult, SearchSpec, canonicalize
from czcp.sequences import BinarySequence, SequencePair
from czcp.verify import classify


@pytest.fixture
def rng():
    return random.Random(0xC2C9)


def random_sequence(rng, n):
    return BinarySequence([rng.choice((1, -1)) for _ in range(n)])


def random_pair(rng, n):
    return SequencePair(random_sequence(rng, n), random_sequence(rng, n))


def word_sequence(word, m):
    """The length-m sequence with sign word `word`: -1 at each j whose bit j is set."""
    return BinarySequence([-1 if word >> j & 1 else 1 for j in range(m)])


def ref_accf(a, b, u):
    """Definition-level cross-correlation, all branches."""
    n = len(a)
    assert len(b) == n
    if abs(u) >= n:
        return 0
    if u >= 0:
        return sum(a[i] * b[i + u] for i in range(n - u))
    return sum(a[i - u] * b[i] for i in range(n + u))


def ref_aacs(pair, u):
    a = list(pair.first)
    b = list(pair.second)
    return ref_accf(a, a, u) + ref_accf(b, b, u)


def ref_accs(pair, u):
    a = list(pair.first)
    b = list(pair.second)
    return ref_accf(a, b, u) + ref_accf(b, a, u)


def ref_turyn_compose(first, second):
    """Turyn's composition entry by entry, as two lists of ints.

    With P = (a+b)/2 and Q = (b-a)/2 for first = (a, b) of length N, and
    second = (c, d) of length M, entry qN + r is c_q P_r - d_(M-1-q) Q_r in s
    and d_q P_r + c_(M-1-q) Q_r in t.
    """
    a, b = list(first.first), list(first.second)
    c, d = list(second.first), list(second.second)
    n, m = len(a), len(c)
    p = [(a[r] + b[r]) // 2 for r in range(n)]
    q = [(b[r] - a[r]) // 2 for r in range(n)]
    s = [c[i] * p[r] - d[m - 1 - i] * q[r] for i in range(m) for r in range(n)]
    t = [d[i] * p[r] + c[m - 1 - i] * q[r] for i in range(m) for r in range(n)]
    return s, t


def ref_zcp_width(pair):
    """Largest Z with AACS zero strictly below Z, by direct scan."""
    n = pair.n
    for width in range(n, 0, -1):
        if all(ref_aacs(pair, u) == 0 for u in range(1, width)):
            return width
    return 1


def ref_czcp_width(pair):
    """Scan every Z from the cap down; first Z whose zones hold wins."""
    n = pair.n
    for z in range(n // 2, 0, -1):
        t1 = range(1, z + 1)
        t2 = range(n - z, n)
        c1 = all(ref_aacs(pair, u) == 0 for u in t1) and all(
            ref_aacs(pair, u) == 0 for u in t2
        )
        c2 = all(ref_accs(pair, u) == 0 for u in t2)
        if c1 and c2:
            return z
    return 0


def ref_seed_shape(pair, mid_abs=None):
    """AACS zero at every shift 1..N-1 but N/2, where |AACS| must equal mid_abs if given."""
    n = pair.n
    for u in range(1, n):
        s = ref_aacs(pair, u)
        if u == n // 2:
            if mid_abs is not None and abs(s) != mid_abs:
                return False
        elif s:
            return False
    return True


def word_aacs(x, y, m, u):
    """AACS(u) of the pairs with uint64 sign words (x, y), by popcounts of w ^ (w >> u)."""
    overlap = np.uint64((1 << (m - u)) - 1)
    pc = sum(
        np.bitwise_count((w ^ (w >> np.uint64(u))) & overlap).astype(np.int64)
        for w in (x, y)
    )
    return 2 * (m - u) - 2 * pc


def decode(index, m):
    """Candidate `index` of length m -> sign words (x of c, y of d), bit j set for -1 at j.

    The candidate space's definition: c_0 = +1 and bits 2.. of the index are
    c_1..c_(M-1); d_j = c_j for j < M/2-1 and d_j = -c_j for j > M/2, and
    index bits 0 and 1 set d_(M/2-1) = -c_(M/2-1) and d_(M/2) = -c_(M/2).
    `index` is a Python int or a uint64 array; the words have its type.
    """
    h = m // 2
    x = index >> 2 << 1
    y = index & 0
    for j in range(m):
        if j < h - 1:
            negated = 0
        elif j == h - 1:
            negated = index & 1
        elif j == h:
            negated = index >> 1 & 1
        else:
            negated = 1
        y |= (x >> j & 1 ^ negated) << j
    return x, y


def scan_block(indexes, m, mid_abs):
    """Encodings in the uint64 array `indexes` whose pairs have the seed shape.

    Bit-parallel ref_seed_shape on the half-structured candidates: AACS(u) =
    2*(m-u) - 2*(popcount_x + popcount_y) of the shifted-XOR words, zero at
    u = 1..M/2-1 and |AACS(M/2)| == mid_abs if given; every shift above M/2
    sums to zero for every candidate. The reference the search's join is
    tested against.
    """
    x, y = decode(indexes, m)
    keep = indexes
    for u in range(1, m // 2 + 1):
        aacs = word_aacs(x, y, m, u)
        if u < m // 2:
            ok = aacs == 0
        elif mid_abs is not None:
            ok = np.abs(aacs) == mid_abs
        else:
            break
        keep, x, y = keep[ok], x[ok], y[ok]
    return keep


def scan_space(m, mid_abs):
    """scan_block over the whole candidate space of length m, in blocks of 2^20."""
    space = SearchSpec(m=m, allow_large=True).space
    blocks = [
        scan_block(np.arange(lo, min(lo + (1 << 20), space), dtype=np.uint64), m, mid_abs)
        for lo in range(0, space, 1 << 20)
    ]
    return np.concatenate(blocks)


def check_scan_block(rng, m, sample):
    """scan_block against ref_seed_shape on decoded candidates.

    The block is `sample` random encodings plus every encoding the scanner
    keeps over the whole space (so accepting cases occur); over the block
    the scanner must keep exactly the encodings the definition accepts.
    """
    space = SearchSpec(m=m).space
    found = scan_space(m, None)
    chosen = set(rng.sample(range(space), min(sample, space))) | {int(v) for v in found}
    block = np.array(sorted(chosen), dtype=np.uint64)
    pairs = {}
    for index in chosen:
        x, y = decode(index, m)
        pairs[index] = SequencePair(word_sequence(x, m), word_sequence(y, m))
    for mid_abs in (None, 0, 2):
        want = [i for i in sorted(chosen) if ref_seed_shape(pairs[i], mid_abs)]
        assert [int(v) for v in scan_block(block, m, mid_abs)] == want, (m, mid_abs)
    return len(found)


def brute_force_search(m, mid_abs=None):
    """Optimal (M, M/2-1) classes over all 2^(2M) unconstrained pairs (tiny M only).

    The reference for run_search: no half-sequence structure, no join.
    """
    canonical = {}
    scanned = 0
    for wa in range(1 << m):
        a = word_sequence(wa, m)
        for wb in range(1 << m):
            scanned += 1
            pair = SequencePair(a, word_sequence(wb, m))
            v = classify(pair)
            if not v.is_optimal or v.czcp_width != m // 2 - 1:  # width 0 (M = 2) is no CZCP
                continue
            if mid_abs is not None and abs(v.mid_aacs) != mid_abs:
                continue
            rep = canonicalize(pair)
            canonical[rep.texts()] = rep
    pairs = tuple(canonical[k] for k in sorted(canonical))
    return SearchResult(pairs=pairs, candidates_scanned=scanned, elapsed=0.0)
