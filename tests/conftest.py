"""Shared helpers: seeded randomness and independent reference oracles.

The reference implementations here are deliberately written from the bare
definitions (explicit index loops, no numpy, no shared code with the
package) so the package's optimized paths are checked against something
that cannot inherit their bugs. The exception is numpy in
outside_in_census, the search's oracle, which works on packed sign words
and takes only canonicalize from czcp.search; it is pinned against
brute_force_search.
"""

import collections
import functools
import random
import types

import numpy as np
import pytest

from czcp.search import SearchResult, canonicalize
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


def word_corr(a, b, u, n):
    """Sum of a_i b_(i+u) over i = 0..n-1-u, per pair of length-n sign words in uint64 arrays.

    It reads positions 0..n-1-u of `a` and u..n-1 of `b` only, so words
    whose other bits are not yet set give it exactly. Returns int64.
    """
    differ = np.bitwise_count((a ^ (b >> np.uint64(u))) & np.uint64((1 << (n - u)) - 1))
    return (n - u) - 2 * differ.astype(np.int64)


def aacs_of_words(x, y, u, m):
    """AACS(u) of the pairs with length-m sign words (x of c, y of d), by word_corr."""
    return word_corr(x, x, u, m) + word_corr(y, y, u, m)


def _accs_of_words(x, y, u, m):
    return word_corr(x, y, u, m) + word_corr(y, x, u, m)


def _extend(x, y, p):
    """Each pair four times, with every sign of c and of d at position p."""
    bit = np.uint64(1 << p)
    return np.concatenate([x, x | bit, x, x | bit]), np.concatenate([y, y, y | bit, y | bit])


Census = collections.namedtuple("Census", "classes frontier")


@functools.cache
def outside_in_census(m, z):
    """Every pair of length m and CZCP width at least z, 1 <= z <= m/2, up to equivalence.

    It assumes nothing of the half-sequence structure. c and d are sign
    words (bit j set for -1 at j) with c_0 = d_0 = +1, as every pair is
    equivalent to one. They are built from both ends: layer k sets
    positions k and m-1-k of both, and with them every term of AACS and
    ACCS at shift m-1-k, so it keeps a pair only if both vanish there, as
    the zones of width z demand for k < z. After z layers the positions
    z..m-1-z take every sign: that is `frontier`, (words of c, words of d),
    read-only. `classes`, a read-only mapping in text order, maps the
    canonical texts of each frontier pair whose AACS also vanishes at 1..z
    to (its CZCP width, |AACS(m/2)|). Results are cached.
    """
    x = y = np.zeros(1, dtype=np.uint64)
    for k in range(z):
        u = m - 1 - k
        for p in {k, u} - {0}:
            x, y = _extend(x, y, p)
        keep = (aacs_of_words(x, y, u, m) == 0) & (_accs_of_words(x, y, u, m) == 0)
        x, y = x[keep], y[keep]
    for p in range(z, m - z):
        x, y = _extend(x, y, p)
    for words in (x, y):
        words.flags.writeable = False
    frontier = x, y
    kept = []
    for a in range(0, x.size, 1 << 20):  # slices keep the temporaries small at m = 22
        xs, ys = x[a : a + (1 << 20)], y[a : a + (1 << 20)]
        for u in range(1, z + 1):
            keep = aacs_of_words(xs, ys, u, m) == 0
            xs, ys = xs[keep], ys[keep]
        kept.append((xs, ys))
    x, y = (np.concatenate(words) for words in zip(*kept))
    width = np.full(x.size, z)
    for w in range(z + 1, m // 2 + 1):  # width w adds shift w and m-w to the zones
        grows = (width == w - 1) & (aacs_of_words(x, y, w, m) == 0)
        grows &= (aacs_of_words(x, y, m - w, m) == 0) & (_accs_of_words(x, y, m - w, m) == 0)
        width[grows] = w
    mid = np.abs(aacs_of_words(x, y, m // 2, m))
    classes = {}
    for a, b, w, v in zip(x.tolist(), y.tolist(), width.tolist(), mid.tolist()):
        pair = SequencePair(word_sequence(a, m), word_sequence(b, m))
        classes[canonicalize(pair).texts()] = (w, v)
    return Census(types.MappingProxyType(dict(sorted(classes.items()))), frontier)


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
