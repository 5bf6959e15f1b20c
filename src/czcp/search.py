"""Exhaustive structure-pruned search for optimal seed CZCPs.

The candidate space for target length M fixes c0 = d0 = +1 (negation
equivalence), forces d to mirror c on indices 0..M/2-2 and to mirror -c on
indices M/2+1..M-1 (the half-sequence structure any width-(M/2-1) CZCP must
have), and leaves d's two middle entries free: 2^(M-1) choices of c times 4
middle-sign combinations. The tail cross-correlation condition holds for
every candidate by construction, so scanning only has to reject on the
autocorrelation sums at shifts 1..M-1 excluding M/2.

Candidates are encoded as integers (c's sign bits shifted left twice, plus
two bits choosing the middle signs); shards are contiguous ranges of that
integer, so any shard partition scans the same space deterministically.

A spec whose whole space exceeds 2^24 candidates (M >= 24) is refused at
construction, before any work starts, unless it sets allow_large.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .correlation import aacs_profile
from .sequences import BinarySequence, SequencePair
from .verify import czcp_width, golay_factorization

_BLOCK = 1 << 20
_LARGE_SPACE = 1 << 24  # gate for M >= 24 (2^25 candidates and up)
_SCAN_RATE = 20_000_000  # candidates/s on one core, for the gate's time estimate
PROGRESS_EVERY = 1_000_000


class LargeSearchError(ValueError):
    """A SearchSpec over more than 2^24 candidates that does not set allow_large."""


@dataclass(frozen=True)
class SearchSpec:
    """Parameters of one search (or one shard of it)."""

    m: int
    mid_abs: Optional[int] = None
    require_optimal: bool = True
    shards: int = 1
    shard_index: int = 0
    allow_large: bool = False

    def __post_init__(self):
        if self.m < 2 or self.m % 2:
            raise ValueError(f"target length must be even and >= 2, got {self.m}")
        if self.m > 62:
            raise ValueError(f"target length {self.m} exceeds 62, the uint64 encoding limit")
        if self.mid_abs is not None and self.mid_abs < 0:
            raise ValueError(f"mid_abs must be non-negative, got {self.mid_abs}")
        if self.shards < 1 or not 0 <= self.shard_index < self.shards:
            raise ValueError("need 0 <= shard_index < shards")
        if self.space > _LARGE_SPACE and not self.allow_large:
            raise LargeSearchError(
                f"length {self.m} scans {self.space:,} candidates (roughly "
                f"{self.space // _SCAN_RATE} s single-threaded); "
                "rerun with allow_large (--allow-large)"
            )

    @property
    def space(self):
        """Total number of candidate encodings (all shards together)."""
        return 1 << (self.m + 1)

    @property
    def shard_range(self):
        lo = self.shard_index * self.space // self.shards
        hi = (self.shard_index + 1) * self.space // self.shards
        return lo, hi


@dataclass(frozen=True)
class SearchResult:
    """Canonical representatives found plus scan bookkeeping."""

    pairs: tuple
    classes: int
    candidates_scanned: int
    elapsed: float
    warnings: tuple = field(default=())


def equivalents(pair):
    """All 16 pairs equivalent to `pair` under sign flips, swap, and joint reversal."""
    a, b = pair.first, pair.second
    out = []
    for p, q in (
        (a, b),
        (b, a),
        (a.reverse(), b.reverse()),
        (b.reverse(), a.reverse()),
    ):
        for p2 in (p, p.negate()):
            for q2 in (q, q.negate()):
                out.append(SequencePair(p2, q2))
    return out


def canonicalize(pair):
    """Lexicographically smallest equivalent pair ('+' sorts before '-')."""
    return min(equivalents(pair), key=lambda p: p.texts())


def _decode(index, m):
    """Candidate encoding -> packed sign words (x for c, y for d)."""
    x = (index >> 2) << 1  # bit j = sign of c_j, c0 = +1
    h = m // 2
    flip = ((1 << m) - (1 << (h + 1))) | ((index & 1) << (h - 1)) | (
        ((index >> 1) & 1) << h
    )
    return x, x ^ flip


def _word_to_sequence(word, m):
    return BinarySequence([-1 if (word >> j) & 1 else 1 for j in range(m)])


def _check_shifts(m):
    """AACS shifts that must vanish, cheapest rejectors first."""
    out = [u for u in (1, m - 1) if u != m // 2 and 1 <= u <= m - 1]
    out += [u for u in range(2, m - 1) if u != m // 2 and u not in out]
    return out


def _scan_block(indexes, m, mid_abs):
    """Filter a block of candidate encodings; returns surviving encodings."""
    h = m // 2
    x = (indexes >> np.uint64(2)) << np.uint64(1)
    flip = (
        np.uint64((1 << m) - (1 << (h + 1)))
        | ((indexes & np.uint64(1)) << np.uint64(h - 1))
        | (((indexes >> np.uint64(1)) & np.uint64(1)) << np.uint64(h))
    )
    y = x ^ flip
    keep = indexes
    for u in _check_shifts(m):
        overlap = np.uint64((1 << (m - u)) - 1)
        diff_x = (x ^ (x >> np.uint64(u))) & overlap
        diff_y = (y ^ (y >> np.uint64(u))) & overlap
        # AACS(u) = 2*(m-u) - 2*(popcount_x + popcount_y)
        ok = np.bitwise_count(diff_x) + np.bitwise_count(diff_y) == m - u
        keep, x, y = keep[ok], x[ok], y[ok]
        if keep.size == 0:
            return keep
    if mid_abs is not None:
        overlap = np.uint64((1 << (m - h)) - 1)
        diff_x = (x ^ (x >> np.uint64(h))) & overlap
        diff_y = (y ^ (y >> np.uint64(h))) & overlap
        pc = np.bitwise_count(diff_x).astype(np.int64) + np.bitwise_count(
            diff_y
        ).astype(np.int64)
        mid = 2 * (m - h) - 2 * pc
        keep = keep[np.abs(mid) == mid_abs]
    return keep


def run_search(spec, progress=None):
    """Scan the shard, verify survivors, and return sorted canonical classes.

    `progress` is called as progress(scanned, total) roughly every
    PROGRESS_EVERY candidates.
    """
    warnings = []
    if golay_factorization(spec.m) is not None:
        warnings.append(
            f"length {spec.m} is a Golay number; seed searches target non-Golay lengths"
        )

    t0 = time.monotonic()
    lo, hi = spec.shard_range
    survivors = []
    scanned = 0
    next_report = PROGRESS_EVERY
    for start in range(lo, hi, _BLOCK):
        stop = min(start + _BLOCK, hi)
        block = np.arange(start, stop, dtype=np.uint64)
        survivors.extend(int(v) for v in _scan_block(block, spec.m, spec.mid_abs))
        scanned += stop - start
        if progress is not None and scanned >= next_report:
            progress(scanned, hi - lo)
            next_report += PROGRESS_EVERY

    target = spec.m // 2 - 1
    canonical = {}
    for index in survivors:
        x, y = _decode(index, spec.m)
        pair = SequencePair(
            _word_to_sequence(x, spec.m), _word_to_sequence(y, spec.m)
        )
        width = czcp_width(pair)
        if width != target and (spec.require_optimal or width < target):
            continue
        rep = canonicalize(pair)
        canonical[rep.texts()] = rep

    pairs = tuple(canonical[k] for k in sorted(canonical))
    return SearchResult(
        pairs=pairs,
        classes=len(pairs),
        candidates_scanned=hi - lo,
        elapsed=time.monotonic() - t0,
        warnings=tuple(warnings),
    )


def merge_results(results):
    """Union of shard results with deterministic ordering."""
    canonical = {}
    scanned = 0
    elapsed = 0.0
    warnings = []
    for res in results:
        for pair in res.pairs:
            canonical[pair.texts()] = pair
        scanned += res.candidates_scanned
        elapsed = max(elapsed, res.elapsed)
        for w in res.warnings:
            if w not in warnings:
                warnings.append(w)
    pairs = tuple(canonical[k] for k in sorted(canonical))
    return SearchResult(
        pairs=pairs,
        classes=len(pairs),
        candidates_scanned=scanned,
        elapsed=elapsed,
        warnings=tuple(warnings),
    )


def _run_shard(spec):
    # the pool pickles this by name; run_search itself may be rebound to a wrapper
    # (a tracer's, say) that cannot be pickled
    return run_search(spec)


def run_search_parallel(spec, jobs, progress=None):
    """Fan a whole-space search out over `jobs` worker processes.

    With jobs <= 1, or a spec that names one shard of several, the search
    runs here via run_search(spec, progress). Workers report no progress.
    """
    if jobs <= 1 or spec.shards > 1:
        return run_search(spec, progress)
    specs = [replace(spec, shards=jobs, shard_index=i) for i in range(jobs)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        results = list(pool.map(_run_shard, specs))
    return merge_results(results)


def brute_force_search(m, mid_abs=None, require_optimal=True):
    """Oracle: scan all 2^(2M) unconstrained pairs (tiny M only)."""
    target = m // 2 - 1
    canonical = {}
    scanned = 0
    for wa in range(1 << m):
        a = _word_to_sequence(wa, m)
        for wb in range(1 << m):
            scanned += 1
            pair = SequencePair(a, _word_to_sequence(wb, m))
            width = czcp_width(pair)
            if width != target and (require_optimal or width < target):
                continue
            if mid_abs is not None:
                if abs(int(aacs_profile(pair)[m // 2])) != mid_abs:
                    continue
            rep = canonicalize(pair)
            canonical[rep.texts()] = rep
    pairs = tuple(canonical[k] for k in sorted(canonical))
    return SearchResult(
        pairs=pairs, classes=len(pairs), candidates_scanned=scanned, elapsed=0.0
    )
