"""Embedded ground-truth pairs and recursive GCP generation.

The catalog carries four kinds of entries:

* the four optimal seed CZCPs of lengths 6, 12, 24, 28 with their printed
  correlation profiles,
* the four optimal pairs of lengths 12, 24, 48, 56 obtained by composing
  the seeds with the length-2 GCP (K48/K56 are the customary short ids for
  the two new-parameter pairs),
* the Golay kernels of lengths 2, 10 and 26, from which golay_pair composes
  a GCP of any length N = 2^a * 10^b * 26^c with the best kernel last, so
  it attains its family's width (gcp_family): N/2 with a factor 2, else
  6N/13 with a factor 26, else 2N/5,
* the worked length-60 example pair.

Every entry's claimed width and profiles are recomputed and checked by the
test suite; nothing is trusted as printed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .sequences import SequencePair
from .turyn import turyn_compose
from .verify import golay_factorization


class UnknownIdError(KeyError):
    """An id the catalog does not hold."""

    code = "unknown_id"  # the CLI's report code


@dataclass(frozen=True)
class CatalogEntry:
    """An embedded pair with its claimed classification."""

    id: str
    pair: SequencePair
    source: str
    width: int  # claimed CZCP width
    optimal: bool
    aacs: Optional[tuple] = None  # printed AACS profile, where available
    accs: Optional[tuple] = None


def _entry(eid, first, second, source, width, optimal, aacs=None, accs=None):
    return CatalogEntry(
        id=eid,
        pair=SequencePair.from_texts(first, second),
        source=source,
        width=width,
        optimal=optimal,
        aacs=aacs,
        accs=accs,
    )


_SEEDS = {
    "K6": _entry(
        "K6", "+----+", "+-+++-", "seed table, length 6", 2, True,
        aacs=(12, 0, 0, -2, 0, 0),
        accs=(-4, -4, 0, 2, 0, 0),
    ),
    "K12": _entry(
        "K12", "+++-++++--+-", "+++-+---++-+", "seed table, length 12", 5, True,
        aacs=(24,) + (0,) * 5 + (-2,) + (0,) * 5,
        accs=(-4, 0, 4, 0, 4, 0, 2) + (0,) * 5,
    ),
    "K24": _entry(
        "K24",
        "+-++-+++--------++--+-+-",
        "+-++-+++---+++++--++-+-+",
        "seed table, length 24", 11, True,
        aacs=(48,) + (0,) * 11 + (2,) + (0,) * 11,
        accs=(-4, 0, -4, 0, -4, 0, -4, 0, -4, 0, -4, 0, -2) + (0,) * 11,
    ),
    "K28": _entry(
        "K28",
        "++-+-++-----+----+--++---+-+",
        "++-+-++-----+++++-++--+++-+-",
        "seed table, length 28", 13, True,
        aacs=(56,) + (0,) * 13 + (-2,) + (0,) * 13,
        accs=(-4, 0, 4, 0, -12, 0, 4, 0, -12, 0, -12, 0, 4, 0, 2) + (0,) * 13,
    ),
}

_COMPOSED = {
    "T2K12": _entry(
        "T2K12", "--++++++-++-", "--+++-+-+--+",
        "composed table, length 12 (from K6)", 5, True,
        aacs=(24,) + (0,) * 5 + (-4,) + (0,) * 5,
        accs=(0, 8, 0, -4, 0, -4, 0) + (0,) * 5,
    ),
    "T2K24": _entry(
        "T2K24",
        "+---+-++------+--++++-++",
        "+---+-++---+-+-++----+--",
        "composed table, length 24 (from K12)", 11, True,
        aacs=(48,) + (0,) * 11 + (-4,) + (0,) * 11,
        accs=(0, 0, 0, -4, 0, -12, 0, 20, 0, 4, 0, 4, 0) + (0,) * 11,
    ),
    "T2K48": _entry(
        "T2K48",
        "+--++---+++-----++++++++++-+-+-++-+-++-++-++--++",
        "+--++---+++-----+++++++-+-+-+-+--+-+--+--+--++--",
        "composed table, length 48 (from K24)", 23, True,
        aacs=(96,) + (0,) * 23 + (4,) + (0,) * 23,
        accs=(0, 40, 0, -12, 0, -4, 0, -12, 0, -4, 0, -12, 0, 4, 0, -12, 0,
              -4, 0, -4, 0, 4, 0, -4, 0) + (0,) * 23,
    ),
    "T2K56": _entry(
        "T2K56",
        "--+--++-+++----+++++-++++-++++++-+---+-+--+-++-+++--+++-",
        "--+--++-+++----+++++-++++-+-+---+-+++-+-++-+--+---++---+",
        "composed table, length 56 (from K28)", 27, True,
        aacs=(112,) + (0,) * 27 + (-4,) + (0,) * 27,
        accs=(0, 16, 0, 4, 0, -12, 0, 20, 0, 4, 0, 12, 0, 28, 0, -20, 0, -4,
              0, -4, 0, -4, 0, -12, 0, -4, 0, -4, 0) + (0,) * 27,
    ),
}

_KERNELS = {
    "GCP2": _entry("GCP2", "+-", "--", "length-2 kernel", 1, True),
    "GCP10": _entry(
        "GCP10", "--+-+-++--", "++-+++++--",
        "length-10 kernel (worked example GCP)", 4, True,
    ),
    # length-26 kernel found by exhaustive two-ended search; validated as a
    # GCP (and for its CZCP width) by the test suite
    "GCP26": _entry(
        "GCP26",
        "++++-++--+-+++++-+---++---",
        "++++-++--+-+-+--+-+++--+++",
        "length-26 kernel", 12, True,
    ),
}

_EX1_E = "++-+++++----+-----++--+-"
_EX1_F = "--++++-+-+--++--+-+-++--"
_EX1_S = _EX1_E + "----++--+---" + _EX1_F
_EX1_T = _EX1_E + "+-++----+-+-" + _EX1_F.translate(str.maketrans("+-", "-+"))

_EXAMPLE = {
    "EX1": _entry(
        "EX1", _EX1_S, _EX1_T, "worked example, length 60", 24, False,
        aacs=(120,) + (0,) * 29 + (-20,) + (0,) * 29,
        accs=(0, 16, 8, 8, 8, 8, 24, 8, -8, -20, 0, -16, 8, -4, 8, 12, -8,
              -4, 8, 4, 0, 4, 8, -4, -8, 0, -4, -4, -4, -4, 0, 0, -4, 0, -4,
              -4) + (0,) * 24,
    ),
}

_ALIASES = {"K48": "T2K48", "K56": "T2K56"}

_ALL = {}
_ALL.update(_SEEDS)
_ALL.update(_COMPOSED)
_ALL.update(_KERNELS)
_ALL.update(_EXAMPLE)


def ids():
    """All primary catalog ids (aliases excluded), in a stable order."""
    return tuple(_ALL)


def get(eid):
    """Look up any catalog entry by id or alias."""
    key = _ALIASES.get(eid, eid)
    if key not in _ALL:
        raise UnknownIdError(f"unknown catalog id {eid!r} (known: {', '.join(_ALL)})")
    return _ALL[key]


def seed(eid):
    """Look up one of the four seed CZCPs (K6, K12, K24, K28)."""
    if eid not in _SEEDS:
        raise UnknownIdError(f"unknown seed id {eid!r} (known: {', '.join(_SEEDS)})")
    return _SEEDS[eid]


def table1_entries():
    return tuple(_SEEDS.values())


def table2_entries():
    return tuple(_COMPOSED.values())


class GcpFamily(NamedTuple):
    family: int  # 1..4, by the kernels that divide n
    width: int  # the CZCP width golay_pair(n) attains


def gcp_family(n):
    """The family of an even Golay number n and the width of golay_pair(n).

    The width is n times the ratio of the kernel composed last: family 1 (a
    factor 2) ends on 2 and gives n/2, family 2 (only 10s) ends on 10 and
    gives 2n/5, families 3 (only 26s) and 4 (10s and 26s) end on 26 and give
    6n/13.
    """
    fact = golay_factorization(n)
    if fact is None or n % 2:
        raise ValueError(f"{n} is not an even Golay number (2^a * 10^b * 26^c)")
    if fact.alpha:
        return GcpFamily(1, n // 2)
    if not fact.gamma:
        return GcpFamily(2, 2 * n // 5)
    return GcpFamily(4 if fact.beta else 3, 6 * n // 13)


def golay_pair(n):
    """A GCP of length n = 2^a * 10^b * 26^c by iterated composition of kernels.

    The kernel with the best ratio goes last, so for even n the pair attains
    the width gcp_family(n) gives.
    """
    fact = golay_factorization(n)
    if fact is None:
        raise ValueError(f"{n} is not a Golay number (2^a * 10^b * 26^c)")
    if fact.alpha:
        lengths = [26] * fact.gamma + [10] * fact.beta + [2] * fact.alpha
    else:
        lengths = [10] * fact.beta + [26] * fact.gamma
    pair = SequencePair.from_texts("+", "+")
    kernels = {k.pair.n: k.pair for k in _KERNELS.values()}
    for m in lengths:
        pair = turyn_compose(pair, kernels[m])
    return pair
