"""Exhaustive structure-pruned search for optimal seed CZCPs.

The candidate space for target length M fixes c0 = +1 (negation
equivalence), forces d to mirror c on indices 0..M/2-2 and to mirror -c on
indices M/2+1..M-1 (the half-sequence structure any width-(M/2-1) CZCP must
have), and leaves d's two middle entries free: 2^(M-1) choices of c times 4
middle-sign combinations. So d0 = +1 for M >= 4; at M = 2 position 0 is a
middle position and d0 takes both signs. The tail cross-correlation
condition holds for every candidate by construction, so only the
autocorrelation sums decide.

With s_i = c_i d_i, AACS(u) = 2 (A+(u) + A-(u)), where A+/A- sums
c_i c_(i+u) over the pairs that lie inside P+ = {i : s_i = +1} or inside
P- = {i : s_i = -1}. P+ holds indices 0..M/2-2 and P- holds M/2+1..M-1;
the middle class (two bits) puts M/2-1 and M/2 into one or the other. No
pair at a shift above M/2 lies inside either set, so those sums vanish for
every candidate, and shifts 1..M/2-1 are the only ones that can reject. For
them the condition is A+ = -A-, with each side a function of its own half of
c. The search is therefore a meet-in-the-middle join: per middle class it
lists the sign words of each half (at most 2^(M/2-1) each, below) and
matches them on their sums at shifts 1..M/2-1, in about 2^(M/2+1) word
operations per shift instead of 2^(M+1) candidate tests.

The join takes the sums from popcounts and builds no matrix of them. In a
half with sign word w, A(u) = k(u) - 2 d(u): k(u) counts the pairs (i, i+u)
inside the half and d(u) = popcount((w ^ w >> u) & mask) those of them
whose signs differ, mask marking the i with i and i+u both inside. So
A+ = -A- exactly when d+ + d- = t(u) = (k+(u) + k-(u)) / 2. t(u) is an
integer: for u <= M/2-1 the first u positions lie in P+ and the last u in
P-, so the number of pairs at shift u that cross between the sets has the
parity of u, and the M-u pairs less those are even in number. Each P+
word's key packs 32 + d+ and each P- word's 32 + t - d- at the first
_KEY_SHIFTS shifts, 6 bits a shift (every field lies in [0, 64)), built one
shift at a time; the join sort-matches the keys and checks the later shifts
on the key matches only.

Class 0 lists half of P+. For M >= 4 its shift M/2-1 has exactly two pairs
inside P+ = {0..M/2}, (0, M/2-1) and (1, M/2), and none inside
P- = {M/2+1..M-1}, which spans M/2-2. So A- = 0 there, and a match needs
A+ = c_0 c_(M/2-1) + c_1 c_(M/2) = 0, that is c_(M/2) = -c_1 c_(M/2-1)
(c_0 = +1). The join derives that bit of each P+ word instead of listing
both values, which drops only words that match nothing.

The middle class decides |AACS(M/2)|. Let x = c_(M/2-1) - d_(M/2-1) and
y = c_(M/2) + d_(M/2). For M >= 4 the mirrored terms of AACS(M/2) cancel
and AACS(M/2) = y + c_(M-1)*x, so class 0 (both middle positions in P+)
gives |AACS(M/2)| = 2, class 3 (both in P-) gives 2, class 2 gives 0 and
class 1 gives 0 or 4. At M = 2 the middle positions are the whole
sequence and AACS(1) = c0 c1 + d0 d1 is 2 in classes 0 and 3 and 0 in
classes 1 and 2. Reversing both members and negating d maps class 0's
candidates one to one onto class 3's, and that map is an equivalence, so
the two classes hold the same canonical classes. Class 2 puts M/2-1 in
P+ and M/2 in P-, so d = (L, -R) for c = (L, R), L and R the halves of c.
At a shift u >= M/2 every term pairs an index i < M/2 with i+u >= M/2, so
d_i d_(i+u) = -c_i c_(i+u) and d_i c_(i+u) = -c_i d_(i+u): AACS(u) and
ACCS(u) vanish from M/2 on. A class 2 join match, with AACS zero at
1..M/2-1 as well, is a perfect pair of width M/2, never an optimal
(M, M/2-1) one, so the width check would drop every class it holds. The
search therefore joins only those of classes 0 and 1 that can reach mid_abs
(_MIDDLES): class 0 for 2, class 1 for 4 and for 0, both when mid_abs is
unset, and none for any other value. Classes 2 and 3 are never joined.

Class 1 puts M/2-1 in P- and M/2 in P+, so d_(M/2-1) = -c_(M/2-1) and
d_(M/2) = c_(M/2), and AACS(M/2) = 2 (c_(M/2) + c_(M-1) c_(M/2-1)):
|AACS(M/2)| is 4 when c_(M/2) = c_(M-1) c_(M/2-1) and 0 otherwise. In sign
bits (b_j set for c_j = -1) that is b_(M/2) = b_(M-1) ^ b_(M/2-1), with
b_(M/2) in a P+ word and b_(M-1), b_(M/2-1) in a P- word. So for mid_abs 4
or 0 class 1's join puts b_(M/2) into bit _MID_BIT (60) of the left key and
b_(M-1) ^ b_(M/2-1), XOR 1 for mid_abs 0, into bit 60 of the right key
(_MIDDLES); the 6-bit fields end at bit 59 and never carry into it. The
join compares every shift 1..M/2-1 in full, so its matches are exactly the
candidates of the joined classes with the seed shape and the requested
|AACS(M/2)| and with c_(M/2+1) = +1 (next paragraph): every match is a
survivor. M = 2 has no check shift, and its width M/2-1 = 0 is no CZCP, so
no class is joined there.

Each half is listed with the sign of its first listed position fixed to +1
(_half_words): c_0 in P+, by negation as above, and in P- c_(M/2+1), which
_class_sums lists first in P- for every class, by the swap of c and d. Swapping
keeps s = c d, so it keeps the middle class and d_0 = c_0 = +1; it
complements c on P- and leaves P+ alone. Complementing a half leaves every
d(u) unchanged, so every key field and the shift-1 field that picks a key
part (below) stay the same, and so does class 1's key bit
b_(M-1) ^ b_(M/2-1), whose two bits both lie in P-. A match and its swap
partner therefore share a key part, a shard and a canonical class, and the
search lists c with c_0 = c_(M/2+1) = +1 and emits one match of each swap
pair. Each half then holds at most 2^(M/2-1) words: class 0's P+ (one bit
derived) and class 1's two halves exactly that, class 0's P- half of it.
The space counted as scanned is still all 2^(M+1) candidates. A half's
positions after its fixed first one fall into runs of consecutive
positions (at most _RUN_BITS long), and its words are the product of its
runs: each run's 2^r sign patterns ORed as the high part onto the words of
the runs before it (np.bitwise_or.outer), written in place into one array,
one array pass per run and none per position.

A search is a list of join passes, one per joined middle class and key
part. A joined class is described once (_class_sums): its halves' listed
positions and masks, t(u), class 0's derived bit and class 1's key bit,
the last two as one parity rule (_parity); its listing, join and class
keying read that description. Each half of a class is listed once and split by its words' shift-1
key field (_key_parts), which is equal on both sides of every match: with S
shards, into S*jobs parts by the field mod S*jobs, of which shard i runs
the `jobs` parts that are i mod S. So the shards' joins are disjoint and
add up to the whole join, and the union of their classes is the unsharded
result (a class can be reported by several shards). A match's field is a
P+ word's 32 + d+(1), 0 <= d+(1) <= k+(1); a shard that owns none of those
values lists neither half of the class. Each shard counts its
equal share of the 2^(M+1) candidates as scanned. run_search_parallel is
run_search below M = _THREADS_MIN_M, where two threads lose to one; from
there on it lists the two halves on two worker threads started for the
call, and `jobs` threads key, sort and join one part each. The join is
numpy array work that releases the GIL for most of its time, so threads
overlap it without copying any array between processes. A worker thread
runs _key_parts and _join and nothing else: the matches come back to the
calling thread, which reports progress, groups and verifies them all once
(so the names perfbench/tracer.py wraps are called on one thread).

Survivors are grouped into equivalence classes on their packed sign words
(_canonical_words), with no sequence built per survivor; each class's pair
is built from its key, two ints whose M binary digits are the members'
signs (_key_pair), with no text formatted or parsed, and verified once,
because the CZCP width and |mid_aacs| are the same for all 16 equivalent
pairs.

A spec is gated at construction, before any work starts, on what a search
holds: the 2^(M/2-1) sign words of its largest half, listed in full
whatever mid_abs, shards and jobs. Up to 2^19 words (M <= 40) it runs
freely, up to 2^23 (M <= 48) it needs allow_large, and longer lengths are
refused. With mid_abs unset a search took 0.15 s and 66 MB at M = 40,
0.75 s and 174 MB at 44, and 3.5 s and 607 MB at 48, where it finds 20
classes, the canonical form of the paper's (48, 23) pair among them
(2-vCPU host, medians of 4 fresh processes): about 2.6-3.5x the memory
per +4 in M.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .sequences import BinarySequence, SequencePair
from .verify import czcp_width, golay_factorization

# log2 of a half's sign words that run freely (M <= 40) and with allow_large
# (M <= 48); the peaks they bound are in the module docstring
_FREE_WORDS, _MAX_WORDS = 19, 23
_KEY_SHIFTS = 10  # shifts packed into the join key, 6 bits each
_KEY_BLOCK = 1 << 16  # words keyed at a time (_half_key)
_SIGN_OF_BIT = np.array([1, -1], dtype=np.int8)  # a sign word's bit -> its sign (_key_pair)
# longest run _half_words lists from one arange, which is a temporary: one as
# large as a half raised an M = 44 --jobs 2 search's peak by 7 MB and listed
# M = 48's halves 2x slower (CHANGES.md)
_RUN_BITS = 12
# mid_abs -> (middle class, key bit) per class whose join holds every optimal
# class with that |AACS(M/2)|, none for other values (module docstring); the key
# bit is None, or in class 1 XORed into the right key's bit _MID_BIT (1 for 0).
_MIDDLES = {None: ((0, None), (1, None)), 0: ((1, 1),), 2: ((0, None),), 4: ((1, 0),)}
_MID_BIT = 60  # class 1's |AACS(M/2)| key bit, above the _KEY_SHIFTS fields
# run_search_parallel threads its passes from this length on and is run_search
# below it: two threads (one pass per class and key part) lose to one process
# below M = 32, are even with it there within a 2-vCPU host's spread, and win
# from M = 34 on (timings in CHANGES.md, the `_THREADS_MIN_M` crossover)
_THREADS_MIN_M = 32


class SearchSpecError(ValueError):
    """Search parameters that name no search."""

    code = "bad_search"  # the CLI's report code


class LargeSearchError(SearchSpecError):
    """A SearchSpec past 2^19 sign words a half (M > 40) that does not set allow_large."""

    code = "large_search_gated"


@dataclass(frozen=True)
class SearchSpec:
    """Parameters of one search, or of its shard `shard_index` of `shards` (module docstring)."""

    m: int
    mid_abs: Optional[int] = None
    shards: int = 1
    shard_index: int = 0
    allow_large: bool = False

    def __post_init__(self):
        if self.m < 2 or self.m % 2:
            raise SearchSpecError(f"target length must be even and >= 2, got {self.m}")
        words = self.m // 2 - 1  # log2 of the largest half's sign words; 2^words is never built
        if words > _MAX_WORDS:
            raise SearchSpecError(
                f"length {self.m} lists 2^{words} sign words a half, past the limit 2^{_MAX_WORDS}"
            )
        if self.mid_abs is not None and self.mid_abs < 0:
            raise SearchSpecError(f"mid_abs must be non-negative, got {self.mid_abs}")
        if self.shards < 1 or not 0 <= self.shard_index < self.shards:
            raise SearchSpecError("need 0 <= shard_index < shards")
        if words > _FREE_WORDS and not self.allow_large:
            raise LargeSearchError(
                f"length {self.m} lists 2^{words} sign words a half; "
                "rerun with allow_large (--allow-large)"
            )

    @property
    def space(self):
        """Candidates in the whole space (all shards): 2^(M-1) c words times 4 middle classes."""
        return 1 << (self.m + 1)

    @property
    def share(self):
        """The shard's equal share of `space`: what it reports as scanned."""
        i, s = self.shard_index, self.shards
        return (i + 1) * self.space // s - i * self.space // s


@dataclass(frozen=True)
class SearchResult:
    """Canonical representatives found plus scan bookkeeping."""

    pairs: tuple
    candidates_scanned: int
    elapsed: float
    warnings: tuple = field(default=())

    @property
    def classes(self):
        return len(self.pairs)


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


def _bit_reverse(word, m):
    """The m-bit word read backwards: bit j moves to bit m-1-j."""
    return int(format(word, f"0{m}b")[::-1], 2)


def _canonical_words(x, y, m):
    """The class key of the pair with sign words (x, y): canonicalize on words.

    With bit j set for '-' at position j, a sequence's '+'/'-' text order is
    the integer order of its key, the word read with position 0 as the most
    significant bit (_bit_reverse). So the key of a reversed sequence is its
    plain word, negation is XOR with the all-ones word, and a swap exchanges
    the members. The smallest of the 16 (first, second) key tuples is the
    key of canonicalize's pair; each member's sign is chosen on its own.
    """
    ones = (1 << m) - 1
    kx, ky = _bit_reverse(x, m), _bit_reverse(y, m)
    return min(
        (min(p, p ^ ones), min(q, q ^ ones))
        for p, q in ((kx, ky), (ky, kx), (x, y), (y, x))
    )


def _key_pair(key, m):
    """The SequencePair whose members' texts are the keys in `key` in m binary digits.

    Each member's int8 values are its key's m low bits, most significant
    first, a set bit -1, unpacked from the key's big-endian bytes; no text
    is formatted or parsed.
    """
    size = (m + 7) // 8
    bits = np.unpackbits(np.frombuffer(b"".join(k.to_bytes(size, "big") for k in key), np.uint8))
    signs = _SIGN_OF_BIT[bits].reshape(len(key), 8 * size)[:, 8 * size - m :]
    return SequencePair(*map(BinarySequence._of_valid, signs))


def _scan_block(words):
    """A class's join matches, unchanged: only perfbench/tracer.py's survivor lookup site."""
    return words


def _half_words(positions):
    """Every sign word of c over `positions` whose first position has sign +1 (bit clear).

    _class_sums lists 0 first in P+ and M/2+1 first in P-: c_0 is fixed by
    negation and c_(M/2+1) by the swap of c and d (module docstring). The
    other positions split into runs of consecutive ones, at most _RUN_BITS
    long, and the words are the product of the runs: a run of r positions
    from `start` is the 2^r words arange(2^r) << start, and each later run
    is ORed on as the high part of the word index, so word i sets position
    p_(j+1) for each set bit j of i. All are written into the one result
    array: the first run at its start, each later run's rows after the
    words so far.
    """
    runs = []  # [start, length] of each run of consecutive positions, in list order
    for p in positions[1:]:
        if runs and p == sum(runs[-1]) and runs[-1][1] < _RUN_BITS:
            runs[-1][1] += 1
        else:
            runs.append([p, 1])
    words = np.empty(1 << (len(positions) - 1), dtype=np.uint64)
    words[0], size = 0, 1
    for start, r in runs:
        run = np.arange(1 << r, dtype=np.uint64)
        if size == 1:
            np.left_shift(run, np.uint64(start), out=words[: 1 << r])
        else:
            # the words so far are row 0 (run[0] = 0); rows 1.. go after them
            run <<= np.uint64(start)
            np.bitwise_or.outer(run[1:], words[:size], out=words[size : size << r].reshape(-1, size))
        size <<= r
    return words


def _differ(words, bits, u, out=None):
    """d(u) per word: the pairs at shift u inside a half that differ in sign.

    `bits` marks the half's positions, so mask = bits & bits >> u marks the
    i with i and i+u both in it, and d(u) = popcount((w ^ w >> u) & mask).
    The half's sum at shift u is popcount(mask) - 2 d(u). Returns a uint64
    array, written into `out` if given.
    """
    out = np.right_shift(words, np.uint64(u), out=out)
    out ^= words
    out &= np.uint64(bits & (bits >> u))
    return np.bitwise_count(out, out=out)


def _half_key(words, bits, shifts):
    """The d(u) of each word at `shifts`, 6 bits each, packed into one uint64, the first highest.

    The key is built in blocks of _KEY_BLOCK words, all shifts of a block
    before the next, so a block's six array passes per shift stay in cache.
    """
    key = np.zeros(words.size, dtype=np.uint64)
    field = np.empty(min(words.size, _KEY_BLOCK), dtype=np.uint64)
    for a in range(0, words.size, _KEY_BLOCK):
        block, out = words[a : a + _KEY_BLOCK], key[a : a + _KEY_BLOCK]
        for u in shifts:
            out <<= np.uint64(6)
            out |= _differ(block, bits, u, out=field[: block.size])
    return key


def _pack(fields):
    """The 6-bit fields packed as _half_key packs them, the first highest."""
    key = 0
    for f in fields:
        key = key << 6 | f
    return key


def _class_sums(m, middle, flip):
    """The description of class `middle` the search joins: (P+ side, P- side, totals).

    A side is (positions, bits, derived, key, offset): the positions
    _half_words lists, the first of them fixed (module docstring); the mask
    of the half's positions; two rules for _parity, (positions, flip, at)
    or None; and the packed key offset (_join). `derived` sets a bit the
    listing leaves out, class 0's c_(M/2) = -c_1 c_(M/2-1) on P+. `key` is
    class 1's |AACS(M/2)| key bit when `flip` (_MIDDLES) is not None:
    b_(M/2) on the left, b_(M-1) ^ b_(M/2-1) ^ flip on the right. The
    offsets are the keyed shifts' fields 32 on the left and 32 + t(u) on the
    right. `totals` is t(u) at shifts 1..M/2-1.
    """
    h = m // 2
    plus, minus = list(range(h - 1)), list(range(h + 1, m))
    (minus if middle & 1 else plus).append(h - 1)
    (minus if middle & 2 else plus).append(h)
    lbits, rbits = sum(1 << p for p in plus), sum(1 << p for p in minus)
    totals = [
        ((lbits & lbits >> u).bit_count() + (rbits & rbits >> u).bit_count()) // 2
        for u in range(1, h)
    ]
    derived = None
    if middle == 0:
        # a match has c_(M/2) = -c_1 c_(M/2-1) (module docstring): list P+
        # without position M/2, the last of `plus`, and derive its bit
        plus, derived = plus[:-1], ((1, h - 1), 1, h)
    lkey = rkey = None
    if flip is not None:
        lkey, rkey = ((h,), 0, _MID_BIT), ((m - 1, h - 1), flip, _MID_BIT)
    keyed = totals[:_KEY_SHIFTS]
    loff, roff = _pack([32] * len(keyed)), _pack([32 + t for t in keyed])
    return (plus, lbits, derived, lkey, loff), (minus, rbits, None, rkey, roff), totals


def _parity(words, positions, flip, at):
    """Per word, the XOR of its bits at `positions` (all below `at`) and `flip`, as bit `at`.

    Its temporaries die before the join sorts (one held there: +9% peak at M = 40)."""
    out = np.full(words.size, flip << at, dtype=np.uint64)
    for p in positions:
        out ^= np.left_shift(words, np.uint64(at - p))
    out &= np.uint64(1 << at)
    return out


def _key_parts(desc, shards, index, jobs, side):
    """Shard `index`'s `jobs` key parts of one half of the class `desc` (_class_sums), listed once.

    Side 0 is P+, the left words; side 1 is P-, the right words. A word's
    field is its shift-1 key field, 32 + d+(1) on the left and 32 + t(1) -
    d-(1) on the right, equal on every match; the shard's job k takes the
    fields that are index + shards*k mod shards*jobs. An unsharded search of
    one job takes the whole half, with no partition pass. A shard that owns
    no field a match can have, 32 + d+(1) with 0 <= d+(1) <= k+(1), lists
    nothing and returns `jobs` empty parts.
    """
    positions, bits, derived, _, _ = desc[side]
    (_, lbits, _, _, _), _, totals = desc
    k_plus = (lbits & lbits >> 1).bit_count()  # k+(1): pairs inside P+ at shift 1
    if all((32 + d) % shards != index for d in range(k_plus + 1)):
        return [np.zeros(0, dtype=np.uint64)] * jobs
    words = _half_words(positions)
    if derived is not None:
        words |= _parity(words, *derived)
    if shards * jobs == 1:
        return [words]
    # field -> job (`jobs`: another shard's) in Python ints, as shards * jobs can pass 2^64
    fields = (32 + totals[0] - d if side else 32 + d for d in range(64))
    table = [f % (shards * jobs) // shards if f % shards == index else jobs for f in fields]
    job = np.array(table, dtype=np.min_scalar_type(jobs))  # one byte a word in `part`
    part = np.take(job, _differ(words, bits, 1))
    return [np.compress(part == k, words) for k in range(jobs)]


def _join(desc, left_words, right_words):
    """The class `desc`'s (_class_sums) candidates with AACS zero at shifts 1..M/2-1, as c's words.

    One pass: it keys, sorts and joins the P+ words `left_words` against
    the P- words `right_words`, all of a half or one key part's (_key_parts).
    """
    if not (left_words.size and right_words.size):
        return np.zeros(0, dtype=np.uint64)
    (_, lbits, _, lkey, loff), (_, rbits, _, rkey, roff), totals = desc
    # A+ = -A- at shift u iff d+ + d- = t(u) = (k+(u) + k-(u)) / 2 (module
    # docstring); the left key's fields are 32 + d+, the right key's 32 + t - d-
    shifts = range(1, len(totals) + 1)
    keyed = shifts[:_KEY_SHIFTS]
    left_key = _half_key(left_words, lbits, keyed)
    left_key += np.uint64(loff)
    right_key = _half_key(right_words, rbits, keyed)
    np.subtract(np.uint64(roff), right_key, out=right_key)
    if lkey is not None:
        left_key |= _parity(left_words, *lkey)
        right_key |= _parity(right_words, *rkey)
    # sort-join on the packed key; sorted needles keep searchsorted's lookups local
    lorder, rorder = np.argsort(left_key), np.argsort(right_key)
    left_key, right_key = left_key[lorder], right_key[rorder]
    first = np.searchsorted(left_key, right_key, side="left")
    # drop the right keys no left key equals before the second search; these
    # scattered masks (and `hit`) filter through np.compress, up to 5x
    # faster than a boolean index
    found = left_key[np.minimum(first, left_key.size - 1)] == right_key
    rorder, right_key, first = (np.compress(found, v) for v in (rorder, right_key, first))
    count = np.searchsorted(left_key, right_key, side="right") - first
    ri = np.repeat(rorder, count)
    rank = np.arange(ri.size) - np.repeat(np.cumsum(count) - count, count)
    li = lorder[np.repeat(first, count) + rank]
    # then the shifts past the key, on the key matches only
    left_words, right_words = left_words[li], right_words[ri]
    for u, t in zip(shifts[_KEY_SHIFTS:], totals[_KEY_SHIFTS:]):
        hit = _differ(left_words, lbits, u) + _differ(right_words, rbits, u) == t
        left_words, right_words = np.compress(hit, left_words), np.compress(hit, right_words)
    return left_words | right_words


def _search(spec, progress, jobs, join_map):
    """The search body: join the shard's `jobs` key parts of each class, then verify here.

    For each middle class in _MIDDLES[mid_abs], join_map(f, ...) lists the
    class's two halves and splits off the shard's parts (_key_parts), then
    runs its passes, one per key part, and yields their matches in part
    order. Every match is a survivor; they are grouped and verified once,
    in the calling thread.
    """
    warnings = []
    if golay_factorization(spec.m) is not None:
        warnings.append(
            f"length {spec.m} is a Golay number; seed searches target non-Golay lengths"
        )

    t0 = time.monotonic()
    # M = 2 has no check shift and its width M/2-1 = 0 is no CZCP (module docstring)
    middles = _MIDDLES.get(spec.mid_abs, ()) if spec.m >= 4 else ()
    passes = jobs * len(middles)
    done = 0
    keys = set()
    for middle, flip in middles:
        # each half listed and split on a worker, whose join then reuses the
        # memory the listing frees
        desc = _class_sums(spec.m, middle, flip)
        key_parts = partial(_key_parts, desc, spec.shards, spec.shard_index, jobs)
        lefts, rights = join_map(key_parts, (0, 1))
        found = []
        for words in join_map(partial(_join, desc), lefts, rights):
            found.append(words)
            done += 1
            if progress is not None:
                progress(done * spec.share // passes, spec.share)
        del lefts, rights  # before the next class's halves are listed
        _, (_, rbits, _, _, _), _ = desc  # d's word is c's ^ the P- mask
        survivors = _scan_block(np.concatenate(found)).tolist()
        keys.update(_canonical_words(x, x ^ rbits, spec.m) for x in survivors)
    if not passes and progress is not None:
        progress(spec.share, spec.share)

    reps = [_key_pair(key, spec.m) for key in sorted(keys)]  # key order is text order
    # one check decides a class, whose pairs share a width
    pairs = tuple(pair for pair in reps if czcp_width(pair) == spec.m // 2 - 1)
    return SearchResult(
        pairs=pairs,
        candidates_scanned=spec.share,
        elapsed=time.monotonic() - t0,
        warnings=tuple(warnings),
    )


def run_search(spec, progress=None):
    """Search the shard, verify survivors, and return sorted canonical classes.

    `progress` is called as progress(done, total) once per join pass (one
    per middle-sign class that mid_abs can reach), or once if no class can;
    the last call has done == total, the shard's share of the candidates.
    """
    return _search(spec, progress, 1, map)


def run_search_parallel(spec, jobs, progress=None):
    """run_search with each joined class's join split over `jobs` worker threads.

    With jobs = 1, or below M = _THREADS_MIN_M (module docstring), the
    search runs via run_search(spec, progress): one pass per joined class.
    Otherwise threads started for this call list each class's halves once
    and split off the shard's `jobs` key parts, and run one pass per class and
    key part, each keying, sorting and joining only its part's words.
    `progress` is called once per pass, in pass order, from the calling
    thread. The threads are joined before the call returns or raises; an
    exception from `progress` cancels the passes not yet started. `jobs`
    outside 1..os.cpu_count() raises SearchSpecError before any thread starts.
    """
    cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise SearchSpecError(f"--jobs must be in 1..{cpus} (the CPU count), got {jobs}")
    if jobs == 1 or spec.m < _THREADS_MIN_M:
        return run_search(spec, progress)
    pool = ThreadPoolExecutor(max_workers=jobs)
    try:
        return _search(spec, progress, jobs, pool.map)
    finally:
        pool.shutdown(cancel_futures=True)
