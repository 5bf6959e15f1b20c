"""Expected outputs computed without the czcp verification code.

Small pairs (n <= ORACLE_MAX_N) are checked with the definition-level
oracles in tests/conftest.py. Larger random pairs use `LazyProfile`, the
same definitions with each shift's sum computed once on demand. The fixed
pairs of the verify-mixed batch and the construction outputs are also
compared with the committed table in expected.json.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
CONFTEST_PATH = HERE.parent / "tests" / "conftest.py"
ORACLE_MAX_N = 64

_NEGATE = str.maketrans("+-", "-+")


def load_conftest():
    spec = importlib.util.spec_from_file_location("czcp_test_oracles", CONFTEST_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def seq_text(seq):
    """'+'/'-' text of a BinarySequence, built from its raw values."""
    return np.where(np.asarray(seq.values) > 0, ord("+"), ord("-")).astype(np.uint8).tobytes().decode()


def pair_texts(pair):
    return seq_text(pair.first), seq_text(pair.second)


def texts_digest(texts):
    return hashlib.sha256("\n".join(texts).encode()).hexdigest()


def canonical_texts(a, b):
    """Smallest of the 16 sign/swap/reversal equivalents, '+' before '-'."""
    out = []
    for p, q in ((a, b), (b, a), (a[::-1], b[::-1]), (b[::-1], a[::-1])):
        for p2 in (p, p.translate(_NEGATE)):
            for q2 in (q, q.translate(_NEGATE)):
                out.append((p2, q2))
    return min(out)


def golay_exponents(n):
    """(alpha, beta, gamma) with n = 2^alpha 10^beta 26^gamma, else None."""
    gamma = 0
    while 26**gamma <= n:
        beta = 0
        while 10**beta * 26**gamma <= n:
            rest, r = divmod(n, 10**beta * 26**gamma)
            if r == 0 and rest & (rest - 1) == 0:
                return (rest.bit_length() - 1, beta, gamma)
            beta += 1
        gamma += 1
    return None


class LazyProfile:
    """AACS/ACCS of a pair from the definition, one shift at a time, memoized."""

    def __init__(self, a, b):
        self.a, self.b, self.n = a, b, len(a)
        self._aacs, self._accs = {}, {}

    def _corr(self, x, y, u):
        return sum(x[i] * y[i + u] for i in range(self.n - u))

    def aacs(self, u):
        if u not in self._aacs:
            self._aacs[u] = self._corr(self.a, self.a, u) + self._corr(self.b, self.b, u)
        return self._aacs[u]

    def accs(self, u):
        if u not in self._accs:
            self._accs[u] = self._corr(self.a, self.b, u) + self._corr(self.b, self.a, u)
        return self._accs[u]

    def zcp_width(self):
        for u in range(1, self.n):
            if self.aacs(u):
                return u
        return self.n

    def czcp_width(self):
        n = self.n
        for z in range(n // 2, 0, -1):
            zones = list(range(1, z + 1)) + list(range(n - z, n))
            if all(self.aacs(u) == 0 for u in zones) and all(
                self.accs(u) == 0 for u in range(n - z, n)
            ):
                return z
        return 0


def verdict_from_widths(n, zcp, z, mid):
    """Verdict fields implied by the two widths, per the definitions in verify."""
    if n % 2:
        perfect, ratio, z_max, mid = False, None, None, None
    else:
        perfect = z == n // 2
        z_max = n // 2 if perfect else n // 2 - 1
        ratio = Fraction(1) if perfect else Fraction(z, z_max) if z else Fraction(0)
    return (n, zcp, z, zcp == n, perfect, ratio == 1, ratio, z_max, mid, golay_exponents(n))


def expected_verdict(pair, conftest):
    """Oracle verdict tuple; conftest's oracles for small n, LazyProfile above."""
    n = pair.n
    mid_u = n // 2 if n % 2 == 0 else None
    if n <= ORACLE_MAX_N:
        zcp = conftest.ref_zcp_width(pair)
        z = conftest.ref_czcp_width(pair)
        mid = conftest.ref_aacs(pair, mid_u) if mid_u is not None else None
    else:
        a, b = (list(map(int, s.values)) for s in (pair.first, pair.second))
        prof = LazyProfile(a, b)
        zcp, z = prof.zcp_width(), prof.czcp_width()
        mid = prof.aacs(mid_u) if mid_u is not None else None
    return verdict_from_widths(n, zcp, z, mid)


def verdict_tuple(v):
    """The library's PairVerdict in the oracle's tuple layout."""
    golay = None if v.golay is None else (v.golay.alpha, v.golay.beta, v.golay.gamma)
    return (
        v.n, v.zcp_width, v.czcp_width, v.is_gcp, v.is_perfect, v.is_optimal,
        v.czc_ratio, v.z_max, v.mid_aacs, golay,
    )


def verdict_json(t):
    """JSON form of a verdict tuple (Fraction as 'p/q', tuples as lists)."""
    out = list(t)
    out[6] = None if t[6] is None else f"{t[6].numerator}/{t[6].denominator}"
    out[9] = None if t[9] is None else list(t[9])
    return out
