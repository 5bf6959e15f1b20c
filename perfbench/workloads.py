"""The benchmark's workloads: inputs, the operations of one round, and their checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned. A round is the workload's fixed unit of
work, and `round_s` is its mean wall time (measured time / rounds, the
inverse of throughput):

* search-m24: a round is one whole M=24 seed search.
* search-m24-jobs2: the same search fanned out over two worker processes.
* construct-k28: a round is 16 constructions at MN = 2240, 2 at 8960 and 1
  at 29120. The small sizes are repeated, and spread over the round, so
  their medians (construct_s_2240, construct_s_8960) see most of the run.
* verify-mixed: a round is one pass of classify + canonicalize over the
  seeded batch; an operation is one pair.

Importing this module imports czcp, so the set-up probe times the import.
"""

from __future__ import annotations

import random
import statistics

import numpy as np

from czcp import catalog, search, turyn, verify
from czcp.sequences import BinarySequence, SequencePair

import oracle


def _median(values):
    return statistics.median(values) if values else 0.0


def _per(count, seconds):
    return count / seconds if seconds else 0.0


class Workload:
    """Default: the workload runs in one process."""

    jobs = 1


class SearchM24(Workload):
    """run_search(SearchSpec(m=24, mid_abs=2, allow_large=True)), one process."""

    name = "search-m24"

    def setup(self, seed):
        return {
            "spec": search.SearchSpec(m=24, mid_abs=2, allow_large=True),
            "k24": catalog.seed("K24").pair,
        }

    def _search(self, spec):
        if self.jobs == 1:
            return search.run_search(spec)
        return search.run_search_parallel(spec, self.jobs)

    def warm_up(self, inputs):
        self._search(search.SearchSpec(m=14, mid_abs=2))

    def prepare_checks(self, inputs, expected):
        self.classes = [tuple(p) for p in expected["search_m24_classes"]]
        self.k24 = oracle.canonical_texts(*oracle.pair_texts(inputs["k24"]))
        if self.k24 not in self.classes:
            return ["expected.json lacks the canonical form of K24"]
        return []

    def ops(self, inputs):
        return [("search", self._search, inputs["spec"])]

    def check(self, key, result):
        found = [oracle.pair_texts(p) for p in result.pairs]
        if result.candidates_scanned != 1 << 25:
            return f"scanned {result.candidates_scanned} candidates, not 2^25"
        if result.classes != 4 or found != self.classes:
            return f"found {result.classes} classes, not the 4 expected ones"
        if self.k24 not in found:
            return "K24's canonical form is missing"
        return None

    def named(self, records):
        times = [r[2] for r in records]
        return {"search_cand_per_s": (_per(len(times) << 25, sum(times)), "1/s", len(times))}


class SearchM24Jobs2(SearchM24):
    """The same search through run_search_parallel(spec, 2)."""

    name = "search-m24-jobs2"
    jobs = 2


class ConstructK28(Workload):
    """construct_theorem1(golay_pair(N), K28, auto_normalize=True), N = 80, 320, 1040."""

    name = "construct-k28"
    SIZES = (80, 320, 1040)
    # one round, in order: N=80 runs between the long constructions so its
    # samples see more of the round than one burst would
    ROUND = (80,) * 4 + (320,) + (80,) * 4 + (1040,) + (80,) * 4 + (320,) + (80,) * 4

    def setup(self, seed):
        return {
            "k28": catalog.seed("K28").pair,
            "gcp": {n: catalog.golay_pair(n) for n in self.SIZES},
        }

    @staticmethod
    def _construct(gcp, seed):
        return turyn.construct_theorem1(gcp, seed, auto_normalize=True)

    def warm_up(self, inputs):
        self._construct(inputs["gcp"][80], inputs["k28"])

    def prepare_checks(self, inputs, expected):
        self.expected = {int(n): e for n, e in expected["construct_k28"].items()}
        return []

    def ops(self, inputs):
        k28 = inputs["k28"]
        return [(n, self._construct, inputs["gcp"][n], k28) for n in self.ROUND]

    def check(self, n, rep):
        want = self.expected[n]
        if rep.basis != "theorem1":
            return f"N={n}: basis {rep.basis!r}, not 'theorem1'"
        if not rep.measured_width == rep.guaranteed_width == want["width"]:
            return (
                f"N={n}: measured width {rep.measured_width}, guaranteed "
                f"{rep.guaranteed_width}, expected {want['width']}"
            )
        if abs(rep.verdict.mid_aacs) != 2 * n:
            return f"N={n}: |mid_aacs| = {abs(rep.verdict.mid_aacs)}, not {2 * n}"
        if oracle.texts_digest(oracle.pair_texts(rep.pair)) != want["digest"]:
            return f"N={n}: output pair differs from the committed digest"
        return None

    def named(self, records):
        out = {}
        for n in self.SIZES:
            times = [r[2] for r in records if r[1] == n]
            out[f"construct_s_{28 * n}"] = (_median(times), "s", len(times))
        return out


def _random_sequence(rng, n):
    raw = rng.getrandbits(8 * ((n + 7) // 8)).to_bytes((n + 7) // 8, "little")
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[:n]
    return BinarySequence(1 - 2 * bits.astype(np.int8))


class VerifyMixed(Workload):
    """classify then canonicalize over a seeded batch of catalog, constructed and random pairs."""

    name = "verify-mixed"
    BATCH = 1000
    MIN_N, MAX_N = 6, 240

    @staticmethod
    def fixed_pairs():
        """The deterministic part of the batch: catalog entries and small constructions."""
        pairs = [(eid, catalog.get(eid).pair) for eid in catalog.ids()]
        for n in (2, 10):
            gcp = catalog.golay_pair(n)
            for sid in ("K6", "K12", "K24", "K28"):
                seed = catalog.seed(sid).pair
                t1 = turyn.construct_theorem1(gcp, seed, auto_normalize=True)
                pairs.append((f"theorem1-GCP{n}-{sid}", t1.pair))
                l8 = turyn.construct_lemma8(gcp, seed)
                pairs.append((f"lemma8-GCP{n}-{sid}", l8.pair))
        return pairs

    def setup(self, seed):
        rng = random.Random(seed)
        batch = self.fixed_pairs()
        while len(batch) < self.BATCH:
            n = rng.randint(self.MIN_N, self.MAX_N)
            pair = SequencePair(_random_sequence(rng, n), _random_sequence(rng, n))
            batch.append((None, pair))
        rng.shuffle(batch)
        return {"batch": batch}

    @staticmethod
    def _verify(pair):
        return verify.classify(pair), search.canonicalize(pair)

    def warm_up(self, inputs):
        for _, pair in inputs["batch"][:50]:
            self._verify(pair)

    def prepare_checks(self, inputs, expected):
        conftest = oracle.load_conftest()
        table = expected["verify_fixed"]
        self.expected = []
        problems = []
        for eid, pair in inputs["batch"]:
            canon = oracle.canonical_texts(*oracle.pair_texts(pair))
            if eid is None or pair.n <= oracle.ORACLE_MAX_N:
                verdict = oracle.verdict_json(oracle.expected_verdict(pair, conftest))
            if eid is not None:
                entry = table[eid]
                if pair.n <= oracle.ORACLE_MAX_N and verdict != entry["verdict"]:
                    problems.append(f"{eid}: oracle and expected.json disagree")
                if oracle.texts_digest(canon) != entry["canonical_digest"]:
                    problems.append(f"{eid}: canonical form differs from expected.json")
                verdict = entry["verdict"]
            self.expected.append((verdict, canon))
        return problems

    def ops(self, inputs):
        return [(i, self._verify, pair) for i, (_, pair) in enumerate(inputs["batch"])]

    def check(self, i, result):
        verdict, rep = result
        want_verdict, want_canon = self.expected[i]
        if oracle.verdict_json(oracle.verdict_tuple(verdict)) != want_verdict:
            return f"pair {i} (n={verdict.n}): verdict differs from the oracle"
        if oracle.pair_texts(rep) != want_canon:
            return f"pair {i} (n={verdict.n}): canonical form differs from the oracle"
        return None

    def named(self, records):
        times = sorted(r[2] for r in records)
        n = len(times)
        return {
            "verify_pairs_per_s": (_per(n, sum(times)), "1/s", n),
            "verify_p50_us": (_median(times) * 1e6, "us", n),
            "verify_p99_us": (times[int(0.99 * n)] * 1e6 if n else 0.0, "us", n),
        }


WORKLOADS = {
    w.name: w
    for w in (SearchM24(), ConstructK28(), VerifyMixed(), SearchM24Jobs2())
}
