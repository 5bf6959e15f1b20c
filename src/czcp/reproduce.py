"""Regenerate the published tables and the worked example from first principles.

Each target rebuilds its artifact (by search, by composition, or by formula)
and yields one field-level check per compared field against the embedded
expectations; reproduce(target) assembles those checks into the report. A
reproduction passes only if every check matches exactly; there are no
tolerances anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import catalog
from .search import SearchSpec, canonicalize, run_search
from .turyn import construct_lemma8, construct_theorem1
from .verify import (
    classify,
    golay_factorization,
    lemma5_structure_holds,
    lemma9_condition_holds,
)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    expected: object
    actual: object


@dataclass(frozen=True)
class ReproduceReport:
    target: str
    checks: tuple

    @property
    def ok(self):
        return all(c.ok for c in self.checks)


def _check(name, expected, actual):
    return Check(name=name, ok=expected == actual, expected=expected, actual=actual)


def _profile_checks(label, verdict, entry):
    yield _check(f"{label}.aacs", list(entry.aacs), verdict.aacs.tolist())
    yield _check(f"{label}.accs", list(entry.accs), verdict.accs.tolist())


def reproduce_table1():
    """Re-verify the seed table and re-discover every seed by search."""
    for entry in catalog.table1_entries():
        pair = entry.pair
        v = classify(pair)
        yield from _profile_checks(entry.id, v, entry)
        yield _check(f"{entry.id}.width", entry.width, v.czcp_width)
        yield _check(f"{entry.id}.optimal", True, v.is_optimal)
        yield _check(f"{entry.id}.mid_abs", 2, abs(v.mid_aacs))
        yield _check(f"{entry.id}.middle_condition", True, lemma9_condition_holds(pair))
        yield _check(
            f"{entry.id}.half_structure",
            True,
            lemma5_structure_holds(pair, v.czcp_width),
        )
        found = run_search(SearchSpec(m=pair.n, mid_abs=2)).pairs
        yield _check(f"{entry.id}.rediscovered_by_search", True, canonicalize(pair) in found)


def reproduce_table2():
    """Rebuild the composed table from the length-2 GCP and the seeds."""
    gcp2 = catalog.get("GCP2").pair
    by_seed = {12: "K6", 24: "K12", 48: "K24", 56: "K28"}
    for entry in catalog.table2_entries():
        seed = catalog.seed(by_seed[entry.pair.n]).pair
        rep = construct_theorem1(gcp2, seed, auto_normalize=True)
        label = entry.id
        v = rep.verdict
        actual = "exact" if rep.pair == entry.pair else "mismatch"
        yield _check(f"{label}.sequences", "exact", actual)
        yield from _profile_checks(label, v, entry)
        yield _check(f"{label}.width", entry.width, v.czcp_width)
        yield _check(f"{label}.optimal", True, v.is_optimal)
        yield _check(f"{label}.guaranteed_width", entry.width, rep.guaranteed_width)


def reproduce_example1():
    """Rebuild the worked length-60 example bit for bit."""
    gcp10 = catalog.get("GCP10").pair
    k6 = catalog.seed("K6").pair
    entry = catalog.get("EX1")
    rep = construct_theorem1(gcp10, k6)
    yield _check("ex1.first", str(entry.pair.first), str(rep.pair.first))
    yield _check("ex1.second", str(entry.pair.second), str(rep.pair.second))
    yield from _profile_checks("ex1", rep.verdict, entry)
    yield _check("ex1.width", entry.width, rep.measured_width)
    yield _check("ex1.guaranteed_width", 24, rep.guaranteed_width)
    yield _check("ex1.sign_condition", True, rep.condition_eq4)


def reproduce_table3():
    """Check this work's summary rows: width formulas, ratios, and instances."""
    lengths = (6, 12, 24, 28)
    # one GCP per even Golay length up to 2600, shared by the 16-class sweep
    # and the extension rows
    gcps = {
        n: catalog.golay_pair(n) for n in range(2, 2601, 2) if golay_factorization(n) is not None
    }

    # seed row: optimal (M, M/2-1), ratio 1, found by computer search
    for entry in catalog.table1_entries():
        v = classify(entry.pair)
        m = entry.pair.n
        yield _check(f"seeds.({m},{m // 2 - 1}).ratio", Fraction(1), v.czc_ratio)

    # framework row instance: (MN, (M/2-1)N + Z) at M=6, N=10, Z=4
    yield _check("framework.(60,24).instance", True, all(c.ok for c in reproduce_example1()))

    # the 16 classes: each seed composed with the GCP of every even Golay
    # length N up to 2600 attains (M/2-1)N plus the GCP family's width exactly
    for n, gcp in gcps.items():
        family, width = catalog.gcp_family(n)
        for m in lengths:
            seed = catalog.seed(f"K{m}").pair
            rep = construct_theorem1(gcp, seed, auto_normalize=True)
            yield _check(
                f"family{family}.M{m}.N{n}.width",
                (m // 2 - 1) * n + width,
                rep.measured_width,
            )

    # optimal new-parameter row: (48,23) and (56,27) with ratio 1
    for eid, m, z in (("K48", 48, 23), ("K56", 56, 27)):
        v = classify(catalog.get(eid).pair)
        yield _check(f"new.({m},{z}).width", z, v.czcp_width)
        yield _check(f"new.({m},{z}).ratio", Fraction(1), v.czc_ratio)

    # extension rows: (48N, 23N) and (56N, 27N) by plain composition, with
    # the guaranteed width attained exactly at every even Golay N up to 2600
    for eid, z in (("K48", 23), ("K56", 27)):
        base = catalog.get(eid).pair
        for n, gcp in gcps.items():
            rep = construct_lemma8(gcp, base)
            yield _check(f"extension.{eid}.N{n}.guarantee", n * z, rep.guaranteed_width)
            yield _check(f"extension.{eid}.N{n}.width", n * z, rep.measured_width)


def reproduce_table4():
    """Optimal pairs exist in the catalog at every non-Golay length claimed."""
    have = {}
    for entry in catalog.table1_entries() + catalog.table2_entries():
        v = classify(entry.pair)
        if v.is_optimal:
            have[entry.pair.n] = have.get(entry.pair.n, 0) + 1
    for n in (6, 12, 24, 28, 48, 56):
        yield _check(f"optimal_length_{n}", True, have.get(n, 0) >= 1)


_REPRODUCERS = {
    "table1": reproduce_table1,
    "table2": reproduce_table2,
    "table3": reproduce_table3,
    "table4": reproduce_table4,
    "example1": reproduce_example1,
}
TARGETS = tuple(_REPRODUCERS)


def reproduce(target):
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r} (choose from {', '.join(TARGETS)})")
    return ReproduceReport(target, tuple(_REPRODUCERS[target]()))
