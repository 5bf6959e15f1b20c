"""Regenerate expected.json, the committed outputs the benchmark checks against.

    python3 perfbench/make_expected.py

Every value is computed with the library and cross-checked here with the
definition-level oracles before it is written; run it only when an
expected output legitimately changes.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from czcp import catalog, search, verify  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402


def search_classes():
    res = search.run_search(search.SearchSpec(m=24, mid_abs=2, allow_large=True))
    classes = [list(oracle.pair_texts(p)) for p in res.pairs]
    k24 = list(oracle.canonical_texts(*oracle.pair_texts(catalog.seed("K24").pair)))
    assert res.classes == 4 and k24 in classes, classes
    return classes


def constructions():
    wl = workloads.ConstructK28()
    inputs = wl.setup(0)
    out = {}
    for n in wl.SIZES:
        rep = wl._construct(inputs["gcp"][n], inputs["k28"])
        width = 13 * n + n // 2  # (M/2 - 1) N + Z_A with Z_A = N/2 for these GCPs
        assert rep.basis == "theorem1"
        assert rep.measured_width == rep.guaranteed_width == width
        assert abs(rep.verdict.mid_aacs) == 2 * n
        if n == 80:
            a, b = (list(map(int, s.values)) for s in (rep.pair.first, rep.pair.second))
            assert oracle.LazyProfile(a, b).czcp_width() == width
        out[str(n)] = {
            "mn": 28 * n,
            "width": width,
            "digest": oracle.texts_digest(oracle.pair_texts(rep.pair)),
        }
    return out


def fixed_verdicts():
    conftest = oracle.load_conftest()
    out = {}
    for eid, pair in workloads.VerifyMixed.fixed_pairs():
        got = oracle.verdict_tuple(verify.classify(pair))
        a, b = (list(map(int, s.values)) for s in (pair.first, pair.second))
        prof = oracle.LazyProfile(a, b)
        mid = prof.aacs(pair.n // 2) if pair.n % 2 == 0 else None
        assert got == oracle.verdict_from_widths(pair.n, prof.zcp_width(), prof.czcp_width(), mid), eid
        if pair.n <= oracle.ORACLE_MAX_N:
            assert got == oracle.expected_verdict(pair, conftest), eid
        canon = oracle.canonical_texts(*oracle.pair_texts(pair))
        assert oracle.pair_texts(search.canonicalize(pair)) == canon, eid
        out[eid] = {
            "n": pair.n,
            "verdict": oracle.verdict_json(got),
            "canonical_digest": oracle.texts_digest(canon),
        }
    return out


if __name__ == "__main__":
    expected = {
        "search_m24_classes": search_classes(),
        "construct_k28": constructions(),
        "verify_fixed": fixed_verdicts(),
    }
    with open(oracle.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1)
        fh.write("\n")
