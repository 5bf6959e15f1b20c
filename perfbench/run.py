"""Run one czcp benchmark workload, check every output, and print its metrics.

    python3 perfbench/run.py --workload search-m24 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25 --trace 0

Run it from the root of a checkout; the library is imported from src/.
Workloads are listed in BENCHMARK.json and defined in workloads.py.

With --trace 0 the run measures untraced and reports the end-to-end
metrics. With --trace 1 it alternates untraced and traced rounds, reports
the per-layer metrics from the traced rounds, and compares the two halves
to give the tracing overhead. Human-readable lines (named metrics with
unit and sample count, environment, failures) come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. A full result, with the environment, is also written
to perfbench/out/, and the spans of a traced run next to it.

The exit code is 0 only when every operation's output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

from tracer import LAYER_UNITS, Tracer, layer_metrics, untraced_op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 7
WORKLOAD_NAMES = ("search-m24", "construct-k28", "verify-mixed", "search-m24-jobs2")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 < args.seconds <= 120:
        p.error("--seconds must lie in (0, 120]")
    return args


def environment(seed):
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "loadavg_start": list(os.getloadavg()),
    }


class SetupProbes:
    """Set-up wall times, each in a fresh interpreter, spread over the measured window.

    Probes run between rounds, at most one every seconds / SETUP_PROBES of
    measured time, so that one slow spell of a shared machine does not set
    them all; `finish` runs any still missing and returns their median.
    """

    def __init__(self, workload, seed, seconds):
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
        self.spacing = seconds / SETUP_PROBES
        self.times = []

    def _probe(self):
        out = subprocess.run(self.cmd, check=True, capture_output=True, text=True, timeout=60)
        self.times.append(float(out.stdout.strip().splitlines()[-1]))

    def between_rounds(self, elapsed):
        """Run a probe if one is due; returns the wall time it took."""
        if len(self.times) >= SETUP_PROBES or elapsed < len(self.times) * self.spacing:
            return 0.0
        t0 = time.perf_counter()
        self._probe()
        return time.perf_counter() - t0

    def finish(self):
        while len(self.times) < SETUP_PROBES:
            self._probe()
        return statistics.median(self.times)


def round_s(records):
    """Mean round time of the given op records: measured op time over rounds.

    A throughput figure, so a mean: on a shared machine that flips between
    fast and slow spells every few seconds, a median of about 25 rounds
    jumps between the two speeds while the mean follows the share of time
    spent in each.
    """
    rounds = len({r[0] for r in records})
    return sum(r[2] for r in records) / max(rounds, 1)


def peak_rss_mb(include_children):
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024


def measure(wl, inputs, seconds, tracer, probes):
    """Run whole rounds while the next one is expected to end by `seconds`
    plus half a round.

    With a tracer, odd rounds are traced and at least one round of each
    kind runs. Set-up probes, when given, run between rounds and do not
    count as measured time. Returns (records, round walls, failures,
    attempted), where a record is (round, key, op seconds, traced) and a
    round wall excludes the time spent checking outputs.
    """
    records, walls, failures = [], [], []
    attempted = op_id = 0
    min_rounds = 2 if tracer is not None else 1
    start = time.perf_counter()
    paused = 0.0
    rnd = 0
    while True:
        if probes is not None:
            paused += probes.between_rounds(time.perf_counter() - start - paused)
        traced = tracer is not None and rnd % 2 == 1
        if traced:
            tracer.install()
        run = tracer.run_op if traced else untraced_op
        checking = 0.0
        t0 = time.perf_counter()
        try:
            for key, fn, *args in wl.ops(inputs):
                attempted += 1
                try:
                    result, secs = run(op_id, fn, *args)
                except Exception as exc:  # a failed operation is counted, not fatal
                    failures.append(f"{wl.name} op {op_id}: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    op_id += 1
                c0 = time.perf_counter()
                error = wl.check(key, result)
                checking += time.perf_counter() - c0
                if error:
                    failures.append(error)
                records.append((rnd, key, secs, traced))
        finally:
            if traced:
                tracer.uninstall()
        walls.append((time.perf_counter() - t0 - checking, traced))
        rnd += 1
        elapsed = time.perf_counter() - start - paused
        estimate = statistics.median(w for w, _ in walls)
        if rnd >= min_rounds and elapsed + estimate / 2 > seconds:
            return records, walls, failures, attempted


def check_layout():
    if not (ROOT / "src" / "czcp" / "__init__.py").is_file():
        sys.exit(f"error: {ROOT / 'src' / 'czcp'} not found; run from a czcp checkout")
    if not (ROOT / "tests" / "conftest.py").is_file():
        sys.exit(f"error: {ROOT / 'tests' / 'conftest.py'} (the test oracles) not found")


def run_workload(args):
    env = environment(args.seed)
    probes = SetupProbes(args.workload, args.seed, args.seconds) if args.trace == 0 else None

    sys.path.insert(0, str(ROOT / "src"))
    import oracle
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        inputs = wl.setup(args.seed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    problems = wl.prepare_checks(inputs, oracle.load_expected())
    wl.warm_up(inputs)
    records, walls, failures, attempted = measure(wl, inputs, args.seconds, tracer, probes)
    failures = problems + failures
    failed = len(failures)
    rss = peak_rss_mb(include_children=wl.jobs > 1)
    env["loadavg_end"] = list(os.getloadavg())

    untraced = [r for r in records if not r[3]]
    named = wl.named(untraced)
    named["fail_ratio"] = (failed / max(attempted, 1), "1", attempted)
    report = {}
    if args.trace == 0:
        setup_s = probes.finish()
        metrics = {
            "round_s": (round_s(untraced), "s"),
            "peak_rss_mb": (rss, "MB"),
            "setup_s": (setup_s, "s"),
        }
        named["setup_s"] = (setup_s, "s", len(probes.times))
        named["peak_rss_mb"] = (rss, "MB", 1)
        report["setup_samples_s"] = probes.times
    else:
        traced_wall = sum(w for w, t in walls if t)
        layers, accounting = layer_metrics(tracer.spans, traced_wall)
        plain = statistics.mean(w for w, t in walls if not t)
        layers["trace.overhead_ratio"] = statistics.mean(w for w, t in walls if t) / plain
        metrics = {k: (v, LAYER_UNITS[k]) for k, v in layers.items()}
        e2e = {}
        for label, subset in (("untraced", untraced), ("traced", [r for r in records if r[3]])):
            e2e[label] = {"round_s": round_s(subset), "ops": len(subset)}
        report["tracing"] = {"end_to_end": e2e, "accounting": accounting}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.tsv")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    full = dict(result, workload=args.workload, seconds=args.seconds, trace=args.trace)
    full.update(
        environment=env,
        rounds=len(walls),
        round_walls_s=[w for w, _ in walls],
        named={k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in named.items()},
        failures=failures[:20],
        **report,
    )
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(full, fh, indent=1)
        fh.write("\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} rounds={len(walls)} "
          f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']} "
          f"loadavg={env['loadavg_start'][0]:.2f}->{env['loadavg_end'][0]:.2f}")
    for k, (v, u, n) in named.items():
        print(f"{args.workload} {k} {v:.6g} {u} (n={n})")
    if args.trace:
        for label, row in report["tracing"]["end_to_end"].items():
            print(f"{args.workload} {label} round_s {row['round_s']:.6g} s (ops={row['ops']})")
        acc = report["tracing"]["accounting"]
        shares = ", ".join(f"{k} {v / acc['traced_wall_s']:.2%}" for k, v in acc["layer_self_s"].items())
        print(f"{args.workload} layer self-time shares: {shares}; "
              f"unaccounted {acc['unaccounted_s'] / acc['traced_wall_s']:.2%}")
    for msg in failures[:20]:
        print(f"FAIL {msg}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args):
    """Every workload in its own process, one after another; prints each one's lines."""
    summary, ok = {}, True
    attempted = failed = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            ok = False
        if lines:
            res = json.loads(lines[-1])
            attempted += res["attempted"]
            failed += res["failed"]
            ok = ok and res["correct"]
            summary[name] = res["metrics"]
            for k, m in res["metrics"].items():
                print(f"{name} {k} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "workloads": summary}))
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    check_layout()
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
