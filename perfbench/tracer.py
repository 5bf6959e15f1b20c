"""Span tracer that wraps the module-global names the czcp modules call.

`from x import f` copies f into the importing module, so a wrapper has to
replace the name in the module that looks it up, not where f is defined.
Each target below is such a (module, name) lookup site. Spans live in
memory as [name, start_ns, end_ns, parent_index, op_id, note] lists and
are written out once, when the run ends.
"""

from __future__ import annotations

import importlib
from time import perf_counter_ns


def _scan_note(args, result):
    return [int(args[0].size), int(result.size)]


def _search_note(args, result):
    return [result.classes, result.candidates_scanned, result.elapsed]


# (lookup module, name, layer that defines the function, note)
TARGETS = (
    ("czcp.verify", "aacs_profile", "correlation", None),
    ("czcp.verify", "accs_profile", "correlation", None),
    ("czcp.verify", "zcp_width", "verify", None),
    ("czcp.verify", "czcp_width", "verify", None),
    ("czcp.verify", "czc_ratio", "verify", None),
    ("czcp.verify", "classify", "verify", None),
    ("czcp.turyn", "turyn_compose", "turyn", None),
    ("czcp.turyn", "classify", "verify", None),
    ("czcp.turyn", "czcp_width", "verify", None),
    ("czcp.turyn", "is_gcp", "verify", None),
    ("czcp.turyn", "construct_theorem1", "turyn", None),
    ("czcp.search", "_scan_block", "search", _scan_note),
    ("czcp.search", "czcp_width", "verify", None),
    ("czcp.search", "canonicalize", "search", None),
    ("czcp.search", "run_search", "search", _search_note),
    ("czcp.search", "run_search_parallel", "search", _search_note),
    ("czcp.catalog", "turyn_compose", "turyn", None),
    ("czcp.catalog", "golay_pair", "catalog", None),
)

ROOT = "op"
SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "op", "note")


def span_name(module, name):
    return f"{module.rsplit('.', 1)[1]}.{name}"


LAYER_OF = {span_name(m, n): layer for m, n, layer, _ in TARGETS}

# The per-layer metrics layer_metrics() reports, in BENCHMARK.json order
LAYER_UNITS = {
    "correlation.calls": "count",
    "correlation.self_s": "s",
    "verify.classify_calls": "count",
    "verify.width_calls": "count",
    "verify.classify_self_s": "s",
    "turyn.compose_s": "s",
    "turyn.construct_self_s": "s",
    "catalog.golay_pair_s": "s",
    "search.scan_block_calls": "count",
    "search.scan_block_s": "s",
    "search.loop_self_s": "s",
    "search.survivors": "count",
    "search.survivor_ratio": "1",
    "search.class_ratio": "1",
    "search.verify_s": "s",
    "search.canonicalize_calls": "count",
    "search.canonicalize_s": "s",
    "search.parallel_overhead_s": "s",
    "trace.overhead_ratio": "1",
    "trace.unaccounted_share": "1",
}


class Tracer:
    """Records nested spans while installed; `install`/`uninstall` patch the targets."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1
        self._saved = []

    def _call(self, name, note, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        rec = [name, 0, 0, stack[-1] if stack else -1, self._op, None]
        stack.append(len(spans))
        spans.append(rec)
        rec[1] = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter_ns()
            stack.pop()
        if note is not None:
            rec[5] = note(args, result)
        return result, rec

    def _wrap(self, fn, name, note):
        def traced(*args, **kwargs):
            return self._call(name, note, fn, args, kwargs)[0]

        return traced

    def install(self):
        for module_name, name, _, note in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, name)
            self._saved.append((module, name, fn))
            setattr(module, name, self._wrap(fn, span_name(module_name, name), note))

    def uninstall(self):
        while self._saved:
            module, name, fn = self._saved.pop()
            setattr(module, name, fn)

    def run_op(self, op_id, fn, *args):
        """Call fn under a root span; returns (result, seconds)."""
        self._op = op_id
        try:
            result, rec = self._call(ROOT, None, fn, args, {})
        finally:
            self._op = -1
        return result, (rec[2] - rec[1]) * 1e-9

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("\t".join(SPAN_FIELDS) + "\n")
            for rec in self.spans:
                fh.write("\t".join("" if v is None else str(v) for v in rec) + "\n")


def untraced_op(op_id, fn, *args):
    """The untraced twin of Tracer.run_op: call fn and time it."""
    t0 = perf_counter_ns()
    result = fn(*args)
    return result, (perf_counter_ns() - t0) * 1e-9


def self_times(spans):
    """Per-span self time in ns: duration minus the durations of direct children."""
    out = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            out[rec[3]] -= rec[2] - rec[1]
    return out


def layer_metrics(spans, traced_wall_s):
    """Per-layer metrics (per operation) plus the trace accounting.

    Spans with op id -1 were recorded during set-up and only feed
    catalog.golay_pair_s. `traced_wall_s` is the wall time of the traced
    rounds, which the layers' self times are checked against.
    """
    selfs = self_times(spans)
    ops = sum(1 for rec in spans if rec[0] == ROOT)
    n_ops = max(ops, 1)
    count, dur, own = {}, {}, {}
    scanned = survivors = classes = 0
    par_overhead = 0.0
    construct_children = 0
    golay_s = 0.0
    layer_self = {}
    for rec, s in zip(spans, selfs):
        name, d = rec[0], rec[2] - rec[1]
        if rec[4] < 0:
            if name == "catalog.golay_pair":
                golay_s += d * 1e-9
            continue
        count[name] = count.get(name, 0) + 1
        dur[name] = dur.get(name, 0) + d
        own[name] = own.get(name, 0) + s
        if name != ROOT:
            layer = LAYER_OF[name]
            layer_self[layer] = layer_self.get(layer, 0) + s
        if name == "search._scan_block":
            scanned += rec[5][0]
            survivors += rec[5][1]
        elif name == "search.run_search":
            classes += rec[5][0]
        elif name == "search.run_search_parallel":
            par_overhead += d * 1e-9 - rec[5][2]
        parent = rec[3]
        if parent >= 0 and spans[parent][0] == "turyn.construct_theorem1" and name in (
            "turyn.turyn_compose",
            "turyn.classify",
        ):
            construct_children += d

    def c(*names):
        return sum(count.get(n, 0) for n in names) / n_ops

    def t(table, *names):
        return sum(table.get(n, 0) for n in names) * 1e-9 / n_ops

    profiles = ("verify.aacs_profile", "verify.accs_profile")
    classifies = ("verify.classify", "turyn.classify")
    widths = ("verify.zcp_width", "verify.czcp_width", "turyn.czcp_width", "search.czcp_width")
    wall_ns = traced_wall_s * 1e9
    accounted = sum(layer_self.values())
    metrics = {
        "correlation.calls": c(*profiles),
        "correlation.self_s": t(own, *profiles),
        "verify.classify_calls": c(*classifies),
        "verify.width_calls": c(*widths),
        "verify.classify_self_s": t(own, *classifies),
        "turyn.compose_s": t(dur, "turyn.turyn_compose"),
        "turyn.construct_self_s": (dur.get("turyn.construct_theorem1", 0) - construct_children)
        * 1e-9
        / n_ops,
        "catalog.golay_pair_s": golay_s,
        "search.scan_block_calls": c("search._scan_block"),
        "search.scan_block_s": t(dur, "search._scan_block"),
        "search.loop_self_s": t(own, "search.run_search"),
        "search.survivors": survivors / n_ops,
        "search.survivor_ratio": survivors / scanned if scanned else 0.0,
        "search.class_ratio": classes / survivors if survivors else 0.0,
        "search.verify_s": t(dur, "search.czcp_width"),
        "search.canonicalize_calls": c("search.canonicalize"),
        "search.canonicalize_s": t(dur, "search.canonicalize"),
        "search.parallel_overhead_s": par_overhead / n_ops,
        "trace.unaccounted_share": (wall_ns - accounted) / wall_ns if wall_ns else 0.0,
    }
    accounting = {
        "ops": ops,
        "traced_wall_s": traced_wall_s,
        "layer_self_s": {k: v * 1e-9 for k, v in sorted(layer_self.items())},
        "root_self_s": own.get(ROOT, 0) * 1e-9,
        "unaccounted_s": (wall_ns - accounted) * 1e-9,
        "self_sum_equals_root_duration": sum(own.values()) == dur.get(ROOT, 0),
    }
    return metrics, accounting
