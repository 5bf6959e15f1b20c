"""Command-line front end: verify, construct, search, catalog, reproduce.

Exit codes: 0 success (for verify: the pair is a CZCP; for reproduce: all
checks match), 1 negative result (not a CZCP / reproduction mismatch),
2 input or precondition error, 141 (128 + SIGPIPE) when the reader closes
stdout before the output ends (`| head`), with nothing on stderr. With
--json every command emits a single report object conforming to
report.schema.json; progress goes to stderr.

Error codes: bad_args (a usage error under --json, any command); verify:
bad_input; construct: bad_input, not_gcp, gcp_zone_zero, seed_odd_length,
seed_golay_length, seed_not_optimal, seed_eq3 (theorem1), seed_not_czcp
(lemma8); search: bad_search, large_search_gated; catalog: unknown_id.
Library refusals carry their `code`, and main alone turns them into exit
2; any other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import catalog, reproduce as repro
from .search import SearchSpec, SearchSpecError, run_search_parallel
from .sequences import SequenceFormatError, SequencePair, read_pair
from .turyn import construct_gcp, construct_lemma8, construct_theorem1
from .verify import classify


def _pair_json(pair):
    return {"first": str(pair.first), "second": str(pair.second)}


def _profiles_json(v):
    return {"aacs": v.aacs.tolist(), "accs": v.accs.tolist()}


def _verdict_json(v):
    """The verdict's compared fields in order, which leave out the profiles."""
    out = {f.name: getattr(v, f.name) for f in dataclasses.fields(v) if f.compare}
    r, g = v.czc_ratio, v.golay
    out["czc_ratio"] = None if r is None else {"numerator": r.numerator, "denominator": r.denominator}
    out["golay"] = None if g is None else dataclasses.asdict(g)
    return out


def _jsonable(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(report):
    print(json.dumps(report, indent=2 if sys.stdout.isatty() else None))


def _fail(args, code, message):
    if args.json:
        print(json.dumps({"command": args.cmd, "error": {"code": code, "message": message}}))
    else:
        print(f"error ({code}): {message}", file=sys.stderr)
    return 2


def _vector(values):
    return " ".join(str(int(v)) for v in values)


def _print_verdict(v):
    ratio = "n/a" if v.czc_ratio is None else str(v.czc_ratio)
    golay = (
        "no"
        if v.golay is None
        else f"2^{v.golay.alpha} * 10^{v.golay.beta} * 26^{v.golay.gamma}"
    )
    print(f"length:      {v.n}")
    print(f"zcp width:   {v.zcp_width}")
    print(f"czcp width:  {v.czcp_width}")
    print(f"gcp:         {'yes' if v.is_gcp else 'no'}")
    print(f"perfect:     {'yes' if v.is_perfect else 'no'}")
    print(f"optimal:     {'yes' if v.is_optimal else 'no'}")
    print(f"czc ratio:   {ratio} (z_max {v.z_max if v.z_max is not None else 'n/a'})")
    print(f"mid aacs:    {v.mid_aacs if v.mid_aacs is not None else 'n/a'}")
    print(f"golay length: {golay}")


def _load_pair_arg(args):
    if len(args.inputs) == 2:
        return SequencePair.from_texts(args.inputs[0], args.inputs[1])
    if len(args.inputs) != 1:
        raise SequenceFormatError("give a pair file ('-' for stdin) or two inline sequences")
    return read_pair(sys.stdin if args.inputs[0] == "-" else args.inputs[0])


def cmd_verify(args):
    pair = _load_pair_arg(args)
    verdict = classify(pair)
    if args.json:
        _emit(
            {
                "command": "verify",
                "pair": _pair_json(pair),
                "profiles": _profiles_json(verdict),
                "verdict": _verdict_json(verdict),
            },
        )
    else:
        print(f"first:       {pair.first}")
        print(f"second:      {pair.second}")
        print(f"aacs:        {_vector(verdict.aacs)}")
        print(f"accs:        {_vector(verdict.accs)}")
        _print_verdict(verdict)
    return 0 if verdict.czcp_width >= 1 else 1


def _resolve_pair(token):
    """A catalog id, or a path to a two-line pair file."""
    with contextlib.suppress(catalog.UnknownIdError):
        return catalog.get(token).pair
    with contextlib.suppress(OSError):  # a path exists() cannot check: read_pair reports it
        if not Path(token).exists():
            raise SequenceFormatError(f"{token!r} is neither a catalog id nor a pair file")
    return read_pair(token)


def cmd_construct(args):
    gcp = _resolve_pair(args.gcp)
    seed = _resolve_pair(args.seed)
    if args.mode == "theorem1":
        rep = construct_theorem1(gcp, seed, auto_normalize=args.auto_normalize)
    elif args.mode == "lemma8":
        rep = construct_lemma8(gcp, seed)
    else:
        rep = construct_gcp(gcp, seed)
    if args.json:
        _emit(
            {
                "command": "construct",
                "construction": {
                    "mode": args.mode,
                    "gcp": _pair_json(gcp),
                    "seed": _pair_json(seed),
                    "output": _pair_json(rep.pair),
                    "profiles": _profiles_json(rep.verdict),
                    "verdict": _verdict_json(rep.verdict),
                    "guaranteed_width": rep.guaranteed_width,
                    "measured_width": rep.measured_width,
                    "basis": rep.basis,
                    "condition_eq4": rep.condition_eq4,
                    "normalized": rep.normalized,
                    "warnings": list(rep.warnings),
                },
            },
        )
    else:
        print(f"mode:        {args.mode} (guarantee backed by {rep.basis})")
        print(f"output s:    {rep.pair.first}")
        print(f"output t:    {rep.pair.second}")
        print(f"aacs:        {_vector(rep.verdict.aacs)}")
        print(f"accs:        {_vector(rep.verdict.accs)}")
        print(f"guaranteed:  {rep.guaranteed_width}")
        print(f"measured:    {rep.measured_width}")
        print(f"sign cond:   {rep.condition_eq4}")
        print(f"normalized:  {'yes' if rep.normalized else 'no'}")
        for w in rep.warnings:
            print(f"warning:     {w}")
        _print_verdict(rep.verdict)
    return 0


def cmd_search(args):
    def progress(done, total):
        print(f"progress: {done:,}/{total:,} candidates", file=sys.stderr, flush=True)

    if args.shard is None and args.shards > 1:
        raise SearchSpecError(
            f"--shards {args.shards} runs one shard; name it with --shard 0..{args.shards - 1}"
        )
    spec = SearchSpec(
        m=args.length,
        mid_abs=args.mid_abs,
        shards=args.shards,
        shard_index=args.shard or 0,
        allow_large=args.allow_large,
    )
    result = run_search_parallel(spec, args.jobs, progress)
    if args.json:
        _emit(
            {
                "command": "search",
                "search": {
                    "length": args.length,
                    "mid_abs": args.mid_abs,
                    "shards": args.shards,
                    "shard": args.shard,
                    "classes": result.classes,
                    "candidates_scanned": result.candidates_scanned,
                    "elapsed_s": result.elapsed,
                    "warnings": list(result.warnings),
                    "results": [_pair_json(p) for p in result.pairs],
                },
            },
        )
    else:
        for pair in result.pairs:
            print(pair.first)
            print(pair.second)
            print()
        for w in result.warnings:
            print(f"warning: {w}", file=sys.stderr)
        print(
            f"classes: {result.classes}  scanned: {result.candidates_scanned:,}  "
            f"elapsed: {result.elapsed:.2f}s"
        )
    return 0


def cmd_catalog(args):
    entries = [catalog.get(eid) for eid in ([args.id] if args.id else catalog.ids())]
    if args.json:
        payload = []
        for e in entries:
            item = {
                "id": e.id,
                "pair": _pair_json(e.pair),
                "source": e.source,
                "claimed_width": e.width,
                "claimed_optimal": e.optimal,
                "aacs": list(e.aacs) if e.aacs is not None else None,
                "accs": list(e.accs) if e.accs is not None else None,
                "verdict": _verdict_json(classify(e.pair)),
            }
            payload.append(item)
        _emit({"command": "catalog", "catalog": payload})
    else:
        for e in entries:
            v = classify(e.pair)
            print(
                f"{e.id:7s} n={e.pair.n:<4d} width={v.czcp_width:<3d} "
                f"optimal={'yes' if v.is_optimal else 'no ':3s} gcp={'yes' if v.is_gcp else 'no'}"
                f"  [{e.source}]"
            )
            print(f"        {e.pair.first}")
            print(f"        {e.pair.second}")
    return 0


def cmd_reproduce(args):
    report = repro.reproduce(args.target)
    if args.json:
        _emit(
            {
                "command": "reproduce",
                "reproduce": {
                    "target": report.target,
                    "ok": report.ok,
                    "checks": [
                        {
                            "name": c.name,
                            "ok": c.ok,
                            "expected": _jsonable(c.expected),
                            "actual": _jsonable(c.actual),
                        }
                        for c in report.checks
                    ],
                },
            },
        )
    else:
        for c in report.checks:
            mark = "ok " if c.ok else "FAIL"
            line = f"{mark} {c.name}"
            if not c.ok:
                line += f"  expected={c.expected!r} actual={c.actual!r}"
            print(line)
        print(f"{report.target}: {'all checks passed' if report.ok else 'MISMATCH'}")
    return 0 if report.ok else 1


class _UsageError(Exception):
    def __init__(self, parser, message):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    # usage errors go back to main, which reports them as --json asks
    def error(self, message):
        raise _UsageError(self, message)


def build_parser():
    parser = _Parser(
        prog="czcp",
        description="Verify, construct and search binary cross Z-complementary pairs.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    parser.commands = sub.choices  # command name -> its parser; the schema's "command" values

    p = sub.add_parser("verify", help="classify a pair from a file, stdin or inline")
    p.add_argument(
        "inputs",
        nargs="*",
        metavar="PAIR",
        help="pair file (two +/- lines; '-' for stdin), or two inline "
        "sequences (prefix with -- when they start with a minus)",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("construct", help="compose pairs by Turyn's method")
    p.add_argument("--gcp", required=True, help="catalog id or pair file for the GCP")
    p.add_argument("--seed", required=True, help="catalog id or pair file for the seed")
    p.add_argument(
        "--mode", choices=("theorem1", "lemma8", "gcp"), default="theorem1"
    )
    p.add_argument(
        "--auto-normalize",
        action="store_true",
        help="flip the GCP's second member if that makes the sign condition hold",
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("search", help="exhaustive optimal-seed search")
    p.add_argument("--length", type=int, required=True, metavar="M")
    p.add_argument(
        "--mid-abs",
        type=int,
        default=None,
        help="keep only pairs with |AACS(M/2)| equal to this (2 for seeds); "
        "only 0, 2 and 4 can occur",
    )
    p.add_argument(
        "--shards",
        type=int,
        default=1,
        help="split the search by join key; each shard scans an equal share of the candidates",
    )
    p.add_argument(
        "--shard",
        type=int,
        default=None,
        help="the shard to run, 0..SHARDS-1 (required when --shards > 1)",
    )
    p.add_argument("--jobs", type=int, default=1, help="worker threads")
    p.add_argument("--allow-large", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("catalog", help="dump embedded pairs")
    p.add_argument("id", nargs="?", help="a single catalog id")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("reproduce", help="regenerate a published table or the example")
    p.add_argument("target", choices=repro.TARGETS)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_reproduce)

    return parser


def _asks_for_json(parser, argv):
    """Whether argv's options name --json, spelled out or abbreviated as argparse allows."""
    if not argv or argv[0] not in parser.commands:
        return False
    names = parser.commands[argv[0]]._option_string_actions
    options = argv[1 : argv.index("--")] if "--" in argv else argv[1:]
    for token in options:
        prefix = token.split("=", 1)[0]
        if prefix.startswith("--") and [n for n in names if n.startswith(prefix)] == ["--json"]:
            return True
    return False


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        if _asks_for_json(parser, argv):
            return _fail(argparse.Namespace(cmd=argv[0], json=True), "bad_args", str(exc))
        argparse.ArgumentParser.error(exc.parser, str(exc))  # usage text, exit 2
    try:
        code = _run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader is gone: send what is still buffered to devnull, so
        # the flush at exit raises nothing. SIGPIPE keeps Python's handler,
        # since main is also called as a function, and a default handler set
        # here would outlive the call and kill its caller on a closed pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


def _run(args):
    try:
        return args.func(args)
    except (KeyError, ValueError) as exc:
        if not hasattr(exc, "code"):
            raise  # not a refusal but a bug, which keeps its traceback
        return _fail(args, exc.code, exc.args[0])


if __name__ == "__main__":
    sys.exit(main())
