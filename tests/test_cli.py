import contextlib
import dataclasses
import errno
import io
import json
import os
import shlex
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from czcp import catalog
from czcp.cli import build_parser, main
from czcp.correlation import aacs_profile, accs_profile
from czcp.sequences import BinarySequence, SequencePair
from czcp.verify import PairVerdict, classify

with open("src/czcp/report.schema.json") as fh:
    SCHEMA = json.load(fh)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return code, report


def write_pair(tmp_path, pair, name="pair.txt"):
    path = tmp_path / name
    path.write_text(f"{pair.first}\n{pair.second}\n")
    return str(path)


def test_verify_seed_file(tmp_path, capsys):
    path = write_pair(tmp_path, catalog.seed("K6").pair)
    code, out, _ = run_cli(capsys, "verify", path)
    assert code == 0
    assert "czcp width:  2" in out
    assert "optimal:     yes" in out


def test_verify_json_roundtrip(tmp_path, capsys):
    path = write_pair(tmp_path, catalog.seed("K12").pair)
    code, report = run_json(capsys, "verify", path)
    assert code == 0
    pair = SequencePair.from_texts(
        report["pair"]["first"], report["pair"]["second"]
    )
    assert report["profiles"]["aacs"] == [int(v) for v in aacs_profile(pair)]
    assert report["profiles"]["accs"] == [int(v) for v in accs_profile(pair)]
    assert report["verdict"]["czcp_width"] == 5
    assert report["verdict"]["czc_ratio"] == {"numerator": 1, "denominator": 1}


def test_verdict_json_holds_the_verdict_fields_in_order(tmp_path, capsys):
    # the profiles take no part in the verdict's equality and go under "profiles"
    names = [f.name for f in dataclasses.fields(PairVerdict) if f.compare]
    assert "aacs" not in names and "accs" not in names
    for eid in ("K12", "GCP10"):
        pair = catalog.get(eid).pair
        _, report = run_json(capsys, "verify", write_pair(tmp_path, pair))
        assert list(report["verdict"]) == names, eid
        want = classify(pair)
        for name in names:
            if name not in ("czc_ratio", "golay"):
                assert report["verdict"][name] == getattr(want, name), (eid, name)
    # the last entry, GCP10: a ratio and a Golay factorization 10 = 10^1
    ratio = report["verdict"]["czc_ratio"]
    assert Fraction(ratio["numerator"], ratio["denominator"]) == want.czc_ratio
    assert report["verdict"]["golay"] == {"alpha": 0, "beta": 1, "gamma": 0}


def test_verify_inline_pair(capsys):
    code, out, _ = run_cli(capsys, "verify", "--json", "--", "+-", "--")
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    assert code == 0
    assert report["verdict"]["is_perfect"] is True


def test_verify_non_czcp_exits_1(capsys):
    code, _, _ = run_cli(capsys, "verify", "++", "++")
    assert code == 1


def test_verify_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("+-\n--\n"))
    code, _, _ = run_cli(capsys, "verify", "-")
    assert code == 0


def test_construct_theorem1_matches_composed_table(capsys):
    code, report = run_json(
        capsys, "construct", "--gcp", "GCP2", "--seed", "K6", "--mode", "theorem1"
    )
    assert code == 0
    want = catalog.get("T2K12").pair
    assert report["construction"]["output"]["first"] == str(want.first)
    assert report["construction"]["output"]["second"] == str(want.second)
    assert report["construction"]["guaranteed_width"] == 5


def test_construct_default_mode_worked_example(capsys):
    code, report = run_json(capsys, "construct", "--gcp", "GCP10", "--seed", "K6")
    assert code == 0
    want = catalog.get("EX1").pair
    assert report["construction"]["output"]["first"] == str(want.first)
    assert report["construction"]["measured_width"] == 24


def test_construct_lemma8_guarantee(capsys):
    code, report = run_json(
        capsys, "construct", "--gcp", "GCP2", "--seed", "K48", "--mode", "lemma8"
    )
    assert code == 0
    c = report["construction"]
    assert c["guaranteed_width"] == 46
    assert c["verdict"]["n"] == 96
    assert c["measured_width"] >= 46


def test_construct_from_files(tmp_path, capsys):
    gcp = write_pair(tmp_path, catalog.get("GCP2").pair, "g.txt")
    seed = write_pair(tmp_path, catalog.seed("K6").pair, "s.txt")
    code, report = run_json(capsys, "construct", "--gcp", gcp, "--seed", seed)
    assert code == 0
    assert report["construction"]["verdict"]["czcp_width"] == 5


def test_profiles_computed_once_per_pair(tmp_path, capsys, monkeypatch):
    # one classify per pair is three correlations (a.a, b.b, a.b); the CLI
    # prints and emits the profiles the verdicts carry. construct takes the
    # GCP's three correlations once for its GCP check and Turyn's identity,
    # classifies the second pair once for its own check and the identity,
    # and adds c.rev(c) and d.rev(d), never a correlation of length MN
    import czcp.correlation as correlation

    calls = []
    real = correlation._correlate

    def counted(x, y):
        calls.append(len(x))
        return real(x, y)

    monkeypatch.setattr(correlation, "_correlate", counted)
    gcp = write_pair(tmp_path, catalog.golay_pair(10), "g.txt")
    constructs = [
        (["--seed", "K6"], [6] * 5 + [10] * 3),
        (["--seed", "K48", "--mode", "lemma8"], [10] * 3 + [48] * 5),
        (["--seed", "GCP26", "--mode", "gcp"], [10] * 3 + [26] * 5),
    ]
    for flags in (["--json"], []):
        for args, want in constructs:
            calls.clear()
            assert run_cli(capsys, "construct", "--gcp", gcp, *args, *flags)[0] == 0
            assert sorted(calls) == want, args
        calls.clear()
        assert run_cli(capsys, "verify", *flags, "--", "+----+", "+-+++-")[0] == 0
        assert calls == [6] * 3
        # table2's four rows are rebuilt exactly, so the construction's
        # verdicts are checked and no row is classified again
        calls.clear()
        assert run_cli(capsys, "reproduce", "table2", *flags)[0] == 0
        assert sorted(calls) == [2] * 12 + [6] * 5 + [12] * 5 + [24] * 5 + [28] * 5


def test_search_finds_seed_class(capsys):
    code, report = run_json(capsys, "search", "--length", "6", "--mid-abs", "2")
    assert code == 0
    from czcp.search import canonicalize

    rep = canonicalize(catalog.seed("K6").pair)
    results = [(r["first"], r["second"]) for r in report["search"]["results"]]
    assert (str(rep.first), str(rep.second)) in results
    assert report["search"]["candidates_scanned"] == 128


def test_search_shard_union_equals_single(capsys):
    code, single = run_json(capsys, "search", "--length", "12", "--mid-abs", "2")
    assert code == 0
    results, scanned = set(), 0
    for shard in range(4):
        code, part = run_json(
            capsys, "search", "--length", "12", "--mid-abs", "2",
            "--shards", "4", "--shard", str(shard),
        )
        assert code == 0
        assert (part["search"]["shards"], part["search"]["shard"]) == (4, shard)
        results |= {(r["first"], r["second"]) for r in part["search"]["results"]}
        scanned += part["search"]["candidates_scanned"]
    assert scanned == single["search"]["candidates_scanned"] == 8192
    assert sorted(results) == [(r["first"], r["second"]) for r in single["search"]["results"]]


def test_search_single_shard_run(capsys):
    code, report = run_json(
        capsys, "search", "--length", "12", "--mid-abs", "2",
        "--shards", "4", "--shard", "0",
    )
    assert code == 0
    assert report["search"]["candidates_scanned"] == 2048


def test_search_shard_with_jobs_matches_one_process(capsys, monkeypatch):
    # --jobs splits the named shard's joins; only the elapsed time may differ
    import czcp.cli as cli

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    reports = []
    for jobs in ("1", "2"):
        code, report = run_json(
            capsys, "search", "--length", "12", "--shards", "4", "--shard", "1",
            "--jobs", jobs,
        )
        assert code == 0
        del report["search"]["elapsed_s"]
        reports.append(report)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("mid_abs", ["2", "4"])
def test_search_shards_on_threads_match_one_process(capsys, monkeypatch, mid_abs):
    # from --length 32 on --jobs runs a shard's key parts on threads: each
    # shard's report is its --jobs 1 report, and the shards' classes
    # together are the unsharded search's
    import czcp.search as search_mod

    monkeypatch.setattr(search_mod.os, "cpu_count", lambda: 2)
    argv = ["search", "--length", "32", "--mid-abs", mid_abs, "--allow-large"]
    code, single = run_json(capsys, *argv)
    assert code == 0
    results, scanned = set(), 0
    for shard in ("0", "1"):
        reports = []
        for jobs in ("1", "2"):
            shard_argv = ["--shards", "2", "--shard", shard, "--jobs", jobs]
            code, report = run_json(capsys, *argv, *shard_argv)
            assert code == 0
            del report["search"]["elapsed_s"]
            reports.append(report)
        assert reports[0] == reports[1], shard
        results |= {(r["first"], r["second"]) for r in reports[0]["search"]["results"]}
        scanned += reports[0]["search"]["candidates_scanned"]
    assert scanned == single["search"]["candidates_scanned"] == 1 << 33
    assert sorted(results) == [(r["first"], r["second"]) for r in single["search"]["results"]]
    # 32 is a Golay length: its 8 optimal classes all have |AACS(16)| = 4
    assert len(results) == (8 if mid_abs == "4" else 0)


@pytest.mark.parametrize("jobs", [0, -1, (os.cpu_count() or 1) + 1, 10**9])
def test_search_jobs_outside_cpu_count_refused(capsys, monkeypatch, jobs):
    import czcp.search as search_mod

    def no_search(*args, **kwargs):
        raise AssertionError("a search was started")

    # a search at any length joins through _join, and threads start only
    # through ThreadPoolExecutor
    monkeypatch.setattr(search_mod, "ThreadPoolExecutor", no_search)
    monkeypatch.setattr(search_mod, "_join", no_search)
    code, out, err = run_cli(capsys, "search", "--length", "6", "--jobs", str(jobs), "--json")
    assert code == 2
    assert "Traceback" not in err
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    assert report["error"]["code"] == "bad_search"
    assert "--jobs" in report["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--gcp", "GCP2", "--json"],
        ["construct", "--gcp", "GCP2", "--seed", "K6", "--mode", "nope", "--json"],
        ["search", "--length", "6", "--bogus", "--json"],
        ["search", "--length", "six", "--json"],
        ["verify", "--bogus", "--json"],
        ["catalog", "K6", "K12", "--json"],
        ["reproduce", "table9", "--json"],
        # any abbreviation argparse accepts for --json
        ["construct", "--js", "--gcp", "GCP10"],
        ["construct", "--jso", "--gcp", "GCP10"],
        ["construct", "--j", "--gcp", "GCP10"],
        ["search", "--js", "--length", "6", "--bogus"],
        ["verify", "--j", "--bogus"],
        ["catalog", "--jso", "K6", "K12"],
        ["reproduce", "--js", "table9"],
        ["verify", "--js=1"],
    ],
)
def test_usage_errors_under_json_are_reports(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    assert report["command"] == argv[0]
    assert report["error"]["code"] == "bad_args"
    assert err == ""


def test_usage_errors_without_json_print_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--length", "6", "--bogus"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "usage: czcp" in out.err
    assert "unrecognized arguments: --bogus" in out.err


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--j", "--length", "6"],  # --jobs or --json
        ["construct", "--gcp", "GCP2", "--", "--js"],  # past --, not an option
        ["construct", "--gcp", "GCP2", "--jsonx"],
    ],
)
def test_usage_errors_without_a_json_option_print_usage(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "usage: czcp" in out.err


_LONG = "x" * 300  # longer than a file name may be
# the CPU count test_refusals_name_their_cause reports, so the --jobs rows do not
# depend on the host
_REFUSAL_CPUS = 4

_REFUSALS = [
    # (argv, code, message); {d} is a directory holding the files _refusal_dir writes
    (
        ["verify", "{d}/missing.txt"],
        "bad_input",
        "[Errno 2] No such file or directory: '{d}/missing.txt'",
    ),
    (["verify", "{d}/adir"], "bad_input", "[Errno 21] Is a directory: '{d}/adir'"),
    (
        ["verify", "{d}/binary.txt"],
        "bad_input",
        "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte",
    ),
    (["verify", "a\0b"], "bad_input", "embedded null byte"),
    (["verify", "{d}/lengths.txt"], "bad_input", "pair members have different lengths: 2 vs 3"),
    (
        ["verify", "{d}/badchar.txt"],
        "bad_input",
        "invalid character '!' at position 1 (expected '+' or '-')",
    ),
    (["verify", "++", "+++"], "bad_input", "pair members have different lengths: 2 vs 3"),
    (
        ["verify", "+", "+", "+"],
        "bad_input",
        "give a pair file ('-' for stdin) or two inline sequences",
    ),
    (
        ["construct", "--gcp", "NOPE", "--seed", "K6"],
        "bad_input",
        "'NOPE' is neither a catalog id nor a pair file",
    ),
    (
        ["construct", "--gcp", "GCP2", "--seed", "a\0b"],
        "bad_input",
        "'a\\x00b' is neither a catalog id nor a pair file",
    ),
    (
        ["construct", "--gcp", "GCP2", "--seed", _LONG],
        "bad_input",
        f"[Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}: '{_LONG}'",
    ),
    (
        ["construct", "--gcp", "GCP2", "--seed", "{d}/adir"],
        "bad_input",
        "[Errno 21] Is a directory: '{d}/adir'",
    ),
    (["construct", "--gcp", "K6", "--seed", "K6"], "not_gcp", "first pair is not a GCP"),
    (
        ["construct", "--gcp", "GCP2", "--seed", "GCP10"],
        "seed_golay_length",
        "seed length 10 is a Golay number; the width argument needs a non-Golay length",
    ),
    (
        ["construct", "--gcp", "GCP2", "--seed", "T2K24"],
        "seed_eq3",
        "seed violates the middle-column product condition",
    ),
    (
        ["construct", "--gcp", "GCP2", "--seed", "EX1"],
        "seed_not_optimal",
        "seed must be an optimal (60, 29)-CZCP, measured width 24",
    ),
    (
        ["construct", "--gcp", "GCP2", "--seed", "{d}/odd.txt"],
        "seed_odd_length",
        "seed length must be even",
    ),
    (
        ["construct", "--gcp", "{d}/plus.txt", "--seed", "K6"],
        "gcp_zone_zero",
        "GCP has no cross-correlation zone",
    ),
    (
        ["construct", "--gcp", "GCP2", "--seed", "{d}/plus.txt", "--mode", "lemma8"],
        "seed_not_czcp",
        "second pair is not a CZCP",
    ),
    (
        ["construct", "--gcp", "GCP2", "--seed", "K6", "--mode", "gcp"],
        "not_gcp",
        "second pair is not a GCP",
    ),
    (
        ["search", "--length", "24"],
        "large_search_gated",
        "length 24 searches 33,554,432 candidates; rerun with allow_large (--allow-large)",
    ),
    (["search", "--length", "-2"], "bad_search", "target length must be even and >= 2, got -2"),
    (["search", "--length", "0"], "bad_search", "target length must be even and >= 2, got 0"),
    (["search", "--length", "7"], "bad_search", "target length must be even and >= 2, got 7"),
    (
        ["search", "--length", "42"],
        "bad_search",
        "target length 42 exceeds 40, the search's memory limit",
    ),
    (
        ["search", "--length", "64"],
        "bad_search",
        "target length 64 exceeds 40, the search's memory limit",
    ),
    (
        ["search", "--length", "6", "--mid-abs", "-1"],
        "bad_search",
        "mid_abs must be non-negative, got -1",
    ),
    (["search", "--length", "6", "--shards", "0"], "bad_search", "need 0 <= shard_index < shards"),
    (
        ["search", "--length", "6", "--shard", "3", "--shards", "2"],
        "bad_search",
        "need 0 <= shard_index < shards",
    ),
    (
        ["search", "--length", "12", "--shards", "4"],
        "bad_search",
        "--shards 4 runs one shard; name it with --shard 0..3",
    ),
    (
        ["search", "--length", "6", "--jobs", "0"],
        "bad_search",
        f"--jobs must be in 1..{_REFUSAL_CPUS} (the CPU count), got 0",
    ),
    (
        ["catalog", "NOPE"],
        "unknown_id",
        f"unknown catalog id 'NOPE' (known: {', '.join(catalog.ids())})",
    ),
]


@pytest.fixture
def refusal_dir(tmp_path):
    (tmp_path / "adir").mkdir()
    for name, data in (
        ("binary.txt", b"\xff\xfe\x00\x81\n\xff\n"),
        ("lengths.txt", b"++\n+++\n"),
        ("badchar.txt", b"+!-\n++-\n"),
        ("odd.txt", b"+++\n++-\n"),
        ("plus.txt", b"+\n+\n"),  # a length-1 GCP, whose CZCP width is 0
    ):
        (tmp_path / name).write_bytes(data)
    return str(tmp_path)


@pytest.mark.parametrize("json_flag", [True, False])
@pytest.mark.parametrize("argv, code, message", _REFUSALS)
def test_refusals_name_their_cause(
    capsys, monkeypatch, refusal_dir, argv, code, message, json_flag
):
    import czcp.cli as cli

    monkeypatch.setattr(cli.os, "cpu_count", lambda: _REFUSAL_CPUS)
    argv = [a.replace("{d}", refusal_dir) for a in argv]
    message = message.replace("{d}", refusal_dir)
    status, out, err = run_cli(capsys, *argv, *["--json"] * json_flag)
    assert status == 2
    if json_flag:
        report = json.loads(out)
        jsonschema.validate(report, SCHEMA)
        assert report == {"command": argv[0], "error": {"code": code, "message": message}}
        assert err == ""
    else:
        assert (out, err) == ("", f"error ({code}): {message}\n")


@pytest.mark.parametrize("error", [ValueError, KeyError])
def test_errors_without_a_code_propagate(capsys, monkeypatch, error):
    # only the library's refusals become exit 2; anything else is a bug and keeps its traceback
    import czcp.cli as cli

    def broken(pair):
        raise error("not a refusal")

    monkeypatch.setattr(cli, "classify", broken)
    with pytest.raises(error, match="not a refusal"):
        main(["verify", "+----+", "+-+++-", "--json"])


def test_parser_commands_are_the_schema_commands():
    assert list(build_parser().commands) == SCHEMA["properties"]["command"]["enum"]


def test_catalog_dump(capsys):
    code, report = run_json(capsys, "catalog")
    assert code == 0
    ids = {item["id"] for item in report["catalog"]}
    assert {"K6", "K12", "K24", "K28", "T2K48", "GCP26", "EX1"} <= ids


def test_catalog_single_id_alias(capsys):
    code, report = run_json(capsys, "catalog", "K48")
    assert code == 0
    assert report["catalog"][0]["id"] == "T2K48"
    assert report["catalog"][0]["verdict"]["czcp_width"] == 23


def test_reproduce_example1(capsys):
    code, report = run_json(capsys, "reproduce", "example1")
    assert code == 0
    assert report["reproduce"]["ok"] is True
    assert all(c["ok"] for c in report["reproduce"]["checks"])


def test_reproduce_matches_construct(capsys):
    code, rep = run_json(capsys, "construct", "--gcp", "GCP10", "--seed", "K6")
    assert code == 0
    assert rep["construction"]["output"]["first"] == str(catalog.get("EX1").pair.first)
    code, _, _ = run_cli(capsys, "reproduce", "example1")
    assert code == 0


@pytest.mark.parametrize("target", ["table1", "table2", "table3", "table4"])
def test_reproduce_tables(capsys, target):
    code, report = run_json(capsys, "reproduce", target)
    assert code == 0, [c for c in report["reproduce"]["checks"] if not c["ok"]]
    assert report["reproduce"]["ok"] is True


@pytest.fixture(scope="module")
def table3_run():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["reproduce", "table3", "--json"])
    report = json.loads(out.getvalue())
    jsonschema.validate(report, SCHEMA)
    return code, report


@pytest.mark.parametrize("family", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [6, 12, 24, 28])
def test_reproduce_table3_covers_the_16_classes(table3_run, family, m):
    # every (GCP family, seed) class has an exact, passing width check
    code, report = table3_run
    assert code == 0 and report["reproduce"]["ok"] is True
    prefix = f"family{family}.M{m}.N"
    widths = [
        c for c in report["reproduce"]["checks"]
        if c["name"].startswith(prefix) and c["name"].endswith(".width")
    ]
    assert widths and all(c["ok"] for c in widths)


@pytest.mark.parametrize(
    "transform",
    [
        lambda a, b: (b, a),
        lambda a, b: (a.reverse(), b.reverse()),
        lambda a, b: (a, b.negate()),
        lambda a, b: (b.reverse().negate(), a.reverse()),
        lambda a, b: (a, BinarySequence([-b[0]] + list(b)[1:])),
    ],
)
def test_reproduce_table2_refuses_transformed_rows(monkeypatch, transform):
    # the table is rebuilt bit for bit: an equivalent row is a mismatch too
    from dataclasses import replace

    from czcp import reproduce

    entries = catalog.table2_entries()
    row = entries[0]
    changed = replace(row, pair=SequencePair(*transform(row.pair.first, row.pair.second)))
    monkeypatch.setattr(catalog, "table2_entries", lambda: (changed,) + entries[1:])
    report = reproduce.reproduce("table2")
    check = next(c for c in report.checks if c.name == f"{row.id}.sequences")
    assert (check.ok, check.expected, check.actual) == (False, "exact", "mismatch")
    assert report.ok is False


def _readme_cli_lines():
    # the czcp lines of the README's code blocks, their trailing comments dropped
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = text.split("```")[1::2]
    return [
        shlex.split(line, comments=True)
        for block in blocks
        for line in block.splitlines()
        if line.startswith("czcp ")
    ]


@pytest.mark.parametrize("argv", _readme_cli_lines(), ids=" ".join)
def test_readme_cli_examples_run(argv, tmp_path, monkeypatch):
    if "--jobs" in argv and int(argv[argv.index("--jobs") + 1]) > (os.cpu_count() or 1):
        pytest.skip("more --jobs than this host has CPUs")
    # the files the examples name, in the directory they run in
    write_pair(tmp_path, catalog.seed("K6").pair, "pair.txt")
    write_pair(tmp_path, catalog.seed("K6").pair, "my_seed.txt")
    write_pair(tmp_path, catalog.get("GCP10").pair, "my_gcp.txt")
    monkeypatch.chdir(tmp_path)
    if "<" in argv:  # `< FILE` feeds FILE to stdin
        at = argv.index("<")
        monkeypatch.setattr(sys, "stdin", io.StringIO(Path(argv[at + 1]).read_text()))
        argv = argv[:at] + argv[at + 2 :]
    assert main(argv[1:]) == 0


# `python -m czcp.cli` in a fresh interpreter imports the package the suite tests
_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(catalog.__file__)), os.environ.get("PYTHONPATH", "")]
    ),
)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "czcp.cli", "verify", "+----+", "+-+++-"],
        capture_output=True,
        text=True,
        env=_ENV,
    )
    assert proc.returncode == 0
    assert "optimal:     yes" in proc.stdout


@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_closed_stdout_exits_141_quietly(tmp_path, fmt):
    # a length-29120 composite outgrows the pipe buffer, so the writer is
    # still writing when the reader (`| head -1`) goes away
    gcp = write_pair(tmp_path, catalog.golay_pair(1040), "g.txt")
    with subprocess.Popen(
        [sys.executable, "-m", "czcp.cli", "construct", "--gcp", gcp, "--seed", "K28", *fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=_ENV,
    ) as proc:
        assert proc.stdout.read(40)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == 141
    assert err == ""  # no traceback, and nothing else either


# --- fuzzing verify and construct ---------------------------------------------

# no 'h' in generated argv tokens: any abbreviation of --help prints help and exits 0
_TOKEN = st.text(st.characters(blacklist_characters="h", blacklist_categories=("Cs",)), max_size=10)
_SEQUENCE = st.text("+-", min_size=1, max_size=8) | st.text("+- 01x\n", max_size=8) | _TOKEN
_FILE_TEXT = (
    st.builds(lambda a, b: f"{a}\n{b}\n", _SEQUENCE, _SEQUENCE)
    | st.text(max_size=40)
    | st.binary(max_size=40)
)


class _File(int):
    """An argv slot for the i-th fuzzed pair file."""


def _run_fuzzed(argv, files, stdin_text):
    """main(argv) with each _File(i) replaced by the path of a file holding files[i]."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for i, content in enumerate(files):
            path = os.path.join(tmp, f"pair{i}.txt")
            with open(path, "wb") as fh:
                fh.write(content if isinstance(content, bytes) else content.encode())
            paths.append(path)
        argv = [
            (paths[t % len(paths)] if paths else "missing.txt") if isinstance(t, _File) else t
            for t in argv
        ]
        out, err = io.StringIO(), io.StringIO()
        with (
            mock.patch.object(sys, "stdin", io.StringIO(stdin_text)),
            contextlib.redirect_stdout(out),
            contextlib.redirect_stderr(err),
        ):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if "--json" in (argv[: argv.index("--")] if "--" in argv else argv):
        jsonschema.validate(json.loads(out.getvalue()), SCHEMA)
    return code


_PAIR_ARG = st.builds(_File, st.integers(0, 1)) | st.sampled_from(["-", *catalog.ids()]) | _TOKEN


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    json_flag=st.booleans(),
    guard=st.booleans(),
    inputs=st.lists(_SEQUENCE | _PAIR_ARG, max_size=3),
    extra=st.lists(_TOKEN, max_size=2),
    files=st.lists(_FILE_TEXT, max_size=2),
    stdin_text=_FILE_TEXT.map(lambda t: t.decode("latin-1") if isinstance(t, bytes) else t),
)
def test_fuzz_verify(json_flag, guard, inputs, extra, files, stdin_text):
    argv = ["verify", *extra, *(["--json"] if json_flag else []), *(["--"] if guard else []), *inputs]
    _run_fuzzed(argv, files, stdin_text)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    gcp=st.none() | _PAIR_ARG,
    seed=st.none() | _PAIR_ARG,
    mode=st.none() | st.sampled_from(["theorem1", "lemma8", "gcp"]) | _TOKEN,
    normalize=st.booleans(),
    json_flag=st.booleans(),
    extra=st.lists(_TOKEN, max_size=2),
    files=st.lists(_FILE_TEXT, max_size=2),
)
def test_fuzz_construct(gcp, seed, mode, normalize, json_flag, extra, files):
    argv = ["construct", *extra]
    for flag, value in (("--gcp", gcp), ("--seed", seed), ("--mode", mode)):
        if value is not None:
            argv += [flag, value]
    argv += ["--auto-normalize"] * normalize + ["--json"] * json_flag
    _run_fuzzed(argv, files, "")


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    ids=st.lists(st.sampled_from(["K48", "K56", *catalog.ids()]) | _TOKEN, max_size=2),
    json_flag=st.booleans(),
)
def test_fuzz_catalog(ids, json_flag):
    _run_fuzzed(["catalog", *ids, *["--json"] * json_flag], [], "")


# argparse takes any unambiguous prefix, so "--a" would be --allow-large and "--j" --jobs
_SEARCH_TOKEN = _TOKEN.filter(lambda t: not t.startswith(("--a", "--j")))
_SEARCH_INT = st.integers(-4, 44).map(str) | _SEARCH_TOKEN
# shard counts past the 64 key fields, and past int64
_SHARD_INT = _SEARCH_INT | st.sampled_from([64, 65, 2**63, 10**20]).map(str)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    length=st.none() | _SEARCH_INT,
    mid_abs=st.none() | st.integers(-2, 30).map(str) | _SEARCH_TOKEN,
    shard=st.none() | _SHARD_INT,
    shards=st.none() | _SHARD_INT,
    json_flag=st.booleans(),
    extra=st.lists(_SEARCH_TOKEN, max_size=2),
)
def test_fuzz_search(length, mid_abs, shard, shards, json_flag, extra):
    # no --allow-large and no --jobs: every accepted search is M <= 22 in this process
    argv = ["search", *extra]
    for flag, value in (
        ("--length", length),
        ("--mid-abs", mid_abs),
        ("--shard", shard),
        ("--shards", shards),
    ):
        if value is not None:
            argv += [flag, value]
    argv += ["--json"] * json_flag
    assert _run_fuzzed(argv, [], "") in (0, 2), argv
