import csv
import hashlib
import io
import json

import pytest

from twoomega.cli import (
    RunConfig,
    SplitMix64,
    CSV_FIELDS,
    cli_main,
    emit_records,
    random_graph,
    sample_class,
    scan_exhaustive,
)
from twoomega.graphs import graph6_decode, graph6_encode, complete
from twoomega.patterns import is_class_member

N5_MEMBERS = 979  # pinned after the first exhaustive run
N6_MEMBERS = 26183

# sha256 of `scan --n 5 --oracle` output with the millis field dropped
# (see scan_digest): records and summary are byte-identical run to run
N5_SCAN_DIGESTS = {
    "json": "41e83a5cc0a3cdc94f90194c70197497cc68d50efd32c0764ab5622869de335b",
    "csv": "1cfffd655a826b9177ca43d6daa80f5a659c4bd8992351e8171467ceda86c1fb",
}


def run_cli(capsys, *argv, stdin=None, monkeypatch=None):
    import sys

    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli_main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_splitmix64_reference_vector():
    # first outputs for seed 1234567; standard splitmix64 test values
    rng = SplitMix64(1234567)
    got = [rng.next() for _ in range(3)]
    assert got == [6457827717110365317, 3203168211198807973, 9817491932198370423]


def test_witness_subcommand(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "witness", "groetzsch", monkeypatch=monkeypatch)
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    g = graph6_decode(lines[0])
    assert g.n == 11
    report = json.loads(lines[1])
    assert report == {
        "name": "groetzsch", "n": 11, "m": 20, "class_member": True,
        "omega": 2, "chi": 4, "bound_tight": True,
    }


def test_color_k5_stdin(capsys, monkeypatch):
    code, out, err = run_cli(
        capsys, "color", "-", stdin=graph6_encode(complete(5)) + "\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    cert = json.loads(out.strip())
    assert cert["branch"] == "G3"
    assert max(cert["colors"]) == 5
    assert cert["omega"] == 5 and cert["budget"] == 10


def test_color_withholds_certificate_failing_check(capsys, monkeypatch):
    import twoomega.cli as cli
    from twoomega.colorer import CheckResult

    calls = []

    def second_fails(g, cert):
        calls.append(g)
        return CheckResult(False, "planted failure") if len(calls) == 2 else CheckResult(True)

    monkeypatch.setattr(cli, "check_certificate", second_fails)
    code, out, err = run_cli(capsys, "color", "-", stdin="Dhc\nD~{\n",
                             monkeypatch=monkeypatch)
    assert code == 1
    assert [json.loads(line)["branch"] for line in out.strip().split("\n")] == ["OMEGA2"]
    assert err == "certificate failed independent check: planted failure\n"


def test_check_nonmember_exit_code(capsys, monkeypatch):
    # C5 plus a far edge contains p3up2
    code, out, err = run_cli(capsys, "check", "-", stdin="Fhc?G\n",
                             monkeypatch=monkeypatch)
    report = json.loads(out.strip().split("\n")[0])
    if report["member"]:
        pytest.skip("fixture line decoded to a member; fix fixture")
    assert code == 1
    assert report["violations"][0]["pattern"] == "p3up2"


def test_check_member_exit_zero(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "check", "-", stdin="Dhc\n",
                             monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out.strip())["member"] is True


def test_oracle_subcommand(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "oracle", "-", stdin="Dhc\n",
                             monkeypatch=monkeypatch)
    assert code == 0
    obj = json.loads(out.strip())
    assert obj["omega"] == 2 and obj["chi"] == 3


def test_color_strict_rejects(capsys, monkeypatch):
    bad = "Fhc?G"
    code, out, err = run_cli(capsys, "color", "-", "--strict", stdin=bad + "\n",
                             monkeypatch=monkeypatch)
    assert code == 1
    assert "not in class" in err


def test_malformed_graph6_exit_two(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "color", "-", stdin="D\x7fc\n",
                             monkeypatch=monkeypatch)
    assert code == 2
    assert "parse error" in err


def test_scan_n4_all_members(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "scan", "--n", "4", "--summary-only",
                             monkeypatch=monkeypatch)
    assert code == 0
    summary = json.loads(out.strip().split("\n")[-1])
    assert summary["graphs_seen"] == 64
    assert summary["members"] == 64
    assert summary["violations"] == 0


def test_scan_n5_pinned_members(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "scan", "--n", "5", "--summary-only",
                             monkeypatch=monkeypatch)
    summary = json.loads(out.strip().split("\n")[-1])
    assert code == 0
    assert summary["graphs_seen"] == 1024
    assert summary["members"] == N5_MEMBERS
    assert summary["violations"] == 0


def test_scan_refuses_large_n(capsys, monkeypatch):
    for n, message in [("8", "capped"), ("-1", "n must be non-negative")]:
        code, out, err = run_cli(capsys, "scan", "--n", n, monkeypatch=monkeypatch)
        assert code == 2
        assert message in err


@pytest.mark.parametrize("both", [False, True])
def test_scan_needs_exactly_one_source(tmp_path, capsys, both):
    p = tmp_path / "graphs.g6"
    p.write_text("Dhc\n")
    code = cli_main(["scan", "--n", "4", "--input", str(p)] if both else ["scan"])
    capsys.readouterr()
    assert code == 2


def scan_digest(out: str, fmt: str) -> str:
    """sha256 of scan output with the (timing) millis field dropped."""
    lines = out.splitlines()
    if fmt == "json":
        canon = []
        for line in lines:
            d = json.loads(line)
            d.pop("millis", None)
            canon.append(json.dumps(d, separators=(",", ":")))
    else:
        rows = list(csv.reader(lines[:-1]))
        col = rows[0].index("millis")
        canon = [",".join(r[:col] + r[col + 1:]) for r in rows] + [lines[-1]]
    return hashlib.sha256("".join(c + "\n" for c in canon).encode()).hexdigest()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_scan_n5_output_digest(capsys, monkeypatch, fmt):
    code, out, err = run_cli(capsys, "scan", "--n", "5", "--oracle", "--format", fmt,
                             monkeypatch=monkeypatch)
    assert code == 0
    assert scan_digest(out, fmt) == N5_SCAN_DIGESTS[fmt]


def test_scan_summary_counts_as_consumed():
    records, summary = scan_exhaustive(5)
    next(records)
    assert 0 < summary.graphs_seen < 1024
    assert summary.members == 1


def test_scan_parse_error_names_line(tmp_path, capsys, monkeypatch):
    p = tmp_path / "graphs.g6"
    p.write_text(">>graph6<<\nDhc\nDh\nD~{\n")
    code, out, err = run_cli(capsys, "scan", "--input", str(p), monkeypatch=monkeypatch)
    assert code == 2
    assert "parse error: line 3:" in err


@pytest.mark.parametrize("argv", [["scan", "--input"], ["color"]])
def test_non_ascii_file_names_line(tmp_path, capsys, monkeypatch, argv):
    # line 1 is processed; the undecodable byte on line 2 is a parse error
    p = tmp_path / "graphs.g6"
    p.write_bytes(b"Dhc\n\xff\n")
    code, out, err = run_cli(capsys, *argv, str(p), monkeypatch=monkeypatch)
    assert code == 2
    assert err.startswith("parse error: line 2:")
    assert len(out.strip().split("\n")) == 1


@pytest.mark.parametrize("value", ["abc", "0", "-1"])
def test_workers_env_must_be_positive(capsys, monkeypatch, value):
    monkeypatch.setenv("TWOOMEGA_WORKERS", value)
    code, out, err = run_cli(capsys, "scan", "--n", "3", monkeypatch=monkeypatch)
    assert code == 2
    assert out == ""
    assert err == f"error: TWOOMEGA_WORKERS must be a positive integer, got {value!r}\n"


@pytest.mark.parametrize("extra", [["--format", "json"], ["--format", "csv"], ["--summary-only"]])
def test_scan_stops_at_first_violation(capsys, monkeypatch, extra):
    import twoomega.cli as cli

    calls = []

    def third_fails(g, cert):
        calls.append(g)
        return len(calls) != 3

    monkeypatch.setattr(cli, "check_certificate", third_fails)
    code, out, err = run_cli(capsys, "scan", "--n", "4", *extra, monkeypatch=monkeypatch)
    assert code == 1
    lines = out.strip().split("\n")
    summary = json.loads(lines[-1])
    assert summary["members"] == 3 and summary["violations"] == 1
    assert err == f"violation reproducer: {graph6_encode(calls[2])}\n"
    if "--summary-only" in extra:
        assert len(lines) == 1
    elif "csv" in extra:
        rows = list(csv.DictReader(io.StringIO("\n".join(lines[:-1]))))
        assert [r["ok"] for r in rows] == ["True", "True", "False"]
    else:
        assert [json.loads(s)["ok"] for s in lines[:-1]] == [True, True, False]


def test_scan_stream_input(tmp_path, capsys, monkeypatch):
    p = tmp_path / "graphs.g6"
    p.write_text(">>graph6<<\nDhc\nD~{\n")  # C5 and K5
    code, out, err = run_cli(capsys, "scan", "--input", str(p), "--oracle",
                             monkeypatch=monkeypatch)
    assert code == 0
    lines = out.strip().split("\n")
    summary = json.loads(lines[-1])
    assert summary["graphs_seen"] == 2
    assert summary["members"] == 2
    records = [json.loads(s) for s in lines[:-1]]
    assert [r["branch"] for r in records] == ["OMEGA2", "G3"]
    assert [r["chi"] for r in records] == [3, 5]


def test_sample_reproducible(capsys, monkeypatch):
    code1, out1, err1 = run_cli(capsys, "sample", "--n", "5", "--p", "0.5",
                                "--count", "3", "--seed", "1",
                                monkeypatch=monkeypatch)
    code2, out2, err2 = run_cli(capsys, "sample", "--n", "5", "--p", "0.5",
                                "--count", "3", "--seed", "1",
                                monkeypatch=monkeypatch)
    assert code1 == code2 == 0
    assert out1 == out2
    graphs = [graph6_decode(line) for line in out1.strip().split("\n")]
    assert len(graphs) == 3
    assert all(is_class_member(g) for g in graphs)


def test_sample_library_stats():
    graphs, stats = sample_class(12, 0.2, 100, seed=7)
    assert len(graphs) == 100
    assert stats.accepted == 100
    assert stats.drawn >= 100
    assert all(is_class_member(g) for g in graphs)
    again, _ = sample_class(12, 0.2, 100, seed=7)
    assert [g.adj for g in again] == [g.adj for g in graphs]


def test_sample_p_validation(capsys, monkeypatch):
    with pytest.raises(ValueError):
        sample_class(5, 0.0, 1, 1)
    with pytest.raises(ValueError):
        sample_class(5, 1.0, 1, 1)
    with pytest.raises(ValueError):
        sample_class(-1, 0.5, 1, 1)
    with pytest.raises(ValueError):
        sample_class(5, 0.5, -3, 1)
    for argv, message in (
        (["--n", "-1", "--count", "1"], "n must be non-negative"),
        (["--n", "5", "--count", "-3"], "count must be non-negative, got -3"),
    ):
        code, out, err = run_cli(capsys, "sample", "--p", "0.5", *argv,
                                 monkeypatch=monkeypatch)
        assert code == 2
        assert message in err


def test_csv_and_json_agree_fieldwise():
    records, summary = scan_exhaustive(4, RunConfig(oracle=True))
    records = list(records)
    jbuf, cbuf = io.StringIO(), io.StringIO()
    emit_records(records, "json", jbuf)
    emit_records(records, "csv", cbuf)
    jrows = [json.loads(line) for line in jbuf.getvalue().strip().split("\n")]
    reader = csv.DictReader(io.StringIO(cbuf.getvalue()))
    assert reader.fieldnames == CSV_FIELDS
    crows = list(reader)
    assert len(jrows) == len(crows)
    for j, c in zip(jrows, crows):
        for field in CSV_FIELDS:
            jv = j[field]
            cv = c[field]
            if jv is None:
                assert cv == ""
            elif isinstance(jv, bool):
                assert cv == str(jv)
            else:
                assert str(jv) == cv


def test_parallel_scan_matches_single_threaded():
    single, s1 = scan_exhaustive(5, RunConfig())
    single = [(r.graph6, r.branch, r.colors_used, r.omega, r.ok) for r in single]
    multi, s2 = scan_exhaustive(5, RunConfig(workers=3))
    multi = [(r.graph6, r.branch, r.colors_used, r.omega, r.ok) for r in multi]
    assert single == multi
    assert s1.members == s2.members == N5_MEMBERS
    assert s1.graphs_seen == s2.graphs_seen == 1024


def test_scan_oracle_solves_omega_once(monkeypatch):
    # the oracle reuses the checked certificate's clique, so a member whose
    # parts need no whole-graph exact colouring runs the clique solver once
    from twoomega import cli, colorer, oracles
    from twoomega.patterns import PATTERNS

    g = PATTERNS["p2uk3"].graph
    calls = []
    solve = oracles.clique_number

    def counted(h):
        calls.append(h.adj == g.adj)
        return solve(h)

    for mod in (cli, colorer, oracles):
        monkeypatch.setattr(mod, "clique_number", counted)
    rec = cli._process_member(g, RunConfig(oracle=True))
    assert (rec.branch, rec.ok, rec.chi) == ("J1", True, 3)
    assert calls.count(True) == 1


def test_random_graph_matches_documented_algorithm():
    # edge (i,j) present iff the next splitmix64 word < p * 2^64, pairs in
    # lexicographic order
    n, p, seed = 6, 0.37, 99
    rng = SplitMix64(seed)
    threshold = int(p * (1 << 64))
    expect_edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.next() < threshold:
                expect_edges.append((i, j))
    g = random_graph(n, p, SplitMix64(seed))
    assert list(g.edges()) == expect_edges


def test_help_exits_cleanly(capsys):
    code = cli_main(["--help"]) if True else 0
    out, err = capsys.readouterr()
    assert code in (0, 2)
