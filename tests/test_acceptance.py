"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 2-4 are marked slow; run the full gate with plain ``pytest`` or
skip the long ones with ``pytest -m 'not slow'``.
"""

import itertools
import random
import time

import pytest

from twoomega.cli import RunConfig, sample_class, scan_exhaustive
from twoomega.colorer import check_certificate, color_bounded, find_branch
from twoomega.graphs import complete, union
from twoomega.oracles import (
    chromatic_number,
    clique_number,
)
from twoomega.oracles import _k_colorable  # white-box: direct infeasibility probe
from twoomega.patterns import PATTERNS, class_membership, has_induced
from twoomega.witnesses import (
    EXPECTED_REPORTS,
    groetzsch,
    schlafli_complement,
    verify_witness,
)

from conftest import (
    ALL_PATTERNS,
    all_graphs,
    count_induced,
    naive_chromatic,
    rand_graph,
    validate_coloring,
)
from test_colorer import BRANCH_SUITE

N7_GRAPHS = 1 << 21
N7_MEMBERS = 1051853  # pinned after the first exhaustive run

# (n, p, count, seed): 10,000 class members across n in [8, 16], mixing a
# sparse and a dense regime wherever the acceptance rate supports it.
SAMPLE_SUITE = [
    (8, 0.225, 900, 801), (8, 0.9, 900, 802),
    (9, 0.2, 800, 901), (9, 0.9, 800, 902),
    (10, 0.18, 700, 1001), (10, 0.9, 700, 1002),
    (11, 0.164, 600, 1101), (11, 0.9, 600, 1102),
    (12, 0.15, 500, 1201), (12, 0.9, 500, 1202),
    (13, 0.138, 400, 1301), (13, 0.9, 400, 1302),
    (14, 0.086, 500, 1401), (14, 0.129, 300, 1402),
    (15, 0.08, 700, 1501),
    (16, 0.075, 700, 1601),
]
assert sum(c for _, _, c, _ in SAMPLE_SUITE) == 10_000


@pytest.fixture
def report_line(capsys):
    """Print one pass line per criterion, past pytest's capture."""

    def emit(criterion: str, detail: str) -> None:
        with capsys.disabled():
            print(f"ACCEPTANCE {criterion}: PASS  {detail}")

    return emit


def test_criterion_1_groetzsch_witness(report_line):
    t0 = time.perf_counter()
    g = groetzsch()
    report, mismatches = verify_witness(g, EXPECTED_REPORTS["groetzsch"])
    elapsed = time.perf_counter() - t0
    assert not mismatches
    assert (report.n, report.m) == (11, 20)
    assert report.class_member
    assert (report.omega, report.chi) == (2, 4)
    assert report.bound_tight
    assert elapsed < 1.0
    report_line("criterion 1", f"groetzsch n=11 m=20 omega=2 chi=4 tight ({elapsed:.3f}s)")


@pytest.mark.slow
def test_criterion_2_schlafli_complement(report_line):
    t0 = time.perf_counter()
    h = schlafli_complement()
    assert h.n == 27 and h.edge_count == 135
    assert all(h.adj[v].bit_count() == 10 for v in range(27))
    for u, v in itertools.combinations(range(27), 2):
        common = (h.adj[u] & h.adj[v]).bit_count()
        assert common == (1 if h.adj[u] >> v & 1 else 5)
    assert class_membership(h).member
    omega, clique = clique_number(h)
    assert omega == 3
    res = chromatic_number(h)
    assert not res.timed_out and res.chi == 6
    ok, _ = validate_coloring(h, res.coloring)
    assert ok and res.coloring.palette_size == 6  # a proper 6-coloring
    assert _k_colorable(h, 5, clique, None) is None  # 5 colors infeasible
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    report_line("criterion 2", f"srg(27,10,1,5) omega=3 chi=6 tight ({elapsed:.1f}s)")


@pytest.mark.slow
def test_criterion_3_exhaustive_n7(report_line):
    # the process-pool path with two workers, so the pinned n=7 counts
    # also hold for a pooled scan (test_cli pins pooled against serial at
    # n=5)
    t0 = time.perf_counter()
    records, summary = scan_exhaustive(7, RunConfig(oracle=True, workers=2))
    for rec in records:
        assert rec.ok, f"violation at {rec.graph6}"
        assert rec.chi <= 2 * rec.omega
    elapsed = time.perf_counter() - t0
    assert summary.graphs_seen == N7_GRAPHS
    assert summary.members == N7_MEMBERS
    assert summary.violations == 0
    assert elapsed < 1800.0
    report_line(
        "criterion 3",
        f"n=7 exhaustive: {summary.graphs_seen} graphs, "
        f"{summary.members} members, 0 violations ({elapsed / 60:.1f} min)",
    )


@pytest.mark.slow
def test_criterion_4_randomized_members(report_line):
    t0 = time.perf_counter()
    total = 0
    for n, p, count, seed in SAMPLE_SUITE:
        graphs, stats = sample_class(n, p, count, seed)
        assert len(graphs) == count
        for g in graphs:
            cert = color_bounded(g, assert_proofs=True)
            assert cert.coloring.palette_size <= 2 * cert.omega
            assert check_certificate(g, cert), (n, p, seed)
            total += 1
    elapsed = time.perf_counter() - t0
    assert total == 10_000
    report_line(
        "criterion 4",
        f"10000 sampled members (n in 8..16): 0 budget violations, "
        f"0 improper certificates ({elapsed / 60:.1f} min)",
    )


def test_criterion_5_detector_equivalence(report_line):
    t0 = time.perf_counter()
    rng = random.Random(20260810)
    patterns = list(ALL_PATTERNS.values())
    for _ in range(500):
        n = rng.randrange(0, 10)
        g = rand_graph(rng, n, rng.choice([0.15, 0.3, 0.5, 0.7, 0.85]))
        for p in patterns:
            assert has_induced(g, p) == (count_induced(g, p) > 0), (p.id, g.adj)
    elapsed = time.perf_counter() - t0
    report_line(
        "criterion 5",
        f"500 graphs x {len(patterns)} patterns: search == subset "
        f"enumeration ({elapsed:.1f}s)",
    )


def test_criterion_6_branch_coverage(report_line):
    fired = {}
    for name, make, branch in BRANCH_SUITE:
        g = make()
        report = class_membership(g)
        assert report.member, name
        cert = color_bounded(g, strict=True, assert_proofs=True)
        assert cert.trace.branch_id == branch, name
        assert check_certificate(g, cert), name
        fired[branch] = fired.get(branch, 0) + 1
    expected = {"B0", "OMEGA2", "G1", "G2", "G3", "H1", "H2", "H3", "H4",
                "H5", "H6", "J1", "J2", "J3", "J4", "J5", "J6", "J7", "J8"}
    assert expected <= set(fired)
    report_line("criterion 6", f"all 19 branches fired with assert_proofs: {sorted(fired)}")


def test_criterion_7_proof_equation_spot_checks(report_line):
    # The three equation checks are always-on assertions in their branches;
    # here we confirm they actually ran (and held) wherever G2/H2/J3 fired:
    # on the synthetic suite and on every firing in the n=6 exhaustive space.
    eq_refs = {
        "G2": ["eq1:|N(u) cap C2| >= |C2|-1 for u in C1",
               "chain:|C1|+|C2| <= omega+1"],
        "H2": ["eq2:N1|N2|N4 independent"],
        "J3": ["eq3:N(v1) bipartite", "eq3:N(v2) bipartite"],
    }

    def verify_trace(g, cert):
        refs = list(cert.trace.assertions)
        for want in eq_refs[cert.trace.branch_id]:
            assert want in refs

    fired = {"G2": 0, "H2": 0, "J3": 0}
    for make in (
        lambda: union(complete(2), complete(5)),  # G2
        lambda: union(complete(2), complete(4)),  # H2
        lambda: PATTERNS["f2"].graph,  # J3
    ):
        g = make()
        cert = color_bounded(g, strict=True, assert_proofs=True)
        if cert.trace.branch_id in fired:
            fired[cert.trace.branch_id] += 1
            verify_trace(g, cert)

    for g in all_graphs(6):
        if not class_membership(g).member:
            continue
        choice = find_branch(g)
        if choice.branch_id not in fired:
            continue
        cert = color_bounded(g)
        fired[cert.trace.branch_id] += 1
        verify_trace(g, cert)

    assert all(v > 0 for v in fired.values())
    report_line(
        "criterion 7",
        f"eq checks held on every firing: {fired} (plus always-on during "
        f"criteria 3 and 4)",
    )


def test_criterion_8_oracle_self_consistency(report_line):
    t0 = time.perf_counter()
    count = 0
    for n in range(0, 7):
        for g in all_graphs(n):
            assert chromatic_number(g).chi == naive_chromatic(g)
            count += 1
    elapsed = time.perf_counter() - t0
    assert count == 33868
    assert elapsed < 300.0
    report_line(
        "criterion 8",
        f"chromatic oracle == naive k-ascending on all {count} graphs "
        f"with n <= 6 ({elapsed:.0f}s)",
    )
