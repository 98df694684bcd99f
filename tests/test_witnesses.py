import itertools

from twoomega.graphs import complete, cycle, path
from twoomega.oracles import chromatic_number, clique_number
from twoomega.patterns import class_membership, has_induced
from twoomega.witnesses import (
    EXPECTED_REPORTS,
    WitnessReport,
    groetzsch,
    mycielskian,
    schlafli_complement,
    verify_witness,
)

from conftest import ALL_PATTERNS, induced_isomorphic


def test_mycielskian_of_k2_is_c5():
    m = mycielskian(complete(2))
    assert m.n == 5 and m.edge_count == 5
    assert induced_isomorphic(m, cycle(5))


def test_mycielskian_of_c5_is_groetzsch():
    m = mycielskian(cycle(5))
    g = groetzsch()
    assert (m.n, m.edge_count) == (11, 20)
    assert m.adj == g.adj


def test_mycielskian_size_formula():
    m = mycielskian(complete(3))
    assert m.n == 7 and m.edge_count == 12
    for g in (path(4), cycle(5), complete(2)):
        m = mycielskian(g)
        assert m.n == 2 * g.n + 1
        assert m.edge_count == 3 * g.edge_count + g.n


def test_mycielskian_raises_chi_preserves_trianglefree():
    for g in (complete(2), cycle(5), path(4)):
        m = mycielskian(g)
        assert chromatic_number(m).chi == chromatic_number(g).chi + 1
        if not has_induced(g, ALL_PATTERNS["k3"]):
            assert not has_induced(m, ALL_PATTERNS["k3"])


def test_groetzsch_parameters():
    g = groetzsch()
    assert clique_number(g)[0] == 2
    assert chromatic_number(g).chi == 4
    assert class_membership(g).member


def test_schlafli_complement_basic():
    h = schlafli_complement()
    assert h.n == 27
    assert h.edge_count == 135
    assert all(h.adj[v].bit_count() == 10 for v in range(27))
    assert clique_number(h)[0] == 3
    assert class_membership(h).member


def test_schlafli_complement_srg_parameters():
    h = schlafli_complement()
    for u, v in itertools.combinations(range(27), 2):
        common = (h.adj[u] & h.adj[v]).bit_count()
        if h.adj[u] >> v & 1:
            assert common == 1
        else:
            assert common == 5


def test_verify_witness_c5():
    report, mismatches = verify_witness(
        cycle(5), WitnessReport("c5", 5, 5, True, 2, 3, False)
    )
    assert not mismatches
    assert report.omega == 2 and report.chi == 3 and not report.bound_tight


def test_verify_witness_flags_mismatch():
    wrong = WitnessReport("c5", 5, 5, True, 2, 4, True)
    report, mismatches = verify_witness(cycle(5), wrong)
    assert set(mismatches) == {"chi", "bound_tight"}


def test_verify_groetzsch_report():
    report, mismatches = verify_witness(groetzsch(), EXPECTED_REPORTS["groetzsch"])
    assert not mismatches
    assert report.bound_tight
