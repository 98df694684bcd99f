import itertools

import pytest
from hypothesis import given, settings

from twoomega.graphs import complete, cycle, first_edge_in, induced
from twoomega.oracles import (
    Coloring,
    chromatic_number,
    clique_number,
    greedy_coloring,
    two_coloring,
)
from twoomega.witnesses import groetzsch, mycielskian, schlafli_complement

from conftest import (
    all_graphs,
    coin_submask,
    graph_strategy,
    naive_chromatic,
    naive_clique_number,
    petersen,
    rand_graph,
    validate_coloring,
)


def test_clique_examples():
    assert clique_number(complete(5))[0] == 5
    assert clique_number(groetzsch())[0] == 2
    assert clique_number(schlafli_complement())[0] == 3


def _assert_exact_clique(g):
    size, wit = clique_number(g)
    assert size == naive_clique_number(g)
    assert len(set(wit)) == size == len(wit)
    assert all(g.adj[a] >> b & 1 for a, b in itertools.combinations(wit, 2))


def test_clique_witness_is_clique(rng):
    for _ in range(200):
        _assert_exact_clique(rand_graph(rng, rng.randrange(0, 13), rng.choice((0.3, 0.5, 0.8))))


def test_clique_number_exact_on_all_small_graphs():
    # check_certificate verifies a certificate's clique witness but not that
    # it is maximum, so the solver's exactness is pinned here.
    count = 0
    for n in range(7):
        for g in all_graphs(n):
            _assert_exact_clique(g)
            count += 1
    assert count == 33868


def test_chromatic_examples():
    assert chromatic_number(cycle(5)).chi == 3
    assert chromatic_number(groetzsch()).chi == 4
    assert chromatic_number(petersen()).chi == 3


def test_chromatic_matches_naive_random(rng):
    for _ in range(250):
        g = rand_graph(rng, rng.randrange(0, 8), rng.choice([0.2, 0.5, 0.8]))
        res = chromatic_number(g)
        assert res.chi == naive_chromatic(g)
        ok, _ = validate_coloring(g, res.coloring) if g.n else (True, None)
        assert ok
        assert res.coloring.palette_size == res.chi


def test_chromatic_matches_naive_n7_sample(rng):
    for _ in range(150):
        g = rand_graph(rng, 7, rng.choice([0.3, 0.5, 0.7]))
        assert chromatic_number(g).chi == naive_chromatic(g)


def test_chromatic_with_known_clique_is_exact():
    # any clique is a valid lower bound: the maximum one, a smaller one or
    # none at all give the same chi, on every graph with n <= 5
    for n in range(6):
        for g in all_graphs(n):
            res = chromatic_number(g)
            for clique in {res.clique, res.clique[:1], ()} if n else ():
                given_clique = chromatic_number(g, clique=clique)
                assert given_clique.chi == res.chi
                assert given_clique.clique == clique
                assert validate_coloring(g, given_clique.coloring)[0]


@pytest.mark.parametrize(
    "clique", [(0, 2), (0, 0), (0, 5)], ids=["non-adjacent", "repeated", "past-n"]
)
def test_chromatic_rejects_non_clique(clique):
    with pytest.raises(ValueError, match="not a clique"):
        chromatic_number(cycle(5), clique=clique)


def test_validate_coloring_examples():
    k2 = complete(2)
    ok, edge = validate_coloring(k2, Coloring((1, 1)))
    assert not ok and edge == (0, 1)
    ok, edge = validate_coloring(k2, Coloring((1, 2)))
    assert ok and edge is None
    res = chromatic_number(cycle(5))
    assert validate_coloring(cycle(5), res.coloring)[0]


def test_validate_coloring_partial_is_usage_error():
    with pytest.raises(ValueError):
        validate_coloring(complete(3), Coloring((1, 2)))
    with pytest.raises(ValueError):
        validate_coloring(complete(2), Coloring((0, 1)))


def test_two_coloring_and_edge_witnesses(rng):
    for _ in range(120):
        g = rand_graph(rng, rng.randrange(0, 9))
        col2, cyc = two_coloring(g)
        if col2 is not None:
            assert cyc is None
            ok, _ = validate_coloring(g, col2) if g.n else (True, None)
            assert ok and col2.palette_size <= 2
        else:
            assert len(cyc) % 2 == 1 and len(set(cyc)) == len(cyc)
            for i, u in enumerate(cyc):
                assert g.adj[u] >> cyc[(i + 1) % len(cyc)] & 1
        edge = first_edge_in(g, g.full_mask)
        if edge is None:
            assert g.edge_count == 0
        else:
            assert g.adj[edge[0]] >> edge[1] & 1


def test_omega_le_chi(rng):
    for _ in range(120):
        g = rand_graph(rng, rng.randrange(0, 9))
        assert clique_number(g)[0] <= chromatic_number(g).chi or g.n == 0


@given(graph_strategy(max_n=7))
@settings(max_examples=40, deadline=None)
def test_monotonicity_under_induced(g):
    h = induced(g, coin_submask(g, 7))
    assert chromatic_number(h).chi <= chromatic_number(g).chi
    assert clique_number(h)[0] <= clique_number(g)[0]


def test_coin_submask_draws_proper_subsets(rng):
    # the monotonicity tests compare a host with a proper, non-empty induced
    # subgraph on most draws, not with itself or with the empty graph
    proper = 0
    for _ in range(500):
        g = rand_graph(rng, rng.randrange(4, 8), 0.5)
        sub = coin_submask(g, 7)
        assert sub & ~g.full_mask == 0
        proper += 0 < sub < g.full_mask
    assert proper > 400


def test_mycielskian_chromatic_steps():
    for g in (complete(2), cycle(5)):
        base = chromatic_number(g).chi
        m = mycielskian(g)
        assert chromatic_number(m).chi == base + 1
        assert clique_number(m)[0] == 2


def test_timeout_is_result_not_exception():
    g = schlafli_complement()
    res = chromatic_number(g, time_budget=0.0)
    assert res.timed_out
    assert res.chi is None
    assert res.lower <= 6 <= res.upper
    ok, _ = validate_coloring(g, res.coloring)
    assert ok and res.coloring.palette_size == res.upper


def test_greedy_is_proper(rng):
    for _ in range(100):
        g = rand_graph(rng, rng.randrange(1, 10))
        c = greedy_coloring(g)
        assert validate_coloring(g, c)[0]
