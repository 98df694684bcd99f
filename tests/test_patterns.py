from hypothesis import given, settings

from twoomega.graphs import Graph, complete, cycle, induced, path, union
from twoomega.patterns import (
    PATTERNS,
    class_membership,
    find_induced,
    first_present,
    has_induced,
    host_facts,
    is_class_member,
    iter_induced,
)

from conftest import (
    all_graphs,
    count_induced,
    graph_strategy,
    induced_isomorphic,
    petersen,
    rand_graph,
    verify_embedding,
)

CATALOG_IDS = [
    "p2", "p3", "p4", "p5", "k3", "c4", "c5", "k4", "k5", "p3up2", "2k2",
    "diamond", "house", "hvn", "w4", "w5", "crown", "gem", "paraglider",
    "p2uk3", "2k3", "p2uk4", "k1uk3", "four_triangle", "f1", "f2", "f3",
    "f4", "hammer",
]


def test_catalog_exact_contents():
    assert sorted(PATTERNS) == sorted(CATALOG_IDS)
    assert len(PATTERNS) == 29


def test_catalog_orders_and_sizes():
    expect = {
        "p2": (2, 1), "p3": (3, 2), "p4": (4, 3), "p5": (5, 4),
        "k3": (3, 3), "c4": (4, 4), "c5": (5, 5), "k4": (4, 6), "k5": (5, 10),
        "p3up2": (5, 3), "2k2": (4, 2), "diamond": (4, 5), "house": (5, 6),
        "hvn": (5, 8), "w4": (5, 8), "w5": (6, 10), "crown": (5, 7),
        "gem": (5, 7), "paraglider": (5, 7), "p2uk3": (5, 4), "2k3": (6, 6),
        "p2uk4": (6, 7), "k1uk3": (4, 3), "four_triangle": (6, 9),
        "f1": (6, 8), "f2": (6, 8), "f3": (6, 7), "f4": (6, 9),
        "hammer": (5, 5),
    }
    for pid, (order, m) in expect.items():
        p = PATTERNS[pid]
        assert (p.order, p.graph.edge_count) == (order, m), pid


def test_every_pattern_selfcount_one():
    for p in PATTERNS.values():
        assert count_induced(p.graph, p) == 1, p.id


def test_find_induced_examples():
    w4 = PATTERNS["w4"].graph
    emb = find_induced(w4, PATTERNS["c4"])
    assert emb.map == (1, 2, 3, 4)
    assert find_induced(cycle(5), PATTERNS["p3up2"]) is None
    pet = petersen()
    assert find_induced(pet, PATTERNS["c5"]).map == (0, 1, 2, 3, 4)


def test_count_induced_examples():
    assert count_induced(complete(4), PATTERNS["k3"]) == 4
    assert count_induced(cycle(5), PATTERNS["p3"]) == 5
    assert count_induced(petersen(), PATTERNS["c5"]) == 12


def test_embeddings_are_induced_isomorphisms(rng):
    for _ in range(40):
        g = rand_graph(rng, rng.randrange(4, 9))
        for p in PATTERNS.values():
            emb = find_induced(g, p)
            if emb is not None:
                assert verify_embedding(g, emb)


def test_iter_induced_lexicographic(rng):
    g = rand_graph(rng, 7, 0.5)
    for pid in ("p3", "k3", "p4"):
        maps = [e.map for e in iter_induced(g, PATTERNS[pid])]
        assert maps == sorted(maps)


def test_class_membership_examples():
    from twoomega.witnesses import groetzsch, schlafli_complement

    assert class_membership(groetzsch()).member
    assert class_membership(schlafli_complement()).member
    bad = union(cycle(5), path(2))
    report = class_membership(bad)
    assert not report.member
    assert report.violations[0].pattern_id == "p3up2"
    assert verify_embedding(bad, report.violations[0])


def test_fast_member_agrees_with_reports(rng):
    for _ in range(400):
        g = rand_graph(rng, rng.randrange(0, 9), rng.choice([0.2, 0.5, 0.8]))
        assert is_class_member(g) == class_membership(g).member


def test_detector_equivalence_small(rng):
    # dev-loop version of the full acceptance criterion: random graphs, plus
    # every labeled graph with n <= 5, so each pattern's presence plan (the
    # highly symmetric k5, 2k3, w5 and four_triangle included) meets every
    # small host, hosts smaller than the pattern too
    hosts = [rand_graph(rng, rng.randrange(0, 8)) for _ in range(60)]
    hosts += [g for n in range(6) for g in all_graphs(n)]
    for g in hosts:
        for p in PATTERNS.values():
            assert has_induced(g, p) == (count_induced(g, p) > 0), p.id


def test_rooted_presence_matches_has_induced():
    # every pattern with a triangle has a rooted plan, and one triangle pass
    # over the host decides it exactly as the presence search does, on all
    # 33,868 labeled graphs with n <= 6
    from twoomega.graphs import least_triangle_in

    rooted = [p for p in PATTERNS.values() if least_triangle_in(p.graph, p.graph.full_mask)]
    assert len(rooted) == 21
    for n in range(7):
        for g in all_graphs(n):
            facts = host_facts(g)
            for p in rooted:
                assert (first_present(g, [p], facts)[0] == 0) == has_induced(g, p, facts), p.id


def test_first_present_picks_the_first_pattern_present():
    # on K2 + K4 the omega = 4 band's first trigger 2k3 is absent and p2uk4
    # and p2uk3 are present; k1 holds the K2's vertices, the only ones with
    # a triangle in their non-neighborhood
    g = union(complete(2), complete(4))
    band = [PATTERNS[pid] for pid in ("2k3", "p2uk4", "p2uk3", "four_triangle", "gem")]
    assert first_present(g, band) == (1, 0b11)
    assert first_present(g, band[2:])[0] == 0
    assert first_present(g, band[3:]) == (2, 0b11)
    assert first_present(complete(2), band) == (5, 0)


@given(graph_strategy(max_n=7))
@settings(max_examples=40, deadline=None)
def test_freeness_monotone_under_induced(g):
    import random

    sub = [v for v in range(g.n) if random.Random(hash(g.adj)).random() < 0.6]
    h = induced(g, sub)
    for pid in ("p3", "k3", "p3up2", "c4"):
        p = PATTERNS[pid]
        if has_induced(h, p):
            assert has_induced(g, p)


def test_proof_usage_consistency_f1():
    # triangle {v,x,x'} with cross edges x-t1, x'-t2 into a second triangle
    g = Graph.from_edges(
        6,
        [(0, 1), (0, 2), (1, 2),  # v, x, x'
         (3, 4), (3, 5), (4, 5),  # t1, t2, t3
         (1, 3), (2, 4)],
    )
    assert induced_isomorphic(g, PATTERNS["f1"].graph)


def test_proof_usage_consistency_f3():
    # triangle {v1,v2,v3}, path u2-u1-u3, cross edges v2-u2 and v3-u3
    g = Graph.from_edges(
        6,
        [(0, 1), (0, 2), (1, 2),  # triangle v1 v2 v3
         (4, 3), (3, 5),          # path u2-u1-u3
         (1, 4), (2, 5)],
    )
    assert induced_isomorphic(g, PATTERNS["f3"].graph)


def test_proof_usage_consistency_four_triangle():
    # 3-sun: 6-hole u1 v1 u2 v2 u3 v3 plus the triangle v1 v2 v3
    hole = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]  # u1 v1 u2 v2 u3 v3
    tri = [(1, 3), (3, 5), (5, 1)]
    g = Graph.from_edges(6, hole + tri)
    assert induced_isomorphic(g, PATTERNS["four_triangle"].graph)


def test_pattern_containment_chain():
    # dispatch-order implications: later triggers contain earlier ones
    assert has_induced(PATTERNS["2k3"].graph, PATTERNS["p2uk3"])
    assert has_induced(PATTERNS["p2uk4"].graph, PATTERNS["p2uk3"])
    for pid in ("f1", "f2", "f3", "f4", "hammer", "p2uk3"):
        assert has_induced(PATTERNS[pid].graph, PATTERNS["k1uk3"]), pid


def test_patterns_order_at_most_six():
    assert max(p.order for p in PATTERNS.values()) == 6
