from itertools import permutations

from hypothesis import given, settings

from twoomega.graphs import Graph, bitmask, bits, complete, cycle, empty_graph, induced, path, union
from twoomega.patterns import (
    PATTERNS,
    ClassReport,
    Pattern,
    PatternEmbedding,
    _has_p3up2,
    _has_w4,
    _plan,
    _search,
    class_membership,
    find_induced,
    first_present,
    has_induced,
    host_facts,
    is_class_member,
    rooted_plans,
)

from conftest import (
    ALL_PATTERNS,
    FIXTURE_PATTERNS,
    all_graphs,
    automorphisms,
    coin_submask,
    complement,
    count_induced,
    graph_strategy,
    induced_isomorphic,
    least_embedding,
    petersen,
    rand_graph,
    ref_first_present,
    ref_hit_classes,
    ref_triangles,
    verify_embedding,
)

# The package's catalog: the class's forbidden graphs and the colorer's
# band triggers.  The c4 and c5 of its proof checks are mask kernels in
# ``graphs``, so the patterns are test fixtures.
CATALOG_IDS = [
    "p3up2", "w4", "w5", "gem", "p2uk3", "2k3", "p2uk4",
    "k1uk3", "four_triangle", "f1", "f2", "f3", "f4", "hammer",
]
FIXTURE_IDS = [
    "p2", "p3", "p4", "p5", "k3", "k4", "k5", "c4", "c5", "2k2", "diamond",
    "house", "hvn", "crown", "paraglider",
]


def test_catalog_exact_contents():
    assert sorted(PATTERNS) == sorted(CATALOG_IDS)
    assert len(PATTERNS) == 14
    assert sorted(FIXTURE_PATTERNS) == sorted(FIXTURE_IDS)
    assert len(ALL_PATTERNS) == 29


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
    assert sorted(expect) == sorted(ALL_PATTERNS)
    for pid, (order, m) in expect.items():
        p = ALL_PATTERNS[pid]
        assert (p.graph.n, p.graph.edge_count) == (order, m), pid


def test_every_pattern_selfcount_one():
    for p in ALL_PATTERNS.values():
        assert count_induced(p.graph, p) == 1, p.id


def test_find_induced_examples():
    w4 = PATTERNS["w4"].graph
    emb = find_induced(w4, ALL_PATTERNS["c4"])
    assert emb.map == (1, 2, 3, 4)
    assert find_induced(cycle(5), PATTERNS["p3up2"]) is None
    pet = petersen()
    assert find_induced(pet, ALL_PATTERNS["c5"]).map == (0, 1, 2, 3, 4)


def test_count_induced_examples():
    assert count_induced(complete(4), ALL_PATTERNS["k3"]) == 4
    assert count_induced(cycle(5), ALL_PATTERNS["p3"]) == 5
    assert count_induced(petersen(), ALL_PATTERNS["c5"]) == 12


def test_embeddings_are_induced_isomorphisms(rng):
    for _ in range(40):
        g = rand_graph(rng, rng.randrange(4, 9))
        for p in ALL_PATTERNS.values():
            emb = find_induced(g, p)
            if emb is not None:
                assert verify_embedding(g, emb)


def test_find_induced_is_least_injective_map(rng):
    # the least of all injective maps that are induced embeddings, found by
    # brute force, for every catalog pattern on random hosts
    for n in (5, 6, 7):
        g = rand_graph(rng, n, 0.5)
        for p in ALL_PATTERNS.values():
            least = min(
                (m for m in permutations(range(g.n), p.graph.n)
                 if verify_embedding(g, PatternEmbedding(p.id, m))),
                default=None,
            )
            emb = find_induced(g, p)
            assert (None if emb is None else emb.map) == least, p.id


def test_automorphisms_come_from_self_embeddings():
    # the group the presence and rooted plans break symmetry under is the
    # set of the pattern's induced embeddings into itself
    for p in ALL_PATTERNS.values():
        g = p.graph
        group = list(_search(g, _plan(p)[0], (g.full_mask,), host_facts(g)))
        assert group == automorphisms(g), p.id


def test_class_membership_examples():
    from twoomega.witnesses import groetzsch, schlafli_complement

    assert class_membership(groetzsch()).member
    assert class_membership(schlafli_complement()).member
    bad = union(cycle(5), path(2))
    report = class_membership(bad)
    assert not report.member
    assert report.violations[0].pattern_id == "p3up2"
    assert verify_embedding(bad, report.violations[0])


def _membership_hosts(rng):
    hosts = [rand_graph(rng, rng.randrange(0, 9), rng.choice([0.2, 0.5, 0.8]))
             for _ in range(400)]
    return hosts + [g for n in range(7) for g in all_graphs(n)]


def test_fast_member_agrees_with_reports(rng):
    # the fast detectors, which decide class_membership too, against the
    # generic presence search, on random graphs and every graph with n <= 6
    p3up2, w4 = PATTERNS["p3up2"], PATTERNS["w4"]
    for g in _membership_hosts(rng):
        p, w = has_induced(g, p3up2), has_induced(g, w4)
        assert (_has_p3up2(g), _has_w4(g)) == (p, w)
        assert is_class_member(g) == (not p and not w)


def test_class_membership_reports_least_embeddings(rng):
    # violations: the least embedding of each pattern present, p3up2 first
    for g in _membership_hosts(rng):
        embs = [find_induced(g, PATTERNS[pid]) for pid in ("p3up2", "w4")]
        expected = tuple(e for e in embs if e is not None)
        assert class_membership(g) == ClassReport(not expected, expected)


def test_detector_equivalence_small(rng):
    # dev-loop version of the full acceptance criterion: random graphs, plus
    # every labeled graph with n <= 5, so each pattern's presence plan (the
    # highly symmetric k5, 2k3, w5 and four_triangle included) meets every
    # small host, hosts smaller than the pattern too
    hosts = [rand_graph(rng, rng.randrange(0, 8)) for _ in range(60)]
    hosts += [g for n in range(6) for g in all_graphs(n)]
    for g in hosts:
        for p in ALL_PATTERNS.values():
            assert has_induced(g, p) == (count_induced(g, p) > 0), p.id


def test_rooted_presence_matches_has_induced():
    # every pattern with a triangle has a rooted plan, and one triangle pass
    # over the host decides it exactly as the presence search does, on all
    # 33,868 labeled graphs with n <= 6
    from twoomega.graphs import least_triangle_in

    rooted = [p for p in ALL_PATTERNS.values() if least_triangle_in(p.graph, p.graph.full_mask)]
    assert len(rooted) == 21
    for n in range(7):
        for g in all_graphs(n):
            facts = host_facts(g)
            for p in rooted:
                assert (first_present(g, rooted_plans([p]), facts) == 0) == has_induced(g, p), p.id


def test_first_present_matches_the_reference_walk(monkeypatch, rng):
    # the walk with masks hoisted per edge and each orientation's needed
    # codes tested one by one answers the index that the walk over
    # triangles(), one hit-class split per triangle and an empty-code mask
    # does, and starts exactly the same rooted searches: for no plans, the
    # omega = 3 and omega = 4 bands' plans, the plans of (w5, p2uk3) (the
    # omega >= 5 band's triggers, which the colorer decides by detectors)
    # and every single rooted plan, on all 33,868 labeled graphs with
    # n <= 6, on dense and half-dense G(n, p) with n = 8..13 (where w5 and
    # p2uk3 fire) and on K_n for n <= 12.  On the same hosts the colorer's
    # J7 probe finds the anchor that the reference walk's k1 (the vertices
    # with a triangle in their non-neighbourhood) names
    from twoomega import patterns
    from twoomega.colorer import _band_plans, _j7_anchor

    started = []
    search = patterns._search

    def counted(*args):
        started.append(None)
        return search(*args)

    monkeypatch.setattr(patterns, "_search", counted)
    band5 = rooted_plans(PATTERNS[pid] for pid in ("w5", "p2uk3"))
    suites = [(), _band_plans(2), _band_plans(3), band5]
    suites += [rooted_plans([p]) for p in ALL_PATTERNS.values() if _plan(p)[2] is not None]
    assert len(suites) == 4 + 21
    hosts = [g for n in range(7) for g in all_graphs(n)]
    hosts += [rand_graph(rng, n, p) for n in range(8, 14) for p in (0.5, 0.9) for _ in range(4)]
    hosts += [complete(n) for n in range(13)]
    fired = set()
    for g in hosts:
        facts = host_facts(g)
        for plans in suites:
            started.clear()
            got = first_present(g, plans, facts)
            index, k1, searches = ref_first_present(g, plans, facts)
            assert (got, len(started)) == (index, searches), (g, plans)
            if plans is band5:
                fired.add(got)
        # the least non-isolated vertex of k1, else its least vertex, with
        # the least triangle in its non-neighbourhood; None when k1 is empty
        anchor = _j7_anchor(g)
        if not k1:
            assert anchor is None, g
            continue
        firsts = bitmask(v for v in bits(k1) if g.adj[v]) or k1
        v = (firsts & -firsts).bit_length() - 1
        assert anchor == (v, *ref_triangles(g, g.full_mask & ~(g.adj[v] | 1 << v))[0]), g
    # the (w5, p2uk3) plans reach each outcome: w5, p2uk3, neither
    assert fired == {0, 1, 2}


def test_first_present_picks_the_first_pattern_present():
    # on K2 + K4 the omega = 4 band's first trigger 2k3 is absent and p2uk4
    # and p2uk3 are present; the K2's vertices are the only ones with a
    # triangle in their non-neighborhood, so J7's anchor is the least of
    # them with the K4's least triangle
    from twoomega.colorer import _j7_anchor

    g = union(complete(2), complete(4))
    band = rooted_plans(PATTERNS[pid] for pid in ("2k3", "p2uk4", "p2uk3", "four_triangle", "gem"))
    assert first_present(g, band, host_facts(g)) == 1
    assert first_present(g, band[2:], host_facts(g)) == 0
    assert first_present(g, band[3:], host_facts(g)) == 2
    assert first_present(complete(2), band, host_facts(complete(2))) == 5
    assert _j7_anchor(g) == (0, 2, 3, 4)
    assert _j7_anchor(complete(2)) is None


def test_degree_window_on_dense_hosts(rng):
    # dense hosts, where the degree windows drop vertices with too few
    # non-neighbours: G(n, p) for n = 8..11 and p in {0.85, 0.95}, and the
    # complements of sparse graphs; every search still answers as the
    # oracles do, the lexicographic one with the least embedding
    hosts = [rand_graph(rng, n, p) for n in range(8, 12) for p in (0.85, 0.95)]
    hosts += [complement(rand_graph(rng, n, 0.15)) for n in range(8, 12)]
    # a universal vertex lies outside the window of every pattern vertex
    # with a non-neighbour
    assert sum(host_facts(g)[g.n - 1] != 0 for g in hosts) >= 6
    for g in hosts:
        facts = host_facts(g)
        for p in ALL_PATTERNS.values():
            present = count_induced(g, p) > 0
            emb = find_induced(g, p, facts)
            assert (None if emb is None else emb.map) == least_embedding(g, p), p.id
            assert has_induced(g, p) == present, p.id
            if _plan(p)[2] is not None:
                assert (first_present(g, rooted_plans([p]), facts) == 0) == present, p.id


class NonNegativeIndex(list):
    """Degree-threshold masks that refuse a negative index, which would
    otherwise wrap round to the top thresholds."""

    def __getitem__(self, i):
        if i < 0:
            raise IndexError(f"negative index {i} into the degree-threshold masks")
        return super().__getitem__(i)


def test_rooted_plans_on_hosts_smaller_than_the_pattern():
    # K3, K4 and K4 + K1 against the omega = 3 and omega = 4 band plans,
    # whose triggers mostly have more vertices than the host: the band
    # answers its first trigger that count_induced finds (only k1uk3, in
    # K4 + K1), every larger trigger is absent, and no degree window
    # indexes the masks below 0
    from twoomega.colorer import _BANDS, _band_plans

    for g in (complete(3), complete(4), union(complete(4), empty_graph(1))):
        facts = NonNegativeIndex(host_facts(g))
        for band in (2, 3):
            triggers = [PATTERNS[row[1]] for row in _BANDS[band][:-1]]
            present = [count_induced(g, p) > 0 for p in triggers]
            first = present.index(True) if any(present) else len(triggers)
            assert first_present(g, _band_plans(band), facts) == first
            for p, found in zip(triggers, present):
                assert (first_present(g, rooted_plans([p]), facts) == 0) == found, p.id
                assert not found or p.graph.n <= g.n, p.id
    # first_present skips a plan that needs an empty hit class, so a search
    # on K3 itself shows the check: a triangle plus three isolated vertices
    # has levels with q = 5, and n - q would be -2
    g = complete(3)
    p = Pattern("k3u3k1", union(complete(3), empty_graph(3)))
    for _, levels in _plan(p)[2]:
        assert next(_search(g, levels, ref_hit_classes(g, 0, 1, 2), NonNegativeIndex(host_facts(g))), None) is None


@given(graph_strategy(max_n=7))
@settings(max_examples=40, deadline=None)
def test_freeness_monotone_under_induced(g):
    h = induced(g, coin_submask(g))
    for pid in ("p3", "k3", "p3up2", "c4"):
        p = ALL_PATTERNS[pid]
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
    assert max(p.graph.n for p in PATTERNS.values()) == 6
