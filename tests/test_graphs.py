import pytest
from hypothesis import given, settings

from twoomega.graphs import (
    Graph,
    GraphParseError,
    bitmask,
    bit_list,
    bits,
    clique_components,
    complement,
    complete,
    cycle,
    empty_graph,
    first_edge_in,
    graph6_decode,
    graph6_encode,
    induced,
    join,
    least_triangle_in,
    parse_graph6_lines,
    path,
    triangles,
    union,
)
from twoomega.patterns import PATTERNS, find_induced

from conftest import graph_strategy, induced_isomorphic, rand_graph


def test_neighbors_examples():
    assert complete(5).neighbors(0) == bitmask([1, 2, 3, 4])
    assert cycle(5).neighbors(0) == bitmask([1, 4])
    p3up2 = union(path(3), path(2))
    assert p3up2.neighbors(3) == bitmask([4])


def test_neighbors_out_of_range():
    with pytest.raises(ValueError):
        complete(3).neighbors(3)
    with pytest.raises(ValueError):
        complete(3).neighbors(-1)


def test_non_neighborhood_examples():
    assert complete(5).non_neighborhood(bitmask([0])) == 0
    assert cycle(5).non_neighborhood(bitmask([0])) == bitmask([2, 3])
    p3up2 = union(path(3), path(2))
    assert p3up2.non_neighborhood(bitmask([0, 1, 2])) == bitmask([3, 4])
    # closed variant adds X back
    assert cycle(5).non_neighborhood(bitmask([0]), closed=True) == bitmask([0, 2, 3])


def test_join_w4():
    w4 = join(empty_graph(1), cycle(4))
    assert w4.n == 5
    assert w4.edge_count == 8
    assert w4.degree(0) == 4


def test_complement_p5_is_house():
    assert induced_isomorphic(complement(path(5)), PATTERNS["house"].graph)


def test_union_counts():
    g = union(path(3), path(2))
    assert g.n == 5 and g.edge_count == 3


def test_join_union_count_formulas(rng):
    for _ in range(25):
        a = rand_graph(rng, rng.randrange(0, 6))
        b = rand_graph(rng, rng.randrange(0, 6))
        u = union(a, b)
        j = join(a, b)
        assert u.n == j.n == a.n + b.n
        assert u.edge_count == a.edge_count + b.edge_count
        assert j.edge_count == a.edge_count + b.edge_count + a.n * b.n


@given(graph_strategy())
@settings(max_examples=60, deadline=None)
def test_closed_neighborhood_partitions(g):
    for v in range(g.n):
        nv_closed = g.closed_neighborhood(v)
        mv = g.non_neighborhood(1 << v)
        assert nv_closed & mv == 0
        assert nv_closed | mv == g.full_mask


@given(graph_strategy())
@settings(max_examples=60, deadline=None)
def test_non_neighborhood_anticomplete(g):
    for v in range(g.n):
        x = g.adj[v] | 1 << v  # arbitrary nonempty-ish set
        m = g.non_neighborhood(x)
        for u in bit_list(m):
            assert g.adj[u] & x == 0


@given(graph_strategy())
@settings(max_examples=60, deadline=None)
def test_complement_involution_and_induced_identity(g):
    assert complement(complement(g)).adj == g.adj
    assert induced(g, range(g.n)).adj == g.adj


def test_induced_preserves_relative_order():
    g = path(5)
    h = induced(g, [4, 1, 3])  # kept order is sorted: 1, 3, 4
    assert h.n == 3
    assert h.has_edge(1, 2)  # 3-4 survives
    assert not h.has_edge(0, 1)


@given(graph_strategy(max_n=8))
@settings(max_examples=80, deadline=None)
def test_vertex_set_helpers_match_pattern_search(g):
    # the bitmask answers agree with the pattern search on the induced copy,
    # and the witnesses they return lie in the mask and are least
    import random

    rng = random.Random(hash(g.adj))
    for _ in range(4):
        mask = bitmask(v for v in range(g.n) if rng.random() < 0.7)
        verts = bit_list(mask)
        sub = induced(g, mask)
        for pid, found in (("p2", first_edge_in(g, mask)), ("k3", least_triangle_in(g, mask))):
            emb = find_induced(sub, PATTERNS[pid])
            assert found == (None if emb is None else tuple(verts[i] for i in emb.map))
        comps = clique_components(g, mask)
        assert (comps is None) == (find_induced(sub, PATTERNS["p3"]) is not None)
        if comps is not None:
            assert [c & -c for c in comps] == sorted(c & -c for c in comps)
            seen = 0
            for c in comps:
                assert c & seen == 0
                assert all(g.adj[v] & mask | 1 << v == c for v in bits(c))
                seen |= c
            assert seen == mask


def test_bits_rejects_negative_mask():
    # a negative mask is an infinite set: only the first item is taken, so
    # a generator that never ends fails this test instead of hanging it
    with pytest.raises(ValueError, match="non-negative"):
        next(bits(-1))
    with pytest.raises(ValueError, match="non-negative"):
        bit_list(-6)
    assert bit_list(0) == [] and bit_list(0b1010) == [1, 3]


@given(graph_strategy(max_n=8))
@settings(max_examples=60, deadline=None)
def test_triangles_lexicographic(g):
    expect = [
        (a, b, c)
        for a in range(g.n) for b in range(a + 1, g.n) for c in range(b + 1, g.n)
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
    ]
    assert list(triangles(g)) == expect


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(2, (1, 0))  # asymmetric
    with pytest.raises(ValueError):
        Graph(1, (1,))  # self-loop
    with pytest.raises(ValueError):
        Graph(1, (2,))  # out of range bit


# -- graph6 -------------------------------------------------------------------


def test_graph6_c5_vector():
    assert graph6_encode(cycle(5)) == "Dhc"
    assert graph6_decode("Dhc").adj == cycle(5).adj


def test_graph6_k1():
    assert graph6_encode(complete(1)) == "@"
    assert graph6_decode("@").n == 1


def test_graph6_header_tolerated():
    assert graph6_decode(">>graph6<<Dhc").adj == cycle(5).adj
    gs = list(parse_graph6_lines([">>graph6<<", "Dhc", "", "@"]))
    assert [g.n for g in gs] == [5, 1]


def test_graph6_roundtrip_random(rng):
    for _ in range(1000):
        n = rng.randrange(0, 41)
        g = rand_graph(rng, n, rng.choice([0.1, 0.3, 0.5, 0.8]))
        assert graph6_decode(graph6_encode(g)).adj == g.adj


def test_graph6_extended_size():
    g = rand_graph(__import__("random").Random(5), 100, 0.05)
    enc = graph6_encode(g)
    assert enc.startswith("~")
    assert graph6_decode(enc).adj == g.adj


def test_graph6_agrees_with_networkx(rng):
    nx = pytest.importorskip("networkx")
    for _ in range(120):
        n = rng.randrange(1, 21)
        g = rand_graph(rng, n, 0.4)
        theirs = nx.to_graph6_bytes(
            nx.from_edgelist(g.edges()) if g.edge_count else nx.empty_graph(n),
            header=False,
        ).decode().strip()
        # networkx may drop isolated vertices from from_edgelist; rebuild
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
        assert graph6_encode(g) == theirs
        back = nx.from_graph6_bytes(graph6_encode(g).encode())
        assert set(back.edges()) == {tuple(e) for e in g.edges()} or \
            {frozenset(e) for e in back.edges()} == {frozenset(e) for e in g.edges()}


def test_graph6_malformed():
    with pytest.raises(GraphParseError):
        graph6_decode("")
    with pytest.raises(GraphParseError):
        graph6_decode("D")  # truncated body for n=5
    with pytest.raises(GraphParseError):
        graph6_decode("Dhcc")  # too long
    err = None
    try:
        graph6_decode("D\x1fc")
    except GraphParseError as exc:
        err = exc
    assert err is not None and err.offset == 1
    with pytest.raises(GraphParseError):
        graph6_decode(":Dhc")  # sparse6


def test_empty_graph_everywhere():
    g = empty_graph(0)
    assert g.edge_count == 0
    assert graph6_decode(graph6_encode(g)).n == 0
    assert union(g, g).n == 0
    assert join(g, complete(2)).n == 2
    assert complement(g).n == 0
    assert induced(g, []).n == 0
