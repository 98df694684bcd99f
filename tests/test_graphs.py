import pickle
import sys

import pytest
from hypothesis import given, settings

from twoomega.colorer import _split_by_hits
from twoomega.graphs import (
    Graph,
    GraphParseError,
    _graph_nocheck,
    bitmask,
    bit_list,
    bits,
    clique_components,
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
from twoomega.patterns import find_induced

from conftest import ALL_PATTERNS, complement, graph_strategy, induced_isomorphic, rand_graph


def m_set(g: Graph, x: int) -> int:
    """M(X), the vertices outside X with no neighbor in X, as the colorer
    takes it: the vertices of V - X that hit X zero times."""
    return _split_by_hits(g, g.full_mask & ~x, x)[0]


def test_non_neighborhood_examples():
    assert m_set(complete(5), bitmask([0])) == 0
    assert m_set(cycle(5), bitmask([0])) == bitmask([2, 3])
    p3up2 = union(path(3), path(2))
    assert m_set(p3up2, bitmask([0, 1, 2])) == bitmask([3, 4])
    # closed variant adds X back
    assert m_set(cycle(5), bitmask([0])) | bitmask([0]) == bitmask([0, 2, 3])


def test_join_w4():
    w4 = join(empty_graph(1), cycle(4))
    assert w4.n == 5
    assert w4.edge_count == 8
    assert w4.adj[0].bit_count() == 4


def test_complement_p5_is_house():
    assert induced_isomorphic(complement(path(5)), ALL_PATTERNS["house"].graph)


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
        nv_closed = g.adj[v] | 1 << v
        mv = m_set(g, 1 << v)
        assert nv_closed & mv == 0
        assert nv_closed | mv == g.full_mask


@given(graph_strategy())
@settings(max_examples=60, deadline=None)
def test_non_neighborhood_anticomplete(g):
    for v in range(g.n):
        x = g.adj[v] | 1 << v  # arbitrary nonempty-ish set
        m = m_set(g, x)
        for u in bit_list(m):
            assert g.adj[u] & x == 0


@given(graph_strategy())
@settings(max_examples=60, deadline=None)
def test_complement_involution_and_induced_identity(g):
    assert complement(complement(g)).adj == g.adj
    assert induced(g, g.full_mask).adj == g.adj


def test_induced_preserves_relative_order():
    g = path(5)
    h = induced(g, bitmask([4, 1, 3]))  # kept order is ascending: 1, 3, 4
    assert h.n == 3
    assert h.adj[1] >> 2 & 1  # 3-4 survives
    assert not h.adj[0] >> 1 & 1


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
            emb = find_induced(sub, ALL_PATTERNS[pid])
            assert found == (None if emb is None else tuple(verts[i] for i in emb.map))
        comps = clique_components(g, mask)
        assert (comps is None) == (find_induced(sub, ALL_PATTERNS["p3"]) is not None)
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
    with pytest.raises(ValueError, match="non-negative"):
        next(triangles(complete(4), -1))
    assert bit_list(0) == [] and bit_list(0b1010) == [1, 3]


@given(graph_strategy(max_n=8))
@settings(max_examples=60, deadline=None)
def test_triangles_lexicographic(g):
    expect = [
        (a, b, c)
        for a in range(g.n) for b in range(a + 1, g.n) for c in range(b + 1, g.n)
        if g.adj[a] >> b & 1 and g.adj[a] >> c & 1 and g.adj[b] >> c & 1
    ]
    assert list(triangles(g, g.full_mask)) == expect


def test_graph_validation():
    with pytest.raises(ValueError, match="non-negative"):
        Graph(-1, ())
    with pytest.raises(ValueError, match="one row per vertex"):
        Graph(3, (0, 0))  # short adjacency
    with pytest.raises(ValueError, match=r"not symmetric at \(0, 1\)"):
        Graph(2, (2, 0))
    with pytest.raises(ValueError, match="self-loop at vertex 0"):
        Graph(1, (1,))
    with pytest.raises(ValueError, match="row 0 has bits outside 0..0"):
        Graph(1, (2,))
    with pytest.raises(ValueError, match=r"edge \(0, 3\) out of range for n=3"):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError, match="self-loop at vertex 1"):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError, match="self-loop at vertex 1"):
        Graph.from_edges(3, [(2, 2), (1, 1)])  # the constructor reports the least
    with pytest.raises(ValueError, match="at least 3 vertices"):
        cycle(2)
    with pytest.raises(ValueError, match="out of range"):
        induced(complete(3), 0b1001)


def test_graph_is_slotted_and_frozen():
    class TwoSlots:
        __slots__ = ("a", "b")

    g = cycle(5)
    assert not hasattr(g, "__dict__")
    assert sys.getsizeof(g) == sys.getsizeof(TwoSlots())
    with pytest.raises(AttributeError):
        g.n = 4
    with pytest.raises(AttributeError):
        g.label = "c5"
    with pytest.raises(AttributeError):
        del g.adj
    assert (g.n, g.adj) == (5, cycle(5).adj)
    # worker pools pickle graphs (TWOOMEGA_WORKERS)
    for h in (g, empty_graph(0), _graph_nocheck(3, (6, 5, 3))):
        back = pickle.loads(pickle.dumps(h))
        assert back == h and hash(back) == hash(h) and back.adj == h.adj
    # the constructor validates; the unchecked constructor builds an equal
    # graph without validating
    assert Graph(g.n, complete(5).adj) == complete(5)
    with pytest.raises(ValueError):
        Graph(g.n, (1, 0, 0, 0, 0))
    assert _graph_nocheck(3, (6, 5, 3)) == complete(3)
    assert _graph_nocheck(1, (1,)).adj == (1,)


def test_graph_equality_hash_and_repr():
    k3 = complete(3)
    same = _graph_nocheck(3, (6, 5, 3))
    assert k3 == same and hash(k3) == hash(same) and len({k3, same}) == 1
    assert k3 != path(3) and k3 != empty_graph(3) and k3 != complete(4)
    assert k3 != (3, (6, 5, 3)) and k3 != "K3"
    assert empty_graph(0) == Graph(0, ())
    assert repr(k3) == "Graph(n=3, adj=(6, 5, 3))"


def test_graph_stores_its_rows_as_a_tuple():
    # rows given as a list make the same hashable value as a tuple, and a
    # later edit of the list leaves the graph as it was
    rows = [2, 1]
    g = Graph(2, rows)
    assert type(g.adj) is tuple and g.adj == (2, 1)
    assert g == Graph(2, (2, 1)) == path(2)
    assert hash(g) == hash(path(2)) and len({g, path(2)}) == 1
    rows[0] = 0
    assert g.adj == (2, 1) and g == path(2)
    # the symmetry check walks each row's bits ascending and reports the
    # first pair without its mirror
    with pytest.raises(ValueError, match=r"not symmetric at \(0, 3\)"):
        Graph(4, [0b1010, 0b0001, 0, 0])


# -- graph6 -------------------------------------------------------------------


def test_graph6_c5_vector():
    assert graph6_encode(cycle(5)) == "Dhc"
    assert graph6_decode("Dhc").adj == cycle(5).adj
    # K2 and K3 with clean padding, next to the dirty ones rejected below
    assert graph6_decode("A_").adj == (2, 1)
    assert graph6_decode("Bw").adj == (6, 5, 3)


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
    # sparse6 and digraph6 prefixes fall outside the graph6 range
    with pytest.raises(GraphParseError, match="character ':' outside graph6 range"):
        graph6_decode(":Dhc")
    with pytest.raises(GraphParseError, match="character '&' outside graph6 range"):
        graph6_decode("&Dhc")


@pytest.mark.parametrize("text,message", [
    ("~", "truncated extended size prefix"),
    ("~?", "truncated extended size prefix"),
    ("~??", "truncated extended size prefix"),
    ("~~??????", "8-byte graph6 sizes"),
    ("A`", "nonzero padding bits"),
    ("A@", "nonzero padding bits"),
    ("B~", "nonzero padding bits"),
    ("@?", "expected 0 adjacency characters for n=1, got 1"),
], ids=["tilde", "tilde1", "tilde2", "8-byte", "A-backtick", "A-at", "B-tilde", "K1-extra"])
def test_graph6_malformed_prefixes_and_padding(text, message):
    with pytest.raises(GraphParseError, match=message):
        graph6_decode(text)


def test_graph6_encode_size_limit():
    with pytest.raises(ValueError, match="at most 258047 vertices"):
        graph6_encode(_graph_nocheck(258048, (0,) * 258048))


def test_empty_graph_everywhere():
    g = empty_graph(0)
    assert g.edge_count == 0
    assert graph6_decode(graph6_encode(g)).n == 0
    assert union(g, g).n == 0
    assert join(g, complete(2)).n == 2
    assert complement(g).n == 0
    assert induced(g, 0).n == 0
