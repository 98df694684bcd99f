from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import strategies as st

from twoomega.graphs import Graph, bits, induced
from twoomega.patterns import PATTERNS, Pattern, PatternEmbedding


def rand_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner, name="petersen")


def all_graphs(n: int):
    """Every labeled graph on n vertices."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        edges = [pairs[t] for t in range(len(pairs)) if mask >> t & 1]
        yield Graph.from_edges(n, edges)


# -- naive oracles (independent of the library's solvers) ---------------------


def naive_k_colorable(g: Graph, k: int) -> bool:
    """Plain backtracking over vertices 0..n-1 with colors 1..k; no bounds,
    no ordering heuristics, no symmetry breaking."""
    colors = [0] * g.n

    def rec(i: int) -> bool:
        if i == g.n:
            return True
        below = g.adj[i] & ((1 << i) - 1)
        for c in range(1, k + 1):
            if all(colors[w] != c for w in bits(below)):
                colors[i] = c
                if rec(i + 1):
                    return True
        colors[i] = 0
        return False

    return rec(0)


def naive_chromatic(g: Graph) -> int:
    """Exhaustive k-ascending search."""
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        if naive_k_colorable(g, k):
            return k
    raise AssertionError("unreachable: n colors always suffice")


def verify_embedding(g: Graph, emb: PatternEmbedding) -> bool:
    """Check that the map is an induced-subgraph isomorphism (edges and non-edges)."""
    p = PATTERNS[emb.pattern_id]
    m = emb.map
    if len(m) != p.order or len(set(m)) != len(m):
        return False
    for i in range(p.order):
        for j in range(i):
            if bool(p.graph.adj[i] >> j & 1) != bool(g.adj[m[i]] >> m[j] & 1):
                return False
    return True


def induced_isomorphic(a: Graph, b: Graph) -> bool:
    """Isomorphism test for small graphs by degree-pruned backtracking."""
    if a.n != b.n or a.edge_count != b.edge_count:
        return False
    deg_a = sorted(a.degree(v) for v in a.vertices())
    deg_b = sorted(b.degree(v) for v in b.vertices())
    if deg_a != deg_b:
        return False

    n = a.n
    used = [False] * n
    assign = [0] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        da = a.adj[i]
        for w in range(n):
            if used[w] or a.degree(i) != b.degree(w):
                continue
            ok = True
            for j in range(i):
                if bool(da >> j & 1) != bool(b.adj[w] >> assign[j] & 1):
                    ok = False
                    break
            if ok:
                assign[i] = w
                used[w] = True
                if extend(i + 1):
                    return True
                used[w] = False
        return False

    return extend(0)


def count_induced(g: Graph, p: Pattern) -> int:
    """Number of vertex subsets of g inducing a copy of p (not maps): the
    dumb route (enumerate subsets, isomorphism-check each), kept as an
    oracle independent of the library's search engine."""
    k = p.order
    if k > g.n:
        return 0
    count = 0
    for subset in itertools.combinations(range(g.n), k):
        if induced_isomorphic(induced(g, subset), p.graph):
            count += 1
    return count


@st.composite
def graph_strategy(draw, max_n: int = 8):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [pairs[t] for t in range(len(pairs)) if picks[t]]
    return Graph.from_edges(n, edges)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
