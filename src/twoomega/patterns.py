"""Catalog of small named graphs and induced-subgraph detection.

The catalog is a fixed table of the patterns this package recognizes.
Detection is exhaustive search over injective maps, pruned by degrees and
per-level bitmask candidate filtering, so "first embedding" is the
lexicographically least image tuple and results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, bits, complement, complete, cycle, empty_graph, join, path, union


@dataclass(frozen=True)
class Pattern:
    id: str
    graph: Graph

    @property
    def order(self) -> int:
        return self.graph.n


@dataclass(frozen=True)
class PatternEmbedding:
    """Injective map pattern-vertex -> host-vertex witnessing an induced copy."""

    pattern_id: str
    map: tuple[int, ...]


@dataclass(frozen=True)
class ClassReport:
    """Membership verdict for the (p3up2, w4)-free class."""

    member: bool
    violations: tuple[PatternEmbedding, ...]


def _hvn() -> Graph:
    g = complete(4)
    return Graph.from_edges(5, list(g.edges()) + [(4, 0), (4, 1)])


def _paraglider() -> Graph:
    diamond = join(empty_graph(1), path(3))
    deg2 = [v for v in diamond.vertices() if diamond.degree(v) == 2]
    return Graph.from_edges(5, list(diamond.edges()) + [(4, deg2[0]), (4, deg2[1])])


def _four_triangle() -> Graph:
    # Triangle {0,1,2} plus independent tips 3,4,5; tip i is complete to a
    # distinct pair of triangle vertices (the 3-sun).
    return Graph.from_edges(
        6, [(0, 1), (0, 2), (1, 2), (3, 0), (3, 2), (4, 0), (4, 1), (5, 1), (5, 2)]
    )


_F1_EDGES = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (1, 4), (2, 5)]


def _f2() -> Graph:
    # 5-cycle 0-1-4-2-3-0 plus vertex 5 complete to {2,3,4}.
    return Graph.from_edges(
        6, [(0, 1), (1, 4), (4, 2), (2, 3), (3, 0), (5, 2), (5, 3), (5, 4)]
    )


def _build_catalog() -> dict[str, Pattern]:
    table: dict[str, Graph] = {
        "p2": path(2),
        "p3": path(3),
        "p4": path(4),
        "p5": path(5),
        "k3": complete(3),
        "c4": cycle(4),
        "c5": cycle(5),
        "k4": complete(4),
        "k5": complete(5),
        "p3up2": union(path(3), path(2)),
        "2k2": union(path(2), path(2)),
        "diamond": join(empty_graph(1), path(3)),
        "house": complement(path(5)),
        "hvn": _hvn(),
        "w4": join(empty_graph(1), cycle(4)),
        "w5": join(empty_graph(1), cycle(5)),
        "crown": join(empty_graph(1), Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])),
        "gem": join(empty_graph(1), path(4)),
        "paraglider": _paraglider(),
        "p2uk3": union(path(2), complete(3)),
        "2k3": union(complete(3), complete(3)),
        "p2uk4": union(path(2), complete(4)),
        "k1uk3": union(empty_graph(1), complete(3)),
        "four_triangle": _four_triangle(),
        "f1": Graph.from_edges(6, _F1_EDGES),
        "f2": _f2(),
        "f3": Graph.from_edges(6, [e for e in _F1_EDGES if e != (4, 5)]),
        "f4": Graph.from_edges(6, _F1_EDGES + [(2, 4)]),
        "hammer": Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]),
    }
    return {pid: Pattern(pid, g) for pid, g in table.items()}


PATTERNS: dict[str, Pattern] = _build_catalog()


# -- search engine --------------------------------------------------------

_PLANS: dict[tuple, tuple] = {}


def _plan(p: Pattern):
    """Per-level adjacency constraints, compiled once per pattern."""
    key = (p.id, p.graph.adj)
    plan = _PLANS.get(key)
    if plan is None:
        g = p.graph
        levels = []
        for i in range(g.n):
            adj_prev = tuple(j for j in range(i) if g.adj[i] >> j & 1)
            non_prev = tuple(j for j in range(i) if not g.adj[i] >> j & 1)
            levels.append((adj_prev, non_prev, g.adj[i].bit_count()))
        plan = tuple(levels)
        _PLANS[key] = plan
    return plan


def iter_induced(g: Graph, p: Pattern):
    """Yield all induced embeddings of p in g, in lexicographic image order."""
    k = p.order
    n = g.n
    if k > n:
        return
    plan = _plan(p)
    adj = g.adj
    full = (1 << n) - 1
    anti = [full & ~(adj[v] | 1 << v) for v in range(n)]
    deg_ok = []
    degs = [row.bit_count() for row in adj]
    for i in range(k):
        need = plan[i][2]
        m = 0
        for v in range(n):
            if degs[v] >= need:
                m |= 1 << v
        deg_ok.append(m)

    img = [0] * k
    cand = [0] * k
    used = 0
    cand[0] = deg_ok[0]
    level = 0
    while level >= 0:
        c = cand[level]
        if not c:
            level -= 1
            if level >= 0:
                used ^= 1 << img[level]
            continue
        b = c & -c
        cand[level] = c ^ b
        v = b.bit_length() - 1
        if level == k - 1:
            img[level] = v
            yield PatternEmbedding(p.id, tuple(img))
            continue
        img[level] = v
        used |= b
        nxt = level + 1
        adj_prev, non_prev, _ = plan[nxt]
        m = deg_ok[nxt] & ~used
        for j in adj_prev:
            m &= adj[img[j]]
        for j in non_prev:
            m &= anti[img[j]]
        cand[nxt] = m
        level = nxt


def find_induced(g: Graph, p: Pattern) -> PatternEmbedding | None:
    """Least induced embedding of p in g, or None."""
    return next(iter_induced(g, p), None)


def has_induced(g: Graph, p: Pattern) -> bool:
    return find_induced(g, p) is not None


# -- class membership -------------------------------------------------------


def _has_p3up2(g: Graph) -> bool:
    # An induced p3 a-b-c plus an edge inside M({a,b,c}).
    adj = g.adj
    full = g.full_mask
    nclosed = [adj[v] | 1 << v for v in range(g.n)]
    for b in range(g.n):
        nb = adj[b]
        for a in bits(nb):
            rest = nb & ~adj[a] & ~((1 << (a + 1)) - 1)
            for c in bits(rest):
                m = full & ~(nclosed[a] | nclosed[b] | nclosed[c])
                mm = m
                while mm:
                    lb = mm & -mm
                    w = lb.bit_length() - 1
                    if adj[w] & m & ~((lb << 1) - 1):
                        return True
                    mm ^= lb
    return False


def _has_w4(g: Graph) -> bool:
    # A hub whose neighborhood contains an induced 4-cycle.
    adj = g.adj
    for h in range(g.n):
        nh = adj[h]
        if nh.bit_count() < 4:
            continue
        for x in bits(nh):
            others = nh & ~adj[x] & ~((1 << (x + 1)) - 1)
            for z in bits(others):
                common = nh & adj[x] & adj[z]
                cc = common
                while cc:
                    lb = cc & -cc
                    y = lb.bit_length() - 1
                    if common & ~adj[y] & ~((lb << 1) - 1):
                        return True
                    cc ^= lb
    return False


def is_class_member(g: Graph) -> bool:
    """Fast presence-only membership check; agrees with class_membership."""
    return not _has_p3up2(g) and not _has_w4(g)


def class_membership(g: Graph) -> ClassReport:
    """Check (p3up2, w4)-freeness, with least violating embeddings on failure."""
    violations = []
    for pid in ("p3up2", "w4"):
        emb = find_induced(g, PATTERNS[pid])
        if emb is not None:
            violations.append(emb)
    return ClassReport(member=not violations, violations=tuple(violations))
