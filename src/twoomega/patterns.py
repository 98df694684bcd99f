"""Catalog of small named graphs and induced-subgraph detection.

The catalog is a fixed table of the patterns this package recognizes.
Detection is exhaustive search over injective maps, pruned by degrees and
per-level bitmask candidate filtering over per-graph facts (``host_facts``)
that several searches on one graph can share.  ``find_induced`` and
``iter_induced`` place pattern vertices in index order, so "first
embedding" is the lexicographically least image tuple and results are
reproducible.  ``has_induced`` only answers yes or no, so it uses a plan
compiled once per pattern: most-constrained vertex first, with the
pattern's automorphisms broken by ordering conditions on the images.

A pattern with a triangle also gets a rooted plan: one of its triangles
is the root, in each orientation its automorphisms do not identify, and
every other vertex carries a hit code (the root vertices it is adjacent
to).  ``first_present`` decides several such patterns in one pass over
the host's triangles: each triangle's eight hit classes (the vertices
adjacent to exactly a given subset of it) are computed once, and every
pattern still pending extends from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import NamedTuple

from .graphs import (
    Graph,
    bitmask,
    bits,
    complement,
    complete,
    cycle,
    empty_graph,
    join,
    path,
    triangles,
    union,
)


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


class HostFacts(NamedTuple):
    """Per-graph facts every search on one host shares, built once.

    ``anti[v]`` is M({v}), the vertices other than v not adjacent to it;
    ``deg_ge[d]`` is the set of vertices of degree at least d, for
    d = 0..n.
    """

    anti: list[int]
    deg_ge: list[int]


def host_facts(g: Graph) -> HostFacts:
    n = g.n
    full = (1 << n) - 1
    anti = []
    deg_ge = [0] * (n + 1)
    for v, row in enumerate(g.adj):
        anti.append(full & ~(row | 1 << v))
        deg_ge[row.bit_count()] |= 1 << v
    for d in range(n - 1, -1, -1):
        deg_ge[d] |= deg_ge[d + 1]
    return HostFacts(anti, deg_ge)


def _levels(p: Graph, order, below) -> tuple:
    """Search levels placing p's vertices in ``order``: per level, the
    vertex's degree, the earlier levels it is adjacent and non-adjacent
    to, and the earlier levels whose image must be smaller than its own."""
    levels = []
    for i, v in enumerate(order):
        adj_prev = tuple(j for j in range(i) if p.adj[v] >> order[j] & 1)
        non_prev = tuple(j for j in range(i) if not p.adj[v] >> order[j] & 1)
        levels.append((p.adj[v].bit_count(), adj_prev, non_prev, tuple(below[i])))
    return tuple(levels)


def _automorphisms(p: Graph) -> list[tuple[int, ...]]:
    adj = p.adj
    return [
        a
        for a in permutations(range(p.n))
        if all((adj[a[u]] >> a[w] & 1) == (adj[u] >> w & 1) for u in range(p.n) for w in range(u))
    ]


def _presence_levels(p: Graph, group: list, root: tuple[int, ...] = ()) -> tuple:
    """Levels for a yes/no search: the ``root`` vertices first, then the
    most-constrained vertex (most edges to placed vertices, then degree),
    and Grochow-Kellis symmetry breaking under the automorphisms of p in
    ``group`` that fix the root.  Walking the order, each vertex v must
    take a smaller image than every other vertex of its orbit under the
    automorphisms fixing the vertices before it; every induced copy of p
    with the root's images given has exactly one map meeting these
    conditions, so presence is unchanged."""
    order = list(root)
    placed = bitmask(root)
    while len(order) < p.n:
        v = max(
            (u for u in range(p.n) if not placed >> u & 1),
            key=lambda u: ((p.adj[u] & placed).bit_count(), p.adj[u].bit_count(), -u),
        )
        order.append(v)
        placed |= 1 << v
    below: list[list[int]] = [[] for _ in order]
    group = [a for a in group if all(a[r] == r for r in root)]
    for i, v in enumerate(order):
        # Earlier vertices are fixed by ``group``, so the orbit lies later.
        for w in {a[v] for a in group} - {v}:
            below[order.index(w)].append(i)
        group = [a for a in group if a[v] == v]
    # Drop a bound implied by another through the earlier levels' bounds.
    implied: list[set[int]] = []
    for i, js in enumerate(below):
        implied.append(set().union(*(implied[j] | {j} for j in js)))
        below[i] = [j for j in js if not any(j in implied[jj] for jj in js)]
    return _levels(p, order, below)


def _rooted_plan(p: Graph, group: list) -> tuple | None:
    """The rooted plan of p, or None when p has no triangle.

    One triangle t of p is the root: the one with the fewest orientations,
    that is, maps of t onto a host triangle's slots (a, b, c), a < b < c,
    distinct under the automorphisms of p that fix t as a set.  Per
    orientation, the plan holds the mask of hit codes it needs and one
    level per remaining vertex, in presence order: its hit code (bit s set
    when it is adjacent to the root vertex in slot s), its degree, the
    earlier remaining levels it is adjacent and non-adjacent to, and those
    whose image must be smaller than its own."""
    tris = [
        t for t in combinations(range(p.n), 3)
        if all(p.adj[u] >> w & 1 for u, w in combinations(t, 2))
    ]
    if not tris:
        return None
    best: tuple = ()
    for t in tris:
        stab = [a for a in group if {a[v] for v in t} == set(t)]
        seen: set[tuple[int, ...]] = set()
        reps = []
        for o in permutations(t):
            if o not in seen:
                reps.append(o)
                seen.update(tuple(a[v] for v in o) for a in stab)
        if not best or len(reps) < len(best[1]):
            best = (t, reps)
    t, reps = best
    rest = _presence_levels(p, group, t)[3:]
    plan = []
    for o in reps:
        slot = [o.index(r) for r in t]
        levels = tuple(
            (
                sum(1 << slot[j] for j in adj_prev if j < 3),
                degree,
                tuple(j - 3 for j in adj_prev if j >= 3),
                tuple(j - 3 for j in non_prev if j >= 3),
                tuple(j - 3 for j in below),
            )
            for degree, adj_prev, non_prev, below in rest
        )
        plan.append((bitmask(level[0] for level in levels), levels))
    return tuple(plan)


_PLANS: dict[tuple, tuple] = {}


def _plan(p: Pattern) -> tuple:
    """(lexicographic levels, presence levels, rooted plan), compiled once
    per pattern."""
    key = (p.id, p.graph.adj)
    plan = _PLANS.get(key)
    if plan is None:
        g = p.graph
        group = _automorphisms(g)
        plan = (
            _levels(g, range(g.n), [()] * g.n),
            _presence_levels(g, group),
            _rooted_plan(g, group),
        )
        _PLANS[key] = plan
    return plan


def _search(g: Graph, levels: tuple, facts: HostFacts | None):
    """Yield the image tuples (in level order) of every map placing the
    levels' vertices injectively on g with the levels' adjacency,
    non-adjacency and ordering constraints, least candidate first."""
    k = len(levels)
    if k > g.n:
        return
    adj = g.adj
    anti, deg_ge = facts or host_facts(g)

    img = [0] * k
    cand = [0] * k
    used = 0
    cand[0] = deg_ge[levels[0][0]]
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
        img[level] = b.bit_length() - 1
        if level == k - 1:
            yield tuple(img)
            continue
        used |= b
        level += 1
        degree, adj_prev, non_prev, below = levels[level]
        m = deg_ge[degree] & ~used
        for j in adj_prev:
            m &= adj[img[j]]
        for j in non_prev:
            m &= anti[img[j]]
        for j in below:
            m &= -(2 << img[j])
        cand[level] = m


def iter_induced(g: Graph, p: Pattern, facts: HostFacts | None = None):
    """Yield all induced embeddings of p in g, in lexicographic image order."""
    for img in _search(g, _plan(p)[0], facts):
        yield PatternEmbedding(p.id, img)


def find_induced(
    g: Graph, p: Pattern, facts: HostFacts | None = None
) -> PatternEmbedding | None:
    """Least induced embedding of p in g, or None."""
    return next(iter_induced(g, p, facts), None)


def has_induced(g: Graph, p: Pattern, facts: HostFacts | None = None) -> bool:
    """Whether g has an induced copy of p, by the presence plan: the same
    answer as ``find_induced``, usually from far fewer search nodes."""
    return next(_search(g, _plan(p)[1], facts), None) is not None


# -- triangle-rooted presence ------------------------------------------------


def _hit_classes(g: Graph, a: int, b: int, c: int) -> tuple[int, ...]:
    """The vertices outside the triangle (a, b, c) by the slots they are
    adjacent to: entry ``code`` holds those adjacent to exactly the slots
    whose bits are set in code (bit 0 for a, 1 for b, 2 for c)."""
    adj = g.adj
    na, nb, nc = adj[a], adj[b], adj[c]
    rest = g.full_mask & ~(1 << a | 1 << b | 1 << c)
    x0, x1 = rest & ~na, rest & na
    y0, y1, y2, y3 = x0 & ~nb, x1 & ~nb, x0 & nb, x1 & nb
    return (y0 & ~nc, y1 & ~nc, y2 & ~nc, y3 & ~nc, y0 & nc, y1 & nc, y2 & nc, y3 & nc)


def _extends(levels: tuple, classes: tuple[int, ...], adj, facts: HostFacts) -> bool:
    """Whether the remaining levels of one root orientation place on the
    host from the hit classes of a host triangle."""
    anti, deg_ge = facts
    k = len(levels)
    if not k:
        return True
    img = [0] * k
    cand = [0] * k
    used = 0
    cand[0] = classes[levels[0][0]] & deg_ge[levels[0][1]]
    level = 0
    while level >= 0:
        c = cand[level]
        if not c:
            level -= 1
            if level >= 0:
                used ^= 1 << img[level]
            continue
        if level == k - 1:
            return True
        b = c & -c
        cand[level] = c ^ b
        img[level] = b.bit_length() - 1
        used |= b
        level += 1
        code, degree, adj_prev, non_prev, below = levels[level]
        m = classes[code] & deg_ge[degree] & ~used
        for j in adj_prev:
            m &= adj[img[j]]
        for j in non_prev:
            m &= anti[img[j]]
        for j in below:
            m &= -(2 << img[j])
        cand[level] = m
    return False


def first_present(
    g: Graph, patterns: list[Pattern], facts: HostFacts | None = None
) -> tuple[int, int]:
    """Index of the first of ``patterns`` (each containing a triangle) with
    an induced copy in g, or ``len(patterns)`` when none has one; and the
    vertices with a triangle in their non-neighborhood.

    Every copy maps its pattern's root triangle onto a host triangle, so
    one pass over the host's triangles decides all the patterns: each
    triangle's hit classes are computed once, and only the patterns ahead
    of the first one found so far are tried from them."""
    plans = [_plan(p)[2] for p in patterns]
    facts = facts or host_facts(g)
    adj = g.adj
    best = len(plans)
    k1 = 0
    for a, b, c in triangles(g):
        classes = _hit_classes(g, a, b, c)
        k1 |= classes[0]
        empty = 0  # the hit codes whose class is empty
        for code, cls in enumerate(classes):
            if not cls:
                empty |= 1 << code
        for i in range(best):
            for need, levels in plans[i]:
                if not need & empty and _extends(levels, classes, adj, facts):
                    best = i
                    break
            if best == i:
                break
        if not best:
            break
    return best, k1


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
    facts = host_facts(g)
    violations = []
    for pid in ("p3up2", "w4"):
        emb = find_induced(g, PATTERNS[pid], facts)
        if emb is not None:
            violations.append(emb)
    return ClassReport(member=not violations, violations=tuple(violations))
