"""Catalog of small named graphs and induced-subgraph detection.

The catalog is a fixed table of the 14 patterns the package reads: the
class's forbidden graphs p3up2 and w4 and the colorer's band triggers.
Detection is one exhaustive search loop over injective maps, pruned by
degree windows and per-level bitmask candidate filtering; its one
per-graph fact, the degree-threshold masks (``host_facts``), is built once
and shared by several searches on one graph.  Each search level draws its candidates from one of a few vertex
classes of the host.  ``find_induced`` places pattern vertices in index
order, so its embedding is the lexicographically least image tuple and
results are reproducible.  ``has_induced`` only answers yes or no, so it
uses a plan compiled once per pattern: most-constrained vertex first,
with the pattern's automorphisms broken by ordering conditions on the
images.  The automorphisms are the pattern's induced embeddings into
itself, found by the same search.

The degree window: in a k-vertex pattern, a vertex of degree d has
q = k - 1 - d non-neighbors.  In an induced copy its image is adjacent to
the d images of its neighbors and non-adjacent to the q images of its
non-neighbors, all distinct host vertices, so in an n-vertex host the
image's degree lies between d and n - 1 - q.  A host vertex outside that
window is the image of that vertex in no induced copy, so dropping it
removes no map the search would yield: the embeddings, their order and
every answer stay the same.  (The upper end holds for induced copies
only; a subgraph search could not use it.)

A pattern with a triangle also gets a rooted plan: one of its triangles
is the root, in each orientation its automorphisms do not identify, and
every other vertex carries a hit code (the root vertices it is adjacent
to); each orientation also lists the hit codes its levels use.
``first_present`` decides several such patterns in one pass over the
host's triangles a < b < c.  The eight hit classes of a triangle (the
vertices adjacent to exactly a given subset of it) are the search's
vertex classes: per edge ab the walk splits the other vertices once by
adjacency to a and b, and per c it cuts those four sets by N(c).  Every
pattern still pending extends from them, each orientation only when all
the classes it lists are nonempty.

The detectors answer yes or no from a local form of each forbidden graph
and of each omega >= 5 trigger, with the mask helpers of ``graphs`` that
the colorer's proof checks also use.  Two loops serve them: the edge split
visits M({x, y}), the vertices adjacent to neither, for each edge xy with
at least three vertices there, and the hub split visits N(h) for each hub
h with at least as many neighbors as the pattern has rim vertices.

- G has an induced p3up2 iff some edge xy has an induced p3 in M({x, y}).
  The p2 of a copy is such an edge and its p3 lies in M({x, y});
  conversely, an induced p3 there and the edge xy induce p3up2.  So
  ``_has_p3up2`` asks ``clique_components`` about each M({x, y}).
- G has an induced p2uk3 iff some edge xy has a triangle in M({x, y}), by
  the same argument with k3 for p3: a triangle anticomplete to an edge
  induces p2uk3.  So ``_has_p2uk3`` asks ``least_triangle_in``.
- G has an induced w4 iff some N(h) has an induced c4: the hub and its
  rim.  So ``_has_w4`` asks ``c4_in`` about each N(h) with at least four
  vertices.  ``c4_in`` skips a common neighborhood equal to the last one
  it found to be a clique, which loses no c4, since a clique stays one.
- G has an induced w5 iff some N(h) has an induced c5, for the same
  reason: the hub is adjacent to its whole rim.  So ``_has_w5`` asks
  ``c5_in`` about each N(h) with at least five vertices.  ``c5_in`` walks
  only what is left of N(h) after dropping, round by round, each vertex
  with fewer than two non-neighbors left there; that loses no c5, since
  each rim vertex has two non-neighbors on the rim, and on a clique
  nothing is left.

``class_membership`` runs the lexicographic search for a pattern they
find, so no report depends on how a detector found its pattern.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, permutations
from typing import NamedTuple

from .graphs import (
    Graph,
    bitmask,
    c4_in,
    c5_in,
    clique_components,
    complete,
    cycle,
    empty_graph,
    join,
    least_triangle_in,
    path,
    union,
)


class Pattern(NamedTuple):
    id: str
    graph: Graph


class PatternEmbedding(NamedTuple):
    """Injective map pattern-vertex -> host-vertex witnessing an induced copy."""

    pattern_id: str
    map: tuple[int, ...]


class ClassReport(NamedTuple):
    """Membership verdict for the (p3up2, w4)-free class."""

    member: bool
    violations: tuple[PatternEmbedding, ...]


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
        "p3up2": union(path(3), path(2)),
        "w4": join(empty_graph(1), cycle(4)),
        "w5": join(empty_graph(1), cycle(5)),
        "gem": join(empty_graph(1), path(4)),
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


def host_facts(g: Graph) -> list[int]:
    """The degree-threshold masks of g: entry d is the set of vertices of
    degree at least d, for d = 0..n.  Every search on one host can share
    them."""
    n = g.n
    deg_ge = [0] * (n + 1)
    for v, row in enumerate(g.adj):
        deg_ge[row.bit_count()] |= 1 << v
    for d in range(n - 1, -1, -1):
        deg_ge[d] |= deg_ge[d + 1]
    return deg_ge


def _levels(p: Graph, order, below) -> tuple:
    """Unrooted search levels placing p's vertices in ``order``: per level,
    class code 0 (the whole host), the vertex's degree window as its degree
    d and its non-neighbor count q = p.n - 1 - d (an image's degree lies
    between d and n - 1 - q in an n-vertex host), the earlier levels it is
    adjacent and non-adjacent to, and the earlier levels whose image must
    be smaller than its own."""
    levels = []
    for i, v in enumerate(order):
        degree = p.adj[v].bit_count()
        adj_prev = tuple(j for j in range(i) if p.adj[v] >> order[j] & 1)
        non_prev = tuple(j for j in range(i) if not p.adj[v] >> order[j] & 1)
        levels.append((0, degree, p.n - 1 - degree, adj_prev, non_prev, tuple(below[i])))
    return tuple(levels)


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
    orientation, the plan holds the hit codes its levels use, as a sorted
    tuple (``first_present`` tests each of those classes for emptiness
    before it searches), and one level per remaining vertex, in presence
    order: its hit code (bit s set when it is adjacent to the root vertex
    in slot s), its degree window (degree d and non-neighbor count q, both
    counted in all of p, root included, so the window bounds the image's
    degree in the whole host), the earlier remaining levels it is adjacent
    and non-adjacent to, and those whose image must be smaller than its
    own: the levels of ``_search``, with the hit code as class code."""
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
                q,
                tuple(j - 3 for j in adj_prev if j >= 3),
                tuple(j - 3 for j in non_prev if j >= 3),
                tuple(j - 3 for j in below),
            )
            for _, degree, q, adj_prev, non_prev, below in rest
        )
        plan.append((tuple(sorted({level[0] for level in levels})), levels))
    return tuple(plan)


@cache
def _plan(p: Pattern) -> tuple:
    """(lexicographic levels, presence levels, rooted plan), compiled once
    per pattern."""
    g = p.graph
    lex = _levels(g, range(g.n), [()] * g.n)
    # The automorphisms of g are its induced embeddings into itself.
    group = list(_search(g, lex, (g.full_mask,), host_facts(g)))
    return lex, _presence_levels(g, group), _rooted_plan(g, group)


def _search(g: Graph, levels: tuple, classes: tuple[int, ...], facts: list[int] | None):
    """Yield the image tuples (in level order) of every map placing the
    levels' vertices injectively on g with the levels' adjacency,
    non-adjacency and ordering constraints, least candidate first.  A
    level with class code ``code`` places its vertex in ``classes[code]``;
    unrooted levels all have code 0 and take ``(g.full_mask,)``.  Rooted
    levels take a host triangle's eight hit classes and leave out the
    pattern's three root vertices.

    Each level's candidates also lie in its degree window: in ``deg_ge[d]``
    and outside ``deg_ge[n - q]`` (the vertices with fewer than q
    non-neighbors); no image of an induced copy lies outside it.  A
    pattern with more vertices than g has no copy; ruling that out once
    per call keeps every q below n, so no window index falls under 1."""
    n = g.n
    k = len(levels)
    if k + 3 * (len(classes) == 8) > n:
        return
    if not k:
        yield ()
        return
    adj = g.adj
    deg_ge = facts or host_facts(g)

    img = [0] * k
    cand = [0] * k
    used = 0
    code, degree, q = levels[0][:3]
    cand[0] = classes[code] & deg_ge[degree] & ~deg_ge[n - q]
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
        code, degree, q, adj_prev, non_prev, below = levels[level]
        m = classes[code] & deg_ge[degree] & ~(used | deg_ge[n - q])
        for j in adj_prev:
            m &= adj[img[j]]
        for j in non_prev:
            # m lies in the host and excludes every placed image, so this
            # leaves M({img[j]}) within m
            m &= ~adj[img[j]]
        for j in below:
            m &= -(2 << img[j])
        cand[level] = m


def find_induced(
    g: Graph, p: Pattern, facts: list[int] | None = None
) -> PatternEmbedding | None:
    """Least induced embedding of p in g, or None."""
    img = next(_search(g, _plan(p)[0], (g.full_mask,), facts), None)
    return None if img is None else PatternEmbedding(p.id, img)


def has_induced(g: Graph, p: Pattern) -> bool:
    """Whether g has an induced copy of p, by the presence plan: the same
    answer as ``find_induced``, usually from far fewer search nodes."""
    return next(_search(g, _plan(p)[1], (g.full_mask,), None), None) is not None


# -- triangle-rooted presence ------------------------------------------------


def rooted_plans(patterns) -> tuple:
    """The rooted plans of ``patterns`` (each containing a triangle), the
    form ``first_present`` takes them in: per pattern, one (needed hit
    codes, levels) pair per root orientation."""
    return tuple(_plan(p)[2] for p in patterns)


def first_present(g: Graph, plans: tuple, facts: list[int]) -> int:
    """Index of the first pattern with an induced copy in g, the patterns
    given by their ``rooted_plans``, or ``len(plans)`` when none has one;
    ``facts`` are g's ``host_facts``.

    Every copy maps its pattern's root triangle onto a host triangle, so
    one pass over the host's triangles (a, b, c), a < b < c, in
    lexicographic order decides all the patterns.  Per edge ab the walk
    splits the other vertices once by adjacency to a and b; per c the
    eight hit classes are those four sets cut by N(c) and its complement.
    Only the patterns ahead of the first one found so far are tried, and an
    orientation's search starts only when every hit class it needs is
    nonempty: a level drawing from an empty class has no candidate."""
    adj = g.adj
    full = g.full_mask
    best = len(plans)
    above_a = full
    while above_a:
        la = above_a & -above_a
        above_a ^= la
        na = adj[la.bit_length() - 1]
        above_b = na & above_a
        while above_b:
            lb = above_b & -above_b
            above_b ^= lb
            nb = adj[lb.bit_length() - 1]
            # The vertices other than a and b adjacent to neither, to a
            # only, to b only and to both (a lies in N(b), b in N(a)).
            neither = full & ~(na | nb)
            a_only = na & ~nb & ~lb
            b_only = nb & ~na & ~la
            both = na & nb
            cs = both & above_b
            while cs:
                lc = cs & -cs
                cs ^= lc
                nc = adj[lc.bit_length() - 1]
                off = ~nc
                classes = (
                    neither & off, a_only & off, b_only & off, both & off & ~lc,
                    neither & nc, a_only & nc, b_only & nc, both & nc,
                )
                for i in range(best):
                    for need, levels in plans[i]:
                        for code in need:
                            if not classes[code]:
                                break
                        else:
                            if next(_search(g, levels, classes, facts), None) is not None:
                                best = i
                                break
                    if best == i:
                        break
                if not best:
                    return best
    return best


# -- detectors and class membership -----------------------------------------


def _any_edge_split(g: Graph, found) -> bool:
    """Whether found(g, M({x, y})) holds for some edge xy whose M({x, y})
    has at least three vertices: the one loop of the edge-split detectors."""
    adj = g.adj
    full = g.full_mask
    for x in range(g.n):
        nx = adj[x] | 1 << x
        ry = adj[x] & ~((2 << x) - 1)  # x's neighbors above x
        while ry:
            ly = ry & -ry
            ry ^= ly
            m = full & ~(nx | adj[ly.bit_length() - 1] | ly)
            if m.bit_count() >= 3 and found(g, m):
                return True
    return False


def _any_hub_split(g: Graph, size: int, found) -> bool:
    """Whether found(g, N(h)) holds for some hub h with at least ``size``
    neighbors: the one loop of the hub-split detectors."""
    for row in g.adj:
        if row.bit_count() >= size and found(g, row):
            return True
    return False


def _has_p3up2(g: Graph) -> bool:
    # An edge xy with an induced p3 in M({x, y}).
    return _any_edge_split(g, lambda g, m: clique_components(g, m) is None)


def _has_p2uk3(g: Graph) -> bool:
    # An edge xy with a triangle in M({x, y}).
    return _any_edge_split(g, lambda g, m: least_triangle_in(g, m) is not None)


def _has_w4(g: Graph) -> bool:
    # A hub whose neighborhood holds an induced c4.
    return _any_hub_split(g, 4, c4_in)


def _has_w5(g: Graph) -> bool:
    # A hub whose neighborhood holds an induced c5.
    return _any_hub_split(g, 5, c5_in)


# The patterns with a local yes/no detector: the class's forbidden graphs
# and the omega >= 5 band's triggers.
DETECTORS = {"p3up2": _has_p3up2, "w4": _has_w4, "p2uk3": _has_p2uk3, "w5": _has_w5}


def is_class_member(g: Graph) -> bool:
    """Fast presence-only membership check; agrees with class_membership."""
    return not _has_p3up2(g) and not _has_w4(g)


def class_membership(g: Graph) -> ClassReport:
    """Check (p3up2, w4)-freeness, with least violating embeddings on
    failure.  The fast detectors decide; the lexicographic search runs
    only for a pattern they found."""
    violations = [
        find_induced(g, PATTERNS[pid]) for pid in ("p3up2", "w4") if DETECTORS[pid](g)
    ]
    return ClassReport(member=not violations, violations=tuple(violations))
