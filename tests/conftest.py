from __future__ import annotations

import itertools
import random
from functools import cache

import pytest
from hypothesis import strategies as st

from twoomega.graphs import (
    Graph,
    bitmask,
    bits,
    complete,
    cycle,
    empty_graph,
    induced,
    join,
    path,
    triangles,
    union,
)
from twoomega.oracles import Coloring
from twoomega.patterns import PATTERNS, Pattern, PatternEmbedding, _search


# -- search-engine fixtures ---------------------------------------------------
#
# Small named graphs the package does not read, kept to exercise the search
# engine on more shapes (long paths, cycles, big cliques, symmetric gadgets)
# than the catalog's 14 patterns.  ALL_PATTERNS is what the whole-catalog
# tests check.


def _hvn() -> Graph:
    g = complete(4)
    return Graph.from_edges(5, list(g.edges()) + [(4, 0), (4, 1)])


def _paraglider() -> Graph:
    diamond = join(empty_graph(1), path(3))
    deg2 = [v for v in range(diamond.n) if diamond.adj[v].bit_count() == 2]
    return Graph.from_edges(5, list(diamond.edges()) + [(4, deg2[0]), (4, deg2[1])])


FIXTURE_PATTERNS: dict[str, Pattern] = {
    pid: Pattern(pid, g)
    for pid, g in {
        "p2": path(2),
        "p3": path(3),
        "p4": path(4),
        "p5": path(5),
        "k3": complete(3),
        "k4": complete(4),
        "k5": complete(5),
        "c4": cycle(4),
        "c5": cycle(5),
        "2k2": union(path(2), path(2)),
        "diamond": join(empty_graph(1), path(3)),
        "house": Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)]),
        "hvn": _hvn(),
        "crown": join(empty_graph(1), Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])),
        "paraglider": _paraglider(),
    }.items()
}
ALL_PATTERNS: dict[str, Pattern] = PATTERNS | FIXTURE_PATTERNS


def rand_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def complement(g: Graph) -> Graph:
    """The graph on g's vertices whose edges are g's non-edges."""
    full = g.full_mask
    return Graph(g.n, tuple(full & ~(row | 1 << v) for v, row in enumerate(g.adj)))


def coin_submask(g: Graph, salt: int = 0, p: float = 0.6) -> int:
    """A random vertex subset of g: one coin per vertex, all drawn from one
    Random seeded by g's rows and the salt, so the draw is reproducible."""
    rng = random.Random(hash((g.adj, salt)))
    return bitmask(v for v in range(g.n) if rng.random() < p)


def clique_blowup(g: Graph, k: int) -> Graph:
    """g with every vertex v replaced by the k-clique on k*v .. k*v + k - 1;
    two vertices of different cliques are adjacent when their originals are."""
    block = (1 << k) - 1
    rows = []
    for v, row in enumerate(g.adj):
        out = 0
        for u in bits(row):
            out |= block << k * u
        rows += [out | (block << k * v & ~(1 << k * v + i)) for i in range(k)]
    return Graph(g.n * k, tuple(rows))


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


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


def validate_coloring(g: Graph, c: Coloring) -> tuple[bool, tuple[int, int] | None]:
    """True iff proper; otherwise False with the first monochromatic edge.
    The tests' properness reference, separate from ``check_certificate``."""
    if len(c.colors) != g.n:
        raise ValueError(f"coloring covers {len(c.colors)} vertices, graph has {g.n}")
    for v, col in enumerate(c.colors):
        if not isinstance(col, int) or col < 1:
            raise ValueError(f"vertex {v} has invalid color {col!r}")
    for u, v in g.edges():
        if c.colors[u] == c.colors[v]:
            return False, (u, v)
    return True, None


def naive_clique_number(g: Graph) -> int:
    """Largest k such that some k vertices are pairwise adjacent: plain
    subset enumeration from k = n down, no bounds, no ordering."""
    for k in range(g.n, 0, -1):
        for subset in itertools.combinations(range(g.n), k):
            if all(g.adj[u] >> v & 1 for u, v in itertools.combinations(subset, 2)):
                return k
    return 0


def verify_embedding(g: Graph, emb: PatternEmbedding) -> bool:
    """Check that the map is an induced-subgraph isomorphism (edges and non-edges)."""
    p = ALL_PATTERNS[emb.pattern_id]
    m = emb.map
    if len(m) != p.graph.n or len(set(m)) != len(m):
        return False
    for i in range(p.graph.n):
        for j in range(i):
            if bool(p.graph.adj[i] >> j & 1) != bool(g.adj[m[i]] >> m[j] & 1):
                return False
    return True


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Every vertex permutation of g that preserves adjacency, by brute
    force over all n! permutations, in lexicographic order."""
    adj = g.adj
    return [
        a
        for a in itertools.permutations(range(g.n))
        if all((adj[a[u]] >> a[w] & 1) == (adj[u] >> w & 1) for u in range(g.n) for w in range(u))
    ]


def induced_isomorphic(a: Graph, b: Graph) -> bool:
    """Isomorphism test for small graphs by degree-pruned backtracking."""
    if a.n != b.n or a.edge_count != b.edge_count:
        return False
    deg_a = sorted(row.bit_count() for row in a.adj)
    deg_b = sorted(row.bit_count() for row in b.adj)
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
            if used[w] or da.bit_count() != b.adj[w].bit_count():
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
    k = p.graph.n
    if k > g.n:
        return 0
    count = 0
    for subset in itertools.combinations(range(g.n), k):
        if induced_isomorphic(induced(g, bitmask(subset)), p.graph):
            count += 1
    return count


def least_embedding(g: Graph, p: Pattern) -> tuple[int, ...] | None:
    """The least induced embedding of p in g, as its image tuple: plain
    backtracking over p's vertices in index order with host vertices
    ascending, each checked against the placed ones and nothing else, so
    the first complete map is the least of all injective maps that are
    induced embeddings."""
    img: list[int] = []

    def extend() -> bool:
        i = len(img)
        if i == p.graph.n:
            return True
        for w in range(g.n):
            if w not in img and all(
                (p.graph.adj[i] >> j & 1) == (g.adj[w] >> img[j] & 1) for j in range(i)
            ):
                img.append(w)
                if extend():
                    return True
                img.pop()
        return False

    return tuple(img) if extend() else None


# The colorer's dispatch as it was before presence gating: every row of the
# band runs its full lexicographic probe, in the paper's order, and the first
# row with an anchor fires.
REFERENCE_BANDS = (
    (("B0", None),),
    (("OMEGA2", None),),
    (("J1", "p2uk3"), ("J2", "f1"), ("J3", "f2"), ("J4", "f3"), ("J5", "f4"),
     ("J6", "hammer"), ("J7", "k1uk3"), ("J8", None)),
    (("H1", "2k3"), ("H2", "p2uk4"), ("H3", "p2uk3"), ("H4", "four_triangle"),
     ("H5", "gem"), ("H6", None)),
    (("G1", "w5"), ("G2", "p2uk3"), ("G3", None)),
)


def _j7_anchor(g: Graph):
    """Least k1uk3 anchor (v, t1, t2, t3), preferring a non-isolated v, by
    a triangle search in M(v) for each v in turn; None without k1uk3."""
    from twoomega.graphs import least_triangle_in

    for isolated_pass in (False, True):
        for v in range(g.n):
            if (g.adj[v] == 0) != isolated_pass:
                continue
            tri = least_triangle_in(g, g.full_mask & ~(g.adj[v] | 1 << v))
            if tri is not None:
                return (v, *tri)
    return None


def reference_branch(g: Graph, omega: int):
    """The BranchChoice of the ungated dispatch walk over REFERENCE_BANDS."""
    from twoomega.colorer import BranchChoice
    from twoomega.graphs import first_edge_in
    from twoomega.patterns import find_induced

    for branch_id, pid in REFERENCE_BANDS[min(max(omega, 1), 5) - 1]:
        if branch_id == "J7":
            anchor = _j7_anchor(g)
        elif branch_id == "G3":
            anchor = first_edge_in(g, g.full_mask)
        elif pid is None:
            anchor = ()
        else:
            emb = find_induced(g, PATTERNS[pid])
            anchor = None if emb is None else emb.map
        if anchor is not None:
            return BranchChoice(branch_id, anchor)
    raise AssertionError(f"no branch fired for omega={omega}")


# -- reference kernels -----------------------------------------------------------
#
# The solvers', detectors' and checker's hot loops as they were written with
# generators, kept to pin that the tight bit loops in the package enumerate
# in the same order: every result, witness and tie-break must match.


def ref_clique_number(g: Graph) -> tuple[int, tuple[int, ...]]:
    n = g.n
    if n == 0:
        return 0, ()
    adj = g.adj
    best_set = 1
    best = 1

    def color_bound(cand: int) -> list[tuple[int, int]]:
        out = []
        k = 0
        rest = cand
        while rest:
            k += 1
            avail = rest
            while avail:
                b = avail & -avail
                v = b.bit_length() - 1
                out.append((v, k))
                avail &= ~adj[v] & ~b
                rest ^= b
        return out

    def expand(r_mask: int, r_size: int, cand: int):
        nonlocal best, best_set
        ordered = color_bound(cand)
        for v, bound in reversed(ordered):
            if r_size + bound <= best:
                return
            b = 1 << v
            cand &= ~b
            new_cand = cand & adj[v]
            if r_size + 1 > best:
                best = r_size + 1
                best_set = r_mask | b
            if new_cand:
                expand(r_mask | b, r_size + 1, new_cand)

    expand(0, 0, (1 << n) - 1)
    return best, tuple(bits(best_set))


def ref_greedy_coloring(g: Graph) -> tuple[int, ...]:
    n = g.n
    adj = g.adj
    colors = [0] * n
    nbr_used = [0] * n
    degs = [adj[v].bit_count() for v in range(n)]
    uncolored = set(range(n))
    for _ in range(n):
        v = max(uncolored, key=lambda u: (nbr_used[u].bit_count(), degs[u], -u))
        c = 0
        while nbr_used[v] >> c & 1:
            c += 1
        colors[v] = c + 1
        uncolored.remove(v)
        for w in bits(adj[v]):
            nbr_used[w] |= 1 << c
    return tuple(colors)


def ref_k_colorable(g: Graph, k: int, clique: tuple[int, ...]) -> list[int] | None:
    n = g.n
    adj = g.adj
    colors = [0] * n
    nbr_used = [0] * n
    degs = [adj[v].bit_count() for v in range(n)]
    kmask = (1 << k) - 1
    pre = list(clique[:k])
    for i, v in enumerate(pre):
        colors[v] = i + 1
        for w in bits(adj[v]):
            nbr_used[w] |= 1 << i
    uncolored = [v for v in range(n) if not colors[v]]
    if not uncolored:
        return colors

    def choose():
        bestv = -1
        key = (-1, -1, 0)
        for v in uncolored:
            cand = ((nbr_used[v] & kmask).bit_count(), degs[v], -v)
            if cand > key:
                key = cand
                bestv = v
        return bestv

    def dive(max_used: int) -> bool:
        if not uncolored:
            return True
        v = choose()
        limit = min(k, max_used + 1)
        avail = ~nbr_used[v] & ((1 << limit) - 1)
        if not avail:
            return False
        uncolored.remove(v)
        while avail:
            b = avail & -avail
            avail ^= b
            c = b.bit_length() - 1
            colors[v] = c + 1
            touched = []
            for w in bits(adj[v]):
                if not nbr_used[w] >> c & 1:
                    nbr_used[w] |= b
                    touched.append(w)
            if dive(max(max_used, c + 1)):
                return True
            for w in touched:
                nbr_used[w] ^= b
        colors[v] = 0
        uncolored.append(v)
        return False

    return colors if dive(len(pre)) else None


def ref_induced_rows(g: Graph, mask: int) -> tuple[int, tuple[int, ...]]:
    keep = list(bits(mask))
    index = {v: i for i, v in enumerate(keep)}
    rows = [0] * len(keep)
    for v in keep:
        row = 0
        for w in bits(g.adj[v]):
            if w in index:
                row |= 1 << index[w]
        rows[index[v]] = row
    return len(keep), tuple(rows)


def ref_triangles(g: Graph, mask: int) -> list[tuple[int, int, int]]:
    adj = g.adj
    out = []
    for a in bits(mask):
        na = adj[a] & mask & ~((2 << a) - 1)
        for b in bits(na):
            for c in bits(na & adj[b] & ~((2 << b) - 1)):
                out.append((a, b, c))
    return out


def ref_hit_classes(g: Graph, a: int, b: int, c: int) -> tuple[int, ...]:
    """The vertices outside the triangle (a, b, c) by the slots they are
    adjacent to: entry ``code`` holds those adjacent to exactly the slots
    whose bits are set in code (bit 0 for a, 1 for b, 2 for c)."""
    adj = g.adj
    na, nb, nc = adj[a], adj[b], adj[c]
    rest = g.full_mask & ~(1 << a | 1 << b | 1 << c)
    x0, x1 = rest & ~na, rest & na
    y0, y1, y2, y3 = x0 & ~nb, x1 & ~nb, x0 & nb, x1 & nb
    return (y0 & ~nc, y1 & ~nc, y2 & ~nc, y3 & ~nc, y0 & nc, y1 & nc, y2 & nc, y3 & nc)


def ref_first_present(g: Graph, plans: tuple, facts: list[int]) -> tuple[int, int, int]:
    """``first_present`` as one call per triangle of ``triangles`` and one
    ``ref_hit_classes`` call per triangle, with each orientation's needed
    codes rebuilt from its levels as a mask and tested against the mask of
    empty classes.  Returns (index, k1, searches started), k1 being the
    vertices with a triangle in their non-neighborhood: the walk visits
    every triangle, and once index 0 is found it starts no more searches."""
    best = len(plans)
    k1 = 0
    started = 0
    for a, b, c in triangles(g, g.full_mask):
        classes = ref_hit_classes(g, a, b, c)
        k1 |= classes[0]
        empty = bitmask(code for code, cls in enumerate(classes) if not cls)
        for i in range(best):
            for _, levels in plans[i]:
                if bitmask(level[0] for level in levels) & empty:
                    continue
                started += 1
                if next(_search(g, levels, classes, facts), None) is not None:
                    best = i
                    break
            if best == i:
                break
    return best, k1, started


@cache
def band5_hosts() -> tuple:
    """Hosts for the omega >= 5 band's detectors and dispatch: every graph
    with n <= 6, seeded G(n, p) with n = 8..16 and p in {0.5, 0.7, 0.9}
    (six per pair), K_0..K_12 and C5[K_k] for k = 2..8."""
    graphs = [g for n in range(7) for g in all_graphs(n)]
    rng = random.Random(20261023)
    graphs += [rand_graph(rng, n, p) for n in range(8, 17) for p in (0.5, 0.7, 0.9) for _ in range(6)]
    graphs += [complete(n) for n in range(13)]
    graphs += [clique_blowup(cycle(5), k) for k in range(2, 9)]
    return tuple(graphs)


def ref_band5_choice(g: Graph):
    """The omega >= 5 band's BranchChoice by the reference triangle walk:
    the first of w5 and p2uk3 that ``ref_first_present`` finds, at its
    least embedding, or else G3 at the least edge."""
    from twoomega.colorer import BranchChoice
    from twoomega.graphs import first_edge_in
    from twoomega.patterns import find_induced, host_facts, rooted_plans

    triggers = [PATTERNS["w5"], PATTERNS["p2uk3"]]
    i = ref_first_present(g, rooted_plans(triggers), host_facts(g))[0]
    if i == len(triggers):
        return BranchChoice("G3", first_edge_in(g, g.full_mask))
    return BranchChoice(("G1", "G2")[i], find_induced(g, triggers[i]).map)


def ref_has_p3up2(g: Graph) -> bool:
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


def ref_has_w4(g: Graph) -> bool:
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


def ref_c5_in(g: Graph, mask: int) -> bool:
    """``c5_in``'s walk without the peel: the whole mask, and every v0
    even when no non-neighbor lies above it."""
    adj = g.adj
    r0 = mask
    while r0:
        l0 = r0 & -r0
        r0 ^= l0  # now the vertices of mask above v0
        a0 = adj[l0.bit_length() - 1]
        far = r0 & ~a0
        r1 = r0 & a0
        while r1:
            l1 = r1 & -r1
            r1 ^= l1  # now v0's neighbors above v1
            a1 = adj[l1.bit_length() - 1]
            f1 = far & a1
            r4 = r1 & ~a1 if f1 else 0
            while r4:
                l4 = r4 & -r4
                r4 ^= l4
                a4 = adj[l4.bit_length() - 1]
                f4 = far & a4 & ~a1
                if not f4:
                    continue
                x = f1 & ~a4
                while x:
                    lx = x & -x
                    x ^= lx
                    if adj[lx.bit_length() - 1] & f4:
                        return True
    return False


def ref_monochromatic(g: Graph, colors) -> str | None:
    """``check_certificate``'s failure for the first monochromatic edge,
    walking u ascending and then its larger neighbors ascending."""
    for u in range(g.n):
        for v in bits(g.adj[u] & ~((2 << u) - 1)):
            if colors[u] == colors[v]:
                return f"edge ({u}, {v}) monochromatic"
    return None


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
