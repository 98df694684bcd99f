"""Exact ground-truth computations: clique number, chromatic number, and
the 2-coloring witness the colorer's bipartite parts rely on.

The clique solver is branch-and-bound with a greedy-coloring upper bound
for pruning.  The chromatic solver runs a saturation-driven (first-fail,
DSATUR) branch-and-bound per color count, with a maximum clique
pre-colored and new colors introduced in order, so results and timings
are reproducible.  Its state is bit-parallel: one mask per color of the
vertices that color is forbidden at, and the saturations as bit-sliced
counters, so placing a vertex and choosing the next one are a few mask
operations each, not a walk over the vertices.
A time budget, when given, produces an explicit timed-out result carrying
the best bounds found so far, never an exception.

The inner loops are plain bit loops, but the search order is fixed: the
clique search tries vertices in reverse greedy-coloring order, and both
colorings pick the most saturated vertex, then the higher degree, then
the lower index, and try colors in ascending order.  So every coloring and
witness clique is reproducible from the graph alone.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from .graphs import Graph, bit_list, bits


class Coloring(NamedTuple):
    """Color assignment, one positive integer per vertex."""

    colors: tuple[int, ...]

    @property
    def palette_size(self) -> int:
        return max(self.colors, default=0)


class ChromaticResult(NamedTuple):
    chi: int | None
    lower: int
    upper: int
    coloring: Coloring | None
    timed_out: bool
    clique: tuple[int, ...]  # the clique pre-colored: maximum unless passed in; () when n == 0


# -- maximum clique ---------------------------------------------------------


def clique_number(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact clique number with a witness clique."""
    n = g.n
    if n == 0:
        return 0, ()
    adj = g.adj
    # Vertex 0 seeds the best clique; expand replaces it with the first edge it finds.
    best_set = 1
    best = 1

    def expand(r_mask: int, r_size: int, cand: int):
        # Greedy coloring of cand into independent classes, each filled
        # least vertex first: a vertex in class k bounds any clique through
        # it (within cand and earlier classes) by k.  The vertices are then
        # tried in reverse visit order: last class first, highest index first.
        nonlocal best, best_set
        classes = []
        rest = cand
        while rest:
            cls = 0
            avail = rest
            while avail:
                b = avail & -avail
                cls |= b
                avail &= ~adj[b.bit_length() - 1] & ~b
            rest ^= cls
            classes.append(cls)
        for bound in range(len(classes), 0, -1):
            cls = classes[bound - 1]
            while cls:
                if r_size + bound <= best:
                    return
                v = cls.bit_length() - 1
                b = 1 << v
                cls ^= b
                cand ^= b
                if r_size >= best:
                    best = r_size + 1
                    best_set = r_mask | b
                new_cand = cand & adj[v]
                if new_cand:
                    expand(r_mask | b, r_size + 1, new_cand)

    expand(0, 0, (1 << n) - 1)
    return best, tuple(bit_list(best_set))


# -- chromatic number --------------------------------------------------------


class _Deadline(Exception):
    pass


def greedy_coloring(g: Graph) -> Coloring:
    """Deterministic saturation-greedy coloring (upper bound, not optimal)."""
    n = g.n
    if n == 0:
        return Coloring(())
    adj = g.adj
    colors = [0] * n
    nbr_used = [0] * n
    # (saturation, degree) as one number, saturation * n + degree; max()
    # over the ascending uncolored list returns the first, lowest, maximum
    key = [row.bit_count() for row in adj]
    uncolored = list(range(n))
    for _ in range(n):
        v = max(uncolored, key=key.__getitem__)
        uncolored.remove(v)
        used = nbr_used[v]
        b = ~used & (used + 1)  # the least color free at v
        colors[v] = b.bit_length()
        rest = adj[v]
        while rest:
            lb = rest & -rest
            rest ^= lb
            w = lb.bit_length() - 1
            if not nbr_used[w] & b:
                nbr_used[w] |= b
                key[w] += n
    return Coloring(tuple(colors))


def _k_colorable(g: Graph, k: int, clique: tuple[int, ...], deadline: float | None):
    """Find a k-coloring (colors 1..k) or prove none exists.

    Returns a color list, None if infeasible, or raises _Deadline.
    Branching: most saturated vertex first (ties: higher degree, lower
    index); a vertex may use at most one color beyond the maximum used.

    The state is bit-parallel over the vertices (exact on the uncolored
    ones): ``forb[i]`` holds the vertices with a neighbour of color i+1,
    and each vertex's saturation (how many colors its neighbours use) is a
    counter kept in bit slices, ``sat[j]`` holding bit j of every counter.
    The next vertex is found by mask filtering: the saturation slices from
    the top bit down, then the degree levels from the highest down, then
    the lowest bit.
    """
    n = g.n
    adj = g.adj
    colors = [0] * n
    forb = [0] * k
    sat = [0] * k.bit_length()  # a saturation is at most k
    slices = range(len(sat))
    pre = clique[:k]
    uncolored = (1 << n) - 1
    for v in pre:
        uncolored ^= 1 << v
    for i, v in enumerate(pre):
        colors[v] = i + 1
        forb[i] = carry = adj[v] & uncolored
        for j in slices:  # add one to the counters in carry, ripple carry
            s = sat[j]
            sat[j] = s ^ carry
            carry &= s
    if not uncolored:
        return colors
    by_degree: dict[int, int] = {}
    for v in bits(uncolored):
        d = adj[v].bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    levels = [by_degree[d] for d in sorted(by_degree, reverse=True)]
    ticker = 0

    def dive(uncolored: int, max_used: int) -> bool:
        nonlocal ticker
        if not uncolored:
            return True
        ticker += 1
        if deadline is not None and ticker & 1023 == 0 and time.monotonic() > deadline:
            raise _Deadline
        cand = uncolored
        for s in reversed(sat):
            t = cand & s
            if t:
                cand = t
        for level in levels:
            t = cand & level
            if t:
                cand = t
                break
        b = cand & -cand
        v = b.bit_length() - 1
        rest = uncolored ^ b
        nb = adj[v] & rest
        for i in range(k if max_used >= k else max_used + 1):
            f = forb[i]
            if f & b:
                continue
            colors[v] = i + 1
            new = nb & ~f
            if new:
                forb[i] = f | new
                carry = new
                for j in slices:
                    s = sat[j]
                    sat[j] = s ^ carry
                    carry &= s
                    if not carry:
                        break
            if dive(rest, max_used if max_used > i else i + 1):
                return True
            if new:
                forb[i] = f
                for j in slices:  # subtract one, ripple borrow
                    s = sat[j]
                    sat[j] = s ^ new
                    new &= ~s
                    if not new:
                        break
        colors[v] = 0
        return False

    return colors if dive(uncolored, len(pre)) else None


def chromatic_number(
    g: Graph, time_budget: float | None = None, clique: tuple[int, ...] | None = None
) -> ChromaticResult:
    """Exact chromatic number with an optimal coloring.

    With a time budget (seconds), may return a timed-out result whose
    ``lower``/``upper`` bracket the answer and whose coloring attains
    ``upper``.  A caller that already knows a clique of g passes it as
    ``clique`` and the solver skips its own clique search.  Any clique is
    a valid lower bound and its vertices need distinct colors, so chi
    stays exact; a clique smaller than omega only costs search time.
    Raises ValueError if ``clique`` is not a clique of g.
    """
    n = g.n
    if n == 0:
        return ChromaticResult(0, 0, 0, Coloring(()), False, ())
    deadline = time.monotonic() + time_budget if time_budget is not None else None
    if clique is None:
        lower, clique = clique_number(g)
    else:
        lower = len(clique)
        members = 0
        for v in clique:
            if not 0 <= v < n or g.adj[v] & members != members:
                raise ValueError(f"{clique} is not a clique of the graph")
            members |= 1 << v
    ub_coloring = greedy_coloring(g)
    upper = ub_coloring.palette_size
    best = ub_coloring
    if lower == upper:
        return ChromaticResult(lower, lower, upper, best, False, clique)
    for k in range(lower, upper):
        try:
            got = _k_colorable(g, k, clique, deadline)
        except _Deadline:
            return ChromaticResult(None, k, upper, best, True, clique)
        if got is not None:
            return ChromaticResult(k, k, k, Coloring(tuple(got)), False, clique)
    return ChromaticResult(upper, upper, upper, best, False, clique)


# -- bipartite witness -------------------------------------------------------


def two_coloring(g: Graph) -> tuple[Coloring | None, tuple[int, ...] | None]:
    """BFS 2-coloring, or an odd-cycle witness when none exists."""
    n = g.n
    side = [-1] * n
    parent = [-1] * n
    for start in range(n):
        if side[start] >= 0:
            continue
        side[start] = 0
        queue = [start]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            for w in bits(g.adj[u]):
                if side[w] < 0:
                    side[w] = side[u] ^ 1
                    parent[w] = u
                    queue.append(w)
                elif side[w] == side[u]:
                    return None, _odd_cycle_from(parent, u, w)
    return Coloring(tuple(s + 1 for s in side)), None


def _odd_cycle_from(parent, u, w) -> tuple[int, ...]:
    pu = _root_path(parent, u)
    pw = _root_path(parent, w)
    i = 0
    while i < len(pu) and i < len(pw) and pu[i] == pw[i]:
        i += 1
    cyc = pu[i - 1:] + list(reversed(pw[i - 1:]))[:-1]
    return tuple(cyc)


def _root_path(parent, v) -> list[int]:
    out = [v]
    while parent[out[-1]] >= 0:
        out.append(parent[out[-1]])
    out.reverse()
    return out
