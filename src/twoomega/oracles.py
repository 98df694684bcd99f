"""Exact ground-truth computations: clique number, chromatic number, and
the 2-coloring witness the colorer's bipartite parts rely on.

The clique solver is branch-and-bound with a greedy-coloring upper bound
for pruning (Tomita & Seki, DMTCS 2003).  The chromatic solver runs a
saturation-driven (first-fail, DSATUR; Brelaz, CACM 1979) branch-and-bound
per color count, with a maximum clique pre-colored and new colors
introduced in order, so results and timings are reproducible.  Its upper
bound is the same search's first descent with as many colors as
vertices, which never backtracks.  The coloring search's state is
bit-parallel: one mask per color of the vertices that color is forbidden
at, and the saturations as bit-sliced counters, so placing a vertex and
choosing the next one are a few mask operations each, not a walk over
the vertices.  Both searches run on an explicit stack, one frame per
vertex placed, so their depth is not bounded by the interpreter's
recursion limit.  A time budget, when given, produces an explicit
timed-out result carrying the best bounds found so far, never an
exception.

The inner loops are plain bit loops, but the search order is fixed: the
clique search tries vertices in reverse greedy-coloring order, and the
coloring search picks the most saturated vertex, then the higher degree,
then the lower index, and tries colors in ascending order.  So every
coloring and witness clique is reproducible from the graph alone.
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
    # Vertex 0 seeds the best clique; the search replaces it with the first edge it finds.
    best = best_set = 1
    # One frame per clique vertex placed: the clique so far (r_mask, r_size),
    # the candidates still to try, and where in their classes the walk is.
    stack = []
    r_mask = r_size = 0
    cand = (1 << n) - 1
    while True:
        # Greedy coloring of cand into independent classes, each filled
        # least vertex first: a vertex in class k bounds any clique through
        # it (within cand and earlier classes) by k.  The vertices are then
        # tried in reverse visit order: last class first, highest index first.
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
        bound = len(classes)
        cls = classes[-1]
        while True:
            if cls and r_size + bound > best:
                v = cls.bit_length() - 1
                b = 1 << v
                cls ^= b
                cand ^= b
                if r_size >= best:
                    best = r_size + 1
                    best_set = r_mask | b
                new_cand = cand & adj[v]
                if new_cand:
                    stack.append((r_mask, r_size, cand, classes, bound, cls))
                    r_mask |= b
                    r_size += 1
                    cand = new_cand
                    break
            elif not cls and bound > 1:
                bound -= 1
                cls = classes[bound - 1]
            elif stack:  # this frame is pruned or done: resume its parent
                r_mask, r_size, cand, classes, bound, cls = stack.pop()
            else:
                return best, tuple(bit_list(best_set))


# -- chromatic number --------------------------------------------------------


class _Deadline(Exception):
    pass


def _k_colorable(g: Graph, k: int, clique: tuple[int, ...], deadline: float | None):
    """Find a k-coloring (colors 1..k) or prove none exists.

    Returns a color list, None if infeasible, or raises _Deadline.
    Branching: most saturated vertex first (ties: higher degree, lower
    index); a vertex may use at most one color beyond the maximum used.
    With k = n and no clique, the first descent is the saturation-greedy
    coloring: a fresh color is always free, so it never backtracks.

    The state is bit-parallel over the vertices (exact on the uncolored
    ones): ``forb[i]`` holds the vertices with a neighbour of color i+1,
    and each vertex's saturation (how many colors its neighbours use) is a
    counter kept in bit slices, high bit first: ``sat[0]`` holds the high
    bit of every counter and ``sat[-1]`` the low bit.  The next vertex is
    found by mask filtering: the saturation slices from the top bit down,
    then the degree levels from the highest down, then the lowest bit.
    """
    n = g.n
    adj = g.adj
    colors = [0] * n
    forb = [0] * k
    sat = [0] * k.bit_length()  # a saturation is at most k
    slices = range(len(sat) - 1, -1, -1)  # low bit first, for the ripples
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
    by_degree = [0] * n
    rest = uncolored
    while rest:
        b = rest & -rest
        rest ^= b
        by_degree[adj[b.bit_length() - 1].bit_count()] |= b
    levels = [*filter(None, reversed(by_degree))]  # highest degree first
    ticker = 0
    # One frame per placed vertex: its bit and index, the uncolored mask
    # without it, its uncolored neighbours, the colors left to try, its
    # color index, what it newly forbade, and max_used before it.  Colors
    # are not cleared on backtrack: success places every vertex anew.
    stack = []
    max_used = len(pre)
    while uncolored:
        ticker += 1
        if deadline is not None and ticker & 1023 == 0 and time.monotonic() > deadline:
            raise _Deadline
        cand = uncolored
        for s in sat:
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
        tries = iter(range(k if max_used >= k else max_used + 1))
        while True:
            for i in tries:
                f = forb[i]
                if not f & b:
                    break
            else:  # no color left here: undo the last placement, try its next color
                if not stack:
                    return None
                b, v, rest, nb, tries, i, new, max_used = stack.pop()
                if new:
                    forb[i] ^= new
                    for j in slices:  # subtract one, ripple borrow
                        s = sat[j]
                        sat[j] = s ^ new
                        new &= ~s
                        if not new:
                            break
                continue
            break
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
        stack.append((b, v, rest, nb, tries, i, new, max_used))
        uncolored = rest
        if max_used <= i:
            max_used = i + 1
    return colors


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
    best = Coloring(tuple(_k_colorable(g, n, (), None)))
    upper = best.palette_size
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
