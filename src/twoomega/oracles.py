"""Exact ground-truth computations: clique number, chromatic number, and
the 2-coloring witness the colorer's bipartite parts rely on.

The clique solver is branch-and-bound with a greedy-coloring upper bound
for pruning.  The chromatic solver runs a saturation-driven (first-fail)
branch-and-bound per color count, with a maximum clique pre-colored and
new colors introduced in order, so results and timings are reproducible.
A time budget, when given, produces an explicit timed-out result carrying
the best bounds found so far, never an exception.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .graphs import Graph, bit_list, bits


@dataclass(frozen=True)
class Coloring:
    """Color assignment, one positive integer per vertex."""

    colors: tuple[int, ...]

    @property
    def palette_size(self) -> int:
        return max(self.colors, default=0)


@dataclass(frozen=True)
class ChromaticResult:
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

    def color_bound(cand: int) -> list[tuple[int, int]]:
        # Greedy coloring of the candidate set into independent classes;
        # a vertex placed in class k bounds any clique through it (within
        # cand and earlier classes) by k.  Returned in visit order.
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
    return Coloring(tuple(colors))


def _k_colorable(g: Graph, k: int, clique: tuple[int, ...], deadline: float | None):
    """Find a k-coloring (colors 1..k) or prove none exists.

    Returns a color list, None if infeasible, or raises _Deadline.
    Branching: most saturated vertex first (ties: higher degree, lower
    index); a vertex may use at most one color beyond the maximum used.
    """
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
    max_used = len(pre)
    ticker = 0

    def choose():
        bestv = -1
        key = (-1, -1, 0)
        for v in uncolored:
            sat = (nbr_used[v] & kmask).bit_count()
            cand = (sat, degs[v], -v)
            if cand > key:
                key = cand
                bestv = v
        return bestv

    def dive(max_used: int) -> bool:
        nonlocal ticker
        if not uncolored:
            return True
        ticker += 1
        if deadline is not None and ticker & 1023 == 0 and time.monotonic() > deadline:
            raise _Deadline
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

    return colors if dive(max_used) else None


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
