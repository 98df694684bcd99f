"""Constructive bounded coloring for (p3up2, w4)-free graphs.

``color_bounded`` colors a class member with at most twice its clique
number of colors.  It dispatches on the clique number and on which trigger
configuration the graph contains, then colors a fixed partition of the
vertices part by part; each part comes with a simple strategy (independent
set, union of cliques, bipartite, an indexed cover, or exact coloring
against an asserted budget) and a budget that the executor enforces at
runtime.  Every structural claim a branch relies on is re-checkable:
cheap ones are always verified, the fuller suite runs under
``assert_proofs``.

The algorithm is not polynomial: parts whose bound is imported from
elsewhere are colored exactly at desk scale and the bound is asserted, so
a violation surfaces loudly instead of producing a bad certificate.
"""

from __future__ import annotations

import json
import time
from functools import cache
from typing import NamedTuple

from .graphs import (
    Graph,
    bit_list,
    bitmask,
    bits,
    c4_in,
    c5_in,
    clique_components,
    first_edge_in,
    induced,
    least_triangle_in,
)
from .oracles import Coloring, chromatic_number, clique_number, two_coloring
from .patterns import (
    DETECTORS,
    PATTERNS,
    class_membership,
    find_induced,
    first_present,
    has_induced,
    host_facts,
    rooted_plans,
)


class ColorerError(Exception):
    pass


class NotInClass(ColorerError):
    """Input graph is outside the (p3up2, w4)-free class (strict mode)."""

    def __init__(self, report):
        self.report = report
        pats = ", ".join(v.pattern_id for v in report.violations)
        super().__init__(f"graph is not (p3up2, w4)-free: induces {pats}")


class BudgetViolation(ColorerError):
    """A part needed more colors than its asserted budget: either an
    implementation bug or a counterexample candidate."""

    def __init__(self, part: str, budget: int, needed: int):
        self.part = part
        self.budget = budget
        self.needed = needed
        super().__init__(f"part {part!r} needs {needed} colors, budget {budget}")


class StrategyPreconditionFailed(ColorerError):
    """A structural claim used by the fired branch does not hold."""

    def __init__(self, ref: str, detail: str = ""):
        self.ref = ref
        super().__init__(f"claim {ref!r} failed" + (f": {detail}" if detail else ""))


class ColoringTimeout(ColorerError):
    def __init__(self, part: str):
        self.part = part
        super().__init__(f"exact coloring of part {part!r} exceeded the time budget")


class PartStrategy(NamedTuple):
    kind: str  # independent | cliques | bipartite | indexed_cover | exact_with_budget
    budget: int
    provenance: str = ""
    classes: tuple[tuple[str, int], ...] | None = None


class Part(NamedTuple):
    name: str
    vertices: int  # bitmask
    strategy: PartStrategy
    colors_used: int


class BranchTrace(NamedTuple):
    branch_id: str
    anchor: tuple[int, ...]
    parts: tuple[Part, ...]
    assertions: tuple[str, ...]  # refs of the claims checked; a failed claim raises


class ColoringCertificate(NamedTuple):
    coloring: Coloring
    omega: int
    clique: tuple[int, ...]  # an omega-clique: the witness that omega is attained
    budget: int
    trace: BranchTrace
    class_checked: bool


class BranchChoice(NamedTuple):
    branch_id: str
    anchor: tuple[int, ...]


class CheckResult(NamedTuple):
    ok: bool
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


# -- vertex-set splits --------------------------------------------------------
#
# Generic questions about G[X] (an edge, a triangle, clique components, an
# induced c4 or c5) are answered on the mask X by the helpers in ``graphs``;
# the splits below are the ones the proof's case analysis keeps reusing.
# The detectors of membership and of the omega >= 5 band use the same
# helpers.  G has an induced p3up2 iff some edge xy has an induced p3 in
# M({x, y}), the fact that the ``clique_components`` checks of G2, G3, H2
# and J1 test for one pair.  G has an induced w4 iff some N(h) has an
# induced c4, as tested by ``c4_in`` in the checks of G1 and H5 and in
# ``_k3_c4_free``; it has an induced w5 iff some N(h) has an induced c5,
# as ``c5_in`` tests in the checks of G2 and G3.


def _max_clique_in(g: Graph, mask: int) -> tuple[int, int]:
    """Clique number of G[mask] with a witness mask in g's indexing."""
    verts = bit_list(mask)
    if not verts:
        return 0, 0
    size, wit = clique_number(induced(g, mask))
    return size, bitmask(verts[i] for i in wit)


def _k3_c4_free(g: Graph, mask: int) -> bool:
    return least_triangle_in(g, mask) is None and not c4_in(g, mask)


def _pair_split(g: Graph, a: int, b: int) -> tuple[int, int, int, int]:
    """(N(a) - N[b], N(b) - N[a], N(a) & N(b), M({a, b})) for a pair a, b:
    the exclusive and the common neighbors, and the non-neighbors."""
    na, nb = g.adj[a], g.adj[b]
    pair = 1 << a | 1 << b
    return na & ~(nb | pair), nb & ~(na | pair), na & nb, g.full_mask & ~(na | nb | pair)


def _split_by_hits(g: Graph, mask: int, s_mask: int) -> list[int]:
    """The vertices of mask by |N(v) & S|: entry k holds those with exactly
    k neighbors in S, for k = 0..|S|."""
    out = [0] * (s_mask.bit_count() + 1)
    for v in bits(mask):
        out[(g.adj[v] & s_mask).bit_count()] |= 1 << v
    return out


# -- strategy execution -------------------------------------------------------


def execute_part(
    g: Graph,
    part: int,
    strategy: PartStrategy,
    base_color: int,
    deadline: float | None = None,
) -> tuple[dict[int, int], int]:
    """Properly color G[part] with colors base_color.. and return the
    assignment plus the number of colors consumed.  Raises if the
    strategy's structural precondition fails or its budget is exceeded."""
    kind = strategy.kind
    if kind == "independent":
        edge = first_edge_in(g, part)
        if edge is not None:
            raise StrategyPreconditionFailed(
                "independent-part", f"edge {edge} inside independent part"
            )
        return {v: base_color for v in bits(part)}, 1 if part else 0

    if kind == "cliques":
        comps = clique_components(g, part)
        if comps is None:
            raise StrategyPreconditionFailed(
                "cliques-part", "component is not a clique (induced p3 present)"
            )
        out: dict[int, int] = {}
        used = 0
        for comp in comps:
            size = comp.bit_count()
            if size > strategy.budget:
                raise BudgetViolation("cliques-part", strategy.budget, size)
            for i, v in enumerate(bits(comp)):
                out[v] = base_color + i
            used = max(used, size)
        return out, used

    if kind == "bipartite":
        sub_vertices = bit_list(part)
        sub = induced(g, part)
        col2, odd = two_coloring(sub)
        if col2 is None:
            raise StrategyPreconditionFailed(
                "bipartite-part", f"odd cycle {tuple(sub_vertices[v] for v in odd)}"
            )
        out = {sub_vertices[i]: base_color + c - 1 for i, c in enumerate(col2.colors)}
        return out, max(col2.colors, default=0)

    if kind == "indexed_cover":
        assert strategy.classes is not None
        for name, cmask in strategy.classes:
            edge = first_edge_in(g, cmask)
            if edge is not None:
                raise StrategyPreconditionFailed(
                    f"cover-class-{name}", f"class has internal edge {edge}"
                )
        out = {}
        max_idx = -1
        for v in bits(part):
            for idx, (_, cmask) in enumerate(strategy.classes):
                if cmask >> v & 1:
                    out[v] = base_color + idx
                    max_idx = max(max_idx, idx)
                    break
            else:
                raise StrategyPreconditionFailed(
                    "cover-incomplete", f"vertex {v} in no cover class"
                )
        return out, max_idx + 1

    if kind == "exact_with_budget":
        verts = bit_list(part)
        if not verts:
            return {}, 0
        remaining = None
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ColoringTimeout("exact-part")
        res = chromatic_number(induced(g, part), remaining)
        if res.timed_out:
            raise ColoringTimeout("exact-part")
        if res.chi > strategy.budget:
            raise BudgetViolation("exact-part", strategy.budget, res.chi)
        out = {verts[i]: base_color + c - 1 for i, c in enumerate(res.coloring.colors)}
        return out, res.chi

    raise ValueError(f"unknown strategy kind {kind!r}")


# -- branch part tables -------------------------------------------------------
#
# Each builder takes (g, omega, anchor) and returns (parts, assertions):
# parts are (name, mask, strategy) in coloring order; assertions are
# (ref, always, thunk).  The cheap checks needed for soundness are always
# on; the fuller structural suite runs under assert_proofs.


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _branch_b0(g, omega, anchor):
    parts = []
    if g.n:
        parts.append(("all", g.full_mask, PartStrategy("independent", 1)))
    checks = [("edgeless", True, lambda: first_edge_in(g, g.full_mask) is None)]
    return parts, checks


def _branch_omega2(g, omega, anchor):
    strat = PartStrategy(
        "exact_with_budget", 4, "triangle-free class members are 4-colorable"
    )
    checks = [("no-triangle", False, lambda: least_triangle_in(g, g.full_mask) is None)]
    return [("all", g.full_mask, strat)], checks


def _branch_g1(g, omega, anchor):
    hub = anchor[0]
    rim = anchor[1:6]
    n_hub = g.adj[hub]
    m_hub = g.full_mask & ~(n_hub | 1 << hub)
    classes = []
    for i in range(5):
        a, b = rim[i], rim[(i + 2) % 5]
        mi = m_hub & ~g.adj[a] & ~g.adj[b]
        name = f"m{i + 1}"
        if i == 0:
            mi |= 1 << hub  # hub is anticomplete to m(hub): joins class 1
            name = "m1+hub"
        classes.append((name, mi))
    budget_n = _ceil_div(5 * (omega - 1), 4)
    parts = [
        ("n_hub", n_hub, PartStrategy(
            "exact_with_budget", budget_n,
            "c4-free neighborhood: chi <= ceil(5*omega/4)")),
        ("m_closed_hub", m_hub | 1 << hub, PartStrategy(
            "indexed_cover", 5, "rim-pair cover of the hub non-neighborhood",
            tuple(classes))),
    ]
    checks = [
        ("rim-pair-cover-classes-independent", True,
         lambda: all(first_edge_in(g, c) is None for _, c in classes)),
        ("hub-neighborhood-c4-free", False,
         lambda: not c4_in(g, n_hub)),
        ("hub-neighborhood-omega", False,
         lambda: _max_clique_in(g, n_hub)[0] <= omega - 1),
    ]
    return parts, checks


def _branch_g2(g, omega, anchor):
    u1, u2 = anchor[0], anchor[1]
    tri = bitmask(anchor[2:5])
    only1, nn, common, mm = _pair_split(g, u1, u2)
    comps = clique_components(g, mm)
    if comps is None:
        raise StrategyPreconditionFailed(
            "pair-non-neighborhood-cliques", "G[M(u1,u2)] is not p3-free"
        )
    c2_mask = max(comps, key=lambda c: (c.bit_count(), -(c & -c))) if comps else 0
    c2_size = c2_mask.bit_count()
    cn_size, c1_mask = _max_clique_in(g, nn)
    budget_m = max(c2_size, 2)

    def eq1() -> bool:
        return all(
            (g.adj[u] & c2_mask).bit_count() >= c2_size - 1 for u in bits(c1_mask)
        )

    parts = [
        ("n_u1", only1 | common, PartStrategy(
            "exact_with_budget", omega - 1,
            "perfect neighborhood (no c4/c5): chi = omega <= omega(G)-1")),
        ("n_u2_minus", nn, PartStrategy(
            "exact_with_budget", cn_size, "perfect subgraph: chi = omega")),
        ("m_closed_pair", mm | 1 << u1 | 1 << u2, PartStrategy("cliques", budget_m)),
    ]
    checks = [
        ("anchor-triangle-in-m", True, lambda: tri & mm == tri),
        ("eq1:|N(u) cap C2| >= |C2|-1 for u in C1", True, eq1),
        ("chain:|C1|+|C2| <= omega+1", True,
         lambda: cn_size + c2_size <= omega + 1),
        ("sub-budgets <= omega+1", True,
         lambda: cn_size + budget_m <= omega + 1),
        ("n_u1-c4-c5-free", False,
         lambda: not c4_in(g, g.adj[u1]) and not c5_in(g, g.adj[u1])),
        ("n_u2-c4-c5-free", False,
         lambda: not c4_in(g, g.adj[u2]) and not c5_in(g, g.adj[u2])),
    ]
    return parts, checks


def _branch_g3(g, omega, anchor):
    u1, u2 = anchor
    _, n2, _, mm = _pair_split(g, u1, u2)
    parts = [
        ("n_u1", g.adj[u1], PartStrategy(
            "exact_with_budget", omega - 1,
            "perfect neighborhood (no c4/c5): chi = omega <= omega(G)-1")),
        ("n_u2_minus", n2, PartStrategy(
            "exact_with_budget", omega - 1,
            "perfect neighborhood (no c4/c5): chi = omega <= omega(G)-1")),
        ("m_pair_plus_u1", mm | 1 << u1, PartStrategy("cliques", 2)),
    ]
    checks = [
        ("pair-non-neighborhood-p3-k3-free", True,
         lambda: clique_components(g, mm) is not None and least_triangle_in(g, mm) is None),
        ("n_u1-c4-c5-free", False,
         lambda: not c4_in(g, g.adj[u1]) and not c5_in(g, g.adj[u1])),
        ("n_u2-c4-c5-free", False,
         lambda: not c4_in(g, g.adj[u2]) and not c5_in(g, g.adj[u2])),
    ]
    return parts, checks


def _branch_h1(g, omega, anchor):
    s_mask = bitmask(anchor[0:3])
    mm, hit1, hit2, common = _split_by_hits(g, g.full_mask & ~s_mask, s_mask)
    n = hit1 | hit2

    comps = clique_components(g, mm)
    if comps is None:
        raise StrategyPreconditionFailed(
            "triangle-non-neighborhood-cliques", "G[M(S)] is not p3-free"
        )
    cmask = max(comps, key=lambda c: (c.bit_count(), -(c & -c)))
    if not 3 <= cmask.bit_count() <= 4:
        raise StrategyPreconditionFailed(
            "m-max-clique-size", f"|C| = {cmask.bit_count()}, expected 3 or 4"
        )
    tips = _split_by_hits(g, n, bitmask(bit_list(cmask)[:3]))
    n2 = tips[3]
    n1 = n & ~n2

    parts = [
        ("m_closed_plus_n2", mm | s_mask | n2, PartStrategy(
            "exact_with_budget", 4, "clique components plus common tips: chi <= 4")),
        ("n1", n1, PartStrategy(
            "exact_with_budget", 3, "(k3,c4)-free: chi <= 3")),
        ("s_complete", common, PartStrategy("independent", 1)),
    ]
    checks = [
        ("n-vertices-have-2-tips", True, lambda: tips[0] | tips[1] == 0),
        ("s-complete-independent", True, lambda: first_edge_in(g, common) is None),
        ("n1-k3-c4-free", False, lambda: _k3_c4_free(g, n1)),
    ]
    return parts, checks


def _branch_h2(g, omega, anchor):
    v1, v2 = anchor[0], anchor[1]
    n1, n2, n3, mm = _pair_split(g, v1, v2)
    n4 = _split_by_hits(g, n3, bitmask(anchor[2:6]))[3]
    rest = n3 & ~n4
    parts = [
        ("n1_n2_n4", n1 | n2 | n4, PartStrategy("independent", 1)),
        ("n3_minus_n4", rest, PartStrategy(
            "exact_with_budget", 3, "c4-free with omega <= 2: chi <= 3")),
        ("m_closed_pair", mm | 1 << v1 | 1 << v2, PartStrategy("cliques", 4)),
    ]
    checks = [
        ("eq2:N1|N2|N4 independent", True,
         lambda: first_edge_in(g, n1 | n2 | n4) is None),
        ("n3-minus-n4-c4-free-omega2", False, lambda: _k3_c4_free(g, rest)),
        ("m-p3-free", False, lambda: clique_components(g, mm) is not None),
    ]
    return parts, checks


def _branch_h3(g, omega, anchor):
    v1, v2 = anchor[0], anchor[1]
    pair = 1 << v1 | 1 << v2
    only1, only2, common, mm = _pair_split(g, v1, v2)
    byu = _split_by_hits(g, only1 | only2 | common, bitmask(anchor[2:5]))
    parts = [
        ("n1u_plus_m_closed", byu[1] | mm | pair, PartStrategy(
            "exact_with_budget", 4, "two bipartite pieces: chi <= 4")),
        ("n2u", byu[2], PartStrategy(
            "exact_with_budget", 3, "(k3,c4)-free: chi <= 3")),
        ("n3u", byu[3], PartStrategy("independent", 1)),
    ]
    checks = [
        ("pair-neighbors-hit-triangle", True, lambda: byu[0] == 0),
        ("n3u-independent", True, lambda: first_edge_in(g, byu[3]) is None),
        ("n1u-small-and-common", False,
         lambda: byu[1].bit_count() <= 3
         and byu[1] & ~common == 0),
        ("n2u-k3-c4-free", False, lambda: _k3_c4_free(g, byu[2])),
    ]
    return parts, checks


def _branch_h4(g, omega, anchor):
    s = anchor[0:3]
    s_mask = bitmask(s)
    n0, n1, n2, n3 = _split_by_hits(g, g.full_mask & ~s_mask, s_mask)
    low = n0 | n1

    def a_sets_small() -> bool:
        # A_i: low vertices with no neighbor in S - s_i
        for p, q in ((s[1], s[2]), (s[0], s[2]), (s[0], s[1])):
            comps = clique_components(g, low & _pair_split(g, p, q)[3])
            if comps is None or any(c.bit_count() > 2 for c in comps):
                return False
        return True

    parts = [
        ("n0_n1_s", low | s_mask, PartStrategy(
            "exact_with_budget", 6, "three bipartite tip classes: chi <= 6")),
        ("n2", n2, PartStrategy("independent", 1)),
        ("n3", n3, PartStrategy("independent", 1)),
    ]
    checks = [
        ("n2-independent", True, lambda: first_edge_in(g, n2) is None),
        ("n3-independent", True, lambda: first_edge_in(g, n3) is None),
        ("tip-classes-are-matchings", False, a_sets_small),
    ]
    return parts, checks


def _branch_h5(g, omega, anchor):
    v = anchor[0]
    u2, u3 = anchor[2], anchor[3]
    nv = g.adj[v]
    mv = g.full_mask & ~(nv | 1 << v)
    m_no_u2 = (mv & ~g.adj[u2]) | 1 << v
    m_between = mv & g.adj[u2] & ~g.adj[u3]
    overlap = mv & g.adj[u2] & g.adj[u3]
    parts = [
        ("n_apex", nv, PartStrategy(
            "exact_with_budget", 4, "(c4,k4)-free neighborhood: chi <= 4")),
        ("m_no_u2_plus_apex", m_no_u2, PartStrategy("bipartite", 2)),
        ("m_u2_not_u3", m_between, PartStrategy("bipartite", 2)),
    ]
    checks = [
        ("non-neighbors-miss-u2-or-u3", True, lambda: overlap == 0),
        ("n_apex-c4-free-omega3", False,
         lambda: not c4_in(g, nv) and _max_clique_in(g, nv)[0] <= 3),
        ("m-not-u3-bipartite", False,
         lambda: two_coloring(induced(g, mv & ~g.adj[u3]))[0] is not None),
    ]
    return parts, checks


def _branch_h6(g, omega, anchor):
    strat = PartStrategy(
        "exact_with_budget", 8, "gem-free members: chi <= 2*omega"
    )
    checks = [("gem-free", False, lambda: not has_induced(g, PATTERNS["gem"]))]
    return [("all", g.full_mask, strat)], checks


def _branch_j1(g, omega, anchor):
    v1, v2 = anchor[0], anchor[1]
    n1, n2, n3, mm = _pair_split(g, v1, v2)
    parts = [
        ("n1", n1, PartStrategy("independent", 1)),
        ("n2", n2, PartStrategy("independent", 1)),
        ("n3", n3, PartStrategy("independent", 1)),
        ("m_closed_pair", mm | 1 << v1 | 1 << v2, PartStrategy("cliques", 3)),
    ]
    checks = [
        ("n1-independent", True, lambda: first_edge_in(g, n1) is None),
        ("n2-independent", True, lambda: first_edge_in(g, n2) is None),
        ("n3-independent", True, lambda: first_edge_in(g, n3) is None),
        ("m-p3-free", False, lambda: clique_components(g, mm) is not None),
    ]
    return parts, checks


def _branch_j_triangle(g, omega, anchor):
    # Shared by the three 6-vertex triggers built around a triangle S:
    # singles attach to one s-vertex and join that class, doubles are
    # independent, non-neighbors of S are independent.
    s = anchor[0:3]
    s_mask = bitmask(s)
    n0, singles, n2, over = _split_by_hits(g, g.full_mask & ~s_mask, s_mask)
    a = [singles & g.adj[t] for t in s]
    parts = [
        ("a1_plus_v2", a[0] | 1 << s[1], PartStrategy("independent", 1)),
        ("a2_plus_v3", a[1] | 1 << s[2], PartStrategy("independent", 1)),
        ("a3_plus_v1", a[2] | 1 << s[0], PartStrategy("independent", 1)),
        ("n2", n2, PartStrategy("independent", 1)),
        ("n0", n0, PartStrategy("independent", 1)),
    ]
    checks = [
        ("no-vertex-complete-to-s", True, lambda: over == 0),
        ("a1-independent", True, lambda: first_edge_in(g, a[0]) is None),
        ("a2-independent", True, lambda: first_edge_in(g, a[1]) is None),
        ("a3-independent", True, lambda: first_edge_in(g, a[2]) is None),
        ("n2-independent", True, lambda: first_edge_in(g, n2) is None),
        ("n0-independent", True, lambda: first_edge_in(g, n0) is None),
    ]
    return parts, checks


def _branch_j3(g, omega, anchor):
    v1, v2, u1, u2, u3, u4 = anchor
    only1, nv2, common, mm = _pair_split(g, v1, v2)
    tri1 = bitmask((u1, u3, u4))  # triangle inside M(v1)
    tri2 = bitmask((u1, u2, u4))  # triangle inside M(v2)
    parts = [
        ("n_v1", only1 | common, PartStrategy("bipartite", 2)),
        ("n_v2_minus", nv2, PartStrategy("bipartite", 2)),
        ("m_closed_pair", mm | 1 << v1 | 1 << v2, PartStrategy("cliques", 2)),
    ]
    checks = [
        ("anchor-triangle-avoids-v1", True,
         lambda: tri1 & (g.adj[v1] | 1 << v1) == 0),
        ("anchor-triangle-avoids-v2", True,
         lambda: tri2 & (g.adj[v2] | 1 << v2) == 0),
        ("eq3:N(v1) bipartite", True,
         lambda: two_coloring(induced(g, g.adj[v1]))[0] is not None),
        ("eq3:N(v2) bipartite", True,
         lambda: two_coloring(induced(g, g.adj[v2]))[0] is not None),
    ]
    return parts, checks


def _branch_j6(g, omega, anchor):
    mid, end = anchor[3], anchor[4]
    only_mid, n_end_only, common, mm = _pair_split(g, mid, end)
    parts = [
        ("n_mid", only_mid | common, PartStrategy(
            "exact_with_budget", 3, "c4-free with omega <= 2: chi <= 3")),
        ("n_end_only", n_end_only, PartStrategy("independent", 1)),
        ("m_closed_pair", mm | 1 << mid | 1 << end, PartStrategy("cliques", 2)),
    ]
    checks = [
        ("pendant-side-independent", True, lambda: first_edge_in(g, n_end_only) is None),
        ("n_mid-c4-free-omega2", False, lambda: _k3_c4_free(g, g.adj[mid])),
    ]
    return parts, checks


def _branch_j7(g, omega, anchor):
    v = anchor[0]
    if g.adj[v] == 0:
        # Every k1uk3 anchor is isolated: split isolated vertices off; the
        # rest is k1uk3-free and contains a triangle, hence 6-colorable.
        rest = bitmask(u for u in range(g.n) if g.adj[u])
        strat = PartStrategy(
            "exact_with_budget", 6,
            "isolated split: k1uk3-free remainder with a triangle")
        checks = [
            ("remainder-k1uk3-free", False,
             lambda: not has_induced(induced(g, rest), PATTERNS["k1uk3"])),
        ]
        return [("all", g.full_mask, strat)], checks
    nv = g.adj[v]
    vp = (nv & -nv).bit_length() - 1
    _, nvp, _, mm = _pair_split(g, v, vp)
    parts = [
        ("n_v", nv, PartStrategy("independent", 1)),
        ("n_vp_minus", nvp, PartStrategy(
            "exact_with_budget", 3, "c4-free with omega <= 2: chi <= 3")),
        ("m_pair_plus_v", mm | 1 << v, PartStrategy("cliques", 2)),
    ]
    checks = [
        ("n_v-independent", True, lambda: first_edge_in(g, nv) is None),
        ("n_vp-c4-free-omega2", False, lambda: _k3_c4_free(g, g.adj[vp])),
    ]
    return parts, checks


def _branch_j8(g, omega, anchor):
    strat = PartStrategy(
        "exact_with_budget", 6, "k1uk3-free with a triangle: chi <= 2*omega"
    )
    checks = [
        ("k1uk3-free", False, lambda: not has_induced(g, PATTERNS["k1uk3"])),
        ("has-triangle", True, lambda: least_triangle_in(g, g.full_mask) is not None),
    ]
    return [("all", g.full_mask, strat)], checks


# -- branch dispatch ----------------------------------------------------------
#
# One band of rows per clique number (<= 1, 2, 3, 4, >= 5), each row being
# (branch id, trigger pattern, anchor probe, builder).  The first row of
# the band whose trigger is present fires; the last row of every band has
# no trigger and fires when no other row does.  A row without a probe
# fires on the least induced copy of its trigger pattern, and the
# lexicographic search runs only for the row that fires.  A band whose
# every trigger has a detector in ``patterns.DETECTORS`` asks them row by
# row: the bands for omega <= 2 have no trigger, and the omega >= 5 band
# asks for w5 (an induced c5 in some N(h)), then p2uk3 (a triangle in some
# M({u, v}) of an edge uv).  In the omega = 3 and omega = 4 bands every
# trigger contains a triangle, so one pass over the host's triangles
# decides the band (``first_present``).  A probe takes g and returns None
# only when omega is not the clique number.


def _always(g: Graph) -> tuple[int, ...]:
    return ()


def _j7_anchor(g: Graph) -> tuple[int, ...] | None:
    """Least k1uk3 anchor (v, t1, t2, t3): the least v with a triangle in
    M(v), preferring a non-isolated v so the branch's companion vertex v'
    exists, and the least triangle there."""
    isolated = None
    for v, row in enumerate(g.adj):
        tri = least_triangle_in(g, g.full_mask & ~(row | 1 << v))
        if tri is not None:
            if row:
                return (v, *tri)
            isolated = isolated or (v, *tri)
    return isolated


_BANDS = (
    (("B0", None, _always, _branch_b0),),  # omega <= 1
    (("OMEGA2", None, _always, _branch_omega2),),  # omega == 2
    (  # omega == 3
        ("J1", "p2uk3", None, _branch_j1),
        ("J2", "f1", None, _branch_j_triangle),
        ("J3", "f2", None, _branch_j3),
        ("J4", "f3", None, _branch_j_triangle),
        ("J5", "f4", None, _branch_j_triangle),
        ("J6", "hammer", None, _branch_j6),
        ("J7", "k1uk3", _j7_anchor, _branch_j7),
        ("J8", None, _always, _branch_j8),
    ),
    (  # omega == 4
        ("H1", "2k3", None, _branch_h1),
        ("H2", "p2uk4", None, _branch_h2),
        ("H3", "p2uk3", None, _branch_h3),
        ("H4", "four_triangle", None, _branch_h4),
        ("H5", "gem", None, _branch_h5),
        ("H6", None, _always, _branch_h6),
    ),
    (  # omega >= 5
        ("G1", "w5", None, _branch_g1),
        ("G2", "p2uk3", None, _branch_g2),
        ("G3", None, lambda g: first_edge_in(g, g.full_mask), _branch_g3),
    ),
)


@cache
def _band_plans(band: int) -> tuple | None:
    """The rooted plans of a band's triggers, compiled on first use; None
    when every trigger has a detector, so the band walks no triangles."""
    triggers = [row[1] for row in _BANDS[band][:-1]]
    if all(pid in DETECTORS for pid in triggers):
        return None
    return rooted_plans(PATTERNS[pid] for pid in triggers)


def _fire(g: Graph, omega: int):
    """The choice made by omega's band, with the builder of its row: the
    first row whose detector finds its trigger in a detector band, else
    the first row whose trigger one triangle walk finds."""
    band_index = min(max(omega, 1), 5) - 1
    band = _BANDS[band_index]
    plans = _band_plans(band_index)
    if plans is None:
        facts = None
        i = next(i for i, row in enumerate(band) if row[1] is None or DETECTORS[row[1]](g))
    else:
        facts = host_facts(g)
        i = first_present(g, plans, facts)
    branch_id, pid, probe, build = band[i]
    anchor = probe(g) if probe else find_induced(g, PATTERNS[pid], facts).map
    if anchor is None:
        raise ValueError(f"no branch fired: omega={omega} is not the clique number")
    return BranchChoice(branch_id, anchor), build


def find_branch(g: Graph, omega: int | None = None) -> BranchChoice:
    """Deterministic dispatch to the proof branch that will color g.

    Assumes g is (p3up2, w4)-free; use ``color_bounded(strict=True)`` to
    have that checked.  Every graph matches some branch.  A given omega is
    checked only against whether g has a triangle, an edge or a vertex
    (ValueError on a mismatch), so omega 3, 4 and >= 5 are not told apart
    on a graph with a triangle.
    """
    if omega is None:
        omega, _ = clique_number(g)
    else:
        full = g.full_mask
        seen = 3 if least_triangle_in(g, full) else 2 if first_edge_in(g, full) else min(g.n, 1)
        if min(omega, 3) != seen:
            raise ValueError(f"no branch fired: omega={omega} is not the clique number")
    return _fire(g, omega)[0]


# -- the main entry points ----------------------------------------------------


def color_bounded(
    g: Graph,
    strict: bool = False,
    assert_proofs: bool = False,
    time_budget: float | None = None,
) -> ColoringCertificate:
    """Properly color g with at most 2*omega(g) colors and a full trace.

    With ``strict``, class membership is checked first (NotInClass on
    failure).  With ``assert_proofs``, every structural claim the fired
    branch relies on is re-verified and recorded.  Identical inputs give
    byte-identical certificates.  The palette bound follows from the part
    budgets, which sum to at most 2*omega in every branch; the partition,
    the budgets and the palette are checked by ``check_certificate``, which
    callers run, as the ``color`` and ``scan`` subcommands do.
    """
    deadline = time.monotonic() + time_budget if time_budget is not None else None
    class_checked = False
    if strict:
        report = class_membership(g)
        if not report.member:
            raise NotInClass(report)
        class_checked = True

    omega, clique = clique_number(g)
    choice, build = _fire(g, omega)
    part_plan, checks = build(g, omega, choice.anchor)

    ran = []
    for ref, always, thunk in checks:
        if always or assert_proofs:
            if not thunk():
                raise StrategyPreconditionFailed(ref)
            ran.append(ref)

    colors = [0] * g.n
    base = 1
    parts_out = []
    for name, mask, strat in part_plan:
        try:
            sub, used = execute_part(g, mask, strat, base, deadline)
        except BudgetViolation as exc:
            raise BudgetViolation(name, exc.budget, exc.needed) from None
        except ColoringTimeout:
            raise ColoringTimeout(name) from None
        for v, c in sub.items():
            colors[v] = c
        parts_out.append(Part(name, mask, strat, used))
        base += used

    coloring = Coloring(tuple(colors))
    trace = BranchTrace(choice.branch_id, choice.anchor, tuple(parts_out), tuple(ran))
    return ColoringCertificate(coloring, omega, clique, 2 * omega, trace, class_checked)


def check_certificate(g: Graph, cert: ColoringCertificate) -> CheckResult:
    """The package's one coloring verifier: re-validates the clique witness
    and the budget against 2*|witness|, properness, the palette against the
    budget, the part partition, per-part budgets, disjoint per-part color
    ranges and each part's colors_used (within its budget, its colors in
    the range that the earlier parts' counts leave it, the range within the
    budget).  Every number is bounded by the graph before a mask is built
    from it.  Runs no exact solver and shares no code path with
    color_bounded's strategy executors.  A bool is not an int here."""
    colors = cert.coloring.colors
    if len(colors) != g.n:
        return CheckResult(False, "coloring length mismatch")
    if type(cert.omega) is not int:
        return CheckResult(False, "omega is not an integer")
    if type(cert.budget) is not int:
        return CheckResult(False, "budget is not an integer")
    # The witness and budget = 2*omega bound the budget by 2n.
    wit = cert.clique
    if len(wit) != cert.omega:
        return CheckResult(False, f"witness has {len(wit)} vertices, omega is {cert.omega}")
    if any(type(v) is not int for v in wit):
        return CheckResult(False, "witness has a non-integer vertex")
    if any(not 0 <= v < g.n for v in wit):
        return CheckResult(False, "witness has vertices outside the graph")
    wit_mask = bitmask(wit)
    if wit_mask.bit_count() != len(wit):
        return CheckResult(False, "witness repeats a vertex")
    if any(wit_mask & ~(g.adj[v] | 1 << v) for v in wit):
        return CheckResult(False, "witness is not a clique")
    if cert.budget != 2 * cert.omega:
        return CheckResult(False, "budget is not 2*omega")
    classes: dict[int, int] = {}  # color -> the vertices it colors
    for v, c in enumerate(colors):
        if type(c) is not int or c < 1:
            return CheckResult(False, "invalid color value")
        classes[c] = classes.get(c, 0) | 1 << v
    for u, c in enumerate(colors):
        clash = g.adj[u] & classes[c] & ~((2 << u) - 1)
        if clash:
            v = (clash & -clash).bit_length() - 1
            return CheckResult(False, f"edge ({u}, {v}) monochromatic")
    if max(classes, default=0) > cert.budget:
        return CheckResult(False, "palette exceeds budget")
    seen = 0
    palette = 0  # colors used by the parts checked so far, as a mask
    part_colors = []
    for part in cert.trace.parts:
        if type(part.vertices) is not int:
            return CheckResult(False, f"part {part.name} has a non-integer vertex mask")
        if type(part.strategy.budget) is not int:
            return CheckResult(False, f"part {part.name} has a non-integer budget")
        if part.vertices & ~g.full_mask:  # also catches negative masks
            return CheckResult(False, f"part {part.name} has vertices outside the graph")
        if part.vertices & seen:
            return CheckResult(False, f"part {part.name} overlaps another part")
        seen |= part.vertices
        used_mask = 0  # the part's colors
        for c, cls in classes.items():
            if cls & part.vertices:
                used_mask |= 1 << c
        if used_mask & palette:
            return CheckResult(False, f"part {part.name} reuses a color of an earlier part")
        palette |= used_mask
        part_colors.append(used_mask)
    if seen != g.full_mask:
        return CheckResult(False, "parts do not partition V(G)")
    base = 1  # each part's colors are base .. base + colors_used - 1
    for part, used_mask in zip(cert.trace.parts, part_colors):
        used = part.colors_used
        if type(used) is not int:
            return CheckResult(False, f"part {part.name} has a non-integer colors_used")
        if not 0 <= used <= part.strategy.budget:
            return CheckResult(
                False, f"part {part.name} colors_used {used} outside 0..{part.strategy.budget}"
            )
        if base + used - 1 > cert.budget:
            return CheckResult(False, f"part {part.name} colors_used {used} overruns the budget")
        if used_mask & ~(((1 << used) - 1) << base):
            return CheckResult(False, f"part {part.name} has colors outside its colors_used range")
        base += used
    return CheckResult(True)


def certificate_to_json(cert: ColoringCertificate) -> str:
    obj = {
        "omega": cert.omega,
        "budget": cert.budget,
        "colors": list(cert.coloring.colors),
        "branch": cert.trace.branch_id,
        "anchor": list(cert.trace.anchor),
        "parts": [
            {
                "name": p.name,
                "vertices": bit_list(p.vertices),
                "strategy": p.strategy.kind,
                "budget": p.strategy.budget,
                "colors_used": p.colors_used,
            }
            for p in cert.trace.parts
        ],
        "assertions": [{"ref": r, "ok": True} for r in cert.trace.assertions],
    }
    return json.dumps(obj, separators=(",", ":"))
