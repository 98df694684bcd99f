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
from dataclasses import dataclass

from .graphs import (
    Graph,
    bit_list,
    bitmask,
    bits,
    clique_components,
    first_edge_in,
    induced,
    least_triangle_in,
)
from .oracles import Coloring, chromatic_number, clique_number, two_coloring, validate_coloring
from .patterns import (
    PATTERNS,
    class_membership,
    find_induced,
    first_present,
    has_induced,
    host_facts,
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


@dataclass(frozen=True)
class PartStrategy:
    kind: str  # independent | cliques | bipartite | indexed_cover | exact_with_budget
    budget: int
    provenance: str = ""
    classes: tuple[tuple[str, int], ...] | None = None


@dataclass(frozen=True)
class Part:
    name: str
    vertices: int  # bitmask
    strategy: PartStrategy
    colors_used: int


@dataclass(frozen=True)
class Assertion:
    ref: str
    ok: bool


@dataclass(frozen=True)
class BranchTrace:
    branch_id: str
    anchor: tuple[int, ...]
    parts: tuple[Part, ...]
    assertions: tuple[Assertion, ...]


@dataclass(frozen=True)
class ColoringCertificate:
    coloring: Coloring
    omega: int
    clique: tuple[int, ...]  # an omega-clique: the witness that omega is attained
    budget: int
    trace: BranchTrace
    class_checked: bool


@dataclass(frozen=True)
class BranchChoice:
    branch_id: str
    pattern_id: str | None
    anchor: tuple[int, ...]


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


# -- vertex-set splits --------------------------------------------------------
#
# Generic questions about G[X] (an edge, a triangle, clique components) are
# answered by the helpers in ``graphs``; the splits below are the ones the
# proof's case analysis keeps reusing.


def _independent(g: Graph, mask: int) -> bool:
    return first_edge_in(g, mask) is None


def _pattern_free_in(g: Graph, mask: int, *pids: str) -> bool:
    """G[mask] contains none of the named patterns as an induced subgraph."""
    sub = induced(g, mask)
    facts = host_facts(sub)
    return not any(has_induced(sub, PATTERNS[pid], facts) for pid in pids)


def _max_clique_in(g: Graph, mask: int) -> tuple[int, int]:
    """Clique number of G[mask] with a witness mask in g's indexing."""
    verts = bit_list(mask)
    if not verts:
        return 0, 0
    size, wit = clique_number(induced(g, verts))
    return size, bitmask(verts[i] for i in wit)


def _pair_split(g: Graph, a: int, b: int) -> tuple[int, int, int]:
    """(N(a) - b, N(b) - N[a], M({a, b})) for an anchor pair a, b."""
    na, nb = g.adj[a], g.adj[b]
    pair = 1 << a | 1 << b
    return na & ~pair, nb & ~(na | pair), g.full_mask & ~(na | nb | pair)


def _common_split(g: Graph, a: int, b: int) -> tuple[int, int, int]:
    """(N(a) - N[b], N(b) - N[a], N(a) & N(b)): the exclusive and the
    common neighbors of a pair."""
    na, nb = g.adj[a], g.adj[b]
    return na & ~(nb | 1 << b), nb & ~(na | 1 << a), na & nb


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
        sub = induced(g, sub_vertices)
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
        res = chromatic_number(induced(g, verts), remaining)
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
         lambda: all(_independent(g, c) for _, c in classes)),
        ("hub-neighborhood-c4-free", False,
         lambda: _pattern_free_in(g, n_hub, "c4")),
        ("hub-neighborhood-omega", False,
         lambda: _max_clique_in(g, n_hub)[0] <= omega - 1),
    ]
    return parts, checks


def _branch_g2(g, omega, anchor):
    u1, u2 = anchor[0], anchor[1]
    tri = bitmask(anchor[2:5])
    n1, nn, mm = _pair_split(g, u1, u2)
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
        ("n_u1", n1, PartStrategy(
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
        ("n_u1-c4-c5-free", False, lambda: _pattern_free_in(g, g.adj[u1], "c4", "c5")),
        ("n_u2-c4-c5-free", False, lambda: _pattern_free_in(g, g.adj[u2], "c4", "c5")),
    ]
    return parts, checks


def _branch_g3(g, omega, anchor):
    u1, u2 = anchor
    _, n2, mm = _pair_split(g, u1, u2)
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
        ("n_u1-c4-c5-free", False, lambda: _pattern_free_in(g, g.adj[u1], "c4", "c5")),
        ("n_u2-c4-c5-free", False, lambda: _pattern_free_in(g, g.adj[u2], "c4", "c5")),
    ]
    return parts, checks


def _branch_h1(g, omega, anchor):
    s = anchor[0:3]
    s_mask = bitmask(s)
    ns = g.neighborhood_of_set(s_mask)
    mm = g.non_neighborhood(s_mask)
    common = g.adj[s[0]] & g.adj[s[1]] & g.adj[s[2]] & ~s_mask
    n = ns & ~common

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
        ("s-complete-independent", True, lambda: _independent(g, common)),
        ("n1-k3-c4-free", False,
         lambda: least_triangle_in(g, n1) is None and _pattern_free_in(g, n1, "c4")),
    ]
    return parts, checks


def _branch_h2(g, omega, anchor):
    v1, v2 = anchor[0], anchor[1]
    n1, n2, n3 = _common_split(g, v1, v2)
    n4 = _split_by_hits(g, n3, bitmask(anchor[2:6]))[3]
    rest = n3 & ~n4
    mm = g.non_neighborhood(1 << v1 | 1 << v2)
    parts = [
        ("n1_n2_n4", n1 | n2 | n4, PartStrategy("independent", 1)),
        ("n3_minus_n4", rest, PartStrategy(
            "exact_with_budget", 3, "c4-free with omega <= 2: chi <= 3")),
        ("m_closed_pair", mm | 1 << v1 | 1 << v2, PartStrategy("cliques", 4)),
    ]
    checks = [
        ("eq2:N1|N2|N4 independent", True,
         lambda: _independent(g, n1 | n2 | n4)),
        ("n3-minus-n4-c4-free-omega2", False,
         lambda: _pattern_free_in(g, rest, "c4") and least_triangle_in(g, rest) is None),
        ("m-p3-free", False, lambda: clique_components(g, mm) is not None),
    ]
    return parts, checks


def _branch_h3(g, omega, anchor):
    v1, v2 = anchor[0], anchor[1]
    pair = 1 << v1 | 1 << v2
    byu = _split_by_hits(g, g.neighborhood_of_set(pair), bitmask(anchor[2:5]))
    mm = g.non_neighborhood(pair)
    parts = [
        ("n1u_plus_m_closed", byu[1] | mm | pair, PartStrategy(
            "exact_with_budget", 4, "two bipartite pieces: chi <= 4")),
        ("n2u", byu[2], PartStrategy(
            "exact_with_budget", 3, "(k3,c4)-free: chi <= 3")),
        ("n3u", byu[3], PartStrategy("independent", 1)),
    ]
    checks = [
        ("pair-neighbors-hit-triangle", True, lambda: byu[0] == 0),
        ("n3u-independent", True, lambda: _independent(g, byu[3])),
        ("n1u-small-and-common", False,
         lambda: byu[1].bit_count() <= 3
         and byu[1] & ~(g.adj[v1] & g.adj[v2]) == 0),
        ("n2u-k3-c4-free", False,
         lambda: least_triangle_in(g, byu[2]) is None and _pattern_free_in(g, byu[2], "c4")),
    ]
    return parts, checks


def _branch_h4(g, omega, anchor):
    s = anchor[0:3]
    s_mask = bitmask(s)
    n0, n1, n2, n3 = _split_by_hits(g, g.full_mask & ~s_mask, s_mask)
    low = n0 | n1

    def a_sets_small() -> bool:
        # A_i: low vertices with no neighbor in S - s_i
        for t in s:
            comps = clique_components(g, low & g.non_neighborhood(s_mask ^ 1 << t))
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
        ("n2-independent", True, lambda: _independent(g, n2)),
        ("n3-independent", True, lambda: _independent(g, n3)),
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
         lambda: _pattern_free_in(g, nv, "c4") and _max_clique_in(g, nv)[0] <= 3),
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
    n1, n2, n3 = _common_split(g, v1, v2)
    mm = g.non_neighborhood(1 << v1 | 1 << v2)
    parts = [
        ("n1", n1, PartStrategy("independent", 1)),
        ("n2", n2, PartStrategy("independent", 1)),
        ("n3", n3, PartStrategy("independent", 1)),
        ("m_closed_pair", mm | 1 << v1 | 1 << v2, PartStrategy("cliques", 3)),
    ]
    checks = [
        ("n1-independent", True, lambda: _independent(g, n1)),
        ("n2-independent", True, lambda: _independent(g, n2)),
        ("n3-independent", True, lambda: _independent(g, n3)),
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
        ("a1-independent", True, lambda: _independent(g, a[0])),
        ("a2-independent", True, lambda: _independent(g, a[1])),
        ("a3-independent", True, lambda: _independent(g, a[2])),
        ("n2-independent", True, lambda: _independent(g, n2)),
        ("n0-independent", True, lambda: _independent(g, n0)),
    ]
    return parts, checks


def _branch_j3(g, omega, anchor):
    v1, v2, u1, u2, u3, u4 = anchor
    nv1, nv2, mm = _pair_split(g, v1, v2)
    tri1 = bitmask((u1, u3, u4))  # triangle inside M(v1)
    tri2 = bitmask((u1, u2, u4))  # triangle inside M(v2)
    parts = [
        ("n_v1", nv1, PartStrategy("bipartite", 2)),
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
    n_mid, n_end_only, mm = _pair_split(g, mid, end)
    parts = [
        ("n_mid", n_mid, PartStrategy(
            "exact_with_budget", 3, "c4-free with omega <= 2: chi <= 3")),
        ("n_end_only", n_end_only, PartStrategy("independent", 1)),
        ("m_closed_pair", mm | 1 << mid | 1 << end, PartStrategy("cliques", 2)),
    ]
    checks = [
        ("pendant-side-independent", True, lambda: _independent(g, n_end_only)),
        ("n_mid-c4-free-omega2", False,
         lambda: _pattern_free_in(g, g.adj[mid], "c4")
         and least_triangle_in(g, g.adj[mid]) is None),
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
             lambda: _pattern_free_in(g, rest, "k1uk3")),
        ]
        return [("all", g.full_mask, strat)], checks
    nv = g.adj[v]
    vp = (nv & -nv).bit_length() - 1
    _, nvp, mm = _pair_split(g, v, vp)
    parts = [
        ("n_v", nv, PartStrategy("independent", 1)),
        ("n_vp_minus", nvp, PartStrategy(
            "exact_with_budget", 3, "c4-free with omega <= 2: chi <= 3")),
        ("m_pair_plus_v", mm | 1 << v, PartStrategy("cliques", 2)),
    ]
    checks = [
        ("n_v-independent", True, lambda: _independent(g, nv)),
        ("n_vp-c4-free-omega2", False,
         lambda: _pattern_free_in(g, g.adj[vp], "c4")
         and least_triangle_in(g, g.adj[vp]) is None),
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
# the band whose trigger is present fires; the last row of every band
# always fires.  A row without a probe fires on the least induced copy of
# its trigger pattern, and the lexicographic search runs only for the row
# that fires.  In the omega >= 5 band a presence search rules out each
# trigger in turn.  Every trigger of the omega = 3 and omega = 4 bands
# contains a triangle, so one pass over the host's triangles decides
# those bands (``first_present``).


def _always(g: Graph, *_) -> tuple[int, ...]:
    return ()


def _j7_anchor(g: Graph, k1: int) -> tuple[int, ...]:
    """Least k1uk3 anchor (v, t1, t2, t3), given the vertices k1 that have
    a triangle in their non-neighborhood, preferring a non-isolated v so
    the branch's companion vertex v' exists."""
    hosts = bitmask(v for v in bits(k1) if g.adj[v]) or k1
    v = (hosts & -hosts).bit_length() - 1
    return (v, *least_triangle_in(g, g.full_mask & ~(g.adj[v] | 1 << v)))


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


def _fire(g: Graph, omega: int):
    """The choice made by omega's band, with the builder of its row."""
    band = _BANDS[min(max(omega, 1), 5) - 1]
    if omega in (3, 4):
        facts = host_facts(g)
        i, k1 = first_present(g, [PATTERNS[row[1]] for row in band[:-1]], facts)
        branch_id, pid, probe, build = band[i]
        anchor = probe(g, k1) if probe else find_induced(g, PATTERNS[pid], facts).map
        return BranchChoice(branch_id, pid, anchor), build
    facts = None
    for branch_id, pid, probe, build in band:
        if probe is None:
            pattern = PATTERNS[pid]
            facts = facts or host_facts(g)
            if not has_induced(g, pattern, facts):
                continue
            anchor = find_induced(g, pattern, facts).map
        else:
            anchor = probe(g)
        if anchor is not None:
            return BranchChoice(branch_id, pid, anchor), build
    raise ValueError(f"no branch fired: omega={omega} is not the clique number")


def find_branch(g: Graph, omega: int | None = None) -> BranchChoice:
    """Deterministic dispatch to the proof branch that will color g.

    Assumes g is (p3up2, w4)-free; use ``color_bounded(strict=True)`` to
    have that checked.  Every graph matches some branch.
    """
    if omega is None:
        omega, _ = clique_number(g)
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
    byte-identical certificates.
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

    seen = 0
    for name, mask, _ in part_plan:
        if mask & seen:
            raise StrategyPreconditionFailed("parts-disjoint", f"part {name} overlaps")
        seen |= mask
    if seen != g.full_mask:
        raise StrategyPreconditionFailed("parts-cover", "parts do not cover V(G)")

    ran: list[Assertion] = []
    for ref, always, thunk in checks:
        if always or assert_proofs:
            ok = bool(thunk())
            ran.append(Assertion(ref, ok))
            if not ok:
                raise StrategyPreconditionFailed(ref)

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
    palette = coloring.palette_size
    if palette > 2 * omega:
        raise BudgetViolation("total", 2 * omega, palette)
    ok, edge = validate_coloring(g, coloring) if g.n else (True, None)
    if not ok:
        raise StrategyPreconditionFailed("proper-coloring", f"edge {edge} monochromatic")

    trace = BranchTrace(choice.branch_id, choice.anchor, tuple(parts_out), tuple(ran))
    return ColoringCertificate(coloring, omega, clique, 2 * omega, trace, class_checked)


def check_certificate(g: Graph, cert: ColoringCertificate) -> CheckResult:
    """Independent verifier: re-validates properness, the part partition,
    per-part budgets, disjoint per-part color ranges, the clique witness
    and the total against 2*|witness|.  Runs no exact solver and shares no
    code path with color_bounded's strategy executors."""
    colors = cert.coloring.colors
    if len(colors) != g.n:
        return CheckResult(False, "coloring length mismatch")
    if any(not isinstance(c, int) or c < 1 for c in colors):
        return CheckResult(False, "invalid color value")
    for u in range(g.n):
        row = g.adj[u]
        for v in bits(row & ~((2 << u) - 1)):
            if colors[u] == colors[v]:
                return CheckResult(False, f"edge ({u}, {v}) monochromatic")
    seen = 0
    palette = 0  # colors used by the parts checked so far, as a mask
    for part in cert.trace.parts:
        if not isinstance(part.vertices, int):
            return CheckResult(False, f"part {part.name} has a non-integer vertex mask")
        if part.vertices & ~g.full_mask:  # also catches negative masks
            return CheckResult(False, f"part {part.name} has vertices outside the graph")
        if part.vertices & seen:
            return CheckResult(False, f"part {part.name} overlaps another part")
        seen |= part.vertices
        used = {colors[v] for v in bits(part.vertices)}
        if len(used) > part.strategy.budget:
            return CheckResult(
                False, f"part {part.name} uses {len(used)} colors over budget"
            )
        used_mask = bitmask(used)
        if used_mask & palette:
            return CheckResult(False, f"part {part.name} reuses a color of an earlier part")
        palette |= used_mask
    if seen != g.full_mask:
        return CheckResult(False, "parts do not partition V(G)")
    wit = cert.clique
    if len(wit) != cert.omega:
        return CheckResult(False, f"witness has {len(wit)} vertices, omega is {cert.omega}")
    if any(not isinstance(v, int) for v in wit):
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
    if max(colors, default=0) > cert.budget:
        return CheckResult(False, "palette exceeds budget")
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
        "assertions": [{"ref": a.ref, "ok": a.ok} for a in cert.trace.assertions],
    }
    return json.dumps(obj, separators=(",", ":"))
