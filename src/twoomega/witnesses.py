"""Tightness witnesses: the Mycielski operator and two fixed graphs whose
chromatic number meets the 2*omega budget exactly, plus a verifier that
recomputes their parameters from scratch.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .graphs import Graph, bits, cycle
from .oracles import chromatic_number
from .patterns import class_membership


class WitnessReport(NamedTuple):
    name: str
    n: int
    m: int
    class_member: bool
    omega: int
    chi: int
    bound_tight: bool  # chi == 2 * omega


def mycielskian(g: Graph) -> Graph:
    """Mycielski construction: originals 0..n-1, shadow of v at n+v, apex 2n.

    shadow(v) is adjacent to N(v); the apex is adjacent to every shadow.
    Output has 2n+1 vertices and 3m+n edges; it preserves triangle-freeness
    and raises the chromatic number by one.
    """
    n = g.n
    edges = list(g.edges())
    for v in range(n):
        for w in bits(g.adj[v]):
            edges.append((n + v, w))
    apex = 2 * n
    edges.extend((apex, n + v) for v in range(n))
    return Graph.from_edges(2 * n + 1, edges)


def groetzsch() -> Graph:
    """Mycielskian of the 5-cycle with the fixed labeling: cycle 0..4,
    shadows 5..9, apex 10."""
    return mycielskian(cycle(5))


def schlafli_complement() -> Graph:
    """The 27-line intersection graph: a_1..a_6, b_1..b_6, c_ij (i<j).

    a_i ~ b_j iff i != j; a_i ~ c_jk and b_i ~ c_jk iff i is in {j,k};
    c_ij ~ c_kl iff the pairs are disjoint.  Vertex order: a's (0..5),
    b's (6..11), then c's in lexicographic pair order (12..26).
    Strongly regular with parameters (27, 10, 1, 5).
    """
    pairs = list(itertools.combinations(range(1, 7), 2))
    c_index = {pq: 12 + i for i, pq in enumerate(pairs)}
    edges = []
    for i in range(1, 7):
        for j in range(1, 7):
            if i != j:
                edges.append((i - 1, 6 + (j - 1)))
        for (p, q), idx in c_index.items():
            if i in (p, q):
                edges.append((i - 1, idx))
                edges.append((6 + (i - 1), idx))
    for (p, q), idx in c_index.items():
        for (r, s), jdx in c_index.items():
            if idx < jdx and not {p, q} & {r, s}:
                edges.append((idx, jdx))
    dedup = sorted({(min(u, v), max(u, v)) for u, v in edges})
    return Graph.from_edges(27, dedup)


WITNESS_BUILDERS = {
    "groetzsch": groetzsch,
    "schlafli_complement": schlafli_complement,
}

EXPECTED_REPORTS = {
    "groetzsch": WitnessReport("groetzsch", 11, 20, True, 2, 4, True),
    "schlafli_complement": WitnessReport("schlafli_complement", 27, 135, True, 3, 6, True),
}


def verify_witness(g: Graph, expected: WitnessReport) -> tuple[WitnessReport, tuple[str, ...]]:
    """Recompute every report field from scratch; return the recomputed
    report and the names of any fields that disagree with ``expected``."""
    res = chromatic_number(g)
    report = WitnessReport(
        name=expected.name,
        n=g.n,
        m=g.edge_count,
        class_member=class_membership(g).member,
        omega=len(res.clique),
        chi=res.chi,
        bound_tight=res.chi == 2 * len(res.clique),
    )
    mismatches = tuple(
        f for f in ("n", "m", "class_member", "omega", "chi", "bound_tight")
        if getattr(report, f) != getattr(expected, f)
    )
    return report, mismatches
