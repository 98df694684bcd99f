"""The bit-loop kernels against their generator-based references in
``conftest``: same results, same witnesses, same tie-breaks.

The golden certificate and scan digests reach the exact search in only a
few members, so the search order of the solvers is pinned here on every
graph with n <= 6, on seeded G(n, p) graphs with n = 7..14 and on both
tightness witnesses; the exact colouring also on seeded G(n, p) graphs
with n = 15..20.  The membership detectors are also pinned on dense
G(n, 0.9) draws and clique blow-ups, the omega >= 5 band's detectors
against ``has_induced``, and the mask kernels ``c4_in`` and ``c5_in``
against ``has_induced`` on the induced copy; ``c5_in`` also against its
unpeeled walk ``ref_c5_in`` on cliques, C5 joins and masks whose peel
takes several rounds."""

import random
from functools import cache

from twoomega.colorer import BranchTrace, ColoringCertificate, check_certificate
from twoomega.graphs import (
    Graph,
    c4_in,
    c5_in,
    complete,
    cycle,
    induced,
    join,
    path,
    triangles,
)
from twoomega.oracles import (
    Coloring,
    _k_colorable,
    chromatic_number,
    clique_number,
)
from twoomega.patterns import PATTERNS, _has_p2uk3, _has_p3up2, _has_w4, _has_w5, has_induced
from twoomega.witnesses import groetzsch, schlafli_complement

from conftest import (
    ALL_PATTERNS,
    all_graphs,
    band5_hosts,
    clique_blowup,
    complement,
    rand_graph,
    ref_c5_in,
    ref_clique_number,
    ref_greedy_coloring,
    ref_has_p3up2,
    ref_has_w4,
    ref_induced_rows,
    ref_k_colorable,
    ref_monochromatic,
    ref_triangles,
)


@cache
def corpus() -> tuple:
    """Every graph with n <= 6, 3,000 seeded G(n, p) with n = 7..14, and
    both witnesses."""
    graphs = [g for n in range(7) for g in all_graphs(n)]
    rng = random.Random(20231010)
    for _ in range(3000):
        graphs.append(rand_graph(rng, rng.randrange(7, 15), rng.choice((0.2, 0.4, 0.5, 0.6, 0.8))))
    graphs += [groetzsch(), schlafli_complement()]
    return tuple(graphs)


def test_corpus_size():
    assert len(corpus()) == 33868 + 3000 + 2


def test_greedy_and_clique_match_reference():
    for g in corpus():
        # the exact search's first descent with k = n is the greedy coloring
        assert tuple(_k_colorable(g, g.n, (), None)) == ref_greedy_coloring(g)
        assert clique_number(g) == ref_clique_number(g)


def test_exact_coloring_matches_reference():
    # every k the chromatic solver may try, feasible or not, from the same
    # pre-colored clique
    for g in corpus():
        omega, clique = ref_clique_number(g)
        upper = max(ref_greedy_coloring(g), default=0)
        for k in range(omega, upper):
            assert _k_colorable(g, k, clique, None) == ref_k_colorable(g, k, clique), (g, k)
        res = chromatic_number(g)
        want = next(
            (c for k in range(omega, upper) if (c := ref_k_colorable(g, k, clique))),
            ref_greedy_coloring(g),
        )
        assert res.coloring.colors == tuple(want)
        assert res.chi == max(want, default=0)
        assert res.clique == clique


def test_exact_coloring_matches_reference_above_14():
    # 60 seeded G(n, p) with n = 15..20, ten per n over five densities; every
    # k from 1 to the greedy palette, infeasible below omega included
    rng = random.Random(20261019)
    hard = 0
    for n in range(15, 21):
        for p in (0.15, 0.3, 0.45, 0.6, 0.75) * 2:
            g = rand_graph(rng, n, p)
            omega, clique = ref_clique_number(g)
            upper = max(ref_greedy_coloring(g))
            for k in range(1, upper + 1):
                want = ref_k_colorable(g, k, clique)
                assert _k_colorable(g, k, clique, None) == want, (g, k)
                hard += want is None and k >= omega
    assert hard >= 10  # some searches prove a k >= omega infeasible


def test_detectors_triangles_and_induced_match_reference():
    rng = random.Random(7)
    for g in corpus():
        assert _has_p3up2(g) == ref_has_p3up2(g)
        assert _has_w4(g) == ref_has_w4(g)
        sub = rng.getrandbits(g.n) if g.n else 0
        for mask in (g.full_mask, sub):
            assert list(triangles(g, mask)) == ref_triangles(g, mask)
            h = induced(g, mask)
            assert (h.n, h.adj) == ref_induced_rows(g, mask)


def test_detectors_match_reference_on_dense_draws_and_blowups():
    # dense_sampling's regime, G(n, 0.9) with n = 13..16, where M({x, y})
    # is small and some hub's N(h) almost always holds a c4; and C5[K_k], a
    # member where every hub meets one common neighborhood k^2 times
    rng = random.Random(20261020)
    graphs = [rand_graph(rng, 13 + i % 4, 0.9) for i in range(2000)]
    graphs += [clique_blowup(cycle(5), k) for k in range(2, 9)]
    found = [0, 0]
    for g in graphs:
        got = _has_p3up2(g), _has_w4(g)
        assert got == (ref_has_p3up2(g), ref_has_w4(g)), g
        found[0] += got[0]
        found[1] += got[1]
    assert found[0] >= 5 and found[1] >= 1900
    assert not any(_has_p3up2(g) or _has_w4(g) for g in graphs[2000:])


def test_band_detectors_match_has_induced():
    # the edge split for p2uk3 (a triangle in M({x, y})) and the hub split
    # for w5 (an induced c5 in N(h)) against the presence search, on every
    # graph with n <= 6, seeded G(n, p) with n = 8..16, K_0..K_12 and
    # C5[K_k] for k = 2..8
    w5, p2uk3 = PATTERNS["w5"], PATTERNS["p2uk3"]
    found = [0, 0]
    for g in band5_hosts():
        want = has_induced(g, w5), has_induced(g, p2uk3)
        assert (_has_w5(g), _has_p2uk3(g)) == want, g
        found[0] += want[0]
        found[1] += want[1]
    # each pattern is present on more than 100 hosts
    assert min(found) > 100
    # W5 itself: a hub with exactly five neighbors
    assert _has_w5(w5.graph) and not _has_w5(cycle(5))


def test_mask_kernels_match_has_induced():
    # every graph with n <= 6 on its whole vertex set, then random masks of
    # seeded G(n, p) with n = 5..16 and of 2-clique blow-ups of G(n, p) with
    # n = 4..8, whose twins repeat common neighborhoods
    c4, c5 = ALL_PATTERNS["c4"], ALL_PATTERNS["c5"]
    cases = [(g, g.full_mask) for n in range(7) for g in all_graphs(n)]
    rng = random.Random(20261021)
    for _ in range(3000):
        n = rng.randrange(5, 17)
        g = rand_graph(rng, n, rng.choice((0.2, 0.4, 0.6, 0.8, 0.9)))
        cases.append((g, rng.getrandbits(n)))
    for _ in range(1000):
        g = clique_blowup(rand_graph(rng, rng.randrange(4, 9), rng.choice((0.3, 0.5, 0.7))), 2)
        cases.append((g, rng.getrandbits(g.n)))
    found = [0, 0]
    for g, mask in cases:
        sub = induced(g, mask)
        want = has_induced(sub, c4), has_induced(sub, c5)
        assert (c4_in(g, mask), c5_in(g, mask)) == want, (g, mask)
        found[0] += want[0]
        found[1] += want[1]
    assert min(found) > 2000


def peel(g: Graph, mask: int) -> tuple[int, int]:
    """The core left when every vertex with fewer than two non-neighbors
    in the mask is dropped at once, round after round, and the number of
    rounds that dropped something."""
    rounds = 0
    while True:
        drop = [v for v in range(g.n) if mask >> v & 1 and (mask & ~g.adj[v] & ~(1 << v)).bit_count() < 2]
        if not drop:
            return mask, rounds
        for v in drop:
            mask &= ~(1 << v)
        rounds += 1


def co_tail(core: Graph, length: int) -> Graph:
    """The complement of ``core`` with a path of ``length`` new vertices
    hung off vertex 0: in the complement the tail's vertices have one or
    two non-neighbors, and the peel eats the tail one vertex per round."""
    n = core.n + length
    edges = list(core.edges()) + [(v, v + 1) for v in range(core.n, n - 1)]
    if length:
        edges.append((0, core.n))
    return complement(Graph.from_edges(n, edges))


def test_c5_in_matches_reference_and_has_induced():
    c5 = ALL_PATTERNS["c5"]
    rng = random.Random(20261024)
    cases = []
    for g in corpus():
        cases += [(g, g.full_mask), (g, rng.getrandbits(g.n) if g.n else 0)]
    # C5 joined to K_k: every clique vertex is adjacent to all, so the
    # core is exactly the C5
    for k in range(21):
        g = join(complete(k), cycle(5))
        assert peel(g, g.full_mask)[0] == 0b11111 << k
        cases.append((g, g.full_mask))
    # K_n: the first round drops every vertex
    for n in range(61):
        g = complete(n)
        assert peel(g, g.full_mask) == (0, min(n, 1))
        cases.append((g, g.full_mask))
    # complements of a C5, a C6 and a bare path with a tail: the peel
    # takes the tail away over several rounds and leaves the C5 (a c5),
    # the C6's complement (no c5) or nothing
    for length in range(2, 16):
        for core, want in ((cycle(5), 0b11111), (cycle(6), 0b111111), (path(4), 0)):
            g = co_tail(core, length)
            left, rounds = peel(g, g.full_mask)
            assert left == want and rounds >= length // 2, (core, length)
            cases.append((g, g.full_mask))
            # the same host joined to a clique, which the first round drops
            h = join(complete(6), g)
            assert peel(h, h.full_mask)[0] == left << 6
            cases.append((h, h.full_mask))
    found = 0
    for g, mask in cases:
        want = has_induced(induced(g, mask), c5)
        assert c5_in(g, mask) == ref_c5_in(g, mask) == want, (g, mask)
        found += want
    assert found > 3000


def test_check_certificate_reports_reference_monochromatic_edge():
    rng = random.Random(11)
    trace = BranchTrace("B0", (), (), ())
    caught = 0
    for g in corpus():
        colors = tuple(rng.randint(1, 3) for _ in range(g.n))
        cert = ColoringCertificate(Coloring(colors), 0, (), 0, trace, False)
        got = check_certificate(g, cert).failure
        want = ref_monochromatic(g, colors)
        if want is None:
            assert "monochromatic" not in (got or "")
        else:
            assert got == want
            caught += 1
    assert caught > 20000
