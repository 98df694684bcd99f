"""The bit-loop kernels against their generator-based references in
``conftest``: same results, same witnesses, same tie-breaks.

The golden certificate and scan digests reach the exact search in only a
few members, so the search order of the solvers is pinned here on every
graph with n <= 6, on seeded G(n, p) graphs with n = 7..14 and on both
tightness witnesses; the exact colouring also on seeded G(n, p) graphs
with n = 15..20."""

import random
from functools import cache

from twoomega.colorer import BranchTrace, ColoringCertificate, check_certificate
from twoomega.graphs import induced, triangles
from twoomega.oracles import (
    Coloring,
    _k_colorable,
    chromatic_number,
    clique_number,
    greedy_coloring,
)
from twoomega.patterns import _has_p3up2, _has_w4
from twoomega.witnesses import groetzsch, schlafli_complement

from conftest import (
    all_graphs,
    rand_graph,
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
        assert greedy_coloring(g).colors == ref_greedy_coloring(g)
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
