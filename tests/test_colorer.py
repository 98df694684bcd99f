import pytest

from twoomega.colorer import (
    BudgetViolation,
    NotInClass,
    PartStrategy,
    StrategyPreconditionFailed,
    certificate_to_json,
    check_certificate,
    color_bounded,
    execute_part,
    find_branch,
)
from twoomega.graphs import (
    Graph,
    bit_list,
    bitmask,
    complete,
    cycle,
    empty_graph,
    graph6_decode,
    join,
    path,
    union,
)
from twoomega.oracles import chromatic_number, validate_coloring
from twoomega.patterns import PATTERNS, class_membership
from twoomega.witnesses import groetzsch

from conftest import all_graphs, rand_graph


def h3_host() -> Graph:
    # edge {0,1}; triangle {2,3,4}; apex 5 complete to the triangle and the edge
    return Graph.from_edges(
        6, [(0, 1), (2, 3), (2, 4), (3, 4), (5, 2), (5, 3), (5, 4), (5, 0), (5, 1)]
    )


def h4_host() -> Graph:
    ft = PATTERNS["four_triangle"].graph
    return Graph.from_edges(7, list(ft.edges()) + [(6, 0), (6, 1), (6, 2)])


def j7_host() -> Graph:
    # pendant 0-1; 1 adjacent to two vertices of the triangle {2,3,4}
    return Graph.from_edges(5, [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])


BRANCH_SUITE = [
    ("K5", lambda: complete(5), "G3"),
    ("join(K4,C5)", lambda: join(complete(4), cycle(5)), "G1"),
    ("K2+K5", lambda: union(complete(2), complete(5)), "G2"),
    ("2K3+K4", lambda: union(union(complete(3), complete(3)), complete(4)), "H1"),
    ("K2+K4", lambda: union(complete(2), complete(4)), "H2"),
    ("h3host", h3_host, "H3"),
    ("h4host", h4_host, "H4"),
    ("join(K2,C5)", lambda: join(complete(2), cycle(5)), "H5"),
    ("K4", lambda: complete(4), "H6"),
    ("p2uk3", lambda: PATTERNS["p2uk3"].graph, "J1"),
    ("f1", lambda: PATTERNS["f1"].graph, "J2"),
    ("f2", lambda: PATTERNS["f2"].graph, "J3"),
    ("f3", lambda: PATTERNS["f3"].graph, "J4"),
    ("f4", lambda: PATTERNS["f4"].graph, "J5"),
    ("hammer", lambda: PATTERNS["hammer"].graph, "J6"),
    ("k1uk3", lambda: PATTERNS["k1uk3"].graph, "J7"),
    ("j7host", j7_host, "J7"),
    ("K3", lambda: complete(3), "J8"),
    ("groetzsch", groetzsch, "OMEGA2"),
    ("edgeless", lambda: empty_graph(4), "B0"),
]


@pytest.mark.parametrize("name,make,branch", BRANCH_SUITE)
def test_branch_dispatch_and_certificates(name, make, branch):
    g = make()
    assert class_membership(g).member, name
    cert = color_bounded(g, strict=True, assert_proofs=True)
    assert cert.trace.branch_id == branch
    assert cert.class_checked
    assert all(a.ok for a in cert.trace.assertions)
    assert check_certificate(g, cert)
    assert cert.coloring.palette_size <= cert.budget == 2 * cert.omega
    assert validate_coloring(g, cert.coloring)[0]


def test_find_branch_examples():
    assert find_branch(groetzsch()).branch_id == "OMEGA2"
    choice = find_branch(union(complete(2), complete(5)))
    assert choice.branch_id == "G2"
    assert choice.anchor[0:2] == (0, 1)  # the p2 lands on the K2 component
    assert find_branch(join(complete(2), cycle(5))).branch_id == "H5"


def test_k5_certificate_shape():
    cert = color_bounded(complete(5))
    assert cert.trace.branch_id == "G3"
    assert cert.coloring.palette_size == 5
    assert cert.budget == 10


def test_join_k4_c5_budget():
    g = join(complete(4), cycle(5))
    cert = color_bounded(g)
    assert cert.trace.branch_id == "G1"
    assert cert.omega == 6
    parts = {p.name: p for p in cert.trace.parts}
    assert parts["n_hub"].strategy.budget == 7  # ceil(5*(6-1)/4)
    assert parts["m_closed_hub"].strategy.budget == 5
    assert cert.coloring.palette_size <= 12
    assert chromatic_number(g).chi == 7


def test_omega2_exact_on_groetzsch():
    cert = color_bounded(groetzsch(), strict=True)
    assert cert.trace.branch_id == "OMEGA2"
    assert cert.coloring.palette_size == 4
    assert cert.budget == 4


def test_strict_rejects_non_members():
    bad = union(cycle(5), path(2))
    with pytest.raises(NotInClass) as exc:
        color_bounded(bad, strict=True)
    assert exc.value.report.violations[0].pattern_id == "p3up2"


def test_empty_graph_certificate():
    cert = color_bounded(empty_graph(0))
    assert cert.omega == 0 and cert.budget == 0
    assert cert.coloring.colors == ()
    assert cert.trace.branch_id == "B0"
    assert check_certificate(empty_graph(0), cert)


def test_isolated_vertices_fall_into_m_parts():
    g = union(PATTERNS["hammer"].graph, empty_graph(3))
    cert = color_bounded(g, strict=True, assert_proofs=True)
    assert cert.trace.branch_id == "J6"
    assert check_certificate(g, cert)


def test_j7_degenerate_isolated_anchor():
    g = PATTERNS["k1uk3"].graph
    cert = color_bounded(g, strict=True, assert_proofs=True)
    assert cert.trace.branch_id == "J7"
    assert len(cert.trace.parts) == 1
    assert cert.trace.parts[0].strategy.kind == "exact_with_budget"
    assert check_certificate(g, cert)


def test_j7_nondegenerate_parts():
    cert = color_bounded(j7_host(), strict=True, assert_proofs=True)
    names = [p.name for p in cert.trace.parts]
    assert names == ["n_v", "n_vp_minus", "m_pair_plus_v"]


def test_determinism_byte_identical():
    for make in (groetzsch, lambda: join(complete(4), cycle(5)), j7_host):
        a = certificate_to_json(color_bounded(make(), strict=True, assert_proofs=True))
        b = certificate_to_json(color_bounded(make(), strict=True, assert_proofs=True))
        assert a == b


def test_trace_parts_partition(rng):
    for _ in range(120):
        g = rand_graph(rng, rng.randrange(0, 9))
        if not class_membership(g).member:
            continue
        cert = color_bounded(g)
        seen = 0
        for part in cert.trace.parts:
            assert part.vertices & seen == 0
            seen |= part.vertices
        assert seen == g.full_mask
        used = {c for c in cert.coloring.colors}
        assert cert.coloring.palette_size <= 2 * cert.omega


def test_check_certificate_catches_tampering():
    g = complete(5)
    cert = color_bounded(g)
    assert check_certificate(g, cert)
    bad_colors = list(cert.coloring.colors)
    bad_colors[1] = bad_colors[0]
    from dataclasses import replace
    from twoomega.oracles import Coloring

    tampered = replace(cert, coloring=Coloring(tuple(bad_colors)))
    res = check_certificate(g, tampered)
    assert not res
    assert "monochromatic" in res.failure


def test_check_certificate_rejects_wrong_omega():
    from dataclasses import replace

    g = complete(4)
    cert = color_bounded(g)
    assert not check_certificate(g, replace(cert, omega=3, budget=6))


def test_check_certificate_rejects_shared_part_colors():
    from dataclasses import replace
    from twoomega.oracles import Coloring

    g = union(complete(3), complete(3))
    cert = color_bounded(g)
    assert [(p.name, bit_list(p.vertices)) for p in cert.trace.parts if p.vertices] == [
        ("n3", [2]), ("m_closed_pair", [0, 1, 3, 4, 5])
    ]
    colors = list(cert.coloring.colors)
    colors[2] = colors[5]  # n3 borrows a color of the other triangle: still proper
    tampered = replace(cert, coloring=Coloring(tuple(colors)))
    assert validate_coloring(g, tampered.coloring)[0]
    res = check_certificate(g, tampered)
    assert not res
    assert res.failure == "part m_closed_pair reuses a color of an earlier part"


@pytest.mark.parametrize("mask_of", [lambda m: m | 1 << 7, lambda m: -1], ids=["bit7", "minus1"])
def test_check_certificate_rejects_part_outside_graph(mask_of):
    from dataclasses import replace

    g = cycle(5)
    cert = color_bounded(g)
    first, *rest = cert.trace.parts
    parts = (replace(first, vertices=mask_of(first.vertices)), *rest)
    res = check_certificate(g, replace(cert, trace=replace(cert.trace, parts=parts)))
    assert not res
    assert res.failure == f"part {first.name} has vertices outside the graph"


@pytest.mark.parametrize("clique,failure", [
    ((0, 3, 4, 5), "witness is not a clique"),
    ((2, 3, 4), "witness has 3 vertices, omega is 4"),
    ((2, 3, 4, 5, 1), "witness has 5 vertices, omega is 4"),
    ((2, 2, 4, 5), "witness repeats a vertex"),
    ((2, 3, 4, 6), "witness has vertices outside the graph"),
    ((-1, 3, 4, 5), "witness has vertices outside the graph"),
], ids=["non-adjacent", "too-small", "too-large", "repeated", "past-n", "negative"])
def test_check_certificate_rejects_tampered_witness(clique, failure):
    from dataclasses import replace

    g = union(complete(2), complete(4))
    cert = color_bounded(g)
    assert cert.clique == (2, 3, 4, 5) and check_certificate(g, cert)
    res = check_certificate(g, replace(cert, clique=clique))
    assert not res
    assert res.failure == failure


@pytest.mark.parametrize("field,failure", [
    ("clique", "witness has a non-integer vertex"),
    ("mask", "part all has a non-integer vertex mask"),
], ids=["float-witness", "float-mask"])
def test_check_certificate_rejects_non_integers(field, failure):
    from dataclasses import replace

    g = complete(3)
    cert = color_bounded(g)
    assert check_certificate(g, cert)
    if field == "clique":
        cert = replace(cert, clique=(0, 1, 2.0))
    else:
        part = replace(cert.trace.parts[0], vertices=float(cert.trace.parts[0].vertices))
        cert = replace(cert, trace=replace(cert.trace, parts=(part,)))
    res = check_certificate(g, cert)
    assert not res
    assert res.failure == failure


def test_check_certificate_runs_no_exact_solver(monkeypatch):
    from twoomega import colorer, oracles

    certs = [(g, color_bounded(g)) for g in (make() for _, make, _ in BRANCH_SUITE)]

    def forbidden(*args, **kwargs):
        raise AssertionError("check_certificate reached an exact solver")

    for mod in (colorer, oracles):
        monkeypatch.setattr(mod, "clique_number", forbidden)
        monkeypatch.setattr(mod, "chromatic_number", forbidden)
    for g, cert in certs:
        assert check_certificate(g, cert)


# -- execute_part -------------------------------------------------------------


def test_execute_part_cliques():
    g = union(complete(3), complete(2))
    sub, used = execute_part(g, g.full_mask, PartStrategy("cliques", 3), 1)
    assert used == 3
    assert [sub[v] for v in range(3)] == [1, 2, 3]
    assert [sub[v] for v in (3, 4)] == [1, 2]


def test_execute_part_exact_on_c5():
    g = cycle(5)
    sub, used = execute_part(g, g.full_mask, PartStrategy("exact_with_budget", 3), 4)
    assert used == 3
    assert set(sub.values()) == {4, 5, 6}


def test_execute_part_indexed_cover():
    g = empty_graph(4)
    classes = (("a", bitmask([0, 1])), ("b", bitmask([2, 3])))
    strat = PartStrategy("indexed_cover", 2, classes=classes)
    sub, used = execute_part(g, g.full_mask, strat, 1)
    assert sub == {0: 1, 1: 1, 2: 2, 3: 2}
    assert used == 2


def test_execute_part_independent_precondition():
    with pytest.raises(StrategyPreconditionFailed):
        execute_part(complete(2), 0b11, PartStrategy("independent", 1), 1)


def test_execute_part_bipartite_precondition():
    with pytest.raises(StrategyPreconditionFailed):
        execute_part(cycle(5), cycle(5).full_mask, PartStrategy("bipartite", 2), 1)


def test_execute_part_budget_violation():
    with pytest.raises(BudgetViolation):
        execute_part(complete(4), 0b1111, PartStrategy("exact_with_budget", 3), 1)
    with pytest.raises(BudgetViolation):
        execute_part(complete(3), 0b111, PartStrategy("cliques", 2), 1)


# -- symbolic budget sums ------------------------------------------------------


def ceil_div(a, b):
    return -(-a // b)


def test_budget_sums_within_two_omega():
    for omega in range(5, 21):
        assert ceil_div(5 * (omega - 1), 4) + 5 <= 2 * omega  # G1
        assert (omega - 1) + (omega + 1) <= 2 * omega  # G2 with chain bound
        assert (omega - 1) + (omega - 1) + 2 <= 2 * omega  # G3
    assert 4 + 3 + 1 <= 8  # H1
    assert 1 + 3 + 4 <= 8  # H2
    assert 4 + 3 + 1 <= 8  # H3
    assert 6 + 1 + 1 <= 8  # H4
    assert 4 + 2 + 2 <= 8  # H5
    assert 8 <= 8  # H6
    assert 1 + 1 + 1 + 3 <= 6  # J1
    assert 5 * 1 <= 6  # J2/J4/J5
    assert 2 + 2 + 2 <= 6  # J3
    assert 3 + 1 + 2 <= 6  # J6 and J7
    assert 6 <= 6  # J8
    assert 4 <= 4  # OMEGA2


def test_exhaustive_small_scan_members_colored():
    for n in range(0, 6):
        for g in all_graphs(n):
            if not class_membership(g).member:
                continue
            cert = color_bounded(g, assert_proofs=True)
            assert check_certificate(g, cert)
            assert chromatic_number(g).chi <= 2 * cert.omega


def structured_members():
    """Unions/joins of cliques, 5-cycles and small members, seeded; yields
    the class members.  They reach the high-omega branches that small
    exhaustive scans cannot."""
    import random

    from twoomega.patterns import is_class_member

    rng = random.Random(777)

    def atom():
        r = rng.random()
        if r < 0.45:
            return complete(rng.randrange(1, 6))
        if r < 0.7:
            return cycle(5)
        if r < 0.8:
            return empty_graph(rng.randrange(1, 4))
        while True:
            n = rng.randrange(1, 7)
            g = rand_graph(rng, n, 0.5)
            if is_class_member(g):
                return g

    for _ in range(1200):
        g = atom()
        for _ in range(rng.randrange(0, 3)):
            h = atom()
            g = join(g, h) if rng.random() < 0.6 else union(g, h)
            if g.n > 24:
                break
        if is_class_member(g):
            yield g


def test_structured_members_stress():
    from collections import Counter

    hist = Counter()
    for g in structured_members():
        cert = color_bounded(g, assert_proofs=True)
        assert check_certificate(g, cert)
        assert cert.coloring.palette_size <= 2 * cert.omega
        hist[cert.trace.branch_id] += 1
    # the omega >= 5 branches must all have fired
    assert hist["G1"] > 0 and hist["G2"] > 0 and hist["G3"] > 0


def n7_members(count: int, seed: int = 606):
    """The first ``count`` class members among seeded uniform n=7 graphs."""
    import random

    from twoomega.cli import _graph_from_mask
    from twoomega.patterns import is_class_member

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = _graph_from_mask(7, rng.randrange(1 << 21))
        if is_class_member(g):
            out.append(g)
    return out


def test_find_branch_matches_ungated_reference():
    # n = 6 members are outside the golden corpus; structured members reach
    # the omega >= 5 band, BRANCH_SUITE holds the only H4 trigger, and the
    # n = 7 sample gives the triangle pass hosts with many triangles
    from twoomega.oracles import clique_number
    from twoomega.patterns import is_class_member

    from conftest import reference_branch

    graphs = [make() for _, make, _ in BRANCH_SUITE]
    graphs += (g for g in all_graphs(6) if is_class_member(g))
    graphs += structured_members()
    graphs += n7_members(3000)
    branches = set()
    for g in graphs:
        omega, _ = clique_number(g)
        choice = find_branch(g, omega)
        assert choice == reference_branch(g, omega), g.adj
        branches.add(choice.branch_id)
    assert len(branches) == 19


# sha256 over the certificate_to_json lines of golden_corpus(), with
# assert_proofs off and on: certificates (parts, anchors, assertions) are
# byte-identical across refactors of the colorer
GOLDEN_CERT_DIGESTS = {
    False: "8c2b26c4685dc9ec9d294217161c41b93e8e02b3fb39f2fb7f4aec4bf0e1b738",
    True: "a8c5bdc16e38ad15c179bbdc9d1528c10e796c00f5b3a5b1a1225a19d9e48db6",
}


def golden_corpus():
    yield from (make() for _, make, _ in BRANCH_SUITE)
    for n in range(6):
        yield from (g for g in all_graphs(n) if class_membership(g).member)
    yield from structured_members()


@pytest.mark.parametrize("assert_proofs", [False, True])
def test_golden_certificates(assert_proofs):
    import hashlib

    h = hashlib.sha256()
    branches = set()
    for g in golden_corpus():
        cert = color_bounded(g, assert_proofs=assert_proofs)
        branches.add(cert.trace.branch_id)
        h.update(certificate_to_json(cert).encode() + b"\n")
    assert len(branches) == 19
    assert h.hexdigest() == GOLDEN_CERT_DIGESTS[assert_proofs]


def test_timeout_propagates_from_exact_parts():
    from twoomega.colorer import ColoringTimeout
    from twoomega.witnesses import schlafli_complement

    with pytest.raises(ColoringTimeout):
        color_bounded(schlafli_complement(), time_budget=0.0)


def test_j6_orientation_regression():
    # Class member where the hammer branch must take its 1-color independent
    # part on the pendant side: the midpoint side contains the edge (1, 3).
    g = graph6_decode("EnY?")
    assert class_membership(g).member
    cert = color_bounded(g, strict=True, assert_proofs=True)
    assert cert.trace.branch_id == "J6"
    assert check_certificate(g, cert)
