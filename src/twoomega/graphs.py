"""Immutable bitmask-backed simple graphs and the graph6 codec.

Vertices are the integers ``0..n-1``.  Vertex sets are plain Python ints
used as bitmasks (bit ``v`` set means vertex ``v`` is in the set), so
intersection, union and complement are single word operations; adjacency
is stored as one bit-row per vertex for the same reason.  Graphs are
immutable values: every construction returns a fresh graph, and vertex
indices referenced by certificates stay valid forever.  ``bits`` iterates
a mask for everything that is not hot; the hot walks (``induced``,
``triangles``, the constructor's symmetry check) inline the same
ascending bit loop, so their order is the same.

``c5_in`` first peels its mask, dropping every vertex with fewer than two
non-neighbors left in it until none does: the k-core peel of Matula and
Beck, on non-neighbors.  Each vertex of an induced c5 has exactly two
non-neighbors on the c5, so every c5 survives, and the walk runs only on
the core, which is empty on a clique.
"""

from __future__ import annotations


class GraphParseError(ValueError):
    """Malformed graph6 input; ``offset`` points at the offending byte."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def bitmask(vertices) -> int:
    """Build a vertex-set mask from an iterable of vertex indices."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int):
    """Iterate the vertices of a mask in ascending order.  A negative mask
    stands for an infinite set, so it raises ValueError."""
    if mask < 0:
        raise ValueError(f"vertex mask must be non-negative, got {mask}")
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def bit_list(mask: int) -> list[int]:
    return list(bits(mask))


class Graph:
    """A finite simple graph: symmetric, irreflexive adjacency on 0..n-1.

    An immutable value: two slots, compared and hashed by (n, adj), and
    pickled through the validating constructor."""

    __slots__ = ("n", "adj")

    n: int
    adj: tuple[int, ...]

    def __init__(self, n: int, adj: tuple[int, ...]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = tuple(adj)  # a value: the caller's sequence may change later
        if len(adj) != n:
            raise ValueError("adjacency must have one row per vertex")
        full = (1 << n) - 1
        for u, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"row {u} has bits outside 0..{n - 1}")
            if row >> u & 1:
                raise ValueError(f"self-loop at vertex {u}")
            rest = row
            while rest:
                lv = rest & -rest
                rest ^= lv
                v = lv.bit_length() - 1
                if not adj[v] >> u & 1:
                    raise ValueError(f"adjacency not symmetric at ({u}, {v})")
        _set_n(self, n)
        _set_adj(self, adj)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: Graph is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: Graph is immutable")

    def __eq__(self, other):
        if other.__class__ is not Graph:
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n!r}, adj={self.adj!r})"

    def __reduce__(self):
        return Graph, (self.n, self.adj)

    # -- basic accessors ------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self):
        """Yield edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def _check_vertex(self, v: int):
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range 0..{self.n - 1}")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))


# The slot descriptors write past Graph.__setattr__.
_set_n = Graph.n.__set__
_set_adj = Graph.adj.__set__


def _graph_nocheck(n: int, rows: tuple[int, ...]) -> Graph:
    # Hot-path constructor for callers that guarantee well-formed rows.
    g = object.__new__(Graph)
    _set_n(g, n)
    _set_adj(g, rows)
    return g


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def complete(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ 1 << v for v in range(n)))


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph.from_edges(n, edges)


# -- constructions -------------------------------------------------------


def union(a: Graph, b: Graph) -> Graph:
    """Disjoint union; a's vertices keep their indices, b's are shifted by a.n."""
    rows = list(a.adj) + [row << a.n for row in b.adj]
    return _graph_nocheck(a.n + b.n, tuple(rows))


def join(a: Graph, b: Graph) -> Graph:
    """Union plus all edges between the two sides; a's vertices come first."""
    amask = (1 << a.n) - 1
    bmask = ((1 << b.n) - 1) << a.n
    rows = [row | bmask for row in a.adj]
    rows += [(row << a.n) | amask for row in b.adj]
    return _graph_nocheck(a.n + b.n, tuple(rows))


def induced(g: Graph, mask: int) -> Graph:
    """G[mask]; kept vertices are re-indexed preserving their order."""
    keep = bit_list(mask)
    if keep and keep[-1] >= g.n:
        for v in keep:
            g._check_vertex(v)
    pos = [0] * g.n  # each kept vertex's bit in the induced copy
    for i, v in enumerate(keep):
        pos[v] = 1 << i
    adj = g.adj
    rows = []
    for v in keep:
        row = 0
        rest = adj[v] & mask
        while rest:
            lb = rest & -rest
            row |= pos[lb.bit_length() - 1]
            rest ^= lb
        rows.append(row)
    return _graph_nocheck(len(keep), tuple(rows))


# -- vertex-set helpers ----------------------------------------------------
#
# Questions about G[X] answered on the bitmask X directly, without building
# the induced copy.


def first_edge_in(g: Graph, mask: int) -> tuple[int, int] | None:
    """Least edge (u, v), u < v, of G[mask]; None when mask is independent."""
    for v in bits(mask):
        rest = g.adj[v] & mask & ~((2 << v) - 1)
        if rest:
            return v, (rest & -rest).bit_length() - 1
    return None


def triangles(g: Graph, mask: int):
    """Yield the triangles (a, b, c), a < b < c, of G[mask] in
    lexicographic order."""
    if mask < 0:
        raise ValueError(f"vertex mask must be non-negative, got {mask}")
    adj = g.adj
    rest = mask
    while rest:
        la = rest & -rest
        rest ^= la  # now the vertices of mask above a
        a = la.bit_length() - 1
        nb = adj[a] & rest
        while nb:
            lb = nb & -nb
            nb ^= lb  # now a's neighbors in mask above b
            b = lb.bit_length() - 1
            nc = nb & adj[b]
            while nc:
                lc = nc & -nc
                nc ^= lc
                yield a, b, lc.bit_length() - 1


def least_triangle_in(g: Graph, mask: int) -> tuple[int, int, int] | None:
    """Lexicographically least triangle (a, b, c), a < b < c, of G[mask]."""
    return next(triangles(g, mask), None)


def clique_components(g: Graph, mask: int) -> list[int] | None:
    """Components of G[mask] ordered by least vertex, when every one is a
    clique (G[mask] has no induced p3); otherwise None."""
    out = []
    rest = mask
    while rest:
        v = (rest & -rest).bit_length() - 1
        comp = g.adj[v] & mask | 1 << v
        for u in bits(comp):
            if g.adj[u] & mask | 1 << u != comp:
                return None
        out.append(comp)
        rest &= ~comp
    return out


def c4_in(g: Graph, mask: int) -> bool:
    """Whether G[mask] has an induced c4.

    It has one iff two non-adjacent x, z of mask have two non-adjacent
    common neighbors y, w in mask (the c4 x-y-z-w).  Common neighborhoods
    repeat: in a blow-up, x and z from two given twin classes always have
    the same one.  So the last one found to be a clique is remembered and
    an identical set is skipped; a clique stays a clique, so the skip
    loses no c4."""
    adj = g.adj
    clique = -1  # the last common neighborhood found to be a clique
    rx = mask
    while rx:
        lx = rx & -rx
        rx ^= lx  # now the vertices of mask above x
        ax = adj[lx.bit_length() - 1]
        rz = rx & ~ax
        while rz:
            lz = rz & -rz
            rz ^= lz
            cc = mask & ax & adj[lz.bit_length() - 1]
            if cc == clique:
                continue
            rest = cc
            while rest:
                ly = rest & -rest
                rest ^= ly  # now the common neighbors above y
                if rest & ~adj[ly.bit_length() - 1]:
                    return True
            clique = cc
    return False


def c5_in(g: Graph, mask: int) -> bool:
    """Whether G[mask] has an induced c5.

    First peel the mask: drop every vertex with fewer than two
    non-neighbors left in it, until none does.  Each vertex of an induced
    c5 has exactly two non-neighbors on the c5, so the whole c5 survives
    every round and the peel loses none; fewer than five vertices left
    means no c5.  On a clique the first round drops everything.

    Then name a c5 v0-v1-v2-v3-v4 in the core from its least vertex v0,
    with v1 < v4: v1 and v4 are non-adjacent neighbors of v0, v2 lies in
    N(v1) - N[v4] and v3 in N(v4) - N[v1], both outside N[v0], and v2v3 is
    an edge.  So all five lie in the core above v0, and every c5 is found
    this way; a v0 with no non-neighbor above it is skipped."""
    adj = g.adj
    core = mask
    while True:
        before = rest = core
        while rest:
            lv = rest & -rest
            rest ^= lv
            # v itself is outside adj[v], so < 3 is < 2 non-neighbors
            if (core & ~adj[lv.bit_length() - 1]).bit_count() < 3:
                core ^= lv
        if core.bit_count() < 5:
            return False
        if core == before:
            break
    r0 = core
    while r0:
        l0 = r0 & -r0
        r0 ^= l0  # now the vertices of the core above v0
        a0 = adj[l0.bit_length() - 1]
        far = r0 & ~a0
        if not far:
            continue
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


# -- graph6 codec ---------------------------------------------------------
#
# Standard format: size prefix (one char for n <= 62, or '~' plus three
# chars of an 18-bit big-endian n for 63 <= n <= 258047), then the upper
# triangle in column-major order x(1,0), x(2,0), x(2,1), x(3,0), ...,
# packed 6 bits per character, each character value offset by 63.

_G6_MAX_SHORT = 62
_G6_MAX_LONG = 258047

GRAPH6_HEADER = ">>graph6<<"


def graph6_encode(g: Graph) -> str:
    n = g.n
    if n > _G6_MAX_LONG:
        raise ValueError(f"graph6 supports at most {_G6_MAX_LONG} vertices")
    if n <= _G6_MAX_SHORT:
        out = [chr(n + 63)]
    else:
        out = ["~", chr((n >> 12) + 63), chr((n >> 6 & 63) + 63), chr((n & 63) + 63)]
    acc = 0
    nbits = 0
    for col in range(1, n):
        colrow = g.adj[col]
        for rowv in range(col):
            acc = acc << 1 | (colrow >> rowv & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc = 0
                nbits = 0
    if nbits:
        acc <<= 6 - nbits
        out.append(chr(acc + 63))
    return "".join(out)


def graph6_decode(text: str) -> Graph:
    s = text.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):]
    if not s:
        raise GraphParseError("empty graph6 string")
    for i, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            raise GraphParseError(f"character {ch!r} outside graph6 range 63..126", i)
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise GraphParseError("8-byte graph6 sizes are not supported", 1)
        if len(s) < 4:
            raise GraphParseError("truncated extended size prefix", len(s))
        n = 0
        for i in range(1, 4):
            n = n << 6 | (ord(s[i]) - 63)
        body_start = 4
    else:
        n = ord(s[0]) - 63
        body_start = 1
    body = s[body_start:]
    need_bits = n * (n - 1) // 2
    need_chars = (need_bits + 5) // 6
    if len(body) != need_chars:
        raise GraphParseError(
            f"expected {need_chars} adjacency characters for n={n}, got {len(body)}",
            body_start + min(len(body), need_chars),
        )
    rows = [0] * n
    bitpos = 0
    col, rowv = 1, 0
    for idx, ch in enumerate(body):
        val = ord(ch) - 63
        for k in range(5, -1, -1):
            if bitpos >= need_bits:
                if val >> k & 1:
                    raise GraphParseError("nonzero padding bits", body_start + idx)
                continue
            if val >> k & 1:
                rows[col] |= 1 << rowv
                rows[rowv] |= 1 << col
            bitpos += 1
            rowv += 1
            if rowv == col:
                col += 1
                rowv = 0
    return _graph_nocheck(n, tuple(rows))


def parse_graph6_lines(lines):
    """Yield graphs from an iterable of text lines, skipping blanks/headers.
    A parse error names its 1-based line number."""
    for lineno, line in enumerate(lines, 1):
        s = line.strip()
        if not s or s == GRAPH6_HEADER:
            continue
        try:
            g = graph6_decode(s)
        except GraphParseError as exc:
            raise GraphParseError(f"line {lineno}: {exc}") from None
        yield g
