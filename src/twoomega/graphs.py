"""Immutable bitmask-backed simple graphs and the graph6 codec.

Vertices are the integers ``0..n-1``.  Vertex sets are plain Python ints
used as bitmasks (bit ``v`` set means vertex ``v`` is in the set), so
intersection, union and complement are single word operations; adjacency
is stored as one bit-row per vertex for the same reason.  Graphs are
immutable values: every construction returns a fresh graph, and vertex
indices referenced by certificates stay valid forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field


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


@dataclass(frozen=True)
class Graph:
    """A finite simple graph: symmetric, irreflexive adjacency on 0..n-1."""

    n: int
    adj: tuple[int, ...]
    name: str = field(default="", compare=False)

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(self.adj) != self.n:
            raise ValueError("adjacency must have one row per vertex")
        full = (1 << self.n) - 1
        for u, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"row {u} has bits outside 0..{self.n - 1}")
            if row >> u & 1:
                raise ValueError(f"self-loop at vertex {u}")
            for v in bits(row):
                if not self.adj[v] >> u & 1:
                    raise ValueError(f"adjacency not symmetric at ({u}, {v})")

    # -- basic accessors ------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def vertices(self) -> range:
        return range(self.n)

    def edges(self):
        """Yield edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def _check_vertex(self, v: int):
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range 0..{self.n - 1}")

    def neighbors(self, v: int) -> int:
        """N(v) as a mask."""
        self._check_vertex(v)
        return self.adj[v]

    def closed_neighborhood(self, v: int) -> int:
        """N[v] = N(v) plus v itself."""
        self._check_vertex(v)
        return self.adj[v] | 1 << v

    def degree(self, v: int) -> int:
        return self.neighbors(v).bit_count()

    def neighborhood_of_set(self, x: int) -> int:
        """N(X): vertices outside X with at least one neighbor in X."""
        if x & ~self.full_mask:
            raise ValueError("vertex set has bits outside the graph")
        m = 0
        for v in bits(x):
            m |= self.adj[v]
        return m & ~x

    def non_neighborhood(self, x: int, closed: bool = False) -> int:
        """M(X) = V minus X and N(X); with ``closed``, M[X] = M(X) union X."""
        m = self.full_mask & ~(x | self.neighborhood_of_set(x))
        return m | x if closed else m

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_edges(n: int, edges, name: str = "") -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows), name)


def _graph_nocheck(n: int, rows: tuple[int, ...], name: str = "") -> Graph:
    # Hot-path constructor for callers that guarantee well-formed rows.
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", rows)
    object.__setattr__(g, "name", name)
    return g


def empty_graph(n: int, name: str = "") -> Graph:
    return Graph(n, (0,) * n, name)


def complete(n: int, name: str = "") -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ 1 << v for v in range(n)), name or f"K{n}")


def path(n: int, name: str = "") -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)], name or f"P{n}")


def cycle(n: int, name: str = "") -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    edges = [(i, (i + 1) % n) for i in range(n)]
    return Graph.from_edges(n, edges, name or f"C{n}")


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


def complement(g: Graph) -> Graph:
    full = g.full_mask
    rows = tuple(full & ~(row | 1 << v) for v, row in enumerate(g.adj))
    return _graph_nocheck(g.n, rows)


def induced(g: Graph, vertices) -> Graph:
    """Induced subgraph; kept vertices are re-indexed preserving their order."""
    if isinstance(vertices, int):
        keep = bit_list(vertices)
    else:
        keep = sorted(set(vertices))
    for v in keep:
        g._check_vertex(v)
    index = {v: i for i, v in enumerate(keep)}
    rows = [0] * len(keep)
    for v in keep:
        row = 0
        for w in bits(g.adj[v]):
            if w in index:
                row |= 1 << index[w]
        rows[index[v]] = row
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


def least_triangle_in(g: Graph, mask: int) -> tuple[int, int, int] | None:
    """Lexicographically least triangle (a, b, c), a < b < c, of G[mask]."""
    for a in bits(mask):
        na = g.adj[a] & mask & ~((2 << a) - 1)
        for b in bits(na):
            nc = na & g.adj[b] & ~((2 << b) - 1)
            if nc:
                return a, b, (nc & -nc).bit_length() - 1
    return None


def triangles(g: Graph):
    """Yield the triangles (a, b, c), a < b < c, of g in lexicographic order."""
    adj = g.adj
    for a in range(g.n):
        na = adj[a] & ~((2 << a) - 1)
        for b in bits(na):
            for c in bits(na & adj[b] & ~((2 << b) - 1)):
                yield a, b, c


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
        if ch != "~" and not 63 <= ord(ch) <= 126:
            raise GraphParseError(f"character {ch!r} outside graph6 range 63..126", i)
    if s[0] == ":" or s[0] == "&":
        raise GraphParseError("sparse6/digraph6 input is not supported", 0)
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
