"""Simple undirected graphs on vertices 0..v-1.

A graph is its adjacency matrix, the one graph format of the library:
`Graph.rows` is a symmetric tuple of 0/1 row tuples with zero diagonal,
in the row format of `matrices`, so kernels take it as it is.  The vertex
count and the edge set are read from the rows.  Covers the constructions
the rest of the library needs: Laplacian rows, complement, cones and path
extensions, an exact isomorphism search (automorphisms are its
isomorphisms of a graph to itself), BFS covering radii, and graph6
parsing/emission.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import Graph6Error

AUTOMORPHISM_BOUND = 10

INFINITE = math.inf


@dataclass(frozen=True)
class Graph:
    """The constructor trusts its rows; `from_edges` validates its input."""

    rows: tuple

    @classmethod
    def from_edges(cls, v: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [[0] * v for _ in range(v)]
        for a, b in edges:
            if a == b:
                raise ValueError(f"loop at vertex {a}")
            if not (0 <= a < v and 0 <= b < v):
                raise ValueError(f"edge ({a},{b}) out of range for v={v}")
            rows[a][b] = rows[b][a] = 1
        return cls(tuple(map(tuple, rows)))

    @property
    def v(self) -> int:
        return len(self.rows)

    @property
    def edges(self) -> frozenset:
        """The edges as pairs (i, j) with i < j."""
        return frozenset(
            (i, j) for i, r in enumerate(self.rows) for j in range(i + 1, len(r)) if r[j]
        )

    def has_edge(self, a: int, b: int) -> bool:
        return 0 <= min(a, b) and max(a, b) < self.v and self.rows[a][b] == 1

    def degrees(self) -> list[int]:
        return [sum(r) for r in self.rows]

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Apply the permutation: vertex u becomes perm[u]."""
        if sorted(perm) != list(range(self.v)):
            raise ValueError("not a permutation")
        inv = sorted(range(self.v), key=perm.__getitem__)
        return Graph(tuple(tuple(self.rows[a][b] for b in inv) for a in inv))

    def delete_vertex(self, u: int) -> "Graph":
        if not 0 <= u < self.v:
            raise ValueError(f"vertex {u} out of range")
        return Graph(tuple(r[:u] + r[u + 1 :] for r in self.rows[:u] + self.rows[u + 1 :]))


def path(n: int) -> Graph:
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return Graph.from_edges(n, ((i, j) for i in range(n) for j in range(i + 1, n)))


def empty(n: int) -> Graph:
    return Graph.from_edges(n, ())


def laplacian_rows(g: Graph) -> tuple:
    """D - A, as a tuple of row tuples."""
    return tuple(
        tuple(sum(r) if i == j else -x for j, x in enumerate(r))
        for i, r in enumerate(g.rows)
    )


def complement(g: Graph) -> Graph:
    return Graph(
        tuple(
            tuple(int(i != j and not x) for j, x in enumerate(r))
            for i, r in enumerate(g.rows)
        )
    )


def check_subset(g: Graph, members: Iterable[int]) -> tuple[int, ...]:
    s = sorted(set(members))
    if s and not (0 <= s[0] and s[-1] < g.v):
        raise ValueError(f"subset {s} out of range for v={g.v}")
    return tuple(s)


def cone(g: Graph, members: Iterable[int]) -> Graph:
    """Add an apex vertex adjacent exactly to the given subset.

    The apex gets label 0 and every old vertex i becomes i+1.
    """
    s = check_subset(g, members)
    apex = tuple(int(u in s) for u in range(g.v))
    return Graph(((0, *apex), *((a, *r) for a, r in zip(apex, g.rows))))


def path_extension(g: Graph, members: Iterable[int], k: int) -> tuple[Graph, int]:
    """Attach a path on k vertices, one end joined to every subset member.

    Returns the new graph and the label of the far end of the path (the
    distinguished vertex).  New path vertices are 0..k-1, with vertex k-1
    the attachment point; old vertex i becomes i+k: k cones, each apex
    joined to the one before.
    """
    if k < 1:
        raise ValueError("path extension needs k >= 1")
    g = cone(g, members)
    for _ in range(k - 1):
        g = cone(g, [0])
    return g, 0


def vertex_profiles(g: Graph) -> list[tuple[int, tuple[int, ...]]]:
    """Per vertex, (degree, sorted neighbour degrees): an isomorphism
    invariant, so a bijection between graphs must preserve it."""
    deg = g.degrees()
    return [(d, tuple(sorted(e for e, x in zip(deg, r) if x))) for d, r in zip(deg, g.rows)]


def isomorphisms(g: Graph, h: Graph):
    """Lazily yield every perm with h == g.relabel(perm), as tuples.

    Exact backtracking over the vertices of g in order; each vertex only
    tries the vertices of h with its profile.
    """
    n = g.v
    if h.v != n:
        return
    a, b = g.rows, h.rows
    hp = vertex_profiles(h)
    candidates = [[w for w in range(n) if hp[w] == p] for p in vertex_profiles(g)]
    perm = [-1] * n
    used = [False] * n

    def extend(u: int):
        if u == n:
            yield tuple(perm)
            return
        for w in candidates[u]:
            if not used[w] and all(a[u][x] == b[w][perm[x]] for x in range(u)):
                perm[u] = w
                used[w] = True
                yield from extend(u + 1)
                used[w] = False

    yield from extend(0)


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """All automorphisms, as permutation tuples: the isomorphisms of g to
    itself.  The group is listed in full, hence the vertex cap."""
    if g.v > AUTOMORPHISM_BOUND:
        raise ValueError(f"automorphism search capped at {AUTOMORPHISM_BOUND} vertices")
    return list(isomorphisms(g, g))


def is_vertex_transitive(g: Graph) -> bool:
    if g.v == 0:
        return True
    if len(set(g.degrees())) != 1:
        return False
    return len({perm[0] for perm in automorphisms(g)}) == g.v


def distances_from(g: Graph, sources: Iterable[int]) -> list:
    """BFS distance of each vertex to the source set (inf if unreachable)."""
    dist = [INFINITE] * g.v
    q = deque()
    for s in sources:
        dist[s] = 0
        q.append(s)
    while q:
        u = q.popleft()
        for w, x in enumerate(g.rows[u]):
            if x and dist[w] > dist[u] + 1:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def covering_radius(g: Graph, members: Iterable[int]):
    """Largest BFS distance to the subset; INFINITE for an empty subset or
    when some vertex is unreachable from it."""
    s = check_subset(g, members)
    if not s:
        return INFINITE
    return max(distances_from(g, s))


def is_connected(g: Graph) -> bool:
    if g.v == 0:
        return True
    return all(d < INFINITE for d in distances_from(g, [0]))


def diameter(g: Graph):
    """Max vertex eccentricity; INFINITE when disconnected."""
    if g.v == 0:
        return 0
    return max(covering_radius(g, [u]) for u in range(g.v))


# -- graph6 ----------------------------------------------------------------

_G6_MIN, _G6_MAX = 63, 126


def parse_graph6(text: str) -> Graph:
    """Parse a short-form graph6 line (n <= 62)."""
    line = text.strip()
    if not line:
        raise Graph6Error("empty graph6 string")
    if any(not (_G6_MIN <= ord(ch) <= _G6_MAX) for ch in line):
        raise Graph6Error(f"character outside graph6 range in {line!r}")
    n = ord(line[0]) - 63
    if n > 62:
        raise Graph6Error("only short-form graph6 (n <= 62) is supported")
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    if len(line) - 1 != nchars:
        raise Graph6Error(
            f"graph6 string {line!r}: expected {nchars} data characters, "
            f"got {len(line) - 1}"
        )
    bits = []
    for ch in line[1:]:
        val = ord(ch) - 63
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    if any(bits[nbits:]):
        raise Graph6Error(f"nonzero padding bits in {line!r}")
    rows = [[0] * n for _ in range(n)]
    upper = iter(bits)
    for j in range(1, n):
        for i in range(j):
            rows[i][j] = rows[j][i] = next(upper)
    return Graph(tuple(map(tuple, rows)))


def emit_graph6(g: Graph) -> str:
    if g.v > 62:
        raise Graph6Error("only short-form graph6 (n <= 62) is supported")
    n = g.v
    bits = [g.rows[i][j] for j in range(1, n) for i in range(j)]
    while len(bits) % 6:
        bits.append(0)
    out = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        out.append(chr(63 + val))
    return "".join(out)
