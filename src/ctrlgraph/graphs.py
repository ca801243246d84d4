"""Simple undirected graphs on vertices 0..v-1.

Covers the constructions the rest of the library needs: matrix extraction,
complement, cones and path extensions, brute-force automorphisms for small
graphs, BFS covering radii, and graph6 parsing/emission.
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
    v: int
    edges: frozenset  # frozenset of (i, j) with i < j

    @classmethod
    def from_edges(cls, v: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        norm = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"loop at vertex {a}")
            if not (0 <= a < v and 0 <= b < v):
                raise ValueError(f"edge ({a},{b}) out of range for v={v}")
            norm.add((min(a, b), max(a, b)))
        return cls(v, frozenset(norm))

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def neighbors(self, u: int) -> list[int]:
        return sorted(
            b if a == u else a for a, b in self.edges if u in (a, b)
        )

    def adjacency_sets(self) -> list[set]:
        adj = [set() for _ in range(self.v)]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def degrees(self) -> list[int]:
        deg = [0] * self.v
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """Apply the permutation: vertex u becomes perm[u]."""
        if sorted(perm) != list(range(self.v)):
            raise ValueError("not a permutation")
        return Graph.from_edges(self.v, ((perm[a], perm[b]) for a, b in self.edges))

    def delete_vertex(self, u: int) -> "Graph":
        if not 0 <= u < self.v:
            raise ValueError(f"vertex {u} out of range")
        keep = [w for w in range(self.v) if w != u]
        idx = {w: i for i, w in enumerate(keep)}
        return Graph.from_edges(
            self.v - 1,
            ((idx[a], idx[b]) for a, b in self.edges if u not in (a, b)),
        )


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


def adjacency_rows(g: Graph) -> list[list[int]]:
    rows = [[0] * g.v for _ in range(g.v)]
    for a, b in g.edges:
        rows[a][b] = 1
        rows[b][a] = 1
    return rows


def laplacian_rows(g: Graph) -> list[list[int]]:
    rows = [[0] * g.v for _ in range(g.v)]
    for a, b in g.edges:
        rows[a][b] -= 1
        rows[b][a] -= 1
        rows[a][a] += 1
        rows[b][b] += 1
    return rows


def complement(g: Graph) -> Graph:
    return Graph.from_edges(
        g.v,
        (
            (i, j)
            for i in range(g.v)
            for j in range(i + 1, g.v)
            if (i, j) not in g.edges
        ),
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
    edges = [(a + 1, b + 1) for a, b in g.edges]
    edges.extend((0, u + 1) for u in s)
    return Graph.from_edges(g.v + 1, edges)


def path_extension(g: Graph, members: Iterable[int], k: int) -> tuple[Graph, int]:
    """Attach a path on k vertices, one end joined to every subset member.

    Returns the new graph and the label of the far end of the path (the
    distinguished vertex).  New path vertices are 0..k-1, with vertex k-1
    the attachment point; old vertex i becomes i+k.
    """
    if k < 1:
        raise ValueError("path extension needs k >= 1")
    s = check_subset(g, members)
    edges = [(a + k, b + k) for a, b in g.edges]
    edges.extend((i, i + 1) for i in range(k - 1))
    edges.extend((k - 1, u + k) for u in s)
    return Graph.from_edges(g.v + k, edges), 0


def automorphisms(g: Graph, bound: int = AUTOMORPHISM_BOUND) -> list[tuple[int, ...]]:
    """All automorphisms by backtracking, as permutation tuples.

    Candidates are pruned by (degree, sorted neighbour degrees) before the
    search; fine at census scale, deliberately not a canonical-labelling
    engine.
    """
    if g.v > bound:
        raise ValueError(f"automorphism search capped at {bound} vertices")
    n = g.v
    adj = g.adjacency_sets()
    deg = g.degrees()
    inv = [
        (deg[u], tuple(sorted(deg[w] for w in adj[u]))) for u in range(n)
    ]
    candidates = [
        [w for w in range(n) if inv[w] == inv[u]] for u in range(n)
    ]
    found = []
    perm = [-1] * n
    used = [False] * n

    def extend(u: int):
        if u == n:
            found.append(tuple(perm))
            return
        for w in candidates[u]:
            if used[w]:
                continue
            ok = True
            for x in range(u):
                if (x in adj[u]) != (perm[x] in adj[w]):
                    ok = False
                    break
            if ok:
                perm[u] = w
                used[w] = True
                extend(u + 1)
                used[w] = False
                perm[u] = -1

    extend(0)
    return found


def is_vertex_transitive(g: Graph, bound: int = AUTOMORPHISM_BOUND) -> bool:
    if g.v == 0:
        return True
    degs = g.degrees()
    if len(set(degs)) != 1:
        return False
    orbit = {0}
    for perm in automorphisms(g, bound):
        orbit.add(perm[0])
    return len(orbit) == g.v


def distances_from(g: Graph, sources: Iterable[int]) -> list:
    """BFS distance of each vertex to the source set (inf if unreachable)."""
    dist = [INFINITE] * g.v
    adj = g.adjacency_sets()
    q = deque()
    for s in sources:
        dist[s] = 0
        q.append(s)
    while q:
        u = q.popleft()
        for w in adj[u]:
            if dist[w] > dist[u] + 1:
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
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph.from_edges(n, edges)


def emit_graph6(g: Graph) -> str:
    if g.v > 62:
        raise Graph6Error("only short-form graph6 (n <= 62) is supported")
    n = g.v
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i, j) in g.edges else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(63 + n)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        out.append(chr(63 + val))
    return "".join(out)
