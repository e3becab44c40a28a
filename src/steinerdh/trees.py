"""Labeled trees: parsing, seeded random generation, pairwise and Steiner distance.

Vertices are labeled 1..n.  Random trees are decoded from uniform Prüfer
sequences drawn from numpy's Philox counter-based generator (Philox4x64,
keyed by the 64-bit seed), so the same (n, seed) pair yields the same tree
on every platform.

The Steiner distance of a vertex set is the number of edges whose removal
separates it.  Every Steiner sum the package needs therefore reduces to
per-edge sums over the two sides of each edge; ``Tree.far_sums`` computes them
in one children-first pass over the BFS order from vertex 1.  A single
query (``Tree.steiner``, a pair included) counts edge cuts the same way, and
``Tree.sides`` makes the same pass in place over the far-side indicators, the
matrix S behind the Hessian and the Steiner arrays of every order.  One
parent recurrence over blocks of edge steps fills them all:
``Tree.distances`` is its k = 2 case and the hypermatrix the rest.  A
Steiner distance lies in [0, n-1], so the recurrence runs in the narrowest
unsigned dtype that holds n - 1 (uint8 for n <= 256, uint16 for
n <= 65,536, int64 beyond), modulo 2^8 or 2^16, which is exact because
every final value fits.

A bitmask brute force over connected vertex subsets, which shares nothing
with the edge cuts, is provided as an oracle for n <= 12.  It and
``Tree.steiner`` stay here, though no package code calls them: the
benchmark's self-tests import the first and its tracer binds the second.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptySet, MalformedInput, NotATree, TooLarge, ascii_int

BRUTE_FORCE_MAX_N = 12
_BLOCK_ENTRIES = 1 << 16   # step entries formed at once by Tree._steiner_array


_UNSIGNED = tuple((np.dtype(t), np.iinfo(t).max) for t in (np.uint8, np.uint16))


def narrowest_dtype(high: int, low: int = 0) -> np.dtype:
    """The narrowest of uint8, uint16 and int64 that holds low..high."""
    if low >= 0:
        for dtype, most in _UNSIGNED:
            if high <= most:
                return dtype
    return np.dtype(np.int64)


class Tree:
    """Immutable labeled tree on vertices 1..n."""

    __slots__ = (
        "n", "edges", "adjacency", "degrees", "parent", "order",
        "_connected_masks_cache", "_sides_cache", "_cuts_cache", "_distances_cache",
    )

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise NotATree("a tree needs at least one vertex")
        edge_list = []
        seen = set()
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise NotATree(f"edge ({u},{v}) leaves the label range 1..{n}")
            if u == v:
                raise NotATree(f"self-loop at vertex {u}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise NotATree(f"duplicate edge {key}")
            seen.add(key)
            edge_list.append(key)
        if len(edge_list) != n - 1:
            raise NotATree(f"expected {n - 1} edges, got {len(edge_list)}")

        adjacency: list[list[int]] = [[] for _ in range(n + 1)]
        for u, v in edge_list:
            adjacency[u].append(v)
            adjacency[v].append(u)
        for lst in adjacency:
            lst.sort()

        reached = [False] * (n + 1)
        reached[1] = True
        parent = [0] * (n + 1)
        order = [1]
        for x in order:  # the BFS order doubles as the queue
            for y in adjacency[x]:
                if not reached[y]:
                    reached[y] = True
                    parent[y] = x
                    order.append(y)
        if len(order) != n:
            raise NotATree("edge list does not connect all vertices")

        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(edge_list)))
        object.__setattr__(self, "adjacency", tuple(tuple(a) for a in adjacency))
        object.__setattr__(self, "degrees",
                           (0,) + tuple(len(adjacency[v]) for v in range(1, n + 1)))
        object.__setattr__(self, "parent", tuple(parent))
        object.__setattr__(self, "order", tuple(order))
        object.__setattr__(self, "_connected_masks_cache", None)
        object.__setattr__(self, "_sides_cache", None)
        object.__setattr__(self, "_cuts_cache", None)
        object.__setattr__(self, "_distances_cache", None)

    def __setattr__(self, *_):  # pragma: no cover - immutability guard
        raise AttributeError("Tree is immutable")

    def _check_label(self, v: int) -> None:
        if not (1 <= v <= self.n):
            raise ValueError(f"vertex {v} outside 1..{self.n}")

    # -- distances ------------------------------------------------------------

    def steiner(self, vertices: Iterable[int]) -> int:
        """Steiner distance of a vertex set: the number of edges whose far side
        holds some, but not all, of the set.  O(n) per call."""
        distinct = set(vertices)
        if not distinct:
            raise EmptySet("Steiner distance of the empty set is undefined")
        indicator = [0] * self.n
        for v in distinct:
            self._check_label(v)
            indicator[v - 1] = 1
        r = len(distinct)
        return sum(1 for c in self.far_sums(indicator) if 0 < c < r)

    def distances(self) -> np.ndarray:
        """The n×n int64 distance matrix, the order-2 Steiner array.  Built
        once per tree and shared, so read-only."""
        if self._distances_cache is None:
            d = self._steiner_array(2, wide=True)
            d.flags.writeable = False
            object.__setattr__(self, "_distances_cache", d)
        return self._distances_cache

    def _steiner_array(self, k: int, wide: bool = False) -> np.ndarray:
        """The order-k Steiner distances as an array of shape (n,)*k in
        ``narrowest_dtype(n - 1)``, or in int64 if ``wide``, one leading-index
        row per vertex down the BFS order.  With S_e the far side of edge e (a row
        of ``sides()``), N_e = 1 - S_e and ^m the m-fold outer power, row 1 is
        (n-1) - sum_e N_e^(k-1).  Moving the leading index from p across edge
        c to c changes only edge c's cut: +1 if the other k - 1 indices all
        lie on the near side, -1 if all on the far side, so row c = row p +
        N_c^(k-1) - S_c^(k-1).  At k = 2 the powers are the sides themselves:
        row 1 is sum_e S_e and each step is 1 - 2 S_c.

        One recurrence serves every order.  The steps are formed in int8 for a
        block of edges at once, at most ``_BLOCK_ENTRIES`` step entries (one
        edge when a row is larger); an outer power is the vector times the last
        power, so the long n^j axis is innermost (every factor is one 0/1
        vector, so the order does not matter).  The steps are cast once to the
        signed type of the result's width, viewed as its unsigned type, so each
        row add has one dtype and wraps modulo 2^8 or 2^16.  The rows are
        stepped relative to row 1, which is added once at the end.  A wide
        result is stepped in the narrow dtype at the front of its own int64
        buffer and widened in place, last rows first.  Besides the result, the
        build holds S, one n^(k-1) row sum and one block's temporaries."""
        n, far = self.n, self.sides()
        dtype = narrowest_dtype(n - 1)   # every entry lies in [0, n-1]
        buf = np.empty(n ** k, dtype=np.int64 if wide else dtype)
        rows = buf.view(dtype)[:n ** k].reshape(n, -1)   # row v - 1: vertex v's slice
        rows[0] = 0
        near_sum = np.zeros(rows.shape[1], dtype=dtype)
        signed = np.dtype(f"i{dtype.itemsize}")
        block = max(1, _BLOCK_ENTRIES // rows.shape[1])
        for lo in range(0, n - 1, block):
            f = far[lo:lo + block].astype(np.int8)
            g = 1 - f
            near_pow, far_pow = g, f
            for _ in range(k - 2):   # outer powers, flattened to one axis per edge
                near_pow = (g[:, :, None] * near_pow[:, None, :]).reshape(len(f), -1)
                far_pow = (f[:, :, None] * far_pow[:, None, :]).reshape(len(f), -1)
            near_sum += near_pow.sum(axis=0, dtype=dtype)
            near_pow -= far_pow   # the block's steps
            steps = near_pow.astype(signed, copy=False).view(dtype)
            for c, step in zip(self.order[1 + lo:], steps):
                np.add(rows[self.parent[c] - 1], step, out=rows[c - 1])
        np.subtract(n - 1, near_sum, out=rows[0])
        rows[1:] += rows[0]
        if wide and dtype != buf.dtype:
            # last rows first: with 4 lo >= hi, wide rows lo..hi-1 start past
            # narrow row hi - 1, so they overwrite only narrow rows already widened
            wide_rows = buf.reshape(n, -1)
            hi = n
            while hi:
                lo = (hi + 3) // 4 if hi > 1 else 0
                wide_rows[lo:hi] = rows[lo:hi]
                hi = lo
        return buf.reshape((n,) * k)

    # -- edge cuts ---------------------------------------------------------------

    def far_sums(self, values: Sequence) -> list:
        """Per edge, the sum of ``values`` over the edge's far side.

        ``values[v - 1]`` belongs to vertex v.  Edge j (0-based) joins
        ``order[j + 1]`` to its parent; its far side is the subtree below
        ``order[j + 1]``, the side without vertex 1.  One children-first pass
        that adds a child's sum into its parent only when the sum is nonzero,
        so a point with few nonzero values costs few additions.  The values
        are scalars that support ``+`` and truth testing (numbers, ``CycNum``),
        not arrays.  With values of mixed types, a sum may stay an int where
        adding a ``CycNum`` zero would have made it a ``CycNum`` of the same
        value.  ValueError unless there is one value per vertex.
        """
        if len(values) != self.n:
            raise ValueError(f"{len(values)} values for {self.n} vertices")
        below = [None, *values]
        for v in reversed(self.order[1:]):
            if below[v]:
                p = self.parent[v]
                below[p] = below[p] + below[v]
        return [below[v] for v in self.order[1:]]

    def sides(self) -> np.ndarray:
        """The (n-1)×n int64 far-side indicators S, rows in ``far_sums`` edge
        order, so S @ x is ``far_sums(x)``.  Built once per tree and shared,
        so read-only.  Filled in place children-first: edge c's row starts as
        c's own indicator and is added into its parent's row, so S is the
        only n^2 array the build holds."""
        if self._sides_cache is None:
            far = np.zeros((self.n - 1, self.n), dtype=np.int64)
            rows = [None] * (self.n + 1)   # vertex -> its edge's row; none for vertex 1
            for v, row in zip(self.order[1:], far):
                row[v - 1] = 1
                rows[v] = row
            for v in reversed(self.order[1:]):
                parent_row = rows[self.parent[v]]
                if parent_row is not None:
                    parent_row += rows[v]
            far.flags.writeable = False
            object.__setattr__(self, "_sides_cache", far)
        return self._sides_cache

    def cuts(self) -> np.ndarray:
        """C = [S; 1 - S] for S = ``sides()``, in complex128 for the numeric
        Hessian: C x = [a; s - a] for the far sums a.  Built once per tree
        and shared, so read-only: 32 bytes per entry of S."""
        if self._cuts_cache is None:
            far = self.sides()
            cuts = np.concatenate([far, 1 - far], dtype=np.complex128)
            cuts.flags.writeable = False
            object.__setattr__(self, "_cuts_cache", cuts)
        return self._cuts_cache

    # -- brute-force support ----------------------------------------------------

    def connected_masks(self) -> list[int]:
        """All vertex bitmasks (bit v-1 for vertex v) inducing a connected subgraph,
        sorted by popcount.  Only for n <= BRUTE_FORCE_MAX_N."""
        if self.n > BRUTE_FORCE_MAX_N:
            raise TooLarge(f"connected-subset enumeration capped at n <= {BRUTE_FORCE_MAX_N}")
        cached = self._connected_masks_cache
        if cached is not None:
            return cached
        n = self.n
        out = []
        for mask in range(1, 1 << n):
            start = (mask & -mask).bit_length() - 1
            seen = 1 << start
            stack = [start + 1]
            while stack:
                x = stack.pop()
                for y in self.adjacency[x]:
                    bit = 1 << (y - 1)
                    if mask & bit and not seen & bit:
                        seen |= bit
                        stack.append(y)
            if seen == mask:
                out.append(mask)
        out.sort(key=lambda m: m.bit_count())
        object.__setattr__(self, "_connected_masks_cache", out)
        return out

    def __repr__(self):
        return f"Tree(n={self.n}, edges={list(self.edges)!r})"

    def __eq__(self, other):
        if isinstance(other, Tree):
            return self.n == other.n and self.edges == other.edges
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.edges))


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------

def path_tree(n: int) -> Tree:
    return Tree(n, [(i, i + 1) for i in range(1, n)])


def star_tree(n: int, center: int = 1) -> Tree:
    return Tree(n, [(center, v) for v in range(1, n + 1) if v != center])


def parse_tree(text: str) -> Tree:
    """Parse the edge-list document: first line n, then n-1 lines "u v"."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise MalformedInput("empty document")
    try:
        n = ascii_int(lines[0])
    except ValueError as exc:
        raise MalformedInput(f"first line must be the vertex count: {lines[0]!r}") from exc
    if n < 1:
        raise NotATree("vertex count must be >= 1")
    if len(lines) - 1 != n - 1:
        raise MalformedInput(f"expected {n - 1} edge lines, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        try:
            u, v = map(ascii_int, ln.split())
        except ValueError as exc:
            raise MalformedInput(f"edge line must hold two ASCII-digit labels: {ln!r}") from exc
        edges.append((u, v))
    return Tree(n, edges)


def format_tree(t: Tree) -> str:
    lines = [str(t.n)]
    lines.extend(f"{u} {v}" for u, v in t.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Prüfer sequences
# ---------------------------------------------------------------------------

def prufer_decode(n: int, seq: Sequence[int]) -> Tree:
    """Decode a Prüfer sequence of length n-2 over labels 1..n."""
    if n < 1:
        raise NotATree("a tree needs at least one vertex")
    if len(seq) != max(n - 2, 0):
        raise MalformedInput(f"Prüfer sequence for n={n} must have length {max(n - 2, 0)}")
    if n == 1:
        return Tree(1, [])
    if n == 2:
        return Tree(2, [(1, 2)])
    for x in seq:
        if not (1 <= x <= n):
            raise MalformedInput(f"Prüfer entry {x} outside 1..{n}")
    degree = [1] * (n + 1)
    for x in seq:
        degree[x] += 1
    ptr = 1
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    edges = []
    for x in seq:
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n))
    return Tree(n, edges)


def prufer_encode(t: Tree) -> list[int]:
    """Prüfer sequence of a tree: repeatedly record the neighbor of the smallest leaf."""
    n = t.n
    if n <= 2:
        return []
    alive = [set(t.adjacency[v]) for v in range(n + 1)]
    heap = [v for v in range(1, n + 1) if len(alive[v]) == 1]
    heapq.heapify(heap)
    seq = []
    for _ in range(n - 2):
        v = heapq.heappop(heap)
        u = next(iter(alive[v]))
        seq.append(u)
        alive[u].discard(v)
        alive[v].clear()
        if len(alive[u]) == 1:
            heapq.heappush(heap, u)
    return seq


def random_tree(n: int, seed: int) -> Tree:
    """Uniform random labeled tree from a seeded Philox stream."""
    if n < 1:
        raise NotATree("a tree needs at least one vertex")
    if n <= 2:
        return prufer_decode(n, [])
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed % (1 << 64))))
    seq = [int(x) for x in gen.integers(1, n + 1, size=n - 2)]
    return prufer_decode(n, seq)


# ---------------------------------------------------------------------------
# brute-force Steiner distance
# ---------------------------------------------------------------------------

def steiner_distance_bruteforce(t: Tree, vertices: Iterable[int]) -> int:
    """Minimum |W|-1 over connected vertex sets W containing the query set."""
    if t.n > BRUTE_FORCE_MAX_N:
        raise TooLarge(f"brute force capped at n <= {BRUTE_FORCE_MAX_N}")
    distinct = set(vertices)
    if not distinct:
        raise EmptySet("Steiner distance of the empty set is undefined")
    required = 0
    for v in distinct:
        t._check_label(v)
        required |= 1 << (v - 1)
    for mask in t.connected_masks():
        if mask & required == required:
            return mask.bit_count() - 1
    raise AssertionError("unreachable: the full vertex set is connected")


# ---------------------------------------------------------------------------
# isomorphism classes
# ---------------------------------------------------------------------------

def canonical_key(t: Tree) -> str:
    """AHU canonical string of the unlabeled tree underlying t.

    Rooted at the tree center; for bicentral trees the key is the minimum
    over the two center rootings.
    """
    n = t.n
    if n == 1:
        return "()"
    degree = list(t.degrees)
    alive = [set(t.adjacency[v]) for v in range(n + 1)]
    layer = [v for v in range(1, n + 1) if degree[v] == 1]
    remaining = n
    while remaining > 2:
        nxt = []
        for v in layer:
            for u in alive[v]:
                alive[u].discard(v)
                degree[u] -= 1
                if degree[u] == 1:
                    nxt.append(u)
            alive[v].clear()
        remaining -= len(layer)
        layer = nxt
    centers = sorted(layer)

    def rooted_key(root: int) -> str:
        canon = [""] * (n + 1)
        stack = [(root, 0, False)]
        while stack:
            v, parent, done = stack.pop()
            if done:
                kids = sorted(canon[w] for w in t.adjacency[v] if w != parent)
                canon[v] = "(" + "".join(kids) + ")"
            else:
                stack.append((v, parent, True))
                for w in t.adjacency[v]:
                    if w != parent:
                        stack.append((w, v, False))
        return canon[root]

    return min(rooted_key(c) for c in centers)


def enumerate_trees(n: int) -> list[Tree]:
    """One representative labeled tree per isomorphism class on n vertices.

    Every tree on m vertices is a tree on m - 1 vertices plus a leaf, so the
    classes on m come from hanging vertex m off each vertex of each class on
    m - 1, deduplicated by canonical key.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    classes = [Tree(1, [])]
    for m in range(2, n + 1):
        found: dict[str, Tree] = {}
        for t in classes:
            for v in range(1, m):
                grown = Tree(m, t.edges + ((v, m),))
                found.setdefault(canonical_key(grown), grown)
        classes = list(found.values())
    return classes
