"""Truncated Cayley, coned-off, horoball and cusped graphs, plus an exact
cusped metric for free products of abelian peripherals.

Horoball distance facts used throughout (for a horoball over a base space Y
with metric d, vertices (y, k), horizontal edges at level k joining points
with 0 < d <= 2^k, vertical edges between consecutive levels):

    d((u,k),(v,l)) = min_{m >= max(k,l)} (m-k) + (m-l) + ceil(d(u,v)/2^m)

realized by an up/across/down path. Because every generator of our pairs is
peripheral, each edge of the cusped space lives inside a single coset's
horoball, and the coset adjacency structure is a tree; consequently the
cusped distance between group elements is the sum of the per-syllable
horoball distances of the normal form. Interior points enter and leave a
horoball only through its depth-zero boundary, which reduces every distance
query to small one-dimensional scans. The window builders below use this
closed form both to enumerate exact metric balls and to certify that the
truncation cannot have cut any geodesic.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    BudgetExceededError,
    DisconnectedError,
    InvalidParameterError,
    UnsupportedKindError,
    WindowError,
)
from .groups import (
    FreeAbelianOracle,
    FreeProductOracle,
    GroupElement,
    RelHypPair,
    enumerate_ball,
    format_word,
)

MATRIX_CAP = 6000  # largest window for dense all-pairs work
BFS_BLOCK = 256  # rows per block of the all-pairs BFS and of the certificate


# ---------------------------------------------------------------------------
# horoball distance closed forms


@lru_cache(maxsize=None)
def horo_pair(d: int, k: int, l: int) -> int:
    """Distance between (u,k) and (v,l) in one horoball, base distance d."""
    if d < 0 or k < 0 or l < 0:
        raise InvalidParameterError("negative horoball coordinates")
    lo = max(k, l)
    if d == 0:
        return abs(k - l)
    best = None
    m = lo
    while True:
        cost = (m - k) + (m - l) + -(-d // (1 << m))
        if best is None or cost < best:
            best = cost
        # once the horizontal part is a single edge, larger m only add steps
        if d <= (1 << m):
            break
        m += 1
    return best


def horo_flat(d: int) -> int:
    """Horoball distance between two depth-zero points at base distance d."""
    return horo_pair(d, 0, 0)


def horo_dip(d: int, k: int) -> int:
    """Horoball distance between (u,k) and a depth-zero point at distance d."""
    return horo_pair(d, k, 0)


@lru_cache(maxsize=None)
def flat_reach(budget: int) -> int:
    """Largest base distance coverable at depth-zero cost <= budget."""
    if budget < 0:
        return -1
    best = 0
    for m in range(budget // 2 + 1):
        best = max(best, (budget - 2 * m) << m)
    return best


@lru_cache(maxsize=None)
def dip_reach(budget: int, k: int) -> int:
    """Largest base distance d with horo_pair(d, 0, k) <= budget."""
    best = -1
    for m in range(k, budget + 1):
        room = budget - (2 * m - k)
        if room >= 0:
            best = max(best, room << m)
    return best


def coned_length(pair: RelHypPair, g: GroupElement) -> int:
    """Exact coned-off length: each syllable costs min(word length, 2)."""
    total = 0
    for fi, p in pair.syllables(g):
        total += min(pair.peripherals[fi].factor.p_length(p), 2)
    return total


def coned_distance(pair: RelHypPair, g: GroupElement, h: GroupElement) -> int:
    return coned_length(pair, pair.group.multiply(pair.group.inverse(g), h))


def pair_word_costs(group: FreeProductOracle, elems: list[GroupElement],
                    i: np.ndarray, j: np.ndarray, cost) -> np.ndarray:
    """Cost of the reduced word g_i^-1 g_j for every pair (i[t], j[t]).

    ``elems`` must be in ``group``'s normal form; a syllable p of factor f
    costs ``cost(f.p_length(p))``, so ``horo_flat``, ``int`` and
    ``min(., 2)`` give d_X, word and coned length. Past the common prefix,
    the next syllables s and t merge into the nontrivial p_add(p_neg(s), t)
    when they share a factor and add up otherwise (a missing one costs 0);
    the tails behind them are kept."""
    ids: dict = {}
    rows = [[ids.setdefault(s, len(ids)) for s in g.word] for g in elems]
    width = max(map(len, rows), default=0) + 1
    A = np.array([row + [len(ids)] * (width - len(row)) for row in rows],
                 dtype=np.int64).reshape(len(rows), width)
    each = np.array([cost(group.factors[f].p_length(p)) for f, p in ids] + [0])
    merge = np.add.outer(each, each)
    for a, (f, p) in enumerate(ids):
        fac = group.factors[f]
        for b, (g, q) in enumerate(ids):
            if g == f:
                merge[a, b] = cost(fac.p_length(fac.p_add(fac.p_neg(p), q)))
    tails = np.cumsum(each[A][:, ::-1], axis=1)[:, ::-1] - each[A]
    c = (A[i, :-1] == A[j, :-1]).cumprod(axis=1).sum(axis=1)
    return tails[i, c] + tails[j, c] + merge[A[i, c], A[j, c]]


# ---------------------------------------------------------------------------
# vertex keys
#
# depth zero:  ("c", word)
# horoball:    ("h", pid, coset_word, local_payload, k)   with k >= 1
# standalone horoball graphs: ("b", base_index, k)
# generic loaded graphs: ("v", index)


def depth0_key(g: GroupElement):
    return ("c", g.word)


def horo_key(pid: int, coset: GroupElement, local, k: int):
    return ("h", pid, coset.word, local, k)


def key_depth(key) -> int:
    if key[0] == "c":
        return 0
    if key[0] == "h":
        return key[4]
    if key[0] == "b":
        return key[2]
    return 0


def key_base_element(pair: RelHypPair, key) -> GroupElement:
    """Underlying group element (the base point under a horoball vertex)."""
    if key[0] == "c":
        return GroupElement(key[1])
    if key[0] == "h":
        _, pid, cw, local, _k = key
        per = pair.peripherals[pid]
        return pair.group.multiply(GroupElement(cw), per.embed(local))
    raise InvalidParameterError(f"key {key!r} has no group element")


# ---------------------------------------------------------------------------
# exact cusped metric


class ExactCuspedMetric:
    """Exact distances in the (untruncated) cusped space of a pair whose
    generators are all peripheral: free products of abelian factors."""

    def __init__(self, pair: RelHypPair):
        self.pair = pair
        self.G = pair.group
        self._approach_cache: dict = {}
        self._flat_tables: dict = {}

    # -- element level

    def elem_cost(self, g: GroupElement) -> int:
        """d_X(id, g) = sum of per-syllable horoball distances."""
        total = 0
        for fi, p in g.word:
            total += horo_flat(self.pair.peripherals[fi].factor.p_length(p))
        return total

    def elem_dist(self, g: GroupElement, h: GroupElement) -> int:
        return self.elem_cost(self.G.multiply(self.G.inverse(g), h))

    # -- generic vertex keys

    def translate_key(self, gamma: GroupElement, key):
        if key[0] == "c":
            return depth0_key(self.G.multiply(gamma, GroupElement(key[1])))
        _, pid, cw, local, k = key
        per = self.pair.peripherals[pid]
        base = self.G.multiply(gamma, self.G.multiply(GroupElement(cw), per.embed(local)))
        return horo_key(pid, per.coset_key(base), per.local(base), k)

    def dist(self, u, v) -> int:
        if u[0] == "c":
            return self._from_elem(GroupElement(u[1]), v)
        if v[0] == "c":
            return self._from_elem(GroupElement(v[1]), u)
        # both interior; translate u's coset representative to the identity
        _, pid_u, cw_u, x, k = u
        gamma = self.G.inverse(GroupElement(cw_u))
        v2 = self.translate_key(gamma, v)
        _, pid_v, cw_v, y, l = v2
        per_u = self.pair.peripherals[pid_u]
        if pid_v == pid_u and cw_v == ():
            return horo_pair(per_u.d_local(x, y), k, l)
        # leave through a depth-zero exit point of u's horoball
        s1 = per_u.factor.p_identity()
        if cw_v and cw_v[0][0] == pid_u:
            s1 = cw_v[0][1]
        best = None
        for p in self._box_candidates(per_u.factor, x, s1):
            d1 = horo_pair(per_u.d_local(x, p), k, 0)
            if best is not None and d1 >= best:
                continue
            d2 = self._from_elem(per_u.embed(p), v2)
            if best is None or d1 + d2 < best:
                best = d1 + d2
        return best

    def _from_elem(self, g: GroupElement, v) -> int:
        if v[0] == "c":
            return self.elem_dist(g, GroupElement(v[1]))
        _, pid, cw, y, k = v
        per = self.pair.peripherals[pid]
        w = self.G.multiply(self.G.inverse(g), GroupElement(cw))
        if w.word and w.word[-1][0] == pid:
            prefix = GroupElement(w.word[:-1])
            q = w.word[-1][1]
            t = per.factor.p_add(q, y)
        else:
            prefix = w
            t = y
        return self.elem_cost(prefix) + self._approach(pid, t, k)

    def _approach(self, pid: int, t, k: int) -> int:
        """min over entries r of horo_flat(|r|) + horoball((r,0) -> (t,k))."""
        key = (pid, t, k)
        hit = self._approach_cache.get(key)
        if hit is not None:
            return hit
        factor = self.pair.peripherals[pid].factor
        best = None
        for r in self._box_candidates(factor, factor.p_identity(), t):
            d = factor.p_length(factor.p_add(t, factor.p_neg(r)))
            c = horo_flat(factor.p_length(r)) + horo_pair(d, 0, k)
            if best is None or c < best:
                best = c
        self._approach_cache[key] = best
        return best

    @staticmethod
    def _box_candidates(factor, a, b):
        """Payloads 'between' a and b; both scan objectives are monotone in
        the distances to the endpoints (clamping any candidate coordinatewise
        into the box shrinks both), so the optimum lies in this box. Finite
        factors are small enough to enumerate outright."""
        if isinstance(factor, FreeAbelianOracle):
            lows = [min(x, y) for x, y in zip(a, b)]
            highs = [max(x, y) for x, y in zip(a, b)]
            out = []

            def rec(prefix, i):
                if i == len(lows):
                    out.append(tuple(prefix))
                    return
                for v in range(lows[i], highs[i] + 1):
                    rec(prefix + [v], i + 1)

            rec([], 0)
            return out
        order = factor.p_order()
        if order is None:
            raise UnsupportedKindError(
                "exact cusped distances need free or finite abelian "
                f"peripheral factors, got {factor.kind}")
        return factor.p_within(order)

    # -- exact metric balls

    def _flat_table(self, pid: int, budget: int):
        """Non-identity locals p with horo_flat(|p|) <= budget, with costs."""
        if budget <= 0:
            return []
        key = (pid, budget)
        hit = self._flat_tables.get(key)
        if hit is None:
            factor = self.pair.peripherals[pid].factor
            hit = []
            for p in factor.p_within(flat_reach(budget)):
                if p == factor.p_identity():
                    continue
                c = horo_flat(factor.p_length(p))
                if c <= budget:
                    hit.append((p, c))
            self._flat_tables[key] = hit
        return hit

    def _interior_table(self, pid: int, k: int, budget: int):
        """(local y, cost) with approach(pid, y, k) = cost <= budget."""
        factor = self.pair.peripherals[pid].factor
        cache_key = ("itab", pid, k, budget)
        hit = self._approach_cache.get(cache_key)
        if hit is None:
            span = flat_reach(budget) + max(0, dip_reach(budget, k))
            hit = []
            for y in factor.p_within(span):
                c = self._approach(pid, y, k)
                if c <= budget:
                    hit.append((y, c))
            self._approach_cache[cache_key] = hit
        return hit

    def ball(self, radius: int, max_depth: int | None = None,
             cap: int = 2_000_000) -> dict:
        """Exact cusped ball around the identity: {vertex key: d_X(id, key)}.

        ``max_depth`` additionally restricts horoball depth (the ball is then
        taken inside the depth-capped subgraph; distances stay exact for the
        full space wherever the certificate of CuspedGraph says so).
        """
        if max_depth is None:
            max_depth = radius
        out: dict = {}
        elems: list[tuple[GroupElement, int]] = []

        def rec(g, cost, last_fi):
            if len(out) >= cap:
                raise BudgetExceededError("cusped ball vertices", cap)
            elems.append((g, cost))
            out[depth0_key(g)] = cost
            for fi in range(len(self.pair.peripherals)):
                if fi == last_fi:
                    continue
                for p, c in self._flat_table(fi, radius - cost):
                    rec(self.G.multiply(g, self.pair.peripherals[fi].embed(p)),
                        cost + c, fi)

        rec(self.G.identity(), 0, None)
        # interior vertices, one coset at a time
        seen_cosets = set()
        for g, cost in elems:
            for pid, per in enumerate(self.pair.peripherals):
                if g.word and g.word[-1][0] == pid:
                    continue  # not a coset key for this peripheral
                ck = (pid, g.word)
                if ck in seen_cosets:
                    continue
                seen_cosets.add(ck)
                base_cost = cost
                rem = radius - base_cost
                for k in range(1, min(rem, max_depth) + 1):
                    for y, c in self._interior_table(pid, k, rem):
                        key = horo_key(pid, g, y, k)
                        d = base_cost + c
                        prev = out.get(key)
                        if prev is None or d < prev:
                            out[key] = d
                        if len(out) > cap:
                            raise BudgetExceededError("cusped ball vertices", cap)
        return out


# ---------------------------------------------------------------------------
# graphs


@dataclass
class GraphPath:
    """A path in a graph: consecutive vertices are adjacent."""

    graph: "CuspedGraph"
    vertices: list[int]

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    def validate(self) -> bool:
        g = self.graph
        return all(g.has_edge(u, v) for u, v in zip(self.vertices, self.vertices[1:]))

    def keys(self):
        return [self.graph.vertices[i] for i in self.vertices]

    def words(self):
        return [self.graph.labels[i] for i in self.vertices]


class CuspedGraph:
    """Finite truncated graph with depth-tagged vertices and typed edges."""

    def __init__(self, kind: str, vertices: list, depth, labels, coset_labels,
                 edges_u, edges_v, edge_kind, pair: RelHypPair | None = None,
                 meta: dict | None = None):
        self.kind = kind
        self.vertices = vertices
        self.index = {k: i for i, k in enumerate(vertices)}
        self.depth = np.asarray(depth, dtype=np.int64)
        self.labels = labels
        self.coset_labels = coset_labels
        self.edges_u = np.asarray(edges_u, dtype=np.int64)
        self.edges_v = np.asarray(edges_v, dtype=np.int64)
        self.edge_kind = list(edge_kind)
        self.pair = pair
        self.meta = meta or {}
        self._closed = None
        self._neighbor_lists = None
        self._dist_matrix = None
        self._cert = None
        self._kind_map = None

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges_u)

    def _pattern(self, loops: bool) -> tuple[np.ndarray, np.ndarray]:
        """CSR (indices, indptr) of the symmetric adjacency pattern, plus the
        diagonal if ``loops``; parallel edges count once, columns sorted."""
        n, u, v = self.n_vertices, self.edges_u, self.edges_v
        diagonal = np.arange(n if loops else 0) * (n + 1)
        keys = np.sort(np.concatenate([u * n + v, v * n + u, diagonal]))
        keys = keys[np.diff(keys, prepend=-1) != 0]
        return keys % n, np.searchsorted(keys, np.arange(n + 1) * n)

    def neighbors(self, i: int) -> np.ndarray:
        if self._neighbor_lists is None:
            indices, indptr = self._pattern(loops=False)
            self._neighbor_lists = np.split(indices, indptr[1:-1])
        return self._neighbor_lists[i]

    def has_edge(self, i: int, j: int) -> bool:
        return j in self.neighbors(i)

    def _bfs_rows(self, sources) -> np.ndarray:
        """Read-only int16 distance rows from ``sources``, -1 if unreachable.

        The k BFSs run together, one bit each: bit s of row v of the
        ``(n, ceil(k/64))`` little-endian uint64 words says that v has been
        reached from ``sources[s]``. A level ORs the frontier words over each
        closed neighbourhood (adjacency plus diagonal, so no ``reduceat``
        segment is empty) and drops the bits already seen. Each frontier is
        ORed into the binary planes of its level; planes and seen bits are
        unpacked into the int16 rows at the end."""
        n, k = self.n_vertices, len(sources)
        if self._closed is None:
            indices, indptr = self._pattern(loops=True)
            self._closed = indices, indptr[:-1]
        nbrs, starts = self._closed
        col = np.arange(k)
        seen = np.zeros((n, -(-k // 64)), dtype="<u8")
        np.bitwise_or.at(seen, (sources, col // 64),
                         np.uint64(1) << (col % 64).astype(np.uint64))
        frontier, planes = seen, {}
        for level in range(1, n):
            frontier = np.bitwise_or.reduceat(np.take(frontier, nbrs, axis=0),
                                              starts) & ~seen
            if not frontier.any():
                break
            seen |= frontier
            for b in range(level.bit_length()):
                if level >> b & 1:
                    planes[b] = planes.get(b, 0) | frontier

        def bits(words, rows):
            return np.unpackbits(words[rows].view(np.uint8), axis=1, count=k,
                                 bitorder="little").astype(np.int16)

        dist = np.empty((k, n), dtype=np.int16)
        for s in range(0, n, BFS_BLOCK):
            rows = slice(s, s + BFS_BLOCK)
            block = bits(seen, rows) - 1
            for b, plane in planes.items():
                block += bits(plane, rows) << b
            dist[:, rows] = block.T
        dist.flags.writeable = False
        return dist

    def vertex_index(self, v) -> int:
        """Index of vertex ``v``, given as an index or as a key tuple;
        InvalidParameterError if the window has no such vertex."""
        i = self.index.get(v, -1) if isinstance(v, tuple) else v
        if not isinstance(i, (int, np.integer)) or not 0 <= i < self.n_vertices:
            raise InvalidParameterError(
                f"no vertex {v!r} in a window of {self.n_vertices} vertices")
        return int(i)

    def bfs_distances(self, source) -> np.ndarray:
        """Read-only int16 distances from ``source`` (index or key), -1
        where unreachable; a row of the cached ``distance_matrix`` once that
        has been formed."""
        source = self.vertex_index(source)
        if self._dist_matrix is None:
            return self._bfs_rows([source])[0]
        return self._dist_matrix[source]

    def distance_matrix(self) -> np.ndarray:
        """All-pairs window distances, n x n int16 with -1 if unreachable,
        formed in blocks of ``BFS_BLOCK`` sources; cached and read-only."""
        if self._dist_matrix is None:
            n = self.n_vertices
            if n > MATRIX_CAP:
                raise BudgetExceededError("dense distance matrix vertices",
                                          MATRIX_CAP, n)
            D = np.empty((n, n), dtype=np.int16)
            for s in range(0, n, BFS_BLOCK):
                D[s:s + BFS_BLOCK] = self._bfs_rows(np.arange(s, min(s + BFS_BLOCK, n)))
            D.flags.writeable = False
            self._dist_matrix = D
        return self._dist_matrix

    def edge_kind_of(self, i: int, j: int) -> str | None:
        if self._kind_map is None:
            self._kind_map = {
                (min(int(u), int(v)), max(int(u), int(v))): k
                for u, v, k in zip(self.edges_u, self.edges_v, self.edge_kind)}
        return self._kind_map.get((min(i, j), max(i, j)))

    # -- truncation certificate ------------------------------------------

    def certified_pairs_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """(int16 ``distance_matrix()``, -1 if unreachable; boolean
        certificate), both cached and read-only. A pair is certified at
        window distance d >= 0 with d <= (R+1 - |i|) + (R+1 - |j|) and
        d <= (md+1 - depth i) + (md+1 - depth j), |i| = d(id, i): a shorter
        geodesic would stay inside the ball and the depth cap (module doc)."""
        D = self.distance_matrix()
        if self._cert is None:
            R = self.meta["radius"]
            md = self.meta.get("max_depth", R)
            ball = R + 1 - np.asarray(self.meta["dist_from_id"], np.int16)
            cap = (md + 1 - self.depth).astype(np.int16)
            cert = np.empty(D.shape, dtype=bool)
            for s in range(0, len(D), BFS_BLOCK):
                rows = slice(s, s + BFS_BLOCK)
                lim = np.minimum(ball[rows, None] + ball, cap[rows, None] + cap)
                cert[rows] = (D[rows] >= 0) & (D[rows] <= lim)
            cert.flags.writeable = False
            self._cert = cert
        return D, self._cert


def shortest_path(graph: CuspedGraph, u, v) -> GraphPath:
    """BFS geodesic; ties broken toward the smallest vertex index."""
    ui, vi = graph.vertex_index(u), graph.vertex_index(v)
    dist = graph.bfs_distances(ui)
    if dist[vi] < 0:
        raise DisconnectedError(f"vertices {u!r} and {v!r} not connected in window")
    path = [vi]
    cur = vi
    while cur != ui:
        nbrs = graph.neighbors(cur)
        below = nbrs[dist[nbrs] == dist[cur] - 1]
        cur = int(below.min())
        path.append(cur)
    path.reverse()
    return GraphPath(graph, path)


# ---------------------------------------------------------------------------
# builders


def _coset_label(pair, pid, coset: GroupElement) -> str:
    return f"{pid}:{format_word(pair.group, coset)}"


def _cayley_edges(pair: RelHypPair, vertices, index: dict):
    """Generator edges (i, j) with i < j, from (vertex id, element) pairs to
    the depth-zero vertices that ``index`` maps to ids."""
    for i, g in vertices:
        for s in pair.genset:
            j = index.get(depth0_key(pair.group.multiply(g, s)))
            if j is not None and j > i:
                yield i, j


def build_cayley_ball(pair: RelHypPair, radius: int,
                      cap: int = 2_000_000) -> CuspedGraph:
    """Depth-zero window: the word-metric ball with generator edges."""
    elems = enumerate_ball(pair.group, radius, cap=cap)
    keys = [depth0_key(g) for g in elems]
    index = {k: i for i, k in enumerate(keys)}
    G = pair.group
    edges = list(_cayley_edges(pair, enumerate(elems), index))
    eu, ev, ek = [e[0] for e in edges], [e[1] for e in edges], ["cayley"] * len(edges)
    labels = [format_word(G, g) for g in elems]
    meta = {"radius": radius, "max_depth": 0,
            "dist_from_id": np.array([G.word_length(g) for g in elems])}
    return CuspedGraph("cayley", keys, [0] * len(keys), labels,
                       ["-"] * len(keys), eu, ev, ek, pair, meta)


def build_coned_off(pair: RelHypPair, radius: int,
                    extra_elements: list[GroupElement] | None = None,
                    cap: int = 2_000_000) -> CuspedGraph:
    """Word ball plus one cone vertex per peripheral coset met by the ball.

    The true coned-off ball of any radius >= 2 is infinite (it contains whole
    cosets), so the window is a word ball; ``extra_elements`` lets callers
    adjoin specific far elements, which attach to their cosets' cones.
    """
    elems = list(enumerate_ball(pair.group, radius, cap=cap))
    seen = set(elems)
    for g in extra_elements or []:
        if g not in seen:
            elems.append(g)
            seen.add(g)
    G = pair.group
    keys = [depth0_key(g) for g in elems]
    labels = [format_word(G, g) for g in elems]
    depth = [0] * len(elems)
    coset_labels = ["-"] * len(elems)
    index = {k: i for i, k in enumerate(keys)}
    edges = list(_cayley_edges(pair, enumerate(elems), index))
    eu, ev, ek = [e[0] for e in edges], [e[1] for e in edges], ["cayley"] * len(edges)
    cones: dict = {}
    for i, g in enumerate(elems):
        for pid, per in enumerate(pair.peripherals):
            ck = per.coset_key(g)
            cone_key = ("cone", pid, ck.word)
            j = cones.get(cone_key)
            if j is None:
                j = len(keys)
                cones[cone_key] = j
                keys.append(cone_key)
                labels.append(format_word(G, ck))
                depth.append(0)
                coset_labels.append(_coset_label(pair, pid, ck))
            eu.append(i)
            ev.append(j)
            ek.append("cone")
    meta = {"radius": radius, "max_depth": 0, "n_cones": len(cones)}
    return CuspedGraph("coned", keys, depth, labels, coset_labels,
                       eu, ev, ek, pair, meta)


def integer_interval_metric(radius: int) -> tuple[np.ndarray, list[str]]:
    """Base metric for the window |u| <= radius of the Cayley graph of Z."""
    coords = np.arange(-radius, radius + 1)
    D = np.abs(coords[:, None] - coords[None, :])
    return D, [str(c) for c in coords]


def build_horoball(base_metric: np.ndarray, max_depth: int,
                   base_labels: list[str] | None = None,
                   cap: int = 2_000_000) -> CuspedGraph:
    """Standalone combinatorial horoball over a finite base metric space.

    Vertices ("b", i, k); horizontal edges at level k join base points at
    distance 0 < d <= 2^k, vertical edges join consecutive levels.
    """
    D = np.asarray(base_metric)
    n = D.shape[0]
    if D.shape != (n, n):
        raise InvalidParameterError("base metric must be square")
    if (n * (max_depth + 1)) > cap:
        raise BudgetExceededError("horoball vertices", cap)
    if base_labels is None:
        base_labels = [str(i) for i in range(n)]
    keys, labels, depth = [], [], []
    for k in range(max_depth + 1):
        for i in range(n):
            keys.append(("b", i, k))
            labels.append(f"{base_labels[i]}")
            depth.append(k)
    idx = lambda i, k: k * n + i
    eu, ev, ek = [], [], []
    iu, iv = np.triu_indices(n, k=1)
    dvals = D[iu, iv]
    for k in range(max_depth + 1):
        sel = (dvals > 0) & (dvals <= (1 << k))
        for a, b in zip(iu[sel], iv[sel]):
            eu.append(idx(a, k))
            ev.append(idx(b, k))
            ek.append("horizontal")
    for k in range(max_depth):
        for i in range(n):
            eu.append(idx(i, k))
            ev.append(idx(i, k + 1))
            ek.append("vertical")
    meta = {"radius": max_depth, "max_depth": max_depth, "base_metric": D,
            "base_size": n}
    return CuspedGraph("horoball", keys, depth, labels,
                       ["-"] * len(keys), eu, ev, ek, None, meta)


def regular_geodesic(horoball: CuspedGraph, u, v) -> GraphPath:
    """Vertical / (<= 3 horizontal) / vertical path of minimal length.

    The minimum over apex levels of (m-k)+(m-l)+ceil(d/2^m) is always
    attained with at most three horizontal jumps (raising the apex once more
    never hurts while four or more jumps remain), so the constructed path
    realizes the horoball distance.
    """
    if horoball.kind != "horoball":
        raise InvalidParameterError("regular_geodesic expects a horoball graph")
    D = horoball.meta["base_metric"]
    n = horoball.meta["base_size"]
    max_depth = horoball.meta["max_depth"]
    (_, i, k), (_, j, l) = u, v
    d = int(D[i, j])
    # Scan apex levels up to the first one where a single jump suffices;
    # beyond that the cost strictly increases, so the true minimum is seen.
    costs = []
    m = max(k, l)
    while True:
        jumps = -(-d // (1 << m)) if d else 0
        costs.append((m, (m - k) + (m - l) + jumps, jumps))
        if jumps <= 1:
            break
        m += 1
    best_cost = min(c for _, c, _ in costs)
    usable = [m for m, c, jumps in costs
              if c == best_cost and jumps <= 3 and m <= max_depth]
    if not usable:
        raise WindowError(
            f"no apex of cost {best_cost} with <= 3 jumps at depth "
            f"<= {max_depth}; deepen the window")
    m = usable[0]
    jumps = -(-d // (1 << m)) if d else 0
    # base waypoints with consecutive distances <= 2^m
    step = 1 << m
    waypoints = [i]
    if jumps >= 2:
        if jumps == 2:
            mids = [w for w in range(n) if D[i, w] <= step and D[w, j] <= step]
            if not mids:
                raise WindowError("no intermediate base point in window")
            waypoints.append(mids[0])
        else:
            found = None
            for w1 in range(n):
                if D[i, w1] > step:
                    continue
                for w2 in range(n):
                    if D[w1, w2] <= step and D[w2, j] <= step:
                        found = (w1, w2)
                        break
                if found:
                    break
            if not found:
                raise WindowError("no intermediate base points in window")
            waypoints.extend(found)
    if jumps >= 1:
        waypoints.append(j)
    verts = []
    for lev in range(k, m + 1):
        verts.append(horoball.index[("b", i, lev)])
    for w in waypoints[1:]:
        verts.append(horoball.index[("b", w, m)])
    for lev in range(m - 1, l - 1, -1):
        verts.append(horoball.index[("b", j, lev)])
    path = GraphPath(horoball, verts)
    assert path.length == best_cost
    return path


def build_cusped_ball(pair: RelHypPair, radius: int,
                      max_depth: int | None = None,
                      cap: int = 2_000_000) -> CuspedGraph:
    """Exact cusped ball around the identity, materialized with all edges.

    Vertices are exactly the keys at cusped distance <= radius (depth capped
    at ``max_depth`` if given); edges are all cusped-space edges between
    included vertices, so the graph is an induced subgraph of the full space.
    """
    if radius < 0:
        raise InvalidParameterError("radius must be >= 0")
    metric = ExactCuspedMetric(pair)
    ball = metric.ball(radius, max_depth=max_depth, cap=cap)
    md = radius if max_depth is None else max_depth

    def order_key(item):
        key = item
        if key[0] == "c":
            return (0, pair.group.sort_key(GroupElement(key[1])))
        _, pid, cw, local, k = key
        per = pair.peripherals[pid]
        return (1, pid, pair.group.sort_key(GroupElement(cw)), k,
                (per.factor.p_length(local),) + tuple(
                    v for v in (local if isinstance(local, tuple) else (local,))))

    keys = sorted(ball, key=order_key)
    index = {k: i for i, k in enumerate(keys)}
    G = pair.group
    depth = [key_depth(k) for k in keys]
    dist0 = np.array([ball[k] for k in keys], dtype=np.int64)
    labels, coset_labels = [], []
    by_coset_level: dict = {}
    for key in keys:
        if key[0] == "c":
            labels.append(format_word(G, GroupElement(key[1])))
            coset_labels.append("-")
        else:
            _, pid, cw, local, k = key
            base = key_base_element(pair, key)
            labels.append(format_word(G, base))
            coset_labels.append(_coset_label(pair, pid, GroupElement(cw)))
            by_coset_level.setdefault((pid, cw, k), []).append(key)
    eu, ev, ek = [], [], []

    def add_edge(i, j, kind):
        if i is None or j is None or i == j:
            return
        if i > j:
            i, j = j, i
        eu.append(i)
        ev.append(j)
        ek.append(kind)

    # cayley edges (these double as the level-zero horizontal edges)
    depth0 = ((index[key], GroupElement(key[1])) for key in keys if key[0] == "c")
    for i, j in _cayley_edges(pair, depth0, index):
        add_edge(i, j, "cayley")
    # vertical edges
    for key in keys:
        if key[0] != "h":
            continue
        _, pid, cw, local, k = key
        i = index[key]
        if k == 1:
            base = key_base_element(pair, key)
            add_edge(i, index.get(depth0_key(base)), "vertical")
        else:
            add_edge(i, index.get(("h", pid, cw, local, k - 1)), "vertical")
    # horizontal edges per coset and level
    for (pid, cw, k), group_keys in by_coset_level.items():
        per = pair.peripherals[pid]
        reach = 1 << k
        locs = [gk[3] for gk in group_keys]
        if isinstance(per.factor, FreeAbelianOracle) and per.factor.rank == 1:
            order = np.argsort([p[0] for p in locs])
            vals = np.array([locs[t][0] for t in order])
            for a in range(len(vals)):
                b = a + 1
                while b < len(vals) and vals[b] - vals[a] <= reach:
                    add_edge(index[group_keys[order[a]]],
                             index[group_keys[order[b]]], "horizontal")
                    b += 1
        else:
            for a in range(len(locs)):
                for b in range(a + 1, len(locs)):
                    if 0 < per.d_local(locs[a], locs[b]) <= reach:
                        add_edge(index[group_keys[a]],
                                 index[group_keys[b]], "horizontal")
    meta = {"radius": radius, "max_depth": md, "dist_from_id": dist0,
            "metric": metric}
    return CuspedGraph("cusped", keys, depth, labels, coset_labels,
                       eu, ev, ek, pair, meta)


# ---------------------------------------------------------------------------
# generic graphs, dump and load


def generic_graph(n: int, edges: list[tuple[int, int]]) -> CuspedGraph:
    keys = [("v", i) for i in range(n)]
    labels = [str(i) for i in range(n)]
    eu = [e[0] for e in edges]
    ev = [e[1] for e in edges]
    return CuspedGraph("generic", keys, [0] * n, labels, ["-"] * n,
                       eu, ev, ["cayley"] * len(edges), None, {})


def cycle_graph(n: int) -> CuspedGraph:
    return generic_graph(n, [(i, (i + 1) % n) for i in range(n)])


def dump_graph(graph: CuspedGraph) -> str:
    """Text dump: 'V <id> <depth> <cosetId|-> <word>' / 'E <id1> <id2> <kind>'."""
    lines = []
    for i in range(graph.n_vertices):
        lines.append(f"V {i} {int(graph.depth[i])} {graph.coset_labels[i]} "
                     f"{graph.labels[i]}")
    for u, v, k in zip(graph.edges_u, graph.edges_v, graph.edge_kind):
        lines.append(f"E {int(u)} {int(v)} {k}")
    return "\n".join(lines) + "\n"


def load_graph(text: str) -> CuspedGraph:
    """Inverse of :func:`dump_graph`; a malformed line raises
    InvalidParameterError naming its line number."""
    depth, labels, coset_labels = [], [], []
    eu, ev, ek, edge_lines = [], [], [], []
    n = 0
    for no, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if not parts:
            continue
        try:
            if parts[0] == "V":
                if int(parts[1]) != n:
                    raise InvalidParameterError(
                        f"line {no}: vertex ids must be consecutive")
                depth.append(int(parts[2]))
                coset_labels.append(parts[3])
                labels.append(parts[4] if len(parts) > 4 else "")
                n += 1
            elif parts[0] == "E":
                eu.append(int(parts[1]))
                ev.append(int(parts[2]))
                ek.append(parts[3])
                edge_lines.append(no)
            else:
                raise InvalidParameterError(f"line {no}: bad dump line {line!r}")
        except (IndexError, ValueError):
            raise InvalidParameterError(
                f"line {no}: bad dump line {line!r}") from None
    for u, v, no in zip(eu, ev, edge_lines):
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidParameterError(
                f"line {no}: edge ({u}, {v}) leaves the vertex range 0..{n - 1}")
    keys = [("v", i) for i in range(n)]
    return CuspedGraph("generic", keys, depth, labels, coset_labels,
                       eu, ev, ek, None, {})
