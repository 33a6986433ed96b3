"""Cusped windows, plus an exact cusped metric for free products of
abelian peripherals.

Horoball distance facts used throughout (for a horoball over a base space Y
with metric d, vertices (y, k), horizontal edges at level k joining points
with 0 < d <= 2^k, vertical edges between consecutive levels):

    d((u,k),(v,l)) = min_{m >= max(k,l)} (m-k) + (m-l) + ceil(d(u,v)/2^m)

realized by an up/across/down path. Because every generator of our pairs is
peripheral, each edge of the cusped space lives inside a single coset's
horoball, and the coset adjacency structure is a tree; consequently the
cusped distance between group elements is the sum of the per-syllable
horoball distances of the normal form. Interior points enter and leave a
horoball only through its depth-zero boundary, and by the triangle
inequality inside the horoball the best such point is the one where the
normal form enters it, so every distance query is a closed form. The window
builder below uses it both to enumerate exact metric balls and to certify
that the truncation cannot have cut any geodesic. That certificate is a
closed formula over two O(n) vectors per window, so a window keeps no n x n
array but its distance matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    BudgetExceededError,
    DisconnectedError,
    InvalidParameterError,
)
from .groups import (
    FreeAbelianOracle,
    FreeProductOracle,
    GroupElement,
    RelHypPair,
    format_word,
    intern_syllables,
    sort_columns,
    tuple_key,
)

MATRIX_CAP = 6000  # largest window for dense all-pairs work
BFS_BLOCK = 256  # rows per block of the all-pairs BFS and of row scans of D
PAIR_BLOCK = 1 << 15  # pairs gathered at once, also within one horoball
INT8_REACH = 63  # distances up to this are stored in int8: any two add exactly


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


def pair_word_costs(group: FreeProductOracle, elems: list[GroupElement],
                    i: np.ndarray, j: np.ndarray, cost) -> np.ndarray:
    """Cost of the reduced word g_i^-1 g_j for every pair (i[t], j[t]).

    ``elems`` must be in ``group``'s normal form; a syllable p of factor f
    costs ``cost(f.p_length(p))``, so ``horo_flat``, ``int`` and
    ``min(., 2)`` give d_X, word and coned length. Past the common prefix,
    the next syllables s and t merge into the nontrivial p_add(p_neg(s), t)
    when they share a factor and add up otherwise (a missing one costs 0);
    the tails behind them are kept."""
    sylls, A = intern_syllables([g.word for g in elems])
    A = A.astype(np.min_scalar_type(len(sylls)))  # narrow pair gathers
    each = np.array([cost(group.factors[f].p_length(p)) for f, p in sylls] + [0])
    merge = np.add.outer(each, each)
    for a, (f, p) in enumerate(sylls):
        fac = group.factors[f]
        for b, (g, q) in enumerate(sylls):
            if g == f:
                merge[a, b] = cost(fac.p_length(fac.p_add(fac.p_neg(p), q)))
    tails = np.cumsum(each[A][:, ::-1], axis=1)[:, ::-1] - each[A]
    # the common prefix ends at the first column where the words differ;
    # the last column, a pad in every row, ends it for equal words
    differ = A[i] != A[j]
    differ[:, -1] = True
    c = differ.argmax(axis=1)
    return tails[i, c] + tails[j, c] + merge[A[i, c], A[j, c]]


# ---------------------------------------------------------------------------
# vertex keys
#
# depth zero:  ("c", word)
# horoball:    ("h", pid, coset_word, local_payload, k)   with k >= 1
# generic loaded graphs: ("v", index)


def depth0_key(g: GroupElement):
    return ("c", g.word)


def horo_key(pid: int, coset: GroupElement, local, k: int):
    return ("h", pid, coset.word, local, k)


# ---------------------------------------------------------------------------
# exact cusped metric


class ExactCuspedMetric:
    """Exact distances in the (untruncated) cusped space of a pair whose
    generators are all peripheral: free products of abelian factors."""

    def __init__(self, pair: RelHypPair):
        self.pair = pair
        self.G = pair.group

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
        # leaving u's horoball at p costs horo_pair(|x - p|, k, 0) plus
        # horo_flat(|s1 - p|) for the syllable s1 by which v's coset word
        # enters it (the identity if none) plus terms free of p; the
        # horoball's triangle inequality puts the minimum at p = s1
        s1 = per_u.factor.p_identity()
        if cw_v and cw_v[0][0] == pid_u:
            s1 = cw_v[0][1]
        return (horo_pair(per_u.d_local(x, s1), k, 0)
                + self._from_elem(per_u.embed(s1), v2))

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
        # entering at r costs horo_flat(|r|) + horo_dip(|t - r|, k), least
        # at r = 0 by the horoball's triangle inequality
        return self.elem_cost(prefix) + horo_dip(per.factor.p_length(t), k)

    # -- exact metric balls

    def _ball_rows(self, radius: int, max_depth: int, cap: int) -> "_Ball":
        """The exact ball as arrays (see :class:`_Ball`).

        Depth-zero elements come depth first, each syllable appended in
        ``p_within`` order, then the interior keys in (element, peripheral,
        depth, local) order. Both costs grow with the local's length, so the
        locals of one coset and level within a budget are a prefix of
        ``p_within``: horo_flat(|p|) for a syllable, horo_dip(|y|, k) for
        (y, k) over the coset's identity (module doc)."""
        pers = self.pair.peripherals
        K = min(radius, max_depth)
        span = flat_reach(radius) + max(
            [0] + [dip_reach(radius, k) for k in range(1, K + 1)])
        sylls, off = [], []
        for pid, per in enumerate(pers):
            off.append(len(sylls))
            sylls += [(pid, p) for p in per.factor.p_within(span)]
        off.append(len(sylls))
        lens = [pers[f].factor.p_length(p) for f, p in sylls]
        flat = [horo_flat(L) for L in lens]
        budgets = np.arange(radius + 1)
        # non-identity syllables of peripheral f within each budget
        n_flat = [np.searchsorted(flat[off[f] + 1:off[f + 1]], budgets,
                                  side="right").tolist()
                  for f in range(len(pers))]
        words, parent, cost0 = [], [], []

        def rec(word, cost, up, last_fi):
            if len(words) >= cap:
                raise BudgetExceededError("cusped ball vertices", cap)
            e = len(words)
            words.append(word)
            parent.append(up)
            cost0.append(cost)
            for fi in range(len(pers)):
                if fi != last_fi:
                    first = off[fi] + 1  # past the identity
                    for s in range(first, first + n_flat[fi][radius - cost]):
                        rec(word + (sylls[s],), cost + flat[s], e, fi)

        rec((), 0, -1, -1)
        # dip[k, s]: horo_dip(|y|, k) of syllable s; n_dip[f, k, budget]
        dip = np.array([[horo_dip(L, k) for L in lens] for k in range(K + 1)],
                       dtype=np.int64).reshape(K + 1, len(sylls))
        n_dip = np.array([[np.searchsorted(dip[k, off[f]:off[f + 1]], budgets,
                                           side="right") for k in range(1, K + 1)]
                          for f in range(len(pers))],
                         dtype=np.int64).reshape(len(pers), K, radius + 1)
        last_fi = np.array([w[-1][0] if w else -1 for w in words], dtype=np.int64)
        cost0 = np.array(cost0, dtype=np.int64)
        counts = n_dip[:, :, radius - cost0].transpose(2, 0, 1).copy()
        counts[last_fi[:, None] == np.arange(len(pers))] = 0
        counts = counts.ravel()
        if len(words) + counts.sum() > cap:
            raise BudgetExceededError("cusped ball vertices", cap)
        block = np.repeat(np.arange(counts.size), counts)
        pos = np.arange(len(block)) - (np.cumsum(counts) - counts)[block]
        e, pid = block // (len(pers) * K), block // K % len(pers)
        k = block % K + 1
        sid = np.array(off[:-1], dtype=np.int64)[pid] + pos
        keys = [("c", w) for w in words] + [
            ("h", f, words[x], sylls[y][1], d)
            for x, f, y, d in zip(e.tolist(), pid.tolist(), sid.tolist(),
                                  k.tolist())]
        return _Ball(sylls, words, np.array(parent, dtype=np.int64), e, k, sid,
                     keys, np.concatenate([cost0, cost0[e] + dip[k, sid]]))


class _Ball(NamedTuple):
    """An exact cusped ball as rows: the depth-zero elements, then the
    interior keys, each over the coset of element ``e``."""

    sylls: list          # (peripheral, local) of every local within reach
    words: list          # depth-zero normal forms
    parent: np.ndarray   # element index of each word less its last syllable
    e: np.ndarray        # interior rows: coset element, depth and local id
    k: np.ndarray
    sid: np.ndarray
    keys: list           # vertex keys, depth-zero elements first
    cost: np.ndarray     # d_X(id, key)


def _run_counts(labels: np.ndarray) -> np.ndarray:
    """For each position i, the number of j > i in its run of equal labels."""
    n = len(labels)
    cut = np.flatnonzero(np.diff(labels)) + 1
    ends = np.repeat(np.append(cut, n), np.diff(np.concatenate(([0], cut, [n]))))
    return ends - np.arange(n) - 1


def run_pairs(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions i < j with labels[i] == labels[j], row-major, for labels
    that come in contiguous runs."""
    counts = _run_counts(labels)
    n = len(labels)
    return np.repeat(np.arange(n), counts), _ranges(np.arange(1, n + 1), counts)


def run_pair_blocks(labels: np.ndarray, block: int):
    """:func:`run_pairs` as consecutive slices of at most ``block`` pairs,
    a run split between slices where it must. Pair p of the row-major
    order is (i, i + 1 + p - first[i]), row i holding the pairs from
    first[i] on; a slice repeats each of its rows once per pair it holds."""
    counts = _run_counts(labels)
    first = np.cumsum(counts) - counts
    total = int(counts.sum())
    for lo in range(0, total, block):
        hi = min(lo + block, total)
        r0, r1 = np.searchsorted(first, [lo, hi - 1], side="right") - 1
        rows = np.arange(r0, r1 + 1)
        held = (np.minimum(first[rows] + counts[rows], hi)
                - np.maximum(first[rows], lo))
        i = np.repeat(rows, held)
        p = np.arange(lo, hi)
        p -= first[i] - i - 1
        yield i, p


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated arange(s, s + c) over the starts s and counts c."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(counts.sum())


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


class CuspedGraph:
    """Finite truncated graph with depth-tagged vertices and typed edges."""

    def __init__(self, vertices: list, depth, labels, coset_labels,
                 edges_u, edges_v, edge_kind, pair: RelHypPair | None = None,
                 meta: dict | None = None):
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
        self._dist_matrix = None
        self._cert = None

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges_u)

    def _closed_pattern(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR (indices, indptr) of the symmetric adjacency pattern with the
        diagonal, cached; parallel edges count once, columns sorted."""
        if self._closed is None:
            n, u, v = self.n_vertices, self.edges_u, self.edges_v
            keys = np.sort(np.concatenate([u * n + v, v * n + u,
                                           np.arange(n) * (n + 1)]))
            keys = keys[np.diff(keys, prepend=-1) != 0]
            self._closed = keys % n, np.searchsorted(keys, np.arange(n + 1) * n)
        return self._closed

    def first_neighbours(self, cur: np.ndarray, accept) -> np.ndarray:
        """For each vertex cur[p], the smallest w among cur[p] and its
        neighbours with ``accept(p, w)`` true, -1 if there is none.
        ``accept`` gets the candidate pairs as two arrays, by p, then w."""
        nbrs, indptr = self._closed_pattern()
        degree = indptr[cur + 1] - indptr[cur]
        p = np.repeat(np.arange(len(cur)), degree)
        w = nbrs[_ranges(indptr[cur], degree)]
        hit = np.flatnonzero(accept(p, w))
        hit = hit[np.diff(p[hit], prepend=-1) != 0]
        out = np.full(len(cur), -1, dtype=np.int64)
        out[p[hit]] = w[hit]
        return out

    def _bfs_rows(self, sources) -> np.ndarray:
        """Read-only int16 distance rows from ``sources``, -1 if unreachable;
        always int16 (numpy's 8-bit shifts are slower), narrowed only where
        :meth:`distance_matrix` stores a block. The rows are the transpose of
        an ``(n, k)`` C-order array, column s of which is the row of
        ``sources[s]``.

        The k BFSs run together, one bit each: bit s of row v of the
        ``(n, ceil(k/64))`` little-endian uint64 words says that v has been
        reached from ``sources[s]``. A level ORs the frontier words over each
        closed neighbourhood (adjacency plus diagonal, so no ``reduceat``
        segment is empty) and drops the bits already seen. Each frontier is
        ORed into the binary planes of its level; planes and seen bits are
        unpacked at the end, ``BFS_BLOCK`` vertices at a time, into the
        int16 array in place."""
        n, k = self.n_vertices, len(sources)
        nbrs, indptr = self._closed_pattern()
        starts = indptr[:-1]
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

        dist = np.empty((n, k), dtype=np.int16)
        for s in range(0, n, BFS_BLOCK):
            rows = slice(s, s + BFS_BLOCK)
            block = np.subtract(bits(seen, rows), 1, out=dist[rows])
            for b, plane in planes.items():
                block += bits(plane, rows) << b
        dist.flags.writeable = False
        return dist.T

    def vertex_index(self, v) -> int:
        """Index of vertex ``v``, given as an index or as a key tuple;
        InvalidParameterError if the window has no such vertex."""
        i = self.index.get(v, -1) if isinstance(v, tuple) else v
        if not isinstance(i, (int, np.integer)) or not 0 <= i < self.n_vertices:
            raise InvalidParameterError(
                f"no vertex {v!r} in a window of {self.n_vertices} vertices")
        return int(i)

    def bfs_distances(self, source) -> np.ndarray:
        """Read-only distances from ``source`` (index or key), -1 where
        unreachable: an int16 row of :meth:`_bfs_rows`, or once the matrix
        has been formed a row of the cached ``distance_matrix``, in its
        dtype (int8 or int16)."""
        source = self.vertex_index(source)
        if self._dist_matrix is None:
            return self._bfs_rows([source])[0]
        return self._dist_matrix[source]

    def distance_matrix(self) -> np.ndarray:
        """All-pairs window distances, n x n with -1 if unreachable, formed
        in blocks of ``BFS_BLOCK`` sources; cached and read-only.

        The dtype is int8 when no distance exceeds ``INT8_REACH``, so the
        sum or difference of any two entries is exact in int8, and int16
        otherwise: D starts as int8 and is widened once, by the first block
        of rows that holds a longer distance. An expression that combines
        more than two entries must promote them first. D is symmetric, so
        each block of BFS rows is stored as a block of columns, in the
        C order that :meth:`_bfs_rows` unpacks."""
        if self._dist_matrix is None:
            n = self.n_vertices
            if n > MATRIX_CAP:
                raise BudgetExceededError("dense distance matrix vertices",
                                          MATRIX_CAP, n)
            D = np.empty((n, n), dtype=np.int8)
            for s in range(0, n, BFS_BLOCK):
                rows = self._bfs_rows(np.arange(s, min(s + BFS_BLOCK, n)))
                if D.dtype == np.int8 and rows.max() > INT8_REACH:
                    D = D.astype(np.int16)
                D[:, s:s + BFS_BLOCK] = rows.T
                del rows  # freed before the next block's BFS allocates
            D.flags.writeable = False
            self._dist_matrix = D
        return self._dist_matrix

    # -- truncation certificate ------------------------------------------

    def certified_pairs_matrix(self) -> tuple[np.ndarray, Certificate]:
        """(``distance_matrix()``, -1 if unreachable; the truncation
        certificate), both cached and read-only. A pair is certified at
        window distance d >= 0 with d <= (R+1 - |i|) + (R+1 - |j|) and
        d <= (md+1 - depth i) + (md+1 - depth j), |i| = d(id, i): a shorter
        geodesic would stay inside the ball and the depth cap (module doc).
        The certificate is that formula over two O(n) vectors, evaluated
        on demand; it stores no n x n array (:class:`Certificate`)."""
        D = self.distance_matrix()
        if self._cert is None:
            R = self.meta["radius"]
            md = self.meta.get("max_depth", R)
            self._cert = Certificate(
                D, R + 1 - np.asarray(self.meta["dist_from_id"], np.int16),
                (md + 1 - self.depth).astype(np.int16))
        return D, self._cert


class Certificate:
    """The truncation certificate of a window: pair (i, j) is certified iff
    d = D[i, j] satisfies 0 <= d <= min(ball[i] + ball[j], cap[i] + cap[j]),
    with d in the dtype of D (int8 or int16, see
    :meth:`CuspedGraph.distance_matrix`) and the limbs in int16:
    ball = R+1 - d(id, .) and cap = md+1 - depth.

    ``cert[i, j]`` evaluates it on integers or integer index arrays,
    broadcast as ``D[i, j]`` broadcasts them (``np.ix_`` blocks included);
    it takes no item assignment. :meth:`rows` gives it on whole rows, and
    :meth:`pairs` scans a block of pairs in slices of rows that hold at
    most ``PAIR_BLOCK`` pairs (one row at least), so no scan forms an
    n x n temporary."""

    def __init__(self, D: np.ndarray, ball: np.ndarray, cap: np.ndarray):
        self.D, self.ball, self.cap = D, ball, cap

    def __getitem__(self, ij) -> np.ndarray:
        i, j = (np.asarray(x) for x in ij)
        return self._holds(self.D[i, j], i, j)

    def _holds(self, d: np.ndarray, i, j) -> np.ndarray:
        """The formula at the window distances d = D[i, j]."""
        ball, cap = self.ball, self.cap
        return (d >= 0) & (d <= np.minimum(ball[i] + ball[j], cap[i] + cap[j]))

    def rows(self, r: np.ndarray) -> np.ndarray:
        """The certificate of the rows r of D, against every vertex."""
        return self._holds(self.D[r], r[:, None], slice(None))

    def pairs(self, rows: np.ndarray, cols: np.ndarray | None = None,
              upper: bool = False):
        """The certified pairs (rows[a], cols[b]) as position arrays (a, b),
        yielded per slice of rows holding at most ``PAIR_BLOCK`` pairs,
        row-major; ``cols`` defaults to every vertex, and ``upper`` keeps
        only the pairs with b > a."""
        step = PAIR_BLOCK // max(1, len(self.D if cols is None else cols)) or 1
        for s in range(0, len(rows), step):
            r = rows[s:s + step]
            if cols is None:  # whole rows of D: a row gather, no 2-d index
                block = self.rows(r)
            else:
                block = self[r[:, None], cols]
            a, b = np.nonzero(np.triu(block, k=1 + s) if upper else block)
            yield a + s, b


def geodesics(graph: CuspedGraph, u, v) -> np.ndarray:
    """Canonical BFS geodesics from u[p] to v[p] for vertex index arrays.

    Row p of the ``(k, L + 1)`` result, L the longest distance, holds the
    d(u[p], v[p]) + 1 vertices of its geodesic from u[p], then -1. All paths
    step back from v together; each step keeps the smallest neighbour one
    level closer to u[p]. Distances come from the cached ``distance_matrix``
    or, without it, from one BFS over the distinct sources. A step depends
    only on u[p] and the current vertex, so the geodesic from u[p] to a
    vertex on this one is its prefix."""
    u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
    D, row = graph._dist_matrix, u
    if D is None:
        sources, row = np.unique(u, return_inverse=True)
        D = graph._bfs_rows(sources)
    d = D[row, v].astype(np.int64)
    if (d < 0).any():
        p = int(np.argmax(d < 0))
        raise DisconnectedError(
            f"vertices {u[p]} and {v[p]} not connected in window")
    paths = np.full((len(u), d.max(initial=0) + 1), -1, dtype=np.int64)
    act, cur = np.arange(len(u)), v.copy()
    paths[act, d] = v
    for t in range(1, paths.shape[1]):
        act = act[d[act] >= t]
        r, level = row[act], d[act] - t
        cur[act] = graph.first_neighbours(
            cur[act], lambda p, w: D[r[p], w] == level[p])
        paths[act, level] = cur[act]
    return paths


def shortest_path(graph: CuspedGraph, u, v) -> GraphPath:
    """BFS geodesic between two vertices (indices or keys), the one-pair
    case of :func:`geodesics`; ties broken toward the smallest vertex index."""
    row = geodesics(graph, [graph.vertex_index(u)], [graph.vertex_index(v)])
    return GraphPath(graph, row[0].tolist())


# ---------------------------------------------------------------------------
# builders


def build_cusped_ball(pair: RelHypPair, radius: int,
                      max_depth: int | None = None,
                      cap: int = 2_000_000) -> CuspedGraph:
    """Exact cusped ball around the identity, materialized with all edges.

    Vertices are exactly the keys at cusped distance <= radius (depth capped
    at ``max_depth`` if given); edges are all cusped-space edges between
    included vertices, so the graph is an induced subgraph of the full space.
    Depth-zero vertices come first in ``sort_key`` order, then the interior
    ones by (peripheral, coset ``sort_key``, depth, |local|, local).

    Every edge lies in one horoball, a (coset, peripheral) pair whose
    members sit at a level and a local: the interior vertices over the
    coset, and each depth-zero element g in the horoball of each peripheral
    f, over g less a last syllable in f, which is then g's local. Level-zero
    members at local distance 1 give the generator edges, ordered by their
    lower vertex and generator; members at one local on consecutive levels
    give the vertical edges, by the upper vertex; level-k members at local
    distance at most 2^k give the horizontal edges, by horoball and level,
    then by local value on rank-one free factors and by vertex otherwise.
    ``meta["horoball"]`` holds, per vertex and peripheral, the id of the
    horoball the vertex lies in or -1. Ids follow the first interior vertex,
    then the coset vertex and peripheral; ``meta["horoball_coset"]`` holds
    each id's (peripheral, coset vertex).

    The vertices are also kept as syllable arrays, in window order: vertex
    v is (``element[v]``, ``local[v]``, ``depth[v]``), the depth-zero vertex
    of its coset element (v itself at depth zero), the id of its local
    syllable (the pad at depth zero) and its depth. Row i of ``words`` is
    the normal form of depth-zero vertex i as ids into ``syllables``, padded
    on the right with the pad ``len(syllables)``; the syllables include the
    identity local of every peripheral. Every window carries these arrays,
    so they are unsigned and as narrow as their values allow.
    """
    if radius < 0:
        raise InvalidParameterError("radius must be >= 0")
    if max_depth is not None and max_depth < 0:
        raise InvalidParameterError(f"max_depth must be >= 0, got {max_depth}")
    metric = ExactCuspedMetric(pair)
    md = radius if max_depth is None else max_depth
    b = metric._ball_rows(radius, md, cap)
    factors, P = pair.group.factors, len(pair.peripherals)
    sylls, A = intern_syllables(b.words, b.sylls)
    pad, n0, n = len(sylls), len(b.words), len(b.keys)
    sid_type = np.min_scalar_type(pad)  # syllable ids kept in meta
    # per syllable id (the pad last): peripheral, length, coordinates, text
    spid = np.array([f for f, _ in sylls] + [-1], dtype=np.int64)
    slen = np.array([factors[f].p_length(p) for f, p in sylls] + [0])
    coord = [tuple_key(p) for _, p in sylls]
    width = max(map(len, coord), default=1)
    coord = np.array([c + (0,) * (width - len(c)) for c in coord]
                     + [(0,) * width], dtype=np.int64)
    text = [format_word(factors[f], GroupElement(p)) if L else ""
            for (f, p), L in zip(sylls, slen.tolist())] + [""]
    e = np.concatenate([np.arange(n0), b.e])
    sid = np.concatenate([np.full(n0, pad), b.sid])
    k = np.concatenate([np.zeros(n0, dtype=np.int64), b.k])
    perm = np.lexsort(np.column_stack([
        np.arange(n) >= n0, np.maximum(spid[sid], 0),
        sort_columns(factors, sylls, A)[e], k, slen[sid], coord[sid]]).T[::-1])
    at = np.empty(n, dtype=np.int64)
    at[perm] = np.arange(n)
    words = [".".join(filter(None, map(text.__getitem__, row)))
             for row in A.tolist()]
    labels = [words[x] or "1" for x in range(n0)] + [
        ".".join(filter(None, (words[x], text[y]))) or "1"
        for x, y in zip(b.e.tolist(), b.sid.tolist())]
    coset_labels = ["-"] * n0 + [f"{f}:{words[x] or '1'}" for x, f in
                                 zip(b.e.tolist(), spid[b.sid].tolist())]
    # memberships: coset code (coset element * P + peripheral), vertex,
    # level and local syllable id; then horoball ids for the coset codes
    last = A[np.arange(n0), (A < pad).sum(axis=1) - 1]
    ends_in = spid[last][:, None] == np.arange(P)
    one = [sylls.index((f, factors[f].p_identity())) for f in range(P)]
    coset = np.where(ends_in, b.parent[:, None], np.arange(n0)[:, None])
    mc = np.concatenate([(coset * P + np.arange(P)).ravel(),
                         b.e * P + spid[b.sid]])
    mv = at[np.concatenate([np.repeat(np.arange(n0), P), np.arange(n0, n)])]
    ml = np.concatenate([np.zeros(n0 * P, dtype=np.int64), b.k])
    ms = np.concatenate([np.where(ends_in, last[:, None], one).ravel(), b.sid])
    inner = mc[n0 * P:][perm[n0:] - n0]
    inner = inner[np.diff(inner, prepend=-1) != 0]
    outer = (perm[:n0, None] * P + np.arange(P)).ravel()
    outer = outer[np.isin(outer, mc) & ~np.isin(outer, inner)]
    ids = np.concatenate([inner, outer])
    hid = np.empty(n0 * P, dtype=np.int64)
    hid[ids] = np.arange(len(ids))
    mh = hid[mc]
    member = np.full((n, P), -1, dtype=np.int64)
    member[mv, mc % P] = mh
    rank_one = np.array([isinstance(f, FreeAbelianOracle) and f.rank == 1
                         for f in factors])
    o = np.lexsort((np.where(rank_one[spid[ms]], coord[ms, 0], mv), ml, mh))
    mh, mv, ml, ms = mh[o], mv[o], ml[o], ms[o]
    # pairs within one horoball and level: local distances (coordinate L1
    # on free abelian factors) and generator steps from the lower vertex
    a, c = run_pairs(mh * (radius + 1) + ml)
    d = np.abs(coord[ms[a]] - coord[ms[c]]).sum(axis=1)
    free = np.array([isinstance(f, FreeAbelianOracle) for f in factors])
    other = np.flatnonzero(~free[spid[ms[a]]])
    d[other] = _per_local_pair(sylls, ms[a[other]], ms[c[other]],
                               lambda f, p, q: pair.peripherals[f].d_local(p, q))
    lo, hi = np.minimum(mv[a], mv[c]), np.maximum(mv[a], mv[c])
    cay = np.flatnonzero((ml[a] == 0) & (d == 1))
    first = mv[a[cay]] < mv[c[cay]]
    gens = {(f, p): t for t, (f, p) in enumerate(
        (fi, p) for fi, fac in enumerate(factors) for p in fac.p_generators())}
    step = _per_local_pair(
        sylls, np.where(first, ms[a[cay]], ms[c[cay]]),
        np.where(first, ms[c[cay]], ms[a[cay]]),
        lambda f, p, q: gens[f, factors[f].p_add(q, factors[f].p_neg(p))])
    cay = cay[np.lexsort((step, lo[cay]))]
    hor = np.flatnonzero((ml[a] > 0) & (d > 0) & (d <= 1 << ml[a]))
    # vertical: each interior member to the one at its local a level less deep
    have = (mh * (md + 1) + ml) * pad + ms
    want = have - pad
    by_code = np.argsort(have)
    j = by_code[np.minimum(np.searchsorted(have, want, sorter=by_code),
                           len(have) - 1)]
    ver = np.flatnonzero((ml > 0) & (have[j] == want))
    ver = ver[np.argsort(mv[ver])]
    eu = np.concatenate([lo[cay], mv[j[ver]], lo[hor]])
    ev = np.concatenate([hi[cay], mv[ver], hi[hor]])
    kinds = (["cayley"] * len(cay) + ["vertical"] * len(ver)
             + ["horizontal"] * len(hor))
    meta = {"radius": radius, "max_depth": md, "dist_from_id": b.cost[perm],
            "metric": metric, "horoball": member,
            "horoball_coset": np.column_stack([ids % P, at[ids // P]]),
            "syllables": sylls, "words": A[perm[:n0]].astype(sid_type),
            "element": at[e[perm]].astype(np.min_scalar_type(n)),
            "local": sid[perm].astype(sid_type)}
    return CuspedGraph([b.keys[v] for v in perm.tolist()], k[perm],
                       [labels[v] for v in perm.tolist()],
                       [coset_labels[v] for v in perm.tolist()],
                       eu, ev, kinds, pair, meta)


def _per_local_pair(sylls: list, s: np.ndarray, t: np.ndarray,
                    fn) -> np.ndarray:
    """fn(peripheral, p, q) for the locals p, q of the syllable ids s[i] and
    t[i] of one peripheral, called once per distinct pair."""
    codes, inv = np.unique(s * len(sylls) + t, return_inverse=True)
    pairs = (divmod(x, len(sylls)) for x in codes.tolist())
    return np.array([fn(sylls[x][0], sylls[x][1], sylls[y][1])
                     for x, y in pairs], dtype=np.int64)[inv]


# ---------------------------------------------------------------------------
# generic graphs, dump and load


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
    return CuspedGraph(keys, depth, labels, coset_labels,
                       eu, ev, ek, None, {})
