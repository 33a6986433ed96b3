"""Hyperbolicity estimation on finite graphs.

The four-point condition: for every quadruple, among the three pairings
d(x,y)+d(z,w), d(x,z)+d(y,w), d(x,w)+d(y,z) the two largest differ by at
most 2*delta. Exhaustive mode scans all quadruples (cubic memory-free,
quartic time); sampled mode draws quadruples with a seeded generator and
yields a lower bound for delta, which is the safe direction whenever delta
appears on the right-hand side of a bound being verified. Graph distances
are the cached, read-only n x n matrix, -1 where unreachable, formed from
one BFS per orbit of the window's verified symmetries and permuted copies
of those rows, in int8 when no distance exceeds 63 and in int16 otherwise
(`CuspedGraph.distance_matrix`):
a pairing sum of two entries is exact in either, and the exhaustive scan,
which adds six, widens int8 to int16 first. Integer matrices are used
without a float copy and checked by their minimum, so no n x n temporary is
formed. That matrix is the only n x n array a window keeps: its
truncation certificate is a formula over two O(n) vectors
(`cusped.Certificate`).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (BudgetExceededError, DisconnectedError,
                     InvalidParameterError)
from .cusped import CuspedGraph, geodesics


@dataclass(frozen=True)
class HyperbolicityEstimate:
    delta: float
    mode: str            # four-point-exhaustive | four-point-sampled | thin-triangles
    checked: int         # quadruples or triangles inspected
    witness: tuple       # indices realizing the reported delta
    exact: bool          # True only for exhaustive four-point scans


MODE_ALIASES = {
    "exhaustive": "four-point-exhaustive",
    "sampled": "four-point-sampled",
    "triangles": "thin-triangles",
    "four-point-exhaustive": "four-point-exhaustive",
    "four-point-sampled": "four-point-sampled",
    "thin-triangles": "thin-triangles",
    "auto": "auto",
}


def _as_matrix(graph_or_matrix) -> np.ndarray:
    if isinstance(graph_or_matrix, CuspedGraph):
        D = graph_or_matrix.distance_matrix()
    else:
        D = np.asarray(graph_or_matrix)
        D = D if np.issubdtype(D.dtype, np.integer) else np.asarray(D, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise InvalidParameterError("need a square distance matrix or graph")
    if D.shape[0] == 0:
        raise InvalidParameterError("the graph has no vertices")
    if not (np.isfinite(D).all() if D.dtype.kind == "f" else D.min() >= 0):
        raise DisconnectedError("distance matrix has unreachable pairs")
    return D


def four_point_delta_exhaustive(graph_or_matrix) -> HyperbolicityEstimate:
    """Exact four-point delta by scanning every quadruple."""
    D = _as_matrix(graph_or_matrix)
    if D.dtype == np.int8:  # the defect adds six entries, up to 6 * 63
        D = D.astype(np.int16)
    n = D.shape[0]
    best = -1.0
    wit = (0, 0, 0, 0)
    iu, il = np.triu_indices(n, k=1)
    for i in range(n):
        for j in range(i + 1, n):
            s1 = D[i, j] + D
            s2 = np.add.outer(D[i], D[j])
            s3 = np.add.outer(D[j], D[i])
            hi = np.maximum(np.maximum(s1, s2), s3)
            lo = np.minimum(np.minimum(s1, s2), s3)
            defect = 2 * hi - (s1 + s2 + s3) + lo  # largest minus middle
            sub = defect[iu, il]
            t = int(sub.argmax())
            if sub[t] > best:
                best = float(sub[t])
                wit = (i, j, int(iu[t]), int(il[t]))
    pairs = n * (n - 1) // 2
    # one vertex has no quadruple to scan; its delta is 0
    return HyperbolicityEstimate(max(best, 0.0) / 2.0, "four-point-exhaustive",
                                 pairs * pairs, wit, True)


def four_point_delta_sampled(graph_or_matrix, samples: int = 200_000,
                             seed: int = 0) -> HyperbolicityEstimate:
    """Lower bound for the four-point delta from sampled quadruples.

    The quadruples are drawn as int32, which numpy's generator gives as
    the same values as an int64 draw for every n < 2**31 (a test pins
    that at the window sizes in use) in half the memory."""
    if samples < 1:
        raise InvalidParameterError(
            f"sampled delta needs samples >= 1, got {samples}")
    D = _as_matrix(graph_or_matrix)
    n = D.shape[0]
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(4, samples), dtype=np.int32)
    i, j, k, l = idx
    s1 = D[i, j] + D[k, l]
    s2 = D[i, k] + D[j, l]
    s3 = D[i, l] + D[j, k]
    # largest minus middle by comparisons alone, exact in any dtype: the
    # middle of three is max(min(s1, s2), min(max(s1, s2), s3))
    lo, hi = np.minimum(s1, s2), np.maximum(s1, s2)
    defect = np.maximum(hi, s3) - np.maximum(lo, np.minimum(hi, s3))
    t = int(defect.argmax())
    wit = (int(i[t]), int(j[t]), int(k[t]), int(l[t]))
    return HyperbolicityEstimate(float(defect[t]) / 2.0, "four-point-sampled",
                                 samples, wit, False)


def estimate_delta(graph_or_matrix, mode: str = "auto",
                   budget: int = 300_000_000, samples: int = 200_000,
                   seed: int = 0) -> HyperbolicityEstimate:
    """Four-point delta of a graph window.

    ``auto`` picks exhaustive when the quadruple count fits the budget.
    ``samples`` and ``budget`` are checked whichever mode runs.
    """
    if mode not in MODE_ALIASES:
        raise InvalidParameterError(f"unknown delta mode {mode!r}")
    for name, value, least in (("samples", samples, 1), ("budget", budget, 0)):
        if value < least:
            raise InvalidParameterError(
                f"delta needs {name} >= {least}, got {value}")
    mode = MODE_ALIASES[mode]
    if mode == "thin-triangles":
        return thin_triangle_delta(graph_or_matrix, seed=seed)
    D = _as_matrix(graph_or_matrix)
    n = D.shape[0]
    if mode == "auto":
        mode = "four-point-exhaustive" if n ** 4 <= budget else "four-point-sampled"
    if mode == "four-point-exhaustive":
        if n ** 4 > budget:
            raise BudgetExceededError("quadruples", budget, n ** 4)
        return four_point_delta_exhaustive(D)
    return four_point_delta_sampled(D, samples=samples, seed=seed)


def thin_triangle_delta(graph: CuspedGraph, triangles: int = 1000,
                        seed: int = 0) -> HyperbolicityEstimate:
    """Max slimness over sampled geodesic triangles.

    For each sampled triple, build one BFS geodesic per side and measure how
    far points of each side get from the union of the other two. This is a
    lower bound for the true slimness constant (geodesics are sampled, not
    exhausted), which again is the safe direction for right-hand-side use.
    """
    if not isinstance(graph, CuspedGraph):
        raise InvalidParameterError("thin-triangles mode needs a graph, "
                                    "not a bare distance matrix")
    D = _as_matrix(graph)
    xyz = np.random.default_rng(seed).integers(0, graph.n_vertices,
                                                size=(triangles, 3))
    # sides x-y, y-z, z-x of each triangle, padded with their first vertex
    sides = geodesics(graph, xyz.ravel(), np.roll(xyz, -1, axis=1).ravel())
    sides = np.where(sides >= 0, sides, sides[:, :1]).reshape(triangles, 3, -1)
    others = np.concatenate([np.roll(sides, -1, axis=1),
                             np.roll(sides, -2, axis=1)], axis=2)
    slim = D[sides[..., None], others[..., None, :]].min(axis=3).max(axis=(1, 2))
    best = int(slim.argmax())
    return HyperbolicityEstimate(float(slim[best]), "thin-triangles", triangles,
                                 tuple(xyz[best].tolist()), False)
