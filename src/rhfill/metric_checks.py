"""Window verification of the coarse-geometry comparison lemmas.

All checks run on a certified cusped window: wherever the truncation
certificate holds, window BFS distances agree with the metric of the
infinite cusped space, so a pass here is a genuine statement about the
group pair, not about the window.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .cusped import (
    BFS_BLOCK,
    PAIR_BLOCK,
    CuspedGraph,
    _ranges,
    build_cusped_ball,
    geodesics,
    horo_pair,
    pair_word_costs,
    run_pair_blocks,
)
from .delta import four_point_delta_sampled
from .errors import WindowError
from .groups import GroupElement, RelHypPair

MIN_LEMMA_RADIUS = 6


def _depth0_indices(window: CuspedGraph) -> np.ndarray:
    return np.flatnonzero(window.depth == 0)


def _horoball_label(window: CuspedGraph, h: int) -> str:
    pid, coset = window.meta["horoball_coset"][h]
    return f"{pid}:{window.labels[coset]}"


def _unique_inverse(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(codes, return_inverse=True)`` by one sort and a diff mask."""
    order = np.argsort(codes)
    ranked = codes[order]
    first = np.diff(ranked, prepend=ranked[:1] - 1) != 0
    inv = np.empty(len(codes), dtype=np.int64)
    inv[order] = np.cumsum(first) - 1
    return ranked[first], inv


def comparison_lemma_check(window: CuspedGraph) -> dict:
    """On certified depth-zero pairs: len_coned <= d_X <= d_Gamma and the
    distortion bound d_Gamma <= d_X * sqrt(2)^(d_X)."""
    D, cert = window.certified_pairs_matrix()
    d0 = _depth0_indices(window)
    elems = [GroupElement(window.vertices[i][1]) for i in d0]
    a, b = map(np.concatenate, zip(*cert.pairs(d0, d0, upper=True)))
    dx = D[d0[a], d0[b]]
    dg, dh = (pair_word_costs(window.pair.group, elems, a, b, cost)
              for cost in (int, lambda n: min(n, 2)))
    # the scalar bound once per distinct distance, as a pair loop forms it
    bound = {x: x * math.sqrt(2.0) ** x for x in _unique_inverse(dx)[0]}
    ub = np.array([bound[x] for x in dx.tolist()], dtype=float)
    bad = np.flatnonzero(~((dh <= dx) & (dx <= dg) & (dg <= ub + 1e-9)))
    violations = [{"u": window.labels[d0[a[t]]], "v": window.labels[d0[b[t]]],
                   "coned": int(dh[t]), "cusped": float(dx[t]),
                   "word": int(dg[t]), "distortion_bound": float(ub[t])}
                  for t in bad[:10]]
    max_ratio = np.max(dg[ub > 0] / ub[ub > 0], initial=0.0)
    return {
        "name": "comparison",
        "pairs_checked": len(a),
        "violations": violations,
        "violation_count": len(bad),
        "max_distortion_ratio": float(max_ratio),
        "pass": not len(bad),
    }


def horoball_entry_check(window: CuspedGraph, delta: float,
                         C: int = 2) -> dict:
    """Geodesics with endpoints within C of a horoball H satisfy
    d(z, {x, y}) <= d(z, X - H) + 3C + 7*delta at every point z on them.

    Points z with d(z, {x,y}) <= ceil(d(x,y)/2) <= bound can never violate,
    so whole pairs are discharged by that filter; remaining pairs get the
    full on-a-geodesic scan (z is on some geodesic iff the triangle
    inequality through z is tight). The vertices within C of H are its
    C-hop neighbourhood, as a cusped window is connected; their pairs are
    read horoball by horoball in blocks of at most ``PAIR_BLOCK``, which
    split a horoball's pairs where they must.
    """
    D, cert = window.certified_pairs_matrix()
    bound = 3 * C + 7 * delta
    n = window.n_vertices
    member = window.meta["horoball"]
    v, col = np.nonzero(member >= 0)
    h = member[v, col]
    order = np.lexsort((v, h))
    h, v = h[order], v[order]
    size = np.bincount(h, minlength=len(window.meta["horoball_coset"]))
    start = np.cumsum(size) - size
    indices, indptr = window._closed_pattern()
    near_h, near = h, v
    for _ in range(C):
        deg = indptr[near + 1] - indptr[near]
        keys = np.sort(np.repeat(near_h, deg) * n
                       + indices[_ranges(indptr[near], deg)])
        keys = keys[np.diff(keys, prepend=-1) != 0]
        near_h, near = keys // n, keys % n
    keep = size[near_h] < n  # a horoball that is the whole window has no outside
    near_h, near = near_h[keep], near[keep]
    pairs_checked = 0
    scans = []
    for a, b in run_pair_blocks(near_h, PAIR_BLOCK):
        x, y = near[a], near[b]
        ok = cert[x, y]
        pairs_checked += int(ok.sum())
        t = np.flatnonzero(ok & (np.ceil(D[x, y] / 2.0) > bound))
        scans += zip(near_h[a[t]].tolist(), x[t].tolist(), y[t].tolist())
    violations = []
    d_out_h = -1
    for hh, x, y in scans:  # horoball by horoball, row-major as i < j
        if hh != d_out_h:
            # the sentinel, 127 in int8, exceeds every distance in D
            idx_H = v[start[hh]:start[hh] + size[hh]]
            in_H = np.zeros(n, dtype=bool)
            in_H[idx_H] = True
            d_out, d_out_h = np.zeros(n), hh
            d_out[idx_H] = np.where(in_H, np.iinfo(D.dtype).max,
                                    D[idx_H]).min(axis=1)
        on_geo = D[x] + D[y] == D[x, y]
        d_ends = np.minimum(D[x], D[y])
        bad = on_geo & (d_ends > d_out + bound)
        for z in np.flatnonzero(bad):
            violations.append({
                "horoball": _horoball_label(window, hh),
                "x": window.labels[x], "y": window.labels[y],
                "z": window.labels[int(z)],
                "d_to_ends": float(d_ends[z]),
                "d_outside": float(d_out[z]),
                "bound": bound})
    return {
        "name": "horoball-entry",
        "C": C,
        "delta": delta,
        "bound": bound,
        "pairs_checked": pairs_checked,
        "pairs_scanned": len(scans),
        "violations": violations[:10],
        "violation_count": len(violations),
        "pass": not violations,
    }


def _canonical_ray_union(window: CuspedGraph, targets: np.ndarray) -> np.ndarray:
    """Vertices on the canonical (smallest-index tie-break) BFS geodesics
    from the identity to each target, sorted."""
    i0 = window.index[("c", ())]
    paths = geodesics(window, np.full(len(targets), i0), targets)
    return _unique_inverse(np.append(paths[paths >= 0], i0))[0]


def quasidensity_check(window: CuspedGraph, delta: float,
                       ball_radius: int = 5) -> dict:
    """Every vertex of the radius-``ball_radius`` ball lies within
    8 + 21*delta of some geodesic from id to a sphere-of-radius-R vertex."""
    D = window.distance_matrix()
    dist0 = np.asarray(window.meta["dist_from_id"])
    R = window.meta["radius"]
    if ball_radius > R:
        raise WindowError(f"ball radius {ball_radius} exceeds window radius {R}")
    sphere = np.flatnonzero(dist0 == R)
    if len(sphere) == 0:
        raise WindowError("window has no sphere vertices at its own radius")
    rays = _canonical_ray_union(window, sphere)
    ball = np.flatnonzero(dist0 <= ball_radius)
    # a ball vertex on a ray is at distance 0; only the others are scanned
    dmin = np.zeros(len(ball), dtype=D.dtype)
    off = np.flatnonzero(~np.isin(ball, rays, assume_unique=True))
    for s in range(0, len(off), BFS_BLOCK):
        t = off[s:s + BFS_BLOCK]
        dmin[t] = D[np.ix_(ball[t], rays)].min(axis=1)
    bound = 8 + 21 * delta
    bad = np.flatnonzero(dmin > bound)
    return {
        "name": "quasidensity",
        "delta": delta,
        "bound": bound,
        "ball_radius": ball_radius,
        "ball_size": int(len(ball)),
        "ray_vertices": int(len(rays)),
        "max_distance_to_rays": float(dmin.max()),
        "violations": [window.labels[int(ball[i])] for i in bad[:10]],
        "violation_count": int(len(bad)),
        "pass": len(bad) == 0,
    }


def deep_horoball_isometry_check(window: CuspedGraph, depth_floor: int) -> dict:
    """Certified distances between two depth >= depth_floor vertices of one
    horoball equal the within-horoball closed form."""
    pair = window.pair
    D, cert = window.certified_pairs_matrix()
    deep = np.flatnonzero(window.depth >= max(depth_floor, 1))
    locals_: dict = {}
    local = np.zeros(window.n_vertices, dtype=np.int64)
    local[deep] = [locals_.setdefault((key[1], key[3]), len(locals_))
                   for key in map(window.vertices.__getitem__, deep.tolist())]
    locs, m = list(locals_), len(locals_)

    @lru_cache(maxsize=None)  # d_local once per distinct pair of locals
    def d_local(c: int) -> int:
        (pid, p), (_, q) = locs[c // m], locs[c % m]
        return pair.peripherals[pid].d_local(p, q)

    base = int(window.depth.max(initial=0)) + 1
    checked, bad_count, violations = 0, 0, []
    # an interior vertex lies in one horoball, whose vertices are contiguous
    for a, b in run_pair_blocks(window.meta["horoball"][deep].max(axis=1),
                                PAIR_BLOCK):
        u, v = deep[a], deep[b]
        ok = cert[u, v]
        u, v = u[ok], v[ok]
        codes, inv = _unique_inverse(local[u] * m + local[v])
        d = np.array([d_local(c) for c in codes.tolist()], dtype=np.int64)[inv]
        # horo_pair (cached) once per distinct (d, k, l) of the block
        dkl, inv = _unique_inverse((d * base + window.depth[u]) * base
                                   + window.depth[v])
        expected = np.array([horo_pair(c // base ** 2, c // base % base,
                                       c % base) for c in dkl.tolist()],
                            dtype=np.int64)[inv]
        bad = np.flatnonzero(D[u, v] != expected)
        checked, bad_count = checked + len(u), bad_count + len(bad)
        violations += [{"u": window.labels[u[t]], "v": window.labels[v[t]],
                        "window": float(D[u[t], v[t]]),
                        "horoball": int(expected[t])}
                       for t in bad[:10 - len(violations)]]
    return {
        "name": "deep-horoball-isometry",
        "depth_floor": depth_floor,
        "pairs_checked": checked,
        "violations": violations,
        "violation_count": bad_count,
        "pass": not bad_count,
    }


def verify_metric_lemmas(pair: RelHypPair, radius: int = 6,
                         delta_samples: int = 200_000, seed: int = 0,
                         quasidensity_radius: int = 5) -> dict:
    """Bundle: comparison, horoball-entry, quasidensity and deep-horoball
    checks on one certified window, with a sampled window delta.

    The sampled delta is a lower bound; it appears only on right-hand
    sides here, so passing with it implies passing with the true delta.
    """
    if radius < MIN_LEMMA_RADIUS:
        raise WindowError(
            f"lemma verification needs radius >= {MIN_LEMMA_RADIUS}")
    window = build_cusped_ball(pair, radius)
    est = four_point_delta_sampled(window.distance_matrix(),
                                   samples=delta_samples, seed=seed)
    delta = est.delta
    comparison = comparison_lemma_check(window)
    entry = horoball_entry_check(window, delta, C=2)
    density = quasidensity_check(window, delta,
                                 ball_radius=quasidensity_radius)
    deep = deep_horoball_isometry_check(window,
                                        depth_floor=max(1, math.ceil(delta)))
    report = {
        "radius": radius,
        "vertices": window.n_vertices,
        "edges": window.n_edges,
        "delta": {"value": delta, "mode": est.mode, "checked": est.checked},
        "checks": [comparison, entry, density, deep],
        "pass": all(c["pass"] for c in (comparison, entry, density, deep)),
    }
    return report
