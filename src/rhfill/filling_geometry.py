"""Quotient cusped spaces under fillings, the induced vertex maps, lifts,
and the geometric checks that compare source and quotient windows.

The projection sends a depth-zero vertex to its image element and a horoball
vertex (coset, local, k) to the image coset with the image local coordinate
at the same depth. Every source edge maps to a target edge of the same kind
or collapses to a loop (never for vertical edges), which makes the map
1-Lipschitz; both facts are checked, not assumed, by `filling_map_report`.
"""
from __future__ import annotations

import bisect

import numpy as np

from .cusped import (
    CuspedGraph,
    ExactCuspedMetric,
    GraphPath,
    build_cusped_ball,
    depth0_key,
    horo_flat,
    horo_key,
    key_base_element,
    pair_word_costs,
    shortest_path,
)
from .delta import four_point_delta_sampled
from .errors import (
    InvalidParameterError,
    NoPreimageEdgeError,
    WindowError,
)
from .groups import FillingData, GroupElement, RelHypPair, enumerate_ball


class FillingGeometry:
    """Source and target cusped windows joined by the projection map."""

    def __init__(self, source: CuspedGraph, target: CuspedGraph,
                 filling: FillingData, vertex_map: np.ndarray):
        self.source = source
        self.target = target
        self.filling = filling
        self.vertex_map = vertex_map

    @property
    def source_metric(self) -> ExactCuspedMetric:
        return self.source.meta["metric"]

    @property
    def target_metric(self) -> ExactCuspedMetric:
        return self.target.meta["metric"]


def project_vertex_key(filling: FillingData, key):
    """Image of a source window vertex key under the filling projection."""
    if key[0] == "c":
        return depth0_key(filling.project(GroupElement(key[1])))
    _, pid, cw, local, k = key
    base = key_base_element(filling.pair, key)
    img = filling.project(base)
    qper = filling.quotient_pair.peripherals[pid]
    return horo_key(pid, qper.coset_key(img), qper.local(img), k)


def build_quotient_cusped(pair: RelHypPair, filling: FillingData,
                          radius: int, max_depth: int | None = None,
                          cap: int = 2_000_000) -> FillingGeometry:
    """Windows of the same radius on both sides plus the vertex map."""
    if filling.pair is not pair:
        raise InvalidParameterError("filling was built for a different pair")
    source = build_cusped_ball(pair, radius, max_depth=max_depth, cap=cap)
    target = build_cusped_ball(filling.quotient_pair, radius,
                               max_depth=max_depth, cap=cap)
    vmap = np.empty(source.n_vertices, dtype=np.int64)
    for i, key in enumerate(source.vertices):
        image = project_vertex_key(filling, key)
        j = target.index.get(image)
        if j is None:
            # cannot happen for exact balls: projection shrinks distances
            raise WindowError(f"image of {key!r} missing from target window")
        vmap[i] = j
    return FillingGeometry(source, target, filling, vmap)


def filling_map_report(fg: FillingGeometry) -> dict:
    """Surjectivity, depth/kind preservation, no vertical loops, and
    1-Lipschitz behavior on certified source pairs."""
    src, tgt = fg.source, fg.target
    vmap = fg.vertex_map
    surjective = len(set(vmap.tolist())) == tgt.n_vertices
    depth_ok = bool((src.depth == tgt.depth[vmap]).all())
    vertical_loops = 0
    kind_mismatches = 0
    collapsed = 0
    for u, v, kind in zip(src.edges_u, src.edges_v, src.edge_kind):
        mu, mv = int(vmap[u]), int(vmap[v])
        if mu == mv:
            collapsed += 1
            if kind == "vertical":
                vertical_loops += 1
            continue
        if tgt.edge_kind_of(mu, mv) != kind:
            kind_mismatches += 1
    Ds, cert = src.certified_pairs_matrix()
    Dt = tgt.distance_matrix()
    worst = 0.0
    iu, il = np.nonzero(cert)
    vals_s = Ds[iu, il]
    vals_t = Dt[vmap[iu], vmap[il]]
    bad = vals_t > vals_s
    lip_ok = not bad.any()
    if len(vals_s):
        worst = float((vals_t - vals_s).max())
    return {
        "name": "filling-map",
        "surjective": bool(surjective),
        "depth_preserved": depth_ok,
        "collapsed_edges": int(collapsed),
        "vertical_loops": int(vertical_loops),
        "kind_mismatches": int(kind_mismatches),
        "lipschitz_on_certified": bool(lip_ok),
        "max_stretch": worst,
        "pass": bool(surjective and depth_ok and vertical_loops == 0
                     and kind_mismatches == 0 and lip_ok),
    }


def project_path(fg: FillingGeometry, path: GraphPath) -> GraphPath:
    """Image path in the target window, with collapsed edges removed."""
    out = []
    for i in path.vertices:
        j = int(fg.vertex_map[i])
        if not out or out[-1] != j:
            out.append(j)
    return GraphPath(fg.target, out)


def lift_path(fg: FillingGeometry, path: GraphPath, base_lift) -> GraphPath:
    """Edge-by-edge lift of a target path starting at ``base_lift``.

    When several source edges project onto a target edge, take the endpoint
    that comes first in the canonical window order (the windows sort their
    vertices by canonical form). The result projects back to ``path``.
    """
    src = fg.source
    start = src.index[base_lift] if not isinstance(base_lift, (int, np.integer)) \
        else int(base_lift)
    if int(fg.vertex_map[start]) != path.vertices[0]:
        raise InvalidParameterError("base lift does not project to path start")
    out = [start]
    cur = start
    for tnext in path.vertices[1:]:
        candidates = [int(u) for u in src.neighbors(cur)
                      if int(fg.vertex_map[u]) == tnext]
        if not candidates:
            raise NoPreimageEdgeError(
                f"no preimage edge toward {fg.target.labels[tnext]!r} "
                f"from {src.labels[cur]!r} inside the window")
        cur = min(candidates)
        out.append(cur)
    return GraphPath(src, out)


def lift_roundtrip_report(fg: FillingGeometry, n_paths: int = 1000,
                          seed: int = 0) -> dict:
    """Round-trip and tightness of lifted target geodesics.

    For seeded target BFS geodesics: project(lift) must equal the path
    exactly, and the lift, having the same length, must realize the source
    BFS distance between its endpoints whenever that pair is certified
    (lifts of geodesics cannot be beaten: projection is 1-Lipschitz).
    """
    if n_paths < 1:
        raise InvalidParameterError(f"lift needs n_paths >= 1, got {n_paths}")
    tgt = fg.target
    Ds, cert = fg.source.certified_pairs_matrix()
    rng = np.random.default_rng(seed)
    n = tgt.n_vertices
    # half the draws stay near the center, where endpoint pairs certify
    tdist0 = np.asarray(tgt.meta["dist_from_id"])
    near = np.flatnonzero(tdist0 <= max(1, tgt.meta["radius"] // 2))
    roundtrip_failures = 0
    tightness_failures = []
    lifted = 0
    tight_checked = 0
    no_preimage = 0
    preimages: dict[int, int] = {}
    for i, j in enumerate(fg.vertex_map):
        preimages.setdefault(int(j), i)
    while lifted < n_paths:
        if lifted % 2 == 0:
            u = int(near[rng.integers(0, len(near))])
            v = int(near[rng.integers(0, len(near))])
        else:
            u = int(rng.integers(0, n))
            v = int(rng.integers(0, n))
        tpath = shortest_path(tgt, u, v)
        base = preimages.get(u)
        if base is None:
            continue
        try:
            lift = lift_path(fg, tpath, base)
        except NoPreimageEdgeError:
            no_preimage += 1
            continue
        lifted += 1
        back = project_path(fg, lift)
        if back.vertices != tpath.vertices:
            roundtrip_failures += 1
        a, b = lift.vertices[0], lift.vertices[-1]
        if cert[a, b]:
            tight_checked += 1
            if Ds[a, b] != lift.length:
                tightness_failures.append({
                    "start": fg.source.labels[a], "end": fg.source.labels[b],
                    "lift_length": lift.length, "source_bfs": float(Ds[a, b])})
    return {
        "name": "lift-roundtrip",
        "paths": lifted,
        "roundtrip_failures": roundtrip_failures,
        "tightness_checked": tight_checked,
        "tightness_failures": tightness_failures[:10],
        "tightness_failure_count": len(tightness_failures),
        "no_preimage_skipped": no_preimage,
        "pass": roundtrip_failures == 0 and not tightness_failures,
    }


def check_local_isometry(fg: FillingGeometry, r: int, *,
                         include_interior: bool = False) -> dict:
    """Compare all pairwise distances in the radius-r ball around the
    identity with the distances of the images in the quotient.

    Distances on both sides are exact cusped distances, so this is
    an exact statement about the infinite spaces. By equivariance, the ball
    around any depth-zero vertex gives the same comparison as the ball
    around the identity, so one center suffices. The image of the ball must
    also equal the quotient's own radius-r ball (the image is a metric
    ball), which is checked as a set equality.
    """
    if r < 1:
        raise InvalidParameterError(f"local isometry needs r >= 1, got {r}")
    if r > fg.source.meta["radius"]:
        raise WindowError(f"r={r} exceeds window radius; rebuild larger")
    dist0 = np.asarray(fg.source.meta["dist_from_id"])
    depth0 = fg.source.depth == 0
    idx = np.flatnonzero((dist0 <= r) & (depth0 | include_interior))
    keys = [fg.source.vertices[i] for i in idx]
    images = [project_vertex_key(fg.filling, k) for k in keys]
    # all depth-zero pairs from the syllable arrays; pairs with an interior
    # key from the exact metrics, in row-major order until 50 violations
    a, b = np.triu_indices(len(keys), k=1)
    flat = depth0[idx]
    at, both = np.cumsum(flat) - 1, flat[a] & flat[b]
    d = np.zeros((2, len(a)), dtype=np.int64)
    sides = ((fg.source_metric, keys), (fg.target_metric, images))
    for side, (metric, ks) in enumerate(sides):
        d[side, both] = pair_word_costs(
            metric.G, [GroupElement(k[1]) for k in ks if k[0] == "c"],
            at[a[both]], at[b[both]], horo_flat)
    bad = np.flatnonzero(d[0] != d[1]).tolist()
    for t in np.flatnonzero(~both):
        if bisect.bisect_left(bad, t) >= 50:
            break
        d[:, t] = [metric.dist(ks[a[t]], ks[b[t]]) for metric, ks in sides]
        if d[0, t] != d[1, t]:
            bisect.insort(bad, t)
    bad = bad[:50]
    checked = int(bad[-1]) + 1 if len(bad) == 50 else len(a)
    violations = [{"u": fg.source.labels[idx[a[t]]],
                   "v": fg.source.labels[idx[b[t]]],
                   "source": int(d[0, t]), "target": int(d[1, t])}
                  for t in bad[:10]]
    # image must be the full quotient ball of the same radius
    tdist0 = np.asarray(fg.target.meta["dist_from_id"])
    target_ball = {k for i, k in enumerate(fg.target.vertices)
                   if tdist0[i] <= r and (include_interior or k[0] == "c")}
    image_set = set(images)
    ball_image = image_set == target_ball
    return {
        "name": "local-isometry",
        "r": r,
        "ball_size": len(keys),
        "pairs_checked": checked,
        "include_interior": include_interior,
        "violations": violations,
        "violation_count": len(bad),
        "image_is_ball": bool(ball_image),
        "missing_from_image": len(target_ball - image_set),
        "pass": not len(bad) and ball_image,
    }


def check_descent_quasigeodesic(fg: FillingGeometry, K: float,
                                max_depth_used: int, samples: int = 200,
                                seed: int = 0) -> dict:
    """Projected source geodesics against the (K, 2*delta) inequality.

    For sampled certified source pairs, project the BFS geodesic and verify
    len_between(i, j) <= K * d_target(p_i, p_j) + 2*delta for all certified
    target sub-pairs; geodesics that dive deeper than ``max_depth_used``
    are skipped (the statement is depth-filtered).
    """
    if samples < 1:
        raise InvalidParameterError(f"descent needs samples >= 1, got {samples}")
    Ds, cert_s = fg.source.certified_pairs_matrix()
    Dt, cert_t = fg.target.certified_pairs_matrix()
    delta = four_point_delta_sampled(Dt, samples=50_000, seed=seed).delta
    rng = np.random.default_rng(seed)
    n = fg.source.n_vertices
    checked_paths = 0
    failures = []
    attempts = 0
    while checked_paths < samples and attempts < samples * 20:
        attempts += 1
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if not cert_s[u, v]:
            continue
        spath = shortest_path(fg.source, u, v)
        if max(int(fg.source.depth[i]) for i in spath.vertices) > max_depth_used:
            continue
        checked_paths += 1
        tv = fg.vertex_map[spath.vertices]
        # steps[k]: non-collapsed steps among the first k of the projection
        steps = np.concatenate(([0], np.cumsum(tv[1:] != tv[:-1])))
        i, j = np.triu_indices(len(tv), k=1)
        gap, dist = steps[j] - steps[i], Dt[tv[i], tv[j]]
        far = cert_t[tv[i], tv[j]] & (gap > K * dist + 2 * delta + 1e-9)
        for t in np.flatnonzero(far):
            failures.append({
                "start": fg.source.labels[u], "end": fg.source.labels[v],
                "sub": (int(i[t]), int(j[t])), "steps": int(gap[t]),
                "target_distance": float(dist[t])})
    return {
        "name": "descent-quasigeodesic",
        "K": K,
        "delta": delta,
        "max_depth_used": max_depth_used,
        "paths_checked": checked_paths,
        "failures": failures[:10],
        "failure_count": len(failures),
        "pass": not failures,
    }


def check_uniform_delta(pair: RelHypPair, fillings: dict[int, FillingData],
                        radius: int, slack: float = 2.0,
                        samples: int = 100_000, seed: int = 0) -> dict:
    """Window delta per filling index, against the unfilled window delta.

    Every delta here is the four-point delta over ``samples`` random
    quadruples of the window, a lower bound on the window's delta.  The test
    ``filled <= unfilled + slack`` therefore compares lower bounds, and a
    pass is not a certificate of uniform hyperbolicity.
    """
    source = build_cusped_ball(pair, radius)
    base = four_point_delta_sampled(source.distance_matrix(),
                                    samples=samples, seed=seed).delta
    table = {}
    for n in sorted(fillings):
        tgt = build_cusped_ball(fillings[n].quotient_pair, radius)
        table[n] = four_point_delta_sampled(tgt.distance_matrix(),
                                            samples=samples, seed=seed).delta
    uniform = all(v <= base + slack for v in table.values())
    return {
        "name": "uniform-delta",
        "radius": radius,
        "unfilled_delta": base,
        "delta_by_n": table,
        "slack": slack,
        "uniform": bool(uniform),
        "pass": bool(uniform),
    }


def injectivity_report(filling: FillingData, radius: int) -> dict:
    """Is the projection injective on the word ball and on the peripheral
    balls, all of the given radius?

    The guaranteed window for cyclic fillings <a^n> is floor((n-1)/2) in the
    peripheral and the same bound groupwide when every kernel is that long.
    """
    pair = filling.pair
    G = pair.group
    ball = enumerate_ball(G, radius)
    seen: dict = {}
    collisions = []
    for g in ball:
        img = filling.project(g)
        if img.word in seen:
            collisions.append((seen[img.word], g))
        else:
            seen[img.word] = g
    per_reports = []
    for pid, per in enumerate(pair.peripherals):
        locals_ = per.factor.p_within(radius)
        imgs = {filling.project_local(pid, p) for p in locals_}
        per_reports.append({
            "pid": pid,
            "ball": len(locals_),
            "image": len(imgs),
            "injective": len(imgs) == len(locals_),
        })
    return {
        "name": "injectivity",
        "radius": radius,
        "ball_size": len(ball),
        "collisions": len(collisions),
        "group_injective": not collisions,
        "peripheral": per_reports,
        "pass": not collisions and all(p["injective"] for p in per_reports),
    }
