"""Quotient cusped spaces under fillings, the induced vertex maps, lifts,
and the geometric checks that compare source and quotient windows.

The projection sends a depth-zero vertex to its image element and a horoball
vertex (coset, local, k) to the image coset with the image local coordinate
at the same depth. Every source edge maps to a target edge of the same kind
or collapses to a loop (never for vertical edges), which makes the map
1-Lipschitz; both facts are checked, not assumed, by `filling_map_report`.

The vertex map is formed on syllable arrays, with no per-vertex group
arithmetic: each source vertex is a row of syllable ids (its element's
normal form, then its local), `FillingData.project_rows` maps the ids
through one image per distinct syllable and reduces all rows in the
quotient in one sweep over the columns, and the reduced rows are matched to
the target window's rows by sorted codes. The injectivity check sweeps the
rows of the word ball the same way, and the local-isometry check reads its
images from the vertex map.

The descent and lift checks work on batches of paths. `geodesics` walks all
of them back from their ends at once, each step keeping the smallest
neighbour one level closer to the start, and `lift_paths` lifts them in
lockstep, each step keeping the smallest source neighbour over the next
target vertex. Their random pairs are drawn in blocks, which give the same
numbers and generator state as one draw at a time (numpy's
`Generator.integers`, also with one high per draw). A skipped lift changes
the near/anywhere parity of the draws after it, so the lift check restores
the generator state and redraws the block up to the skip.
"""
from __future__ import annotations

import bisect
from typing import Iterable

import numpy as np

from .cusped import (
    PAIR_BLOCK,
    CuspedGraph,
    build_cusped_ball,
    geodesics,
    horo_flat,
    pair_word_costs,
)
from .delta import four_point_delta_sampled
from .errors import InvalidParameterError, WindowError
from .groups import FillingData, GroupElement, RelHypPair, ball_tree

DRAW_BLOCK = 8192  # most random pairs drawn, walked or lifted in one batch


class FillingGeometry:
    """Source and target cusped windows joined by the projection map."""

    def __init__(self, source: CuspedGraph, target: CuspedGraph,
                 filling: FillingData, vertex_map: np.ndarray):
        self.source = source
        self.target = target
        self.filling = filling
        self.vertex_map = vertex_map


def build_quotient_cusped(pair: RelHypPair, filling: FillingData,
                          radius: int) -> FillingGeometry:
    """Windows of the same radius on both sides plus the vertex map.

    The source window is built once for every filling of the pair: the
    pair's ``window`` slot keeps the last one, keyed by its radius alone.
    Another radius drops it and builds anew. The vertex map is
    :func:`_vertex_map`."""
    if filling.pair is not pair:
        raise InvalidParameterError("filling was built for a different pair")
    if pair.window is None or pair.window.meta["radius"] != radius:
        pair.window = None  # the old window is freed before the new is built
        pair.window = build_cusped_ball(pair, radius)
    source = pair.window
    target = build_cusped_ball(filling.quotient_pair, radius)
    return FillingGeometry(source, target, filling,
                           _vertex_map(source, target, filling))


def _vertex_map(source: CuspedGraph, target: CuspedGraph,
                filling: FillingData) -> np.ndarray:
    """Target index of the image of every source vertex, from the syllable
    arrays of both windows (:func:`build_cusped_ball`).

    Source vertex v is the row of its element with its local syllable
    appended; one :meth:`FillingData.project_rows` sweep reduces all rows.
    An interior image keeps a last syllable of its peripheral as its local
    and the rest as its coset, at the same depth. The coset rows are found
    among the target's depth-zero rows by one ``np.unique``, and the
    (coset, local, depth) codes among the target's by sorted search."""
    sm, tm = source.meta, target.meta
    sylls, tsylls = sm["syllables"], tm["syllables"]
    tpad = len(tsylls)
    qsylls, img = filling.project_rows(
        sylls, np.column_stack([sm["words"][sm["element"]], sm["local"]]))
    # image syllables as target ids, -1 for one no target vertex holds
    tid = {s: i for i, s in enumerate(tsylls)}
    img = np.array([tid.get(s, -1) for s in qsylls] + [tpad])[img]
    pid = np.array([f for f, _ in sylls] + [-1])[sm["local"]]  # -1: depth 0
    tpid = np.array([f for f, _ in tsylls] + [-1])
    one = np.array([tid[f, q.p_identity()] for f, q in
                    enumerate(filling.quotient_group.factors)] + [tpad])
    held = np.count_nonzero(img != tpad, axis=1)
    last = img[np.arange(len(img)), np.maximum(held - 1, 0)]
    keep = (pid >= 0) & (held > 0) & (tpid[last] == pid)
    local = np.where(keep, last, one[pid])
    img[keep, held[keep] - 1] = tpad
    words = tm["words"]
    n0, width = len(words), max(words.shape[1], img.shape[1])
    rows = np.full((n0 + len(img), width), tpad, dtype=np.int64)
    rows[:n0, :words.shape[1]] = words
    rows[n0:, :img.shape[1]] = img
    # a target row comes first, so the first of its kind is the target's
    _, first, inv = np.unique(rows.view(np.dtype((np.void, 8 * width))).ravel(),
                              return_index=True, return_inverse=True)
    coset = first[inv[n0:]]
    levels = int(max(source.depth.max(), target.depth.max())) + 1
    want = (coset * (tpad + 1) + local) * levels + source.depth
    have = (tm["element"].astype(np.int64) * (tpad + 1) + tm["local"]) \
        * levels + target.depth
    order = np.argsort(have)
    vmap = order[np.minimum(np.searchsorted(have, want, sorter=order),
                            len(order) - 1)]
    missing = (coset >= n0) | (have[vmap] != want)
    if missing.any():
        # cannot happen for exact balls: projection shrinks distances
        v = int(np.argmax(missing))
        raise WindowError(
            f"image of {source.vertices[v]!r} missing from target window")
    return vmap


def filling_map_report(fg: FillingGeometry) -> dict:
    """Surjectivity, depth/kind preservation, no vertical loops, and
    1-Lipschitz behavior on certified source pairs."""
    src, tgt = fg.source, fg.target
    vmap = fg.vertex_map
    surjective = np.bincount(vmap, minlength=tgt.n_vertices).all()
    depth_ok = bool((src.depth == tgt.depth[vmap]).all())
    # edge kinds as integer codes shared by both windows, 0 for no edge;
    # target kinds by key min * n + max, the last of parallel edges
    # winning; the key n * n, past every edge, has no edge
    ids = {"": 0}
    src_kind, tgt_kind = (np.array([ids.setdefault(k, len(ids))
                                    for k in w.edge_kind], dtype=np.int32)
                          for w in (src, tgt))
    n = tgt.n_vertices
    mu, mv = vmap[src.edges_u], vmap[src.edges_v]
    tkey = np.minimum(tgt.edges_u, tgt.edges_v) * n + np.maximum(tgt.edges_u,
                                                                 tgt.edges_v)
    keys, last = np.unique(np.append(tkey, n * n)[::-1], return_index=True)
    kinds = np.append(tgt_kind, 0)[::-1][last]
    q = np.minimum(mu, mv) * n + np.maximum(mu, mv)
    at = np.searchsorted(keys, q)
    collapsed = mu == mv
    vertical_loops = np.count_nonzero(
        collapsed & (src_kind == ids.get("vertical", -1)))
    kind_mismatches = np.count_nonzero(
        ~collapsed & ((keys[at] != q) | (kinds[at] != src_kind)))
    Ds, cert = src.certified_pairs_matrix()
    Dt = tgt.distance_matrix()
    # certified pairs per slice of at most PAIR_BLOCK pairs; each diagonal
    # pair is certified at stretch 0, so 0 is the maximum of none
    worst, step = 0, PAIR_BLOCK // src.n_vertices or 1
    for s in range(0, src.n_vertices, step):
        r = np.arange(s, min(s + step, src.n_vertices))
        stretch = Dt[vmap[r]][:, vmap] - Ds[r]
        worst = max(worst, int(stretch.max(where=cert.rows(r), initial=0)))
    lip_ok = worst <= 0
    return {
        "name": "filling-map",
        "surjective": bool(surjective),
        "depth_preserved": depth_ok,
        "collapsed_edges": int(np.count_nonzero(collapsed)),
        "vertical_loops": int(vertical_loops),
        "kind_mismatches": int(kind_mismatches),
        "lipschitz_on_certified": bool(lip_ok),
        "max_stretch": float(worst),
        "pass": bool(surjective and depth_ok and vertical_loops == 0
                     and kind_mismatches == 0 and lip_ok),
    }


def lift_paths(fg: FillingGeometry, paths: np.ndarray,
               bases: np.ndarray) -> np.ndarray:
    """Lockstep lifts of target paths, rows of vertices padded with -1 as
    :func:`geodesics` gives them, from source vertices ``bases`` that
    project to their starts.

    Each step keeps the smallest source neighbour whose image is the next
    target vertex (the windows sort their vertices by canonical form), so
    every lift projects back onto its path. A row with no such neighbour at
    some step is -1 from that step on, and a row whose base is -1 is -1."""
    lifts = np.full(paths.shape, -1, dtype=np.int64)
    lifts[:, 0] = bases
    act = np.flatnonzero(lifts[:, 0] >= 0)
    for t in range(1, paths.shape[1]):
        act = act[paths[act, t] >= 0]
        image = paths[act, t]
        step = fg.source.first_neighbours(
            lifts[act, t - 1], lambda p, w: fg.vertex_map[w] == image[p])
        act = act[step >= 0]
        lifts[act, t] = step[step >= 0]
    return lifts


def lift_roundtrip_report(fg: FillingGeometry, n_paths: int = 1000,
                          seed: int = 0) -> dict:
    """Round-trip and tightness of lifted target geodesics.

    For seeded target BFS geodesics: project(lift) must equal the path
    exactly, and the lift, having the same length, must realize the source
    BFS distance between its endpoints whenever that pair is certified
    (lifts of geodesics cannot be beaten: projection is 1-Lipschitz).

    Draw i picks (u, v): two near-centre vertices while the paths lifted so
    far are even in number, two arbitrary ones otherwise. A draw is skipped
    when u has no preimage or the lift gets stuck. Draws are taken in
    blocks with per-draw highs for the parity they would have without a
    skip, which gives the numbers of one draw at a time; at a skip the
    generator state is restored and the block redrawn up to the skipped
    draw, since later draws change parity. After ``20 * n_paths`` draws the
    check stops, and fails if fewer than ``n_paths`` paths were lifted.
    A block's geodesics come from :func:`geodesics` (each step back from v
    keeps the smallest neighbour one level closer to u) and its lifts from
    :func:`lift_paths` (each step keeps the smallest source neighbour over
    the next target vertex).
    """
    if n_paths < 1:
        raise InvalidParameterError(f"lift needs n_paths >= 1, got {n_paths}")
    src, tgt = fg.source, fg.target
    Ds, cert = src.certified_pairs_matrix()
    rng = np.random.default_rng(seed)
    # half the draws stay near the center, where endpoint pairs certify
    tdist0 = np.asarray(tgt.meta["dist_from_id"])
    near = np.flatnonzero(tdist0 <= max(1, tgt.meta["radius"] // 2))
    # the first source vertex over each target vertex, -1 if none
    preimage = np.full(tgt.n_vertices, -1, dtype=np.int64)
    over, first = np.unique(fg.vertex_map, return_index=True)
    preimage[over] = first
    roundtrip_failures = 0
    tightness_failures = []
    lifted = draws = tight_checked = no_preimage = 0
    block = n_paths
    while lifted < n_paths and draws < 20 * n_paths:
        block = min(block, n_paths - lifted, 20 * n_paths - draws, DRAW_BLOCK)
        state = rng.bit_generator.state
        even = (lifted + np.arange(block)) % 2 == 0
        high = np.repeat(np.where(even, len(near), tgt.n_vertices), 2)
        uv = rng.integers(0, high).reshape(block, 2)
        uv[even] = near[uv[even]]
        paths = geodesics(tgt, uv[:, 0], uv[:, 1])
        lifts = lift_paths(fg, paths, preimage[uv[:, 0]])
        length = np.count_nonzero(paths >= 0, axis=1) - 1
        a, b = lifts[:, 0], lifts[np.arange(block), length]
        if (b < 0).any():
            s = int(np.argmax(b < 0))
            no_preimage += int(a[s] >= 0)
            rng.bit_generator.state = state
            rng.integers(0, high[:2 * s + 2])
            paths, lifts, length, a, b = (x[:s] for x in (paths, lifts, length, a, b))
            block = s + 1
        draws += block
        lifted += len(paths)
        roundtrip_failures += int(np.count_nonzero(
            ((fg.vertex_map[lifts] != paths) & (paths >= 0)).any(axis=1)))
        tight_checked += int(np.count_nonzero(cert[a, b]))
        for t in np.flatnonzero(cert[a, b] & (Ds[a, b] != length)):
            tightness_failures.append({
                "start": src.labels[a[t]], "end": src.labels[b[t]],
                "lift_length": int(length[t]), "source_bfs": float(Ds[a[t], b[t]])})
        # draws past a skip are made again, so blocks grow from the last one
        block = max(32, 2 * block)
    return {
        "name": "lift-roundtrip",
        "paths": lifted,
        "roundtrip_failures": roundtrip_failures,
        "tightness_checked": tight_checked,
        "tightness_failures": tightness_failures[:10],
        "tightness_failure_count": len(tightness_failures),
        "no_preimage_skipped": no_preimage,
        "pass": (lifted == n_paths and roundtrip_failures == 0
                 and not tightness_failures),
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
    src, tgt = fg.source, fg.target
    dist0 = np.asarray(src.meta["dist_from_id"])
    depth0 = src.depth == 0
    idx = np.flatnonzero((dist0 <= r) & (depth0 | include_interior))
    image = fg.vertex_map[idx]
    keys = [src.vertices[i] for i in idx]
    images = [tgt.vertices[j] for j in image]
    # all depth-zero pairs from the syllable arrays; pairs with an interior
    # key from the exact metrics, in row-major order until 50 violations
    a, b = np.triu_indices(len(keys), k=1)
    flat = depth0[idx]
    at, both = np.cumsum(flat) - 1, flat[a] & flat[b]
    d = np.zeros((2, len(a)), dtype=np.int64)
    sides = ((src.meta["metric"], keys), (tgt.meta["metric"], images))
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
    violations = [{"u": src.labels[idx[a[t]]], "v": src.labels[idx[b[t]]],
                   "source": int(d[0, t]), "target": int(d[1, t])}
                  for t in bad[:10]]
    # image must be the full quotient ball of the same radius
    tdist0 = np.asarray(tgt.meta["dist_from_id"])
    target_ball = (tdist0 <= r) & ((tgt.depth == 0) | include_interior)
    hit = np.zeros(tgt.n_vertices, dtype=bool)
    hit[image] = True
    ball_image = bool((hit == target_ball).all())
    return {
        "name": "local-isometry",
        "r": r,
        "ball_size": len(keys),
        "pairs_checked": checked,
        "include_interior": include_interior,
        "violations": violations,
        "violation_count": len(bad),
        "image_is_ball": ball_image,
        "missing_from_image": int(np.count_nonzero(target_ball & ~hit)),
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

    At most ``20 * samples`` pairs (u, v) are drawn, in blocks of up to
    ``DRAW_BLOCK``, which give the numbers of one draw at a time; the
    certified ones are taken in draw order, as many per batch of geodesics
    as paths are still wanted. The geodesics are those of
    :func:`geodesics`, whose steps keep the smallest neighbour one level
    closer to u. Failures are listed in path order, then by sub-pair (i, j)
    row-major.
    """
    if samples < 1:
        raise InvalidParameterError(f"descent needs samples >= 1, got {samples}")
    src = fg.source
    _, cert_s = src.certified_pairs_matrix()
    Dt, cert_t = fg.target.certified_pairs_matrix()
    delta = four_point_delta_sampled(Dt, samples=50_000, seed=seed).delta
    rng = np.random.default_rng(seed)
    uv = np.empty((0, 2), dtype=np.int64)
    drawn = checked_paths = 0
    failures = []
    while checked_paths < samples and (len(uv) or drawn < 20 * samples):
        if not len(uv):
            k = min(DRAW_BLOCK, 20 * samples - drawn)
            uv, drawn = rng.integers(0, src.n_vertices, size=(k, 2)), drawn + k
            uv = uv[cert_s[uv[:, 0], uv[:, 1]]]
            continue
        take, uv = uv[:samples - checked_paths], uv[samples - checked_paths:]
        paths = geodesics(src, take[:, 0], take[:, 1])
        ok = np.where(paths >= 0, src.depth[paths], 0).max(axis=1) <= max_depth_used
        take, paths = take[ok], paths[ok]
        checked_paths += len(paths)
        tv = np.where(paths >= 0, fg.vertex_map[paths], -1)
        # steps[p, k]: non-collapsed steps among the first k of projection p
        steps = np.zeros(tv.shape, dtype=np.int64)
        np.cumsum(tv[:, 1:] != tv[:, :-1], axis=1, out=steps[:, 1:])
        i, j = np.triu_indices(tv.shape[1], k=1)
        gap, dist = steps[:, j] - steps[:, i], Dt[tv[:, i], tv[:, j]]
        far = (tv[:, j] >= 0) & cert_t[tv[:, i], tv[:, j]] & (
            gap > K * dist + 2 * delta + 1e-9)
        for p, t in zip(*np.nonzero(far)):
            failures.append({
                "start": src.labels[take[p, 0]], "end": src.labels[take[p, 1]],
                "sub": (int(i[t]), int(j[t])), "steps": int(gap[p, t]),
                "target_distance": float(dist[p, t])})
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


def check_uniform_delta(source: CuspedGraph,
                        filled: Iterable[tuple[int, CuspedGraph]],
                        slack: float = 2.0, samples: int = 100_000,
                        seed: int = 0) -> dict:
    """Window delta per filling index, against the unfilled window delta.

    ``source`` is the unfilled window; ``filled`` yields (index, window)
    pairs of filled windows of its radius, read one at a time, in order.

    Every delta here is the four-point delta over ``samples`` random
    quadruples of the window, a lower bound on the window's delta.  The test
    ``filled <= unfilled + slack`` therefore compares lower bounds, and a
    pass is not a certificate of uniform hyperbolicity.
    """
    radius = source.meta["radius"]
    base = four_point_delta_sampled(source.distance_matrix(),
                                    samples=samples, seed=seed).delta
    table = {}
    for n, window in filled:
        if window.meta["radius"] != radius:
            raise InvalidParameterError(f"window {n} is not of radius {radius}")
        table[n] = four_point_delta_sampled(window.distance_matrix(),
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
    tree = ball_tree(pair.group, radius)
    rows = filling.project_rows(tree.syllables, tree.rows)[1]
    _, first = np.unique(rows.view(np.dtype((np.void, 8 * rows.shape[1]))),
                         return_index=True)
    collisions = len(rows) - len(first)
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
        "ball_size": len(rows),
        "collisions": collisions,
        "group_injective": not collisions,
        "peripheral": per_reports,
        "pass": not collisions and all(p["injective"] for p in per_reports),
    }
