"""Reference implementations that only tests use: the per-key loops that
the array builders in ``rhfill.cusped`` replace, the dict breadth-first
search that ``rhfill.groups.ball_tree`` replaces, the one-angle-at-a-time
witness search with one SVD per margin, the per-element SVD limit clouds
that the closed 2x2 forms replace, the word-ball Cayley and coned-off windows, a standalone
horoball, small generic graphs, the one-path-at-a-time geodesic walk, lift,
path projection and filling checks that the batched ones in
``rhfill.cusped`` and ``rhfill.filling_geometry`` replace, the filling
projection as a product of projected syllables and the vertex map one
projected key at a time, the sorted RP^1 angles, the stretch from pair
lists, the cumulative-product word costs, the full-scan
RP^1 Hausdorff distance, the sine-of-every-gap dedup, the whole-level
free limit clouds, the row-block window deviation and the uncached
element fold, per-matrix SVD gaps, a rational classification of 2x2
matrices, a tracemalloc peak, and the plain forms of a few library routines (coned
lengths, the exact metric ball, RP^1 Hausdorff distances, constant
families). Tests compare
the library against these, so they favour plainness over speed.
"""
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np

from rhfill.convergence import RepFamily, _gram
from rhfill.cusped import (
    CuspedGraph,
    ExactCuspedMetric,
    GraphPath,
    depth0_key,
    dip_reach,
    flat_reach,
    horo_flat,
    horo_key,
    horo_pair,
)
from rhfill.delta import HyperbolicityEstimate, four_point_delta_sampled
from rhfill.filling_geometry import FillingGeometry
from rhfill.flags import _dedup_sorted, _hausdorff_sorted, _unit_det
from rhfill.groups import (
    FillingData,
    FreeAbelianOracle,
    FreeProductOracle,
    GroupElement,
    GroupOracle,
    RelHypPair,
    enumerate_ball,
    format_word,
    intern_syllables,
    sort_columns,
)
from rhfill.errors import DisconnectedError, UnsupportedKindError


def key_base_element(pair: RelHypPair, key) -> GroupElement:
    """Underlying group element (the base point under a horoball vertex)."""
    if key[0] == "c":
        return GroupElement(key[1])
    _, pid, cw, local, _k = key
    return pair.group.multiply(GroupElement(cw), pair.peripherals[pid].embed(local))


def project_vertex_key(filling: FillingData, key):
    """Image of a source window vertex key under the filling projection,
    one group projection per key."""
    if key[0] == "c":
        return depth0_key(filling.project(GroupElement(key[1])))
    _, pid, cw, local, k = key
    img = filling.project(key_base_element(filling.pair, key))
    qper = filling.quotient_pair.peripherals[pid]
    return horo_key(pid, qper.coset_key(img), qper.local(img), k)


def reference_vertex_map(fg: FillingGeometry) -> np.ndarray:
    """The vertex map one key at a time: each source key projected and
    looked up among the target's keys."""
    return np.array([fg.target.index[project_vertex_key(fg.filling, key)]
                     for key in fg.source.vertices], dtype=np.int64)


def reference_ball_tree(oracle: GroupOracle, radius: int):
    """The word ball as ``ball_tree`` orders it, from a breadth-first search
    over a dict of elements: (elements, parent, step, level), where each
    element keeps the parent and generator step that first reached it."""
    gens = oracle.generators()
    # element -> (level, parent element, generator step)
    seen = {oracle.identity(): (0, None, -1)}
    frontier = [oracle.identity()]
    for layer in range(1, radius + 1):
        nxt = []
        for g in frontier:
            for j, s in enumerate(gens):
                h = oracle.multiply(g, s)
                if h not in seen:
                    seen[h] = (layer, g, j)
                    nxt.append(h)
        frontier = nxt
    elems = list(seen)
    if isinstance(oracle, FreeProductOracle):
        factors, words = oracle.factors, [g.word for g in elems]
    else:  # an abelian oracle's payload is its only syllable
        factors, words = [oracle], [((0, g.word),) for g in elems]
    cols = sort_columns(factors, *intern_syllables(words))
    out = [elems[i] for i in np.lexsort(cols.T[::-1])]
    index = {g: i for i, g in enumerate(out)}
    level, parent, step = zip(*(seen[g] for g in out))
    return (out, np.array([index.get(p, -1) for p in parent]), np.array(step),
            np.array(level))


def unit_vector(angle: float) -> np.ndarray:
    """The unit vector (cos angle, sin angle) spanning the line at angle."""
    return np.array([math.cos(angle), math.sin(angle)])


def svd_margin(s: float, t: float) -> float:
    """Transversality margin of the lines at angles s and t: the smaller
    singular value of the 2x2 matrix [v | w] of their unit vectors."""
    stacked = np.column_stack([unit_vector(s), unit_vector(t)])
    return float(np.linalg.svd(stacked, compute_uv=False)[-1])


def reference_search_witness(balls) -> float:
    """The first of 720 grid angles whose line has the largest least
    transversality margin over the ball centres, less their radii, one
    SVD of [v | w] at a time."""
    best, best_score = None, -math.inf
    for t in np.linspace(0.0, math.pi, 720, endpoint=False):
        score = min(svd_margin(float(t), float(b.center)) - b.radius
                    for b in balls)
        if score > best_score:
            best, best_score = float(t), score
    return best


def box_candidates(factor, a, b):
    """Payloads 'between' a and b, where both scans below take their
    optimum; finite factors are enumerated outright."""
    if isinstance(factor, FreeAbelianOracle):
        return list(itertools.product(*(range(min(x, y), max(x, y) + 1)
                                        for x, y in zip(a, b))))
    if factor.p_order() is None:
        raise UnsupportedKindError(f"no exact distances on {factor.kind}")
    return factor.p_within(factor.p_order())


def reference_approach(pair: RelHypPair, pid: int, t, k: int) -> int:
    """min over entries r of horo_flat(|r|) + horoball((r,0) -> (t,k))."""
    factor = pair.peripherals[pid].factor
    return min(horo_flat(factor.p_length(r))
               + horo_pair(factor.p_length(factor.p_add(t, factor.p_neg(r))), 0, k)
               for r in box_candidates(factor, factor.p_identity(), t))


def reference_dist(metric: ExactCuspedMetric, u, v) -> int:
    """Cusped distance by scanning every entry and exit point of the
    horoballs of u and v."""
    pair, G = metric.pair, metric.G

    def from_elem(g, v):
        if v[0] == "c":
            return metric.elem_dist(g, GroupElement(v[1]))
        _, pid, cw, y, k = v
        factor = pair.peripherals[pid].factor
        w = G.multiply(G.inverse(g), GroupElement(cw))
        if w.word and w.word[-1][0] == pid:
            return (metric.elem_cost(GroupElement(w.word[:-1]))
                    + reference_approach(pair, pid, factor.p_add(w.word[-1][1], y), k))
        return metric.elem_cost(w) + reference_approach(pair, pid, y, k)

    if u[0] == "c":
        return from_elem(GroupElement(u[1]), v)
    if v[0] == "c":
        return from_elem(GroupElement(v[1]), u)
    _, pid_u, cw_u, x, k = u
    v2 = metric.translate_key(G.inverse(GroupElement(cw_u)), v)
    _, pid_v, cw_v, y, l = v2
    per_u = pair.peripherals[pid_u]
    if pid_v == pid_u and cw_v == ():
        return horo_pair(per_u.d_local(x, y), k, l)
    s1 = cw_v[0][1] if cw_v and cw_v[0][0] == pid_u else per_u.factor.p_identity()
    return min(horo_pair(per_u.d_local(x, p), k, 0)
               + from_elem(per_u.embed(p), v2)
               for p in box_candidates(per_u.factor, x, s1))


def reference_ball(pair: RelHypPair, radius: int,
                   max_depth: int | None = None) -> dict:
    """{key: d_X(id, key)} by recursion over syllables, then interior keys
    per coset from :func:`reference_approach`, in that insertion order."""
    if max_depth is None:
        max_depth = radius
    G, pers = pair.group, pair.peripherals
    out: dict = {}
    elems = []

    def flat_table(fi, budget):
        factor = pers[fi].factor
        return [(p, horo_flat(factor.p_length(p)))
                for p in factor.p_within(flat_reach(max(budget, 0)))
                if p != factor.p_identity()
                and horo_flat(factor.p_length(p)) <= budget]

    def rec(g, cost, last_fi):
        elems.append((g, cost))
        out[depth0_key(g)] = cost
        for fi in range(len(pers)):
            if fi != last_fi:
                for p, c in flat_table(fi, radius - cost):
                    rec(G.multiply(g, pers[fi].embed(p)), cost + c, fi)

    def interior_table(pid, k, budget):
        if (pid, k, budget) not in tables:
            span = flat_reach(budget) + max(0, dip_reach(budget, k))
            tables[pid, k, budget] = [
                (y, c) for y in pers[pid].factor.p_within(span)
                if (c := reference_approach(pair, pid, y, k)) <= budget]
        return tables[pid, k, budget]

    rec(G.identity(), 0, None)
    tables: dict = {}
    for g, cost in elems:
        for pid in range(len(pers)):
            if g.word and g.word[-1][0] == pid:
                continue
            rem = radius - cost
            for k in range(1, min(rem, max_depth) + 1):
                for y, c in interior_table(pid, k, rem):
                    out[horo_key(pid, g, y, k)] = cost + c
    return out


def _coset_label(pair, pid, coset: GroupElement) -> str:
    return f"{pid}:{format_word(pair.group, coset)}"


def _cayley_edges(pair: RelHypPair, vertices, index: dict):
    """Generator edges (i, j) with i < j, from (vertex id, element) pairs to
    the depth-zero vertices that ``index`` maps to ids."""
    genset = pair.group.generators()
    for i, g in vertices:
        for s in genset:
            j = index.get(depth0_key(pair.group.multiply(g, s)))
            if j is not None and j > i:
                yield i, j


def reference_build_cusped_ball(pair: RelHypPair, radius: int,
                                max_depth: int | None = None) -> CuspedGraph:
    """The exact cusped ball sorted by a per-key order key, labelled by
    ``format_word`` and linked by group products and local distances."""
    ball = reference_ball(pair, radius, max_depth)
    md = radius if max_depth is None else max_depth

    def order_key(key):
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
    depth = [0 if k[0] == "c" else k[4] for k in keys]
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
    meta = {"radius": radius, "max_depth": md, "dist_from_id": dist0}
    return CuspedGraph(keys, depth, labels, coset_labels,
                       eu, ev, ek, pair, meta)


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
    return CuspedGraph(keys, [0] * len(keys), labels,
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
    return CuspedGraph(keys, depth, labels, coset_labels,
                       eu, ev, ek, pair, meta)


def _horoball_members(window: CuspedGraph) -> dict:
    """Vertex indices of each horoball in the window, keyed by coset label.

    A horoball consists of the interior vertices over one peripheral coset
    together with the depth-zero points of that coset.
    """
    pair = window.pair
    members: dict[str, list[int]] = {}
    for i, key in enumerate(window.vertices):
        if key[0] == "h":
            members.setdefault(window.coset_labels[i], []).append(i)
    for i in np.flatnonzero(window.depth == 0):
        g = GroupElement(window.vertices[i][1])
        for pid, per in enumerate(pair.peripherals):
            members.setdefault(_coset_label(pair, pid, per.coset_key(g)),
                               []).append(int(i))
    return {k: np.array(sorted(v)) for k, v in members.items()}


def exact_ball(metric: ExactCuspedMetric, radius: int,
               max_depth: int | None = None) -> dict:
    """Exact cusped ball around the identity as {vertex key: d_X(id, key)},
    in the row order of the window builder."""
    b = metric._ball_rows(radius, radius if max_depth is None else max_depth,
                          2_000_000)
    return dict(zip(b.keys, b.cost.tolist()))


def coned_length(pair: RelHypPair, g: GroupElement) -> int:
    """Exact coned-off length: each syllable costs min(word length, 2)."""
    return sum(min(pair.peripherals[fi].factor.p_length(p), 2)
               for fi, p in g.word)


def coned_distance(pair: RelHypPair, g: GroupElement, h: GroupElement) -> int:
    return coned_length(pair, pair.group.multiply(pair.group.inverse(g), h))


def integer_interval_metric(radius: int) -> tuple[np.ndarray, list[str]]:
    """Base metric for the window |u| <= radius of the Cayley graph of Z."""
    coords = np.arange(-radius, radius + 1)
    return np.abs(coords[:, None] - coords[None, :]), [str(c) for c in coords]


def build_horoball(base_metric: np.ndarray, max_depth: int,
                   base_labels: list[str]) -> CuspedGraph:
    """Combinatorial horoball over a finite base metric space: vertices
    ("b", i, k) at index k * n + i; horizontal edges at level k join base
    points at distance 0 < d <= 2^k, vertical edges consecutive levels."""
    D = np.asarray(base_metric)
    n = len(D)
    keys = [("b", i, k) for k in range(max_depth + 1) for i in range(n)]
    eu, ev, ek = [], [], []
    iu, iv = np.triu_indices(n, k=1)
    for k in range(max_depth + 1):
        sel = (D[iu, iv] > 0) & (D[iu, iv] <= 1 << k)
        eu += (iu[sel] + k * n).tolist()
        ev += (iv[sel] + k * n).tolist()
        ek += ["horizontal"] * int(sel.sum())
    for k in range(max_depth):
        eu += range(k * n, (k + 1) * n)
        ev += range((k + 1) * n, (k + 2) * n)
        ek += ["vertical"] * n
    return CuspedGraph(keys, [k for _, _, k in keys],
                       [base_labels[i] for _, i, _ in keys], ["-"] * len(keys),
                       eu, ev, ek)


def generic_graph(n: int, edges: list[tuple[int, int]]) -> CuspedGraph:
    return CuspedGraph([("v", i) for i in range(n)], [0] * n,
                       [str(i) for i in range(n)], ["-"] * n,
                       [e[0] for e in edges], [e[1] for e in edges],
                       ["cayley"] * len(edges))


def cycle_graph(n: int) -> CuspedGraph:
    return generic_graph(n, [(i, (i + 1) % n) for i in range(n)])


def reference_hausdorff_sorted(xs: np.ndarray, ys: np.ndarray) -> float:
    """``flags._hausdorff_sorted`` without the pruning: every x is looked up
    among the padded y, and its distance to the nearer neighbour taken."""
    sups = []
    for x, y in ((xs, ys), (ys, xs)):
        pad = np.concatenate((y[-1:] - math.pi, y, y[:1] + math.pi))
        pos = np.searchsorted(pad, x)
        sups.append(float(np.max(np.minimum(x - pad[pos - 1], pad[pos] - x))))
    return math.sin(max(sups))


def reference_dedup_sorted(a: np.ndarray, resolution: float) -> np.ndarray:
    """``flags._dedup_sorted`` with the sine of every gap taken."""
    if a.size <= 1:
        return a
    d = np.diff(a)
    keep = np.concatenate(([True], np.sin(np.minimum(d, math.pi - d)) >= resolution))
    out = a[keep]
    if out.size > 1:
        wrap = math.pi - (out[-1] - out[0])
        if math.sin(min(wrap, math.pi - wrap)) < resolution:
            out = out[:-1]
    return out


def reference_free2_angles(letters: np.ndarray, depth: int, threshold: float
                           ) -> tuple[np.ndarray, int, int]:
    """``flags._free2_angles`` one whole level at a time: each level is
    stored in full, formed by two flat dgemm products per letter over the
    level before, and its closed forms are plain expressions over it."""
    k = letters.shape[0]
    parts, seen, prods = [], 1, letters.copy()
    for level in range(1, depth + 1):
        if level > 1:
            n, m = len(prods), len(prods) // k
            nxt, pos = np.empty(((k - 1) * n, 2, 2)), 0
            for j in range(k):
                for lo, hi in ((0, (j ^ 1) * m), ((j ^ 1) * m + m, n)):
                    np.matmul(prods[lo:hi].reshape(-1, 2), letters[j],
                              out=nxt[pos:pos + hi - lo].reshape(-1, 2))
                    pos += hi - lo
            prods = nxt
        a, b = prods[:, 0, 0], prods[:, 0, 1]
        c, d = prods[:, 1, 0], prods[:, 1, 1]
        top, mid, bot = a * a + b * b, a * c + b * d, c * c + d * d
        det = np.abs(a * d - b * c)
        lam = (top + bot) / 2 + np.sqrt((top - bot) * (top - bot) / 4 + mid * mid)
        good = lam / det > threshold
        theta = np.arctan2(2 * mid[good], (top - bot)[good]) * 0.5
        parts.append(theta + np.where(theta < 0, math.pi, 0.0))
        seen += len(prods)
    angles = np.concatenate(parts) if parts else np.empty(0)
    angles[angles == math.pi] = 0.0
    angles.sort()
    return angles, seen, seen - len(angles)


def reference_sup_min(sup_side: np.ndarray, inf_side: np.ndarray,
                      radius: float) -> dict:
    """``convergence._sup_min`` in row blocks of 2,048 windowed rows, each
    against the whole other set in one gram product."""
    windowed = sup_side[np.linalg.norm(sup_side, axis=1) <= radius]
    if len(windowed) == 0 or len(inf_side) == 0:
        return {"distance": 0.0, "points": int(len(windowed))}
    nx = (windowed * windowed).sum(axis=1)
    ny = (inf_side * inf_side).sum(axis=1)
    worst = 0.0
    for i in range(0, len(windowed), 2048):
        gram = np.abs(_gram(windowed[i:i + 2048], inf_side))
        d2 = nx[i:i + 2048, None] + ny[None, :] - 2.0 * gram
        worst = max(worst, float(np.sqrt(np.maximum(d2.min(axis=1), 0.0)).max()))
    return {"distance": worst, "points": int(len(windowed))}


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while fn() runs."""
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def reference_element_matrix(mats, oracle, g: GroupElement) -> np.ndarray:
    """``automata._element_matrix`` folded from the identity, uncached."""
    m = np.eye(next(iter(mats.values())).shape[0])
    for name, e in oracle.syllables(g):
        m = m @ np.linalg.matrix_power(mats[name], e)
        m = m / np.linalg.norm(m)
    return m


def sorted_rp1(angles) -> np.ndarray:
    """Line angles reduced mod pi into [0, pi) and sorted."""
    a = np.mod(np.asarray(angles, dtype=float).ravel(), math.pi)
    a[a == math.pi] = 0.0      # a tiny negative angle rounds up to pi
    return np.sort(a)


def hausdorff_rp1(a, b) -> float:
    """Hausdorff distance between two nonempty sets of lines in RP^1, given
    as angles (radians, any reals), in the metric |sin(s - t)|."""
    return _hausdorff_sorted(sorted_rp1(a), sorted_rp1(b))


def svd_gaps(seq) -> list[float]:
    """sigma_1/sigma_2 of each 2x2 matrix of a sequence, one SVD each."""
    return [float(s[0] / s[1]) for s in
            (np.linalg.svd(np.asarray(m, float), compute_uv=False) for m in seq)]


def reference_classify(m) -> str:
    """The kind of an invertible 2x2 matrix in PGL(2, R) from its
    eigenvalues, in rationals: complex (elliptic), one repeated
    (parabolic, or identity when the matrix is scalar), or real; real ones
    of equal modulus (t = 0 with det < 0) give an involution (elliptic),
    of distinct moduli a loxodromic."""
    (a, b), (c, d) = ((Fraction(float(x)) for x in row) for row in m)
    t, det = a + d, a * d - b * c
    disc = t * t - 4 * det               # of the characteristic polynomial
    if disc < 0:
        return "elliptic"
    if disc == 0:
        return "identity" if (b, c, a - d) == (0, 0, 0) else "parabolic"
    return "elliptic" if t == 0 else "loxodromic"


def svd_line_angle(m: np.ndarray, threshold: float) -> float | None:
    """Angle in [0, pi) of the top left-singular direction of a 2x2 matrix,
    or None when sigma_1/sigma_2 does not exceed the threshold."""
    u, s, _ = np.linalg.svd(m)
    if not s[0] / s[1] > threshold:
        return None
    return float(np.mod(math.atan2(u[1, 0], u[0, 0]), math.pi))


def reference_svd_cloud(rep: dict, oracle: GroupOracle, depth: int,
                        threshold: float, resolution: float):
    """A limit cloud one ball element at a time: the product of syllable
    powers, rescaled to unit |det|, and one SVD per element.  Returns the
    deduplicated sorted angles, the words seen and the gap rejections."""
    raw, ball = [], enumerate_ball(oracle, depth)
    for g in ball:
        m = np.eye(2)
        for name, power in oracle.syllables(g):
            m = m @ np.linalg.matrix_power(np.asarray(rep[name], float), power)
        angle = svd_line_angle(_unit_det(m), threshold)
        if angle is not None:
            raw.append(angle)
    return (_dedup_sorted(sorted_rp1(raw), resolution), len(ball),
            len(ball) - len(raw))


def constant_family(pair: RelHypPair, rep: dict,
                    ns: tuple[int, ...]) -> RepFamily:
    """Every member equals the base; all comparisons must come out zero."""
    return RepFamily(pair, rep, {n: rep for n in ns})


# ---------------------------------------------------------------------------
# geodesics, lifts and the filling checks one path at a time


def neighbours(graph: CuspedGraph, i: int) -> np.ndarray:
    """The sorted distinct neighbours of vertex i, from the edge lists."""
    u, v = graph.edges_u, graph.edges_v
    return np.unique(np.concatenate([v[u == i], u[v == i]]))


def reference_shortest_path(graph: CuspedGraph, u: int, v: int) -> list[int]:
    """BFS geodesic from u to v: from v, step to the smallest neighbour one
    level closer to u until u is reached."""
    dist = graph.bfs_distances(u)
    if dist[v] < 0:
        raise DisconnectedError(f"vertices {u} and {v} not connected in window")
    path = [v]
    while path[-1] != u:
        nbrs = neighbours(graph, path[-1])
        path.append(int(nbrs[dist[nbrs] == dist[path[-1]] - 1].min()))
    return path[::-1]


def project_path(fg: FillingGeometry, path: GraphPath) -> GraphPath:
    """Image path in the target window, with collapsed edges removed."""
    out = []
    for i in path.vertices:
        j = int(fg.vertex_map[i])
        if not out or out[-1] != j:
            out.append(j)
    return GraphPath(fg.target, out)


class NoPreimageEdge(Exception):
    """A reference lift reached a target edge with no preimage edge."""


def reference_lift_path(fg: FillingGeometry, path: list[int],
                        start: int) -> list[int]:
    """Edge-by-edge lift from ``start``: the smallest source neighbour over
    the next target vertex each time."""
    out = [start]
    for tnext in path[1:]:
        candidates = [int(u) for u in neighbours(fg.source, out[-1])
                      if int(fg.vertex_map[u]) == tnext]
        if not candidates:
            raise NoPreimageEdge(f"no preimage edge toward {tnext}")
        out.append(min(candidates))
    return out


def reference_descent(fg: FillingGeometry, K: float, max_depth_used: int,
                      samples: int, seed: int) -> dict:
    """Descent check drawing one pair and walking one geodesic at a time."""
    _, cert_s = fg.source.certified_pairs_matrix()
    Dt, cert_t = fg.target.certified_pairs_matrix()
    delta = four_point_delta_sampled(Dt, samples=50_000, seed=seed).delta
    rng = np.random.default_rng(seed)
    n = fg.source.n_vertices
    paths, attempts, failures = 0, 0, []
    while paths < samples and attempts < samples * 20:
        attempts += 1
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if not cert_s[u, v]:
            continue
        spath = reference_shortest_path(fg.source, u, v)
        if max(int(fg.source.depth[i]) for i in spath) > max_depth_used:
            continue
        paths += 1
        tv = [int(fg.vertex_map[i]) for i in spath]
        for i in range(len(tv)):
            for j in range(i + 1, len(tv)):
                steps = sum(tv[t] != tv[t + 1] for t in range(i, j))
                if cert_t[tv[i], tv[j]] and \
                        steps > K * Dt[tv[i], tv[j]] + 2 * delta + 1e-9:
                    failures.append({
                        "start": fg.source.labels[u],
                        "end": fg.source.labels[v], "sub": (i, j),
                        "steps": steps,
                        "target_distance": float(Dt[tv[i], tv[j]])})
    return {"name": "descent-quasigeodesic", "K": K, "delta": delta,
            "max_depth_used": max_depth_used, "paths_checked": paths,
            "failures": failures[:10], "failure_count": len(failures),
            "pass": not failures}


def reference_lift_roundtrip(fg: FillingGeometry, n_paths: int,
                             seed: int) -> dict:
    """Lift check drawing one pair and lifting one geodesic at a time, for
    at most 20 * n_paths draws."""
    src, tgt = fg.source, fg.target
    Ds, cert = src.certified_pairs_matrix()
    rng = np.random.default_rng(seed)
    n = tgt.n_vertices
    tdist0 = np.asarray(tgt.meta["dist_from_id"])
    near = np.flatnonzero(tdist0 <= max(1, tgt.meta["radius"] // 2))
    preimages: dict[int, int] = {}
    for i, j in enumerate(fg.vertex_map):
        preimages.setdefault(int(j), i)
    lifted = draws = roundtrip = checked = skipped = 0
    failures = []
    while lifted < n_paths and draws < 20 * n_paths:
        draws += 1
        if lifted % 2 == 0:
            u = int(near[rng.integers(0, len(near))])
            v = int(near[rng.integers(0, len(near))])
        else:
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        tpath = reference_shortest_path(tgt, u, v)
        if u not in preimages:
            continue
        try:
            lift = reference_lift_path(fg, tpath, preimages[u])
        except NoPreimageEdge:
            skipped += 1
            continue
        lifted += 1
        back = [int(fg.vertex_map[i]) for i in lift]
        back = [x for t, x in enumerate(back) if t == 0 or back[t - 1] != x]
        roundtrip += back != tpath
        a, b = lift[0], lift[-1]
        if cert[a, b]:
            checked += 1
            if Ds[a, b] != len(lift) - 1:
                failures.append({
                    "start": src.labels[a], "end": src.labels[b],
                    "lift_length": len(lift) - 1, "source_bfs": float(Ds[a, b])})
    return {"name": "lift-roundtrip", "paths": lifted,
            "roundtrip_failures": roundtrip, "tightness_checked": checked,
            "tightness_failures": failures[:10],
            "tightness_failure_count": len(failures),
            "no_preimage_skipped": skipped,
            "pass": lifted == n_paths and roundtrip == 0 and not failures}


def reference_map_edges(fg: FillingGeometry) -> dict:
    """Surjectivity and the edge counts of the filling map, one source edge
    at a time against a dict of target edge kinds (of parallel edges the
    last one's)."""
    kind_of = {(min(u, v), max(u, v)): k for u, v, k in zip(
        fg.target.edges_u.tolist(), fg.target.edges_v.tolist(),
        fg.target.edge_kind)}
    collapsed = loops = mismatches = 0
    for u, v, kind in zip(fg.source.edges_u, fg.source.edges_v,
                          fg.source.edge_kind):
        mu, mv = int(fg.vertex_map[u]), int(fg.vertex_map[v])
        if mu == mv:
            collapsed += 1
            loops += kind == "vertical"
        elif kind_of.get((min(mu, mv), max(mu, mv))) != kind:
            mismatches += 1
    return {"surjective": len(set(fg.vertex_map.tolist())) == fg.target.n_vertices,
            "collapsed_edges": collapsed, "vertical_loops": loops,
            "kind_mismatches": mismatches}


def reference_project(filling: FillingData, g: GroupElement) -> GroupElement:
    """The image of g as the product of its projected syllables."""
    return filling.quotient_group.from_syllables(
        (fi, filling.project_local(fi, p)) for fi, p in g.word)


def reference_max_stretch(fg: FillingGeometry) -> float:
    """Largest Dt[vmap[a], vmap[b]] - Ds[a, b] over the certified source
    pairs (a, b), from their index lists; 0 if there are none."""
    Ds, cert = fg.source.certified_pairs_matrix()
    Dt, vmap = fg.target.distance_matrix(), fg.vertex_map
    stretch = [int((Dt[vmap[a], vmap[b]] - Ds[a, b]).max())
               for a, b in cert.pairs(np.arange(fg.source.n_vertices))
               if len(a)]
    return float(max(stretch, default=0))


def reference_pair_word_costs(group: FreeProductOracle, elems, i, j,
                              cost) -> np.ndarray:
    """``pair_word_costs`` with the common-prefix length as the sum of the
    cumulative product of the column matches."""
    sylls, A = intern_syllables([g.word for g in elems])
    each = np.array([cost(group.factors[f].p_length(p)) for f, p in sylls] + [0])
    merge = np.add.outer(each, each)
    for a, (f, p) in enumerate(sylls):
        fac = group.factors[f]
        for b, (g, q) in enumerate(sylls):
            if g == f:
                merge[a, b] = cost(fac.p_length(fac.p_add(fac.p_neg(p), q)))
    tails = np.cumsum(each[A][:, ::-1], axis=1)[:, ::-1] - each[A]
    c = (A[i, :-1] == A[j, :-1]).cumprod(axis=1).sum(axis=1)
    return tails[i, c] + tails[j, c] + merge[A[i, c], A[j, c]]


def reference_thin_triangles(graph: CuspedGraph, triangles: int,
                             seed: int) -> HyperbolicityEstimate:
    """Slimness of sampled geodesic triangles, one triangle at a time."""
    D = graph.distance_matrix()
    rng = np.random.default_rng(seed)
    best, wit = -1.0, (0, 0, 0)
    for _ in range(triangles):
        x, y, z = (int(v) for v in rng.integers(0, graph.n_vertices, 3))
        sides = [reference_shortest_path(graph, a, b)
                 for a, b in ((x, y), (y, z), (z, x))]
        slim = 0.0
        for t in range(3):
            others = sides[(t + 1) % 3] + sides[(t + 2) % 3]
            slim = max(slim, float(D[np.ix_(sides[t], others)].min(axis=1).max()))
        if slim > best:
            best, wit = slim, (x, y, z)
    return HyperbolicityEstimate(best, "thin-triangles", triangles, wit, False)
