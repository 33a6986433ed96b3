"""Path automata over a relatively hyperbolic pair, and the projective
set systems they steer.

An ``AutomatonGraph`` is a finite directed graph whose vertices carry
transition sets, each either a single group element or a peripheral coset
minus a finite exclusion list.  Paths through the graph spell products
``alpha_1 ... alpha_n``; ``check_compatibility`` certifies that a linear
representation pushes a chosen union-of-balls set system into itself along
every edge, which is what makes those products contract.

Set systems live on the projective line, where a metric ball is a
circular arc and the image of an arc under an invertible 2x2 matrix is
again an arc.  Containment is decided exactly from the endpoint images
(plus a midpoint to pick the correct side), and the diameter of a union of
image arcs from its endpoints plus an exact quarter-turn test.  Higher-rank
examples, such as the paper's convex projective ones, need a certified
containment method for balls in flag space; this module has none and
refuses d != 2.
"""
from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceededError, InvalidParameterError, SchemaError
from .flags import _projective, generator_images
from .groups import GroupElement, RelHypPair, _json_int, format_word, parse_word
from .tolerances import DEFAULT_TOLS

# ---------------------------------------------------------------------------
# transition labels and the automaton graph


@dataclass(frozen=True)
class SingletonLabel:
    """Transition set with exactly one element."""

    element: GroupElement


@dataclass(frozen=True)
class CosetLabel:
    """Transition set g*P minus a finite exclusion list.

    Every excluded element must itself lie in the coset g*P; anything else
    is rejected when the automaton is built.
    """

    g: GroupElement
    peripheral: int
    excluded: tuple[GroupElement, ...] = ()


class AutomatonGraph:
    """Finite directed graph with one transition set per vertex.

    Vertices are the integers ``0 .. n-1`` in the order the labels are
    given.  A vertex is parabolic when its label is a coset.  Labels are
    validated on construction; structural properties of the graph itself
    are the business of :func:`validate_automaton`.
    """

    def __init__(self, pair: RelHypPair, labels, edges):
        self.pair = pair
        self.labels = list(labels)
        n = len(self.labels)
        for vid, lab in enumerate(self.labels):
            if isinstance(lab, CosetLabel):
                if not 0 <= lab.peripheral < len(pair.peripherals):
                    raise InvalidParameterError(
                        f"vertex {vid}: no peripheral with id {lab.peripheral}")
                per = pair.peripherals[lab.peripheral]
                ginv = pair.group.inverse(lab.g)
                for f in lab.excluded:
                    if not per.membership(pair.group.multiply(ginv, f)):
                        raise InvalidParameterError(
                            f"vertex {vid}: excluded element "
                            f"{format_word(pair.group, f)!r} is outside the "
                            f"coset it is excluded from")
            elif not isinstance(lab, SingletonLabel):
                raise InvalidParameterError(
                    f"vertex {vid}: label must be a singleton or a coset")
        self.edges: list[tuple[int, int]] = []
        seen = set()
        for e in edges:
            u, v = int(e[0]), int(e[1])
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParameterError(
                    f"edge ({u}, {v}) leaves the vertex range 0..{n - 1}")
            if (u, v) in seen:
                raise InvalidParameterError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            self.edges.append((u, v))
        self.out: dict[int, list[int]] = {v: [] for v in range(n)}
        for u, v in self.edges:
            self.out[u].append(v)

    @property
    def n(self) -> int:
        return len(self.labels)

    def is_parabolic(self, v: int) -> bool:
        return isinstance(self.labels[v], CosetLabel)

    def label_elements(self, v: int, cutoff: int) -> tuple[list[GroupElement], bool]:
        """Transition set at v up to peripheral word length ``cutoff``.

        Returns (elements, truncated) in a canonical deterministic order;
        ``truncated`` is True when the cutoff did not exhaust the coset.
        """
        if cutoff < 0:
            raise InvalidParameterError("label cutoff must be >= 0")
        lab = self.labels[v]
        if isinstance(lab, SingletonLabel):
            return [lab.element], False
        per = self.pair.peripherals[lab.peripheral]
        locs = per.factor.p_within(cutoff)
        order = per.factor.p_order()
        truncated = order is None or len(locs) < order
        excl = set(lab.excluded)
        mul = self.pair.group.multiply
        out = []
        for p in locs:
            el = mul(lab.g, per.embed(p))
            if el not in excl:
                out.append(el)
        return out, truncated


def validate_automaton(auto: AutomatonGraph, pair: RelHypPair) -> dict:
    """Structural report on an automaton over its pair.

    Two properties are checked, each with witnesses on failure:

    - G3: every vertex has at least one outgoing edge, so paths never
      strand.
    - G4: every peripheral of the pair is represented by some parabolic
      vertex, and parabolic vertices sharing a peripheral share their
      outgoing edge set.
    """
    if pair is not auto.pair:
        raise InvalidParameterError("automaton was built over a different pair")
    no_out = [v for v in range(auto.n) if not auto.out[v]]
    covered: dict[int, list[int]] = {}
    for v in range(auto.n):
        if auto.is_parabolic(v):
            covered.setdefault(auto.labels[v].peripheral, []).append(v)
    missing = sorted(set(range(len(pair.peripherals))) - set(covered))
    sharing = []
    for pid, verts in sorted(covered.items()):
        outs = {v: frozenset(auto.out[v]) for v in verts}
        if len(set(outs.values())) > 1:
            sharing.append({"peripheral": pid, "vertices": verts,
                            "out_sets": {str(v): sorted(s) for v, s in outs.items()}})
    g3 = {"verdict": "pass" if not no_out else "fail", "witnesses": no_out}
    g4_ok = not missing and not sharing
    g4 = {"verdict": "pass" if g4_ok else "fail",
          "missing_peripherals": missing,
          "edge_sharing_violations": sharing}
    return {
        "name": "automaton-structure",
        "vertices": auto.n,
        "edges": len(auto.edges),
        "properties": {"G3": g3, "G4": g4},
        "pass": not no_out and g4_ok,
    }


# ---------------------------------------------------------------------------
# exact arc arithmetic on the projective line (angles mod pi)


def _anorm(t: float) -> float:
    return float(t) % math.pi


def _circdist(u: float, v: float) -> float:
    d = abs(u - v) % math.pi
    return min(d, math.pi - d)


def _sindist(u: float, v: float) -> float:
    return math.sin(_circdist(u, v))


def _ball_arc(center: float, radius: float) -> tuple[float, float]:
    # the sin-radius ball around a line is the arc of half-width asin(r)
    half = math.asin(radius)
    return _anorm(center - half), 2.0 * half


def _mobius_angle(m: np.ndarray, t: float) -> float:
    w = m @ (math.cos(t), math.sin(t))
    return _anorm(math.atan2(w[1], w[0]))


def _mobius_arc(m: np.ndarray, arc: tuple[float, float]) -> tuple[float, float]:
    """Image arc under an invertible matrix: endpoints decide the pair of
    candidate arcs, the midpoint image picks the right one."""
    s, w = arc
    a = _mobius_angle(m, s)
    b = _mobius_angle(m, s + w)
    mid = _mobius_angle(m, s + 0.5 * w)
    w1 = (b - a) % math.pi
    off1 = (mid - a) % math.pi
    off2 = (mid - b) % math.pi
    score1 = min(off1, w1 - off1)
    score2 = min(off2, (math.pi - w1) - off2)
    if score1 >= score2:
        return a, w1
    return b, math.pi - w1


def _arc_max_sindist(arc: tuple[float, float], c: float) -> float:
    """sup over the arc of the sin-distance to the line at angle c."""
    s, w = arc
    peak = _anorm(c + 0.5 * math.pi)
    if (peak - s) % math.pi <= w:
        return 1.0
    return max(_sindist(s, c), _sindist(s + w, c))


def _merge_arcs(arcs) -> list[tuple[float, float]]:
    """Union of arcs as a disjoint list; [(0, pi)] when the line is covered."""
    pieces = []
    for s, w in arcs:
        s = _anorm(s)
        if s + w <= math.pi:
            pieces.append((s, s + w))
        else:
            pieces.append((s, math.pi))
            pieces.append((0.0, s + w - math.pi))
    pieces.sort()
    merged: list[list[float]] = []
    for lo, hi in pieces:
        if merged and lo <= merged[-1][1] + 1e-12:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    if len(merged) > 1 and merged[0][0] <= 1e-12 and merged[-1][1] >= math.pi - 1e-12:
        first = merged.pop(0)
        merged[-1][1] = math.pi + first[1]
    out = []
    for lo, hi in merged:
        if hi - lo >= math.pi:
            return [(0.0, math.pi)]
        out.append((_anorm(lo), hi - lo))
    return out


def _arc_union_slack(arc: tuple[float, float], merged) -> float | None:
    """Angular clearance of ``arc`` inside a merged union, None if uncovered."""
    s, w = arc
    for a, width in merged:
        if width >= math.pi:
            return 0.5 * math.pi
        off = (s - a) % math.pi
        if off + w <= width + 1e-15:
            return min(off, width - off - w)
    return None


# ---------------------------------------------------------------------------
# set systems


@dataclass(frozen=True)
class Ball:
    """Metric ball on the projective line: ``center`` is the angle of a
    line, read mod pi; ``radius`` is in the sine metric, inside (0, 1)."""

    center: float
    radius: float


def _witness_margin(s, t):
    """Transversality margin of the lines at angles s and t (arrays or
    floats): the smaller singular value of [v | w] for their unit vectors,
    sqrt(1 - |cos psi|) = sqrt(2) sin(psi / 2), where psi in [0, pi/2] is
    the angle between the lines.  It is not the sine metric |sin psi|."""
    psi = np.mod(np.subtract(s, t), math.pi)
    return math.sqrt(2.0) * np.sin(np.minimum(psi, math.pi - psi) / 2)


class SetSystem:
    """One finite union of balls per vertex, plus a shared safety margin,
    on the projective line.

    Invariant, checked on construction: every vertex stores a witness
    angle, the first of 720 grid angles in [0, pi) that maximizes the least
    transversality margin against its ball centers less their radii; that
    margin must strictly exceed each radius.  The margin of two lines at
    angle psi in [0, pi/2] apart is sqrt(2) sin(psi / 2), the smaller
    singular value of the matrix of their unit vectors.
    """

    def __init__(self, epsilon: float, sets):
        if epsilon <= 0:
            raise InvalidParameterError("set system margin must be positive")
        self.epsilon = float(epsilon)
        self.sets: dict[int, tuple[Ball, ...]] = {}
        for v, balls in sets.items():
            balls = tuple(balls)
            if not balls:
                raise InvalidParameterError(f"vertex {v} has an empty set")
            for b in balls:
                if not 0.0 < b.radius < 1.0:
                    raise InvalidParameterError(
                        f"vertex {v}: ball radius must lie in (0, 1), "
                        f"got {b.radius}")
                if not isinstance(b.center, numbers.Real):
                    raise InvalidParameterError(
                        f"vertex {v}: ball centers are angles, got {b.center!r}")
            self.sets[int(v)] = balls
        self.witnesses: dict[int, float] = {}
        for v, balls in self.sets.items():
            w = self._search_witness(balls)
            self._check_witness(v, w, balls)
            self.witnesses[v] = w

    def _search_witness(self, balls):
        angles = np.linspace(0.0, math.pi, 720, endpoint=False)
        centers = np.array([float(b.center) for b in balls])
        margins = _witness_margin(angles[:, None], centers[None])
        score = (margins - np.array([b.radius for b in balls])).min(axis=1)
        return float(angles[np.argmax(score)])

    def _check_witness(self, v, witness, balls):
        for b in balls:
            margin = float(_witness_margin(witness, float(b.center)))
            if not margin > b.radius:
                raise InvalidParameterError(
                    f"set at vertex {v}: witness transversality margin "
                    f"{margin:.6g} does not exceed the ball radius {b.radius}")


def set_system_to_json(sys_: SetSystem) -> dict:
    return {
        "epsilon": sys_.epsilon,
        "sets": {str(v): [{"angle": float(b.center), "radius": b.radius}
                          for b in balls]
                 for v, balls in sorted(sys_.sets.items())},
        "witnesses": {str(v): float(sys_.witnesses[v])
                      for v in sorted(sys_.witnesses)},
    }


# ---------------------------------------------------------------------------
# representation plumbing


def _rep_matrices(rep, pair: RelHypPair) -> dict[str, np.ndarray]:
    """Generator images scaled by ``flags._projective``."""
    return {n: _projective(m)
            for n, m in generator_images(rep, pair.group.gen_names).items()}


def _element_matrix(mats, oracle, g: GroupElement, cache: dict) -> np.ndarray:
    """Image of g: a left fold over its syllables, rescaled at each step.

    The cache holds the fold of each element asked for, keyed by its
    syllable tuple, and each syllable's matrix power, keyed by the
    syllable.  A new element extends the fold of its longest cached
    syllable prefix; that is the same fold, so the bits do not depend on
    which elements were asked for before.
    """
    sylls = tuple(oracle.syllables(g))
    got = cache.get(sylls)
    if got is not None:
        return got
    j = max(len(sylls) - 1, 0)
    while j and sylls[:j] not in cache:
        j -= 1
    m = cache[sylls[:j]] if j else np.eye(2)
    for s in sylls[j:]:
        power = cache.get(s)
        if power is None:
            power = cache[s] = np.linalg.matrix_power(mats[s[0]], s[1])
        m = m @ power
        m = m / np.linalg.norm(m)  # projectively free rescaling, avoids drift
    cache[sylls] = m
    return m


# ---------------------------------------------------------------------------
# compatibility certificates


def _contain_exact(m: np.ndarray, ball: Ball, inflated: float,
                   targets) -> tuple[bool, float]:
    """Exact d = 2 test: does m map the inflated ball inside the union?

    Margin is the slack of the best single covering ball in the flag
    metric; when no single ball suffices, an exact union covering still
    counts, with the sine of the angular clearance as margin.
    """
    image = _mobius_arc(m, _ball_arc(float(ball.center), inflated))
    margin = -math.inf
    for tb in targets:
        margin = max(margin,
                     tb.radius - _arc_max_sindist(image, float(tb.center)))
    if margin > 0.0:
        return True, margin
    merged = _merge_arcs(_ball_arc(float(tb.center), tb.radius) for tb in targets)
    slack = _arc_union_slack(image, merged)
    if slack is not None and slack > 0.0:
        return True, math.sin(min(slack, 0.5 * math.pi))
    return False, margin


def check_compatibility(rep, auto: AutomatonGraph, sys_: SetSystem,
                        enumeration_depth: int = 8,
                        max_checks: int = 200_000) -> dict:
    """Certify that the representation respects the set system edge-wise.

    For every edge v -> w and every alpha in the transition set of v,
    enumerated to peripheral word length ``enumeration_depth``, the image
    under alpha of each ball at w inflated by the system margin must land
    inside the set at v.  The arc test is exact, so a negative margin is a
    refutation; a margin within the transversality tolerance of zero is
    inconclusive, since its sign may be a rounding artifact. So is a run
    that checks no containment, as at a depth that enumerates no label.
    """
    for u, w in auto.edges:
        for v in (u, w):
            if v not in sys_.sets:
                raise InvalidParameterError(
                    f"set system does not cover vertex {v}")
    mats = _rep_matrices(rep, auto.pair)
    per_vertex = {v: auto.label_elements(v, enumeration_depth)
                  for v in range(auto.n)}
    planned = sum(len(per_vertex[u][0]) * len(sys_.sets[w])
                  for u, w in auto.edges)
    if planned > max_checks:
        raise BudgetExceededError("compatibility containment checks",
                                  max_checks, planned)
    cache: dict = {}
    truncated = False
    labels_checked = 0
    containments = 0
    n_violations = 0
    min_margin = math.inf
    violations = []
    for u, w in auto.edges:
        elems, trunc = per_vertex[u]
        truncated = truncated or trunc
        targets = sys_.sets[u]
        for alpha in elems:
            labels_checked += 1
            m = _element_matrix(mats, auto.pair.group, alpha, cache)
            for bi, ball in enumerate(sys_.sets[w]):
                inflated = ball.radius + sys_.epsilon
                if inflated >= 1.0:
                    raise InvalidParameterError(
                        "inflated ball covers the whole flag space; shrink "
                        "the radius or the margin")
                ok, margin = _contain_exact(m, ball, inflated, targets)
                containments += 1
                min_margin = min(min_margin, margin)
                if not ok:
                    n_violations += 1
                    if len(violations) < 10:
                        violations.append({
                            "edge": [u, w],
                            "alpha": format_word(auto.pair.group, alpha),
                            "ball": bi,
                            "margin": margin,
                        })
    if not containments:  # nothing checked certifies nothing
        verdict = "inconclusive"
    elif min_margin > DEFAULT_TOLS.transversality:
        verdict = "pass"
    elif min_margin < -DEFAULT_TOLS.transversality:
        verdict = "fail"
    else:
        verdict = "inconclusive"
    return {
        "name": "compatibility",
        "method": "exact-arc",
        "dimension": 2,
        "epsilon": sys_.epsilon,
        "enumeration_depth": enumeration_depth,
        "edges_checked": len(auto.edges),
        "labels_checked": labels_checked,
        "containments_checked": containments,
        "label_truncated": truncated,
        "min_margin": None if not containments else float(min_margin),
        "violation_count": n_violations,
        "violations": violations,
        "verdict": verdict,
        "pass": verdict == "pass",
    }


# ---------------------------------------------------------------------------
# labeled paths


@dataclass(frozen=True)
class GPath:
    """One labeled path: steps pair each visited vertex with its chosen
    transition element; vertices is the itinerary, one entry longer."""

    steps: tuple[tuple[int, GroupElement], ...]
    vertices: tuple[int, ...]
    pair: RelHypPair = field(compare=False, repr=False)
    n_vertices: int = field(compare=False)
    truncated: bool = False
    ends_parabolic: bool = False

    def __len__(self):
        return len(self.steps)

    def partial_products(self) -> list[GroupElement]:
        """Identity-first list of the running products alpha_1 ... alpha_n."""
        acc = self.pair.group.identity()
        out = [acc]
        for _v, alpha in self.steps:
            acc = self.pair.group.multiply(acc, alpha)
            out.append(acc)
        return out

    def element(self) -> GroupElement:
        return self.partial_products()[-1]

    def words(self) -> list[str]:
        return [format_word(self.pair.group, alpha) for _v, alpha in self.steps]


def enumerate_gpaths(auto: AutomatonGraph, max_len: int, label_cutoff: int):
    """Depth-first stream of labeled paths of length 1 .. max_len.

    Deterministic: start vertices ascending, edges in listed order,
    transition elements in canonical enumeration order, every prefix
    yielded before its extensions.  Each path records whether any
    transition set along the way was truncated at ``label_cutoff``.
    """
    if max_len < 0:
        raise InvalidParameterError("max_len must be >= 0")
    per_vertex = {v: auto.label_elements(v, label_cutoff)
                  for v in range(auto.n)}

    def rec(v, steps, verts, trunc):
        if len(steps) == max_len:
            return
        elems, vtrunc = per_vertex[v]
        for w in auto.out[v]:
            for alpha in elems:
                st = steps + ((v, alpha),)
                vt = verts + (w,)
                path = GPath(st, vt, pair=auto.pair, n_vertices=auto.n,
                             truncated=trunc or vtrunc,
                             ends_parabolic=auto.is_parabolic(w))
                yield path
                yield from rec(w, st, vt, trunc or vtrunc)

    for v0 in range(auto.n):
        yield from rec(v0, (), (v0,), False)


# ---------------------------------------------------------------------------
# nested images along a path


def _angle_diameter(angles: np.ndarray) -> float:
    diff = np.abs(angles[:, None] - angles[None, :])
    for _ in range(2):  # diff % pi on [0, 3pi), where each x - pi is exact
        np.subtract(diff, math.pi, out=diff, where=diff >= math.pi)
    circ = np.minimum(diff, math.pi - diff)
    # circ lies in [0, pi/2], where sin increases: one sine of the widest gap
    return float(np.sin(circ.max()))


def _has_quarter_turn(arcs) -> bool:
    """Does the union of arcs (start, width) hold two lines a quarter turn
    apart?  The differences x - y, x in arc i and y in arc j, fill the arc
    from s_i - s_j - w_j of width w_i + w_j; test whether it reaches pi/2."""
    return any((0.5 * math.pi - (si - sj - wj)) % math.pi <= wi + wj
               for si, wi in arcs for sj, wj in arcs)


def _image_diameter(m: np.ndarray, arcs) -> float:
    """Sine-metric diameter of the image under m of a union of arcs.

    m maps each arc onto the arc between its endpoint images.  The sine
    of the circular distance peaks at a quarter turn and has no
    other local maximum, so over each pair of arcs it is 1 when their
    differences reach pi/2 and otherwise largest at a pair of endpoints.
    """
    if _has_quarter_turn([_mobius_arc(m, arc) for arc in arcs]):
        return 1.0
    ends = np.array([t for s, w in arcs for t in (s, s + w)])
    vecs = m @ np.vstack([np.cos(ends), np.sin(ends)])
    return _angle_diameter(np.arctan2(vecs[1], vecs[0]))


def nested_diameters(rep, gpath: GPath, sys_: SetSystem) -> dict:
    """Diameters of the nested images sigma(alpha_1 ... alpha_n) U_{v_{n+1}}.

    Each image is a union of arcs, one per ball, and its diameter comes
    from the arc endpoints and a quarter-turn test, exact up to rounding
    (``_image_diameter``).  The fitted per-step rate comes from a
    least-squares line through the log diameters.  Partial products are
    counted in exact normal form, so the repetition bound is exact too.
    """
    if not gpath.steps:
        raise InvalidParameterError("empty path has no nested images")
    for v in gpath.vertices:
        if v not in sys_.sets:
            raise InvalidParameterError(f"set system does not cover vertex {v}")
    mats = _rep_matrices(rep, gpath.pair)
    cache: dict = {}
    prods = gpath.partial_products()
    arcs = {v: [_ball_arc(float(b.center), b.radius) for b in sys_.sets[v]]
            for v in set(gpath.vertices)}
    diameters = [
        _image_diameter(_element_matrix(mats, gpath.pair.group, g, cache),
                        arcs[gpath.vertices[n]])
        for n, g in enumerate(prods)]
    logs = np.log(np.maximum(diameters, 1e-300))
    slope = float(np.polyfit(np.arange(len(diameters)), logs, 1)[0])
    rate = float(math.exp(slope))
    counts = Counter(g.word for g in prods)
    max_rep = max(counts.values())
    return {
        "name": "nested-diameters",
        "length": len(gpath.steps),
        "diameters": [float(x) for x in diameters],
        "rate": rate,
        "contracting": rate < 1.0 - 1e-9 and diameters[-1] < diameters[0],
        "monotone_nonincreasing": bool(np.all(np.diff(diameters) <= 1e-12)),
        "max_repetition": int(max_rep),
        "vertex_count": gpath.n_vertices,
        "backtracking_ok": max_rep <= gpath.n_vertices,
    }


# ---------------------------------------------------------------------------
# the bundled ping-pong automaton


SANOV_BALL_RADIUS = 0.48
SANOV_EPSILON = 0.02


def bundled_sanov_automaton(pair: RelHypPair) -> tuple[AutomatonGraph, SetSystem]:
    """Two-vertex ping-pong automaton for the standard two-peripheral pair.

    Vertex 0 carries <a> minus {1, a, a^-1} and owns the ball around the
    a-fixed line (angle 0); vertex 1 carries <b> minus {1, b, b^-1} and
    owns the ball around the b-fixed line (angle pi/2); control alternates.

    Both restrictions are forced by the exact containment test: unit
    powers land the opposite inflated ball outside a 0.48 ball, and a
    self-loop can never certify because a parabolic pushes one side of its
    fixed line outward, whatever finite set is excluded.
    """
    if len(pair.peripherals) != 2 or pair.group.gen_names != ("a", "b"):
        raise InvalidParameterError(
            "the bundled automaton needs the standard two-peripheral pair")
    one = pair.group.identity()
    gen = pair.group.generator
    labels = [
        CosetLabel(one, 0, (one, gen("a", 1), gen("a", -1))),
        CosetLabel(one, 1, (one, gen("b", 1), gen("b", -1))),
    ]
    auto = AutomatonGraph(pair, labels, [(0, 1), (1, 0)])
    sys_ = SetSystem(SANOV_EPSILON, {
        0: [Ball(0.0, SANOV_BALL_RADIUS)],
        1: [Ball(0.5 * math.pi, SANOV_BALL_RADIUS)],
    })
    return auto, sys_


# ---------------------------------------------------------------------------
# JSON interchange


def automaton_to_json(auto: AutomatonGraph) -> dict:
    group = auto.pair.group
    vertices = []
    for vid, lab in enumerate(auto.labels):
        if isinstance(lab, SingletonLabel):
            label = {"kind": "singleton", "word": format_word(group, lab.element)}
        else:
            label = {"kind": "coset", "g": format_word(group, lab.g),
                     "peripheral": lab.peripheral,
                     "excluded": [format_word(group, f) for f in lab.excluded]}
        vertices.append({"id": vid, "label": label})
    return {"vertices": vertices, "edges": [list(e) for e in auto.edges]}


def automaton_from_json(pair: RelHypPair, obj) -> AutomatonGraph:
    if not isinstance(obj, dict):
        raise SchemaError("automaton: expected an object")
    for key in ("vertices", "edges"):
        if key not in obj or not isinstance(obj[key], list):
            raise SchemaError(f"automaton: missing list field {key!r}")
    entries = obj["vertices"]
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise SchemaError(f"vertices[{i}]: expected an object")
        _json_int(entry.get("id"), f"vertices[{i}].id")
    if sorted(e["id"] for e in entries) != list(range(len(entries))):
        raise SchemaError("vertices: ids must be exactly 0..n-1")
    labels: list = [None] * len(entries)
    for i, entry in enumerate(entries):
        lab = entry.get("label")
        if not isinstance(lab, dict) or "kind" not in lab:
            raise SchemaError(f"vertices[{i}].label: expected an object with 'kind'")
        kind = lab["kind"]
        try:
            if kind == "singleton":
                if "word" not in lab:
                    raise SchemaError(f"vertices[{i}].label.word: missing")
                parsed = SingletonLabel(parse_word(pair.group, lab["word"]))
            elif kind == "coset":
                for fld in ("g", "peripheral"):
                    if fld not in lab:
                        raise SchemaError(f"vertices[{i}].label.{fld}: missing")
                words = lab.get("excluded", [])
                if not isinstance(words, list):
                    raise SchemaError(f"vertices[{i}].label.excluded: "
                                      "expected a list of words")
                excluded = tuple(parse_word(pair.group, w) for w in words)
                pid = _json_int(lab["peripheral"],
                                f"vertices[{i}].label.peripheral")
                parsed = CosetLabel(parse_word(pair.group, lab["g"]), pid,
                                    excluded)
            else:
                raise SchemaError(f"vertices[{i}].label.kind: unknown kind {kind!r}")
        except InvalidParameterError as err:
            raise SchemaError(f"vertices[{i}].label: {err}") from err
        labels[entry["id"]] = parsed
    edges = []
    for j, e in enumerate(obj["edges"]):
        if not (isinstance(e, list) and len(e) == 2):
            raise SchemaError(f"edges[{j}]: expected a [from, to] pair")
        edges.append((_json_int(e[0], f"edges[{j}][0]"),
                      _json_int(e[1], f"edges[{j}][1]")))
    try:
        return AutomatonGraph(pair, labels, edges)
    except InvalidParameterError as err:
        raise SchemaError(f"automaton: {err}") from err
