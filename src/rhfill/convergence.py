"""Convergence checks for filling families of representations.

A :class:`RepFamily` bundles a base representation with finitely many
deformed members, usually one per filling length, together with the kernel
words that each member is supposed to kill.  The checks in this module
compare members against the base from three angles: the extended filling
condition on a repelling/attracting ball pair, local Hausdorff distance of
windowed matrix sets (the Chabauty picture), and Hausdorff convergence of
limit-set clouds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .automata import Ball, _contain_exact, _element_matrix, _rep_matrices, _sindist
from .errors import InvalidParameterError, UnsupportedKindError
from .flags import (_projective, _unit_det, ball_images, classify,
                    generator_images, q_limit_set)
from .groups import (
    BALL_CAP,
    FillingData,
    GroupElement,
    RelHypPair,
    ball_tree,
    format_word,
    make_filling,
    parse_word,
)
from .tolerances import DEFAULT_TOLS

__all__ = [
    "RepFamily",
    "EdfQuery",
    "sanov_generators",
    "elliptic_generators",
    "elliptic_family",
    "bundled_edf_queries",
    "edf_condition_check",
    "chabauty_check",
    "limit_set_convergence",
]


# ---------------------------------------------------------------------------
# representation families


def sanov_generators() -> dict[str, np.ndarray]:
    """The parabolic pair generating a free group by ping-pong."""
    return {
        "a": np.array([[1.0, 2.0], [0.0, 1.0]]),
        "b": np.array([[1.0, 0.0], [2.0, 1.0]]),
    }


def elliptic_generators(n: int) -> dict[str, np.ndarray]:
    """Deform each parabolic into an elliptic of projective order exactly n.

    The deformation multiplies a lower/upper triangular unipotent with
    entry eps = 1 - cos(pi/n) into the parabolic, giving trace 2cos(pi/n);
    the n-th power is -id on the nose, so a^n and b^n die projectively.
    """
    if n < 2:
        raise InvalidParameterError("elliptic order must be at least 2")
    eps = 1.0 - math.cos(math.pi / n)
    base = sanov_generators()
    return {
        "a": base["a"] @ np.array([[1.0, 0.0], [-eps, 1.0]]),
        "b": np.array([[1.0, -eps], [0.0, 1.0]]) @ base["b"],
    }


def _kernel_deviation(mats: dict[str, np.ndarray], pair: RelHypPair,
                      word: str) -> float:
    """Projective distance of the word's image from the identity."""
    m = _element_matrix(mats, pair.group, parse_word(pair.group, word), {})
    m = m * math.sqrt(2) / np.linalg.norm(m)
    return min(float(np.linalg.norm(m - s * np.eye(2))) for s in (1.0, -1.0))


class RepFamily:
    """A base representation plus indexed deformations and their kernels.

    ``base`` and each member map generator names to matrices.  This is
    where a scenario's images are checked: each representation goes
    through :func:`generator_images`, so a bad image fails while the
    scenario loads, before any task runs.  ``kernels`` maps a member index
    to a per-peripheral kernel spec in the format of
    :func:`make_filling` ({pid: ["a^30"], ...}); every kernel word must die
    projectively in that member to the kernel tolerance, and the induced
    filling supplies exact peripheral orders to the downstream checks.
    Members without a kernel entry are treated as unfilled deformations.
    """

    def __init__(self, pair: RelHypPair, base: dict, members: dict,
                 kernels: dict | None = None):
        def images(rep, which):
            try:
                return generator_images(rep, pair.group.gen_names)
            except (InvalidParameterError, UnsupportedKindError) as e:
                raise type(e)(f"{which}, generator {e}") from None

        self.pair = pair
        self.base = images(base, "base")
        self.members = {int(idx): images(rep, f"member {idx}")
                        for idx, rep in members.items()}
        self.fillings: dict[int, FillingData] = {}
        for idx, spec in (kernels or {}).items():
            idx = int(idx)
            if idx not in self.members:
                raise InvalidParameterError(f"kernel spec for unknown index {idx}")
            self.fillings[idx] = make_filling(pair, spec)
            for words in spec.values():
                for word in words:
                    dev = _kernel_deviation(self.members[idx], pair, word)
                    if dev > DEFAULT_TOLS.kernel:
                        raise InvalidParameterError(
                            f"member {idx} maps kernel word {word!r} at "
                            f"projective distance {dev:.3e} from the identity")

    @property
    def indices(self) -> list[int]:
        return sorted(self.members)

    def rep(self, index: int | None) -> dict[str, np.ndarray]:
        if index is None:
            return self.base
        return self.members[index]

    def filling(self, index: int) -> FillingData | None:
        return self.fillings.get(index)


def elliptic_family(pair: RelHypPair,
                    ns: tuple[int, ...] = (10, 20, 30, 40, 60)) -> RepFamily:
    """The bundled elliptic deformations of the parabolic ping-pong pair."""
    if len(pair.peripherals) != 2 or tuple(pair.group.gen_names) != ("a", "b"):
        raise InvalidParameterError(
            "the elliptic family needs the two-generator parabolic pair")
    members = {n: elliptic_generators(n) for n in ns}
    kernels = {n: {0: [f"a^{n}"], 1: [f"b^{n}"]} for n in ns}
    return RepFamily(pair, sanov_generators(), members, kernels)


# ---------------------------------------------------------------------------
# extended filling condition


@dataclass(frozen=True)
class EdfQuery:
    """One filling-condition query: do peripheral images, minus the finite
    exclusion, push every repelling ball into the attracting union?

    ``attracting`` and ``repelling`` are ball tuples (U and K); ``excluded``
    lists group elements exempt from the containment demand.
    """

    peripheral: int
    attracting: tuple[Ball, ...]
    repelling: tuple[Ball, ...]
    excluded: tuple[GroupElement, ...] = ()
    name: str = ""


def bundled_edf_queries(pair: RelHypPair) -> tuple[EdfQuery, EdfQuery]:
    """Symmetric queries for the parabolic pair: U around one fixed line,
    K around the other, excluding the identity and the unit powers.

    The unit powers must be excluded: a^{+-1} moves the opposite fixed
    line only to slope 1/2, which is still outside a 0.3-ball around the
    fixed line of a, so the bare exclusion of the identity fails the base
    hypothesis before any filling enters the picture.
    """
    g = pair.group
    qa = EdfQuery(
        peripheral=0,
        attracting=(Ball(0.0, 0.3),),
        repelling=(Ball(0.5 * math.pi, 0.3),),
        excluded=(g.identity(), g.generator("a", 1), g.generator("a", -1)),
        name="a-side",
    )
    qb = EdfQuery(
        peripheral=1,
        attracting=(Ball(0.5 * math.pi, 0.3),),
        repelling=(Ball(0.0, 0.3),),
        excluded=(g.identity(), g.generator("b", 1), g.generator("b", -1)),
        name="b-side",
    )
    return qa, qb


def _check_query(pair: RelHypPair, query: EdfQuery) -> None:
    """A query must name a peripheral of the pair, exclude only its
    elements, and keep every repelling ball apart from every attracting one;
    ball radii lie in (0, 1), the range of the sine metric."""
    if not 0 <= query.peripheral < len(pair.peripherals):
        raise InvalidParameterError(f"no peripheral with id {query.peripheral}")
    for b in query.attracting + query.repelling:
        if not 0 < b.radius < 1:
            raise InvalidParameterError(f"ball radius {b.radius} is not in (0, 1)")
    per = pair.peripherals[query.peripheral]
    for g in query.excluded:
        if not per.membership(g):
            raise InvalidParameterError(
                f"excluded element {format_word(pair.group, g)!r} is not in "
                f"peripheral {query.peripheral}")
    for kb in query.repelling:
        for ub in query.attracting:
            sep = (_sindist(float(kb.center), float(ub.center))
                   - kb.radius - ub.radius)
            if sep <= 0:
                raise InvalidParameterError(
                    "repelling and attracting balls are not separated "
                    f"(margin {sep:.4f})")


def _query_margins(mats, pair, query, locals_, skip):
    """Worst containment margin over the non-skipped peripheral elements.

    Returns (rows, min_margin, worst_word); rows hold one entry per tested
    element.  Margins come from the exact arc test, so a negative margin
    is a genuine violation, not a sampling artifact.
    """
    per = pair.peripherals[query.peripheral]
    cache: dict = {}
    rows = []
    min_margin = math.inf
    worst = None
    for loc in locals_:
        if loc in skip:
            continue
        g = per.embed(loc)
        m = _element_matrix(mats, pair.group, g, cache)
        margin = math.inf
        for kb in query.repelling:
            ok, mg = _contain_exact(m, kb, kb.radius, query.attracting)
            margin = min(margin, mg)
        word = format_word(pair.group, g)
        rows.append({"element": word, "margin": margin})
        if margin < min_margin:
            min_margin, worst = margin, word
    return rows, (None if not rows else min_margin), worst


def edf_condition_check(family: RepFamily, query: EdfQuery,
                        enumeration_depth: int = 8) -> dict:
    """Check the extended filling condition and strict peripheral stability.

    The base hypothesis is verified first on the truncated peripheral ball.
    Each filled member is then enumerated through its quotient: when the
    filled peripheral image is finite the enumeration covers every residue
    and the verdict is conclusive; otherwise it falls back to the same
    truncated window as the base.  The strict variant skips only the
    excluded elements themselves, never their whole residues, so a kernel
    word always lands on the identity residue and violates it.
    """
    pair = family.pair
    _check_query(pair, query)
    per = pair.peripherals[query.peripheral]
    if enumeration_depth < 1:
        raise InvalidParameterError("enumeration_depth must be >= 1")

    base_mats = _rep_matrices(family.base, pair)
    excluded_locals = {per.local(g) for g in query.excluded}

    def truncated_run(mats):
        locals_ = per.factor.p_within(enumeration_depth)
        return _query_margins(mats, pair, query, locals_, excluded_locals)

    base_rows, base_min, base_worst = truncated_run(base_mats)
    base_conclusive = per.factor.p_order() is not None
    base_pass = base_min is not None and base_min > 0
    report: dict = {
        "name": "edf-condition",
        "query": query.name or f"peripheral-{query.peripheral}",
        "peripheral": query.peripheral,
        "enumeration_depth": enumeration_depth,
        "excluded": sorted(format_word(pair.group, g) for g in query.excluded),
        "base": {
            "verdict": "pass" if base_pass else "fail",
            "min_margin": base_min,
            "worst_element": base_worst,
            "tested": len(base_rows),
            "conclusive": base_conclusive,
        },
    }

    edf_rows = []
    stability_rows = []
    for idx in family.indices:
        mats = _rep_matrices(family.members[idx], pair)
        filling = family.filling(idx)
        order = None
        if filling is not None:
            order = filling.quotient_pair.peripherals[query.peripheral].factor.p_order()
        if order is None:
            # unfilled or infinite image: same truncated window as the base
            rows, mn, worst = truncated_run(mats)
            verdict = "pass" if (mn is not None and mn > 0) else "fail"
            edf_rows.append({
                "index": idx, "order": None, "tested": len(rows),
                "min_margin": mn, "worst_element": worst,
                "verdict": verdict, "conclusive": False,
            })
            stability_rows.append({
                "index": idx, "tested": len(rows), "min_margin": mn,
                "verdict": verdict, "witness": worst if verdict == "fail" else None,
                "conclusive": False,
            })
            continue
        # enumerate ambient peripheral elements far enough to hit every
        # residue of the finite quotient, then dedup residues
        reach = max(enumeration_depth, order)
        locals_ = per.factor.p_within(reach)
        skip_residues = {filling.project_local(query.peripheral, loc)
                         for loc in excluded_locals}
        seen: dict = {}
        for loc in locals_:
            res = filling.project_local(query.peripheral, loc)
            if res in skip_residues or res in seen:
                continue
            seen[res] = loc
        rows, mn, worst = _query_margins(
            mats, pair, query, list(seen.values()), set())
        covered = len(seen) + len(skip_residues)
        conclusive = covered >= order
        if not rows:
            verdict = "vacuous"
        elif mn > 0:
            verdict = "pass"
        else:
            verdict = "fail"
        edf_rows.append({
            "index": idx, "order": order, "tested": len(rows),
            "min_margin": mn, "worst_element": worst,
            "verdict": verdict, "conclusive": conclusive,
        })
        # strict stability: only the excluded elements themselves are
        # skipped, so kernel words land on the identity residue
        srows, smn, sworst = _query_margins(
            mats, pair, query, locals_, excluded_locals)
        sverdict = "pass" if (smn is not None and smn > 0) else "fail"
        stability_rows.append({
            "index": idx, "tested": len(srows), "min_margin": smn,
            "verdict": sverdict,
            "witness": sworst if sverdict == "fail" else None,
            "conclusive": conclusive,
        })

    report["edf"] = edf_rows
    report["peripheral_stability"] = stability_rows
    report["stability_implies_edf"] = all(
        s["verdict"] != "pass" or e["verdict"] in ("pass", "vacuous")
        for e, s in zip(edf_rows, stability_rows))
    report["pass"] = (base_pass and
                      all(r["verdict"] in ("pass", "vacuous") for r in edf_rows))
    return report


# ---------------------------------------------------------------------------
# windowed matrix sets (local Hausdorff)


def _sign_canonical(rows: np.ndarray) -> np.ndarray:
    """Dedup projectively: flip each row so its first sizable entry is
    positive, round, and keep the distinct rows in lexicographic order, as
    ``np.unique(axis=0)`` does. Equal rows compare by value, so +0.0 and
    -0.0 tie; the row kept is the first in input order."""
    sign = np.zeros(len(rows))
    for i in range(rows.shape[1]):
        m = (sign == 0) & (np.abs(rows[:, i]) > 1e-8)
        sign[m] = np.sign(rows[m, i])
    sign[sign == 0] = 1.0
    fixed = np.round(rows * sign[:, None], 9)
    fixed = fixed[np.lexsort(fixed.T[::-1])]
    keep = np.ones(len(fixed), dtype=bool)
    keep[1:] = (fixed[1:] != fixed[:-1]).any(axis=1)
    return fixed[keep]


_CHUNK = 1 << 16  # entries of one distance block in _sup_min, 512 KiB


def _gram(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y.T as one gemm with at least 2 rows and a multiple of 8 columns,
    zero-padded.  OpenBLAS forms every such entry by one FMA chain in
    column order; one-row products (gemv) and column tails of other widths
    take other kernels, chosen by shape and thread count."""
    xp = np.zeros((max(len(x), 2), x.shape[1]))
    yp = np.zeros((-(-len(y) // 8) * 8, y.shape[1]))
    xp[:len(x)], yp[:len(y)] = x, y
    return (xp @ yp.T)[:len(x), :len(y)]


def _sup_min(sup_side: np.ndarray, inf_side: np.ndarray,
             radius: float) -> dict:
    """One-sided deviation: sup over windowed rows of the distance to the
    other full set, sign-insensitive so +-m are the same point.

    The squared distances (|x|^2 + |y|^2) - 2 |x . y| are taken in blocks
    of at most max(_CHUNK, 8) entries: row blocks of the windowed set
    against column blocks of the other, a multiple of 8 wide, with abs and
    the doubling in place on the gram block and a running minimum per row.
    Each gram entry comes from :func:`_gram`, so its bits depend on neither
    the blocking nor the BLAS threads, and a minimum is exact; the clamp
    at 0 and the square root are taken once per row, after it.  Only a
    one-row block's gram is larger, padded to two rows.
    """
    windowed = sup_side[np.linalg.norm(sup_side, axis=1) <= radius]
    if len(windowed) == 0 or len(inf_side) == 0:
        return {"distance": 0.0, "points": int(len(windowed))}
    nx = (windowed * windowed).sum(axis=1)
    ny = (inf_side * inf_side).sum(axis=1)
    rows = max(1, min(len(windowed), _CHUNK // 8))
    cols = max(8, _CHUNK // rows // 8 * 8)
    worst = 0.0
    for i in range(0, len(windowed), rows):
        best = np.full(min(rows, len(nx) - i), np.inf)
        for j in range(0, len(inf_side), cols):
            gram = _gram(windowed[i:i + rows], inf_side[j:j + cols])
            np.abs(gram, out=gram)
            gram *= 2.0
            d2 = nx[i:i + rows, None] + ny[None, j:j + cols] - gram
            np.minimum(best, d2.min(axis=1), out=best)
        worst = max(worst, float(np.sqrt(np.maximum(best, 0.0)).max()))
    return {"distance": worst, "points": int(len(windowed))}


def chabauty_check(family: RepFamily, ball_radius: float = 10.0,
                   word_depth: int = 8, cap: int = BALL_CAP) -> dict:
    """Local Hausdorff comparison of windowed image sets, per member.

    Following the two one-sided convergence criteria, the window applies
    only on the sup side: every base point inside the norm ball must be
    approximated by some member image (windowed or not), and vice versa.
    Truncating both sides would punish matrices that drift across the
    window boundary even as the family converges.  The relative version
    restricts the words to each peripheral subgroup.

    The word ball is enumerated once as a BFS tree; each representation's
    unit-|det| images come from one :func:`ball_images` call, and the
    peripheral sets are rows of that array.  A member whose window holds
    no point on either side has tested nothing, so the check fails.
    """
    if word_depth < 1:
        raise InvalidParameterError("word_depth must be >= 1")
    if ball_radius <= 0:
        raise InvalidParameterError("ball_radius must be positive")
    pair = family.pair
    tree = ball_tree(pair.group, word_depth, cap)
    # every peripheral element of length <= word_depth lies in the ball: the
    # identity and the words of one syllable in that factor
    pad = len(tree.syllables)
    ids = np.column_stack([tree.rows, np.full(len(tree.rows), pad)])
    first = np.array([fi for fi, _ in tree.syllables] + [-1])[ids[:, 0]]
    per_rows = {p.id: np.flatnonzero((ids[:, 1] == pad) & np.isin(first, (-1, p.id)))
                for p in pair.peripherals}

    def image_sets(rep):
        rows = ball_images(rep, pair.group, tree).reshape(len(tree.level), -1)
        return _sign_canonical(rows), {pid: _sign_canonical(rows[idx])
                                       for pid, idx in per_rows.items()}

    base_full, base_peri = image_sets(family.base)
    table, untested = [], 0
    for idx in family.indices:
        rep = family.members[idx]
        mem_full, mem_peri = image_sets(rep)
        a_side = _sup_min(base_full, mem_full, ball_radius)
        b_side = _sup_min(mem_full, base_full, ball_radius)
        untested += a_side["points"] + b_side["points"] == 0
        row = {
            "index": idx,
            "full": {
                "a_side": a_side["distance"],
                "b_side": b_side["distance"],
                "distance": max(a_side["distance"], b_side["distance"]),
                "windowed_points": a_side["points"],
            },
            "peripheral": {},
        }
        gen_dev = max(float(np.linalg.norm(
            _unit_det(rep[n]) - _unit_det(family.base[n]))) for n in family.base)
        row["generator_deviation"] = gen_dev
        for pid in sorted(base_peri):
            pa = _sup_min(base_peri[pid], mem_peri[pid], ball_radius)
            pb = _sup_min(mem_peri[pid], base_peri[pid], ball_radius)
            dist = max(pa["distance"], pb["distance"])
            row["peripheral"][pid] = {
                "a_side": pa["distance"], "b_side": pb["distance"],
                "distance": dist,
                "dominates_generator_deviation": dist >= gen_dev,
            }
        table.append(row)

    fulls = [r["full"]["distance"] for r in table]
    report = {
        "name": "chabauty-window",
        "ball_radius": ball_radius,
        "word_depth": word_depth,
        "indices": family.indices,
        "table": table,
        "decreasing": {
            "full": all(x > y for x, y in zip(fulls, fulls[1:])),
        },
    }
    for pid in sorted(base_peri):
        seq = [r["peripheral"][pid]["distance"] for r in table]
        report["decreasing"][f"peripheral-{pid}"] = all(
            x > y for x, y in zip(seq, seq[1:]))
    report["pass"] = bool(table) and not untested and all(
        report["decreasing"].values())
    return report


# ---------------------------------------------------------------------------
# limit-set convergence


def limit_set_convergence(family: RepFamily, word_depth: int = 12,
                          cap: int = BALL_CAP) -> dict:
    """Hausdorff distance of each member's limit cloud from the base cloud.

    ``d_hausdorff`` is the distance between the depth-``word_depth``
    clouds, not between the limit sets.  A cloud is a finite subset of its
    limit set that can leave whole arcs of it uncovered, so the cloud
    distance bounds the limit-set distance in neither direction.

    Every representation, base included, is first screened by the
    :func:`classify` kind of the product of all generators: its powers
    diverge exactly when it is neither the identity nor elliptic.  Failing
    members are flagged and excluded from the distance table rather than
    producing meaningless clouds.
    """
    if word_depth < 1:
        raise InvalidParameterError("word_depth must be >= 1")
    pair = family.pair

    def screened(rep) -> bool:
        w = np.eye(2)
        for name in pair.group.gen_names:
            w = w @ _projective(rep[name])
        return classify(w) not in ("identity", "elliptic")

    if not screened(family.base):
        raise InvalidParameterError(
            "base representation fails divergence screening")
    base_cloud = q_limit_set(family.base, pair.group, word_depth, cap=cap)
    table = []
    flagged = []
    for idx in family.indices:
        rep = family.members[idx]
        if not screened(rep):
            flagged.append({"index": idx,
                            "reason": "divergence-screening-failed"})
            continue
        cloud = q_limit_set(rep, pair.group, word_depth, cap=cap)
        table.append({
            "index": idx,
            "d_hausdorff": cloud.hausdorff(base_cloud),
            "cloud_size": cloud.size,
        })
    dists = [r["d_hausdorff"] for r in table]
    return {
        "name": "limit-set-convergence",
        "word_depth": word_depth,
        "base_size": base_cloud.size,
        "table": table,
        "flagged": flagged,
        "decreasing": all(x > y for x, y in zip(dists, dists[1:])),
        "final_distance": dists[-1] if dists else None,
    }

