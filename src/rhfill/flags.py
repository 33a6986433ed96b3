"""Lines, Q-divergence, and limit sets for PGL(2, R).

Every image acts on R^2.  :func:`generator_images`, the one check of an
image, decides invertibility exactly, and :func:`classify` the elliptic,
parabolic or loxodromic kind: float entries are dyadic rationals.

The flag manifold of PGL(2, R) is the projective line.  A point of it, a
line through the origin of R^2, is stored as its angle mod pi, and the
projector metric between the lines at angles s and t is |sin(s - t)|
(:func:`line_distance`).  The attracting line of a matrix is its top
left-singular direction, well defined exactly when the singular gap
sigma_1/sigma_2 is open.  Every gap and every such angle comes from the
closed 2x2 forms of ``_closed_forms``, with no SVD; verdicts about
sequences are finite-data judgments with "inconclusive" as an honest
third answer.

Limit sets of free groups are enumerated as reduced words with batched
2x2 arithmetic, breadth first while the words of a level that end in one
letter fit in one chunk and depth first below that, so a million-word
cloud costs its angles and one such block per level; other groups take
their word balls from :func:`ball_images`, as the Chabauty check does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (BudgetExceededError, InvalidParameterError,
                     UnsupportedKindError)
from .groups import (BALL_CAP, BallTree, FreeAbelianOracle, FreeProductOracle,
                     GroupOracle, ball_tree)
from .tolerances import DEFAULT_TOLS

CLOSED_FORM_CHUNK = 8192  # words or gaps per slice of the d = 2 cloud kernels


def _projective(m) -> np.ndarray:
    """m as a float array scaled to unit Frobenius norm, then negated if
    its first nonzero entry is negative: one entry array per projective
    class.  m must be an image that :func:`generator_images` accepts."""
    m = np.array(m, dtype=float)
    m /= np.linalg.norm(m)
    return -m if m.flat[np.flatnonzero(m)[0]] < 0 else m


def classify(m) -> str:
    """The kind of an invertible 2x2 matrix in PGL(2, R), decided exactly.

    Float entries are dyadic rationals: scaled by their largest
    denominator they are integers a, b, c, d; let t = a + d, D = ad - bc.
    A multiple of I is "identity".  For D > 0 the sign of t^2 - 4D gives
    "elliptic", "parabolic" or "loxodromic" (Beardon, The Geometry of
    Discrete Groups, 4.3).  For D < 0 the eigenvalues are real, of equal
    modulus only when t = 0: an involution, "elliptic".  The singular gaps
    of the powers diverge exactly for the parabolic and loxodromic kinds.
    """
    ratios = [float(x).as_integer_ratio() for x in np.ravel(m)]
    den = max(q for _, q in ratios)
    a, b, c, d = (p * (den // q) for p, q in ratios)
    if b == c == 0 and a == d:
        return "identity"
    t, det = a + d, a * d - b * c
    if det < 0:
        return "elliptic" if t == 0 else "loxodromic"
    disc = t * t - 4 * det
    return "elliptic" if disc < 0 else "parabolic" if disc == 0 else "loxodromic"


def line_distance(s: float, t: float) -> float:
    """Distance |sin(s - t)| between the lines at angles s and t: the
    spectral norm of the difference of their orthogonal projectors."""
    return abs(math.sin(s - t))


# ---------------------------------------------------------------------------
# sequences


@dataclass(frozen=True)
class DivergenceCertificate:
    """Finite-data verdict on a matrix sequence from its singular gaps.

    gaps is the trajectory sigma_1/sigma_2 along the sequence.  A divergent
    certificate carries the attracting-line angle of the last entry.
    """

    verdict: str                     # "divergent" | "bounded" | "inconclusive"
    gaps: tuple[float, ...]
    reason: str
    limit_angle: float | None = None


def q_divergence(seq) -> DivergenceCertificate:
    """Judge a sequence of 2x2 matrices by its singular-gap trajectory.

    divergent: over the last tail_window entries the gap strictly increases
    and clears the flag threshold.  bounded: the gap stays at or below the
    threshold over that tail, so the sequence never separates directions.
    Everything else, including sequences shorter than the tail window, is
    inconclusive; a constant hyperbolic sequence, say, is bounded as a set
    but indistinguishable in this data from one about to grow.  Each
    matrix is scaled by its largest entry, and one ``_closed_forms`` call
    over the stack gives every gap and the last angle.  A matrix that is
    not 2x2 raises UnsupportedKindError.
    """
    mats = [np.asarray(m, dtype=float) for m in seq]
    if not mats:
        raise InvalidParameterError("q_divergence needs a nonempty sequence")
    if any(m.shape != (2, 2) for m in mats):
        raise UnsupportedKindError("q_divergence works on 2x2 matrices")
    mats = np.array(mats) / np.abs(mats).max(axis=(1, 2), keepdims=True)
    bufs, angles = np.empty((7, len(mats))), np.empty(len(mats))
    filled = _closed_forms(mats, -math.inf, bufs, np.empty(len(mats), bool),
                           angles, 0)
    gaps = tuple(float(x) for x in bufs[6])     # the lam buffer
    w = DEFAULT_TOLS.tail_window
    if len(mats) < w:
        return DivergenceCertificate(
            "inconclusive", gaps,
            f"sequence shorter than the tail window ({len(mats)} < {w})")
    tail = np.asarray(gaps[-w:])
    if tail.max() <= DEFAULT_TOLS.gap_threshold:
        return DivergenceCertificate(
            "bounded", gaps, "tail gaps never clear the flag threshold")
    if (np.diff(tail) > 0).all() and (tail > DEFAULT_TOLS.gap_threshold).all():
        # the last gap is a number, so its angle is the last one written
        angle = float(angles[filled - 1]) % math.pi     # pi mod pi is 0
        return DivergenceCertificate(
            "divergent", gaps,
            "tail gaps increase strictly above the flag threshold", angle)
    return DivergenceCertificate(
        "inconclusive", gaps,
        "tail gaps neither stay at the threshold nor increase throughout")


# ---------------------------------------------------------------------------
# generator images


def generator_images(rep: dict, names) -> dict[str, np.ndarray]:
    """The one rule for a representation given by its generator images.

    ``rep`` must map exactly the generator ``names`` to 2x2 matrices with
    finite entries, a nonzero determinant (exact on those entries) and a
    Frobenius norm in the float range, which :func:`_projective` divides
    by.  Returns unscaled float copies in the order of ``names``.  A
    violation raises InvalidParameterError (UnsupportedKindError when the
    images are of one other size d) whose message starts with the
    generator's name.
    """
    for name in rep:
        if name not in names:
            raise InvalidParameterError(f"{name}: not a generator of the group")
    out: dict[str, np.ndarray] = {}
    for name in names:
        if name not in rep:
            raise InvalidParameterError(f"{name}: no image given")
        try:
            m = np.array(rep[name], dtype=float)
        except (TypeError, ValueError):  # ragged rows or non-numeric entries
            raise InvalidParameterError(
                f"{name}: need a square matrix of numbers") from None
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidParameterError(
                f"{name}: need a square matrix, got shape {m.shape}")
        first = len(next(iter(out.values()), m))
        if len(m) != first:
            raise InvalidParameterError(
                f"{name}: {len(m)}x{len(m)} matrix, the other images are "
                f"{first}x{first}")
        if m.shape != (2, 2):
            raise UnsupportedKindError(
                f"{name}: images act on R^2 (d = 2), got d = {len(m)}")
        if not np.all(np.isfinite(m)):
            raise InvalidParameterError(f"{name}: matrix entries must be finite")
        (a, b), (c, d) = ((Fraction(float(x)) for x in row) for row in m)
        if a * d == b * c:
            raise InvalidParameterError(f"{name}: matrix is singular")
        with np.errstate(over="ignore", under="ignore"):
            norm = float(np.linalg.norm(m))     # as _projective takes it
        if not 0.0 < norm < math.inf:
            raise InvalidParameterError(
                f"{name}: matrix norm {'overflows' if norm else 'underflows'}"
                " in floating point; scale the matrix")
        out[name] = m
    return out


# ---------------------------------------------------------------------------
# word-ball images


def _unit_det(m: np.ndarray) -> np.ndarray:
    """Rescale each 2x2 matrix of a stack to |det| = 1."""
    return m / (np.abs(np.linalg.det(m)) ** 0.5)[..., None, None]


def ball_images(rep: dict, oracle: GroupOracle, tree: BallTree) -> np.ndarray:
    """Images of the ball elements, shape (len(tree.level), 2, 2).

    rep maps generator names to 2x2 matrices.  Each generator's word is
    rescaled to |det| = 1 once; images are then formed level by level along
    the BFS tree, one batched product per generator step, and grow only as
    their top singular value.  Only the tree's arrays are read, so its lazy
    ``elements`` stay unbuilt.
    """
    mats = {n: np.asarray(m, dtype=float) for n, m in rep.items()}
    steps = []
    for g in oracle.generators():
        m = np.eye(2)
        for name, e in oracle.syllables(g):
            m = m @ np.linalg.matrix_power(mats[name], e)
        steps.append(_unit_det(m))
    images = np.empty((len(tree.level), 2, 2))
    images[0] = np.eye(2)
    for lvl in range(1, int(tree.level.max(initial=0)) + 1):
        at = np.flatnonzero(tree.level == lvl)
        for j, m in enumerate(steps):
            sel = at[tree.step[at] == j]
            images[sel] = images[tree.parent[sel]] @ m
    return images


# ---------------------------------------------------------------------------
# limit sets


@dataclass
class FlagCloud:
    """Deduplicated attracting lines over a word ball of a representation.

    angles are line angles sorted in [0, pi], as hausdorff requires.
    words_seen counts ball elements inspected (identity included);
    gap_rejections counts those whose gaps did not clear the threshold.
    """

    angles: np.ndarray
    words_seen: int
    gap_rejections: int

    @property
    def size(self) -> int:
        return int(self.angles.size)

    def hausdorff(self, other: "FlagCloud") -> float:
        return _hausdorff_sorted(self.angles, other.angles)


def _sorted_rp1(angles) -> np.ndarray:
    """Line angles reduced mod pi into [0, pi) and sorted."""
    a = np.mod(np.asarray(angles, dtype=float).ravel(), math.pi)
    a[a == math.pi] = 0.0      # a tiny negative angle rounds up to pi
    return np.sort(a)


def _dedup_sorted(a: np.ndarray, resolution: float) -> np.ndarray:
    """Greedy circular dedup of sorted line angles at a sin-metric resolution.

    A gap d between neighbours is kept when sin(min(d, pi - d)) >=
    resolution.  With x0 = asin(resolution), the sine is taken only for
    gaps in the band [x0 (1 - 1e-9), x0 (1 + 1e-9)) and for gaps above
    pi/2.  Below the band a gap is dropped, and from the band up to pi/2 it
    is kept, without a sine: there the true sine differs from the
    resolution by at least 1e-9 x0 cos x0, relatively 0.9e-9 or more for
    resolution <= 1/2, so a sine error of a few ulp cannot flip the test.
    The kept angles are therefore those of taking the sine of every gap.
    Above pi/2 the test reads pi - d, whose rounding is not small against
    the band for tiny resolutions, so those gaps always take the sine.

    The gaps are taken in slices of CLOSED_FORM_CHUNK into one buffer, as
    the same subtraction np.diff makes, and the rule is applied per slice.
    """
    if not 0 < resolution <= 0.5:
        raise InvalidParameterError("resolution must lie in (0, 1/2]")
    if a.size <= 1:
        return a
    x0 = math.asin(resolution)
    lo, hi = x0 * (1 - 1e-9), x0 * (1 + 1e-9)
    keep = np.empty(a.size, dtype=bool)
    keep[0] = True
    buf = np.empty(min(CLOSED_FORM_CHUNK, a.size - 1))
    for s in range(0, a.size - 1, len(buf)):
        e = min(s + len(buf), a.size - 1)     # gaps s..e-1
        d = np.subtract(a[s + 1:e + 1], a[s:e], out=buf[:e - s])
        np.greater_equal(d, hi, out=keep[s + 1:e + 1])
        near = np.flatnonzero(((d >= lo) & (d < hi)) | (d > math.pi / 2))
        dn = d[near]
        keep[s + 1 + near] = np.sin(np.minimum(dn, math.pi - dn)) >= resolution
    out = a[keep]
    if out.size > 1:
        wrap = math.pi - (out[-1] - out[0])
        if math.sin(min(wrap, math.pi - wrap)) < resolution:
            out = out[:-1]
    return out


def _hausdorff_sorted(xs: np.ndarray, ys: np.ndarray) -> float:
    """Hausdorff distance between two sorted angle arrays in [0, pi].

    Per direction, an x in gap i of the padded y, pad[i] < x <= pad[i+1],
    lies min(x - pad[i], pad[i+1] - x) from y.  The x in the widest gap
    give a lower bound best on the sup; then only the x in gaps wider than
    2 best (1 - 1e-12) are scanned, each with the same searchsorted
    position and the same subtractions as a scan of every x.  That is
    exact: a gap of rounded width at most that bound has an exact width
    below 2 best, and rounding is monotone, so no x in it computes more
    than best.  The x at pad[0] (x = 0 when y ends at pi) lie in no gap and
    are always scanned.
    """
    if xs.size == 0 or ys.size == 0:
        raise InvalidParameterError("hausdorff distance needs nonempty sets")
    if not all(np.all(np.diff(a, prepend=0.0, append=math.pi) >= 0) for a in (xs, ys)):
        raise InvalidParameterError("angles must be sorted in [0, pi]")
    sups = []
    for x, y in ((xs, ys), (ys, xs)):  # nearest neighbours on the period-pi circle
        pad = np.concatenate((y[-1:] - math.pi, y, y[:1] + math.pi))
        gaps = np.diff(pad)
        w = int(np.argmax(gaps))
        inside = x[slice(*np.searchsorted(x, pad[w:w + 2], side="right"))]
        best = float(np.max(np.minimum(inside - pad[w], pad[w + 1] - inside),
                            initial=0.0))
        wide = np.flatnonzero(gaps > 2 * best * (1 - 1e-12))
        lo = np.searchsorted(x, pad[wide], side="right")
        n = np.searchsorted(x, pad[wide + 1], side="right") - lo
        # the index ranges [lo, lo + n) of the x in the wide gaps, joined
        idx = np.repeat(lo - np.cumsum(n) + n, n) + np.arange(n.sum())
        edge = int(np.searchsorted(x, pad[0], side="right"))
        sx = np.concatenate((x[:edge], x[idx]))
        pos = np.searchsorted(pad, sx)
        sups.append(float(np.max(np.minimum(sx - pad[pos - 1], pad[pos] - sx))))
    return math.sin(max(sups))


def _free_rank(oracle: GroupOracle) -> int | None:
    """Rank if the oracle is a free group presented as such, else None."""
    if isinstance(oracle, FreeAbelianOracle) and oracle.rank == 1:
        return 1
    if isinstance(oracle, FreeProductOracle) and all(
            isinstance(f, FreeAbelianOracle) and f.rank == 1
            for f in oracle.factors):
        return len(oracle.factors)
    return None


def _free_word_count(rank: int, depth: int) -> int:
    k = 2 * rank
    total, layer = 1, 1
    for _ in range(depth):
        layer *= (k - 1) if layer > 1 else k
        total += layer
    return total


def _free2_angles(letters: np.ndarray, depth: int, threshold: float
                  ) -> tuple[np.ndarray, int, int]:
    """Sorted attracting-line angles in [0, pi) over all reduced words of
    length <= depth, with the words seen and the gap rejections.

    letters has shape (2r, 2, 2) with letter 2i+1 inverse to letter 2i.
    The words of a level that end in one letter form a block; a block
    ending in l has 2r - 1 children, one for each letter j != l^1, each the
    block times letter j and as large as it.  Levels are formed whole
    while a block, (2r - 1)^(level - 1) words, fits in CLOSED_FORM_CHUNK.
    Such a level is laid out in 2r blocks by last letter, in letter order,
    so block j of the next level is letter j appended to every block but
    j^1: two contiguous ranges of the level before.  The deepest level
    formed whole is the switch level; below it the walk goes depth first,
    one child at a time.  Every product is one flat (2n, 2) @ (2, 2)
    dgemm.  That forms every entry by the same FMA chain, fma(b, g, a*e),
    as numpy's stacked (n, 2, 2) @ (2, 2), so every word is (prefix
    product) @ letter with the same bits whatever the order of the walk; a
    product this small also runs on one OpenBLAS thread.  Per word the top
    singular direction and the gap come from closed 2x2 forms, no SVD,
    taken on each block right after its product, while it is in cache.

    Buffers: the output holds one angle per reduced word of length 1 to
    depth, in the order the blocks are formed, which the final sort
    erases.  Besides it the walk keeps the switch level (2r blocks, and
    the level before it) and one block per deeper level: a child
    overwrites its level's block once the subtree of the block there
    before it is done.  The peak is thus the output plus O(2r chunk +
    depth chunk) matrices.  Seven float buffers of a chunk take every closed
    form through out=, so each is the same ufunc on the same operands as
    the plain expression, and the angles are written by arctan2 straight
    into the output.  A block whose words all clear the threshold skips
    the boolean gathers.
    """
    k, chunk = letters.shape[0], CLOSED_FORM_CHUNK
    total = _free_word_count(k // 2, depth)
    angles = np.empty(total - 1)
    bufs = np.empty((7, min(chunk, len(angles))))
    mask = np.empty(bufs.shape[1], dtype=bool)
    level, m, filled, switch = letters, 1, 0, min(depth, 1)  # block j: letter j
    for j in range(k * switch):     # level 1, if depth > 0
        filled = _closed_forms(letters[j:j + 1], threshold, bufs, mask,
                               angles, filled)
    while switch < depth and m * (k - 1) <= chunk:      # breadth first
        prev, p, m, switch = level, m, m * (k - 1), switch + 1
        level = np.empty((k * m, 2, 2))
        for j in range(k):      # letter j after prev without its block j^1
            block, cut = level[j * m:(j + 1) * m], (j ^ 1) * p
            for part, out in ((prev[:cut], block[:cut]), (prev[cut + p:], block[cut:])):
                np.matmul(part.reshape(-1, 2), letters[j], out=out.reshape(-1, 2))
            filled = _closed_forms(block, threshold, bufs, mask, angles, filled)
    blocks = np.empty((depth - switch, m, 2, 2))    # levels switch + 1 to depth
    todo = [(switch, i, j) for i in range(k) for j in range(k)
            if j != i ^ 1] if switch < depth else []
    while todo:     # (at, i, j): letter j after a block of level at ending in i
        at, i, j = todo.pop()
        parent = blocks[at - switch - 1] if at > switch else level[i * m:(i + 1) * m]
        child = blocks[at - switch]
        np.matmul(parent.reshape(-1, 2), letters[j], out=child.reshape(-1, 2))
        filled = _closed_forms(child, threshold, bufs, mask, angles, filled)
        if at + 1 < depth:      # the last pushed are the next popped
            todo += [(at + 1, j, n) for n in range(k) if n != j ^ 1]
    angles = angles[:filled]
    angles[angles == math.pi] = 0.0    # theta + pi rounded up: pi mod pi
    angles.sort()
    return angles, total, total - filled     # the identity is never kept


def _closed_forms(words: np.ndarray, threshold: float, bufs: np.ndarray,
                  mask: np.ndarray, angles: np.ndarray, filled: int) -> int:
    """Write the attracting-line angles of the words whose gap clears the
    threshold into angles[filled:], in word order; returns the new fill."""
    a, b = words[:, 0, 0], words[:, 0, 1]
    c, d = words[:, 1, 0], words[:, 1, 1]
    top, mid, bot, det, diff, tmp, lam = (x[:len(words)] for x in bufs)
    np.multiply(a, a, out=top)
    top += np.multiply(b, b, out=tmp)
    np.multiply(a, c, out=mid)
    mid += np.multiply(b, d, out=tmp)
    np.multiply(c, c, out=bot)
    bot += np.multiply(d, d, out=tmp)
    np.multiply(a, d, out=det)
    det -= np.multiply(b, c, out=tmp)
    np.abs(det, out=det)
    np.subtract(top, bot, out=diff)
    np.multiply(diff, diff, out=tmp)
    tmp /= 4
    tmp += np.multiply(mid, mid, out=lam)
    np.sqrt(tmp, out=tmp)
    np.add(top, bot, out=lam)
    lam /= 2
    lam += tmp             # lambda_1 of the Gram matrix
    with np.errstate(divide="ignore"):  # a det cancelled to 0: gap inf, safe side
        lam /= det         # sigma_1 / sigma_2, since sigma products = det
    good = np.greater(lam, threshold, out=mask[:len(words)])
    mid *= 2
    if not good.all():
        mid, diff = mid[good], diff[good]
    theta = np.arctan2(mid, diff, out=angles[filled:filled + len(mid)])
    theta *= 0.5
    # np.mod(theta, pi) on [-pi/2, pi/2], which also sends -0.0 to +0.0
    theta += np.where(theta < 0, math.pi, 0.0)
    return filled + len(mid)


def _line_angles(words: np.ndarray, threshold: float) -> np.ndarray:
    """Attracting-line angles in [0, pi) of the 2x2 matrices of a stack
    whose gap clears the threshold, in stack order, from _closed_forms on
    slices of CLOSED_FORM_CHUNK matrices."""
    chunk = CLOSED_FORM_CHUNK
    angles = np.empty(len(words))
    bufs = np.empty((7, min(chunk, len(words))))
    mask = np.empty(bufs.shape[1], dtype=bool)
    filled = 0
    for start in range(0, len(words), chunk):
        filled = _closed_forms(words[start:start + chunk], threshold, bufs,
                               mask, angles, filled)
    angles = angles[:filled]
    angles[angles == math.pi] = 0.0    # theta + pi rounded up: pi mod pi
    return angles


def q_limit_set(rep: dict, oracle: GroupOracle, word_depth: int,
                cap: int = BALL_CAP) -> FlagCloud:
    """Attracting lines of every ball element whose gap clears the threshold.

    rep maps the oracle's generator names to 2x2 matrices; any other size
    raises UnsupportedKindError.  Free groups take a batched reduced-word
    route; for any other group the ball of radius word_depth is enumerated
    through the oracle as a BFS tree and its images come from
    :func:`ball_images`.  Either way each angle comes from the closed 2x2
    forms, and the cloud is deduplicated at the dedup resolution in the
    sine metric.  Depth 0 gives the empty cloud: the identity has no
    attracting line.
    """
    if word_depth < 0:
        raise InvalidParameterError("word_depth must be >= 0")
    mats = {n: _projective(m)
            for n, m in generator_images(rep, oracle.gen_names).items()}

    rank = _free_rank(oracle)
    if rank is not None:
        total = _free_word_count(rank, word_depth)
        if total > cap:
            raise BudgetExceededError("reduced words", cap, total)
        letters = np.empty((2 * rank, 2, 2))
        for i, name in enumerate(oracle.gen_names):
            letters[2 * i] = mats[name]
            letters[2 * i + 1] = np.linalg.inv(mats[name])
        raw, seen, rejected = _free2_angles(letters, word_depth,
                                            DEFAULT_TOLS.gap_threshold)
        return FlagCloud(_dedup_sorted(raw, DEFAULT_TOLS.dedup), seen, rejected)

    tree = ball_tree(oracle, word_depth, cap)
    raw = _line_angles(ball_images(mats, oracle, tree), DEFAULT_TOLS.gap_threshold)
    raw.sort()
    return FlagCloud(_dedup_sorted(raw, DEFAULT_TOLS.dedup), len(tree.level),
                     len(tree.level) - len(raw))
