"""Flags, divergence, and RP^1 limit sets, checked against closed forms.

The 2x2 batch route inside q_limit_set never calls an SVD, so the key test
here compares it element by element against attracting_flag on the same
ball.
"""
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis import assume

from rhfill.errors import (BudgetExceededError, GapTooSmallError,
                           InvalidParameterError, TypeMismatchError)
from rhfill.flags import (Flag, FlagCloud, ParabolicType, ProjectiveMatrix,
                          attracting_flag, flag_angle, flag_distance,
                          is_transverse, line_flag, line_type, q_divergence,
                          q_limit_set, _dedup_angles, ball_images)
from rhfill.flags import (_dedup_sorted, _free2_angles, _hausdorff_sorted,
                          _sorted_rp1)
from rhfill import flags
from rhfill.scenarios import bundled_scenario_path, load_scenario
from rhfill.tolerances import DEFAULT_TOLS
from rhfill.convergence import elliptic_generators
from rhfill.groups import (ball_tree, enumerate_ball, make_filling, make_oracle,
                           standard_f2_pair)
from reference_windows import (hausdorff_rp1, random_flag,
                               reference_dedup_sorted, reference_free2_angles,
                               reference_hausdorff_sorted, traced_peak)

SANOV_A = np.array([[1.0, 2.0], [0.0, 1.0]])
SANOV_B = np.array([[1.0, 0.0], [2.0, 1.0]])


@pytest.fixture(scope="module")
def f2():
    return make_oracle({"kind": "free-product",
                        "factors": [{"kind": "free-abelian", "rank": 1},
                                    {"kind": "free-abelian", "rank": 1}]})


# ---------------------------------------------------------------------------
# matrices, types, flags


def test_projective_normalization():
    m = ProjectiveMatrix([[-3.0, 0.0], [0.0, -1.0]])
    assert np.isclose(np.linalg.norm(m.entries), 1.0)
    assert m.entries[0, 0] > 0  # sign fixed by first nonzero entry
    same = ProjectiveMatrix([[6.0, 0.0], [0.0, 2.0]]).entries
    np.testing.assert_allclose(m.entries, same, atol=1e-12, rtol=0.0)


def test_projective_rejects_singular():
    with pytest.raises(InvalidParameterError):
        ProjectiveMatrix([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(InvalidParameterError):
        ProjectiveMatrix([[1.0, 2.0, 3.0]])


def test_parabolic_type_validation():
    t = ParabolicType(4, (3, 1))
    assert t.indices == (1, 3)
    assert t.symmetric
    assert not ParabolicType(4, (1,)).symmetric
    with pytest.raises(InvalidParameterError):
        ParabolicType(3, ())
    with pytest.raises(InvalidParameterError):
        ParabolicType(3, (3,))


def test_flag_reorthonormalizes_and_checks_nesting():
    t = ParabolicType(3, (1, 2))
    # skewed spanning sets, same subspaces
    f = Flag(t, {1: [[2.0], [0.0], [0.0]],
                 2: [[1.0, 3.0], [1.0, 3.0001], [0.0, 0.0]]})
    assert np.allclose(f.projector(1), np.diag([1.0, 0.0, 0.0]))
    with pytest.raises(InvalidParameterError):
        Flag(t, {1: [[0.0], [0.0], [1.0]],   # e3 is not inside the e1e2-plane
                 2: [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]})
    with pytest.raises(InvalidParameterError):
        Flag(t, {1: [[1.0], [0.0], [0.0]],
                 2: [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]})  # rank deficient


def test_flag_distance_is_sine_of_angle():
    for theta in (0.1, 0.7, 1.3):
        assert flag_distance(line_flag(0.0), line_flag(theta)) == \
            pytest.approx(math.sin(theta), abs=1e-12)
    assert flag_distance(line_flag(0.3), line_flag(0.3)) == 0.0
    with pytest.raises(TypeMismatchError):
        flag_distance(line_flag(0.0),
                      Flag(ParabolicType(3, (1,)), {1: [[1.], [0.], [0.]]}))


# ---------------------------------------------------------------------------
# attracting flags


def test_attracting_flag_diagonal():
    flag, gaps = attracting_flag(np.diag([3.0, 1 / 3]), line_type())
    assert flag_angle(flag) == 0.0
    assert gaps[1] == pytest.approx(9.0)


def test_attracting_flag_rotation_has_no_gap():
    c, s = math.cos(0.3), math.sin(0.3)
    with pytest.raises(GapTooSmallError):
        attracting_flag([[c, -s], [s, c]], line_type())


@pytest.mark.parametrize("n", [5, 10, 20])
def test_attracting_flag_parabolic_powers(n):
    # a^n = [[1, 2n], [0, 1]]; the top singular value squared solves
    # x^2 - (2 + 4n^2) x + 1 = 0 and the gap equals it (det = 1)
    flag, gaps = attracting_flag(np.linalg.matrix_power(SANOV_A, n), line_type())
    T = 2 + 4 * n * n
    assert gaps[1] == pytest.approx((T + math.sqrt(T * T - 4)) / 2, rel=1e-12)
    angle = flag_angle(flag)
    assert flag_distance(flag, line_flag(0.0)) == pytest.approx(math.sin(angle))
    # approaches span(e1) like 1/(2n), an order short of the 1e-2 mark at n=5
    assert angle == pytest.approx(1 / (2 * n), rel=0.03)


def test_attracting_flag_scale_invariant():
    g = np.array([[2.0, 1.0], [1.0, 1.0]])
    base, _ = attracting_flag(g, line_type())
    for lam in (2.5, -0.3, 7.0):
        scaled, _ = attracting_flag(lam * g, line_type())
        assert flag_distance(base, scaled) < 1e-12


def test_attracting_flag_powers_converge():
    # non-normal, so the singular direction genuinely moves with n
    g = np.array([[2.0, 1.0], [0.0, 0.5]])
    lt = line_type()
    flags = [attracting_flag(np.linalg.matrix_power(g, n), lt)[0]
             for n in range(1, 8)]
    steps = [flag_distance(a, b) for a, b in zip(flags, flags[1:])]
    assert all(a > b for a, b in zip(steps, steps[1:]))
    # contraction tracks the eigenvalue ratio (1/4 per step)
    assert steps[-1] / steps[-2] == pytest.approx(0.25, rel=0.01)
    assert steps[-1] < 1e-4


# ---------------------------------------------------------------------------
# transversality


def test_transverse_lines():
    assert is_transverse(line_flag(0.0), line_flag(math.pi / 2)) == (True, 1.0)
    ok, margin = is_transverse(line_flag(0.3), line_flag(0.3))
    assert not ok and margin == pytest.approx(0.0, abs=1e-12)


def test_transverse_d3():
    t = ParabolicType(3, (1, 2))
    e = np.eye(3)
    xi = Flag(t, {1: e[:, :1], 2: e[:, :2]})
    eta = Flag(t, {1: e[:, 2:3], 2: e[:, 1:3]})
    ok, margin = is_transverse(xi, eta)
    assert ok and margin == pytest.approx(1.0)
    ok, margin = is_transverse(xi, xi)
    assert not ok and margin == pytest.approx(0.0, abs=1e-12)


def test_transverse_symmetric_in_arguments():
    rng = np.random.default_rng(11)
    t = ParabolicType(4, (1, 3))
    for _ in range(20):
        xi, eta = random_flag(t, rng), random_flag(t, rng)
        ok1, m1 = is_transverse(xi, eta)
        ok2, m2 = is_transverse(eta, xi)
        assert ok1 == ok2
        assert m1 == pytest.approx(m2, abs=1e-9)


def test_transverse_needs_paired_index():
    t = ParabolicType(3, (1,))
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidParameterError):
        is_transverse(random_flag(t, rng), random_flag(t, rng))


# ---------------------------------------------------------------------------
# divergence


def test_divergent_hyperbolic_powers():
    g = np.diag([2.0, 0.5])
    cert = q_divergence([np.linalg.matrix_power(g, n) for n in range(1, 9)],
                        line_type())
    assert cert.verdict == "divergent"
    assert flag_angle(cert.limit_flag) == 0.0
    assert flag_angle(cert.limit_flag_inverse) == pytest.approx(math.pi / 2)
    assert cert.gaps[1][-1] == pytest.approx(4.0 ** 8)


def test_bounded_rotations():
    rots = [np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
            for t in np.linspace(0.1, 1.5, 8)]
    assert q_divergence(rots, line_type()).verdict == "bounded"


def test_inconclusive_cases():
    g = np.diag([2.0, 0.5])
    # constant sequence: gaps above threshold but not growing
    assert q_divergence([g] * 8, line_type()).verdict == "inconclusive"
    # shorter than the tail window
    assert q_divergence([g] * 3, line_type()).verdict == "inconclusive"


def test_divergent_parabolic_powers():
    seq = [np.linalg.matrix_power(SANOV_A, n) for n in range(1, 9)]
    cert = q_divergence(seq, line_type())
    assert cert.verdict == "divergent"
    # both limits sit near span(e1), from opposite sides
    assert flag_distance(cert.limit_flag, line_flag(0.0)) < math.sin(0.07)
    assert flag_distance(cert.limit_flag_inverse, line_flag(0.0)) < math.sin(0.07)


def test_divergent_sequence_attracts_transverse_flags():
    # for eta transverse to the repelling flag, g^n eta -> attracting flag
    g = ProjectiveMatrix(np.array([[2.0, 1.0], [1.0, 1.0]]))
    powers = {n: ProjectiveMatrix(np.linalg.matrix_power(g.entries, n))
              for n in range(1, 13)}
    cert = q_divergence(list(powers.values()), line_type())
    assert cert.verdict == "divergent"
    rng = np.random.default_rng(7)
    sups = []
    for n in (4, 8, 12):
        gn = powers[n]
        sup, used = 0.0, 0
        while used < 100:
            eta = random_flag(line_type(), rng)
            ok, margin = is_transverse(eta, cert.limit_flag_inverse)
            if not ok or margin < 0.05:
                continue
            used += 1
            image = Flag(eta.type, {i: gn.entries @ b
                                    for i, b in eta.bases.items()})
            sup = max(sup, flag_distance(image, cert.limit_flag))
        sups.append(sup)
    assert sups[0] > sups[1] > sups[2]
    assert sups[2] < 1e-5


# ---------------------------------------------------------------------------
# limit sets


def test_limit_set_of_one_hyperbolic():
    z = make_oracle({"kind": "free-abelian", "rank": 1})
    cloud = q_limit_set({"a": np.diag([2.0, 0.5])}, z, 10)
    assert np.allclose(cloud.angles, [0.0, math.pi / 2])
    assert cloud.words_seen == 21
    assert cloud.gap_rejections == 1  # the identity


@pytest.mark.parametrize("rep,message", [
    ({"a": SANOV_A, "b": [[1.0, 2.0], [2.0, 4.0]]},
     "b: matrix is numerically singular"),
    ({"a": SANOV_A}, "b: no image given"),
    ({"a": SANOV_A, "b": SANOV_B, "c": SANOV_B}, "c: not a generator"),
    ({"a": SANOV_A, "b": np.eye(3)}, "b: 3x3 matrix, the other images are 2x2"),
])
def test_limit_set_refuses_bad_images_naming_the_generator(f2, rep, message):
    with pytest.raises(InvalidParameterError, match=f"^{message}"):
        q_limit_set(rep, f2, 2)


def test_limit_set_depth_zero_empty(f2):
    cloud = q_limit_set({"a": SANOV_A, "b": SANOV_B}, f2, 0)
    assert cloud.size == 0


def test_limit_set_commuting_diagonals():
    z2 = make_oracle({"kind": "free-abelian", "rank": 2})
    cloud = q_limit_set({"a": np.diag([2.0, 0.5]), "b": np.diag([3.0, 1 / 3])},
                        z2, 4)
    assert np.allclose(cloud.angles, [0.0, math.pi / 2])


def test_batch_route_matches_per_element_svd(f2):
    rep = {"a": SANOV_A, "b": SANOV_B}
    cloud = q_limit_set(rep, f2, 4)
    assert cloud.words_seen == 161
    assert cloud.gap_rejections == 1
    assert cloud.size == 140
    ref = []
    for g in enumerate_ball(f2, 4):
        m = np.eye(2)
        for name, power in f2.syllables(g):
            m = m @ np.linalg.matrix_power(rep[name], power)
        try:
            flag, _ = attracting_flag(m, line_type())
        except GapTooSmallError:
            continue
        ref.append(flag_angle(flag))
    ref_angles = _dedup_angles(np.array(ref), 1e-6)
    assert ref_angles.size == cloud.size
    assert np.max(np.abs(ref_angles - cloud.angles)) < 1e-12


def _syllable_image(rep, oracle, g):
    """Reference image: one matrix power per syllable, then unit |det|."""
    m = np.eye(next(iter(rep.values())).shape[0])
    for name, power in oracle.syllables(g):
        m = m @ np.linalg.matrix_power(rep[name], power)
    return m / abs(np.linalg.det(m)) ** (1.0 / m.shape[0])


D3_REP = {"a": np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.5]]),
          "b": np.array([[0.5, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 2.0]])}


@pytest.mark.parametrize("rep", [{"a": SANOV_A, "b": SANOV_B},
                                 elliptic_generators(10), D3_REP],
                         ids=["sanov", "elliptic-10", "d3"])
def test_ball_images_match_syllable_products(f2, rep):
    tree = ball_tree(f2, 6)
    images = ball_images(rep, f2, tree)
    assert images.shape == (len(tree.elements),) + rep["a"].shape
    for g, m in zip(tree.elements, images):
        ref = _syllable_image(rep, f2, g)
        assert np.linalg.norm(m - ref) <= 1e-9 * np.linalg.norm(ref)


def test_ball_images_on_a_filled_quotient():
    # rho_10 kills a^10 and b^10 projectively (a^10 = -I), so on the
    # quotient the tree products agree with the syllable products up to sign
    quotient = make_filling(standard_f2_pair(), {0: ["a^10"], 1: ["b^10"]}
                            ).quotient_group
    rep = elliptic_generators(10)
    tree = ball_tree(quotient, 7)
    for g, m in zip(tree.elements, ball_images(rep, quotient, tree)):
        ref = _syllable_image(rep, quotient, g)
        assert min(np.linalg.norm(m - ref), np.linalg.norm(m + ref)) \
            <= 1e-9 * np.linalg.norm(ref)


def test_generic_limit_set_route_on_a_filled_quotient():
    quotient = make_filling(standard_f2_pair(), {0: ["a^10"], 1: ["b^10"]}
                            ).quotient_group
    rep = elliptic_generators(10)
    cloud = q_limit_set(rep, quotient, 5)
    assert cloud.words_seen == len(enumerate_ball(quotient, 5))
    ref = []
    for g in enumerate_ball(quotient, 5):
        try:
            flag, _ = attracting_flag(_syllable_image(rep, quotient, g), line_type())
        except GapTooSmallError:
            continue
        ref.append(flag_angle(flag))
    assert cloud.words_seen - cloud.gap_rejections == len(ref)
    assert np.allclose(cloud.angles, _dedup_angles(np.array(ref), 1e-6),
                       atol=1e-9)


def test_sanov_cloud_respects_ping_pong(f2):
    # reduced words leading with a-letters attract inside |slope| <= 1,
    # words leading with b-letters inside |slope| >= 1
    rep = {"a": SANOV_A, "b": SANOV_B}
    lt = line_type()
    for g in enumerate_ball(f2, 6):
        syl = f2.syllables(g)
        if not syl:
            continue
        m = np.eye(2)
        for name, power in syl:
            m = m @ np.linalg.matrix_power(rep[name], power)
        theta = flag_angle(attracting_flag(m, lt)[0])
        slope = abs(math.tan(theta)) if abs(theta - math.pi / 2) > 1e-12 \
            else math.inf
        if syl[0][0] == "a":
            assert slope <= 1.0 + 1e-9
        else:
            assert slope >= 1.0 - 1e-9


def test_sanov_cloud_stabilizes(f2):
    rep = {"a": SANOV_A, "b": SANOV_B}
    clouds = {L: q_limit_set(rep, f2, L) for L in (2, 4, 6, 8)}
    steps = [clouds[L].hausdorff(clouds[L + 2]) for L in (2, 4, 6)]
    assert steps[0] == pytest.approx(0.109117, abs=1e-5)
    assert steps[0] > steps[1] > steps[2]


def test_limit_set_budget(f2):
    with pytest.raises(BudgetExceededError):
        q_limit_set({"a": SANOV_A, "b": SANOV_B}, f2, 30)


# ---------------------------------------------------------------------------
# the RP^1 metric helpers


def test_hausdorff_rp1_wraparound():
    d = hausdorff_rp1([0.01], [math.pi - 0.01])
    assert d == pytest.approx(math.sin(0.02), abs=1e-12)
    assert hausdorff_rp1([0.3, 1.2], [0.3, 1.2]) == 0.0
    with pytest.raises(InvalidParameterError):
        hausdorff_rp1([], [0.1])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=math.pi, exclude_max=True),
                min_size=1, max_size=8),
       st.lists(st.floats(min_value=0.0, max_value=math.pi, exclude_max=True),
                min_size=1, max_size=8))
def test_hausdorff_rp1_matches_flag_metric(xs, ys):
    # brute-force sup-min in the flag metric must agree with the sweep
    fx = [line_flag(t) for t in xs]
    fy = [line_flag(t) for t in ys]
    sup = 0.0
    for a, b in ((fx, fy), (fy, fx)):
        for f in a:
            sup = max(sup, min(flag_distance(f, g) for g in b))
    assert hausdorff_rp1(xs, ys) == pytest.approx(sup, abs=1e-9)


# ---------------------------------------------------------------------------
# the free d = 2 route against the per-letter stacked loop it replaced

def _free2_angles_reference(letters, depth, threshold):
    """Unsorted angles, reduced once mod pi, from one stacked (N, 2, 2) @
    (2, 2) product per letter over a boolean gather of its parents."""
    k = letters.shape[0]
    parts = []
    seen, rejected = 1, 1
    prods = letters.copy()
    last = np.arange(k)
    for level in range(1, depth + 1):
        if level > 1:
            chunks, labels = [], []
            for j in range(k):
                ok = last != (j ^ 1)
                chunks.append(prods[ok] @ letters[j])
                labels.append(np.full(int(ok.sum()), j, dtype=np.int64))
            prods = np.concatenate(chunks)
            last = np.concatenate(labels)
        a, b = prods[:, 0, 0], prods[:, 0, 1]
        c, d = prods[:, 1, 0], prods[:, 1, 1]
        top, mid, bot = a * a + b * b, a * c + b * d, c * c + d * d
        det = np.abs(a * d - b * c)
        lam1 = (top + bot) / 2 + np.sqrt((top - bot) ** 2 / 4 + mid * mid)
        gap = lam1 / det
        good = gap > threshold
        theta = 0.5 * np.arctan2(2 * mid[good], (top - bot)[good])
        parts.append(np.mod(theta, math.pi))
        seen += prods.shape[0]
        rejected += int(prods.shape[0] - good.sum())
    angles = np.concatenate(parts) if parts else np.empty(0)
    return angles, seen, rejected


def _letters(mats):
    """Letters as q_limit_set forms them: each image and its inverse."""
    out = []
    for m in mats:
        e = ProjectiveMatrix(m).entries
        out += [e, np.linalg.inv(e)]
    return np.array(out)


def _assert_same_cloud(letters, depth):
    threshold = DEFAULT_TOLS.gap_threshold
    got, seen, rejected = _free2_angles(letters, depth, threshold)
    raw, ref_seen, ref_rejected = _free2_angles_reference(letters, depth,
                                                          threshold)
    # the reference clouds were reduced mod pi a second time, in the dedup
    assert got.tobytes() == _sorted_rp1(raw).tobytes()
    assert (seen, rejected) == (ref_seen, ref_rejected)
    assert np.all(got[1:] >= got[:-1]) and np.all((got >= 0) & (got < math.pi))


def _rotation(t):
    return [[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]


@st.composite
def free_letters(draw):
    """Rank 1-3 letter sets of integer, rotation or elliptic images, and a
    depth whose ball stays small."""
    rank = draw(st.integers(1, 3))
    mats = []
    for _ in range(rank):
        kind = draw(st.sampled_from(["integer", "rotation", "elliptic"]))
        if kind == "integer":
            m = np.array(draw(st.lists(st.integers(-4, 4), min_size=4,
                                       max_size=4)), float).reshape(2, 2)
            assume(abs(np.linalg.det(m)) >= 1)
        elif kind == "rotation":
            m = np.array(_rotation(draw(st.floats(-math.pi, math.pi))))
        else:
            m = elliptic_generators(draw(st.integers(2, 60)))[
                draw(st.sampled_from("ab"))]
        mats.append(m)
    depth = draw(st.integers(0, {1: 9, 2: 9, 3: 6}[rank]))
    return _letters(mats), depth


@settings(max_examples=80, deadline=None)
@given(free_letters())
def test_free2_angles_match_the_stacked_reference(case):
    _assert_same_cloud(*case)


@pytest.mark.parametrize("letter", [
    [[2.0, 0.0], [0.0, 0.5]],        # theta = +0.0 and pi/2
    [[2.0, -0.0], [-0.0, 0.5]],      # arctan2 of -0.0 gives -0.0 and -pi/2
    [[2.0, 5e-18], [-2e-17, 0.5]],   # theta + pi rounds up to pi
])
def test_free2_angles_at_the_ends_of_the_range(letter):
    letters = np.array([letter, np.linalg.inv(letter)])
    _assert_same_cloud(letters, 4)
    got, _, _ = _free2_angles(letters, 4, DEFAULT_TOLS.gap_threshold)
    assert math.copysign(1.0, got[0]) == 1.0 and got[-1] < math.pi


def test_free2_angles_match_the_reference_on_the_bundled_family():
    sc = load_scenario(bundled_scenario_path())
    fam = sc.family
    for rep in [fam.base] + [fam.members[i] for i in fam.indices]:
        _assert_same_cloud(_letters([rep["a"], rep["b"]]), 12)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 300), st.integers(0, 2 ** 32 - 1))
def test_flat_product_equals_the_stacked_product_bitwise(n, seed):
    # both compute each entry as the same FMA chain with K = 2; the free
    # route's clouds keep their bits because of it
    rng = np.random.default_rng(seed)
    prods = rng.standard_normal((n, 2, 2)) * np.exp(rng.uniform(-20, 20, (n, 1, 1)))
    letter = rng.standard_normal((2, 2)) * math.exp(rng.uniform(-20, 20))
    flat = np.empty_like(prods)
    np.matmul(prods.reshape(-1, 2), letter, out=flat.reshape(-1, 2))
    assert flat.tobytes() == (prods @ letter).tobytes()


def test_flat_product_equals_the_stacked_product_on_a_large_block():
    rng = np.random.default_rng(5)
    prods = rng.standard_normal((200_000, 2, 2))
    for letter in _letters([SANOV_A, SANOV_B, *elliptic_generators(7).values()]):
        flat = np.matmul(prods.reshape(-1, 2), letter).reshape(-1, 2, 2)
        assert flat.tobytes() == (prods @ letter).tobytes()


def test_conditional_add_is_mod_pi_on_half_angles():
    rng = np.random.default_rng(3)
    theta = np.concatenate([
        [0.0, -0.0, math.pi / 2, -math.pi / 2, -1e-17, 1e-300, -5e-324],
        0.5 * np.arctan2(rng.standard_normal(10_000), rng.standard_normal(10_000)),
        rng.uniform(-math.pi / 2, math.pi / 2, 10_000)])
    got = theta.copy()
    np.add(got, math.pi, out=got, where=got < 0)
    got += 0.0
    assert got.tobytes() == np.mod(theta, math.pi).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=40),
       st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=40))
def test_cloud_hausdorff_is_hausdorff_rp1(xs, ys):
    a = _dedup_sorted(_sorted_rp1(xs), DEFAULT_TOLS.dedup)
    b = _dedup_sorted(_sorted_rp1(ys), DEFAULT_TOLS.dedup)
    ca = FlagCloud(line_type(), a, None, len(xs), 0)
    cb = FlagCloud(line_type(), b, None, len(ys), 0)
    assert ca.hausdorff(cb) == hausdorff_rp1(a, b) == _hausdorff_sorted(a, b)
    assert cb.hausdorff(ca) == hausdorff_rp1(b, a)


def test_cloud_hausdorff_refuses_empty_clouds():
    full = FlagCloud(line_type(), np.array([0.1, 1.0]), None, 3, 1)
    empty = FlagCloud(line_type(), np.empty(0), None, 1, 1)
    for x, y in ((full, empty), (empty, full), (empty, empty)):
        with pytest.raises(InvalidParameterError):
            x.hausdorff(y)


@pytest.mark.parametrize("angles", [[1.0, 0.5], [-0.1, 0.5], [0.5, 3.5],
                                    [0.5, math.nan]])
def test_cloud_hausdorff_refuses_unsorted_or_unreduced_angles(angles):
    bad = FlagCloud(line_type(), np.array(angles), None, 3, 1)
    good = FlagCloud(line_type(), np.array([0.1, 1.0]), None, 3, 1)
    for x, y in ((bad, good), (good, bad)):
        with pytest.raises(InvalidParameterError, match="sorted"):
            x.hausdorff(y)


@pytest.mark.parametrize("chunk", [1, 3, 7, 100])
def test_free2_angles_do_not_depend_on_the_chunk(monkeypatch, chunk):
    # slices split levels inside blocks and at block ends, and below 2r
    # words they split level 1 too; the rotation letters come first, so
    # words 0 and 1 of level 1 (and more later) are rejected inside a slice
    # whose other words are kept
    monkeypatch.setattr(flags, "CLOSED_FORM_CHUNK", chunk)
    rotation = _rotation(2 * math.pi / 5)
    hyperbolic = [[2.0, 1.0], [1.0, 1.0]]
    for mats in ([hyperbolic], [rotation], [SANOV_A, SANOV_B],
                 list(elliptic_generators(7).values()), [rotation, hyperbolic],
                 [rotation, SANOV_A, SANOV_B]):
        letters = _letters(mats)
        # rank 3 at depth 7 is 117k one-word slices at chunk 1 (8 s); its
        # slices fall on blocks as at depth 5
        for depth in range(8 if len(mats) < 3 or chunk > 3 else 6):
            got, seen, rejected = _free2_angles(letters, depth,
                                                DEFAULT_TOLS.gap_threshold)
            ref, ref_seen, ref_rejected = reference_free2_angles(
                letters, depth, DEFAULT_TOLS.gap_threshold)
            assert got.tobytes() == ref.tobytes()
            assert (seen, rejected) == (ref_seen, ref_rejected)
    _, seen, rejected = _free2_angles(_letters([rotation, hyperbolic]), 5,
                                      DEFAULT_TOLS.gap_threshold)
    assert 1 < rejected < seen


def test_q_limit_set_peak_memory_at_depth_12():
    # the output (8.1 MiB at 1,062,880 words) plus levels 10 and 11 (2.4
    # and 7.2 MiB); storing level 12 and a full np.diff took 37.4 MiB
    fam = load_scenario(bundled_scenario_path()).family
    peak = traced_peak(lambda: q_limit_set(fam.base, fam.pair.group, 12))
    assert peak <= 24 * 2 ** 20


def test_sorted_rp1_sends_a_rounded_up_pi_to_zero():
    # a tiny negative angle mod pi rounds up to pi; both Hausdorff paths
    # must see it as 0.0
    assert _sorted_rp1([-9.6e-208, 1.0]).tolist() == [0.0, 1.0]
    a, b = _sorted_rp1([1e-09]), _sorted_rp1([-9.6e-208])
    ca = FlagCloud(line_type(), a, None, 1, 0)
    cb = FlagCloud(line_type(), b, None, 1, 0)
    assert ca.hausdorff(cb) == hausdorff_rp1(a, b) == hausdorff_rp1([1e-09], [0.0])


# ---------------------------------------------------------------------------
# the pruned Hausdorff distance and the banded dedup against full scans

X0 = math.asin(DEFAULT_TOLS.dedup)


def _ulps(x: float, k: int) -> float:
    """x moved k ulps up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, math.inf if k > 0 else -math.inf))
    return x


# gaps at asin(resolution) and at both edges of the dedup band, a few ulp off
EDGE_GAPS = [_ulps(v, k) for v in (X0, X0 * (1 - 1e-9), X0 * (1 + 1e-9))
             for k in range(-3, 4)]
BELOW_PI = float(np.nextafter(math.pi, 0.0))


@st.composite
def sorted_clouds(draw, top=BELOW_PI):
    """Sorted nonempty angle arrays in [0, top]: gaps at the dedup band's
    edges, duplicate angles, one-point clouds, gaps above pi - x0 and pi/2,
    angles at 0.0 and just below pi, and evenly spaced clouds."""
    kind = draw(st.sampled_from(["gaps", "even", "wide"]))
    if kind == "even":             # every gap equal: pruning scans all
        n = draw(st.integers(1, 300))
        a = draw(st.sampled_from([0.0, 1e-3])) + np.arange(n) * (math.pi / n)
    elif kind == "wide":           # one gap above pi/2, near pi - x0
        a = np.array([0.0, _ulps(math.pi - X0 * (1 + 1e-9), draw(st.integers(-3, 3))),
                      _ulps(math.pi - X0, draw(st.integers(-3, 3)))])
        a = a[:draw(st.integers(1, 3))]
    else:
        start = draw(st.sampled_from([0.0, 1e-300, 0.5, BELOW_PI - 1e-5])
                     | st.floats(0.0, math.pi))
        gaps = draw(st.lists(st.sampled_from(EDGE_GAPS + [0.0, 0.0])
                             | st.floats(0.0, 0.4), max_size=40))
        a = start + np.cumsum([0.0] + gaps)
    if draw(st.booleans()):
        a = np.append(a, draw(st.sampled_from([0.0, BELOW_PI, top])))
    a = np.sort(a[a <= top])
    return a if a.size else np.array([0.0])


@settings(max_examples=300, deadline=None)
@given(sorted_clouds())
def test_banded_dedup_equals_the_sine_of_every_gap(a):
    got = _dedup_sorted(a, DEFAULT_TOLS.dedup)
    assert got.tobytes() == reference_dedup_sorted(a, DEFAULT_TOLS.dedup).tobytes()


@settings(max_examples=200, deadline=None)
@given(sorted_clouds())
def test_banded_dedup_does_not_depend_on_the_chunk(a):
    want = reference_dedup_sorted(a, DEFAULT_TOLS.dedup).tobytes()
    for chunk in (1, 3, 7):
        with mock.patch.object(flags, "CLOSED_FORM_CHUNK", chunk):
            assert _dedup_sorted(a, DEFAULT_TOLS.dedup).tobytes() == want


@pytest.mark.parametrize("k", range(-3, 4))
@pytest.mark.parametrize("base", [X0, X0 * (1 - 1e-9), X0 * (1 + 1e-9),
                                  math.pi - X0])
def test_banded_dedup_at_the_band_edges(base, k):
    g = _ulps(base, k)
    for a in (np.array([0.0, g]), np.array([0.0, g, 2 * g]),
              np.array([0.5, 0.5 + g, 1.5])):
        a = a[a < math.pi]
        assert (_dedup_sorted(a, DEFAULT_TOLS.dedup).tobytes()
                == reference_dedup_sorted(a, DEFAULT_TOLS.dedup).tobytes())


@pytest.mark.parametrize("resolution", [0.0, -1e-6, 0.75, 1.0, 2.0, math.nan])
def test_banded_dedup_refuses_resolutions_outside_its_range(resolution):
    with pytest.raises(InvalidParameterError, match="resolution"):
        _dedup_sorted(np.array([0.0, 1.0]), resolution)


@settings(max_examples=300, deadline=None)
@given(sorted_clouds(top=math.pi), sorted_clouds(top=math.pi))
def test_pruned_hausdorff_equals_the_full_scan(xs, ys):
    assert _hausdorff_sorted(xs, ys) == reference_hausdorff_sorted(xs, ys)


@pytest.mark.parametrize("xs, ys", [
    ([0.0], [math.pi]), ([0.0, 0.0], [math.pi]), ([0.0], [0.0]),
    ([0.0, 1.0], [1.0, math.pi]), ([math.pi], [0.0]), ([BELOW_PI], [0.0]),
])
def test_pruned_hausdorff_at_the_ends_of_the_range(xs, ys):
    xs, ys = np.array(xs), np.array(ys)
    assert _hausdorff_sorted(xs, ys) == reference_hausdorff_sorted(xs, ys)
    assert _hausdorff_sorted(ys, xs) == reference_hausdorff_sorted(ys, xs)


def test_pruned_kernels_match_the_full_scans_on_the_bundled_depth8_clouds():
    fam = load_scenario(bundled_scenario_path()).family
    clouds = []
    for rep in [fam.base] + [fam.members[i] for i in fam.indices]:
        raw, _, _ = _free2_angles(_letters([rep["a"], rep["b"]]), 8,
                                  DEFAULT_TOLS.gap_threshold)
        got = _dedup_sorted(raw, DEFAULT_TOLS.dedup)
        assert got.tobytes() == reference_dedup_sorted(raw, DEFAULT_TOLS.dedup).tobytes()
        clouds.append(got)
    for x in clouds:
        for y in clouds:
            assert _hausdorff_sorted(x, y) == reference_hausdorff_sorted(x, y)
