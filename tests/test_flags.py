"""Lines, divergence, and RP^1 limit sets, checked against closed forms.

Every attracting-line angle comes from the closed 2x2 forms, never an SVD,
so the key tests here compare the clouds element by element against one
SVD per ball element on the same ball.
"""
import gc
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis import assume

from rhfill.automata import _witness_margin
from rhfill.errors import (BudgetExceededError, InvalidParameterError,
                           UnsupportedKindError)
from rhfill.flags import (FlagCloud, ball_images, classify, generator_images,
                          line_distance, q_divergence, q_limit_set)
from rhfill.flags import (_dedup_sorted, _free2_angles, _hausdorff_sorted,
                          _line_angles, _projective, _sorted_rp1)
from rhfill import flags
from rhfill.scenarios import bundled_scenario_path, load_scenario
from rhfill.tolerances import DEFAULT_TOLS
from rhfill.convergence import elliptic_generators
from rhfill.groups import (ball_tree, enumerate_ball, make_filling, make_oracle,
                           standard_f2_pair)
from reference_windows import (hausdorff_rp1, reference_classify,
                               reference_dedup_sorted, reference_free2_angles,
                               reference_hausdorff_sorted, reference_svd_cloud,
                               svd_gaps, svd_line_angle, svd_margin,
                               traced_peak, unit_vector)

SANOV_A = np.array([[1.0, 2.0], [0.0, 1.0]])
SANOV_B = np.array([[1.0, 0.0], [2.0, 1.0]])


@pytest.fixture(scope="module")
def f2():
    return make_oracle({"kind": "free-product",
                        "factors": [{"kind": "free-abelian", "rank": 1},
                                    {"kind": "free-abelian", "rank": 1}]})


def _attracting(m):
    """The attracting-line angle of one matrix from the closed forms (None
    when its gap does not clear the threshold), and its singular gap."""
    m = np.asarray(m, dtype=float)
    angles = _line_angles(m[None], DEFAULT_TOLS.gap_threshold)
    return (float(angles[0]) if angles.size else None), q_divergence([m]).gaps[0]


# ---------------------------------------------------------------------------
# matrices and lines


def test_projective_normalization():
    m = _projective([[-3.0, 0.0], [0.0, -1.0]])
    assert np.isclose(np.linalg.norm(m), 1.0)
    assert m[0, 0] > 0  # sign fixed by first nonzero entry
    same = _projective([[6.0, 0.0], [0.0, 2.0]])
    np.testing.assert_allclose(m, same, atol=1e-12, rtol=0.0)
    # the first nonzero entry decides the sign, not the first entry
    np.testing.assert_array_equal(_projective([[0.0, -3.0], [4.0, 0.0]]),
                                  [[0.0, 0.6], [-0.8, 0.0]])


def test_projective_rejects_singular():
    # invertibility is exact: determinants of 2^-52 and 2^-1074 (the least
    # subnormal) make invertible images, however ill-conditioned
    for image in ([[1.0, 1.0], [1.0, 1.0 + 2.0 ** -52]],
                  [[1.0, 0.0], [0.0, 5e-324]]):
        assert generator_images({"a": image}, ["a"])["a"].tolist() == image
    with pytest.raises(InvalidParameterError, match="^a: matrix is singular"):
        generator_images({"a": [[1.0, 2.0], [2.0, 4.0]]}, ["a"])
    with pytest.raises(InvalidParameterError, match="^a: need a square"):
        generator_images({"a": [[1.0, 2.0, 3.0]]}, ["a"])


def test_flag_distance_is_sine_of_angle():
    for theta in (0.1, 0.7, 1.3):
        assert line_distance(0.0, theta) == pytest.approx(math.sin(theta),
                                                          abs=1e-12)
    assert line_distance(0.3, 0.3) == 0.0
    assert line_distance(0.3, 0.3 + math.pi) == pytest.approx(0.0, abs=1e-15)


def _projector(angle: float) -> np.ndarray:
    v = unit_vector(angle)
    return np.outer(v, v)


@st.composite
def line_pairs(draw):
    """Two line angles anywhere in [-10, 10] + k pi: equal, a few ulp or a
    tiny angle apart, a multiple of pi apart, or unrelated."""
    s = draw(st.floats(-10.0, 10.0))
    offset = draw(st.sampled_from([0.0, 5e-324, 1e-300, 1e-15, -1e-15, 1e-9,
                                   -1e-9, math.pi / 2])
                  | st.floats(-math.pi, math.pi))
    k = draw(st.integers(-2, 2))
    return s, s + offset + k * math.pi


@settings(max_examples=400, deadline=None)
@given(line_pairs())
def test_line_distance_and_margin_match_the_matrix_forms(pair):
    s, t = pair
    dist = line_distance(s, t)
    margin = float(_witness_margin(s, t))
    # the projector metric, and the sine of the angle psi between the lines
    # from the margin sqrt(2) sin(psi / 2): sin psi = m sqrt(2 - m^2)
    assert dist == pytest.approx(
        np.linalg.norm(_projector(s) - _projector(t), 2), abs=1e-13)
    assert dist == pytest.approx(margin * math.sqrt(2.0 - margin ** 2),
                                 abs=1e-13)
    # the smaller singular value of [v | w], which the margin replaces
    assert margin == pytest.approx(svd_margin(s, t), abs=1e-13)
    assert 0.0 <= margin <= 1.0 + 1e-15
    # symmetric up to the rounding of a tiny negative difference mod pi
    assert margin == pytest.approx(float(_witness_margin(t, s)), abs=1e-15)


# ---------------------------------------------------------------------------
# attracting lines


def test_attracting_flag_diagonal():
    angle, gap = _attracting(np.diag([3.0, 1 / 3]))
    assert angle == 0.0
    assert gap == pytest.approx(9.0)


def test_attracting_flag_rotation_has_no_gap():
    c, s = math.cos(0.3), math.sin(0.3)
    angle, gap = _attracting([[c, -s], [s, c]])
    assert angle is None and gap <= DEFAULT_TOLS.gap_threshold


@pytest.mark.parametrize("n", [5, 10, 20])
def test_attracting_flag_parabolic_powers(n):
    # a^n = [[1, 2n], [0, 1]]; the top singular value squared solves
    # x^2 - (2 + 4n^2) x + 1 = 0 and the gap equals it (det = 1)
    angle, gap = _attracting(np.linalg.matrix_power(SANOV_A, n))
    T = 2 + 4 * n * n
    assert gap == pytest.approx((T + math.sqrt(T * T - 4)) / 2, rel=1e-12)
    assert line_distance(angle, 0.0) == pytest.approx(math.sin(angle))
    # approaches span(e1) like 1/(2n), an order short of the 1e-2 mark at n=5
    assert angle == pytest.approx(1 / (2 * n), rel=0.03)
    assert line_distance(angle, svd_line_angle(
        np.linalg.matrix_power(SANOV_A, n), 1.0)) < 1e-15


def test_attracting_flag_scale_invariant():
    g = np.array([[2.0, 1.0], [1.0, 1.0]])
    base, _ = _attracting(g)
    for lam in (2.5, -0.3, 7.0):
        scaled, _ = _attracting(lam * g)
        assert line_distance(base, scaled) < 1e-12


def test_attracting_flag_powers_converge():
    # non-normal, so the singular direction genuinely moves with n
    g = np.array([[2.0, 1.0], [0.0, 0.5]])
    angles = [_attracting(np.linalg.matrix_power(g, n))[0] for n in range(1, 8)]
    steps = [line_distance(a, b) for a, b in zip(angles, angles[1:])]
    assert all(a > b for a, b in zip(steps, steps[1:]))
    # contraction tracks the eigenvalue ratio (1/4 per step)
    assert steps[-1] / steps[-2] == pytest.approx(0.25, rel=0.01)
    assert steps[-1] < 1e-4


# ---------------------------------------------------------------------------
# transversality


def test_transverse_lines():
    margin = float(_witness_margin(0.0, math.pi / 2))
    assert margin == pytest.approx(1.0, abs=1e-15)
    assert margin > DEFAULT_TOLS.transversality
    assert float(_witness_margin(0.3, 0.3)) == 0.0
    assert svd_margin(0.3, 0.3) == pytest.approx(0.0, abs=1e-12)
    # between those the margin sqrt(2) sin(psi / 2) is below the sine
    # metric, so a radius between the two passes only the sine metric
    psi = math.pi / 6
    margin = float(_witness_margin(0.0, psi))
    assert margin == pytest.approx(math.sqrt(2.0) * math.sin(psi / 2))
    assert margin < line_distance(0.0, psi)


# ---------------------------------------------------------------------------
# divergence


def _powers(g, n):
    return [np.linalg.matrix_power(g, k) for k in range(1, n + 1)]


def test_divergent_hyperbolic_powers():
    g = np.diag([2.0, 0.5])
    cert = q_divergence(_powers(g, 8))
    assert cert.verdict == "divergent"
    assert cert.limit_angle == 0.0
    assert q_divergence(_powers(np.linalg.inv(g), 8)).limit_angle == \
        pytest.approx(math.pi / 2)
    assert cert.gaps[-1] == pytest.approx(4.0 ** 8)


def test_bounded_rotations():
    rots = [np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
            for t in np.linspace(0.1, 1.5, 8)]
    cert = q_divergence(rots)
    assert cert.verdict == "bounded" and cert.limit_angle is None


def test_inconclusive_cases():
    g = np.diag([2.0, 0.5])
    # constant sequence: gaps above threshold but not growing
    assert q_divergence([g] * 8).verdict == "inconclusive"
    # shorter than the tail window
    assert q_divergence([g] * 3).verdict == "inconclusive"


def test_divergent_parabolic_powers():
    cert = q_divergence(_powers(SANOV_A, 8))
    assert cert.verdict == "divergent"
    # both limits sit near span(e1), from opposite sides
    inverse = q_divergence(_powers(np.linalg.inv(SANOV_A), 8))
    assert line_distance(cert.limit_angle, 0.0) < math.sin(0.07)
    assert line_distance(inverse.limit_angle, 0.0) < math.sin(0.07)
    assert cert.limit_angle < math.pi / 2 < inverse.limit_angle


def test_divergence_refuses_other_sizes():
    with pytest.raises(UnsupportedKindError):
        q_divergence([np.eye(3)] * 6)
    with pytest.raises(UnsupportedKindError):
        q_divergence([np.eye(2)] * 5 + [np.eye(3)])
    with pytest.raises(InvalidParameterError):
        q_divergence([])


def test_divergent_sequence_attracts_transverse_flags():
    # for eta transverse to the repelling line, g^n eta -> attracting line
    g = _projective([[2.0, 1.0], [1.0, 1.0]])
    powers = _powers(g, 12)
    cert = q_divergence(powers)
    assert cert.verdict == "divergent"
    repelling = q_divergence(_powers(np.linalg.inv(g), 12)).limit_angle
    rng = np.random.default_rng(7)
    sups = []
    for n in (4, 8, 12):
        sup, used = 0.0, 0
        while used < 100:
            eta = float(rng.uniform(0.0, math.pi))
            if float(_witness_margin(eta, repelling)) < 0.05:
                continue
            used += 1
            x, y = powers[n - 1] @ unit_vector(eta)
            sup = max(sup, line_distance(math.atan2(y, x), cert.limit_angle))
        sups.append(sup)
    assert sups[0] > sups[1] > sups[2]
    assert sups[2] < 1e-5


@st.composite
def divergent_powers(draw):
    """Powers 1..8 of R(alpha) [[lam, shear], [0, 1/lam]] R(-alpha): a
    hyperbolic (lam > 1) or parabolic (lam = 1) matrix in any position,
    scaled and possibly negated."""
    alpha = draw(st.floats(-math.pi, math.pi))
    lam = draw(st.sampled_from([1.0]) | st.floats(1.05, 3.0))  # gaps < 1e12
    shear = draw(st.floats(-3.0, 3.0).filter(lambda x: lam > 1 or abs(x) > 0.1))
    r = np.array(_rotation(alpha))
    m = r @ np.array([[lam, shear], [0.0, 1 / lam]]) @ r.T
    scale = draw(st.sampled_from([1.0, -1.0, 1e-3, -7.5]))
    return [scale * p for p in _powers(m, 8)]


@settings(max_examples=200, deadline=None)
@given(divergent_powers())
def test_divergence_limit_angle_matches_the_svd(seq):
    cert = q_divergence(seq)
    assume(cert.verdict == "divergent")
    ref = svd_line_angle(seq[-1], 1.0)
    assert line_distance(cert.limit_angle, ref) < 1e-12
    assert 0.0 <= cert.limit_angle < math.pi
    # both forms lose the small singular value to an absolute error of a
    # few ulp of the large one, so they agree to a few ulp times the gap
    for gap, want in zip(cert.gaps, svd_gaps(seq)):
        assert gap == pytest.approx(want, rel=1e-12 + 1e-14 * want)


@st.composite
def dyadic_matrices(draw):
    """Invertible 2x2 matrices of integers in [-10, 10] times one power of
    two.  The gap is at most 400, so the SVD's relative error, a few ulp
    times the gap, stays far below 1e-12."""
    m = np.array(draw(st.lists(st.integers(-10, 10), min_size=4, max_size=4)),
                 float).reshape(2, 2)
    assume(m[0, 0] * m[1, 1] != m[0, 1] * m[1, 0])
    return m * 2.0 ** draw(st.integers(-40, 40))


@settings(max_examples=300, deadline=None)
@given(st.lists(dyadic_matrices(), min_size=1, max_size=8))
def test_divergence_gaps_match_the_svd(seq):
    assert q_divergence(seq).gaps == pytest.approx(svd_gaps(seq), rel=1e-12)


# ---------------------------------------------------------------------------
# exact classification


def _dyadic(draw):
    return draw(st.integers(-2 ** 20, 2 ** 20)) * 2.0 ** draw(st.integers(-60, 60))


@st.composite
def classifiable(draw):
    """Integer matrices, matrices of unrelated dyadic entries, multiples of
    I, and matrices of trace +-2 and det 1 (b a power of two, so that c is
    exact) or a dyadic rescaling of one."""
    kind = draw(st.sampled_from(["integer", "dyadic", "scalar", "trace-2"]))
    if kind == "integer":
        m = np.array(draw(st.lists(st.integers(-6, 6), min_size=4,
                                   max_size=4)), float).reshape(2, 2)
    elif kind == "dyadic":
        m = np.array([_dyadic(draw) for _ in range(4)]).reshape(2, 2)
    elif kind == "scalar":
        m = _dyadic(draw) * np.eye(2)
    else:
        t = draw(st.sampled_from([2.0, -2.0]))
        a = draw(st.integers(-2 ** 10, 2 ** 10)) * 2.0 ** draw(st.integers(-10, 0))
        b = draw(st.sampled_from([1.0, -1.0])) * 2.0 ** draw(st.integers(-8, 8))
        m = np.array([[a, b], [(a * (t - a) - 1) / b, t - a]])
        m *= 2.0 ** draw(st.integers(-30, 30)) * draw(st.sampled_from([1, 3, -5]))
    assume(m[0, 0] * m[1, 1] != m[0, 1] * m[1, 0])
    return m


@settings(max_examples=500, deadline=None)
@given(classifiable())
def test_classify_matches_the_rational_reference(m):
    assert classify(m) == reference_classify(m)


@pytest.mark.parametrize("m,kind", [
    (np.eye(2), "identity"), (-np.eye(2), "identity"),
    (5e-300 * np.eye(2), "identity"), ([[0.0, 1.0], [-1.0, 0.0]], "elliptic"),
    ([[1.0, 0.0], [0.0, -1.0]], "elliptic"),      # an involution, det -1
    ([[1.0, 1.0], [1.0, -1.0]], "elliptic"),
    (SANOV_A, "parabolic"), (-SANOV_B, "parabolic"),
    ([[3.0, -4.0], [1.0, -1.0]], "parabolic"),    # trace 2, det 1
    (np.diag([2.0, 0.5]), "loxodromic"), ([[2.0, 1.0], [1.0, -1.0]], "loxodromic"),
])
def test_classify_on_named_kinds(m, kind):
    assert classify(np.asarray(m, float)) == kind


def test_classify_is_exact_where_floats_round_the_discriminant_to_zero():
    # with a = 1 + x, b = d = 1 and c = z the discriminant is x^2 + 4z:
    # here 2^-78 > 0, a loxodromic, but tr^2 - 4 det in floats rounds to 0
    x, z = 2.0 ** -30, -2.0 ** -62 + 2.0 ** -80
    m = np.array([[1.0 + x, 1.0], [z, 1.0]])
    t, det = m[0, 0] + m[1, 1], m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    assert t * t - 4 * det == 0.0
    assert classify(m) == reference_classify(m) == "loxodromic"
    m[1, 0] = -2.0 ** -62                      # now exactly parabolic
    assert classify(m) == reference_classify(m) == "parabolic"


# ---------------------------------------------------------------------------
# limit sets


def test_limit_set_of_one_hyperbolic():
    z = make_oracle({"kind": "free-abelian", "rank": 1})
    cloud = q_limit_set({"a": np.diag([2.0, 0.5])}, z, 10)
    assert np.allclose(cloud.angles, [0.0, math.pi / 2])
    assert cloud.words_seen == 21
    assert cloud.gap_rejections == 1  # the identity


@pytest.mark.parametrize("rep,message", [
    ({"a": SANOV_A, "b": [[1.0, 2.0], [2.0, 4.0]]}, "b: matrix is singular"),
    ({"a": SANOV_A}, "b: no image given"),
    ({"a": SANOV_A, "b": SANOV_B, "c": SANOV_B}, "c: not a generator"),
    ({"a": SANOV_A, "b": np.eye(3)}, "b: 3x3 matrix, the other images are 2x2"),
    # exactly invertible, but np.linalg.norm, which _projective divides
    # by, is inf or 0 on them
    ({"a": [[1e300, 1e300], [0.0, 1e300]], "b": SANOV_B},
     "a: matrix norm overflows"),
    ({"a": [[1e-300, 0.0], [0.0, 1e-300]], "b": SANOV_B},
     "a: matrix norm underflows"),
])
def test_limit_set_refuses_bad_images_naming_the_generator(f2, rep, message):
    with pytest.raises(InvalidParameterError, match=f"^{message}"):
        q_limit_set(rep, f2, 2)


def test_limit_set_refuses_d3(f2):
    with pytest.raises(UnsupportedKindError, match="^a: .*d = 2.*, got d = 3"):
        q_limit_set(D3_REP, f2, 2)


def test_limit_set_depth_zero_empty(f2):
    cloud = q_limit_set({"a": SANOV_A, "b": SANOV_B}, f2, 0)
    assert cloud.size == 0


def test_limit_set_commuting_diagonals():
    z2 = make_oracle({"kind": "free-abelian", "rank": 2})
    cloud = q_limit_set({"a": np.diag([2.0, 0.5]), "b": np.diag([3.0, 1 / 3])},
                        z2, 4)
    assert np.allclose(cloud.angles, [0.0, math.pi / 2])


def _assert_matches_svd_cloud(cloud, rep, oracle, depth):
    ref, seen, rejected = reference_svd_cloud(
        rep, oracle, depth, DEFAULT_TOLS.gap_threshold, DEFAULT_TOLS.dedup)
    assert (cloud.words_seen, cloud.gap_rejections) == (seen, rejected)
    assert ref.size == cloud.size
    assert np.max(np.abs(ref - cloud.angles), initial=0.0) < 1e-12


def test_batch_route_matches_per_element_svd(f2):
    rep = {"a": SANOV_A, "b": SANOV_B}
    cloud = q_limit_set(rep, f2, 4)
    assert cloud.words_seen == 161
    assert cloud.gap_rejections == 1
    assert cloud.size == 140
    _assert_matches_svd_cloud(cloud, rep, f2, 4)


def _syllable_image(rep, oracle, g):
    """Reference image: one matrix power per syllable, then unit |det|."""
    m = np.eye(next(iter(rep.values())).shape[0])
    for name, power in oracle.syllables(g):
        m = m @ np.linalg.matrix_power(rep[name], power)
    return m / abs(np.linalg.det(m)) ** (1.0 / m.shape[0])


D3_REP = {"a": np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.5]]),
          "b": np.array([[0.5, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 2.0]])}


@pytest.mark.parametrize("rep", [{"a": SANOV_A, "b": SANOV_B},
                                 elliptic_generators(10)],
                         ids=["sanov", "elliptic-10"])
def test_ball_images_match_syllable_products(f2, rep):
    tree = ball_tree(f2, 6)
    images = ball_images(rep, f2, tree)
    assert images.shape == (len(tree.elements),) + rep["a"].shape
    for g, m in zip(tree.elements, images):
        ref = _syllable_image(rep, f2, g)
        assert np.linalg.norm(m - ref) <= 1e-9 * np.linalg.norm(ref)


def test_ball_images_of_z2_stay_finite_at_depth_10():
    # b = a^2, so a^2 b^-1 and its powers map to the identity; rescaling
    # each level by its computed determinant divided two long words by a
    # det that rounds to 0, which gave inf and NaN images (two rejections)
    z2 = make_oracle({"kind": "free-abelian", "rank": 2})
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    rep = {"a": a, "b": a @ a}
    unit = {n: m / np.linalg.norm(m) for n, m in rep.items()}   # as q_limit_set
    tree = ball_tree(z2, 10)
    assert np.all(np.isfinite(ball_images(unit, z2, tree)))
    with warnings.catch_warnings():     # some long words' det cancels to 0
        warnings.simplefilter("error", RuntimeWarning)
        cloud = q_limit_set(rep, z2, 10)
    assert (cloud.words_seen, cloud.gap_rejections) == (len(tree.level), 7)


def test_closed_forms_take_a_cancelled_det_as_an_infinite_gap():
    # (1e8 + 1)(1e8 - 1) rounds to 1e16, so the det cancels to 0 although
    # it is -1; the gap inf clears the threshold, and no warning is raised
    m = np.array([[[1e8 + 1, 1e8], [1e8, 1e8 - 1]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        angles = _line_angles(m, DEFAULT_TOLS.gap_threshold)
        gaps = q_divergence(m).gaps
    assert gaps == (math.inf,)
    assert angles.tolist() == pytest.approx([math.pi / 4])


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


def _filled_quotient():
    return make_filling(standard_f2_pair(), {0: ["a^10"], 1: ["b^10"]}
                        ).quotient_group


# groups off the free route: the filled quotient with its elliptic images,
# Z^2 with commuting hyperbolic images (a^2 b^-1 maps to the identity), and
# Z * Z/5 with a rotation of order 5 in PGL(2, R)
GENERIC_CASES = {
    "filled-quotient": (_filled_quotient, elliptic_generators(10)),
    "z2": (lambda: make_oracle({"kind": "free-abelian", "rank": 2}),
           {"a": np.array([[2.0, 1.0], [1.0, 1.0]]),
            "b": np.array([[5.0, 3.0], [3.0, 2.0]])}),
    "z-z5": (lambda: make_oracle({
        "kind": "free-product",
        "factors": [{"kind": "free-abelian", "rank": 1},
                    {"kind": "finite-cyclic", "order": 5}]}),
        {"a": np.array([[2.0, 1.0], [1.0, 1.0]]),
         "b": np.array([[math.cos(math.pi / 5), -math.sin(math.pi / 5)],
                        [math.sin(math.pi / 5), math.cos(math.pi / 5)]])}),
}


def test_generic_limit_set_route_on_a_filled_quotient():
    quotient = _filled_quotient()
    rep = elliptic_generators(10)
    for depth in (3, 5, 6):
        cloud = q_limit_set(rep, quotient, depth)
        assert cloud.words_seen == len(enumerate_ball(quotient, depth))
        assert 0 < cloud.gap_rejections < cloud.words_seen
        _assert_matches_svd_cloud(cloud, rep, quotient, depth)


@pytest.mark.parametrize("case", ["z2", "z-z5"])
def test_generic_limit_set_route_matches_per_element_svd(case):
    make, rep = GENERIC_CASES[case]
    oracle = make()
    for depth in (1, 4, 6):
        cloud = q_limit_set(rep, oracle, depth)
        assert 0 < cloud.gap_rejections < cloud.words_seen
        _assert_matches_svd_cloud(cloud, rep, oracle, depth)


@pytest.mark.parametrize("case", sorted(GENERIC_CASES))
def test_generic_limit_set_route_does_not_depend_on_the_chunk(monkeypatch, case):
    # slices of 1, 3 and 7 images split every level of the tree, and with
    # rejected words inside a slice the kept angles are gathered per slice
    make, rep = GENERIC_CASES[case]
    oracle = make()
    want = {depth: q_limit_set(rep, oracle, depth) for depth in (0, 2, 5)}
    for chunk in (1, 3, 7):
        monkeypatch.setattr(flags, "CLOSED_FORM_CHUNK", chunk)
        for depth, ref in want.items():
            got = q_limit_set(rep, oracle, depth)
            assert got.angles.tobytes() == ref.angles.tobytes()
            assert (got.words_seen, got.gap_rejections) == \
                (ref.words_seen, ref.gap_rejections)


def test_sanov_cloud_respects_ping_pong(f2):
    # reduced words leading with a-letters attract inside |slope| <= 1,
    # words leading with b-letters inside |slope| >= 1
    rep = {"a": SANOV_A, "b": SANOV_B}
    for g in enumerate_ball(f2, 6):
        syl = f2.syllables(g)
        if not syl:
            continue
        m = np.eye(2)
        for name, power in syl:
            m = m @ np.linalg.matrix_power(rep[name], power)
        theta, _ = _attracting(m)
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
    # brute-force sup-min in the projector metric must agree with the sweep
    def projector_distance(s, t):
        return np.linalg.norm(_projector(s) - _projector(t), 2)
    sup = 0.0
    for a, b in ((xs, ys), (ys, xs)):
        for s in a:
            sup = max(sup, min(projector_distance(s, t) for t in b))
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
        e = _projective(m)
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
    ca = FlagCloud(a, len(xs), 0)
    cb = FlagCloud(b, len(ys), 0)
    assert ca.hausdorff(cb) == hausdorff_rp1(a, b) == _hausdorff_sorted(a, b)
    assert cb.hausdorff(ca) == hausdorff_rp1(b, a)


def test_cloud_hausdorff_refuses_empty_clouds():
    full = FlagCloud(np.array([0.1, 1.0]), 3, 1)
    empty = FlagCloud(np.empty(0), 1, 1)
    for x, y in ((full, empty), (empty, full), (empty, empty)):
        with pytest.raises(InvalidParameterError):
            x.hausdorff(y)


@pytest.mark.parametrize("angles", [[1.0, 0.5], [-0.1, 0.5], [0.5, 3.5],
                                    [0.5, math.nan]])
def test_cloud_hausdorff_refuses_unsorted_or_unreduced_angles(angles):
    bad = FlagCloud(np.array(angles), 3, 1)
    good = FlagCloud(np.array([0.1, 1.0]), 3, 1)
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
    # the output (8.1 MiB at 1,062,880 words) plus one block per level: the
    # switch level 9 (0.8 MiB) and one 6,561-word block for each of levels
    # 10 to 12 (0.6 MiB), then the dedup's mask and cloud; storing levels
    # 10 and 11 whole took 19.2 MiB, and level 12 with a full np.diff 37.4
    fam = load_scenario(bundled_scenario_path()).family
    peak = traced_peak(lambda: q_limit_set(fam.base, fam.pair.group, 12))
    assert peak <= 13 * 2 ** 20


def test_q_limit_set_leaves_no_cyclic_garbage():
    # with the collector off, memory held by a reference cycle would stay
    # allocated after the cloud is dropped
    fam = load_scenario(bundled_scenario_path()).family
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        cloud = q_limit_set(fam.base, fam.pair.group, 12)
        assert cloud.size > 0
        del cloud
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert left < 2 ** 20


def test_sorted_rp1_sends_a_rounded_up_pi_to_zero():
    # a tiny negative angle mod pi rounds up to pi; both Hausdorff paths
    # must see it as 0.0
    assert _sorted_rp1([-9.6e-208, 1.0]).tolist() == [0.0, 1.0]
    a, b = _sorted_rp1([1e-09]), _sorted_rp1([-9.6e-208])
    ca = FlagCloud(a, 1, 0)
    cb = FlagCloud(b, 1, 0)
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
