import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from scipy import integrate

from alloylab import disorder
from alloylab.disorder import (
    PiecewisePolynomialDensity,
    PiecewiseProfile,
    RaisedCosineDensity,
    SingleSitePotential,
    TensorProductFunction,
    bump_density,
    bump_profile,
    check_assumption,
    density_preset,
    hat_profile,
    polyline_profile,
    raised_cosine_density,
    sobolev_ratio,
)
from alloylab.lattice import box
from tests.dense_reference import fourier, mean_value
from tests.sample_reference import reference_quantile


def quad_abs(f, a, b, points):
    val, _ = integrate.quad(lambda t: abs(f(t)), a, b, points=points, limit=200)
    return val


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def test_bump_norms_exact():
    rho = bump_density()
    assert rho.support == (0.0, 1.0)
    assert rho.sup_norm == pytest.approx(30.0 / 16.0, abs=1e-14)
    assert rho.d1_norm == pytest.approx(3.75, abs=1e-13)
    # total variation of rho' with sign changes at 1/2 +- sqrt(3)/6
    assert rho.d2_norm == pytest.approx(40.0 * math.sqrt(3.0) / 3.0, abs=1e-12)


def test_bump_norms_against_quadrature():
    rho = bump_density()

    def d1(t):
        return 60.0 * t * (1.0 - t) * (1.0 - 2.0 * t)

    def d2(t):
        return 60.0 * (1.0 - 6.0 * t + 6.0 * t * t)

    r = math.sqrt(3.0) / 6.0
    assert rho.d1_norm == pytest.approx(quad_abs(d1, 0, 1, [0.5]), abs=1e-10)
    assert rho.d2_norm == pytest.approx(quad_abs(d2, 0, 1, [0.5 - r, 0.5 + r]), abs=1e-10)
    mass, _ = integrate.quad(rho.pdf, 0, 1)
    assert mass == pytest.approx(1.0, abs=1e-12)


def test_unimodal_variation_is_twice_the_peak():
    rho = bump_density()
    assert rho.d1_norm == pytest.approx(2.0 * rho.sup_norm, abs=1e-13)
    cos = raised_cosine_density()
    assert cos.d1_norm == pytest.approx(2.0 * cos.sup_norm, abs=1e-13)


def test_raised_cosine_closed_form():
    rho = raised_cosine_density()
    assert rho.sup_norm == 2.0
    assert rho.d1_norm == 4.0
    assert rho.d2_norm == pytest.approx(8.0 * math.pi, abs=1e-13)
    mass, _ = integrate.quad(rho.pdf, 0, 1)
    assert mass == pytest.approx(1.0, abs=1e-12)

    def d2(t):
        return 4.0 * math.pi**2 * math.cos(2.0 * math.pi * t)

    assert rho.d2_norm == pytest.approx(quad_abs(d2, 0, 1, [0.25, 0.75]), abs=1e-9)


def test_density_presets():
    assert isinstance(density_preset("bump"), PiecewisePolynomialDensity)
    assert isinstance(density_preset("raised_cosine"), RaisedCosineDensity)
    with pytest.raises(ValueError):
        density_preset("nope")


def test_zero_length_support_rejected():
    with pytest.raises(ValueError):
        PiecewiseProfile((0.5, 0.5), ((1.0,),))


@pytest.mark.parametrize(
    "breakpoints, coefficients",
    [
        ((0.0, 1.0), ((0.0, 0.0, math.nan, -60.0, 30.0),)),
        ((0.0, 1.0), ((math.inf,),)),
        ((0.0, math.inf), ((0.0, 0.0, 30.0, -60.0, 30.0),)),
        ((math.nan, 1.0), ((0.0, 0.0, 30.0, -60.0, 30.0),)),
        ((0.0, 1.0), ((0.0, 0.0, 1e308, -60.0, 30.0),)),  # finite, but its derivative's 2e308 is not
    ],
)
def test_profile_refuses_non_finite_breakpoints_or_coefficients(breakpoints, coefficients):
    # a NaN coefficient surfaced as numpy's LinAlgError from polyroots
    with pytest.raises(ValueError, match=r"breakpoints .* and coefficients .* must be finite"):
        PiecewiseProfile(breakpoints, coefficients)


@pytest.mark.parametrize("breakpoints, mass", [((0.0, 1e308), "inf"), ((1e300, 1e308), "nan")])
def test_density_table_past_the_doubles_is_refused_by_its_mass(breakpoints, mass):
    # finite entries whose values overflow: refused without a RuntimeWarning; a NaN
    # mass (inf - inf) passed the mass check and ended in an OverflowError traceback
    with pytest.raises(ValueError, match=f"density mass is {mass}"):
        PiecewisePolynomialDensity(PiecewiseProfile(breakpoints, bump_profile().coefficients))


def test_unnormalized_density_rejected():
    half = PiecewiseProfile((0.0, 1.0), ((0.0, 0.0, 15.0, -30.0, 15.0),))
    with pytest.raises(ValueError):
        PiecewisePolynomialDensity(half)


def test_uniform_density_not_in_sobolev_class():
    # discontinuous at the edges: rejected at construction
    flat = PiecewiseProfile((0.0, 1.0), ((1.0,),))
    with pytest.raises(ValueError):
        PiecewisePolynomialDensity(flat)


def test_kinked_density_rejected():
    # triangle density: continuous but derivative jumps, so no integrable
    # second derivative
    tent = polyline_profile([0.0, 0.5, 1.0], [0.0, 2.0, 0.0])
    with pytest.raises(ValueError):
        PiecewisePolynomialDensity(tent)


def test_cdf_quantile_roundtrip():
    for rho in (bump_density(), raised_cosine_density()):
        q = np.linspace(1e-6, 1.0 - 1e-6, 101)
        t = rho.quantile(q)
        assert np.all(np.diff(t) > 0)
        assert np.max(np.abs(rho.cdf(t) - q)) < 1e-10


def spline_density():
    # C^1 cubic pair glued at 1/2: 24t^2 - 32t^3 mirrored; peak 2, flat
    # derivative at 0, 1/2, 1
    profile = PiecewiseProfile(
        (0.0, 0.5, 1.0),
        ((0.0, 0.0, 24.0, -32.0), (-8.0, 48.0, -72.0, 32.0)),
    )
    return PiecewisePolynomialDensity(profile)


def skewed_density():
    # smoothstep up to 2 on [0, 1/4], smoothstep down on [1/4, 1]: C^1, asymmetric
    profile = PiecewiseProfile(
        (0.0, 0.25, 1.0),
        ((0.0, 0.0, 96.0, -256.0), (32 / 27, 192 / 27, -480 / 27, 256 / 27)),
    )
    return PiecewisePolynomialDensity(profile)


def test_two_piece_spline_density():
    rho = spline_density()
    assert rho.sup_norm == pytest.approx(2.0, abs=1e-13)
    assert rho.d1_norm == pytest.approx(4.0, abs=1e-13)
    # rho'' changes sign at 1/4 and 3/4; rho' peaks at +-6
    assert rho.d2_norm == pytest.approx(24.0, abs=1e-12)
    assert rho.cdf(0.5) == pytest.approx(0.5, abs=1e-14)
    q = np.linspace(0.01, 0.99, 51)
    assert np.max(np.abs(rho.cdf(rho.quantile(q)) - q)) < 1e-10


def reference_cdf(rho, t):
    """The piecewise CDF written out, integrating each piece on every call."""
    t = np.asarray(t, dtype=float)
    bp = np.asarray(rho.profile.breakpoints)
    masses = []
    for (a, b), c in zip(zip(bp, bp[1:]), rho.profile.coefficients):
        anti = npoly.polyint(np.asarray(c))
        masses.append(npoly.polyval(b, anti) - npoly.polyval(a, anti))
    cum = np.concatenate([[0.0], np.cumsum(np.asarray(masses))])
    out = np.zeros_like(t)
    out[t >= bp[-1]] = 1.0
    inside = (t >= bp[0]) & (t < bp[-1])
    if np.any(inside):
        idx = np.clip(np.searchsorted(bp, t[inside], side="right") - 1, 0, len(masses) - 1)
        vals = np.empty(idx.shape)
        for i, coeffs in enumerate(rho.profile.coefficients):
            mask = idx == i
            if np.any(mask):
                anti = npoly.polyint(np.asarray(coeffs))
                vals[mask] = npoly.polyval(t[inside][mask], anti) - npoly.polyval(bp[i], anti)
        out[inside] = cum[idx] + vals
    return out


def reference_pdf(rho, t):
    """The piecewise density written out: ``polyval`` on each piece, 0 outside the support."""
    t = np.asarray(t, dtype=float)
    bp = rho.profile.breakpoints
    out = np.zeros_like(t)
    idx = rho.profile.piece_index(t)
    for i, coeffs in enumerate(rho.profile.coefficients):
        mask = (t >= bp[0]) & (t <= bp[-1]) & (idx == i)
        out[mask] = npoly.polyval(t[mask], coeffs)
    return out


PIECEWISE_DENSITIES = {"bump": bump_density(), "spline": spline_density(), "skewed": skewed_density()}


def uncached_node_values(profile):
    """Per piece, the profile at its ends and at a fresh scan of its critical points."""
    values = []
    for (a, b), c in zip(zip(profile.breakpoints, profile.breakpoints[1:]), profile.coefficients):
        roots = disorder._real_roots_in(npoly.polyder(c) if len(c) > 1 else np.zeros(1), a, b)
        values.append(npoly.polyval(np.asarray([a, *roots, b]), np.asarray(c)))
    return values


PROFILE_DENSITIES = {
    **{name: density_preset(name) for name in disorder.DENSITY_PRESETS},
    **PIECEWISE_DENSITIES,
}


@pytest.mark.parametrize(
    "name", [name for name, rho in PROFILE_DENSITIES.items() if isinstance(rho, PiecewisePolynomialDensity)]
)
def test_profile_norms_equal_an_uncached_scan(name):
    rho = PROFILE_DENSITIES[name]

    def variation(values):
        return sum(float(np.sum(np.abs(np.diff(v)))) for v in values)

    values = uncached_node_values(rho.profile)
    assert rho.sup_norm == max(float(np.max(np.abs(v))) for v in values)
    assert rho.profile.min_value() == min(float(np.min(v)) for v in values)
    assert rho.d1_norm == variation(values)
    assert rho.d2_norm == variation(uncached_node_values(rho.profile.derivative()))


def test_a_density_build_scans_the_profile_and_its_derivative_once(monkeypatch):
    scans = []
    real = disorder._real_roots_in
    monkeypatch.setattr(disorder, "_real_roots_in", lambda *args: scans.append(args) or real(*args))
    for rho in PIECEWISE_DENSITIES.values():
        profile = PiecewiseProfile(rho.profile.breakpoints, rho.profile.coefficients)
        scans.clear()
        PiecewisePolynomialDensity(profile)
        # one root search per piece for the profile, and one for its derivative
        assert len(scans) == 2 * profile.n_pieces


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(PIECEWISE_DENSITIES)),
    points=st.lists(st.floats(-0.5, 1.5, allow_nan=False), min_size=1, max_size=40),
    seed=st.integers(0, 2**32 - 1),
)
def test_cdf_matches_reference_bit_for_bit(name, points, seed):
    rho = PIECEWISE_DENSITIES[name]
    # drawn points, a dense uniform spread (drawn floats favour short binary
    # fractions, on which a reordered sum often keeps its bits), every
    # breakpoint, and points on both sides of the support
    spread = np.random.default_rng(seed).uniform(-0.25, 1.25, 256).tolist()
    edges = list(rho.profile.breakpoints) + [-1.0, -1e-300, 1.0 + 1e-15, 2.0]
    t = np.array(points + spread + edges)
    assert rho.cdf(t).tobytes() == reference_cdf(rho, t).tobytes()
    assert rho.pdf(t).tobytes() == reference_pdf(rho, t).tobytes()
    for x in t[:5]:
        assert rho.cdf(float(x)) == reference_cdf(rho, x)
        assert rho.pdf(float(x)) == reference_pdf(rho, x)


def test_quantile_pinned_values():
    # the literal sampling contract: a new quantile algorithm must change these on purpose
    q = [1e-9, 0.25, 0.5, 0.9, 1.0 - 1e-9]
    assert bump_density().quantile(q).tolist() == [
        0.0004642666604013357, 0.3594361647896471, 0.5,
        0.7533635467115333, 0.9995357333541506,
    ]
    assert spline_density().quantile(q).tolist() == [
        0.000500083374845417, 0.36680737391856777, 0.5,
        0.7438629777772492, 0.9994999168706117,
    ]


EDGE_QUANTILES = [0.0, 1.0, 1.0 - 2.0**-53, 5e-324, math.nan, math.inf, -math.inf, -0.5, 1.5]
# q from 1e-300 to 1e-11 and 1 - q from 1e-11 to 1e-15: the far tails, where rho is small
TAIL_QUANTILES = [10.0**-e for e in range(300, 10, -1)] + [1.0 - 10.0**-e for e in range(11, 16)]


def double_zero_density():
    # rho = c t^2 (1 - t)^2 (t - 1/3)^2: the density vanishes inside its support too
    shape = npoly.polymul(npoly.polymul([0, 0, 1], [1, -2, 1]), [1 / 9, -2 / 3, 1])
    anti = npoly.polyint(shape)
    coefficients = tuple(shape / (npoly.polyval(1.0, anti) - npoly.polyval(0.0, anti)))
    return PiecewisePolynomialDensity(PiecewiseProfile((0.0, 1.0), (coefficients,)))


def half_cell(rho):
    """Half the cell of the bisection to ``QUANTILE_TOL`` on ``rho``'s support."""
    a, b = rho.support
    return (b - a) / 2 ** (math.ceil(math.log2((b - a) / disorder.QUANTILE_TOL)) + 1)


def crossing_checked(rho, q, t):
    """Rows where ``cdf(t - h/2) < q <= cdf(t + h/2)``: the bisection's own guarantee on its cell ``h``."""
    half = half_cell(rho)
    return (rho.cdf(t - half) < q) & ~(rho.cdf(t + half) < q)


def same_bits(x, y):
    return np.asarray(x, dtype=float).view(np.int64) == np.asarray(y, dtype=float).view(np.int64)


def assert_checked_or_bisected(rho, q):
    """Every row passes the crossing check or carries the plain bisection's bits, at any shape."""
    t = rho.quantile(q)
    assert np.all(crossing_checked(rho, q, t) | same_bits(t, reference_quantile(rho, q)))
    # rows are independent of each other: the same bits as a grid and one at a time
    grid = q[: q.size // 2 * 2].reshape(2, -1)
    assert rho.quantile(grid).tobytes() == t[: q.size // 2 * 2].tobytes()
    for row in (0, 4, q.size - 1):
        value = rho.quantile(np.float64(q[row]))
        assert type(value) is float and same_bits(value, t[row])


def moved(profile, scale, shift, split=None):
    """``rho((t - shift) / scale) / scale`` as a profile; ``split`` in (0, 1) cuts its first piece there."""
    inner = npoly.Polynomial([-shift / scale, 1.0 / scale])
    breakpoints = [shift + scale * t for t in profile.breakpoints]
    coefficients = [tuple((npoly.Polynomial(c)(inner) / scale).coef) for c in profile.coefficients]
    if split is not None:
        breakpoints.insert(1, breakpoints[0] + split * (breakpoints[1] - breakpoints[0]))
        coefficients.insert(0, coefficients[0])
    return PiecewiseProfile(tuple(breakpoints), tuple(coefficients))


def lattice_quantiles(rho, rng):
    """Edge and tail quantiles, uniforms, 8th-power tails, and ``cdf`` at tabulated and deep bisection points.

    A tie ``q = cdf(x)`` lands left of ``x`` and the next float up lands right of it,
    so an inverse that rounds to the wrong side of ``x`` is caught either way.
    """
    a, b = rho.support
    n_iter = max(1, math.ceil(math.log2((b - a) / 1e-12)))
    table = rho.cdf(a + (b - a) * (rng.integers(1, 2**12, 32) / 2**12))
    deep = rho.cdf(a + (b - a) * (rng.integers(1, 2**n_iter, 64) / 2**n_iter))
    tails = np.concatenate([rng.random(32) ** 8, 1.0 - rng.random(32) ** 8])
    return np.concatenate(
        [EDGE_QUANTILES, TAIL_QUANTILES, rng.random(256), table, deep, np.nextafter(deep, 2.0), tails]
    )


CONTRACT_DENSITIES = {**PIECEWISE_DENSITIES, "double_zero": double_zero_density()}


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(CONTRACT_DENSITIES)),
    scale=st.sampled_from([0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 0.8]),
    shift=st.sampled_from([-1.0, -0.375, 0.0, 0.125, 0.5, 1.0, 0.1, 1.0 / 3.0]),
    split=st.none() | st.floats(0.05, 0.95),
    seed=st.integers(0, 2**32 - 1),
)
def test_lattice_quantile_matches_the_bisection_on_moved_densities(name, scale, shift, split, seed):
    # matches: every row passes the bisection's crossing check or carries its
    # bits.  The W^{2,1} shapes above, scaled, shifted and with a piece cut in
    # two: on dyadic supports the bisection's points are exact multiples of its
    # cell, on the others (0.1, 1/3, 0.8) mostly not; the path is the same for both
    try:
        rho = PiecewisePolynomialDensity(moved(CONTRACT_DENSITIES[name].profile, scale, shift, split))
    except ValueError:  # the moved coefficients round outside the mass or continuity tolerance
        assume(False)
    assert_checked_or_bisected(rho, lattice_quantiles(rho, np.random.default_rng(seed)))


@settings(max_examples=30, deadline=None)
@given(points=st.lists(st.floats(-0.5, 1.5), max_size=40), seed=st.integers(0, 2**32 - 1))
def test_raised_cosine_quantile_passes_the_crossing_check_or_keeps_the_bisection_bits(points, seed):
    rho = raised_cosine_density()
    q = np.concatenate([points, lattice_quantiles(rho, np.random.default_rng(seed))])
    assert_checked_or_bisected(rho, q)


def spy_on_the_fallback(monkeypatch):
    """The ``q`` of every row that reaches ``_bisect``, one list per call."""
    calls = []
    real_bisect = disorder._bisect

    def bisect_spy(lo, hi, q, cdf, levels):
        calls.append(q.copy())
        return real_bisect(lo, hi, q, cdf, levels)

    monkeypatch.setattr(disorder, "_bisect", bisect_spy)
    return calls


def assert_only_the_fallen_rows_are_bisected(rho, q, calls):
    """The rows of ``q`` that reach ``_bisect`` in one call carry its bits, and every other row passes the check."""
    t = rho.quantile(q)
    assert len(calls) == 1
    fell = np.isin(q, calls[0]) | (np.isnan(q) & np.isnan(calls[0]).any())
    assert same_bits(t[fell], reference_quantile(rho, q[fell])).all()
    assert crossing_checked(rho, q[~fell], t[~fell]).all()
    return t, fell


@pytest.mark.parametrize("rho", [bump_density(), raised_cosine_density(),
                                 PiecewisePolynomialDensity(moved(bump_profile(), 0.8, 0.1, split=0.4))],
                         ids=["bump", "raised_cosine", "split_bump"])
def test_only_the_rows_that_fail_the_check_are_bisected(monkeypatch, rho):
    calls = spy_on_the_fallback(monkeypatch)
    bulk = np.random.default_rng(8).uniform(1e-5, 1.0 - 1e-4, 14400)
    fallbacks = [math.nan, 0.0, -0.5, 1.5, math.inf, -math.inf]
    q = np.concatenate([bulk, fallbacks, TAIL_QUANTILES])
    # the rows that fell back, and only those, carry the bisection's bits: every
    # other row is a Newton point that passed the crossing check
    t, fell = assert_only_the_fallen_rows_are_bisected(rho, q, calls)
    assert np.mean(same_bits(t[~fell], reference_quantile(rho, q[~fell]))) < 0.01
    # no draw of the bulk falls back (above 1 - 1e-4 a few bump draws in 10^6 do, where
    # the computed CDF's rounding spans more than a cell); a NaN and q at or past the
    # support's ends do
    assert not fell[: bulk.size].any()
    assert fell[bulk.size: bulk.size + len(fallbacks)].all()
    # with no Newton step the secant start mostly fails the check: those rows
    # fall back, and every row still keeps the contract
    calls.clear()
    monkeypatch.setattr(disorder, "_NEWTON_STEPS", 0)
    assert_checked_or_bisected(rho, q)
    assert calls[0].size > bulk.size // 2


def test_quantile_without_an_exact_lattice_bisects_everything(monkeypatch):
    # on [0.1, 0.9] the bisection's midpoints round off the grid a + k h: every
    # row is still held to the bisection, by its crossing check or by its bits
    rho = PiecewisePolynomialDensity(moved(bump_profile(), 0.8, 0.1))
    calls = spy_on_the_fallback(monkeypatch)
    assert_only_the_fallen_rows_are_bisected(rho, lattice_quantiles(rho, np.random.default_rng(5)), calls)


def test_leaves_where_the_density_vanishes_stay_uncertified(monkeypatch):
    # at the double zero t = 1/3 a Newton step is huge or not finite, so the
    # draws there keep their secant start, fail the crossing check and bisect
    rho = double_zero_density()
    calls = spy_on_the_fallback(monkeypatch)
    zero = float(rho.cdf(1.0 / 3.0))
    near = zero + np.linspace(-1e-9, 1e-9, 101)
    q = np.concatenate([near, lattice_quantiles(rho, np.random.default_rng(6))])
    _, fell = assert_only_the_fallen_rows_are_bisected(rho, q, calls)
    assert fell[: near.size].sum() > 90


def spy_on_the_cdf(monkeypatch, rho):
    """The points of every ``rho.cdf`` call."""
    points = []
    real_cdf = rho.cdf
    monkeypatch.setattr(rho, "cdf", lambda t: points.append(np.copy(t)) or real_cdf(t))
    return points


def test_a_non_finite_newton_step_keeps_the_last_point(monkeypatch):
    # rho vanishes at the support ends, so a Newton step there divides by 0
    # (5e-324: its secant start is subnormal, and rho's 30 t^2 underflows) or is
    # 0 / 0 (q = 1 at t = 1): the draw keeps its point for the next step
    rho = bump_density()
    points = spy_on_the_cdf(monkeypatch, rho)
    for q in (5e-324, 1.0):
        points.clear()
        t = rho.quantile(np.array([q]))
        start, after_one_step = points[0], points[1]  # each Newton step evaluates cdf at its point
        assert start.tobytes() == after_one_step.tobytes()
        assert crossing_checked(rho, q, t) | same_bits(t, reference_quantile(rho, q))
    assert t.tobytes() == reference_quantile(rho, np.array([1.0])).tobytes()


def test_a_newton_step_that_leaves_the_leaf_keeps_the_last_point(monkeypatch):
    # near a support end rho is small but not 0, so a Newton step there is finite
    # and huge: it leaves the leaf, and the draw keeps its point instead of being
    # clipped to the leaf's far end; the crossing check then sends it to the bisection
    rho = bump_density()
    points = spy_on_the_cdf(monkeypatch, rho)
    calls = spy_on_the_fallback(monkeypatch)
    for q in (1e-20, 1e-15, 1e-12):
        points.clear()
        t = rho.quantile(np.array([q]))
        start = points[0]
        assert 0.0 < start[0] < 2.0**-12  # inside the first leaf
        assert points[1].tobytes() == start.tobytes()  # the second Newton step starts from it again
        assert t.tobytes() == reference_quantile(rho, np.array([q])).tobytes()
    assert len(calls) == 3


class ExactCdf:
    """A piecewise density's CDF in exact rational arithmetic on its float coefficients."""

    def __init__(self, rho):
        self.breakpoints = [Fraction(x) for x in rho.profile.breakpoints]
        self.antiderivatives = [
            [Fraction(0)] + [Fraction(c) / (k + 1) for k, c in enumerate(piece)] for piece in rho.profile.coefficients
        ]
        self.below = [Fraction(0)]  # the mass below each piece
        for i, anti in enumerate(self.antiderivatives):
            self.below.append(self.below[-1] + self.rise(i, self.breakpoints[i + 1]))

    def rise(self, piece, t):
        value = Fraction(0)
        for c in reversed(self.antiderivatives[piece]):
            value = value * t + c
        return value - sum(c * self.breakpoints[piece] ** k for k, c in enumerate(self.antiderivatives[piece]))

    def __call__(self, t):
        t = Fraction(t)
        if t <= self.breakpoints[0]:
            return Fraction(0)
        if t >= self.breakpoints[-1]:
            return self.below[-1]
        piece = max(i for i, x in enumerate(self.breakpoints[:-1]) if x <= t)
        return self.below[piece] + self.rise(piece, t)


EXACT_CDFS = {name: ExactCdf(rho) for name, rho in PIECEWISE_DENSITIES.items()}


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(PIECEWISE_DENSITIES)),
    points=st.lists(st.floats(1e-6, 1.0 - 1e-5), min_size=1, max_size=20),
)
def test_quantile_is_within_tol_of_the_exact_inverse(name, points):
    # |t - F^-1(q)| <= QUANTILE_TOL exactly when F(t - tol) <= q <= F(t + tol), F
    # increasing; past 1 - 1e-5 the computed CDF's own rounding (terms near 15
    # that cancel to 1, over rho below 1e-2) puts the plain bisection past the
    # tolerance too, so no inverse of it can promise the bound there
    rho, exact = PIECEWISE_DENSITIES[name], EXACT_CDFS[name]
    q = np.array(points + [1e-6, 1.0 - 1e-5, 0.5])
    tol = Fraction(disorder.QUANTILE_TOL)
    for t, p in zip(rho.quantile(q).tolist(), q.tolist()):
        assert exact(Fraction(t) - tol) <= Fraction(p) <= exact(Fraction(t) + tol)


def test_discontinuous_pieces_rejected():
    # p1(1/2) = 1.5 but p2(1/2) = 2.5: value jump at the knot
    profile = PiecewiseProfile(
        (0.0, 0.5, 1.0),
        ((0.0, 0.0, 6.0), (-2.0, 12.0, -6.0)),
    )
    with pytest.raises(ValueError):
        PiecewisePolynomialDensity(profile)


# ---------------------------------------------------------------------------
# potentials and the assumption certificate
# ---------------------------------------------------------------------------

def test_delta_fourier_is_one():
    u = SingleSitePotential.delta(2)
    for theta in ([0.0, 0.0], [1.0, 2.0], [3.14, 0.5]):
        assert fourier(u, theta) == pytest.approx(1.0 + 0.0j)


def test_fourier_symmetric_neighbors():
    u = SingleSitePotential({(0,): 1.0, (1,): 0.25, (-1,): 0.25})
    grid = np.linspace(0.0, 2.0 * np.pi, 701, endpoint=False)
    values = fourier(u, grid[:, None])
    expected = 1.0 + 0.5 * np.cos(grid)
    assert np.max(np.abs(values - expected)) < 1e-12
    assert np.min(np.abs(values)) == pytest.approx(0.5, abs=1e-4)


def test_fourier_mean_value_identity():
    rng = np.random.default_rng(5)
    for _ in range(10):
        sites = [(int(a), int(b)) for a, b in rng.integers(-2, 3, size=(4, 2))]
        vals = rng.normal(size=4)
        u = SingleSitePotential(dict(zip(sites, 1.0 + np.abs(vals))))
        assert fourier(u, [0.0, 0.0]) == pytest.approx(mean_value(u), abs=1e-12)


def test_zero_mean_potential_fourier_vanishes_at_zero():
    u = SingleSitePotential({(0,): 1.0, (1,): -1.0})
    assert abs(fourier(u, 0.0)) == pytest.approx(0.0, abs=1e-15)


def test_check_assumption_delta():
    report = check_assumption(SingleSitePotential.delta(1), bump_density(), 8)
    assert report.fourier_min_modulus == pytest.approx(1.0)
    assert report.dominance_holds
    assert report.satisfied


def test_check_assumption_symmetric_neighbors():
    u = SingleSitePotential({(0,): 1.0, (1,): 0.25, (-1,): 0.25})
    report = check_assumption(u, bump_density(), 64)
    assert report.fourier_min_modulus == pytest.approx(0.5, abs=1e-12)
    assert report.dominance_holds
    assert report.satisfied


class Allocated(Exception):
    """Raised by a stand-in allocator: the size check let the grid through."""


def test_check_assumption_refuses_a_grid_past_the_points_budget(monkeypatch):
    def allocate(self, side):
        raise Allocated(side)

    monkeypatch.setattr(SingleSitePotential, "torus_table", allocate)
    u = SingleSitePotential({(0, 0): 1.0, (1, 0): 0.2})
    # 3162**2 and 10**7 points fit the budget of 10**7; one more per axis does not
    for potential, admitted in ((u, 3162), (SingleSitePotential.delta(1), 10**7)):
        with pytest.raises(Allocated):
            check_assumption(potential, bump_density(), admitted)
        with pytest.raises(ValueError, match="past 10000000 points"):
            check_assumption(potential, bump_density(), admitted + 1)
    # every preset's default grid (64 points an axis, at R = 1) is admitted up to d = 3
    assert 64**3 <= disorder.POINTS_BUDGET


def test_check_assumption_zero_mean_fails():
    u = SingleSitePotential({(0,): 1.0, (1,): -1.0})
    report = check_assumption(u, bump_density(), 64)
    assert report.fourier_min_modulus == pytest.approx(0.0, abs=1e-12)
    assert not report.dominance_holds
    assert not report.satisfied


def test_check_assumption_nyquist_floor():
    u = SingleSitePotential({(0,): 1.0, (1,): 0.25, (-1,): 0.25})
    with pytest.raises(ValueError):
        check_assumption(u, bump_density(), 5)


def test_dominance_implies_positive_fourier_minimum():
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = int(rng.integers(1, 3))
        n_extra = int(rng.integers(1, 5))
        extras = {}
        while len(extras) < n_extra:
            site = tuple(int(c) for c in rng.integers(-2, 3, size=d))
            if site != (0,) * d:
                extras[site] = float(rng.normal())
        total = sum(abs(v) for v in extras.values())
        values = {(0,) * d: total + float(rng.uniform(0.1, 1.0))}
        values.update(extras)
        u = SingleSitePotential(values)
        margin = abs(u.value((0,) * d)) - (u.l1_norm - abs(u.value((0,) * d)))
        assert margin > 0
        report = check_assumption(u, bump_density(), 64)
        assert report.fourier_min_modulus >= margin - 1e-12
        assert report.satisfied


@st.composite
def potentials(draw):
    d = draw(st.integers(1, 3))
    reach = draw(st.integers(0, 2 if d < 3 else 1))
    offsets = st.tuples(*[st.integers(-reach, reach)] * d)
    weights = st.floats(-2.0, 2.0).filter(lambda v: abs(v) > 1e-3)
    return SingleSitePotential(draw(st.dictionaries(offsets, weights, min_size=1, max_size=6)))


@settings(max_examples=80, deadline=None)
@given(u=potentials(), extra=st.integers(0, 4))
def test_symbol_minimum_matches_explicit_sum(u, extra):
    # the FFT of the torus table against the exponential sum on the same grid
    resolution = 2 * (2 * u.support_radius + 1) + extra
    report = check_assumption(u, bump_density(), resolution)
    axis = 2.0 * np.pi * np.arange(resolution) / resolution
    theta = np.stack(np.meshgrid(*([axis] * u.dimension), indexing="ij"), axis=-1)
    explicit = float(np.min(np.abs(fourier(u, theta))))
    assert abs(report.fourier_min_modulus - explicit) <= 1e-14 * u.l1_norm


def test_potential_rejects_empty_and_mixed_dimension():
    with pytest.raises(ValueError):
        SingleSitePotential({})
    with pytest.raises(ValueError):
        SingleSitePotential({(0,): 0.0})
    with pytest.raises(ValueError):
        SingleSitePotential({(0,): 1.0, (0, 0): 1.0})


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_couplings_bump_mean():
    rho = bump_density()
    b = box(0, 1)
    rng = np.random.default_rng(7)
    draws = rho.quantile(rng.random(10**6))
    stderr = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(draws.mean() - 0.5) < 3.0 * stderr
    assert np.all((draws > 0.0) & (draws < 1.0))


# ---------------------------------------------------------------------------
# explicit Sobolev check
# ---------------------------------------------------------------------------

def test_hat_times_hat_attains_one_quarter():
    f = TensorProductFunction(hat_profile(), hat_profile())
    report = sobolev_ratio(f)
    assert report.sup_norm == 1.0
    assert report.mixed_norm == 4.0
    assert report.ratio == 0.25


def test_bump_times_bump_attains_one_quarter():
    # any unimodal factor vanishing at its edges has variation = 2 * peak,
    # so unimodal tensor products all sit exactly at the 1/4 bound
    f = TensorProductFunction(bump_profile(), bump_profile())
    report = sobolev_ratio(f)
    assert report.sup_norm == pytest.approx((30.0 / 16.0) ** 2, abs=1e-12)
    assert report.mixed_norm == pytest.approx(3.75**2, abs=1e-12)
    assert report.ratio == pytest.approx(0.25, abs=1e-15)


def test_multimodal_profile_falls_below_quarter():
    wiggly = polyline_profile([0.0, 0.25, 0.5, 0.75, 1.0], [0.0, 1.0, -0.5, 1.0, 0.0])
    report = sobolev_ratio(TensorProductFunction(wiggly, hat_profile()))
    assert report.ratio < 0.25 - 1e-6


def test_scaling_leaves_ratio_unchanged():
    base = sobolev_ratio(TensorProductFunction(hat_profile(), bump_profile()))
    scaled = sobolev_ratio(TensorProductFunction(hat_profile(), bump_profile(), scale=17.5))
    assert scaled.ratio == pytest.approx(base.ratio, rel=1e-15)
    assert scaled.sup_norm == pytest.approx(17.5 * base.sup_norm, rel=1e-15)


def test_non_tensor_descriptor_rejected():
    with pytest.raises(TypeError):
        sobolev_ratio(lambda x, y: x * y)
    with pytest.raises(ValueError):
        TensorProductFunction(
            polyline_profile([0.0, 1.0], [1.0, 0.0]),  # jumps at the left edge
            hat_profile(),
        )


def random_polyline(rng):
    n = int(rng.integers(2, 7))
    nodes = np.sort(rng.uniform(0.0, 1.0, size=n + 1))
    while np.min(np.diff(nodes)) < 1e-3:
        nodes = np.sort(rng.uniform(0.0, 1.0, size=n + 1))
    values = np.concatenate([[0.0], rng.normal(size=n - 1), [0.0]])
    return polyline_profile(nodes, values)


def test_randomized_tensor_family_respects_quarter_bound():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        f = TensorProductFunction(random_polyline(rng), random_polyline(rng))
        assert sobolev_ratio(f).ratio <= 0.25 + 1e-12
