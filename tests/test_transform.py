import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from alloylab import transform as transform_module
from alloylab.disorder import SingleSitePotential, bump_density, raised_cosine_density
from alloylab.lattice import box
from alloylab.operator import potential_profiles
from alloylab.transform import (
    TransformError,
    build_circulant,
    limit_inverse_one_norm,
    minami_constants,
    periodic_convolution,
)
from tests.dense_reference import transform_inverse, transform_matrix
from tests.sample_reference import draw_couplings


def transformed(t, omega):
    """Couplings over the envelope pushed through the transform, enumeration order."""
    return periodic_convolution(t.table, omega.reshape(t.table.shape)).ravel()


def test_delta_transform_is_identity():
    t = build_circulant(SingleSitePotential.delta(1), box(2, 1))
    assert np.array_equal(transform_matrix(t), np.eye(5))
    assert np.array_equal(transform_inverse(t), np.eye(5))
    assert t.inverse_one_norm == 1.0


def test_worked_five_by_five_structure():
    # d=1, inner radius 1, support {-1,0,1}: rows are periodic shifts of
    # (u0, um, 0, 0, up)
    u0, up, um = 1.0, 0.3, -0.2
    u = SingleSitePotential({(0,): u0, (1,): up, (-1,): um})
    t = build_circulant(u, box(1, 1))
    expected = np.array(
        [
            [u0, um, 0.0, 0.0, up],
            [up, u0, um, 0.0, 0.0],
            [0.0, up, u0, um, 0.0],
            [0.0, 0.0, up, u0, um],
            [um, 0.0, 0.0, up, u0],
        ]
    )
    assert np.array_equal(transform_matrix(t), expected)


def test_interior_rows_are_plain_convolution():
    rng = np.random.default_rng(4)
    for _ in range(10):
        vals = {(0,): 2.0}
        for k in (-2, -1, 1, 2):
            vals[(k,)] = float(rng.normal() * 0.2)
        u = SingleSitePotential(vals)
        inner = box(2, 1)
        t = build_circulant(u, inner)
        matrix = transform_matrix(t)
        env_sites = t.envelope.sites()
        for site_i in inner.sites():
            row = t.envelope.index_of(site_i)
            for col, site_j in enumerate(env_sites):
                offset = tuple(a - b for a, b in zip(site_i, site_j))
                assert matrix[row, col] == u.value(offset)


def test_circulant_shift_property_exhaustive():
    u = SingleSitePotential({(0, 0): 1.0, (1, 0): 0.2, (0, -1): -0.1})
    t = build_circulant(u, box(0, 2))
    env = t.envelope
    matrix = transform_matrix(t)
    n = env.size
    assert n <= 125
    sites = env.sites()
    r, side = env.radius, env.side
    for i in range(n):
        for j in range(n):
            for axis in range(2):
                shift = tuple(1 if a == axis else 0 for a in range(2))
                si = tuple((c + s + r) % side - r for c, s in zip(sites[i], shift))
                sj = tuple((c + s + r) % side - r for c, s in zip(sites[j], shift))
                assert matrix[env.index_of(si), env.index_of(sj)] == matrix[i, j]


def test_inverse_identity_defect():
    u = SingleSitePotential({(0,): 1.0, (1,): 0.45, (-1,): -0.3})
    t = build_circulant(u, box(3, 1))
    assert np.max(np.abs(transform_matrix(t) @ transform_inverse(t) - np.eye(t.size))) <= 1e-10


def test_neumann_series_bound():
    kappa = 0.1
    u = SingleSitePotential({(0,): 1.0, (1,): kappa})
    t = build_circulant(u, box(4, 1))
    assert t.inverse_one_norm <= 1.0 / (1.0 - kappa) + 1e-12


def test_zero_mean_potential_is_singular_at_every_volume():
    u = SingleSitePotential({(0,): 1.0, (1,): -1.0})
    with pytest.raises(TransformError, match="frequency"):
        build_circulant(u, box(2, 1))


def test_limit_norm_delta_exact():
    assert limit_inverse_one_norm(SingleSitePotential.delta(1)) == 1.0
    assert limit_inverse_one_norm(SingleSitePotential.delta(2)) == 1.0


@pytest.mark.parametrize("kappa", [0.1, 0.5])
def test_limit_norm_one_sided_geometric(kappa):
    u = SingleSitePotential({(0,): 1.0, (1,): kappa})
    bound = limit_inverse_one_norm(u, tolerance=1e-9)
    assert abs(bound - 1.0 / (1.0 - kappa)) < 1e-8
    assert bound >= 1.0 / (1.0 - kappa) - 1e-12


def test_limit_norm_symmetric_quadrature_oracle():
    # u(0)=1, u(+-1)=1/4: reciprocal-symbol coefficients by direct quadrature
    u = SingleSitePotential({(0,): 1.0, (1,): 0.25, (-1,): 0.25})

    def coeff(k):
        val, _ = integrate.quad(
            lambda t: math.cos(k * t) / (1.0 + 0.5 * math.cos(t)),
            0.0,
            math.pi,
            limit=200,
        )
        return val / math.pi

    # geometric tail: |c_k| decays like (2 - sqrt(3))^k
    ratio = 2.0 - math.sqrt(3.0)
    partial = abs(coeff(0)) + 2.0 * sum(abs(coeff(k)) for k in range(1, 41))
    tail = 2.0 * abs(coeff(40)) * ratio / (1.0 - ratio)
    oracle = partial + tail
    bound = limit_inverse_one_norm(u, tolerance=1e-9)
    assert abs(bound - oracle) < 1e-8
    # closed form for this symbol: the norm is exactly 2
    assert abs(oracle - 2.0) < 1e-10


def test_finite_volume_norm_below_limit_norm():
    u = SingleSitePotential({(0,): 1.0, (1,): 0.2, (-1,): -0.15})
    limit = limit_inverse_one_norm(u, tolerance=1e-10)
    previous = None
    for radius in range(1, 7):
        t = build_circulant(u, box(radius, 1))
        assert t.inverse_one_norm <= limit * (1.0 + 1e-6)
        previous = t.inverse_one_norm
    # at large volume the finite norm approaches the limit from below
    assert previous == pytest.approx(limit, rel=1e-3)


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, 0.0])
def test_limit_norm_refuses_a_tolerance_outside_the_positive_doubles(monkeypatch, tolerance):
    # NaN ran every grid before failing; Infinity returned a bound held to no tolerance
    def refuse_transform(*args, **kwargs):
        raise AssertionError("an FFT ran before the tolerance was checked")

    monkeypatch.setattr(transform_module, "_reciprocal_kernel", refuse_transform)
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        limit_inverse_one_norm(SingleSitePotential.delta(1), tolerance=tolerance)


def test_limit_norm_nonconvergent_raises(monkeypatch):
    monkeypatch.setattr(transform_module, "LIMIT_GRID_POINTS", 2**10)
    u = SingleSitePotential({(0,): 1.0, (1,): -1.0})
    with pytest.raises(TransformError, match="smallest"):
        limit_inverse_one_norm(u)


# ---------------------------------------------------------------------------
# coupling transform
# ---------------------------------------------------------------------------

def test_transform_is_identity_for_delta():
    u = SingleSitePotential.delta(1)
    t = build_circulant(u, box(2, 1))
    omega = draw_couplings(bump_density(), t.envelope, np.random.default_rng(0))
    assert np.array_equal(transformed(t, omega), omega)


def test_transformed_vector_matches_potential_on_inner_box():
    rng = np.random.default_rng(12)
    for _ in range(10):
        u = SingleSitePotential(
            {(0,): 1.0, (1,): float(rng.uniform(-0.3, 0.3)), (-1,): float(rng.uniform(-0.3, 0.3))}
        )
        inner = box(3, 1)
        t = build_circulant(u, inner)
        omega = draw_couplings(bump_density(), t.envelope, rng)
        zeta = transformed(t, omega)
        v = potential_profiles(inner, u, t.envelope, omega[None])[0]
        for site in inner.sites():
            assert abs(zeta[t.envelope.index_of(site)] - v[inner.index_of(site)]) <= 1e-12


def test_transform_differs_outside_inner_box():
    u = SingleSitePotential({(0,): 1.0, (1,): 0.25, (-1,): 0.25})
    inner = box(1, 1)
    t = build_circulant(u, inner)
    zeta = transformed(t, np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
    # direct convolution at the edge site 2 gives u(4) = 0, the periodic
    # wrap-around gives u(4 - 5) = 0.25
    edge = t.envelope.index_of((2,))
    assert zeta[edge] == pytest.approx(0.25)


def test_round_trip_through_inverse():
    u = SingleSitePotential({(0,): 1.0, (1,): -0.2, (-1,): 0.1})
    t = build_circulant(u, box(2, 1))
    omega = draw_couplings(bump_density(), t.envelope, np.random.default_rng(5))
    zeta = transformed(t, omega)
    back = transform_inverse(t) @ zeta
    assert np.max(np.abs(back - omega)) <= 1e-10


# ---------------------------------------------------------------------------
# bound constants
# ---------------------------------------------------------------------------

def test_delta_site_resolved_bound_oracle():
    rho = bump_density()
    lam = 2.0
    t = build_circulant(SingleSitePotential.delta(1), box(3, 1))
    mc = minami_constants(t, rho, lam, (0,), (1,))
    # with an identity inverse only the cross term survives
    expected = (math.pi**2 / (4.0 * lam**2)) * rho.d1_norm**2
    assert mc.site_resolved_bound == pytest.approx(expected, rel=1e-14)
    assert mc.inverse_norm == 1.0
    assert mc.base_constant == pytest.approx(max(rho.d1_norm**2, rho.d2_norm) / 4.0)


def test_site_resolved_direct_summation_oracle():
    rng = np.random.default_rng(77)
    rho = raised_cosine_density()
    u = SingleSitePotential({(0,): 1.0, (1,): 0.3, (-1,): -0.15})
    lam = 1.7
    t = build_circulant(u, box(2, 1))
    mc = minami_constants(t, rho, lam, (-1,), (2,))
    ix = t.envelope.index_of((-1,))
    iy = t.envelope.index_of((2,))
    inverse = transform_inverse(t)
    total = 0.0
    n = t.size
    for j in range(n):
        inner = rho.d2_norm * abs(inverse[j, ix])
        for l in range(n):
            if l != j:
                inner += rho.d1_norm**2 * abs(inverse[l, ix])
        total += abs(inverse[j, iy]) * inner
    expected = (math.pi**2 / (4.0 * lam**2)) * total
    assert mc.site_resolved_bound == pytest.approx(expected, rel=1e-12)


def test_lambda_scaling_quarters_bounds():
    rho = bump_density()
    t = build_circulant(SingleSitePotential.delta(1), box(3, 1))
    mc1 = minami_constants(t, rho, 1.0, (0,), (1,))
    mc2 = minami_constants(t, rho, 2.0, (0,), (1,))
    assert mc2.determinant_bound == pytest.approx(mc1.determinant_bound / 4.0)
    assert mc2.site_resolved_bound == pytest.approx(mc1.site_resolved_bound / 4.0)


def test_bump_d1_norm_value():
    assert bump_density().d1_norm == pytest.approx(15.0 / 4.0, abs=1e-13)


def test_site_resolved_never_exceeds_norm_bound():
    rng = np.random.default_rng(31)
    densities = [bump_density(), raised_cosine_density()]
    for _ in range(50):
        vals = {(0,): 1.0 + float(rng.uniform(0.0, 1.0))}
        for k in (-1, 1):
            vals[(k,)] = float(rng.uniform(-0.4, 0.4))
        u = SingleSitePotential(vals)
        radius = int(rng.integers(1, 4))
        inner = box(radius, 1)
        t = build_circulant(u, inner)
        sites = inner.sites()
        i, j = rng.choice(len(sites), size=2, replace=False)
        rho = densities[int(rng.integers(2))]
        lam = float(rng.uniform(0.5, 3.0))
        mc = minami_constants(t, rho, lam, sites[i], sites[j])
        assert mc.site_resolved_bound <= mc.determinant_bound * (1.0 + 1e-12)


def test_constants_validate_sites():
    t = build_circulant(SingleSitePotential.delta(1), box(2, 1))
    rho = bump_density()
    with pytest.raises(ValueError):
        minami_constants(t, rho, 1.0, (0,), (0,))
    with pytest.raises(ValueError):
        minami_constants(t, rho, 1.0, (0,), (3,))  # outside the inner box
    with pytest.raises(ValueError):
        minami_constants(t, rho, -1.0, (0,), (1,))
    for lam in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            minami_constants(t, rho, lam, (0,), (1,))
    # lam**2 overflows, or underflows to zero below (pi / lam)**2's overflow
    for lam in (1e200, 1e-200):
        with pytest.raises(ValueError, match="out of range"):
            minami_constants(t, rho, lam, (0,), (1,))


# ---------------------------------------------------------------------------
# FFT kernel against the dense inverse
# ---------------------------------------------------------------------------

_ORACLE_RADII = {1: 6, 2: 3, 3: 2}


@st.composite
def dominant_profiles(draw):
    """A support-radius-1 profile whose centre outweighs the other sites, and a box."""
    d = draw(st.integers(1, 3))
    centre = draw(st.floats(0.5, 2.0))
    others = [site for site in itertools.product((-1, 0, 1), repeat=d) if any(site)]
    share = 0.9 * centre / len(others)
    values = {(0,) * d: centre}
    for site in others:
        values[site] = draw(st.floats(-share, share))
    return SingleSitePotential(values), box(draw(st.integers(0, _ORACLE_RADII[d])), d)


@settings(max_examples=40, deadline=None)
@given(dominant_profiles())
def test_fft_inverse_matches_dense_inverse(case):
    u, inner = case
    t = build_circulant(u, inner)
    matrix, inverse = transform_matrix(t), transform_inverse(t)
    dense = np.linalg.inv(matrix)
    scale = max(1.0, float(np.max(np.abs(dense))))
    for j in range(t.size):
        assert np.max(np.abs(inverse[:, j] - dense[:, j])) <= 1e-12 * scale
    for j, site in enumerate(t.envelope.sites()):
        assert np.max(np.abs(t.inverse_column(site) - dense[:, j])) <= 1e-12 * scale
    dense_norm = float(np.max(np.abs(dense).sum(axis=0)))
    assert t.inverse_one_norm == pytest.approx(dense_norm, rel=1e-12)
    assert t.condition_number == pytest.approx(
        float(np.max(np.abs(matrix).sum(axis=0))) * dense_norm, rel=1e-12
    )


@settings(max_examples=20, deadline=None)
@given(dominant_profiles(), st.data())
def test_constants_columns_match_dense_inverse(case, data):
    # the site-resolved sum is invariant under a common shift of both
    # columns, so compare the columns themselves as well as the sum
    u, inner = case
    assume(inner.size > 1)
    t = build_circulant(u, inner)
    x, y = data.draw(st.permutations(inner.sites()))[:2]
    dense = np.abs(np.linalg.inv(transform_matrix(t)))
    ix, iy = t.envelope.index_of(x), t.envelope.index_of(y)
    col_x, col_y = np.abs(t.inverse_column(x)), np.abs(t.inverse_column(y))
    assert np.max(np.abs(col_x - dense[:, ix])) <= 1e-12 * max(1.0, float(dense.max()))
    assert np.max(np.abs(col_y - dense[:, iy])) <= 1e-12 * max(1.0, float(dense.max()))
    rho = raised_cosine_density()
    mc = minami_constants(t, rho, 1.3, x, y)
    cross = dense[:, ix].sum() - dense[:, ix]
    core = np.sum(dense[:, iy] * (rho.d2_norm * dense[:, ix] + rho.d1_norm**2 * cross))
    assert mc.site_resolved_bound == pytest.approx(math.pi**2 / (4.0 * 1.3**2) * core, rel=1e-12)


def test_delta_kernel_is_exact_at_every_side():
    # FFT roundoff alone leaves the centre one ulp off at sides such as 49 and 101
    for d, radii in ((1, range(0, 60)), (2, range(0, 12)), (3, range(0, 5))):
        for radius in radii:
            t = build_circulant(SingleSitePotential.delta(d), box(radius, d))
            assert t.kernel.flat[0] == 1.0
            assert np.count_nonzero(t.kernel) == 1
            assert t.inverse_one_norm == 1.0


def test_stencil_certificate_rejects_a_wrong_kernel(monkeypatch):
    solve = transform_module._reciprocal_kernel

    def perturbed(*args):
        table, kernel, modulus = solve(*args)
        return table, kernel * (1.0 + 1e-9), modulus

    monkeypatch.setattr(transform_module, "_reciprocal_kernel", perturbed)
    u = SingleSitePotential({(0, 0): 1.0, (1, 0): 0.2, (0, -1): -0.1})
    with pytest.raises(TransformError, match="verification failed"):
        build_circulant(u, box(3, 2))
