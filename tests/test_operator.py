import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alloylab.disorder import (
    CouplingConfiguration,
    SingleSitePotential,
    bump_density,
    sample_couplings,
)
from alloylab import operator
from alloylab.lattice import box, envelope_box
from alloylab.operator import (
    HamiltonianSample,
    ResolventError,
    ResourceLimit,
    build_hamiltonian,
    chain_eigenvalues,
    count_in_interval,
    count_in_window,
    eigenvalues,
    _band_inertia,
    base_matrix,
    green_block,
    hamiltonian_stack,
    interval_counts,
    krein_decomposition,
    laplacian_matrix,
    potential_profile,
)

RHO = bump_density()


def make_sample(radius, dimension, potential, lam=1.0, seed=0, values=None):
    b = box(radius, dimension)
    env = envelope_box(b, potential.support_radius)
    if values is not None:
        couplings = CouplingConfiguration(env, np.asarray(values, dtype=float))
    else:
        couplings = sample_couplings(RHO, env, np.random.default_rng(seed))
    return build_hamiltonian(b, potential, couplings, lam)


def path_spectrum(n):
    j = np.arange(1, n + 1)
    return np.sort(-2.0 * np.cos(j * np.pi / (n + 1)))


def test_free_chain_matrix_and_spectrum():
    u = SingleSitePotential.delta(1)
    sample = make_sample(1, 1, u, values=[0.0, 0.0, 0.0])
    expected = np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, -1.0, 0.0]])
    assert np.array_equal(sample.matrix, expected)
    vals = eigenvalues(sample)
    assert np.allclose(vals, [-math.sqrt(2.0), 0.0, math.sqrt(2.0)], atol=1e-12)
    assert np.allclose(vals, path_spectrum(3), atol=1e-12)


@pytest.mark.parametrize("n", [3, 5, 11])
def test_free_chain_path_graph_oracle(n):
    radius = (n - 1) // 2
    u = SingleSitePotential.delta(1)
    sample = make_sample(radius, 1, u, values=np.zeros(n))
    assert np.allclose(eigenvalues(sample), path_spectrum(n), atol=1e-10)


def test_rank_one_diagonal_is_couplings():
    u = SingleSitePotential.delta(1)
    omega = [0.3, -0.1, 0.7, 0.2, 0.5]
    sample = make_sample(2, 1, u, lam=1.0, values=omega)
    assert np.array_equal(np.diag(sample.matrix), omega)
    assert np.array_equal(sample.potential_diagonal, omega)


def test_potential_is_convolution_of_couplings():
    u = SingleSitePotential({(0,): 1.0, (1,): 0.25, (-1,): 0.25})
    b = box(1, 1)
    env = envelope_box(b, 1)
    omega = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    couplings = CouplingConfiguration(env, omega)
    v = potential_profile(b, u, couplings)
    # V(0) = omega_0 + (omega_{-1} + omega_1) / 4
    assert v[1] == pytest.approx(0.3 + (0.2 + 0.4) / 4.0, abs=1e-15)
    assert v[0] == pytest.approx(0.2 + (0.1 + 0.3) / 4.0, abs=1e-15)
    sample = build_hamiltonian(b, u, couplings, lam=2.0)
    assert np.allclose(np.diag(sample.matrix), 2.0 * v)


_PROFILE_RADII = {1: 4, 2: 3, 3: 1}


@st.composite
def profile_cases(draw):
    """A sign-changing profile, a box placed off centre in a field that holds its envelope."""
    d = draw(st.integers(1, 3))
    cube = itertools.product(range(-1, 2) if d == 3 else range(-2, 3), repeat=d)
    values = {site: draw(st.floats(-1.0, 1.0)) for site in cube}
    assume(any(values.values()))
    u = SingleSitePotential(values)
    radius = draw(st.integers(0, _PROFILE_RADII[d]))
    margin = draw(st.integers(0, 2))
    field_center = tuple(draw(st.integers(-3, 3)) for _ in range(d))
    offset = tuple(draw(st.integers(-margin, margin)) for _ in range(d))
    inner = box(radius, d, center=tuple(c + o for c, o in zip(field_center, offset)))
    field = box(radius + u.support_radius + margin, d, center=field_center)
    couplings = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(
        -1.0, 1.0, size=(draw(st.integers(1, 4)), field.size)
    )
    return u, inner, field, couplings


def dense_profile_matrix(inner, u, field):
    """``W[k, j] = u(k - j)`` for k in the box and j in the field, enumeration order."""
    offsets = [[tuple(a - b for a, b in zip(k, j)) for j in field.sites()] for k in inner.sites()]
    return np.array([[u.value(o) for o in row] for row in offsets])


@settings(max_examples=60, deadline=None)
@given(profile_cases())
def test_potential_profiles_match_dense_reference(case):
    u, inner, field, couplings = case
    w = dense_profile_matrix(inner, u, field)
    fast = operator.potential_profiles(inner, u, field, couplings)
    # both sides sum at most |supp u| products per entry
    tol = 4 * len(u.sites()) * np.finfo(float).eps * (np.abs(couplings) @ np.abs(w).T)
    assert fast.shape == (couplings.shape[0], inner.size)
    assert np.all(np.abs(fast - couplings @ w.T) <= tol)
    for i, row in enumerate(couplings):
        single = operator.potential_profiles(inner, u, field, row[None, :])
        assert np.array_equal(single[0], fast[i])


@settings(max_examples=40, deadline=None)
@given(profile_cases(), st.data())
def test_potential_profiles_refuse_a_field_too_small(case, data):
    u, inner, field, couplings = case
    # push the box until its envelope touches the field edge, then one site past it
    axis = data.draw(st.integers(0, inner.dimension - 1))
    sign = data.draw(st.sampled_from((-1, 1)))
    edge = field.center[axis] + sign * (field.radius - inner.radius - u.support_radius)
    center = list(inner.center)
    center[axis] = edge
    touching = box(inner.radius, inner.dimension, center=tuple(center))
    operator.potential_profiles(touching, u, field, couplings)
    center[axis] = edge + sign
    outside = box(inner.radius, inner.dimension, center=tuple(center))
    with pytest.raises(ValueError, match="leaves the coupling field"):
        operator.potential_profiles(outside, u, field, couplings)


def test_symmetry_is_exact():
    u = SingleSitePotential({(0, 0): 1.0, (1, 0): -0.2, (0, -1): 0.15})
    sample = make_sample(2, 2, u, lam=0.7, seed=3)
    assert np.array_equal(sample.matrix, sample.matrix.T)


def test_shifted_laplacian_flag():
    u = SingleSitePotential.delta(1)
    plain = make_sample(1, 1, u, values=[0.1, 0.2, 0.3])
    b = box(1, 1)
    env = envelope_box(b, 0)
    couplings = CouplingConfiguration(env, [0.1, 0.2, 0.3])
    shifted = build_hamiltonian(b, u, couplings, 1.0, shifted_laplacian=True)
    assert np.allclose(shifted.matrix, plain.matrix + 2.0 * np.eye(3))


def test_coupling_domain_mismatch():
    u = SingleSitePotential({(0,): 1.0, (1,): 0.2, (-1,): 0.2})
    b = box(2, 1)
    wrong = CouplingConfiguration(box(2, 1), np.zeros(5))
    with pytest.raises(ValueError, match="domain mismatch"):
        build_hamiltonian(b, u, wrong, 1.0)


def test_nonpositive_disorder_rejected():
    u = SingleSitePotential.delta(1)
    env = envelope_box(box(1, 1), 0)
    couplings = CouplingConfiguration(env, np.zeros(3))
    with pytest.raises(ValueError):
        build_hamiltonian(box(1, 1), u, couplings, 0.0)


def test_2d_laplacian_degree():
    lap = laplacian_matrix(box(1, 2))
    # center of the 3x3 grid has four neighbors
    center = box(1, 2).index_of((0, 0))
    assert lap[center].sum() == -4.0
    assert np.array_equal(lap, lap.T)
    assert np.all(np.diag(lap) == 0.0)


def test_eigenvalue_shift_invariance():
    u = SingleSitePotential.delta(1)
    sample = make_sample(2, 1, u, seed=9)
    vals = eigenvalues(sample)
    shifted = HamiltonianSample(
        box=sample.box,
        matrix=sample.matrix + 1.5 * np.eye(sample.size),
        lam=sample.lam,
        couplings=sample.couplings,
        potential_diagonal=sample.potential_diagonal,
    )
    assert np.allclose(eigenvalues(shifted), vals + 1.5, atol=1e-10)


def test_strong_disorder_limit():
    u = SingleSitePotential.delta(1)
    lam = 1e6
    sample = make_sample(3, 1, u, lam=lam, seed=21)
    vals = eigenvalues(sample) / lam
    expected = np.sort(sample.couplings.values)
    assert np.max(np.abs(vals - expected) / np.abs(expected)) < 1e-4


def test_weyl_rank_one_monotonicity():
    u = SingleSitePotential({(0,): 1.0, (1,): -0.3})
    rng = np.random.default_rng(17)
    for _ in range(20):
        sample = make_sample(2, 1, u, seed=int(rng.integers(1 << 30)))
        base = eigenvalues(sample)
        bumped = sample.matrix.copy()
        site = int(rng.integers(sample.size))
        bumped[site, site] += float(rng.uniform(0.0, 2.0))
        perturbed = np.linalg.eigvalsh(bumped)
        assert np.all(perturbed >= base - 1e-10)


def test_count_in_interval():
    u = SingleSitePotential.delta(1)
    sample = make_sample(1, 1, u, values=[0.0, 0.0, 0.0])
    assert count_in_interval(sample, (-3.0, 3.0)) == 3
    assert count_in_interval(sample, (-0.5, 0.5)) == 1
    assert count_in_interval(sample, (0.25, 0.25)) == 0
    with pytest.raises(ValueError):
        count_in_window(np.array([0.0]), (1.0, -1.0))


def test_chain_eigenvalues_matches_dense():
    rng = np.random.default_rng(3)
    diag = rng.normal(size=31)
    dense = -np.diag(np.ones(30), 1) - np.diag(np.ones(30), -1) + np.diag(diag)
    assert np.allclose(chain_eigenvalues(diag), np.linalg.eigvalsh(dense), atol=1e-10)
    assert np.allclose(
        chain_eigenvalues(diag, shifted=True),
        np.linalg.eigvalsh(dense + 2.0 * np.eye(31)),
        atol=1e-10,
    )


# ---------------------------------------------------------------------------
# Green blocks
# ---------------------------------------------------------------------------

def test_green_block_of_zero_hamiltonian():
    u = SingleSitePotential.delta(1)
    sample = make_sample(1, 1, u, values=[0.0, 0.0, 0.0])
    zero = HamiltonianSample(
        box=sample.box,
        matrix=np.zeros((3, 3)),
        lam=1.0,
        couplings=sample.couplings,
        potential_diagonal=np.zeros(3),
    )
    g = green_block(zero, 1j, (-1,), (1,))
    # (0 - i)^{-1} = i on the diagonal, zero off-diagonal
    assert np.allclose(g.entries, np.diag([1j, 1j]), atol=1e-14)
    assert g.det_imaginary == pytest.approx(1.0, abs=1e-14)


def test_green_block_rejects_bad_input():
    u = SingleSitePotential.delta(1)
    sample = make_sample(1, 1, u, seed=1)
    with pytest.raises(ValueError):
        green_block(sample, 1j, (0,), (0,))
    with pytest.raises(ResolventError):
        green_block(sample, 0.5 + 1e-15j, (-1,), (1,))


def test_green_entries_respect_the_dense_cap(monkeypatch):
    sample = make_sample(1, 1, SingleSitePotential.delta(1), seed=1)
    monkeypatch.setattr(operator, "DENSE_SOLVE_LIMIT", 2)
    with pytest.raises(ResourceLimit):
        green_block(sample, 0.5 + 0.1j, (-1,), (1,))
    with pytest.raises(ResourceLimit):
        krein_decomposition(sample, 0.5 + 0.1j, (-1,), (1,))


def test_green_block_symmetry_random_instances():
    rng = np.random.default_rng(100)
    u = SingleSitePotential({(0,): 1.0, (1,): 0.2, (-1,): 0.2})
    for _ in range(100):
        sample = make_sample(2, 1, u, lam=1.5, seed=int(rng.integers(1 << 30)))
        sites = sample.box.sites()
        i, j = rng.choice(len(sites), size=2, replace=False)
        g = green_block(sample, 0.3 + 0.1j, sites[i], sites[j])
        assert g.entries[0, 1] == pytest.approx(g.entries[1, 0], abs=1e-12)


@pytest.mark.parametrize("imag", [1e-3, 1e-1, 1.0])
def test_det_imaginary_positive_and_bounded(imag):
    rng = np.random.default_rng(int(imag * 1000) + 1)
    u = SingleSitePotential({(0,): 1.0, (1,): -0.25})
    for _ in range(334):
        sample = make_sample(2, 1, u, lam=2.0, seed=int(rng.integers(1 << 30)))
        z = float(rng.uniform(-2.0, 4.0)) + 1j * imag
        g = green_block(sample, z, (-1,), (1,))
        assert 0.0 < g.det_imaginary <= imag**-2


def test_green_block_spectral_decomposition_oracle():
    rng = np.random.default_rng(55)
    u = SingleSitePotential({(0, 0): 1.0, (1, 1): 0.15})
    for _ in range(10):
        sample = make_sample(2, 2, u, lam=1.2, seed=int(rng.integers(1 << 30)))
        assert sample.size == 25
        vals, vecs = np.linalg.eigh(sample.matrix)
        z = 0.4 + 0.2j
        x, y = (0, 0), (1, -1)
        ix, iy = sample.box.index_of(x), sample.box.index_of(y)
        oracle = np.zeros((2, 2), dtype=complex)
        for n in range(sample.size):
            phi = vecs[:, n]
            weight = 1.0 / (vals[n] - z)
            oracle += weight * np.outer(phi[[ix, iy]], phi[[ix, iy]])
        g = green_block(sample, z, x, y)
        assert np.max(np.abs(g.entries - oracle)) < 1e-8


# ---------------------------------------------------------------------------
# Krein decomposition
# ---------------------------------------------------------------------------

def krein_cases(n_cases, seed=7):
    rng = np.random.default_rng(seed)
    potentials = {
        1: [
            SingleSitePotential.delta(1),
            SingleSitePotential({(0,): 1.0, (1,): -0.2, (-1,): 0.2}),
        ],
        2: [
            SingleSitePotential.delta(2),
            SingleSitePotential({(0, 0): 1.0, (1, 0): -0.2, (0, 1): 0.2}),
        ],
    }
    for _ in range(n_cases):
        d = int(rng.integers(1, 3))
        radius = int(rng.integers(1, 5 if d == 1 else 3))
        u = potentials[d][int(rng.integers(2))]
        lam = float(rng.choice([0.5, 2.0]))
        z = float(rng.uniform(-2.0, 2.0)) + 1j * float(rng.choice([1e-2, 1.0]))
        sample = make_sample(radius, d, u, lam=lam, seed=int(rng.integers(1 << 30)))
        sites = sample.box.sites()
        i, j = rng.choice(len(sites), size=2, replace=False)
        yield sample, z, sites[i], sites[j]


def test_krein_identity_reconstructs_green_block():
    for sample, z, x, y in krein_cases(100):
        g = green_block(sample, z, x, y)
        dec = krein_decomposition(sample, z, x, y)
        assert np.max(np.abs(dec.reconstructed_block() - g.entries)) < 1e-9


def test_krein_imaginary_part_positive_definite():
    for sample, z, x, y in krein_cases(50, seed=8):
        dec = krein_decomposition(sample, z, x, y)
        im_m = (dec.m_matrix - dec.m_matrix.conj().T) / 2j
        assert np.min(np.linalg.eigvalsh(im_m)) > 0.0


def test_krein_matrix_independent_of_local_potential():
    for sample, z, x, y in krein_cases(20, seed=9):
        dec = krein_decomposition(sample, z, x, y)
        bumped = sample.matrix.copy()
        ix = sample.box.index_of(x)
        bumped[ix, ix] += 0.37
        modified = HamiltonianSample(
            box=sample.box,
            matrix=bumped,
            lam=sample.lam,
            couplings=sample.couplings,
            potential_diagonal=sample.potential_diagonal
            + 0.37 / sample.lam * (np.arange(sample.size) == ix),
        )
        dec2 = krein_decomposition(modified, z, x, y)
        assert np.max(np.abs(dec.m_matrix - dec2.m_matrix)) < 1e-12


# ---------------------------------------------------------------------------
# certified counts against eigvalsh
# ---------------------------------------------------------------------------

def eigvalsh_counts(base, lam, profiles, intervals):
    """The dense rule: count each member's ``eigvalsh`` eigenvalues in the closed intervals."""
    spectra = np.linalg.eigvalsh(hamiltonian_stack(base, lam, profiles))[:, :, None]
    lo, hi = np.asarray(intervals, dtype=float).T
    return np.sum((spectra >= lo) & (spectra <= hi), axis=1).astype(float)


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from([(1, 0), (1, 1), (1, 5), (2, 1), (2, 2), (3, 1)]),
    shifted=st.booleans(),
    lam=st.floats(0.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
    ends=st.lists(
        st.tuples(
            st.sampled_from(["on", "below", "above", "away"]),
            st.integers(0, 10**6),
            st.floats(-14.0, 14.0),
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_interval_counts_match_eigvalsh(shape, shifted, lam, seed, ends):
    # signed potentials, endpoints on, 1e-10 from and away from eigvalsh's eigenvalues
    dimension, radius = shape
    base = base_matrix(box(radius, dimension), shifted)
    profiles = np.random.default_rng(seed).uniform(-3.0, 3.0, (4, base.shape[0]))
    spectra = np.linalg.eigvalsh(hamiltonian_stack(base, lam, profiles)).ravel()
    nudge = {"on": 0.0, "below": -1e-10, "above": 1e-10}
    points = [
        value if kind == "away" else spectra[pick % spectra.size] + nudge[kind]
        for kind, pick, value in ends
    ]
    intervals = [(x, x) for x in points]
    intervals += [tuple(sorted(pair)) for pair in zip(points, points[1:])]
    counts, fallback = interval_counts(base, lam, profiles, intervals)
    assert counts.tolist() == eigvalsh_counts(base, lam, profiles, intervals).tolist()
    assert fallback.shape == counts.shape
    # an endpoint on an eigenvalue is never certified
    for column, (a, b) in enumerate(intervals):
        on = np.any(np.abs(spectra.reshape(4, -1) - a) < 1e-9, axis=1)
        on |= np.any(np.abs(spectra.reshape(4, -1) - b) < 1e-9, axis=1)
        assert np.all(fallback[on, column])


def test_interval_counts_certify_endpoints_away_from_eigenvalues():
    base = base_matrix(box(3, 2), False)
    profiles = np.random.default_rng(5).uniform(-1.0, 1.0, (6, base.shape[0]))
    spectra = np.linalg.eigvalsh(hamiltonian_stack(base, 2.0, profiles))
    level = spectra[0, 20]
    intervals = [(-0.3, 0.7), (level, level + 1.0), (level - 1e-10, level)]
    intervals.append((level - 1.0, level + 1e-10))
    counts, fallback = interval_counts(base, 2.0, profiles, intervals)
    assert counts.tolist() == eigvalsh_counts(base, 2.0, profiles, intervals).tolist()
    assert not fallback[:, 0].any()
    assert fallback[0, 1:].all()


def test_interval_counts_zero_pivot_falls_back():
    # x - delta (delta = 2**-20 (1 + |H|_inf + |x|), exact here) equals the first
    # diagonal entry, so the first pivot of that factorization is exactly 0;
    # |H|_inf = 2.25 is the middle row's |0.25| + 2
    base = base_matrix(box(1, 1), False)
    x, norm = 0.5, 2.25
    first = x - 2.0**-20 * (1.0 + norm + x)
    profiles = np.array([[first, 0.25, -0.75], [0.1, 0.25, -0.75]])
    spectra = np.linalg.eigvalsh(hamiltonian_stack(base, 1.0, profiles))
    assert np.min(np.abs(spectra - x)) > 1e-3
    intervals = [(x, 3.0), (-3.0, x)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts, fallback = interval_counts(base, 1.0, profiles, intervals)
    assert counts.tolist() == eigvalsh_counts(base, 1.0, profiles, intervals).tolist()
    assert fallback.tolist() == [[True, True], [False, False]]
    diagonals = np.array([[first - first], [0.25 - first], [-0.75 - first]])
    _, growth = _band_inertia(base, 1, diagonals)
    assert np.isnan(growth[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308])
def test_interval_counts_non_finite_rows_count_nan(bad):
    base = base_matrix(box(2, 2), True)
    profiles = np.random.default_rng(3).uniform(-2.0, 2.0, (3, base.shape[0]))
    profiles[1, 7] = bad
    intervals = [(3.0, 5.0), (4.0, 4.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts, fallback = interval_counts(base, 2.0, profiles, intervals)
    assert np.isnan(counts[1]).all() and fallback[1].all()
    kept = [0, 2]
    expected = eigvalsh_counts(base, 2.0, profiles[kept], intervals)
    assert counts[kept].tolist() == expected.tolist()


def test_interval_counts_bandwidth_follows_the_box():
    # one pivot per site, the band read from the base: 1, side and side**2
    for dimension, radius, band in [(1, 3, 1), (2, 2, 5), (3, 1, 9)]:
        base = base_matrix(box(radius, dimension), False)
        rows, cols = np.nonzero(base)
        assert np.max(cols - rows) == band
        n = base.shape[0]
        negative, growth = _band_inertia(base, band, np.full((n, 1), -10.0))
        assert negative.tolist() == [n]
        assert np.isfinite(growth).all()
