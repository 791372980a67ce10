import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alloylab.disorder import SingleSitePotential, bump_density
from alloylab import operator
from alloylab.lattice import Box, ConfigError, box, envelope_box
from alloylab.operator import (
    ResolventError,
    ResourceLimit,
    chain_eigenvalues,
    _elimination_plan,
    _red_black_inertia,
    base_matrix,
    det_imaginary,
    green_blocks,
    hamiltonian_diagonals,
    hamiltonian_stack,
    interval_counts,
    krein_decomposition,
)
from tests.dense_reference import band_inertia
from tests.sample_reference import assemble, dense_hamiltonian, draw_couplings

RHO = bump_density()


def make_sample(radius, dimension, potential, lam=1.0, seed=0, values=None):
    """``(box, row, V, omega)``: the given couplings, or one draw from ``default_rng(seed)``."""
    b = box(radius, dimension)
    env = envelope_box(b, potential.support_radius)
    if values is not None:
        omega = np.asarray(values, dtype=float)
    else:
        omega = draw_couplings(RHO, env, np.random.default_rng(seed))
    return (b, *assemble(b, potential, omega, lam), omega)


def path_spectrum(n):
    j = np.arange(1, n + 1)
    return np.sort(-2.0 * np.cos(j * np.pi / (n + 1)))


def test_free_chain_matrix_and_spectrum():
    u = SingleSitePotential.delta(1)
    b, row, _, _ = make_sample(1, 1, u, values=[0.0, 0.0, 0.0])
    h = dense_hamiltonian(b, row)
    expected = np.array([[0.0, -1.0, 0.0], [-1.0, 0.0, -1.0], [0.0, -1.0, 0.0]])
    assert np.array_equal(h, expected)
    vals = np.linalg.eigvalsh(h)
    assert np.allclose(vals, [-math.sqrt(2.0), 0.0, math.sqrt(2.0)], atol=1e-12)
    assert np.allclose(vals, path_spectrum(3), atol=1e-12)


@pytest.mark.parametrize("n", [3, 5, 11])
def test_free_chain_path_graph_oracle(n):
    radius = (n - 1) // 2
    u = SingleSitePotential.delta(1)
    b, row, _, _ = make_sample(radius, 1, u, values=np.zeros(n))
    assert np.allclose(np.linalg.eigvalsh(dense_hamiltonian(b, row)), path_spectrum(n), atol=1e-10)


def test_rank_one_diagonal_is_couplings():
    u = SingleSitePotential.delta(1)
    omega = [0.3, -0.1, 0.7, 0.2, 0.5]
    b, row, v, _ = make_sample(2, 1, u, lam=1.0, values=omega)
    assert np.array_equal(np.diag(dense_hamiltonian(b, row)), omega)
    assert np.array_equal(v, omega)


def test_potential_is_convolution_of_couplings():
    u = SingleSitePotential({(0,): 1.0, (1,): 0.25, (-1,): 0.25})
    b = box(1, 1)
    env = envelope_box(b, 1)
    omega = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    v = operator.potential_profiles(b, u, env, omega[None])[0]
    # V(0) = omega_0 + (omega_{-1} + omega_1) / 4
    assert v[1] == pytest.approx(0.3 + (0.2 + 0.4) / 4.0, abs=1e-15)
    assert v[0] == pytest.approx(0.2 + (0.1 + 0.3) / 4.0, abs=1e-15)
    row, _ = assemble(b, u, omega, lam=2.0)
    assert np.allclose(np.diag(dense_hamiltonian(b, row)), 2.0 * v)


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
    inner = Box(tuple(c + o for c, o in zip(field_center, offset)), radius)
    field = Box(field_center, radius + u.support_radius + margin)
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
    touching = Box(tuple(center), inner.radius)
    operator.potential_profiles(touching, u, field, couplings)
    center[axis] = edge + sign
    outside = Box(tuple(center), inner.radius)
    with pytest.raises(ValueError, match="leaves the coupling field"):
        operator.potential_profiles(outside, u, field, couplings)


def test_symmetry_is_exact():
    u = SingleSitePotential({(0, 0): 1.0, (1, 0): -0.2, (0, -1): 0.15})
    b, row, _, _ = make_sample(2, 2, u, lam=0.7, seed=3)
    h = dense_hamiltonian(b, row)
    assert np.array_equal(h, h.T)


def test_shifted_laplacian_flag():
    u = SingleSitePotential.delta(1)
    b, plain, _, _ = make_sample(1, 1, u, values=[0.1, 0.2, 0.3])
    shifted, _ = assemble(b, u, np.array([0.1, 0.2, 0.3]), 1.0, shifted=True)
    assert np.allclose(dense_hamiltonian(b, shifted), dense_hamiltonian(b, plain) + 2.0 * np.eye(3))


def test_nonpositive_disorder_rejected():
    u = SingleSitePotential.delta(1)
    b, row, v, _ = make_sample(1, 1, u, values=np.zeros(3))
    with pytest.raises(ValueError):
        krein_decomposition(b, row, 0.0, v, 0.5 + 0.1j, (-1,), (1,))


def test_2d_laplacian_degree():
    lap = base_matrix(box(1, 2))
    # center of the 3x3 grid has four neighbors
    center = box(1, 2).index_of((0, 0))
    assert lap[center].sum() == -4.0
    assert np.array_equal(lap, lap.T)
    assert np.all(np.diag(lap) == 0.0)


def test_strong_disorder_limit():
    u = SingleSitePotential.delta(1)
    lam = 1e6
    b, row, _, omega = make_sample(3, 1, u, lam=lam, seed=21)
    vals = np.linalg.eigvalsh(dense_hamiltonian(b, row)) / lam
    expected = np.sort(omega)
    assert np.max(np.abs(vals - expected) / np.abs(expected)) < 1e-4


def test_weyl_rank_one_monotonicity():
    u = SingleSitePotential({(0,): 1.0, (1,): -0.3})
    rng = np.random.default_rng(17)
    for _ in range(20):
        b, row, _, _ = make_sample(2, 1, u, seed=int(rng.integers(1 << 30)))
        h = dense_hamiltonian(b, row)
        base = np.linalg.eigvalsh(h)
        bumped = h.copy()
        site = int(rng.integers(b.size))
        bumped[site, site] += float(rng.uniform(0.0, 2.0))
        perturbed = np.linalg.eigvalsh(bumped)
        assert np.all(perturbed >= base - 1e-10)


def test_chain_eigenvalues_matches_dense():
    rng = np.random.default_rng(3)
    diag = rng.normal(size=31)
    dense = -np.diag(np.ones(30), 1) - np.diag(np.ones(30), -1) + np.diag(diag)
    assert np.allclose(chain_eigenvalues(diag), np.linalg.eigvalsh(dense), atol=1e-10)
    assert np.allclose(
        chain_eigenvalues(hamiltonian_diagonals(box(15, 1), True, 1.0, diag)),
        np.linalg.eigvalsh(dense + 2.0 * np.eye(31)),
        atol=1e-10,
    )


def test_a_one_site_chain_returns_its_diagonal_bits():
    # the tridiagonal solver returns a 1x1 diagonal as it is, signed zeros,
    # subnormals and the largest doubles included
    rows = np.array([[-0.0], [0.0], [5e-324], [-1e308], [1e308]])
    for row in rows:
        assert chain_eigenvalues(row).tobytes() == row.tobytes()
    assert operator.eigenvalues(box(0, 1), rows).tobytes() == rows.tobytes()
    # a non-finite diagonal is refused at one site as at two
    for diagonal in ([math.nan], [math.nan, 0.0]):
        with pytest.raises(ValueError, match="infs or NaNs"):
            chain_eigenvalues(np.array(diagonal))


# ---------------------------------------------------------------------------
# Green blocks
# ---------------------------------------------------------------------------

def test_green_block_of_the_free_chain():
    # a zero row: H is the free 3-site chain, eigenvalues -sqrt 2, 0, sqrt 2, whose
    # spectral sums at z = i give G(-1,-1) = G(1,1) = 2i/3 and G(-1,1) = -i/3
    blocks = green_blocks(box(1, 1), np.zeros((1, 3)), 1j, (-1,), (1,))
    assert np.allclose(blocks, 1j * np.array([[[2.0, -1.0], [-1.0, 2.0]]]) / 3.0, atol=1e-14)
    assert det_imaginary(blocks)[0] == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_green_block_rejects_bad_input():
    u = SingleSitePotential.delta(1)
    b, row, v, _ = make_sample(1, 1, u, seed=1)
    with pytest.raises(ConfigError, match="two distinct sites"):
        green_blocks(b, row[None], 1j, (0,), (0,))
    with pytest.raises(ConfigError, match="outside box"):
        green_blocks(b, row[None], 1j, (-1,), (2,))
    with pytest.raises(ResolventError):
        green_blocks(b, row[None], 0.5 + 1e-15j, (-1,), (1,))
    # a row of another box would be read at the wrong indices
    _, larger, _, _ = make_sample(2, 1, u, seed=1)
    with pytest.raises(ConfigError, match="does not act"):
        green_blocks(b, larger[None], 0.5 + 0.1j, (-1,), (1,))
    with pytest.raises(ConfigError, match="does not act"):
        krein_decomposition(b, larger, 1.0, v, 0.5 + 0.1j, (-1,), (1,))


def test_green_entries_respect_the_dense_cap(monkeypatch):
    b, row, v, _ = make_sample(1, 1, SingleSitePotential.delta(1), seed=1)
    monkeypatch.setattr(operator, "DENSE_SOLVE_LIMIT", 2)
    with pytest.raises(ResourceLimit):
        green_blocks(b, row[None], 0.5 + 0.1j, (-1,), (1,))
    with pytest.raises(ResourceLimit):
        krein_decomposition(b, row, 1.0, v, 0.5 + 0.1j, (-1,), (1,))


def test_green_block_symmetry_random_instances():
    rng = np.random.default_rng(100)
    u = SingleSitePotential({(0,): 1.0, (1,): 0.2, (-1,): 0.2})
    for _ in range(100):
        b, row, _, _ = make_sample(2, 1, u, lam=1.5, seed=int(rng.integers(1 << 30)))
        sites = b.sites()
        i, j = rng.choice(len(sites), size=2, replace=False)
        (g,) = green_blocks(b, row[None], 0.3 + 0.1j, sites[i], sites[j])
        assert g[0, 1] == pytest.approx(g[1, 0], abs=1e-12)


@pytest.mark.parametrize("imag", [1e-3, 1e-1, 1.0])
def test_det_imaginary_positive_and_bounded(imag):
    # one batched call over every instance, as the estimator samples: G(E + i imag; H)
    # is G(i imag; H - E), so each row carries its own real part E
    rng = np.random.default_rng(int(imag * 1000) + 1)
    u = SingleSitePotential({(0,): 1.0, (1,): -0.25})
    rows = []
    for _ in range(334):
        b, row, _, _ = make_sample(2, 1, u, lam=2.0, seed=int(rng.integers(1 << 30)))
        rows.append(row - float(rng.uniform(-2.0, 4.0)))
    det = det_imaginary(green_blocks(b, np.stack(rows), 1j * imag, (-1,), (1,)))
    assert det.shape == (334,)
    assert np.all((0.0 < det) & (det <= imag**-2))


def test_green_block_spectral_decomposition_oracle():
    rng = np.random.default_rng(55)
    u = SingleSitePotential({(0, 0): 1.0, (1, 1): 0.15})
    for _ in range(10):
        b, row, _, _ = make_sample(2, 2, u, lam=1.2, seed=int(rng.integers(1 << 30)))
        assert b.size == 25
        vals, vecs = np.linalg.eigh(dense_hamiltonian(b, row))
        z = 0.4 + 0.2j
        # x before y in enumeration order (12 < 16), then x after y (18 > 2)
        for x, y in [((0, 0), (1, -1)), ((1, 1), (-2, 0))]:
            pair = [b.index_of(x), b.index_of(y)]
            oracle = np.zeros((2, 2), dtype=complex)
            for n in range(b.size):
                phi = vecs[:, n]
                weight = 1.0 / (vals[n] - z)
                oracle += weight * np.outer(phi[pair], phi[pair])
            (g,) = green_blocks(b, row[None], z, x, y)
            assert np.max(np.abs(g - oracle)) < 1e-8


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
        b, row, v, _ = make_sample(radius, d, u, lam=lam, seed=int(rng.integers(1 << 30)))
        sites = b.sites()
        i, j = rng.choice(len(sites), size=2, replace=False)
        yield b, row, lam, v, z, sites[i], sites[j]


def test_krein_identity_reconstructs_green_block():
    for b, row, lam, v, z, x, y in krein_cases(100):
        (g,) = green_blocks(b, row[None], z, x, y)
        dec = krein_decomposition(b, row, lam, v, z, x, y)
        assert np.max(np.abs(dec.reconstructed_block() - g)) < 1e-9


def test_krein_imaginary_part_positive_definite():
    for b, row, lam, v, z, x, y in krein_cases(50, seed=8):
        dec = krein_decomposition(b, row, lam, v, z, x, y)
        im_m = (dec.m_matrix - dec.m_matrix.conj().T) / 2j
        assert np.min(np.linalg.eigvalsh(im_m)) > 0.0


def test_krein_matrix_independent_of_local_potential():
    for b, row, lam, v, z, x, y in krein_cases(20, seed=9):
        dec = krein_decomposition(b, row, lam, v, z, x, y)
        bumped = row.copy()
        ix = b.index_of(x)
        bumped[ix] += 0.37
        bumped_v = v + 0.37 / lam * (np.arange(b.size) == ix)
        dec2 = krein_decomposition(b, bumped, lam, bumped_v, z, x, y)
        assert np.max(np.abs(dec.m_matrix - dec2.m_matrix)) < 1e-12


# ---------------------------------------------------------------------------
# certified counts against eigvalsh
# ---------------------------------------------------------------------------

def eigvalsh_counts(base, diagonals, intervals):
    """The dense rule: count each member's ``eigvalsh`` eigenvalues in the closed intervals."""
    spectra = np.linalg.eigvalsh(hamiltonian_stack(base, diagonals))[:, :, None]
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
    b = box(radius, dimension)
    base = base_matrix(b)
    profiles = np.random.default_rng(seed).uniform(-3.0, 3.0, (4, base.shape[0]))
    diagonals = hamiltonian_diagonals(b, shifted, lam, profiles)
    spectra = np.linalg.eigvalsh(hamiltonian_stack(base, diagonals)).ravel()
    nudge = {"on": 0.0, "below": -1e-10, "above": 1e-10}
    points = [
        value if kind == "away" else spectra[pick % spectra.size] + nudge[kind]
        for kind, pick, value in ends
    ]
    intervals = [(x, x) for x in points]
    intervals += [tuple(sorted(pair)) for pair in zip(points, points[1:])]
    counts, fallback = interval_counts(b, diagonals, intervals)
    assert counts.tolist() == eigvalsh_counts(base, diagonals, intervals).tolist()
    assert fallback.shape == counts.shape
    # an endpoint on an eigenvalue is never certified
    for column, (a, b) in enumerate(intervals):
        on = np.any(np.abs(spectra.reshape(4, -1) - a) < 1e-9, axis=1)
        on |= np.any(np.abs(spectra.reshape(4, -1) - b) < 1e-9, axis=1)
        assert np.all(fallback[on, column])


def test_interval_counts_certify_endpoints_away_from_eigenvalues():
    b = box(3, 2)
    base = base_matrix(b)
    diagonals = 2.0 * np.random.default_rng(5).uniform(-1.0, 1.0, (6, base.shape[0]))
    spectra = np.linalg.eigvalsh(hamiltonian_stack(base, diagonals))
    level = spectra[0, 20]
    intervals = [(-0.3, 0.7), (level, level + 1.0), (level - 1e-10, level)]
    intervals.append((level - 1.0, level + 1e-10))
    counts, fallback = interval_counts(b, diagonals, intervals)
    assert counts.tolist() == eigvalsh_counts(base, diagonals, intervals).tolist()
    assert not fallback[:, 0].any()
    assert fallback[0, 1:].all()


def test_a_count_builds_a_dense_matrix_only_to_recount(monkeypatch):
    built = []
    real = operator.base_matrix
    monkeypatch.setattr(operator, "base_matrix", lambda *args: built.append(args) or real(*args))
    b = box(3, 2)
    diagonals = 2.0 * np.random.default_rng(5).uniform(-1.0, 1.0, (6, b.size))
    # every count certified: no dense matrix
    _, fallback = interval_counts(b, diagonals, [(-0.3, 0.7)])
    assert not fallback.any() and built == []
    # an endpoint on an eigenvalue of row 0: one dense base for the recount
    base = real(b)
    level = np.linalg.eigvalsh(hamiltonian_stack(base, diagonals[:1]))[0, 20]
    intervals = [(level, level + 1.0)]
    counts, fallback = interval_counts(b, diagonals, intervals)
    assert fallback[0, 0] and built == [(b,)]
    assert counts.tolist() == eigvalsh_counts(base, diagonals, intervals).tolist()
    # a NaN row falls back, but has nothing to recount
    diagonals[1, 4] = np.nan
    counts, fallback = interval_counts(b, diagonals, [(-0.3, 0.7)])
    assert fallback[1, 0] and np.isnan(counts[1, 0]) and len(built) == 1


def test_interval_counts_zero_pivot_falls_back():
    # x - delta (delta = 2**-20 (1 + |H|_inf + |x|), exact here) equals the first
    # diagonal entry, so the first pivot of that factorization is exactly 0;
    # |H|_inf = 2.25 is the middle row's |0.25| + 2
    b = box(1, 1)
    base = base_matrix(b)
    x, norm = 0.5, 2.25
    first = x - 2.0**-20 * (1.0 + norm + x)
    profiles = np.array([[first, 0.25, -0.75], [0.1, 0.25, -0.75]])
    spectra = np.linalg.eigvalsh(hamiltonian_stack(base, profiles))
    assert np.min(np.abs(spectra - x)) > 1e-3
    intervals = [(x, 3.0), (-3.0, x)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts, fallback = interval_counts(b, profiles, intervals)
    assert counts.tolist() == eigvalsh_counts(base, profiles, intervals).tolist()
    assert fallback.tolist() == [[True, True], [False, False]]
    diagonals = np.array([[first - first], [0.25 - first], [-0.75 - first]])
    _, growth = _red_black_inertia(_elimination_plan(1, 3), diagonals, np.zeros((1, 1)))
    assert not np.isfinite(growth[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e308])
def test_interval_counts_non_finite_rows_count_nan(bad):
    b = box(2, 2)
    base = base_matrix(b)
    profiles = np.random.default_rng(3).uniform(-2.0, 2.0, (3, base.shape[0]))
    profiles[1, 7] = bad
    diagonals = hamiltonian_diagonals(b, True, 2.0, profiles)
    intervals = [(3.0, 5.0), (4.0, 4.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts, fallback = interval_counts(b, diagonals, intervals)
    assert np.isnan(counts[1]).all() and fallback[1].all()
    kept = [0, 2]
    expected = eigvalsh_counts(base, diagonals[kept], intervals)
    assert counts[kept].tolist() == expected.tolist()


def test_interval_counts_bandwidth_follows_the_box():
    # one pivot per site; the widest front grows with the box
    for dimension, radius, front in [(1, 3, 2), (2, 2, 6), (3, 1, 9)]:
        b = box(radius, dimension)
        plan = _elimination_plan(dimension, b.side)
        assert max(plan.fronts) == front
        assert sorted(np.concatenate([plan.red, plan.black]).tolist()) == list(range(b.size))
        negative, growth = _red_black_inertia(plan, np.full((b.size, 1), -10.0), np.zeros((1, 1)))
        assert negative.tolist() == [b.size]
        assert np.isfinite(growth).all()


@settings(max_examples=80, deadline=None)
@given(
    shape=st.sampled_from([(1, 0), (1, 1), (1, 4), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1)]),
    shifted=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    specials=st.lists(
        st.tuples(
            st.integers(0, 10**6),
            st.integers(0, 7),
            st.sampled_from([0.0, np.inf, -np.inf, np.nan]),
        ),
        max_size=4,
    ),
)
def test_red_black_inertia_matches_the_banded_reference(shape, shifted, seed, specials):
    # the lexicographic banded LDL^T it replaces is the oracle: on lanes both
    # kernels certify against the lane's own spectrum, the negative pivots agree
    dimension, radius = shape
    b = box(radius, dimension)
    base, n, eps = base_matrix(b), b.size, np.finfo(float).eps
    draws = np.random.default_rng(seed).uniform(-4, 4, (n, 8))
    diagonals = hamiltonian_diagonals(b, shifted, 1.0, draws.T).T
    for site, lane, value in specials:
        diagonals[site % n, lane] = value  # an exact 0 on a red site is a zero pivot
    plan = _elimination_plan(dimension, b.side)
    band = b.side ** (dimension - 1) if n > 1 else 0
    negative, growth = _red_black_inertia(plan, diagonals, np.zeros((8, 1)))
    reference, reference_growth = band_inertia(base, band, diagonals)
    finite = np.all(np.isfinite(diagonals), axis=0)
    zero_red = np.any(diagonals[plan.red] == 0.0, axis=0)
    assert not np.isfinite(growth[~finite | zero_red]).any()
    off = base - np.diag(np.diagonal(base))
    compared = 0
    for lane in np.flatnonzero(finite):
        matrix = off + np.diag(diagonals[:, lane])
        spectrum = np.linalg.eigvalsh(matrix)
        gap = np.min(np.abs(spectrum)) - 16 * n * n * eps * (1 + np.max(np.abs(matrix).sum(1)))
        ours = growth[lane] * plan.bound * eps < gap
        theirs = reference_growth[lane] * 2 * (2 * band + 1) * (band + 1) ** 2 * eps < gap
        if ours and theirs:
            assert negative[lane] == reference[lane] == np.sum(spectrum < 0)
            compared += 1
    assert compared >= finite.sum() - np.count_nonzero(zero_red & finite) - 1


@pytest.mark.parametrize("ends", [1, 8])
@pytest.mark.parametrize("dimension, radius", [(3, 2), (2, 1)])
def test_interval_counts_both_sides_of_the_dispatch_match_eigvalsh(dimension, radius, ends):
    # with many endpoints eigvalsh is the cheaper count (every row flagged as
    # eigvalsh's); with few, the certified inertia counts and recounts the rest
    b = box(radius, dimension)
    base, n = base_matrix(b), b.size
    diagonals = 2.0 * np.random.default_rng(8).uniform(-1.0, 1.0, (12, n))
    diagonals[3, 1] = np.nan
    points = np.linspace(-2.0, 2.5, 2 * ends)
    intervals = list(zip(points[::2], points[1::2]))
    plan = _elimination_plan(dimension, b.side)
    dense = 2 * len(points) * plan.work > operator._EIGVALSH_COST * n**2.5
    assert dense == (ends == 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts, fallback = interval_counts(b, diagonals, intervals)
    kept = np.arange(12) != 3
    assert counts[kept].tolist() == eigvalsh_counts(base, diagonals[kept], intervals).tolist()
    assert np.isnan(counts[3]).all() and fallback[3].all()
    assert fallback[kept].all() == dense
