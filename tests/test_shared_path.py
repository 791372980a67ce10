"""Equivalence oracle for the shared draw-and-assembly path.

The batched kernels (certified counts through ``run_parallel``, the eigenvalue kernel
of the IDS and spacing ensembles) must agree, sample by sample, with a
reference built one sample at a time: the sample's generator, written out
here -> ``tests.sample_reference`` (``draw_couplings`` -> ``assemble``) ->
``eigvalsh``.  The one resolvent solve,
``resolvent_columns``, must agree bit for bit with the columns of the dense
inverse it replaced.
"""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import alloylab

from alloylab.config import potential_from_config
from alloylab.disorder import bump_density
from alloylab.estimators import ExperimentConfig, _batched_counts, run_parallel
from alloylab.lattice import box, envelope_box
from alloylab.operator import (
    base_matrix,
    green_columns,
    hamiltonian_diagonals,
    hamiltonian_stack,
    resolvent_columns,
)
from alloylab.spectra import _eigenvalue_kernel
from tests.sample_reference import assemble, draw_couplings

N_SAMPLES = 10
# (dimension, box radius, disorder strength): bandwidths 1, 5 and 9; at strength 0
# the signed potential's negative entries put -0.0 on the diagonal (unshifted, seed
# 17: site 1 of sample 9)
CASES = [(1, 4, 2.0), (2, 2, 2.0), (3, 1, 2.0), (1, 4, 0.0)]
CASE_IDS = ["1-4", "2-2", "3-1", "1-4-lam0"]


def shared_config(dimension, radius, shifted, lam):
    shift = 2.0 * dimension if shifted else 0.0
    return ExperimentConfig(
        dimension=dimension,
        box_radius=radius,
        potential=potential_from_config("nn_signed", dimension),
        density=bump_density(),
        disorder_strength=lam,
        interval=(0.5 + shift, 2.0 + shift),
        n_samples=N_SAMPLES,
        seed=17,
        shifted_laplacian=shifted,
    )


def reference_spectra(cfg, radius):
    """Each sample's ``eigvalsh`` eigenvalues, one sample at a time."""
    inner = box(radius, cfg.dimension)
    env = envelope_box(inner, cfg.potential.support_radius)
    for index in range(N_SAMPLES):
        stream = np.random.SeedSequence(cfg.seed, spawn_key=(index,))
        omega = draw_couplings(cfg.density, env, np.random.Generator(np.random.PCG64(stream)))
        h, _ = assemble(inner, cfg.potential, omega, cfg.disorder_strength, cfg.shifted_laplacian)
        yield np.linalg.eigvalsh(h)


@pytest.mark.parametrize("chunk_size", [1, 4])
@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("dimension, radius, lam", CASES, ids=CASE_IDS)
def test_counting_kernel_matches_per_sample_reference(dimension, radius, lam, shifted, chunk_size):
    cfg = shared_config(dimension, radius, shifted, lam)
    spectra = list(reference_spectra(cfg, radius))
    # closed intervals: endpoints set exactly to a reference eigenvalue count it
    lo, hi = cfg.interval
    level = next(v for v in spectra[0] if lo < v < hi)
    intervals = [cfg.interval, (lo, level), (level, level), (level, hi), (hi, hi + 1.0)]
    k = len(intervals)
    rows = run_parallel(_batched_counts(cfg, intervals), N_SAMPLES, 2 * k, 1, chunk_size)
    rows, fallbacks = rows[:, :k], rows[:, k:]
    expected = [[int(np.sum((s >= a) & (s <= b))) for a, b in intervals] for s in spectra]
    assert rows.tolist() == expected
    assert rows[0, 2] >= 1
    assert rows[:, 1].sum() + rows[:, 3].sum() - rows[:, 2].sum() == rows[:, 0].sum()
    # an endpoint on an eigenvalue cannot be certified, so sample 0 recounts densely
    assert fallbacks[0, 1:4].tolist() == [1.0, 1.0, 1.0]
    assert set(fallbacks.ravel()) <= {0.0, 1.0}


@pytest.mark.parametrize("chunk_size", [1, 4])
@pytest.mark.parametrize("shifted", [False, True])
@pytest.mark.parametrize("dimension, radius, lam", CASES, ids=CASE_IDS)
def test_eigenvalue_kernel_matches_per_sample_reference(dimension, radius, lam, shifted, chunk_size):
    cfg = shared_config(dimension, radius, shifted, lam)
    inner, kernel = _eigenvalue_kernel(cfg, radius)
    rows = run_parallel(kernel, N_SAMPLES, inner.size, 1, chunk_size)
    expected = np.stack(list(reference_spectra(cfg, radius)))
    np.testing.assert_allclose(rows, expected, rtol=0.0, atol=1e-12)


def test_base_matrix_and_stack_layout():
    b = box(1, 2)
    idx = np.arange(b.size)
    base = base_matrix(b)
    assert base.dtype == float
    assert np.array_equal(base[idx, idx], np.zeros(b.size))
    profiles = np.arange(2 * b.size, dtype=float).reshape(2, b.size)
    diagonals = hamiltonian_diagonals(b, True, 3.0, profiles)
    assert np.array_equal(diagonals, 3.0 * profiles + 4.0)
    # unshifted, no + 0.0 is added: a -0.0 stays -0.0
    assert np.signbit(hamiltonian_diagonals(b, False, 0.0, -1.0 - profiles)).all()
    expected = np.stack([base + np.diag(diagonal) for diagonal in diagonals])
    assert np.array_equal(hamiltonian_stack(base, diagonals), expected)


def dense_inverse_columns(matrices, z, columns):
    """Reference: the bare inverse of ``H - z`` per member, restricted to ``columns``."""
    shifted = matrices.astype(complex)
    idx = np.arange(matrices.shape[1])
    shifted[:, idx, idx] -= z
    return np.linalg.inv(shifted)[:, :, columns]


# Boxes stay below 100 rows: from there on OpenBLAS solves a lone right-hand
# side by a different kernel, so one column may differ from the inverse's in
# the last bits.
@pytest.mark.parametrize("dimension, radius", [(1, 4), (1, 20), (2, 2), (2, 4)])
def test_resolvent_columns_match_dense_inverse(dimension, radius):
    rng = np.random.default_rng(10 * dimension + radius)
    b = box(radius, dimension)
    matrices = hamiltonian_stack(base_matrix(b), 3.0 * rng.uniform(-1.0, 1.0, size=(16, b.size)))
    z = complex(rng.uniform(-2.0, 2.0), 0.05)
    for columns in ([0], [b.size - 1, 0], list(range(0, b.size, 3)), list(range(b.size))):
        solutions, certified = resolvent_columns(matrices, z, columns)
        assert certified.all()
        assert np.array_equal(solutions, dense_inverse_columns(matrices, z, columns))


def test_resolvent_columns_subtract_z_after_the_shift():
    b = box(1, 2)
    z = complex(0.5, 0.1)
    idx = np.arange(b.size)
    expected = base_matrix(b).astype(complex)
    expected[idx, idx] = 4.0 - z
    stack = hamiltonian_stack(base_matrix(b), hamiltonian_diagonals(b, True, 3.0, np.zeros((2, b.size))))
    solutions, certified = resolvent_columns(stack, z, range(b.size))
    assert certified.all()
    assert np.array_equal(solutions, np.linalg.inv(np.stack([expected, expected])))


def test_resolvent_columns_flag_bad_members_only():
    rng = np.random.default_rng(5)
    b = box(3, 1)
    matrices = hamiltonian_stack(base_matrix(b), 2.0 * rng.uniform(size=(6, b.size)))
    matrices[2, 0, 0] = np.nan
    matrices[4, 1, 1] = np.inf
    z = 0.3 + 0.1j
    solutions, certified = resolvent_columns(matrices, z, [1, 5])
    assert certified.tolist() == [True, True, False, True, False, True]
    for i in (0, 1, 3, 5):
        alone, ok = resolvent_columns(matrices[i : i + 1], z, [1, 5])
        assert ok[0]
        assert np.array_equal(solutions[i], alone[0])


def test_green_columns_are_nan_in_every_uncertified_member():
    # the solve of the box's stack, with real and imaginary parts NaN wherever it is
    # uncertified: an imaginary part left at 0 would make det Im g an envelope fault
    rng = np.random.default_rng(5)
    b = box(3, 1)
    diagonals = 2.0 * rng.uniform(size=(6, b.size))
    diagonals[2, 0], diagonals[4, 1] = np.nan, np.inf
    z = 0.3 + 0.1j
    green = green_columns(b, diagonals, z, [1, 5])
    solutions, certified = resolvent_columns(hamiltonian_stack(base_matrix(b), diagonals), z, [1, 5])
    assert certified.tolist() == [True, True, False, True, False, True]
    assert np.array_equal(green[certified], solutions[certified])
    assert np.isnan(green[~certified].real).all() and np.isnan(green[~certified].imag).all()


def test_resolvent_columns_fall_back_on_a_singular_member():
    # a rotation generator is not symmetric: H - i is exactly singular,
    # which makes the batched solve raise and the per-member path take over
    rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
    symmetric = np.array([[1.0, -1.0], [-1.0, 0.5]])
    matrices = np.stack([symmetric, rotation, 2.0 * symmetric])
    solutions, certified = resolvent_columns(matrices, 1j, [0, 1])
    assert certified.tolist() == [True, False, True]
    assert np.isnan(solutions[1]).all()
    assert np.array_equal(solutions[[0, 2]], dense_inverse_columns(matrices[[0, 2]], 1j, [0, 1]))


def _methods(name):
    """``(module, class or "<module>")`` for every definition of ``name`` in the package."""
    owners = set()
    for path in Path(alloylab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            body = node.body if isinstance(node, (ast.Module, ast.ClassDef)) else []
            for item in body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name == name:
                    owners.add((path.stem, getattr(node, "name", "<module>")))
    return owners


def test_quantile_is_defined_only_on_the_base_density():
    # perfbench's tracer wraps DisorderDensity.quantile, PiecewisePolynomialDensity.cdf
    # and RaisedCosineDensity.cdf by those names: an override in a subclass, a second
    # quantile elsewhere or a renamed cdf would silently zero its spans
    assert _methods("quantile") == {("disorder", "DisorderDensity")}
    assert {("disorder", "PiecewisePolynomialDensity"), ("disorder", "RaisedCosineDensity")} <= _methods("cdf")


def test_only_the_base_quantile_bisects():
    # one quantile path: table walk, Newton, the crossing check, and the
    # bisection for the rows that fail it
    callers = {
        (module, name)
        for module, name, node in _src_functions()
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and _called(call) == "_bisect"
    }
    assert callers == {("disorder", "quantile")}


def _src_functions():
    """``(module, function, node)`` for every function defined in the package."""
    for path in sorted(Path(alloylab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path.stem, node.name, node


def _called(call: ast.Call) -> str:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def test_only_interval_counts_runs_the_elimination_kernel():
    callers = {
        (module, name)
        for module, name, node in _src_functions()
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and _called(call) == "_red_black_inertia"
    }
    assert callers == {("operator", "interval_counts")}


def test_only_operator_holds_a_dense_hamiltonian():
    # kernels hand operator a box and diagonal rows: the dense matrix, its solve and
    # its eigensolves are operator's own format, so a banded one changes one module;
    # and BLAS threads are set in one place, whose pin is never undone
    dense = {"base_matrix", "hamiltonian_stack", "resolvent_columns", "chain_eigenvalues",
             "eigvalsh", "eigh_tridiagonal"}
    callers, pins = set(), set()
    for module, name, node in _src_functions():
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            if module != "operator" and (
                _called(call) in dense or ast.unparse(call.func).endswith("linalg.solve")
            ):
                callers.add((module, name, ast.unparse(call.func)))
            if _called(call) == "set_threads":
                pins.add((module, name))
    assert callers == set()
    assert pins == {("estimators", "pin_blas_threads")}


def test_the_convention_enters_only_the_diagonal_row():
    # a config's shifted_laplacian is read where it is built and digested, by the
    # draw helper (into hamiltonian_diagonals) and by the two spectral bounds;
    # every kernel takes the diagonal row, so no other function takes a flag
    readers = {
        (module, name)
        for module, name, node in _src_functions()
        for part in ast.walk(node)
        if (isinstance(part, ast.Attribute) and part.attr == "shifted_laplacian")
        or (isinstance(part, ast.keyword) and part.arg == "shifted_laplacian")
    }
    assert readers == {
        ("config", "experiment_from_config"),
        ("estimators", "digest_payload"),
        ("estimators", "_draw_diagonals"),
        ("spectra", "spectral_range"),
        ("cli", "cmd_ids"),
    }
    flagged = {
        (module, name)
        for module, name, node in _src_functions()
        if module in {"operator", "estimators", "spectra"}
        and "shifted" in {arg.arg for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs}
    }
    assert flagged == {("operator", "hamiltonian_diagonals")}


def test_no_band_is_read_out_of_a_dense_matrix():
    # the elimination plan is a function of the box; the dense Hamiltonians
    # (``base``, ``matrix``, ``matrices``, ``stack``) are never searched for a band
    dense = {"base", "bases", "matrix", "matrices", "stack"}
    readers = []
    for module, name, node in _src_functions():
        for call in ast.walk(node):
            if isinstance(call, ast.Call) and _called(call) in {"nonzero", "flatnonzero", "argwhere"}:
                inputs = [call.func.value] if _called(call) == "nonzero" and call.args == [] else call.args
                names = {n.id for arg in inputs for n in ast.walk(arg) if isinstance(n, ast.Name)}
                if names & dense:
                    readers.append((module, name, ast.unparse(call)))
    assert readers == []


def test_refusals_are_config_errors_and_main_maps_only_named_types():
    # an input refusal is a ConfigError raised where the input is checked; cli.main maps
    # the package's own types to exit statuses, so anything else keeps its traceback
    bare = [
        (module, name, ast.unparse(part))
        for module, name, node in _src_functions()
        for part in ast.walk(node)
        if isinstance(part, ast.Raise) and part.exc is not None
        and ast.unparse(getattr(part.exc, "func", part.exc)) == "ValueError"
    ]
    assert bare == []
    (main,) = [node for module, name, node in _src_functions() if (module, name) == ("cli", "main")]
    caught = {
        ast.unparse(name)
        for handler in ast.walk(main)
        if isinstance(handler, ast.ExceptHandler)
        for name in ast.walk(handler.type)
        if isinstance(name, ast.Name)
    }
    assert caught == {"ConfigError", "ResourceLimit", "OSError", "TransformError", "RunFailure", "NumericalFault"}


def test_every_keyword_default_is_passed_inside_the_package():
    # a default that no call in the package overrides is an option only tests
    # select: it becomes a module constant (tests monkeypatch it) or goes; the
    # console entry point's argv is the one exception
    owners = {}  # (module, line) of each method: its class
    for path in sorted(Path(alloylab.__file__).parent.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            for item in cls.body if isinstance(cls, ast.ClassDef) else []:
                if isinstance(item, ast.FunctionDef):
                    owners[path.stem, item.lineno] = cls.name
    calls = [call for _, _, node in _src_functions() for call in ast.walk(node) if isinstance(call, ast.Call)]
    unpassed = []
    for module, name, node in _src_functions():
        if name.startswith("_") and name != "__init__":
            continue
        owner = owners.get((module, node.lineno))
        static = "staticmethod" in {ast.unparse(d) for d in node.decorator_list}
        offset = 1 if owner is not None and not static else 0  # self or cls
        args = node.args
        positional = args.posonlyargs + args.args
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
        target = owner if name == "__init__" else name  # a class call passes its __init__'s arguments
        for arg in defaulted:
            index = positional.index(arg) - offset if arg in positional else math.inf
            if not any(
                _called(call) == target
                and (
                    len(call.args) > index
                    or any(isinstance(a, ast.Starred) for a in call.args)
                    or any(k.arg in (arg.arg, None) for k in call.keywords)
                )
                for call in calls
            ):
                unpassed.append((module, name, arg.arg))
    assert unpassed == [("cli", "main", "argv")]
