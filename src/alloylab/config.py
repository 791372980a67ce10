"""Experiment configuration: JSON schema, named presets, digests.

All physical parameters (dimension, box radii, disorder strength) must be
explicit in the config; silent defaults would corrupt reproducibility
claims.  Sampling parameters (seed, samples, workers) have CLI flags.
Every field is read through ``read``, which checks its JSON type and finiteness.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .disorder import (
    DisorderDensity,
    PiecewisePolynomialDensity,
    PiecewiseProfile,
    SingleSitePotential,
    density_preset,
)
from .estimators import ExperimentConfig
from .lattice import ConfigError


REQUIRED = object()  # default of a field the config must set
_KIND_NAMES = {int: "integer", float: "number", bool: "boolean", str: "string", dict: "object"}


def _describe(kind) -> str:
    if isinstance(kind, tuple):
        return " or ".join(map(_describe, kind))
    if isinstance(kind, list):
        return "[" + ", ".join(map(_describe, kind)) + (", ...]" if len(kind) == 1 else "]")
    return _KIND_NAMES[kind]


def _convert(value, kind):
    """``value`` as ``kind``; ``TypeError`` when its JSON type is another.

    A number no finite double holds ends the search: ``ConfigError`` or ``OverflowError``.
    """
    if isinstance(kind, tuple):
        for option in kind:
            try:
                return _convert(value, option)
            except TypeError:
                pass
        raise TypeError
    if isinstance(kind, list):
        if type(value) is not list or (len(kind) > 1 and len(value) != len(kind)):
            raise TypeError
        kinds = kind if len(kind) > 1 else kind * len(value)
        return [_convert(item, k) for item, k in zip(value, kinds)]
    if kind is float and type(value) in (int, float):
        if not math.isfinite(value):  # OverflowError for an integer past the doubles
            raise ConfigError
        return float(value)
    if type(value) is not kind:
        raise TypeError
    return value


def read(raw: dict, name: str, kind, default=REQUIRED):
    """Field ``name`` of ``raw``, checked against a JSON ``kind``.

    ``kind`` is ``int``, ``float``, ``bool``, ``str`` or ``dict``; ``[k]`` is a
    list of any length whose entries are ``k``, ``[k1, k2, ...]`` a list of
    exactly those entries, and a tuple of kinds accepts any one of them.  An
    integer is a JSON integer and a boolean is ``true``/``false``; a boolean
    is never a number, and a number is returned as a finite float (``NaN``,
    ``Infinity``, ``1e400`` or an integer past the doubles is refused, in a
    list too).  A missing field returns ``default``; without one it is a
    ``ConfigError``, and so is a value of another type or a non-finite number.
    """
    if name not in raw:
        if default is REQUIRED:
            raise ConfigError(f"missing required config field {name!r}")
        return default
    try:
        return _convert(raw[name], kind)
    except TypeError:
        expected = _describe(kind)
    except (ConfigError, OverflowError):
        expected = "finite"
    raise ConfigError(f"field {name!r} must be {expected}, got {json.dumps(raw[name])}")


# each preset's value on the nearest neighbour at ``sign`` (-1 or 1) along an axis; the
# origin carries 1, and a zero is no support
POTENTIAL_PRESETS = {
    "delta": lambda sign: 0.0,
    "nn_positive": lambda sign: 0.2,
    "nn_signed": lambda sign: 0.2 * sign,  # dominant, with a zero-free transform
}


def _preset_potential(name: str, dimension: int) -> SingleSitePotential:
    """Preset ``name`` in ``dimension``: unit peak, ``POTENTIAL_PRESETS[name]`` on the neighbours."""
    neighbour, values = POTENTIAL_PRESETS[name], {(0,) * dimension: 1.0}
    for axis in range(dimension):
        for sign in (-1, 1):
            values[tuple(sign if a == axis else 0 for a in range(dimension))] = neighbour(sign)
    return SingleSitePotential(values)


def potential_from_config(obj, dimension: int) -> SingleSitePotential:
    """Potential from a preset name, ``{"preset": name}`` or a list of (offset, value) pairs."""
    if isinstance(obj, dict):
        obj = read(obj, "preset", str)
    if isinstance(obj, str):
        try:
            return _preset_potential(obj, dimension)
        except KeyError:
            raise ConfigError(
                f"unknown potential preset {obj!r}; have {sorted(POTENTIAL_PRESETS)}"
            ) from None
    return SingleSitePotential.from_pairs(obj)


def density_from_config(obj) -> DisorderDensity:
    """Density from a preset name, ``{"preset": name}`` or a piecewise coefficient table."""
    if isinstance(obj, dict) and "preset" not in obj:
        breakpoints: list[float] = []
        coefficients = []
        for piece in read(obj, "pieces", [dict]):
            lo, hi = read(piece, "interval", [float, float])
            if not breakpoints:
                breakpoints.extend([lo, hi])
            else:
                if lo != breakpoints[-1]:
                    raise ConfigError("density pieces must be contiguous")
                breakpoints.append(hi)
            coefficients.append(tuple(read(piece, "coefficients", [float])))
        try:
            profile = PiecewiseProfile(tuple(breakpoints), tuple(coefficients))
            return PiecewisePolynomialDensity(profile)
        except ConfigError as err:
            raise ConfigError(f"invalid density table: {err}") from err
    if isinstance(obj, dict):
        obj = read(obj, "preset", str)
    return density_preset(obj)


def load_config(path: str | Path) -> dict:
    """Parse a JSON config file with positional diagnostics."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"{path}:{err.lineno}:{err.colno}: invalid JSON ({err.msg})"
        ) from err
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top-level config must be a JSON object")
    return raw


def experiment_from_config(raw: dict, required: tuple[str, ...] = ()) -> ExperimentConfig:
    """Build an experiment from a parsed config (CLI overrides already merged).

    ``dimension``, ``disorder_strength``, ``potential`` and ``density`` are
    always required; the optional fields named in ``required`` are too.
    """

    def default(name: str, value=None):
        return REQUIRED if name in required else value

    dimension = read(raw, "dimension", int)
    energy = read(raw, "energy", (float, [float, float]), default("energy"))
    if energy is not None:
        energy = complex(*energy) if isinstance(energy, list) else complex(energy, 0.0)
    return ExperimentConfig(
        dimension=dimension,
        box_radius=read(raw, "box_radius", int, default("box_radius", 0)),
        potential=potential_from_config(
            read(raw, "potential", (str, dict, [[[int], float]])), dimension
        ),
        density=density_from_config(read(raw, "density", (str, dict))),
        disorder_strength=read(raw, "disorder_strength", float),
        energy=energy,
        interval=read(raw, "interval", [float, float], default("interval")),
        site_x=read(raw, "site_x", [int], default("site_x")),
        site_y=read(raw, "site_y", [int], default("site_y")),
        n_samples=read(raw, "samples", int, 1000),
        seed=read(raw, "seed", int, 0),
        workers=read(raw, "workers", int, 1),
        shifted_laplacian=read(raw, "shifted_laplacian", bool, False),
    )
