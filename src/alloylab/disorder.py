"""Single-site potentials and disorder densities.

The density machinery is exact by design: densities are piecewise
polynomials (or closed-form specials) so that the norms entering the bound
constants carry no quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .lattice import Site

QUANTILE_TOL = 1e-12
_TABLE_DEPTH = 12  # bisection levels tabulated per density: 4095 CDF values
_CONTINUITY_TOL = 1e-12


# ---------------------------------------------------------------------------
# piecewise polynomial profiles
# ---------------------------------------------------------------------------

def _real_roots_in(coeffs: np.ndarray, lo: float, hi: float) -> list[float]:
    """Real roots of a polynomial inside [lo, hi], clipped to the interval."""
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    if c.size <= 1:
        return []
    roots = npoly.polyroots(c)
    out = []
    for r in roots:
        if abs(r.imag) <= 1e-9 * (1.0 + abs(r.real)):
            x = float(r.real)
            if lo - 1e-12 <= x <= hi + 1e-12:
                out.append(min(max(x, lo), hi))
    return sorted(out)


@dataclass(frozen=True)
class PiecewiseProfile:
    """Piecewise polynomial on a compact interval, zero outside.

    Parameters
    ----------
    breakpoints
        Strictly increasing abscissae ``t_0 < ... < t_m`` bounding the pieces.
    coefficients
        One coefficient tuple per piece, ascending powers, in the global
        coordinate (piece ``i`` is ``sum_k c_k t**k`` on ``[t_i, t_{i+1}]``).
    """

    breakpoints: tuple[float, ...]
    coefficients: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        bp = tuple(float(t) for t in self.breakpoints)
        if len(bp) < 2:
            raise ValueError("a profile needs at least one piece")
        if any(b - a <= 0 for a, b in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        cf = tuple(tuple(float(c) for c in piece) for piece in self.coefficients)
        if len(cf) != len(bp) - 1:
            raise ValueError("need exactly one coefficient tuple per piece")
        if any(len(piece) == 0 for piece in cf):
            raise ValueError("empty coefficient tuple")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "coefficients", cf)

    @property
    def support(self) -> tuple[float, float]:
        return self.breakpoints[0], self.breakpoints[-1]

    @property
    def n_pieces(self) -> int:
        return len(self.coefficients)

    def piece_index(self, t: np.ndarray) -> np.ndarray:
        """The piece holding each ``t``, clipped to the ends; a breakpoint opens its right piece."""
        return np.clip(np.searchsorted(self.breakpoints, t, side="right") - 1, 0, self.n_pieces - 1)

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        inside = (t >= self.breakpoints[0]) & (t <= self.breakpoints[-1])
        idx = self.piece_index(t)
        for i, coeffs in enumerate(self.coefficients):
            mask = inside & (idx == i)
            if np.any(mask):
                out[mask] = npoly.polyval(t[mask], coeffs)
        return out if out.ndim else float(out)

    def derivative(self) -> "PiecewiseProfile":
        return PiecewiseProfile(
            self.breakpoints,
            tuple(tuple(npoly.polyder(np.asarray(c))) if len(c) > 1 else (0.0,)
                  for c in self.coefficients),
        )

    def _node_values(self) -> list[np.ndarray]:
        """Per piece, the values at its left end, its interior critical points and its right end.

        The one critical-point scan: extrema, variation and jumps all read it.
        """
        out = []
        for (a, b), c in zip(zip(self.breakpoints, self.breakpoints[1:]), self.coefficients):
            carr = np.asarray(c)
            deriv = npoly.polyder(carr) if len(c) > 1 else np.zeros(1)
            out.append(npoly.polyval(np.asarray([a] + _real_roots_in(deriv, a, b) + [b]), carr))
        return out

    def sup_norm(self) -> float:
        return max(float(np.max(np.abs(v))) for v in self._node_values())

    def min_value(self) -> float:
        return min(float(np.min(v)) for v in self._node_values())

    def total_variation(self) -> float:
        """Variation of the profile over its support (exact for polynomials).

        Equals the L1 norm of the derivative when the profile is absolutely
        continuous, which callers are expected to validate.
        """
        return sum(float(np.sum(np.abs(np.diff(v)))) for v in self._node_values())

    def jump_sizes(self) -> list[float]:
        """Mismatch of values across internal breakpoints plus the edge values."""
        values = self._node_values()
        inner = [abs(float(left[-1] - right[0])) for left, right in zip(values, values[1:])]
        return [abs(float(values[0][0]))] + inner + [abs(float(values[-1][-1]))]

    def is_absolutely_continuous(self) -> bool:
        """Continuous across pieces and vanishing at the support edges."""
        scale = max(1.0, self.sup_norm())
        return all(j <= _CONTINUITY_TOL * scale for j in self.jump_sizes())


def polyline_profile(nodes: Sequence[float], values: Sequence[float]) -> PiecewiseProfile:
    """Piecewise-linear profile through ``(nodes[i], values[i])``."""
    nodes = [float(x) for x in nodes]
    values = [float(v) for v in values]
    if len(nodes) != len(values) or len(nodes) < 2:
        raise ValueError("need matching node/value sequences of length >= 2")
    pieces = []
    for (a, b), (va, vb) in zip(zip(nodes, nodes[1:]), zip(values, values[1:])):
        slope = (vb - va) / (b - a)
        pieces.append((va - slope * a, slope))
    return PiecewiseProfile(tuple(nodes), tuple(pieces))


def hat_profile() -> PiecewiseProfile:
    """Tent of height 1 on [0, 2], the equality case of the Sobolev check."""
    return polyline_profile([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])


def bump_profile() -> PiecewiseProfile:
    """The quartic bump 30 t^2 (1-t)^2 on [0, 1]."""
    return PiecewiseProfile((0.0, 1.0), ((0.0, 0.0, 30.0, -60.0, 30.0),))


# ---------------------------------------------------------------------------
# disorder densities
# ---------------------------------------------------------------------------

class DisorderDensity:
    """Compactly supported probability density in ``W^{2,1}``, with exact Sobolev norms.

    Subclasses provide ``pdf``/``cdf`` and the exact norms ``sup_norm``,
    ``d1_norm`` (L1 of the first derivative) and ``d2_norm`` (L1 of the
    second), and refuse to be built outside ``W^{2,1}``, so every density
    object is in the class.  Quantiles are a bisection on the CDF to
    1e-12, so sampling is deterministic given the uniform draws; its first
    levels are tabulated at construction (``_tabulate_bisection``), and the
    result has the bits of the plain bisection.
    """

    support: tuple[float, float]
    sup_norm: float
    d1_norm: float
    d2_norm: float

    def pdf(self, t) -> np.ndarray:
        raise NotImplementedError

    def cdf(self, t) -> np.ndarray:
        raise NotImplementedError

    def config_key(self):
        raise NotImplementedError

    def _tabulate_bisection(self, pieces=()) -> None:
        """Replay the first levels of the quantile bisection once, for every ``q`` at the same time.

        Node ``n`` of the bisection tree has children ``2 n + 1`` (left) and
        ``2 n + 2`` (right), levels numbered left to right; ``_cdf_table[n]``
        is ``cdf`` at its midpoint, and leaf ``j`` brackets
        ``[_edges[j], _edges[j + 1]]``.  ``pieces`` are ``(left, right, f)``
        with ``f`` a cheaper function that every comparison ``f(t) < q``
        answers as ``cdf(t) < q`` does, for ``left < t < right``;
        ``_leaf_piece[j]`` is the piece that strictly contains leaf ``j``'s
        bracket, or -1.
        """
        a, b = self.support
        self._n_iter = max(1, math.ceil(math.log2((b - a) / QUANTILE_TOL)))
        edges = np.array([a, b])
        mids = []
        for _ in range(min(_TABLE_DEPTH, self._n_iter)):
            mid = 0.5 * (edges[:-1] + edges[1:])
            mids.append(mid)
            edges = np.insert(edges, np.arange(1, edges.size), mid)
        self._cdf_table = np.asarray(self.cdf(np.concatenate(mids)))
        self._edges = edges
        self._piece_cdfs = []
        self._leaf_piece = np.full(edges.size - 1, -1)
        for i, (left, right, f) in enumerate(pieces):
            self._piece_cdfs.append(f)
            self._leaf_piece[(left < edges[:-1]) & (edges[1:] < right)] = i

    def quantile(self, q) -> np.ndarray:
        """The bisection on ``cdf`` to ``QUANTILE_TOL``, bit for bit, from a tabulated prefix.

        A draw walks the tabulated levels by the bisection's own comparisons
        ``cdf(mid) < q`` (a NaN ``q`` goes left) and bisects on from its
        leaf: on its piece's function when the leaf lies strictly inside a
        piece, on ``cdf`` otherwise.
        """
        q = np.asarray(q, dtype=float)
        flat = q.ravel()
        node = np.zeros(flat.shape, dtype=np.intp)
        levels = self._cdf_table.size.bit_length()
        for _ in range(levels):
            node = 2 * node + 1 + (self._cdf_table[node] < flat)
        leaf = node - self._cdf_table.size
        lo = self._edges[leaf]
        hi = self._edges[leaf + 1]
        piece = self._leaf_piece[leaf]
        for i, cdf in enumerate([self.cdf] + self._piece_cdfs, start=-1):
            rows = np.flatnonzero(piece == i)
            if rows.size == flat.size:
                lo, hi = _bisect(lo, hi, flat, cdf, self._n_iter - levels)
            elif rows.size:
                lo[rows], hi[rows] = _bisect(lo[rows], hi[rows], flat[rows], cdf, self._n_iter - levels)
        mid = (0.5 * (lo + hi)).reshape(q.shape)
        return mid if mid.ndim else float(mid)


def _bisect(lo, hi, q, cdf, levels):
    """``levels`` more steps of the quantile bisection from the brackets ``[lo, hi]``."""
    mid = np.empty_like(lo)
    for _ in range(levels):
        np.add(lo, hi, out=mid)
        mid *= 0.5
        below = cdf(mid) < q
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return lo, hi


def _piece_cdf(anti: np.ndarray, anti_left: float, cum: float):
    """``cum + (A(t) - A(t_i))`` by the steps of ``npoly.polyval`` and ``cdf``, for finite ``t``.

    Adding an exact zero changes at most the sign of a zero, which no
    comparison sees, so those steps are left out.
    """

    def cdf(t):
        value = np.full_like(t, anti[-1])
        for c in anti[-2::-1]:
            value *= t
            if c:
                value += c
        if anti_left:
            value -= anti_left
        if cum:
            value += cum
        return value

    return cdf


class PiecewisePolynomialDensity(DisorderDensity):
    """Probability density given by a piecewise polynomial profile.

    Construction validates non-negativity, unit mass, and the regularity
    needed for the second-derivative norm to be a plain integral: the
    density and its first derivative must be continuous across pieces and
    vanish at the support edges.  It also builds the CDF tables once: each
    piece's antiderivative ``A_i``, its value ``A_i(t_i)`` at the left
    breakpoint, and the cumulative piece masses.
    """

    def __init__(self, profile: PiecewiseProfile, name: str | None = None):
        a, b = profile.support
        if b - a <= 0:
            raise ValueError("density support must have positive length")
        if profile.min_value() < -1e-12:
            raise ValueError("density takes negative values")
        bp = profile.breakpoints
        self._anti = [npoly.polyint(np.asarray(c)) for c in profile.coefficients]
        self._anti_left = np.array([npoly.polyval(t, anti) for t, anti in zip(bp, self._anti)])
        masses = np.array([npoly.polyval(t, anti) for t, anti in zip(bp[1:], self._anti)])
        masses -= self._anti_left
        mass = float(np.sum(masses))
        if abs(mass - 1.0) > 1e-12:
            raise ValueError(f"density mass is {mass!r}, expected 1 within 1e-12")
        if not profile.is_absolutely_continuous():
            raise ValueError("density must be continuous and vanish at the support edges")
        deriv = profile.derivative()
        if not deriv.is_absolutely_continuous():
            raise ValueError(
                "density derivative must be continuous and vanish at the support "
                "edges (second derivative has to be integrable)"
            )
        self.profile = profile
        self.name = name
        self.support = (a, b)
        self.sup_norm = profile.sup_norm()
        self.d1_norm = profile.total_variation()
        self.d2_norm = deriv.total_variation()
        self._cum = np.concatenate([[0.0], np.cumsum(masses)])
        self._tabulate_bisection(
            (left, right, _piece_cdf(anti, anti_left, cum))
            for left, right, anti, anti_left, cum in zip(bp, bp[1:], self._anti, self._anti_left, self._cum)
        )

    def pdf(self, t):
        return self.profile(t)

    def cdf(self, t):
        """``cum[i] + (A_i(t) - A_i(t_i))`` on piece ``i``, read from the construction tables."""
        t = np.asarray(t, dtype=float)
        a, b = self.support
        out = np.zeros_like(t)
        out[t >= b] = 1.0
        inside = (t >= a) & (t < b)
        if np.any(inside):
            t_in = t[inside]
            idx = self.profile.piece_index(t_in)
            vals = np.empty(idx.shape)
            for i, anti in enumerate(self._anti):
                mask = idx == i
                if np.any(mask):
                    vals[mask] = npoly.polyval(t_in[mask], anti) - self._anti_left[i]
            out[inside] = self._cum[idx] + vals
        return out if out.ndim else float(out)

    def config_key(self):
        return {
            "kind": "piecewise",
            "breakpoints": list(self.profile.breakpoints),
            "coefficients": [list(c) for c in self.profile.coefficients],
        }


class RaisedCosineDensity(DisorderDensity):
    """Density ``1 - cos(2 pi t)`` on [0, 1] with closed-form norms.

    It is in ``W^{2,1}``: the density and its derivative ``2 pi sin(2 pi t)``
    both vanish at 0 and 1.
    """

    def __init__(self):
        self.name = "raised_cosine"
        self.support = (0.0, 1.0)
        self.sup_norm = 2.0
        self.d1_norm = 4.0
        self.d2_norm = 8.0 * math.pi
        self._tabulate_bisection()

    def pdf(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where((t >= 0.0) & (t <= 1.0), 1.0 - np.cos(2.0 * np.pi * t), 0.0)
        return out if out.ndim else float(out)

    def cdf(self, t):
        t = np.asarray(t, dtype=float)
        tc = np.clip(t, 0.0, 1.0)
        out = tc - np.sin(2.0 * np.pi * tc) / (2.0 * np.pi)
        return out if out.ndim else float(out)

    def config_key(self):
        return {"kind": "preset", "name": "raised_cosine"}


def bump_density() -> PiecewisePolynomialDensity:
    """The C^2 bump 30 t^2 (1-t)^2 on [0, 1]."""
    return PiecewisePolynomialDensity(bump_profile(), name="bump")


def raised_cosine_density() -> RaisedCosineDensity:
    return RaisedCosineDensity()


DENSITY_PRESETS = {
    "bump": bump_density,
    "raised_cosine": raised_cosine_density,
}


def density_preset(name: str) -> DisorderDensity:
    try:
        return DENSITY_PRESETS[name]()
    except KeyError:
        raise ValueError(f"unknown density preset {name!r}; have {sorted(DENSITY_PRESETS)}") from None


# ---------------------------------------------------------------------------
# single-site potentials
# ---------------------------------------------------------------------------

class SingleSitePotential:
    """Finitely supported profile u : Z^d -> R.

    ``support_radius`` is the smallest ``R`` with the support inside the
    origin-centered radius-``R`` cube.  Exact zeros are dropped from the
    stored support.
    """

    def __init__(self, values: Mapping[Site, float]):
        cleaned: dict[Site, float] = {}
        dim = None
        for site, v in values.items():
            site = tuple(int(c) for c in site)
            v = float(v)
            if not math.isfinite(v):
                raise ValueError(f"non-finite potential value at {site}")
            if dim is None:
                dim = len(site)
            elif len(site) != dim:
                raise ValueError("all support sites must share one dimension")
            if v != 0.0:
                cleaned[site] = v
        if not cleaned:
            raise ValueError("single-site potential must have non-empty support")
        self._values = dict(sorted(cleaned.items()))
        self.dimension = dim
        self.support_radius = max(max(abs(c) for c in site) for site in cleaned)
        self.l1_norm = sum(abs(v) for v in cleaned.values())

    @classmethod
    def delta(cls, dimension: int) -> "SingleSitePotential":
        return cls({(0,) * dimension: 1.0})

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Sequence[int], float]]) -> "SingleSitePotential":
        return cls({tuple(site): v for site, v in pairs})

    def items(self):
        return self._values.items()

    def sites(self) -> list[Site]:
        return list(self._values)

    def value(self, site: Site) -> float:
        return self._values.get(tuple(site), 0.0)

    def as_pairs(self) -> list[tuple[list[int], float]]:
        return [[list(site), v] for site, v in self._values.items()]

    def __eq__(self, other) -> bool:
        return isinstance(other, SingleSitePotential) and self._values == other._values

    def __repr__(self) -> str:
        return f"SingleSitePotential({self._values!r})"

    def mean_value(self) -> float:
        return sum(self._values.values())

    def dominant_site(self) -> Site | None:
        """Site carrying more weight than all others combined, if any."""
        for site, v in self._values.items():
            if abs(v) > self.l1_norm - abs(v):
                return site
        return None

    def fourier(self, theta) -> np.ndarray:
        """Fourier transform ``sum_k u(k) exp(i k . theta)``.

        ``theta`` is a point in ``[0, 2 pi)^d`` or an array of such points
        with the coordinate axis last (a bare scalar is accepted for d=1).
        """
        theta = np.asarray(theta, dtype=float)
        scalar_1d = self.dimension == 1 and theta.ndim == 0
        if scalar_1d:
            theta = theta.reshape(1)
        if theta.shape[-1] != self.dimension:
            raise ValueError(f"theta must have {self.dimension} coordinates on the last axis")
        out = np.zeros(theta.shape[:-1], dtype=complex)
        for site, v in self._values.items():
            out = out + v * np.exp(1j * (theta @ np.asarray(site, dtype=float)))
        return complex(out) if (scalar_1d or out.ndim == 0) else out

    def torus_table(self, side: int) -> np.ndarray:
        """``u`` on the d-torus of the given side, offset ``o`` at index ``o mod side``.

        Its ``fftn`` is the symbol on the torus frequencies, conjugated by
        the FFT's sign convention.
        """
        table = np.zeros((side,) * self.dimension)
        for offset, value in self._values.items():
            table[tuple(c % side for c in offset)] = value
        return table


# ---------------------------------------------------------------------------
# assumption certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the disorder-assumption check for a pair (u, rho).

    ``satisfied`` certifies a non-vanishing Fourier transform either through
    the diagonal-dominance condition (exact) or through the grid minimum
    minus the Lipschitz slack of the trigonometric polynomial.  The density
    half needs no field: a ``DisorderDensity`` is in ``W^{2,1}`` once built.
    """

    fourier_min_modulus: float
    dominance_holds: bool
    lipschitz_slack: float
    grid_resolution: int

    @property
    def satisfied(self) -> bool:
        positive = self.fourier_min_modulus - self.lipschitz_slack > 0.0
        return self.dominance_holds or positive


def check_assumption(
    potential: SingleSitePotential,
    density: DisorderDensity,
    grid_resolution: int,
) -> AssumptionReport:
    """Certify the disorder assumption on a finite Fourier grid.

    ``grid_resolution`` points per dimension must be at least twice the
    support side ``2 R + 1`` (Nyquist for the trigonometric polynomial), so
    no two offsets of ``u`` share a torus cell and ``|fftn|`` of the torus
    table is ``|u^|`` on the grid ``theta_j = 2 pi j / resolution``.
    Off-grid values are controlled by the Lipschitz bound
    ``|u|_1 * R * d * pi / resolution``.  The density is only type-checked:
    a ``DisorderDensity`` refuses to be built outside ``W^{2,1}``.
    """
    if not isinstance(density, DisorderDensity):
        raise TypeError("the density must be a DisorderDensity")
    nyquist = 2 * (2 * potential.support_radius + 1)
    if grid_resolution < nyquist:
        raise ValueError(
            f"grid_resolution {grid_resolution} below the Nyquist floor {nyquist}"
        )
    symbol = np.fft.fftn(potential.torus_table(grid_resolution))
    min_modulus = float(np.min(np.abs(symbol)))
    slack = (
        potential.l1_norm
        * potential.support_radius
        * potential.dimension
        * math.pi
        / grid_resolution
    )
    return AssumptionReport(
        fourier_min_modulus=min_modulus,
        dominance_holds=potential.dominant_site() is not None,
        lipschitz_slack=slack,
        grid_resolution=grid_resolution,
    )


# ---------------------------------------------------------------------------
# explicit two-variable Sobolev check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TensorProductFunction:
    """Two-variable test function ``scale * g(x) h(y)``.

    Both factors must be absolutely continuous with compact support so the
    mixed derivative is ``scale * g' (x) h'(y)`` with plain-integral L1 norm.
    """

    first: PiecewiseProfile
    second: PiecewiseProfile
    scale: float = 1.0

    def __post_init__(self) -> None:
        for profile in (self.first, self.second):
            if not isinstance(profile, PiecewiseProfile):
                raise TypeError("tensor factors must be piecewise polynomial profiles")
            if not profile.is_absolutely_continuous():
                raise ValueError("tensor factors must be continuous and vanish at the edges")
        if self.scale == 0.0:
            raise ValueError("scale must be nonzero")


@dataclass(frozen=True)
class SobolevReport:
    sup_norm: float
    mixed_norm: float

    @property
    def ratio(self) -> float:
        return self.sup_norm / self.mixed_norm


def sobolev_ratio(f: TensorProductFunction) -> SobolevReport:
    """Exact sup-norm over mixed-derivative-L1 ratio of a tensor test function.

    The ratio is at most 1/4 for every admissible input; the tent-times-tent
    case attains it.
    """
    if not isinstance(f, TensorProductFunction):
        raise TypeError("sobolev_ratio expects a TensorProductFunction descriptor")
    scale = abs(f.scale)
    sup = scale * f.first.sup_norm() * f.second.sup_norm()
    mixed = scale * f.first.total_variation() * f.second.total_variation()
    if mixed == 0.0:
        raise ValueError("mixed derivative vanishes identically")
    return SobolevReport(sup_norm=sup, mixed_norm=mixed)
