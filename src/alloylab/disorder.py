"""Single-site potentials and disorder densities.

The density machinery is exact by design: densities are piecewise
polynomials (or closed-form specials) so that the norms entering the bound
constants carry no quadrature error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .lattice import ConfigError, Site

QUANTILE_TOL = 1e-12
POINTS_BUDGET = 10**7  # grid or sample points one run may hold: 80 MB of doubles
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
        cf = tuple(tuple(float(c) for c in piece) for piece in self.coefficients)
        # each c_k and the derivative's k c_k, since polyroots refuses a non-finite one
        if not all(map(math.isfinite, bp + tuple(max(k, 1) * c for p in cf for k, c in enumerate(p)))):
            raise ConfigError(f"breakpoints {bp} and coefficients {cf} must be finite (k c_k too)")
        if len(bp) < 2:
            raise ConfigError("a profile needs at least one piece")
        if any(b - a <= 0 for a, b in zip(bp, bp[1:])):
            raise ConfigError("breakpoints must be strictly increasing")
        if len(cf) != len(bp) - 1:
            raise ConfigError("need exactly one coefficient tuple per piece")
        if any(len(piece) == 0 for piece in cf):
            raise ConfigError("empty coefficient tuple")
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

    def derivative(self) -> "PiecewiseProfile":
        return PiecewiseProfile(
            self.breakpoints,
            tuple(tuple(npoly.polyder(np.asarray(c))) if len(c) > 1 else (0.0,)
                  for c in self.coefficients),
        )

    @cached_property
    def critical_points(self) -> tuple[tuple[float, ...], ...]:
        """Per piece, the real roots of its derivative inside it.

        The one critical-point scan, made once per profile: extrema, variation
        and jumps all read it.
        """
        return tuple(
            tuple(_real_roots_in(npoly.polyder(np.asarray(c)) if len(c) > 1 else np.zeros(1), a, b))
            for (a, b), c in zip(zip(self.breakpoints, self.breakpoints[1:]), self.coefficients)
        )

    @cached_property
    def _node_values(self) -> tuple[np.ndarray, ...]:
        """Per piece, the values at its left end, its interior critical points and its right end."""
        return tuple(
            npoly.polyval(np.asarray([a, *points, b]), np.asarray(c))
            for (a, b), c, points in zip(
                zip(self.breakpoints, self.breakpoints[1:]), self.coefficients, self.critical_points
            )
        )

    def sup_norm(self) -> float:
        return max(float(np.max(np.abs(v))) for v in self._node_values)

    def min_value(self) -> float:
        return min(float(np.min(v)) for v in self._node_values)

    def total_variation(self) -> float:
        """Variation of the profile over its support (exact for polynomials).

        Equals the L1 norm of the derivative when the profile is absolutely
        continuous, which callers are expected to validate.
        """
        return sum(float(np.sum(np.abs(np.diff(v)))) for v in self._node_values)

    def jump_sizes(self) -> list[float]:
        """Mismatch of values across internal breakpoints plus the edge values."""
        values = self._node_values
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
        raise ConfigError("need matching node/value sequences of length >= 2")
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
    object is in the class.  ``quantile`` inverts the CDF to within the
    cell ``h`` of a bisection to ``QUANTILE_TOL``, deterministically given
    the uniform draws: the first levels of that bisection are tabulated at
    construction (``_tabulate_bisection``), and below a leaf a checked
    Newton step, with the bisection as its fallback, finds the point.
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

    def _tabulate_bisection(self) -> None:
        """Replay the first levels of the quantile bisection once, for every ``q`` at the same time.

        ``_edges`` are the bisection's bracket ends down to ``D = min(_TABLE_DEPTH,
        n_iter)`` levels, in x order, and ``_edge_cdf`` is ``cdf`` at each of them.
        A draw at level ``l`` is at an edge ``j``, a multiple of ``2**(D - l)``, and
        compares at edge ``j + 2**(D - l - 1)``; leaf ``j`` brackets ``[_edges[j],
        _edges[j + 1]]``, and ``_depth`` levels of the bisection remain below it,
        down to its cell ``h = (b - a) / 2**n_iter``.  ``_slope`` is each leaf's
        inverse secant slope, 0 on a leaf the CDF is flat over.
        """
        a, b = self.support
        n_iter = max(1, math.ceil(math.log2((b - a) / QUANTILE_TOL)))
        self._depth = max(0, n_iter - _TABLE_DEPTH)
        self._half_cell = math.ldexp(b - a, -n_iter - 1)
        edges = np.array([a, b])
        for _ in range(n_iter - self._depth):
            edges = np.insert(edges, np.arange(1, edges.size), 0.5 * (edges[:-1] + edges[1:]))
        self._edge_cdf = np.asarray(self.cdf(edges))
        self._edges = edges
        rise = np.diff(self._edge_cdf)
        with np.errstate(divide="ignore", invalid="ignore"):
            self._slope = np.where(rise > 0, np.diff(edges) / rise, 0.0)

    @np.errstate(all="ignore")  # a non-finite q or a vanishing pdf gives a non-finite step
    def quantile(self, q) -> np.ndarray:
        """``t`` with ``cdf(t - h/2) < q <= cdf(t + h/2)``, or else the bisection's bits.

        ``h`` is the cell of the bisection to ``QUANTILE_TOL``.  A draw walks
        the tabulated levels by the bisection's own comparisons ``cdf(mid) <
        q`` to its leaf, starts from the leaf's secant and takes
        ``_NEWTON_STEPS`` Newton steps on ``cdf``/``pdf``; a step that leaves
        the leaf, or is not finite, keeps the last point.  Every row is then
        checked for the crossing the bisection would bracket; a row that fails
        (a NaN ``q``, ``q`` at or past the support's ends, a leaf where the
        density vanishes or the computed CDF rounds flat) bisects below its
        leaf on ``cdf``, with the plain bisection's bits (``rtsafe``, Press et
        al., *Numerical Recipes*, 3rd ed., 9.4).
        """
        q = np.asarray(q, dtype=float)
        flat = q.ravel()
        leaf = np.zeros(flat.shape, dtype=np.intp)
        step = self._edge_cdf.size // 2
        while step:
            leaf += step * (self._edge_cdf[leaf + step] < flat)
            step //= 2
        lo, hi = self._edges[leaf], self._edges[leaf + 1]
        t = lo + (flat - self._edge_cdf[leaf]) * self._slope[leaf]
        for _ in range(_NEWTON_STEPS):
            moved = t - (self.cdf(t) - flat) / self.pdf(t)
            t = np.where((lo <= moved) & (moved <= hi), moved, t)
        # the crossing the bisection would bracket in its last cell
        checked = (self.cdf(t - self._half_cell) < flat) & ~(self.cdf(t + self._half_cell) < flat)
        rest = np.flatnonzero(~checked)
        if rest.size:
            lo, hi = _bisect(lo[rest], hi[rest], flat[rest], self.cdf, self._depth)
            t[rest] = 0.5 * (lo + hi)
        t = t.reshape(q.shape)
        return t if t.ndim else float(t)


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


_NEWTON_STEPS = 2  # from the secant start: the crossing check then passes for almost every draw


def _horner(coefficients: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``sum_k coefficients[k] t**k`` by ``polyval``'s Horner steps; a coefficient row may be per point."""
    value = coefficients[-1] * t
    for c in coefficients[-2:0:-1]:
        value += c
        value *= t
    value += coefficients[0]
    return value


class PiecewisePolynomialDensity(DisorderDensity):
    """Probability density given by a piecewise polynomial profile.

    Construction validates non-negativity, unit mass, and the regularity
    needed for the second-derivative norm to be a plain integral: the
    density and its first derivative must be continuous across pieces and
    vanish at the support edges.  It also builds two tables once, one
    column per piece: ``_pdf_rows``, the piece's coefficients, and
    ``_cdf_rows``, its antiderivative ``A_i``, its value ``-A_i(t_i)`` at
    the left breakpoint, and the cumulative mass below it.
    """

    def __init__(self, profile: PiecewiseProfile, name: str | None = None):
        a, b = profile.support
        if b - a <= 0:
            raise ConfigError("density support must have positive length")
        with np.errstate(over="ignore", invalid="ignore"):  # a table past the doubles fails below
            if profile.min_value() < -1e-12:
                raise ConfigError("density takes negative values")
            bp = profile.breakpoints
            anti = [npoly.polyint(np.asarray(c)) for c in profile.coefficients]
            anti_left = np.array([npoly.polyval(t, a_i) for t, a_i in zip(bp, anti)])
            masses = np.array([npoly.polyval(t, a_i) for t, a_i in zip(bp[1:], anti)])
            masses -= anti_left
            mass = float(np.sum(masses))
        if not abs(mass - 1.0) <= 1e-12:
            raise ConfigError(f"density mass is {mass!r}, expected 1 within 1e-12")
        if not profile.is_absolutely_continuous():
            raise ConfigError("density must be continuous and vanish at the support edges")
        deriv = profile.derivative()
        if not deriv.is_absolutely_continuous():
            raise ConfigError(
                "density derivative must be continuous and vanish at the support "
                "edges (second derivative has to be integrable)"
            )
        self.profile = profile
        self.name = name
        self.support = (a, b)
        self.sup_norm = profile.sup_norm()
        self.d1_norm = profile.total_variation()
        self.d2_norm = deriv.total_variation()
        # one column per piece: A_i's coefficients (zero-padded), -A_i(t_i) and cum_i
        width = max(a_i.size for a_i in anti)
        self._cdf_rows = np.zeros((width + 2, profile.n_pieces))
        for i, a_i in enumerate(anti):
            self._cdf_rows[: a_i.size, i] = a_i
        self._cdf_rows[width] = -anti_left
        self._cdf_rows[width + 1, 1:] = np.cumsum(masses)[:-1]
        self._pdf_rows = np.zeros((width - 1, profile.n_pieces))  # rho_i's coefficients, zero-padded
        for i, coefficients in enumerate(profile.coefficients):
            self._pdf_rows[: len(coefficients), i] = coefficients
        self._tabulate_bisection()

    def _columns(self, table: np.ndarray, t: np.ndarray) -> np.ndarray:
        """``table``'s column for the piece of each ``t``; one piece's column broadcasts."""
        return table[:, 0] if table.shape[1] == 1 else table[:, self.profile.piece_index(t)]

    def pdf(self, t):
        """``rho_i(t)`` on piece ``i``: ``_horner`` on its column of ``_pdf_rows``, 0 outside the support."""
        t = np.asarray(t, dtype=float)
        a, b = self.support
        flat = t.ravel()
        x = np.clip(flat, a, b)
        out = _horner(self._columns(self._pdf_rows, x), x)
        out[~((flat >= a) & (flat <= b))] = 0.0
        return out.reshape(t.shape) if t.ndim else float(out[0])

    def cdf(self, t):
        """``cum_i + (A_i(t) - A_i(t_i))`` on piece ``i``, by Horner on its column of ``_cdf_rows``.

        Every point is evaluated clipped to the support, so none overflows, and
        kept only inside it.  The zero padding changes no bit: Horner's steps
        through leading zeros give the top coefficient exactly, and the final
        ``+ cum_i`` turns a ``-0.0`` into ``+0.0``.
        """
        t = np.asarray(t, dtype=float)
        a, b = self.support
        flat = t.ravel()
        x = np.clip(flat, a, b)
        rows = self._columns(self._cdf_rows, x)
        out = _horner(rows[:-2], x) + rows[-2] + rows[-1]
        out[~(flat >= a)] = 0.0  # a NaN too
        out[flat >= b] = 1.0
        return out.reshape(t.shape) if t.ndim else float(out[0])

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
        raise ConfigError(f"unknown density preset {name!r}; have {sorted(DENSITY_PRESETS)}") from None


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
                raise ConfigError(f"non-finite potential value at {site}")
            if dim is None:
                dim = len(site)
            elif len(site) != dim:
                raise ConfigError("all support sites must share one dimension")
            if v != 0.0:
                cleaned[site] = v
        if not cleaned:
            raise ConfigError("single-site potential must have non-empty support")
        if dim < 1:  # a preset built for dimension 0, or an offset with no coordinates
            raise ConfigError("potential support sites need dimension at least 1")
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

    def dominant_site(self) -> Site | None:
        """Site carrying more weight than all others combined, if any."""
        for site, v in self._values.items():
            if abs(v) > self.l1_norm - abs(v):
                return site
        return None

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
        raise ConfigError(
            f"grid_resolution {grid_resolution} below the Nyquist floor {nyquist}"
        )
    if grid_resolution**potential.dimension > POINTS_BUDGET:
        raise ConfigError(f"grid_resolution {grid_resolution} puts the grid past {POINTS_BUDGET} points")
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
                raise ConfigError("tensor factors must be continuous and vanish at the edges")
        if self.scale == 0.0:
            raise ConfigError("scale must be nonzero")


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
        raise ConfigError("mixed derivative vanishes identically")
    return SobolevReport(sup_norm=sup, mixed_norm=mixed)
