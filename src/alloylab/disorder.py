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

from .lattice import Site

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
            raise ValueError(f"breakpoints {bp} and coefficients {cf} must be finite (k c_k too)")
        if len(bp) < 2:
            raise ValueError("a profile needs at least one piece")
        if any(b - a <= 0 for a, b in zip(bp, bp[1:])):
            raise ValueError("breakpoints must be strictly increasing")
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

    @cached_property
    def critical_points(self) -> tuple[tuple[float, ...], ...]:
        """Per piece, the real roots of its derivative inside it.

        The one critical-point scan, made once per profile: extrema, variation,
        jumps and the quantile's certificate all read it.
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
    1e-12, so sampling is deterministic given the uniform draws, and
    ``quantile`` returns the plain bisection's bits in three tiers: its
    first levels are tabulated at construction, as ``cdf`` at every bracket
    end in x order (``_tabulate_bisection``); below a leaf, a piecewise
    polynomial density with an exact lattice (``_Lattice``) finds the final
    cell by an approximate inverse and checks it by two comparisons where
    its certificate holds, or along the cell's whole path elsewhere,
    resuming the bisection on ``cdf`` where the path disagrees; densities
    without a lattice bisect on ``cdf``.
    """

    support: tuple[float, float]
    sup_norm: float
    d1_norm: float
    d2_norm: float
    _lattice: "_Lattice | None" = None

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
        _edges[j + 1]]``, and ``_depth`` levels of the bisection remain below it.
        """
        a, b = self.support
        self._n_iter = max(1, math.ceil(math.log2((b - a) / QUANTILE_TOL)))
        self._depth = max(0, self._n_iter - _TABLE_DEPTH)
        edges = np.array([a, b])
        for _ in range(self._n_iter - self._depth):
            edges = np.insert(edges, np.arange(1, edges.size), 0.5 * (edges[:-1] + edges[1:]))
        self._edge_cdf = np.asarray(self.cdf(edges))
        self._edges = edges

    def quantile(self, q) -> np.ndarray:
        """The bisection on ``cdf`` to ``QUANTILE_TOL``, bit for bit, from a tabulated prefix.

        A draw walks the tabulated levels by the bisection's own comparisons
        ``cdf(mid) < q`` (a NaN ``q`` goes left).  Below its leaf, the lattice
        (when the density has one) finds every draw's final cell
        (``_Lattice.midpoints``); without one, every draw bisects on ``cdf``.
        """
        q = np.asarray(q, dtype=float)
        flat = q.ravel()
        leaf = np.zeros(flat.shape, dtype=np.intp)
        step = self._edge_cdf.size // 2
        while step:
            leaf += step * (self._edge_cdf[leaf + step] < flat)
            step //= 2
        lo = self._edges[leaf]
        if self._lattice is not None:
            mid = self._lattice.midpoints(self, leaf, lo, flat)
        else:
            lo, hi = _bisect(lo, self._edges[leaf + 1], flat, self.cdf, self._depth)
            mid = 0.5 * (lo + hi)
        mid = mid.reshape(q.shape)
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


def _piece_cdf(rows: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``cum_i + (A_i(t) - A_i(t_i))`` by the steps of ``npoly.polyval``, for finite ``t``.

    ``rows`` is a column of ``_cdf_rows`` or one column per point; with each
    point's own piece it is ``cdf``.  So every path of ``quantile`` keeps the
    plain bisection's bits: the lattice compares on this only inside a leaf
    strictly within one piece, and every other comparison calls ``cdf``.  The
    zero padding changes no bit: Horner's steps through leading zeros give the
    top coefficient exactly, and the final ``+ cum_i`` turns a ``-0.0`` into
    ``+0.0``.
    """
    value = _horner(rows[:-2], t)
    value += rows[-2]
    value += rows[-1]
    return value


_NEWTON_STEPS = 2  # from the secant start: the two comparisons then settle almost every draw


def _gamma(k: int) -> float:
    """Higham's ``gamma_k = k u / (1 - k u)``, ``u`` the unit roundoff."""
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


def _horner(coefficients: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``sum_k coefficients[k] t**k`` by ``polyval``'s Horner steps; a coefficient row may be per point."""
    value = coefficients[-1] * t
    for c in coefficients[-2:0:-1]:
        value += c
        value *= t
    value += coefficients[0]
    return value


def _lattice_step(a: float, b: float, n_iter: int) -> float | None:
    """The bisection's cell ``h = (b - a) / 2**n_iter``, or None if its points are not all exact.

    Write ``h = m 2**e`` with ``m`` odd.  If ``a / h`` and ``b / h`` are integers and
    ``2 max(|a|, |b|) / h * m <= 2**53``, every lattice point ``a + k h``, every sum of
    two of them and every half-lattice point is an integer below ``2**53`` times a
    power of two no finer than ``2**-1074``, so ``0.5 * (lo + hi)`` is exact at each
    level and the bisection stays on the lattice.  In integers: ``a = lo / 2**p``,
    ``b = hi / 2**p`` and ``h = (hi - lo) / 2**(p + n_iter)``.
    """
    if not math.isfinite(2 * max(abs(a), abs(b))):
        return None
    (lo, den_lo), (hi, den_hi) = a.as_integer_ratio(), b.as_integer_ratio()
    den = max(den_lo, den_hi)  # both powers of two
    lo, hi = lo * (den // den_lo), hi * (den // den_hi)
    width, p = hi - lo, den.bit_length() - 1
    if (lo << n_iter) % width or (hi << n_iter) % width:
        return None
    twos = (width & -width).bit_length() - 1
    ends = max(abs(lo), abs(hi)) << n_iter >> twos  # max(|a|, |b|) / h * m
    if 2 * ends > 2**53 or twos - p - n_iter - 1 < -1074:
        return None
    return math.ldexp(float(width), -p - n_iter)


class _Lattice:
    """The bisection's lattice below the tabulated leaves of a ``PiecewisePolynomialDensity``.

    With an exact lattice (``_lattice_step``) the bisection below leaf ``[lo, hi]``
    ends in a cell ``[lo + c h, lo + (c + 1) h]``, ``0 <= c < 2**depth``, and returns
    ``lo + (c + 1/2) h``.  It compares ``f(x) < q`` only at interior lattice points
    ``x``, ``f`` the leaf's piece CDF (``_piece_cdf``); if the computed ``f`` is
    non-decreasing on them, the comparison is true, then false, along the lattice,
    and the bisection lands on the one cell with ``f(lo + c h) < q`` (or ``c = 0``)
    and not ``f(lo + (c + 1) h) < q`` (or ``c`` last): any method that finds that
    cell has the bisection's bits.

    Certificate (per leaf, vectorized).  A leaf is certified when it lies strictly
    inside one piece ``i`` and ``h min_leaf rho > 4 E``, where, with ``m``
    coefficients ``A_j`` of the piece's antiderivative and ``T = max |t|`` on the
    leaf, ``E = gamma_(2m+2) (sum_j |A_j| T**j + |A_i(t_i)| + |cum_i|)``.  Horner's
    rule is within ``gamma_(2m-2) sum_j |A_j| |t|**j`` of ``A(t)`` (Higham, *Accuracy
    and Stability of Numerical Algorithms*, 2nd ed., 5.1), and ``_piece_cdf`` rounds
    twice more, so the computed ``f`` is within ``E`` of the exact
    ``F = cum_i + A - A_i(t_i)``; underflow adds at most ``2m`` half subnormals,
    each scaled by at most ``max(1, |a|, |b|)**m``, which ``E`` also carries.  Between
    neighbouring points ``F`` rises by at least ``h min A'``, and ``A' = rho`` up to
    the rounding of ``A``'s coefficients, ``u sum_k |rho_k| T**k``.  ``min rho`` over
    the leaf is taken at its ends and at the piece's interior critical points
    (``PiecewiseProfile.critical_points``), less ``gamma_(2m) sum_k |rho_k| T**k``
    for that rounding and the rounding of its own evaluation.  Then ``F`` rises by
    more than ``4 E`` per cell, twice the ``2 E`` that makes ``f`` increase; the
    other ``2 E`` is room for the critical points' placement error, which enters
    ``rho`` squared since ``rho`` is flat there.

    Per draw (``midpoints``): a secant start from the tabulated CDF at the leaf's
    ends, ``_NEWTON_STEPS`` Newton steps on the leaf's piece, and the cell ``c``
    holding the result.  A row of a certified leaf is settled by the two
    comparisons above.  Any other row (a failed check, an uncertified leaf, a leaf
    across pieces or at a support end) is moved one cell toward the comparison
    that failed and checked along its whole path: the bisection lands on ``c``
    exactly when its comparison at each of the ``depth`` ancestor midpoints agrees
    with ``c``'s bit there, which needs no monotonicity.  Down to the first
    comparison that disagrees, the path is the bisection's own, so a row off its
    path resumes the bisection there (``_resume``): near a support end, where
    ``f``'s rounding spans many cells, a few levels instead of ``depth``.  A Newton
    step that leaves the leaf, or is not finite, keeps the last point: near a
    support end ``rho`` is small or 0, and a step clipped to the leaf's far end
    would leave the draw off its path from the top level.
    A NaN ``q`` starts from cell 0, on whose path it lies: it goes left at every level.
    """

    def __init__(self, density: "PiecewisePolynomialDensity", step: float):
        profile, edges = density.profile, density._edges
        a, b = density.support
        self.step = step
        width = density._cdf_rows.shape[0] - 2
        self.pdf_rows = np.zeros((width - 1, profile.n_pieces))  # rho's coefficients, one column per piece
        for i, coefficients in enumerate(profile.coefficients):
            self.pdf_rows[: len(coefficients), i] = coefficients
        lo, hi = edges[:-1], edges[1:]
        rise = np.diff(density._edge_cdf)
        with np.errstate(divide="ignore", invalid="ignore"):
            self.slope = np.where(rise > 0, (hi - lo) / rise, 0.0)  # the secant start's slope in each leaf
        self.piece = profile.piece_index(0.5 * (lo + hi))
        left, right = np.asarray(profile.breakpoints)[[self.piece, self.piece + 1]]
        inside = (left < lo) & (hi < right)  # the leaf lies strictly inside its piece
        # the certificate; a bound that overflows certifies nothing
        with np.errstate(over="ignore", invalid="ignore"):
            reach = np.maximum(np.abs(lo), np.abs(hi))
            magnitudes = np.abs(self._rows(density._cdf_rows, self.piece))
            size = _horner(magnitudes[:width], reach) + magnitudes[width] + magnitudes[width + 1]
            scale = np.float64(max(1.0, abs(a), abs(b))) ** width
            error = _gamma(2 * width + 2) * size + 2 * width * np.finfo(float).smallest_subnormal * scale
            pdf = self._rows(self.pdf_rows, self.piece)
            low = np.minimum(_horner(pdf, lo), _horner(pdf, hi))
            for coefficients, points in zip(profile.coefficients, profile.critical_points):
                for x in points:
                    j = np.searchsorted(edges, x) - 1  # the leaf strictly holding x, if any
                    if 0 <= j < lo.size and lo[j] < x < hi[j]:
                        low[j] = min(low[j], npoly.polyval(x, coefficients))
            low -= _gamma(2 * width) * _horner(np.abs(pdf), reach)
            self.certified = inside & (step * low > 4 * error)

    @staticmethod
    def _rows(table: np.ndarray, piece: np.ndarray) -> np.ndarray:
        """``table``'s column for each entry of ``piece``: one column broadcasts."""
        return table if table.shape[1] == 1 else table[:, piece]

    @np.errstate(all="ignore")  # a non-finite q or a flat leaf gives a non-finite step
    def midpoints(self, density, leaf, lo, q) -> np.ndarray:
        """The bisection's result for every row."""
        h, last = self.step, 2**density._depth - 1
        cdf_rows = self._rows(density._cdf_rows, self.piece[leaf])
        pdf_rows = self._rows(self.pdf_rows, self.piece[leaf])
        t = lo + (q - density._edge_cdf[leaf]) * self.slope[leaf]
        hi = lo + (last + 1) * h
        for _ in range(_NEWTON_STEPS):
            step = (_piece_cdf(cdf_rows, t) - q) / _horner(pdf_rows, t)
            moved = t - step
            # a step that leaves the leaf, or is not finite, keeps the last point
            t = np.where((lo <= moved) & (moved <= hi), moved, t)
        cell = np.clip(np.floor((t - lo) / h), 0, last)
        x = lo + cell * h
        below = _piece_cdf(cdf_rows, np.stack([x, x + h])) < q
        settled = self.certified[leaf] & (below[0] | (cell == 0)) & ~(below[1] & (cell < last))
        rest = np.flatnonzero(~settled)
        if rest.size:
            cell = cell[rest] + (below[1, rest] & (cell[rest] < last)) - (~below[0, rest] & (cell[rest] > 0))
            cell = np.nan_to_num(cell).astype(np.int64)  # a NaN candidate starts from cell 0
            x[rest] = lo[rest] + self._resume(density, lo[rest], q[rest], cell) * h
        return x + 0.5 * h

    def _resume(self, density, lo, q, cell) -> np.ndarray:
        """The bisection's cell below each leaf, from any candidate ``cell``.

        The comparisons at ``cell``'s ``depth`` ancestor midpoints are made at
        once; down to the first one that disagrees with ``cell``'s bit there, they
        are the bisection's own, so the bisection resumes at that level.
        """
        depth = density._depth
        shift = np.arange(depth - 1, -1, -1)[:, None]
        go_right = density.cdf(lo + (((cell >> shift) | 1) << shift) * self.step) < q
        wrong = go_right != ((cell >> shift) & 1).astype(bool)
        rows = np.flatnonzero(wrong.any(axis=0))
        if rows.size:
            level = np.argmax(wrong[:, rows], axis=0)
            bit = shift[level, 0]
            # the bisection's cell so far: the bits above the first wrong level, then its comparison there
            resumed = (cell[rows] >> (bit + 1) << (bit + 1)) | (go_right[level, rows].astype(np.int64) << bit)
            lo, q = lo[rows], q[rows]
            for next_level in range(int(level.min()) + 1, depth):
                mid = resumed | 1 << (depth - 1 - next_level)
                right = (level < next_level) & (density.cdf(lo + mid * self.step) < q)
                resumed = np.where(right, mid, resumed)
            cell[rows] = resumed
        return cell


class PiecewisePolynomialDensity(DisorderDensity):
    """Probability density given by a piecewise polynomial profile.

    Construction validates non-negativity, unit mass, and the regularity
    needed for the second-derivative norm to be a plain integral: the
    density and its first derivative must be continuous across pieces and
    vanish at the support edges.  It also builds the CDF table once,
    ``_cdf_rows``: per piece, its antiderivative ``A_i``, its value
    ``-A_i(t_i)`` at the left breakpoint, and the cumulative mass below it.
    """

    def __init__(self, profile: PiecewiseProfile, name: str | None = None):
        a, b = profile.support
        if b - a <= 0:
            raise ValueError("density support must have positive length")
        with np.errstate(over="ignore", invalid="ignore"):  # a table past the doubles fails below
            if profile.min_value() < -1e-12:
                raise ValueError("density takes negative values")
            bp = profile.breakpoints
            anti = [npoly.polyint(np.asarray(c)) for c in profile.coefficients]
            anti_left = np.array([npoly.polyval(t, a_i) for t, a_i in zip(bp, anti)])
            masses = np.array([npoly.polyval(t, a_i) for t, a_i in zip(bp[1:], anti)])
            masses -= anti_left
            mass = float(np.sum(masses))
        if not abs(mass - 1.0) <= 1e-12:
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
        # one column per piece: A_i's coefficients (zero-padded), -A_i(t_i) and cum_i
        width = max(a_i.size for a_i in anti)
        self._cdf_rows = np.zeros((width + 2, profile.n_pieces))
        for i, a_i in enumerate(anti):
            self._cdf_rows[: a_i.size, i] = a_i
        self._cdf_rows[width] = -anti_left
        self._cdf_rows[width + 1, 1:] = np.cumsum(masses)[:-1]
        self._tabulate_bisection()
        if (step := _lattice_step(a, b, self._n_iter)) is not None:
            self._lattice = _Lattice(self, step)

    def pdf(self, t):
        return self.profile(t)

    def cdf(self, t):
        """``cum_i + (A_i(t) - A_i(t_i))`` on piece ``i``: ``_piece_cdf`` on its column of ``_cdf_rows``."""
        t = np.asarray(t, dtype=float)
        a, b = self.support
        out = np.zeros_like(t)
        out[t >= b] = 1.0
        inside = (t >= a) & (t < b)
        if np.any(inside):
            t_in, rows = t[inside], self._cdf_rows  # one piece's column broadcasts
            if rows.shape[1] > 1:
                rows = rows[:, self.profile.piece_index(t_in)]
            out[inside] = _piece_cdf(rows, t_in)
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
        raise ValueError(
            f"grid_resolution {grid_resolution} below the Nyquist floor {nyquist}"
        )
    if grid_resolution**potential.dimension > POINTS_BUDGET:
        raise ValueError(f"grid_resolution {grid_resolution} puts the grid past {POINTS_BUDGET} points")
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
