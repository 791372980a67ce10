"""Boxes in the integer lattice: enumeration and envelopes."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

Site = tuple[int, ...]


class ConfigError(ValueError):
    """An input the package refuses: malformed or incomplete configuration, or a range it cannot run."""


def origin(dimension: int) -> Site:
    """Zero site of the given dimension."""
    return (0,) * dimension


def sup_distance(x: Site, y: Site) -> int:
    """Max-norm distance |x - y|_inf."""
    return max(abs(a - b) for a, b in zip(x, y))


@dataclass(frozen=True)
class Box:
    """Cube of lattice sites ``{y : |y - center|_inf <= radius}``.

    Sites are enumerated in lexicographic order of their coordinates so that
    matrices assembled on a box are reproducible byte-for-byte across runs.
    """

    center: Site
    radius: int

    def __post_init__(self) -> None:
        if len(self.center) == 0:
            raise ConfigError("box center needs at least one coordinate")
        if self.radius < 0:
            raise ConfigError(f"box radius must be non-negative, got {self.radius}")
        object.__setattr__(self, "center", tuple(int(c) for c in self.center))
        object.__setattr__(self, "radius", int(self.radius))

    @property
    def dimension(self) -> int:
        return len(self.center)

    @property
    def side(self) -> int:
        return 2 * self.radius + 1

    @property
    def size(self) -> int:
        return self.side ** self.dimension

    def contains(self, site: Site) -> bool:
        if len(site) != self.dimension:
            return False
        return all(abs(s - c) <= self.radius for s, c in zip(site, self.center))

    def __contains__(self, site: Site) -> bool:
        return self.contains(site)

    def sites(self) -> list[Site]:
        """All sites in lexicographic order."""
        ranges = [range(c - self.radius, c + self.radius + 1) for c in self.center]
        return list(itertools.product(*ranges))

    def site_array(self) -> np.ndarray:
        """Sites as an ``(size, dimension)`` int array, enumeration order."""
        axes = [np.arange(c - self.radius, c + self.radius + 1) for c in self.center]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def strides(self) -> np.ndarray:
        """Mixed-radix weights turning coordinate offsets into enumeration ranks."""
        d = self.dimension
        return self.side ** np.arange(d - 1, -1, -1, dtype=np.int64)

    def index_of(self, site: Site) -> int:
        """Enumeration rank of a site; raises if the site lies outside the box."""
        if not self.contains(site):
            raise ConfigError(f"site {site} outside box (center={self.center}, radius={self.radius})")
        rank = 0
        for s, c in zip(site, self.center):
            rank = rank * self.side + (s - c + self.radius)
        return rank


def box(radius: int, dimension: int) -> Box:
    """The origin-centered box of the given radius; ``Box(center, radius)`` builds any other."""
    return Box(origin(dimension), radius)


def envelope_box(lambda_box: Box, reach: int) -> Box:
    """Enlarged box holding every coupling that can influence ``lambda_box``.

    For a box of radius ``l`` and a profile supported in the radius-``reach``
    cube this is the box of radius ``l + reach`` with the same center.
    """
    if reach < 0:
        raise ConfigError(f"reach must be non-negative, got {reach}")
    return Box(lambda_box.center, lambda_box.radius + int(reach))
