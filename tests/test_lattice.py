import itertools

import numpy as np
import pytest

from alloylab.lattice import Box, box, envelope_box, origin, periodize
from alloylab.disorder import SingleSitePotential


def test_enumerate_1d_radius_one():
    assert box(1, 1).sites() == [(-1,), (0,), (1,)]


def test_enumerate_2d_count():
    assert len(box(2, 2).sites()) == 25


def test_enumerate_radius_zero_off_center():
    assert Box((3, -1), 0).sites() == [(3, -1)]


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("radius", range(6))
def test_cardinality(d, radius):
    assert len(box(radius, d).sites()) == (2 * radius + 1) ** d


def test_enumeration_is_lexicographic_and_stable():
    sites = box(2, 2).sites()
    assert sites == sorted(sites)
    assert sites == box(2, 2).sites()


def test_index_of_matches_enumeration():
    b = Box((1, -2, 0), 2)
    for i, site in enumerate(b.sites()):
        assert b.index_of(site) == i
    arr = b.site_array()
    assert np.array_equal(b.index_array(arr), np.arange(b.size))


def test_index_of_rejects_outside():
    with pytest.raises(ValueError):
        box(1, 1).index_of((2,))


def test_negative_radius_rejected():
    with pytest.raises(ValueError):
        box(-1, 1)


def test_envelope_1d_example():
    env = envelope_box(box(1, 1), 1)
    assert env.radius == 2
    assert env.sites() == [(-2,), (-1,), (0,), (1,), (2,)]


def test_envelope_rank_one_is_identity():
    b = box(3, 2)
    assert envelope_box(b, 0) == b


def test_envelope_2d_size():
    env = envelope_box(box(3, 2), 2)
    assert env.radius == 5 and env.size == 121


def test_envelope_rejects_small_reach():
    u = SingleSitePotential({(0,): 1.0, (2,): 0.5})
    with pytest.raises(ValueError):
        envelope_box(box(1, 1), 1, potential=u)
    assert envelope_box(box(1, 1), 2, potential=u).radius == 3


def test_envelope_requires_origin_center():
    with pytest.raises(ValueError):
        envelope_box(Box((1,), 1), 1)


def test_envelope_covers_influencing_couplings():
    u = SingleSitePotential({(0, 0): 1.0, (1, -1): -0.25})
    b = box(2, 2)
    env = envelope_box(b, u.support_radius, potential=u)
    for x in b.sites():
        for offset, _ in u.items():
            k = tuple(a - o for a, o in zip(x, offset))
            assert env.contains(k)


def test_periodize_examples():
    assert periodize((3,), 2) == (-2,)
    assert periodize((4, -4), 1) == (1, -1)


def test_periodize_identity_on_box():
    for site in box(2, 2).sites():
        assert periodize(site, 2) == site


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("radius", [0, 1, 2, 3])
def test_periodize_periodicity_exhaustive(d, radius):
    side = 2 * radius + 1
    coords = range(-10, 11)
    for site in itertools.product(coords, repeat=d):
        folded = periodize(site, radius)
        assert all(abs(c) <= radius for c in folded)
        assert all((a - b) % side == 0 for a, b in zip(site, folded))
        for axis in range(d):
            shifted = tuple(c + side * (axis == j) for j, c in enumerate(site))
            assert periodize(shifted, radius) == folded
