import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thindisk import build_cartesian_grid, build_polar_grid
from thindisk.grids import build_grid, grid_type


class TestCartesianGrid:
    def test_small_example(self):
        g = build_cartesian_grid(1.0, 4)
        assert g.dx == 0.5
        np.testing.assert_allclose(g.x_centers, [-0.75, -0.25, 0.25, 0.75], rtol=0, atol=0)
        np.testing.assert_allclose(g.x_edges, [-1.0, -0.5, 0.0, 0.5, 1.0], rtol=0, atol=0)

    def test_unit_domain_1024(self):
        g = build_cartesian_grid(1.0, 1024)
        assert g.dx == 2.0 / 1024
        assert g.x_edges[0] == -1.0 and g.x_edges[-1] == 1.0

    def test_edges_hit_boundary_exactly(self):
        for n in (2, 3, 10, 100, 768):
            g = build_cartesian_grid(0.7, n)
            assert g.x_edges[0] == -0.7
            assert g.x_edges[-1] == 0.7

    def test_monotone(self):
        g = build_cartesian_grid(2.5, 37)
        assert np.all(np.diff(g.x_edges) > 0)
        assert np.all(np.diff(g.x_centers) > 0)

    def test_centers_are_midpoints(self):
        g = build_cartesian_grid(3.0, 17)
        np.testing.assert_allclose(g.x_centers, 0.5 * (g.x_edges[:-1] + g.x_edges[1:]))

    @pytest.mark.parametrize("m,n", [(0.0, 4), (-1.0, 4), (1.0, 0), (1.0, 1)])
    def test_invalid_arguments(self, m, n):
        with pytest.raises(ValueError):
            build_cartesian_grid(m, n)

    def test_immutable(self):
        g = build_cartesian_grid(1.0, 8)
        with pytest.raises(ValueError):
            g.x_centers[0] = 0.0


class TestPolarGrid:
    def test_small_example(self):
        g = build_polar_grid(1.0, 64, 0.99)
        assert g.dtheta == pytest.approx(2 * np.pi / 64)
        assert g.ratio == pytest.approx(0.99 * (1 - 2 * np.pi / 64), rel=1e-14)
        assert abs(g.ratio - 0.892813) < 1e-4

    def test_hole_is_tiny_but_positive(self):
        g = build_polar_grid(1.0, 512, 0.99)
        assert 0 < g.hole_radius < 1e-4
        assert g.hole_radius == pytest.approx(g.ratio**512, rel=1e-12)
        assert g.hole_radius_mid == 0.5 * g.hole_radius

    def test_too_few_sectors(self):
        with pytest.raises(ValueError, match="7"):
            build_polar_grid(1.0, 4, 0.99)

    @pytest.mark.parametrize("beta0", [0.0, 1.0, -0.1, 1.5])
    def test_bad_beta0(self, beta0):
        with pytest.raises(ValueError):
            build_polar_grid(1.0, 64, beta0)

    def test_centers_are_arithmetic_midpoints(self):
        g = build_polar_grid(2.0, 32, 0.95)
        np.testing.assert_allclose(g.r_centers, 0.5 * (g.r_edges[:-1] + g.r_edges[1:]),
                                   rtol=1e-15)

    def test_outermost_edge(self):
        g = build_polar_grid(3.5, 48, 0.99)
        assert g.r_edges[-1] == pytest.approx(3.5, rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=128), st.integers(min_value=1, max_value=128))
    def test_center_ratio_depends_on_index_difference_only(self, i, ip):
        g = _shared_grid()
        # r_{i'}/r_i == ratio**(i - i'); 1-based ring indices
        got = g.r_centers[ip - 1] / g.r_centers[i - 1]
        want = g.ratio ** (i - ip)
        assert got == pytest.approx(want, rel=1e-12)

    def test_edge_to_center_ratio(self):
        g = build_polar_grid(1.0, 32, 0.99)
        b = g.ratio
        for i, ip in [(5, 3), (1, 30), (17, 17)]:
            got = g.r_edges[ip] / g.r_centers[i - 1]   # r_{i'+1/2}/r_i
            assert got == pytest.approx(2 * b ** (i - ip) / (1 + b), rel=1e-12)

    def test_cell_areas_sum_to_annulus(self):
        g = build_polar_grid(1.0, 64, 0.99)
        total = g.cell_areas().sum() * g.n
        assert total == pytest.approx(np.pi * (1 - g.hole_radius**2), rel=1e-12)


_GRID_CACHE = {}


def _shared_grid():
    if "g" not in _GRID_CACHE:
        _GRID_CACHE["g"] = build_polar_grid(1.0, 128, 0.99)
    return _GRID_CACHE["g"]


class TestGridEquality:
    def test_equal_grids_compare_and_hash_equal(self):
        for build, args in ((build_cartesian_grid, (1.0, 16)),
                            (build_polar_grid, (1.0, 16, 0.99))):
            a, b = build(*args), build(*args)
            assert a is not b and a == b and hash(a) == hash(b)
            assert len({a, b}) == 1

    @pytest.mark.parametrize("other", [(2.0, 16), (1.0, 17)])
    def test_cartesian_parameters_distinguish(self, other):
        assert build_cartesian_grid(1.0, 16) != build_cartesian_grid(*other)

    @pytest.mark.parametrize("other", [(2.0, 16, 0.99), (1.0, 17, 0.99), (1.0, 16, 0.98)])
    def test_polar_parameters_distinguish(self, other):
        assert build_polar_grid(1.0, 16, 0.99) != build_polar_grid(*other)

    def test_cartesian_never_equals_polar(self):
        cart, polar = build_cartesian_grid(1.0, 16), build_polar_grid(1.0, 16, 0.99)
        assert cart != polar and polar != cart


class TestGeometryFacts:
    def test_one_builder_for_both_geometries(self):
        assert build_grid("cartesian", 1.5, 8, 0.3) == build_cartesian_grid(1.5, 8)
        assert build_grid("cartesian", 1.5, 8) == build_cartesian_grid(1.5, 8)
        assert build_grid("polar", 1.5, 16, 0.9) == build_polar_grid(1.5, 16, 0.9)
        for coords in ("spherical", "cart", None):
            with pytest.raises(ValueError, match=f"^unknown coordinate system {coords!r}$"):
                build_grid(coords, 1.0, 16, 0.9)

    @pytest.mark.parametrize("grid,components,padded", [
        (build_cartesian_grid(1.0, 8), ("x", "y", "R"), (0, 1)),
        (build_polar_grid(1.0, 8, 0.9), ("r", "theta"), (0,))])
    def test_each_grid_states_its_facts(self, grid, components, padded):
        assert grid_type(grid.coords) is type(grid)
        assert grid.components == components and grid.padded_axes == padded
        mesh = np.meshgrid(*grid.center_axes, indexing="ij")
        for got, want in zip(grid.center_mesh(), mesh):
            np.testing.assert_array_equal(got, want)
        # the facts are class attributes: equality and hashing stay by parameters
        names = {f.name for f in dataclasses.fields(grid)}
        assert not names & {"coords", "components", "padded_axes", "center_axes"}


@pytest.mark.parametrize("coords,name", [("cartesian", "half_width"), ("polar", "outer_radius")])
@pytest.mark.parametrize("m", [np.inf, np.nan])
def test_extent_must_be_finite(coords, name, m):
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {m}$"):
        build_grid(coords, m, 16, 0.9 if coords == "polar" else None)


@pytest.mark.parametrize("coords,name", [("cartesian", "half_width"), ("polar", "outer_radius")])
@pytest.mark.parametrize("m", [2e154, 1e160, 1e308, 1e-155, 1e-300])
def test_extent_square_must_be_normal(coords, name, m):
    # the square of the extent overflows or leaves the normal range
    want = f"{name} {m:g} is out of range: its square or cell area is not a finite normal double"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        build_grid(coords, m, 16, 0.9 if coords == "polar" else None)


def test_cell_area_must_be_normal():
    # the extent's square is normal and the cell area is not
    build_cartesian_grid(1e-150, 2)
    with pytest.raises(ValueError, match="^half_width 1e-150 is out of range"):
        build_cartesian_grid(1e-150, 10**6)
    # only the outermost ring's area counts: the inner rings may underflow
    grid = build_polar_grid(1e-100, 512, 0.5)
    assert grid.cell_areas()[0] == 0.0
