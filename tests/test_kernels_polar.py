import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from thindisk import (build_polar_grid, eval_F, eval_H1, eval_H2,
                      eval_hole_kernel, eval_polar_kernel, tabulate_polar_kernels)
from thindisk import kernels_cartesian, kernels_polar
from thindisk.kernels_polar import KINDS, POTENTIAL_KINDS, SingularEvaluationError

from oracles import quad_polar_kernel

try:
    import resource
except ImportError:     # not on every platform
    resource = None


@pytest.fixture(scope="module")
def grid16():
    return build_polar_grid(1.0, 16, 0.99)


class TestBasics:
    def test_F_values(self):
        assert eval_F(1.0, 0.0) == 0.0
        assert eval_F(0.0, 1.234) == 1.0
        assert eval_F(2.0, np.pi) == pytest.approx(3.0, rel=1e-15)

    def test_H1_H2_derivatives_match_integrands(self):
        t, th = 0.5, 1.0
        h = 1e-5
        d1 = (eval_H1(t + h, th) - eval_H1(t - h, th)) / (2 * h)
        want1 = t * (1 - t * np.cos(th)) / eval_F(t, th) ** 3
        assert d1 == pytest.approx(want1, abs=1e-6)
        d2 = (eval_H2(t + h, th) - eval_H2(t - h, th)) / (2 * h)
        want2 = t**2 * (1 - t * np.cos(th)) / eval_F(t, th) ** 3
        assert d2 == pytest.approx(want2, abs=1e-6)

    def test_H1_even_in_theta(self):
        for t, th in [(0.3, 0.7), (1.5, 2.0), (0.9, 0.01)]:
            assert eval_H1(t, th) == pytest.approx(eval_H1(t, -th), rel=1e-14)

    def test_singular_guard(self):
        with pytest.raises(SingularEvaluationError):
            eval_H1(0.5, 0.0)
        with pytest.raises(SingularEvaluationError):
            eval_H2(1.0, 0.0)
        # t > 1 at theta = 0 is regular
        assert np.isfinite(eval_H1(1.5, 0.0))


class TestSymmetries:
    def test_angular_parity(self, grid16):
        n = grid16.n
        even = ("r0", "rr", "tt")
        odd = ("t0", "tr", "rt")
        for k in range(1, n):
            for kind in even:
                a = eval_polar_kernel(kind, 5, k, grid16)
                b = eval_polar_kernel(kind, 5, -k, grid16)
                assert a == pytest.approx(b, rel=1e-12, abs=1e-15), kind
            for kind in odd:
                a = eval_polar_kernel(kind, 5, k, grid16)
                b = eval_polar_kernel(kind, 5, -k, grid16)
                assert a == pytest.approx(-b, rel=1e-12, abs=1e-15), kind

    def test_t0_symmetric_pair_cancels(self, grid16):
        # odd integrand: contributions from mirrored angular offsets cancel
        s = eval_polar_kernel("t0", 0, 3, grid16) + eval_polar_kernel("t0", 0, -3, grid16)
        assert s == pytest.approx(0.0, abs=1e-15)

    def test_angular_periodicity(self, grid16):
        # table storage is exactly periodic (one column per residue); the
        # evaluator agrees up to trig round-off of the shifted angles
        t = tabulate_polar_kernels(grid16)
        for kind in KINDS:
            np.testing.assert_array_equal(t.table(kind)[:, 5 % grid16.n],
                                          t.table(kind)[:, (5 + grid16.n) % grid16.n])
            a = eval_polar_kernel(kind, 2, 5, grid16)
            b = eval_polar_kernel(kind, 2, 5 + grid16.n, grid16)
            assert a == pytest.approx(b, rel=1e-9, abs=1e-13)

    def test_hole_even_in_angle(self, grid16):
        a = eval_hole_kernel("r0", 7, 4, grid16)
        b = eval_hole_kernel("r0", 7, -4, grid16)
        assert a == pytest.approx(b, rel=1e-12)


class TestQuadratureOracle:
    def test_r0_within_trapezoid_error_and_refines(self):
        # exact radially, two-node trapezoid in theta; the residual against
        # full quadrature shrinks under refinement at fixed physical
        # separation (offsets scaled with n)
        g16 = build_polar_grid(1.0, 16, 0.99)
        got = float(eval_polar_kernel("r0", 2, 3, g16))
        want = quad_polar_kernel("r0", 2, 3, g16)
        assert abs(got - want) <= 0.02 * abs(want)
        rel = []
        for m, n in enumerate((16, 32, 64)):
            g = build_polar_grid(1.0, n, 0.99)
            got = float(eval_polar_kernel("r0", 2 * 2**m, 3 * 2**m, g))
            want = quad_polar_kernel("r0", 2 * 2**m, 3 * 2**m, g)
            rel.append(abs(got - want) / abs(want))
        for a, b in zip(rel[:-1], rel[1:]):
            assert a / b > 2.0

    @pytest.mark.parametrize("kind", ["r0", "rr", "rt", "tt", "p0", "pr", "pt"])
    def test_trapezoid_kinds_close_to_quadrature(self, grid16, kind):
        # the slope-weighted kinds (rt, tt, pt) integrate an odd-weighted
        # factor whose two-node trapezoid is only order-of-magnitude accurate
        # relative to its own O(dtheta^3) size, so the agreement bound is
        # absolute at trapezoid order rather than relative
        dth2 = grid16.dtheta**2
        for di, dj in [(1, 2), (-2, 5), (4, 0)]:
            got = float(eval_polar_kernel(kind, di, dj, grid16))
            want = quad_polar_kernel(kind, di, dj, grid16)
            assert abs(got - want) <= max(0.1 * abs(want), 0.05 * dth2), (kind, di, dj)

    @pytest.mark.parametrize("kind", ["t0", "tr"])
    def test_exact_kinds_match_quadrature_tightly(self, grid16, kind):
        # these have exact double antiderivatives: agreement to quadrature
        # accuracy, not merely trapezoid accuracy
        for di, dj in [(1, 2), (-2, 5), (4, 0), (0, 1), (3, 8)]:
            got = float(eval_polar_kernel(kind, di, dj, grid16))
            want = quad_polar_kernel(kind, di, dj, grid16)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-13), (kind, di, dj)

    def test_hole_kernel_vs_quadrature(self, grid16):
        n = grid16.n
        got = float(eval_hole_kernel("r0", n, 0, grid16))
        want = quad_polar_kernel("r0", 0, 0, grid16, hole_index=n)
        assert got == pytest.approx(want, rel=2e-2)
        got = float(eval_hole_kernel("t0", 5, 3, grid16))
        want = quad_polar_kernel("t0", 0, 3, grid16, hole_index=5)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-13)

    def test_self_cell_finite(self, grid16):
        for kind in KINDS:
            assert np.isfinite(eval_polar_kernel(kind, 0, 0, grid16))


class TestTables:
    @pytest.mark.parametrize("n", [16, 33])
    def test_table_equals_entrywise_eval(self, n):
        # the odd size puts the corner lattice's ends off any symmetry
        grid = build_polar_grid(1.0, n, 0.99)
        t = tabulate_polar_kernels(grid, kinds=KINDS + POTENTIAL_KINDS)
        wrap = np.concatenate([np.arange(n + 1), np.arange(-n + 1, 0)])
        for kind in KINDS + POTENTIAL_KINDS:
            want = eval_polar_kernel(kind, wrap[:, None], np.arange(n)[None, :], grid)
            np.testing.assert_array_equal(t.table(kind), want)
            want = eval_hole_kernel(kind, np.arange(1, n + 1)[:, None],
                                    np.arange(n)[None, :], grid)
            np.testing.assert_array_equal(t.hole_table(kind), want)

    def test_offset_dependence_only(self, grid16):
        # rings (10, 8) and (7, 5) share di = 2, so they share kernel values
        v = eval_polar_kernel("r0", np.array([2]), np.array([3]), grid16)
        assert v[0] == float(eval_polar_kernel("r0", 2, 3, grid16))

    def test_potential_kinds_tabulate(self, grid16):
        t = tabulate_polar_kernels(grid16, kinds=POTENTIAL_KINDS)
        assert set(t.tables) == set(POTENTIAL_KINDS)
        n = grid16.n
        assert t.table("p0").shape == (2 * n, n)
        assert t.hole_table("p0").shape == (n, n)

    def test_hole_index_validation(self, grid16):
        with pytest.raises(ValueError):
            eval_hole_kernel("r0", 0, 0, grid16)

    def test_tables_do_not_depend_on_outer_radius(self):
        # every table is a function of the index offsets, ratio and dtheta
        a = tabulate_polar_kernels(build_polar_grid(1.0, 33, 0.99), kinds=KINDS + POTENTIAL_KINDS)
        b = tabulate_polar_kernels(build_polar_grid(7.3, 33, 0.99), kinds=KINDS + POTENTIAL_KINDS)
        for kind in KINDS + POTENTIAL_KINDS:
            np.testing.assert_array_equal(a.table(kind), b.table(kind))
            np.testing.assert_array_equal(a.hole_table(kind), b.hole_table(kind))
            # so are the spectra, whose radial-slope kinds hold r_i / r_src
            np.testing.assert_array_equal(a.spectrum(kind), b.spectrum(kind))
            np.testing.assert_array_equal(a.hole_spectrum(kind), b.hole_spectrum(kind))

    def test_overflowing_tables_raise(self):
        # ratio ~ 1e-3: the far radial limits reach 1e189 and their squares overflow;
        # refused without a numpy warning, naming the first bad kind
        grid = build_polar_grid(1.0, 64, 0.001)
        with pytest.raises(FloatingPointError, match="^rr ring table holds a non-finite value$"):
            tabulate_polar_kernels(grid)

    def test_threaded_tabulation_matches(self):
        g = build_polar_grid(1.0, 64, 0.99)
        a = tabulate_polar_kernels(g, threads=1)
        b = tabulate_polar_kernels(g, threads=4)
        for kind in KINDS:
            np.testing.assert_array_equal(a.table(kind), b.table(kind))


def assert_bits(got, want):
    """Equal values, NaNs included, equal sign bits and equal shapes."""
    got, want = np.asarray(got), np.asarray(want)
    np.testing.assert_array_equal(got, want, strict=True)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


DTHETA = 2.0 * np.pi / 512
# dimensionless radii: the origin, both sides of the t = 1 singularity, the
# far limits of stretched grids, and values that are not numbers
RADII = st.one_of(st.sampled_from([0.0, -0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
                                   1e-300, 1e150, np.nan, np.inf, -np.inf]),
                  st.floats(0.0, 1e150))
# trapezoid nodes half a cell off a center, near +-2 pi, and the singular 0
NODES = st.one_of(st.sampled_from([0.0, -0.0, DTHETA / 2, -DTHETA / 2, np.pi,
                                   2.0 * np.pi - DTHETA / 2, DTHETA / 2 - 2.0 * np.pi,
                                   np.nextafter(2.0 * np.pi, 0.0), -np.nextafter(2.0 * np.pi, 0.0),
                                   np.nan, np.inf]),
                  st.floats(-7.0, 7.0))
SPECIAL = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e300, np.nan, np.inf, -np.inf]


def column_by_row(data, rows, columns):
    """0-d values, or a column of rows by a row of columns."""
    if data.draw(st.booleans()):
        return data.draw(rows), data.draw(columns)
    return (np.array(data.draw(st.lists(rows, min_size=1, max_size=5)))[:, None],
            np.array(data.draw(st.lists(columns, min_size=1, max_size=5)))[None, :])


class TestReferenceForms:
    """The log, chord, antiderivatives, corner sums and blocked tables
    against oracles' reference forms, to the bit: test_table_equals_entrywise_eval
    cannot see a changed formula, since both of its sides use it."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data())
    def test_log_plus_hypot(self, data):
        # a <= 0 with b = 0 reads -inf, and 0 with 0 nan
        a, b = column_by_row(data, st.one_of(st.sampled_from(SPECIAL), st.floats()),
                             st.one_of(st.sampled_from(SPECIAL), st.floats()))
        with np.errstate(all="ignore"):
            want = oracles.log_plus_hypot(a, b)
            assert_bits(kernels_cartesian._log_plus_hypot(a, b), want)
            assert_bits(kernels_cartesian._log_plus_hypot(a, b, np.hypot(a, b)), want)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data())
    def test_chord_and_antiderivatives(self, data):
        t, u = column_by_row(data, RADII, NODES)
        with np.errstate(all="ignore"):
            got, want = kernels_polar._chord(t, u), oracles.chord(t, u)
            for g, w in zip(got, want):
                assert_bits(g, w)
            for name, form in oracles.POLAR_FORMS.items():
                assert_bits(getattr(kernels_polar, name)(*got), form(*want))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from([(), (3,), (4, 5)]),
           dtheta=st.sampled_from([DTHETA, 0.3]), ratio=st.floats(1e-3, 1e3))
    def test_corner_sums(self, seed, shape, dtheta, ratio):
        # corner values of every sign and size, a different set per antiderivative
        rng = np.random.default_rng(seed)

        def draw():
            v = rng.choice(SPECIAL + [0.5, -2.0, 3e10], size=(4, *shape))
            v = np.where(rng.random(v.shape) < 0.5, rng.standard_normal(v.shape), v)
            return tuple(v[k] if shape else v[k][()] for k in range(4))

        polar = {name: draw() for name in oracles.POLAR_FORMS}
        names = {form: name for name, form in oracles.POLAR_FORMS.items()}
        cartesian = {kind: draw() for kind in kernels_cartesian.X_KINDS}
        kind_of = {kernels_cartesian._anti_x0: "x0", kernels_cartesian._anti_xx_tail: "xx",
                   kernels_cartesian._anti_xy_tail: "xy"}

        def differenced(a, b, c, d):
            return a - b, c - d, c, d

        with np.errstate(all="ignore"):
            for kind in KINDS + POTENTIAL_KINDS:
                assert_bits(kernels_polar._assemble(kind, lambda f: differenced(*polar[f.__name__]),
                                                    ratio, dtheta),
                            oracles.assemble_polar(kind, lambda f: polar[names[f]], ratio, dtheta))
            for kind in kernels_cartesian.X_KINDS:
                assert_bits(kernels_cartesian._assemble(
                                kind, lambda fn: differenced(*cartesian[kind_of[fn]]), -3, -2, 0.1),
                            oracles.assemble_cartesian(kind, cartesian.__getitem__, -3, -2, 0.1))

    # with 32-row blocks, n = 16 fills one ring block and a hole table
    # shorter than a block; n = 33 fills whole blocks plus a remainder
    @pytest.mark.parametrize("n", [16, 33, 64, 257])
    @pytest.mark.parametrize("beta0", [0.99, 0.7])
    def test_tables_match_full_lattice_reference(self, n, beta0):
        grid = build_polar_grid(1.0, n, beta0)
        kinds = KINDS + POTENTIAL_KINDS
        t = tabulate_polar_kernels(grid, kinds=kinds)
        ring, hole = oracles.lattice_polar_tables(grid, kinds)
        for kind in kinds:
            assert_bits(t.table(kind), ring[kind])
            assert_bits(t.hole_table(kind), hole[kind])

    def test_kind_order_and_one_evaluation_per_block(self, monkeypatch):
        grid = build_polar_grid(1.0, 33, 0.99)
        kinds = KINDS + POTENTIAL_KINDS
        forward = tabulate_polar_kernels(grid, kinds=kinds)
        calls = {name: 0 for name in oracles.POLAR_FORMS}

        def counted(name, form):
            def wrapper(*terms):
                calls[name] += 1
                return form(*terms)
            return wrapper

        for name in oracles.POLAR_FORMS:
            monkeypatch.setattr(kernels_polar, name, counted(name, getattr(kernels_polar, name)))
        backward = tabulate_polar_kernels(grid, kinds=kinds[::-1])
        blocks = -(-2 * grid.n // kernels_polar.BLOCK_ROWS) + -(-grid.n // kernels_polar.BLOCK_ROWS)
        assert blocks == 5
        assert calls == {name: blocks for name in oracles.POLAR_FORMS}
        for kind in kinds:
            assert_bits(backward.table(kind), forward.table(kind))
            assert_bits(backward.hole_table(kind), forward.hole_table(kind))

    def test_pointwise_return_types(self, grid16):
        # scalar offsets give numpy scalars, as the one-line forms do
        for kind in KINDS + POTENTIAL_KINDS:
            assert type(eval_polar_kernel(kind, 3, 2, grid16)) is np.float64
            assert type(eval_hole_kernel(kind, 3, 2, grid16)) is np.float64
        assert type(eval_H1(0.5, 1.0)) is np.float64
        assert type(eval_H2(0.5, 1.0)) is np.float64


def test_tabulation_peak_memory():
    # one N=512 tabulation peaks at 54.7 MiB, for 36 MiB of tables, when
    # the closed forms are evaluated one block of rows at a time; it
    # peaked at 92.3 MiB with whole-lattice closed forms, and no such
    # growth may come back
    grid = build_polar_grid(1.0, 512, 0.99)
    tracemalloc.start()
    try:
        tabulate_polar_kernels(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 55.0 * 2**20


FAULT_PROBE = """
import resource
from thindisk import D2PairDisk, build_polar_grid, sample_density, solve_polar, tabulate_polar_kernels
grid = build_polar_grid(1.0, 512, 0.99)
tables = tabulate_polar_kernels(grid)
field = sample_density(D2PairDisk(), grid)
faults = []
for _ in range(4):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    solve_polar(field, tables)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults)
"""


@pytest.mark.skipif(resource is None or platform.libc_ver()[0] != "glibc",
                    reason="minor-fault counts of glibc's allocator")
def test_warm_polar_solves_reuse_the_heap():
    # tabulation frees the whole-lattice chord arrays (8.4 MiB each at
    # N=512), which raises glibc's mmap threshold above a solve's 4.2 MiB
    # spectral buffers; with a blocked chord every warm solve made about
    # 1,500 minor faults, against 0 here
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(kernels_polar.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    faults = [int(x) for x in out.split()]
    assert len(faults) == 4 and max(faults[2:]) <= 64, faults
