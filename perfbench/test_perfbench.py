"""Tests of the benchmark's own code (not of thindisk).

    python3 -m pytest -q perfbench
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest

import run

run.import_library()

import tracing  # noqa: E402
import workloads  # noqa: E402
from thindisk import grids, kernels_cartesian, kernels_polar, models, solver  # noqa: E402

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_same_seed_same_inputs():
    wl = workloads.CartSteps(None)
    a = wl.make_input(None, run.step_rng(7, 2, 3), 3)
    b = wl.make_input(None, run.step_rng(7, 2, 3), 3)
    c = wl.make_input(None, run.step_rng(8, 2, 3), 3)
    assert a == b
    assert a != c
    assert [len(wl.make_input(None, run.step_rng(7, 0, k), k).disks)
            for k in range(6)] == [2, 3, 4, 2, 3, 4]


@pytest.mark.parametrize("coords", ["cartesian", "polar"])
def test_mixtures_stay_inside_the_domain(coords):
    for seed in range(50):
        mix = workloads.make_mixture(run.step_rng(seed, 0, 0), coords, 4)
        for disk, (cx, cy) in zip(mix.disks, mix.centres):
            reach = max(abs(cx), abs(cy)) if coords == "cartesian" else math.hypot(cx, cy)
            assert reach + disk.alpha <= workloads.MARGIN * workloads.EXTENT + 1e-12


def _cartesian_case(n=32):
    grid = grids.build_cartesian_grid(workloads.EXTENT, n)
    mix = workloads.make_mixture(run.step_rng(1, 0, 0), "cartesian", 3)
    field = models.sample_density(mix.model(), grid)
    force = solver.solve_cartesian(field, kernels_cartesian.tabulate_cartesian_kernels(grid))
    return workloads.CartesianReference(grid), mix, force


def _polar_case(n=32):
    grid = grids.build_polar_grid(workloads.EXTENT, n, 0.99)
    mix = workloads.make_mixture(run.step_rng(1, 0, 0), "polar", 3)
    field = models.sample_density(mix.model(), grid)
    force = solver.solve_polar(field, kernels_polar.tabulate_polar_kernels(grid))
    return workloads.PolarReference(grid), mix, force


@pytest.mark.parametrize("case", [_cartesian_case, _polar_case])
def test_gate_accepts_the_solver_and_rejects_flipped_or_nan_forces(case):
    ref, mix, force = case()
    tol = 0.2   # coarse n = 32 grids; the workloads use tighter tolerances
    good = ref.check(mix, force.comp_u, force.comp_v, tol)
    assert good.ok and 0 < good.err < tol

    flipped = ref.check(mix, -force.comp_u, -force.comp_v, tol)
    assert not flipped.ok and flipped.err > 1.5

    poisoned = force.comp_u.copy()
    poisoned[3, 5] = np.nan
    nan = ref.check(mix, poisoned, force.comp_v, tol)
    assert not nan.ok and "non-finite" in nan.problem


def test_refine_gate_flags_orders_outside_the_bands():
    from thindisk.analysis import ConvergenceReport
    n_values = list(workloads.SWEEP_N)

    def report(method, ratio):
        col = [(0.01 / ratio**i, 0.0, 0.0) for i in range(len(n_values))]
        return ConvergenceReport(method, "d2", "cartesian", ["x", "y"], n_values,
                                 {"x": col, "y": col})

    wl = workloads.RefineSweep(None)
    norms = {n: 100.0 for n in n_values}
    ok = wl.check(norms, None, {"proposed": report("proposed", 3.7),
                                "softening": report("softening", 2.0)})
    assert ok.ok, ok.problem
    bad = wl.check(norms, None, {"proposed": report("proposed", 2.0),
                                 "softening": report("softening", 2.0)})
    assert not bad.ok and "proposed x order 1.000" in bad.problem


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)
    wl = workloads.CartSteps(None)
    runner = run.Runner(wl, seed=0)
    runner.setups, runner.steps, runner.pass_walls, runner.errs = [1.0], [0.5], [1.5], [1e-4]
    values, _ = run.end_to_end(runner)
    e2e = run.labelled(values, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in e2e.values())

    runner.traced_walls, runner.untraced_walls = [1.5], [1.4]
    values, _ = run.per_layer(runner, tracing.Tracer())
    run.labelled(values, SPEC["per_layer"])
    assert set(run.COMPUTED) <= set(values)
    with pytest.raises(SystemExit):
        run.labelled({"setup_s": 1.0}, SPEC["end_to_end"])


def test_tail_uses_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 41))            # 40 samples: q = 75
    got, q = run.tail(values)
    assert q == pytest.approx(75.0)
    assert sum(v > got for v in values) == 10
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_spans_nest_and_self_time_excludes_children():
    tracer = tracing.Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: inner(), "outer")
    outer()                                # no root span open: not recorded
    assert tracer.spans == []
    with tracer.root("step", "0.0"):
        outer()
    names = [s.name for s in tracer.spans]
    assert names == ["step", "outer", "inner"]
    assert [s.parent for s in tracer.spans] == [None, 0, 1]
    selfs = tracing.self_times(tracer.spans)
    total = tracer.spans[0].end - tracer.spans[0].start
    assert sum(selfs) == pytest.approx(total)


def test_traced_cartesian_solve_counts_twelve_transforms():
    tracer = tracing.Tracer()
    tracer.install_fft()
    tracer.install_thindisk()
    try:
        grid = grids.build_cartesian_grid(1.0, 16)
        tables = kernels_cartesian.tabulate_cartesian_kernels(grid)
        for kind in kernels_cartesian.KINDS:
            tables.spectrum(kind)
        field = models.sample_density(models.D2Disk(), grid)
        with tracer.root("step", "0.0"):
            solver.solve_cartesian(field, tables)
    finally:
        tracer.uninstall()
    m = tracing.layer_metrics(tracer.spans, 1, workloads.SWEEP_N)
    assert m["solver.solve_calls"] == 1
    assert m["convolve.fft_convolve_calls"] == 6
    assert m["solver.transforms_per_solve"] == 12      # 6 forward + 6 inverse
    # each transform reads and writes one padded 32 x 32 real / 32 x 17 complex array
    assert m["solver.fft_mb_per_solve"] == pytest.approx(
        12 * (32 * 32 * 8 + 32 * 17 * 16) / tracing.MIB)
    assert not hasattr(solver.fft_convolve, "__wrapped__")    # wrappers removed


def test_field_files_match_the_library_format(tmp_path):
    from thindisk import gridio
    n = 8
    rng = np.random.default_rng(3)
    values, sx, sy = rng.standard_normal((3, n, n))
    path = tmp_path / "density.txt"
    workloads.write_density_file(path, n, values, sx, sy)
    field = gridio.read_density(path)
    assert field.grid.n == n and field.grid.half_width == workloads.EXTENT
    for got, want in ((field.values, values), (field.slope_u, sx), (field.slope_v, sy)):
        assert np.array_equal(got, want)

    grid = grids.build_cartesian_grid(workloads.EXTENT, n)
    gridio.write_force(tmp_path / "force.txt", solver.ForceField(grid, sx, sy))
    fx, fy = workloads.read_force_file(tmp_path / "force.txt", n)
    assert np.array_equal(fx, sx) and np.array_equal(fy, sy)
    with pytest.raises(ValueError):
        workloads.read_force_file(tmp_path / "force.txt", 2 * n)


def test_traced_sweep_splits_rows_and_criterion9_parts():
    from thindisk import analysis
    tracer = tracing.Tracer()
    tracer.install_fft()
    tracer.install_thindisk()
    try:
        with tracer.root("step", "0.0"):
            for method in ("proposed", "softening"):
                analysis.run_convergence(models.D2Disk(), [8, 16], method=method)
    finally:
        tracer.uninstall()
    m = tracing.layer_metrics(tracer.spans, 1, (8, 16))
    assert m["analysis.row_s.N8"] > 0 and m["analysis.row_s.N16"] > 0
    assert m["analysis.softening_row_s.N16"] > 0
    assert m["crit9.tabulate_ratio.8-16"] > 0 and m["crit9.solve_ratio.8-16"] > 0
    assert m["kernels_cartesian.tabulate_calls"] == 2
    assert m["baselines.softened_calls"] == 2
    # lazily computed spectra: six extra forward transforms in each proposed solve
    assert m["solver.transforms_per_solve"] == 18
    assert m["kernels_cartesian.table_mb"] == pytest.approx(6 * 32 * 32 * 8 / tracing.MIB)
