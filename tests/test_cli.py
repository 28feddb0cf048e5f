
import numpy as np
import pytest

from thindisk.analysis import ConvergenceReport
from thindisk.cli import build_parser, main, run_bench
from thindisk.gridio import read_force


def run(args, capsys=None):
    code = main(args)
    return code


class TestSolve:
    def test_cartesian_d2(self, tmp_path, capsys):
        out = tmp_path / "f.txt"
        code = main(["solve", "--coords", "cartesian", "--model", "d2",
                     "--N", "16", "--out", str(out), "--threads", "1"])
        assert code == 0
        text = capsys.readouterr().out
        assert "F_x:" in text and "L1=" in text
        force = read_force(out)
        assert force.grid.n == 16

    def test_polar_d2(self, tmp_path, capsys):
        out = tmp_path / "f.txt"
        code = main(["solve", "--coords", "polar", "--model", "d2", "--N", "16",
                     "--beta0", "0.99", "--out", str(out), "--threads", "1"])
        assert code == 0
        assert "F_r:" in capsys.readouterr().out

    def test_softening_method(self, tmp_path):
        out = tmp_path / "f.txt"
        code = main(["solve", "--method", "softening", "--N", "16",
                     "--out", str(out), "--threads", "1"])
        assert code == 0

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["solve", "--input", str(tmp_path / "nope.txt"), "--threads", "1"])
        assert code == 2
        assert "nope.txt" in capsys.readouterr().err

    def test_solve_from_density_file(self, tmp_path):
        dens = tmp_path / "d.txt"
        code = main(["solve", "--N", "12", "--out", str(tmp_path / "f0.txt"),
                     "--threads", "1"])
        assert code == 0
        from thindisk import D2Disk, build_cartesian_grid, sample_density
        from thindisk.gridio import write_density
        write_density(dens, sample_density(D2Disk(), build_cartesian_grid(1.0, 12)))
        code = main(["solve", "--input", str(dens), "--out", str(tmp_path / "f1.txt"),
                     "--threads", "1"])
        assert code == 0
        a = read_force(tmp_path / "f0.txt")
        b = read_force(tmp_path / "f1.txt")
        np.testing.assert_allclose(a.comp_u, b.comp_u, rtol=1e-12)

    def test_kernel_cache_reuse(self, tmp_path, monkeypatch):
        # the cache lands at exactly the given path, so the second run loads it
        from thindisk import cli
        tabulate = cli.tabulate_kernels
        for name in ("k.npz", "k.cache"):
            monkeypatch.setattr(cli, "tabulate_kernels", tabulate)
            cache = tmp_path / name
            for _ in range(2):
                code = main(["solve", "--N", "12", "--kernel-cache", str(cache),
                             "--out", str(tmp_path / "f.txt"), "--threads", "1"])
                assert code == 0
                monkeypatch.setattr(cli, "tabulate_kernels",
                                    lambda grid: pytest.fail("tabulated despite the cache"))
            assert cache.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.txt", "k.cache", "k.npz"]

    def test_kernels_writes_the_given_path(self, tmp_path, capsys):
        cache = tmp_path / "k.cache"
        assert main(["kernels", "--N", "12", "--out", str(cache)]) == 0
        assert capsys.readouterr().err == ""
        assert [p.name for p in tmp_path.iterdir()] == ["k.cache"]
        assert main(["solve", "--N", "12", "--kernel-cache", str(cache),
                     "--out", str(tmp_path / "f.txt")]) == 0

    @pytest.mark.parametrize("argv", [["--N", "33"], ["--N", "33", "--method", "softening"],
                                      ["--method", "softening", "--M", "1000", "--N", "16",
                                       "--sigma0", "1e305"]], ids=["odd", "odd-soft", "huge"])
    def test_error_norms_finite(self, tmp_path, capsys, argv):
        # R = 0 at the center of an odd grid; forces near 1e300 square past
        # the double range: neither shows up as nan, inf or a warning
        assert main(["solve", *argv, "--out", str(tmp_path / "f.txt")]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        norms = [line for line in captured.out.splitlines() if line.startswith("F_")]
        assert [line.split(":")[0] for line in norms] == ["F_x", "F_y", "F_R"]
        values = [float(v.split("=")[1]) for line in norms for v in line.split()[1:]]
        assert len(values) == 9 and np.isfinite(values).all()

    def test_truncated_kernel_cache_exits_2(self, tmp_path, capsys):
        cache = tmp_path / "k.npz"
        assert main(["kernels", "--N", "12", "--out", str(cache), "--threads", "1"]) == 0
        with np.load(cache) as data:
            kept = {k: data[k] for k in data.files if k != "table_xy"}
        np.savez_compressed(cache, **kept)
        capsys.readouterr()
        code = main(["solve", "--N", "12", "--kernel-cache", str(cache),
                     "--out", str(tmp_path / "f.txt"), "--threads", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "table_xy" in err
        assert "Traceback" not in err
        assert not (tmp_path / "f.txt").exists()

    @pytest.mark.parametrize("damage", ["no-version", "no-grid", "version-1", "version-2", "text"])
    def test_bad_kernel_cache_exits_2(self, tmp_path, capsys, damage):
        cache = tmp_path / "k.npz"
        assert main(["kernels", "--N", "12", "--out", str(cache)]) == 0
        if damage == "text":
            cache.write_text("not a cache\n")
        else:
            drop = "version" if damage == "no-version" else "grid"
            with np.load(cache) as data:
                kept = {k: data[k] for k in data.files if k != drop}
            if damage == "version-1":
                kept.update(version=np.array(1), coords=np.array("cartesian"),
                            n=np.array(12), extent=np.array(1.0))
            if damage == "version-2":
                kept.update(version=np.array(2), grid=np.array("cart 12 1"))
            np.savez_compressed(cache, **kept)
        capsys.readouterr()
        code = main(["solve", "--N", "12", "--kernel-cache", str(cache),
                     "--out", str(tmp_path / "f.txt")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert not (tmp_path / "f.txt").exists()

    def test_non_finite_density_file_exits_2(self, tmp_path, capsys):
        from thindisk import D2Disk, build_cartesian_grid, sample_density
        from thindisk.gridio import write_density
        dens = tmp_path / "d.txt"
        write_density(dens, sample_density(D2Disk(), build_cartesian_grid(1.0, 16)),
                      include_slopes=False)
        lines = dens.read_text().splitlines()
        lines[2 + 5] = ",".join(["nan"] + lines[2 + 5].split(",")[1:])
        dens.write_text("\n".join(lines) + "\n")
        code = main(["solve", "--input", str(dens), "--out", str(tmp_path / "f.txt"),
                     "--threads", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "row 5 of density" in err
        assert not (tmp_path / "f.txt").exists()

    def test_non_numeric_density_file_exits_2(self, tmp_path, capsys):
        from thindisk import D2Disk, build_cartesian_grid, sample_density
        from thindisk.gridio import write_density
        dens = tmp_path / "d.txt"
        write_density(dens, sample_density(D2Disk(), build_cartesian_grid(1.0, 16)),
                      include_slopes=False)
        lines = dens.read_text().splitlines()
        lines[2 + 3] = ",".join(lines[2 + 3].split(",")[:-1] + ["abc"])
        dens.write_text("\n".join(lines) + "\n")
        header_only = tmp_path / "h.txt"
        header_only.write_text("thindisk v1\n")
        for path, msgs in ((dens, ("row 3 of density", "'abc'")),
                           (header_only, ("missing grid line",))):
            code = main(["solve", "--input", str(path), "--out", str(tmp_path / "f.txt")])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and all(m in err for m in msgs)
            assert not (tmp_path / "f.txt").exists()

    @pytest.mark.parametrize("scale,code", [(1e305, 0), (1e307, 3)])
    def test_overflowing_density_file_exits_3(self, tmp_path, capsys, scale, code):
        from thindisk import D2Disk, build_cartesian_grid, sample_density
        from thindisk.gridio import write_density
        dens, out = tmp_path / "d.txt", tmp_path / "f.txt"
        write_density(dens, sample_density(D2Disk(), build_cartesian_grid(1.0, 16)).scaled(scale))
        assert main(["solve", "--input", str(dens), "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert err == "numerical failure: force component comp_u holds a non-finite value\n"
            assert not out.exists()
        else:
            assert err == "" and np.isfinite(read_force(out).comp_u).all()

    @pytest.mark.parametrize("argv", [["solve"], ["solve", "--epsilon", "0.1"], ["converge"]])
    def test_polar_softening_exits_1(self, tmp_path, capsys, argv):
        out = tmp_path / "o.txt"
        code = main(argv + ["--coords", "polar", "--method", "softening", "--N", "16",
                            "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: softened solver runs on Cartesian grids\n"
        assert not out.exists()

    def test_usage_error(self):
        assert main(["solve", "--coords", "spherical"]) == 1
        assert main(["solve", "--model", "unknown-disk", "--threads", "1"]) == 1


class TestSign:
    @pytest.mark.parametrize("argv", [[], ["--coords", "polar"], ["--method", "softening"]],
                             ids=["cartesian", "polar", "softening"])
    def test_repulsive_file_is_the_exact_negation(self, tmp_path, capsys, argv):
        forces, norms = {}, {}
        for sign in ("attractive", "repulsive"):
            out = tmp_path / f"{sign}.txt"
            assert main(["solve", "--N", "16", *argv, "--sign", sign, "--out", str(out)]) == 0
            forces[sign] = read_force(out)
            norms[sign] = [ln for ln in capsys.readouterr().out.splitlines()
                           if ln.startswith("F_")]
        att, rep = forces["attractive"], forces["repulsive"]
        for a, r in ((att.comp_u, rep.comp_u), (att.comp_v, rep.comp_v)):
            np.testing.assert_array_equal(r, -a)
            # zeros too: +0 in one file is -0 in the other
            np.testing.assert_array_equal(np.signbit(r), ~np.signbit(a))
        # the printed norms compare like with like, so the sign leaves them alone
        assert norms["attractive"] and norms["repulsive"] == norms["attractive"]


class TestConverge:
    def test_writes_parseable_csv(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(["converge", "--model", "d2", "--N", "8,16",
                     "--method", "softening", "--out", str(out), "--threads", "1"])
        assert code == 0
        rep = ConvergenceReport.from_csv(out.read_text())
        assert rep.n_values == [8, 16]
        assert rep.method == "softening"

    def test_self_convergence_mode(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(["converge", "--model", "log-spiral", "--N", "8",
                     "--truth-N", "16", "--out", str(out), "--threads", "1"])
        assert code == 0
        rep = ConvergenceReport.from_csv(out.read_text())
        assert rep.method == "proposed-self"

    def test_bad_integer_list_exits_1(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["converge", "--N", "16,x", "--out", str(out)]) == 1
        assert "'16,x'" in capsys.readouterr().err
        assert not out.exists()


class TestBadInput:
    """Bad input ends in its documented exit code and one stderr line, never
    a traceback.  ``{cfg}`` in an argv names a config file holding ``config``,
    and ``{force}`` a force file written by ``solve --N 8``."""

    CASES = [
        # (argv, config, exit code, stderr line)
        (["solve", "--method", "softening", "--epsilon", "0"], None, 1,
         "error: epsilon must be positive and finite, got 0.0"),
        (["solve", "--method", "softening", "--config", "{cfg}"], "epsilon = 0", 1,
         "error: epsilon must be positive and finite, got 0.0"),
        (["solve", "--method", "softening", "--epsilon", "inf", "--N", "16"], None, 1,
         "error: epsilon must be positive and finite, got inf"),
        # non-finite model parameters are refused where the model is built
        (["solve", "--alpha", "inf", "--N", "16"], None, 1,
         "error: alpha must be positive and finite, got inf"),
        (["solve", "--alpha", "inf", "--N", "16", "--model", "d2_2"], None, 1,
         "error: alpha must be positive and finite, got inf"),
        (["solve", "--sigma0", "inf"], None, 1,
         "error: sigma0 must be positive and finite, got inf"),
        (["converge", "--alpha", "inf", "--N", "16,32"], None, 1,
         "error: alpha must be positive and finite, got inf"),
        (["kalnajs", "--alpha", "inf"], None, 1,
         "error: alpha must be positive and finite, got inf"),
        (["solve", "--method", "softening", "--coords", "polar"], None, 1,
         "error: softened solver runs on Cartesian grids"),
        (["converge", "--model", "log-spiral", "--N", "16,32"], None, 1,
         "error: model 'log_spiral' has no analytic force; measure it against a fine-grid "
         "solve with run_self_convergence (thindisk converge --truth-N)"),
        (["converge", "--N", "16,x"], None, 1, "error: argument --N: bad integer list '16,x'"),
        (["solve", "--N", "x"], None, 1, "error: argument --N: invalid int value: 'x'"),
        (["solve", "--model", "unknown-disk"], None, 1,
         "error: unknown model 'unknown-disk' (expected d2, d2_2 or log-spiral)"),
        (["solve", "--config", "{cfg}"], "frobnicate = 3", 1,
         "error: unknown config key 'frobnicate'"),
        (["solve", "--input", "{missing}"], None, 2, "error: cannot read {missing}"),
        (["converge", "--model", "log-spiral", "--N", "8", "--truth-N", "16", "--coords", "polar"],
         None, 1, "error: --truth-N takes only --coords cartesian, not polar"),
        (["converge", "--model", "log-spiral", "--N", "8", "--truth-N", "16",
          "--method", "softening"], None, 1,
         "error: --truth-N takes only --method proposed, not softening"),
        (["converge", "--model", "log-spiral", "--N", "8", "--truth-N", "16",
          "--row-convention", "reference"], None, 1,
         "error: --truth-N takes only --row-convention plain, not reference"),
        (["solve", "--N", "16", "--epsilon", "-1"], None, 1,
         "error: epsilon is the softening length; the proposed method takes none"),
        (["solve", "--N", "16", "--config", "{cfg}"], "epsilon = 0.1", 1,
         "error: epsilon is the softening length; the proposed method takes none"),
        # cell masses past the double range (sigma0 * dx^2 with dx = 125)
        (["solve", "--method", "softening", "--M", "1000", "--alpha", "900", "--N", "16",
          "--sigma0", "1e305"], None, 3, "numerical failure: cell mass holds a non-finite value"),
        # radial ratio ~ 1e-3: the polar kernel tables overflow
        (["solve", "--coords", "polar", "--N", "64", "--beta0", "0.001"], None, 3,
         "numerical failure: rr ring table holds a non-finite value"),
        (["kernels", "--coords", "polar", "--N", "64", "--beta0", "0.001"], None, 3,
         "numerical failure: rr ring table holds a non-finite value"),
        # a force file in place of a density file: its Fy block follows the Fx block
        (["solve", "--input", "{force}"], None, 2,
         "error: 8 unexpected line(s) after the density block"),
        # a non-finite grid extent is refused before anything is sampled
        (["solve", "--M", "inf"], None, 1,
         "error: half_width must be positive and finite, got inf"),
        (["kernels", "--M", "inf"], None, 1,
         "error: half_width must be positive and finite, got inf"),
        (["solve", "--coords", "polar", "--M", "inf"], None, 1,
         "error: outer_radius must be positive and finite, got inf"),
        # the log-spectral baseline refuses non-finite radii and truncations
        (["kalnajs", "--r-max", "nan"], None, 1, "error: query radii must be positive and finite"),
        (["kalnajs", "--r-min", "nan"], None, 1, "error: query radii must be positive and finite"),
        (["kalnajs", "--r-max", "inf"], None, 1, "error: query radii must be positive and finite"),
        (["kalnajs", "--u-min=-inf"], None, 1, "error: u_min must be negative and finite"),
        (["kalnajs", "--alpha-max", "inf"], None, 1,
         "error: alpha_max must be positive and finite"),
        (["kalnajs", "--points", "0"], None, 1, "error: need at least one query radius"),
        (["singular-study", "--k-min", "26", "--k-max", "27"], None, 3,
         "numerical failure: 1 - cos(2**-27) rounds to 0 in double precision "
         "(k must be at most 26)"),
    ]

    @pytest.mark.parametrize("argv,config,code,line", CASES,
                             ids=lambda v: "_".join(v) if isinstance(v, list) else None)
    def test_one_line_and_exit_code(self, tmp_path, capsys, argv, config, code, line):
        names = {"cfg": str(tmp_path / "c.cfg"), "missing": str(tmp_path / "nope.txt"),
                 "force": str(tmp_path / "force.txt")}
        if config is not None:
            (tmp_path / "c.cfg").write_text(config + "\n")
        if "{force}" in argv:
            assert main(["solve", "--N", "8", "--out", names["force"]]) == 0
            capsys.readouterr()
        out = tmp_path / "out.txt"
        argv = [a.format(**names) for a in argv] + ["--out", str(out)]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.err == line.format(**names) + "\n"
        assert captured.out == "" and not out.exists()

    def test_two_cell_grid_solves(self, tmp_path, capsys):
        # no three-point stencil fits on two cells: zero difference slopes
        out = tmp_path / "f.txt"
        assert main(["solve", "--N", "2", "--slopes", "central-difference",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert read_force(out).grid.n == 2
        from thindisk import D2Disk, build_cartesian_grid, sample_density
        from thindisk.analysis import solve_field
        field = sample_density(D2Disk(), build_cartesian_grid(1.0, 2), slopes="central-difference")
        assert not field.slope_u.any() and not field.slope_v.any()
        np.testing.assert_array_equal(read_force(out).comp_u, solve_field(field).comp_u)


class TestConfigFile:
    def test_config_fills_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("N = 8,16\nmethod = softening\n")
        out = tmp_path / "r.csv"
        code = main(["converge", "--config", str(cfg), "--out", str(out),
                     "--threads", "1"])
        assert code == 0
        assert ConvergenceReport.from_csv(out.read_text()).n_values == [8, 16]
        # explicit flag wins over the config value
        code = main(["converge", "--config", str(cfg), "--N", "8",
                     "--out", str(out), "--threads", "1"])
        assert code == 0
        assert ConvergenceReport.from_csv(out.read_text()).n_values == [8]

    def test_blank_and_comment_lines_skipped(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# a sweep\n\n   \nN = 8,16   # two rows\n\t\n# method = proposed\n"
                       "method = softening\n")
        out = tmp_path / "r.csv"
        assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 0
        rep = ConvergenceReport.from_csv(out.read_text())
        assert rep.n_values == [8, 16] and rep.method == "softening"

    @pytest.mark.parametrize("key", ["frobnicate", "func", "command"])
    def test_unknown_key(self, tmp_path, capsys, key):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = 3\n")
        assert main(["converge", "--config", str(cfg), "--threads", "1"]) == 1
        assert f"unknown config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["coords = spherical", "method = bogus", "epsilon = abc"])
    def test_bad_value_exits_1(self, tmp_path, line):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "f.txt"
        assert main(["solve", "--config", str(cfg), "--N", "8", "--out", str(out)]) == 1
        assert not out.exists()

    def test_abbreviated_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("row_convention = reference\nN = 8\n")
        out = tmp_path / "r.csv"
        assert main(["converge", "--config", str(cfg), "--row", "plain",
                     "--out", str(out)]) == 0
        rep = ConvergenceReport.from_csv(out.read_text())
        assert rep.n_values == [8] and rep.metadata["row_convention"] == "plain"

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("THINDISK_THREADS", "2")
        code = main(["solve", "--N", "8", "--out", str(tmp_path / "f.txt")])
        assert code == 0


class TestOtherCommands:
    def test_kernels_dump(self, tmp_path):
        out = tmp_path / "k.npz"
        code = main(["kernels", "--coords", "polar", "--N", "8", "--out", str(out),
                     "--threads", "1"])
        assert code == 0
        assert out.exists()

    @pytest.mark.parametrize("coords,key", [("cartesian", "table_xy"), ("polar", "hole_tt")])
    def test_kernels_round_trip_mismatch_exits_2(self, tmp_path, capsys, monkeypatch,
                                                 coords, key):
        from thindisk import gridio
        load = gridio.load_kernel_tables

        def perturbed(path, grid):
            tables = load(path, grid)
            kind = key.split("_", 1)[1]
            (tables.tables if key.startswith("table_") else tables.hole_tables)[kind][1, 2] += 1.0
            return tables

        monkeypatch.setattr(gridio, "load_kernel_tables", perturbed)
        code = main(["kernels", "--coords", coords, "--N", "8", "--out", str(tmp_path / "k.npz")])
        assert code == 2
        assert capsys.readouterr().err == f"error: kernel cache round trip failed for {key}\n"

    def test_singular_study_beyond_k26_exits_3(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["singular-study", "--k-min", "20", "--k-max", "30",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == ("numerical failure: 1 - cos(2**-27) rounds to 0 "
                                           "in double precision (k must be at most 26)\n")
        assert not out.exists()
        assert main(["singular-study", "--k-min", "20", "--k-max", "26", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 8

    def test_singular_study(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(["singular-study", "--k-min", "2", "--k-max", "5",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "k,E,order"
        assert len(lines) == 5

    def test_kalnajs_command(self, tmp_path):
        out = tmp_path / "phi.csv"
        code = main(["kalnajs", "--N", "64", "--n-alpha", "128",
                     "--points", "16", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("r,phi")

    def test_bench_small(self, tmp_path):
        out = tmp_path / "b.csv"
        code = main(["bench", "--N", "16,32", "--direct-N", "8", "--repeats", "3",
                     "--out", str(out), "--threads", "1"])
        assert code == 0
        text = out.read_text()
        assert text.startswith("method,phase,N,mean_seconds,repeats")
        assert "proposed,whole,32" in text
        assert "direct,whole,8" in text

    def test_bench_repeat_floor(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text("repeats = 0\n")
        out = tmp_path / "b.csv"
        for extra in (["--repeats", "1"], ["--repeats", "0"], ["--config", str(cfg)]):
            assert main(["bench", "--N", "8", "--threads", "1", "--out", str(out)] + extra) == 1
            assert "bench needs at least 3 repetitions" in capsys.readouterr().err
        assert not out.exists()


class TestBenchHarness:
    def test_records_structure(self):
        recs = run_bench([8], repeats=3, direct_n=[8])
        phases = {(r.method, r.phase) for r in recs}
        assert ("proposed", "kernel") in phases
        assert ("proposed", "force") in phases
        assert ("proposed", "whole") in phases
        assert ("softening", "whole") in phases
        assert ("direct", "whole") in phases
        assert all(r.mean_seconds > 0 and r.repeats == 3 for r in recs)


_PUBLIC_NAMES = [
    "CartesianGrid", "PolarGrid", "build_cartesian_grid", "build_polar_grid",
    "D2Disk", "D2PairDisk", "LogSpiralDisk", "CallableModel", "DensityField",
    "eval_density", "sample_density",
    "KernelTables", "eval_cartesian_kernel", "tabulate_cartesian_kernels",
    "PolarKernelTables", "eval_F", "eval_H1", "eval_H2", "eval_polar_kernel",
    "eval_hole_kernel", "tabulate_polar_kernels",
    "fft_convolve", "direct_convolve",
    "ForceField", "solve_cartesian", "solve_cartesian_direct", "solve_polar",
    "solve_polar_direct", "polar_potential",
    "SofteningConfig", "KalnajsConfig", "solve_softened_cartesian",
    "complex_gamma", "spectral_transfer_kernel", "kalnajs_gamma_kernel",
    "kalnajs_potential_axisym",
    "ConvergenceReport", "error_norms", "order_of_accuracy",
    "restrict_fine_to_coarse", "run_convergence", "run_self_convergence",
    "singular_trapezoid_study",
]

_COMMON = ["-h", "--help", "--config", "--threads", "--M", "--alpha", "--sigma0"]
_OPTIONS = {
    "solve": _COMMON + ["--coords", "--model", "--input", "--N", "--beta0", "--method",
                        "--epsilon", "--slopes", "--sign", "--kernel-cache", "--out"],
    "converge": _COMMON + ["--coords", "--model", "--N", "--beta0", "--method", "--slopes",
                           "--row-convention", "--truth-N", "--out"],
    "bench": _COMMON + ["--N", "--direct-N", "--repeats", "--out"],
    "kernels": _COMMON + ["--coords", "--N", "--beta0", "--out"],
    "singular-study": ["-h", "--help", "--config", "--k-min", "--k-max", "--out"],
    "kalnajs": _COMMON + ["--model", "--N", "--u-min", "--alpha-max", "--n-alpha",
                          "--r-min", "--r-max", "--points", "--out"],
}


def _subparsers():
    import argparse
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


class TestContract:
    def test_public_names_resolve(self):
        import thindisk
        missing = [name for name in thindisk.__all__ if not hasattr(thindisk, name)]
        assert missing == []

    def test_public_names_pinned(self):
        import thindisk
        assert thindisk.__all__ == _PUBLIC_NAMES

    def test_cli_options_pinned(self):
        got = {name: [o for a in sp._actions for o in a.option_strings]
               for name, sp in _subparsers().items()}
        assert got == _OPTIONS

    def test_option_dests_map_to_flags(self):
        # config keys are dests; the config file turns each into this flag
        for sp in _subparsers().values():
            for a in sp._actions:
                if a.dest != "help":
                    assert "--" + a.dest.replace("_", "-") in a.option_strings

    @pytest.mark.parametrize("argv", [["solve"], ["converge"], ["bench"],
                                      ["kernels", "--out", "k.npz"], ["kalnajs"]])
    def test_threads_flag_accepted(self, argv):
        assert build_parser().parse_args(argv + ["--threads", "4"]).threads == 4

    def test_threads_change_no_output(self, tmp_path, capsys, monkeypatch):
        runs = {"1": ["--threads", "1"], "3": ["--threads", "3"], "env": []}
        outputs = {}
        for label, extra in runs.items():
            if label == "env":
                monkeypatch.setenv("THINDISK_THREADS", "zebra")
            out = tmp_path / f"f{label}.txt"
            assert main(["solve", "--N", "16", "--out", str(out)] + extra) == 0
            stdout = capsys.readouterr().out.replace(str(out), "OUT")
            outputs[label] = (out.read_bytes(), stdout)
        assert outputs["1"] == outputs["3"] == outputs["env"]
