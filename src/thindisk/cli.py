"""Command-line front end.

Commands: solve, converge, bench, kernels, singular-study, kalnajs.  Flags
override an optional key=value config file (keys are the command's option
names), which overrides defaults.  Exit codes: 0 success, 1 usage error,
2 I/O error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import analysis, gridio
from .analysis import csv_text, solve_field, tabulate_kernels
from .baselines import KalnajsConfig, kalnajs_potential_axisym
from .grids import build_cartesian_grid, build_polar_grid
from .kernels_cartesian import KINDS as CARTESIAN_KINDS
from .kernels_polar import KINDS as POLAR_KINDS, SingularEvaluationError
from .models import D2Disk, D2PairDisk, LogSpiralDisk, sample_density
from .solver import solve_cartesian_direct

EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3


class UsageError(ValueError):
    pass


def _int_list(text: str):
    try:
        return [int(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise UsageError(f"bad integer list {text!r}") from exc


def make_model(name: str, alpha: float, sigma0: float):
    key = name.replace("-", "_").lower()
    if key == "d2":
        return D2Disk(alpha=alpha, sigma0=sigma0)
    if key in ("d2_2", "d22"):
        return D2PairDisk(alpha=alpha, sigma0=sigma0)
    if key in ("log_spiral", "spiral"):
        return LogSpiralDisk()
    raise UsageError(f"unknown model {name!r} (expected d2, d2_2 or log-spiral)")


def _config_options(args) -> list:
    """The ``key = value`` lines of ``args.config`` as ``--key=value`` options.

    Keys are the command's option names (dashes or underscores alike); the
    parser checks the values exactly as it checks the flags.
    """
    known = set(vars(args)) - {"command", "func"}
    options = []
    with open(args.config, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"bad config line {raw.rstrip()!r}")
            k, v = line.split("=", 1)
            key = k.strip().replace("-", "_")
            if key not in known:
                raise UsageError(f"unknown config key {key!r}")
            options.append(f"--{key.replace('_', '-')}={v.strip()}")
    return options


def _write_text(path, text: str) -> None:
    """Write a report to ``path`` and say so, or to stdout without a path."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)


def _build_grid(args):
    if args.coords == "cartesian":
        return build_cartesian_grid(args.M, args.N)
    return build_polar_grid(args.M, args.N, args.beta0)


def _build_field(args):
    """Grid + density field from either a model or an input file."""
    if args.input:
        field = gridio.read_density(args.input)
        return field.grid, field, None
    model = make_model(args.model, args.alpha, args.sigma0)
    grid = _build_grid(args)
    return grid, sample_density(model, grid, slopes=args.slopes), model


def cmd_solve(args) -> int:
    grid, field, model = _build_field(args)
    tables = None
    if args.method == "proposed" and args.kernel_cache:
        if os.path.exists(args.kernel_cache):
            tables = gridio.load_kernel_tables(args.kernel_cache, grid)
        else:
            tables = tabulate_kernels(grid)
            gridio.save_kernel_tables(args.kernel_cache, tables)
    force = solve_field(field, args.method, tables, args.epsilon or None).as_convention(args.sign)

    out = args.out or "force.txt"
    gridio.write_force(out, force)
    print(f"wrote {out}")

    if model is not None and hasattr(model, "force_xy"):
        exact = analysis._analytic_force(model, grid).as_convention(args.sign)
        for comp, (e1, e2, ei) in analysis.error_norms(force, exact, grid).items():
            print(f"F_{comp}: L1={e1:.4e}  L2={e2:.4e}  Linf={ei:.4e}")
    return 0


def cmd_converge(args) -> int:
    model = make_model(args.model, args.alpha, args.sigma0)
    if args.truth_N:
        report = analysis.run_self_convergence(
            model, args.N, args.truth_N, half_width=args.M, slope_mode=args.slopes)
    else:
        report = analysis.run_convergence(
            model, args.N, coords=args.coords, method=args.method,
            half_width=args.M, beta0=args.beta0, slope_mode=args.slopes,
            row_convention=args.row_convention)
    _write_text(args.out, report.to_csv())
    return 0


@dataclass
class TimingRecord:
    phase: str
    method: str
    n: int
    mean_seconds: float
    repeats: int


def _timeit(fn, repeats: int) -> float:
    vals = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        vals.append(time.perf_counter() - t0)
    return float(np.mean(vals))


def run_bench(n_values, repeats=3, direct_n=(), half_width=1.0):
    """Timing records for the fast method, the softened method and the
    literal direct summation (the latter usually on a smaller N list)."""
    model = D2Disk()
    records = []
    for n in n_values:
        grid = build_cartesian_grid(half_width, n)
        field = sample_density(model, grid)
        tables = tabulate_kernels(grid)
        # untimed warmup: fft twiddle caches and allocator pools are per-size,
        # and the solve leaves every kernel spectrum cached in ``tables``
        solve_field(field, tables=tables)
        t_kernel = _timeit(lambda: tabulate_kernels(grid), repeats)
        t_force = _timeit(lambda: solve_field(field, tables=tables), repeats)
        t_whole = _timeit(lambda: solve_field(field), repeats)
        records += [TimingRecord("kernel", "proposed", n, t_kernel, repeats),
                    TimingRecord("force", "proposed", n, t_force, repeats),
                    TimingRecord("whole", "proposed", n, t_whole, repeats)]

        t_soft = _timeit(lambda: solve_field(field, "softening"), repeats)
        records.append(TimingRecord("whole", "softening", n, t_soft, repeats))

    for n in direct_n:
        grid = build_cartesian_grid(half_width, n)
        field = sample_density(model, grid)
        tables = tabulate_kernels(grid)
        solve_cartesian_direct(field, tables)   # warmup
        t_kernel = _timeit(lambda: tabulate_kernels(grid), repeats)
        t_direct = _timeit(lambda: solve_cartesian_direct(field, tables), repeats)
        records.append(TimingRecord("kernel", "direct", n, t_kernel, repeats))
        records.append(TimingRecord("force", "direct", n, t_direct, repeats))
        records.append(TimingRecord("whole", "direct", n, t_kernel + t_direct, repeats))
    return records


def bench_csv(records) -> str:
    return csv_text(["method", "phase", "N", "mean_seconds", "repeats"],
                    [(r.method, r.phase, r.n, r.mean_seconds, r.repeats) for r in records])


def cmd_bench(args) -> int:
    if args.repeats < 3:
        raise UsageError("bench needs at least 3 repetitions")
    records = run_bench(args.N, repeats=args.repeats, direct_n=args.direct_N or [],
                        half_width=args.M)
    _write_text(args.out, bench_csv(records))
    return 0


def cmd_kernels(args) -> int:
    grid = _build_grid(args)
    tables = tabulate_kernels(grid)
    gridio.save_kernel_tables(args.out, tables)
    saved = gridio.cache_arrays(tables)
    for key, arr in gridio.cache_arrays(gridio.load_kernel_tables(args.out, grid)).items():
        if not np.array_equal(arr, saved[key]):
            raise gridio.FileFormatError(f"kernel cache round trip failed for {key}")
    kinds = CARTESIAN_KINDS if grid.coords == "cartesian" else POLAR_KINDS
    print(f"wrote {args.out} ({len(kinds)} kernel kinds, n={grid.n})")
    return 0


def cmd_singular_study(args) -> int:
    rows = analysis.singular_trapezoid_study(range(args.k_min, args.k_max + 1))
    _write_text(args.out, csv_text(["k", "E", "order"], rows))
    return 0


def cmd_kalnajs(args) -> int:
    model = make_model(args.model, args.alpha, args.sigma0)
    if model.kind != "d2":
        raise UsageError("the log-spectral solver needs an axisymmetric model (d2)")
    cfg = KalnajsConfig(u_min=args.u_min, alpha_max=args.alpha_max,
                        n_alpha=args.n_alpha, n_u=args.N)
    radii = np.linspace(args.r_min, args.r_max, args.points)
    phi = kalnajs_potential_axisym(lambda r: model.density(r, np.zeros_like(r)), radii, cfg)
    _write_text(args.out, csv_text(["r", "phi"], zip(radii, phi)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="thindisk",
                                description="Self-gravity of infinitesimally thin disks")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="key = value config file")
        sp.add_argument("--threads", type=int, default=0,
                        help="accepted for compatibility; every stage runs on one thread")
        sp.add_argument("--M", type=float, default=1.0, help="domain half-width / outer radius")
        sp.add_argument("--alpha", type=float, default=0.25, help="disk cutoff radius")
        sp.add_argument("--sigma0", type=float, default=1.0, help="central surface density")

    sp = sub.add_parser("solve", help="solve one force field")
    common(sp)
    sp.add_argument("--coords", choices=["cartesian", "polar"], default="cartesian")
    sp.add_argument("--model", default="d2")
    sp.add_argument("--input", help="density file instead of a model")
    sp.add_argument("--N", type=int, default=64)
    sp.add_argument("--beta0", type=float, default=0.99)
    sp.add_argument("--method", choices=["proposed", "softening"], default="proposed")
    sp.add_argument("--epsilon", type=float, default=0.0,
                    help="softening length (default: one cell)")
    sp.add_argument("--slopes", choices=["auto", "analytic", "central-difference"],
                    default="auto")
    sp.add_argument("--sign", choices=["attractive", "repulsive"], default="attractive")
    sp.add_argument("--kernel-cache", dest="kernel_cache")
    sp.add_argument("--out", help="output force file")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("converge", help="error/order sweep against analytic truth")
    common(sp)
    sp.add_argument("--coords", choices=["cartesian", "polar"], default="cartesian")
    sp.add_argument("--model", default="d2")
    sp.add_argument("--N", type=_int_list, default=[32, 64, 128, 256])
    sp.add_argument("--beta0", type=float, default=0.99)
    sp.add_argument("--method", choices=["proposed", "softening"], default="proposed")
    sp.add_argument("--slopes", choices=["auto", "analytic", "central-difference"],
                    default="auto")
    sp.add_argument("--row-convention", dest="row_convention",
                    choices=["plain", "reference"], default="plain")
    sp.add_argument("--truth-N", dest="truth_N", type=int, default=0,
                    help="self-convergence against this fine grid (log-spiral)")
    sp.add_argument("--out", help="output CSV")
    sp.set_defaults(func=cmd_converge)

    sp = sub.add_parser("bench", help="timing harness")
    common(sp)
    sp.add_argument("--N", type=_int_list, default=[128, 256, 512])
    sp.add_argument("--direct-N", dest="direct_N", type=_int_list, default=[32, 64, 128],
                    help="N list for the O(N^4) direct path")
    sp.add_argument("--repeats", type=int, default=40)
    sp.add_argument("--out", help="output CSV")
    sp.set_defaults(func=cmd_bench)

    sp = sub.add_parser("kernels", help="tabulate kernels and write a binary cache")
    common(sp)
    sp.add_argument("--coords", choices=["cartesian", "polar"], default="cartesian")
    sp.add_argument("--N", type=int, default=64)
    sp.add_argument("--beta0", type=float, default=0.99)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_kernels)

    sp = sub.add_parser("singular-study", help="trapezoid error of the log-singular integrand")
    sp.add_argument("--config", help="key = value config file")
    sp.add_argument("--k-min", dest="k_min", type=int, default=2)
    sp.add_argument("--k-max", dest="k_max", type=int, default=10)
    sp.add_argument("--out", help="output CSV")
    sp.set_defaults(func=cmd_singular_study)

    sp = sub.add_parser("kalnajs", help="log-spectral potential of an axisymmetric model")
    common(sp)
    sp.add_argument("--model", default="d2")
    sp.add_argument("--N", type=int, default=1024, help="log-radius nodes")
    sp.add_argument("--u-min", dest="u_min", type=float, default=KalnajsConfig.u_min)
    sp.add_argument("--alpha-max", dest="alpha_max", type=float, default=KalnajsConfig.alpha_max)
    sp.add_argument("--n-alpha", dest="n_alpha", type=int, default=KalnajsConfig.n_alpha)
    sp.add_argument("--r-min", dest="r_min", type=float, default=1e-3)
    sp.add_argument("--r-max", dest="r_max", type=float, default=1.0)
    sp.add_argument("--points", type=int, default=256)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_kalnajs)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # config options go right after the command, so typed flags win
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + _config_options(args) + argv[at:])
        return args.func(args)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else EXIT_USAGE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: cannot read {exc.filename}", file=sys.stderr)
        return EXIT_IO
    except (OSError, gridio.FileFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (SingularEvaluationError, FloatingPointError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
