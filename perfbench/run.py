"""thindisk benchmark: one seeded workload per process, one JSON result line.

    python3 perfbench/run.py --workload cart-steps --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/`` directory, never from an installed copy.  With ``--trace 0`` the
last line of standard output holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  A line before it
records the environment and how each figure was obtained; the same record
and (when traced) the spans are written under ``.bench_build/perfbench/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOAD_NAMES = ("cart-steps", "polar-steps", "refine-sweep", "file-steps")

# per-layer figures derived from array shapes and file sizes, not timed
COMPUTED = ("kernels_cartesian.table_mb", "kernels_cartesian.spectra_mb",
            "kernels_polar.table_mb", "kernels_polar.spectra_mb",
            "solver.transforms_per_solve", "solver.fft_mb_per_solve",
            "gridio.bytes_read", "gridio.bytes_written")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library():
    """Put the checkout's src/ first on the path and import thindisk from it."""
    src = ROOT / "src"
    if not (src / "thindisk" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no thindisk sources under {src}")
    sys.path.insert(0, str(src))
    import thindisk
    if Path(thindisk.__file__).resolve().parent != src / "thindisk":
        raise SystemExit(f"perfbench: imported thindisk from {thindisk.__file__}, not {src}")
    return thindisk


def tail(values):
    """Latency at the highest percentile with at least ten samples beyond it;
    the maximum when there are fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return max(values), 100.0
    import numpy as np
    q = 100.0 * (1.0 - 10.0 / n)
    return float(np.percentile(values, q)), q


def environment(threads: int) -> dict:
    import numpy
    import scipy
    cpu, llc = "", ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    if caches.is_dir():
        levels = []
        for idx in caches.glob("index*"):
            try:
                levels.append((int((idx / "level").read_text()), (idx / "size").read_text().strip()))
            except (OSError, ValueError):
                continue
        llc = max(levels)[1] if levels else ""
    return {"nproc": os.cpu_count(), "threads": threads,
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS + ("THINDISK_THREADS",)},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cpu": cpu, "llc": llc}


def cpu_ticks():
    """(machine busy, steal, total) jiffies from /proc/stat; None where unreadable."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            user, nice, system, idle, iowait, irq, softirq, steal = \
                (int(v) for v in fh.readline().split()[1:9])
    except (OSError, ValueError):
        return None
    busy = user + nice + system + irq + softirq
    return busy, steal, busy + steal + idle + iowait


def machine_load(before, after, own_cpu_s: float) -> dict:
    """Shares of the machine's CPU time during the run that went to other
    processes and to the hypervisor (steal): timings move with both."""
    if before is None or after is None:
        return {}
    busy, steal, total = (b - a for a, b in zip(before, after))
    hz = os.sysconf("SC_CLK_TCK")
    return {"others_busy_frac": max(busy / hz - own_cpu_s, 0.0) * hz / max(total, 1),
            "steal_frac": steal / max(total, 1)}


class Runner:
    """Runs passes of one workload until the time budget is spent."""

    def __init__(self, workload, seed, tracer=None):
        self.wl = workload
        self.seed = seed
        self.tracer = tracer
        self.setups, self.steps, self.pass_walls, self.errs = [], [], [], []
        self.traced_walls, self.untraced_walls = [], []
        self.attempted = self.failed = 0
        self.problems = []

    def _root(self, traced, name, step):
        return self.tracer.root(name, step) if traced else nullcontext()

    def _fail(self, what):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def run_pass(self, index, pass_key, traced):
        wl = self.wl
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with self._root(traced, "setup", f"{index}.setup"):
                state = wl.setup()
        except Exception as exc:  # a failed setup is counted, never fatal
            self._fail(f"pass {index} setup: {exc!r}")
            return
        setup_s = time.perf_counter() - t0
        wall = setup_s
        for k in range(wl.steps_per_pass):
            self.attempted += 1
            inp = wl.make_input(state, step_rng(self.seed, pass_key, k), k)
            try:
                with self._root(traced, "step", f"{index}.{k}"):
                    t0 = time.perf_counter()
                    out = wl.run_step(state, inp)
                    dt = time.perf_counter() - t0
                check = wl.check(state, inp, out)
            except Exception as exc:
                self._fail(f"pass {index} step {k}: {exc!r}")
                continue
            self.steps.append(dt)
            wall += dt
            if math.isfinite(check.err):
                self.errs.append(check.err)
            if not check.ok:
                self._fail(f"pass {index} step {k}: {check.problem}")
        self.setups.append(setup_s)
        self.pass_walls.append(wall)
        (self.traced_walls if traced else self.untraced_walls).append(wall)

    def run(self, seconds, trace):
        """Untraced: passes until the budget is spent.  Traced: untraced and
        traced passes alternate on the same inputs, at least one of each."""
        start = time.perf_counter()
        index = 0
        while True:
            traced = trace and index % 2 == 1
            t0 = time.perf_counter()
            self.run_pass(index, index // 2 if trace else index, traced)
            last = time.perf_counter() - t0
            index += 1
            elapsed = time.perf_counter() - start
            if trace and not self.traced_walls and index < 4:
                continue
            # stop unless another pass like the last would end nearer the budget
            if elapsed + 0.5 * last > seconds:
                break


def step_rng(seed: int, pass_key: int, step: int):
    """The generator of one step's inputs: the same seed, pass and step
    always give the same inputs."""
    import numpy as np
    return np.random.default_rng([seed, pass_key, step])


def median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(r: Runner) -> tuple[dict, dict]:
    step_tail, q = tail(r.steps) if r.steps else (float("nan"), 0.0)
    values = {
        "setup_s": median(r.setups),
        "step_p50_s": median(r.steps),
        "step_tail_s": step_tail,
        "steps_per_s": len(r.steps) / sum(r.steps) if r.steps else 0.0,
        "wall_s": median(r.pass_walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "err_rel_l1": median(r.errs),
        "pass_frac": 1.0 - r.failed / max(r.attempted, 1),
    }
    info = {"tail_percentile": q, "step_samples": len(r.steps),
            "setup_samples": len(r.setups), "passes": len(r.pass_walls),
            "steps_per_pass": r.wl.steps_per_pass,
            "fail_frac": r.failed / max(r.attempted, 1),
            "err_rel_l1_max": max(r.errs, default=float("nan"))}
    return values, info


def per_layer(r: Runner, tracer) -> tuple[dict, dict]:
    import tracing
    import workloads
    m = tracing.layer_metrics(tracer.spans, len(r.traced_walls), workloads.SWEEP_N)
    m["trace.overhead_s"] = median(r.traced_walls) - median(r.untraced_walls)
    m["trace.spans_per_pass"] = len(tracer.spans) / max(len(r.traced_walls), 1)
    m["trace.span_cost_s"] = tracing.span_cost_s()
    info = {"traced_passes": len(r.traced_walls), "untraced_passes": len(r.untraced_walls),
            "computed": list(COMPUTED)}
    return m, info


def labelled(values: dict, declared: list) -> dict:
    """Values with the units BENCHMARK.json declares; the two name sets must match."""
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        raise SystemExit(f"perfbench: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(values))}")
    # a figure nothing measured (every step failed) is null, keeping the line valid JSON
    return {k: {"value": values[k] if math.isfinite(values[k]) else None, "unit": units[k]}
            for k in units}


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install_fft()
    import_library()
    import workloads
    if tracer is not None:
        tracer.install_thindisk()

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wl = workloads.WORKLOADS[args.workload](str(OUT_DIR / f"work-{tag}-{os.getpid()}"))
    runner = Runner(wl, args.seed, tracer)
    ticks, cpu0 = cpu_ticks(), os.times()
    try:
        runner.run(args.seconds, bool(args.trace))
    finally:
        wl.close()
        if tracer is not None:
            tracer.uninstall()

    if args.trace:
        values, info = per_layer(runner, tracer)
        metrics = labelled(values, spec["per_layer"])
        tracer.write(OUT_DIR / f"spans-{tag}.json")
    else:
        values, info = end_to_end(runner)
        metrics = labelled(values, spec["end_to_end"])
    cpu1 = os.times()
    own_cpu_s = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                attempted=runner.attempted, failed=runner.failed,
                problems=runner.problems, env=environment(wl.threads),
                machine=machine_load(ticks, cpu_ticks(), own_cpu_s))
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    record = {**result, "info": info, "setup_s": runner.setups, "step_s": runner.steps}
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    for p in runner.problems:
        print(f"perfbench: failure: {p}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
