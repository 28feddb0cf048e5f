"""In-memory spans around calls into the thindisk modules, and the
per-layer metrics derived from them.

Nothing inside ``src/`` is instrumented.  Instead, public functions and
methods are wrapped at the module attributes their callers look up (for
example ``thindisk.solver.fft_convolve``, which ``solve_cartesian`` reads
at call time).  A wrapper records a span only while a root span ("setup",
"step") is open on the owning thread, so the benchmark's own input
generation and correctness checks never show up as library time.

The FFT entry points of numpy and scipy are wrapped as well, before
thindisk is imported, so transform counts and bytes come from the calls
actually made, whichever module makes them.  An FFT call is not a span: its
time, count and bytes are added to the innermost open span, so a layer's
self time still includes the transforms it runs.
"""
from __future__ import annotations

import functools
import json
import os
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

MIB = float(1 << 20)

FFT_FUNCS = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
             "fftn", "ifftn", "rfftn", "irfftn")

# thindisk functions and the module attributes they are looked up through.
# Each entry: span name, attribute name, modules (relative to thindisk).
FUNCTION_SITES = (
    ("models.sample_density", "sample_density", ("models", "analysis", "cli")),
    ("kernels_cartesian.tabulate", "tabulate_cartesian_kernels",
     ("kernels_cartesian", "analysis", "cli")),
    ("kernels_polar.tabulate", "tabulate_polar_kernels",
     ("kernels_polar", "analysis", "cli", "solver")),
    ("convolve.fft_convolve", "fft_convolve", ("convolve", "solver", "baselines")),
    ("convolve.ring_convolve", "ring_convolve", ("convolve", "solver")),
    ("solver.solve_cartesian", "solve_cartesian", ("solver", "analysis", "cli")),
    ("solver.solve_polar", "solve_polar", ("solver", "analysis", "cli")),
    ("baselines.solve_softened", "solve_softened_cartesian",
     ("baselines", "analysis", "cli")),
    ("baselines.softened_potential", "softened_potential", ("baselines",)),
    ("analysis.run_convergence", "run_convergence", ("analysis",)),
    ("analysis.error_norms", "error_norms", ("analysis",)),
    ("gridio.read_density", "read_density", ("gridio",)),
    ("gridio.write_force", "write_force", ("gridio",)),
    ("gridio.load_kernel_tables", "load_kernel_tables", ("gridio",)),
    ("gridio.save_kernel_tables", "save_kernel_tables", ("gridio",)),
    ("cli.main", "main", ("cli",)),
    ("cli.cmd_solve", "cmd_solve", ("cli",)),
    ("cli.cmd_kernels", "cmd_kernels", ("cli",)),
)

METHOD_SITES = (
    ("kernels_cartesian.spectrum", "kernels_cartesian", "KernelTables", "spectrum"),
    ("kernels_polar.spectrum", "kernels_polar", "PolarKernelTables", "spectrum"),
    ("kernels_polar.hole_spectrum", "kernels_polar", "PolarKernelTables", "hole_spectrum"),
)

SOLVE_SPANS = ("solver.solve_cartesian", "solver.solve_polar")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    step: str
    counts: dict | None = None


def _file_size(path) -> int:
    path = os.fspath(path)
    return os.path.getsize(path) if os.path.exists(path) else 0


def _tables_nbytes(tables) -> dict:
    total = sum(a.nbytes for a in tables.tables.values())
    total += sum(a.nbytes for a in getattr(tables, "hole_tables", {}).values())
    return {"n": tables.grid.n, "nbytes": total}


def _spectrum_nbytes(args, result) -> dict:
    tables, kind = args[0], args[1]
    return {"n": tables.grid.n, "kind": kind, "nbytes": result.nbytes}


# what each wrapped call adds to its span's counts, from arguments, result
# and file sizes; every byte figure here is computed, not measured
MEASURES = {
    "kernels_cartesian.tabulate": lambda a, k, r: _tables_nbytes(r),
    "kernels_polar.tabulate": lambda a, k, r: _tables_nbytes(r),
    "kernels_cartesian.spectrum": lambda a, k, r: _spectrum_nbytes(a, r),
    "kernels_polar.spectrum": lambda a, k, r: _spectrum_nbytes(a, r),
    "kernels_polar.hole_spectrum": lambda a, k, r: _spectrum_nbytes(a, r),
    "analysis.error_norms": lambda a, k, r: {"n": a[0].grid.n},
    "gridio.read_density": lambda a, k, r: {"bytes_read": _file_size(a[0])},
    "gridio.load_kernel_tables": lambda a, k, r: {"bytes_read": _file_size(a[0])},
    "gridio.write_force": lambda a, k, r: {"bytes_written": _file_size(a[0])},
    "gridio.save_kernel_tables": lambda a, k, r: {"bytes_written": _file_size(a[0])},
}


class Tracer:
    """Records nested spans of the owning thread while a root span is open."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._owner = threading.get_ident()
        self._patched: list[tuple] = []
        self._step = ""

    # -- recording -------------------------------------------------------
    @contextmanager
    def root(self, name: str, step: str):
        self._step = step
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._step))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, measure=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack or threading.get_ident() != tracer._owner:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if measure is not None:
                span = tracer.spans[idx]
                span.counts = {**(span.counts or {}), **measure(args, kwargs, result)}
            return result

        return traced

    def count_fft(self, fn, direction: str):
        """Wrap an FFT function: add its seconds, one call and its input plus
        output bytes to the counts of the innermost open span."""
        import numpy as np
        tracer = self
        key_s = f"fft_{direction}_s"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not tracer._stack or threading.get_ident() != tracer._owner:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            span = tracer.spans[tracer._stack[-1]]
            if span.counts is None:
                span.counts = {}
            c = span.counts
            c[key_s] = c.get(key_s, 0.0) + dt
            c["fft_calls"] = c.get("fft_calls", 0) + 1
            c["fft_bytes"] = (c.get("fft_bytes", 0) + np.asarray(args[0]).nbytes
                              + result.nbytes)
            return result

        return counted

    # -- installing wrappers ---------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install_fft(self) -> None:
        """Wrap numpy.fft and scipy.fft; call before importing thindisk so
        names bound at import time see the wrappers too."""
        import numpy.fft
        import scipy.fft
        for mod in (numpy.fft, scipy.fft):
            for fname in FFT_FUNCS:
                direction = "inverse" if fname.startswith("i") else "forward"
                self._patch(mod, fname, self.count_fft(getattr(mod, fname), direction))

    def install_thindisk(self) -> None:
        import importlib
        for name, attr, modules in FUNCTION_SITES:
            measure = MEASURES.get(name)
            for mod in modules:
                module = importlib.import_module(f"thindisk.{mod}")
                if hasattr(module, attr):
                    self._patch(module, attr, self.wrap(getattr(module, attr), name, measure))
        for name, mod, cls, meth in METHOD_SITES:
            owner = getattr(importlib.import_module(f"thindisk.{mod}"), cls)
            self._patch(owner, meth, self.wrap(getattr(owner, meth), name, MEASURES.get(name)))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        rows = [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "step": s.step, "counts": s.counts} for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one recorded span adds to a call, from a wrapped no-op."""
    tracer = Tracer()
    noop = tracer.wrap(lambda: None, "noop")
    bare = lambda: None  # noqa: E731
    with tracer.root("calibrate", "calibrate"):
        t0 = time.perf_counter()
        for _ in range(calls):
            bare()
        t1 = time.perf_counter()
        for _ in range(calls):
            noop()
        t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


# ---------------------------------------------------------------------------
# per-layer metrics

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def _root_of(spans: list[Span], i: int) -> int:
    while spans[i].parent is not None:
        i = spans[i].parent
    return i


def _ancestor(spans: list[Span], i: int, names) -> int | None:
    p = spans[i].parent
    while p is not None:
        if spans[p].name in names:
            return p
        p = spans[p].parent
    return None


def layer_metrics(spans: list[Span], passes: int, sweep_n) -> dict:
    """Per-layer figures from a traced run, per pass of the workload.

    Times are self seconds summed over the traced passes and divided by
    their number; calls and bytes likewise.  Table and spectrum sizes are
    the largest set built at any one N.  Transforms and FFT bytes per solve
    count the FFT calls made under solve spans.  ``sweep_n`` names the rows
    of the refinement sweep.
    """
    selfs = self_times(spans)
    roots = [_root_of(spans, i) for i in range(len(spans))]
    per = 1.0 / max(passes, 1)

    def picked(names, root):
        return [i for i, s in enumerate(spans) if s.parent is not None and s.name in names
                and (root is None or spans[roots[i]].name == root)]

    def t(*names, root=None):
        return sum(selfs[i] for i in picked(names, root)) * per

    def c(*names, root=None):
        return len(picked(names, root)) * per

    def counted(names, key):
        return sum(s.counts.get(key, 0) for s in spans
                   if s.name in names and s.counts) * per

    def largest_set(names):
        by_n: dict = {}
        for s in spans:
            if s.name in names and s.counts:
                if "kind" in s.counts:
                    by_n.setdefault(s.counts["n"], {})[(s.name, s.counts["kind"])] = \
                        s.counts["nbytes"]
                else:
                    by_n.setdefault(s.counts["n"], {})[s.name] = s.counts["nbytes"]
        return max((sum(v.values()) for v in by_n.values()), default=0) / MIB

    def fft_total(key, spans_idx=range(len(spans))):
        return sum((spans[i].counts or {}).get(key, 0) for i in spans_idx)

    solves = [i for i, s in enumerate(spans) if s.name in SOLVE_SPANS]
    under_solve = [i for i, s in enumerate(spans) if s.name in SOLVE_SPANS
                   or _ancestor(spans, i, SOLVE_SPANS) is not None]
    n_solves = max(len(solves), 1)

    m = {
        "kernels_cartesian.tabulate_s": t("kernels_cartesian.tabulate"),
        "kernels_cartesian.tabulate_calls": c("kernels_cartesian.tabulate"),
        "kernels_cartesian.table_mb": largest_set(("kernels_cartesian.tabulate",)),
        "kernels_cartesian.spectra_s": t("kernels_cartesian.spectrum"),
        "kernels_cartesian.spectra_mb": largest_set(("kernels_cartesian.spectrum",)),
        "kernels_polar.tabulate_s": t("kernels_polar.tabulate"),
        "kernels_polar.table_mb": largest_set(("kernels_polar.tabulate",)),
        "kernels_polar.spectra_s": t("kernels_polar.spectrum", "kernels_polar.hole_spectrum"),
        "kernels_polar.spectra_mb": largest_set(("kernels_polar.spectrum",
                                                 "kernels_polar.hole_spectrum")),
        "solver.solve_s": t(*SOLVE_SPANS),
        "solver.solve_calls": c(*SOLVE_SPANS),
        "solver.transforms_per_solve": fft_total("fft_calls", under_solve) / n_solves,
        "solver.fft_mb_per_solve": fft_total("fft_bytes", under_solve) / MIB / n_solves,
        "convolve.fft_convolve_s": t("convolve.fft_convolve"),
        "convolve.fft_convolve_calls": c("convolve.fft_convolve"),
        "convolve.ring_convolve_s": t("convolve.ring_convolve"),
        "convolve.ring_convolve_calls": c("convolve.ring_convolve"),
        "fft.forward_s": fft_total("fft_forward_s") * per,
        "fft.inverse_s": fft_total("fft_inverse_s") * per,
        "fft.calls": fft_total("fft_calls") * per,
        "models.sample_s": t("models.sample_density"),
        "models.sample_calls": c("models.sample_density"),
        "baselines.softened_s": t("baselines.solve_softened", "baselines.softened_potential"),
        "baselines.softened_calls": c("baselines.solve_softened"),
        "analysis.run_convergence_s": t("analysis.run_convergence"),
        "analysis.error_norms_s": t("analysis.error_norms"),
        "gridio.read_density_s": t("gridio.read_density"),
        "gridio.write_force_s": t("gridio.write_force"),
        "gridio.load_kernel_tables_s": t("gridio.load_kernel_tables"),
        "gridio.save_kernel_tables_s": t("gridio.save_kernel_tables"),
        "gridio.bytes_read": counted(("gridio.read_density", "gridio.load_kernel_tables"),
                                     "bytes_read"),
        "gridio.bytes_written": counted(("gridio.write_force", "gridio.save_kernel_tables"),
                                        "bytes_written"),
        "cli.solve_s": t("cli.main", "cli.cmd_solve", root="step"),
        "cli.kernels_s": t("cli.main", "cli.cmd_kernels", root="setup"),
    }
    m.update(sweep_rows(spans, sweep_n))
    return m


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def sweep_rows(spans: list[Span], sweep_n) -> dict:
    """Row times of traced convergence sweeps and the criterion 9 ratios.

    Rows run one after another inside run_convergence, each ending with its
    error_norms call, so a row spans from the end of the previous row's
    error_norms (or the sweep's start) to the end of its own.  Per row, the
    tabulation and solve spans give the two parts criterion 9 times together.
    """
    rows = {"proposed": {}, "softening": {}}
    parts = {"tabulate": {}, "solve": {}}
    for i, s in enumerate(spans):
        if s.name != "analysis.run_convergence":
            continue
        kids = [spans[j] for j in range(i + 1, len(spans)) if spans[j].parent == i]
        method = ("softening" if any(k.name == "baselines.solve_softened" for k in kids)
                  else "proposed")
        lo = s.start
        for norms in (k for k in kids if k.name == "analysis.error_norms"):
            n, hi = norms.counts["n"], norms.end
            rows[method].setdefault(n, []).append(hi - lo)
            in_row = [k for k in kids if lo <= k.start < hi]
            for part, name in (("tabulate", "kernels_cartesian.tabulate"),
                               ("solve", "solver.solve_cartesian")):
                parts[part].setdefault(n, []).append(
                    sum(k.end - k.start for k in in_row if k.name == name))
            lo = hi
    out = {}
    for n in sweep_n:
        out[f"analysis.row_s.N{n}"] = _median(rows["proposed"].get(n, []))
        out[f"analysis.softening_row_s.N{n}"] = _median(rows["softening"].get(n, []))
    for a, b in zip(sweep_n[:-1], sweep_n[1:]):
        tab_a, tab_b, sol_a, sol_b = (_median(parts[p].get(n, []))
                                      for p, n in (("tabulate", a), ("tabulate", b),
                                                   ("solve", a), ("solve", b)))
        out[f"crit9.tabulate_ratio.{a}-{b}"] = tab_b / tab_a if tab_a else 0.0
        out[f"crit9.solve_ratio.{a}-{b}"] = sol_b / sol_a if sol_a else 0.0
        out[f"crit9.whole_ratio.{a}-{b}"] = ((tab_b + sol_b) / (tab_a + sol_a)
                                             if tab_a + sol_a else 0.0)
    return out
