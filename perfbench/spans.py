"""Spans and counters for the traced runs.

A :class:`Tracer` keeps, for one pass, the self time of each span name (span
time minus the time of the spans nested in it) and a set of counters.  Every
span is named ``<module>.<step>`` after the zoneval module it measures.

The spans are recorded from the benchmark's own files.  :func:`instrumented`
wraps zoneval's public functions for the duration of a traced pass: each
probed function is replaced, in every zoneval namespace that binds it, by a
wrapper that opens a span and updates the counters.  The home module keeps
its own binding, so a call inside one module (``calibrated_noise_sigma``
drawing its probe sample through ``generate_parcels``) stays part of the
caller's self time; only calls that cross a module boundary get a span.
Probes marked ``home`` are called through a module attribute
(``_kernels.qr_pivot_decompose``, ``render.render_fit``) and are patched in
their home module too.  With tracing off nothing is patched and
:data:`NO_TRACE` makes the pipeline's own spans free.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

# (name, unit, better) of every per-layer metric a traced run reports
PER_LAYER_METRICS = (
    ("parcels.load_s", "s", "lower"),
    ("parcels.read_mb", "MB", "lower"),
    ("parcels.clean_s", "s", "lower"),
    ("parcels.rows_dropped", "count", "lower"),
    ("parcels.write_s", "s", "lower"),
    ("parcels.write_mb", "MB", "lower"),
    ("design.build_s", "s", "lower"),
    ("design.builds", "count", "lower"),
    ("design.cells", "count", "lower"),
    ("design.builds_per_table", "count", "lower"),
    ("lstsq.solve_s", "s", "lower"),
    ("lstsq.kernel_s", "s", "lower"),
    ("lstsq.solves", "count", "lower"),
    ("lstsq.solves_per_fit", "count", "lower"),
    ("lstsq.gflop_computed", "GFLOP", "lower"),
    ("lstsq.max_rel_err", "ratio", "lower"),
    ("inference.compute_s", "s", "lower"),
    ("diagnostics.describe_s", "s", "lower"),
    ("diagnostics.corr_s", "s", "lower"),
    ("diagnostics.vif_s", "s", "lower"),
    ("diagnostics.share_s", "s", "lower"),
    ("option_value.fit_s", "s", "lower"),
    ("option_value.rezone_s", "s", "lower"),
    ("option_value.rezones", "count", "higher"),
    ("render.render_s", "s", "lower"),
    ("render.out_mb", "MB", "lower"),
    ("synth.generate_s", "s", "lower"),
    ("synth.calibrate_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.fit_s", "s", "lower"),
    ("cli.describe_s", "s", "lower"),
    ("cli.hypothesis_s", "s", "lower"),
    ("cli.whatif_s", "s", "lower"),
    ("cli.reproduction_check_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

MB = 1e6


class Tracer:
    """Self time per span name and counters, for one pass."""

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        # (X, y, coefficients) of every solve, checked after the pass
        self.solves: list[tuple] = []
        # tables handed to build_design_matrix; kept alive so ids stay unique
        self.tables: dict[int, object] = {}
        self._open: list[list[float]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        nested = [0.0]
        self._open.append(nested)
        start = self.clock()
        try:
            yield
        finally:
            elapsed = self.clock() - start
            self._open.pop()
            self.self_s[name] += elapsed - nested[0]
            if self._open:
                self._open[-1][0] += elapsed

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def layer_metrics(self) -> dict[str, float]:
        """This pass's per-layer values; layers the pass never entered read 0."""
        values = {f"{name}_s": t for name, t in self.self_s.items()}
        values.update(self.counts)
        fits = self.counts.get("inference.fits", 0.0)
        values["lstsq.solves_per_fit"] = self.counts.get("lstsq.solves", 0.0) / fits if fits else 0.0
        tables = len(self.tables)
        values["design.builds_per_table"] = self.counts.get("design.builds", 0.0) / tables if tables else 0.0
        return values


class _NoTrace:
    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, amount: float = 1.0) -> None:
        pass


NO_TRACE = _NoTrace()


# --- probes ---------------------------------------------------------------

def _arguments(original, args, kwargs) -> dict:
    return inspect.signature(original).bind(*args, **kwargs).arguments


def _read_mb(tr, original, args, kwargs, result):
    tr.count("parcels.read_mb", os.path.getsize(_arguments(original, args, kwargs)["path"]) / MB)


def _rows_dropped(tr, original, args, kwargs, result):
    tr.count("parcels.rows_dropped", result[1].rows_dropped)


def _write_mb(tr, original, args, kwargs, result):
    tr.count("parcels.write_mb", os.path.getsize(_arguments(original, args, kwargs)["path"]) / MB)


def _design(tr, original, args, kwargs, result):
    table = _arguments(original, args, kwargs)["table"]
    tr.tables[id(table)] = table
    tr.count("design.builds")
    tr.count("design.cells", result.X.size)


def _solve(tr, original, args, kwargs, result):
    bound = _arguments(original, args, kwargs)
    n, p = bound["X"].shape
    tr.count("lstsq.solves")
    # Householder QR flop count, computed from the shape rather than measured
    tr.count("lstsq.gflop_computed", (2.0 * n * p * p - 2.0 * p**3 / 3.0) / 1e9)
    tr.solves.append((bound["X"], bound["y"], result.coefficients))


def _fit(tr, original, args, kwargs, result):
    tr.count("inference.fits")


def _out_mb(tr, original, args, kwargs, result):
    tr.count("render.out_mb", len(result.encode("utf-8")) / MB)


@dataclass(frozen=True)
class Probe:
    module: str
    function: str
    span: str
    after: Callable | None = None
    home: bool = False


PROBES = (
    Probe("parcels", "load_parcels", "parcels.load", _read_mb),
    Probe("parcels", "clean", "parcels.clean", _rows_dropped),
    Probe("parcels", "write_parcels", "parcels.write", _write_mb),
    Probe("design", "build_design_matrix", "design.build", _design),
    Probe("lstsq", "solve_least_squares", "lstsq.solve", _solve),
    Probe("_kernels", "qr_pivot_decompose", "lstsq.kernel", home=True),
    # a fit ends in inference: fit_table's own work is compute_inference,
    # its design build and solve are nested spans
    Probe("inference", "compute_inference", "inference.compute", _fit),
    Probe("inference", "fit_table", "inference.compute", _fit),
    Probe("diagnostics", "descriptive_stats", "diagnostics.describe"),
    Probe("diagnostics", "correlation_matrix", "diagnostics.corr"),
    Probe("diagnostics", "vif", "diagnostics.vif"),
    Probe("diagnostics", "zoning_variance_share", "diagnostics.share"),
    Probe("render", "render_fit", "render.render", _out_mb, home=True),
    Probe("render", "render_hypothesis", "render.render", _out_mb, home=True),
    Probe("render", "render_whatif", "render.render", _out_mb, home=True),
    Probe("synth", "generate_parcels", "synth.generate"),
    Probe("synth", "calibrated_noise_sigma", "synth.calibrate"),
)


def _wrap(tracer: Tracer, probe: Probe, original):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        with tracer.span(probe.span):
            result = original(*args, **kwargs)
        if probe.after is not None:
            probe.after(tracer, original, args, kwargs, result)
        return result

    return traced


@contextlib.contextmanager
def instrumented(tracer):
    """Route zoneval's probed functions through spans of ``tracer``.

    A probe whose function no longer exists is skipped, so its metrics read
    0 instead of failing the run.  A no-op for :data:`NO_TRACE`.
    """
    if not tracer.enabled:
        yield
        return
    namespaces = [m for name, m in sys.modules.items() if name == "zoneval" or name.startswith("zoneval.")]
    patches = []
    try:
        for probe in PROBES:
            home = sys.modules.get(f"zoneval.{probe.module}")
            original = getattr(home, probe.function, None)
            if original is None:
                continue
            wrapper = _wrap(tracer, probe, original)
            for module in namespaces:
                if module is home and not probe.home:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attr, value))
                        setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, value in reversed(patches):
            setattr(module, attr, value)
