"""Run one benchmark workload against the checkout's zoneval and print its metrics.

    python3 perfbench/run.py --workload paper_analysis --seed 1 --seconds 15 --trace 0

Set-up runs three times, each in a fresh process that imports zoneval,
writes the seed's inputs and warms up; ``setup_s`` is the median.  Passes
then run one after another until ``--seconds`` have passed and the
workload's minimum number of passes is reached, each followed by an
untimed check of its outputs.  Times are paced seconds (``pace.py``): wall
time scaled by the CPU's speed, sampled with a probe between and within
the steps, so that the shared host's changes of CPU speed cancel out.
Each time reported is the median over the run's passes or set-ups.

With ``--trace 0`` the result carries the end-to-end metrics.  With
``--trace 1`` traced and untraced passes alternate, and the result carries
the per-layer metrics of the traced ones plus ``trace.overhead_frac``.
The last line of standard output is the result object; the lines before it
give each metric with its unit, the failed fraction and the provenance.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
LAST_PASS_START_S = 150.0  # no pass starts later than this, so the run ends well inside 180 s
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("paper_analysis", "county_whatif", "synth_roundtrip", "cli_paper")

END_TO_END_METRICS = (
    ("parcels_per_s", "parcels/s"),
    ("command_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def pin_threads() -> tuple[int, int]:
    """One BLAS thread (well inside the nproc cap) and one CPU, for this
    process and every process it starts; call before numpy loads.

    The workloads are sequential, and on a 2-core machine two OpenBLAS
    threads made a paper_analysis pass 1.8x slower and its timing noisier
    than one thread.  One CPU keeps the speed probe on the CPU that runs
    the work, CLI commands included: two vCPUs change speed independently.
    Returns nproc and the CPU for the provenance record.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    return len(cpus), max(cpus)


def import_zoneval():
    """Import zoneval from the checkout's src, never from an installed copy."""
    sys.path[0] = str(ROOT)  # in place of this script's directory
    sys.path.insert(0, str(SRC))
    import zoneval

    if not Path(zoneval.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"zoneval resolved to {zoneval.__file__}, not to {SRC}")
    return zoneval


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def provenance(zoneval, args, nproc: int, cpu: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    backend = getattr(zoneval, "active_backend", None)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "zoneval_backend": backend() if backend else "n/a",
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "pinned_cpu": cpu,
        "blas": blas,
        "blas_threads": {var: int(os.environ[var]) for var in BLAS_THREAD_VARS},
    }


def run_setups(workload, args, work: Path, run_child) -> tuple[list[float], list[float], bool]:
    """Time SETUP_REPEATS fresh-process set-ups, in wall and paced seconds;
    True when all wrote identical inputs.

    The child paces its own steps and prints them.  The time before its
    first probe (interpreter start and imports) is paced like a step, by
    a probe run here just before the child starts and the child's first.
    """
    from perfbench.pace import PROBE_NOMINAL_S, probe

    walls, paced, digests = [], [], []
    for k in range(SETUP_REPEATS):
        out = work / f"setup{k}"
        out.mkdir(parents=True)
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--prepare-into", str(out)]
        before = probe()
        child = run_child(argv, work)
        if child.exit_code != 0:
            raise RuntimeError(f"set-up exited {child.exit_code}: {child.stderr.strip()[-2000:]}")
        steps = json.loads(child.stdout.splitlines()[-1])
        startup_s = child.wall_s - steps["wall_s"] - sum(steps["probes_s"])
        speed = 2.0 * PROBE_NOMINAL_S / (before + steps["probes_s"][0])
        walls.append(child.wall_s)
        paced.append(startup_s * speed + steps["paced_s"])
        digests.append(digest_dir(out))
        if k:
            shutil.rmtree(out)
    return walls, paced, len(set(digests)) == 1


def measure(workload, state, args, process_start: float, spans, checks):
    """Run passes until the time is up; returns the tallies and samples."""
    from perfbench.pace import TICK_S, Pace

    attempted = failed = 0
    walls, paced = {False: [], True: []}, {False: [], True: []}
    request_paced, layer_samples, peak_rss = defaultdict(list), [], 0
    loop_start = time.perf_counter()
    k = 0
    while True:
        traced = bool(args.trace) and k % 2 == 0
        gc.collect()
        try:
            with Pace(tick_s=TICK_S) as pace:
                # spans are timed on a clock that stops while the speed is sampled
                tracer = spans.Tracer(pace.work_clock) if traced else spans.NO_TRACE
                with spans.instrumented(tracer):
                    out = workload.run_pass(state, tracer, pace.lap)
            results = workload.check(state, out)
            walls[traced].append(pace.wall_s())
            paced[traced].append(pace.paced_s())
            for name, request_s in pace.paced.items():
                request_paced[name].append(request_s)
            peak_rss = max(peak_rss, workload.peak_rss_bytes(out))
            if traced:
                workload.traced_extras(state, tracer)
                layer = tracer.layer_metrics()
                errs = [checks.solver_rel_err(X, y, b) for X, y, b in tracer.solves]
                layer["lstsq.max_rel_err"] = checks.worst(errs)
                results[0] += [p for e in errs for p in checks.within("solve vs numpy.linalg.lstsq", e, checks.SOLVER_TOL)]
                layer_samples.append(layer)
            del out
        except Exception:  # a pass that raises is a failed pass; keep measuring
            traceback.print_exc(file=sys.stderr)
            results = [["pass raised"]]
        attempted += len(results)
        failed += sum(1 for problems in results if problems)
        for problems in results:
            for p in problems[:5]:
                print(f"check failed: {p}", file=sys.stderr)
        k += 1
        now = time.perf_counter()
        if k >= workload.min_passes and now - loop_start >= args.seconds:
            break
        if now - process_start + (now - loop_start) / k > LAST_PASS_START_S:
            break
    return attempted, failed, walls, paced, request_paced, layer_samples, peak_rss


def layer_value(name: str, samples: list[float], checks) -> float:
    """One per-layer value from the traced passes: the best time, the worst
    solver error, and counts as they repeat."""
    if not samples:
        return 0.0
    if name == "lstsq.max_rel_err":
        return checks.worst(samples)
    if name.endswith("_s"):
        return min(samples)
    return statistics.median(samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare-into", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    process_start = time.perf_counter()
    # a terminated run still cleans up: finally blocks run and children are killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    nproc, cpu = pin_threads()
    try:
        zoneval = import_zoneval()
    except ImportError as exc:
        print(f"perfbench: cannot import zoneval from {SRC}: {exc}", file=sys.stderr)
        return 2
    from perfbench import checks, spans
    from perfbench.pace import TICK_S, Pace
    from perfbench.workloads import WORKLOADS, run_child

    workload = WORKLOADS[args.workload]
    if args.prepare_into is not None:
        with Pace(tick_s=TICK_S) as pace:
            workload.prepare(args.prepare_into, args.seed, pace.lap)
        print(json.dumps({"wall_s": pace.wall_s(), "paced_s": pace.paced_s(), "probes_s": pace.probes_s}))
        return 0

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup_walls, setup_paced, inputs_repeat = run_setups(workload, args, work, run_child)
        state = workload.start(work / "setup0", args.seed, work)
        attempted, failed, walls, paced, request_paced, layer_samples, peak_rss = measure(
            workload, state, args, process_start, spans, checks
        )
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    if not inputs_repeat:
        print("check failed: set-up wrote different inputs for the same seed", file=sys.stderr)

    if args.trace:
        units = {name: unit for name, unit, _better in spans.PER_LAYER_METRICS}
        values = {name: layer_value(name, [s.get(name, 0.0) for s in layer_samples], checks) for name in units}
        if paced[True] and paced[False]:
            values["trace.overhead_frac"] = statistics.median(paced[True]) / statistics.median(paced[False]) - 1.0
    else:
        units = dict(END_TO_END_METRICS)
        # each request's median; a pass is one request in-process and the
        # five commands in cli_paper
        typical = [statistics.median(v) for v in request_paced.values()]
        values = {
            "parcels_per_s": workload.rows / sum(typical) if typical else 0.0,
            "command_s": statistics.median(typical) if typical else 0.0,
            "peak_rss_mb": peak_rss / 1e6,
            "setup_s": statistics.median(setup_paced),
        }

    info = provenance(zoneval, args, nproc, cpu)
    info.update(pass_walls_s=walls, pass_paced_s=paced, setup_walls_s=setup_walls, setup_paced_s=setup_paced)
    print("provenance: " + json.dumps(info))
    for name, unit in units.items():
        print(f"{name} = {values[name]!r} {unit}")
    print(f"failed_frac = {failed / attempted!r} ({failed} of {attempted} operations failed)")
    result = {
        "correct": failed == 0 and inputs_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
