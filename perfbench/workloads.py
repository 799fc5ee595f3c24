"""The four workloads: their inputs, the timed pass and its output checks.

All four are closed loops: one process runs one pass (or one CLI command)
after another, each waiting for the previous to finish.

Each workload has four steps:

``prepare(out, seed, lap)``   write the seed's input files into ``out`` and
                              warm up; runs in a fresh process, timed as
                              set-up.
``start(inputs, seed)``       warm up this process and compute the
                              reference values the checks need; untimed.
``run_pass(state, tr, lap)``  the timed work; ``tr`` records spans when
                              tracing.
``check(state, out)``         one list of problems per attempted operation
                              (a pass, or a CLI command); untimed.

``lap`` is :meth:`perfbench.pace.Pace.lap`: the steps call it between them,
at most about a second apart, so that the speed is sampled between steps as
well as within them.
"""

from __future__ import annotations

import hashlib
import os
import resource
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import zoneval
import zoneval.render

from . import checks
from .inputs import (
    BALANCED_ZONES,
    PAPER_ROWS_COLLECTED,
    market_truth,
    read_expected,
    write_input,
)
from .pace import WORK_PIDS, no_lap
from .spans import NO_TRACE

ROOT = Path(__file__).resolve().parent.parent
# county scale; 50,000 rows keeps a county_whatif run near 20 s on a 2-vCPU
# VM, where at 100,000 rows one took 44-55 s
COUNTY_ROWS = 50_000
WARM_ROWS = 2_000
REZONE_CHUNK = 10_000  # parcels rezoned in one paced step
WHATIF_ZONE = "R1A"
WHATIF_PINS = 10
CHILD_TIMEOUT_S = 120.0


# --- child processes ------------------------------------------------------

@dataclass(frozen=True)
class ChildRun:
    exit_code: int
    wall_s: float
    peak_rss_bytes: int
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    """This environment with the checkout's ``src`` first on PYTHONPATH and
    no ZONEVAL_ flag defaults (the kernel backend choice is kept)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ZONEVAL_") or k == "ZONEVAL_BACKEND"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], scratch: Path, timeout: float = CHILD_TIMEOUT_S) -> ChildRun:
    """Run argv to completion and reap it with wait4, which gives this
    child's own peak RSS.  A child still running after ``timeout`` is
    killed and reaped."""
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(dir=scratch) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        WORK_PIDS.add(proc.pid)
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            WORK_PIDS.discard(proc.pid)
            timer.cancel()
        out.seek(0)
        err.seek(0)
        return ChildRun(
            proc.returncode,
            wall,
            usage.ru_maxrss * 1024,
            out.read().decode("utf-8", "replace"),
            err.read().decode("utf-8", "replace"),
        )


def self_peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


# --- shared pieces --------------------------------------------------------

def analyse(path: Path, tr=NO_TRACE, lap=no_lap) -> dict:
    """The paper's analysis of one assessor file: clean, fit, describe,
    screen collinearity, test the zoning variance share."""
    table = zoneval.load_parcels(path)
    cleaned, report = zoneval.clean(table)
    lap()
    spec = zoneval.default_model_spec()
    design = zoneval.build_design_matrix(cleaned, spec)
    fit = zoneval.solve_least_squares(design.X, design.y, design.column_labels)
    inference = zoneval.compute_inference(fit, design)
    fit_text = zoneval.render.render_fit(inference, "text")
    stats = zoneval.descriptive_stats(cleaned, spec)
    blocks = zoneval.correlation_matrix(design)
    lap()
    vifs = zoneval.vif(design)
    lap()
    share = zoneval.zoning_variance_share(cleaned)
    share_text = zoneval.render.render_hypothesis(share, "text")
    lap()
    return dict(
        report=report, cleaned=cleaned, design=design, fit=fit, inference=inference, fit_text=fit_text,
        stats=stats, blocks=blocks, vifs=vifs, share=share, share_text=share_text,
    )


def check_analysis(out: dict, expected: dict) -> list[str]:
    design, inference, share = out["design"], out["inference"], out["share"]
    X, y, labels = design.X, design.y, design.column_labels
    problems = checks.check_clean(out["report"], expected)
    if design.n != expected["rows_kept"]:
        return problems + [f"design has {design.n} rows, {expected['rows_kept']} kept"]
    problems += checks.check_solver(X, y, out["fit"].coefficients, "main fit")
    problems += checks.within(
        "inference estimates vs solver",
        checks.rel_err([r.estimate for r in inference.rows], out["fit"].coefficients),
        checks.EXACT_TOL,
    )
    problems += checks.check_vif(X, labels, out["vifs"])
    problems += checks.check_share(X, labels, y, share)

    zones = checks.design_zones(X, labels)
    counts = {z: zones.count(z) for z in checks.RESIDENTIAL_ZONES}
    if out["stats"].n != design.n or dict(out["stats"].zone_counts) != counts:
        problems.append(f"describe n/zone counts {out['stats'].n}/{out['stats'].zone_counts} vs {counts}")
    for block in out["blocks"]:
        columns = np.column_stack([design.column(label) for label in block.labels])
        err = float(np.max(np.abs(block.values - np.corrcoef(columns, rowvar=False))))
        problems += checks.within(f"correlation block {block.labels}", err, 1e-12)

    if f"n = {design.n}," not in out["fit_text"] or f"{inference.r_squared:.4f}" not in out["fit_text"]:
        problems.append("fit text lacks n or R-square")
    verdict = "MET" if share.hypothesis_met else "NOT MET"
    if f"hypothesis (share > 0.5): {verdict}\n" not in out["share_text"]:
        problems.append("hypothesis text lacks the verdict")
    return problems


def file_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# --- workloads ------------------------------------------------------------

class Workload:
    """Defaults for the in-process workloads: one pass is one operation."""

    # the median of at least this many passes is reported; three also
    # gives a traced run its traced, untraced, traced sequence
    min_passes = 3

    def traced_extras(self, state, tr) -> None:
        """Measurements taken after a traced pass, outside its wall time."""

    def peak_rss_bytes(self, out) -> int:
        return self_peak_rss_bytes()


class PaperAnalysis(Workload):
    """The paper's analysis at paper scale: 12,507 records cleaned to 12,475."""

    name = "paper_analysis"
    rows = PAPER_ROWS_COLLECTED

    def prepare(self, out: Path, seed: int, lap=no_lap) -> None:
        write_input(out / "input.csv", seed, self.rows)
        lap()
        write_input(out / "warm.csv", seed, WARM_ROWS, BALANCED_ZONES)
        analyse(out / "warm.csv", lap=lap)

    def start(self, inputs: Path, seed: int, scratch: Path):
        analyse(inputs / "warm.csv")
        return SimpleNamespace(path=inputs / "input.csv", expected=read_expected(inputs / "input.csv"))

    def run_pass(self, state, tr, lap=no_lap) -> dict:
        return analyse(state.path, tr, lap)

    def check(self, state, out: dict) -> list[list[str]]:
        return [check_analysis(out, state.expected)]


class CountyWhatif(Workload):
    """A county-scale file: fit once, then price rezoning every parcel to R1A."""

    name = "county_whatif"
    rows = COUNTY_ROWS
    min_passes = 5  # its passes take seconds; five keep the median steady

    def prepare(self, out: Path, seed: int, lap=no_lap) -> None:
        write_input(out / "input.csv", seed, self.rows)
        lap()
        write_input(out / "warm.csv", seed, WARM_ROWS, BALANCED_ZONES)
        self.run_pass(SimpleNamespace(path=out / "warm.csv"), NO_TRACE, lap)

    def start(self, inputs: Path, seed: int, scratch: Path):
        self.run_pass(SimpleNamespace(path=inputs / "warm.csv"), NO_TRACE, no_lap)
        # the reference design is built from the first pass's cleaned table
        return SimpleNamespace(path=inputs / "input.csv", expected=read_expected(inputs / "input.csv"), design=None)

    def run_pass(self, state, tr, lap=no_lap) -> dict:
        table = zoneval.load_parcels(state.path)
        lap()
        cleaned, report = zoneval.clean(table)
        with tr.span("option_value.fit"):
            model = zoneval.FittedModel.fit(cleaned)
        lap()
        parcels, reports = list(cleaned), []
        for start in range(0, len(parcels), REZONE_CHUNK):
            with tr.span("option_value.rezone"):
                reports += [
                    zoneval.rezone_counterfactual(model, parcel, WHATIF_ZONE)
                    for parcel in parcels[start : start + REZONE_CHUNK]
                ]
            lap()
        tr.count("option_value.rezones", len(reports))
        csv_text = zoneval.render.render_whatif(reports, "csv")
        lap()
        return dict(report=report, cleaned=cleaned, model=model, reports=reports, csv_text=csv_text)

    def check(self, state, out: dict) -> list[list[str]]:
        problems = checks.check_clean(out["report"], state.expected)
        if state.design is None:
            state.design = zoneval.build_design_matrix(out["cleaned"], out["model"].spec)
        design = state.design
        if tuple(out["cleaned"].pins) != tuple(design.row_pins):
            return [problems + ["cleaned pins differ from the first pass"]]
        labels = design.column_labels
        beta = np.array([out["model"].coefficient(label) for label in labels])
        problems += checks.check_solver(design.X, design.y, beta, "county fit")
        problems += checks.check_rezones(out["reports"], design.row_pins, design.X, labels, beta, WHATIF_ZONE)
        problems += checks.check_whatif_csv(out["csv_text"], out["reports"])
        return [problems]


class SynthRoundtrip(Workload):
    """Generate a county-scale market, write it, read it back and clean it."""

    name = "synth_roundtrip"
    rows = COUNTY_ROWS
    min_passes = 5  # its passes take seconds; five keep the median steady

    def prepare(self, out: Path, seed: int, lap=no_lap) -> None:
        self.run_pass(SimpleNamespace(seed=seed, n=WARM_ROWS, path=out / "warm.csv"), NO_TRACE, lap)

    def start(self, inputs: Path, seed: int, scratch: Path):
        self.run_pass(SimpleNamespace(seed=seed, n=WARM_ROWS, path=scratch / "warm.csv"), NO_TRACE, no_lap)
        return SimpleNamespace(seed=seed, n=self.rows, path=scratch / "market.csv", digest=None, sigma=None)

    def run_pass(self, state, tr, lap=no_lap) -> dict:
        truth = market_truth(state.seed)
        lap()
        generated, _log = zoneval.generate_parcels(truth, state.n)
        lap()
        zoneval.write_parcels(generated, state.path)
        lap()
        loaded = zoneval.load_parcels(state.path)
        lap()
        cleaned, report = zoneval.clean(loaded)
        lap()
        return dict(sigma=truth.noise_sigma, generated=generated, loaded=loaded, report=report)

    def check(self, state, out: dict) -> list[list[str]]:
        problems = []
        digest = file_digest(state.path)
        if state.digest is None:
            state.digest, state.sigma = digest, out["sigma"]
        if digest != state.digest or out["sigma"] != state.sigma:
            problems.append("written CSV or calibrated noise differs from the run's first pass")
        report = out["report"]
        if len(out["generated"]) != state.n or report.rows_dropped != 0 or report.rows_kept != state.n:
            problems.append(f"load(write(t)) kept {report.rows_kept} of {len(out['generated'])} rows")
        if tuple(out["loaded"]) != tuple(out["generated"]):
            problems.append("load(write(t)) differs from t")
        return [problems]


CLI_COMMANDS = ("fit", "describe", "hypothesis", "whatif", "reproduction_check")
IMPORT_PROBE = "import time; t = time.perf_counter(); import zoneval.cli; print(time.perf_counter() - t)"


class CliPaper(Workload):
    """Each CLI command as its own process on the paper-scale file."""

    name = "cli_paper"
    rows = PAPER_ROWS_COLLECTED
    min_passes = 5  # its passes take seconds; five keep each command's median steady

    def prepare(self, out: Path, seed: int, lap=no_lap) -> None:
        write_input(out / "input.csv", seed, self.rows)
        import zoneval.cli  # noqa: F401  (the import every command pays)

        lap()

    def start(self, inputs: Path, seed: int, scratch: Path):
        path = inputs / "input.csv"
        ref = analyse(path)
        problems = check_analysis(ref, read_expected(path))
        if problems:
            raise RuntimeError(f"in-process reference fails its checks: {problems}")
        cleaned = ref["cleaned"]
        model = zoneval.FittedModel.fit(cleaned)
        rng = np.random.default_rng([seed, 0xC11])
        picks = set(rng.choice(len(cleaned), size=WHATIF_PINS, replace=False).tolist())
        parcels = [parcel for i, parcel in enumerate(cleaned) if i in picks]
        whatif = [zoneval.rezone_counterfactual(model, parcel, WHATIF_ZONE) for parcel in parcels]
        pins = [parcel.pin for parcel in parcels]
        base = [sys.executable, "-m", "zoneval.cli"]
        commands = {
            "fit": base + ["fit", "--input", str(path), "--format", "json"],
            "describe": base + ["describe", "--input", str(path)],
            "hypothesis": base + ["hypothesis", "--input", str(path)],
            "whatif": base + ["whatif", "--input", str(path), "--to-zone", WHATIF_ZONE, "--pins", ",".join(pins)],
            "reproduction_check": base + ["reproduction-check"],
        }
        return SimpleNamespace(
            commands=commands, scratch=scratch, n=ref["design"].n, inference=ref["inference"],
            hypothesis_text=zoneval.render.render_hypothesis(ref["share"], "text"), whatif=whatif,
        )

    def run_pass(self, state, tr, lap=no_lap) -> dict:
        runs = {}
        for name in CLI_COMMANDS:
            with tr.span(f"cli.{name}"):
                runs[name] = run_child(state.commands[name], state.scratch)
            lap(name)
        return runs

    def traced_extras(self, state, tr) -> None:
        probe = run_child([sys.executable, "-c", IMPORT_PROBE], state.scratch)
        tr.count("cli.import_s", float(probe.stdout) if probe.exit_code == 0 else float("nan"))

    def check(self, state, runs: dict) -> list[list[str]]:
        results = []
        for name in CLI_COMMANDS:
            run = runs[name]
            if run.exit_code != 0:
                results.append([f"{name} exited {run.exit_code}: {run.stderr.strip()[-300:]}"])
                continue
            out = run.stdout
            if name == "fit":
                problems = checks.check_fit_json(out, state.inference)
            elif name == "describe":
                ok = out.startswith(f"Descriptive statistics (n = {state.n})\n") and "Correlation block 3" in out
                problems = [] if ok else ["describe output lacks its header or correlation blocks"]
            elif name == "hypothesis":
                problems = [] if out == state.hypothesis_text else ["hypothesis output differs from the in-process result"]
            elif name == "whatif":
                problems = checks.check_whatif_csv(out, state.whatif)
            else:
                ok = "verdict: 12 of 13 rows match" in out
                problems = [] if ok else ["reproduction-check does not report 12 matches"]
            results.append([f"{name}: {p}" for p in problems])
        return results

    def peak_rss_bytes(self, runs: dict) -> int:
        return max(run.peak_rss_bytes for run in runs.values())


WORKLOADS = {w.name: w for w in (PaperAnalysis(), CountyWhatif(), SynthRoundtrip(), CliPaper())}
