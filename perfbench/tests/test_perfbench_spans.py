import json
from pathlib import Path

import zoneval
import zoneval.inference

from perfbench import run, spans
from perfbench.workloads import WORKLOADS


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_excludes_nested_spans():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    with tracer.span("diagnostics.vif"):
        clock.now += 1.0
        with tracer.span("lstsq.solve"):
            clock.now += 2.0
            with tracer.span("lstsq.kernel"):
                clock.now += 4.0
        with tracer.span("lstsq.solve"):
            clock.now += 8.0
    assert dict(tracer.self_s) == {"diagnostics.vif": 1.0, "lstsq.solve": 10.0, "lstsq.kernel": 4.0}


def test_instrumented_counts_the_variance_share_refits(small_market):
    cleaned, _ = zoneval.clean(zoneval.load_parcels(small_market))
    original = zoneval.inference.solve_least_squares
    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        assert zoneval.inference.solve_least_squares is not original
        zoneval.zoning_variance_share(cleaned)
    assert zoneval.inference.solve_least_squares is original
    layer = tracer.layer_metrics()
    assert layer["design.builds"] == 3 and layer["design.builds_per_table"] == 3
    assert layer["lstsq.solves"] == 3 and layer["lstsq.solves_per_fit"] == 1
    assert layer["diagnostics.share_s"] >= 0 and layer["lstsq.kernel_s"] > 0
    assert len(tracer.solves) == 3


def test_no_trace_patches_nothing():
    original = zoneval.inference.fit_table
    with spans.instrumented(spans.NO_TRACE):
        assert zoneval.inference.fit_table is original


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(spans.PER_LAYER_METRICS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
