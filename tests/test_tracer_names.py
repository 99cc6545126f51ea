"""The benchmark's per-function metrics name functions that still exist.

``perfbench/run.py --trace 1`` reports every ``per_layer`` metric of
BENCHMARK.json and fails on a name its tracer cannot produce, so renaming or
deleting a traced public function must fail here first.
"""

import importlib.util
import json
from pathlib import Path

import coreval.cli  # noqa: F401  (loads every module the benchmark's worker traces)

ROOT = Path(__file__).resolve().parent.parent
# the worker sums the report.write_* spans into this one
DERIVED = {"report.write"}


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_per_function_metrics_name_traced_functions():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = set()
    for metric in benchmark["per_layer"]:
        parts = metric["name"].split(".")
        if len(parts) == 3 and parts[2] in ("calls", "self_s", "failed"):
            wanted.add(f"{parts[0]}.{parts[1]}")
    assert wanted, "no per-function metric found in BENCHMARK.json"

    tracer = load_tracer_module().Tracer()
    with tracer.installed():
        pass
    missing = sorted(wanted - DERIVED - set(tracer.names))
    assert not missing, f"per_layer metrics name untraced functions: {missing}"
