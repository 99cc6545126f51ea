"""coreval benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` runs every workload in turn and ends with a table of
every metric by name and unit.

Run from anywhere; paths are taken relative to this file.  The run writes
the workload's inputs for the seed under ``.perfbench/`` in the checkout,
times ``import coreval.cli`` in fresh interpreters (setup_s), then starts
worker.py, which drives coreval closed-loop for S seconds and checks every
output.  On endpoints-mock it also starts mockserver.py and stops it at
the end.  Child processes get ``PYTHONPATH=src`` and BLAS thread pools
capped at the number of usable CPUs; nothing outside the checkout is read
or written.

The last stdout line is the result: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the ``end_to_end`` metrics of BENCHMARK.json with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``).  The line
before it is a record of the run: machine, input sizes, every pass time,
output sha256s and any failures; the same record, plus the spans of the
last traced pass, is kept in ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3  # timed fresh-interpreter imports; their median is setup_s
DEADLINE_S = 170  # a run must end within 180 s


def child_env(nproc: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    return env


def measure_setup(env: dict[str, str]) -> list[float]:
    """Wall times of fresh interpreters importing coreval.cli.  In a new
    checkout the first import also writes the bytecode cache; the median
    leaves that one out."""
    argv = [sys.executable, "-c", "import coreval.cli"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, env=env, check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return times


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs so far, where /proc/stat has them."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def start_mock(env: dict[str, str]) -> tuple[subprocess.Popen, str]:
    proc = subprocess.Popen([sys.executable, str(HERE / "mockserver.py")], env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline().split()
    if len(line) != 2 or line[0] != "port":
        stop(proc)
        raise RuntimeError("mock server did not report its port")
    return proc, f"http://127.0.0.1:{line[1]}"


def stop(proc: subprocess.Popen) -> None:
    """Close the mock's stdin, which ends it, and wait for it to exit."""
    if proc.stdin:
        proc.stdin.close()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def run_workload(bench: dict, workload: str, seed: int, seconds: float,
                 trace: int) -> tuple[dict, dict]:
    """One run of one workload: (record of the run, result line)."""
    from inputs import write_inputs

    started = time.perf_counter()
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    work = ROOT / ".perfbench" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    mock = None
    try:
        gen_start = time.perf_counter()
        sizes = write_inputs(workload, seed, work / "in", work / "truth")
        gen_s = time.perf_counter() - gen_start
        setup = [] if trace else measure_setup(env)  # traced runs report no setup_s
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace)]
        if workload == "endpoints-mock":
            mock, url = start_mock(env)
            argv += ["--mock", url]
        ticks = cpu_ticks()
        proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True,
                              timeout=max(10.0, DEADLINE_S - (time.perf_counter() - started)))
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {proc.returncode}:\n"
                               f"{proc.stdout[-2000:]}{proc.stderr[-4000:]}")
        run = json.loads(proc.stdout.strip().splitlines()[-1])
        after = cpu_ticks()
        # share of CPU time the hypervisor gave to other guests during the worker
        steal = (after[0] - ticks[0]) / max(1, after[1] - ticks[1]) if ticks and after else None
        spans_file = work / "spans.json"
        spans = json.loads(spans_file.read_text()) if spans_file.exists() else None
    finally:
        if mock is not None:
            stop(mock)
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        values = {m["name"]: run["layers"][m["name"]] for m in bench["per_layer"]}
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        # the whole timed window, not the median pass: the mean averages over
        # the host's speed shifts within a run, where the median picks one
        pass_s = statistics.mean(run["pass_s"])
        values = {
            "setup_s": statistics.median(setup),
            "pass_s": pass_s,
            "utterances_per_s": run["utterances"] / pass_s,
            "tokens_per_s": run["tokens"] / pass_s,
            "peak_rss_mb": run["peak_rss_mb"],
        }
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": {"nproc": nproc, "cpu": cpu_model(), **run["machine"]},
        "inputs": sizes, "input_gen_s": gen_s, "setup_s": setup, "cpu_steal_share": steal,
        "utterances_per_pass": run["utterances"], "tokens_per_pass": run["tokens"],
        **{k: run[k] for k in ("steps", "warmup_s", "pass_s", "pass_cpu_s", "traced_pass_s",
                               "errors", "hashes") if k in run},
    }
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{workload}-seed{seed}-trace{trace}.json"
    out.write_text(json.dumps({**record, "layers": run.get("layers"), "spans": spans}))
    return record, {
        "correct": run["failed"] == 0, "attempted": run["attempted"], "failed": run["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"],
                        help="one workload, or all of them in turn with a summary table")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "coreval" / "__init__.py").is_file():
        print(f"coreval sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    table = []
    for workload in names if args.workload == "all" else [args.workload]:
        try:
            record, result = run_workload(bench, workload, args.seed, args.seconds, args.trace)
        except RuntimeError as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({"record": record}))
        print(json.dumps(result))
        table += [f"{workload:15s} {name:32s} {m['value']:14.6g} {m['unit']}"
                  for name, m in result["metrics"].items()]
        table.append(f"{workload:15s} {'correct':32s} {str(result['correct']):>14s} "
                     f"({result['failed']} of {result['attempted']} operations failed)")
    if args.workload == "all":
        print("\n".join(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
