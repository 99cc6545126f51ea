"""One benchmark run of one workload, inside its own process.

Started by run.py with the working directory set to the run's scratch
directory, which already holds the generated inputs under ``in/`` and
their planted truth under ``truth/``.  A pass calls coreval's CLI entry
point ``coreval.cli.main`` (and, on endpoints-mock, the library function
``fetch_embeddings``) in this process, exactly as the installed console
script would, writing into a fresh ``out/``.  Every step's output is checked
after the pass, outside the timed region.

The first pass is a warm-up: it is checked but not timed, and its output
hashes are the reference every later pass must reproduce byte for byte.
Then passes run closed-loop, one after another, until the next one would
end after ``--seconds``.  With ``--trace 1`` untraced and traced passes
alternate, so the tracing overhead is measured on the same inputs.

Prints one JSON object as the last line of stdout.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import coreval.cli  # noqa: E402
import coreval.embeddings  # noqa: E402
from coreval.corpus import CONDITIONS, parse_corpus, tokenize  # noqa: E402
from coreval.embeddings import save_embeddings  # noqa: E402

import mockserver  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

OUT = Path("out")
CLUSTER_KMAX = 10  # coreval's default --kmax, the entropy normalizer
GEN_DIALOGS = 30
GEN_TURNS = 10
EMBED_BATCH = 32
# Client threads on endpoints-mock.  With one, the client and the mock take
# turns, so the pair needs one core at a time.  With two client threads plus
# the mock's, a 2-core machine's pass times tracked the host's CPU steal
# (26% steal made passes 70% slower).
CLIENT_THREADS = 1
FACTORS = ("entropy_term", "repetition_ratio", "repetition_term", "stagnation_term", "core")


@dataclass
class Step:
    name: str
    run: Callable[[], int | None]  # a CLI exit code, or None for a library call
    check: Callable[[], list[str]] = lambda: []


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{name}: {'; '.join(problems)[:500]}")


def cli(*argv: str) -> Callable[[], int]:
    return lambda: coreval.cli.main(list(argv))


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def in_range(rows, keys, lo: float, hi: float, where: str) -> list[str]:
    bad = [f"{where} {k}={r[k]}" for r in rows for k in keys if not lo <= float(r[k]) <= hi]
    return bad[:3]


def count_problem(what: str, got: int, want: int) -> list[str]:
    return [] if got == want else [f"{what}: {got} rows, expected {want}"]


def norm_entropy(labels) -> float:
    counts = np.bincount(np.asarray(labels))
    probs = counts[counts > 0] / counts.sum()
    return float(-np.sum(probs * np.log(probs))) / math.log(CLUSTER_KMAX)


def truths() -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(Path("truth").glob("truth_*.json"))]


def inputs(prefix: str) -> list[str]:
    return sorted(str(p) for p in Path("in").glob(f"{prefix}_*.jsonl"))


# ---------------------------------------------------------------- checks


def check_report(n_corpora: int, n_dialogs: int, planted: list[dict] | None) -> list[str]:
    """CORE and every factor in [0, 1]; with ``planted``, the mode entropies
    must be those of the planted blob labels, which holds only when
    clustering recovered the planted blobs (their count and membership)."""
    report = json.loads((OUT / "report.json").read_text())
    corpora = report["corpora"]
    problems = count_problem("report.json corpora", len(corpora), n_corpora)
    rows = [c["core_breakdown"] for c in corpora] + [d for c in corpora for d in c["per_dialog"]]
    problems += count_problem("report.json per_dialog", len(rows) - len(corpora), n_dialogs)
    problems += in_range(rows, FACTORS, 0.0, 1.0, "report.json")
    for corpus, truth in zip(corpora, planted or ()):
        labels = truth["labels"]
        all_labels = [x for dialog_id in sorted(labels) for x in labels[dialog_id]]
        expected = [("corpus", corpus["core_breakdown"], norm_entropy(all_labels))]
        expected += [(d["dialog_id"], d, norm_entropy(labels[d["dialog_id"]]))
                     for d in corpus["per_dialog"]]
        # report values carry 6 significant digits
        wrong = [f"{what} entropy_term {row['entropy_term']} != planted {want:.6f}"
                 for what, row, want in expected if abs(row["entropy_term"] - want) > 1.5e-6]
        problems += wrong[:3]
    return problems


def check_analyze(planted: list[dict] | None, n_corpora: int, n_dialogs: int) -> Callable:
    def check() -> list[str]:
        problems = check_report(n_corpora, n_dialogs, planted)
        per_dialog = read_csv(OUT / "per_dialog.csv")
        problems += count_problem("per_dialog.csv", len(per_dialog), n_dialogs)
        problems += in_range(per_dialog, ("core", "entropy_term", "repetition_term",
                                          "stagnation_term"), 0.0, 1.0, "per_dialog.csv")
        samples = read_csv(OUT / "condition_samples.csv")
        problems += count_problem("condition_samples.csv", len(samples), 3 * n_corpora)
        problems += in_range(samples, ("core",), 0.0, 1.0, "condition_samples.csv")
        return problems
    return check


def check_behavior(n_dialogs: int, expected_toxicity: Callable[[], dict]) -> Callable:
    """Rates in range, and toxicity exactly the score the endpoint gives
    each dialog's joined text."""
    def check() -> list[str]:
        rows = read_csv(OUT / "behavior.csv")
        problems = count_problem("behavior.csv", len(rows), n_dialogs)
        problems += in_range(rows, ("repetition_rate", "agreement_rate", "disagreement_rate",
                                    "hedging_rate"), 0.0, 1.0, "behavior.csv")
        problems += in_range(rows, ("sentiment",), -1.0, 1.0, "behavior.csv")
        want = expected_toxicity()
        problems += [f"{r['dialog_id']} toxicity {r['toxicity']} != {want[r['dialog_id']]}"
                     for r in rows if not r["toxicity"]
                     or abs(float(r["toxicity"]) - want[r["dialog_id"]]) > 1e-6][:3]
        return problems
    return check


def check_compare() -> list[str]:
    """Exact p-values wherever coreval's rule calls for them: both samples
    tie-free and min(n1, n2) <= 12, which the sweep's 12 corpora make the
    common case."""
    samples = read_csv(OUT / "condition_samples.csv")
    rows = read_csv(OUT / "compare.csv")
    problems = count_problem("compare.csv", len(rows), 9)
    for row in rows:
        c1, c2 = row["comparison"].split("_vs_")
        xs = [s[row["metric"]] for s in samples if s["condition"] == c1]
        ys = [s[row["metric"]] for s in samples if s["condition"] == c2]
        tie_free = len({float(v) for v in xs + ys}) == len(xs) + len(ys)
        want = "exact" if tie_free and min(len(xs), len(ys)) <= 12 else "normal_approx"
        if row["method"] != want:
            problems.append(f"{row['comparison']} {row['metric']}: method {row['method']}, "
                            f"expected {want}")
    return problems + in_range(rows, ("p_value",), 0.0, 1.0, "compare.csv")


def check_temporal(n_rows: int) -> list[str]:
    rows = read_csv(OUT / "temporal.csv")
    return count_problem("temporal.csv", len(rows), n_rows) + \
        in_range(rows, ("mean_core",), 0.0, 1.0, "temporal.csv")


def check_generated(path: Path) -> list[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    problems = count_problem(path.name, len(lines), GEN_DIALOGS)
    short = [i for i, line in enumerate(lines) if len(json.loads(line)["turns"]) != GEN_TURNS]
    if short:
        problems.append(f"{path.name} dialogs {short[:3]} lack {GEN_TURNS} turns")
    return problems


# ------------------------------------------------------------- workloads


def analyze_paper() -> tuple[list[Step], dict]:
    truth = truths()
    steps = [Step("analyze", cli("analyze", *inputs("corpus"), "--embeddings",
                                 inputs("embeddings")[0], "--out-dir", str(OUT)),
                  check_analyze(truth, 1, sum(len(t["labels"]) for t in truth)))]
    return steps, {}


def sweep_small() -> tuple[list[Step], dict]:
    truth = truths()
    embeddings = [a for path in inputs("embeddings") for a in ("--embeddings", path)]
    n_dialogs = sum(len(t["labels"]) for t in truth)
    indices = {int(d.rsplit("__", 1)[1]) for d in truth[0]["labels"]}
    steps = [
        Step("analyze", cli("analyze", *inputs("corpus"), *embeddings, "--out-dir", str(OUT)),
             check_analyze(None, len(truth), n_dialogs)),
        Step("compare", cli("compare", str(OUT / "condition_samples.csv"), "--out-dir", str(OUT)),
             check_compare),
        Step("report", cli("report", str(OUT / "per_dialog.csv"), "--out-dir", str(OUT)),
             lambda: check_temporal(len(CONDITIONS) * len(indices))),
    ]
    return steps, {}


def endpoints_mock(url: str, seed: int) -> tuple[list[Step], dict]:
    generated = [OUT / f"generated_{c}.jsonl" for c in CONDITIONS]

    def dialogs() -> list[dict]:
        return [json.loads(line) for path in generated
                for line in path.read_text(encoding="utf-8").splitlines()]

    def generate(condition: str, path: Path) -> Callable[[], int]:
        return cli("generate", "--endpoint-a", f"{url}/a", "--endpoint-b", f"{url}/b",
                   "--model-a", "agent1", "--model-b", "agent2", "--condition", condition,
                   "--dialogs", str(GEN_DIALOGS), "--turns", str(GEN_TURNS),
                   "--threads", str(CLIENT_THREADS), "--request-seed", str(seed),
                   "--out", str(path))

    def expected_toxicity() -> dict[str, float]:
        return {d["id"]: mockserver.toxicity_score(" ".join(t["text"] for t in d["turns"]))
                for d in dialogs()}

    def fetch() -> None:
        corpus = parse_corpus(json.dumps(d) for d in dialogs())
        matrix = coreval.embeddings.fetch_embeddings(f"{url}/embed", corpus, EMBED_BATCH,
                                                     max_inflight=CLIENT_THREADS)
        save_embeddings(matrix, str(OUT / "embeddings.jsonl"))

    def check_fetch() -> list[str]:
        lines = (OUT / "embeddings.jsonl").read_text(encoding="utf-8").splitlines()
        problems = count_problem("embeddings.jsonl", len(lines),
                                 len(CONDITIONS) * GEN_DIALOGS * GEN_TURNS)
        texts = {(d["id"], i): t["text"] for d in dialogs() for i, t in enumerate(d["turns"])}
        records = map(json.loads, lines)
        wrong = [(r["dialog_id"], r["turn_index"]) for r in records
                 if r["vector"] != mockserver.embed(texts[(r["dialog_id"], r["turn_index"])])]
        return problems + [f"vector of {w} differs from the endpoint's" for w in wrong[:3]]

    steps = [Step(f"generate-{c}", generate(c, p), lambda p=p: check_generated(p))
             for c, p in zip(CONDITIONS, generated)]
    steps.append(Step("behavior", cli("behavior", *map(str, generated), "--toxicity-endpoint",
                                      f"{url}/toxicity", "--out-dir", str(OUT)),
                      check_behavior(len(CONDITIONS) * GEN_DIALOGS, expected_toxicity)))
    steps.append(Step("fetch_embeddings", fetch, check_fetch))
    return steps, {"generated": generated}


# ---------------------------------------------------------------- passes


def output_hashes() -> dict[str, str]:
    """sha256 of every output file; manifests are left out because they
    record wall-clock timestamps."""
    return {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(OUT.rglob("*")) if p.is_file()
            and not (p.name.startswith("manifest_") or p.name.endswith(".manifest.json"))}


def run_pass(steps: list[Step], tally: Tally,
             reference: dict | None) -> tuple[float, float, dict, list[int]]:
    """Run every step once; returns (wall seconds, this process's CPU
    seconds, output hashes, exit codes)."""
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir()
    results = []
    elapsed = cpu = 0.0
    for step in steps:
        start, start_cpu = time.perf_counter(), time.process_time()
        try:
            rc, error = step.run(), None
        except Exception as exc:  # an EndpointError or a crash both fail the operation
            rc, error = None, f"{type(exc).__name__}: {exc}"
        elapsed += time.perf_counter() - start
        cpu += time.process_time() - start_cpu
        results.append((step, rc, error))
    codes = []
    for step, rc, error in results:
        problems = [error] if error else []
        if rc:
            problems.append(f"exit code {rc}")
        if not problems:
            try:
                problems = step.check()
            except Exception:
                problems = [traceback.format_exc(limit=2)]
        tally.record(step.name, problems)
        codes.append(rc or 0)
    hashes = output_hashes()
    if reference is not None:
        tally.record("identity", [f"{name} differs from the first pass"
                                  for name in sorted(set(hashes) | set(reference))
                                  if hashes.get(name) != reference.get(name)][:3])
    return elapsed, cpu, hashes, codes


def mock_connections(url: str | None) -> int:
    if url is None:
        return 0
    with urllib.request.urlopen(f"{url}/stats", timeout=10) as resp:
        return json.loads(resp.read())["connections"]


def layer_metrics(summary: dict, codes: list[int], connections: int) -> dict[str, float]:
    """Flat per-layer metrics of one traced pass."""
    out: dict[str, float] = {}
    for name, row in summary.items():
        layer = name.split(".", 1)[0]
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_s"] = row["self_s"]
        out[f"{name}.failed"] = row["failed"]
        out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + row["calls"]
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + row["self_s"]
    out["report.write.self_s"] = sum(row["self_s"] for name, row in summary.items()
                                     if name.startswith("report.write_"))
    posts = summary.get("http.post_json", {"durations": []})["durations"]
    for q, key in ((50, "p50_ms"), (99, "p99_ms")):
        out[f"http.post_json.{key}"] = float(np.percentile(posts, q)) * 1e3 if posts else 0.0
    out["http.requests_sent"] = out.get("requests.post.calls", 0)
    calls = out.get("http.post_json.calls", 0)
    out["http.retry_ratio"] = out["http.requests_sent"] / calls if calls else 0.0
    out["mock.connections"] = connections
    out["http.requests_per_connection"] = calls / connections if connections else 0.0
    out["cli.main.exit_nonzero"] = sum(1 for rc in codes if rc)
    out["trace.spans"] = sum(row["calls"] for row in summary.values())
    return out


def work_amounts(workload: str, extra: dict) -> tuple[int, int]:
    """(utterances, tokens) one pass processes."""
    paths = extra["generated"] if workload == "endpoints-mock" else inputs("corpus")
    utterances = []
    for path in paths:
        with open(path, "rb") as fh:
            utterances += parse_corpus(fh).iter_utterances()
    return len(utterances), sum(len(tokenize(u.text)) for u in utterances)


def write_spans(spans: list, path: Path) -> None:
    """Spans of one traced pass as [name, start, end, parent index, failed],
    times in seconds from the first span's start."""
    index = {id(span): i for i, span in enumerate(spans)}
    t0 = spans[0].start if spans else 0.0
    path.write_text(json.dumps([
        [s.name, s.start - t0, s.end - t0, index.get(id(s.parent)), s.failed] for s in spans]))


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, when numpy's BLAS is OpenBLAS."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mock", default=None, help="mock endpoint base URL")
    args = parser.parse_args()

    if args.workload == "endpoints-mock":
        steps, extra = endpoints_mock(args.mock, args.seed)
    else:
        steps, extra = {"analyze-paper": analyze_paper,
                        "sweep-small": sweep_small}[args.workload]()
    tally = Tally()
    warmup_s, _, reference, _ = run_pass(steps, tally, None)
    utterances, tokens = work_amounts(args.workload, extra)

    plain: list[float] = []
    plain_cpu: list[float] = []
    traced: list[tuple[float, dict]] = []
    tracer = Tracer()
    start = time.perf_counter()
    while True:
        pass_s, cpu_s, _, _ = run_pass(steps, tally, reference)
        plain.append(pass_s)
        plain_cpu.append(cpu_s)
        if args.trace:
            tracer.spans.clear()
            tracer.counters.clear()
            before = mock_connections(args.mock)
            with tracer.installed():
                pass_s, _, _, codes = run_pass(steps, tally, reference)
            connections = mock_connections(args.mock) - before - 1 if args.mock else 0
            metrics = layer_metrics(summarize(tracer.spans), codes, connections)
            metrics.update(tracer.counters)
            traced.append((pass_s, metrics))
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(plain)
        if len(plain) >= (2 if args.trace else 3) and elapsed + per_round > args.seconds:
            break

    result = {
        "warmup_s": warmup_s, "pass_s": plain, "pass_cpu_s": plain_cpu,
        "utterances": utterances, "tokens": tokens,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "hashes": reference, "steps": [s.name for s in steps],
        "machine": {"python": platform.python_version(), "numpy": np.__version__,
                    "scipy": scipy.__version__, "blas_threads": blas_threads(),
                    "blas_threads_cap": os.environ.get("OPENBLAS_NUM_THREADS")},
    }
    if args.trace:
        # counts follow from the inputs alone, so every traced pass repeats them
        tally.record("trace counts", [
            f"{k} differs between traced passes" for k, v in sorted(traced[0][1].items())
            if not k.endswith(("_s", "_ms")) and any(m.get(k) != v for _, m in traced[1:])][:3])
        names = set().union(*(m for _, m in traced))
        layer = {k: statistics.median(m.get(k, 0) for _, m in traced) for k in sorted(names)}
        for name in tracer.names:  # spans that never opened are zero, not missing
            for key in (name, name.split(".", 1)[0]):
                for stat in ("calls", "self_s", "failed"):
                    layer.setdefault(f"{key}.{stat}", 0)
        layer["trace.overhead_ratio"] = (statistics.median(t for t, _ in traced)
                                         / statistics.median(plain))
        result["layers"] = layer
        result["traced_pass_s"] = [t for t, _ in traced]
        write_spans(tracer.spans, Path("spans.json"))
    result.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
