"""Report assembly: golden-stable CSV/JSON serialization for the CLI commands.

All floating-point output is serialized at 6 significant digits in plain
decimal notation so committed golden files compare byte-identically across
platforms.  Manifests record the full command context next to every output.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable

import numpy as np

from . import __version__
from .corpus import Corpus, rank_frequency
from .embeddings import EmbeddingMatrix
from .metric import CoreBreakdown, CoreConfig, compute_core, core_per_dialog
from .modes import cluster_modes
from .stats import mann_whitney_u, summarize

SUMMARY_METRICS = ("core", "zipf_alpha", "heaps_beta", "unique_tokens")
COMPARE_METRICS = ("core", "heaps_beta", "zipf_alpha")

# the header of each CSV whose rows this module builds
PER_DIALOG_HEADER = "dialog_id,condition,core,entropy_term,repetition_term,stagnation_term,flags"
CONDITION_SAMPLES_HEADER = "corpus,condition,zipf_alpha,heaps_beta,core,unique_tokens,total_tokens"
SUMMARY_HEADER = "condition,metric,mean,std_dev,max,min,range"
COMPARE_HEADER = "comparison,metric,u,p_value,method"
TEMPORAL_HEADER = "condition,agent_a,dialog_index,mean_core"

logger = logging.getLogger(__name__)


def fmt6(x: float) -> str:
    """Fixed-point decimal with 6 significant digits, no exponent notation."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    if x == 0.0:
        return "0"
    return np.format_float_positional(x, precision=6, unique=False, fractional=False, trim="-")


def round6(x: float) -> float:
    """Round to the 6-significant-digit grid used for serialization."""
    return float(fmt6(x))


def flags_str(flags: Iterable[str]) -> str:
    return "|".join(sorted(flags))


def breakdown_json(b: CoreBreakdown) -> dict:
    return {
        "entropy_term": round6(b.entropy_term),
        "repetition_ratio": round6(b.repetition_ratio),
        "repetition_term": round6(b.repetition_term),
        "raw_stagnation": round6(b.raw_stagnation),
        "stagnation_term": round6(b.stagnation_term),
        "alpha_used": round6(b.alpha_used),
        "beta_used": round6(b.beta_used),
        "core": round6(b.core),
        "flags": sorted(b.flags),
    }


@dataclass(frozen=True)
class CorpusAnalysis:
    label: str
    breakdown: CoreBreakdown
    per_dialog: list[tuple[str, str, CoreBreakdown]]  # (dialog id, condition, breakdown)
    condition_samples: list[dict]


def analyze_corpus(label: str, corpus: Corpus, matrix: EmbeddingMatrix,
                   config: CoreConfig) -> CorpusAnalysis:
    """Full analysis of one corpus: corpus-level and per-dialog breakdowns,
    plus one (fit exponents, score) sample per condition present, which is
    what the condition-comparison command consumes.

    A condition in which no dialog has two utterances has no stagnation
    pair to score; it gets no sample, and a warning is logged."""
    assignment = cluster_modes(matrix, config.k_max, config.cluster_seed)
    breakdown = compute_core(corpus, matrix, config, assignment=assignment)
    per_dialog = [(d.id, d.condition, b) for d, (_, b) in
                  zip(corpus.dialogs, core_per_dialog(corpus, matrix, config, assignment))]

    samples = []
    for condition in sorted({d.condition for d in corpus.dialogs}):
        sub = Corpus(dialogs=tuple(d for d in corpus.dialogs if d.condition == condition))
        if all(len(d.utterances) < 2 for d in sub.dialogs):
            logger.warning("%s: condition %r has no dialog with >= 2 utterances; "
                           "no condition sample written", label, condition)
            continue
        sub_matrix = matrix.subset(sub)
        sub_breakdown = compute_core(sub, sub_matrix, config)
        stats = rank_frequency(sub)
        samples.append({
            "corpus": label,
            "condition": condition,
            "zipf_alpha": sub_breakdown.alpha_used,
            "heaps_beta": sub_breakdown.beta_used,
            "core": sub_breakdown.core,
            "unique_tokens": len(stats.entries),
            "total_tokens": stats.total_tokens,
        })
    return CorpusAnalysis(label=label, breakdown=breakdown, per_dialog=per_dialog,
                          condition_samples=samples)


def analysis_report_json(analyses: list[CorpusAnalysis], config: CoreConfig) -> dict:
    corpora = [{
        "corpus": a.label,
        "core_breakdown": breakdown_json(a.breakdown),
        "per_dialog": [{"dialog_id": did, "condition": condition, **breakdown_json(b)}
                       for did, condition, b in a.per_dialog],
    } for a in analyses]
    return {"config": asdict(config), "corpora": corpora}


def per_dialog_rows(analyses: list[CorpusAnalysis]) -> list[list[str]]:
    """One PER_DIALOG_HEADER row per dialog."""
    return [[did, condition, fmt6(b.core), fmt6(b.entropy_term), fmt6(b.repetition_term),
             fmt6(b.stagnation_term), flags_str(b.flags)]
            for a in analyses for did, condition, b in a.per_dialog]


def condition_sample_rows(analyses: list[CorpusAnalysis]) -> list[list[str]]:
    """One CONDITION_SAMPLES_HEADER row per (corpus, condition) sample."""
    return [[s["corpus"], s["condition"], fmt6(s["zipf_alpha"]), fmt6(s["heaps_beta"]),
             fmt6(s["core"]), str(s["unique_tokens"]), str(s["total_tokens"])]
            for a in analyses for s in a.condition_samples]


def summary_rows(analyses: list[CorpusAnalysis], ddof: int = 0) -> list[list[str]]:
    """Per-condition SUMMARY_HEADER rows in the metric order core,
    zipf_alpha, heaps_beta, unique_tokens.  Core is summarized over
    per-dialog scores; the rest over per-(corpus, condition) samples."""
    core_by_cond: dict[str, list[float]] = {}
    sample_by_cond: dict[str, list[dict]] = {}
    for a in analyses:
        for _, condition, b in a.per_dialog:
            core_by_cond.setdefault(condition, []).append(b.core)
        for s in a.condition_samples:
            sample_by_cond.setdefault(s["condition"], []).append(s)

    rows = []
    for condition in sorted(core_by_cond):
        for metric in SUMMARY_METRICS:
            if metric == "core":
                values = core_by_cond[condition]
            else:
                values = [float(s[metric]) for s in sample_by_cond.get(condition, [])]
            if not values:
                continue
            row = summarize(values, ddof=ddof)
            rows.append([condition, metric, fmt6(row.mean), fmt6(row.std_dev),
                         fmt6(row.max), fmt6(row.min), fmt6(row.range)])
    return rows


def write_csv(path: str | Path, header: str, rows: Iterable[Iterable[str]]) -> None:
    """Write the header line (column names joined by commas) and rows of
    string cells as CSV with "\n" line ends.

    Quoting is minimal (RFC 4180): a cell is quoted only when it holds a
    comma, a quote or a line break, so any id or path reads back intact."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        # csv quotes a cell holding a character of the line terminator, so
        # rows end in "\r\n" (which quotes a lone "\r" too); each row is one
        # write() call, stored with "\n"
        lf = SimpleNamespace(write=lambda line: fh.write(line[:-2] + "\n"))
        writer = csv.writer(lf, lineterminator="\r\n")
        writer.writerow(header.split(","))
        writer.writerows(rows)


def _read_csv(path: str | Path, text: tuple[str, ...],
              numeric: tuple[str, ...]) -> list[dict]:
    """Rows of a CSV whose header names every ``text`` and ``numeric`` column,
    with each ``numeric`` cell parsed as a finite float.

    A missing column, in the header or in a short row, a numeric cell that is
    not a finite float, and a line the csv module cannot read raise
    ValueError naming the file, the line and the column, if any."""
    required = (*text, *numeric)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        try:
            header = reader.fieldnames or ()
            for column in required:
                if column not in header:
                    raise ValueError(f"{path}: line 1: header has no {column!r} column")
            in_order = [column for column in header if column in required]
            rows = []
            for row in reader:
                for column in in_order:
                    if row[column] is None:
                        raise ValueError(f"{path}: line {reader.line_num}: "
                                         f"row ends before column {column!r}")
                for column in numeric:
                    try:
                        value = float(row[column])
                    except ValueError:
                        value = math.nan
                    if not math.isfinite(value):
                        raise ValueError(f"{path}: line {reader.line_num}: column {column!r}: "
                                         f"{row[column]!r} is not a finite number")
                    row[column] = value
                rows.append(row)
        except csv.Error as exc:  # such as a field over the csv module's size limit
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    return rows


def read_condition_samples(paths: Iterable[str | Path]) -> dict[str, dict[str, list[float]]]:
    """Read condition-sample CSVs into {metric: {condition: values}}."""
    grouped: dict[str, dict[str, list[float]]] = {m: {} for m in COMPARE_METRICS}
    for path in paths:
        for row in _read_csv(path, ("condition",), COMPARE_METRICS):
            condition = row["condition"]
            for metric in COMPARE_METRICS:
                grouped[metric].setdefault(condition, []).append(row[metric])
    return grouped


def compare_rows(grouped: dict[str, dict[str, list[float]]]) -> list[list[str]]:
    """Pairwise condition comparisons per metric, as COMPARE_HEADER rows."""
    conditions = sorted({c for per in grouped.values() for c in per})
    if len(conditions) < 2:
        raise ValueError("compare needs at least two conditions with samples")
    rows = []
    for c1, c2 in combinations(conditions, 2):
        for metric in COMPARE_METRICS:
            xs = grouped[metric].get(c1, [])
            ys = grouped[metric].get(c2, [])
            if not xs or not ys:
                raise ValueError(f"condition {c1 if not xs else c2!r} has no {metric} samples")
            res = mann_whitney_u(xs, ys)
            rows.append([f"{c1}_vs_{c2}", metric, fmt6(res.u), fmt6(res.p_value), res.method])
    return rows


def parse_dialog_index(dialog_id: str) -> tuple[str, int]:
    """Extract (agent_a, trailing dialog index) from a generated dialog id."""
    parts = dialog_id.split("__")
    if len(parts) < 2 or not parts[-1].isdigit():
        raise ValueError(f"dialog id {dialog_id!r} has no trailing '__<index>'")
    return parts[0], int(parts[-1])


def temporal_rows(per_dialog_paths: Iterable[str | Path]) -> list[list[str]]:
    """Average score per (condition, agent_a, dialog_index) from per-dialog
    CSVs, as TEMPORAL_HEADER rows."""
    groups: dict[tuple[str, str, int], list[float]] = {}
    for path in per_dialog_paths:
        for row in _read_csv(path, ("dialog_id", "condition"), ("core",)):
            agent_a, index = parse_dialog_index(row["dialog_id"])
            key = (row["condition"], agent_a, index)
            groups.setdefault(key, []).append(row["core"])
    rows = []
    for (condition, agent_a, index) in sorted(groups):
        values = groups[(condition, agent_a, index)]
        rows.append([condition, agent_a, str(index), fmt6(sum(values) / len(values))])
    return rows


def utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def write_manifest(path: str | Path, *, command: str, argv: list[str],
                   inputs: list[str], config: dict, seeds: dict,
                   started_at: str, finished_at: str) -> None:
    """Record the command context alongside its outputs for reproducibility."""
    manifest = {
        "command": command,
        "argv": list(argv),
        "inputs": list(inputs),
        "config": config,
        "seeds": seeds,
        "version": __version__,
        "started_at": started_at,
        "finished_at": finished_at,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
