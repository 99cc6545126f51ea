"""Command-line entry point.

Subcommands: generate, analyze, fit, behavior, compare, report.
Exit codes: 0 success, 1 validation error, 2 partial generation,
3 external-service failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from ._http import EndpointError
from .behavior import behavior_profile, default_cue_lexicons, load_cue_lexicon, \
    load_sentiment_lexicon
from .corpus import CONDITIONS, CorpusError, parse_corpus, rank_frequency, vocab_growth
from .embeddings import EmbeddingError, fetch_embeddings, load_embeddings
from .lawfit import FitError, fit_heaps, fit_zipf
from .metric import CoreConfig
from .report import analysis_report_json, analyze_corpus, compare_rows, \
    read_condition_samples, temporal_rows, utc_now, write_behavior_csv, \
    write_compare_csv, write_condition_samples_csv, write_fit_csv, write_manifest, \
    write_per_dialog_csv, write_summary_csv, write_temporal_csv
from .runner import GenerationConfig, generate_dialogs

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARTIAL = 2
EXIT_SERVICE = 3

EMBED_ENDPOINT_ENV = "CORE_EMBED_ENDPOINT"


class ValidationError(ValueError):
    pass


class _UsageError(Exception):
    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class _Parser(argparse.ArgumentParser):
    # usage problems are validation errors under this tool's exit-code contract
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: error: {message}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=42, help="base random seed (default 42)")
    parser.add_argument("--ngram", type=int, default=3, help="n-gram order (default 3)")
    parser.add_argument("--kmax", type=int, default=10, help="max modes for normalization (default 10)")
    parser.add_argument("--threads", type=int, default=4,
                        help="max concurrent endpoint requests (default 4)")
    parser.add_argument("--out-dir", default=".", help="directory for output files (default .)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="coreval",
                     description="Conversational robustness scoring and language-law analysis "
                                 "for multi-agent dialog corpora.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[], help="generate dialogs via two chat endpoints")
    _add_common(p)
    p.add_argument("--endpoint-a", required=True)
    p.add_argument("--endpoint-b", required=True)
    p.add_argument("--model-a", required=True)
    p.add_argument("--model-b", required=True)
    p.add_argument("--condition", required=True, choices=CONDITIONS)
    p.add_argument("--dialogs", type=int, default=30)
    p.add_argument("--turns", type=int, default=10)
    p.add_argument("--temperature", type=float, default=0.7)
    p.add_argument("--top-p", type=float, default=0.9)
    p.add_argument("--max-tokens", type=int, default=128)
    p.add_argument("--request-seed", type=int, default=None)
    p.add_argument("--concat-prompt", action="store_true",
                   help="send the history as one concatenated user prompt")
    p.add_argument("--out", required=True, help="output dialog JSONL path")

    p = sub.add_parser("analyze", help="compute the robustness score and reports")
    _add_common(p)
    p.add_argument("inputs", nargs="+", help="dialog JSONL files")
    p.add_argument("--embeddings", action="append", default=None,
                   help="embedding JSONL (one for all inputs, or one per input)")
    p.add_argument("--embed-endpoint", default=None,
                   help=f"embedding service URL (default ${EMBED_ENDPOINT_ENV})")
    p.add_argument("--embed-model", default=None)
    p.add_argument("--embed-batch", type=int, default=32)
    p.add_argument("--cluster-seed", type=int, default=None,
                   help="clustering seed (default: --seed)")
    p.add_argument("--min-count", type=int, default=2, help="zipf fit count filter (default 2)")
    p.add_argument("--max-rank", type=int, default=None, help="zipf fit rank cutoff (default none)")
    p.add_argument("--heaps-stride", type=int, default=50,
                   help="vocabulary curve sampling stride (default 50)")
    p.add_argument("--alpha", type=float, default=None,
                   help="explicit repetition exponent (default: fit from corpus)")
    p.add_argument("--beta", type=float, default=None,
                   help="explicit stagnation exponent (default: fit from corpus)")
    p.add_argument("--fallback-exponent", type=float, default=1.0)
    p.add_argument("--repetition-counting", choices=("occurrences", "types"),
                   default="occurrences")
    p.add_argument("--sample-std", action="store_true",
                   help="use the sample (N-1) std divisor in summaries")

    p = sub.add_parser("fit", help="fit rank-frequency and vocabulary-growth exponents")
    _add_common(p)
    p.add_argument("inputs", nargs="+", help="dialog JSONL files")
    p.add_argument("--min-count", type=int, default=2)
    p.add_argument("--max-rank", type=int, default=None)
    p.add_argument("--stride", type=int, default=50)
    p.add_argument("--dump-rank-frequency", action="store_true",
                   help="also write rank,count CSVs for log-log plotting")

    p = sub.add_parser("behavior", help="per-dialog behavioral metrics")
    _add_common(p)
    p.add_argument("inputs", nargs="+", help="dialog JSONL files")
    p.add_argument("--toxicity-endpoint", default=None)
    p.add_argument("--agreement-lexicon", default=None)
    p.add_argument("--disagreement-lexicon", default=None)
    p.add_argument("--hedging-lexicon", default=None)
    p.add_argument("--sentiment-lexicon", default=None)

    p = sub.add_parser("compare", help="Mann-Whitney comparisons across conditions")
    _add_common(p)
    p.add_argument("inputs", nargs="+", help="condition-sample CSVs from analyze")

    p = sub.add_parser("report", help="temporal trend report from per-dialog CSVs")
    _add_common(p)
    p.add_argument("inputs", nargs="+", help="per-dialog CSVs from analyze")

    return parser


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_corpora(paths: list[str]):
    corpora = []
    for path in paths:
        with open(path, "rb") as fh:
            corpora.append(parse_corpus(fh))
    return corpora


def cmd_generate(args, argv) -> int:
    started = utc_now()
    config = GenerationConfig(
        endpoint_a=args.endpoint_a, endpoint_b=args.endpoint_b,
        model_a=args.model_a, model_b=args.model_b, condition=args.condition,
        dialogs=args.dialogs, turns=args.turns, temperature=args.temperature,
        top_p=args.top_p, max_tokens=args.max_tokens, max_inflight=args.threads,
        request_seed=args.request_seed, concat_prompt=args.concat_prompt,
    )
    result = generate_dialogs(config, args.out)
    write_manifest(str(args.out) + ".manifest.json", command="generate", argv=argv,
                   inputs=[], config=vars(args) | {"out": str(args.out)},
                   seeds={"request_seed": args.request_seed},
                   started_at=started, finished_at=utc_now())
    print(f"generated {result.completed} dialogs (resumed from {result.resumed_from}, "
          f"failed {result.failed}) -> {result.out_path}")
    if result.failed and result.completed == 0 and result.resumed_from == 0:
        return EXIT_SERVICE
    return EXIT_PARTIAL if result.failed else EXIT_OK


def _analyze_config(args) -> CoreConfig:
    return CoreConfig(
        ngram_n=args.ngram,
        k_max=args.kmax,
        cluster_seed=args.cluster_seed if args.cluster_seed is not None else args.seed,
        alpha_source="explicit" if args.alpha is not None else "fit_from_corpus",
        beta_source="explicit" if args.beta is not None else "fit_from_corpus",
        alpha=args.alpha if args.alpha is not None else 1.0,
        beta=args.beta if args.beta is not None else 1.0,
        fallback_exponent=args.fallback_exponent,
        zipf_min_count=args.min_count,
        zipf_max_rank=args.max_rank,
        heaps_stride=args.heaps_stride,
        repetition_counting=args.repetition_counting,
    )


def _matrices_for(args, corpora):
    if args.embeddings:
        if len(args.embeddings) not in (1, len(corpora)):
            raise ValidationError(
                f"--embeddings given {len(args.embeddings)} times for {len(corpora)} inputs"
            )
        paths = args.embeddings * len(corpora) if len(args.embeddings) == 1 else args.embeddings
        return [load_embeddings(path, corpus) for path, corpus in zip(paths, corpora)]
    endpoint = args.embed_endpoint or os.environ.get(EMBED_ENDPOINT_ENV)
    if not endpoint:
        raise ValidationError(
            f"no embeddings: pass --embeddings, --embed-endpoint, or set ${EMBED_ENDPOINT_ENV}"
        )
    return [fetch_embeddings(endpoint, corpus, args.embed_batch, model=args.embed_model,
                             max_inflight=args.threads) for corpus in corpora]


def cmd_analyze(args, argv) -> int:
    started = utc_now()
    config = _analyze_config(args)  # validates kmax/ngram before any work
    out = _out_dir(args)
    corpora = _load_corpora(args.inputs)
    matrices = _matrices_for(args, corpora)

    analyses = [analyze_corpus(path, corpus, matrix, config)
                for path, corpus, matrix in zip(args.inputs, corpora, matrices)]

    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(analysis_report_json(analyses, config), fh, indent=2)
        fh.write("\n")
    with open(out / "per_dialog.csv", "w", encoding="utf-8") as fh:
        write_per_dialog_csv(analyses, fh)
    with open(out / "condition_samples.csv", "w", encoding="utf-8") as fh:
        write_condition_samples_csv(analyses, fh)
    with open(out / "summary.csv", "w", encoding="utf-8") as fh:
        write_summary_csv(analyses, fh, ddof=1 if args.sample_std else 0)
    write_manifest(out / "manifest_analyze.json", command="analyze", argv=argv,
                   inputs=list(args.inputs), config=vars(args) | {"core_config": config.__dict__},
                   seeds={"cluster_seed": config.cluster_seed},
                   started_at=started, finished_at=utc_now())
    print(f"analyzed {len(analyses)} corpora -> {out}/report.json")
    return EXIT_OK


def cmd_fit(args, argv) -> int:
    started = utc_now()
    out = _out_dir(args)
    corpora = _load_corpora(args.inputs)
    rows = []
    for path, corpus in zip(args.inputs, corpora):
        stats = rank_frequency(corpus)
        curve = vocab_growth(corpus, args.stride)
        zipf = fit_zipf(stats, min_count=args.min_count, max_rank=args.max_rank)
        heaps = fit_heaps(curve)
        rows.append({
            "corpus": path, "alpha": zipf.exponent, "alpha_r2": zipf.r_squared,
            "beta": heaps.exponent, "beta_r2": heaps.r_squared,
            "unique_tokens": len(stats.entries), "total_tokens": stats.total_tokens,
        })
        if args.dump_rank_frequency:
            stem = Path(path).stem
            with open(out / f"rankfreq_{stem}.csv", "w", encoding="utf-8") as fh:
                fh.write("rank,count\n")
                for rank, (_, count) in enumerate(stats.entries, start=1):
                    fh.write(f"{rank},{count}\n")
    with open(out / "fit.csv", "w", encoding="utf-8") as fh:
        write_fit_csv(rows, fh)
    write_manifest(out / "manifest_fit.json", command="fit", argv=argv,
                   inputs=list(args.inputs), config={"min_count": args.min_count,
                   "max_rank": args.max_rank, "stride": args.stride}, seeds={},
                   started_at=started, finished_at=utc_now())
    print(f"fit {len(rows)} corpora -> {out}/fit.csv")
    return EXIT_OK


def cmd_behavior(args, argv) -> int:
    started = utc_now()
    out = _out_dir(args)
    corpora = _load_corpora(args.inputs)
    lexicons = default_cue_lexicons()
    for name, path in (("agreement", args.agreement_lexicon),
                       ("disagreement", args.disagreement_lexicon),
                       ("hedging", args.hedging_lexicon)):
        if path is not None:
            lexicons[name] = load_cue_lexicon(name, path)
    sent_lexicon = load_sentiment_lexicon(args.sentiment_lexicon)

    rows = []
    for corpus in corpora:
        for dialog in corpus.dialogs:
            profile = behavior_profile(
                dialog, ngram_n=args.ngram, cue_lexicons=lexicons,
                sentiment_lexicon=sent_lexicon, toxicity_endpoint=args.toxicity_endpoint,
            )
            rows.append({
                "dialog_id": dialog.id, "condition": dialog.condition,
                "toxicity": profile.toxicity, "sentiment": profile.sentiment,
                "repetition_rate": profile.repetition_rate,
                "agreement_rate": profile.agreement_rate,
                "disagreement_rate": profile.disagreement_rate,
                "hedging_rate": profile.hedging_rate,
            })
    with open(out / "behavior.csv", "w", encoding="utf-8") as fh:
        write_behavior_csv(rows, fh)
    write_manifest(out / "manifest_behavior.json", command="behavior", argv=argv,
                   inputs=list(args.inputs),
                   config={"ngram": args.ngram, "toxicity_endpoint": args.toxicity_endpoint},
                   seeds={}, started_at=started, finished_at=utc_now())
    print(f"profiled {len(rows)} dialogs -> {out}/behavior.csv")
    return EXIT_OK


def cmd_compare(args, argv) -> int:
    started = utc_now()
    out = _out_dir(args)
    grouped = read_condition_samples(args.inputs)
    rows = compare_rows(grouped)
    with open(out / "compare.csv", "w", encoding="utf-8") as fh:
        write_compare_csv(rows, fh)
    write_manifest(out / "manifest_compare.json", command="compare", argv=argv,
                   inputs=list(args.inputs), config={}, seeds={},
                   started_at=started, finished_at=utc_now())
    print(f"wrote {len(rows)} comparisons -> {out}/compare.csv")
    return EXIT_OK


def cmd_report(args, argv) -> int:
    started = utc_now()
    out = _out_dir(args)
    rows = temporal_rows(args.inputs)
    with open(out / "temporal.csv", "w", encoding="utf-8") as fh:
        write_temporal_csv(rows, fh)
    write_manifest(out / "manifest_report.json", command="report", argv=argv,
                   inputs=list(args.inputs), config={}, seeds={},
                   started_at=started, finished_at=utc_now())
    print(f"wrote {len(rows)} temporal rows -> {out}/temporal.csv")
    return EXIT_OK


_HANDLERS = {
    "generate": cmd_generate,
    "analyze": cmd_analyze,
    "fit": cmd_fit,
    "behavior": cmd_behavior,
    "compare": cmd_compare,
    "report": cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args, argv)
    except _UsageError as exc:
        print(exc.message, file=sys.stderr)
        return EXIT_VALIDATION
    except EndpointError as exc:
        print(f"coreval: external service failure: {exc}", file=sys.stderr)
        return EXIT_SERVICE
    except (ValidationError, CorpusError, EmbeddingError, FitError, ValueError,
            OSError) as exc:
        print(f"coreval: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
