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
from dataclasses import replace
from pathlib import Path

from ._http import EndpointError
from .behavior import behavior_profile, default_cue_lexicons, dialog_text, load_cue_lexicon, \
    load_sentiment_lexicon, toxicity
from .corpus import CONDITIONS, parse_corpus, rank_frequency, vocab_growth
from .embeddings import fetch_embeddings, load_embeddings
from .lawfit import fit_heaps, fit_zipf
from .metric import CoreConfig
from .report import COMPARE_HEADER, CONDITION_SAMPLES_HEADER, PER_DIALOG_HEADER, \
    SUMMARY_HEADER, TEMPORAL_HEADER, analysis_report_json, analyze_corpus, compare_rows, \
    condition_sample_rows, fmt6, per_dialog_rows, read_condition_samples, summary_rows, \
    temporal_rows, utc_now, write_csv, write_manifest
from .runner import GenerationConfig, generate_dialogs

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARTIAL = 2
EXIT_SERVICE = 3

EMBED_ENDPOINT_ENV = "CORE_EMBED_ENDPOINT"


def _positive_int(text: str) -> int:
    """An argparse type for counts that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coreval", description="Conversational robustness scoring and language-law "
                                    "analysis for multi-agent dialog corpora.")
    sub = parser.add_subparsers(dest="command", required=True)
    # each subcommand takes exactly the options its handler reads
    threads = argparse.ArgumentParser(add_help=False)
    threads.add_argument("--threads", type=_positive_int, default=4,
                         help="max concurrent endpoint requests (default 4)")
    ngram = argparse.ArgumentParser(add_help=False)
    ngram.add_argument("--ngram", type=int, default=3, help="n-gram order (default 3)")
    out_dir = argparse.ArgumentParser(add_help=False)
    out_dir.add_argument("--out-dir", default=".", help="directory for output files (default .)")

    p = sub.add_parser("generate", parents=[threads],
                       help="generate dialogs via two chat endpoints")
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

    p = sub.add_parser("analyze", parents=[ngram, threads, out_dir],
                       help="compute the robustness score and reports")
    p.add_argument("--kmax", type=int, default=10, help="max modes for normalization (default 10)")
    p.add_argument("inputs", nargs="+", help="dialog JSONL files")
    p.add_argument("--embeddings", action="append", default=None,
                   help="embedding JSONL (one for all inputs, or one per input)")
    p.add_argument("--embed-endpoint", default=None,
                   help=f"embedding service URL (default ${EMBED_ENDPOINT_ENV})")
    p.add_argument("--embed-model", default=None)
    p.add_argument("--embed-batch", type=_positive_int, default=32)
    p.add_argument("--cluster-seed", type=int, default=42, help="clustering seed (default 42)")
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

    p = sub.add_parser("fit", parents=[out_dir],
                       help="fit rank-frequency and vocabulary-growth exponents")
    p.add_argument("inputs", nargs="+", help="dialog JSONL files")
    p.add_argument("--min-count", type=int, default=2)
    p.add_argument("--max-rank", type=int, default=None)
    p.add_argument("--stride", type=int, default=50)
    p.add_argument("--dump-rank-frequency", action="store_true",
                   help="also write rank,count CSVs for log-log plotting")

    p = sub.add_parser("behavior", parents=[ngram, threads, out_dir],
                       help="per-dialog behavioral metrics")
    p.add_argument("inputs", nargs="+", help="dialog JSONL files")
    p.add_argument("--toxicity-endpoint", default=None)
    p.add_argument("--agreement-lexicon", default=None)
    p.add_argument("--disagreement-lexicon", default=None)
    p.add_argument("--hedging-lexicon", default=None)
    p.add_argument("--sentiment-lexicon", default=None)

    p = sub.add_parser("compare", parents=[out_dir],
                       help="Mann-Whitney comparisons across conditions")
    p.add_argument("inputs", nargs="+", help="condition-sample CSVs from analyze")

    p = sub.add_parser("report", parents=[out_dir],
                       help="temporal trend report from per-dialog CSVs")
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


def cmd_generate(args) -> int:
    config = GenerationConfig(
        endpoint_a=args.endpoint_a, endpoint_b=args.endpoint_b,
        model_a=args.model_a, model_b=args.model_b, condition=args.condition,
        dialogs=args.dialogs, turns=args.turns, temperature=args.temperature,
        top_p=args.top_p, max_tokens=args.max_tokens, max_inflight=args.threads,
        request_seed=args.request_seed, concat_prompt=args.concat_prompt,
    )
    result = generate_dialogs(config, args.out)
    print(f"generated {result.completed} dialogs (resumed from {result.resumed_from}, "
          f"failed {result.failed}) -> {result.out_path}")
    if result.failed and result.completed == 0 and result.resumed_from == 0:
        return EXIT_SERVICE
    return EXIT_PARTIAL if result.failed else EXIT_OK


def _analyze_config(args) -> CoreConfig:
    return CoreConfig(
        ngram_n=args.ngram,
        k_max=args.kmax,
        cluster_seed=args.cluster_seed,
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
            raise ValueError(
                f"--embeddings given {len(args.embeddings)} times for {len(corpora)} inputs"
            )
        paths = args.embeddings * len(corpora) if len(args.embeddings) == 1 else args.embeddings
        return [load_embeddings(path, corpus) for path, corpus in zip(paths, corpora)]
    endpoint = args.embed_endpoint or os.environ.get(EMBED_ENDPOINT_ENV)
    if not endpoint:
        raise ValueError(
            f"no embeddings: pass --embeddings, --embed-endpoint, or set ${EMBED_ENDPOINT_ENV}"
        )
    return [fetch_embeddings(endpoint, corpus, args.embed_batch, model=args.embed_model,
                             max_inflight=args.threads) for corpus in corpora]


def cmd_analyze(args) -> int:
    config = _analyze_config(args)  # validates kmax/ngram/seeds before any work
    out = _out_dir(args)
    corpora = _load_corpora(args.inputs)
    for path, corpus in zip(args.inputs, corpora):
        if not corpus.dialogs:
            raise ValueError(f"{path}: no dialogs to analyze")
    matrices = _matrices_for(args, corpora)

    analyses = [analyze_corpus(path, corpus, matrix, config)
                for path, corpus, matrix in zip(args.inputs, corpora, matrices)]

    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(analysis_report_json(analyses, config), fh, indent=2)
        fh.write("\n")
    write_csv(out / "per_dialog.csv", PER_DIALOG_HEADER, per_dialog_rows(analyses))
    write_csv(out / "condition_samples.csv", CONDITION_SAMPLES_HEADER,
              condition_sample_rows(analyses))
    write_csv(out / "summary.csv", SUMMARY_HEADER,
              summary_rows(analyses, ddof=1 if args.sample_std else 0))
    print(f"analyzed {len(analyses)} corpora -> {out}/report.json")
    return EXIT_OK


def cmd_fit(args) -> int:
    dumps = {}  # rank-frequency dump name -> the input it is written from
    for path in args.inputs if args.dump_rank_frequency else ():
        name = f"rankfreq_{Path(path).stem}.csv"
        if name in dumps:
            raise ValueError(f"{dumps[name]} and {path} would both be dumped to {name}")
        dumps[name] = path
    out = _out_dir(args)
    corpora = _load_corpora(args.inputs)
    rows = []
    for path, corpus in zip(args.inputs, corpora):
        stats = rank_frequency(corpus)
        zipf = fit_zipf(stats, min_count=args.min_count, max_rank=args.max_rank)
        heaps = fit_heaps(vocab_growth(corpus, args.stride))
        rows.append([path, fmt6(zipf.exponent), fmt6(zipf.r_squared), fmt6(heaps.exponent),
                     fmt6(heaps.r_squared), str(len(stats.entries)), str(stats.total_tokens)])
        if args.dump_rank_frequency:
            write_csv(out / f"rankfreq_{Path(path).stem}.csv", "rank,count",
                      ((str(rank), str(count))
                       for rank, (_, count) in enumerate(stats.entries, start=1)))
    write_csv(out / "fit.csv", "corpus,alpha,alpha_r2,beta,beta_r2,unique_tokens,total_tokens",
              rows)
    print(f"fit {len(rows)} corpora -> {out}/fit.csv")
    return EXIT_OK


def cmd_behavior(args) -> int:
    out = _out_dir(args)
    corpora = _load_corpora(args.inputs)
    lexicons = default_cue_lexicons()
    for name, path in (("agreement", args.agreement_lexicon),
                       ("disagreement", args.disagreement_lexicon),
                       ("hedging", args.hedging_lexicon)):
        if path is not None:
            lexicons[name] = load_cue_lexicon(name, path)
    sent_lexicon = load_sentiment_lexicon(args.sentiment_lexicon)

    dialogs = [dialog for corpus in corpora for dialog in corpus.dialogs]
    profiles = [behavior_profile(dialog, ngram_n=args.ngram, cue_lexicons=lexicons,
                                 sentiment_lexicon=sent_lexicon) for dialog in dialogs]
    if args.toxicity_endpoint is not None:
        scores = toxicity(args.toxicity_endpoint, [dialog_text(d) for d in dialogs],
                          max_inflight=args.threads)
        profiles = [replace(p, toxicity=s) for p, s in zip(profiles, scores)]
    rows = [[dialog.id, dialog.condition, "" if p.toxicity is None else fmt6(p.toxicity),
             fmt6(p.sentiment), fmt6(p.repetition_rate), fmt6(p.agreement_rate),
             fmt6(p.disagreement_rate), fmt6(p.hedging_rate)]
            for dialog, p in zip(dialogs, profiles)]
    write_csv(out / "behavior.csv", "dialog_id,condition,toxicity,sentiment,repetition_rate,"
              "agreement_rate,disagreement_rate,hedging_rate", rows)
    print(f"profiled {len(rows)} dialogs -> {out}/behavior.csv")
    return EXIT_OK


def cmd_compare(args) -> int:
    out = _out_dir(args)
    rows = compare_rows(read_condition_samples(args.inputs))
    write_csv(out / "compare.csv", COMPARE_HEADER, rows)
    print(f"wrote {len(rows)} comparisons -> {out}/compare.csv")
    return EXIT_OK


def cmd_report(args) -> int:
    out = _out_dir(args)
    rows = temporal_rows(args.inputs)
    write_csv(out / "temporal.csv", TEMPORAL_HEADER, rows)
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
    except SystemExit as exc:  # argparse printed the usage error, or the help
        return EXIT_VALIDATION if exc.code else EXIT_OK
    try:
        started = utc_now()
        code = _HANDLERS[args.command](args)
        # a handler that raised gets no manifest
        config = vars(args)
        path = (args.out + ".manifest.json" if args.command == "generate"
                else Path(args.out_dir) / f"manifest_{args.command}.json")
        write_manifest(path, command=args.command, argv=argv, inputs=config.get("inputs", []),
                       config=config,
                       seeds={k: v for k, v in config.items() if k.endswith("_seed")},
                       started_at=started, finished_at=utc_now())
        return code
    except EndpointError as exc:
        print(f"coreval: external service failure: {exc}", file=sys.stderr)
        return EXIT_SERVICE
    except (ValueError, OSError) as exc:  # CorpusError, EmbeddingError, FitError included
        print(f"coreval: error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
