"""coreval: conversational robustness scoring for multi-agent dialog corpora.

The score combines normalized mode entropy, an n-gram repetition penalty,
and a semantic stagnation penalty, with the penalty exponents calibrated to
the corpus's own fitted rank-frequency (Zipf) and vocabulary-growth (Heaps)
exponents.  Supporting analyses: law fitting, behavioral profiles,
Mann-Whitney condition comparisons, and a two-endpoint dialog generator.
"""

__version__ = "0.1.0"

from .corpus import (
    CONDITIONS,
    Corpus,
    CorpusError,
    Dialog,
    NgramTable,
    TokenStats,
    Utterance,
    VocabGrowthCurve,
    extract_ngrams,
    parse_corpus,
    rank_frequency,
    tokenize,
    vocab_growth,
)
from .lawfit import FitError, FitResult, fit_heaps, fit_zipf, synth_zipf_stream
from .embeddings import (
    EmbeddingError,
    EmbeddingMatrix,
    cosine,
    dialog_stagnation,
    fetch_embeddings,
    load_embeddings,
    save_embeddings,
)
from .modes import (
    ModeAssignment,
    ModeDistribution,
    cluster_modes,
    entropy,
    mode_distribution,
    normalized_entropy,
)
from .metric import (
    CoreBreakdown,
    CoreConfig,
    compute_core,
    core_per_dialog,
    repeated_fraction,
)
from .behavior import (
    BehaviorProfile,
    CueLexicon,
    behavior_profile,
    cue_rate,
    load_cue_lexicon,
    load_sentiment_lexicon,
    repetition_rate,
    sentiment,
    toxicity,
)
from .stats import SummaryRow, UTestResult, mann_whitney_u, summarize
from .runner import GenerationConfig, GenerationResult, build_messages, \
    generate_dialogs, seed_prompt
from ._http import EndpointError

__all__ = [
    "CONDITIONS",
    "BehaviorProfile",
    "CoreBreakdown",
    "CoreConfig",
    "Corpus",
    "CorpusError",
    "CueLexicon",
    "Dialog",
    "EmbeddingError",
    "EmbeddingMatrix",
    "EndpointError",
    "FitError",
    "FitResult",
    "GenerationConfig",
    "GenerationResult",
    "ModeAssignment",
    "ModeDistribution",
    "NgramTable",
    "SummaryRow",
    "TokenStats",
    "UTestResult",
    "Utterance",
    "VocabGrowthCurve",
    "behavior_profile",
    "build_messages",
    "cluster_modes",
    "compute_core",
    "core_per_dialog",
    "cosine",
    "cue_rate",
    "dialog_stagnation",
    "entropy",
    "extract_ngrams",
    "fetch_embeddings",
    "fit_heaps",
    "fit_zipf",
    "generate_dialogs",
    "load_cue_lexicon",
    "load_embeddings",
    "load_sentiment_lexicon",
    "mann_whitney_u",
    "mode_distribution",
    "normalized_entropy",
    "parse_corpus",
    "rank_frequency",
    "repeated_fraction",
    "repetition_rate",
    "save_embeddings",
    "seed_prompt",
    "sentiment",
    "summarize",
    "synth_zipf_stream",
    "tokenize",
    "toxicity",
    "vocab_growth",
]
