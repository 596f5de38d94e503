"""Trainable trigram-HMM part-of-speech tagger with a reverse-suffix-trie
lexicon and threshold-controlled multi-tag output."""

from .corpus import (
    AnnotatedSentence,
    Cohort,
    Token,
    read_annotated,
    read_cohorts,
    split_for_learning_curve,
    word_count,
    write_annotated,
)
from .decoder import (
    MODE_POSTERIOR,
    MODE_VITERBI,
    TaggingResult,
    WordResult,
    apply_threshold,
    cohorts_for_tokens,
    decode_sentence,
)
from .errors import AmbitagError, InputError
from .evalstats import (
    AgreementTest,
    EvalReport,
    TradeoffTable,
    agreement_critical_rate,
    agreement_test,
    binomial_ci_halfwidth,
    disagreement_rate,
    learning_curve,
    score,
    tradeoff_sweep,
)
from .lexicon import LexicalModel, SmoothingConfig
from .modelfile import dumps_model, load_model, loads_model, save_model
from .ngram import BOUNDARY, StateSpace, TransitionModel
from .synth import build_synthetic_hmm, oracle_error_rate, oracle_viterbi, sample_corpus
from .tagset import (
    ConversionRule,
    Tag,
    TagSet,
    convert_cohort,
    convert_reading,
    default_rules,
    default_tagset,
    load_rules,
    load_tagset,
    parse_tagset,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
