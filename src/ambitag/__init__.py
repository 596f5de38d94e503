"""Trainable trigram-HMM part-of-speech tagger with a reverse-suffix-trie
lexicon and threshold-controlled multi-tag output.

Every name below is imported from its module on first use (PEP 562), so
importing the package, or one of its modules, compiles and runs only the
modules that are used.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "corpus": [
        "AnnotatedSentence", "Cohort", "Token", "read_annotated", "read_cohorts",
        "split_for_learning_curve", "word_count", "write_annotated",
    ],
    "decoder": [
        "MODE_POSTERIOR", "MODE_VITERBI", "TaggingResult", "WordResult", "apply_threshold",
        "cohorts_for_tokens", "decode_sentence",
    ],
    "errors": ["AmbitagError", "InputError"],
    "evalstats": [
        "AgreementTest", "EvalReport", "TradeoffTable", "agreement_critical_rate",
        "agreement_test", "binomial_ci_halfwidth", "disagreement_rate", "learning_curve",
        "score", "tradeoff_sweep",
    ],
    "lexicon": ["LexicalModel", "SmoothingConfig"],
    "modelfile": ["dumps_model", "load_model", "loads_model", "save_model"],
    "ngram": ["BOUNDARY", "StateSpace", "TransitionModel"],
    "synth": ["build_synthetic_hmm", "oracle_error_rate", "oracle_viterbi", "sample_corpus"],
    "tagset": [
        "ConversionRule", "Tag", "TagSet", "convert_cohort", "convert_reading", "default_rules",
        "default_tagset", "load_rules", "load_tagset", "parse_tagset",
    ],
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_MODULES = [*_EXPORTS, "bulkparse"]

__all__ = sorted([*_HOME, *_MODULES])


def __getattr__(name: str):
    if name in _MODULES:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
