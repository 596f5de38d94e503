"""Scoring, error-rate/ambiguity tradeoff sweeps, learning curves,
binomial confidence intervals, and the annotator-agreement test.

A word counts as an error when its gold tag is missing from the retained
set, so error rates pair naturally with residual ambiguity (mean retained
tags per word).  Error mass is attributed to previously unseen words
(surface absent from the training lexicon) and to lexical tag omissions
(gold tag absent from the word's candidate set).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .corpus import AnnotatedSentence, split_for_learning_curve, word_count
from .decoder import (
    MODE_POSTERIOR,
    MODE_VITERBI,
    SentenceDecode,
    apply_threshold,  # noqa: F401  (benchmarks/tracer.py wraps it under this module)
    cohorts_for_tokens,
    decode_corpus,
    decode_sentence,  # noqa: F401  (benchmarks/tracer.py wraps it under this module)
    primary_ids,
)
from .errors import InputError
from .lexicon import LexicalModel, SmoothingConfig
from .ngram import DEFAULT_K, TransitionModel
from .tagset import TagSet


@dataclass
class EvalReport:
    words: int
    errors: int
    error_rate: float
    ambiguity: float  # mean retained tags per word
    unseen_words: int
    unseen_errors: int
    unseen_word_error_rate: float  # unseen-word errors / all words
    omissions: int
    lexical_omission_rate: float  # gold tag absent from candidates / all words


@dataclass
class TradeoffTable:
    rows: list[tuple[float, float, float]]  # (threshold, ambiguity, error_rate)

    def to_csv(self) -> str:
        lines = ["threshold,ambiguity,error_rate"]
        lines += [f"{t},{a:.6f},{e:.6f}" for t, a, e in self.rows]
        return "\n".join(lines) + "\n"

    def to_table(self) -> str:
        lines = [f"{'Threshold':>10} {'Tags/word':>10} {'Error rate':>11}"]
        lines += [f"{t:>10.4g} {a:>10.3f} {e:>10.2%}" for t, a, e in self.rows]
        return "\n".join(lines) + "\n"


@dataclass
class AgreementTest:
    n: int
    p0: float
    alpha: float
    critical_rate: float
    observed: float | None = None
    reject: bool | None = field(default=None)

    def __post_init__(self) -> None:
        if self.observed is not None:
            self.reject = self.observed <= self.critical_rate


def score_decodes(
    gold: list[AnnotatedSentence],
    decodes: list[SentenceDecode],
    lex: LexicalModel,
    threshold: float | list[float],
    mode: str = MODE_POSTERIOR,
) -> EvalReport | list[EvalReport]:
    """The report at one threshold, or one report per threshold of a list.

    Each word's posteriors are read once, whatever the number of thresholds.
    A word keeps the candidates whose posterior clears the threshold plus its
    primary tag, and is an error when its gold tag's posterior falls below
    the threshold; that posterior is taken as -inf for a gold tag that is not
    a candidate and +inf for one that is the primary.
    """
    thresholds = threshold if isinstance(threshold, list) else [threshold]
    if len(gold) != len(decodes):
        raise InputError(
            f"corpus/output length mismatch: {len(gold)} vs {len(decodes)} sentences"
        )
    for theta in thresholds:
        if not 0.0 <= theta <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {theta}")
    cells: list[float] = []  # every candidate's posterior
    p_primary: list[float] = []
    p_gold: list[float] = []
    surfaces: list[str] = []
    for si, (sent, dec) in enumerate(zip(gold, decodes)):
        if len(sent) != len(dec.cohorts):
            raise InputError(
                f"sentence {si}: {len(sent)} gold tokens vs {len(dec.cohorts)} output tokens"
            )
        for tok, gold_tag, post, primary in zip(
            sent.tokens, sent.gold, dec.posteriors, primary_ids(dec, mode)
        ):
            cells.extend(post.values())
            p_primary.append(post[primary])
            g = gold_tag.index
            p_gold.append(math.inf if g == primary else post.get(g, -math.inf))
            surfaces.append(tok.surface)
    words = len(p_gold)
    if words == 0:
        raise InputError("empty evaluation corpus")
    known = {surface: lex.is_known(surface) for surface in set(surfaces)}
    unseen = [not known[surface] for surface in surfaces]
    cells_a, primary_a, gold_a, unseen_a = map(np.array, (cells, p_primary, p_gold, unseen))
    unseen_words = int(np.count_nonzero(unseen_a))
    omissions = int(np.count_nonzero(gold_a == -math.inf))
    reports = []
    for theta in thresholds:
        retained = int(np.count_nonzero(cells_a >= theta) + np.count_nonzero(primary_a < theta))
        missed = gold_a < theta
        errors = int(np.count_nonzero(missed))
        unseen_err = int(np.count_nonzero(missed & unseen_a))
        reports.append(
            EvalReport(
                words=words,
                errors=errors,
                error_rate=errors / words,
                ambiguity=retained / words,
                unseen_words=unseen_words,
                unseen_errors=unseen_err,
                unseen_word_error_rate=unseen_err / words,
                omissions=omissions,
                lexical_omission_rate=omissions / words,
            )
        )
    return reports if isinstance(threshold, list) else reports[0]


def score(
    gold: list[AnnotatedSentence],
    lex: LexicalModel,
    trans: TransitionModel,
    threshold: float | list[float] = 1.0,
    mode: str = MODE_POSTERIOR,
) -> EvalReport | list[EvalReport]:
    """`score_decodes` of the gold corpus, decoded from its lexicon cohorts."""
    cohorts = iter(cohorts_for_tokens(lex, [tok for sent in gold for tok in sent.tokens]))
    sentences = [[next(cohorts) for _ in sent.tokens] for sent in gold]
    decodes = decode_corpus(lex, trans, sentences, mode == MODE_VITERBI)
    return score_decodes(gold, decodes, lex, threshold, mode)


def tradeoff_sweep(
    gold: list[AnnotatedSentence],
    lex: LexicalModel,
    trans: TransitionModel,
    thresholds: list[float],
    mode: str = MODE_POSTERIOR,
) -> TradeoffTable:
    reports = score(gold, lex, trans, list(thresholds), mode)
    return TradeoffTable(
        [(theta, rep.ambiguity, rep.error_rate) for theta, rep in zip(thresholds, reports)]
    )


def learning_curve(
    corpus: list[AnnotatedSentence],
    sizes: list[int],
    eval_words: int,
    seed: int,
    tagset: TagSet,
    lex_config: SmoothingConfig | None = None,
    k_trans: float = DEFAULT_K,
    mode: str = MODE_POSTERIOR,
) -> list[tuple[int, float]]:
    eval_slice, slices = split_for_learning_curve(corpus, sizes, eval_words, seed)
    points = []
    for train_slice in slices:
        lex = LexicalModel.train(train_slice, tagset, lex_config)
        trans = TransitionModel.train(train_slice, tagset, k_trans)
        rep = score(eval_slice, lex, trans, threshold=1.0, mode=mode)
        points.append((word_count(train_slice), rep.error_rate))
    return points


def binomial_ci_halfwidth(p_hat: float, n: int, level: float = 0.95) -> float:
    """Normal-approximation half-width z * sqrt(p(1-p)/n)."""
    if not 0.0 <= p_hat <= 1.0:
        raise InputError(f"rate must be in [0, 1], got {p_hat}")
    if n < 1:
        raise InputError(f"sample size must be >= 1, got {n}")
    if not 0.0 < level < 1.0:
        raise InputError(f"confidence level must be in (0, 1), got {level}")
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    return z * math.sqrt(p_hat * (1.0 - p_hat) / n)


def agreement_critical_rate(n: int, p0: float, alpha: float) -> float:
    """One-sided critical disagreement rate p0 + z_alpha * sqrt(p0(1-p0)/n).

    Observing a rate at or below this rejects (at level alpha) the null
    hypothesis that the true disagreement probability is p0.
    """
    if n < 1:
        raise InputError(f"sample size must be >= 1, got {n}")
    if not 0.0 < p0 < 1.0:
        raise InputError(f"null rate must be in (0, 1), got {p0}")
    if not 0.0 < alpha < 1.0:
        raise InputError(f"significance level must be in (0, 1), got {alpha}")
    return p0 + NormalDist().inv_cdf(alpha) * math.sqrt(p0 * (1.0 - p0) / n)


def agreement_test(n: int, p0: float, alpha: float, observed: float | None = None) -> AgreementTest:
    if observed is not None and not 0.0 <= observed <= 1.0:  # NaN fails too
        raise InputError(f"observed rate must be in [0, 1], got {observed}")
    return AgreementTest(
        n=n, p0=p0, alpha=alpha,
        critical_rate=agreement_critical_rate(n, p0, alpha),
        observed=observed,
    )


def disagreement_rate(
    a: list[AnnotatedSentence], b: list[AnnotatedSentence]
) -> tuple[float, list[tuple[int, int, str, str, str]]]:
    """Fraction of positions where two annotations differ, plus the diffs
    as (sentence, position, surface, tag_a, tag_b) for adjudication."""
    if len(a) != len(b):
        raise InputError(f"corpora differ in sentence count: {len(a)} vs {len(b)}")
    diffs = []
    words = 0
    for si, (sa, sb) in enumerate(zip(a, b)):
        if len(sa) != len(sb):
            raise InputError(f"sentence {si}: length {len(sa)} vs {len(sb)}")
        for wi, (ta, tb) in enumerate(zip(sa.tokens, sb.tokens)):
            if ta.surface != tb.surface:
                raise InputError(
                    f"sentence {si}, word {wi}: token mismatch {ta.surface!r} vs {tb.surface!r}"
                )
            words += 1
            if sa.gold[wi] != sb.gold[wi]:
                diffs.append((si, wi, ta.surface, sa.gold[wi].symbol, sb.gold[wi].symbol))
    if words == 0:
        raise InputError("empty corpora")
    return len(diffs) / words, diffs
