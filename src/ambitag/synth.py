"""Synthetic trigram-HMM corpus generator with a known-parameter oracle.

Generates tagged sentences from a randomly drawn trigram model whose
emissions use a suffix-bearing vocabulary (each tag owns a few suffixes, a
fraction of words are ambiguous between two tags), so suffix-based lexical
back-off has signal to learn.  The generating parameters stay available
for an oracle Viterbi decode, giving a reference error rate that an
estimated model can be compared against.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from .corpus import AnnotatedSentence, Token
from .errors import ConfigError
from .tagset import TagSet


@dataclass
class SyntheticHMM:
    tagset: TagSet
    trans: np.ndarray  # P(next tag | a, b): (n+1, n+1, n); id n is the boundary
    p_end: float  # sentence termination probability after each word
    emit: np.ndarray  # P(word | tag): (n, V)
    words: list[str]
    seed: int

    @property
    def n_tags(self) -> int:
        return self.emit.shape[0]


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")


def build_synthetic_hmm(
    n_tags: int = 10,
    vocab: int = 1000,
    seed: int = 0,
    mean_len: float = 15.0,
    ambiguous_frac: float = 0.3,
    secondary_weight: float = 0.4,
    concentration: float = 0.5,
) -> SyntheticHMM:
    if n_tags < 2 or vocab < n_tags:
        raise ConfigError("need at least 2 tags and vocab >= n_tags")
    if not mean_len > 1.0:  # NaN fails too
        raise ConfigError("mean_len must exceed 1")
    if not 0.0 <= ambiguous_frac <= 1.0:
        raise ConfigError(f"ambiguous_frac must be in [0, 1], got {ambiguous_frac}")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    tagset = TagSet([f"T{i}" for i in range(n_tags)])

    trans = rng.dirichlet(np.full(n_tags, concentration), size=(n_tags + 1, n_tags + 1))

    # Tag-specific suffixes make P(tag | suffix) informative.
    letters = list(string.ascii_lowercase)
    suffixes: list[list[str]] = []
    used: set[str] = set()
    for _ in range(n_tags):
        own = []
        while len(own) < 3:
            suf = "".join(rng.choice(letters, size=int(rng.integers(2, 4))))
            if suf not in used:
                used.add(suf)
                own.append(suf)
        suffixes.append(own)

    words: list[str] = []
    primary = np.zeros(vocab, dtype=int)
    secondary = np.full(vocab, -1, dtype=int)
    seen: set[str] = set()
    for i in range(vocab):
        tag = int(rng.integers(n_tags))
        while True:
            stem = "".join(rng.choice(letters, size=int(rng.integers(2, 6))))
            surface = stem + str(rng.choice(suffixes[tag]))
            if surface not in seen:
                break
        seen.add(surface)
        words.append(surface)
        primary[i] = tag
        if rng.random() < ambiguous_frac:
            other = int(rng.integers(n_tags - 1))
            secondary[i] = other + (other >= tag)

    # Zipf-ish word weights; a word contributes to its primary tag's row and,
    # if ambiguous, a discounted share to its secondary tag's row.
    weights = 1.0 / np.arange(1, vocab + 1)
    rng.shuffle(weights)
    emit = np.zeros((n_tags, vocab))
    for i in range(vocab):
        emit[primary[i], i] += weights[i]
        if secondary[i] >= 0:
            emit[secondary[i], i] += secondary_weight * weights[i]
    for t in range(n_tags):
        if emit[t].sum() == 0:  # tiny vocabularies may starve a tag
            emit[t, int(rng.integers(vocab))] = 1.0
        emit[t] /= emit[t].sum()

    return SyntheticHMM(
        tagset=tagset,
        trans=trans,
        p_end=1.0 / mean_len,
        emit=emit,
        words=words,
        seed=seed,
    )


def sample_corpus(
    model: SyntheticHMM, n_words: int, seed: int, max_sentence_len: int = 80
) -> list[AnnotatedSentence]:
    """Sentences totalling at least n_words (stops at a sentence boundary)."""
    if n_words < 1:
        raise ConfigError(f"n_words must be >= 1, got {n_words}")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    n = model.n_tags
    boundary = n
    sentences: list[AnnotatedSentence] = []
    total = 0
    while total < n_words:
        a, b = boundary, boundary
        tags: list[int] = []
        surfaces: list[str] = []
        while True:
            c = int(rng.choice(n, p=model.trans[a, b]))
            w = int(rng.choice(len(model.words), p=model.emit[c]))
            tags.append(c)
            surfaces.append(model.words[w])
            a, b = b, c
            if len(surfaces) >= max_sentence_len or rng.random() < model.p_end:
                break
        sentences.append(
            AnnotatedSentence(
                [Token(s) for s in surfaces],
                [model.tagset.by_index(t) for t in tags],
            )
        )
        total += len(surfaces)
    return sentences


def oracle_viterbi(model: SyntheticHMM, surfaces: list[str]) -> list[int]:
    """Most probable tag sequence under the true generating parameters."""
    word_id = {w: i for i, w in enumerate(model.words)}
    n = model.n_tags
    boundary = n
    with np.errstate(divide="ignore"):
        log_trans = np.log(model.trans)
        log_emit = np.log(model.emit)
    T = len(surfaces)
    obs = [word_id[s] for s in surfaces]
    # score[b, c]: best log prob of a prefix ending in tags (b, c)
    score = np.full((n + 1, n), -np.inf)
    score[boundary] = log_trans[boundary, boundary] + log_emit[:, obs[0]]
    backptr = np.zeros((T, n + 1, n), dtype=int)
    for t in range(1, T):
        combined = score[:, :, None] + log_trans[: n + 1, :n, :]  # (a, b, c)
        best = combined.max(axis=0)
        backptr[t, :n] = combined.argmax(axis=0)
        score = np.full((n + 1, n), -np.inf)
        score[:n] = best + log_emit[:, obs[t]][None, :]
    flat = int(score.argmax())
    b_idx, c_idx = divmod(flat, n)
    rev = [c_idx]
    for t in range(T - 1, 0, -1):
        rev.append(b_idx)
        if t > 1:
            b_idx = int(backptr[t, b_idx, rev[-2]])
    rev.reverse()
    return rev


def oracle_error_rate(model: SyntheticHMM, corpus: list[AnnotatedSentence]) -> float:
    words = errors = 0
    for sent in corpus:
        guess = oracle_viterbi(model, [t.surface for t in sent.tokens])
        for g, tag in zip(guess, sent.gold):
            words += 1
            if g != tag.index:
                errors += 1
    return errors / words
