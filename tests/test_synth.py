from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest

from ambitag.errors import ConfigError
from ambitag.synth import (
    build_synthetic_hmm,
    oracle_error_rate,
    oracle_viterbi,
    sample_corpus,
)


def path_logprob(model, path, surfaces):
    word_id = {w: i for i, w in enumerate(model.words)}
    lp = math.log(model.p_end)
    a = b = model.n_tags
    for c, s in zip(path, surfaces):
        p = model.trans[a, b, c] * model.emit[c, word_id[s]]
        if p == 0.0:
            return -math.inf
        lp += math.log(p)
        a, b = b, c
    return lp


class TestGenerator:
    def test_shapes_and_normalization(self):
        model = build_synthetic_hmm(n_tags=6, vocab=50, seed=1)
        assert model.trans.shape == (7, 7, 6)
        assert model.emit.shape == (6, 50)
        assert np.allclose(model.trans.sum(axis=2), 1.0, atol=1e-12)
        assert np.allclose(model.emit.sum(axis=1), 1.0, atol=1e-12)
        assert model.p_end == pytest.approx(1 / 15.0)
        assert len(model.words) == len(set(model.words)) == 50
        assert [t.symbol for t in model.tagset.tags] == [f"T{i}" for i in range(6)]

    @pytest.mark.parametrize("seed", range(5))
    def test_emission_rows_never_starve(self, seed):
        model = build_synthetic_hmm(n_tags=5, vocab=5, seed=seed, ambiguous_frac=0.0)
        assert np.allclose(model.emit.sum(axis=1), 1.0)

    def test_deterministic_in_seed(self):
        a = build_synthetic_hmm(n_tags=4, vocab=30, seed=9)
        b = build_synthetic_hmm(n_tags=4, vocab=30, seed=9)
        assert a.words == b.words
        assert np.array_equal(a.trans, b.trans)
        assert np.array_equal(a.emit, b.emit)
        c = build_synthetic_hmm(n_tags=4, vocab=30, seed=10)
        assert c.words != a.words

    def test_validation(self):
        with pytest.raises(ConfigError):
            build_synthetic_hmm(n_tags=1)
        with pytest.raises(ConfigError):
            build_synthetic_hmm(n_tags=5, vocab=3)
        with pytest.raises(ConfigError):
            build_synthetic_hmm(mean_len=1.0)
        with pytest.raises(ConfigError, match="^mean_len must exceed 1$"):
            build_synthetic_hmm(mean_len=math.nan)
        with pytest.raises(ConfigError, match="^seed must be >= 0, got -2$"):
            build_synthetic_hmm(seed=-2)
        model = build_synthetic_hmm(n_tags=3, vocab=10)
        with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
            sample_corpus(model, 10, seed=-1)


class TestSampling:
    def test_word_budget(self):
        model = build_synthetic_hmm(n_tags=5, vocab=60, seed=2)
        corpus = sample_corpus(model, 500, seed=3)
        total = sum(len(s) for s in corpus)
        assert 500 <= total < 500 + 80
        assert all(1 <= len(s) <= 80 for s in corpus)

    def test_samples_come_from_the_model(self):
        model = build_synthetic_hmm(n_tags=5, vocab=60, seed=2)
        corpus = sample_corpus(model, 200, seed=4)
        vocab = set(model.words)
        for sent in corpus:
            assert all(t.surface in vocab for t in sent.tokens)
            assert all(g.index < model.n_tags for g in sent.gold)

    def test_reproducible(self):
        model = build_synthetic_hmm(n_tags=5, vocab=60, seed=2)
        a = sample_corpus(model, 300, seed=7)
        b = sample_corpus(model, 300, seed=7)
        assert [[t.surface for t in s.tokens] for s in a] == [
            [t.surface for t in s.tokens] for s in b
        ]
        assert [[g.index for g in s.gold] for s in a] == [
            [g.index for g in s.gold] for s in b
        ]

    def test_sentence_lengths_track_mean_len(self):
        model = build_synthetic_hmm(n_tags=5, vocab=60, seed=2, mean_len=15.0)
        corpus = sample_corpus(model, 10000, seed=5)
        mean = sum(len(s) for s in corpus) / len(corpus)
        assert 10.0 < mean < 20.0


class TestOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_exhaustive_search(self, seed):
        model = build_synthetic_hmm(n_tags=3, vocab=8, seed=seed)
        rng = np.random.default_rng(100 + seed)
        surfaces = [model.words[i] for i in rng.integers(0, 8, size=5)]
        got = oracle_viterbi(model, surfaces)
        best_lp = max(
            path_logprob(model, p, surfaces)
            for p in itertools.product(range(3), repeat=5)
        )
        assert path_logprob(model, got, surfaces) >= best_lp - 1e-9

    def test_single_word(self):
        model = build_synthetic_hmm(n_tags=3, vocab=8, seed=1)
        path = oracle_viterbi(model, [model.words[0]])
        assert len(path) == 1 and 0 <= path[0] < 3

    def test_no_end_probability_leaves_the_paths_unchanged(self):
        # p_end is one factor on every path of a given length, so a model
        # that never ends a sentence (mean_len=inf) has the same best paths
        model = build_synthetic_hmm(n_tags=6, vocab=60, seed=3)
        capped = dataclasses.replace(model, p_end=0.0)
        corpus = sample_corpus(model, 500, seed=4)
        for sent in corpus:
            surfaces = [t.surface for t in sent.tokens]
            assert oracle_viterbi(capped, surfaces) == oracle_viterbi(model, surfaces)
        assert oracle_error_rate(capped, corpus) == oracle_error_rate(model, corpus)
        assert oracle_error_rate(model, corpus) < 0.5

    def test_oracle_beats_majority_baseline(self):
        model = build_synthetic_hmm(n_tags=10, vocab=400, seed=0)
        corpus = sample_corpus(model, 4000, seed=1)
        counts = {}
        for s in corpus:
            for g in s.gold:
                counts[g.index] = counts.get(g.index, 0) + 1
        majority = max(counts.values()) / sum(counts.values())
        err = oracle_error_rate(model, corpus)
        assert err < 1.0 - majority
        assert 0.0 <= err < 0.35
