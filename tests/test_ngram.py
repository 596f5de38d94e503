from __future__ import annotations

import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from ambitag.corpus import AnnotatedSentence, Token, parse_annotated
from ambitag.errors import ConfigError, TagInventoryError
from ambitag.ngram import BOUNDARY, StateSpace, TransitionModel
from ambitag.synth import build_synthetic_hmm, sample_corpus
from ambitag.tagset import TagSet, parse_tagset

from oracles import blended_transition_oracle

TS3 = parse_tagset("A\nB\nC\n")
B = len(TS3)  # boundary symbol id


def _train(text: str, k=1.0) -> TransitionModel:
    return TransitionModel.train(parse_annotated(text, TS3), TS3, k=k)


def window_counts(corpus, boundary: int) -> Counter:
    """Every trigram window of each padded sentence  ⊥ ⊥ t1 .. tn ⊥ , counted."""
    counts: Counter = Counter()
    for sent in corpus:
        seq = (boundary, boundary, *(t.index for t in sent.gold), boundary)
        counts.update(seq[i : i + 3] for i in range(len(seq) - 2))
    return counts


def _text_counts(text: str) -> Counter:
    return window_counts(parse_annotated(text, TS3), B)


class TestStateSpace:
    def test_alphabet(self):
        sp = StateSpace(TS3)
        assert sp.n_symbols == 4
        assert sp.boundary_id == 3

    def test_symbol_ids_extend_the_tag_lookup(self):
        sp = StateSpace(TS3)
        assert sp.ids == {**TS3.lookup, BOUNDARY: 3}
        assert list(sp.ids) == ["A", "B", "C", BOUNDARY]

    def test_boundary_symbol_is_not_a_tag(self):
        with pytest.raises(TagInventoryError, match="reserved"):
            StateSpace(parse_tagset(f"A\n{BOUNDARY}\n"))


class TestCounting:
    def test_single_sentence_padding(self):
        model = _train("a\tA\nb\tB\n")
        # ⊥ ⊥ A B ⊥  ->  (⊥⊥A) (⊥AB) (AB⊥): n+1 windows for n=2, sorted
        assert model.trigrams.tolist() == [[0, 1, B], [B, 0, 1], [B, B, 0]]
        assert model.counts.tolist() == [1, 1, 1]
        assert model.counts.dtype == np.int64

    def test_window_count_is_words_plus_one(self):
        text = "a\tA\nb\tB\nc\tC\n\na\tA\n"
        model = _train(text)
        assert model.counts.sum() == (3 + 1) + (1 + 1)

    @pytest.mark.parametrize("n_tags,words,seed", [(3, 200, 1), (8, 3000, 2), (20, 5000, 3)])
    def test_counts_match_a_counter_over_padded_windows(self, n_tags, words, seed):
        hmm = build_synthetic_hmm(n_tags=n_tags, vocab=100, seed=seed)
        corpus = sample_corpus(hmm, words, seed=seed)
        model = TransitionModel.train(corpus, hmm.tagset)
        want = window_counts(corpus, len(hmm.tagset))
        assert model.trigrams.tolist() == sorted(map(list, want))
        assert model.counts.tolist() == [want[tuple(w)] for w in model.trigrams.tolist()]

    def test_empty_corpus_has_no_windows(self):
        model = TransitionModel.train([], TS3)
        assert model.trigrams.shape == (0, 3)
        assert model.counts.shape == (0,)

    def test_one_word_sentences(self):
        # ⊥ ⊥ t ⊥ per sentence: no window spans two sentences
        model = _train("a\tA\n\nb\tB\n\na\tA\n")
        assert model.trigrams.tolist() == [[B, 0, B], [B, 1, B], [B, B, 0], [B, B, 1]]
        assert model.counts.tolist() == [2, 1, 2, 1]

    @pytest.mark.parametrize("max_len", [1, 2, 3])
    def test_short_sentences_match_a_counter_over_padded_windows(self, max_len):
        hmm = build_synthetic_hmm(n_tags=5, vocab=50, seed=max_len)
        corpus = sample_corpus(hmm, 500, seed=max_len, max_sentence_len=max_len)
        model = TransitionModel.train(corpus, hmm.tagset)
        want = window_counts(corpus, len(hmm.tagset))
        assert model.trigrams.tolist() == sorted(map(list, want))
        assert model.counts.tolist() == [want[tuple(w)] for w in model.trigrams.tolist()]

    @pytest.mark.parametrize("n_tags,itemsize", [(3, 1), (254, 1), (255, 2)])
    def test_windows_reach_the_constructor_unsigned(self, monkeypatch, n_tags, itemsize):
        ts = TagSet([f"T{i}" for i in range(n_tags)])
        seen = []
        init = TransitionModel.__init__

        def spy(self, tagset, k=1.0, windows=(), weights=None):
            seen.append(windows)
            init(self, tagset, k, windows, weights)

        monkeypatch.setattr(TransitionModel, "__init__", spy)
        corpus = [AnnotatedSentence([Token("w")] * 2, [ts.tags[0], ts.tags[-1]])]
        model = TransitionModel.train(corpus, ts)
        (windows,) = seen
        assert windows.dtype.kind == "u" and windows.dtype.itemsize == itemsize
        b, last = n_tags, n_tags - 1
        assert windows.tolist() == [[b, b, 0], [b, 0, last], [0, last, b]]
        assert model.counts.tolist() == [1, 1, 1]

    def test_train_memory_on_100k_words(self):
        rng = np.random.default_rng(0)
        ts = TagSet([f"T{i}" for i in range(10)])
        token, corpus, words = Token("w"), [], 0
        while words < 100_000:
            n = int(rng.integers(1, 31))
            gold = [ts.tags[i] for i in rng.integers(10, size=n)]
            corpus.append(AnnotatedSentence([token] * n, gold))
            words += n
        TransitionModel.train(corpus[:10], ts)  # first-call allocations stay out of the peak
        tracemalloc.start()
        try:
            model = TransitionModel.train(corpus, ts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.counts.sum() == words + len(corpus)
        # Frozen from the per-sentence window loop that numpy windows replaced.
        # Windows held as (m, 3) intp would take 24 bytes each, 2.5 MB here.
        assert peak <= 2_237_750

    def test_windows_in_any_order_merge_by_weight(self):
        windows = [(B, 0, B), (B, B, 0), (0, 1, 2), (B, 0, B), (B, B, 0), (B, 0, B)]
        model = TransitionModel(TS3, 1.0, windows, [2, 1, 5, 3, 4, 1])
        assert model.trigrams.tolist() == [[0, 1, 2], [B, 0, B], [B, B, 0]]
        assert model.counts.tolist() == [5, 6, 5]
        unweighted = TransitionModel(TS3, 1.0, windows)
        assert unweighted.counts.tolist() == [1, 3, 2]

    def test_distinct_ascending_weighted_windows_are_kept_as_given(self):
        windows = np.array([[0, 1, 2], [B, 0, B], [B, B, 0]], np.uint8)
        weights = np.array([5, 6, 5], np.int64)
        model = TransitionModel(TS3, 1.0, windows, weights)
        assert np.shares_memory(model.trigrams, windows) and model.counts is weights
        # reversed, repeated or int64 windows merge to the same arrays, dtypes included
        for other, other_weights, times in [
            (windows[::-1], weights[::-1], 1),
            (np.vstack([windows, windows]), np.concatenate([weights, weights]), 2),
            (windows.astype(np.int64), weights.tolist(), 1),
        ]:
            merged = TransitionModel(TS3, 1.0, other, other_weights)
            assert merged.trigrams.dtype == np.uint8 and merged.counts.dtype == np.int64
            assert merged.trigrams.tolist() == windows.tolist()
            assert merged.counts.tolist() == (times * weights).tolist()

    @pytest.mark.parametrize(
        "windows",
        [np.array([[B, B, -255]]), [(B, B, -1)], np.array([[B, B, B + 1]]), [(B, B, 256)]],
        ids=["negative-wrapping-onto-an-id", "negative-list", "above-alphabet", "above-uint8"],
    )
    def test_ids_outside_the_alphabet_rejected(self, windows):
        with pytest.raises(ValueError):
            TransitionModel(TS3, 1.0, windows)

    def test_no_windows(self):
        model = TransitionModel(TS3)
        assert model.trigrams.shape == (0, 3)
        assert model.counts.shape == (0,)

    def test_k_zero_recovers_relative_frequencies(self):
        model = _train("a\tA\nb\tB\n", k=0.0)
        assert model.probs[B, B, 0] == 1.0
        assert model.probs[B, 0, 1] == 1.0
        assert model.probs[0, 1, B] == 1.0

    def test_retrain_is_bit_identical(self):
        text = "a\tA\nb\tB\nc\tC\n\nb\tB\na\tA\n"
        m1, m2 = _train(text, k=0.7), _train(text, k=0.7)
        assert np.array_equal(m1.trigrams, m2.trigrams)
        assert np.array_equal(m1.counts, m2.counts)
        for a in range(4):
            for bb in range(4):
                assert np.array_equal(m1.probs[a, bb], m2.probs[a, bb])


class TestBlending:
    CORPORA = [
        "a\tA\nb\tB\n",
        "a\tA\nb\tB\nc\tC\n\nb\tB\na\tA\n\na\tA\na\tA\n",
        "c\tC\n",
    ]

    @pytest.mark.parametrize("text", CORPORA)
    @pytest.mark.parametrize("k", [0.0, 0.5, 1.0, 10.0])
    def test_matches_independent_recursion(self, text, k):
        model = _train(text, k=k)
        for a, bb, c in itertools.product(range(4), repeat=3):
            want = blended_transition_oracle(_text_counts(text), 4, k, a, bb, c)
            assert model.probs[a, bb, c] == want  # same arithmetic, so bit for bit

    @pytest.mark.parametrize("k", [0.0, 0.5, 1.0, 10.0])
    def test_rows_sum_to_one(self, k):
        model = _train(self.CORPORA[1], k=k)
        for a in range(4):
            for bb in range(4):
                assert model.probs[a, bb].sum() == pytest.approx(1.0, abs=1e-12)
        # C never occurs in CORPORA[0], so context (C,C) falls through to the
        # unigram level
        unigram = _train(self.CORPORA[0], k=k).probs[2, 2]
        assert unigram.sum() == pytest.approx(1.0, abs=1e-12)

    def test_unseen_context_with_k_zero_falls_back(self):
        text = "a\tA\nb\tB\n"
        model = _train(text, k=0.0)
        # (A,A) never occurs: the row is the bigram level after A, and A is
        # only ever followed by B
        assert np.array_equal(model.probs[0, 0], [0.0, 1.0, 0.0, 0.0])
        # symbol C never occurs at all: row equals raw unigram frequencies
        # (one window each ends in A, B and the boundary)
        assert np.array_equal(model.probs[2, 2], [1 / 3, 1 / 3, 0.0, 1 / 3])
        for a, bb in ((0, 0), (2, 2)):
            want = [blended_transition_oracle(_text_counts(text), 4, 0.0, a, bb, c) for c in range(4)]
            assert np.array_equal(model.probs[a, bb], want)

    def test_large_k_approaches_uniform(self):
        model = _train(self.CORPORA[1], k=1e9)
        for a in range(4):
            for bb in range(4):
                assert model.probs[a, bb] == pytest.approx(np.full(4, 0.25), abs=1e-6)

    def test_empty_corpus_is_uniform(self):
        for k in (0.0, 1.0):
            model = TransitionModel.train([], TS3, k=k)
            assert model.probs == pytest.approx(np.full((4, 4, 4), 0.25))

    def test_blend_shifts_toward_parent_as_k_grows(self):
        text = self.CORPORA[1]
        dists = []
        for k in (0.1, 1.0, 10.0, 100.0):
            model = _train(text, k=k)
            # the oracle at a context outside the alphabet is the unigram level
            uni = [blended_transition_oracle(_text_counts(text), 4, k, -1, -1, c) for c in range(4)]
            dists.append(np.abs(model.probs[B, B] - uni).sum())
        assert all(a >= b - 1e-15 for a, b in zip(dists, dists[1:]))


class TestStructure:
    def test_negative_k_rejected(self):
        with pytest.raises(ConfigError):
            TransitionModel(TS3, k=-0.5)

    @pytest.mark.parametrize("k", [float("nan"), float("inf")])
    def test_non_finite_k_rejected(self, k):
        with pytest.raises(ConfigError):
            TransitionModel(TS3, k=k)

    def test_model_from_manual_counts(self):
        model = TransitionModel(TS3, 0.0, [(B, B, 0), (B, 0, B)], [3, 3])
        assert model.probs[B, B, 0] == 1.0
        assert model.probs[B, 0, B] == 1.0
        model = TransitionModel(TS3, 0.0, [(B, B, 0), (B, 0, B), (B, B, 1)], [3, 3, 3])
        assert model.probs[B, B, 0] == 0.5


class TestDenseArray:
    def test_rows_are_read_only_views(self):
        model = _train(TestBlending.CORPORA[1])
        assert model.probs.shape == (4, 4, 4)
        row = model.probs[0, 1]
        assert np.shares_memory(row, model.probs)
        with pytest.raises(ValueError):
            row[0] = 0.5

    def test_train_builds_no_array(self):
        model = _train(TestBlending.CORPORA[1])
        assert "probs" not in vars(model)
        model.probs
        assert "probs" in vars(model)
