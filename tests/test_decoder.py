from __future__ import annotations

import functools
import math
import random
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ambitag import decoder
from ambitag.corpus import AnnotatedSentence, Cohort, Token
from ambitag.decoder import (
    MODE_POSTERIOR,
    MODE_VITERBI,
    apply_threshold,
    backward,
    build_lattice,
    cohorts_for_tokens,
    decode_corpus,
    decode_sentence,
    forward,
    primary_ids,
    state_posteriors,
    viterbi,
)
from ambitag.errors import DeadLatticeError
from ambitag.lexicon import LexicalModel, SmoothingConfig
from ambitag.ngram import TransitionModel
from ambitag.synth import build_synthetic_hmm, sample_corpus
from ambitag.tagset import parse_tagset

from oracles import brute_force_decode, path_weight

TS = parse_tagset("A\nB\nC\nD\n@dot\n")
VOCAB = ["wa", "wb", "wc", "wd", "we"]


def random_corpus(seed: int, n_sentences: int = 50):
    rng = random.Random(seed)
    word_tags = [t.symbol for t in TS.word_tags()]
    sents = []
    for _ in range(n_sentences):
        toks = [Token(rng.choice(VOCAB)) for _ in range(rng.randint(1, 6))]
        gold = [TS.tag(rng.choice(word_tags)) for _ in toks]
        if rng.random() < 0.5:
            toks.append(Token("."))
            gold.append(TS.tag("@dot"))
        sents.append(AnnotatedSentence(toks, gold))
    return sents


def models(seed: int, k_lex: float = 1.0, k_trans: float = 1.0):
    corpus = random_corpus(seed)
    lex = LexicalModel.train(corpus, TS, SmoothingConfig(k=k_lex))
    trans = TransitionModel.train(corpus, TS, k=k_trans)
    return lex, trans


def lexicon_cohorts(lex, corpus):
    """Each sentence's lexicon cohorts, from one cohorts_for_tokens call."""
    cohorts = iter(cohorts_for_tokens(lex, [tok for sent in corpus for tok in sent.tokens]))
    return [[next(cohorts) for _ in sent.tokens] for sent in corpus]


def aprime_dicts(lex, cohorts, ids):
    return [
        {i: lex.converse_lexical_probs(c.token.surface, [i])[0] for i in pos_ids}
        for c, pos_ids in zip(cohorts, ids)
    ]


def random_cohorts(rng, lex):
    """Sentence with randomly narrowed candidate sets (non-rectangular lattice)."""
    word_tags = list(TS.word_tags())
    cohorts = []
    for _ in range(rng.randint(1, 5)):
        surface = rng.choice(VOCAB)
        cands = rng.sample(word_tags, rng.randint(1, len(word_tags)))
        cohorts.append(Cohort(Token(surface), cands))
    return cohorts


class TestAgainstEnumeration:
    @pytest.mark.parametrize("seed", range(15))
    def test_model_candidates(self, seed):
        lex, trans = models(seed)
        rng = random.Random(1000 + seed)
        toks = [Token(rng.choice(VOCAB)) for _ in range(rng.randint(1, 6))]
        if rng.random() < 0.5:
            toks.append(Token("."))
        self._check(lex, trans, cohorts_for_tokens(lex, toks))

    @pytest.mark.parametrize("seed", range(15, 30))
    def test_narrowed_candidates(self, seed):
        lex, trans = models(seed)
        self._check(lex, trans, random_cohorts(random.Random(2000 + seed), lex))

    def _check(self, lex, trans, cohorts, decode=None):
        decode = decode if decode is not None else decode_sentence(lex, trans, cohorts)
        ap = aprime_dicts(lex, cohorts, [sorted(t.index for t in c.candidates) for c in cohorts])
        total, post, _, best_w = brute_force_decode(trans, ap, [list(d) for d in ap])
        assert decode.log_likelihood == pytest.approx(math.log(total), rel=1e-9)
        for t, want in enumerate(post):
            got = decode.posteriors[t]
            assert list(got) == sorted(want)  # keyed by ascending tag id
            for i, p in want.items():
                assert got[i] == pytest.approx(p, rel=1e-9, abs=1e-12)
            assert sum(got.values()) == pytest.approx(1.0, abs=1e-9)
        if decode.viterbi_ids is None:
            return
        w = path_weight(trans, ap, decode.viterbi_ids)
        assert w >= (1.0 - 1e-9) * best_w
        assert math.exp(decode.viterbi_logp) == pytest.approx(w, rel=1e-9)


class TestCohortInput:
    def test_a_repeated_candidate_is_one_state(self):
        lex, trans = models(seed=0)
        t0, t1, t2, t3 = TS.word_tags()

        def decode(first):
            cohorts = [Cohort(Token("wa"), first), Cohort(Token("wb"), [t2, t3])]
            return decode_sentence(lex, trans, cohorts)

        got, want = decode([t0, t0, t1]), decode([t0, t1])
        assert got.posteriors == want.posteriors
        assert got.log_likelihood == want.log_likelihood
        assert (got.viterbi_ids, got.viterbi_logp) == (want.viterbi_ids, want.viterbi_logp)
        for post in got.posteriors:
            assert abs(sum(post.values()) - 1.0) <= 1e-12


class TestInvariances:
    def test_rescaling_lexical_scores_changes_nothing(self):
        lex, trans = models(seed=5)
        cohorts = cohorts_for_tokens(lex, [Token("wa"), Token("wb"), Token("wa")])
        base = decode_sentence(lex, trans, cohorts)
        orig = LexicalModel.converse_lexical_probs
        lex.converse_lexical_probs = (
            lambda s, tags: orig(lex, s, tags) * (7.0 if s == "wa" else 1.0)
        )
        try:
            scaled = decode_sentence(lex, trans, cohorts)
        finally:
            del lex.converse_lexical_probs
        for p, q in zip(base.posteriors, scaled.posteriors):
            for i in p:
                assert q[i] == pytest.approx(p[i], abs=1e-12)
        assert scaled.viterbi_ids == base.viterbi_ids
        assert scaled.log_likelihood == pytest.approx(
            base.log_likelihood + 2 * math.log(7.0)
        )

    def test_forward_tables_normalized(self):
        lex, trans = models(seed=3)
        lattice = build_lattice(lex, trans, random_cohorts(random.Random(3), lex))
        alphas, scales = forward(lattice)
        for a in alphas:
            assert a.sum() == pytest.approx(1.0, abs=1e-12)
        assert all(s > 0 for s in scales)

    def test_backward_base_case_is_ones(self):
        lex, trans = models(seed=4)
        cohorts = random_cohorts(random.Random(4), lex)
        lattice = build_lattice(lex, trans, cohorts)
        _, scales = forward(lattice)
        betas = backward(lattice, scales)
        assert np.array_equal(betas[-1], np.ones_like(betas[-1]))
        prev = len(lattice.ids[-2]) if len(cohorts) > 1 else 1
        assert betas[-1].shape == (1, prev, len(lattice.ids[-1]))

    def test_posterior_tables_normalized(self):
        lex, trans = models(seed=6)
        lattice = build_lattice(lex, trans, random_cohorts(random.Random(6), lex))
        alphas, scales = forward(lattice)
        gammas = state_posteriors(alphas, backward(lattice, scales))
        for g in gammas:
            assert g.sum() == pytest.approx(1.0, abs=1e-12)

    def test_unambiguous_sentence(self):
        lex, trans = models(seed=7)
        a, b = TS.tag("A"), TS.tag("B")
        cohorts = [Cohort(Token("wa"), [a]), Cohort(Token("wb"), [b])]
        decode = decode_sentence(lex, trans, cohorts)
        bid = trans.space.boundary_id
        want = (
            math.log(trans.probs[bid, bid, a.index])
            + math.log(lex.converse_lexical_probs("wa", [a.index])[0])
            + math.log(trans.probs[bid, a.index, b.index])
            + math.log(lex.converse_lexical_probs("wb", [b.index])[0])
        )
        assert decode.log_likelihood == pytest.approx(want, rel=1e-12)
        assert decode.viterbi_logp == pytest.approx(want, rel=1e-12)
        assert decode.viterbi_ids == [a.index, b.index]
        assert decode.posteriors == [{a.index: 1.0}, {b.index: 1.0}]

    def test_single_word_sentence(self):
        lex, trans = models(seed=8)
        decode = decode_sentence(lex, trans, cohorts_for_tokens(lex, [Token("wc")]))
        assert sum(decode.posteriors[0].values()) == pytest.approx(1.0)
        assert len(decode.viterbi_ids) == 1


class TestTieBreaking:
    def test_uniform_lattice_picks_smallest_indices(self):
        # untrained models: every path has identical weight, so both the
        # Viterbi path and the posterior primaries must fall back to the
        # smallest tag index at every position
        with pytest.warns(UserWarning):
            lex = LexicalModel.train([], TS)
        trans = TransitionModel.train([], TS)
        cohorts = cohorts_for_tokens(lex, [Token("x"), Token("y"), Token("z")])
        decode = decode_sentence(lex, trans, cohorts)
        a = TS.tag("A")
        assert decode.viterbi_ids == [a.index] * 3
        for post in decode.posteriors:
            vals = list(post.values())
            assert vals == pytest.approx([vals[0]] * len(vals))
        for mode in (MODE_POSTERIOR, MODE_VITERBI):
            result = apply_threshold(decode, 1.0, mode)
            assert all(w.primary == a for w in result.words)


class TestDeadLattice:
    def _sparse_models(self):
        corpus = [AnnotatedSentence([Token("aa")], [TS.tag("A")])]
        lex = LexicalModel.train(corpus, TS, SmoothingConfig(k=0.0, class_mix=0.0))
        trans = TransitionModel.train(corpus, TS, k=0.0)
        return lex, trans

    def test_forward_raises_at_impossible_transition(self):
        lex, trans = self._sparse_models()
        a = TS.tag("A")
        cohorts = [Cohort(Token("aa"), [a]), Cohort(Token("aa"), [a])]
        with pytest.raises(DeadLatticeError, match=r"position 2 \('aa'\)"):
            forward(build_lattice(lex, trans, cohorts))

    def test_viterbi_raises_too(self):
        lex, trans = self._sparse_models()
        a = TS.tag("A")
        cohorts = [Cohort(Token("aa"), [a]), Cohort(Token("aa"), [a])]
        with pytest.raises(DeadLatticeError):
            viterbi(build_lattice(lex, trans, cohorts))

    def test_zero_lexical_score_kills_position_one(self):
        lex, trans = self._sparse_models()
        cohorts = [Cohort(Token("aa"), [TS.tag("B")])]
        with pytest.raises(DeadLatticeError, match="position 1"):
            forward(build_lattice(lex, trans, cohorts))

    def test_empty_sentence_rejected(self):
        lex, trans = models(seed=0)
        with pytest.raises(ValueError):
            build_lattice(lex, trans, [])


class TestRetention:
    def _decode(self, seed=11):
        lex, trans = models(seed)
        cohorts = cohorts_for_tokens(lex, [Token("wa"), Token("wb"), Token("wc")])
        return decode_sentence(lex, trans, cohorts)

    def test_threshold_one_keeps_exactly_one(self):
        decode = self._decode()
        for mode in (MODE_POSTERIOR, MODE_VITERBI):
            result = apply_threshold(decode, 1.0, mode)
            for w in result.words:
                assert w.retained == [w.primary]

    def test_threshold_zero_keeps_all_candidates(self):
        decode = self._decode()
        result = apply_threshold(decode, 0.0)
        for w, cohort in zip(result.words, decode.cohorts):
            assert set(w.retained) == set(cohort.candidates)

    def test_retained_sets_nest_as_threshold_drops(self):
        decode = self._decode()
        prev = None
        for theta in (1.0, 0.7, 0.3, 0.1, 0.0):
            cur = [set(w.retained) for w in apply_threshold(decode, theta).words]
            if prev is not None:
                assert all(p <= c for p, c in zip(prev, cur))
            prev = cur

    def test_retained_ordered_by_posterior_then_index(self):
        decode = self._decode()
        for w in apply_threshold(decode, 0.0).words:
            keys = [(-w.posterior[t], t.index) for t in w.retained]
            assert keys == sorted(keys)

    def test_mode_selects_primary(self):
        decode = self._decode()
        vit = apply_threshold(decode, 1.0, MODE_VITERBI)
        post = apply_threshold(decode, 1.0, MODE_POSTERIOR)
        for t, (wv, wp) in enumerate(zip(vit.words, post.words)):
            assert wv.primary.index == decode.viterbi_ids[t]
            best = max(wp.posterior.items(), key=lambda kv: (kv[1], -kv[0].index))
            assert wp.primary == best[0]

    def test_primary_survives_threshold(self):
        decode = self._decode()
        result = apply_threshold(decode, 1.0)
        for w in result.words:
            assert w.primary in w.retained
            assert w.posterior[w.primary] < 1.0  # genuinely below the bar

    def test_apply_is_repeatable(self):
        decode = self._decode()
        before = [dict(p) for p in decode.posteriors]
        r1 = apply_threshold(decode, 0.4)
        r2 = apply_threshold(decode, 0.4)
        assert [w.retained for w in r1.words] == [w.retained for w in r2.words]
        assert [dict(p) for p in decode.posteriors] == before

    def test_validation(self):
        decode = self._decode()
        with pytest.raises(ValueError):
            apply_threshold(decode, 1.5)
        with pytest.raises(ValueError):
            apply_threshold(decode, -0.1)
        with pytest.raises(ValueError):
            apply_threshold(decode, 0.5, "bogus")

    def test_decode_then_threshold_end_to_end(self):
        lex, trans = models(seed=12)
        cohorts = cohorts_for_tokens(lex, [Token("wd"), Token(".")])
        result = apply_threshold(decode_sentence(lex, trans, cohorts, with_viterbi=False), 0.5)
        assert result.threshold == 0.5 and result.mode == MODE_POSTERIOR
        assert result.words[1].retained == [TS.tag("@dot")]

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_retention_contract(self, theta, seed):
        decode = self._decode(seed)
        for mode in (MODE_POSTERIOR, MODE_VITERBI):
            for w, cohort in zip(apply_threshold(decode, theta, mode).words, decode.cohorts):
                retained = set(w.retained)
                assert w.primary in retained
                assert retained <= set(cohort.candidates)
                assert {t for t, p in w.posterior.items() if p >= theta} <= retained


class TestViterbiOnRequest:
    def test_posterior_decode_has_no_viterbi_path(self):
        lex, trans = models(seed=16)
        cohorts = random_cohorts(random.Random(16), lex)
        full = decode_sentence(lex, trans, cohorts)
        lean = decode_sentence(lex, trans, cohorts, with_viterbi=False)
        assert lean.viterbi_ids is None and lean.viterbi_logp is None
        assert lean.posteriors == full.posteriors
        assert lean.log_likelihood == full.log_likelihood
        assert primary_ids(lean) == primary_ids(full)
        with pytest.raises(ValueError, match="no Viterbi path"):
            primary_ids(lean, MODE_VITERBI)
        with pytest.raises(ValueError, match="no Viterbi path"):
            apply_threshold(lean, 0.5, MODE_VITERBI)
        with pytest.raises(ValueError, match="unknown mode"):
            primary_ids(lean, "bogus")

    def test_dead_lattice_error_is_the_same_either_way(self):
        lex, trans = TestDeadLattice()._sparse_models()
        a = TS.tag("A")
        cohorts = [Cohort(Token("aa"), [a]), Cohort(Token("aa"), [a])]
        messages = []
        for with_viterbi in (True, False):
            with pytest.raises(DeadLatticeError) as err:
                decode_sentence(lex, trans, cohorts, with_viterbi=with_viterbi)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        with pytest.raises(DeadLatticeError) as err:
            viterbi(build_lattice(lex, trans, cohorts))
        assert str(err.value) == messages[0]

    def test_viterbi_matches_enumeration_on_shared_blocks(self):
        # full and repeated candidate sets, so viterbi reuses each logged block
        lex, trans, cohorts = TestLatticeBlocks()._dense_inputs(
            n_tags=4, n_words=8, sets=[slice(None)] * 4 + [slice(1, 4)] * 4
        )
        lattice = build_lattice(lex, trans, cohorts)
        assert lattice.tensors[1] is lattice.tensors[2]
        assert lattice.tensors[5] is lattice.tensors[6]
        [path], [logp] = viterbi(lattice)
        ap = [dict(zip(ids, ap.ravel())) for ids, ap in zip(lattice.ids, lattice.aprime)]
        _, _, best, best_w = brute_force_decode(trans, ap, lattice.ids)
        assert path == best
        assert math.exp(logp) == pytest.approx(best_w, rel=1e-9)


class TestCohortConstruction:
    def test_uses_model_candidates(self):
        lex, trans = models(seed=13)
        cohorts = cohorts_for_tokens(lex, [Token("wa"), Token(".")])
        assert cohorts[0].candidates == lex.candidate_tags("wa")
        assert [t.symbol for t in cohorts[1].candidates] == ["@dot"]

    def test_a_surface_is_looked_up_once_and_its_cohorts_share_the_list(self, monkeypatch):
        lex, trans = models(seed=13)
        looked_up = []
        candidate_tags = lex.candidate_tags
        monkeypatch.setattr(lex, "candidate_tags", lambda s: looked_up.append(s) or candidate_tags(s))
        cohorts = cohorts_for_tokens(lex, (Token(s) for s in ["wa", "wb", "wa", "wa"]))
        assert looked_up == ["wa", "wb"]
        assert cohorts[0].candidates is cohorts[2].candidates is cohorts[3].candidates

    def test_candidates_sorted_by_index_inside_lattice(self):
        lex, trans = models(seed=14)
        cohorts = [Cohort(Token("wa"), [TS.tag("C"), TS.tag("A")])]
        lattice = build_lattice(lex, trans, cohorts)
        assert lattice.ids[0] == [TS.tag("A").index, TS.tag("C").index]


class TestLatticeBlocks:
    def _dense_inputs(self, n_tags=30, n_words=40, sets=None):
        hmm = build_synthetic_hmm(n_tags=n_tags, vocab=200, seed=1)
        corpus = sample_corpus(hmm, 2000, seed=2)
        lex = LexicalModel.train(corpus, hmm.tagset)
        trans = TransitionModel.train(corpus, hmm.tagset)
        tags = list(hmm.tagset.word_tags())
        toks = [tok for sent in corpus for tok in sent.tokens][:n_words]
        sets = sets or [slice(None)] * len(toks)
        return lex, trans, [Cohort(tok, tags[s]) for tok, s in zip(toks, sets)]

    def _dense_lattice(self, n_tags=30, n_words=40):
        lex, trans, cohorts = self._dense_inputs(n_tags, n_words)
        return build_lattice(lex, trans, cohorts), trans

    def test_blocks_gather_the_transition_rows(self):
        full = slice(None)
        for sets in (
            [full] * 5,
            # full, partial and repeated candidate sets, so some steps share
            # a block and others gather a distinct one
            [full] * 4 + [slice(1, 4)] * 4 + [slice(0, 6, 2), full, slice(2, 3)],
        ):
            lex, trans, cohorts = self._dense_inputs(n_tags=6, n_words=len(sets), sets=sets)
            lattice = build_lattice(lex, trans, cohorts)
            prev_ids = [[trans.space.boundary_id]] + lattice.ids[:-2]
            for t, block in enumerate(lattice.tensors):
                for i, a in enumerate(prev_ids[t]):
                    for j, bb in enumerate(lattice.ids[t]):
                        assert np.array_equal(block[i, j], trans.probs[a, bb, lattice.ids[t + 1]])
                assert not block.flags.writeable

    def test_init_is_the_step_from_the_boundary(self):
        sets = [slice(1, 4), slice(None), slice(0, 6, 2)]
        lex, trans, cohorts = self._dense_inputs(n_tags=6, n_words=len(sets), sets=sets)
        lattice = build_lattice(lex, trans, cohorts)
        bid = trans.space.boundary_id
        assert lattice.init.shape == (1, 1, 3)
        assert np.array_equal(lattice.init, trans.probs[bid, bid, lattice.ids[0]][None, None])
        assert not lattice.init.flags.writeable
        steps = lattice.steps  # entry t is the step into position t
        assert len(steps) == len(lattice.ids) == len(lattice.tensors) + 1
        assert steps[0] is lattice.init
        assert all(s is t for s, t in zip(steps[1:], lattice.tensors))
        for t, step in enumerate(steps):
            assert step.shape[1:] == ((len(lattice.ids[t - 1]) if t else 1), len(lattice.ids[t]))

    def test_dense_interior_steps_share_one_read_only_block(self):
        lattice, _ = self._dense_lattice()
        assert lattice.tensors[0].shape == (1, 30, 30)
        assert all(block is lattice.tensors[1] for block in lattice.tensors[1:])
        for block in lattice.tensors:
            assert not block.flags.writeable

    def test_build_holds_a_few_blocks_not_one_per_position(self):
        lex, trans, cohorts = self._dense_inputs()
        build_lattice(lex, trans, cohorts)  # fills the probs array and lexical caches
        block_bytes = 30 * 30 * 30 * 8
        tracemalloc.start()
        try:
            lattice = build_lattice(lex, trans, cohorts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(lattice.tensors) == 39
        assert peak < 4 * block_bytes
        assert peak < 2 * block_bytes  # the one shared block, no log copy

    def test_viterbi_holds_a_few_blocks_not_one_per_position(self):
        lattice, _ = self._dense_lattice()
        block_bytes = lattice.tensors[1].nbytes  # (30, 30, 30) float64
        tracemalloc.start()
        try:
            viterbi(lattice)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(lattice.tensors) == 39
        assert peak < 4 * block_bytes
        # 39 one-byte backpointer arrays of 30 x 30; as intp they took 280,800 B
        assert peak < 3 * block_bytes


@functools.lru_cache(maxsize=None)
def sparse_models(seed: int, support_epsilon: float):
    """A synthetic HMM and models trained on its sample, with a lexicon that
    drops low-mass candidates: words have one to a few candidates, and the
    sets differ within most sentences, as sparse-83's lexicon gives them."""
    hmm = build_synthetic_hmm(n_tags=6, vocab=80, seed=seed, mean_len=4.0, ambiguous_frac=0.5)
    train = sample_corpus(hmm, 1500, seed=seed + 10)
    lex = LexicalModel.train(train, hmm.tagset, SmoothingConfig(support_epsilon=support_epsilon))
    return hmm, lex, TransitionModel.train(train, hmm.tagset)


def assert_same_decode(got, want):
    """Equal to the last bit: posteriors, likelihood and Viterbi path."""
    assert got.cohorts == want.cohorts
    assert got.posteriors == want.posteriors
    assert got.log_likelihood == want.log_likelihood
    assert got.viterbi_ids == want.viterbi_ids
    assert got.viterbi_logp == want.viterbi_logp


# Word-only sentences have every word tag as each word's candidates (one
# batch per length run); a "." has only @dot, so its sentence decodes alone.
SENTENCES = st.lists(
    st.lists(st.sampled_from(VOCAB + ["."] * 2), min_size=1, max_size=30),
    min_size=1,
    max_size=12,
)


class TestBatchedDecode:
    @given(
        st.integers(0, 3),
        SENTENCES,
        st.booleans(),
        st.sampled_from([1, 40, 200, 600, decoder.BATCH_CELLS]),
    )
    @settings(max_examples=60, deadline=None)
    def test_corpus_decode_equals_one_sentence_at_a_time(self, seed, surfaces, with_viterbi, cap):
        lex, trans = models(seed)
        corpus = [
            AnnotatedSentence([Token(w) for w in sent], [TS.tag("A")] * len(sent))
            for sent in surfaces
        ]
        with mock.patch.object(decoder, "BATCH_CELLS", cap):
            batched = decode_corpus(lex, trans, lexicon_cohorts(lex, corpus), with_viterbi)
        assert len(batched) == len(corpus)
        for sent, got in zip(corpus, batched):
            cohorts = cohorts_for_tokens(lex, sent.tokens)
            assert_same_decode(got, decode_sentence(lex, trans, cohorts, with_viterbi))
            if len(cohorts) <= 5:
                TestAgainstEnumeration()._check(lex, trans, cohorts, got)

    @given(
        st.integers(0, 2),
        st.sampled_from([0.01, 0.2]),
        st.integers(0, 2**32 - 1),
        st.integers(1, 80),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_mixed_cohorts_equal_one_sentence_at_a_time(
        self, seed, support_epsilon, draw_seed, words, with_viterbi
    ):
        hmm, lex, trans = sparse_models(seed, support_epsilon)
        corpus = sample_corpus(hmm, words, seed=draw_seed, max_sentence_len=12)
        want = [
            decode_sentence(lex, trans, cohorts_for_tokens(lex, sent.tokens), with_viterbi)
            for sent in corpus
        ]
        for cap in (1, 40, 300, decoder.BATCH_CELLS):
            with mock.patch.object(decoder, "BATCH_CELLS", cap):
                batched = decode_corpus(lex, trans, lexicon_cohorts(lex, corpus), with_viterbi)
            for got, one in zip(batched, want, strict=True):
                assert_same_decode(got, one)

    @given(
        st.integers(0, 3),
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.sampled_from([1, 40, decoder.BATCH_CELLS]),
    )
    @settings(max_examples=60, deadline=None)
    def test_analyser_cohorts_equal_one_sentence_at_a_time(self, seed, draw_seed, with_viterbi, cap):
        # random candidate subsets, each list object drawn from a small pool,
        # so surfaces share lists and a surface has several
        lex, trans = models(seed)
        rng = random.Random(draw_seed)
        word_tags = TS.word_tags()
        pool = [word_tags] + [rng.sample(word_tags, rng.randint(1, 4)) for _ in range(4)]
        sentences = [
            [Cohort(Token(rng.choice(VOCAB)), rng.choice(pool)) for _ in range(rng.randint(1, 8))]
            for _ in range(rng.randint(1, 10))
        ]
        want = [decode_sentence(lex, trans, s, with_viterbi) for s in sentences]
        with mock.patch.object(decoder, "BATCH_CELLS", cap):
            batched = decode_corpus(lex, trans, sentences, with_viterbi)
        for got, one in zip(batched, want, strict=True):
            assert_same_decode(got, one)

    @pytest.mark.parametrize("with_viterbi", [False, True])
    def test_a_column_belongs_to_one_surface_and_one_list(self, with_viterbi):
        lex, trans = models(seed=2)
        a, b, c, d = TS.word_tags()
        every, pair = [a, b, c, d], [a, c]
        sentences = [
            [Cohort(Token("wa"), every), Cohort(Token("wb"), every)],
            [Cohort(Token("wa"), [b, d]), Cohort(Token("wa"), every)],  # wa: a second list
            [Cohort(Token("wb"), pair), Cohort(Token("wc"), pair)],  # one list, two surfaces
            [Cohort(Token("wc"), [d, c, b, a]), Cohort(Token("wb"), every)],
        ]
        want = [decode_sentence(lex, trans, s, with_viterbi) for s in sentences]
        for got, one in zip(decode_corpus(lex, trans, sentences, with_viterbi), want, strict=True):
            assert_same_decode(got, one)

    def test_sparse_lexicons_mix_batched_and_lone_sentences(self):
        for seed in range(3):
            for support_epsilon in (0.01, 0.2):
                hmm, lex, _ = sparse_models(seed, support_epsilon)
                corpus = sample_corpus(hmm, 300, seed=99, max_sentence_len=12)
                columns = [
                    [decoder.Column(lex, c) for c in cohorts_for_tokens(lex, sent.tokens)]
                    for sent in corpus
                ]
                sizes = {len(col.ids) for row in columns for col in row}
                batches = decoder._batches(columns)
                assert len(sizes) > 1
                assert any(len(batch) > 1 for batch in batches)
                assert any(len({tuple(col.ids) for col in columns[b[0]]}) > 1 for b in batches)

    def test_one_forward_call_per_batch(self, monkeypatch):
        hmm = build_synthetic_hmm(n_tags=10, vocab=200, seed=1)
        lex = LexicalModel.train(sample_corpus(hmm, 3000, seed=2), hmm.tagset)
        trans = TransitionModel.train(sample_corpus(hmm, 3000, seed=2), hmm.tagset)
        corpus = sample_corpus(hmm, 5000, seed=3)[:150]
        assert len(corpus) == 150
        batch_sizes = []
        real_forward = decoder.forward

        def spy(lattice):
            batch_sizes.append(len(lattice.cohorts))
            return real_forward(lattice)

        monkeypatch.setattr(decoder, "forward", spy)
        decode_corpus(lex, trans, lexicon_cohorts(lex, corpus), with_viterbi=False)
        cells = sum(10 + (len(s) - 1) * 100 for s in corpus)
        assert sum(batch_sizes) == 150  # every sentence in one call
        assert len(batch_sizes) <= -(-cells // decoder.BATCH_CELLS) + 1
        batch_sizes.clear()
        punctuated = random_corpus(seed=4, n_sentences=40)
        sparse = [s for s in punctuated if s.tokens[-1].surface == "."]
        lex, trans = models(seed=4)
        decode_corpus(lex, trans, lexicon_cohorts(lex, sparse), with_viterbi=False)
        assert batch_sizes == [1] * len(sparse)

    def test_forward_tables_do_not_grow_with_the_corpus(self):
        hmm = build_synthetic_hmm(n_tags=10, vocab=200, seed=1)
        train = sample_corpus(hmm, 3000, seed=2)
        lex = LexicalModel.train(train, hmm.tagset)
        trans = TransitionModel.train(train, hmm.tagset)
        corpus = sample_corpus(hmm, 30000, seed=5)[:800]
        assert len(corpus) == 800
        # fills the lexicon cache
        decode_corpus(lex, trans, lexicon_cohorts(lex, corpus), with_viterbi=False)
        transient = []
        for size in (200, 800):
            cohorts = lexicon_cohorts(lex, corpus[:size])
            tracemalloc.start()
            try:
                decodes = decode_corpus(lex, trans, cohorts, with_viterbi=False)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            del decodes
            transient.append(peak - current)  # the decodes themselves are kept
        assert transient[1] <= transient[0] + 512 * 1024


class TestBatchErrors:
    """The first sentence, in order, that fails raises, as one at a time."""

    def _dead_after_one_word(self):
        corpus = [AnnotatedSentence([Token("aa")], [TS.tag("A")])]
        lex = LexicalModel.train(corpus, TS, SmoothingConfig(k=0.0, class_mix=0.0))
        trans = TransitionModel.train(corpus, TS, k=0.0)  # P(A | <s>, A) = 0
        return lex, trans

    @staticmethod
    def gold(*sentences):
        return [
            AnnotatedSentence([Token(w) for w in s.split()], [TS.tag("A")] * len(s.split()))
            for s in sentences
        ]

    def test_the_earlier_sentence_raises_though_the_longer_dies_first_in_its_batch(self):
        lex, trans = self._dead_after_one_word()
        corpus = self.gold("ok", "pp qq", "rr ss tt")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for with_viterbi in (False, True):
                with pytest.raises(DeadLatticeError, match=r"^dead lattice at position 2 \('qq'\)"):
                    decode_corpus(lex, trans, lexicon_cohorts(lex, corpus), with_viterbi)

    def test_the_earlier_sentence_raises_though_a_later_one_dies_sooner(self):
        # "aa aa cc" (every word A) dies at its third word, since A never
        # follows A A; "bb aa" (B then A) dies at its second word and,
        # having two candidate sets, is a batch of its own decoded first
        train = self.gold("aa aa", "cc")
        train.append(AnnotatedSentence([Token("bb")], [TS.tag("B")]))
        lex = LexicalModel.train(train, TS, SmoothingConfig(k=0.0, class_mix=0.0))
        trans = TransitionModel.train(train, TS, k=0.0)
        corpus = self.gold("aa aa", "aa aa cc")
        corpus.append(AnnotatedSentence([Token("bb"), Token("aa")], [TS.tag("B"), TS.tag("A")]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DeadLatticeError, match=r"^dead lattice at position 3 \('cc'\)"):
                decode_corpus(lex, trans, lexicon_cohorts(lex, corpus))
            with pytest.raises(DeadLatticeError, match=r"^dead lattice at position 2 \('aa'\)"):
                decode_corpus(lex, trans, lexicon_cohorts(lex, corpus[:1] + corpus[2:]))
        decode = decode_corpus(lex, trans, lexicon_cohorts(lex, corpus[:1]))[0]
        assert decode.posteriors == [{0: 1.0}] * 2
