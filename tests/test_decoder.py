from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ambitag.corpus import AnnotatedSentence, Cohort, Token
from ambitag.decoder import (
    MODE_POSTERIOR,
    MODE_VITERBI,
    apply_threshold,
    backward,
    build_lattice,
    cohorts_for_tokens,
    decode_sentence,
    forward,
    primary_ids,
    state_posteriors,
    tag_with_threshold,
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


def aprime_dicts(lex, cohorts, ids):
    return [
        {i: lex.converse_lexical_prob(c.token.surface, TS.by_index(i)) for i in pos_ids}
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

    def _check(self, lex, trans, cohorts):
        decode = decode_sentence(lex, trans, cohorts)
        ap = aprime_dicts(lex, cohorts, [[t.index for t in cs] for cs in decode.candidates])
        total, post, _, best_w = brute_force_decode(trans, ap, [list(d) for d in ap])
        assert decode.log_likelihood == pytest.approx(math.log(total), rel=1e-9)
        for t, want in enumerate(post):
            got = decode.posteriors[t]
            assert set(got) == set(want)
            for i, p in want.items():
                assert got[i] == pytest.approx(p, rel=1e-9, abs=1e-12)
            assert sum(got.values()) == pytest.approx(1.0, abs=1e-9)
        w = path_weight(trans, ap, decode.viterbi_ids)
        assert w >= (1.0 - 1e-9) * best_w
        assert math.exp(decode.viterbi_logp) == pytest.approx(w, rel=1e-9)


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
        assert betas[-1].shape[1] == len(lattice.ids[-1])

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
            math.log(trans.row(bid, bid)[a.index])
            + math.log(lex.converse_lexical_prob("wa", a))
            + math.log(trans.row(bid, a.index)[b.index])
            + math.log(lex.converse_lexical_prob("wb", b))
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
        for w, cands in zip(result.words, decode.candidates):
            assert set(w.retained) == set(cands)

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

    def test_tag_with_threshold_end_to_end(self):
        lex, trans = models(seed=12)
        cohorts = cohorts_for_tokens(lex, [Token("wd"), Token(".")])
        result = tag_with_threshold(lex, trans, cohorts, 0.5)
        assert result.threshold == 0.5 and result.mode == MODE_POSTERIOR
        assert result.words[1].retained == [TS.tag("@dot")]

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(0, 5))
    @settings(max_examples=30, deadline=None)
    def test_retention_contract(self, theta, seed):
        decode = self._decode(seed)
        for mode in (MODE_POSTERIOR, MODE_VITERBI):
            for w, cands in zip(apply_threshold(decode, theta, mode).words, decode.candidates):
                retained = set(w.retained)
                assert w.primary in retained
                assert retained <= set(cands)
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

    def test_tag_with_threshold_decodes_what_the_mode_reads(self, monkeypatch):
        lex, trans = models(seed=17)
        cohorts = cohorts_for_tokens(lex, [Token("wa"), Token("wb"), Token("wc")])
        want = decode_sentence(lex, trans, cohorts).viterbi_ids
        result = tag_with_threshold(lex, trans, cohorts, 1.0, MODE_VITERBI)
        assert [w.primary.index for w in result.words] == want

        def no_viterbi(lattice):
            raise AssertionError("viterbi ran")

        monkeypatch.setattr("ambitag.decoder.viterbi", no_viterbi)
        tag_with_threshold(lex, trans, cohorts, 0.5, MODE_POSTERIOR)

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
        path, logp = viterbi(lattice)
        ap = [dict(zip(ids, ap)) for ids, ap in zip(lattice.ids, lattice.aprime)]
        _, _, best, best_w = brute_force_decode(trans, ap, lattice.ids)
        assert path == best
        assert math.exp(logp) == pytest.approx(best_w, rel=1e-9)


class TestCohortConstruction:
    def test_uses_model_candidates(self):
        lex, trans = models(seed=13)
        cohorts = cohorts_for_tokens(lex, [Token("wa"), Token(".")])
        assert cohorts[0].candidates == lex.candidate_tags("wa")
        assert [t.symbol for t in cohorts[1].candidates] == ["@dot"]

    def test_candidates_sorted_by_index_inside_lattice(self):
        lex, trans = models(seed=14)
        cohorts = [Cohort(Token("wa"), [TS.tag("C"), TS.tag("A")])]
        lattice = build_lattice(lex, trans, cohorts)
        assert [t.symbol for t in lattice.cand[0]] == ["A", "C"]


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
                        assert np.array_equal(block[i, j], trans.row(a, bb)[lattice.ids[t + 1]])
                assert not block.flags.writeable

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
