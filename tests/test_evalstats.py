from __future__ import annotations

import math
import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from ambitag import evalstats
from ambitag.corpus import (
    AnnotatedSentence,
    Cohort,
    Token,
    parse_annotated,
    split_for_learning_curve,
    word_count,
)
from ambitag.decoder import (
    MODE_POSTERIOR, MODE_VITERBI, SentenceDecode, apply_threshold, cohorts_for_tokens,
)
from ambitag.errors import InputError
from ambitag.evalstats import (
    agreement_critical_rate,
    agreement_test,
    binomial_ci_halfwidth,
    decode_corpus,
    disagreement_rate,
    learning_curve,
    score,
    score_decodes,
    tradeoff_sweep,
)
from ambitag.lexicon import LexicalModel, SmoothingConfig
from ambitag.ngram import TransitionModel
from ambitag.tagset import parse_tagset

TS = parse_tagset("N\nV\n@dot\n")


def _train(text: str, **cfg):
    corpus = parse_annotated(text, TS)
    lex = LexicalModel.train(corpus, TS, SmoothingConfig(**cfg))
    trans = TransitionModel.train(corpus, TS)
    return lex, trans


class TestScoring:
    def test_planted_tag_flips(self):
        # the model tags "dog runs" as N V with certainty at threshold 1;
        # one of five gold sentences is flipped, planting exactly 2 errors
        lex, trans = _train("\n\n".join(["dog\tN\nruns\tV"] * 5))
        gold = parse_annotated(
            "\n\n".join(["dog\tN\nruns\tV"] * 4 + ["dog\tV\nruns\tN"]), TS
        )
        rep = score(gold, lex, trans, threshold=1.0)
        assert rep.words == 10
        assert rep.errors == 2
        assert rep.error_rate == 0.2
        assert rep.ambiguity == 1.0
        assert rep.unseen_words == 0
        assert rep.omissions == 0

    def test_unseen_and_omission_attribution(self):
        # V never occurs in training, so it has zero prior and can never be
        # a candidate: a gold-V word is an omission error at any threshold
        lex, trans = _train("\n\n".join(["dog\tN"] * 4))
        gold = parse_annotated(
            "\n\n".join(["dog\tN"] * 8 + ["cat\tN", "cup\tV"]), TS
        )
        for theta in (1.0, 0.5, 0.0):
            rep = score(gold, lex, trans, threshold=theta)
            assert rep.words == 10
            assert rep.errors == 1
            assert rep.error_rate == 0.1
            assert rep.unseen_words == 2  # cat and cup
            assert rep.unseen_errors == 1  # only cup is wrong
            assert rep.unseen_word_error_rate == 0.1
            assert rep.omissions == 1
            assert rep.lexical_omission_rate == 0.1

    def test_is_known_is_asked_once_per_distinct_surface(self, monkeypatch):
        lex, trans = _train("\n\n".join(["dog\tN"] * 4))
        gold = parse_annotated("\n\n".join(["dog\tN"] * 8 + ["cat\tN", "cup\tV", "cat\tN"]), TS)
        decodes = decode_corpus(lex, trans, [cohorts_for_tokens(lex, s.tokens) for s in gold])
        asked = []
        is_known = lex.is_known
        monkeypatch.setattr(lex, "is_known", lambda surface: asked.append(surface) or is_known(surface))
        rep = score_decodes(gold, decodes, lex, 1.0)
        assert sorted(asked) == ["cat", "cup", "dog"]
        assert (rep.unseen_words, rep.unseen_errors) == (3, 1)  # cat twice and cup

    def test_residual_error_equals_omission_rate_at_zero_threshold(self):
        # with everything retained, the only possible error is a candidate
        #-set omission, so the two rates coincide by construction
        lex, trans = _train("\n\n".join(["dog\tN"] * 3 + ["dog\tV"] * 1 + ["cup\tV"] * 2))
        rng = random.Random(9)
        gold = [
            AnnotatedSentence(
                [Token(rng.choice(["dog", "cup", "new"]))], [TS.tag(rng.choice(["N", "V"]))]
            )
            for _ in range(40)
        ]
        rep = score(gold, lex, trans, threshold=0.0)
        assert rep.error_rate == rep.lexical_omission_rate
        assert rep.errors == rep.omissions

    def test_ambiguity_counts_retained_tags(self):
        lex, trans = _train("\n\n".join(["dog\tN"] * 3 + ["dog\tV"]))
        gold = parse_annotated("\n\n".join(["dog\tN"] * 5), TS)
        assert score(gold, lex, trans, threshold=0.0).ambiguity == 2.0
        assert score(gold, lex, trans, threshold=1.0).ambiguity == 1.0

    def test_length_mismatches_fail_loud(self):
        lex, trans = _train("dog\tN\n")
        gold = parse_annotated("dog\tN\n", TS)
        decodes = decode_corpus(lex, trans, [cohorts_for_tokens(lex, s.tokens) for s in gold])
        with pytest.raises(InputError, match="mismatch"):
            score_decodes(gold + gold, decodes, lex, 1.0)
        two = parse_annotated("dog\tN\ndog\tN\n", TS)
        with pytest.raises(InputError, match="sentence 0"):
            score_decodes(two, decodes, lex, 1.0)

    def test_empty_corpus_rejected(self):
        lex, trans = _train("dog\tN\n")
        with pytest.raises(InputError, match="empty"):
            score_decodes([], [], lex, 1.0)

    def test_bad_threshold_and_mode_rejected(self):
        lex, trans = _train("dog\tN\n")
        gold = parse_annotated("dog\tN\n", TS)
        decodes = decode_corpus(lex, trans, [cohorts_for_tokens(lex, s.tokens) for s in gold])
        for theta in (1.5, -0.1, [0.5, 1.5]):
            with pytest.raises(ValueError, match="threshold must be in"):
                score_decodes(gold, decodes, lex, theta)
        for theta in (0.5, [0.5, 0.1]):
            with pytest.raises(ValueError, match="unknown mode"):
                score_decodes(gold, decodes, lex, theta, "bogus")


# Equivalence of the vectorised scorer with a word-by-word recount from
# apply_threshold, the per-word rule that `tag` uses.

TS4 = parse_tagset("N\nV\nA\n@dot\n")  # A never occurs in training: never a candidate
TRAIN4 = parse_annotated("\n\n".join(["dog\tN\nruns\tV\n.\t@dot"] * 3 + ["runs\tN"]), TS4)
LEX4 = LexicalModel.train(TRAIN4, TS4)
TRANS4 = TransitionModel.train(TRAIN4, TS4)
SURFACES = ["dog", "runs", ".", "cat", "Zz"]  # the last two are unseen
POSTERIOR_VALUES = [0.0, 0.1, 0.25, 0.5, 1.0]  # few values, so ties are common


def _recount(gold, decodes, lex, theta, mode):
    errors = retained = unseen_errors = omissions = 0
    for sent, dec in zip(gold, decodes):
        words = apply_threshold(dec, theta, mode).words
        for tok, gold_tag, w in zip(sent.tokens, sent.gold, words):
            retained += len(w.retained)
            omissions += gold_tag not in w.posterior
            if gold_tag not in w.retained:
                errors += 1
                unseen_errors += not lex.is_known(tok.surface)
    return errors, retained, unseen_errors, omissions


def _assert_matches_recount(gold, decodes, data, mode):
    # thresholds 0 and 1, plus posteriors that occur (exact ties) and any others;
    # a posterior can round to just above 1, which is no valid threshold
    occurring = sorted(
        {min(p, 1.0) for dec in decodes for post in dec.posteriors for p in post.values()}
    )
    thresholds = [0.0, 1.0] + data.draw(
        st.lists(st.sampled_from(occurring) | st.floats(0.0, 1.0), max_size=4)
    )
    reports = score_decodes(gold, decodes, LEX4, thresholds, mode)
    assert len(reports) == len(thresholds)
    words = word_count(gold)
    for theta, rep in zip(thresholds, reports):
        errors, retained, unseen_errors, omissions = _recount(gold, decodes, LEX4, theta, mode)
        assert (rep.errors, rep.unseen_errors, rep.omissions) == (errors, unseen_errors, omissions)
        assert rep.ambiguity == retained / words
        assert rep == score_decodes(gold, decodes, LEX4, theta, mode)


@st.composite
def _synthetic_sentence(draw):
    """A gold sentence and a made-up decode of it: random candidate sets,
    posteriors from a few values (so ties are common) or any float in
    [0, 1], and a Viterbi tag among the candidates."""
    tokens, gold, cands, posts, vit = [], [], [], [], []
    for _ in range(draw(st.integers(1, 5))):
        ids = sorted(draw(st.sets(st.integers(0, len(TS4) - 1), min_size=1)))
        tokens.append(Token(draw(st.sampled_from(SURFACES))))
        gold.append(draw(st.sampled_from(TS4.tags)))
        cands.append([TS4.by_index(i) for i in ids])
        value = st.sampled_from(POSTERIOR_VALUES) | st.floats(0.0, 1.0)
        posts.append({i: draw(value) for i in ids})
        vit.append(draw(st.sampled_from(ids)))
    cohorts = [Cohort(tok, cs) for tok, cs in zip(tokens, cands)]
    return AnnotatedSentence(tokens, gold), SentenceDecode(cohorts, posts, vit, 0.0, 0.0)


class TestVectorisedScoring:
    @given(
        data=st.data(),
        sentences=st.lists(_synthetic_sentence(), min_size=1, max_size=4),
        mode=st.sampled_from([MODE_POSTERIOR, MODE_VITERBI]),
    )
    @settings(max_examples=200, deadline=None)
    def test_synthetic_posteriors_match_recount(self, data, sentences, mode):
        gold, decodes = map(list, zip(*sentences))
        _assert_matches_recount(gold, decodes, data, mode)

    @given(
        data=st.data(),
        sentences=st.lists(
            st.lists(
                st.tuples(st.sampled_from(SURFACES), st.sampled_from(TS4.tags)),
                min_size=1, max_size=6,
            ),
            min_size=1, max_size=4,
        ),
        mode=st.sampled_from([MODE_POSTERIOR, MODE_VITERBI]),
    )
    @settings(max_examples=100, deadline=None)
    def test_decoded_corpus_matches_recount(self, data, sentences, mode):
        gold = [
            AnnotatedSentence([Token(s) for s, _ in sent], [tag for _, tag in sent])
            for sent in sentences
        ]
        cohorts = [cohorts_for_tokens(LEX4, s.tokens) for s in gold]
        _assert_matches_recount(gold, decode_corpus(LEX4, TRANS4, cohorts), data, mode)


class TestTradeoff:
    def _fixture(self):
        text = "\n\n".join(
            ["dog\tN\nruns\tV"] * 6 + ["runs\tN"] * 2 + ["dog\tV\nruns\tV"] * 2
        )
        lex, trans = _train(text)
        gold = parse_annotated("\n\n".join(["dog\tN\nruns\tV"] * 10), TS)
        return gold, lex, trans

    def test_sweep_is_monotone(self):
        gold, lex, trans = self._fixture()
        table = tradeoff_sweep(gold, lex, trans, [1.0, 0.9, 0.5, 0.2, 0.05, 0.0])
        ambs = [a for _, a, _ in table.rows]
        errs = [e for _, _, e in table.rows]
        assert all(a1 <= a2 for a1, a2 in zip(ambs, ambs[1:]))
        assert all(e1 >= e2 for e1, e2 in zip(errs, errs[1:]))

    def test_single_threshold_matches_score(self):
        gold, lex, trans = self._fixture()
        table = tradeoff_sweep(gold, lex, trans, [0.3])
        rep = score(gold, lex, trans, threshold=0.3)
        assert table.rows == [(0.3, rep.ambiguity, rep.error_rate)]

    def test_csv_and_table_rendering(self):
        gold, lex, trans = self._fixture()
        table = tradeoff_sweep(gold, lex, trans, [1.0, 0.0])
        csv = table.to_csv()
        lines = csv.splitlines()
        assert lines[0] == "threshold,ambiguity,error_rate"
        assert len(lines) == 3 and csv.endswith("\n")
        assert lines[1].startswith("1.0,")
        text = table.to_table()
        assert "Threshold" in text and len(text.splitlines()) == 3

    def test_one_lookup_per_distinct_surface_in_one_cohort_build(self, monkeypatch):
        gold, lex, trans = self._fixture()
        gold += parse_annotated("cat\tN\nruns\tV\n\ncat\tN\n", TS)
        looked_up, builds = [], []
        candidate_tags, build = lex.candidate_tags, evalstats.cohorts_for_tokens
        monkeypatch.setattr(lex, "candidate_tags", lambda s: looked_up.append(s) or candidate_tags(s))
        monkeypatch.setattr(
            evalstats, "cohorts_for_tokens", lambda *a: builds.append(a) or build(*a)
        )
        tradeoff_sweep(gold, lex, trans, [1.0, 0.5, 0.0])
        assert sorted(looked_up) == ["cat", "dog", "runs"]
        assert len(builds) == 1


class TestLearningCurve:
    def _corpus(self):
        rng = random.Random(17)
        return [
            AnnotatedSentence(
                [Token(f"w{rng.randint(0, 30)}") for _ in range(5)],
                [TS.tag(rng.choice(["N", "V"])) for _ in range(5)],
            )
            for _ in range(40)
        ]

    def test_points_report_actual_slice_sizes(self):
        corpus = self._corpus()
        points = learning_curve(corpus, [20, 60], 50, seed=5, tagset=TS)
        eval_slice, slices = split_for_learning_curve(corpus, [20, 60], 50, seed=5)
        assert [p[0] for p in points] == [word_count(s) for s in slices]
        assert all(0.0 <= e <= 1.0 for _, e in points)

    def test_single_point_matches_direct_score(self):
        corpus = self._corpus()
        points = learning_curve(corpus, [50], 50, seed=5, tagset=TS)
        eval_slice, slices = split_for_learning_curve(corpus, [50], 50, seed=5)
        lex = LexicalModel.train(slices[0], TS)
        trans = TransitionModel.train(slices[0], TS)
        rep = score(eval_slice, lex, trans, threshold=1.0)
        assert points == [(word_count(slices[0]), rep.error_rate)]

    def test_zero_training_words_gives_tiebreak_baseline(self):
        # an untrained model has uniform posteriors everywhere, so the
        # primary tag is always the lowest-index word tag (here N) and the
        # error rate is exactly the share of gold tags that are not N
        corpus = self._corpus()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            points = learning_curve(corpus, [0], 50, seed=5, tagset=TS)
        eval_slice, _ = split_for_learning_curve(corpus, [0], 50, seed=5)
        n = TS.tag("N")
        share = sum(t == n for s in eval_slice for t in s.gold) / word_count(eval_slice)
        assert points[0] == (0, pytest.approx(1.0 - share))


class TestIntervals:
    def test_frozen_values(self):
        assert binomial_ci_halfwidth(0.0472, 55000, 0.95) == pytest.approx(
            0.0017723056411848867, abs=1e-12
        )
        assert binomial_ci_halfwidth(0.0351, 35000, 0.95) == pytest.approx(
            0.0019280077720996312, abs=1e-12
        )

    def test_inverse_sqrt_n_scaling(self):
        a = binomial_ci_halfwidth(0.3, 1000)
        b = binomial_ci_halfwidth(0.3, 4000)
        assert a / b == pytest.approx(2.0, abs=1e-12)

    def test_wider_at_higher_confidence(self):
        widths = [binomial_ci_halfwidth(0.1, 5000, lv) for lv in (0.90, 0.95, 0.99)]
        assert widths[0] < widths[1] < widths[2]

    def test_degenerate_rates(self):
        assert binomial_ci_halfwidth(0.0, 100) == 0.0
        assert binomial_ci_halfwidth(1.0, 100) == 0.0

    def test_validation(self):
        with pytest.raises(InputError):
            binomial_ci_halfwidth(1.2, 100)
        with pytest.raises(InputError):
            binomial_ci_halfwidth(0.5, 0)
        for level in (0.0, 1.0, 1.5):
            with pytest.raises(InputError):
                binomial_ci_halfwidth(0.5, 100, level)


class TestAgreement:
    def test_frozen_critical_rates(self):
        assert agreement_critical_rate(55000, 0.03, 0.05) == pytest.approx(
            0.028803555916178152, abs=1e-12
        )
        assert agreement_critical_rate(55000, 0.008, 0.05) == pytest.approx(
            0.007375191769759404, abs=1e-12
        )

    def test_critical_rate_below_null_and_rising_with_n(self):
        rates = [agreement_critical_rate(n, 0.03, 0.05) for n in (1000, 10000, 100000)]
        assert all(r < 0.03 for r in rates)
        assert rates[0] < rates[1] < rates[2]

    def test_stricter_alpha_lowers_the_bar(self):
        rates = [agreement_critical_rate(55000, 0.03, a) for a in (0.01, 0.05, 0.10)]
        assert rates[0] < rates[1] < rates[2]

    def test_decision_rule(self):
        t = agreement_test(55000, 0.03, 0.05, observed=21 / 55000)
        assert t.reject is True
        t = agreement_test(55000, 0.03, 0.05, observed=0.03)
        assert t.reject is False
        crit = agreement_critical_rate(55000, 0.03, 0.05)
        assert agreement_test(55000, 0.03, 0.05, observed=crit).reject is True
        assert agreement_test(55000, 0.03, 0.05).reject is None

    def test_validation(self):
        with pytest.raises(InputError):
            agreement_critical_rate(0, 0.03, 0.05)
        with pytest.raises(InputError):
            agreement_critical_rate(100, 0.0, 0.05)
        with pytest.raises(InputError):
            agreement_critical_rate(100, 0.03, 1.0)
        for observed in (-3.0, -1e-12, 1.5, math.nan, math.inf, -math.inf):
            with pytest.raises(InputError, match="observed rate"):
                agreement_test(100, 0.03, 0.05, observed)
        assert agreement_test(100, 0.03, 0.05, 0.0).reject is True
        assert agreement_test(100, 0.03, 0.05, 1.0).reject is False


def _flat_corpus(n_sent, sent_len, tag="N"):
    t = TS.tag(tag)
    return [
        AnnotatedSentence([Token(f"w{i}_{j}") for j in range(sent_len)], [t] * sent_len)
        for i in range(n_sent)
    ]


class TestDisagreement:
    def test_planted_diff_count(self):
        a = _flat_corpus(550, 100)
        b = _flat_corpus(550, 100)
        v = TS.tag("V")
        rng = random.Random(2)
        flipped = set()
        while len(flipped) < 21:
            flipped.add((rng.randrange(550), rng.randrange(100)))
        for si, wi in flipped:
            b[si].gold[wi] = v
        rate, diffs = disagreement_rate(a, b)
        assert rate == 21 / 55000
        assert len(diffs) == 21
        assert {(si, wi) for si, wi, *_ in diffs} == flipped
        assert all(ta == "N" and tb == "V" for _, _, _, ta, tb in diffs)

    def test_small_fixture(self):
        a = _flat_corpus(100, 10)
        b = _flat_corpus(100, 10)
        for si in range(7):
            b[si].gold[0] = TS.tag("V")
        rate, diffs = disagreement_rate(a, b)
        assert rate == 0.007
        assert diffs[0][:3] == (0, 0, "w0_0")

    def test_identical_corpora(self):
        a = _flat_corpus(3, 4)
        rate, diffs = disagreement_rate(a, a)
        assert rate == 0.0 and diffs == []

    def test_surface_mismatch_is_an_input_error(self):
        a = _flat_corpus(2, 3)
        b = _flat_corpus(2, 3)
        b[1].tokens[2] = Token("other")
        with pytest.raises(InputError, match="sentence 1, word 2"):
            disagreement_rate(a, b)

    def test_shape_mismatches(self):
        a = _flat_corpus(2, 3)
        with pytest.raises(InputError, match="sentence count"):
            disagreement_rate(a, a[:1])
        b = _flat_corpus(1, 3) + _flat_corpus(1, 4)
        with pytest.raises(InputError, match="sentence 1"):
            disagreement_rate(a, b)
        with pytest.raises(InputError, match="empty"):
            disagreement_rate([], [])
