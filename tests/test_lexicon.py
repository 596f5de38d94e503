from __future__ import annotations

import random
import re
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ambitag.corpus import AnnotatedSentence, Token, parse_annotated
from ambitag.decoder import apply_threshold, cohorts_for_tokens, decode_sentence
from ambitag.errors import ConfigError, InputError, TagInventoryError
from ambitag.lexicon import LexicalModel, SmoothingConfig
from ambitag.modelfile import dumps_model, loads_model
from ambitag.ngram import TransitionModel
from ambitag.synth import build_synthetic_hmm, sample_corpus
from ambitag.tagset import WORD, TagSet, parse_tagset

from oracles import known_word_dist, kl_divergence, recount_lexicon, unknown_word_dist, word_dist

TS2 = parse_tagset("A\nB\n")
TS_TABLE = parse_tagset("A\nB\nC\nD\n@dot\n")

# Letters that make surfaces suffixes of one another, a space, a tab and a
# backslash (written escaped in a model file), non-ASCII and astral ones.
SURFACE_CHARS = ["a", "b", " ", "\t", "\\", "é", "真", "\u00a0", "\U0001f600"]


@st.composite
def surface_tables(draw):
    """{surface: {tag id: count}} over the word tags of TS_TABLE, holding a
    suffix of each drawn word too; counts are small or near 2^63, so that
    sums of them pass 2^63."""
    words = draw(st.lists(st.text(SURFACE_CHARS, min_size=1, max_size=5), min_size=1, max_size=8))
    cuts = draw(st.lists(st.integers(0, 4), min_size=len(words), max_size=len(words)))
    words += [w[c % len(w) :] for w, c in zip(words, cuts)]
    count = st.one_of(st.integers(1, 3), st.integers(2**62, 2**63 - 1))
    return {w: draw(st.dictionaries(st.integers(0, 3), count, min_size=1, max_size=3)) for w in words}
TS_NV = parse_tagset("N\nV\n@fullstop\n@semicolon\n")


def _train(text: str, ts=TS_NV, **cfg) -> LexicalModel:
    return LexicalModel.train(parse_annotated(text, ts), ts, SmoothingConfig(**cfg))


def bare_model(ts, priors, **cfg) -> LexicalModel:
    """A model with the given word-tag priors, no class distributions and
    an empty suffix table."""
    n = len(ts)
    return LexicalModel(ts, SmoothingConfig(**cfg), np.array(priors), np.zeros(n), {}, {}, {})


def hand_model(k=1.0, class_mix=0.0) -> LexicalModel:
    """Two-tag model with hand-set counts and priors: the surface 'xa'
    seen as A 3x and 's' as B 1x, so the empty suffix sees A 3x / B 1x and
    the suffix 's' B 1x.  The priors, 0.75 / 0.25, are set by hand too."""
    anchor = np.array([0.5, 0.5])  # uniform over both supported tags
    dists = {n: anchor.copy() for n in ("capitalized", "all-caps", "infrequent")}
    config = SmoothingConfig(k=k, class_mix=class_mix)
    priors = np.array([0.75, 0.25])
    model = LexicalModel(TS2, config, priors, np.zeros(2), dists, {}, {"xa": {0: 3}, "s": {1: 1}})
    assert list(model._anchor) == list(anchor)
    return model


class TestBlendByHand:
    def test_root_level(self):
        model = hand_model()
        # unknown word with no matching suffix: only the root contributes
        v = model._dist_vector("qq")
        assert v == pytest.approx([0.7, 0.3], abs=1e-12)

    def test_child_level(self):
        model = hand_model()
        # the root's (0.7, 0.3) blended with the suffix 's': (0.7 / 2, 1.3 / 2)
        v = model._dist_vector("xs")
        assert v == pytest.approx([0.35, 0.65], abs=1e-12)

    def test_converse_score(self):
        model = hand_model()
        b = TS2.tag("B").index
        assert model.converse_lexical_probs("xs", [b])[0] == pytest.approx(0.65 / 0.25)
        a = TS2.tag("A").index
        assert model.converse_lexical_probs("xs", [a])[0] == pytest.approx(0.35 / 0.75)

    def test_large_k_approaches_anchor(self):
        model = hand_model(k=1e9)
        v = model._dist_vector("xs")
        assert v == pytest.approx([0.5, 0.5], abs=1e-6)

    def test_k_zero_is_raw_relative_frequency(self):
        model = hand_model(k=0.0)
        assert model._dist_vector("qq") == pytest.approx([0.75, 0.25])
        assert model._dist_vector("xs") == pytest.approx([0.0, 1.0])

    def test_distance_to_anchor_shrinks_with_k(self):
        anchor = np.array([0.5, 0.5])
        kls = [
            kl_divergence(hand_model(k=k)._dist_vector("xs"), anchor)
            for k in (0.01, 0.1, 1.0, 10.0, 100.0, 1e4)
        ]
        assert all(a >= b - 1e-15 for a, b in zip(kls, kls[1:]))


WALK_CORPUS = "walk\tN\n\nwalk\tN\n\nwalk\tN\n\nwalk\tV\n"


class TestTrainedKnownWord:
    def test_priors_are_relative_frequencies(self):
        model = _train(WALK_CORPUS)
        assert model.priors[TS_NV.tag("N").index] == 0.75
        assert model.priors[TS_NV.tag("V").index] == 0.25

    def test_terminal_blends_own_counts_with_anchor(self):
        # no branching ancestors in a one-word trie, so the chain is just
        # anchor -> terminal: (3 + 0.5)/5 and (1 + 0.5)/5
        model = _train(WALK_CORPUS)
        dist = model._dist_vector("walk")
        assert dist[TS_NV.tag("N").index] == pytest.approx(0.7)
        assert dist[TS_NV.tag("V").index] == pytest.approx(0.3)

    def test_converse_scores(self):
        model = _train(WALK_CORPUS)
        n, v = model.converse_lexical_probs("walk", [TS_NV.tag("N").index, TS_NV.tag("V").index])
        assert n == pytest.approx(0.7 / 0.75)
        assert v == pytest.approx(0.3 / 0.25)

    def test_k_zero_single_tag_word_is_certain(self):
        text = "\n\n".join(["zz\tN"] * 100)
        model = _train(text, k=0.0)
        # N certain, every other tag of TS_NV at zero
        assert list(model._dist_vector("zz")) == [1.0, 0.0, 0.0, 0.0]

    def test_lookup_levels_change_the_chain(self):
        # "walks" N 2x and "talks" V 6x share the suffix node for "-alks",
        # which branches; consulting it shifts mass toward V.
        text = "\n\n".join(["walks\tN"] * 2 + ["talks\tV"] * 6)
        deep = _train(text, levels=2)
        shallow = _train(text, levels=0)
        v = TS_NV.tag("V").index
        assert shallow._dist_vector("walks")[v] == pytest.approx(0.5 / 3)
        assert deep._dist_vector("walks")[v] == pytest.approx(6.5 / 27)

    def test_known_threshold(self):
        model = _train(WALK_CORPUS, known_threshold=5)
        assert not model.is_known("walk")
        model = _train(WALK_CORPUS, known_threshold=4)
        assert model.is_known("walk")


class TestUnknownWord:
    def test_matched_prefix_of_path_by_hand(self):
        # "talk" shares the suffixes "", "k", "lk" and "alk" with "walk"; each
        # carries the same summed counts {N:3, V:1}, so the chain is four
        # successive blends, then an even mix with the class distribution
        # (which falls back to the anchor here).
        model = _train(WALK_CORPUS)
        d = np.array([0.5, 0.5])
        for _ in range(4):
            d = np.array([(3 + d[0]) / 5, (1 + d[1]) / 5])
        expected = 0.5 * d + 0.5 * np.array([0.5, 0.5])
        got = model._dist_vector("talk")
        assert got[TS_NV.tag("N").index] == pytest.approx(expected[0], abs=1e-12)
        assert got[TS_NV.tag("V").index] == pytest.approx(expected[1], abs=1e-12)
        assert not model.is_known("talk")

    def test_class_mix_zero_is_pure_suffix(self):
        model = _train(WALK_CORPUS, class_mix=0.0)
        got = model._dist_vector("talk")
        assert got[TS_NV.tag("N").index] == pytest.approx(0.7496)

    def test_capitalized_class(self):
        # "Paris" is frequent (above the cutoff), so the capitalized class is
        # pure N while the infrequent class is pure V via "rare".
        text = "\n\n".join(["Paris\tN"] * 4 + ["rare\tV"] * 2)
        model = _train(text)
        n = TS_NV.tag("N").index
        cap = model.class_dists["capitalized"]
        assert cap[n] == 1.0
        assert model.class_dists["infrequent"][TS_NV.tag("V").index] == 1.0
        # unseen capitalized word leans toward N more than an unseen lower one
        assert model._dist_vector("Xyzzy")[n] > model._dist_vector("xyzzy")[n]

    def test_infrequent_class_uses_cutoff(self):
        # "rare" appears twice (<= cutoff 3), "run" four times (excluded)
        text = "\n\n".join(["rare\tN"] * 2 + ["run\tV"] * 4)
        model = _train(text)
        infreq = model.class_dists["infrequent"]
        assert infreq[TS_NV.tag("N").index] == 1.0
        model = _train(text, cutoff=1)
        assert model.class_dists["infrequent"][TS_NV.tag("N").index] == 0.5


class TestPunctuation:
    MIXED = (
        ";\t@semicolon\n\n;\t@semicolon\n\n;\tN\n\n"
        ".\t@fullstop\n\n.\t@fullstop\n\nwalk\tV\n"
    )

    def test_exact_match_table_holds_all_observed_tags(self):
        model = _train(self.MIXED)
        dist = model._dist_vector(";")
        assert dist[TS_NV.tag("@semicolon").index] == pytest.approx(2 / 3)
        assert dist[TS_NV.tag("N").index] == pytest.approx(1 / 3)
        assert np.count_nonzero(dist) == 2

    def test_punct_surface_not_in_trie(self):
        model = _train(self.MIXED)
        assert ";" not in model.surfaces
        assert ";" in model.punct_table
        assert model.is_known(";")

    def test_separate_prior_family(self):
        model = _train(self.MIXED)
        semi = TS_NV.tag("@semicolon")
        assert model.punct_priors[semi.index] == pytest.approx(0.5)
        assert model.punct_priors[TS_NV.tag("@fullstop").index] == pytest.approx(0.5)
        # word prior still counts the N use of ";"
        assert model.priors[TS_NV.tag("N").index] == pytest.approx(0.5)
        assert model.converse_lexical_probs(";", [semi.index])[0] == pytest.approx((2 / 3) / 0.5)

    def test_candidates_are_exactly_observed(self):
        model = _train(self.MIXED)
        assert [t.symbol for t in model.candidate_tags(";")] == ["@semicolon", "N"]
        assert [t.symbol for t in model.candidate_tags(".")] == ["@fullstop"]


class TestDegenerate:
    def test_empty_corpus_is_uniform_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = LexicalModel.train([], TS_NV)
        for t in TS_NV.word_tags():
            assert model.priors[t.index] == 0.5
            assert model.converse_lexical_probs("anything", [t.index])[0] == pytest.approx(1.0)
        assert [t.symbol for t in model.candidate_tags("anything")] == ["N", "V"]

    def test_k_zero_without_word_surfaces_defers_to_the_anchor(self):
        # the empty suffix's run has no counts, and k = 0 gives it no weight
        model = _train(".\t@fullstop\n", k=0.0)
        assert model._dist_vector("walk").tolist() == [0.5, 0.5, 0.0, 0.0]
        assert model.converse_lexical_probs("walk", [0, 1]).tolist() == [1.0, 1.0]

    def test_punctuation_only_inventory_rejected(self):
        ts = parse_tagset("@dot\n@comma\n")
        corpus = parse_annotated(".\t@dot\n,\t@comma\n", ts)
        for sents in (corpus, []):
            with pytest.raises(TagInventoryError, match="no word tags"):
                LexicalModel.train(sents, ts)

    def test_vector_scores_take_each_prior_from_the_tags_family(self):
        model = _train("walk\tN\nwalk\tV\n;\t@semicolon\n.\t@fullstop\n")
        for surface in ("walk", ";", ".", "unseen"):
            dist = model._dist_vector(surface)
            want = []
            for t in TS_NV:
                prior = (model.priors if t.cls == WORD else model.punct_priors)[t.index]
                want.append(dist[t.index] / prior if prior > 0.0 else 0.0)
            assert list(model.converse_lexical_probs(surface, [t.index for t in TS_NV])) == want

    def test_zero_prior_zero_mass_scores_zero(self):
        model = bare_model(TS2, [1.0, 0.0])
        model._dist_cache["qq"] = np.array([1.0, 0.0])
        assert model.converse_lexical_probs("qq", [TS2.tag("B").index])[0] == 0.0

    @pytest.mark.parametrize(
        "source, message",
        [
            ("surfaces", "tag V has zero prior but word surface 'walk' counts it"),
            ("punct_table", "tag @fullstop has zero prior but punct-table surface '.' counts it"),
            ("capitalized", "tag V has zero prior but class capitalized gives it mass"),
            ("all-caps", "tag V has zero prior but class all-caps gives it mass"),
            ("infrequent", "tag V has zero prior but class infrequent gives it mass"),
        ],
    )
    def test_a_tag_with_mass_but_zero_prior_is_refused(self, source, message):
        # word priors cover N only, punctuation priors @semicolon only
        n, v, dot, semi = range(4)
        priors, punct_priors = np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 0.0, 1.0])
        tables = {"surfaces": {"walk": {n: 3}}, "punct_table": {";": {semi: 2, n: 1}}}
        dists = {name: priors.copy() for name in ("capitalized", "all-caps", "infrequent")}

        def build():
            return LexicalModel(
                TS_NV, SmoothingConfig(), priors, punct_priors, dists,
                tables["punct_table"], tables["surfaces"],
            )

        build()  # every source consistent
        if source in tables:
            extra = {"surfaces": ("walk", v), "punct_table": (".", dot)}[source]
            tables[source].setdefault(extra[0], {})[extra[1]] = 1
        else:
            dists[source] = np.array([0.5, 0.5, 0.0, 0.0])
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            build()

    def test_empty_surface_is_refused(self):
        n, v = TS_NV.tag("N"), TS_NV.tag("V")
        corpus = [AnnotatedSentence([Token(""), Token("a")], [n, v])]
        with pytest.raises(InputError, match="empty"):
            LexicalModel.train(corpus, TS_NV)
        with pytest.raises(InputError, match="empty"):
            LexicalModel(
                TS_NV, SmoothingConfig(), np.array([0.5, 0.5, 0.0, 0.0]), np.zeros(4), {}, {},
                {"a": {v.index: 1}, "": {n.index: 1}},
            )

    @pytest.mark.parametrize("row", [{}, {0: 2, 1: 0}, {0: 2**63}])
    @pytest.mark.parametrize("table, surface", [("surfaces", "a"), ("punct_table", ".")])
    def test_surface_counts_a_model_file_refuses_are_refused(self, table, surface, row):
        n = TS_NV.tag("N").index
        tables = {"surfaces": {"b": {n: 1}}, "punct_table": {";": {n: 1}}}
        tables[table][surface] = row
        with pytest.raises(InputError, match=f"surface '{surface}' needs counts"):
            LexicalModel(
                TS_NV, SmoothingConfig(), np.array([0.5, 0.5, 0.0, 0.0]),
                np.array([0.0, 0.0, 0.5, 0.5]), {}, tables["punct_table"], tables["surfaces"],
            )

    def test_config_validation(self):
        for k in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                SmoothingConfig(k=k)
        with pytest.raises(ConfigError):
            SmoothingConfig(support_epsilon=1.0)
        with pytest.raises(ConfigError):
            SmoothingConfig(class_mix=1.5)
        with pytest.raises(ConfigError):
            SmoothingConfig(known_threshold=0)
        with pytest.raises(ConfigError, match="^cutoff must be >= 0$"):
            SmoothingConfig(cutoff=-1)

    @pytest.mark.parametrize("field", ["levels", "cutoff", "known_threshold"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, np.bool_(True), "2"])
    def test_count_fields_take_only_integers(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be an integer, got "):
            SmoothingConfig(**{field: value})

    @pytest.mark.parametrize("field", ["k", "support_epsilon", "class_mix"])
    @pytest.mark.parametrize("value", [True, False, np.bool_(True)])
    def test_float_fields_refuse_bools(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be a real number, got "):
            SmoothingConfig(**{field: value})

    def test_float_fields_take_numpy_floats_and_ints(self):
        config = SmoothingConfig(k=np.float32(0.5), support_epsilon=np.float64(0.01), class_mix=1)
        assert (config.k, config.support_epsilon, config.class_mix) == (0.5, 0.01, 1)

    def test_numpy_integer_fields_save_as_plain_ones(self):
        corpus = parse_annotated(WALK_CORPUS, TS_NV)
        trans = TransitionModel.train(corpus, TS_NV)
        config = SmoothingConfig(levels=np.int64(2), cutoff=np.int32(3), known_threshold=np.uint8(1))
        text = dumps_model(LexicalModel.train(corpus, TS_NV, config), trans)
        assert text == dumps_model(LexicalModel.train(corpus, TS_NV), trans)


class TestCache:
    def test_unknown_surfaces_leave_the_cache_bounded(self):
        corpus = parse_annotated(WALK_CORPUS + "\n.\t@fullstop\n", TS_NV)
        model = LexicalModel.train(corpus, TS_NV)
        trans = TransitionModel.train(corpus, TS_NV)
        known = {s for s in [*model.surfaces, *model.punct_table] if model.is_known(s)}
        # 1000 distinct unseen surfaces, ten to a sentence, each ending in a known word
        sentences = [
            [Token(f"{'Qz' if i % 2 else 'qz'}{10 * i + j}") for j in range(10)]
            + [Token(sorted(known)[i % len(known)])]
            for i in range(100)
        ]

        def tag_all():
            out = []
            for tokens in sentences:
                cohorts = cohorts_for_tokens(model, tokens)
                result = apply_threshold(decode_sentence(model, trans, cohorts, with_viterbi=False), 0.1)
                out.append([(w.retained, w.posterior) for w in result.words])
            return out

        first = tag_all()
        assert set(model._dist_cache) == known
        assert tag_all() == first
        assert set(model._dist_cache) == known


class TestCandidates:
    def test_epsilon_strictly_filters(self):
        model = _train(WALK_CORPUS, support_epsilon=0.3)
        # dist for "walk" is (0.7, 0.3): V sits exactly on epsilon -> dropped
        assert [t.symbol for t in model.candidate_tags("walk")] == ["N"]

    def test_nothing_above_epsilon_keeps_the_most_probable_tag(self):
        model = _train(WALK_CORPUS, support_epsilon=0.9)
        # dist for "walk" is (0.7, 0.3): nothing clears 0.9, so N stays alone
        assert [t.symbol for t in model.candidate_tags("walk")] == ["N"]
        # a tie goes to the smaller tag index
        model._dist_cache["qq"] = np.array([0.2, 0.4, 0.4, 0.0])
        assert [t.symbol for t in model.candidate_tags("qq")] == ["V"]

    def test_zero_epsilon_with_positive_k_covers_support(self):
        model = _train(WALK_CORPUS + "\n.\t@fullstop\n")
        for surface in ("walk", "talk", "Xyzzy", "qq"):
            got = {t.index for t in model.candidate_tags(surface)}
            assert got >= set(np.flatnonzero(model._anchor))

    def test_order_is_mass_then_index(self):
        model = _train(WALK_CORPUS)
        cands = model.candidate_tags("walk")
        masses = [model._dist_vector("walk")[t.index] for t in cands]
        assert masses == sorted(masses, reverse=True)

    @given(
        st.lists(
            st.tuples(st.text("ab", min_size=1, max_size=4), st.sampled_from(["N", "V"])),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_distributions_normalized(self, pairs):
        text = "\n\n".join(f"{w}\t{t}" for w, t in pairs)
        model = _train(text)
        for surface in ("a", "b", "ab", "ba", "zz", "aaaa", "Ab"):
            assert model._dist_vector(surface).sum() == pytest.approx(1.0, abs=1e-12)


def assert_lookups_match_the_oracle(model: LexicalModel, surfaces) -> None:
    """Each of `surfaces` looks up, bit for bit, what the oracles compute
    from the model's surface table alone."""
    table = dict(model.surfaces)
    for surface in surfaces:
        want = word_dist(table, model.priors, model.class_dists, model.config, surface)
        assert np.array_equal(model._dist_vector(surface), want), surface


class TestTrieStructure:
    def test_reverse_insertion(self):
        model = _train(WALK_CORPUS)
        counts = {TS_NV.tag("N").index: 3, TS_NV.tag("V").index: 1}
        assert model.surfaces == {"walk": counts}
        # an unseen word ending in each suffix of "walk", "" included
        suffixes = ["", "k", "lk", "alk", "walk"]
        assert_lookups_match_the_oracle(model, ["walk"] + [f"#{s}" for s in suffixes])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_node_counts_the_words_ending_in_its_suffix(self, seed):
        hmm = build_synthetic_hmm(n_tags=6, vocab=80, seed=seed)
        corpus = sample_corpus(hmm, 400, seed=seed)
        model = LexicalModel.train(corpus, hmm.tagset)
        want: dict[str, Counter] = {}
        for sent in corpus:
            for tok, tag in zip(sent.tokens, sent.gold):
                want.setdefault(tok.surface, Counter())[tag.index] += 1
        assert model.surfaces == want
        suffixes = {w[i:] for w in want for i in range(len(w) + 1)}
        # every surface, and an unseen word ending in each suffix of one
        assert_lookups_match_the_oracle(model, [*want, *(f"#{s}" for s in suffixes)])

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(table=surface_tables(), levels=st.integers(0, 3), k=st.sampled_from([0.0, 0.5, 1.0, 3.0]))
    @example(table={"a": {0: 1}, "ba": {1: 2}, "aba": {0: 3}, "b": {2: 1}}, levels=2, k=1.0)
    @example(table={"ab": {0: 2**63 - 1}, "b": {0: 2**63 - 1, 1: 1}}, levels=1, k=1.0)
    def test_table_its_twin_and_the_oracle_agree(self, table, levels, k):
        """A model built from any surface table, and its dump-and-load twin,
        look every surface up as the oracles do; so does an unseen word
        ending in each suffix, with one escaped and one non-ASCII character."""
        priors = np.array([0.25, 0.25, 0.25, 0.25, 0.0])
        dists = {name: priors.copy() for name in ("capitalized", "all-caps", "infrequent")}
        config = SmoothingConfig(k=k, levels=levels, known_threshold=2)
        model = LexicalModel(TS_TABLE, config, priors, np.zeros(5), dists, {}, table)
        twin, _ = loads_model(dumps_model(model, TransitionModel(TS_TABLE)))
        assert twin.surfaces == model.surfaces == table
        suffixes = {w[i:] for w in table for i in range(len(w) + 1)}
        surfaces = [*table, *(f"\t{s}" for s in suffixes), *(f"é{s}" for s in suffixes)]
        assert_lookups_match_the_oracle(model, surfaces)
        assert_lookups_match_the_oracle(twin, surfaces)

    @pytest.mark.parametrize("levels", [0, 1, 2, 3])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_known_lookups_match_the_oracle(self, seed, levels):
        corpus, ts = suffixed_corpus(seed)
        k = (0.5, 1.0, 2.5)[seed - 1]
        model = LexicalModel.train(corpus, ts, SmoothingConfig(k=k, levels=levels))
        assert model.surfaces and not model.punct_table
        for surface in model.surfaces:
            want = known_word_dist(model.surfaces, model.priors, k, levels, surface)
            assert np.array_equal(model._dist_vector(surface), want), surface

    @pytest.mark.parametrize("class_mix", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_unknown_lookups_match_the_oracle(self, seed, class_mix):
        corpus, ts = suffixed_corpus(seed)
        k = (0.5, 1.0, 2.5)[seed - 1]
        config = SmoothingConfig(k=k, known_threshold=3, class_mix=class_mix)
        model = LexicalModel.train(corpus, ts, config)
        words = list(model.surfaces)
        rng = random.Random(seed)
        letters = sorted({ch for w in words for ch in w}) + ["é", "Q"]
        rare = [w for w in words if sum(model.surfaces[w].values()) < 3]
        unseen = [rng.choice(letters) + w for w in words]
        unseen += [w.capitalize() for w in words] + [w.upper() for w in words]
        unseen += ["".join(rng.choices(letters, k=rng.randint(1, 8))) for _ in range(100)]
        unknown = rare + [w for w in unseen if w not in model.surfaces]
        assert rare and all(not model.is_known(w) for w in unknown)
        for surface in unknown:
            want = unknown_word_dist(
                model.surfaces, model.priors, model.class_dists, k, class_mix, surface
            )
            assert np.array_equal(model._dist_vector(surface), want), surface

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_the_oracle_corpora_hold_both_kinds_of_branching(self, seed):
        corpus, _ = suffixed_corpus(seed)
        surfaces = {tok.surface for sent in corpus for tok in sent.tokens}
        suffixes = {w[i:] for w in surfaces for i in range(len(w) + 1)}

        def width(suffix):
            return len({x for x in suffixes if len(x) == len(suffix) + 1 and x.endswith(suffix)})

        inner = [s for s in surfaces if any(w != s and w.endswith(s) for w in surfaces)]
        # surfaces that branch only because they are surfaces, and suffixes
        # that branch only because two characters extend them
        assert any(width(s) == 1 for s in inner)
        assert any(width(x) >= 2 for x in suffixes - surfaces)


def suffixed_corpus(seed: int):
    """A synthetic corpus plus a copy of every fourth sentence with each
    word cut to its second half, so that many surfaces are also suffixes of
    other surfaces."""
    hmm = build_synthetic_hmm(n_tags=6, vocab=80, seed=seed)
    corpus = sample_corpus(hmm, 400, seed=seed)
    for sent in corpus[::4]:
        halves = [Token(t.surface[len(t.surface) // 2 :]) for t in sent.tokens]
        corpus.append(AnnotatedSentence(halves, sent.gold))
    return corpus, hmm.tagset


def punctuated_corpus(seed: int, n_punct: int, words: int = 3000):
    """A synthetic corpus whose first `n_punct` tags are punctuation tags,
    with each sentence's first word capitalised and five-letter words in
    capitals, so every table and class distribution has entries; about a
    third of the surfaces carry two tags."""
    hmm = build_synthetic_hmm(n_tags=8, vocab=300, seed=seed)
    ts = TagSet([("@" if t.index < n_punct else "") + t.symbol for t in hmm.tagset])
    corpus = []
    for sent in sample_corpus(hmm, words, seed=seed):
        surfaces = [s.upper() if len(s) == 5 else s for s in (t.surface for t in sent.tokens)]
        surfaces[0] = surfaces[0].capitalize()
        gold = [ts.tags[t.index] for t in sent.gold]
        corpus.append(AnnotatedSentence([Token(s) for s in surfaces], gold))
    return corpus, ts


class TestRecount:
    """Training counts each distinct (surface, tag) pair once; it must equal a
    token-by-token recount."""

    CASES = {
        "no-punctuation": lambda: punctuated_corpus(1, 0),
        "two-punctuation-tags": lambda: punctuated_corpus(2, 2),
        "one-word-tag": lambda: punctuated_corpus(3, 7),
        "punctuation-tokens-only": lambda: (
            parse_annotated(".\t@fullstop\n;\t@semicolon\n\n.\t@fullstop\n", TS_NV), TS_NV
        ),
        "empty": lambda: ([], TS_NV),
    }

    @pytest.mark.parametrize("cutoff", [3, 0])
    @pytest.mark.parametrize("case", CASES)
    def test_train_equals_a_per_token_recount(self, case, cutoff):
        corpus, ts = self.CASES[case]()
        config = SmoothingConfig(cutoff=cutoff)
        lex = LexicalModel.train(corpus, ts, config)
        want = recount_lexicon(corpus, ts, cutoff)
        assert np.array_equal(lex.priors, want["priors"])
        assert np.array_equal(lex.punct_priors, want["punct_priors"])
        assert list(lex.class_dists) == list(want["class_dists"])
        for name, dist in want["class_dists"].items():
            assert np.array_equal(lex.class_dists[name], dist), name
        assert list(lex.punct_table.items()) == list(want["punct_table"].items())
        assert list(lex.surfaces.items()) == list(want["surfaces"].items())
        recounted = LexicalModel(
            ts, config, want["priors"], want["punct_priors"], want["class_dists"],
            want["punct_table"], want["surfaces"],
        )
        trans = TransitionModel(ts)
        assert dumps_model(lex, trans) == dumps_model(recounted, trans)

    def test_the_cases_cover_every_table(self):
        corpus, ts = punctuated_corpus(2, 2)
        want = recount_lexicon(corpus, ts, 3)
        word_ids = {t.index for t in ts.word_tags()}
        # punctuation surfaces that also carry a word tag, and word surfaces
        # with several tags
        assert any(len(row) > 1 and word_ids & set(row) for row in want["punct_table"].values())
        assert any(len(row) > 1 for row in want["surfaces"].values())
        for name in ("capitalized", "all-caps", "infrequent"):
            assert want["class_dists"][name].sum() == pytest.approx(1.0)
