from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ambitag.corpus import AnnotatedSentence, Token, parse_annotated
from ambitag.decoder import cohorts_for_tokens, tag_with_threshold
from ambitag.errors import ConfigError, InconsistentPriorError, TagInventoryError
from ambitag.lexicon import LexicalModel, SmoothingConfig, TrieNode
from ambitag.modelfile import dumps_model
from ambitag.ngram import TransitionModel
from ambitag.synth import build_synthetic_hmm, sample_corpus
from ambitag.tagset import WORD, TagSet, parse_tagset

from oracles import kl_divergence, recount_lexicon, trie_nodes

TS2 = parse_tagset("A\nB\n")
TS_NV = parse_tagset("N\nV\n@fullstop\n@semicolon\n")


def _train(text: str, ts=TS_NV, **cfg) -> LexicalModel:
    return LexicalModel.train(parse_annotated(text, ts), ts, SmoothingConfig(**cfg))


def bare_model(ts, priors, **cfg) -> LexicalModel:
    """A model with the given word-tag priors, no class distributions and
    an empty trie."""
    n = len(ts)
    return LexicalModel(ts, SmoothingConfig(**cfg), np.array(priors), np.zeros(n), {}, {}, ())


def hand_model(k=1.0, class_mix=0.0) -> LexicalModel:
    """Two-tag model with hand-set counts: root sees A 3x / B 1x, the
    suffix node for 's' sees B 2x.  Set by hand because the node counts
    are chosen for arithmetic: no corpus yields them, since a child never
    counts more of a tag than its root.
    """
    model = bare_model(TS2, [0.75, 0.25], k=k, class_mix=class_mix)
    assert list(model._anchor) == [0.5, 0.5]  # uniform over both supported tags
    model.class_dists = {n: model._anchor.copy() for n in ("capitalized", "all-caps", "infrequent")}
    model.root.tag_counts = {0: 3, 1: 1}
    model.root.total = 4
    s = model.root.children["s"] = TrieNode()
    s.tag_counts = {1: 2}
    s.total = 2
    return model


class TestBlendByHand:
    def test_root_level(self):
        model = hand_model()
        # unknown word with no matching suffix: only the root contributes
        v = model._dist_vector("qq")
        assert v == pytest.approx([0.7, 0.3], abs=1e-12)

    def test_child_level(self):
        model = hand_model()
        v = model._dist_vector("xs")
        assert v == pytest.approx([0.7 / 3, 2.3 / 3], abs=1e-12)

    def test_converse_score(self):
        model = hand_model()
        b = TS2.tag("B")
        assert model.converse_lexical_prob("xs", b) == pytest.approx((2.3 / 3) / 0.25)
        a = TS2.tag("A")
        assert model.converse_lexical_prob("xs", a) == pytest.approx((0.7 / 3) / 0.75)

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
        dist = model.tag_distribution("walk")
        assert dist[TS_NV.tag("N")] == pytest.approx(0.7)
        assert dist[TS_NV.tag("V")] == pytest.approx(0.3)

    def test_converse_scores(self):
        model = _train(WALK_CORPUS)
        assert model.converse_lexical_prob("walk", TS_NV.tag("N")) == pytest.approx(0.7 / 0.75)
        assert model.converse_lexical_prob("walk", TS_NV.tag("V")) == pytest.approx(0.3 / 0.25)

    def test_k_zero_single_tag_word_is_certain(self):
        text = "\n\n".join(["zz\tN"] * 100)
        model = _train(text, k=0.0)
        dist = model.tag_distribution("zz")
        assert dist == {TS_NV.tag("N"): 1.0}

    def test_lookup_levels_change_the_chain(self):
        # "walks" N 2x and "talks" V 6x share the suffix node for "-alks",
        # which branches; consulting it shifts mass toward V.
        text = "\n\n".join(["walks\tN"] * 2 + ["talks\tV"] * 6)
        deep = _train(text, known_lookup_levels=2)
        shallow = _train(text, known_lookup_levels=0)
        v = TS_NV.tag("V")
        assert shallow.tag_distribution("walks")[v] == pytest.approx(0.5 / 3)
        assert deep.tag_distribution("walks")[v] == pytest.approx(6.5 / 27)

    def test_known_threshold(self):
        model = _train(WALK_CORPUS, known_threshold=5)
        assert not model.is_known("walk")
        model = _train(WALK_CORPUS, known_threshold=4)
        assert model.is_known("walk")


class TestUnknownWord:
    def test_matched_prefix_of_path_by_hand(self):
        # "talk" shares root->k->l->a with the trie for "walk"; each node
        # carries the same aggregate counts {N:3, V:1}, so the chain is four
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
        model = _train(text, infrequent_cutoff=1)
        assert model.class_dists["infrequent"][TS_NV.tag("N").index] == 0.5


class TestPunctuation:
    MIXED = (
        ";\t@semicolon\n\n;\t@semicolon\n\n;\tN\n\n"
        ".\t@fullstop\n\n.\t@fullstop\n\nwalk\tV\n"
    )

    def test_exact_match_table_holds_all_observed_tags(self):
        model = _train(self.MIXED)
        dist = model.tag_distribution(";")
        assert dist[TS_NV.tag("@semicolon")] == pytest.approx(2 / 3)
        assert dist[TS_NV.tag("N")] == pytest.approx(1 / 3)
        assert len(dist) == 2

    def test_punct_surface_not_in_trie(self):
        model = _train(self.MIXED)
        assert ";" not in model.word_counts
        assert ";" in model.punct_table
        assert model.is_known(";")

    def test_separate_prior_family(self):
        model = _train(self.MIXED)
        semi = TS_NV.tag("@semicolon")
        assert model.punct_priors[semi.index] == pytest.approx(0.5)
        assert model.punct_priors[TS_NV.tag("@fullstop").index] == pytest.approx(0.5)
        # word prior still counts the N use of ";"
        assert model.priors[TS_NV.tag("N").index] == pytest.approx(0.5)
        assert model.converse_lexical_prob(";", semi) == pytest.approx((2 / 3) / 0.5)

    def test_candidates_are_exactly_observed(self):
        model = _train(self.MIXED)
        assert [t.symbol for t in model.candidate_tags(";")] == ["@semicolon", "N"]
        assert [t.symbol for t in model.candidate_tags(".")] == ["@fullstop"]


class TestDegenerate:
    def test_empty_corpus_warns_and_is_uniform(self):
        with pytest.warns(UserWarning, match="empty training corpus"):
            model = LexicalModel.train([], TS_NV)
        for t in TS_NV.word_tags():
            assert model.priors[t.index] == 0.5
            assert model.converse_lexical_prob("anything", t) == pytest.approx(1.0)
        assert [t.symbol for t in model.candidate_tags("anything")] == ["N", "V"]

    def test_punctuation_only_inventory_rejected(self):
        ts = parse_tagset("@dot\n@comma\n")
        corpus = parse_annotated(".\t@dot\n,\t@comma\n", ts)
        for sents in (corpus, []):
            with pytest.raises(TagInventoryError, match="no word tags"):
                LexicalModel.train(sents, ts)

    def test_inconsistent_prior_raises(self):
        model = bare_model(TS2, [1.0, 0.0])
        model._dist_cache["zz"] = np.array([0.5, 0.5])
        with pytest.raises(InconsistentPriorError, match="zz"):
            model.converse_lexical_prob("zz", TS2.tag("B"))

    def test_vector_scores_take_each_prior_from_the_tags_family(self):
        model = _train("walk\tN\nwalk\tV\n;\t@semicolon\n.\t@fullstop\n")
        for surface in ("walk", ";", ".", "unseen"):
            dist = model._dist_vector(surface)
            want = []
            for t in TS_NV:
                prior = (model.priors if t.cls == WORD else model.punct_priors)[t.index]
                want.append(dist[t.index] / prior if prior > 0.0 else 0.0)
            assert list(model.converse_lexical_probs(surface, list(TS_NV))) == want

    def test_vector_scores_name_the_first_inconsistent_tag(self):
        ts = parse_tagset("A\nB\nC\n")
        model = bare_model(ts, [1.0, 0.0, 0.0])
        model._dist_cache["zz"] = np.array([0.5, 0.0, 0.5])
        assert list(model.converse_lexical_probs("zz", [ts.tag("A"), ts.tag("B")])) == [0.5, 0.0]
        with pytest.raises(InconsistentPriorError, match=r"tag C has zero prior"):
            model.converse_lexical_probs("zz", [ts.tag("B"), ts.tag("C"), ts.tag("A")])

    def test_zero_prior_zero_mass_scores_zero(self):
        model = bare_model(TS2, [1.0, 0.0])
        model._dist_cache["qq"] = np.array([1.0, 0.0])
        assert model.converse_lexical_prob("qq", TS2.tag("B")) == 0.0

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


class TestCache:
    def test_unknown_surfaces_leave_the_cache_bounded(self):
        corpus = parse_annotated(WALK_CORPUS + "\n.\t@fullstop\n", TS_NV)
        model = LexicalModel.train(corpus, TS_NV)
        trans = TransitionModel.train(corpus, TS_NV)
        known = {s for s in [*model.word_counts, *model.punct_table] if model.is_known(s)}
        # 1000 distinct unseen surfaces, ten to a sentence, each ending in a known word
        sentences = [
            [Token(f"{'Qz' if i % 2 else 'qz'}{10 * i + j}") for j in range(10)]
            + [Token(sorted(known)[i % len(known)])]
            for i in range(100)
        ]

        def tag_all():
            out = []
            for tokens in sentences:
                result = tag_with_threshold(model, trans, cohorts_for_tokens(model, tokens), 0.1)
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


class TestTrieStructure:
    def test_reverse_insertion(self):
        model = _train(WALK_CORPUS)
        node = model.root
        for ch in "klaw":
            assert set(node.children) == {ch}
            node = node.children[ch]
        assert node.term_counts == {TS_NV.tag("N").index: 3, TS_NV.tag("V").index: 1}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_node_counts_the_words_ending_in_its_suffix(self, seed):
        hmm = build_synthetic_hmm(n_tags=6, vocab=80, seed=seed)
        corpus = sample_corpus(hmm, 400, seed=seed)
        model = LexicalModel.train(corpus, hmm.tagset)
        want: dict[str, Counter] = {}
        for sent in corpus:
            for tok, tag in zip(sent.tokens, sent.gold):
                w = tok.surface
                for i in range(len(w) + 1):
                    want.setdefault(w[i:], Counter())[tag.index] += 1
        got = dict(trie_nodes(model.root))
        assert set(got) == set(want)
        for suffix, node in got.items():
            assert node.tag_counts == want[suffix]
            assert node.total == want[suffix].total()

    def test_branching_definition(self):
        node = TrieNode()
        assert not node.branching
        node.children["a"] = TrieNode()
        assert not node.branching
        node.children["b"] = TrieNode()
        assert node.branching
        leaf = TrieNode()
        leaf.term_counts = {0: 1}
        assert leaf.branching


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

    @pytest.mark.filterwarnings("ignore:empty training corpus")
    @pytest.mark.parametrize("cutoff", [3, 0])
    @pytest.mark.parametrize("case", CASES)
    def test_train_equals_a_per_token_recount(self, case, cutoff):
        corpus, ts = self.CASES[case]()
        config = SmoothingConfig(infrequent_cutoff=cutoff)
        lex = LexicalModel.train(corpus, ts, config)
        want = recount_lexicon(corpus, ts, cutoff)
        assert np.array_equal(lex.priors, want["priors"])
        assert np.array_equal(lex.punct_priors, want["punct_priors"])
        assert list(lex.class_dists) == list(want["class_dists"])
        for name, dist in want["class_dists"].items():
            assert np.array_equal(lex.class_dists[name], dist), name
        assert list(lex.punct_table.items()) == list(want["punct_table"].items())
        assert list(lex.word_counts.items()) == list(want["word_counts"].items())
        recounted = LexicalModel(
            ts, config, want["priors"], want["punct_priors"], want["class_dists"],
            want["punct_table"], want["surfaces"].items(),
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
