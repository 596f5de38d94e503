from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from ambitag.corpus import (
    AnnotatedSentence,
    Token,
    format_annotated,
    format_cohorts,
    parse_annotated,
    parse_cohorts,
    split_corpus,
    split_for_learning_curve,
    word_count,
    word_shape,
)
from ambitag.errors import CorpusFormatError, InsufficientCorpusError
from ambitag.tagset import parse_tagset


@pytest.fixture
def ts():
    return parse_tagset("DET-SG/PL\nN-NOM-SG\nV-SUBJUNCTIVE\nV-IMP\nV-INF\nV-PRES-BASE\n@fullstop\n")


class TestShape:
    def test_reference_cases(self):
        assert word_shape("Walk") == "capitalized"
        assert word_shape("NATO") == "all-caps"
        assert word_shape("walk") == "lower"
        assert word_shape("3.14") == "other"

    def test_single_capital_is_capitalized(self):
        assert word_shape("I") == "capitalized"

    @given(st.text(min_size=1, max_size=12))
    def test_exhaustive_and_exclusive(self, s):
        assert word_shape(s) in {"lower", "capitalized", "all-caps", "other"}

    def test_token_shape_derived(self):
        assert Token("NATO").shape == "all-caps"
        assert Token("x").shape == "lower"


class TestAnnotated:
    def test_two_line_sentence(self, ts):
        sents = parse_annotated("the\tDET-SG/PL\nwalk\tN-NOM-SG\n", ts)
        assert len(sents) == 1 and len(sents[0]) == 2
        assert sents[0].tokens[0].surface == "the"
        assert sents[0].gold[1].symbol == "N-NOM-SG"

    def test_empty_file(self, ts):
        assert parse_annotated("", ts) == []

    def test_unknown_tag_names_line(self, ts):
        with pytest.raises(CorpusFormatError, match=":3:"):
            parse_annotated("a\tN-NOM-SG\nb\tN-NOM-SG\nc\tXYZ\n", ts)

    def test_arity_mismatch(self, ts):
        with pytest.raises(CorpusFormatError):
            parse_annotated("oneword\n", ts)
        with pytest.raises(CorpusFormatError, match="one tag"):
            parse_annotated("w\tN-NOM-SG V-INF\n", ts)

    def test_sentence_breaks_and_comments(self, ts):
        text = "# gold corpus\na\tN-NOM-SG\n\nb\tV-INF\n"
        sents = parse_annotated(text, ts)
        assert [len(s) for s in sents] == [1, 1]

    def test_round_trip(self, ts):
        text = "the\tDET-SG/PL\nwalk\tN-NOM-SG\n\nwalk\tV-INF\n.\t@fullstop\n"
        sents = parse_annotated(text, ts)
        assert format_annotated(sents) == text
        # and idempotently
        assert format_annotated(parse_annotated(format_annotated(sents), ts)) == text

    def test_sentence_invariants(self, ts):
        with pytest.raises(ValueError):
            AnnotatedSentence([], [])
        with pytest.raises(ValueError):
            AnnotatedSentence([Token("a")], [])


class TestCohorts:
    def test_walk_line(self, ts):
        line = "walk\tV-SUBJUNCTIVE V-IMP V-INF V-PRES-BASE N-NOM-SG\n"
        sents = parse_cohorts(line, ts)
        assert len(sents[0]) == 1
        assert [t.symbol for t in sents[0][0].candidates] == [
            "V-SUBJUNCTIVE", "V-IMP", "V-INF", "V-PRES-BASE", "N-NOM-SG",
        ]

    def test_singleton(self, ts):
        sents = parse_cohorts("the\tDET-SG/PL\n", ts)
        assert [t.symbol for t in sents[0][0].candidates] == ["DET-SG/PL"]

    def test_zero_tags_rejected(self, ts):
        with pytest.raises(CorpusFormatError):
            parse_cohorts("walk\n", ts)
        with pytest.raises(CorpusFormatError):
            parse_cohorts("walk\t\n", ts)

    def test_candidate_order_preserved(self, ts):
        sents = parse_cohorts("w\tV-INF V-IMP\n", ts)
        assert [t.symbol for t in sents[0][0].candidates] == ["V-INF", "V-IMP"]

    def test_repeated_symbol_collapsed_in_place(self, ts):
        sents = parse_cohorts("w\tV-INF V-IMP V-INF N-NOM-SG V-IMP\n", ts)
        assert [t.symbol for t in sents[0][0].candidates] == ["V-INF", "V-IMP", "N-NOM-SG"]

    def test_unknown_symbol_names_line_and_symbol(self, ts):
        with pytest.raises(CorpusFormatError, match=r"<string>:2: unknown tag symbol 'BOGUS'"):
            parse_cohorts("the\tDET-SG/PL\nw\tV-INF BOGUS V-INF\n", ts)

    def test_round_trip(self, ts):
        text = "walk\tV-INF N-NOM-SG\n\nthe\tDET-SG/PL\n"
        assert format_cohorts(parse_cohorts(text, ts)) == text

    def test_retained_written_when_present(self, ts):
        sents = parse_cohorts("walk\tV-INF N-NOM-SG\n", ts)
        sents[0][0].retained = [ts.tag("N-NOM-SG")]
        assert format_cohorts(sents) == "walk\tN-NOM-SG\n"


def _mk_corpus(ts, n_sentences, words_per_sentence=5):
    tag = ts.tags[0]
    return [
        AnnotatedSentence(
            [Token(f"w{i}_{j}") for j in range(words_per_sentence)],
            [tag] * words_per_sentence,
        )
        for i in range(n_sentences)
    ]


class TestSplits:
    def test_learning_curve_nested_and_disjoint(self, ts):
        corpus = _mk_corpus(ts, 20, 5)  # 100 words
        eval_slice, slices = split_for_learning_curve(corpus, [20, 40], 30, seed=7)
        assert word_count(eval_slice) == 30
        assert word_count(slices[0]) == 20
        assert word_count(slices[1]) == 40
        ids = lambda sl: {id(s) for s in sl}
        assert ids(slices[0]) <= ids(slices[1])
        assert not ids(eval_slice) & ids(slices[1])

    def test_whole_remainder(self, ts):
        corpus = _mk_corpus(ts, 10, 5)
        eval_slice, slices = split_for_learning_curve(corpus, [40], 10, seed=0)
        assert word_count(slices[0]) == 40
        assert len(eval_slice) + len(slices[0]) == 10

    def test_empty_training_slice(self, ts):
        corpus = _mk_corpus(ts, 4, 5)
        _, slices = split_for_learning_curve(corpus, [0], 10, seed=0)
        assert slices[0] == []

    def test_insufficient_corpus_reports_deficit(self, ts):
        corpus = _mk_corpus(ts, 4, 5)  # 20 words
        with pytest.raises(InsufficientCorpusError, match="deficit 30"):
            split_for_learning_curve(corpus, [40], 10, seed=0)

    def test_reproducible_from_seed(self, ts):
        corpus = _mk_corpus(ts, 30, 3)
        a = split_for_learning_curve(corpus, [30], 15, seed=42)
        b = split_for_learning_curve(corpus, [30], 15, seed=42)
        assert [s.tokens[0].surface for s in a[0]] == [s.tokens[0].surface for s in b[0]]
        assert [s.tokens[0].surface for s in a[1][0]] == [s.tokens[0].surface for s in b[1][0]]

    def test_sentence_boundaries_respected(self, ts):
        corpus = _mk_corpus(ts, 10, 7)
        eval_slice, slices = split_for_learning_curve(corpus, [10], 10, seed=3)
        # overshoot is allowed, but only up to one sentence
        assert 10 <= word_count(eval_slice) < 10 + 7
        assert 10 <= word_count(slices[0]) < 10 + 7

    def test_split_corpus_exact_partition(self, ts):
        corpus = _mk_corpus(ts, 12, 5)
        split = split_corpus(corpus, 20, seed=1)
        assert word_count(split.held_out) == 20
        assert len(split.train) + len(split.held_out) == len(corpus)
        assert {id(s) for s in split.train} | {id(s) for s in split.held_out} == {
            id(s) for s in corpus
        }

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_partition_property_random_seeds(self, seed):
        ts_local = parse_tagset("A\n")
        corpus = _mk_corpus(ts_local, 8, 3)
        split = split_corpus(corpus, 9, seed=seed)
        assert not {id(s) for s in split.train} & {id(s) for s in split.held_out}
        assert word_count(split.train) + word_count(split.held_out) == 24
