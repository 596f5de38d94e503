from __future__ import annotations

import ast
import dataclasses
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import ambitag
from ambitag.corpus import (
    AnnotatedSentence,
    Cohort,
    Token,
    format_annotated,
    format_cohorts,
    parse_annotated,
    parse_cohorts,
    read_text,
    split_for_learning_curve,
    word_count,
    word_shape,
)
from ambitag.errors import ConfigError, CorpusFormatError, InputError, InsufficientCorpusError
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

    def test_token_holds_only_its_surface(self):
        assert [f.name for f in dataclasses.fields(Token)] == ["surface"]


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
        with pytest.raises(ValueError, match="^empty sentence$"):
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

    def test_cohort_without_candidates_rejected(self):
        with pytest.raises(ValueError, match="^cohort for 'walk' has no candidates$"):
            Cohort(Token("walk"), [])

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


class TestSharedTokens:
    TEXT = "walk\tV-INF\nthe\tDET-SG/PL\n\nwalk\tN-NOM-SG\nwalk\tV-IMP\n"

    def test_one_token_per_distinct_surface(self, ts):
        first, second = parse_annotated(self.TEXT, ts)
        walk = first.tokens[0]
        assert second.tokens[0] is walk and second.tokens[1] is walk
        assert first.tokens[1] is not walk and first.tokens[1].surface == "the"
        sents = parse_cohorts(self.TEXT, ts)
        assert sents[1][0].token is sents[0][0].token is sents[1][1].token

    def test_annotated_and_cohort_tokens_compare_equal(self, ts):
        annotated = parse_annotated(self.TEXT, ts)
        cohorts = parse_cohorts(self.TEXT, ts)
        for sent, cohort_sent in zip(annotated, cohorts):
            for tok, cohort in zip(sent.tokens, cohort_sent):
                assert tok == cohort.token and hash(tok) == hash(cohort.token)
        assert annotated[0].tokens[0] == Token("walk") != annotated[0].tokens[1]

    def test_gold_tags_are_the_tag_sets_own(self, ts):
        sents = parse_annotated(self.TEXT, ts)
        assert all(tag is ts.tag(tag.symbol) for sent in sents for tag in sent.gold)


ANNOTATED_ERRORS = [
    ("a\tN-NOM-SG\nbad line\n", "<string>:2: expected 'surface<TAB>TAG', got 'bad line'"),
    ("a\tN-NOM-SG\tV-INF\n", "<string>:1: expected 'surface<TAB>TAG', got 'a\\tN-NOM-SG\\tV-INF'"),
    ("\tN-NOM-SG\n", "<string>:1: empty field in '\\tN-NOM-SG'"),
    ("a\t \n", "<string>:1: empty field in 'a\\t '"),
    ("\tXYZ\n", "<string>:1: empty field in '\\tXYZ'"),
    ("a\tN-NOM-SG V-INF\n", "<string>:1: one tag per token expected, got 'N-NOM-SG V-INF'"),
    ("a\tXYZ\n", "<string>:1: unknown tag symbol 'XYZ'"),
    ("# c\n\na\tN-NOM-SG\n\nb\tn-nom-sg \n", "<string>:5: unknown tag symbol 'n-nom-sg'"),
]

COHORT_ERRORS = [
    ("walk\n", "<string>:1: expected 'surface<TAB>TAG( TAG)*', got 'walk'"),
    ("the\tDET-SG/PL\nwalk\t \n", "<string>:2: expected 'surface<TAB>TAG( TAG)*', got 'walk\\t '"),
    ("a\tb\tV-INF\n", "<string>:1: expected 'surface<TAB>TAG( TAG)*', got 'a\\tb\\tV-INF'"),
    ("\tV-INF\n", "<string>:1: empty field in '\\tV-INF'"),
    ("\n# c\nw\tV-INF XYZ\n", "<string>:3: unknown tag symbol 'XYZ'"),
]


class TestMalformedLines:
    @pytest.mark.parametrize("text,message", ANNOTATED_ERRORS)
    def test_annotated_message_and_line(self, ts, text, message):
        with pytest.raises(CorpusFormatError) as exc:
            parse_annotated(text, ts)
        assert str(exc.value) == message

    @pytest.mark.parametrize("text,message", COHORT_ERRORS)
    def test_cohort_message_and_line(self, ts, text, message):
        with pytest.raises(CorpusFormatError) as exc:
            parse_cohorts(text, ts)
        assert str(exc.value) == message

    def test_source_names_the_file(self, ts):
        with pytest.raises(CorpusFormatError, match=r"^gold\.txt:1: unknown tag symbol 'XYZ'$"):
            parse_annotated("a\tXYZ\n", ts, source="gold.txt")

    def test_whitespace_only_line_breaks_the_sentence(self, ts):
        sents = parse_annotated("a\tV-INF\n \t \nb\tV-INF  \n", ts)
        assert [[t.surface for t in s.tokens] for s in sents] == [["a"], ["b"]]


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

    @pytest.mark.parametrize(
        "sizes, eval_words, message",
        [
            ([], 10, "empty training size list"),
            ([-5, 10], 10, "training sizes must be >= 0, got -5"),
            ([10], 0, "eval words must be >= 1, got 0"),
            ([10], -5, "eval words must be >= 1, got -5"),
            ([10, 5], 10, r"training sizes must be ascending, got \[10, 5\]"),
        ],
    )
    def test_bad_sizes_rejected(self, ts, sizes, eval_words, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            split_for_learning_curve(_mk_corpus(ts, 10, 5), sizes, eval_words, seed=0)

    def test_insufficient_corpus_reports_deficit(self, ts):
        corpus = _mk_corpus(ts, 4, 5)  # 20 words
        with pytest.raises(InsufficientCorpusError, match="deficit 30"):
            split_for_learning_curve(corpus, [40], 10, seed=0)

    def test_an_overshooting_eval_slice_can_leave_too_few_words(self, ts):
        # 6 words are enough in total, but the eval slice takes a whole
        # 3-word sentence for its 1 word
        corpus = _mk_corpus(ts, 2, 3)
        with pytest.raises(InsufficientCorpusError, match=r"^needed 5 words, .* only 3 \(deficit 2\)$"):
            split_for_learning_curve(corpus, [5], 1, seed=0)

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

    def test_eval_and_whole_remainder_partition_the_corpus(self, ts):
        corpus = _mk_corpus(ts, 12, 5)
        eval_slice, (train,) = split_for_learning_curve(corpus, [40], 20, seed=1)
        assert word_count(eval_slice) == 20
        assert len(train) + len(eval_slice) == len(corpus)
        assert {id(s) for s in train} | {id(s) for s in eval_slice} == {id(s) for s in corpus}

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_partition_property_random_seeds(self, seed):
        tag = parse_tagset("A\n").tags[0]
        corpus = [  # 20 words, sentences of 1-4 words, so a slice may overshoot
            AnnotatedSentence([Token(f"w{i}_{j}") for j in range(n)], [tag] * n)
            for i, n in enumerate([1, 2, 3, 4] * 2)
        ]
        eval_slice, slices = split_for_learning_curve(corpus, [0, 4, 8], 9, seed=seed)
        order = list(corpus)
        random.Random(seed).shuffle(order)
        ids = lambda sl: [id(s) for s in sl]
        # the shortest seed-shuffled prefix holding at least 9 words
        assert ids(eval_slice) == ids(order[: len(eval_slice)])
        assert word_count(eval_slice) >= 9 > word_count(eval_slice[:-1])
        for train in slices:
            assert ids(train) == ids(order[len(eval_slice) : len(eval_slice) + len(train)])
            assert not set(ids(train)) & set(ids(eval_slice))
            assert set(ids(train)) <= set(ids(corpus))


class TestFileAccess:
    def test_read_text_names_the_file_and_byte_offset(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes("é\r\n".encode() * 5000 + b"\xff\n")  # 4 bytes, 2 characters a line
        with pytest.raises(InputError) as err:
            read_text(str(path))
        assert str(err.value) == f"{path}: not UTF-8 (byte 20000)"

    def test_read_text_counts_a_bom_in_the_byte_offset(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes("\ufeff".encode() + b"do\xff\n")  # 0xff is byte 5 of the file
        with pytest.raises(InputError) as err:
            read_text(str(path))
        assert str(err.value) == f"{path}: not UTF-8 (byte 5)"

    def test_read_text_drops_one_leading_bom(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_bytes("\ufeff\ufeffa\n".encode())
        assert read_text(str(path)) == "\ufeffa\n"

    def test_read_text_reads_utf8_with_universal_newlines(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_bytes("é\r\nb\rc\n".encode())
        assert read_text(str(path)) == "é\nb\nc\n"

    def test_only_the_two_helpers_open_files(self):
        # every file access goes through read_text or write_text, so the
        # encoding and the not-UTF-8 message live in one place
        callers = set()
        for path in sorted(Path(ambitag.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            scopes = [(tree, "<module>")]
            while scopes:
                node, scope = scopes.pop()
                for child in ast.iter_child_nodes(node):
                    inner = scope
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        inner = child.name
                    elif isinstance(child, ast.Call):
                        func = child.func
                        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                        if name == "open":
                            callers.add(f"{path.name}:{scope}")
                    scopes.append((child, inner))
        assert callers == {"corpus.py:read_text", "corpus.py:write_text"}

    def test_every_error_class_is_raised_or_subclassed(self):
        # an error type that nothing raises is a dead branch in every caller
        # that catches it; a helper may build the error that its caller raises
        package = Path(ambitag.__file__).parent
        errors = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
        defined = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
        used = set()
        for path in sorted(package.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ClassDef):
                    used.update(base.id for base in node.bases if isinstance(base, ast.Name))
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    used.add(node.func.id)
        assert defined and defined <= used, sorted(defined - used)
