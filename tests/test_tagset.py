from __future__ import annotations

import re

import pytest

from ambitag.corpus import Cohort
from ambitag.errors import ConversionError, RuleError, TagInventoryError
from ambitag.tagset import (
    ConversionRule,
    TagSet,
    convert_cohort,
    convert_reading,
    default_rules,
    default_tagset,
    parse_analysis_blocks,
    parse_rules,
    parse_tagset,
)

WALK_READINGS = [
    ["walk", "<SV>", "<SVO>", "V", "SUBJUNCTIVE", "VFIN"],
    ["walk", "<SV>", "<SVO>", "V", "IMP", "VFIN"],
    ["walk", "<SV>", "<SVO>", "V", "INF"],
    ["walk", "<SV>", "<SVO>", "V", "PRES", "-SG3", "VFIN"],
    ["walk", "N", "NOM", "SG"],
]
WALK_TAGS = ["V-SUBJUNCTIVE", "V-IMP", "V-INF", "V-PRES-BASE", "N-NOM-SG"]


class TestTagSet:
    def test_single_word_tag(self):
        ts = parse_tagset("N-NOM-SG\n")
        assert len(ts) == 1
        assert ts.tag("N-NOM-SG").cls == "word"
        assert ts.tag("N-NOM-SG").index == 0

    def test_punctuation_class(self):
        ts = parse_tagset("@comma\nN-NOM-SG\n")
        assert ts.tag("@comma").cls == "punctuation"

    def test_duplicates_collapse(self):
        ts = parse_tagset("@comma\n@comma\n")
        assert len(ts) == 1

    def test_first_occurrence_order(self):
        ts = parse_tagset("B\nA\nB\n")
        assert [t.symbol for t in ts] == ["B", "A"]
        assert [t.index for t in ts] == [0, 1]

    def test_lookup_consistent_with_list(self):
        ts = parse_tagset("B\nA\nC\n")
        for tag in ts:
            assert ts.lookup[tag.symbol] == tag.index
            assert ts.by_index(tag.index) is tag

    def test_empty_source_rejected(self):
        with pytest.raises(TagInventoryError, match="empty tag inventory"):
            parse_tagset("")
        with pytest.raises(TagInventoryError, match="empty tag inventory"):
            parse_tagset("# only a comment\n")

    def test_whitespace_in_symbol_names_line(self):
        with pytest.raises(TagInventoryError, match=":2:"):
            parse_tagset("A\nB C\n")
        with pytest.raises(TagInventoryError) as exc:
            parse_tagset("A\nB\tC\n", source="t.tags")
        assert str(exc.value) == "t.tags:2: tag symbol contains whitespace: 'B\\tC'"

    # a model file names tags one per line and splits fields on whitespace
    @pytest.mark.parametrize("symbol", ["N x", "N\tx", " N", "N\n", "\x85N", "N\u2028", "\x1c"])
    def test_constructor_rejects_whitespace(self, symbol):
        with pytest.raises(TagInventoryError) as exc:
            TagSet(["A", symbol])
        assert str(exc.value) == f"tag symbol contains whitespace: {symbol!r}"

    def test_constructor_rejects_an_empty_symbol(self):
        with pytest.raises(TagInventoryError, match="^empty tag symbol$"):
            TagSet(["A", ""])

    def test_comments_and_blanks_skipped(self):
        ts = parse_tagset("# header\n\nA\n\n# more\nB\n")
        assert [t.symbol for t in ts] == ["A", "B"]

    def test_load_is_idempotent_on_serialized_form(self):
        ts = parse_tagset("@dot\nA\nB\n")
        assert parse_tagset(ts.to_text()) == ts

    def test_unknown_symbol_error(self):
        ts = parse_tagset("A\n")
        with pytest.raises(TagInventoryError, match="XYZ"):
            ts.tag("XYZ")


class TestDefaultInventory:
    def test_class_counts(self):
        ts = default_tagset()
        counts = ts.counts_by_class()
        assert counts["punctuation"] == 17
        assert counts["word"] == 83

    def test_known_members(self):
        ts = default_tagset()
        for sym in ("@comma", "@rparen", "DET-SG/PL", "V-PRES-BASE", "N-NOM-SG"):
            assert sym in ts

    def test_count_discrepancy_documented_in_file(self):
        from importlib import resources

        text = resources.files("ambitag").joinpath("data/engcg_reduced.tags").read_text("utf-8")
        assert "80" in text  # the conventional word-tag count is noted
        assert text.count("@rparen") == 2  # duplicate kept to exercise collapse


class TestRules:
    def setup_method(self):
        self.ts = parse_tagset("A\nB\nAB\n")

    def test_parse_basic(self):
        rules = parse_rules("X Y -> A\nZ -> B 5\n", self.ts)
        assert rules[0] == ConversionRule(frozenset({"X", "Y"}), "A", 0)
        assert rules[1].priority == 5

    def test_unknown_output_tag(self):
        with pytest.raises(RuleError, match="'C'"):
            parse_rules("X -> C\n", self.ts)

    def test_conflicting_duplicate_pattern(self):
        with pytest.raises(RuleError, match="conflicting output"):
            parse_rules("X Y -> A\nY X -> B\n", self.ts)

    def test_exact_duplicate_collapses(self):
        rules = parse_rules("X Y -> A\nY X -> A\n", self.ts)
        assert len(rules) == 1

    def test_subcat_feature_in_pattern_rejected(self):
        with pytest.raises(RuleError, match="<SV>"):
            parse_rules("<SV> X -> A\n", self.ts)

    def test_missing_arrow(self):
        with pytest.raises(RuleError, match="->"):
            parse_rules("X Y A\n", self.ts)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("X -> A\n -> B\n", "rules.txt:2: rule has empty pattern"),
            ("X -> A high\n", "rules.txt:1: priority must be an integer, got 'high'"),
            ("X -> A 1 2\n", "rules.txt:1: expected 'TAG [priority]' after '->'"),
            ("# comments only\n\n", "rules.txt: no conversion rules found"),
        ],
    )
    def test_malformed_rule_file_names_its_line(self, text, message):
        with pytest.raises(RuleError, match=f"^{re.escape(message)}$"):
            parse_rules(text, self.ts, source="rules.txt")


class TestConvertReading:
    def setup_method(self):
        self.ts = parse_tagset("A\nB\nAB\n")
        self.rules = parse_rules("X -> A\nY -> B\nX Y -> AB\n", self.ts)

    def test_subset_match(self):
        assert convert_reading(["w", "X", "Z"], self.rules, self.ts).symbol == "A"

    def test_empty_reading_rejected(self):
        with pytest.raises(ConversionError, match="^empty reading$"):
            convert_reading([], self.rules, self.ts)

    def test_most_specific_wins(self):
        assert convert_reading(["w", "X", "Y"], self.rules, self.ts).symbol == "AB"

    def test_priority_beats_specificity(self):
        rules = parse_rules("X -> A 9\nX Y -> AB\n", self.ts)
        assert convert_reading(["w", "X", "Y"], rules, self.ts).symbol == "A"

    def test_subcat_features_ignored(self):
        rules = parse_rules("X -> A\n", self.ts)
        assert convert_reading(["w", "<SVO>", "X"], rules, self.ts).symbol == "A"

    def test_no_match_carries_reading(self):
        with pytest.raises(ConversionError, match="w Q R"):
            convert_reading(["w", "Q", "R"], self.rules, self.ts)

    def test_ambiguous_tie_fails_loud(self):
        rules = parse_rules("X -> A\nY -> B\n", self.ts)
        with pytest.raises(ConversionError, match="conflicting outputs"):
            convert_reading(["w", "X", "Y"], rules, self.ts)

    def test_deterministic(self):
        reading = ["w", "X", "Y"]
        first = convert_reading(reading, self.rules, self.ts)
        assert all(
            convert_reading(reading, self.rules, self.ts) == first for _ in range(5)
        )

    def test_output_member_of_tagset(self):
        tag = convert_reading(["w", "X"], self.rules, self.ts)
        assert self.ts.by_index(tag.index) is tag


class TestWalkExample:
    def setup_method(self):
        self.ts = default_tagset()
        self.rules = default_rules(self.ts)

    def test_individual_readings(self):
        for reading, expected in zip(WALK_READINGS, WALK_TAGS):
            assert convert_reading(reading, self.rules, self.ts).symbol == expected

    def test_cohort_is_five_ways_ambiguous(self):
        cohort = convert_cohort("walk", WALK_READINGS, self.rules, self.ts)
        assert [t.symbol for t in cohort.candidates] == WALK_TAGS

    def test_every_inventory_tag_is_producible(self):
        outputs = {r.output for r in self.rules}
        for tag in self.ts:
            assert tag.symbol in outputs


class TestConvertCohort:
    def setup_method(self):
        self.ts = parse_tagset("A\nB\n")
        self.rules = parse_rules("X -> A\nY -> A\nZ -> B\n", self.ts)

    def test_singleton(self):
        cohort = convert_cohort("w", [["w", "X"]], self.rules, self.ts)
        assert isinstance(cohort, Cohort)
        assert [t.symbol for t in cohort.candidates] == ["A"]

    def test_dedup_same_reduced_tag(self):
        cohort = convert_cohort("w", [["w", "X"], ["w", "Y"]], self.rules, self.ts)
        assert [t.symbol for t in cohort.candidates] == ["A"]

    def test_no_readings(self):
        with pytest.raises(ConversionError):
            convert_cohort("w", [], self.rules, self.ts)


class TestAnalysisBlocks:
    def test_walk_block(self):
        text = (
            "walk\n"
            "   walk <SV> <SVO> V SUBJUNCTIVE VFIN\n"
            "   walk N NOM SG\n"
            "\n"
            "runs\n"
            "   run V PRES SG3 VFIN\n"
        )
        sents = parse_analysis_blocks(text)
        assert len(sents) == 2
        token, readings = sents[0][0]
        assert token == "walk"
        assert readings[0] == ["walk", "<SV>", "<SVO>", "V", "SUBJUNCTIVE", "VFIN"]

    def test_reading_before_token(self):
        with pytest.raises(ConversionError, match="before any token"):
            parse_analysis_blocks("   stray V\n")

    def test_token_without_readings(self):
        with pytest.raises(ConversionError, match="'bare'"):
            parse_analysis_blocks("bare\n")
