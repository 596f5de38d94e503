from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ambitag.corpus import AnnotatedSentence, Token, parse_annotated
from ambitag.decoder import cohorts_for_tokens, decode_sentence
from ambitag.errors import InputError, ModelFormatError, TagInventoryError
from ambitag.lexicon import LexicalModel, SmoothingConfig
from ambitag.modelfile import (
    LEX_HEADER,
    TRANS_HEADER,
    _dec_char,
    _enc_char,
    dumps_model,
    load_model,
    loads_model,
    save_model,
)
from ambitag.ngram import StateSpace, TransitionModel
from ambitag.synth import build_synthetic_hmm, sample_corpus
from ambitag.tagset import TagSet, parse_tagset

from oracles import trie_nodes

TS = parse_tagset("N\nV\nADV\n@dot\n@comma\n")

CORPUS_TEXT = (
    "the\tN\nwalk\tN\n.\t@dot\n\n"
    "walk\tV\nnow\tADV\n,\t@comma\n\n"
    "Walk\tV\ntalks\tV\n.\t@dot\n\n"
    "walk\tN\n"
)


def trained(text: str = CORPUS_TEXT, **cfg):
    corpus = parse_annotated(text, TS)
    lex = LexicalModel.train(corpus, TS, SmoothingConfig(**cfg))
    trans = TransitionModel.train(corpus, TS, k=cfg.get("k", 1.0))
    return lex, trans


class TestRoundTrip:
    def test_byte_identical(self):
        lex, trans = trained()
        text = dumps_model(lex, trans)
        lex2, trans2 = loads_model(text)
        assert dumps_model(lex2, trans2) == text

    def test_byte_identical_with_odd_config(self):
        lex, trans = trained(k=0.37, known_lookup_levels=3, support_epsilon=0.001, class_mix=0.25)
        text = dumps_model(lex, trans)
        assert dumps_model(*loads_model(text)) == text

    def test_byte_identical_synthetic_model(self):
        model = build_synthetic_hmm(n_tags=8, vocab=300, seed=4)
        corpus = sample_corpus(model, 5000, seed=5)
        lex = LexicalModel.train(corpus, model.tagset)
        trans = TransitionModel.train(corpus, model.tagset)
        text = dumps_model(lex, trans)
        assert dumps_model(*loads_model(text)) == text

    def test_reloaded_model_behaves_identically(self):
        lex, trans = trained()
        lex2, trans2 = loads_model(dumps_model(lex, trans))
        for surface in ("walk", "the", "now", ".", ",", "talks", "unseenish", "Xyz"):
            assert np.allclose(
                lex._dist_vector(surface), lex2._dist_vector(surface), atol=0
            )
            assert lex.is_known(surface) == lex2.is_known(surface)
            assert lex.candidate_tags(surface) == lex2.candidate_tags(surface)
        for a in range(len(TS) + 1):
            for b in range(len(TS) + 1):
                assert np.array_equal(trans.row(a, b), trans2.row(a, b))
        toks = [Token("walk"), Token("now"), Token(".")]
        d1 = decode_sentence(lex, trans, cohorts_for_tokens(lex, toks))
        d2 = decode_sentence(lex2, trans2, cohorts_for_tokens(lex2, toks))
        assert d1.viterbi_ids == d2.viterbi_ids
        assert d1.posteriors == d2.posteriors
        assert d1.log_likelihood == d2.log_likelihood

    def test_file_round_trip(self, tmp_path):
        lex, trans = trained()
        path = str(tmp_path / "model.txt")
        save_model(path, lex, trans)
        lex2, trans2 = load_model(path)
        assert dumps_model(lex2, trans2) == dumps_model(lex, trans)

    def test_save_accepts_stream(self, tmp_path):
        lex, trans = trained()
        path = tmp_path / "model.txt"
        with open(path, "w", encoding="utf-8") as fh:
            save_model(fh, lex, trans)
        assert path.read_text(encoding="utf-8") == dumps_model(lex, trans)

    def test_unicode_and_whitespace_surfaces(self):
        ts = parse_tagset("N\n@dot\n")
        corpus = [
            AnnotatedSentence(
                [Token("naïve"), Token("a b"), Token("tab\tchar"), Token("éclair")],
                [ts.tag("N")] * 4,
            )
        ]
        lex = LexicalModel.train(corpus, ts)
        trans = TransitionModel.train(corpus, ts)
        text = dumps_model(lex, trans)
        lex2, _ = loads_model(text)
        assert dumps_model(*loads_model(text)) == text
        for surface in ("naïve", "a b", "tab\tchar", "éclair"):
            assert lex2.is_known(surface)
            assert np.array_equal(lex._dist_vector(surface), lex2._dist_vector(surface))

    def test_loaded_trie_equals_trained_trie(self):
        model = build_synthetic_hmm(n_tags=8, vocab=300, seed=4)
        lex = LexicalModel.train(sample_corpus(model, 3000, seed=6), model.tagset)
        lex2, _ = loads_model(dumps_model(lex, TransitionModel(model.tagset)))

        def nodes(lex):
            return {
                suffix: (node.term_counts, node.tag_counts, node.total, set(node.children))
                for suffix, node in trie_nodes(lex.root)
            }

        assert nodes(lex2) == nodes(lex)
        assert lex2.word_counts == lex.word_counts

    def test_repeated_trie_surface_sums_and_dumps_once(self):
        text = dumps_model(*trained())
        assert "\ntrie 16\n" in text and text.count("\n3 n ADV 1\n") == 1  # "now" reversed
        twice = text.replace("\ntrie 16\n", "\ntrie 19\n").replace(
            TRANS_HEADER, "1 w\n2 o\n3 n ADV 2\n" + TRANS_HEADER
        )
        lex, trans = loads_model(twice)
        assert lex.word_counts["now"] == 3
        assert dumps_model(lex, trans) == text.replace("\n3 n ADV 1\n", "\n3 n ADV 3\n")

    def test_repeated_tag_on_one_line_sums_and_dumps_merged(self):
        text = dumps_model(*trained())
        assert text.count("\n3 n ADV 1\n") == 1 and text.count("\n.\t@dot 2\n") == 1
        twice = text.replace("\n3 n ADV 1\n", "\n3 n ADV 1 ADV 2\n").replace(
            "\n.\t@dot 2\n", "\n.\t@dot 1 @dot 2\n"
        )
        lex, trans = loads_model(twice)
        assert lex.word_counts["now"] == 3
        assert lex.punct_table["."] == {TS.lookup["@dot"]: 3}
        merged = text.replace("\n3 n ADV 1\n", "\n3 n ADV 3\n").replace(
            "\n.\t@dot 2\n", "\n.\t@dot 3\n"
        )
        assert dumps_model(lex, trans) == merged

    def test_repeated_punct_surface_sums_and_dumps_once(self):
        text = dumps_model(*trained())
        assert "\npunct-table 2\n" in text
        extra = ".\t@dot 7 @comma 1\n,\t@comma 2\n"
        twice = text.replace("\npunct-table 2\n", "\npunct-table 4\n" + extra)
        lex, trans = loads_model(twice)
        assert lex.punct_table["."] == {TS.lookup["@dot"]: 9, TS.lookup["@comma"]: 1}
        assert lex.punct_table[","] == {TS.lookup["@comma"]: 3}
        merged = text.replace(
            "\n,\t@comma 1\n.\t@dot 2\n", "\n,\t@comma 3\n.\t@dot 9 @comma 1\n"
        )
        assert merged != text and dumps_model(lex, trans) == merged

    @pytest.mark.parametrize(
        "prefix,offset", [("trie ", 3), ("punct-table ", 1), ("punct-table ", 2)]
    )
    def test_merged_tag_count_stays_below_2_63(self, prefix, offset):
        def doubled(second):
            def edit(line):
                head = line.rsplit(" ", 1)[0]  # the line up to its last count
                return f"{head} {2**62} {head.split()[-1]} {second}"

            return edit

        bad, lineno = _mutated(DUMP, prefix, offset, doubled(2**62))
        message = rf"^line {lineno}: tag counts sum to 2\^63 or more$"
        with pytest.raises(ModelFormatError, match=message):
            loads_model(bad)
        loads_model(_mutated(DUMP, prefix, offset, doubled(2**62 - 1))[0])

    @pytest.mark.parametrize(
        "surface",
        ["a\tb", "\t", "x\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", ".\u2028"],
    )
    def test_punct_surface_that_cannot_be_read_back_is_not_saved(self, surface):
        corpus = [AnnotatedSentence([Token("the"), Token(surface)], [TS.tag("N"), TS.tag("@dot")])]
        lex = LexicalModel.train(corpus, TS)
        with pytest.raises(InputError) as exc:
            dumps_model(lex, TransitionModel.train(corpus, TS))
        assert repr(surface) in str(exc.value)

    @pytest.mark.parametrize("surface", ["", " ", " . ", "\\", "a b", "#", "\u00a0x"])
    def test_odd_punct_surfaces_round_trip(self, surface):
        corpus = [AnnotatedSentence([Token("the"), Token(surface)], [TS.tag("N"), TS.tag("@dot")])]
        text = dumps_model(LexicalModel.train(corpus, TS), TransitionModel.train(corpus, TS))
        lex, trans = loads_model(text)
        assert lex.punct_table == {surface: {TS.lookup["@dot"]: 1}}
        assert dumps_model(lex, trans) == text

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        symbols=st.lists(st.text(max_size=3), max_size=4),
        surface=st.text(min_size=1, max_size=3),
    )
    def test_a_model_that_saves_also_loads(self, symbols, surface):
        try:
            ts = TagSet(["N", "@dot", *symbols])
            StateSpace(ts)
        except TagInventoryError:
            return
        tokens = [Token(f"w{t.index}") for t in ts] + [Token(surface)]
        corpus = [AnnotatedSentence(tokens, [*ts, ts.tag("@dot")])]
        lex, trans = LexicalModel.train(corpus, ts), TransitionModel.train(corpus, ts)
        try:
            text = dumps_model(lex, trans)
        except InputError:
            assert "\t" in surface or surface.splitlines() != [surface]
            return
        assert dumps_model(*loads_model(text)) == text

    def test_trigram_counts_survive(self):
        lex, trans = trained()
        _, trans2 = loads_model(dumps_model(lex, trans))
        assert np.array_equal(trans2.trigrams, trans.trigrams)
        assert np.array_equal(trans2.counts, trans.counts)
        assert trans2.k == trans.k

    def test_shuffled_and_duplicated_trigram_lines_merge(self):
        text = dumps_model(*trained())
        head, body = text.split("trigrams ", 1)
        n, *entries = body.splitlines()
        assert int(n) == len(entries) > 3
        # split every count into two lines, then shuffle all of them
        halves = []
        for entry in entries:
            window, count = entry.rsplit(" ", 1)
            halves += [f"{window} {int(count) - 1}", f"{window} 1"]
        halves = [h for h in halves if not h.endswith(" 0")]
        random.Random(3).shuffle(halves)
        shuffled = head + f"trigrams {len(halves)}\n" + "\n".join(halves) + "\n"
        lex, trans = loads_model(shuffled)
        assert len(halves) > len(entries) == len(trans.trigrams)
        assert dumps_model(lex, trans) == text


class TestCharEscaping:
    @pytest.mark.parametrize("ch", ["a", "Z", "é", "-", "'", "真"])
    def test_printable_verbatim(self, ch):
        assert _enc_char(ch) == ch
        assert _dec_char(ch) == ch

    @pytest.mark.parametrize("ch,enc", [(" ", "\\u0020"), ("\t", "\\u0009"), ("\\", "\\u005c")])
    def test_escaped(self, ch, enc):
        assert _enc_char(ch) == enc
        assert _dec_char(enc) == ch

    def test_astral_plane(self):
        ch = "\U0001f600"
        if _enc_char(ch) != ch:  # emoji are printable; force the wide escape
            assert _dec_char(_enc_char(ch)) == ch
        assert _dec_char("\\U0001f600") == ch

    def test_round_trip_property(self):
        rng = random.Random(0)
        for _ in range(200):
            ch = chr(rng.randrange(1, 0x2FFFF))
            assert _dec_char(_enc_char(ch)) == ch

    def test_bad_field(self):
        with pytest.raises(ModelFormatError):
            _dec_char("ab")


class TestFormatErrors:
    def dump(self):
        return dumps_model(*trained())

    def test_wrong_magic(self):
        with pytest.raises(ModelFormatError, match=LEX_HEADER):
            loads_model("something else\n")

    def test_truncated(self):
        text = self.dump()
        with pytest.raises(ModelFormatError, match="unexpected end"):
            loads_model(text[: len(text) // 2].rsplit("\n", 1)[0])

    def test_missing_transition_section(self):
        text = self.dump().split(TRANS_HEADER)[0]
        with pytest.raises(ModelFormatError):
            loads_model(text)

    def test_trailing_garbage(self):
        with pytest.raises(ModelFormatError, match="trailing"):
            loads_model(self.dump() + "leftover\n")

    def test_trailing_blank_lines_tolerated(self):
        lex, trans = loads_model(self.dump() + "\n\n")
        assert dumps_model(lex, trans) == self.dump()

    def test_unknown_tag_in_body(self):
        lines = self.dump().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("trigrams")) + 1
        lines[idx] = lines[idx].replace(lines[idx].split()[0], "BOGUS", 1)
        with pytest.raises(TagInventoryError):
            loads_model("\n".join(lines) + "\n")

    def test_bad_config_line(self):
        text = self.dump().replace(" class-mix ", " classmix ", 1)
        with pytest.raises(ModelFormatError, match="config"):
            loads_model(text)

    def test_trie_depth_out_of_order(self):
        lines = self.dump().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("trie ")) + 1
        first = lines[idx].split()
        first[0] = "5"
        lines[idx] = " ".join(first)
        with pytest.raises(ModelFormatError, match="depth"):
            loads_model("\n".join(lines) + "\n")

    def test_bad_trigram_line(self):
        lines = self.dump().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("trigrams")) + 1
        lines[idx] = "N V"
        with pytest.raises(ModelFormatError, match="trigram"):
            loads_model("\n".join(lines) + "\n")

    @pytest.mark.parametrize("count", ["x", "0", "-3", "1.5", "+2", "\u0663"])
    def test_bad_trigram_count(self, count):
        lines = self.dump().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("trigrams")) + 1
        lines[idx] = lines[idx].rsplit(" ", 1)[0] + " " + count
        with pytest.raises(ModelFormatError, match=f"line {idx + 1}: trigram count"):
            loads_model("\n".join(lines) + "\n")

    @pytest.mark.parametrize("count", [str(2**63), "9" * 400], ids=["2^63", "400-digit"])
    @pytest.mark.parametrize(
        "prefix,offset,what", [("trigrams ", 1, "trigram"), ("trie ", 3, "tag"), ("punct-table ", 1, "tag")]
    )
    def test_count_of_2_63_or_more(self, prefix, offset, what, count):
        bad, lineno = _mutated(self.dump(), prefix, offset, lambda l: l.rsplit(" ", 1)[0] + " " + count)
        with pytest.raises(
            ModelFormatError, match=rf"^line {lineno}: {what} count '{count}' is not a positive integer below 2\^63$"
        ):
            loads_model(bad)

    def test_trigram_counts_must_sum_below_2_63(self):
        lines = self.dump().splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("trigrams")) + 1
        window = [l.rsplit(" ", 1)[0] for l in lines[idx:]]
        # the running total reaches 2^63 on the second trigram line
        big = lines[:idx] + [f"{window[0]} {2**62}", f"{window[1]} {2**62}"] + lines[idx + 2 :]
        with pytest.raises(ModelFormatError, match=rf"^line {idx + 2}: trigram counts sum to 2\^63 or more$"):
            loads_model("\n".join(big) + "\n")
        # one below the limit loads, and the int64 merge does not wrap
        others = sum(int(l.rsplit(" ", 1)[1]) for l in lines[idx + 1 :])
        lines[idx] = f"{window[0]} {2**63 - 1 - others}"
        _, trans = loads_model("\n".join(lines) + "\n")
        assert int(trans.counts.sum()) == 2**63 - 1
        assert np.isfinite(trans.probs).all()

    def test_punctuation_only_inventory(self):
        text = "\n".join([
            LEX_HEADER, "tags 2", "@dot", "@comma",
            "config k 1.0 levels 2 cutoff 3 known-threshold 1 support-epsilon 0.0 class-mix 0.5",
            "priors word 0", "priors punct 0",
            "class capitalized 0", "class all-caps 0", "class infrequent 0",
            "punct-table 0", "trie 0",
            TRANS_HEADER, "config k 1.0", "trigrams 0",
        ]) + "\n"
        with pytest.raises(TagInventoryError, match="no word tags"):
            loads_model(text)


def _mutated(text: str, prefix: str, offset: int, edit) -> tuple[str, int]:
    """`text` with `edit` applied to the line `offset` lines after the first
    line that starts with `prefix`; also that line's 1-based number."""
    lines = text.splitlines()
    idx = next(i for i, l in enumerate(lines) if l.startswith(prefix)) + offset
    lines[idx] = edit(lines[idx])
    return "\n".join(lines) + "\n", idx + 1


ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "".join(map(chr, range(0x0660, 0x066A))))

# One malformed field each: (section prefix, offset from it, edit of that line).
BAD_FIELDS = {
    "trie-depth": ("trie ", 1, lambda l: "x " + l.split(" ", 1)[1]),
    "trie-count": ("trie ", 3, lambda l: l.rsplit(" ", 1)[0] + " x"),
    "empty-trie-line": ("trie ", 1, lambda l: ""),
    "prior-value": ("priors word ", 1, lambda l: l.rsplit(" ", 1)[0] + " x"),
    "prior-without-space": ("priors word ", 1, lambda l: l.replace(" ", "")),
    "tags-header": ("tags ", 0, lambda l: "tags x"),
    "trie-header": ("trie ", 0, lambda l: "trie x"),
    "transition-config-k": (TRANS_HEADER, 1, lambda l: "config k x"),
    "config-levels": ("config ", 0, lambda l: l.replace(" levels 2 ", " levels x ")),
    "negative-trie-count": ("trie ", 3, lambda l: l.rsplit(" ", 1)[0] + " -3"),
    "trie-tag-without-count": ("trie ", 3, lambda l: l.rsplit(" ", 1)[0]),
    "prior-above-one": ("priors word ", 1, lambda l: l.rsplit(" ", 1)[0] + " 1.5"),
    "prior-nan": ("priors word ", 1, lambda l: l.rsplit(" ", 1)[0] + " nan"),
    "zero-punct-count": ("punct-table ", 1, lambda l: l.rsplit(" ", 1)[0] + " 0"),
    "punct-entry-without-tab": ("punct-table ", 1, lambda l: l.replace("\t", " ")),
    "punct-entry-without-counts": ("punct-table ", 1, lambda l: l.split("\t")[0] + "\t "),
    "transition-k-nan": (TRANS_HEADER, 1, lambda l: "config k nan"),
    "lexical-k-inf": ("config ", 0, lambda l: l.replace("config k 1.0 ", "config k inf ")),
    "non-ascii-section-header": ("priors word ", 0, lambda l: l.translate(ARABIC_INDIC_DIGITS)),
    "trie-leaf-without-counts": ("trie ", 3, lambda l: " ".join(l.split()[:2])),
    "last-trie-line-without-counts": (TRANS_HEADER, -1, lambda l: " ".join(l.split()[:2])),
}

DUMP = dumps_model(*trained())
# The property test replaces one field of DUMP with one of these or with
# short random text.
ODD_FIELDS = ["", "x", "-1", "0", "1.5", "nan", "1e999", "99999", "9" * 400, "+2", "<s>", "N", "\\uZZZZ"]


class TestMalformedFields:
    @pytest.mark.parametrize("name", BAD_FIELDS)
    def test_raises_format_error_with_line_number(self, name):
        bad, lineno = _mutated(DUMP, *BAD_FIELDS[name])
        assert bad != DUMP
        with pytest.raises(ModelFormatError, match=f"^line {lineno}: "):
            loads_model(bad)

    def test_unknown_tag_in_trie_names_its_line(self):
        bad, lineno = _mutated(DUMP, "trie ", 3, lambda l: l.replace(" N ", " BOGUS "))
        with pytest.raises(TagInventoryError, match=f"^line {lineno}: unknown tag symbol 'BOGUS'"):
            loads_model(bad)

    @pytest.mark.parametrize("field", ["\\uZZZZ", "\\U" + "f" * 20, "ab"])
    def test_bad_trie_character(self, field):
        bad, lineno = _mutated(DUMP, "trie ", 1, lambda l: "1 " + field)
        with pytest.raises(ModelFormatError, match=f"^line {lineno}: bad character field"):
            loads_model(bad)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_any_field_mutation_loads_or_raises_input_error(self, data):
        lines = DUMP.splitlines()
        idx = data.draw(st.integers(0, len(lines) - 1))
        fields = lines[idx].split(" ")
        j = data.draw(st.integers(0, len(fields) - 1))
        fields[j] = data.draw(st.sampled_from(ODD_FIELDS) | st.text(max_size=3))
        lines[idx] = " ".join(fields)
        try:
            lex, trans = loads_model("\n".join(lines) + "\n")
        except InputError:
            return
        # a model that loads must also work on first use, and its dump must
        # load back to the same dump
        trans.probs
        for surface in ("walk", "the", "talks", ".", ",", "Xyz"):
            lex.candidate_tags(surface)
        text = dumps_model(lex, trans)
        assert dumps_model(*loads_model(text)) == text


class TestLongSurface:
    def test_1500_character_token(self):
        long = "ab" * 750
        corpus = parse_annotated(f"the\tN\n{long}\tV\n.\t@dot\n", TS)
        lex = LexicalModel.train(corpus, TS)
        trans = TransitionModel.train(corpus, TS)
        text = dumps_model(lex, trans)
        lex2, trans2 = loads_model(text)
        assert dumps_model(lex2, trans2) == text
        assert lex2.is_known(long)
        toks = [Token("the"), Token(long), Token(".")]
        decode = decode_sentence(lex2, trans2, cohorts_for_tokens(lex2, toks))
        assert TS.by_index(decode.viterbi_ids[1]).symbol == "V"
