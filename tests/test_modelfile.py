from __future__ import annotations

import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from ambitag.corpus import AnnotatedSentence, Token, parse_annotated
from ambitag.decoder import cohorts_for_tokens, decode_sentence
from ambitag.errors import InputError, ModelFormatError, TagInventoryError
from ambitag.lexicon import LexicalModel, SmoothingConfig
from ambitag import bulkparse, modelfile
from ambitag.bulkparse import bulk_trigrams
from ambitag.modelfile import (
    LEX_HEADER,
    TRANS_HEADER,
    _dec_char,
    _enc_char,
    _read_trigram_lines,
    dumps_model,
    load_model,
    loads_model,
    save_model,
)
from ambitag.ngram import StateSpace, TransitionModel
from ambitag.synth import build_synthetic_hmm, sample_corpus
from ambitag.tagset import WORD, TagSet, default_tagset, parse_tagset

from oracles import trie_dump, word_dist

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


# Suffix-sharing letters, spaces, backslashes, a tab, non-ASCII and astral
# characters; every drawn table also holds a suffix of each of its words.
SURFACE_CHARS = ["a", "b", " ", "\\", "\t", "é", "真", "\u00a0", "\U0001f600", "\U00010348"]


@st.composite
def surface_tables(draw):
    words = draw(st.lists(st.text(SURFACE_CHARS, min_size=1, max_size=6), min_size=1, max_size=8))
    cuts = draw(st.lists(st.integers(0, 5), min_size=len(words), max_size=len(words)))
    words += [w[c % len(w) :] for w, c in zip(words, cuts)]
    counts = st.dictionaries(
        st.sampled_from([t.index for t in TS]), st.integers(1, 2**63 - 1), min_size=1, max_size=3
    )
    return {w: draw(counts) for w in words}


class TestRoundTrip:
    def test_byte_identical(self):
        lex, trans = trained()
        text = dumps_model(lex, trans)
        lex2, trans2 = loads_model(text)
        assert dumps_model(lex2, trans2) == text

    def test_byte_identical_with_odd_config(self):
        lex, trans = trained(k=0.37, levels=3, support_epsilon=0.001, class_mix=0.25)
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
                assert np.array_equal(trans.probs[a, b], trans2.probs[a, b])
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

        assert lex2.surfaces == lex.surfaces
        table = dict(lex.surfaces)
        suffixes = {w[i:] for w in table for i in range(len(w) + 1)}
        # every surface, and an unseen word ending in each suffix of one
        for surface in [*table, *(f"#{s}" for s in suffixes)]:
            want = word_dist(table, lex.priors, lex.class_dists, lex.config, surface)
            assert np.array_equal(lex._dist_vector(surface), want), surface
            assert np.array_equal(lex2._dist_vector(surface), want), surface

    def test_repeated_trie_surface_sums_and_dumps_once(self):
        text = dumps_model(*trained())
        assert "\ntrie 16\n" in text and text.count("\n3 n ADV 1\n") == 1  # "now" reversed
        twice = text.replace("\ntrie 16\n", "\ntrie 19\n").replace(
            TRANS_HEADER, "1 w\n2 o\n3 n ADV 2\n" + TRANS_HEADER
        )
        lex, trans = loads_model(twice)
        assert lex.surfaces["now"] == {TS.lookup["ADV"]: 3}
        assert dumps_model(lex, trans) == text.replace("\n3 n ADV 1\n", "\n3 n ADV 3\n")

    def test_repeated_trie_surface_sum_stays_below_2_63(self):
        text = dumps_model(*trained())
        trie_at = text.splitlines().index("trie 16")
        lineno = trie_at + 1 + 16 + 3  # the repeat's "now" line, after the trie's last line

        def twice(count):
            return text.replace("\ntrie 16\n", "\ntrie 19\n").replace(
                "\n3 n ADV 1\n", f"\n3 n ADV {2**62}\n"
            ).replace(TRANS_HEADER, f"1 w\n2 o\n3 n ADV {count}\n" + TRANS_HEADER)

        with pytest.raises(
            ModelFormatError, match=rf"^line {lineno}: tag counts sum to 2\^63 or more$"
        ):
            loads_model(twice(2**62))
        # one below the bound loads, and its dump is a fixed point
        merged = dumps_model(*loads_model(twice(2**62 - 1)))
        assert f"\n3 n ADV {2**63 - 1}\n" in merged
        assert dumps_model(*loads_model(merged)) == merged

    def test_repeated_tag_on_one_line_sums_and_dumps_merged(self):
        text = dumps_model(*trained())
        assert text.count("\n3 n ADV 1\n") == 1 and text.count("\n.\t@dot 2\n") == 1
        twice = text.replace("\n3 n ADV 1\n", "\n3 n ADV 1 ADV 2\n").replace(
            "\n.\t@dot 2\n", "\n.\t@dot 1 @dot 2\n"
        )
        lex, trans = loads_model(twice)
        assert lex.surfaces["now"] == {TS.lookup["ADV"]: 3}
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

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(table=surface_tables())
    @example(table={"a": {0: 1}, "ba": {1: 2}, "aba": {0: 3}, "b": {2: 1}})
    def test_trie_section_is_the_node_by_node_walk(self, table):
        base, trans = trained()
        lex = LexicalModel(
            TS, base.config, base.priors, base.punct_priors, base.class_dists,
            base.punct_table, table,
        )
        text = dumps_model(lex, trans)
        lines = text.splitlines()
        at = next(i for i, l in enumerate(lines) if l.startswith("trie "))
        want = trie_dump(table, [t.symbol for t in TS])
        assert lines[at : at + len(want) + 2] == [f"trie {len(want)}", *want, TRANS_HEADER]
        lex2, trans2 = loads_model(text)
        assert lex2.surfaces == lex.surfaces
        assert dumps_model(lex2, trans2) == text

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

    def test_numpy_scalar_settings_round_trip(self):
        lex, trans = trained(k=np.float64(0.37), levels=np.int64(3))
        text = dumps_model(lex, trans)
        assert "\nconfig k 0.37 levels 3 cutoff 3 " in text
        assert dumps_model(*loads_model(text)) == text

    def test_config_line_names_its_first_missing_field(self):
        bad, lineno = _mutated(self.dump(), "config ", 0, lambda l: l.replace(" levels 2 cutoff 3", ""))
        with pytest.raises(ModelFormatError, match=f"^line {lineno}: config line missing field 'levels'$"):
            loads_model(bad)

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
        # load back to the same dump; a tag without a prior in its own family
        # has no mass, so it scores 0
        trans.probs
        ids = [t.index for t in lex.tagset]
        prior = [(lex.priors if t.cls == WORD else lex.punct_priors)[t.index] for t in lex.tagset]
        unset = np.array(prior) == 0.0
        for surface in ("walk", "the", "talks", ".", ",", "Xyz"):
            lex.candidate_tags(surface)
            assert not lex.converse_lexical_probs(surface, ids)[unset].any()
        text = dumps_model(lex, trans)
        assert dumps_model(*loads_model(text)) == text


class TestLoadMemory:
    def test_load_memory_on_a_20k_word_model(self):
        hmm = build_synthetic_hmm(n_tags=12, vocab=2000, seed=7)
        corpus = sample_corpus(hmm, 20_000, seed=7)
        lex = LexicalModel.train(corpus, hmm.tagset)
        text = dumps_model(lex, TransitionModel.train(corpus, hmm.tagset))
        loads_model(text)  # first-call allocations stay out of the count
        tracemalloc.start()
        try:
            lex2, _ = loads_model(text)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert lex2.surfaces == lex.surfaces
        # Frozen from the loader that kept each word's counts on its trie node
        # and in a word-count table, and a subtree total on every node.
        assert held <= 3_171_584

    def test_peak_load_memory_on_a_60_tag_model(self):
        hmm = build_synthetic_hmm(n_tags=60, vocab=1000, seed=7)
        corpus = sample_corpus(hmm, 20_000, seed=7)
        lex = LexicalModel.train(corpus, hmm.tagset)
        text = dumps_model(lex, TransitionModel.train(corpus, hmm.tagset))
        assert text.count("\n") > 20_000  # 17,201 trigram lines
        loads_model(text)  # first-call allocations stay out of the count
        tracemalloc.start()
        try:
            loads_model(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Frozen from the loader that read the trigram lines into Python
        # lists and merged them with np.unique: 4,903,041 B.  The bulk pass
        # peaked at 4,139,731 B with slabs of 2,048 lines.
        assert peak < 4_903_041


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


def _trigram_block(text: str) -> tuple[list[str], list[str], list[str]]:
    """`text`'s lines split into those up to the trigram header, the
    trigram lines, and the lines after them."""
    lines = text.splitlines()
    idx = next(i for i, l in enumerate(lines) if l.startswith("trigrams ")) + 1
    end = idx + int(lines[idx - 1].split()[1])
    return lines[:idx], lines[idx:end], lines[end:]


def _with_block(text: str, block: list[str], newline: str = "\n") -> str:
    head, _, tail = _trigram_block(text)
    head[-1] = f"trigrams {len(block)}"
    return newline.join(head + block + tail) + newline


def _load_outcome(text: str) -> tuple:
    """The loaded transition arrays with their dtypes, or the error."""
    try:
        _, trans = loads_model(text)
    except InputError as exc:
        return type(exc), str(exc)
    return trans.trigrams.dtype, trans.trigrams.tolist(), trans.counts.dtype, trans.counts.tolist()


def _line_loop_outcome(text: str) -> tuple:
    """As `_load_outcome`, with the bulk pass turned off."""
    with mock.patch.object(modelfile, "bulk_trigrams", return_value=None):
        return _load_outcome(text)


def _model_on(tagset: TagSet, words: int = 4000, seed: int = 1) -> str:
    """A model dump trained on a synthetic corpus whose tags are `tagset`'s."""
    hmm = build_synthetic_hmm(n_tags=len(tagset), vocab=400, seed=seed)
    corpus = [
        AnnotatedSentence(sent.tokens, [tagset.by_index(t.index) for t in sent.gold])
        for sent in sample_corpus(hmm, words, seed=seed)
    ]
    return dumps_model(LexicalModel.train(corpus, tagset), TransitionModel.train(corpus, tagset))


# Symbols of 1 to 31 bytes, non-ASCII ones included: fields of 1 to 4 words.
ODD_TS = parse_tagset("N\n\u00d1\n\u540d\u8a5e\nHAVE-SUBJUNCTIVE\nA-SYMBOL-OF-THIRTY-ONE-BYTES-XY\n@dot\n")
ODD_DUMP = _model_on(ODD_TS, words=600, seed=2)

COUNT_FIELDS = [
    "007", "0", "1", "x", "", "-1", "+1", "1.0", "\u0663", "\u0967", str(2**63 - 1), str(2**63),
    "9" * 19, "9" * 20, "0" * 18 + "1", "0" * 19 + "1", "1" * 19, str(2**64), str(2**64 + 5),
]
SEPARATORS = ["\t", "  ", "\u00a0", " \t", "\x0b", "\x1f", "\u3000", "\r", ""]
# Symbols, near misses of them (one byte changed or dropped, a decomposed
# Ñ, a non-breaking space) and empty or doubled fields.
SYMBOL_FIELDS = [
    "<s>", "N", "\u00d1", "N\u0303", "\u540d\u8a5e", "HAVE-SUBJUNCTIVE", "HAVE-SUBJUNCTIVF",
    "HAVE-SUBJUNCTIV", "A-SYMBOL-OF-THIRTY-ONE-BYTES-XZ", "NN", "n", "", "N\u00a0",
]
ODD_LINES = ["", " ", "N N N", "N N N 1 1", " N N N 1", "N N N 1 ", "<s> <s> <s> 1"]


@st.composite
def trigram_sections(draw):
    """A model text whose trigram lines are mutated: shuffled, repeated,
    totals pushed to 2^63 - 1 +- 1, and fields, separators or whole lines
    replaced; also how many lines the bulk pass takes per slab."""
    text = draw(st.sampled_from([DUMP, ODD_DUMP]))
    block = _trigram_block(text)[1]
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        block = block + [rng.choice(block) for _ in range(draw(st.integers(1, 4)))]
        rng.shuffle(block)
    delta = draw(st.sampled_from([None, -1, 0, 1]))
    if delta is not None:  # the running total ends at 2^63 - 1 + delta
        i = rng.randrange(len(block))
        others = sum(int(l.rsplit(" ", 1)[1]) for j, l in enumerate(block) if j != i)
        block[i] = f"{block[i].rsplit(' ', 1)[0]} {2**63 - 1 + delta - others}"
    for _ in range(draw(st.integers(0, 3))):
        i = rng.randrange(len(block))
        fields = block[i].split(" ")
        kind = draw(st.sampled_from(["count", "separator", "symbol", "line"]))
        if kind == "count":
            fields[-1] = draw(st.sampled_from(COUNT_FIELDS))
        elif kind == "separator" and len(fields) > 1:
            j = rng.randrange(len(fields) - 1)
            fields[j : j + 2] = [fields[j] + draw(st.sampled_from(SEPARATORS)) + fields[j + 1]]
        elif kind == "symbol":
            fields[rng.randrange(len(fields))] = draw(st.sampled_from(SYMBOL_FIELDS))
        else:
            fields = [draw(st.sampled_from(ODD_LINES) | st.text(max_size=8))]
        block[i] = " ".join(fields)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    tagset = TS if text is DUMP else ODD_TS
    return _with_block(text, block, newline), tagset, draw(st.sampled_from([1, 2, 5, 2048]))


class TestTrigramBulkPass:
    """The bulk pass reads the trigram section exactly as the per-line loop
    does, or declines and leaves it to the loop."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(section=trigram_sections())
    def test_bulk_pass_and_line_loop_agree(self, section):
        text, tagset, slab_lines = section
        with mock.patch.object(bulkparse, "SLAB_LINES", slab_lines):
            outcome = _load_outcome(text)
            assert outcome == _line_loop_outcome(text)
            event("refused" if len(outcome) == 2 else "loaded")
            # where the bulk pass takes the lines, its arrays are the loop's
            _, block, _ = _trigram_block(text)
            ids = StateSpace(tagset).ids
            bulk = bulk_trigrams(block, ids)
            event("bulk pass declined" if bulk is None else "bulk pass taken")
            try:
                loop = _read_trigram_lines(enumerate(block, 1), ids)
            except InputError:
                assert bulk is None
                return
            if bulk is not None:
                for got, want in zip(bulk, loop):
                    assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize(
        "edit, taken",
        [
            (lambda l: l, True),
            (lambda l: l.rsplit(" ", 1)[0] + " 007", True),
            (lambda l: l.rsplit(" ", 1)[0] + " " + "0" * 18 + "1", True),  # 19 digits
            (lambda l: l.rsplit(" ", 1)[0] + " " + "0" * 19 + "1", False),  # 20 digits: the loop reads 1
            (lambda l: l.replace(" ", "\t", 1), False),
            (lambda l: l.replace(" ", "  ", 1), False),
            (lambda l: l.replace(" ", "\u00a0", 1), False),
            (lambda l: l + " ", False),
        ],
        ids=["canonical", "007", "19-digits", "20-digits", "tab", "double-space", "nbsp", "trailing-space"],
    )
    def test_odd_but_valid_lines_load_as_the_loop_reads_them(self, edit, taken):
        head, block, _ = _trigram_block(ODD_DUMP)
        block[1] = edit(block[1])
        text = _with_block(ODD_DUMP, block)
        assert (bulk_trigrams(block, StateSpace(ODD_TS).ids) is not None) == taken
        outcome = _load_outcome(text)
        assert outcome == _line_loop_outcome(text)
        assert outcome[0] == np.uint8  # loaded, not refused

    @pytest.mark.parametrize("delta", [0, 1])
    def test_running_total_of_2_63_minus_1_loads_and_2_63_is_located(self, delta):
        head, block, _ = _trigram_block(DUMP)
        block = block * 3000  # more than one slab; repeats merge
        others = sum(int(l.rsplit(" ", 1)[1]) for l in block[:-1])
        block[-1] = f"{block[-1].rsplit(' ', 1)[0]} {2**63 - 1 + delta - others}"
        text = _with_block(DUMP, block)
        taken = bulk_trigrams(block, StateSpace(TS).ids) is not None
        outcome = _load_outcome(text)
        assert outcome == _line_loop_outcome(text)
        if delta:
            lineno = len(head) + len(block)
            assert not taken
            assert outcome == (ModelFormatError, f"line {lineno}: trigram counts sum to 2^63 or more")
        else:
            assert taken and sum(outcome[3]) == 2**63 - 1

    @pytest.mark.parametrize(
        "tagset",
        [build_synthetic_hmm(n_tags=n, vocab=n).tagset for n in (10, 60, 83)] + [default_tagset()],
        ids=["synthetic-10", "synthetic-60", "synthetic-83", "engcg"],
    )
    def test_every_dumped_model_takes_the_bulk_pass(self, tagset):
        text = _model_on(tagset)
        longest = max((t.symbol for t in tagset), key=len)
        _, block, _ = _trigram_block(text)
        assert any(longest in line.split(" ") for line in block)
        with mock.patch.object(modelfile, "_read_trigram_lines", side_effect=AssertionError):
            lex, trans = loads_model(text)
        assert dumps_model(lex, trans) == text
        assert _load_outcome(text) == _line_loop_outcome(text)

    def test_unknown_symbol_and_bad_count_keep_their_located_messages(self):
        head, block, _ = _trigram_block(DUMP)
        lineno = len(head) + 2
        block[1] = "N BOGUS N 1"
        assert _load_outcome(_with_block(DUMP, block)) == (
            TagInventoryError, f"line {lineno}: unknown tag symbol 'BOGUS'"
        )
        block[1] = "N N N 0"
        assert _load_outcome(_with_block(DUMP, block)) == (
            ModelFormatError, f"line {lineno}: trigram count '0' is not a positive integer below 2^63"
        )


class TestZeroPriorNamesItsLine:
    """A tag with zero prior that a surface counts or a class gives mass is
    refused with the line that does so."""

    @staticmethod
    def _edited(*edits: tuple[str, str]) -> str:
        text = DUMP
        for old, new in edits:
            assert text.count(old) == 1
            text = text.replace(old, new)
        return text

    def _refused(self, text: str) -> str:
        with pytest.raises(ModelFormatError) as exc:
            loads_model(text)
        return str(exc.value)

    def test_trie_surface(self):
        text = self._edited(("priors word 3\n", "priors word 2\n"), ("ADV 0.14285714285714285\npriors", "priors"))
        lineno = text.splitlines().index("3 n ADV 1") + 1
        assert self._refused(text) == f"line {lineno}: tag ADV has zero prior but word surface 'now' counts it"

    def test_repeated_trie_surface_names_the_line_that_counts_the_tag(self):
        text = self._edited(
            ("priors word 3\n", "priors word 2\n"), ("ADV 0.14285714285714285\npriors", "priors"),
            ("3 n ADV 1\n", "3 n N 1\n1 w\n2 o\n3 n ADV 1\n"), ("trie 16\n", "trie 19\n"),
        )
        lineno = text.splitlines().index("3 n ADV 1") + 1
        assert self._refused(text) == f"line {lineno}: tag ADV has zero prior but word surface 'now' counts it"

    def test_punct_table_surface(self):
        text = self._edited(
            ("priors punct 2\n", "priors punct 1\n"), ("@comma 0.3333333333333333\n", ""),
            ("punct-table 2\n,\t@comma 1\n", "punct-table 3\n,\t@dot 1\n,\t@comma 1\n"),
        )
        lineno = text.splitlines().index(",\t@comma 1") + 1
        assert self._refused(text) == (
            f"line {lineno}: tag @comma has zero prior but punct-table surface ',' counts it"
        )

    def test_class_distribution(self):
        text = self._edited(
            ("priors word 3\n", "priors word 2\n"), ("ADV 0.14285714285714285\npriors", "priors"),
            ("1 w\n2 o\n3 n ADV 1\n", ""), ("trie 16\n", "trie 13\n"),
        )
        lineno = text.splitlines().index("class all-caps 3") + 1
        assert self._refused(text) == f"line {lineno}: tag ADV has zero prior but class all-caps gives it mass"


def _trie_block(text: str) -> tuple[list[str], list[str], list[str]]:
    """`text`'s lines split into those up to the trie header, the trie
    lines, and the lines after them."""
    lines = text.splitlines()
    idx = next(i for i, l in enumerate(lines) if l.startswith("trie ")) + 1
    end = idx + int(lines[idx - 1].split()[1])
    return lines[:idx], lines[idx:end], lines[end:]


def _with_trie_block(text: str, block: list[str]) -> str:
    head, _, tail = _trie_block(text)
    head[-1] = f"trie {len(block)}"
    return "\n".join(head + block + tail) + "\n"


def _table_outcome(text: str) -> tuple | list:
    """The loaded word table's items in order, or the error."""
    try:
        lex, _ = loads_model(text)
    except InputError as exc:
        return type(exc), str(exc)
    return list(lex.surfaces.items())


def _table_loop_outcome(text: str) -> tuple | list:
    """As `_table_outcome`, with the trie's bulk pass turned off."""
    with mock.patch.object(modelfile, "_bulk_trie", return_value=None):
        return _table_outcome(text)


# Surfaces that share suffixes, and characters a trie line writes escaped:
# a space, a tab, a backslash and a line separator.
DUMP_LEX = trained()[0]
ODD_TRIE_DUMP = dumps_model(
    LexicalModel(
        TS, SmoothingConfig(), DUMP_LEX.priors, DUMP_LEX.punct_priors, DUMP_LEX.class_dists, {},
        {"walk": {0: 3, 1: 1}, "talk": {1: 2}, "a b": {0: 1}, "tab\tk": {2: 4}, "k": {0: 1},
         "x\\k": {1: 1}, " lk": {2: 1}, " ": {0: 2}, "真k": {0: 1, 2: 5}, "\u2028k": {1: 1}},
    ),
    TransitionModel(TS),
)
# Edits of one trie line, given its depth, its character field and the
# rest, that the loop reads, or refuses, in its own way.
TRIE_EDITS = [
    lambda d, c, rest: f"{d}  {c}{rest}",
    lambda d, c, rest: f"{d} {c}{rest} ",
    lambda d, c, rest: f"{d}\t{c}{rest}",
    lambda d, c, rest: f"0{d} {c}{rest}",
    lambda d, c, rest: f"{int(d) + 1} {c}{rest}",
    lambda d, c, rest: f"0 {c}{rest}",
    lambda d, c, rest: f"\u0661 {c}{rest}",
    lambda d, c, rest: f"{d} {c}",
    lambda d, c, rest: f"{d} {c}{rest} N 1",
    lambda d, c, rest: f"{d} {c}{rest} ADV 2",
    lambda d, c, rest: f"{d} {c}{rest} BOGUS 1",
    lambda d, c, rest: f"{d} {c}{rest} N",
    lambda d, c, rest: f"{d} {c}{rest} N {2**63 - 1}",
    lambda d, c, rest: f"{d} {c}{rest} N 0",
    lambda d, c, rest: f"{d} {c}{rest} N 007",
    lambda d, c, rest: f"{d} {c}{rest} N \u0663",
    lambda d, c, rest: f"{d} \\u{ord(_dec_char(c)):04x}{rest}",
    lambda d, c, rest: f"{d} \\uZZZZ{rest}",
    lambda d, c, rest: f"{d} ab{rest}",
    lambda d, c, rest: "",
]


@st.composite
def trie_sections(draw):
    """A model text whose trie lines are mutated: lines repeated, moved or
    dropped, and lines edited in ways the loop reads or refuses."""
    text = draw(st.sampled_from([DUMP, ODD_TRIE_DUMP]))
    block = _trie_block(text)[1]
    rng = draw(st.randoms(use_true_random=False))
    for _ in range(draw(st.integers(0, 2))):
        i = rng.randrange(len(block))
        kind = draw(st.sampled_from(["repeat", "move", "drop", "edit", "edit"]))
        if kind == "repeat":
            block.insert(rng.randrange(len(block) + 1), block[i])
        elif kind == "move":
            block.insert(rng.randrange(len(block)), block.pop(i))
        elif kind == "drop" and len(block) > 1:
            del block[i]
        elif block[i].count(" ") and block[i].split(" ", 1)[0].isdecimal():
            depth, char, *rest = block[i].split(" ", 2)
            try:
                block[i] = draw(st.sampled_from(TRIE_EDITS))(depth, char, "".join(" " + r for r in rest))
            except ModelFormatError:  # an edited character field that is not a character
                pass
    return _with_trie_block(text, block)


class TestTrieBulkPass:
    """The bulk pass reads the trie section exactly as the per-line loop
    does, or declines and leaves it to the loop."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=trie_sections())
    def test_bulk_pass_and_line_loop_agree(self, text):
        outcome = _table_outcome(text)
        assert outcome == _table_loop_outcome(text)
        event("refused" if isinstance(outcome, tuple) else "loaded")
        block = _trie_block(text)[1]
        bulk = modelfile._bulk_trie(block, TS.lookup)
        event("bulk pass declined" if bulk is None else "bulk pass taken")
        if bulk is not None:
            loop = modelfile._read_trie_lines(enumerate(block, 1), TS.lookup)
            assert list(bulk.items()) == list(loop.items())

    @pytest.mark.parametrize(
        "tagset",
        [build_synthetic_hmm(n_tags=n, vocab=n).tagset for n in (10, 60, 83)] + [default_tagset()],
        ids=["synthetic-10", "synthetic-60", "synthetic-83", "engcg"],
    )
    def test_every_dumped_model_takes_the_bulk_pass(self, tagset):
        text = _model_on(tagset)
        with mock.patch.object(modelfile, "_read_trie_lines", side_effect=AssertionError):
            lex, trans = loads_model(text)
        assert dumps_model(lex, trans) == text
        assert _table_outcome(text) == _table_loop_outcome(text)

    def test_escaped_characters_take_the_bulk_pass(self):
        with mock.patch.object(modelfile, "_read_trie_lines", side_effect=AssertionError):
            lex, trans = loads_model(ODD_TRIE_DUMP)
        assert "\\u0009" in ODD_TRIE_DUMP and "\\u2028" in ODD_TRIE_DUMP
        assert dumps_model(lex, trans) == ODD_TRIE_DUMP
