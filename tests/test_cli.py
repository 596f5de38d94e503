from __future__ import annotations

import dataclasses
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

import ambitag
from ambitag import decoder
from ambitag.cli import RunConfig, main
from ambitag.corpus import parse_annotated, parse_cohorts, read_text, word_count
from ambitag.errors import ConfigError, InputError
from ambitag.lexicon import SmoothingConfig
from ambitag.modelfile import load_model
from ambitag.tagset import load_tagset, parse_rules, parse_tagset

from oracles import brute_force_decode, path_weight

TS_TEXT = "N\nV\n@dot\n"

TRAIN_BLOCKS = (
    ["dog\tN\nruns\tV\n.\t@dot"] * 6
    + ["runs\tN"] * 2
    + ["dog\tN\nbarks\tV\n.\t@dot"] * 2
)
TRAIN_TEXT = "\n\n".join(TRAIN_BLOCKS) + "\n"

ARABIC_INDIC_DIGITS = str.maketrans("0123456789", "".join(map(chr, range(0x0660, 0x066A))))

COHORT_TEXT = "dog\tN V\nruns\tV N\n.\t@dot\n"

WALK_BLOCK = (
    "walk\n"
    "   walk <SV> <SVO> V SUBJUNCTIVE VFIN\n"
    "   walk <SV> <SVO> V IMP VFIN\n"
    "   walk <SV> <SVO> V INF\n"
    "   walk <SV> <SVO> V PRES -SG3 VFIN\n"
    "   walk N NOM SG\n"
)


@pytest.fixture
def ws(tmp_path):
    (tmp_path / "inventory.tags").write_text(TS_TEXT, encoding="utf-8")
    (tmp_path / "train.txt").write_text(TRAIN_TEXT, encoding="utf-8")
    (tmp_path / "input.cohorts").write_text(COHORT_TEXT, encoding="utf-8")
    return tmp_path


def train_model(ws, *extra) -> str:
    model = str(ws / "model.txt")
    rc = main(
        ["train", str(ws / "train.txt"), "--tagset", str(ws / "inventory.tags"),
         "--model", model, *extra]
    )
    assert rc == 0
    return model


NOT_UTF8 = {  # a command line per input file; {bad} is the file holding byte 0xff
    "train corpus": "train {bad} --tagset {ws}/inventory.tags --model {ws}/m.txt",
    "tagset": "train {ws}/train.txt --tagset {bad} --model {ws}/m.txt",
    "config": "train {ws}/train.txt --model {ws}/m.txt --config {bad}",
    "cohorts": "tag {bad} --model {model}",
    "model": "tag {ws}/input.cohorts --model {bad}",
    "gold corpus": "eval {bad} --model {model}",
    "convert input": "convert {bad}",
    "rules": "convert {ws}/analysis.txt --rules {bad}",
}


@pytest.mark.parametrize("case", NOT_UTF8)
def test_input_that_is_not_utf8_is_exit_2(ws, capsys, case):
    model = train_model(ws)
    (ws / "analysis.txt").write_text(WALK_BLOCK, encoding="utf-8")
    (ws / "bad").write_bytes(b"dog\t\xff\n")
    capsys.readouterr()
    assert main(NOT_UTF8[case].format(bad=ws / "bad", ws=ws, model=model).split()) == 2
    assert capsys.readouterr().err == f"error: {ws / 'bad'}: not UTF-8 (byte 4)\n"


class TestByteOrderMark:
    BOM = "\ufeff".encode()

    def test_tagset_with_a_bom_trains(self, ws):
        (ws / "inventory.tags").write_bytes(self.BOM + TS_TEXT.encode())
        lex, _ = load_model(train_model(ws))
        assert [t.symbol for t in lex.tagset] == ["N", "V", "@dot"]

    def test_corpus_with_a_bom_starts_with_its_first_surface(self, ws):
        (ws / "train.txt").write_bytes(self.BOM + TRAIN_TEXT.encode())
        lex, _ = load_model(train_model(ws))
        assert "dog" in lex.surfaces
        assert not any(s.startswith("\ufeff") for s in lex.surfaces)


class TestTrain:
    def test_reports_stats_and_writes_model(self, ws, capsys):
        model = train_model(ws)
        out = capsys.readouterr().out
        assert out.startswith("# config:")
        assert f"words {word_count(parse_annotated(TRAIN_TEXT, load_tagset(str(ws / 'inventory.tags'))))}\n" in out
        assert "tagset-coverage 3/3" in out
        lex, trans = load_model(model)
        assert lex.is_known("dog") and len(trans.trigrams) > 0

    def test_report_goes_to_out(self, ws, capsys):
        report = ws / "report.txt"
        train_model(ws, "--out", str(report))
        assert capsys.readouterr().out == ""
        text = report.read_text(encoding="utf-8")
        assert text.startswith("# config:")
        assert "tagset-coverage 3/3\n" in text

    def test_retrain_is_byte_identical(self, ws):
        a = train_model(ws)
        first = Path(a).read_text(encoding="utf-8")
        b = str(ws / "model2.txt")
        assert main(
            ["train", str(ws / "train.txt"), "--tagset", str(ws / "inventory.tags"),
             "--model", b]
        ) == 0
        assert Path(b).read_text(encoding="utf-8") == first

    def test_smoothing_flags_reach_the_model(self, ws):
        model = train_model(ws, "--k-lex", "0.25", "--class-mix", "0.1")
        lex, _ = load_model(model)
        assert lex.config.k == 0.25
        assert lex.config.class_mix == 0.1

    def test_unknown_tag_in_corpus_is_exit_2(self, ws, capsys):
        (ws / "bad.txt").write_text("dog\tBOGUS\n", encoding="utf-8")
        rc = main(
            ["train", str(ws / "bad.txt"), "--tagset", str(ws / "inventory.tags"),
             "--model", str(ws / "m.txt")]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_corpus_is_exit_2(self, ws, capsys):
        rc = main(
            ["train", str(ws / "nope.txt"), "--tagset", str(ws / "inventory.tags"),
             "--model", str(ws / "m.txt")]
        )
        assert rc == 2

    def test_punctuation_only_inventory_is_exit_2(self, ws, capsys):
        (ws / "punct.tags").write_text("@dot\n", encoding="utf-8")
        (ws / "punct.txt").write_text(".\t@dot\n", encoding="utf-8")
        rc = main(
            ["train", str(ws / "punct.txt"), "--tagset", str(ws / "punct.tags"),
             "--model", str(ws / "m.txt")]
        )
        assert rc == 2
        assert capsys.readouterr().err == "error: tag inventory has no word tags\n"

    @pytest.mark.parametrize(
        "corpus, flags, message",
        [
            (TRAIN_TEXT, ["--levels", "-1"], "levels must be >= 0"),
            ("# a comment, then blank lines\n\n\n", [], "{path}: no sentences to train on"),
        ],
        ids=["negative-levels", "no-sentences"],
    )
    def test_bad_training_run_is_exit_2(self, ws, capsys, corpus, flags, message):
        path = ws / "corpus.txt"
        path.write_text(corpus, encoding="utf-8")
        rc = main(
            ["train", str(path), "--tagset", str(ws / "inventory.tags"),
             "--model", str(ws / "m.txt"), *flags]
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
        assert not (ws / "m.txt").exists()

    def test_boundary_symbol_as_tag_is_exit_2(self, ws, capsys):
        (ws / "boundary.tags").write_text("N\n<s>\n@dot\n", encoding="utf-8")
        (ws / "boundary.txt").write_text("a\tN\nb\t<s>\n.\t@dot\n", encoding="utf-8")
        rc = main(
            ["train", str(ws / "boundary.txt"), "--tagset", str(ws / "boundary.tags"),
             "--model", str(ws / "m.txt")]
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: tag symbol '<s>' is reserved for the sentence boundary\n"
        )
        assert not (ws / "m.txt").exists()


class TestTag:
    def test_default_threshold_fully_disambiguates(self, ws):
        model = train_model(ws)
        out = ws / "tagged.cohorts"
        rc = main(["tag", str(ws / "input.cohorts"), "--model", model, "--out", str(out)])
        assert rc == 0
        text = out.read_text(encoding="utf-8")
        assert text == "dog\tN\nruns\tV\n.\t@dot\n"

    def test_threshold_zero_keeps_candidates(self, ws):
        model = train_model(ws)
        out = ws / "tagged.cohorts"
        rc = main(
            ["tag", str(ws / "input.cohorts"), "--model", model,
             "--threshold", "0.0", "--out", str(out)]
        )
        assert rc == 0
        lex, _ = load_model(model)
        sents = parse_cohorts(out.read_text(encoding="utf-8"), lex.tagset)
        assert {t.symbol for t in sents[0][0].candidates} == {"N", "V"}
        assert {t.symbol for t in sents[0][1].candidates} == {"N", "V"}

    def test_full_flag_wins_over_threshold(self, ws):
        model = train_model(ws)
        out = ws / "tagged.cohorts"
        rc = main(
            ["tag", str(ws / "input.cohorts"), "--model", model,
             "--threshold", "0.0", "--full", "--out", str(out)]
        )
        assert rc == 0
        assert out.read_text(encoding="utf-8") == "dog\tN\nruns\tV\n.\t@dot\n"

    def test_viterbi_mode_accepted(self, ws):
        model = train_model(ws)
        rc = main(
            ["tag", str(ws / "input.cohorts"), "--model", model,
             "--mode", "viterbi", "--out", str(ws / "o.cohorts")]
        )
        assert rc == 0

    def _dead_setup(self, ws):
        (ws / "sparse.txt").write_text("aa\tN\n", encoding="utf-8")
        model = str(ws / "sparse-model.txt")
        assert main(
            ["train", str(ws / "sparse.txt"), "--tagset", str(ws / "inventory.tags"),
             "--model", model, "--k-lex", "0", "--k-trans", "0", "--class-mix", "0"]
        ) == 0
        (ws / "dead.cohorts").write_text("aa\tN\naa\tN\n", encoding="utf-8")
        return model

    def test_dead_lattice_is_exit_1(self, ws, capsys):
        model = self._dead_setup(ws)
        rc = main(["tag", str(ws / "dead.cohorts"), "--model", model])
        assert rc == 1
        assert "no path has nonzero probability" in capsys.readouterr().err

    def test_continue_on_error_leaves_sentence_ambiguous(self, ws, capsys):
        model = self._dead_setup(ws)
        out = ws / "o.cohorts"
        rc = main(
            ["tag", str(ws / "dead.cohorts"), "--model", model,
             "--continue-on-error", "--out", str(out)]
        )
        assert rc == 0
        assert "leaving ambiguous" in capsys.readouterr().err
        assert out.read_text(encoding="utf-8") == "aa\tN\naa\tN\n"

    def test_dead_lattice_message_is_the_same_in_both_modes(self, ws, capsys):
        model = self._dead_setup(ws)
        errs = []
        for mode in ("posterior", "viterbi"):
            assert main(["tag", str(ws / "dead.cohorts"), "--model", model, "--mode", mode]) == 1
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0] == (
            "error: dead lattice at position 2 ('aa'): no path has nonzero probability\n"
        )

    def test_continue_on_error_line_is_the_same_in_both_modes(self, ws, capsys):
        model = self._dead_setup(ws)
        errs = []
        for mode in ("posterior", "viterbi"):
            out = ws / f"{mode}.cohorts"
            rc = main(
                ["tag", str(ws / "dead.cohorts"), "--model", model, "--mode", mode,
                 "--continue-on-error", "--out", str(out)]
            )
            assert rc == 0
            assert out.read_text(encoding="utf-8") == "aa\tN\naa\tN\n"
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0] == (
            "sentence 1: dead lattice at position 2 ('aa'): "
            "no path has nonzero probability; leaving ambiguous\n"
        )

    def test_bad_trigram_count_is_exit_2(self, ws, capsys):
        model = ws / train_model(ws)
        lines = model.read_text(encoding="utf-8").splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("trigrams ")) + 1
        lines[idx] = lines[idx].rsplit(" ", 1)[0] + " x"
        model.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = main(["tag", str(ws / "input.cohorts"), "--model", str(model)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line ") and "'x' is not a positive integer" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["tag", "sweep"])
    def test_trigram_count_of_2_63_is_exit_2(self, ws, capsys, command):
        model = ws / train_model(ws)
        lines = model.read_text(encoding="utf-8").splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("trigrams ")) + 1
        lines[idx] = lines[idx].rsplit(" ", 1)[0] + f" {2**63}"
        model.write_text("\n".join(lines) + "\n", encoding="utf-8")
        data = ws / ("input.cohorts" if command == "tag" else "train.txt")
        capsys.readouterr()
        assert main([command, str(data), "--model", str(model)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {idx + 1}: ") and "below 2^63" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["tag", "sweep"])
    def test_repeated_trie_surface_summing_to_2_63_is_exit_2(self, ws, capsys, command):
        model = ws / train_model(ws)
        lines = model.read_text(encoding="utf-8").splitlines()
        head = next(i for i, l in enumerate(lines) if l.startswith("trie "))
        dog = lines.index("3 d N 8", head)  # "dog" reversed
        lines[dog] = f"3 d N {2**62}"
        lines[head] = f"trie {int(lines[head].split()[1]) + 3}"
        end = lines.index("ambitag-trans v1")
        lines[end:end] = ["1 g", "2 o", f"3 d N {2**62}"]
        model.write_text("\n".join(lines) + "\n", encoding="utf-8")
        data = ws / ("input.cohorts" if command == "tag" else "train.txt")
        capsys.readouterr()
        assert main([command, str(data), "--model", str(model)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: line {end + 3}: tag counts sum to 2^63 or more\n"

    def test_empty_surface_in_cohort_file_is_exit_2(self, ws, capsys):
        model = train_model(ws)
        cohorts = ws / "blank.cohorts"
        cohorts.write_text("dog\tN V\n\tN V\n", encoding="utf-8")
        rc = main(["tag", str(cohorts), "--model", model])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cohorts}:2: empty field in ")
        assert err.count("\n") == 1

    def test_bad_trie_depth_is_exit_2(self, ws, capsys):
        model = ws / train_model(ws)
        lines = model.read_text(encoding="utf-8").splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith("trie ")) + 1
        lines[idx] = "x " + lines[idx].split(" ", 1)[1]
        model.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = main(["tag", str(ws / "input.cohorts"), "--model", str(model)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {idx + 1}: bad trie line ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["tag", "sweep"])
    @pytest.mark.parametrize(
        "prefix,offset,edit,message",
        [
            # the last trie line is a leaf; without counts it stands for no word
            ("ambitag-trans ", -1, lambda l: " ".join(l.split()[:2]),
             "trie node has neither counts nor children"),
            ("priors word ", 0, lambda l: l.translate(ARABIC_INDIC_DIGITS),
             "bad section header"),
            ("config ", 0, lambda l: l.replace(" levels 2 ", " levels -1 "),
             "levels must be >= 0\n"),
        ],
        ids=["trie-leaf-without-counts", "non-ascii-section-header", "negative-levels"],
    )
    def test_malformed_model_line_is_exit_2(self, ws, capsys, command, prefix, offset, edit, message):
        model = ws / train_model(ws)
        lines = model.read_text(encoding="utf-8").splitlines()
        idx = next(i for i, l in enumerate(lines) if l.startswith(prefix)) + offset
        lines[idx] = edit(lines[idx])
        model.write_text("\n".join(lines) + "\n", encoding="utf-8")
        data = ws / ("input.cohorts" if command == "tag" else "train.txt")
        capsys.readouterr()
        assert main([command, str(data), "--model", str(model)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {idx + 1}: {message}")
        assert err.count("\n") == 1


class TestViterbiMode:
    TAGS = ["A", "B", "C", "D"]
    VOCAB = ["wa", "wb", "wc", "wd", "we"]

    def _write_inputs(self, ws, seed):
        rng = random.Random(seed)
        (ws / "abcd.tags").write_text("\n".join(self.TAGS) + "\n@dot\n", encoding="utf-8")
        blocks = []
        for _ in range(60):
            lines = [f"{rng.choice(self.VOCAB)}\t{rng.choice(self.TAGS)}"
                     for _ in range(rng.randint(1, 6))]
            if rng.random() < 0.5:
                lines.append(".\t@dot")
            blocks.append("\n".join(lines))
        (ws / "abcd.txt").write_text("\n\n".join(blocks) + "\n", encoding="utf-8")
        blocks = []
        for _ in range(25):
            # unseen surfaces and narrowed candidate sets, some of one tag
            lines = [
                f"{rng.choice(self.VOCAB + ['zz', 'Qx'])}\t"
                + " ".join(rng.sample(self.TAGS, rng.randint(1, len(self.TAGS))))
                for _ in range(rng.randint(1, 5))
            ]
            if rng.random() < 0.3:
                lines.append(".\t@dot")
            blocks.append("\n".join(lines))
        (ws / "abcd.cohorts").write_text("\n\n".join(blocks) + "\n", encoding="utf-8")

    @pytest.mark.parametrize("seed", [41, 42])
    def test_threshold_one_keeps_exactly_the_best_path(self, ws, seed):
        self._write_inputs(ws, seed)
        model = str(ws / "abcd.model")
        assert main(["train", str(ws / "abcd.txt"), "--tagset", str(ws / "abcd.tags"),
                     "--model", model]) == 0
        out = ws / "abcd.out"
        rc = main(["tag", str(ws / "abcd.cohorts"), "--model", model, "--mode", "viterbi",
                   "--threshold", "1.0", "--out", str(out)])
        assert rc == 0
        lex, trans = load_model(model)
        inputs = parse_cohorts((ws / "abcd.cohorts").read_text(encoding="utf-8"), lex.tagset)
        tagged = parse_cohorts(out.read_text(encoding="utf-8"), lex.tagset)
        assert len(tagged) == len(inputs) == 25
        for sent, got in zip(inputs, tagged):
            ids = [sorted(t.index for t in c.candidates) for c in sent]
            ap = [
                {i: lex.converse_lexical_probs(c.token.surface, [i])[0] for i in pos}
                for c, pos in zip(sent, ids)
            ]
            _, _, best, best_w = brute_force_decode(trans, ap, ids)
            assert all(len(c.candidates) == 1 for c in got)
            path = [c.candidates[0].index for c in got]
            assert path == best
            assert path_weight(trans, ap, path) == pytest.approx(best_w, rel=1e-12)


DEAD = "dead lattice at position 2 ('q'): no path has nonzero probability"


class TestBatchedErrorsKeepCorpusOrder:
    """eval and sweep decode in batches, yet fail on the first failing
    sentence in corpus order, as a sentence-by-sentence decode does."""

    def _model(self, ws) -> Path:
        (ws / "sparse.txt").write_text("aa\tN\n", encoding="utf-8")
        model = ws / "sparse-model.txt"
        assert main(
            ["train", str(ws / "sparse.txt"), "--tagset", str(ws / "inventory.tags"),
             "--model", str(model), "--k-lex", "0", "--k-trans", "0", "--class-mix", "0"]
        ) == 0  # P(N | <s>, N) = 0: every sentence dies at its second word
        return model

    def _gold(self, ws, sentences) -> str:
        gold = ws / "gold.txt"
        gold.write_text(
            "\n".join("".join(f"{w}\tN\n" for w in s.split()) for s in sentences),
            encoding="utf-8",
        )
        return str(gold)

    @pytest.mark.parametrize("mode", ["posterior", "viterbi"])
    @pytest.mark.parametrize("command", ["eval", "sweep"])
    @pytest.mark.parametrize(
        "sentences, error",
        [
            (["ok", "p q", "r s t"], DEAD),  # "r s t" comes first in its batch
            (["p q", "Zz"], DEAD),
        ],
    )
    def test_first_failing_sentence_raises(self, ws, capsys, mode, command, sentences, error):
        model = str(self._model(ws))
        gold = self._gold(ws, sentences)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, gold, "--model", model, "--mode", mode]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize("command", ["eval", "sweep", "tag"])
    def test_a_tag_with_mass_but_zero_prior_fails_at_load(self, ws, capsys, command):
        model = self._model(ws)
        # a capitalized unknown word gets mass on V, whose prior is 0
        text = model.read_text(encoding="utf-8")
        text = text.replace("class capitalized 1\nN 1.0", "class capitalized 2\nN 0.5\nV 0.5")
        model.write_text(text.replace("class-mix 0.0", "class-mix 0.5"), encoding="utf-8")
        source = str(ws / "input.cohorts") if command == "tag" else self._gold(ws, ["Zz", "p q"])
        capsys.readouterr()
        assert main([command, source, "--model", str(model)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        # line 11 is the header of the class capitalized distribution
        assert err == "error: line 11: tag V has zero prior but class capitalized gives it mass\n"


class TestViterbiOnlyWhenAsked:
    def test_posterior_mode_never_runs_viterbi(self, ws, monkeypatch):
        model = train_model(ws)

        def no_viterbi(lattice):
            raise AssertionError("viterbi ran")

        monkeypatch.setattr(decoder, "viterbi", no_viterbi)
        gold, out = str(ws / "train.txt"), str(ws / "out.txt")
        assert main(["tag", str(ws / "input.cohorts"), "--model", model,
                     "--threshold", "0.1", "--out", out]) == 0
        assert main(["eval", gold, "--model", model, "--out", out]) == 0
        assert main(["sweep", gold, "--model", model, "--out", out]) == 0
        assert main(["curve", gold, "--tagset", str(ws / "inventory.tags"),
                     "--sizes", "4,8", "--eval-words", "6", "--out", out]) == 0
        for command in ("tag", "eval", "sweep"):  # the patch is live: viterbi mode hits it
            source = str(ws / "input.cohorts") if command == "tag" else gold
            with pytest.raises(AssertionError, match="viterbi ran"):
                main([command, source, "--model", model, "--mode", "viterbi", "--out", out])


PUBLIC_NAMES = [
    "AgreementTest", "AmbitagError", "AnnotatedSentence", "BOUNDARY", "Cohort", "ConversionRule",
    "EvalReport", "InputError", "LexicalModel", "MODE_POSTERIOR", "MODE_VITERBI",
    "SmoothingConfig", "StateSpace", "Tag", "TagSet", "TaggingResult", "Token", "TradeoffTable",
    "TransitionModel", "WordResult", "agreement_critical_rate", "agreement_test",
    "apply_threshold", "binomial_ci_halfwidth", "build_synthetic_hmm", "bulkparse",
    "cohorts_for_tokens", "convert_cohort", "convert_reading", "corpus", "decode_sentence",
    "decoder", "default_rules", "default_tagset", "disagreement_rate", "dumps_model", "errors",
    "evalstats", "learning_curve", "lexicon", "load_model", "load_rules", "load_tagset",
    "loads_model", "modelfile", "ngram", "oracle_error_rate", "oracle_viterbi", "parse_tagset",
    "read_annotated", "read_cohorts", "sample_corpus", "save_model", "score",
    "split_for_learning_curve", "synth", "tagset", "tradeoff_sweep", "word_count",
    "write_annotated",
]


def _child_env() -> dict[str, str]:
    path = [str(Path(ambitag.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


class TestImport:
    def test_cli_import_leaves_out_scipy(self):
        code = "import sys, ambitag.cli; print('scipy' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=_child_env(), capture_output=True, text=True, check=True
        )
        assert out.stdout == "False\n"

    def test_train_and_tag_import_only_what_they_run(self, ws):
        model = str(ws / "model.txt")
        commands = {
            "train": ["train", str(ws / "train.txt"), "--tagset", str(ws / "inventory.tags"),
                      "--model", model],
            "tag": ["tag", str(ws / "input.cohorts"), "--model", model, "--threshold", "0.1"],
        }
        for name, argv in commands.items():
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-m", "ambitag.cli", *argv],
                env=_child_env(), capture_output=True, text=True, check=True,
            )
            imported = {
                line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines() if line.startswith("import time:")
            }
            assert "ambitag.lexicon" in imported, name  # the log lists the package's modules
            assert not imported & {"ambitag.synth", "ambitag.evalstats", "statistics"}, name

    def test_every_public_name_resolves(self):
        assert ambitag.__all__ == PUBLIC_NAMES
        for name in PUBLIC_NAMES:
            assert getattr(ambitag, name) is not None, name
        assert ambitag.build_synthetic_hmm is ambitag.synth.build_synthetic_hmm
        with pytest.raises(AttributeError):
            ambitag.no_such_name


class TestEval:
    def test_table_report(self, ws, capsys):
        model = train_model(ws)
        capsys.readouterr()  # drop the training report
        (ws / "gold.txt").write_text(
            "\n\n".join(["dog\tN\nruns\tV\n.\t@dot"] * 4) + "\n", encoding="utf-8"
        )
        rc = main(["eval", str(ws / "gold.txt"), "--model", model])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("# config:")
        assert "words                12" in out
        assert "error rate           0.00%" in out

    def test_csv_report(self, ws):
        model = train_model(ws)
        (ws / "gold.txt").write_text("dog\tN\nnew\tV\n.\t@dot\n", encoding="utf-8")
        out = ws / "report.csv"
        rc = main(
            ["eval", str(ws / "gold.txt"), "--model", model,
             "--format", "csv", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[1] == (
            "words,errors,error_rate,ambiguity,unseen_words,"
            "unseen_word_error_rate,lexical_omission_rate"
        )
        fields = lines[2].split(",")
        assert fields[0] == "3"
        assert fields[4] == "1"  # "new" is unseen

    def test_epsilon_above_every_tag_mass_keeps_one_candidate(self, ws, capsys):
        # no word's blended mass clears 0.99, so each cohort keeps its best tag
        model = train_model(ws, "--support-epsilon", "0.99")
        capsys.readouterr()
        (ws / "gold.txt").write_text("dog\tN\nruns\tV\n.\t@dot\n", encoding="utf-8")
        rc = main(["eval", str(ws / "gold.txt"), "--model", model, "--threshold", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "words                3" in out
        assert "tags/word            1.000" in out  # threshold 0 keeps every candidate

    def test_missing_model_is_exit_2(self, ws, capsys):
        rc = main(["eval", str(ws / "train.txt"), "--model", str(ws / "nope.model")])
        assert rc == 2


@pytest.mark.parametrize("command", ["eval", "sweep"])
class TestReportHeaderEchoesTheModel:
    """`eval` and `sweep` decode with the smoothing values the model holds,
    so their headers echo those, not the run's defaults."""

    def header(self, ws, capsys, command, model) -> str:
        capsys.readouterr()  # drop the training report
        assert main([command, str(ws / "train.txt"), "--model", model, "--format", "csv"]) == 0
        return capsys.readouterr().out.splitlines()[0] + "\n"

    def test_a_model_trained_with_the_defaults_echoes_the_defaults(self, ws, capsys, command):
        assert self.header(ws, capsys, command, train_model(ws)) == RunConfig().header()

    def test_a_model_trained_with_other_values_echoes_them(self, ws, capsys, command):
        model = train_model(
            ws, "--support-epsilon", "0.01", "--k-lex", "0.5", "--k-trans", "2.5", "--levels", "3",
            "--cutoff", "1", "--known-threshold", "2", "--class-mix", "0.25",
        )
        want = RunConfig(
            k_lex=0.5, k_trans=2.5, levels=3, cutoff=1, known_threshold=2,
            support_epsilon=0.01, class_mix=0.25,
        )
        assert self.header(ws, capsys, command, model) == want.header()
        assert "support_epsilon=0.01 " in want.header()


class TestSweep:
    def test_rows_and_monotonicity(self, ws):
        model = train_model(ws)
        out = ws / "sweep.csv"
        rc = main(
            ["sweep", str(ws / "train.txt"), "--model", model,
             "--thresholds", "1.0,0.5,0.1,0.0", "--format", "csv", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[1] == "threshold,ambiguity,error_rate"
        rows = [line.split(",") for line in lines[2:]]
        assert [r[0] for r in rows] == ["1.0", "0.5", "0.1", "0.0"]
        ambs = [float(r[1]) for r in rows]
        errs = [float(r[2]) for r in rows]
        assert ambs == sorted(ambs)
        assert errs == sorted(errs, reverse=True)

    def test_ascending_list_rejected(self, ws, capsys):
        model = train_model(ws)
        rc = main(
            ["sweep", str(ws / "train.txt"), "--model", model, "--thresholds", "0.1,0.9"]
        )
        assert rc == 2
        assert "descending" in capsys.readouterr().err

    def test_out_of_range_rejected(self, ws):
        model = train_model(ws)
        assert main(
            ["sweep", str(ws / "train.txt"), "--model", model, "--thresholds", "1.5,0.5"]
        ) == 2

    @pytest.mark.parametrize(
        "spec, message", [("a,b", "bad threshold list 'a,b'"), (",", "empty threshold list")]
    )
    def test_unreadable_list_is_exit_2(self, ws, capsys, spec, message):
        model = train_model(ws)
        capsys.readouterr()  # drop the training report
        rc = main(["sweep", str(ws / "train.txt"), "--model", model, "--thresholds", spec])
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestCurve:
    def test_points_per_size(self, ws):
        blocks = [f"w{i}\tN\nw{i + 1}\tV\nw{i + 2}\tN\nw{i + 3}\tV\nw{i + 4}\tN" for i in range(16)]
        (ws / "big.txt").write_text("\n\n".join(blocks) + "\n", encoding="utf-8")
        out = ws / "curve.csv"
        rc = main(
            ["curve", str(ws / "big.txt"), "--tagset", str(ws / "inventory.tags"),
             "--sizes", "10,30", "--eval-words", "20", "--format", "csv",
             "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[1] == "train_words,error_rate"
        assert len(lines) == 4
        sizes = [int(line.split(",")[0]) for line in lines[2:]]
        assert sizes[0] >= 10 and sizes[1] >= 30

    def test_oversized_request_is_exit_2(self, ws, capsys):
        rc = main(
            ["curve", str(ws / "train.txt"), "--tagset", str(ws / "inventory.tags"),
             "--sizes", "100000", "--eval-words", "10"]
        )
        assert rc == 2
        assert "deficit" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--sizes", ""], "empty training size list"),
            (["--sizes=-100,200"], "training sizes must be >= 0, got -100"),
            (["--sizes", "4", "--eval-words", "-5"], "eval words must be >= 1, got -5"),
            (["--sizes", "1,x"], "bad size list '1,x'"),
        ],
    )
    def test_bad_sizes_are_exit_2(self, ws, capsys, flags, message):
        rc = main(
            ["curve", str(ws / "train.txt"), "--tagset", str(ws / "inventory.tags"),
             "--eval-words", "6", *flags]
        )
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestAgree:
    def test_summary_form_prints_frozen_critical_rate(self, ws, capsys):
        rc = main(["agree", "--n", "55000", "--p0", "0.03", "--alpha", "0.05"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "critical rate 0.028804" in out
        assert "observed" not in out

    def test_decision_with_observed_rate(self, ws, capsys):
        rc = main(
            ["agree", "--n", "55000", "--p0", "0.03", "--alpha", "0.05",
             "--observed", "0.000382"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "observed rate 0.000382" in out
        assert "reject null" in out

    def test_observed_above_critical_cannot_reject(self, ws, capsys):
        rc = main(
            ["agree", "--n", "55000", "--p0", "0.03", "--alpha", "0.05",
             "--observed", "0.03"]
        )
        assert rc == 0
        assert "cannot reject null" in capsys.readouterr().out

    def test_corpora_form_lists_diffs(self, ws, capsys):
        a = "dog\tN\nruns\tV\n\ndog\tN\n"
        b = "dog\tN\nruns\tN\n\ndog\tN\n"
        (ws / "a.txt").write_text(a, encoding="utf-8")
        (ws / "b.txt").write_text(b, encoding="utf-8")
        rc = main(
            ["agree", str(ws / "a.txt"), str(ws / "b.txt"),
             "--tagset", str(ws / "inventory.tags"), "--p0", "0.03", "--alpha", "0.05"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "n 3" in out
        assert "differing positions 1" in out
        assert "sentence 1 word 2 'runs': V vs N" in out

    def test_single_corpus_is_exit_2(self, ws, capsys):
        (ws / "a.txt").write_text("dog\tN\n", encoding="utf-8")
        rc = main(
            ["agree", str(ws / "a.txt"),
             "--tagset", str(ws / "inventory.tags"), "--p0", "0.03", "--alpha", "0.05"]
        )
        assert rc == 2

    def test_no_inputs_is_exit_2(self, ws):
        assert main(["agree", "--p0", "0.03", "--alpha", "0.05"]) == 2

    @pytest.mark.parametrize("observed", ["-3", "1.5", "nan", "inf"])
    def test_observed_outside_0_1_is_exit_2(self, ws, capsys, observed):
        argv = ["agree", "--n", "100", "--p0", "0.1", "--alpha", "0.05", "--observed", observed]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: observed rate must be in [0, 1]") and err.count("\n") == 1


# Single-line mutants of each input file: one line's field, space-separated
# word or whole text replaced, or the line dropped.
ODD_TEXT = st.sampled_from(
    ["", "x", "\t", " ", "#", "N V", "@dot", "<s>", "N\tV", "\ufeff", "\r", "\x85", "\\t"]
) | st.text(max_size=4)
ANALYSIS_TEXT = "dog\n   dog N NOM SG\nruns\n   run V PRES SG3\n   run N NOM PL\n.\n   . PUNCT\n"
MUTATED_INPUTS = {  # id: the text, its parser and the command that reads it from {path}
    "eval": (
        TRAIN_TEXT,
        lambda text: parse_annotated(text, parse_tagset(TS_TEXT)),
        "eval {path} --model {model}",
    ),
    "tag": (
        "\n".join([COHORT_TEXT, "dog\tN\nbarks\tV N\n", COHORT_TEXT]),
        lambda text: parse_cohorts(text, parse_tagset(TS_TEXT)),
        "tag {path} --model {model}",
    ),
    "config": (
        "# run settings\nk_lex = 0.5\nthreshold = 0.2\n\nmode = viterbi\nseed = 3\n",
        lambda text: RunConfig().update_from_text(text),
        "tag {ws}/input.cohorts --model {model} --config {path}",
    ),
    "tagset": (TS_TEXT, parse_tagset, "train {ws}/train.txt --tagset {path} --model {ws}/m2.txt"),
    "rules": (
        "# rules\nN -> N\nV -> V\nV PRES -> V 1\n\nPUNCT -> @dot\n",
        lambda text: parse_rules(text, parse_tagset(TS_TEXT)),
        "convert {ws}/analysis.txt --tagset {ws}/inventory.tags --rules {path}",
    ),
}


def _mutant(data, text: str) -> str:
    lines = text.split("\n")
    idx = data.draw(st.integers(0, len(lines) - 1))
    how = data.draw(st.sampled_from(["field", "word", "line", "drop"]))
    if how == "drop":
        del lines[idx]
    elif how == "line":
        lines[idx] = data.draw(ODD_TEXT)
    else:
        sep = "\t" if how == "field" else " "
        parts = lines[idx].split(sep)
        parts[data.draw(st.integers(0, len(parts) - 1))] = data.draw(ODD_TEXT)
        lines[idx] = sep.join(parts)
    return "\n".join(lines)


class TestMutatedInputs:
    """Any single-line mutant of an input either parses or raises an
    InputError, and a mutant the parser refuses exits 2 with one `error:`
    line and nothing on stdout."""

    @pytest.mark.parametrize("command", MUTATED_INPUTS)
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_a_mutant_parses_or_raises_input_error(self, command, data):
        text, parse, _ = MUTATED_INPUTS[command]
        try:
            parse(_mutant(data, text))
        except InputError:
            pass

    @pytest.mark.parametrize("command", MUTATED_INPUTS)
    @settings(
        max_examples=60, deadline=None, derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_a_refused_mutant_is_exit_2_with_one_error_line(self, ws, capsys, command, data):
        text, parse, argv = MUTATED_INPUTS[command]
        mutant = _mutant(data, text)
        path = ws / "mutant.txt"
        path.write_text(mutant, encoding="utf-8")
        if not (ws / "model.txt").exists():
            train_model(ws)
            (ws / "analysis.txt").write_text(ANALYSIS_TEXT, encoding="utf-8")
        capsys.readouterr()
        rc = main(argv.format(path=path, ws=ws, model=ws / "model.txt").split())
        out, err = capsys.readouterr()
        event(f"exit {rc}")
        try:
            parse(read_text(str(path)))  # as the CLI reads it
        except InputError:
            assert rc == 2
        # a mutant that parses may still be refused (an empty gold corpus, or
        # a tag inventory without a tag the corpus uses), and a mutant corpus
        # or cohort file may leave no path through a sentence (a dead lattice,
        # exit 1)
        assert rc in ((0, 1, 2) if command in ("eval", "tag") else (0, 2))
        if rc:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


class TestConvert:
    def test_walk_block_with_shipped_rules(self, ws, capsys):
        (ws / "analysis.txt").write_text(WALK_BLOCK, encoding="utf-8")
        rc = main(["convert", str(ws / "analysis.txt")])
        assert rc == 0
        out = capsys.readouterr().out
        assert out == "walk\tV-SUBJUNCTIVE V-IMP V-INF V-PRES-BASE N-NOM-SG\n"

    def test_unconvertible_reading_is_exit_2(self, ws, capsys):
        (ws / "analysis.txt").write_text("blob\n   blob ZZZ QQQ\n", encoding="utf-8")
        rc = main(["convert", str(ws / "analysis.txt")])
        assert rc == 2
        assert "ZZZ" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("the\n  the DET CENTRAL ART SG/PL\nblob\n", 3),  # at the end of the file
            ("the\n  the DET CENTRAL ART SG/PL\nblob\nwalk\n  walk V INF\n", 3),  # mid-sentence
            ("blob\n\nthe\n  the DET CENTRAL ART SG/PL\n", 1),  # at a sentence's end
        ],
    )
    def test_token_without_readings_names_its_line(self, ws, capsys, text, lineno):
        (ws / "analysis.txt").write_text(text, encoding="utf-8")
        rc = main(["convert", str(ws / "analysis.txt")])
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: {ws / 'analysis.txt'}:{lineno}: token 'blob' has no readings\n")

    def test_token_holding_a_tab_is_exit_2(self, ws, capsys):
        # its cohort line would read as two surfaces, which `tag` refuses
        (ws / "analysis.txt").write_text("the\tend\n  DET CENTRAL ART SG/PL\n", encoding="utf-8")
        rc = main(["convert", str(ws / "analysis.txt")])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "analysis.txt:1: token 'the\\tend' holds a tab" in err


class TestGenSynth:
    def test_generates_parseable_corpus(self, ws):
        out = ws / "synth.txt"
        tags = ws / "synth.tags"
        rc = main(
            ["gen-synth", "--words", "200", "--tags", "4", "--vocab", "40",
             "--out", str(out), "--tagset-out", str(tags)]
        )
        assert rc == 0
        ts = load_tagset(str(tags))
        assert len(ts) == 4
        corpus = parse_annotated(out.read_text(encoding="utf-8"), ts)
        assert word_count(corpus) >= 200

    def test_deterministic_for_a_seed(self, ws):
        a, b = ws / "a.txt", ws / "b.txt"
        args = ["gen-synth", "--words", "150", "--tags", "3", "--vocab", "30", "--seed", "5"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_text(encoding="utf-8") == b.read_text(encoding="utf-8")

    def test_seed_changes_output(self, ws):
        a, b = ws / "a.txt", ws / "b.txt"
        base = ["gen-synth", "--words", "150", "--tags", "3", "--vocab", "30"]
        assert main(base + ["--seed", "1", "--out", str(a)]) == 0
        assert main(base + ["--seed", "2", "--out", str(b)]) == 0
        assert a.read_text(encoding="utf-8") != b.read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--seed", "-2"], None),
            ([], "seed = -4\n"),
            (["--mean-len", "nan"], None),
            (["--ambiguous-frac", "nan"], None),
            (["--ambiguous-frac", "3"], None),
            (["--words", "0"], None),
        ],
    )
    def test_bad_generator_values_are_exit_2(self, ws, capsys, flags, config):
        args = ["gen-synth", "--words", "10", "--tags", "3", "--vocab", "30", *flags]
        if config is not None:
            (ws / "run.cfg").write_text(config, encoding="utf-8")
            args += ["--config", str(ws / "run.cfg")]
        rc = main(args + ["--out", str(ws / "synth.txt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (ws / "synth.txt").exists()


K_TRANS_COMMANDS = {  # each command that reads k_trans from a config file
    "train": "train {ws}/train.txt --tagset {ws}/inventory.tags --model {ws}/m2.txt",
    "tag": "tag {ws}/input.cohorts --model {model}",
    "eval": "eval {ws}/train.txt --model {model}",
    "sweep": "sweep {ws}/train.txt --model {model}",
    "curve": "curve {ws}/train.txt --tagset {ws}/inventory.tags --sizes 4 --eval-words 6",
}


class TestConfigFile:
    @pytest.mark.parametrize("command", K_TRANS_COMMANDS)
    def test_bad_k_lex_names_its_setting(self, ws, capsys, command):
        model = train_model(ws)
        capsys.readouterr()  # drop the training report
        (ws / "run.cfg").write_text("k_lex = -1\n", encoding="utf-8")
        argv = K_TRANS_COMMANDS[command].format(ws=ws, model=model).split()
        assert main([*argv, "--config", str(ws / "run.cfg")]) == 2
        assert capsys.readouterr() == ("", "error: blend strength k_lex must be finite and >= 0, got -1.0\n")

    @pytest.mark.parametrize("value", ["-1", "nan"])
    @pytest.mark.parametrize("command", K_TRANS_COMMANDS)
    def test_bad_k_trans_is_exit_2_before_any_input(self, ws, capsys, command, value):
        model = train_model(ws)
        capsys.readouterr()  # drop the training report
        (ws / "run.cfg").write_text(f"k_trans = {value}\n", encoding="utf-8")
        argv = K_TRANS_COMMANDS[command].format(ws=ws, model=model).split()
        assert main([*argv, "--config", str(ws / "run.cfg")]) == 2
        assert capsys.readouterr() == (
            "", f"error: blend strength k_trans must be finite and >= 0, got {float(value)}\n"
        )
        assert not (ws / "m2.txt").exists()

    def test_flags_override_config_file(self, ws, capsys):
        model = train_model(ws)
        capsys.readouterr()  # drop the training report
        (ws / "run.cfg").write_text("threshold = 0.0\nmode = viterbi\n", encoding="utf-8")
        (ws / "gold.txt").write_text("dog\tN\nruns\tV\n.\t@dot\n", encoding="utf-8")
        rc = main(
            ["eval", str(ws / "gold.txt"), "--model", model, "--config", str(ws / "run.cfg")]
        )
        assert rc == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert "threshold=0.0" in header and "mode=viterbi" in header
        rc = main(
            ["eval", str(ws / "gold.txt"), "--model", model,
             "--config", str(ws / "run.cfg"), "--threshold", "1.0"]
        )
        assert rc == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert "threshold=1.0" in header and "mode=viterbi" in header

    def test_unknown_key_is_exit_2(self, ws, capsys):
        model = train_model(ws)
        (ws / "run.cfg").write_text("thresold = 0.5\n", encoding="utf-8")
        rc = main(["eval", str(ws / "train.txt"), "--model", model, "--config", str(ws / "run.cfg")])
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("threshold 0.5", "{cfg}:2: expected 'key = value'"),
            ("mode = foo", "mode must be posterior or viterbi, got 'foo'"),
        ],
    )
    def test_malformed_config_is_exit_2(self, ws, capsys, line, message):
        model = train_model(ws)
        capsys.readouterr()  # drop the training report
        cfg = ws / "run.cfg"
        cfg.write_text(f"seed = 1\n{line}\n", encoding="utf-8")
        rc = main(["tag", str(ws / "input.cohorts"), "--model", model, "--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr() == ("", f"error: {message.format(cfg=cfg)}\n")

    def test_bad_threshold_value_is_exit_2(self, ws, capsys):
        model = train_model(ws)
        rc = main(["eval", str(ws / "train.txt"), "--model", model, "--threshold", "1.5"])
        assert rc == 2

    def test_defaults_are_smoothing_config_s(self, ws, capsys):
        assert RunConfig().smoothing() == SmoothingConfig()
        train_model(ws)
        assert capsys.readouterr().out.splitlines(keepends=True)[0] == (
            "# config: k_lex=1.0 k_trans=1.0 levels=2 cutoff=3 known_threshold=1"
            " support_epsilon=0.0 class_mix=0.5 threshold=1.0 mode=posterior seed=0\n"
        )

    def test_values_take_each_field_s_default_type(self):
        # the same fields annotated with classes, as they are without
        # postponed evaluation of annotations
        plain = dataclasses.make_dataclass(
            "PlainRunConfig",
            [(f.name, type(f.default), f.default) for f in dataclasses.fields(RunConfig)],
            bases=(RunConfig,),
        )
        for cls in (RunConfig, plain):
            cfg = cls()
            cfg.update_from_text("k_lex = 2\nlevels = 3\nmode = viterbi\nseed = -3\n")
            assert (cfg.k_lex, cfg.levels, cfg.mode, cfg.seed) == (2.0, 3, "viterbi", -3)
            assert type(cfg.k_lex) is float and type(cfg.levels) is int
            with pytest.raises(ConfigError, match=r"^run.cfg:2: bad value '1.5' for levels$"):
                cfg.update_from_text("\nlevels = 1.5\n", source="run.cfg")
