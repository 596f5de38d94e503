"""Tests of the benchmark's own code: checks, span arithmetic, and tiny
runs of every workload through the real command line."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

import run
from checks import check_sweep, check_tag_output
from tracer import Span, lattice_cells, layer_self_times, self_times
from workloads import WORKLOADS, prepare

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "dense-10": dict(train_words=3_000, chunks=1, tag_chunk_words=150, sweep_chunk_words=150),
    "dense-60": dict(train_words=3_000, chunks=1, tag_chunk_words=90, sweep_chunk_words=20),
    "sparse-83": dict(train_words=4_000, chunks=1, tag_chunk_words=200, sweep_chunk_words=200),
}


def test_workloads_match_benchmark_json():
    assert list(WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


# -- span arithmetic ----------------------------------------------------------


def test_self_time_subtracts_only_direct_children():
    spans = [
        Span(0, None, "cli", 0.0, 10.0),
        Span(1, 0, "corpus.read", 1.0, 4.0),
        Span(2, 1, "corpus.read", 2.0, 3.0),
        Span(3, 0, "decoder.decode", 5.0, 9.0),
        Span(4, 3, "decoder.lattice", 5.5, 7.0),
    ]
    assert self_times(spans) == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 2.5, 4: 1.5})
    assert layer_self_times(spans) == pytest.approx(
        {"cli": 3.0, "corpus.read": 3.0, "decoder.decode": 2.5, "decoder.lattice": 1.5}
    )


def test_self_time_counts_overlapping_children_once():
    spans = [Span(0, None, "cli", 0.0, 10.0), Span(1, 0, "a", 1.0, 5.0), Span(2, 0, "b", 3.0, 6.0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_lattice_cells_match_the_decoders_blocks():
    from ambitag.corpus import Cohort, Token
    from ambitag.decoder import build_lattice
    from ambitag.lexicon import LexicalModel
    from ambitag.ngram import TransitionModel
    from ambitag.synth import build_synthetic_hmm, sample_corpus

    hmm = build_synthetic_hmm(n_tags=6, vocab=60, seed=3)
    corpus = sample_corpus(hmm, 500, seed=4)
    lex = LexicalModel.train(corpus, hmm.tagset)
    trans = TransitionModel.train(corpus, hmm.tagset)
    rng = np.random.default_rng(5)
    tags = list(hmm.tagset)
    sizes = [int(k) for k in rng.integers(1, 7, size=9)]
    cohorts = [
        Cohort(Token(hmm.words[i]), [tags[t] for t in rng.choice(6, size=k, replace=False)])
        for i, k in enumerate(sizes)
    ]
    lattice = build_lattice(lex, trans, cohorts)
    assert lattice_cells(sizes) == sum(m.size for m in lattice.tensors)


# -- output checks ------------------------------------------------------------

INPUT = "a\tT0 T1\nb\tT2\n\nc\tT0 T3\n"


def test_tag_output_that_matches_its_input_passes():
    assert check_tag_output(INPUT, "# config: x\na\tT1\nb\tT2\n\nc\tT3 T0\n") == []


@pytest.mark.parametrize(
    "output",
    [
        "a\tT1\n\nc\tT0\n",  # token b dropped
        "a\tT1\nb\tT2\n\nc\tT2\n",  # T2 is not a candidate of c
        "a\t\nb\tT2\n\nc\tT0\n",  # empty retained set
        "b\tT2\na\tT1\n\nc\tT0\n",  # tokens out of order
    ],
)
def test_tag_output_defect_fails_its_sentence(output):
    assert len(check_tag_output(INPUT, output)) == 1


def test_missing_sentence_fails():
    assert len(check_tag_output(INPUT, "a\tT1\nb\tT2\n")) == 1


def test_sweep_checks():
    good = {1.0: (1.0, 0.2), 0.5: (1.0, 0.2), 0.1: (1.4, 0.05), 0.0: (10.0, 0.0)}
    assert check_sweep(good) == []
    assert len(check_sweep({**good, 1.0: (1.1, 0.2), 0.5: (1.1, 0.2)})) == 1
    assert len(check_sweep({**good, 0.0: (1.2, 0.0)})) == 1  # ambiguity fell
    assert len(check_sweep({**good, 0.1: (1.4, 0.3)})) == 1  # error rose


# -- failure accounting -------------------------------------------------------


class CannedSession(run.Session):
    """Answers every invocation with a fixed stdout instead of running it."""

    def __init__(self, workdir, stdout):
        super().__init__(workdir)
        self.stdout = stdout

    def run(self, argv, sentences, report=None):
        self.attempted += 1 + sentences
        return run.Invocation(0.1, 0, self.stdout)


@pytest.mark.parametrize("defect", ["drop", "outside"])
def test_defective_tag_output_counts_as_failed(tmp_path, defect):
    w = tiny("sparse-83")
    inputs = prepare(w, 0, tmp_path / "inputs")
    text = inputs.tag(0).read_text(encoding="utf-8")
    lines = text.splitlines()
    if defect == "drop":
        lines.pop(0)
    else:
        surface, tags = lines[0].split("\t")
        outside = next(f"T{i}" for i in range(w.n_tags) if f"T{i}" not in tags.split())
        lines[0] = f"{surface}\t{outside}"
    session = CannedSession(tmp_path, "\n".join(lines) + "\n")
    bench = run.Bench(w, inputs, session)
    bench.tag(0)
    assert session.failed == 1
    session.stdout = text
    bench.tag(0)
    assert session.failed == 1


def test_quality_pools_chunks_by_word_count(tmp_path):
    w = dataclasses.replace(tiny("dense-10"), chunks=2)
    inputs = prepare(w, 0, tmp_path / "inputs")
    bench = run.Bench(w, inputs, run.Session(tmp_path))
    words = inputs.properties["sweep"]["chunk_words"]
    errors = [3, 7]
    bench.rows = {
        c: {1.0: (1.0, errors[c] / n), 0.1: (1.5, 1 / n)} for c, n in enumerate(words)
    }
    q = bench.quality()
    assert q["error_rate"] == sum(errors) / sum(words)
    assert q["error_rate_t0.1"] == 2 / sum(words)
    assert q["ambiguity_t0.1"] == pytest.approx(1.5)


# -- tiny runs through the command line ---------------------------------------


def test_inputs_are_a_function_of_the_seed(tmp_path):
    w = tiny("sparse-83")
    a = prepare(w, 7, tmp_path / "a")
    b = prepare(w, 7, tmp_path / "b")
    c = prepare(w, 8, tmp_path / "c")
    assert a.tag(0).read_bytes() == b.tag(0).read_bytes()
    assert a.train.read_bytes() != c.train.read_bytes()
    assert 1 <= a.properties["tag"]["cands_per_word"] <= 5


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_run_passes_its_checks(tmp_path, name):
    result = run.run_workload(tiny(name), 0, 0, False, SPEC, tmp_path)
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert [m["name"] for m in SPEC["end_to_end"]] == list(result["metrics"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_reports_every_layer(tmp_path):
    result = run.run_workload(tiny("dense-10"), 0, 0, True, SPEC, tmp_path)
    assert result["correct"], result["problems"]
    assert [m["name"] for m in SPEC["per_layer"]] == list(result["metrics"])
    assert result["detail"]["missing_targets"] == []
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["decoder.dead_lattices"] == 0
    assert 0 < metrics["trace.coverage"] <= 1
