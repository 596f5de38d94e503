"""Benchmark workloads and their seeded input files.

Each workload fixes a synthetic trigram HMM (``ambitag.synth``) and the
sizes of the inputs drawn from it with the run's seed: a training corpus,
cohort files for ``ambitag tag``, gold corpora for ``ambitag sweep`` and a
one-sentence cohort file that times start-up.  The tag and sweep inputs
come in `chunks` files each: a run times one chunk per round, so it takes
many short samples, while the quality metrics pool every chunk.  The
generating HMM is the same for every seed, so a seed changes the data but
not the task; the seed is the only source of randomness in the inputs.

Inputs are written once per (workload, seed) into a cache directory, keyed
also by the workload's recipe, and reused, so generation never falls
inside a timed region.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ambitag.corpus import Cohort, format_cohorts, write_annotated
from ambitag.synth import SyntheticHMM, build_synthetic_hmm, sample_corpus

# The gen-synth defaults (ambiguous_frac 0.3, secondary weight 0.4,
# concentration 0.5) leave about 60 errors at theta = 0.1 in a 10k-word
# slice, too few for a rate that is steady across seeds.  These settings
# make words more ambiguous and context less decisive, so every error rate
# rests on hundreds of errors.
HMM_SHAPE = dict(ambiguous_frac=0.8, secondary_weight=0.9, concentration=1.0)
HMM_SEED = 0
LONG_SENTENCE = 80  # sample_corpus's sentence-length cap
SETUP_SENTENCE = 5
MAX_ANALYSER_READINGS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    n_tags: int
    vocab: int
    train_words: int
    chunks: int
    tag_chunk_words: int
    sweep_chunk_words: int
    # Tag input: analyser-shaped cohorts (1-5 readings, fixed per surface,
    # always holding every tag the HMM can emit the word with) instead of
    # every tag as a candidate.
    analyser_cohorts: bool
    support_epsilon: float  # passed to `ambitag train`; > 0 prunes lexicon cohorts
    long_sentence: bool  # the first tag chunk opens with an 80-word sentence


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="dense-10",
            n_tags=10, vocab=1000,
            train_words=40_000, chunks=7, tag_chunk_words=1_000, sweep_chunk_words=3_000,
            analyser_cohorts=False, support_epsilon=0.0, long_sentence=False,
        ),
        Workload(
            name="dense-60",
            n_tags=60, vocab=1000,
            train_words=100_000, chunks=4, tag_chunk_words=100, sweep_chunk_words=255,
            analyser_cohorts=False, support_epsilon=0.0, long_sentence=True,
        ),
        Workload(
            name="sparse-83",
            n_tags=83, vocab=4_000,
            train_words=100_000, chunks=5, tag_chunk_words=2_500, sweep_chunk_words=2_500,
            analyser_cohorts=True, support_epsilon=0.01, long_sentence=False,
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Paths of one workload's generated files, plus their properties."""

    dir: Path
    properties: dict

    @property
    def tagset(self) -> Path:
        return self.dir / "synth.tags"

    @property
    def train(self) -> Path:
        return self.dir / "train.txt"

    @property
    def setup(self) -> Path:
        return self.dir / "setup.cohorts"

    def tag(self, chunk: int) -> Path:
        return self.dir / f"tag-{chunk}.cohorts"

    def sweep(self, chunk: int) -> Path:
        return self.dir / f"sweep-{chunk}.txt"


def build_hmm(w: Workload) -> SyntheticHMM:
    return build_synthetic_hmm(n_tags=w.n_tags, vocab=w.vocab, seed=HMM_SEED, **HMM_SHAPE)


def analyser_readings(hmm: SyntheticHMM, seed: int) -> list[list[int]]:
    """Per vocabulary word: the tags that emit it plus random distractors,
    1 to MAX_ANALYSER_READINGS in all, sorted by tag index."""
    rng = np.random.default_rng(seed)
    n = hmm.n_tags
    readings = []
    for w in range(len(hmm.words)):
        emitters = set(np.flatnonzero(hmm.emit[:, w] > 0).tolist())
        size = max(int(rng.integers(1, MAX_ANALYSER_READINGS + 1)), len(emitters))
        others = [t for t in rng.permutation(n).tolist() if t not in emitters]
        readings.append(sorted(emitters | set(others[: size - len(emitters)])))
    return readings


def _cohorts(sentences, tags_for_surface) -> list[list[Cohort]]:
    return [[Cohort(tok, tags_for_surface(tok.surface)) for tok in s.tokens] for s in sentences]


def _shape(sentences) -> dict:
    lengths = [len(s) for s in sentences]
    return {"words": sum(lengths), "sentences": len(lengths), "longest_sentence": max(lengths)}


def _pool(chunks) -> dict:
    props = _shape([s for chunk in chunks for s in chunk])
    props["chunk_words"] = [sum(len(s) for s in chunk) for chunk in chunks]
    props["chunk_sentences"] = [len(chunk) for chunk in chunks]
    return props


def generate(w: Workload, seed: int, out: Path) -> dict:
    """Write the workload's input files for `seed` into `out`; return properties."""
    hmm = build_hmm(w)
    base = 100 * seed  # every input gets its own sampling seed below base + 100 (chunks <= 40)
    train = sample_corpus(hmm, w.train_words, seed=base + 1)
    capped = dataclasses.replace(hmm, p_end=0.0)  # only the length cap ends a sentence
    setup = sample_corpus(capped, SETUP_SENTENCE, seed=base + 2, max_sentence_len=SETUP_SENTENCE)
    tag_gold = [sample_corpus(hmm, w.tag_chunk_words, seed=base + 10 + i) for i in range(w.chunks)]
    sweep = [sample_corpus(hmm, w.sweep_chunk_words, seed=base + 50 + i) for i in range(w.chunks)]
    if w.long_sentence:
        long = sample_corpus(capped, LONG_SENTENCE, seed=base + 4)
        tag_gold[0] = long + sample_corpus(hmm, w.tag_chunk_words - LONG_SENTENCE, seed=base + 10)

    tags = hmm.tagset
    if w.analyser_cohorts:
        table = analyser_readings(hmm, seed=base + 3)
        word_id = {s: i for i, s in enumerate(hmm.words)}

        def tags_for_surface(surface):
            return [tags.by_index(t) for t in table[word_id[surface]]]
    else:
        every = list(tags)

        def tags_for_surface(surface):
            return every

    out.mkdir(parents=True)
    (out / "synth.tags").write_text(tags.to_text(), encoding="utf-8")
    write_annotated(train, str(out / "train.txt"))
    (out / "setup.cohorts").write_text(
        format_cohorts(_cohorts(setup, tags_for_surface)), encoding="utf-8"
    )
    candidates = 0
    for i in range(w.chunks):
        cohorts = _cohorts(tag_gold[i], tags_for_surface)
        candidates += sum(len(c.candidates) for s in cohorts for c in s)
        (out / f"tag-{i}.cohorts").write_text(format_cohorts(cohorts), encoding="utf-8")
        write_annotated(sweep[i], str(out / f"sweep-{i}.txt"))
    tag_props = _pool(tag_gold)
    tag_props["cands_per_word"] = candidates / tag_props["words"]
    return {"train": _shape(train), "setup": _shape(setup), "tag": tag_props, "sweep": _pool(sweep)}


def prepare(w: Workload, seed: int, cache: Path) -> Inputs:
    """Generate the inputs for (w, seed) unless the cache already has them."""
    recipe = repr((w, HMM_SHAPE, HMM_SEED, LONG_SENTENCE, SETUP_SENTENCE))
    final = cache / f"{w.name}-s{seed}-{hashlib.sha256(recipe.encode()).hexdigest()[:12]}"
    props_path = final / "properties.json"
    if not props_path.is_file():
        tmp = cache / f".tmp-{w.name}-s{seed}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        props = generate(w, seed, tmp)
        (tmp / "properties.json").write_text(json.dumps(props, indent=1), encoding="utf-8")
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)  # a partly written cache entry is never visible
    return Inputs(final, json.loads(props_path.read_text(encoding="utf-8")))
