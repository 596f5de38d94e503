"""Acceptance suite: one test per release criterion, runnable end to end.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line per
criterion.  The synthetic-corpus criteria use frozen seeds so the numbers
are reproducible.
"""

from __future__ import annotations

import importlib.resources
import math
import random
import time
import timeit

import numpy as np
import pytest

from ambitag.corpus import AnnotatedSentence, Cohort, Token, parse_annotated
from ambitag.decoder import apply_threshold, cohorts_for_tokens, decode_sentence
from ambitag.evalstats import (
    agreement_critical_rate,
    binomial_ci_halfwidth,
    decode_corpus,
    score,
    score_decodes,
    tradeoff_sweep,
)
from ambitag.lexicon import LexicalModel, SmoothingConfig
from ambitag.modelfile import dumps_model, loads_model
from ambitag.ngram import TransitionModel
from ambitag.synth import build_synthetic_hmm, oracle_error_rate, sample_corpus
from ambitag.tagset import convert_cohort, default_rules, default_tagset, parse_tagset

from oracles import brute_force_decode, path_weight


def test_c1_agreement_critical_rate():
    got = agreement_critical_rate(55000, 0.03, 0.05)
    assert got == pytest.approx(0.0288, abs=1e-4)
    agreement_critical_rate(55000, 0.03, 0.05)  # warm-up
    best = min(
        timeit.repeat(
            lambda: agreement_critical_rate(55000, 0.03, 0.05), number=1, repeat=20
        )
    )
    assert best < 1e-3, f"single call took {best * 1e3:.3f} ms"


def test_c2_confidence_interval_halfwidths():
    assert 0.0017 <= binomial_ci_halfwidth(0.0472, 55000, 0.95) <= 0.0019
    assert 0.0018 <= binomial_ci_halfwidth(0.0351, 35000, 0.95) <= 0.0021


def test_c3_tag_inventory_and_walk_conversion():
    ts = default_tagset()
    readings = [
        ["walk", "<SV>", "<SVO>", "V", "SUBJUNCTIVE", "VFIN"],
        ["walk", "<SV>", "<SVO>", "V", "IMP", "VFIN"],
        ["walk", "<SV>", "<SVO>", "V", "INF"],
        ["walk", "<SV>", "<SVO>", "V", "PRES", "-SG3", "VFIN"],
        ["walk", "N", "NOM", "SG"],
    ]
    cohort = convert_cohort("walk", readings, default_rules(ts), ts)
    assert {t.symbol for t in cohort.candidates} == {
        "V-SUBJUNCTIVE", "V-IMP", "V-INF", "V-PRES-BASE", "N-NOM-SG",
    }
    counts = ts.counts_by_class()
    assert counts["punctuation"] == 17
    # the inventory carries 83 word tags and documents the mismatch with the
    # conventional count of 80 in its own header
    assert counts["word"] == 83
    source = (
        importlib.resources.files("ambitag.data")
        .joinpath("engcg_reduced.tags")
        .read_text(encoding="utf-8")
    )
    assert "80" in source and "83" in source


def test_c4_decoder_matches_enumeration():
    ts = parse_tagset("A\nB\nC\nD\nE\n@dot\n")
    vocab = ["wa", "wb", "wc", "wd", "we", "wf"]
    word_tags = list(ts.word_tags())
    syms = [t.symbol for t in word_tags]

    def training_corpus(seed):
        rng = random.Random(seed)
        sents = []
        for _ in range(40):
            toks = [Token(rng.choice(vocab)) for _ in range(rng.randint(1, 6))]
            sents.append(AnnotatedSentence(toks, [ts.tag(rng.choice(syms)) for _ in toks]))
        return sents

    rng = random.Random(99)
    t0 = time.perf_counter()
    lex = trans = None
    for i in range(200):
        if i % 20 == 0:  # fresh random smoothed models every 20 lattices
            k = rng.choice([0.3, 1.0, 2.5])
            corpus = training_corpus(i)
            lex = LexicalModel.train(corpus, ts, SmoothingConfig(k=k))
            trans = TransitionModel.train(corpus, ts, k=k)
        cohorts = [
            Cohort(Token(rng.choice(vocab)), rng.sample(word_tags, rng.randint(1, 5)))
            for _ in range(rng.randint(1, 6))
        ]
        dec = decode_sentence(lex, trans, cohorts)
        ids = [sorted(t.index for t in c.candidates) for c in cohorts]
        ap = [
            {j: lex.converse_lexical_probs(c.token.surface, [j])[0] for j in pos}
            for c, pos in zip(cohorts, ids)
        ]
        total, post, _, best_w = brute_force_decode(trans, ap, ids)
        assert dec.log_likelihood == pytest.approx(math.log(total), rel=1e-9)
        for t, want in enumerate(post):
            for j, p in want.items():
                assert dec.posteriors[t][j] == pytest.approx(p, rel=1e-9, abs=1e-12)
        w = path_weight(trans, ap, dec.viterbi_ids)
        assert w >= (1.0 - 1e-9) * best_w
    assert time.perf_counter() - t0 < 10.0


@pytest.fixture(scope="module")
def synth_10k():
    model = build_synthetic_hmm(n_tags=10, vocab=600, seed=3)
    corpus = sample_corpus(model, 10000, seed=4)
    lex = LexicalModel.train(corpus, model.tagset)
    trans = TransitionModel.train(corpus, model.tagset)
    return model, corpus, lex, trans


def test_c5_threshold_monotonicity(synth_10k):
    model, corpus, lex, trans = synth_10k
    thetas = [1.0, 0.5, 0.1, 0.0]
    for dec in decode_corpus(lex, trans, [cohorts_for_tokens(lex, s.tokens) for s in corpus]):
        per_theta = [
            [set(w.retained) for w in apply_threshold(dec, th).words] for th in thetas
        ]
        for tighter, looser in zip(per_theta, per_theta[1:]):
            assert all(a <= b for a, b in zip(tighter, looser))
    table = tradeoff_sweep(corpus, lex, trans, thetas)
    ambs = [a for _, a, _ in table.rows]
    errs = [e for _, _, e in table.rows]
    assert all(a1 <= a2 for a1, a2 in zip(ambs, ambs[1:]))
    assert all(e1 >= e2 for e1, e2 in zip(errs, errs[1:]))


def test_c6_synthetic_end_to_end():
    model = build_synthetic_hmm(n_tags=10, vocab=1000, seed=0)
    corpus = sample_corpus(model, 50000, seed=1)
    train, total = [], 0
    for i, sent in enumerate(corpus):
        train.append(sent)
        total += len(sent)
        if total >= 40000:
            eval_slice = corpus[i + 1:]
            break
    lex = LexicalModel.train(train, model.tagset)
    trans = TransitionModel.train(train, model.tagset)
    rep = score(eval_slice, lex, trans, threshold=1.0)
    oracle = oracle_error_rate(model, eval_slice)
    assert rep.words >= 9000
    assert abs(rep.error_rate - oracle) <= 0.02, (
        f"trained {rep.error_rate:.4f} vs oracle {oracle:.4f}"
    )


def test_c7_zero_threshold_limit_behavior(synth_10k):
    model, corpus, _, _ = synth_10k
    half = len(corpus) // 2
    # drop one tag from the training slice so omissions genuinely occur
    missing = model.tagset.by_index(9)
    train = [s for s in corpus[:half] if missing not in s.gold]
    lex = LexicalModel.train(train, model.tagset, SmoothingConfig(support_epsilon=0.0))
    trans = TransitionModel.train(train, model.tagset)
    eval_slice = corpus[half:][:150]
    decodes = decode_corpus(lex, trans, [cohorts_for_tokens(lex, s.tokens) for s in eval_slice])
    full_set = set(lex.tagset.word_tags()) - {missing}
    unknowns = 0
    for sent, dec in zip(eval_slice, decodes):
        for tok, w in zip(sent.tokens, apply_threshold(dec, 0.0).words):
            if not lex.is_known(tok.surface):
                unknowns += 1
                assert set(w.retained) == full_set
    assert unknowns > 0
    rep = score_decodes(eval_slice, decodes, lex, 0.0)
    assert rep.omissions > 0
    assert rep.errors == rep.omissions
    assert rep.error_rate == rep.lexical_omission_rate


def test_c8_normalization_and_round_trip(synth_10k):
    model, corpus, lex, trans = synth_10k
    mixed_ts = parse_tagset("N\nV\nADV\n@dot\n@comma\n")
    mixed = parse_annotated(
        "the\tN\nwalk\tN\n.\t@dot\n\nwalk\tV\nnow\tADV\n,\t@comma\n\nWalk\tV\n",
        mixed_ts,
    )
    mixed_lex = LexicalModel.train(mixed, mixed_ts)
    mixed_trans = TransitionModel.train(mixed, mixed_ts)
    for lx, tr in ((lex, trans), (mixed_lex, mixed_trans)):
        n = len(lx.tagset)
        if lx.priors.sum() > 0:
            assert lx.priors.sum() == pytest.approx(1.0, abs=1e-9)
        if lx.punct_priors.sum() > 0:
            assert lx.punct_priors.sum() == pytest.approx(1.0, abs=1e-9)
        for dist in lx.class_dists.values():
            assert dist.sum() == pytest.approx(1.0, abs=1e-9)
        for a in range(n + 1):
            for b in range(n + 1):
                assert tr.probs[a, b].sum() == pytest.approx(1.0, abs=1e-9)
        assert dumps_model(*loads_model(dumps_model(lx, tr))) == dumps_model(lx, tr)
    surfaces = [s.tokens[0].surface for s in corpus[:40]] + ["zzqq", "Unseen", "UPPERX"]
    for surface in surfaces:
        assert lex._dist_vector(surface).sum() == pytest.approx(1.0, abs=1e-9)
    for surface in ("walk", "the", ".", ",", "zzz"):
        assert mixed_lex._dist_vector(surface).sum() == pytest.approx(1.0, abs=1e-9)
    for sent in corpus[:30]:
        dec = decode_sentence(
            lex, trans, [Cohort(t, lex.candidate_tags(t.surface)) for t in sent.tokens]
        )
        for post in dec.posteriors:
            assert sum(post.values()) == pytest.approx(1.0, abs=1e-9)
