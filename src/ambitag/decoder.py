"""Forward-backward and Viterbi decoding over cohort lattices, plus
threshold-controlled multi-tag retention.

The forward/backward tables use the relative lexical scores
P(tag|word)/P(tag) in place of emission probabilities; per-position
normalization makes the posteriors exact and the per-word tag posterior is
the sum of state posteriors sharing the emitted tag.  Viterbi runs in the
log domain with first-maximum (= smallest predecessor state index)
tie-breaking, and only when asked for: the default posterior mode takes
each primary tag from the posteriors and never reads the Viterbi path.
Retention keeps every tag whose posterior clears the threshold and never
drops the primary tag.

A lattice gathers each distinct (previous, current, next) candidate-set
triple's transition block once per sentence; every step with that triple
shares the same read-only block.  When every tag is a candidate, all
interior steps share one block, so lattice memory does not grow with
sentence length.  Viterbi takes the log of each distinct block itself, once
per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Cohort
from .errors import DeadLatticeError
from .lexicon import LexicalModel
from .ngram import TransitionModel
from .tagset import Tag

MODE_VITERBI = "viterbi"
MODE_POSTERIOR = "posterior"


@dataclass
class Lattice:
    """Per-position candidates, lexical scores, and transition tensors."""

    cohorts: list[Cohort]
    cand: list[list[Tag]]  # sorted by tag index per position
    ids: list[list[int]]
    aprime: list[np.ndarray]
    init: np.ndarray  # P(c | boundary, boundary) over ids[0]
    # step t->t+1: (|C_t-1|, |C_t|, |C_t+1|), read-only; steps with the same
    # candidate-id triple reference one array
    tensors: list[np.ndarray]


def build_lattice(lex: LexicalModel, trans: TransitionModel, cohorts: list[Cohort]) -> Lattice:
    if not cohorts:
        raise ValueError("empty sentence")
    cand = [sorted(c.candidates, key=lambda t: t.index) for c in cohorts]
    ids = [[t.index for t in cs] for cs in cand]
    aprime = [lex.converse_lexical_probs(c.token.surface, cs) for c, cs in zip(cohorts, cand)]
    b = trans.space.boundary_id
    init = trans.row(b, b).take(ids[0])
    n = trans.space.n_symbols
    pair_rows = trans.probs.reshape(n * n, n)  # row i * n + j is P[i, j, :]
    keys = [tuple(i) for i in ids]
    blocks: dict[tuple, np.ndarray] = {}  # lives for this sentence
    tensors: list[np.ndarray] = []
    for key in zip([(b,)] + keys[:-2], keys, keys[1:]):
        block = blocks.get(key)
        if block is None:
            # Two index arrays rather than np.ix_'s three: numpy buffers each
            # broadcast index array, and the third buffer nearly doubled the
            # transient memory of a 30-tag gather.
            prev, cur, nxt = key
            pairs = np.add.outer(np.multiply(prev, n), cur)
            block = blocks[key] = pair_rows[pairs[:, :, None], nxt]
            block.setflags(write=False)
        tensors.append(block)
    return Lattice(cohorts, cand, ids, aprime, init, tensors)


def _dead_lattice(lattice: Lattice, t: int) -> DeadLatticeError:
    """The error for a lattice in which no path reaches position t (0-based)."""
    return DeadLatticeError(
        f"dead lattice at position {t + 1} "
        f"({lattice.cohorts[t].token.surface!r}): no path has nonzero probability"
    )


def forward(lattice: Lattice) -> tuple[list[np.ndarray], list[float]]:
    """Scaled forward tables (each sums to 1) and the scaling factors."""
    alphas: list[np.ndarray] = []
    scales: list[float] = []
    a = (lattice.init * lattice.aprime[0])[None, :]
    for t in range(len(lattice.cohorts)):
        if t > 0:
            a = np.einsum("ab,abc->bc", alphas[t - 1], lattice.tensors[t - 1])
            a = a * lattice.aprime[t][None, :]
        s = float(a.sum())
        if s <= 0.0:
            raise _dead_lattice(lattice, t)
        alphas.append(a / s)
        scales.append(s)
    return alphas, scales


def backward(lattice: Lattice, scales: list[float]) -> list[np.ndarray]:
    """Backward tables scaled with the forward run's factors (shared scales)."""
    T = len(lattice.cohorts)
    betas: list[np.ndarray] = [None] * T  # type: ignore[list-item]
    betas[T - 1] = np.ones((lattice.tensors[-1].shape[1] if T > 1 else 1, len(lattice.ids[T - 1])))
    for t in range(T - 2, -1, -1):
        weighted = betas[t + 1] * lattice.aprime[t + 1][None, :]
        betas[t] = np.einsum("abc,bc->ab", lattice.tensors[t], weighted) / scales[t + 1]
    return betas


def state_posteriors(alphas: list[np.ndarray], betas: list[np.ndarray]) -> list[np.ndarray]:
    # With shared scaling the elementwise product is already normalized.
    return [a * b for a, b in zip(alphas, betas)]


def tag_posteriors(lattice: Lattice, gammas: list[np.ndarray]) -> list[dict[int, float]]:
    out = []
    for t, g in enumerate(gammas):
        mass = g.sum(axis=0)
        out.append({tag_id: float(p) for tag_id, p in zip(lattice.ids[t], mass)})
    return out


@np.errstate(divide="ignore")
def viterbi(lattice: Lattice) -> tuple[list[int], float]:
    """Most probable tag-id sequence and its log score.

    Each distinct block is logged once, with the predecessor axis last
    (b, c, a), so the max and argmax over predecessors read contiguous
    memory and copy nothing.
    """
    log_ap = [np.log(ap) for ap in lattice.aprime]
    log_blocks: dict[int, np.ndarray] = {}  # id(block) -> its log as (b, c, a)
    score = (np.log(lattice.init) + log_ap[0])[None, :]  # (a, b)
    backptr: list[np.ndarray] = []
    for t in range(1, len(lattice.cohorts)):
        if not np.isfinite(score.max()):
            raise _dead_lattice(lattice, t - 1)
        block = lattice.tensors[t - 1]
        log_block = log_blocks.get(id(block))
        if log_block is None:
            log_block = block.transpose(1, 2, 0).copy()  # C order, writable
            log_blocks[id(block)] = np.log(log_block, out=log_block)
        combined = log_block + score.T[:, None, :]
        # first max = smallest predecessor; one array per step stays alive,
        # so it is kept in the smallest type that holds a candidate index
        index_type = np.min_scalar_type(combined.shape[2] - 1)
        backptr.append(combined.argmax(axis=2).astype(index_type))
        score = combined.max(axis=2) + log_ap[t][None, :]
        del combined  # free it before the next step builds its own
    best_logp = float(score.max())
    if not np.isfinite(best_logp):
        raise _dead_lattice(lattice, len(lattice.cohorts) - 1)
    flat = int(score.argmax())  # row-major first max = smallest state index
    prev_idx, cur_idx = divmod(flat, score.shape[1])
    rev = [cur_idx]
    for t in range(len(lattice.cohorts) - 1, 0, -1):
        rev.append(prev_idx)
        if t > 1:
            prev_idx = int(backptr[t - 1][prev_idx, rev[-2]])
    rev.reverse()
    return [lattice.ids[t][j] for t, j in enumerate(rev)], best_logp


@dataclass
class SentenceDecode:
    """Threshold-free decode of one sentence: posteriors, and the Viterbi
    path when the decode was asked for it (None otherwise)."""

    cohorts: list[Cohort]
    candidates: list[list[Tag]]
    posteriors: list[dict[int, float]]
    viterbi_ids: list[int] | None
    viterbi_logp: float | None
    log_likelihood: float  # log of the total relative-score path mass


@dataclass
class WordResult:
    posterior: dict[Tag, float]
    primary: Tag
    retained: list[Tag]


@dataclass
class TaggingResult:
    words: list[WordResult]
    mode: str
    threshold: float


def decode_sentence(
    lex: LexicalModel,
    trans: TransitionModel,
    cohorts: list[Cohort],
    with_viterbi: bool = True,
) -> SentenceDecode:
    """Posteriors for every word; the Viterbi path too when with_viterbi.

    A dead lattice raises the same DeadLatticeError either way, since the
    forward pass runs first and fails wherever Viterbi would.
    """
    lattice = build_lattice(lex, trans, cohorts)
    alphas, scales = forward(lattice)
    betas = backward(lattice, scales)
    gammas = state_posteriors(alphas, betas)
    posts = tag_posteriors(lattice, gammas)
    vit_ids, vit_logp = viterbi(lattice) if with_viterbi else (None, None)
    return SentenceDecode(
        cohorts=cohorts,
        candidates=lattice.cand,
        posteriors=posts,
        viterbi_ids=vit_ids,
        viterbi_logp=vit_logp,
        log_likelihood=float(sum(np.log(s) for s in scales)),
    )


def primary_ids(decode: SentenceDecode, mode: str = MODE_POSTERIOR) -> list[int]:
    """Each word's primary tag id, which retention never drops: the Viterbi
    tag, or the posterior argmax with ties going to the smaller tag id."""
    if mode == MODE_VITERBI:
        if decode.viterbi_ids is None:
            raise ValueError("decode has no Viterbi path: decode with with_viterbi=True")
        return decode.viterbi_ids
    if mode == MODE_POSTERIOR:
        return [max(post, key=lambda i: (post[i], -i)) for post in decode.posteriors]
    raise ValueError(f"unknown mode {mode!r}")


def apply_threshold(
    decode: SentenceDecode, threshold: float, mode: str = MODE_POSTERIOR
) -> TaggingResult:
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    words = []
    for cands, post, primary_id in zip(
        decode.candidates, decode.posteriors, primary_ids(decode, mode)
    ):
        by_index = {tag.index: tag for tag in cands}
        keep = {i for i in post if post[i] >= threshold}
        keep.add(primary_id)
        order = sorted(keep, key=lambda i: (-post[i], i))
        words.append(
            WordResult(
                posterior={by_index[i]: post[i] for i in post},
                primary=by_index[primary_id],
                retained=[by_index[i] for i in order],
            )
        )
    return TaggingResult(words=words, mode=mode, threshold=threshold)


def cohorts_for_tokens(lex: LexicalModel, tokens) -> list[Cohort]:
    """Build a sentence lattice from the model's own candidate sets."""
    return [Cohort(tok, lex.candidate_tags(tok.surface)) for tok in tokens]
