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

A lattice is a batch of sentences, longest first, that share the candidate
set at each position, so every table has a leading sentence axis and the
sentences still going at position t are a prefix of the batch: one
transition block and one einsum per step serve the whole batch.  One
sentence is a batch of one.  `decode_corpus` takes cohort sentences from
an analyser or from `cohorts_for_tokens`, and batches the sentences in
which every word has one and the same candidate set (every lexicon lattice
when `support_epsilon` is 0), up to BATCH_CELLS forward-table cells per
batch; every other sentence is a batch of one.  Each sentence keeps its
own scaling factors, and every sum runs in the order a batch of one runs
it, so a batched decode equals the one-at-a-time decode to the last bit.

Every position is reached by one step rule.  Step t is the transition
block P[C_t-2, C_t-1, C_t] into position t, with the sentence boundary
standing in for the positions before the first word, so step 0 is
P[⊥, ⊥, C_0], shaped (1, 1, |C_0|).  The forward, backward and Viterbi
passes start from a boundary state of ones (zeros in log space) and walk
the steps [init, *tensors] in one loop; entry t is always the step into
position t.

A lattice gathers each distinct (previous, current, next) candidate-set
triple's transition block once; every step with that triple shares the
same read-only block.  When every tag is a candidate, all interior steps
share one block, so lattice memory does not grow with sentence length.
Viterbi takes the log of each distinct block itself, once per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable

import numpy as np

from .corpus import Cohort
from .errors import DeadLatticeError
from .lexicon import LexicalModel
from .ngram import TransitionModel
from .tagset import Tag

MODE_VITERBI = "viterbi"
MODE_POSTERIOR = "posterior"

# The forward tables of one batch hold at most this many cells (1 MiB of
# float64); a sentence that needs more is a batch of its own.
BATCH_CELLS = 2**17


class Column:
    """One word's lattice column: its distinct candidate tag ids in
    ascending order and their relative lexical scores."""

    __slots__ = ("ids", "aprime")

    def __init__(self, lex: LexicalModel, cohort: Cohort):
        self.ids = sorted({t.index for t in cohort.candidates})
        self.aprime = lex.converse_lexical_probs(cohort.token.surface, self.ids)


@dataclass
class Lattice:
    """A batch of sentences, longest first, that share each position's
    candidates: per-position candidate ids and transition blocks, and each
    sentence's lexical scores."""

    cohorts: list[list[Cohort]]  # per sentence
    ids: list[list[int]]  # per position, ascending
    # per position t: (sentences longer than t, 1, |C_t|), the batch's prefix,
    # shaped to scale the (sentences, |C_t-1|, |C_t|) tables
    aprime: list[np.ndarray]
    # The steps into each position, read-only; steps with the same
    # candidate-id triple reference one array.  init is step 0, the block
    # P[⊥, ⊥, C_0] shaped (1, 1, |C_0|); tensors[t - 1] is step t, shaped
    # (|C_t-2|, |C_t-1|, |C_t|), with 1 for the boundary before the first word.
    init: np.ndarray
    tensors: list[np.ndarray]

    @property
    def steps(self) -> list[np.ndarray]:
        """[init, *tensors]: entry t is the step into position t."""
        return [self.init, *self.tensors]


def build_lattice(
    lex: LexicalModel,
    trans: TransitionModel,
    *sentences: list[Cohort],
    columns: list[list[Column]] | None = None,
) -> Lattice:
    """The lattice of sentences given longest first whose words share each
    position's candidate set; `columns` holds each sentence's word columns
    when the caller has built them, and they are built from `lex` otherwise."""
    if not sentences or not all(sentences):
        raise ValueError("empty sentence")
    if any(len(a) < len(b) for a, b in zip(sentences, sentences[1:])):
        raise ValueError("a batch takes its sentences longest first")
    if columns is None:
        columns = [[Column(lex, c) for c in cohorts] for cohorts in sentences]
    ids = [col.ids for col in columns[0]]
    n = trans.space.n_symbols
    pair_rows = trans.probs.reshape(n * n, n)  # row i * n + j is P[i, j, :]
    blocks: dict[tuple, np.ndarray] = {}  # lives for this lattice
    steps: list[np.ndarray] = []
    keys = [(trans.space.boundary_id,)] * 2 + [tuple(i) for i in ids]
    for key in zip(keys, keys[1:], keys[2:]):
        block = blocks.get(key)
        if block is None:
            # Two index arrays rather than np.ix_'s three: numpy buffers each
            # broadcast index array, and the third buffer nearly doubled the
            # transient memory of a 30-tag gather.
            prev, cur, nxt = key
            pairs = np.add.outer(np.multiply(prev, n), cur)
            block = blocks[key] = pair_rows[pairs[:, :, None], nxt]
            block.setflags(write=False)
        steps.append(block)
    for row in columns[1:]:
        if any(col.ids != want for col, want in zip(row, ids)):
            raise ValueError("the sentences of a batch must share each position's candidates")
    aprime = []  # stacked after the gather, which has the larger transient
    active = len(columns)
    for t in range(len(ids)):
        while len(columns[active - 1]) <= t:
            active -= 1
        if active == 1:  # a lone sentence's row is viewed, not copied
            aprime.append(columns[0][t].aprime[None, None])
        else:
            aprime.append(np.array([row[t].aprime for row in columns[:active]])[:, None, :])
    return Lattice(list(sentences), ids, aprime, steps[0], steps[1:])


def _dead_lattice(lattice: Lattice, row: int, t: int) -> DeadLatticeError:
    """The error for a sentence in which no path reaches position t (0-based)."""
    return DeadLatticeError(
        f"dead lattice at position {t + 1} "
        f"({lattice.cohorts[row][t].token.surface!r}): no path has nonzero probability"
    )


@np.errstate(divide="ignore", invalid="ignore")  # a dead row is raised below
def forward(lattice: Lattice) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Scaled forward tables, (sentences, |C_t-1|, |C_t|) at position t with
    each sentence's table summing to 1, and their scaling factors, shaped
    (sentences, 1, 1)."""
    alphas: list[np.ndarray] = []
    scales: list[np.ndarray] = []
    a = np.ones((len(lattice.aprime[0]), 1, 1))  # the boundary state
    for step, ap in zip(lattice.steps, lattice.aprime):
        # the sentences that ended before t drop out of the batch's prefix
        a = np.einsum("sab,abc->sbc", a[: len(ap)], step) * ap
        s = a.sum(axis=(1, 2), keepdims=True)
        a /= s
        alphas.append(a)
        scales.append(s)
    dead = np.concatenate(scales) <= 0.0
    if dead.any():  # the first position where a sentence died, then its first row
        first = int(dead.argmax())
        for t, s in enumerate(scales):
            if first < len(s):
                raise _dead_lattice(lattice, first, t)
            first -= len(s)
    return alphas, scales


def backward(lattice: Lattice, scales: list[np.ndarray]) -> list[np.ndarray]:
    """Backward tables, shaped like the forward ones and scaled with the
    forward run's factors (shared scales); a sentence's last table is ones."""
    steps = lattice.steps
    betas: list[np.ndarray] = [None] * len(steps)  # type: ignore[list-item]
    going = 0  # sentences longer than t + 1
    for t in reversed(range(len(steps))):
        beta = None
        if going:
            weighted = betas[t + 1] * lattice.aprime[t + 1]
            beta = np.einsum("abc,sbc->sab", steps[t + 1], weighted) / scales[t + 1]
        ending = len(lattice.aprime[t]) - going  # sentences whose last word is at t
        if ending:
            ones = np.ones((ending,) + steps[t].shape[1:])
            beta = ones if beta is None else np.concatenate([beta, ones])
        betas[t] = beta
        going = len(lattice.aprime[t])
    return betas


def state_posteriors(alphas: list[np.ndarray], betas: list[np.ndarray]) -> list[np.ndarray]:
    # With shared scaling the elementwise product is already normalized.
    return [a * b for a, b in zip(alphas, betas)]


def tag_posteriors(lattice: Lattice, gammas: Iterable[np.ndarray]) -> list[list[dict[int, float]]]:
    """Each sentence's {tag id: posterior} per word, from the state
    posteriors of each position in turn."""
    out: list[list[dict[int, float]]] = [[] for _ in lattice.cohorts]
    for ids, g in zip(lattice.ids, gammas):
        for posts, mass in zip(out, g.sum(axis=1).tolist()):
            posts.append(dict(zip(ids, mass)))
    return out


@np.errstate(divide="ignore")
def viterbi(lattice: Lattice) -> tuple[list[list[int]], list[float]]:
    """Each sentence's most probable tag-id sequence and its log score.

    Each distinct block is logged once, with the predecessor axis last
    (b, c, a), so the max and argmax over predecessors read contiguous
    memory and copy nothing.  A step combines at most BATCH_CELLS scores at
    a time (or one sentence's), so its memory does not grow with the batch.
    """
    log_blocks: dict[int, np.ndarray] = {}  # id(block) -> its log as (b, c, a)
    score = np.zeros((len(lattice.aprime[0]), 1, 1))  # the boundary state, log 1
    finals: list[np.ndarray] = [None] * len(lattice.cohorts)  # type: ignore[list-item]
    backptr: list[np.ndarray] = []
    for t, (block, ap) in enumerate(zip(lattice.steps, lattice.aprime)):
        going = len(ap)
        finals[going : len(score)] = score[going:]  # the sentences that ended at t - 1
        log_block = log_blocks.get(id(block))
        if log_block is None:
            log_block = block.transpose(1, 2, 0).copy()  # C order, writable
            log_blocks[id(block)] = np.log(log_block, out=log_block)
        # first max = smallest predecessor; one array per step stays alive,
        # so it is kept in the smallest type that holds a candidate index
        back = np.empty((going,) + log_block.shape[:2], np.min_scalar_type(log_block.shape[2] - 1))
        top = np.empty((going,) + log_block.shape[:2])
        rows = max(1, BATCH_CELLS // log_block.size)
        for lo in range(0, going, rows):
            hi = min(lo + rows, going)
            combined = log_block + score[lo:hi].transpose(0, 2, 1)[:, :, None, :]
            back[lo:hi] = combined.argmax(axis=3)
            top[lo:hi] = combined.max(axis=3)
            del combined  # free it before the next slice builds its own
        backptr.append(back)
        score = top + np.log(ap)
        best = score.max(axis=(1, 2))
        if not np.isfinite(best).all():
            raise _dead_lattice(lattice, int(np.argmin(np.isfinite(best))), t)
    finals[: len(score)] = score
    paths, logps = [], []
    for row, (cohorts, final) in enumerate(zip(lattice.cohorts, finals)):
        flat = int(final.argmax())  # row-major first max = smallest state index
        prev_idx, cur_idx = divmod(flat, final.shape[1])
        rev = []
        for back in reversed(backptr[: len(cohorts)]):  # the step into each position
            rev.append(cur_idx)
            prev_idx, cur_idx = int(back[row, prev_idx, cur_idx]), prev_idx
        rev.reverse()
        paths.append([lattice.ids[t][j] for t, j in enumerate(rev)])
        logps.append(float(final.max()))
    return paths, logps


@dataclass
class SentenceDecode:
    """Threshold-free decode of one sentence: posteriors, and the Viterbi
    path when the decode was asked for it (None otherwise)."""

    cohorts: list[Cohort]
    posteriors: list[dict[int, float]]  # per word, {tag id: posterior} by ascending id
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


def _decode(lattice: Lattice, with_viterbi: bool) -> list[SentenceDecode]:
    """Every sentence of a lattice decoded, in batch order."""
    alphas, scales = forward(lattice)
    betas = backward(lattice, scales)
    # state posteriors one position at a time, so a batch holds two tables
    # (forward and backward), not three
    posts = tag_posteriors(lattice, map(np.multiply, alphas, betas))
    del alphas, betas
    n = len(lattice.cohorts)
    paths, logps = viterbi(lattice) if with_viterbi else ([None] * n, [None] * n)
    logs = iter(np.log(np.concatenate(scales)).ravel().tolist())  # position by position
    log_likelihood = [0.0] * n  # summed left to right, one float at a time
    for s in scales:
        for row in range(len(s)):
            log_likelihood[row] += next(logs)
    return [
        SentenceDecode(
            cohorts=cohorts,
            posteriors=post,
            viterbi_ids=path,
            viterbi_logp=logp,
            log_likelihood=ll,
        )
        for cohorts, post, path, logp, ll in zip(
            lattice.cohorts, posts, paths, logps, log_likelihood
        )
    ]


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
    return _decode(build_lattice(lex, trans, cohorts), with_viterbi)[0]


def _batches(columns: list[list[Column]]) -> list[list[int]]:
    """Sentence indices in batches: the sentences whose words all have one
    and the same candidate set, longest first (ties in order), up to
    BATCH_CELLS forward-table cells a batch; any other sentence alone."""
    batches: list[list[int]] = []
    shared: dict[tuple[int, ...], list[int]] = {}  # candidate ids -> its sentences
    for i, row in enumerate(columns):
        ids = row[0].ids
        if all(col.ids == ids for col in row):
            shared.setdefault(tuple(ids), []).append(i)
        else:
            batches.append([i])
    for ids, members in shared.items():
        members.sort(key=lambda i: -len(columns[i]))  # stable
        batch: list[int] = []
        cells = 0
        for i in members:
            need = len(ids) * (1 + (len(columns[i]) - 1) * len(ids))
            if batch and cells + need > BATCH_CELLS:
                batches.append(batch)
                batch, cells = [], 0
            batch.append(i)
            cells += need
        batches.append(batch)
    return batches


def decode_corpus(
    lex: LexicalModel,
    trans: TransitionModel,
    sentences: list[list[Cohort]],
    with_viterbi: bool = True,
) -> list[SentenceDecode]:
    """`decode_sentence` of each cohort sentence, decoded in batches.

    Cohorts with the same surface and candidate-list object (as
    `cohorts_for_tokens` gives a surface's cohorts) share one lattice
    column.  Sentences in which every word has the same candidate set are
    batched as in the module docstring; when a lattice dies, the sentences
    are decoded again one at a time in order, so the first that fails
    raises its own error.
    """
    # `sentences` keeps every candidate list alive, so its id is a key here
    built: dict[tuple[str, int], Column] = {}
    for cohort in chain.from_iterable(sentences):
        key = (cohort.token.surface, id(cohort.candidates))
        if key not in built:
            built[key] = Column(lex, cohort)
    columns = [[built[c.token.surface, id(c.candidates)] for c in cohorts] for cohorts in sentences]
    out: list[SentenceDecode] = [None] * len(sentences)  # type: ignore[list-item]
    try:
        for batch in _batches(columns):
            lattice = build_lattice(
                lex, trans, *[sentences[i] for i in batch], columns=[columns[i] for i in batch]
            )
            for i, decode in zip(batch, _decode(lattice, with_viterbi)):
                out[i] = decode
    except DeadLatticeError:
        for cohorts in sentences:
            decode_sentence(lex, trans, cohorts, with_viterbi)
        raise
    return out


def primary_ids(decode: SentenceDecode, mode: str = MODE_POSTERIOR) -> list[int]:
    """Each word's primary tag id, which retention never drops: the Viterbi
    tag, or the posterior argmax with ties going to the smaller tag id (the
    first maximum, since each word's posteriors ascend by tag id)."""
    if mode == MODE_VITERBI:
        if decode.viterbi_ids is None:
            raise ValueError("decode has no Viterbi path: decode with with_viterbi=True")
        return decode.viterbi_ids
    if mode == MODE_POSTERIOR:
        return [max(post, key=post.__getitem__) for post in decode.posteriors]
    raise ValueError(f"unknown mode {mode!r}")


def apply_threshold(
    decode: SentenceDecode, threshold: float, mode: str = MODE_POSTERIOR
) -> TaggingResult:
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold}")
    words = []
    for cohort, post, primary_id in zip(
        decode.cohorts, decode.posteriors, primary_ids(decode, mode)
    ):
        by_index = {tag.index: tag for tag in cohort.candidates}
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
    """One cohort per token with the model's candidate tags; a surface's cohorts share one list."""
    tokens = list(tokens)
    cands = {s: lex.candidate_tags(s) for s in dict.fromkeys(tok.surface for tok in tokens)}
    return [Cohort(tok, cands[tok.surface]) for tok in tokens]
