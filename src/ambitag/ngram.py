"""Tag-pair state space and blended trigram transition probabilities.

A trigram model over tags t1..tn is encoded as a first-order chain whose
states are tag pairs; a transition (a,b) -> (b',c) is structurally possible
only when b == b'.  Counting pads each sentence as  ⊥ ⊥ t1 .. tn ⊥ , giving
n+1 trigram windows per sentence.  P(c | a,b) blends the trigram relative
frequency with the bigram level, which blends with the unigram level, which
blends with the uniform distribution over the alphabet (tags plus the
boundary symbol), all with the same rule the lexicon uses.  The lower
levels are marginals of the trigram counts, so every level is a proper
conditional; the blended model is one dense array P[a, b, c].

The raw counts are two sorted arrays, the distinct windows and their int64
counts: repeated windows sum, so all counts together must stay below 2^63.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from operator import attrgetter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .corpus import AnnotatedSentence
from .errors import TagInventoryError, check_blend_strength
from .tagset import TagSet

BOUNDARY = "<s>"
DEFAULT_K = 1.0  # the transition blend strength unless one is given

_index = attrgetter("index")


class StateSpace:
    """The alphabet of tags plus the boundary symbol.

    Alphabet ids 0..N-1 are tag indices; id N is the boundary.
    """

    def __init__(self, tagset: TagSet):
        if BOUNDARY in tagset:
            raise TagInventoryError(
                f"tag symbol {BOUNDARY!r} is reserved for the sentence boundary"
            )
        self.n_symbols = len(tagset) + 1
        self.boundary_id = len(tagset)
        # symbol -> alphabet id, in id order; model files name symbols with it
        self.ids = {**tagset.lookup, BOUNDARY: self.boundary_id}


def _blend(counts: np.ndarray, parent: np.ndarray, k: float) -> np.ndarray:
    """(count + k·parent) / (context + k) along the last axis, written over
    `counts` so that no full-size temporary is made; an empty context with
    k=0 defers to the parent."""
    ctx = counts.sum(axis=-1, keepdims=True) + k
    counts += k * parent
    with np.errstate(divide="ignore", invalid="ignore"):
        counts /= ctx
    np.copyto(counts, parent, where=ctx == 0)
    return counts


class TransitionModel:
    def __init__(
        self,
        tagset: TagSet,
        k: float = DEFAULT_K,
        windows: np.typing.ArrayLike = (),
        weights: np.typing.ArrayLike | None = None,
    ):
        """Count `windows`, symbol-id triples (a, b, c) in any order, shape (m, 3)
        or flat, each `weights[i]` times or once: ``trigrams`` holds the distinct
        windows, sorted ascending, and ``counts`` their int64 counts.  Ids are
        held in the smallest unsigned type that fits them, to save memory; an
        id outside the alphabet raises ValueError.  Windows that are already
        distinct and ascending, with one weight each, as a model file holds
        them, are kept as given: arrays of the id type and int64 are not
        copied."""
        check_blend_strength(k, "k")
        self.space = StateSpace(tagset)
        self.k = float(k)
        shape = (self.space.n_symbols,) * 3
        ids = np.asarray(windows).reshape(-1, 3)
        if ids.size and not 0 <= ids.min() <= ids.max() < shape[0]:  # before a cast can wrap
            raise ValueError(f"symbol ids must be in [0, {shape[0]})")
        ids = ids.astype(np.min_scalar_type(shape[0]), copy=False)
        codes = np.ravel_multi_index(ids.T, shape)
        if weights is None:  # a few times less scratch memory than the inverse
            codes, self.counts = np.unique(codes, return_counts=True)
        else:
            weights = np.asarray(weights, np.int64)
            if weights.shape == codes.shape and (codes[1:] > codes[:-1]).all():
                self.trigrams, self.counts = ids, weights  # distinct and sorted already
                return
            codes, where = np.unique(codes, return_inverse=True)
            self.counts = np.zeros(len(codes), np.int64)
            np.add.at(self.counts, where, weights)
        self.trigrams = np.stack(np.unravel_index(codes, shape), axis=1).astype(ids.dtype)

    @classmethod
    def train(
        cls, corpus: list[AnnotatedSentence], tagset: TagSet, k: float = DEFAULT_K
    ) -> "TransitionModel":
        # The corpus as one id sequence: ⊥, then ⊥ ⊥ t1 .. tn per sentence,
        # then ⊥ ⊥, read as overlapping windows without a copy.  A sentence's
        # last window (t_n-1 t_n ⊥) ends in the padding that follows it.  The
        # windows ending in ⊥ ⊥ are the ones that span a join, the start or
        # the end, and are dropped: no sentence has one, as a tag is never ⊥.
        b = StateSpace(tagset).boundary_id
        ids = chain.from_iterable(chain((b, b), map(_index, sent.gold)) for sent in corpus)
        seq = np.fromiter(chain((b,), ids, (b, b)), np.min_scalar_type(b + 1))
        windows = sliding_window_view(seq, 3)
        windows = windows[(windows[:, 1] != b) | (windows[:, 2] != b)]
        del seq  # the kept windows are a copy: free the sequence before counting
        return cls(tagset, k, windows)

    # Built on first use rather than in __init__: `train` never decodes, and
    # at 83 tags the array is 84^3 floats (4.7 MB) it would only carry around.
    @cached_property
    def probs(self) -> np.ndarray:
        """P[a, b, c] = P(next symbol c | previous two symbols a, b)."""
        n = self.space.n_symbols
        counts = np.zeros((n, n, n))
        counts[tuple(self.trigrams.T)] = self.counts
        p = np.full(n, 1.0 / n)
        for level in (counts.sum(axis=(0, 1)), counts.sum(axis=0), counts):
            p = _blend(level, p, self.k)
        p.setflags(write=False)
        return p
