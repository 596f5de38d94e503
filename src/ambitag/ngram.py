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
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .corpus import AnnotatedSentence
from .errors import ConfigError, TagInventoryError
from .tagset import TagSet

BOUNDARY = "<s>"


class StateSpace:
    """The alphabet of tags plus the boundary symbol.

    Alphabet ids 0..N-1 are tag indices; id N is the boundary.
    """

    def __init__(self, tagset: TagSet):
        if BOUNDARY in tagset:
            raise TagInventoryError(
                f"tag symbol {BOUNDARY!r} is reserved for the sentence boundary"
            )
        self.tagset = tagset
        self.n_symbols = len(tagset) + 1
        self.boundary_id = len(tagset)
        # symbol -> alphabet id; the model loader reads trigram lines with it
        self.ids = {**tagset.lookup, BOUNDARY: self.boundary_id}

    def symbol_name(self, sym_id: int) -> str:
        if sym_id == self.boundary_id:
            return BOUNDARY
        return self.tagset.by_index(sym_id).symbol

    def symbol_id(self, name: str) -> int:
        try:
            return self.ids[name]
        except KeyError:
            raise TagInventoryError(f"unknown tag symbol {name!r}") from None


def _blend(counts: np.ndarray, parent: np.ndarray, k: float) -> np.ndarray:
    """(count + k·parent) / (context + k) along the last axis; an empty
    context with k=0 defers to the parent."""
    ctx = counts.sum(axis=-1, keepdims=True) + k
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(ctx == 0, parent, (counts + k * parent) / ctx)


class TransitionModel:
    def __init__(
        self,
        tagset: TagSet,
        k: float = 1.0,
        trigrams: dict[tuple[int, int, int], int] | None = None,
    ):
        if not 0.0 <= k < math.inf:
            raise ConfigError(f"blend strength must be finite and >= 0, got {k}")
        self.space = StateSpace(tagset)
        self.k = float(k)
        self.trigrams = trigrams or {}

    @classmethod
    def train(
        cls, corpus: list[AnnotatedSentence], tagset: TagSet, k: float = 1.0
    ) -> "TransitionModel":
        b = StateSpace(tagset).boundary_id
        trigrams: dict[tuple[int, int, int], int] = {}
        for sent in corpus:
            seq = [b, b] + [t.index for t in sent.gold] + [b]
            for key in zip(seq, seq[1:], seq[2:]):
                trigrams[key] = trigrams.get(key, 0) + 1
        return cls(tagset, k, trigrams)

    # Built on first use rather than in __init__: `train` never decodes, and
    # at 83 tags the array is 84^3 floats (4.7 MB) it would only carry around.
    @cached_property
    def probs(self) -> np.ndarray:
        """P[a, b, c] = P(next symbol c | previous two symbols a, b)."""
        n = self.space.n_symbols
        counts = np.zeros((n, n, n))
        if self.trigrams:
            counts[tuple(np.array(list(self.trigrams)).T)] = list(self.trigrams.values())
        p = np.full(n, 1.0 / n)
        for level in (counts.sum(axis=(0, 1)), counts.sum(axis=0), counts):
            p = _blend(level, p, self.k)
        p.setflags(write=False)
        return p

    def row(self, a: int, bb: int) -> np.ndarray:
        """P(next symbol | previous two symbols a, b) over the alphabet."""
        return self.probs[a, bb]

    def transition_prob(self, s_from: tuple[int, int], s_to: tuple[int, int]) -> float:
        n = self.space.n_symbols
        for s in (s_from, s_to):
            if not (0 <= s[0] < n and 0 <= s[1] < n):
                raise ConfigError(f"state {s} outside the state space")
        if s_from[1] != s_to[0]:
            return 0.0
        return float(self.row(s_from[0], s_from[1])[s_to[1]])
