"""Reverse-suffix-trie lexicon: smoothed P(tag | word) and the relative
lexical scores P(tag | word) / P(tag) the decoder consumes.

The surface table, {surface: {tag id: count}}, is the only store of the
word counts; the model file writes it and reads it back.  The trie is a
private lookup index built from it once: words are stored spelled
backwards, so nodes correspond to suffixes, and inserting a surface adds
its counts to every node on its path, so each node holds the counts of
the words in its subtree.  A node's distribution is blended with its
parent's, top-down from a uniform anchor:
P_node(x) = (c(node,x) + k * P_parent(x)) / (c(node) + k).  Known words
blend their own counts with the subtree distributions of the nearest
branching ancestors, those with two or more children or whose suffix is
itself a surface; unknown words blend the whole matched path from the
root and are then mixed with a shape-class distribution.  Punctuation
surfaces bypass the trie entirely (exact-match table).
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter

import numpy as np

from .corpus import (
    SHAPE_ALL_CAPS,
    SHAPE_CAPITALIZED,
    AnnotatedSentence,
    word_shape,
)
from .errors import ConfigError, InconsistentPriorError, InputError, TagInventoryError
from .tagset import Tag, TagSet

_surface = attrgetter("surface")
_index = attrgetter("index")


@dataclass
class SmoothingConfig:
    k: float = 1.0  # blend strength toward the parent distribution
    known_lookup_levels: int = 2  # branching points consulted above a known word
    infrequent_cutoff: int = 3  # max count for the infrequent-word class
    known_threshold: int = 1  # min count for a surface to count as known
    support_epsilon: float = 0.0  # candidate tags need blended mass > epsilon
    class_mix: float = 0.5  # weight of the shape-class distribution for unknowns

    def __post_init__(self) -> None:
        if not 0.0 <= self.k < math.inf:
            raise ConfigError(f"blend strength must be finite and >= 0, got {self.k}")
        if self.known_lookup_levels < 0:
            raise ConfigError("known_lookup_levels must be >= 0")
        if self.infrequent_cutoff < 0:
            raise ConfigError("infrequent_cutoff must be >= 0")
        if self.known_threshold < 1:
            raise ConfigError("known_threshold must be >= 1")
        if not 0.0 <= self.support_epsilon < 1.0:
            raise ConfigError("support_epsilon must be in [0, 1)")
        if not 0.0 <= self.class_mix <= 1.0:
            raise ConfigError("class_mix must be in [0, 1]")


class TrieNode:
    __slots__ = ("children", "tag_counts")

    def __init__(self):
        self.children: dict[str, TrieNode] = {}
        self.tag_counts: dict[int, int] = {}  # words ending in this subtree


def _word_tag_ids(tagset: TagSet) -> list[int]:
    ids = [t.index for t in tagset.word_tags()]
    if not ids:
        raise TagInventoryError("tag inventory has no word tags")
    return ids


def _anchor(priors: np.ndarray, word_ids: list[int]) -> np.ndarray:
    """Uniform over the word tags with nonzero prior."""
    support = [i for i in word_ids if priors[i] > 0]
    anchor = np.zeros(len(priors))
    if support:
        anchor[support] = 1.0 / len(support)
    return anchor


class LexicalModel:
    def __init__(
        self,
        tagset: TagSet,
        config: SmoothingConfig,
        priors: np.ndarray,
        punct_priors: np.ndarray,
        class_dists: dict[str, np.ndarray],
        punct_table: dict[str, dict[int, int]],
        surfaces: dict[str, dict[int, int]],
    ):
        """`surfaces` maps each word surface to its {tag id: count}, and the
        trie indexes it.  `priors` and `punct_priors` are each tag family's
        priors."""
        if "" in surfaces:
            raise InputError("a word surface cannot be empty")
        word_ids = _word_tag_ids(tagset)
        self.tagset = tagset
        self.config = config
        self.priors = priors
        self.punct_priors = punct_priors
        self.class_dists = class_dists
        self.punct_table = punct_table
        self.surfaces = surfaces
        self.root = TrieNode()
        for surface, counts in surfaces.items():
            node = self.root
            path = [node]
            for ch in reversed(surface):
                child = node.children.get(ch)
                if child is None:
                    child = node.children[ch] = TrieNode()
                path.append(node := child)
            for node in path:
                into = node.tag_counts
                for t, c in counts.items():
                    into[t] = into.get(t, 0) + c
        self._tag_priors = punct_priors.copy()  # each tag's prior from its own family
        self._tag_priors[word_ids] = priors[word_ids]
        self._anchor = _anchor(priors, word_ids)
        self._dist_cache: dict[str, np.ndarray] = {}  # known surfaces only
        self._last_unknown: tuple[str, np.ndarray] | None = None

    # -- training ----------------------------------------------------------

    @classmethod
    def train(
        cls,
        corpus: list[AnnotatedSentence],
        tagset: TagSet,
        config: SmoothingConfig | None = None,
    ) -> "LexicalModel":
        config = config or SmoothingConfig()
        n = len(tagset)
        word_idx = _word_tag_ids(tagset)
        punct_idx = [t.index for t in tagset.punctuation_tags()]

        # One count per distinct (surface, tag id) pair, in first-seen order;
        # everything below reads the distinct pairs, not the tokens.
        pairs = Counter(
            chain.from_iterable(
                zip(map(_surface, sent.tokens), map(_index, sent.gold)) for sent in corpus
            )
        )
        # Surfaces that ever carry a punctuation tag resolve to the
        # exact-match table and stay out of the trie.
        punct_ids = set(punct_idx)
        punct_surfaces = {surface for surface, t in pairs if t in punct_ids}

        tag_counts = [0] * n
        punct_table: dict[str, dict[int, int]] = {}
        surface_tags: dict[str, dict[int, int]] = {}
        for (surface, t), c in pairs.items():
            tag_counts[t] += c
            table = punct_table if surface in punct_surfaces else surface_tags
            table.setdefault(surface, {})[t] = c
        word_tag_counts = np.array(tag_counts, float)
        punct_tag_counts = np.zeros(n)
        punct_tag_counts[punct_idx] = word_tag_counts[punct_idx]
        word_tag_counts[punct_idx] = 0.0

        priors = np.zeros(n)
        if word_tag_counts.sum() > 0:
            priors = word_tag_counts / word_tag_counts.sum()
        else:
            if not pairs:
                warnings.warn("empty training corpus: uniform lexical priors")
            priors[word_idx] = 1.0 / len(word_idx)
        punct_priors = np.zeros(n)
        if punct_tag_counts.sum() > 0:
            punct_priors = punct_tag_counts / punct_tag_counts.sum()
        elif punct_idx:
            punct_priors[punct_idx] = 1.0 / len(punct_idx)

        # Shape-class distributions (word-tagged tokens only).
        cap = np.zeros(n)
        allcaps = np.zeros(n)
        infreq = np.zeros(n)
        cutoff = config.infrequent_cutoff
        for surface, counts in surface_tags.items():
            shape = word_shape(surface)
            total = sum(counts.values())
            for t, c in counts.items():
                if shape == SHAPE_CAPITALIZED:
                    cap[t] += c
                elif shape == SHAPE_ALL_CAPS:
                    allcaps[t] += c
                if total <= cutoff:
                    infreq[t] += c
        infreq_dist = infreq / infreq.sum() if infreq.sum() > 0 else _anchor(priors, word_idx)
        class_dists = {
            SHAPE_CAPITALIZED: cap / cap.sum() if cap.sum() > 0 else infreq_dist.copy(),
            SHAPE_ALL_CAPS: allcaps / allcaps.sum() if allcaps.sum() > 0 else infreq_dist.copy(),
            "infrequent": infreq_dist,
        }
        return cls(tagset, config, priors, punct_priors, class_dists, punct_table, surface_tags)

    # -- lookup ------------------------------------------------------------

    def _blend(self, counts: dict[int, int], parent: np.ndarray) -> np.ndarray:
        k = self.config.k
        total = sum(counts.values())
        if total + k == 0:  # k=0 on an empty node: defer to the parent
            return parent
        v = parent * k
        for t, c in counts.items():
            v[t] += c
        return v / (total + k)

    def _match_path(self, surface: str) -> list[TrieNode]:
        """Root plus the nodes along the longest matching reversed suffix."""
        path = [self.root]
        node = self.root
        for ch in reversed(surface):
            node = node.children.get(ch)
            if node is None:
                break
            path.append(node)
        return path

    def _branching_ancestors(self, surface: str) -> list[TrieNode]:
        """The nearest `known_lookup_levels` strict ancestors of a known
        surface's node that branch, root first; the node at depth d branches
        when it has two or more children or its suffix is itself a surface."""
        found: list[TrieNode] = []
        levels = self.config.known_lookup_levels
        path = self._match_path(surface)
        n = len(surface)
        for d in range(n - 1, -1, -1):
            if len(found) == levels:
                break
            if len(path[d].children) >= 2 or surface[n - d :] in self.surfaces:
                found.append(path[d])
        found.reverse()
        return found

    def _dist_vector(self, surface: str) -> np.ndarray:
        cached = self._dist_cache.get(surface)
        if cached is not None:
            return cached
        if surface in self.punct_table:
            counts = self.punct_table[surface]
            v = np.zeros(len(self.tagset))
            for t, c in counts.items():
                v[t] = c
            v /= v.sum()
        elif self.is_known(surface):
            dist = self._anchor
            for node in self._branching_ancestors(surface):
                dist = self._blend(node.tag_counts, dist)
            v = self._blend(self.surfaces[surface], dist)
        else:
            # The cache holds only the model's own surfaces, so it stays
            # bounded; the last unknown one is kept because a lattice looks a
            # word up once per candidate.
            last = self._last_unknown
            if last is not None and last[0] == surface:
                return last[1]
            dist = self._anchor
            for node in self._match_path(surface):
                dist = self._blend(node.tag_counts, dist)
            w = self.config.class_mix
            v = (1.0 - w) * dist + w * self._class_dist(surface)
            self._last_unknown = (surface, v)
            return v
        self._dist_cache[surface] = v
        return v

    def _class_dist(self, surface: str) -> np.ndarray:
        shape = word_shape(surface)
        if shape in (SHAPE_CAPITALIZED, SHAPE_ALL_CAPS):
            return self.class_dists[shape]
        return self.class_dists["infrequent"]

    def converse_lexical_probs(self, surface: str, tags: list[Tag]) -> np.ndarray:
        """P(tag | surface) / P(tag) for each tag, the prior taken from the
        tag's own family; 0 for a tag with zero prior and zero mass."""
        ids = [t.index for t in tags]
        cond = self._dist_vector(surface)[ids]
        prior = self._tag_priors[ids]
        zero = prior == 0.0
        if zero.any():
            bad = np.flatnonzero(zero & (cond > 0.0))
            if bad.size:
                j = bad[0]
                raise InconsistentPriorError(
                    f"inconsistent prior: tag {tags[j].symbol} has zero prior "
                    f"but P({tags[j].symbol} | {surface!r}) = {cond[j]}"
                )
            prior = np.where(zero, 1.0, prior)  # cond is 0 there: scores 0
        return cond / prior

    def candidate_tags(self, surface: str) -> list[Tag]:
        """Tags with blended mass above support_epsilon, most probable first.

        When no tag clears support_epsilon the most probable tag (ties to the
        smaller index) is kept alone, so a cohort is never empty.
        """
        v = self._dist_vector(surface)
        eps = self.config.support_epsilon
        idx = [i for i in range(len(v)) if v[i] > eps]
        idx.sort(key=lambda i: (-v[i], i))
        if not idx:
            idx = [int(np.argmax(v))]  # first maximum = smallest index
        return [self.tagset.by_index(i) for i in idx]

    def is_known(self, surface: str) -> bool:
        if surface in self.punct_table:
            return True
        counts = self.surfaces.get(surface)
        return counts is not None and sum(counts.values()) >= self.config.known_threshold
