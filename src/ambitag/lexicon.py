"""Suffix-indexed lexicon: smoothed P(tag | word) and the relative
lexical scores P(tag | word) / P(tag) the decoder consumes.

The surface table, {surface: {tag id: count}}, is the only store of the
word counts; the model file writes it and reads it back.  A private
suffix table, built from it once, maps every suffix of every surface, ""
included, to the summed counts of the surfaces that end in it.  A
suffix's distribution blends its counts with that of the suffix one
character shorter, from a uniform anchor:
P_s(x) = (c(s,x) + k * P_shorter(x)) / (c(s) + k).  Known words blend
their own counts with the nearest branching suffixes, those that two or
more table suffixes extend by one character or that are themselves
surfaces; unknown words blend every suffix they share with the table and
are then mixed with a shape-class distribution.  Punctuation surfaces
bypass the index entirely (exact-match table).
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, fields
from itertools import chain
from numbers import Integral
from operator import attrgetter

import numpy as np

from .corpus import (
    SHAPE_ALL_CAPS,
    SHAPE_CAPITALIZED,
    AnnotatedSentence,
    word_shape,
)
from .errors import ConfigError, InputError, TagInventoryError, ZeroPriorError, check_blend_strength
from .tagset import Tag, TagSet

_surface = attrgetter("surface")
_index = attrgetter("index")


@dataclass
class SmoothingConfig:
    k: float = 1.0  # blend strength toward the parent distribution
    levels: int = 2  # branching points consulted above a known word
    cutoff: int = 3  # max count for the infrequent-word class
    known_threshold: int = 1  # min count for a surface to count as known
    support_epsilon: float = 0.0  # candidate tags need blended mass > epsilon
    class_mix: float = 0.5  # weight of the shape-class distribution for unknowns

    def __post_init__(self) -> None:
        check_blend_strength(self.k)
        for f in fields(self):  # a model file can hold only an integer here
            value = getattr(self, f.name)
            integral = isinstance(value, Integral) and not isinstance(value, bool)
            if type(f.default) is int and not integral:
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        if self.levels < 0:
            raise ConfigError("levels must be >= 0")
        if self.cutoff < 0:
            raise ConfigError("cutoff must be >= 0")
        if self.known_threshold < 1:
            raise ConfigError("known_threshold must be >= 1")
        if not 0.0 <= self.support_epsilon < 1.0:
            raise ConfigError("support_epsilon must be in [0, 1)")
        if not 0.0 <= self.class_mix <= 1.0:
            raise ConfigError("class_mix must be in [0, 1]")


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


def _zero_prior(tagset: TagSet, t: int, source: str, key: str) -> ZeroPriorError:
    what = f"class {key} gives it mass" if source == "class" else f"{source} {key!r} counts it"
    symbol = tagset.by_index(t).symbol
    return ZeroPriorError(f"tag {symbol} has zero prior but {what}", source, key, t)


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
        suffix table indexes it.  `priors` and `punct_priors` are each tag
        family's priors.  As in a model file, each surface needs counts, each
        a positive integer below 2^63, and no word surface may be empty.  A
        tag with zero prior in its own family may have no count and no
        class-distribution mass, so every lookup's P(tag | word) / P(tag) is
        defined."""
        if "" in surfaces:
            raise InputError("a word surface cannot be empty")
        word_ids = _word_tag_ids(tagset)
        tag_priors = punct_priors.copy()  # each tag's prior from its own family
        tag_priors[word_ids] = priors[word_ids]
        zero = tag_priors == 0.0
        unset = set(np.flatnonzero(zero).tolist())
        for rows, source in ((surfaces, "word surface"), (punct_table, "punct-table surface")):
            for surface, counts in rows.items():
                if not counts or min(counts.values()) < 1 or max(counts.values()) >= 2**63:
                    raise InputError(
                        f"surface {surface!r} needs counts, each a positive integer below 2^63"
                    )
                if not unset.isdisjoint(counts):
                    t = min(unset.intersection(counts))
                    raise _zero_prior(tagset, t, source, surface)
        for name, dist in class_dists.items():
            bad = np.flatnonzero(zero & (dist > 0.0))
            if bad.size:
                raise _zero_prior(tagset, int(bad[0]), "class", name)
        self.tagset = tagset
        self.config = config
        self.priors = priors
        self.punct_priors = punct_priors
        self.class_dists = class_dists
        self.punct_table = punct_table
        self.surfaces = surfaces
        # Every lookup blends the empty suffix, even with no surfaces.
        table: dict[str, dict[int, int]] = {"": {}}
        for surface, counts in surfaces.items():
            for i in range(len(surface) + 1):
                suffix = surface[i:]
                into = table.get(suffix)
                if into is None:
                    table[suffix] = dict(counts)
                else:
                    for t, c in counts.items():
                        into[t] = into.get(t, 0) + c
        self._suffix_counts = table
        self._width = Counter(suffix[1:] for suffix in table if suffix)
        # a zero prior divides zero mass: the score is 0
        self._divisor = np.where(zero, 1.0, tag_priors)
        self._anchor = _anchor(priors, word_ids)
        # Only the model's own surfaces are cached, so the cache stays bounded.
        self._dist_cache: dict[str, np.ndarray] = {}

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
        # exact-match table and stay out of the suffix index.
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
        for surface, counts in surface_tags.items():
            shape = word_shape(surface)
            total = sum(counts.values())
            for t, c in counts.items():
                if shape == SHAPE_CAPITALIZED:
                    cap[t] += c
                elif shape == SHAPE_ALL_CAPS:
                    allcaps[t] += c
                if total <= config.cutoff:
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

    def _match_path(self, surface: str) -> list[dict[int, int]]:
        """The counts of the surface's suffixes in the table, shortest first.
        The table holds every suffix of each suffix it holds, so the first
        one missing ends the path."""
        path = []
        for i in range(len(surface), -1, -1):
            counts = self._suffix_counts.get(surface[i:])
            if counts is None:
                break
            path.append(counts)
        return path

    def _branching_ancestors(self, surface: str) -> list[dict[int, int]]:
        """The counts of the nearest `levels` strict suffixes of
        a known surface that branch, shortest first; a suffix branches when
        two or more table suffixes extend it by one character or when it is
        itself a surface."""
        found = []
        levels = self.config.levels
        n = len(surface)
        for d in range(n - 1, -1, -1):
            if len(found) == levels:
                break
            suffix = surface[n - d :]
            if self._width[suffix] >= 2 or suffix in self.surfaces:
                found.append(self._suffix_counts[suffix])
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
            for counts in self._branching_ancestors(surface):
                dist = self._blend(counts, dist)
            v = self._blend(self.surfaces[surface], dist)
        else:
            dist = self._anchor
            for counts in self._match_path(surface):
                dist = self._blend(counts, dist)
            w = self.config.class_mix
            return (1.0 - w) * dist + w * self._class_dist(surface)
        self._dist_cache[surface] = v
        return v

    def _class_dist(self, surface: str) -> np.ndarray:
        shape = word_shape(surface)
        if shape in (SHAPE_CAPITALIZED, SHAPE_ALL_CAPS):
            return self.class_dists[shape]
        return self.class_dists["infrequent"]

    def converse_lexical_probs(self, surface: str, ids: list[int]) -> np.ndarray:
        """P(tag | surface) / P(tag) for each tag id, the prior taken from the
        tag's own family; 0 for a tag with zero prior, which has zero mass."""
        return self._dist_vector(surface)[ids] / self._divisor[ids]

    def candidate_tags(self, surface: str) -> list[Tag]:
        """Tags with blended mass above support_epsilon, most probable first.

        When no tag clears support_epsilon the most probable tag (ties to the
        smaller index) is kept alone, so a cohort is never empty.
        """
        v = self._dist_vector(surface)
        idx = np.flatnonzero(v > self.config.support_epsilon)
        if not idx.size:
            idx = np.argmax(v, keepdims=True)  # first maximum = smallest index
        tags = self.tagset.tags
        # a stable sort keeps ties in index order
        return [tags[i] for i in idx[np.argsort(-v[idx], kind="stable")].tolist()]

    def is_known(self, surface: str) -> bool:
        if surface in self.punct_table:
            return True
        counts = self.surfaces.get(surface)
        return counts is not None and sum(counts.values()) >= self.config.known_threshold
