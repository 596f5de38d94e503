"""Suffix-indexed lexicon: smoothed P(tag | word) and the relative
lexical scores P(tag | word) / P(tag) the decoder consumes.

The word counts, {surface: {tag id: count}}, are held once, as the arrays
of a `SurfaceTable`: the surfaces spelt backwards in sorted order, which is
the order the model file's trie section lists them in, and each one's tag
ids and counts in CSR form.  The surfaces that end in a suffix are then one
contiguous run of that order, found by bisection, and so is whether the
suffix branches.  A suffix's counts are summed over its run the first time
a lookup asks for them and cached per run, so the cache holds at most one
entry per suffix of the model's own surfaces.  A suffix's distribution
blends its counts with that of the suffix one character shorter, from a
uniform anchor (TnT-style suffix smoothing):
P_s(x) = (c(s,x) + k * P_shorter(x)) / (c(s) + k).  Known words blend
their own counts with the nearest branching suffixes, those that two or
more table suffixes extend by one character or that are themselves
surfaces; unknown words blend every suffix they share with the table and
are then mixed with a shape-class distribution.  Punctuation surfaces
bypass the index entirely (exact-match table).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, fields
from itertools import chain
from numbers import Integral
from operator import attrgetter
from os.path import commonprefix

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
        for f in fields(self):  # a model file can hold only a number of the field's kind
            value = getattr(self, f.name)
            if type(f.default) is int and not isinstance(value, Integral) or isinstance(value, (bool, np.bool_)):
                kind = "an integer" if type(f.default) is int else "a real number"
                raise ConfigError(f"{f.name} must be {kind}, got {value!r}")
        check_blend_strength(self.k, "k")
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


def _check_counts(surface: str, counts: Mapping[int, int]) -> None:
    if not counts or min(counts.values()) < 1 or max(counts.values()) >= 2**63:
        raise InputError(f"surface {surface!r} needs counts, each a positive integer below 2^63")


class SurfaceTable(Mapping):
    """The word counts, a read-only {surface: {tag id: count}}, as arrays.

    ``reversed`` holds each surface spelt backwards, in sorted order, so
    that the surfaces ending in one suffix are one contiguous run of rows.
    Row i's tag ids, ascending, are ``ids[starts[i]:starts[i + 1]]`` and its
    counts the same slice of ``counts``: int64, or Python ints once all the
    counts together reach 2^63, so that every sum over rows is exact.
    ``rank`` gives each row's place in the order the surfaces were given,
    None if that is the sorted order; the mapping iterates in that order.
    """

    def __init__(
        self,
        reversed_surfaces: list[str],
        starts: list[int],
        ids: list[int],
        counts: list[int],
        rank: list[int] | None = None,
    ):
        self.reversed = reversed_surfaces
        self.starts = np.array(starts, np.intp)
        self.ids = np.array(ids, np.intp)
        self.counts = np.array(counts, np.int64 if sum(counts) < 2**63 else object)
        self.rank = None if rank is None else np.array(rank, np.intp)

    @classmethod
    def from_dict(cls, surfaces: Mapping[str, Mapping[int, int]]) -> "SurfaceTable":
        """As in a model file, no surface may be empty and each needs
        counts, each a positive integer below 2^63."""
        if "" in surfaces:
            raise InputError("a word surface cannot be empty")
        for surface, counts in surfaces.items():
            _check_counts(surface, counts)
        given = [surface[::-1] for surface in surfaces]
        rank = sorted(range(len(given)), key=given.__getitem__)
        rows = list(surfaces.values())
        starts, ids, counts = [0], [], []
        for i in rank:
            tags = sorted(rows[i])
            ids += tags
            counts += [int(rows[i][t]) for t in tags]
            starts.append(len(ids))
        return cls([given[i] for i in rank], starts, ids, counts, rank)

    def __len__(self) -> int:
        return len(self.reversed)

    def __iter__(self):
        rows = range(len(self)) if self.rank is None else np.argsort(self.rank).tolist()
        return (self.reversed[i][::-1] for i in rows)

    def __getitem__(self, surface: str) -> dict[int, int]:
        i = self.row(surface)
        if i is None:
            raise KeyError(surface)
        a, b = self.starts[i], self.starts[i + 1]
        return dict(zip(self.ids[a:b].tolist(), self.counts[a:b].tolist()))

    def row(self, surface: str) -> int | None:
        """The surface's row, or None if it is not in the table."""
        rev = surface[::-1]
        i = bisect_left(self.reversed, rev)
        return i if i < len(self.reversed) and self.reversed[i] == rev else None


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
        surfaces: Mapping[str, Mapping[int, int]] | SurfaceTable,
    ):
        """`surfaces` maps each word surface to its {tag id: count}; a dict is
        copied into a `SurfaceTable`.  `priors` and `punct_priors` are each
        tag family's priors.  As in a model file, each surface needs counts,
        each a positive integer below 2^63, and no word surface may be empty.
        A tag with zero prior in its own family may have no count and no
        class-distribution mass, so every lookup's P(tag | word) / P(tag) is
        defined; the first surface, in the order given, that counts such a
        tag is named with the smallest such tag."""
        if not isinstance(surfaces, SurfaceTable):
            surfaces = SurfaceTable.from_dict(surfaces)
        word_ids = _word_tag_ids(tagset)
        tag_priors = punct_priors.copy()  # each tag's prior from its own family
        tag_priors[word_ids] = priors[word_ids]
        zero = tag_priors == 0.0
        bad = np.flatnonzero(zero[surfaces.ids])
        if bad.size:
            rows = np.searchsorted(surfaces.starts, bad, "right") - 1
            first = int(np.argmin(rows if surfaces.rank is None else surfaces.rank[rows]))
            surface = surfaces.reversed[rows[first]][::-1]
            raise _zero_prior(tagset, int(surfaces.ids[bad[first]]), "word surface", surface)
        unset = set(np.flatnonzero(zero).tolist())
        for surface, counts in punct_table.items():
            _check_counts(surface, counts)
            if not unset.isdisjoint(counts):
                raise _zero_prior(tagset, min(unset.intersection(counts)), "punct-table surface", surface)
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
        # a zero prior divides zero mass: the score is 0
        self._divisor = np.where(zero, 1.0, tag_priors)
        self._anchor = _anchor(priors, word_ids)
        # Each row's bounds, the exact total of the rows before each row, and
        # each count as the float a blend adds.
        self._starts = surfaces.starts.tolist()
        self._before = np.append(0, np.cumsum(surfaces.counts))[surfaces.starts].tolist()
        self._weights = surfaces.counts.astype(float)
        # Only the model's own surfaces and suffixes are cached, so the caches stay bounded:
        # the runs of two or more rows by reversed suffix, and their summed counts.
        self._dist_cache: dict[str, np.ndarray] = {}
        self._runs: dict[str, tuple[int, int]] = {}
        self._run_counts: dict[tuple[int, int], np.ndarray] = {}

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
        else:  # no word tokens, as in an empty corpus: uniform priors
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

    def _counts(self, lo: int, hi: int) -> tuple[np.ndarray | slice, np.ndarray]:
        """The counts of the rows lo..hi-1 summed by tag, as floats, and the
        tags they belong to: one row's own counts and its tag ids, or else
        the sums over every tag, made once and cached per run, so per
        suffix."""
        a, b = self._starts[lo], self._starts[hi]
        if hi - lo == 1:
            return self.surfaces.ids[a:b], self._weights[a:b]
        summed = self._run_counts.get((lo, hi))
        if summed is None:
            table = self.surfaces
            summed = np.zeros(len(self.tagset), table.counts.dtype)
            np.add.at(summed, table.ids[a:b], table.counts[a:b])
            summed = self._run_counts[lo, hi] = summed.astype(float)
        return slice(None), summed

    def _blend(self, run: tuple[int, int], parent: np.ndarray) -> np.ndarray:
        """(c(s,x) + k * parent(x)) / (c(s) + k) over the rows of `run`; a
        tag without counts adds 0.0, which leaves its k * parent unchanged."""
        tags, counts = self._counts(*run)
        total = self._before[run[1]] - self._before[run[0]]
        k = self.config.k
        if total + k == 0:  # k=0 on an empty node: defer to the parent
            return parent
        v = parent * k
        v[tags] += counts
        return v / (total + k)

    def _match_path(self, surface: str) -> list[tuple[int, int]]:
        """The runs of rows that hold the surface's suffixes in the table,
        shortest first: the rows whose reversed surface starts with the
        suffix reversed.  The table holds every suffix of each suffix it
        holds, so the first one missing ends the path."""
        rev = surface[::-1]
        keys = self.surfaces.reversed
        lo, hi = 0, len(keys)
        path = [(lo, hi)]  # the empty suffix, which every lookup blends
        for d in range(1, len(rev) + 1):
            if hi - lo == 1:  # one row left: the path follows it as far as they agree
                agree = len(rev) if keys[lo].startswith(rev) else len(commonprefix((keys[lo], rev)))
                path += [(lo, hi)] * (agree - d + 1)
                break
            stem = rev[:d]
            run = self._runs.get(stem)
            if run is None:
                lo = bisect_left(keys, stem, lo, hi)
                if stem[-1] != "\U0010ffff":  # the run ends below `stem` with its last character stepped
                    hi = bisect_left(keys, stem[:-1] + chr(ord(stem[-1]) + 1), lo, hi)
                if lo == hi:
                    break
                run = (lo, hi)
                if hi - lo > 1:
                    self._runs[stem] = run
            lo, hi = run
            path.append(run)
        return path

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
            # Blend the nearest `levels` strict suffixes that branch, shortest
            # first, then the word's own counts.  A suffix branches when two or
            # more table suffixes extend it by one character or when it is
            # itself a surface: just when its run holds a row that the run of
            # the suffix one character longer does not.
            path = self._match_path(surface)  # a run for every suffix, the surface's own last
            branching = [path[d] for d in range(len(surface)) if path[d] != path[d + 1]]
            dist = self._anchor
            for run in branching[len(branching) - min(self.config.levels, len(branching)) :]:
                dist = self._blend(run, dist)
            row = path[-1][0]  # the surface sorts first among those ending in it
            v = self._blend((row, row + 1), dist)
        else:
            dist = self._anchor
            for run in self._match_path(surface):
                dist = self._blend(run, dist)
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
        row = self.surfaces.row(surface)
        return row is not None and self._before[row + 1] - self._before[row] >= self.config.known_threshold
