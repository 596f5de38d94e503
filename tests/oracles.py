"""Independent reference implementations used to cross-check the package.

Nothing here shares code with the library: path probabilities come from
exhaustive enumeration, transition smoothing from a direct recursive
evaluation of the blending rule over raw trigram counts.
"""

from __future__ import annotations

import itertools


def brute_force_decode(trans, aprime, ids):
    """Exhaustively enumerate every tag path of a lattice.

    trans: transition model (queried only through its array probs[a, b, c]);
    aprime: per-position dict tag_id -> relative lexical score;
    ids: per-position candidate id lists.

    Returns (total_mass, per-position posterior dicts, best_path, best_weight).
    """
    total = 0.0
    post = [dict.fromkeys(c, 0.0) for c in ids]
    best_path, best_w = None, -1.0
    for path in itertools.product(*ids):
        w = path_weight(trans, aprime, path)
        total += w
        for t, c in enumerate(path):
            post[t][c] += w
        if w > best_w:
            best_path, best_w = path, w
    if total > 0.0:
        post = [{c: v / total for c, v in d.items()} for d in post]
    return total, post, list(best_path), best_w


def path_weight(trans, aprime, path):
    boundary = trans.space.boundary_id
    w = 1.0
    hist = (boundary, boundary)
    for t, c in enumerate(path):
        w *= float(trans.probs[hist[0], hist[1], c]) * aprime[t][c]
        hist = (hist[1], c)
    return w


def blended_transition_oracle(trigram_counts, n_symbols, k, a, b, c):
    """Recursive blending over raw counts: trigram <- bigram <- unigram <-
    uniform, each level (count + k * parent) / (context + k), with empty
    zero-k contexts deferring to the parent."""
    tri = trigram_counts.get((a, b, c), 0)
    tri_ctx = sum(n for (x, y, _), n in trigram_counts.items() if (x, y) == (a, b))
    bi = sum(n for (_, y, z), n in trigram_counts.items() if (y, z) == (b, c))
    bi_ctx = sum(n for (_, y, _), n in trigram_counts.items() if y == b)
    uni = sum(n for (_, _, z), n in trigram_counts.items() if z == c)
    total = sum(trigram_counts.values())

    p = 1.0 / n_symbols
    if total + k > 0:
        p = (uni + k * p) / (total + k)
    if bi_ctx + k > 0:
        p = (bi + k * p) / (bi_ctx + k)
    if tri_ctx + k > 0:
        p = (tri + k * p) / (tri_ctx + k)
    return p


def kl_divergence(p, q):
    """KL(p || q) over parallel sequences; q must dominate p."""
    import math

    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 0:
            total += pi * math.log(pi / qi)
    return total


def trie_nodes(root):
    """(suffix, node) for every node of a reversed-suffix trie, the root as
    the empty suffix; each child's character goes in front of its parent's
    suffix."""
    stack = [("", root)]
    while stack:
        suffix, node = stack.pop()
        yield suffix, node
        stack += [(ch + suffix, child) for ch, child in node.children.items()]


def recount_lexicon(corpus, tagset, cutoff):
    """What lexicon training estimates, recounted token by token: the
    word-tag and punctuation-tag priors, the shape-class distributions, the
    exact-match table of every surface that ever carries a punctuation tag,
    the other surfaces' counts, and each word surface's total, all in
    first-seen order.  Returns a dict of numpy vectors and plain dicts."""
    import numpy as np

    n = len(tagset)
    word = [t.index for t in tagset if t.cls == "word"]
    punct = [t.index for t in tagset if t.cls == "punctuation"]
    punct_surfaces = set()
    for sent in corpus:
        for tok, tag in zip(sent.tokens, sent.gold):
            if tag.index in punct:
                punct_surfaces.add(tok.surface)
    word_counts, punct_counts = np.zeros(n), np.zeros(n)
    table, surfaces = {}, {}
    for sent in corpus:
        for tok, tag in zip(sent.tokens, sent.gold):
            if tag.index in punct:
                punct_counts[tag.index] += 1
            else:
                word_counts[tag.index] += 1
            rows = table if tok.surface in punct_surfaces else surfaces
            row = rows.setdefault(tok.surface, {})
            row[tag.index] = row.get(tag.index, 0) + 1

    def normalised(counts, fallback):
        return counts / counts.sum() if counts.sum() > 0 else fallback

    uniform_word = np.zeros(n)
    uniform_word[word] = 1.0 / len(word)
    priors = normalised(word_counts, uniform_word)
    uniform_punct = np.zeros(n)
    if punct:
        uniform_punct[punct] = 1.0 / len(punct)
    punct_priors = normalised(punct_counts, uniform_punct)

    def shape(surface):
        if len(surface) >= 2 and surface.isupper():
            return "all-caps"
        return "capitalized" if surface[:1].isupper() else "other"

    by_class = {name: np.zeros(n) for name in ("capitalized", "all-caps", "infrequent")}
    for surface, row in surfaces.items():
        for t, c in row.items():
            if shape(surface) != "other":
                by_class[shape(surface)][t] += c
            if sum(row.values()) <= cutoff:
                by_class["infrequent"][t] += c
    supported = [i for i in word if priors[i] > 0]
    anchor = np.zeros(n)
    anchor[supported] = 1.0 / len(supported)
    infrequent = normalised(by_class["infrequent"], anchor)
    return {
        "priors": priors,
        "punct_priors": punct_priors,
        "class_dists": {
            "capitalized": normalised(by_class["capitalized"], infrequent),
            "all-caps": normalised(by_class["all-caps"], infrequent),
            "infrequent": infrequent,
        },
        "punct_table": table,
        "surfaces": surfaces,
        "word_counts": {s: sum(row.values()) for s, row in surfaces.items()},
    }
