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
