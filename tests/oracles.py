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


def _blend(counts, parent, k):
    """(count + k * parent) / (total + k), an empty zero-k level deferring
    to the parent."""
    total = sum(counts.values())
    if total + k == 0:
        return parent
    v = parent * k
    for t, c in counts.items():
        v[t] += c
    return v / (total + k)


def known_word_dist(surfaces, priors, k, levels, surface):
    """P(tag | surface) for a known word, from the {surface: {tag id: count}}
    table alone.  The suffix of length d < len(surface) branches when two or
    more characters extend it to a suffix of some surface, or when it is
    itself a surface.  Starting from the uniform anchor over the tags with
    nonzero prior, the nearest `levels` branching suffixes, shortest first,
    each blend in the counts of every surface that ends in them; the word's
    own counts blend last."""
    import numpy as np

    suffixes = {w[i:] for w in surfaces for i in range(len(w) + 1)}
    chosen = []
    for d in range(len(surface) - 1, -1, -1):
        if len(chosen) == levels:
            break
        suffix = surface[len(surface) - d :]
        extended_by = {x[0] for x in suffixes if len(x) == d + 1 and x.endswith(suffix)}
        if len(extended_by) >= 2 or suffix in surfaces:
            chosen.append(suffix)
    support = np.flatnonzero(priors)
    dist = np.zeros(len(priors))
    dist[support] = 1.0 / len(support)
    for suffix in reversed(chosen):
        counts = {}
        for w, row in surfaces.items():
            if w.endswith(suffix):
                for t, c in row.items():
                    counts[t] = counts.get(t, 0) + c
        dist = _blend(counts, dist, k)
    return _blend(surfaces[surface], dist, k)


def unknown_word_dist(surfaces, priors, class_dists, k, class_mix, surface):
    """P(tag | surface) for an unknown word, from the {surface: {tag id:
    count}} table alone.  Starting from the uniform anchor over the tags
    with nonzero prior, every suffix of the surface that is a suffix of some
    surface, the empty one included, blends in the counts of every surface
    that ends in it, shortest first.  The result is mixed with the
    distribution of the surface's shape class, weighted by class_mix."""
    import numpy as np

    suffixes = {""} | {w[i:] for w in surfaces for i in range(len(w))}
    support = np.flatnonzero(priors)
    dist = np.zeros(len(priors))
    dist[support] = 1.0 / len(support)
    for i in range(len(surface), -1, -1):
        if surface[i:] in suffixes:
            counts = {}
            for w, row in surfaces.items():
                if w.endswith(surface[i:]):
                    for t, c in row.items():
                        counts[t] = counts.get(t, 0) + c
            dist = _blend(counts, dist, k)
    shape = _shape(surface)
    return (1.0 - class_mix) * dist + class_mix * class_dists[
        shape if shape != "other" else "infrequent"
    ]


def word_dist(surfaces, priors, class_dists, config, surface):
    """P(tag | surface) for a word surface: `known_word_dist` if the table
    counts it at least `config.known_threshold` times, else
    `unknown_word_dist`; `config` supplies the smoothing settings."""
    row = surfaces.get(surface)
    if row is not None and sum(row.values()) >= config.known_threshold:
        return known_word_dist(surfaces, priors, config.k, config.levels, surface)
    return unknown_word_dist(surfaces, priors, class_dists, config.k, config.class_mix, surface)


def _shape(surface):
    """all-caps (two or more characters), capitalized, or other."""
    if len(surface) >= 2 and surface.isupper():
        return "all-caps"
    return "capitalized" if surface[:1].isupper() else "other"


def trie_dump(surfaces, symbols):
    """A model file's trie lines, walked node by node.  The nodes are the
    nonempty suffixes of the surfaces, each the child of the suffix one
    character shorter; the walk is pre-order with children in character
    order.  A node's line is ``depth char (tag count)*``, with the counts of
    the surface equal to its suffix by tag id; the character is escaped as
    ``\\uXXXX`` or ``\\UXXXXXXXX`` unless it is printable, not whitespace
    and not a backslash."""

    def escape(ch):
        if ch.isprintable() and not ch.isspace() and ch != "\\":
            return ch
        return f"\\u{ord(ch):04x}" if ord(ch) <= 0xFFFF else f"\\U{ord(ch):08x}"

    children = {}
    for suffix in {w[i:] for w in surfaces for i in range(len(w))}:
        children.setdefault(suffix[1:], []).append(suffix)
    lines = []
    stack = [""]
    while stack:
        node = stack.pop()
        if node:
            counts = surfaces.get(node, {})
            fields = [str(len(node)), escape(node[0])]
            for t in sorted(counts):
                fields += [symbols[t], str(counts[t])]
            lines.append(" ".join(fields))
        stack += sorted(children.get(node, []), reverse=True)
    return lines


def recount_lexicon(corpus, tagset, cutoff):
    """What lexicon training estimates, recounted token by token: the
    word-tag and punctuation-tag priors, the shape-class distributions, the
    exact-match table of every surface that ever carries a punctuation tag
    and the other surfaces' counts, all in first-seen order.  Returns a dict
    of numpy vectors and plain dicts."""
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

    by_class = {name: np.zeros(n) for name in ("capitalized", "all-caps", "infrequent")}
    for surface, row in surfaces.items():
        for t, c in row.items():
            if _shape(surface) != "other":
                by_class[_shape(surface)][t] += c
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
    }
