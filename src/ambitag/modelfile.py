"""Versioned plain-text model persistence.

Layout: an ``ambitag-lex v1`` section (tag inventory, smoothing config,
priors, shape-class distributions, punctuation table, depth-first trie
dump) followed by an ``ambitag-trans v1`` section (blend strength and raw
trigram counts; the blended probabilities are derived from them on load).
Floats are written with repr() so reloading is exact and re-serialization
is byte-identical.
"""

from __future__ import annotations

from typing import TextIO

import numpy as np

from .errors import ModelFormatError
from .lexicon import LexicalModel, SmoothingConfig, TrieNode
from .ngram import StateSpace, TransitionModel
from .tagset import TagSet

LEX_HEADER = "ambitag-lex v1"
TRANS_HEADER = "ambitag-trans v1"


def _enc_char(ch: str) -> str:
    if ch.isprintable() and not ch.isspace() and ch != "\\":
        return ch
    cp = ord(ch)
    return f"\\u{cp:04x}" if cp <= 0xFFFF else f"\\U{cp:08x}"


def _dec_char(field: str) -> str:
    if field.startswith("\\u") or field.startswith("\\U"):
        return chr(int(field[2:], 16))
    if len(field) != 1:
        raise ModelFormatError(f"bad character field {field!r}")
    return field


def _dump_trie(root: TrieNode, symbols: list[str]) -> list[str]:
    """Pre-order, children in character order.  Iterative, so a long
    surface cannot exhaust the recursion limit."""
    lines: list[str] = []
    stack = [(0, root)]
    while stack:
        depth, node = stack.pop()
        stack += [(depth + 1, node.children[ch]) for ch in sorted(node.children, reverse=True)]
        if depth:
            parts = [str(depth), _enc_char(node.char)]
            for t in sorted(node.term_counts):
                parts += [symbols[t], str(node.term_counts[t])]
            lines.append(" ".join(parts))
    return lines


def _dist_lines(header: str, vec: np.ndarray, symbols: list[str]) -> list[str]:
    entries = [(i, float(v)) for i, v in enumerate(vec) if v != 0.0]
    lines = [f"{header} {len(entries)}"]
    lines += [f"{symbols[i]} {v!r}" for i, v in entries]
    return lines


def dumps_model(lex: LexicalModel, trans: TransitionModel) -> str:
    symbols = [t.symbol for t in lex.tagset]
    cfg = lex.config
    lines = [LEX_HEADER]
    lines.append(f"tags {len(symbols)}")
    lines += symbols
    lines.append(
        "config"
        f" k {cfg.k!r}"
        f" levels {cfg.known_lookup_levels}"
        f" cutoff {cfg.infrequent_cutoff}"
        f" known-threshold {cfg.known_threshold}"
        f" support-epsilon {cfg.support_epsilon!r}"
        f" class-mix {cfg.class_mix!r}"
    )
    lines += _dist_lines("priors word", lex.priors, symbols)
    lines += _dist_lines("priors punct", lex.punct_priors, symbols)
    for name in ("capitalized", "all-caps", "infrequent"):
        lines += _dist_lines(f"class {name}", lex.class_dists[name], symbols)
    lines.append(f"punct-table {len(lex.punct_table)}")
    for surface in sorted(lex.punct_table):
        row = lex.punct_table[surface]
        pairs = " ".join(f"{symbols[t]} {row[t]}" for t in sorted(row))
        lines.append(f"{surface}\t{pairs}")
    trie_lines = _dump_trie(lex.root, symbols)
    lines.append(f"trie {len(trie_lines)}")
    lines += trie_lines

    lines.append(TRANS_HEADER)
    lines.append(f"config k {trans.k!r}")
    space = trans.space
    lines.append(f"trigrams {len(trans.trigrams)}")
    for a, b, c in sorted(trans.trigrams):
        lines.append(
            f"{space.symbol_name(a)} {space.symbol_name(b)} {space.symbol_name(c)} "
            f"{trans.trigrams[(a, b, c)]}"
        )
    return "\n".join(lines) + "\n"


class _Cursor:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next(self) -> str:
        if self.pos >= len(self.lines):
            raise ModelFormatError("unexpected end of model file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect(self, prefix: str) -> str:
        line = self.next()
        if not line.startswith(prefix):
            raise ModelFormatError(
                f"line {self.pos}: expected {prefix!r}, got {line!r}"
            )
        return line

    @property
    def done(self) -> bool:
        return self.pos >= len(self.lines)


def _read_dist(cur: _Cursor, header: str, tagset: TagSet) -> np.ndarray:
    line = cur.expect(header)
    try:
        n = int(line.rsplit(" ", 1)[1])
    except (IndexError, ValueError):
        raise ModelFormatError(f"line {cur.pos}: bad section header {line!r}") from None
    vec = np.zeros(len(tagset))
    for _ in range(n):
        sym, val = cur.next().rsplit(" ", 1)
        vec[tagset.tag(sym).index] = float(val)
    return vec


def loads_model(text: str) -> tuple[LexicalModel, TransitionModel]:
    cur = _Cursor(text)
    cur.expect(LEX_HEADER)
    n_tags = int(cur.expect("tags ").split()[1])
    tagset = TagSet([cur.next() for _ in range(n_tags)])

    fields = cur.expect("config ").split()
    opts = dict(zip(fields[1::2], fields[2::2]))
    try:
        config = SmoothingConfig(
            k=float(opts["k"]),
            known_lookup_levels=int(opts["levels"]),
            infrequent_cutoff=int(opts["cutoff"]),
            known_threshold=int(opts["known-threshold"]),
            support_epsilon=float(opts["support-epsilon"]),
            class_mix=float(opts["class-mix"]),
        )
    except KeyError as exc:
        raise ModelFormatError(f"config line missing field {exc}") from None

    lex = LexicalModel(tagset, config)
    lex.priors = _read_dist(cur, "priors word ", tagset)
    lex.punct_priors = _read_dist(cur, "priors punct ", tagset)
    lex.class_dists = {
        name: _read_dist(cur, f"class {name} ", tagset)
        for name in ("capitalized", "all-caps", "infrequent")
    }

    n_punct = int(cur.expect("punct-table ").split()[1])
    for _ in range(n_punct):
        line = cur.next()
        if "\t" not in line:
            raise ModelFormatError(f"line {cur.pos}: bad punct-table entry {line!r}")
        surface, rest = line.split("\t", 1)
        fields = rest.split()
        row = {}
        for sym, count in zip(fields[0::2], fields[1::2]):
            row[tagset.tag(sym).index] = int(count)
        lex.punct_table[surface] = row

    n_trie = int(cur.expect("trie ").split()[1])
    stack: list[TrieNode] = [lex.root]
    paths: list[str] = [""]
    for _ in range(n_trie):
        fields = cur.next().split()
        depth = int(fields[0])
        if not 1 <= depth <= len(stack):
            raise ModelFormatError(f"line {cur.pos}: trie depth {depth} out of order")
        ch = _dec_char(fields[1])
        parent = stack[depth - 1]
        node = parent.child(ch)
        del stack[depth:], paths[depth:]
        stack.append(node)
        paths.append(paths[depth - 1] + ch)
        for sym, count in zip(fields[2::2], fields[3::2]):
            node.term_counts[tagset.tag(sym).index] = int(count)
        if node.term_counts:
            # path spells the surface backwards
            lex.word_counts[paths[-1][::-1]] = sum(node.term_counts.values())
    lex.root.aggregate()
    lex._finish()

    cur.expect(TRANS_HEADER)
    k_trans = float(cur.expect("config k ").split()[2])
    space = StateSpace(tagset)
    trigrams: dict[tuple[int, int, int], int] = {}
    n_tri = int(cur.expect("trigrams ").split()[1])
    for _ in range(n_tri):
        fields = cur.next().split()
        if len(fields) != 4:
            raise ModelFormatError(f"line {cur.pos}: bad trigram line")
        count = int(fields[3]) if fields[3].isdecimal() else 0
        if count == 0:
            raise ModelFormatError(
                f"line {cur.pos}: trigram count {fields[3]!r} is not a positive integer"
            )
        key = tuple(space.symbol_id(s) for s in fields[:3])
        trigrams[key] = trigrams.get(key, 0) + count
    trans = TransitionModel(tagset, k_trans, trigrams)
    while not cur.done:
        if cur.next().strip():
            raise ModelFormatError(f"line {cur.pos}: trailing content in model file")
    return lex, trans


def save_model(out: str | TextIO, lex: LexicalModel, trans: TransitionModel) -> None:
    text = dumps_model(lex, trans)
    if isinstance(out, str):
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        out.write(text)


def load_model(path: str) -> tuple[LexicalModel, TransitionModel]:
    with open(path, encoding="utf-8") as fh:
        return loads_model(fh.read())
