"""Versioned plain-text model persistence.

Layout: an ``ambitag-lex v1`` section (tag inventory, smoothing config,
priors, shape-class distributions, punctuation table, depth-first trie
dump) followed by an ``ambitag-trans v1`` section (blend strength and raw
trigram counts; the blended probabilities are derived from them on load).
Floats are written with repr() so reloading is exact and re-serialization
is byte-identical.  Trigram lines are written sorted and distinct, trie
lines once per node and punct-table lines once per surface; on load,
repeated trigrams, trie surfaces, punct-table surfaces and tags on one line
all sum, and the lexicon is built once from the trie's surface counts.  A
trie line with neither counts nor children, or a punct-table line with no
counts, is rejected.  Every count is a positive integer below 2^63, and so
is the sum of the trigram counts, merged as int64, and each tag's count
merged within a trie line or a punct-table surface.  Punct-table surfaces
are written unescaped, so one holding a tab or a line break cannot be saved.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TextIO

import numpy as np

from .errors import ConfigError, InputError, ModelFormatError, TagInventoryError
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
    if len(field) == 1:
        return field
    if field[:2] in ("\\u", "\\U"):
        try:
            return chr(int(field[2:], 16))
        except (ValueError, OverflowError):
            pass
    raise ModelFormatError(f"bad character field {field!r}")


def _dump_trie(root: TrieNode, symbols: list[str]) -> list[str]:
    """Pre-order, children in character order.  Iterative, so a long
    surface cannot exhaust the recursion limit."""
    lines: list[str] = []
    stack = [(0, "", root)]
    while stack:
        depth, ch, node = stack.pop()
        stack += [(depth + 1, c, node.children[c]) for c in sorted(node.children, reverse=True)]
        if depth:
            parts = [str(depth), _enc_char(ch)]
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
        line = f"{surface}\t{pairs}"
        # punct-table surfaces are written raw, so they must read back as written
        if "\t" in surface or line.splitlines() != [line]:
            raise InputError(
                f"punctuation surface {surface!r} holds a tab or a line break "
                "and cannot be written to a model file"
            )
        lines.append(line)
    trie_lines = _dump_trie(lex.root, symbols)
    lines.append(f"trie {len(trie_lines)}")
    lines += trie_lines

    lines.append(TRANS_HEADER)
    lines.append(f"config k {trans.k!r}")
    names = list(trans.space.ids)
    lines.append(f"trigrams {len(trans.trigrams)}")
    for a, b, c, n in zip(*trans.trigrams.T.tolist(), trans.counts.tolist()):
        lines.append(f"{names[a]} {names[b]} {names[c]} {n}")
    return "\n".join(lines) + "\n"


class _Lines:
    """The model file's lines, read front to back.  ``pos`` is the number
    of the last line read, so it is also that line's 1-based line number."""

    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def error(self, message: str) -> ModelFormatError:
        return ModelFormatError(f"line {self.pos}: {message}")

    def bad(self, what: str) -> ModelFormatError:
        return self.error(f"bad {what} {self.lines[self.pos - 1]!r}")

    def expect(self, prefix: str) -> str:
        """The next line, which must start with `prefix`, without the prefix."""
        line = self.block(1)[0]
        if not line.startswith(prefix):
            raise self.error(f"expected {prefix!r}, got {line!r}")
        return line[len(prefix):]

    def count(self, prefix: str) -> int:
        """The entry count on the section header line ``prefix N``."""
        field = self.expect(prefix)
        if not (field.isascii() and field.isdecimal()):
            raise self.bad("section header")
        return int(field)

    def block(self, n: int) -> list[str]:
        """The next `n` lines; the first is line ``pos - n + 1``."""
        if self.pos + n > len(self.lines):
            raise ModelFormatError("unexpected end of model file")
        self.pos += n
        return self.lines[self.pos - n : self.pos]

    def numbered(self, n: int) -> enumerate:
        """The next `n` lines, each with its line number."""
        return enumerate(self.block(n), self.pos - n + 1)


# What a body line's parse can raise; `_located` adds the line number.
_PARSE_ERRORS = (ValueError, KeyError, ModelFormatError)


def _located(exc: Exception, lineno: int, line: str, what: str) -> InputError:
    if isinstance(exc, KeyError):
        return TagInventoryError(f"line {lineno}: unknown tag symbol {exc.args[0]!r}")
    reason = exc if isinstance(exc, ModelFormatError) else f"bad {what} {line!r}"
    return ModelFormatError(f"line {lineno}: {reason}")


def _count(field: str, what: str) -> int:
    """A positive integer in ASCII digits, below 2^63 so that it fits an int64."""
    n = int(field) if field.isascii() and field.isdecimal() else 0
    if not 0 < n < 2**63:
        raise ModelFormatError(f"{what} count {field!r} is not a positive integer below 2^63")
    return n


def _term_counts(
    fields: list[str], lookup: dict[str, int], into: dict[int, int] | None = None
) -> dict[int, int]:
    """``tag count tag count ...`` added to `into`, or to a new dict, as
    {tag id: count}; a repeated tag sums, and each sum stays below 2^63."""
    counts = {} if into is None else into
    for sym, count in zip(fields[0::2], fields[1::2], strict=True):
        t = lookup[sym]
        n = counts[t] = counts.get(t, 0) + _count(count, "tag")
        if n >= 2**63:
            raise ModelFormatError("tag counts sum to 2^63 or more")
    return counts


def _read_dist(lines: _Lines, header: str, lookup: dict[str, int]) -> np.ndarray:
    vec = np.zeros(len(lookup))
    entries = lines.numbered(lines.count(header))
    try:
        for lineno, line in entries:
            sym, val = line.rsplit(" ", 1)
            p = float(val)
            if not 0.0 <= p <= 1.0:
                raise ModelFormatError(f"probability {val!r} is outside [0, 1]")
            vec[lookup[sym]] = p
    except _PARSE_ERRORS as exc:
        raise _located(exc, lineno, line, "distribution entry") from None
    return vec


def _read_config(lines: _Lines) -> SmoothingConfig:
    fields = lines.expect("config ").split()
    opts = dict(zip(fields[0::2], fields[1::2]))
    try:
        return SmoothingConfig(
            k=float(opts["k"]),
            known_lookup_levels=int(opts["levels"]),
            infrequent_cutoff=int(opts["cutoff"]),
            known_threshold=int(opts["known-threshold"]),
            support_epsilon=float(opts["support-epsilon"]),
            class_mix=float(opts["class-mix"]),
        )
    except KeyError as exc:
        raise lines.error(f"config line missing field {exc}") from None
    except ValueError:
        raise lines.bad("config line") from None
    except ConfigError as exc:
        raise lines.error(str(exc)) from None


def _read_punct_table(lines: _Lines, lookup: dict[str, int]) -> dict[str, dict[int, int]]:
    """Each line is ``surface<TAB>(tag count)*``; a repeated surface sums."""
    table: dict[str, dict[int, int]] = {}
    entries = lines.numbered(lines.count("punct-table "))
    try:
        for lineno, line in entries:
            surface, rest = line.split("\t", 1)
            fields = rest.split()
            if not fields:
                raise ModelFormatError("punct-table entry has no counts")
            _term_counts(fields, lookup, table.setdefault(surface, {}))
    except _PARSE_ERRORS as exc:
        raise _located(exc, lineno, line, "punct-table entry") from None
    return table


def _read_trie(lines: _Lines, lookup: dict[str, int]) -> Iterator[tuple[str, dict[int, int]]]:
    """The pre-order trie dump, each line ``depth char (tag count)*``, as
    (surface, {tag id: count}) for each line with counts."""
    chars: list[str] = []  # the path from the root to the last node
    bare = 0  # the last line's number if it has no counts
    entries = lines.numbered(lines.count("trie "))
    try:
        for lineno, line in entries:
            depth, ch, *terms = line.split()
            depth = int(depth)
            if not 1 <= depth <= len(chars) + 1:
                raise ModelFormatError(f"trie depth {depth} out of order")
            if bare and depth <= len(chars):
                break  # the bare line was a leaf
            del chars[depth - 1 :]
            chars.append(_dec_char(ch))
            if terms:
                # the path spells the surface backwards
                yield "".join(reversed(chars)), _term_counts(terms, lookup)
            bare = 0 if terms else lineno
    except _PARSE_ERRORS as exc:
        raise _located(exc, lineno, line, "trie line") from None
    if bare:
        raise ModelFormatError(f"line {bare}: trie node has neither counts nor children")


def _read_trigrams(lines: _Lines, ids: dict[str, int]) -> tuple[list[int], list[int]]:
    """Each line is ``a b c count``; the windows' `ids`, flat, and their counts."""
    windows: list[int] = []
    counts: list[int] = []
    total = 0
    entries = lines.numbered(lines.count("trigrams "))
    try:
        for lineno, line in entries:
            a, b, c, count = line.split()
            counts.append(_count(count, "trigram"))
            total += counts[-1]
            if total >= 2**63:
                raise ModelFormatError("trigram counts sum to 2^63 or more")
            windows += ids[a], ids[b], ids[c]
    except _PARSE_ERRORS as exc:
        raise _located(exc, lineno, line, "trigram line") from None
    return windows, counts


def loads_model(text: str) -> tuple[LexicalModel, TransitionModel]:
    lines = _Lines(text)
    lines.expect(LEX_HEADER)
    symbols: dict[str, None] = {}
    for lineno, sym in lines.numbered(lines.count("tags ")):
        if sym.split() != [sym] or sym in symbols:
            raise ModelFormatError(f"line {lineno}: bad tag symbol {sym!r}")
        symbols[sym] = None
    tagset = TagSet(list(symbols))

    lookup = tagset.lookup
    lex = LexicalModel(
        tagset,
        _read_config(lines),
        _read_dist(lines, "priors word ", lookup),
        _read_dist(lines, "priors punct ", lookup),
        {
            name: _read_dist(lines, f"class {name} ", lookup)
            for name in ("capitalized", "all-caps", "infrequent")
        },
        _read_punct_table(lines, lookup),
        _read_trie(lines, lookup),
    )

    lines.expect(TRANS_HEADER)
    try:
        k = float(lines.expect("config k "))
    except ValueError:
        raise lines.bad("config line") from None
    k_lineno = lines.pos
    windows, counts = _read_trigrams(lines, StateSpace(tagset).ids)
    for lineno, line in lines.numbered(len(lines.lines) - lines.pos):
        if line.strip():
            raise ModelFormatError(f"line {lineno}: trailing content in model file")
    try:
        return lex, TransitionModel(tagset, k, windows, counts)
    except ConfigError as exc:
        raise ModelFormatError(f"line {k_lineno}: {exc}") from None


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
