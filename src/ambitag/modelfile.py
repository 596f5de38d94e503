"""Versioned plain-text model persistence.

Layout: an ``ambitag-lex v1`` section (tag inventory, smoothing config,
priors, shape-class distributions, punctuation table, depth-first trie
dump) followed by an ``ambitag-trans v1`` section (blend strength and raw
trigram counts; the blended probabilities are derived from them on load).
Floats are written with repr() so reloading is exact and re-serialization
is byte-identical.  The lexicon's ``config`` line holds ``name value`` for
each `SmoothingConfig` field in order, the name's ``_`` written ``-`` and
the value with str(), which is repr() for a float and plain for a numpy
scalar.  The
trie section is written from the lexicon's `SurfaceTable`, one line per
node of the reversed surfaces' trie, in the table's own sorted order, and
read back into such a table; no trie is kept.  Trigram lines are written
sorted and distinct, trie lines once per node and punct-table lines once
per surface; on load, repeated trigrams, trie
surfaces, punct-table surfaces and tags on one line all sum.  A trie line
with neither counts nor children, or a punct-table line with no counts, is
rejected.  Every count is a positive integer below 2^63, and so is the sum
of the trigram counts, merged as int64, and each tag's count merged within
a trie or punct-table surface.  A tag whose prior in its own family is 0
may have no trie or punct-table count and no mass in a class
distribution, or the model is rejected, naming the line of that count or
of that class's header.  Punct-table surfaces are written unescaped, so one
holding a tab or a line break cannot be saved.

The trigram and trie sections are each read by one reader,
`_read_section`: a bulk pass first, and a per-line loop that defines a
valid line only if the bulk pass declines; the loop then reads the section
from its first line, so the two read every file alike and every error
keeps its message and line number.  The
trigram pass (`bulkparse`) encodes each slab of lines once and checks and
parses it as one byte array, with no Python object per field.  It takes
only lines in the form `dumps_model` writes, ``a b c n`` single-spaced,
each symbol exactly one of the alphabet's and each count 1-19 ASCII
digits, and declines if any slab holds another line or the counts reach
2^63.  The trie pass (`_bulk_trie`) splits the whole section once and
checks and converts it a column at a time: depths, characters, and tag
and count fields.  It builds each surface from the one before it and
takes only single-spaced lines whose depths walk the trie, whose surfaces
come in sorted order, once each, and whose tags ascend on each line.  A
zero-prior error is located by reading both surface sections again with
their loops alone.
"""

from __future__ import annotations

import dataclasses
from os.path import commonprefix
from typing import TextIO

import numpy as np

from .bulkparse import bulk_trigrams
from .corpus import read_text, write_text
from .errors import (
    ConfigError,
    InputError,
    ModelFormatError,
    TagInventoryError,
    ZeroPriorError,
)
from .lexicon import LexicalModel, SmoothingConfig, SurfaceTable
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


def _dump_trie(table: SurfaceTable, symbols: list[str]) -> list[str]:
    """One ``depth char (tag count)*`` line per node of the trie of reversed
    surfaces, in pre-order with children in character order: the table's
    reversed surfaces in their sorted order, each adding the nodes below its
    longest common prefix with the one before."""
    lines: list[str] = []
    prev = ""
    ids, counts, starts = table.ids.tolist(), table.counts.tolist(), table.starts.tolist()
    for rev, a, b in zip(table.reversed, starts, starts[1:]):
        depth = len(commonprefix((prev, rev)))
        lines += [f"{d} {_enc_char(rev[d - 1])}" for d in range(depth + 1, len(rev) + 1)]
        lines[-1] += "".join(f" {symbols[t]} {c}" for t, c in zip(ids[a:b], counts[a:b]))
        prev = rev
    return lines


def _dist_lines(header: str, vec: np.ndarray, symbols: list[str]) -> list[str]:
    entries = [(i, float(v)) for i, v in enumerate(vec) if v != 0.0]
    lines = [f"{header} {len(entries)}"]
    lines += [f"{symbols[i]} {v!r}" for i, v in entries]
    return lines


def dumps_model(lex: LexicalModel, trans: TransitionModel) -> str:
    symbols = [t.symbol for t in lex.tagset]
    lines = [LEX_HEADER]
    lines.append(f"tags {len(symbols)}")
    lines += symbols
    lines.append("config" + "".join(
        f" {f.name.replace('_', '-')} {getattr(lex.config, f.name)}"
        for f in dataclasses.fields(SmoothingConfig)
    ))
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
    trie_lines = _dump_trie(lex.surfaces, symbols)
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


# {(surface, tag id): the first line that counts that tag for that surface}
_Where = dict[tuple[str, int], int]


def _term_counts(
    fields: list[str], lookup: dict[str, int], table: dict[str, dict[int, int]],
    surface: str, where: _Where | None, lineno: int,
) -> None:
    """``tag count tag count ...`` on line `lineno` added to the surface's
    row of `table`, {tag id: count}; a repeated tag sums, and each sum stays
    below 2^63.  `where`, if given, gets the line of each count."""
    into = table.setdefault(surface, {})
    for sym, count in zip(fields[0::2], fields[1::2], strict=True):
        t = lookup[sym]
        n = into[t] = into.get(t, 0) + _count(count, "tag")
        if n >= 2**63:
            raise ModelFormatError("tag counts sum to 2^63 or more")
    if where is not None:
        for t in into:
            where.setdefault((surface, t), lineno)


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
        return SmoothingConfig(**{
            f.name: type(f.default)(opts[f.name.replace("_", "-")])
            for f in dataclasses.fields(SmoothingConfig)
        })
    except KeyError as exc:
        raise lines.error(f"config line missing field {exc}") from None
    except ValueError:
        raise lines.bad("config line") from None
    except ConfigError as exc:
        raise lines.error(str(exc)) from None


def _read_punct_table(
    lines: _Lines, lookup: dict[str, int], where: _Where | None = None
) -> dict[str, dict[int, int]]:
    """Each line is ``surface<TAB>(tag count)*``; a repeated surface sums.
    `where`, if given, gets the line of each count."""
    table: dict[str, dict[int, int]] = {}
    entries = lines.numbered(lines.count("punct-table "))
    try:
        for lineno, line in entries:
            surface, rest = line.split("\t", 1)
            fields = rest.split()
            if not fields:
                raise ModelFormatError("punct-table entry has no counts")
            _term_counts(fields, lookup, table, surface, where, lineno)
    except _PARSE_ERRORS as exc:
        raise _located(exc, lineno, line, "punct-table entry") from None
    return table


def _read_trie_lines(
    entries: enumerate, lookup: dict[str, int], where: _Where | None = None
) -> dict[str, dict[int, int]]:
    """The numbered lines of a pre-order trie dump, each ``depth char (tag
    count)*``, as {surface: {tag id: count}} over the lines with counts; a
    repeated surface sums.  `where`, if given, gets the line of each count.
    This loop defines a valid line."""
    table: dict[str, dict[int, int]] = {}
    chars: list[str] = []  # the path from the root to the last node
    bare = 0  # the last line's number if it has no counts
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
                surface = "".join(reversed(chars))  # the path spells it backwards
                _term_counts(terms, lookup, table, surface, where, lineno)
            bare = 0 if terms else lineno
    except _PARSE_ERRORS as exc:
        raise _located(exc, lineno, line, "trie line") from None
    if bare:
        raise ModelFormatError(f"line {bare}: trie node has neither counts nor children")
    return table


def _bulk_trie(block: list[str], lookup: dict[str, int]) -> SurfaceTable | None:
    """The trie lines `block` read a column at a time, or None unless the
    per-line loop would read them alike and find each surface once: every
    line is ``depth char (tag count)*`` single-spaced, with the depth in
    ASCII digits; the depths walk the trie and a line without counts is
    followed by its child; the surfaces come in sorted order; and on each
    line the tags ascend and the counts are ASCII digits in [1, 2^63)."""
    if not block:
        return SurfaceTable([], [0], [], [])
    text = "\n".join(block)
    fields = text.split()
    if " ".join(fields) != text.replace("\n", " "):
        return None  # a blank line, or fields not parted by single spaces
    # Spaces and line ends in order; each line has one field more than spaces.
    seps = np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8)
    ends = np.flatnonzero(np.append(seps[(seps == 32) | (seps == 10)] == 10, True))
    sizes = np.diff(ends, prepend=-1)
    if sizes.min() < 2 or (sizes % 2).any():
        return None  # a line without a character field, or a tag without a count
    columns = np.array(fields, object)
    firsts = np.cumsum(sizes) - sizes  # each line's depth field
    depths = columns[firsts].tolist()
    text = "".join(depths)
    if not (text.isascii() and text.isdecimal()):
        return None
    # A depth too large for an int64 reads as the largest one, which no
    # section has lines enough to reach.
    depth = np.fromstring(" ".join(depths), np.int64, sep=" ")
    bare = sizes == 2
    follows = np.append(depth[1:], 0)  # the next line's depth, 0 after the last
    if (
        depth[0] != 1
        or not 1 <= depth.min() <= depth.max() <= len(block)
        or (follows[:-1] > depth[:-1] + 1).any()
        or (follows[bare] != depth[bare] + 1).any()
    ):
        return None  # a depth out of order, or a line with neither counts nor children
    chars = columns[firsts + 1].tolist()
    text = "".join(chars)
    if len(text) != len(chars):
        try:
            text = "".join(map(_dec_char, chars))
        except ModelFormatError:
            return None
    # Each surface keeps the previous one's first `depth - 1` characters,
    # for the depth of the first line after it, and adds the characters of
    # that line and of the ones down to its own.
    ends = np.flatnonzero(~bare)
    starts = np.append(0, ends[:-1] + 1)
    reversed_surfaces = []
    rev = ""
    for keep, a, b in zip((depth[starts] - 1).tolist(), starts.tolist(), (ends + 1).tolist()):
        rev = rev[:keep] + text[a:b]
        reversed_surfaces.append(rev)
    if not all(map(str.__lt__, reversed_surfaces, reversed_surfaces[1:])):
        return None  # out of order or repeated
    terms = np.ones(len(fields), bool)
    terms[firsts] = terms[firsts + 1] = False
    terms = columns[terms]
    counts = terms[1::2].tolist()
    text = "".join(counts)
    if not (text.isascii() and text.isdecimal()):
        return None
    counts = list(map(int, counts))
    try:
        ids = np.array([lookup[sym] for sym in terms[0::2].tolist()], np.intp)
    except KeyError:
        return None
    rows = np.append(0, np.cumsum(sizes[ends] // 2 - 1))
    rises = np.diff(ids)
    rises[rows[1:-1] - 1] = 1  # each line's tags ascend on their own
    if min(counts) < 1 or max(counts) >= 2**63 or (rises < 1).any():
        return None
    return SurfaceTable(reversed_surfaces, rows, ids, counts)


def _read_trigram_lines(
    entries: enumerate, ids: dict[str, int]
) -> tuple[np.ndarray, np.ndarray]:
    """Each numbered line is ``a b c count``; the windows' `ids`, shape
    (m, 3), and their int64 counts.  This loop defines a valid line."""
    windows: list[int] = []
    counts: list[int] = []
    total = 0
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
    dtype = np.min_scalar_type(len(ids))
    return np.array(windows, dtype).reshape(-1, 3), np.array(counts, np.int64)


def _read_section(lines: _Lines, header: str, bulk, loop, symbols: dict[str, int]):
    """The section ``header N``: the bulk pass if it takes every line, else
    the per-line loop from the section's first line, which locates any error."""
    n = lines.count(header)
    block = lines.block(n)
    found = bulk(block, symbols)
    if found is None:
        found = loop(enumerate(block, lines.pos - n + 1), symbols)
    return found


def _read_lexicon(lines: _Lines, tagset: TagSet) -> LexicalModel:
    """The lexicon's sections.  A tag with zero prior that a surface counts
    or a class distribution gives mass is refused with the line of the
    surface's count or of the class's header."""
    lookup = tagset.lookup
    config = _read_config(lines)
    priors = _read_dist(lines, "priors word ", lookup)
    punct_priors = _read_dist(lines, "priors punct ", lookup)
    class_dists, class_lines = {}, {}
    for name in ("capitalized", "all-caps", "infrequent"):
        class_lines[name] = lines.pos + 1
        class_dists[name] = _read_dist(lines, f"class {name} ", lookup)
    start = lines.pos  # where the surface sections start, to read them again on that error
    punct_table = _read_punct_table(lines, lookup)
    surfaces = _read_section(lines, "trie ", _bulk_trie, _read_trie_lines, lookup)
    try:
        return LexicalModel(
            tagset, config, priors, punct_priors, class_dists, punct_table, surfaces
        )
    except ZeroPriorError as exc:
        if exc.source == "class":
            lineno = class_lines[exc.key]
        else:
            lines.pos = start
            where: dict[str, _Where] = {"punct-table surface": {}, "word surface": {}}
            _read_punct_table(lines, lookup, where["punct-table surface"])
            _read_trie_lines(lines.numbered(lines.count("trie ")), lookup, where["word surface"])
            lineno = where[exc.source][exc.key, exc.tag]
        raise ModelFormatError(f"line {lineno}: {exc}") from None


def loads_model(text: str) -> tuple[LexicalModel, TransitionModel]:
    lines = _Lines(text)
    lines.expect(LEX_HEADER)
    symbols: dict[str, None] = {}
    for lineno, sym in lines.numbered(lines.count("tags ")):
        if sym.split() != [sym] or sym in symbols:
            raise ModelFormatError(f"line {lineno}: bad tag symbol {sym!r}")
        symbols[sym] = None
    tagset = TagSet(list(symbols))

    lex = _read_lexicon(lines, tagset)

    lines.expect(TRANS_HEADER)
    try:
        k = float(lines.expect("config k "))
    except ValueError:
        raise lines.bad("config line") from None
    k_lineno = lines.pos
    windows, counts = _read_section(
        lines, "trigrams ", bulk_trigrams, _read_trigram_lines, StateSpace(tagset).ids
    )
    for lineno, line in lines.numbered(len(lines.lines) - lines.pos):
        if line.strip():
            raise ModelFormatError(f"line {lineno}: trailing content in model file")
    try:
        return lex, TransitionModel(tagset, k, windows, counts)
    except ConfigError as exc:
        raise ModelFormatError(f"line {k_lineno}: {exc}") from None


def save_model(out: str | TextIO, lex: LexicalModel, trans: TransitionModel) -> None:
    write_text(dumps_model(lex, trans), out)


def load_model(path: str) -> tuple[LexicalModel, TransitionModel]:
    return loads_model(read_text(path))
