"""The bulk pass over a model file's trigram section.

The section is read a slab of lines at a time: each slab is joined and
encoded once and checked and parsed as one byte array, with no Python
object per field.  Field boundaries come from the bytes below 33; counts
are read as right-aligned digit columns; symbols are packed into 8-byte
words by two aligned loads each and found through a perfect hash whose
slot must hold exactly those words.  The pass takes only the canonical
lines `modelfile.dumps_model` writes and otherwise returns None, leaving
the section to `modelfile`'s per-line loop, which defines a valid line.
"""

from __future__ import annotations

import numpy as np

# Lines per slab, so that the scratch arrays stay a small multiple of one
# slab's text.
SLAB_LINES = 2048
_MAX_DIGITS = 19  # 2^63 - 1 has 19 digits
_POW10 = 10 ** np.arange(_MAX_DIGITS, dtype=np.uint64)
_LINE_SEPS = np.frombuffer(b"   \n", np.uint8)  # what ends the fields of ``a b c n``
_GOLDEN = 0x9E3779B97F4A7C15  # 2^64 / golden ratio, odd
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], np.uint64)  # k=8: all 64 bits


def _field_words(data: bytes, starts: np.ndarray, ends: np.ndarray, width: int) -> np.ndarray:
    """The fields ``data[starts[i]:ends[i]]``, each at most 8·`width` bytes,
    as `width` little-endian uint64 words of 8 bytes each, zero-padded: made
    from two aligned 8-byte loads per word, not byte by byte."""
    blocks = np.frombuffer(data + bytes(16 - len(data) % 8), "<u8")
    words = np.empty((len(starts), width), np.uint64)
    for w in range(width):
        lo = np.minimum(starts + 8 * w, ends)
        shift = (lo & 7).astype(np.uint64) << np.uint64(3)
        word = blocks[lo >> 3] >> shift
        word |= blocks[(lo >> 3) + 1] << (np.uint64(64) - shift)  # a shift by 64 gives 0
        word &= _LOW_BYTES[np.minimum(ends - lo, 8)]
        words[:, w] = word
    return words


class _SymbolTable:
    """Model-file symbols found by whole fields: a multiply-shift hash of a
    field's words picks a slot, and the slot's symbol must then have exactly
    those words, hence exactly those bytes.  The multiplier is chosen so
    that no two symbols share a slot; `slot_ids` is None if none is found."""

    def __init__(self, ids: dict[str, int]):
        symbols = [sym.encode("utf-8", "surrogatepass") for sym in ids]
        lens = np.array([len(sym) for sym in symbols])
        self.max_len = int(lens.max())
        self.width = -(-self.max_len // 8)
        ends = np.cumsum(lens + 1) - 1  # as the symbols are joined by spaces
        words = _field_words(b" ".join(symbols), ends - lens, ends, self.width)
        keys = self._mix(words)
        self.bits = min(16, max(8, (len(symbols) ** 2).bit_length()))
        self.slot_ids = None
        for k in range(1, 65):  # odd multiples of 2^64 / golden ratio (no numpy.random import)
            self.mult = np.uint64(k * _GOLDEN % 2**64 | 1)
            slots = self._slots(keys)
            if len(set(slots.tolist())) == len(slots):  # np.unique would import numpy.ma
                self.slot_words = np.zeros((1 << self.bits, self.width), np.uint64)
                self.slot_words[slots] = words  # an empty slot's words are 0, no field's
                self.slot_ids = np.zeros(1 << self.bits, np.min_scalar_type(len(ids)))
                self.slot_ids[slots] = list(ids.values())
                break

    @staticmethod
    def _mix(words: np.ndarray) -> np.ndarray:
        key = words[:, 0].copy()
        for w in range(1, words.shape[1]):
            key *= np.uint64(_GOLDEN)
            key ^= words[:, w]
        return key

    def _slots(self, keys: np.ndarray) -> np.ndarray:
        return (keys * self.mult) >> np.uint64(64 - self.bits)

    def find(self, data: bytes, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
        """The ids of the fields, each of 1 to `max_len` bytes, or None if
        one is not exactly a symbol."""
        words = _field_words(data, starts, ends, self.width)
        slots = self._slots(self._mix(words))
        if not (self.slot_words[slots] == words).all():
            return None
        return self.slot_ids[slots]


def _trigram_slab(
    lines: list[str], symbols: _SymbolTable, total: int
) -> tuple[np.ndarray, np.ndarray, int] | None:
    """One slab of trigram lines in one vectorized pass: the windows' ids,
    shape (m, 3), their int64 counts and the running total after them; or
    None unless every line is exactly ``a b c n``, single-spaced, with
    symbols from `symbols`, a count of 1-19 ASCII digits in [1, 2^63), and
    the running total stays below 2^63."""
    data = ("\n".join(lines) + "\n").encode("utf-8", "surrogatepass")
    text = np.frombuffer(data, np.uint8)
    seps = np.flatnonzero(text < 33)  # spaces, line ends, and any other control byte
    m = len(lines)
    if len(seps) != 4 * m or (text[seps].reshape(m, 4) != _LINE_SEPS).any():
        return None
    ends = seps.reshape(m, 4)
    starts = np.empty_like(seps)
    starts[0] = 0
    starts[1:] = seps[:-1] + 1
    lens = ends - starts.reshape(m, 4)
    if lens.min() < 1 or lens[:, :3].max() > symbols.max_len or lens[:, 3].max() > _MAX_DIGITS:
        return None
    # Each count right-aligned in a row of `digits` columns, left-padded with 0.
    digits = int(lens[:, 3].max())
    column = np.arange(digits)
    values = text[ends[:, 3, None] - digits + column] - np.uint8(ord("0"))
    values[column < (digits - lens[:, 3, None])] = 0
    if values.max() > 9:
        return None
    counts = (values * _POW10[digits - 1 :: -1]).sum(axis=1)  # below 10^19 < 2^64
    # Each count is below 2^63, so the first running total to reach 2^63 is exact.
    running = np.cumsum(counts)
    running += np.uint64(total)
    if counts.min() < 1 or counts.max() >= 2**63 or running.max() >= 2**63:
        return None
    windows = symbols.find(data, starts.reshape(m, 4)[:, :3].ravel(), ends[:, :3].ravel())
    if windows is None:
        return None
    return windows.reshape(m, 3), counts.astype(np.int64), int(running[-1])


def bulk_trigrams(block: list[str], ids: dict[str, int]) -> tuple[np.ndarray, np.ndarray] | None:
    """The windows' ids, shape (m, 3), and int64 counts of the trigram lines
    `block`, each ``a b c n`` with symbols from `ids`; or None if any slab
    is not in the canonical form `_trigram_slab` takes."""
    symbols = _SymbolTable(ids)
    if symbols.slot_ids is None:
        return None
    windows = np.empty((len(block), 3), symbols.slot_ids.dtype)
    counts = np.empty(len(block), np.int64)
    total = 0
    for start in range(0, len(block), SLAB_LINES):
        end = start + SLAB_LINES
        slab = _trigram_slab(block[start:end], symbols, total)
        if slab is None:
            return None
        windows[start:end], counts[start:end], total = slab
    return windows, counts
