"""Annotated and ambiguous (cohort) corpus I/O, plus reproducible splits.

`read_text` and `write_text` are the package's only file reader and writer,
both UTF-8; a leading byte-order mark is dropped on reading, and input that
is not UTF-8 is named by path and byte offset.

File conventions: one token per line, TAB between the surface form and its
tag(s), blank line between sentences, full-line "#" comments.  Annotated
files carry exactly one tag per token; cohort files carry a space-separated
candidate list.  Each parse makes one `Token` per distinct surface, shared
by every occurrence (tokens are frozen), and tags come from the tag set's
own `Tag` objects, so a parse allocates little beyond its lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, TextIO

from .errors import ConfigError, CorpusFormatError, InputError, InsufficientCorpusError

if TYPE_CHECKING:
    from .tagset import Tag, TagSet

SHAPE_LOWER = "lower"
SHAPE_CAPITALIZED = "capitalized"
SHAPE_ALL_CAPS = "all-caps"
SHAPE_OTHER = "other"


def word_shape(surface: str) -> str:
    # Single capital letters ("I", "A") count as capitalized, not all-caps.
    if len(surface) >= 2 and surface.isupper():
        return SHAPE_ALL_CAPS
    if surface[:1].isupper():
        return SHAPE_CAPITALIZED
    if surface.islower():
        return SHAPE_LOWER
    return SHAPE_OTHER


@dataclass(frozen=True)
class Token:
    surface: str


class _Tokens(dict):
    """surface -> its one Token, made on first use."""

    def __missing__(self, surface: str) -> Token:
        token = self[surface] = Token(surface)
        return token


@dataclass
class AnnotatedSentence:
    tokens: list[Token]
    gold: list["Tag"]

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ValueError("empty sentence")
        if len(self.tokens) != len(self.gold):
            raise ValueError(
                f"{len(self.tokens)} tokens vs {len(self.gold)} tags"
            )

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class Cohort:
    """A token plus its candidate tags; `retained` is filled by tagging."""

    token: Token
    candidates: list["Tag"]
    retained: list["Tag"] | None = None

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ValueError(f"cohort for {self.token.surface!r} has no candidates")


def read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()  # decoded in one piece, so exc.start is a file offset
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 (byte {exc.start})") from None
    # "utf-8", not "utf-8-sig": that codec counts offsets from after the mark
    return text[1:] if text.startswith("\ufeff") else text


def write_text(text: str, out: str | TextIO) -> None:
    if isinstance(out, str):
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        out.write(text)


def word_count(sentences: Iterable[AnnotatedSentence]) -> int:
    return sum(len(s) for s in sentences)


def blocks(text: str) -> Iterator[list[tuple[int, str]]]:
    """The (lineno, line) pairs of each run of lines between blank lines,
    full-line "#" comments skipped; in a corpus, each run is a sentence."""
    block: list[tuple[int, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            if block:
                yield block
                block = []
        elif not line.lstrip().startswith("#"):
            block.append((lineno, line))
    if block:
        yield block


def parse_annotated(text: str, tagset: "TagSet", source: str = "<string>") -> list[AnnotatedSentence]:
    sentences: list[AnnotatedSentence] = []
    shared, tags, lookup = _Tokens(), tagset.tags, tagset.lookup
    for block in blocks(text):
        tokens: list[Token] = []
        gold: list["Tag"] = []
        for lineno, line in block:
            try:
                surface, symbol = line.split("\t")
            except ValueError:
                raise CorpusFormatError(
                    f"{source}:{lineno}: expected 'surface<TAB>TAG', got {line!r}"
                ) from None
            symbol = symbol.strip()
            index = lookup.get(symbol)
            if index is None or not surface:  # a tag symbol is never empty or spaced
                if not surface or not symbol:
                    raise CorpusFormatError(f"{source}:{lineno}: empty field in {line!r}")
                if " " in symbol:
                    raise CorpusFormatError(
                        f"{source}:{lineno}: one tag per token expected, got {symbol!r}"
                    )
                raise CorpusFormatError(f"{source}:{lineno}: unknown tag symbol {symbol!r}")
            tokens.append(shared[surface])
            gold.append(tags[index])
        sentences.append(AnnotatedSentence(tokens, gold))
    return sentences


def read_annotated(path: str, tagset: "TagSet") -> list[AnnotatedSentence]:
    return parse_annotated(read_text(path), tagset, source=path)


def format_annotated(sentences: Iterable[AnnotatedSentence]) -> str:
    blocks = []
    for sent in sentences:
        blocks.append(
            "\n".join(f"{tok.surface}\t{tag.symbol}" for tok, tag in zip(sent.tokens, sent.gold))
        )
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def write_annotated(sentences: Iterable[AnnotatedSentence], out: str | TextIO) -> None:
    write_text(format_annotated(sentences), out)


def parse_cohorts(text: str, tagset: "TagSet", source: str = "<string>") -> list[list[Cohort]]:
    sentences: list[list[Cohort]] = []
    shared, tags, lookup = _Tokens(), tagset.tags, tagset.lookup
    for block in blocks(text):
        current: list[Cohort] = []
        for lineno, line in block:
            fields = line.split("\t")
            if len(fields) != 2 or not fields[1].split():
                raise CorpusFormatError(
                    f"{source}:{lineno}: expected 'surface<TAB>TAG( TAG)*', got {line!r}"
                )
            if not fields[0]:
                raise CorpusFormatError(f"{source}:{lineno}: empty field in {line!r}")
            try:
                # a repeated symbol keeps its first place
                candidates = [tags[lookup[s]] for s in dict.fromkeys(fields[1].split())]
            except KeyError as exc:
                raise CorpusFormatError(
                    f"{source}:{lineno}: unknown tag symbol {exc.args[0]!r}"
                ) from None
            current.append(Cohort(shared[fields[0]], candidates))
        sentences.append(current)
    return sentences


def read_cohorts(path: str, tagset: "TagSet") -> list[list[Cohort]]:
    return parse_cohorts(read_text(path), tagset, source=path)


def format_cohorts(sentences: Iterable[list[Cohort]]) -> str:
    """Cohort-format text; a tagged cohort writes its retained set."""
    blocks = []
    for sent in sentences:
        lines = []
        for cohort in sent:
            tags = cohort.retained if cohort.retained is not None else cohort.candidates
            lines.append(f"{cohort.token.surface}\t{' '.join(t.symbol for t in tags)}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")


def _take_words(sentences: list[AnnotatedSentence], target: int) -> tuple[list[AnnotatedSentence], list[AnnotatedSentence]]:
    """Shortest prefix holding at least `target` words, plus the rest."""
    if target <= 0:
        return [], sentences
    words = 0
    for i, sent in enumerate(sentences):
        words += len(sent)
        if words >= target:
            return sentences[: i + 1], sentences[i + 1 :]
    raise InsufficientCorpusError(
        f"needed {target} words, corpus slice holds only {words} (deficit {target - words})"
    )


def split_for_learning_curve(
    corpus: list[AnnotatedSentence],
    sizes: list[int],
    eval_words: int,
    seed: int,
) -> tuple[list[AnnotatedSentence], list[list[AnnotatedSentence]]]:
    """Eval slice plus nested training slices of roughly the requested sizes.

    Sentence boundaries are never split, so each slice may overshoot its
    target by at most one sentence.  Slices are prefixes of one seed-shuffled
    order, hence nested.
    """
    if not sizes:
        raise ConfigError("empty training size list")
    if min(sizes) < 0:
        raise ConfigError(f"training sizes must be >= 0, got {min(sizes)}")
    if any(b < a for a, b in zip(sizes, sizes[1:])):
        raise ConfigError(f"training sizes must be ascending, got {sizes}")
    if eval_words < 1:
        raise ConfigError(f"eval words must be >= 1, got {eval_words}")
    total = word_count(corpus)
    need = eval_words + max(sizes)
    if need > total:
        raise InsufficientCorpusError(
            f"corpus has {total} words, need {need} (deficit {need - total})"
        )
    order = list(corpus)
    random.Random(seed).shuffle(order)
    eval_slice, rest = _take_words(order, eval_words)
    slices = [_take_words(rest, size)[0] for size in sizes]
    return eval_slice, slices
