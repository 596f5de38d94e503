"""Reduced tag inventory and multipart-reading conversion.

A reading like ``walk <SV> <SVO> V PRES -SG3 VFIN`` is reduced to a single
tag (``V-PRES-BASE``) by matching feature-subset rules; angle-bracketed
subcategorization features are ignored during matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from itertools import chain

from .corpus import Cohort, Token, blocks, read_text
from .errors import ConversionError, RuleError, TagInventoryError

WORD = "word"
PUNCTUATION = "punctuation"


@dataclass(frozen=True)
class Tag:
    symbol: str
    cls: str  # WORD or PUNCTUATION
    index: int

    def __str__(self) -> str:
        return self.symbol


def _check_symbol(symbol: str) -> None:
    """A tag symbol is one nonempty field: files separate symbols with whitespace."""
    if not symbol:
        raise TagInventoryError("empty tag symbol")
    if any(ch.isspace() for ch in symbol):
        raise TagInventoryError(f"tag symbol contains whitespace: {symbol!r}")


class TagSet:
    """Ordered, duplicate-free tag inventory with stable integer indices."""

    def __init__(self, symbols: list[str]):
        self.tags: list[Tag] = []
        self.lookup: dict[str, int] = {}
        for symbol in symbols:
            if symbol in self.lookup:
                continue
            _check_symbol(symbol)
            cls = PUNCTUATION if symbol.startswith("@") else WORD
            self.lookup[symbol] = len(self.tags)
            self.tags.append(Tag(symbol, cls, len(self.tags)))
        if not self.tags:
            raise TagInventoryError("empty tag inventory")

    def __len__(self) -> int:
        return len(self.tags)

    def __iter__(self):
        return iter(self.tags)

    def __contains__(self, symbol: str) -> bool:
        return symbol in self.lookup

    def __eq__(self, other) -> bool:
        return isinstance(other, TagSet) and self.tags == other.tags

    def tag(self, symbol: str) -> Tag:
        try:
            return self.tags[self.lookup[symbol]]
        except KeyError:
            raise TagInventoryError(f"unknown tag symbol {symbol!r}") from None

    def by_index(self, index: int) -> Tag:
        return self.tags[index]

    def word_tags(self) -> list[Tag]:
        return [t for t in self.tags if t.cls == WORD]

    def punctuation_tags(self) -> list[Tag]:
        return [t for t in self.tags if t.cls == PUNCTUATION]

    def counts_by_class(self) -> dict[str, int]:
        return {
            WORD: sum(1 for t in self.tags if t.cls == WORD),
            PUNCTUATION: sum(1 for t in self.tags if t.cls == PUNCTUATION),
        }

    def to_text(self) -> str:
        return "\n".join(t.symbol for t in self.tags) + "\n"


def parse_tagset(text: str, source: str = "<string>") -> TagSet:
    symbols: list[str] = []
    for lineno, raw in chain.from_iterable(blocks(text)):
        line = raw.strip()
        try:
            _check_symbol(line)
        except TagInventoryError as exc:
            raise TagInventoryError(f"{source}:{lineno}: {exc}") from None
        symbols.append(line)
    if not symbols:
        raise TagInventoryError("empty tag inventory")
    return TagSet(symbols)


def load_tagset(path: str) -> TagSet:
    return parse_tagset(read_text(path), source=path)


def default_tagset() -> TagSet:
    text = resources.files("ambitag").joinpath("data/engcg_reduced.tags").read_text("utf-8")
    return parse_tagset(text, source="data/engcg_reduced.tags")


@dataclass(frozen=True)
class ConversionRule:
    pattern: frozenset[str]
    output: str
    priority: int = 0

    @property
    def size(self) -> int:
        return len(self.pattern)


def _is_subcat(feature: str) -> bool:
    return feature.startswith("<") and feature.endswith(">") and len(feature) > 2


def parse_rules(text: str, tagset: TagSet, source: str = "<string>") -> list[ConversionRule]:
    rules: list[ConversionRule] = []
    by_pattern: dict[frozenset[str], ConversionRule] = {}
    for lineno, raw in chain.from_iterable(blocks(text)):
        line = raw.strip()
        if "->" not in line:
            raise RuleError(f"{source}:{lineno}: missing '->' in rule {line!r}")
        left, _, right = line.partition("->")
        features = left.split()
        if not features:
            raise RuleError(f"{source}:{lineno}: rule has empty pattern")
        for feat in features:
            if _is_subcat(feat):
                raise RuleError(
                    f"{source}:{lineno}: pattern feature {feat!r} is a subcategorization "
                    "marker and can never match (such features are ignored in readings)"
                )
        out_fields = right.split()
        if len(out_fields) == 1:
            output, priority = out_fields[0], 0
        elif len(out_fields) == 2:
            output = out_fields[0]
            try:
                priority = int(out_fields[1])
            except ValueError:
                raise RuleError(
                    f"{source}:{lineno}: priority must be an integer, got {out_fields[1]!r}"
                ) from None
        else:
            raise RuleError(f"{source}:{lineno}: expected 'TAG [priority]' after '->'")
        if output not in tagset:
            raise RuleError(f"{source}:{lineno}: output tag {output!r} not in tag inventory")
        rule = ConversionRule(frozenset(features), output, priority)
        prior = by_pattern.get(rule.pattern)
        if prior is not None:
            if prior.output != rule.output:
                raise RuleError(
                    f"{source}:{lineno}: pattern {' '.join(sorted(rule.pattern))!r} already "
                    f"maps to {prior.output}, conflicting output {rule.output}"
                )
            continue  # exact duplicate, keep the first
        by_pattern[rule.pattern] = rule
        rules.append(rule)
    if not rules:
        raise RuleError(f"{source}: no conversion rules found")
    return rules


def load_rules(path: str, tagset: TagSet) -> list[ConversionRule]:
    return parse_rules(read_text(path), tagset, source=path)


def default_rules(tagset: TagSet) -> list[ConversionRule]:
    text = resources.files("ambitag").joinpath("data/default_rules.txt").read_text("utf-8")
    return parse_rules(text, tagset, source="data/default_rules.txt")


def convert_reading(reading: list[str], rules: list[ConversionRule], tagset: TagSet) -> Tag:
    """Reduce one multipart reading to a single tag.

    Subset matching over the reading's features (subcategorization markers
    dropped); highest priority wins, then the most specific pattern.
    """
    if not reading:
        raise ConversionError("empty reading")
    features = {f for f in reading if not _is_subcat(f)}
    matches = [r for r in rules if r.pattern <= features]
    if not matches:
        raise ConversionError(f"no conversion rule matches reading: {' '.join(reading)}")
    best_priority = max(r.priority for r in matches)
    matches = [r for r in matches if r.priority == best_priority]
    best_size = max(r.size for r in matches)
    matches = [r for r in matches if r.size == best_size]
    outputs = {r.output for r in matches}
    if len(outputs) > 1:
        raise ConversionError(
            f"reading {' '.join(reading)!r} matches {len(matches)} equally specific "
            f"rules with conflicting outputs: {', '.join(sorted(outputs))}"
        )
    return tagset.tag(outputs.pop())


def convert_cohort(
    token: str,
    readings: list[list[str]],
    rules: list[ConversionRule],
    tagset: TagSet,
) -> Cohort:
    if not readings:
        raise ConversionError(f"token {token!r} has no readings")
    candidates = dict.fromkeys(convert_reading(r, rules, tagset) for r in readings)
    return Cohort(Token(token), list(candidates))


def parse_analysis_blocks(text: str, source: str = "<string>") -> list[list[tuple[str, list[list[str]]]]]:
    """Parse analyser-style output: a flush-left token line followed by
    one or more indented reading lines.  Blank lines separate sentences.

    Returns sentences as lists of (token, readings) pairs.
    """
    sentences: list[list[tuple[str, list[list[str]]]]] = []
    for block in blocks(text):
        current: list[tuple[str, list[list[str]]]] = []
        for i, (lineno, line) in enumerate(block):
            if not line[0].isspace():
                token = line.strip()
                if "\t" in token:  # a cohort line's field separator
                    raise ConversionError(f"{source}:{lineno}: token {token!r} holds a tab")
                if i + 1 == len(block) or not block[i + 1][1][0].isspace():  # no reading line under it
                    raise ConversionError(f"{source}:{lineno}: token {token!r} has no readings")
                current.append((token, []))
            elif not current:
                raise ConversionError(
                    f"{source}:{lineno}: reading line before any token line"
                )
            else:
                current[-1][1].append(line.split())
        sentences.append(current)
    return sentences
