"""Spans around the public functions of each ambitag module.

Run as a script, this is one traced CLI invocation:

    python benchmarks/tracer.py REPORT.json -- train corpus.txt --model m.txt ...

It imports ``ambitag.cli``, replaces each function in TARGETS by a timing
wrapper in the module where its caller looks it up (``ambitag.cli``,
``ambitag.evalstats`` and ``ambitag.decoder`` import names directly), runs
``ambitag.cli.main`` under a root span and writes every span, plus the
decoder's counts, to REPORT.json when the command has finished.  Nothing
under ``src/`` changes.

``TransitionModel.row`` and ``LexicalModel.converse_lexical_prob`` are
deliberately not wrapped: lattice build calls them millions of times and a
wrapper would distort the time it measures.  Their cost stays in
``decoder.lattice``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter

from checks import posterior_sum_failures

ROOT_LAYER = "cli"

# (module, attribute, layer); "Class.method" wraps a classmethod.
TARGETS = [
    ("ambitag.corpus", "read_annotated", "corpus.read"),
    ("ambitag.corpus", "read_cohorts", "corpus.read"),
    ("ambitag.corpus", "format_cohorts", "corpus.write"),
    ("ambitag.lexicon", "LexicalModel.train", "lexicon.train"),
    ("ambitag.evalstats", "cohorts_for_tokens", "lexicon.lookup"),
    ("ambitag.ngram", "TransitionModel.train", "ngram.train"),
    ("ambitag.cli", "save_model", "modelfile.dump"),
    ("ambitag.modelfile", "dumps_model", "modelfile.dump"),
    ("ambitag.cli", "load_model", "modelfile.load"),
    ("ambitag.modelfile", "loads_model", "modelfile.load"),
    ("ambitag.cli", "decode_sentence", "decoder.decode"),
    ("ambitag.evalstats", "decode_sentence", "decoder.decode"),
    ("ambitag.decoder", "build_lattice", "decoder.lattice"),
    ("ambitag.decoder", "forward", "decoder.forward"),
    ("ambitag.decoder", "backward", "decoder.backward"),
    ("ambitag.decoder", "state_posteriors", "decoder.posterior"),
    ("ambitag.decoder", "tag_posteriors", "decoder.posterior"),
    ("ambitag.decoder", "viterbi", "decoder.viterbi"),
    ("ambitag.cli", "apply_threshold", "decoder.threshold"),
    ("ambitag.evalstats", "apply_threshold", "decoder.threshold"),
    ("ambitag.evalstats", "tradeoff_sweep", "evalstats.sweep"),
    ("ambitag.evalstats", "decode_corpus", "evalstats.sweep"),
    ("ambitag.evalstats", "score_decodes", "evalstats.score"),
]
LAYERS = sorted({layer for _, _, layer in TARGETS})


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    start: float
    end: float = 0.0
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part of it that child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    own = self_times(spans)
    totals: dict[str, float] = {}
    for s in spans:
        totals[s.layer] = totals.get(s.layer, 0.0) + own[s.id]
    return totals


def lattice_cells(sizes: list[int]) -> int:
    """Sum over steps t -> t+1 of |C_t-1| * |C_t| * |C_t+1|, with a single
    boundary state before the first word."""
    padded = [1] + sizes
    return sum(padded[t] * padded[t + 1] * padded[t + 2] for t in range(len(sizes) - 1))


def _array_bytes(obj) -> int:
    # Duck-typed: importing numpy here would move part of ambitag's import
    # out of the span that times it.
    if hasattr(obj, "nbytes") and hasattr(obj, "dtype"):
        return int(obj.nbytes)
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(x) for x in obj)
    return 0


class Recorder:
    """Spans of one process, kept in memory, plus what the hooks observed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.decodes: list[tuple] = []  # (lexicon, cohorts, SentenceDecode)
        self.peak_lattice_bytes = 0
        self.trigram_types = 0

    def wrap(self, fn, layer: str, after=None):
        def traced(*args, **kwargs):
            span = Span(len(self.spans), self._stack[-1] if self._stack else None, layer, 0.0)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # Hooks run after the span has ended; their cost lands in the parent.
    def _after_decode(self, args, result) -> None:
        self.decodes.append((args[0], args[2], result))

    def _after_lattice(self, args, result) -> None:
        nbytes = sum(_array_bytes(v) for v in vars(result).values())
        self.peak_lattice_bytes = max(self.peak_lattice_bytes, nbytes)

    def _after_ngram_train(self, args, result) -> None:
        self.trigram_types = len(result.trigrams)

    def install(self) -> list[str]:
        """Wrap every target that exists; return the ones that do not."""
        hooks = {
            "decode_sentence": self._after_decode,
            "build_lattice": self._after_lattice,
            "TransitionModel.train": self._after_ngram_train,
        }
        missing = []
        for module_name, attr, layer in TARGETS:
            owner = importlib.import_module(module_name)
            *cls_path, name = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, name):
                missing.append(f"{module_name}.{attr}")
                continue
            raw = inspect.getattr_static(owner, name)  # the classmethod itself, unbound
            if isinstance(raw, classmethod):
                setattr(owner, name, classmethod(self.wrap(raw.__func__, layer, hooks.get(attr))))
            else:
                setattr(owner, name, self.wrap(raw, layer, hooks.get(attr)))
        return missing

    def report(self, exit_code: int, import_s: float, missing: list[str]) -> dict:
        words = candidates = unknown = cells = 0
        for lex, cohorts, _ in self.decodes:
            sizes = [len(c.candidates) for c in cohorts]
            words += len(sizes)
            candidates += sum(sizes)
            unknown += sum(not lex.is_known(c.token.surface) for c in cohorts)
            cells += lattice_cells(sizes)
        return {
            "exit_code": exit_code,
            "import_s": import_s,
            "missing_targets": missing,
            "spans": [[s.id, s.parent, s.layer, s.start, s.end, s.error] for s in self.spans],
            "sentences": len(self.decodes),
            "words": words,
            "candidates": candidates,
            "unknown_words": unknown,
            "lattice_cells": cells,
            "peak_lattice_bytes": self.peak_lattice_bytes,
            "trigram_types": self.trigram_types,
            "posterior_failures": posterior_sum_failures([d for _, _, d in self.decodes]),
        }


def load_spans(report: dict) -> list[Span]:
    return [Span(*row) for row in report["spans"]]


def summarize(reports: list[dict]) -> dict:
    """Per-layer metrics of several traced invocations taken together."""
    layers: dict[str, float] = {}
    root_time = 0.0
    sentence_ms: list[float] = []
    dead = 0
    for r in reports:  # span ids restart in every process, so pool per report
        spans = load_spans(r)
        for layer, t in layer_self_times(spans).items():
            layers[layer] = layers.get(layer, 0.0) + t
        root_time += sum(s.duration for s in spans if s.layer == ROOT_LAYER)
        decodes = [s for s in spans if s.layer == "decoder.decode"]
        sentence_ms += [1e3 * s.duration for s in decodes]
        dead += sum(s.error == "DeadLatticeError" for s in decodes)
    words = sum(r["words"] for r in reports)
    metrics = {f"{layer}_s": layers.get(layer, 0.0) for layer in LAYERS}
    metrics.update({
        "lexicon.unknown_share": sum(r["unknown_words"] for r in reports) / words,
        "lexicon.cands_per_word": sum(r["candidates"] for r in reports) / words,
        "ngram.trigram_types": max(r["trigram_types"] for r in reports),
        "decoder.sentences": sum(r["sentences"] for r in reports),
        "decoder.lattice_cells": sum(r["lattice_cells"] for r in reports),
        "decoder.peak_lattice_mb": max(r["peak_lattice_bytes"] for r in reports) / 2**20,
        "decoder.dead_lattices": dead,
        "decoder.sentence_ms_p50": statistics.median(sentence_ms),
        "decoder.sentence_ms_p90": statistics.quantiles(sentence_ms, n=10)[8],
        "startup.import_s": statistics.median(r["import_s"] for r in reports),
        "trace.coverage": (sum(layers.values()) - layers.get(ROOT_LAYER, 0.0)) / root_time,
    })
    return metrics


def main(argv: list[str]) -> int:
    report_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py REPORT.json -- <ambitag arguments>")
    start = perf_counter()
    import ambitag.cli

    import_s = perf_counter() - start
    rec = Recorder()
    missing = rec.install()
    main_fn = rec.wrap(ambitag.cli.main, ROOT_LAYER)
    code = 1
    try:
        code = main_fn(cli_args)
    finally:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(rec.report(code, import_s, missing), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
