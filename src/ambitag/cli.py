"""Command-line entry point.

Subcommands: train, tag, eval, sweep, curve, agree, convert, gen-synth.
Exit codes: 0 success, 1 runtime failure (e.g. dead lattice), 2 invalid
input or configuration.  Flags override values from an optional
``key = value`` config file; the effective configuration is echoed as a
comment header in every report, where `eval` and `sweep` echo the
smoothing values the model holds.  `evalstats` and `synth` are imported by
the commands that run them, so `train` and `tag` never load them.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

from . import corpus as corpus_io
from .decoder import MODE_POSTERIOR, MODE_VITERBI, apply_threshold, decode_sentence
from .errors import (
    AmbitagError, ConfigError, CorpusFormatError, DeadLatticeError, InputError, check_blend_strength,
)
from .lexicon import LexicalModel, SmoothingConfig
from .modelfile import load_model, save_model
from .ngram import DEFAULT_K, TransitionModel
from .tagset import (
    TagSet,
    convert_cohort,
    default_rules,
    default_tagset,
    load_rules,
    load_tagset,
    parse_analysis_blocks,
)

if TYPE_CHECKING:
    from . import evalstats


@dataclass
class RunConfig:
    k_lex: float = SmoothingConfig.k
    k_trans: float = DEFAULT_K
    levels: int = SmoothingConfig.levels
    cutoff: int = SmoothingConfig.cutoff
    known_threshold: int = SmoothingConfig.known_threshold
    support_epsilon: float = SmoothingConfig.support_epsilon
    class_mix: float = SmoothingConfig.class_mix
    threshold: float = 1.0
    mode: str = MODE_POSTERIOR
    seed: int = 0

    def update_from_text(self, text: str, source: str = "<config>") -> None:
        kinds = {f.name: type(f.default) for f in dataclasses.fields(self)}
        for lineno, raw in chain.from_iterable(corpus_io.blocks(text)):
            line = raw.strip()
            if "=" not in line:
                raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in kinds:
                raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
            try:
                setattr(self, key, kinds[key](value))
            except ValueError:
                raise ConfigError(
                    f"{source}:{lineno}: bad value {value!r} for {key}"
                ) from None
        self.validate()

    def validate(self) -> None:
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError(f"threshold must be in [0, 1], got {self.threshold}")
        if self.mode not in (MODE_POSTERIOR, MODE_VITERBI):
            raise ConfigError(f"mode must be posterior or viterbi, got {self.mode!r}")
        check_blend_strength(self.k_trans, "k_trans")
        check_blend_strength(self.k_lex, "k_lex")
        self.smoothing()  # checks the other lexical fields

    def smoothing(self) -> SmoothingConfig:
        return SmoothingConfig(**{
            f.name: getattr(self, "k_lex" if f.name == "k" else f.name)
            for f in dataclasses.fields(SmoothingConfig)
        })

    def with_model(self, lex: LexicalModel, trans: TransitionModel) -> RunConfig:
        """These settings with the smoothing values a loaded model decodes with."""
        held = {"k_lex" if f.name == "k" else f.name: getattr(lex.config, f.name)
                for f in dataclasses.fields(SmoothingConfig)}
        return dataclasses.replace(self, k_trans=trans.k, **held)

    def header(self) -> str:
        pairs = " ".join(
            f"{f.name}={getattr(self, f.name)}" for f in dataclasses.fields(self)
        )
        return f"# config: {pairs}\n"


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg.update_from_text(corpus_io.read_text(args.config), source=args.config)
    for f in dataclasses.fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    cfg.validate()
    return cfg


def _tagset_from_args(args: argparse.Namespace) -> TagSet:
    if getattr(args, "tagset", None):
        return load_tagset(args.tagset)
    return default_tagset()


# -- subcommands -------------------------------------------------------------


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    tagset = _tagset_from_args(args)
    corpus = corpus_io.read_annotated(args.corpus, tagset)
    if not corpus:
        raise CorpusFormatError(f"{args.corpus}: no sentences to train on")
    lex = LexicalModel.train(corpus, tagset, cfg.smoothing())
    trans = TransitionModel.train(corpus, tagset, cfg.k_trans)
    save_model(args.model, lex, trans)
    seen = {t.index for s in corpus for t in s.gold}
    report = (
        f"sentences {len(corpus)}\n"
        f"words {corpus_io.word_count(corpus)}\n"
        f"surfaces {len(lex.surfaces) + len(lex.punct_table)}\n"
        f"tagset-coverage {len(seen)}/{len(tagset)}\n"
        f"model {args.model}\n"
    )
    corpus_io.write_text(cfg.header() + report, args.out or sys.stdout)
    return 0


def cmd_tag(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    lex, trans = load_model(args.model)
    sentences = corpus_io.read_cohorts(args.input, lex.tagset)
    threshold = 1.0 if args.full else cfg.threshold
    for si, sent in enumerate(sentences):
        try:
            decode = decode_sentence(lex, trans, sent, with_viterbi=cfg.mode == MODE_VITERBI)
            result = apply_threshold(decode, threshold, cfg.mode)
        except DeadLatticeError as exc:
            if not args.continue_on_error:
                raise
            sys.stderr.write(f"sentence {si + 1}: {exc}; leaving ambiguous\n")
            continue
        for cohort, word in zip(sent, result.words):
            cohort.retained = word.retained
    corpus_io.write_text(corpus_io.format_cohorts(sentences), args.out or sys.stdout)
    return 0


def _report_text(cfg: RunConfig, rep: evalstats.EvalReport, fmt: str) -> str:
    if fmt == "csv":
        return (
            cfg.header()
            + "words,errors,error_rate,ambiguity,unseen_words,"
            + "unseen_word_error_rate,lexical_omission_rate\n"
            + f"{rep.words},{rep.errors},{rep.error_rate:.6f},{rep.ambiguity:.6f},"
            + f"{rep.unseen_words},{rep.unseen_word_error_rate:.6f},"
            + f"{rep.lexical_omission_rate:.6f}\n"
        )
    return (
        cfg.header()
        + f"words                {rep.words}\n"
        + f"errors               {rep.errors}\n"
        + f"error rate           {rep.error_rate:.2%}\n"
        + f"tags/word            {rep.ambiguity:.3f}\n"
        + f"unseen words         {rep.unseen_words}\n"
        + f"unseen error rate    {rep.unseen_word_error_rate:.2%}\n"
        + f"omission error rate  {rep.lexical_omission_rate:.2%}\n"
    )


def cmd_eval(args: argparse.Namespace) -> int:
    from . import evalstats
    cfg = _config_from_args(args)
    lex, trans = load_model(args.model)
    gold = corpus_io.read_annotated(args.input, lex.tagset)
    rep = evalstats.score(gold, lex, trans, cfg.threshold, cfg.mode)
    corpus_io.write_text(_report_text(cfg.with_model(lex, trans), rep, args.format), args.out or sys.stdout)
    return 0


def _parse_thresholds(spec: str) -> list[float]:
    try:
        values = [float(v) for v in spec.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"bad threshold list {spec!r}") from None
    if not values:
        raise ConfigError("empty threshold list")
    if any(not 0.0 <= v <= 1.0 for v in values):
        raise ConfigError(f"thresholds must be in [0, 1]: {spec}")
    if any(b > a for a, b in zip(values, values[1:])):
        raise ConfigError(f"thresholds must be descending: {spec}")
    return values


def cmd_sweep(args: argparse.Namespace) -> int:
    from . import evalstats
    cfg = _config_from_args(args)
    lex, trans = load_model(args.model)
    gold = corpus_io.read_annotated(args.input, lex.tagset)
    table = evalstats.tradeoff_sweep(
        gold, lex, trans, _parse_thresholds(args.thresholds), cfg.mode
    )
    body = table.to_csv() if args.format == "csv" else table.to_table()
    corpus_io.write_text(cfg.with_model(lex, trans).header() + body, args.out or sys.stdout)
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
    from . import evalstats
    cfg = _config_from_args(args)
    tagset = _tagset_from_args(args)
    corpus = corpus_io.read_annotated(args.corpus, tagset)
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip() != ""]
    except ValueError:
        raise ConfigError(f"bad size list {args.sizes!r}") from None
    points = evalstats.learning_curve(
        corpus, sizes, args.eval_words, cfg.seed, tagset,
        lex_config=cfg.smoothing(), k_trans=cfg.k_trans, mode=cfg.mode,
    )
    if args.format == "csv":
        body = "train_words,error_rate\n" + "".join(
            f"{n},{e:.6f}\n" for n, e in points
        )
    else:
        body = f"{'Train words':>12} {'Error rate':>11}\n" + "".join(
            f"{n:>12} {e:>10.2%}\n" for n, e in points
        )
    corpus_io.write_text(cfg.header() + body, args.out or sys.stdout)
    return 0


def cmd_agree(args: argparse.Namespace) -> int:
    from . import evalstats
    diffs = None
    if args.corpora:
        if len(args.corpora) != 2:
            raise ConfigError("agree needs exactly two corpora (or --n)")
        tagset = _tagset_from_args(args)
        a = corpus_io.read_annotated(args.corpora[0], tagset)
        b = corpus_io.read_annotated(args.corpora[1], tagset)
        observed, diffs = evalstats.disagreement_rate(a, b)
        n = corpus_io.word_count(a)
    elif args.n is not None:
        n, observed = args.n, args.observed
    else:
        raise ConfigError("agree needs two corpora or --n")
    test = evalstats.agreement_test(n, args.p0, args.alpha, observed)
    lines = [
        f"n {test.n}",
        f"null disagreement rate {test.p0}",
        f"significance level {test.alpha}",
        f"critical rate {test.critical_rate:.6f}",
    ]
    if test.observed is not None:
        lines.append(f"observed rate {test.observed:.6f}")
        lines.append(
            "reject null (agreement better than chance level)"
            if test.reject
            else "cannot reject null"
        )
    if diffs is not None:
        lines.append(f"differing positions {len(diffs)}")
        for si, wi, surface, ta, tb in diffs[:20]:
            lines.append(f"  sentence {si + 1} word {wi + 1} {surface!r}: {ta} vs {tb}")
    corpus_io.write_text("\n".join(lines) + "\n", args.out or sys.stdout)
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    tagset = _tagset_from_args(args)
    rules = load_rules(args.rules, tagset) if args.rules else default_rules(tagset)
    blocks = parse_analysis_blocks(corpus_io.read_text(args.input), source=args.input)
    sentences = [
        [convert_cohort(token, readings, rules, tagset) for token, readings in sent]
        for sent in blocks
    ]
    corpus_io.write_text(corpus_io.format_cohorts(sentences), args.out or sys.stdout)
    return 0


def cmd_gen_synth(args: argparse.Namespace) -> int:
    from .synth import build_synthetic_hmm, sample_corpus
    cfg = _config_from_args(args)
    model = build_synthetic_hmm(
        n_tags=args.tags,
        vocab=args.vocab,
        seed=cfg.seed,
        mean_len=args.mean_len,
        ambiguous_frac=args.ambiguous_frac,
    )
    sentences = sample_corpus(model, args.words, seed=cfg.seed + 1)
    corpus_io.write_annotated(sentences, args.out or sys.stdout)
    if args.tagset_out:
        corpus_io.write_text(model.tagset.to_text(), args.tagset_out)
    return 0


# -- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ambitag",
        description="Trainable trigram-HMM tagger with threshold-controlled multi-tag output.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file")
    common.add_argument("--seed", type=int, help="random seed (default 0)")
    common.add_argument("--out", help="output path (default stdout)")

    smoothing = argparse.ArgumentParser(add_help=False)
    smoothing.add_argument("--k-lex", type=float, dest="k_lex", help="lexical blend strength")
    smoothing.add_argument("--k-trans", type=float, dest="k_trans", help="transition blend strength")
    smoothing.add_argument("--levels", type=int, help="branching points consulted for known words")
    smoothing.add_argument("--cutoff", type=int, help="infrequent-word count cutoff")
    smoothing.add_argument("--known-threshold", type=int, dest="known_threshold")
    smoothing.add_argument("--support-epsilon", type=float, dest="support_epsilon")
    smoothing.add_argument("--class-mix", type=float, dest="class_mix")

    decoding = argparse.ArgumentParser(add_help=False)
    decoding.add_argument("--threshold", type=float, help="retention threshold in [0,1]")
    decoding.add_argument(
        "--mode", choices=[MODE_POSTERIOR, MODE_VITERBI], help="primary-tag rule"
    )

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["table", "csv"], default="table")

    p = sub.add_parser("train", parents=[common, smoothing], help="train a model")
    p.add_argument("corpus", help="annotated training corpus")
    p.add_argument("--tagset", help="tag inventory file (default: shipped)")
    p.add_argument("--model", required=True, help="output model path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("tag", parents=[common, decoding], help="tag a cohort file")
    p.add_argument("input", help="cohort file")
    p.add_argument("--model", required=True)
    p.add_argument("--full", action="store_true", help="force full disambiguation (threshold 1)")
    p.add_argument(
        "--continue-on-error",
        action="store_true",
        help="leave undecodable sentences ambiguous instead of aborting",
    )
    p.set_defaults(func=cmd_tag)

    p = sub.add_parser("eval", parents=[common, decoding, fmt], help="score against gold")
    p.add_argument("input", help="gold annotated corpus")
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", parents=[common, decoding, fmt], help="error/ambiguity tradeoff")
    p.add_argument("input", help="gold annotated corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--thresholds", default="1.0,0.5,0.1,0.0", help="descending list")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "curve", parents=[common, smoothing, decoding, fmt], help="learning curve"
    )
    p.add_argument("corpus", help="annotated corpus")
    p.add_argument("--tagset")
    p.add_argument("--sizes", required=True, help="ascending training sizes, comma-separated")
    p.add_argument("--eval-words", type=int, required=True, dest="eval_words")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("agree", parents=[common], help="annotator-agreement test")
    p.add_argument("corpora", nargs="*", help="two parallel annotated corpora")
    p.add_argument("--tagset")
    p.add_argument("--n", type=int, help="corpus size (instead of corpora)")
    p.add_argument("--p0", type=float, required=True, help="null disagreement probability")
    p.add_argument("--alpha", type=float, required=True, help="significance level")
    p.add_argument("--observed", type=float, help="observed disagreement rate")
    p.set_defaults(func=cmd_agree)

    p = sub.add_parser("convert", parents=[common], help="reduce analyser readings to tags")
    p.add_argument("input", help="analyser output (token line + indented readings)")
    p.add_argument("--tagset")
    p.add_argument("--rules", help="conversion rule file (default: shipped)")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("gen-synth", parents=[common], help="generate a synthetic corpus")
    p.add_argument("--words", type=int, required=True)
    p.add_argument("--tags", type=int, default=10)
    p.add_argument("--vocab", type=int, default=1000)
    p.add_argument("--mean-len", type=float, default=15.0, dest="mean_len")
    p.add_argument("--ambiguous-frac", type=float, default=0.3, dest="ambiguous_frac")
    p.add_argument("--tagset-out", dest="tagset_out", help="also write the tag inventory")
    p.set_defaults(func=cmd_gen_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except AmbitagError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
