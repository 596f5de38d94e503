"""End-to-end benchmark of the ambitag command line.

    python3 benchmarks/run.py --workload dense-10 --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all

Each workload runs the way a user does: ``ambitag train``, then ``ambitag
tag``, then ``ambitag sweep``, each in its own child process, one at a
time, from this single-threaded process.  Inputs come from the workload's
synthetic HMM and the seed, and are generated before any timing starts.

With ``--trace 0`` the run times whole invocations and reports the
end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` it runs every
invocation once plain and once under ``tracer.py`` and reports the
per-layer metrics.  Either way every output is checked, and the last line
printed is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from checks import (
    SWEEP_THRESHOLDS,
    check_model_roundtrip,
    check_sweep,
    check_tag_output,
    parse_cohort_text,
    parse_sweep_csv,
)
from tracer import layer_self_times, load_spans, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# One BLAS thread per child: a pool per core would compete with this
# process and make timings depend on the core count.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
RUN_LIMIT_S = 170  # a run must end within 180 s
TAG_THRESHOLD = "0.1"


class BenchError(Exception):
    """The run cannot produce its metrics."""


def _timeout(signum, frame):
    raise BenchError(f"run exceeded {RUN_LIMIT_S} s")


@dataclass
class Invocation:
    seconds: float
    exit_code: int
    stdout: str


class Session:
    """Runs ambitag in child processes, one at a time, and keeps the tally
    of operations: an invocation is one, and so is each sentence it
    decodes."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
        self.env.update({var: "1" for var in THREAD_VARS})
        self.attempted = 0
        self.failed = 0
        self.exits_nonzero = 0
        self.problems: list[str] = []
        self.peak_rss_mb = 0.0
        self._count = 0

    def fail(self, count: int, problems: list[str]) -> None:
        self.failed += count
        self.problems += problems

    def run(self, argv: list[str], sentences: int, report: Path | None = None) -> Invocation:
        if report is None:
            cmd = [sys.executable, "-m", "ambitag.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(report), "--", *argv]
        self._count += 1
        out_path = self.workdir / f"{self._count}.out"
        err_path = self.workdir / f"{self._count}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024)  # KiB on Linux
        self.attempted += 1 + sentences
        if proc.returncode != 0:
            self.exits_nonzero += 1
            stderr = err_path.read_text(encoding="utf-8", errors="replace").strip()
            self.fail(1 + sentences, [f"ambitag {argv[0]} exited {proc.returncode}: {stderr[-300:]}"])
        return Invocation(seconds, proc.returncode, out_path.read_text(encoding="utf-8"))


class Bench:
    """The invocations of one workload, each with its output check."""

    def __init__(self, workload, inputs, session: Session):
        self.workload = workload
        self.inputs = inputs
        self.session = session
        self.model = session.workdir / "model.txt"
        self.train_argv = ["train", str(inputs.train), "--tagset", str(inputs.tagset),
                           "--model", str(self.model)]
        if workload.support_epsilon:
            self.train_argv += ["--support-epsilon", repr(workload.support_epsilon)]
        self.setup_text = inputs.setup.read_text(encoding="utf-8")
        self.tag_text = [inputs.tag(c).read_text(encoding="utf-8") for c in range(workload.chunks)]
        self.rows: dict[int, dict] = {}  # chunk -> table of its first sweep

    def train(self, report: Path | None = None) -> Invocation:
        return self.session.run(self.train_argv, 0, report)

    def setup(self, report: Path | None = None) -> Invocation:
        return self._tag(self.inputs.setup, self.setup_text, 1, "setup", report)

    def tag(self, chunk: int, report: Path | None = None) -> Invocation:
        sentences = self.inputs.properties["tag"]["chunk_sentences"][chunk]
        return self._tag(self.inputs.tag(chunk), self.tag_text[chunk], sentences,
                         f"tag chunk {chunk}", report)

    def _tag(self, path: Path, text: str, sentences: int, label: str, report) -> Invocation:
        argv = ["tag", str(path), "--model", str(self.model), "--threshold", TAG_THRESHOLD]
        inv = self.session.run(argv, sentences, report)
        if inv.exit_code == 0:
            problems = check_tag_output(text, inv.stdout)
            self.session.fail(len(problems), [f"{label}: {p}" for p in problems])
        return inv

    def sweep(self, chunk: int, report: Path | None = None) -> Invocation:
        argv = ["sweep", str(self.inputs.sweep(chunk)), "--model", str(self.model),
                "--thresholds", ",".join(map(str, SWEEP_THRESHOLDS)), "--format", "csv"]
        sentences = self.inputs.properties["sweep"]["chunk_sentences"][chunk]
        inv = self.session.run(argv, sentences, report)
        if inv.exit_code != 0:
            return inv
        try:
            rows = parse_sweep_csv(inv.stdout)
        except ValueError as exc:
            self.session.fail(1, [f"sweep chunk {chunk}: unreadable output: {exc}"])
            return inv
        problems = check_sweep(rows)
        if self.rows.setdefault(chunk, rows) != rows:
            problems.append("output differs from the first sweep of this chunk")
        self.session.fail(1 if problems else 0, [f"sweep chunk {chunk}: {p}" for p in problems])
        return inv

    def quality(self) -> dict:
        """The sweep's rows pooled over every chunk, as one sweep of the
        whole pool would report them."""
        words = self.inputs.properties["sweep"]["chunk_words"]
        if len(self.rows) != len(words):
            raise BenchError("some sweep chunks produced no table")

        def pooled(theta: float, column: int) -> float:
            # Rates are printed to 6 decimals, so rate * words recovers the count.
            return sum(round(self.rows[c][theta][column] * n) for c, n in enumerate(words)) / sum(words)

        return {
            "error_rate": pooled(1.0, 1),
            "error_rate_t0.1": pooled(0.1, 1),
            "ambiguity_t0.1": pooled(0.1, 0),
        }

    def prepare_model(self) -> dict:
        """Untimed first `train` (it also warms the file cache); check the
        model round trip and return the workload's measured properties."""
        if self.train().exit_code != 0:
            raise BenchError("ambitag train failed: " + "; ".join(self.session.problems))
        text = self.model.read_text(encoding="utf-8")
        problems, lex = check_model_roundtrip(text)
        self.session.fail(len(problems), problems)
        props = copy.deepcopy(self.inputs.properties)
        props["model_bytes"] = len(text.encode("utf-8"))
        surfaces = {
            "tag": [s for text in self.tag_text for sent in parse_cohort_text(text) for s, _ in sent],
            "sweep": [
                s for c in range(self.workload.chunks)
                for sent in parse_cohort_text(self.inputs.sweep(c).read_text(encoding="utf-8"))
                for s, _ in sent
            ],
        }
        for name, words in surfaces.items():
            props[name]["unknown_share"] = sum(not lex.is_known(s) for s in words) / len(words)
        props["sweep"]["cands_per_word"] = (
            sum(len(lex.candidate_tags(s)) for s in surfaces["sweep"]) / len(surfaces["sweep"])
        )
        return props


def measure(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Time rounds of invocations for about `seconds`, and at least one
    round per chunk; return the metrics and every sample."""
    props = bench.inputs.properties
    samples: dict[str, list[float]] = {"setup_s": [], "train_wps": [], "tag_wps": [], "sweep_wps": []}
    start = perf_counter()
    rounds = 0
    while True:
        round_start = perf_counter()
        chunk = rounds % bench.workload.chunks
        samples["setup_s"].append(bench.setup().seconds)
        samples["train_wps"].append(props["train"]["words"] / bench.train().seconds)
        samples["tag_wps"].append(props["tag"]["chunk_words"][chunk] / bench.tag(chunk).seconds)
        samples["sweep_wps"].append(props["sweep"]["chunk_words"][chunk] / bench.sweep(chunk).seconds)
        rounds += 1
        now = perf_counter()
        # Whole rounds only: stop once every chunk has run and another
        # round would overrun the time.
        if rounds >= bench.workload.chunks and now - start + (now - round_start) > seconds:
            break
    if bench.session.exits_nonzero:
        raise BenchError("; ".join(bench.session.problems[:5]))
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["peak_rss_mb"] = bench.session.peak_rss_mb
    metrics.update(bench.quality())
    return metrics, {"rounds": rounds, "samples": samples}


def measure_traced(bench: Bench) -> tuple[dict, dict]:
    """Run each invocation plain and then traced, every chunk once; return
    per-layer metrics and the layer self times per kind of invocation."""
    calls = [("train", bench.train), ("setup", bench.setup)]
    for chunk in range(bench.workload.chunks):
        calls.append((f"tag-{chunk}", lambda report=None, c=chunk: bench.tag(c, report)))
        calls.append((f"sweep-{chunk}", lambda report=None, c=chunk: bench.sweep(c, report)))
    plain = traced = 0.0
    reports = {}
    for name, call in calls:
        plain += call().seconds
        path = bench.session.workdir / f"trace-{name}.json"
        traced += call(path).seconds
        if not path.is_file():
            raise BenchError(f"traced {name} wrote no report")
        reports[name] = json.loads(path.read_text(encoding="utf-8"))
    bad = sum(r["posterior_failures"] for r in reports.values())
    bench.session.fail(bad, [f"{bad} sentences with tag posteriors not summing to 1"] if bad else [])
    if bench.session.exits_nonzero:
        raise BenchError("; ".join(bench.session.problems[:5]))
    metrics = summarize(list(reports.values()))
    metrics["modelfile.bytes"] = bench.model.stat().st_size
    metrics["trace.overhead"] = traced / plain
    by_kind: dict[str, dict[str, float]] = {}
    for name, report in reports.items():
        kind = by_kind.setdefault(name.split("-")[0], {})
        for layer, t in layer_self_times(load_spans(report)).items():
            kind[layer] = kind.get(layer, 0.0) + t
    detail = {
        "missing_targets": sorted({m for r in reports.values() for m in r["missing_targets"]}),
        "layer_self_s": by_kind,
    }
    return metrics, detail


def run_workload(workload, seed: int, seconds: float, trace: bool, spec: dict, work: Path) -> dict:
    """One run of one workload: generate or reuse inputs, then measure."""
    from workloads import prepare  # needs ambitag on sys.path

    inputs = prepare(workload, seed, work / "inputs")
    workdir = work / f"run-{workload.name}-s{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        session = Session(workdir)
        bench = Bench(workload, inputs, session)
        props = bench.prepare_model()
        start = perf_counter()
        if trace:
            values, detail = measure_traced(bench)
        else:
            values, detail = measure(bench, seconds)
        elapsed = perf_counter() - start
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for {missing}")
    return {
        "workload": workload.name, "seed": seed, "trace": int(trace), "measured_s": elapsed,
        "correct": session.failed == 0, "attempted": session.attempted, "failed": session.failed,
        "problems": session.problems[:20],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
        "properties": props, "detail": detail,
    }


def print_report(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"measured {result['measured_s']:.1f} s")
    for name, m in result["metrics"].items():
        print(f"  {name:<26} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'ops_attempted':<26} {result['attempted']:>14}")
    print(f"  {'ops_failed':<26} {result['failed']:>14}")
    for problem in result["problems"]:
        print(f"  failed: {problem}")
    for what, p in result["properties"].items():
        print(f"  input {what:<8} {json.dumps(p)}")
    missing = result["detail"].get("missing_targets") if result["trace"] else None
    if missing:
        print(f"  not traced (absent from the program): {', '.join(missing)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed part (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "ambitag" / "cli.py").is_file():
        sys.stderr.write(f"error: no ambitag sources under {SRC}; run from a full checkout\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads here
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")

    signal.signal(signal.SIGALRM, _timeout)
    results = []
    try:
        for name in names:
            signal.alarm(RUN_LIMIT_S)
            results.append(
                run_workload(WORKLOADS[name], args.seed, seconds, bool(args.trace), spec, WORK)
            )
            signal.alarm(0)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    for result in results:
        print_report(result)
        out = WORK / "results" / f"{result['workload']}-s{args.seed}-t{args.trace}.json"
        out.write_text(json.dumps(result, indent=1), encoding="utf-8")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
