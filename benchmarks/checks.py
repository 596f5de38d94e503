"""Output checks for the benchmark's CLI invocations.

The parsers here are the benchmark's own, so a defect in the program's
readers cannot hide the same defect in its output.  Each check returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

from itertools import zip_longest

SWEEP_THRESHOLDS = (1.0, 0.5, 0.1, 0.0)


def parse_cohort_text(text: str) -> list[list[tuple[str, list[str]]]]:
    """Sentences of (surface, tags) from cohort-format text."""
    sentences: list[list[tuple[str, list[str]]]] = []
    current: list[tuple[str, list[str]]] = []
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        if not line.strip():
            if current:
                sentences.append(current)
                current = []
            continue
        surface, _, tags = line.partition("\t")
        current.append((surface, tags.split()))
    if current:
        sentences.append(current)
    return sentences


def check_tag_output(inputs: str, output: str) -> list[str]:
    """One problem per sentence whose output does not match its input: the
    same tokens in the same order, and per word a non-empty retained set
    drawn from that word's candidates."""
    problems = []
    pairs = zip_longest(parse_cohort_text(inputs), parse_cohort_text(output))
    for si, (want, got) in enumerate(pairs, start=1):
        if want is None or got is None:
            problems.append(f"sentence {si}: missing from the {'input' if want is None else 'output'}")
        elif [s for s, _ in want] != [s for s, _ in got]:
            problems.append(f"sentence {si}: tokens differ from the input")
        elif any(not kept or not set(kept) <= set(cands) for (_, cands), (_, kept) in zip(want, got)):
            problems.append(f"sentence {si}: a retained set is empty or not among the candidates")
    return problems


def parse_sweep_csv(text: str) -> dict[float, tuple[float, float]]:
    """threshold -> (ambiguity, error_rate) from `ambitag sweep --format csv`."""
    rows = {}
    body = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not body or body[0] != "threshold,ambiguity,error_rate":
        raise ValueError("sweep output has no CSV header")
    for line in body[1:]:
        theta, ambiguity, error = (float(v) for v in line.split(","))
        rows[theta] = (ambiguity, error)
    return rows


def check_sweep(rows: dict[float, tuple[float, float]]) -> list[str]:
    """Every threshold reported; one tag per word at theta = 1; as theta
    falls, ambiguity does not decrease and error does not increase."""
    if sorted(rows, reverse=True) != list(SWEEP_THRESHOLDS):
        return [f"sweep thresholds {sorted(rows, reverse=True)} != {list(SWEEP_THRESHOLDS)}"]
    problems = []
    if rows[1.0][0] != 1.0:
        problems.append(f"ambiguity at theta=1 is {rows[1.0][0]}, not 1.0")
    for hi, lo in zip(SWEEP_THRESHOLDS, SWEEP_THRESHOLDS[1:]):
        if rows[lo][0] < rows[hi][0]:
            problems.append(f"ambiguity falls from theta={hi} to theta={lo}")
        if rows[lo][1] > rows[hi][1]:
            problems.append(f"error rises from theta={hi} to theta={lo}")
    return problems


def check_model_roundtrip(text: str):
    """Problems, and the reloaded lexicon: the model file must reload and
    re-serialise byte-identically."""
    # Imported here: the tracer imports this module before it times the
    # import of ambitag, so this module must not load ambitag itself.
    from ambitag.modelfile import dumps_model, loads_model

    lex, trans = loads_model(text)
    if dumps_model(lex, trans) != text:
        return ["model file does not survive loads_model -> dumps_model unchanged"], lex
    return [], lex


def posterior_sum_failures(decodes, tolerance: float = 1e-9) -> int:
    """Sentences with a word whose tag posteriors do not sum to 1."""
    return sum(
        any(abs(sum(p.values()) - 1.0) > tolerance for p in d.posteriors) for d in decodes
    )
