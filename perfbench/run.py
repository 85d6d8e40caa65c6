"""Recourse benchmark: generation throughput at the paper defaults and in a
search-heavy PCOLS loop, hidden-population evaluation, and a traced
per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload paper_defaults --seed 1 --seconds 25 --trace 0

`--workload all` runs every workload in turn in this one process; no
worker pool is used. Lines before the last name every metric with its
unit, the environment, and the sha256 digest of the result documents.
The last line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics of BENCHMARK.json with `--trace 0`, its
per-layer metrics with `--trace 1`. The exit status is non-zero when any
output check fails. Result records, written documents and spans go to
`perfbench/out/`. See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import recourse  # noqa: E402
from recourse import evaluate, experiments, results, search  # noqa: E402
from recourse.datasets import make_adult_like  # noqa: E402
from recourse.model import TrainConfig, train_classifier  # noqa: E402
from recourse.results import GenerationSettings, ResultDoc  # noqa: E402
from recourse.schema import build_percentile_table  # noqa: E402

from calibration import Calibration  # noqa: E402
from checks import check_doc  # noqa: E402
from tracing import Tracer  # noqa: E402

# Set-up runs this many times per run; setup_s is the median.
SETUP_REPEATS = 3

# fs_at_1/pac/coverage average this many hidden populations, with test
# seeds fixed across workload seeds, so they vary only with the generated
# sets.
QUALITY_SEED = 424_242
QUALITY_POPULATIONS = 20

def adult_data():
    return make_adult_like(4000, seed=7)


@dataclass(frozen=True)
class Workload:
    """One set of inputs. The first `users` rejected users, in screening
    order, are always completed, digested and scored. A generation workload
    cycles through them again until the run's seconds are spent, so every
    run times the same mix of users. `populations` > 0 makes this an
    evaluation workload: set-up generates the `users` documents and each
    timed round scores them against that many hidden populations."""

    name: str
    settings: dict  # GenerationSettings fields; the run's --seed sets `seed`
    users: int
    populations: int = 0
    data: Callable = adult_data
    train: TrainConfig = field(
        default_factory=lambda: TrainConfig(architecture="mlp", epochs=300, seed=0)
    )

    def describe(self) -> dict:
        raw = asdict(self)
        raw["data"] = self.data.__name__
        return raw


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper_defaults",
            dict(method="cols", budget=5000, set_size=10, num_samples=1000),
            users=16,
        ),
        Workload(
            "pcols_wide_search",
            dict(method="pcols", restarts=5, budget=5000, set_size=10, num_samples=100),
            users=48,
        ),
        Workload(
            "evaluate_hidden",
            dict(method="cols", budget=200, set_size=10, num_samples=20),
            users=100,
            populations=5,
        ),
    )
}


@dataclass
class Inputs:
    schema: object
    classifier: object
    table: object
    states: list
    ids: list
    docs: list  # evaluation workloads: the documents built in set-up


# One timed step: (unit of work it repeats; document, or whether the
# round's checks passed; reference seconds; items completed).
Step = tuple[int, object, float, int]


def unit_times(steps: Sequence[Step]) -> list[tuple[float, int]]:
    """Per unit of work: (mean seconds over its repeats, items it completes)."""
    by_unit: dict[int, list] = {}
    for unit, _, dt, n in steps:
        by_unit.setdefault(unit, [[], n])[0].append(dt)
    return [(statistics.fmean(times), n) for times, n in by_unit.values()]


def items_per_s(steps: Sequence[Step]) -> float:
    """Throughput with every unit weighted once, however often it repeated,
    so the mix of work does not depend on how fast the window went."""
    units = unit_times(steps)
    return sum(n for _, n in units) / sum(t for t, _ in units)


def seconds_per_item_p50(steps: Sequence[Step]) -> float:
    return statistics.median(t / n for t, n in unit_times(steps))


def settings_for(wl: Workload, seed: int) -> GenerationSettings:
    return GenerationSettings(seed=seed, **wl.settings)


def set_up(wl: Workload, seed: int, cal: Calibration) -> tuple[Inputs, float, float]:
    """Inputs for one run; returns them with the set-up and training
    reference seconds."""
    start = cal.mark()
    schema, rows, labels = wl.data()
    train_start = cal.mark()
    classifier = train_classifier(rows, labels, schema, wl.train)
    train_s = cal.since(train_start)
    table = build_percentile_table(rows, schema)
    states, ids = experiments.select_undesired(rows, classifier, schema)
    docs = []
    if wl.populations:
        settings = settings_for(wl, seed)
        docs = [
            results.run_user(ids[i], states[i], classifier, schema, table, settings)[0]
            for i in range(min(wl.users, len(states)))
        ]
    return Inputs(schema, classifier, table, states, ids, docs), cal.since(start), train_s


def generate(
    inp: Inputs,
    settings: GenerationSettings,
    seconds: float,
    min_steps: int,
    pool: int,
    cal: Calibration,
    tracer: Optional[Tracer] = None,
) -> list[Step]:
    """Run the first `pool` users in screening order, cycling through them
    again, until `seconds` have passed and at least `min_steps` runs are
    done. A run that raises yields no document."""
    steps = []
    start = time.perf_counter()
    i = 0
    while i < min_steps or time.perf_counter() - start < seconds:
        u = i % pool
        if tracer is not None:
            tracer.user = inp.ids[u]
        mark = cal.mark()
        try:
            doc, _ = results.run_user(
                inp.ids[u], inp.states[u], inp.classifier, inp.schema, inp.table, settings
            )
        except Exception:
            traceback.print_exc()
            doc = None
        steps.append((u, doc, cal.since(mark), 1))
        i += 1
    return steps


def hidden_seed(seed: int, population: int) -> int:
    return seed * 1_000_000 + population


def evaluate_rounds(
    inp: Inputs,
    seed: int,
    seconds: float,
    populations: int,
    min_rounds: int,
    path: str,
    cal: Calibration,
) -> list[Step]:
    """Rounds of write -> read -> evaluate against `populations` hidden seeds.
    A round passes when the documents survive the round trip and every
    report covers every user."""
    steps = []
    start = time.perf_counter()
    r = 0
    while r < min_rounds or time.perf_counter() - start < seconds:
        mark = cal.mark()
        results.write_results(inp.docs, path)
        back = results.read_results(path)
        reports = [
            experiments.evaluate_docs(
                back, inp.schema, inp.table, hidden_seed(seed, r * populations + p), k=1.0
            )
            for p in range(populations)
        ]
        dt = cal.since(mark)
        ok = back == inp.docs and all(
            rep.n_users == len(back) and 0.0 <= rep.fs_at_k <= 1.0 for rep in reports
        )
        steps.append((r, ok, dt, len(back) * populations))
        r += 1
    return steps


def quality(docs: Sequence[ResultDoc], inp: Inputs) -> Optional[dict]:
    """fs_at_1, pac and coverage averaged over fixed hidden populations;
    None when no user is covered, which leaves pac undefined."""
    reports = [
        experiments.evaluate_docs(docs, inp.schema, inp.table, QUALITY_SEED + p, k=1.0)
        for p in range(QUALITY_POPULATIONS)
    ]
    pacs = [r.pac.value for r in reports if r.pac.value is not None]
    if not pacs:
        return None
    return {
        "fs_at_1": statistics.fmean(r.fs_at_k for r in reports),
        "pac": statistics.fmean(pacs),
        "coverage": statistics.fmean(r.coverage for r in reports),
    }


def write_digest(docs: Sequence[ResultDoc], path: str) -> tuple[str, int]:
    """Write the documents as JSONL; return its sha256 and size in bytes."""
    results.write_results(docs, path)
    with open(path, "rb") as fh:
        data = fh.read()
    return hashlib.sha256(data).hexdigest(), len(data)


def _count_samples(counts, out, args):
    counts["cost.samples"] += out.m if hasattr(out, "m") else 1


def _count_price(counts, out, args):
    counts["cost.price_cells"] += np.size(out) if np.ndim(out) else len(args[1])


def _count_query(counts, out, args):
    counts["model.queries"] += len(out)
    counts["model.batches"] += 1
    counts["model.valid"] += int(np.sum(out))


def _count_select(counts, out, args):
    counts["search.selects"] += 1
    counts["search.swaps"] += len(out)


def _count_benefit(counts, out, args):
    counts["search.benefit_evals"] += 1


def _count_simulate(counts, out, args):
    counts["evaluate.users"] += 1


def _count_write(counts, out, args):
    counts["results.docs_written"] += len(args[0])


def _count_read(counts, out, args):
    counts["results.docs_read"] += len(out)


def install(tracer: Tracer) -> None:
    """Wrap every package boundary the benchmark measures. Each span name
    is `<layer>.<operation>`; the layer is the package module."""
    tracer.wrap(results, "run_user", "results.run_user")
    tracer.wrap(results, "sample_cost_batch", "cost.sample", _count_samples)
    tracer.wrap(results, "cols", "search.run")
    tracer.wrap(results, "pcols", "search.run")
    tracer.wrap(search, "predict_batch", "model.query", _count_query)
    tracer.wrap(search, "cost_rows", "cost.price", _count_price)
    tracer.wrap(search, "compute_benefits", "search.benefit", _count_benefit)
    tracer.wrap(search, "select_swaps", "search.select", _count_select)
    tracer.wrap(results, "write_results", "results.write", _count_write)
    tracer.wrap(results, "read_results", "results.read", _count_read)
    tracer.wrap(experiments, "evaluate_docs", "evaluate.docs")
    tracer.wrap(experiments, "simulate_user", "evaluate.simulate", _count_simulate)
    tracer.wrap(experiments, "compute_report", "evaluate.report")
    # Evaluation draws and prices one hidden cost function at a time.
    tracer.wrap(evaluate, "sample_cost_function", "cost.sample", _count_samples)
    tracer.wrap(evaluate, "min_cost", "cost.price", _count_price)


def layer_metrics(tracer: Tracer, items: int, scale: float) -> dict:
    """Per-layer metrics of the traced pass, its span times multiplied by
    `scale` to make them reference seconds. Times are reference seconds per
    item (a user for generation, a (user, hidden population) pair for
    evaluation), except the results I/O times, which are per document;
    counts are totals. `X.self_s` is the time inside layer X's spans that no
    child span covers; 0 stands for a layer the workload does not reach."""
    total, own, _ = tracer.totals()
    c = tracer.counts
    per = lambda seconds: seconds * scale / items  # noqa: E731
    ratio = lambda num, den: num / den if den else 0.0  # noqa: E731
    return {
        "cost.sample_s": per(total["cost.sample"]),
        "cost.samples": c["cost.samples"],
        "cost.price_s": per(total["cost.price"]),
        "cost.price_cells": c["cost.price_cells"],
        "model.query_s": per(total["model.query"]),
        "model.queries": c["model.queries"],
        "model.batches": c["model.batches"],
        "model.valid_ratio": ratio(c["model.valid"], c["model.queries"]),
        "search.s": per(total["search.run"]),
        "search.self_s": per(own["search.run"]),
        "search.swap_s": per(total["search.benefit"] + total["search.select"]),
        "search.benefit_evals": c["search.benefit_evals"],
        "search.swaps": c["search.swaps"],
        "search.swap_accept_ratio": ratio(c["search.swaps"], c["search.selects"]),
        "evaluate.simulate_s": per(total["evaluate.simulate"]),
        "evaluate.report_s": per(total["evaluate.report"]),
        "evaluate.self_s": per(
            own["evaluate.docs"] + own["evaluate.simulate"] + own["evaluate.report"]
        ),
        "evaluate.users": c["evaluate.users"],
        "results.self_s": per(own["results.run_user"]),
        "results.write_s": ratio(total["results.write"] * scale, c["results.docs_written"]),
        "results.read_s": ratio(total["results.read"] * scale, c["results.docs_read"]),
    }


def breakdown(tracer: Tracer, items: int, scale: float) -> list[str]:
    """Human-readable table: per span name, calls and reference seconds per item."""
    total, own, calls = tracer.totals()
    lines = [f"  {'span':<20} {'calls':>9} {'total s/item':>13} {'self s/item':>12}"]
    for name in sorted(total, key=lambda n: -own[n]):
        lines.append(
            f"  {name:<20} {calls[name]:>9} {total[name] * scale / items:>13.6f} "
            f"{own[name] * scale / items:>12.6f}"
        )
    return lines


def commit_hash() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "commit": commit_hash(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workload": wl.describe(),
    }


class Tally:
    """Items checked, items failed, and what each failure was."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, label: str, problems: Sequence[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.messages += [f"{label}: {p}" for p in problems]


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, warm up, measure and check one workload; returns its record.

    With `trace`, the untraced pass gets half the seconds and a traced pass
    then repeats exactly its work, so their throughput gap is the tracing
    overhead."""
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{wl.name}-seed{seed}-trace{int(trace)}")
    settings = settings_for(wl, seed)
    window = seconds / 2 if trace else seconds
    wall = time.perf_counter()
    with Calibration() as cal:
        setups = [set_up(wl, seed, cal) for _ in range(SETUP_REPEATS)]
        inp = setups[-1][0]
        if wl.populations:
            path = stem + "-roundtrip.jsonl"

            def measure(seconds, min_steps, cal, tracer=None):
                return evaluate_rounds(
                    inp, seed, seconds, wl.populations, min_steps, path, cal)

            measure(0.0, 1, cal)  # warm-up
            steps = measure(window, 1, cal)
        else:
            pool = min(wl.users, len(inp.states))

            def measure(seconds, min_steps, cal, tracer=None):
                return generate(inp, settings, seconds, min_steps, pool, cal, tracer)

            warm = len(inp.states) - 1
            results.run_user(inp.ids[warm], inp.states[warm], inp.classifier,
                             inp.schema, inp.table, settings)
            steps = measure(window, pool, cal)
    record = {
        "env": environment(wl, seed, seconds, trace),
        "steps": len(steps),
        "raw": {"wall_s": time.perf_counter() - wall,
                "calibration_mean_s": statistics.fmean(cal.samples) if cal.samples else None},
    }

    tally = Tally()

    def check(doc, i, problems=()):
        if doc is None:
            tally.add(f"user {inp.ids[i]}", ["run raised"])
        else:
            tally.add(f"user {inp.ids[i]}", [*problems, *check_doc(
                doc, inp.ids[i], inp.states[i], settings, inp.schema, inp.classifier)])

    if wl.populations:
        docs = inp.docs
        for i, doc in enumerate(docs):
            check(doc, i)
        for r, (_, ok, _, _) in enumerate(steps):
            tally.add(f"round {r}", [] if ok else ["round trip or report check failed"])
    else:
        docs = [doc for _, doc, _, _ in steps[:pool]]
        for u, doc, _, _ in steps:
            check(doc, u, [] if doc is None or doc == docs[u] else ["repeat run differs"])
        docs = [doc for doc in docs if doc is not None]
    digest, size = write_digest(docs, stem + "-docs.jsonl")
    record["digest"] = {"sha256": digest, "docs": len(docs), "bytes": size}

    if trace:
        with Calibration() as traced_cal:
            tracer = Tracer(clock=traced_cal.now)
            with tracer:
                install(tracer)
                traced = measure(0.0, len(steps), traced_cal, tracer)
        traced_docs = [d for _, d, _, _ in traced]
        same = traced_docs == [d for _, d, _, _ in steps]
        if not wl.populations:
            same = same and tracer.counts["model.queries"] == sum(
                d.queries_used for d in traced_docs if d is not None)
        tally.add("traced pass", [] if same else [
            "differs from the untraced pass, or its query count from the documents'"])
        traced_items = sum(n for *_, n in traced)
        traced_scale = traced_cal.scale()
        metrics = layer_metrics(tracer, traced_items, traced_scale)
        metrics.update({
            "model.train_s": statistics.median(t for _, _, t in setups),
            "results.bytes_per_user": size / max(len(docs), 1),
            "trace.overhead": 1.0 - items_per_s(traced) / items_per_s(steps),
        })
        tracer.write(stem + "-spans.jsonl")
        record["breakdown"] = breakdown(tracer, traced_items, traced_scale)
    else:
        scores = quality(docs, inp) if docs else None
        if scores is None:
            tally.add("quality", ["no user is covered, so pac is undefined"])
        metrics = {
            "setup_s": statistics.median(s for _, s, _ in setups),
            "users_per_s": items_per_s(steps),
            "user_s.p50": seconds_per_item_p50(steps),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **(scores or {}),
        }

    record.update(attempted=tally.attempted, failed=tally.failed,
                  failures=tally.messages, metrics=metrics)
    with open(stem + "-result.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: Optional[Sequence[str]] = None, workloads: dict = WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.abspath(recourse.__file__).startswith(SRC + os.sep):
        print(f"recourse imported from {recourse.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2

    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = list(workloads) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    out_metrics = {}
    for name in names:
        record = run_workload(workloads[name], args.seed, args.seconds, bool(args.trace))
        print("env " + json.dumps(record["env"], sort_keys=True))
        print(f"digest {name} sha256:{record['digest']['sha256']} "
              f"({record['digest']['docs']} docs, {record['digest']['bytes']} bytes)")
        print(f"raw {name} " + json.dumps(record["raw"], sort_keys=True))
        for line in record.get("breakdown", []):
            print(line)
        for m in wanted:
            value = record["metrics"].get(m["name"])
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"metric {name} {m['name']} {shown} {m['unit']}")
            key = m["name"] if len(names) == 1 else f"{name}/{m['name']}"
            out_metrics[key] = {"value": value, "unit": m["unit"]}
        for message in record["failures"]:
            print(f"check failed: {name}: {message}", file=sys.stderr)
        print(f"failed_share {name} {record['failed']}/{record['attempted']}")
        attempted += record["attempted"]
        failed += record["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
