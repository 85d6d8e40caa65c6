"""Experiment sweeps: method comparisons (with per-subgroup fairness
splits), ablations, robustness grids, and resource scans.

Every sweep runs the generation machinery in-process on a fixed user
subset, evaluates against hidden cost functions keyed by a separate test
seed, and emits plain CSV tables; rendering is left to external tools.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .cost import random_editable_subset
from .evaluate import (
    MetricsReport,
    PacResult,
    compute_report,
    concentration_distance,
    realized_cost,
    simulate_user,
)
from .model import BudgetMeter, Classifier, predict_batch
from .results import GenerationSettings, ResultDoc, run_population, run_user
from .schema import DatasetSchema, PercentileTable, UserState
from .search import RecourseSet

EXPERIMENT_KINDS = (
    "main",
    "ablation",
    "alpha_grid",
    "concentration_shift",
    "budget_sweep",
    "setsize_sweep",
    "samples_sweep",
)

DEFAULT_GRIDS: dict[str, tuple] = {
    "budget_sweep": (500, 1000, 2000, 3000, 5000, 10000),
    "setsize_sweep": (1, 2, 3, 5, 10, 20, 30),
    "samples_sweep": (1, 5, 10, 20, 30, 100, 200, 300, 500, 1000),
    "alpha_grid": (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
}

# Stream namespace for test-time concentration vectors (cost uses 0/1,
# search perturbations 2).
SHIFT_STREAM = 3


@dataclass
class ExperimentSpec:
    kind: str
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    methods: tuple[str, ...] = ("cols", "pcols", "random")
    grid: tuple = ()
    users: int = 100
    test_seed: int = 9001
    k: float = 1.0
    base: GenerationSettings = field(default_factory=GenerationSettings)
    shift_vectors: int = 500
    bins: int = 10

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(
                f"unknown experiment kind {self.kind!r}; "
                f"valid kinds: {', '.join(EXPERIMENT_KINDS)}"
            )
        if not self.grid:
            self.grid = DEFAULT_GRIDS.get(self.kind, ())
        if self.kind in DEFAULT_GRIDS and not self.grid:
            raise ValueError(f"{self.kind} requires a non-empty grid")
        if not self.seeds:
            raise ValueError("at least one seed required")
        if self.kind == "alpha_grid":
            bad = [a for a in self.grid if not 0.0 <= a <= 1.0]
            if bad:
                raise ValueError(f"alpha grid values outside [0,1]: {bad}")


def select_undesired(
    rows: Sequence[UserState],
    classifier: Classifier,
    schema: DatasetSchema,
    limit: Optional[int] = None,
) -> tuple[list[UserState], list[int]]:
    """Users the model currently rejects; only they need recourse.

    The screening queries run on their own meter and are not charged to any
    user's search budget.
    """
    codes = np.asarray([r.values for r in rows], dtype=float)
    meter = BudgetMeter(limit=len(rows))
    classes = predict_batch(classifier, codes, meter)
    picked_states, picked_ids = [], []
    for i, (row, c) in enumerate(zip(rows, classes)):
        if c != 1:
            picked_states.append(row)
            picked_ids.append(i)
            if limit is not None and len(picked_states) >= limit:
                break
    if not picked_states:
        raise ValueError("no rows are classified to the undesired class")
    return picked_states, picked_ids


def recourse_sets_from_docs(docs: Sequence[ResultDoc]) -> list[RecourseSet]:
    return [
        RecourseSet(
            members=tuple(UserState(tuple(m)) for m in doc.members),
            validity=tuple(bool(v) for v in doc.validity),
        )
        for doc in docs
    ]


def evaluate_docs(
    docs: Sequence[ResultDoc],
    schema: DatasetSchema,
    table: PercentileTable,
    test_seed: int,
    k: float = 1.0,
    test_distribution: str = "mix",
    test_alpha: Optional[float] = None,
) -> MetricsReport:
    """Score result documents against freshly simulated hidden costs."""
    users = [
        simulate_user(
            UserState(tuple(doc.state)).validate(schema),
            schema,
            table,
            test_seed,
            doc.user_id,
            distribution=test_distribution,
            alpha=test_alpha,
        )
        for doc in docs
    ]
    return compute_report(users, recourse_sets_from_docs(docs), schema, k=k)


def report_rows(method: str, report: MetricsReport) -> list[list]:
    """Flatten a report into (method, metric, value) CSV rows.

    Fractional metrics print as 2-decimal percentages; costs keep 3
    decimals; undefined values print as '-'.
    """
    pct = lambda v: f"{100.0 * v:.2f}"
    rows = [
        [method, f"fs_at_{report.k:g}", pct(report.fs_at_k)],
        [method, "pac", "-" if report.pac.value is None else f"{report.pac.value:.3f}"],
        [method, "pac_uncovered", report.pac.uncovered],
        [method, "coverage", pct(report.coverage)],
        [method, "diversity", pct(report.diversity)],
        [method, "proximity", pct(report.proximity)],
        [method, "sparsity", pct(report.sparsity)],
        [method, "validity", pct(report.validity)],
    ]
    for attr, groups in report.by_subgroup.items():
        for value, stats in groups.items():
            rows.append([method, f"fs_at_{report.k:g}[{attr}={value}]", pct(stats["fs_at_k"])])
            rows.append([method, f"coverage[{attr}={value}]", pct(stats["coverage"])])
    for attr, ratios in report.dir_ratios.items():
        for metric, ratio in ratios.items():
            label = f"fs_at_{report.k:g}" if metric == "fs_at_k" else metric
            rows.append(
                [method, f"dir_{label}[{attr}]", "-" if ratio is None else f"{ratio:.3f}"]
            )
    return rows


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _method_settings(spec: ExperimentSpec, method: str, seed: int, **overrides):
    objective = "emc"
    if method.startswith("ls"):
        method, _, objective = method.partition(":")
        objective = objective or "emc"
    return replace(
        spec.base, method=method, objective=objective, seed=seed, **overrides
    )


def run_experiment(
    spec: ExperimentSpec,
    states: Sequence[UserState],
    user_ids: Sequence[int],
    classifier: Classifier,
    schema: DatasetSchema,
    table: PercentileTable,
) -> tuple[list[str], list[list]]:
    """Dispatch one experiment; returns (csv header, csv rows)."""
    if spec.kind == "main":
        return _tabular_comparison(spec, states, user_ids, classifier, schema, table,
                                   spec.methods)
    if spec.kind == "ablation":
        methods = ("ls:sparsity", "ls:proximity", "ls:diversity", "ls:emc", "cols")
        return _tabular_comparison(spec, states, user_ids, classifier, schema, table,
                                   methods)
    if spec.kind == "alpha_grid":
        return _alpha_grid(spec, states, user_ids, classifier, schema, table)
    if spec.kind == "concentration_shift":
        return _concentration_shift(spec, states, user_ids, classifier, schema, table)
    return _resource_sweep(spec, states, user_ids, classifier, schema, table)


def _tabular_comparison(spec, states, user_ids, classifier, schema, table, methods):
    header = ["seed", "method", "metric", "value"]
    rows: list[list] = []
    reports: dict[str, list[MetricsReport]] = {m: [] for m in methods}
    for seed in spec.seeds:
        for method in methods:
            settings = _method_settings(spec, method, seed)
            docs = run_population(states, classifier, schema, table, settings,
                                  user_ids=user_ids)
            report = evaluate_docs(docs, schema, table, spec.test_seed, spec.k)
            reports[method].append(report)
            rows.extend([seed, *r] for r in report_rows(method, report))
    for method in methods:
        mean = mean_report(reports[method])
        rows.extend(["mean", *r] for r in report_rows(method, mean))
    return header, rows


def mean_report(reports: Sequence[MetricsReport]) -> MetricsReport:
    pac_vals = [r.pac.value for r in reports if r.pac.value is not None]
    mean_of = lambda attr: float(np.mean([getattr(r, attr) for r in reports]))
    by_subgroup: dict = {}
    dir_ratios: dict = {}
    for attr in reports[0].by_subgroup:
        by_subgroup[attr] = {}
        for value in reports[0].by_subgroup[attr]:
            by_subgroup[attr][value] = {
                key: float(
                    np.mean([r.by_subgroup[attr][value][key] for r in reports])
                )
                for key in reports[0].by_subgroup[attr][value]
            }
    for attr in reports[0].dir_ratios:
        dir_ratios[attr] = {}
        for metric in reports[0].dir_ratios[attr]:
            vals = [
                r.dir_ratios[attr][metric]
                for r in reports
                if r.dir_ratios[attr][metric] is not None
            ]
            dir_ratios[attr][metric] = float(np.mean(vals)) if vals else None
    return MetricsReport(
        fs_at_k=mean_of("fs_at_k"),
        k=reports[0].k,
        pac=PacResult(
            value=float(np.mean(pac_vals)) if pac_vals else None,
            uncovered=int(round(np.mean([r.pac.uncovered for r in reports]))),
        ),
        coverage=mean_of("coverage"),
        diversity=mean_of("diversity"),
        proximity=mean_of("proximity"),
        sparsity=mean_of("sparsity"),
        validity=mean_of("validity"),
        n_users=reports[0].n_users,
        by_subgroup=by_subgroup,
        dir_ratios=dir_ratios,
    )


def _alpha_grid(spec, states, user_ids, classifier, schema, table):
    """FS@k for every (generation alpha, hidden-cost alpha) pair."""
    header = ["alpha_train", "alpha_test", "fs_at_k", "n_seeds"]
    grid = spec.grid
    acc: dict[tuple[float, float], list[float]] = {
        (a, b): [] for a in grid for b in grid
    }
    for seed in spec.seeds:
        for a_train in grid:
            settings = _method_settings(
                spec, spec.methods[0], seed, distribution="mix", alpha=a_train
            )
            docs = run_population(states, classifier, schema, table, settings,
                                  user_ids=user_ids)
            for a_test in grid:
                report = evaluate_docs(docs, schema, table, spec.test_seed, spec.k,
                                       test_alpha=a_test)
                acc[(a_train, a_test)].append(report.fs_at_k)
    rows = [
        [a, b, f"{100.0 * float(np.mean(vals)):.2f}", len(vals)]
        for (a, b), vals in acc.items()
    ]
    return header, rows


def _resource_sweep(spec, states, user_ids, classifier, schema, table):
    """budget_sweep / setsize_sweep / samples_sweep share one shape."""
    field_name = {
        "budget_sweep": "budget",
        "setsize_sweep": "set_size",
        "samples_sweep": "num_samples",
    }[spec.kind]
    header = [field_name, "method", "fs_at_k_mean", "fs_at_k_std", "n_seeds"]
    rows = []
    for value in spec.grid:
        for method in spec.methods:
            scores = []
            for seed in spec.seeds:
                settings = _method_settings(
                    spec, method, seed, **{field_name: int(value)}
                )
                docs = run_population(states, classifier, schema, table, settings,
                                      user_ids=user_ids)
                scores.append(
                    evaluate_docs(docs, schema, table, spec.test_seed, spec.k).fs_at_k
                )
            rows.append(
                [
                    value,
                    method,
                    f"{100.0 * float(np.mean(scores)):.2f}",
                    f"{100.0 * float(np.std(scores)):.2f}",
                    len(scores),
                ]
            )
    return header, rows


def _concentration_shift(spec, states, user_ids, classifier, schema, table):
    """FS@k binned by how far a user's editable-feature pattern sits from
    the nearest pattern their recourse was optimized against."""
    settings = _method_settings(spec, spec.methods[0], spec.seeds[0])
    docs: list[ResultDoc] = []
    train_conc: list[np.ndarray] = []
    for uid, state in zip(user_ids, states):
        doc, samples = run_user(
            uid, state, classifier, schema, table, settings, keep_samples=True
        )
        docs.append(doc)
        train_conc.append(samples.editable)
    sets = recourse_sets_from_docs(docs)

    movable = schema.mutable_indices()
    rng = np.random.default_rng(
        np.random.SeedSequence([SHIFT_STREAM, spec.test_seed])
    )
    distances, satisfied = [], []
    for v in range(spec.shift_vectors):
        editable = frozenset(random_editable_subset(movable, rng))
        conc = np.zeros(schema.n_features)
        conc[sorted(editable)] = 1.0
        i = v % len(docs)
        user = simulate_user(
            UserState(tuple(docs[i].state)).validate(schema),
            schema,
            table,
            spec.test_seed,
            spec.shift_vectors * 7 + v,
            editable=editable,
        )
        distances.append(float(concentration_distance(conc, train_conc[i])[0]))
        satisfied.append(realized_cost(user, sets[i]) < spec.k)

    distances = np.asarray(distances)
    satisfied = np.asarray(satisfied, dtype=float)
    top = max(float(distances.max()), 1e-9)
    edges = np.linspace(0.0, top, spec.bins + 1)
    header = ["bin_low", "bin_high", "n", "fs_at_k"]
    rows = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        inside = (distances >= lo) & (
            (distances < hi) if hi < top else (distances <= hi)
        )
        n = int(inside.sum())
        fs = f"{100.0 * float(satisfied[inside].mean()):.2f}" if n else "-"
        rows.append([f"{lo:.3f}", f"{hi:.3f}", n, fs])
    return header, rows
