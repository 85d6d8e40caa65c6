"""Experiment sweeps: method comparisons (with per-subgroup fairness
splits), ablations, robustness grids, and resource scans.

Every sweep runs the generation machinery in-process on a fixed user
subset, evaluates against hidden cost functions keyed by a separate test
seed, and emits plain CSV tables; rendering is left to external tools.

Result documents become the arrays evaluation takes in `doc_arrays` alone.
`score_docs` scores result documents as one flat table per test seed,
measuring the metrics of the sets alone once. The mean of several runs
(`mean_table`) averages each metric over the runs that define it, so a
subgroup present in only some runs keeps its rows, in a given row order
whatever the run order.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .cost import SHIFT_STREAM, min_cost
from .evaluate import (
    MetricsReport,
    compute_report,
    concentration_distance,
    metric_names,
    set_metrics,
    # Unused here; perfbench/run.py traces evaluation through experiments.simulate_user.
    simulate_user,
    simulate_users,
)
from .model import BudgetMeter, Classifier, predict_batch
from .results import GenerationSettings, ResultDoc, run_population, run_user
from .schema import DatasetSchema, PercentileTable, SchemaError, UserState

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

# The generation setting each grid value sets.
GRID_FIELDS = {
    "budget_sweep": "budget",
    "setsize_sweep": "set_size",
    "samples_sweep": "num_samples",
    "alpha_grid": "alpha",
}

@dataclass
class ExperimentSpec:
    kind: str
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    methods: tuple[str, ...] = ("cols", "pcols", "random")
    grid: tuple = ()
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
        if self.grid and self.kind not in DEFAULT_GRIDS:
            raise ValueError(f"experiment kind {self.kind!r} takes no grid; only "
                             f"{', '.join(DEFAULT_GRIDS)} read one")
        if not self.grid:
            self.grid = DEFAULT_GRIDS.get(self.kind, ())
        if self.kind in DEFAULT_GRIDS and not self.grid:
            raise ValueError(f"{self.kind} requires a non-empty grid")
        if not self.seeds:
            raise ValueError("at least one seed required")
        for seed in self.seeds:
            if seed < 0:
                raise ValueError(f"seed must be non-negative, got {seed} in seeds")
        for name in ("bins", "shift_vectors"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not self.k > 0:
            raise ValueError(f"k must be positive, got {self.k}")
        if self.test_seed < 0:
            raise ValueError(f"test_seed must be non-negative, got {self.test_seed}")
        if self.kind in DEFAULT_GRIDS and self.kind != "alpha_grid":
            bad = [v for v in self.grid if not float(v).is_integer()]
            if bad:
                raise ValueError(f"grid values of {self.kind} must be integers, got {bad}")
            self.grid = tuple(int(v) for v in self.grid)
        if not self.methods:
            raise ValueError("at least one method required")
        for name in ("seeds", "methods", "grid"):
            values = getattr(self, name)
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"{name} names {repeated[0]!r} more than once")
        # Every run's settings, built once here, so that a bad method or grid
        # value is refused before any user is searched.
        name = GRID_FIELDS.get(self.kind)
        overrides = [{name: value} for value in self.grid] if name else [{}]
        for method in self.methods:
            for fields in overrides:
                replace(self.base, method=method, seed=self.seeds[0], **fields)


def select_undesired(
    rows: Sequence[UserState],
    classifier: Classifier,
    schema: DatasetSchema,
    limit: Optional[int] = None,
) -> tuple[list[UserState], list[int]]:
    """Users the model currently rejects; only they need recourse.

    The screening queries run on their own meter and are not charged to any
    user's search budget. `limit` caps how many users are returned.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"user limit must be at least 1, got {limit}")
    codes = np.asarray([r.values for r in rows], dtype=float)
    meter = BudgetMeter(limit=len(rows))
    classes = predict_batch(classifier, codes, meter)
    picked = np.flatnonzero(~classes)[:limit].tolist()
    if not picked:
        raise ValueError("no rows are classified to the undesired class")
    return [rows[i] for i in picked], picked


def _stack(rows, n: int, d: int) -> np.ndarray:
    """(n, d) int64 codes of n rows of d values each."""
    return np.fromiter(chain.from_iterable(rows), np.int64, n * d).reshape(n, d)


def doc_arrays(
    docs: Sequence[ResultDoc], schema: DatasetSchema
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The documents as arrays: their (U, d) state codes, every member's
    codes stacked as (P, d) in document order, and per member the index of
    its document and its validity flag. A document with no member, or
    without one flag per member, is refused. So is a state or member of
    the wrong width, or a state outside the schema, with a SchemaError
    naming the document."""
    d = schema.n_features
    for i, doc in enumerate(docs):
        if not doc.members:
            raise ValueError("recourse set must have at least one member")
        if len(doc.members) != len(doc.validity):
            raise ValueError("one validity flag per member required")
        widths = [len(doc.state), *map(len, doc.members)]
        if widths.count(d) != len(widths):
            j = next(j for j, n in enumerate(widths) if n != d)
            what = f"member {j - 1}" if j else "state"
            raise SchemaError(f"document {i} (user_id {doc.user_id}): {what} has "
                              f"{widths[j]} values, schema has {d}")
    states = _stack((doc.state for doc in docs), len(docs), d)
    try:
        schema.positions(states)
    except SchemaError:
        for i, (doc, state) in enumerate(zip(docs, states)):
            try:
                schema.positions(state)
            except SchemaError as exc:
                raise SchemaError(f"document {i} (user_id {doc.user_id}): {exc}") from None
    sizes = [len(doc.members) for doc in docs]
    members = _stack(chain.from_iterable(doc.members for doc in docs), sum(sizes), d)
    owners = np.repeat(np.arange(len(docs)), sizes)
    validity = np.array([flag for doc in docs for flag in doc.validity], dtype=bool)
    return states, members, owners, validity


def evaluate_docs(
    docs: Sequence[ResultDoc],
    schema: DatasetSchema,
    table: PercentileTable,
    test_seed: int,
    k: float = 1.0,
    test_alpha: Optional[float] = None,
) -> MetricsReport:
    """Hidden-cost metrics of result documents under freshly simulated users,
    their mixing weight `test_alpha` (None: drawn per user)."""
    states, members, owners, validity = doc_arrays(docs, schema)
    users = simulate_users(states, schema, table, test_seed, [doc.user_id for doc in docs],
                           alpha=test_alpha)
    return compute_report(users, members[validity], owners[validity], schema, k=k)


def score_docs(docs: Sequence[ResultDoc], schema: DatasetSchema, table: PercentileTable,
               test_seeds: Sequence[int], k: float,
               test_alpha: Optional[float]) -> list[dict[str, Optional[float]]]:
    """Per test seed, its hidden-cost metrics and the set metrics, measured
    once, as a flat table in `metric_names` order (None: undefined). The
    documents become arrays once for all seeds."""
    states, members, owners, validity = doc_arrays(docs, schema)
    shared = set_metrics(states, members, owners, validity, schema)
    ids = [doc.user_id for doc in docs]
    order = metric_names(schema, k)
    merged = [
        {**compute_report(simulate_users(states, schema, table, seed, ids, alpha=test_alpha),
                          members[validity], owners[validity], schema, k=k).table,
         **shared}
        for seed in test_seeds
    ]
    return [{name: m[name] for name in order if name in m} for m in merged]


def mean_table(
    tables: Sequence[dict], order: Sequence[str] = ()
) -> dict[str, Optional[float]]:
    """Per metric, the mean over the tables that define it (a value that is
    not None); None when none does. Metrics named in `order` come in that
    order, the others after them in first-seen order."""
    rank = {name: i for i, name in enumerate(order)}
    names = sorted(dict.fromkeys(name for table in tables for name in table),
                   key=lambda name: rank.get(name, len(rank)))
    vals = {name: [t[name] for t in tables if t.get(name) is not None] for name in names}
    return {name: float(np.mean(v)) if v else None for name, v in vals.items()}


def table_rows(method: str, table: dict[str, Optional[float]]) -> list[list]:
    """(method, metric, value) CSV rows of a flat table.

    Fractional metrics print as 2-decimal percentages, PAC and disparate
    impact ratios with 3 decimals, the uncovered count as an integer, and
    undefined values as '-'.
    """
    rows = []
    for name, value in table.items():
        if value is None:
            text = "-"
        elif name == "pac_uncovered":
            text = round(value)
        elif name == "pac" or name.startswith("dir_"):
            text = f"{value:.3f}"
        else:
            text = f"{100.0 * value:.2f}"
        rows.append([method, name, text])
    return rows


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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
    tables: dict[str, list[dict]] = {m: [] for m in methods}
    for seed in spec.seeds:
        for method in methods:
            settings = replace(spec.base, method=method, seed=seed)
            docs = run_population(states, classifier, schema, table, settings,
                                  user_ids=user_ids)
            tables[method] += score_docs(docs, schema, table, [spec.test_seed], spec.k, None)
            rows.extend([seed, *r] for r in table_rows(method, tables[method][-1]))
    for method in methods:
        rows.extend(["mean", *r] for r in table_rows(method, mean_table(tables[method])))
    return header, rows


def _alpha_grid(spec, states, user_ids, classifier, schema, table):
    """FS@k for every (generation alpha, hidden-cost alpha) pair."""
    header = ["alpha_train", "alpha_test", "fs_at_k", "n_seeds"]
    grid = spec.grid
    acc: dict[tuple[float, float], list[float]] = {
        (a, b): [] for a in grid for b in grid
    }
    for seed in spec.seeds:
        for a_train in grid:
            settings = replace(spec.base, method=spec.methods[0], seed=seed, alpha=a_train)
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
    field_name = GRID_FIELDS[spec.kind]
    header = [field_name, "method", "fs_at_k_mean", "fs_at_k_std", "n_seeds"]
    rows = []
    for value in spec.grid:
        for method in spec.methods:
            scores = []
            for seed in spec.seeds:
                settings = replace(spec.base, method=method, seed=seed, **{field_name: value})
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


def random_editable_subset(candidates: list[int], rng: np.random.Generator) -> list[int]:
    """Uniform over non-empty subsets of the candidate features, ascending."""
    if not candidates:
        raise ValueError("schema has no mutable features; supply an editable set")
    while True:
        coins = rng.random(len(candidates)).tolist()
        chosen = [c for c, u in zip(candidates, coins) if u < 0.5]
        if chosen:
            return chosen


def _concentration_shift(spec, states, user_ids, classifier, schema, table):
    """FS@k binned by how far a user's editable-feature pattern sits from
    the nearest pattern their recourse was optimized against."""
    settings = replace(spec.base, method=spec.methods[0], seed=spec.seeds[0])
    if not settings.prices_samples:
        raise ValueError(
            f"concentration_shift needs a method that samples cost functions; "
            f"{spec.methods[0]!r} samples none"
        )
    docs: list[ResultDoc] = []
    train_conc: list[np.ndarray] = []
    for uid, state in zip(user_ids, states):
        doc, samples = run_user(uid, state, classifier, schema, table, settings)
        docs.append(doc)
        train_conc.append(samples.editable)

    movable = schema.mutable_indices()
    rng = np.random.default_rng(np.random.SeedSequence([SHIFT_STREAM, spec.test_seed]))
    pins = [frozenset(random_editable_subset(movable, rng)) for _ in range(spec.shift_vectors)]
    owner = np.arange(spec.shift_vectors) % len(docs)
    codes, members, owners, validity = doc_arrays([docs[i] for i in owner], schema)
    users = simulate_users(codes, schema, table, spec.test_seed,
                           [spec.shift_vectors * 7 + v for v in range(spec.shift_vectors)],
                           editable=pins)
    costs = min_cost(members[validity], owners[validity], users)
    distances = np.empty(spec.shift_vectors)
    for i, train in enumerate(train_conc):
        distances[owner == i] = concentration_distance(users.editable[owner == i], train)
    satisfied = (costs < spec.k).astype(float)
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
