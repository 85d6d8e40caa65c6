"""Experiment sweeps: method comparisons (with per-subgroup fairness
splits), ablations, robustness grids, and resource scans.

Every sweep runs the generation machinery in-process on a fixed user
subset, evaluates against hidden cost functions keyed by a separate test
seed, and emits plain CSV tables; rendering is left to external tools.

Result documents become the arrays evaluation takes in `doc_arrays` alone,
which is also the one check of their shape and codes; `DocArrays.take`
slices out some documents' arrays. `score_arrays` scores documents as one
flat table per test seed, measuring the metrics of the sets alone once.
The mean of several runs (`mean_table`) averages each metric over the
runs that define it, so a subgroup present in only some runs keeps its
rows, in a given row order whatever the run order. The concentration-shift
sweep compares the editable sets a user's recourse was optimized against
with the set each hidden user's own draw chose.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .cost import min_cost
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

# The methods a kind runs when given none (others: cols, pcols, random);
# `ablation` runs its own and takes none.
DEFAULT_METHODS = {
    "ablation": ("ls:sparsity", "ls:proximity", "ls:diversity", "ls:emc", "cols"),
    "alpha_grid": ("cols",),
    "concentration_shift": ("cols",),
}
# What a kind reads only one of; seeds then default to 0 alone.
READS_ONE = {"alpha_grid": ("methods",), "concentration_shift": ("methods", "seeds")}


@dataclass
class ExperimentSpec:
    kind: str
    seeds: Optional[tuple[int, ...]] = None  # None: the kind's default
    methods: Optional[tuple[str, ...]] = None  # None: the kind's default
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
        if self.kind == "ablation" and self.methods is not None:
            raise ValueError(f"experiment kind 'ablation' takes no methods; it runs "
                             f"{', '.join(DEFAULT_METHODS['ablation'])}")
        one = READS_ONE.get(self.kind, ())
        if self.methods is None:
            self.methods = DEFAULT_METHODS.get(self.kind, ("cols", "pcols", "random"))
        if self.seeds is None:
            self.seeds = (0,) if "seeds" in one else (0, 1, 2, 3, 4)
        for name in one:
            if len(getattr(self, name)) > 1:
                raise ValueError(f"experiment kind {self.kind!r} reads one {name[:-1]}, "
                                 f"got {len(getattr(self, name))}")
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
    rows: np.ndarray,
    classifier: Classifier,
    schema: DatasetSchema,
    limit: Optional[int] = None,
) -> tuple[list[UserState], list[int]]:
    """The rows of the (n, d) codes `rows` that the model currently rejects,
    as users for `run_population`, with their row indices; only they need
    recourse.

    The screening queries run on their own meter and are not charged to any
    user's search budget. `limit` caps how many users are returned.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"user limit must be at least 1, got {limit}")
    meter = BudgetMeter(limit=len(rows))
    classes = predict_batch(classifier, rows, meter)
    picked = np.flatnonzero(~classes)[:limit].tolist()
    if not picked:
        raise ValueError("no rows are classified to the undesired class")
    return [UserState(tuple(row)) for row in rows[picked].tolist()], picked


def _stack(rows, n: int, d: int) -> np.ndarray:
    """(n, d) int64 codes of n rows of d values each."""
    return np.fromiter(chain.from_iterable(rows), np.int64, n * d).reshape(n, d)


class DocArrays(NamedTuple):
    """Result documents as the arrays evaluation takes."""

    states: np.ndarray  # (U, d) int64 state codes
    members: np.ndarray  # (P, d) int64 member codes, stacked in document order
    owners: np.ndarray  # (P,) the index of each member's document
    validity: np.ndarray  # (P,) bool
    positions: np.ndarray  # (P, d) the members' domain positions, which pricing takes

    def take(self, keep: np.ndarray) -> "DocArrays":
        """The arrays of the documents a (U,) bool mask keeps, as
        `doc_arrays` makes them of those documents alone."""
        rows = keep[self.owners]
        return DocArrays(self.states[keep], self.members[rows],
                         (np.cumsum(keep) - 1)[self.owners[rows]], self.validity[rows],
                         self.positions[rows])


def doc_arrays(docs: Sequence[ResultDoc], schema: DatasetSchema) -> DocArrays:
    """The documents as arrays, and the one check of a document's shape
    and codes: each has at least one member and one validity flag per
    member, and its state and members are rows of the schema's width
    whose every code lies in its feature's domain, whatever the member's
    flag. The whole batch is checked at once, by one `positions` call
    over the states and one over the members, whose positions pricing
    then takes; only when that fails are the documents scanned one by
    one, to refuse the first bad one with a SchemaError naming it by its
    1-based position in `docs`."""
    d = schema.n_features
    sizes = [len(doc.members) for doc in docs]
    states = [doc.state for doc in docs]
    members = [m for doc in docs for m in doc.members]
    try:
        if (0 in sizes or sizes != [len(doc.validity) for doc in docs]
                or {*map(len, states), *map(len, members)} - {d}):
            raise SchemaError("a document is malformed")
        states = _stack(states, len(docs), d)
        members = _stack(members, len(members), d)
        schema.positions(states)
        arrays = DocArrays(
            states,
            members,
            np.repeat(np.arange(len(docs)), sizes),
            np.fromiter(chain.from_iterable(doc.validity for doc in docs), bool,
                        len(members)),
            schema.positions(members),
        )
    except (SchemaError, OverflowError):
        for n, doc in enumerate(docs, 1):
            rows = [doc.state, *doc.members]
            try:
                if not doc.members:
                    raise SchemaError("recourse set must have at least one member")
                if len(doc.members) != len(doc.validity):
                    raise SchemaError("one validity flag per member required")
                for j, row in enumerate(rows):
                    if len(row) != d:
                        what = f"member {j - 1}" if j else "state"
                        raise SchemaError(f"{what} has {len(row)} values, schema has {d}")
                schema.positions(rows)
            except SchemaError as exc:
                raise SchemaError(f"document {n}: {exc}") from None
        raise
    return arrays


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
    states, _, owners, validity, positions = doc_arrays(docs, schema)
    users = simulate_users(states, schema, table, test_seed, [doc.user_id for doc in docs],
                           alpha=test_alpha)
    return compute_report(users, positions[validity], owners[validity], schema, k=k)


def score_arrays(arrays: DocArrays, user_ids: Sequence[int], schema: DatasetSchema,
                 table: PercentileTable, test_seeds: Sequence[int], k: float,
                 test_alpha: Optional[float]) -> list[dict[str, Optional[float]]]:
    """Per test seed, the hidden-cost metrics of the documents `arrays`
    holds, owned by `user_ids`, and their set metrics, measured once, as a
    flat table in `metric_names` order (None: undefined)."""
    states, members, owners, validity, positions = arrays
    shared = set_metrics(states, members, owners, validity, schema)
    order = metric_names(schema, k)
    merged = [
        {**compute_report(simulate_users(states, schema, table, seed, user_ids,
                                         alpha=test_alpha),
                          positions[validity], owners[validity], schema, k=k).table,
         **shared}
        for seed in test_seeds
    ]
    return [{name: m[name] for name in order if name in m} for m in merged]


def score_docs(docs: Sequence[ResultDoc], schema: DatasetSchema, table: PercentileTable,
               test_seeds: Sequence[int], k: float,
               test_alpha: Optional[float]) -> list[dict[str, Optional[float]]]:
    """`score_arrays` of result documents, which become arrays once for
    all seeds."""
    return score_arrays(doc_arrays(docs, schema), [doc.user_id for doc in docs], schema,
                        table, test_seeds, k, test_alpha)


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
    if spec.kind in ("main", "ablation"):
        return _tabular_comparison(spec, states, user_ids, classifier, schema, table)
    if spec.kind == "alpha_grid":
        return _alpha_grid(spec, states, user_ids, classifier, schema, table)
    if spec.kind == "concentration_shift":
        return _concentration_shift(spec, states, user_ids, classifier, schema, table)
    return _resource_sweep(spec, states, user_ids, classifier, schema, table)


def _tabular_comparison(spec, states, user_ids, classifier, schema, table):
    header = ["seed", "method", "metric", "value"]
    rows: list[list] = []
    tables: dict[str, list[dict]] = {m: [] for m in spec.methods}
    for seed in spec.seeds:
        for method in spec.methods:
            settings = replace(spec.base, method=method, seed=seed)
            docs = run_population(states, classifier, schema, table, settings,
                                  user_ids=user_ids)
            tables[method] += score_docs(docs, schema, table, [spec.test_seed], spec.k, None)
            rows.extend([seed, *r] for r in table_rows(method, tables[method][-1]))
    for method in spec.methods:
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


def _concentration_shift(spec, states, user_ids, classifier, schema, table):
    """FS@k binned by how far a hidden user's editable-feature pattern, the
    set their own draw chose, sits from the nearest pattern their recourse
    was optimized against."""
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

    owner = np.arange(spec.shift_vectors) % len(docs)
    codes, _, owners, validity, positions = doc_arrays([docs[i] for i in owner], schema)
    users = simulate_users(codes, schema, table, spec.test_seed,
                           [spec.shift_vectors * 7 + v for v in range(spec.shift_vectors)])
    costs = min_cost(positions[validity], owners[validity], users)
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
