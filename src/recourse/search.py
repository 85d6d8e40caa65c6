"""Recourse-set optimizers.

`cols` is the workhorse: it keeps a best set of N counterfactuals, perturbs
each member (two features at a time) to propose candidates, prices every
member and candidate against all M sampled cost functions, and then swaps
candidates in one at a time whenever the bookkept benefit of a replacement
is strictly positive. The benefit of replacing best-set member p with
candidate q is accounted per sample over the columns whose current minimum
is row p: the column either improves to the candidate's cost or falls back
to the second-best member, whichever is cheaper. Applying only strictly
positive swaps makes the objective non-increasing across iterations.

`pcols` splits the query budget over R independent restarts and keeps the
best run. The restarts run in lockstep: one loop holds an (R, N, d) tensor
of member indices and an (R, N, M) cost tensor, and each iteration makes one
classifier query and one pricing gather of R * N rows, then greedy rounds of
one benefit computation and one swap selection over all restarts. `cols` is
the same loop with R = 1. One meter of R * (B // R) queries serves all
restarts: each spends N queries per iteration, so the shared meter runs out
on the same iteration as R meters of B // R would.

The best sets change only when a swap is applied, so the loop holds their
column statistics (`column_stats`: minimum, second minimum, coverage,
one-hot ownership and idle rows) and `compute_benefits` does only the
candidate-dependent work. After a swap the statistics of the restarts
that swapped are recomputed in full, never patched, so ties on a column's
minimum keep going to the lowest row. Within one iteration, a restart
that found no positive swap has the same costs and candidates in the next
round, so later rounds evaluate only the restarts that swapped in the
round before.

Restart r perturbs from its own (seed, user, r) stream, drawing row by row
in the order a lone `cols` run would, so every restart equals that run. One
vectorized draw for all rows has the same distribution but consumes the
stream differently, which changes every result.

`random_search` and `local_search` are the baselines used for ablations.
Both run one whole-set hill climb, `_whole_set`: propose a whole candidate
set, classify it in one query, score it, and keep it only when its score
strictly beats the incumbent's. They differ in the proposal alone:
`random_search` draws N states uniformly from the feasible product space,
`local_search` perturbs every member like `cols` does. The EMC score is
the negated objective (higher is better); `random_search` reports the EMC
itself in its trace, `local_search` the score it maximizes.

Every optimizer takes the same `GenerationSettings` (budget, set size,
restarts, seed, objective; the other fields drive cost sampling) and has
the signature `fn(s_u, classifier, samples, schema, settings, user_key=0)`.

Candidates predicted to the undesired class are not discarded: their cost
rows are set to infinity, which keeps them out of every column minimum and
therefore out of every positive-benefit swap. Infinite costs are clamped to
a large finite sentinel inside the benefit bookkeeping only, so that
uncovered samples (all-infinite columns) trade off sanely against finite
costs without producing inf - inf artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .cost import CostSampleSet, cost_rows, emc_of_matrix
from .model import BudgetExhausted, BudgetMeter, Classifier, predict_batch
from .schema import DatasetSchema, UserState, feasible_values

INF = math.inf

# Finite stand-in for infinite costs inside benefit sums. Any value far above
# the largest possible finite transition cost (= feature count) works; a
# power of two keeps the cancellation (x - BIG) + (BIG - y) near-exact.
BIG = float(2**20)

# RNG stream namespace for search perturbations (cost sampling owns 0 and 1).
SEARCH_STREAM = 2

# Features each perturbation resamples per member.
HAMMING = 2

METHODS = ("cols", "pcols", "random", "ls")
OBJECTIVES = ("emc", "diversity", "proximity", "sparsity")


@dataclass
class GenerationSettings:
    """One user's run: the optimizer and its inputs, and how to sample the
    user's cost functions."""

    method: str = "cols"
    objective: str = "emc"
    budget: int = 5000
    set_size: int = 10
    num_samples: int = 1000
    distribution: str = "mix"
    alpha: Optional[float] = None
    restarts: int = 5
    seed: int = 0
    editable: Optional[tuple[int, ...]] = None
    preferences: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; valid methods: {', '.join(METHODS)}"
            )
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        for name in ("budget", "set_size", "restarts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.restarts > self.budget:
            raise ValueError("more restarts than budget")


@dataclass(frozen=True)
class RecourseSet:
    members: tuple[UserState, ...]
    validity: tuple[bool, ...]

    def __post_init__(self):
        if len(self.members) == 0:
            raise ValueError("recourse set must have at least one member")
        if len(self.members) != len(self.validity):
            raise ValueError("one validity flag per member required")

    @property
    def n(self) -> int:
        return len(self.members)


@dataclass
class SearchResult:
    recourse_set: RecourseSet
    cost_matrix: Optional[np.ndarray]  # (N, M) final member costs
    trace: list[float]
    queries_used: int
    emc: float
    restart_emcs: list[float] = field(default_factory=list)
    restart_queries: list[int] = field(default_factory=list)


class _Workspace:
    """Per-user precomputation: index coding and feasible moves from s_u."""

    def __init__(self, s_u: UserState, schema: DatasetSchema):
        s_u.validate(schema)
        self.schema = schema
        self.s_u = s_u
        # (d, max |D_f|) domain table, zero-padded past each feature's domain.
        width = max(len(f.domain) for f in schema.features)
        self.domains = np.zeros((schema.n_features, width))
        for fi, f in enumerate(schema.features):
            self.domains[fi, : len(f.domain)] = f.domain
        self.user_idx = np.array(
            [f.index_of(v) for f, v in zip(schema.features, s_u.values)],
            dtype=np.intp,
        )
        self.movable = [
            i for i, f in enumerate(schema.features) if f.mutability != "immutable"
        ]
        if not self.movable:
            raise ValueError("schema has no non-immutable features to perturb")
        self.feasible_idx = []
        for i, f in enumerate(schema.features):
            allowed = feasible_values(schema, i, s_u.values[i])
            self.feasible_idx.append(
                np.array(sorted(f.index_of(v) for v in allowed), dtype=np.intp)
            )

    def decode(self, idx: np.ndarray) -> np.ndarray:
        """Domain-position indices -> raw feature codes, ready for the model."""
        return self.domains[np.arange(idx.shape[-1]), idx]

    def to_states(self, idx: np.ndarray) -> list[UserState]:
        codes = self.decode(idx)
        return [UserState(tuple(int(v) for v in row)) for row in codes]

    def perturb_rows(
        self, base: np.ndarray, rng: np.random.Generator, hamming: int = HAMMING
    ) -> np.ndarray:
        """Resample up to `hamming` features of each row from the feasible sets."""
        out = base.copy()
        k = min(hamming, len(self.movable))
        for row in out:
            for fi in rng.choice(len(self.movable), size=k, replace=False):
                f = self.movable[fi]
                choices = self.feasible_idx[f]
                row[f] = choices[rng.integers(len(choices))]
        return out

    def uniform_rows(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n states uniformly from the feasible product space."""
        out = np.tile(self.user_idx, (n, 1))
        for f in range(self.schema.n_features):
            choices = self.feasible_idx[f]
            out[:, f] = choices[rng.integers(len(choices), size=n)]
        return out


def _column_minima(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per column of each (N, M) table in (..., N, M): (min value, min row
    index, second-min value), each of shape (..., M).

    Ties go to the lowest row index; with a single row the second-min is inf.
    """
    min_idx = entries.argmin(axis=-2)
    at_min = min_idx[..., None, :]
    min_vals = np.take_along_axis(entries, at_min, axis=-2)[..., 0, :]
    if entries.shape[-2] == 1:
        return min_vals, min_idx, np.full(min_vals.shape, INF)
    masked = entries.copy()
    np.put_along_axis(masked, at_min, INF, axis=-2)
    return min_vals, min_idx, masked.min(axis=-2)


class ColumnStats(NamedTuple):
    """What `compute_benefits` needs of (..., N, M) best-set cost tables,
    with infinite costs clamped to BIG."""

    min_vals: np.ndarray  # (..., M) each column's minimum
    second_vals: np.ndarray  # (..., M) each column's second-smallest entry
    covered: np.ndarray  # (..., M) bool: the minimum is finite
    own: np.ndarray  # (..., N, M) 1.0 where the row holds a covered column's minimum
    idle: np.ndarray  # (..., N) bool: the row holds no covered column's minimum

    def take(self, restarts: np.ndarray) -> "ColumnStats":
        """The statistics of the given restarts (leading-axis entries)."""
        return ColumnStats(*(held[restarts] for held in self))


def column_stats(best_costs: np.ndarray) -> ColumnStats:
    """Column statistics of (..., N, M) best-set cost tables; ties on a
    column's minimum go to the lowest row index."""
    cb = np.minimum(np.asarray(best_costs, dtype=float), BIG)
    if cb.ndim < 2:
        raise ValueError(f"expected (..., N, M) cost tables, got shape {cb.shape}")
    min_vals, min_idx, second_vals = _column_minima(cb)
    covered = min_vals < BIG
    rows = np.arange(cb.shape[-2])[:, None]
    own = (min_idx[..., None, :] == rows) & covered[..., None, :]
    return ColumnStats(
        min_vals, np.minimum(second_vals, BIG), covered, own.astype(float),
        ~own.any(axis=-1),
    )


def _refresh(stats: ColumnStats, costs: np.ndarray, restarts: np.ndarray) -> None:
    """Recompute in full, in place, the held statistics of the restarts
    whose (N, M) tables in `costs` changed."""
    for held, fresh in zip(stats, column_stats(costs[restarts])):
        held[restarts] = fresh


def compute_benefits(stats: ColumnStats, cand_costs: np.ndarray) -> np.ndarray:
    """(..., N, Nc) benefit of every (best member p, candidate q) single
    replacement, for `stats = column_stats(best)` of (..., N, M) best tables
    and (..., Nc, M) candidate tables.

    For each sample column whose minimum sits at row p, the replacement
    changes that column's minimum from best[p, r] to
    min(candidate[q, r], second-best[r]); the benefit entry sums those
    deltas. Columns whose minimum is owned by another row are untouched by
    the accounting, so a returned entry is a guaranteed (not maximal) gain.
    Infinite costs enter the sums clamped to a large finite sentinel.

    Ties on a column's minimum go to the lowest row index, except that a
    column no member covers (all entries infinite) is attributed to every
    row: each row minimizes it trivially, and the per-column delta is the
    same whichever of them is replaced. This is what lets a candidate that
    covers a new sample displace a dead member instead of competing for the
    lowest-index row only.

    A row holding no column minimum at all contributes nothing to the
    objective, so replacing it can only add options; its entries are the
    exact gains sum_r max(0, min_r - candidate[q, r]). Without this, such
    rows could never attract a positive swap and would stay frozen for the
    rest of the run.
    """
    cc = np.minimum(np.asarray(cand_costs, dtype=float), BIG)
    min_vals, second_vals, covered, own, idle = stats
    if cc.ndim < 2 or own.shape[:-2] != cc.shape[:-2] or own.shape[-1] != cc.shape[-1]:
        raise ValueError(f"cost tables disagree on samples: {own.shape} vs {cc.shape}")

    # deltas[..., q, r]: change in column r's minimum if its owner is replaced by q.
    deltas = min_vals[..., None, :] - np.minimum(cc, second_vals[..., None, :])
    benefits = own @ np.swapaxes(deltas, -1, -2)
    benefits += np.where(covered[..., None, :], 0.0, deltas).sum(axis=-1)[..., None, :]
    if idle.any():
        gains = np.where(
            covered[..., None, :], np.maximum(min_vals[..., None, :] - cc, 0.0), 0.0
        ).sum(axis=-1)
        benefits = np.where(idle[..., None], benefits + gains[..., None, :], benefits)
    return benefits


def select_swaps(benefits: np.ndarray) -> list[tuple[int, int, int]]:
    """At most one swap (r, p, q) per restart r of (R, N, Nc) benefits: that
    restart's largest strictly positive entry, ties to the smallest (p, q).
    Restarts where nothing improves contribute none."""
    n_restarts, _, n_cand = benefits.shape
    flat = benefits.reshape(n_restarts, -1)
    best = flat.argmax(axis=1)
    return [
        (int(r), *divmod(int(best[r]), n_cand))
        for r in np.flatnonzero(flat[np.arange(n_restarts), best] > 0.0)
    ]


def search_rng(seed: int, user_key: int = 0, restart: int = 0) -> np.random.Generator:
    """Perturbation stream for one (seed, user, restart) triple."""
    return np.random.default_rng(
        np.random.SeedSequence([SEARCH_STREAM, seed, user_key, restart])
    )


def _classify(ws: _Workspace, classifier: Classifier, idx: np.ndarray,
              meter: BudgetMeter) -> np.ndarray:
    """Validity of (..., d) member indices, in one metered model query."""
    codes = ws.decode(idx).reshape(-1, idx.shape[-1])
    return predict_batch(classifier, codes, meter).reshape(idx.shape[:-1]) == 1


def _priced_rows(idx: np.ndarray, samples: CostSampleSet, valid: np.ndarray) -> np.ndarray:
    """(..., M) costs of (..., d) member indices; invalid rows cost inf."""
    rows = cost_rows(idx.reshape(-1, idx.shape[-1]), samples)
    rows = rows.reshape(*idx.shape[:-1], samples.m)
    rows[~valid] = INF
    return rows


def _result(ws: _Workspace, members: np.ndarray, valid: np.ndarray,
            costs: Optional[np.ndarray], trace: list[float],
            queries_used: int) -> SearchResult:
    return SearchResult(
        recourse_set=RecourseSet(
            members=tuple(ws.to_states(members)),
            validity=tuple(bool(v) for v in valid),
        ),
        cost_matrix=costs,
        trace=trace,
        queries_used=queries_used,
        emc=emc_of_matrix(costs) if costs is not None else INF,
    )


def _lockstep(
    ws: _Workspace,
    classifier: Classifier,
    samples: CostSampleSet,
    n: int,
    meter: BudgetMeter,
    rngs: list[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[list[float]]]:
    """COLS restarts run side by side, restart r perturbing from rngs[r].

    Each iteration perturbs every restart, classifies and prices all R * N
    candidates at once, then applies greedy rounds of the single best
    positive swap per restart until no restart has one left. The loop ends
    when `meter` cannot pay for every restart's candidate batch. Returns the
    (R, N, d) members, (R, N) validity, (R, N, M) costs and R traces.
    """
    start = np.tile(ws.user_idx, (n, 1))
    members = np.stack([ws.perturb_rows(start, rng) for rng in rngs])
    valid = _classify(ws, classifier, members, meter)
    costs = _priced_rows(members, samples, valid)
    traces = [[emc_of_matrix(c)] for c in costs]
    stats = column_stats(costs)
    everyone = np.arange(len(rngs))

    while True:
        cand = np.stack([ws.perturb_rows(m, rng) for m, rng in zip(members, rngs)])
        try:
            cand_valid = _classify(ws, classifier, cand, meter)
        except BudgetExhausted:
            break
        cand_costs = _priced_rows(cand, samples, cand_valid)
        # Greedy rounds. A restart that swapped nothing keeps its costs and
        # candidates, so later rounds of this iteration skip it; while every
        # restart is active the held statistics are used as they are.
        active, sub_stats, sub_cand = everyone, stats, cand_costs
        while swaps := select_swaps(compute_benefits(sub_stats, sub_cand)):
            local, p, q = np.array(swaps).T
            r = active[local]
            members[r, p] = cand[r, q]
            valid[r, p] = cand_valid[r, q]
            costs[r, p] = cand_costs[r, q]
            _refresh(stats, costs, r)
            if len(r) < len(everyone):
                active, sub_stats, sub_cand = r, stats.take(r), cand_costs[r]
        for trace, c in zip(traces, costs):
            trace.append(emc_of_matrix(c))
    return members, valid, costs, traces


def cols(
    s_u: UserState,
    classifier: Classifier,
    samples: CostSampleSet,
    schema: DatasetSchema,
    settings: GenerationSettings,
    meter: Optional[BudgetMeter] = None,
    rng: Optional[np.random.Generator] = None,
    user_key: int = 0,
) -> SearchResult:
    """Cost-optimized local search over recourse sets.

    Initializes the best set with N perturbations of the user state, then
    loops perturb -> classify -> price -> swap until the query budget can no
    longer pay for a candidate batch. The recorded objective trace is
    non-increasing; running out of budget mid-batch simply ends the loop.
    """
    ws = _Workspace(s_u, schema)
    meter = meter if meter is not None else BudgetMeter(settings.budget)
    rng = rng if rng is not None else search_rng(settings.seed, user_key)
    if meter.remaining < settings.set_size:
        raise ValueError("budget cannot cover the initial set")
    members, valid, costs, traces = _lockstep(
        ws, classifier, samples, settings.set_size, meter, [rng]
    )
    return _result(ws, members[0], valid[0], costs[0], traces[0], meter.used)


def pcols(
    s_u: UserState,
    classifier: Classifier,
    samples: CostSampleSet,
    schema: DatasetSchema,
    settings: GenerationSettings,
    user_key: int = 0,
) -> SearchResult:
    """Independent restarts of `cols`, each on budget // restarts queries and
    its own RNG sub-stream, run in lockstep; the run with the least objective
    wins (ties to the lowest restart index)."""
    restarts = settings.restarts
    sub_budget = settings.budget // restarts
    if sub_budget < settings.set_size:
        raise ValueError(
            f"budget {settings.budget} over {restarts} restarts cannot "
            f"cover set size {settings.set_size}"
        )
    ws = _Workspace(s_u, schema)
    meter = BudgetMeter(restarts * sub_budget)
    rngs = [search_rng(settings.seed, user_key, r) for r in range(restarts)]
    members, valid, costs, traces = _lockstep(
        ws, classifier, samples, settings.set_size, meter, rngs
    )
    emcs = [trace[-1] for trace in traces]
    win = emcs.index(min(emcs))
    best = _result(ws, members[win], valid[win], costs[win], traces[win], meter.used)
    best.restart_emcs = emcs
    best.restart_queries = [meter.used // restarts] * restarts
    return best


def _set_objective(
    objective: str,
    ws: _Workspace,
    members: np.ndarray,
    valid: np.ndarray,
    samples: CostSampleSet,
) -> float:
    """Score to maximize: the negated EMC, or a distance metric. Sets
    without a single valid member score -inf, mirroring the hard validity
    constraint on recourse."""
    if not valid.any():
        return -INF
    if objective == "emc":
        return -emc_of_matrix(_priced_rows(members, samples, valid))
    from .evaluate import set_distance_stats

    div, prox, spar = set_distance_stats(ws.s_u, ws.to_states(members), ws.schema)
    return {"diversity": div, "proximity": prox, "sparsity": spar}[objective]


def _whole_set(
    s_u: UserState,
    classifier: Classifier,
    samples: CostSampleSet,
    schema: DatasetSchema,
    settings: GenerationSettings,
    user_key: int,
    objective: str,
    propose: Callable[[_Workspace, np.ndarray, np.random.Generator], np.ndarray],
) -> SearchResult:
    """Hill climbing on whole sets. `propose(ws, members, rng)` draws a
    candidate set (the first from N copies of the user state); the candidate
    replaces the incumbent only when its objective score is strictly higher.
    The loop ends when the budget cannot pay for a candidate set, and the
    trace holds the incumbent's score after every iteration. Only the emc
    objective prices the final set."""
    ws = _Workspace(s_u, schema)
    rng = search_rng(settings.seed, user_key)
    n = settings.set_size
    if settings.budget < n:
        raise ValueError("budget cannot cover the initial set")
    meter = BudgetMeter(settings.budget)
    members = propose(ws, np.tile(ws.user_idx, (n, 1)), rng)
    valid = _classify(ws, classifier, members, meter)
    score = _set_objective(objective, ws, members, valid, samples)
    trace = [score]

    while True:
        cand_members = propose(ws, members, rng)
        try:
            cand_valid = _classify(ws, classifier, cand_members, meter)
        except BudgetExhausted:
            break
        cand_score = _set_objective(objective, ws, cand_members, cand_valid, samples)
        if cand_score > score:
            members, valid, score = cand_members, cand_valid, cand_score
        trace.append(score)

    costs = _priced_rows(members, samples, valid) if objective == "emc" else None
    return _result(ws, members, valid, costs, trace, meter.used)


def random_search(
    s_u: UserState,
    classifier: Classifier,
    samples: CostSampleSet,
    schema: DatasetSchema,
    settings: GenerationSettings,
    user_key: int = 0,
) -> SearchResult:
    """Whole-set baseline: draw N states uniformly from the feasible product
    space each iteration and keep the candidate set only if its EMC beats
    the incumbent's. The trace records the EMC itself."""
    result = _whole_set(
        s_u, classifier, samples, schema, settings, user_key, "emc",
        lambda ws, members, rng: ws.uniform_rows(len(members), rng),
    )
    result.trace = [-score for score in result.trace]
    return result


def local_search(
    s_u: UserState,
    classifier: Classifier,
    samples: CostSampleSet,
    schema: DatasetSchema,
    settings: GenerationSettings,
    user_key: int = 0,
) -> SearchResult:
    """Plain hill climbing on whole sets for `settings.objective`.

    Same perturbation neighborhood as `cols`, but a candidate set is taken
    only when its objective strictly improves on the incumbent set's; there
    is no per-member swapping. The trace records the maximized score: the
    negated EMC, or the diversity, proximity or sparsity of the set.
    """
    return _whole_set(
        s_u, classifier, samples, schema, settings, user_key, settings.objective,
        _Workspace.perturb_rows,
    )
