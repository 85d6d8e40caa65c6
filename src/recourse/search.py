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

`pcols` splits the query budget over independent restarts and keeps the
best run. `random_search` and `local_search` are the whole-set-acceptance
baselines used for ablations.

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
from typing import Optional

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

OBJECTIVES = ("emc", "diversity", "proximity", "sparsity")


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
class SearchConfig:
    budget: int = 5000
    set_size: int = 10
    hamming_distance: int = 2
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        for name in ("budget", "set_size", "hamming_distance", "restarts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.restarts > self.budget:
            raise ValueError("more restarts than budget")


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
        self.domains = [np.asarray(f.domain) for f in schema.features]
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
        out = np.empty(idx.shape, dtype=float)
        for fi, dom in enumerate(self.domains):
            out[..., fi] = dom[idx[..., fi]]
        return out

    def to_states(self, idx: np.ndarray) -> list[UserState]:
        codes = self.decode(idx)
        return [UserState(tuple(int(v) for v in row)) for row in codes]

    def perturb_rows(
        self, base: np.ndarray, rng: np.random.Generator, hamming: int = 2
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
    """Per column: (min value, min row index, second-min value).

    Ties go to the lowest row index; with a single row the second-min is inf.
    """
    min_idx = entries.argmin(axis=0)
    cols = np.arange(entries.shape[1])
    min_vals = entries[min_idx, cols]
    if entries.shape[0] == 1:
        return min_vals, min_idx, np.full(entries.shape[1], INF)
    masked = entries.copy()
    masked[min_idx, cols] = INF
    second_vals = masked.min(axis=0)
    return min_vals, min_idx, second_vals


class _ColumnCache:
    """Cached per-column min/second-min of the best-set cost matrix,
    recomputed in full when a row is replaced."""

    def __init__(self, entries: np.ndarray):
        self.entries = entries
        self.min_vals, self.min_idx, self.second_vals = _column_minima(entries)

    def replace_row(self, p: int, new_row: np.ndarray) -> None:
        self.entries[p] = new_row
        self.min_vals, self.min_idx, self.second_vals = _column_minima(self.entries)


def compute_benefits(
    best_costs: np.ndarray,
    cand_costs: np.ndarray,
    cache: Optional[_ColumnCache] = None,
) -> np.ndarray:
    """(N, N) benefit of every (best member p, candidate q) single replacement.

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
    cb = np.asarray(best_costs, dtype=float)
    cc = np.asarray(cand_costs, dtype=float)
    if cb.ndim != 2 or cb.shape[1] != cc.shape[1]:
        raise ValueError(f"cost tables disagree on samples: {cb.shape} vs {cc.shape}")
    cb_c = np.minimum(cb, BIG)
    cc_c = np.minimum(cc, BIG)
    if cache is not None:
        min_vals, min_idx = cache.min_vals, cache.min_idx
        second_vals = cache.second_vals
    else:
        min_vals, min_idx, second_vals = _column_minima(cb_c)
    min_vals = np.minimum(min_vals, BIG)
    second_vals = np.minimum(second_vals, BIG)

    # deltas[q, r]: change in column r's minimum if its owner is replaced by q.
    deltas = min_vals[None, :] - np.minimum(cc_c, second_vals[None, :])
    covered = min_vals < BIG
    n_best, n_cand = cb.shape[0], cc.shape[0]
    benefits = np.zeros((n_best, n_cand))
    if not covered.all():
        benefits += deltas[:, ~covered].sum(axis=1)[None, :]
    exact_gains = None
    for p in range(n_best):
        owned = (min_idx == p) & covered
        if owned.any():
            benefits[p] += deltas[:, owned].sum(axis=1)
        else:
            if exact_gains is None:
                exact_gains = np.maximum(
                    min_vals[None, :] - cc_c, 0.0
                )[:, covered].sum(axis=1)
            benefits[p] += exact_gains
    return benefits


def select_swaps(benefits: np.ndarray) -> list[tuple[int, int]]:
    """At most one swap: the largest strictly positive entry, ties to the
    lexicographically smallest (p, q). Empty when nothing improves."""
    flat = int(np.argmax(benefits))
    p, q = divmod(flat, benefits.shape[1])
    if benefits[p, q] > 0.0:
        return [(p, q)]
    return []


def _apply_swaps(cache: _ColumnCache, cand_true: np.ndarray,
                 true_costs: np.ndarray, members: np.ndarray,
                 cand_members: np.ndarray, valid: np.ndarray,
                 cand_valid: np.ndarray) -> None:
    """Greedy loop: apply the single best positive swap, refresh, repeat."""
    cand_clamped = np.minimum(cand_true, BIG)
    while True:
        pairs = select_swaps(compute_benefits(cache.entries, cand_clamped, cache))
        if not pairs:
            return
        p, q = pairs[0]
        members[p] = cand_members[q]
        valid[p] = cand_valid[q]
        true_costs[p] = cand_true[q]
        cache.replace_row(p, cand_clamped[q])


def search_rng(seed: int, user_key: int = 0, restart: int = 0) -> np.random.Generator:
    """Perturbation stream for one (seed, user, restart) triple."""
    return np.random.default_rng(
        np.random.SeedSequence([SEARCH_STREAM, seed, user_key, restart])
    )


def _priced_rows(idx: np.ndarray, samples: CostSampleSet, valid: np.ndarray) -> np.ndarray:
    rows = cost_rows(idx, samples)
    rows[~valid] = INF
    return rows


def cols(
    s_u: UserState,
    classifier: Classifier,
    samples: CostSampleSet,
    schema: DatasetSchema,
    config: SearchConfig,
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
    meter = meter if meter is not None else BudgetMeter(config.budget)
    rng = rng if rng is not None else search_rng(config.seed, user_key)
    n = config.set_size
    if meter.remaining < n:
        raise ValueError("budget cannot cover the initial set")

    members = ws.perturb_rows(np.tile(ws.user_idx, (n, 1)), rng,
                              config.hamming_distance)
    valid = predict_batch(classifier, ws.decode(members), meter) == 1
    true_costs = _priced_rows(members, samples, valid)
    cache = _ColumnCache(np.minimum(true_costs, BIG))
    trace = [emc_of_matrix(true_costs)]

    while True:
        cand_members = ws.perturb_rows(members, rng, config.hamming_distance)
        try:
            cand_valid = predict_batch(classifier, ws.decode(cand_members), meter) == 1
        except BudgetExhausted:
            break
        cand_true = _priced_rows(cand_members, samples, cand_valid)
        _apply_swaps(cache, cand_true, true_costs, members, cand_members,
                     valid, cand_valid)
        trace.append(emc_of_matrix(true_costs))

    recourse_set = RecourseSet(
        members=tuple(ws.to_states(members)), validity=tuple(bool(v) for v in valid)
    )
    return SearchResult(
        recourse_set=recourse_set,
        cost_matrix=true_costs,
        trace=trace,
        queries_used=meter.used,
        emc=trace[-1],
    )


def pcols(
    s_u: UserState,
    classifier: Classifier,
    samples: CostSampleSet,
    schema: DatasetSchema,
    config: SearchConfig,
    user_key: int = 0,
) -> SearchResult:
    """Independent restarts of `cols`, each on budget // restarts queries and
    its own RNG sub-stream; the run with the least objective wins (ties to
    the lowest restart index)."""
    sub_budget = config.budget // config.restarts
    if sub_budget < config.set_size:
        raise ValueError(
            f"budget {config.budget} over {config.restarts} restarts cannot "
            f"cover set size {config.set_size}"
        )
    best: Optional[SearchResult] = None
    emcs: list[float] = []
    queries: list[int] = []
    for r in range(config.restarts):
        run = cols(
            s_u,
            classifier,
            samples,
            schema,
            config,
            meter=BudgetMeter(sub_budget),
            rng=search_rng(config.seed, user_key, r),
        )
        emcs.append(run.emc)
        queries.append(run.queries_used)
        if best is None or run.emc < best.emc:
            best = run
    assert best is not None
    best.restart_emcs = emcs
    best.restart_queries = queries
    best.queries_used = sum(queries)
    return best


def random_search(
    s_u: UserState,
    classifier: Classifier,
    samples: CostSampleSet,
    schema: DatasetSchema,
    config: SearchConfig,
    meter: Optional[BudgetMeter] = None,
    user_key: int = 0,
) -> SearchResult:
    """Whole-set baseline: draw N states uniformly from the feasible product
    space each iteration and keep the candidate set only if its objective
    beats the incumbent's."""
    ws = _Workspace(s_u, schema)
    meter = meter if meter is not None else BudgetMeter(config.budget)
    rng = search_rng(config.seed, user_key)
    n = config.set_size
    if meter.remaining < n:
        raise ValueError("budget cannot cover the initial set")

    members = ws.uniform_rows(n, rng)
    valid = predict_batch(classifier, ws.decode(members), meter) == 1
    costs = _priced_rows(members, samples, valid)
    trace = [emc_of_matrix(costs)]

    while True:
        cand_members = ws.uniform_rows(n, rng)
        try:
            cand_valid = predict_batch(classifier, ws.decode(cand_members), meter) == 1
        except BudgetExhausted:
            break
        cand_costs = _priced_rows(cand_members, samples, cand_valid)
        if emc_of_matrix(cand_costs) < emc_of_matrix(costs):
            members, valid, costs = cand_members, cand_valid, cand_costs
        trace.append(emc_of_matrix(costs))

    recourse_set = RecourseSet(
        members=tuple(ws.to_states(members)), validity=tuple(bool(v) for v in valid)
    )
    return SearchResult(
        recourse_set=recourse_set,
        cost_matrix=costs,
        trace=trace,
        queries_used=meter.used,
        emc=trace[-1],
    )


def _set_objective(
    objective: str,
    ws: _Workspace,
    members: np.ndarray,
    valid: np.ndarray,
    samples: Optional[CostSampleSet],
) -> float:
    """Score to maximize. Sets without a single valid member score -inf,
    mirroring the hard validity constraint on recourse."""
    if not valid.any():
        return -INF
    if objective == "emc":
        return -emc_of_matrix(_priced_rows(members, samples, valid))
    from .evaluate import set_distance_stats

    div, prox, spar = set_distance_stats(ws.s_u, ws.to_states(members), ws.schema)
    return {"diversity": div, "proximity": prox, "sparsity": spar}[objective]


def local_search(
    s_u: UserState,
    classifier: Classifier,
    schema: DatasetSchema,
    objective: str,
    config: SearchConfig,
    meter: Optional[BudgetMeter] = None,
    samples: Optional[CostSampleSet] = None,
    user_key: int = 0,
) -> SearchResult:
    """Plain hill climbing on whole sets for a configurable objective.

    Same perturbation neighborhood as `cols`, but a candidate set is taken
    only when its objective strictly improves on the incumbent set's; there
    is no per-member swapping. The emc objective is minimized and needs a
    sample set; diversity, proximity, and sparsity are maximized.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    if objective == "emc" and samples is None:
        raise ValueError("the emc objective requires a cost sample set")
    ws = _Workspace(s_u, schema)
    meter = meter if meter is not None else BudgetMeter(config.budget)
    rng = search_rng(config.seed, user_key)
    n = config.set_size
    if meter.remaining < n:
        raise ValueError("budget cannot cover the initial set")

    members = ws.perturb_rows(np.tile(ws.user_idx, (n, 1)), rng,
                              config.hamming_distance)
    valid = predict_batch(classifier, ws.decode(members), meter) == 1
    score = _set_objective(objective, ws, members, valid, samples)
    trace = [score]

    while True:
        cand_members = ws.perturb_rows(members, rng, config.hamming_distance)
        try:
            cand_valid = predict_batch(classifier, ws.decode(cand_members), meter) == 1
        except BudgetExhausted:
            break
        cand_score = _set_objective(objective, ws, cand_members, cand_valid, samples)
        if cand_score > score:
            members, valid, score = cand_members, cand_valid, cand_score
        trace.append(score)

    recourse_set = RecourseSet(
        members=tuple(ws.to_states(members)), validity=tuple(bool(v) for v in valid)
    )
    final_costs = (
        _priced_rows(members, samples, valid) if samples is not None else None
    )
    return SearchResult(
        recourse_set=recourse_set,
        cost_matrix=final_costs,
        trace=trace,
        queries_used=meter.used,
        emc=emc_of_matrix(final_costs) if final_costs is not None else INF,
    )
