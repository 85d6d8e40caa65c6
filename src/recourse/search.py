"""Recourse-set optimizers.

`cols` (COLS) is the workhorse: it keeps a best set of N counterfactuals,
perturbs each member (two features at a time) to propose candidates, prices
every member and candidate against all M sampled cost functions, and then
swaps candidates in one at a time whenever the bookkept benefit of a
replacement is strictly positive. The benefit of replacing best-set member
p with candidate q is accounted per sample over the columns whose current
minimum is row p: the column either improves to the candidate's cost or
falls back to the second-best member, whichever is cheaper. Only strictly
positive swaps apply, so the objective never increases across iterations.

`pcols` (PCOLS) splits the query budget over R independent COLS restarts
and keeps the best run, and `cols` is `pcols` with R = 1. The restarts run
in lockstep: one loop holds an (R, N, d) tensor of member positions and an
(R, N, M) cost tensor, and each iteration makes one classifier query and
one pricing gather of R * N rows, then greedy rounds of one benefit
computation and one swap selection over all restarts. One meter of
R * (B // R) queries serves all restarts: each spends N queries per
iteration, so the shared meter runs out on the same iteration as R meters
of B // R would.

The best sets change only when a swap is applied, so the loop holds their
column statistics (`column_stats`: minimum, second minimum, coverage,
one-hot ownership and idle rows) and `compute_benefits` does only the
candidate-dependent work. After a swap the statistics of the restarts
that swapped are recomputed in full, never patched, so ties on a column's
minimum keep going to the lowest row. Before every greedy round a screen
(`can_swap`) keeps only the restarts with some candidate cost strictly
below a held column minimum, and the rounds end when it keeps none. It
reads the raw candidate costs and `compute_benefits` clamps them once:
every held minimum is at most BIG, so a cost beats it exactly when the
cost clamped to BIG does. The screen is exact: a candidate at or above
the minimum in every column has min(candidate, second best) >= minimum
there, so each of its deltas is a difference x - y with x <= y, which
IEEE arithmetic keeps <= 0, its idle-row gains are 0, and the sums over
those terms stay <= 0; no entry is strictly positive. It drops whole
restarts only, so the benefit tables keep their shape and their last
bits. Within one iteration a restart that did not swap keeps its costs
and candidates, so later rounds also skip it. The objective trace is
read from the held statistics, and an iteration without a swap repeats
the previous values.

Perturbation is one draw for all R * N rows. Restart r reads one uniform
(N, m + 2) block from its own (seed, user, r) stream per call, m being the
number of movable features: the argsort of the first m columns picks the
two features to resample, and the last two, scaled by each feature's count
of feasible positions, pick their new positions. Every restart reads the same
amount on every call, so it equals `_lockstep` run alone on its stream and
B // R queries.

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
Members are searched as domain positions (`DatasetSchema.positions`), and
the result holds the recourse set as two arrays, the (N, d) int64 feature
codes of the members (`DatasetSchema.codes`) and their (N,) bool validity
flags, which is also the form evaluation scores and result documents store.

Candidates predicted to the undesired class are not discarded: their cost
rows are set to infinity, which keeps them out of every column minimum and
therefore out of every positive-benefit swap. Infinite costs are clamped to
a large finite sentinel inside the benefit bookkeeping only, so that
uncovered samples (all-infinite columns) trade off sanely against finite
costs without producing inf - inf artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .cost import (SEARCH_STREAM, CostSampleSet, check_alpha, cost_rows, emc_of_matrix,
                   stream_rng)
from .evaluate import set_distance_stats
from .model import BudgetExhausted, BudgetMeter, Classifier, predict_batch
from .schema import DatasetSchema, UserState, feasible_positions

INF = math.inf

# Finite stand-in for infinite costs inside benefit sums. Any value far above
# the largest possible finite transition cost (= feature count) works; a
# power of two keeps the cancellation (x - BIG) + (BIG - y) near-exact.
BIG = float(2**20)

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
        if self.method != "ls" and self.objective != "emc":
            raise ValueError(
                f"method {self.method!r} optimizes the emc objective only, "
                f"not {self.objective!r}"
            )
        for name in ("budget", "set_size", "restarts", "num_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.restarts > self.budget:
            raise ValueError("more restarts than budget")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        check_alpha(self.alpha)

    @property
    def prices_samples(self) -> bool:
        """Whether the optimizer prices sampled cost functions: every method
        but `ls` with a distance objective does."""
        return self.method != "ls" or self.objective == "emc"


@dataclass(frozen=True, eq=False)
class RecourseSet:
    """N options as arrays: (N, d) int64 feature codes, and per member
    whether the model predicts it to the desired class."""

    members: np.ndarray  # (N, d) int64
    validity: np.ndarray  # (N,) bool

    def __post_init__(self):
        if len(self.members) == 0:
            raise ValueError("recourse set must have at least one member")
        if len(self.members) != len(self.validity):
            raise ValueError("one validity flag per member required")


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
    """Per-user precomputation: the positions of s_u and its feasible moves."""

    def __init__(self, s_u: UserState, schema: DatasetSchema):
        self.schema = schema
        self.s_u = s_u
        self.user_idx = schema.positions(s_u.values)
        self.movable = np.array(schema.mutable_indices(), dtype=np.intp)
        if not len(self.movable):
            raise ValueError("schema has no non-immutable features to perturb")
        # (d, max feasible) table of each feature's feasible domain positions,
        # padded past its n_choices[f] entries.
        feasible = [feasible_positions(schema, fi, v) for fi, v in enumerate(s_u.values)]
        self.n_choices = np.array([len(c) for c in feasible], dtype=np.intp)
        self.feasible = np.zeros((len(feasible), self.n_choices.max()), dtype=np.intp)
        for fi, choices in enumerate(feasible):
            self.feasible[fi, : len(choices)] = choices

    def perturb_rows(
        self, base: np.ndarray, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """Resample min(HAMMING, m) distinct movable features of every row of
        the (R, N, d) `base` from their feasible sets, restart r drawing from
        rngs[r]: one uniform (N, m + k) block per restart, whose first m
        columns rank the features and whose last k pick the new positions."""
        m = len(self.movable)
        k = min(HAMMING, m)
        n_restarts, n = base.shape[:2]
        u = np.empty((n_restarts, n, m + k))
        for block, rng in zip(u, rngs, strict=True):
            rng.random(out=block)
        feats = self.movable[np.argsort(u[..., :m], axis=-1)[..., :k]]
        pos = (u[..., m:] * self.n_choices[feats]).astype(np.intp)
        out = np.array(base, dtype=np.intp)
        out[np.arange(n_restarts)[:, None, None], np.arange(n)[:, None], feats] = (
            self.feasible[feats, pos]
        )
        return out

    def uniform_rows(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n states uniformly from the feasible product space."""
        pos = [rng.integers(c, size=n) for c in self.n_choices.tolist()]
        return self.feasible[np.arange(len(pos)), np.stack(pos, axis=1)]


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
    # The lowest row at each column's minimum; the second minimum is the
    # least entry with that row read as BIG, which no clamped entry exceeds.
    first = cb.argmin(axis=-2)[..., None, :] == np.arange(cb.shape[-2])[:, None]
    min_vals = cb.min(axis=-2)
    covered = min_vals < BIG
    own = first & covered[..., None, :]
    return ColumnStats(
        min_vals, np.where(first, BIG, cb).min(axis=-2), covered, own.astype(float),
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


def can_swap(stats: ColumnStats, cand_costs: np.ndarray) -> np.ndarray:
    """(R,) screen for `compute_benefits` over R restarts: whether some
    entry of restart r's (Nc, M) candidate table is strictly below its
    column's held minimum. The held minima are at most BIG, so clamping the
    candidates to BIG first gives the same screen. A restart it rejects
    has no strictly positive benefit entry (see `_lockstep`)."""
    return (cand_costs < stats.min_vals[..., None, :]).any(axis=(-2, -1))


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


def _classify(ws: _Workspace, classifier: Classifier, idx: np.ndarray,
              meter: BudgetMeter) -> np.ndarray:
    """Validity of (..., d) member positions, in one metered model query."""
    codes = ws.schema.codes(idx).reshape(-1, idx.shape[-1])
    return predict_batch(classifier, codes, meter).reshape(idx.shape[:-1]) == 1


def _priced_rows(idx: np.ndarray, samples: CostSampleSet, valid: np.ndarray) -> np.ndarray:
    """(..., M) costs of (..., d) member positions; invalid rows cost inf."""
    rows = cost_rows(idx.reshape(-1, idx.shape[-1]), samples)
    rows = rows.reshape(*idx.shape[:-1], samples.m)
    rows[~valid] = INF
    return rows


def _result(ws: _Workspace, members: np.ndarray, valid: np.ndarray,
            costs: Optional[np.ndarray], trace: list[float],
            queries_used: int, emc: float) -> SearchResult:
    return SearchResult(
        recourse_set=RecourseSet(ws.schema.codes(members), valid),
        cost_matrix=costs,
        trace=trace,
        queries_used=queries_used,
        emc=emc,
    )


def _held_emcs(stats: ColumnStats) -> list[float]:
    """Each restart's `emc_of_matrix` read from its held statistics: inf
    unless every column is covered, else the mean column minimum."""
    covered = stats.covered.all(-1).tolist()
    return [float(m.mean()) if c else INF for m, c in zip(stats.min_vals, covered)]


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
    positive swap per restart until no restart has one left. Each round
    first drops the restarts `can_swap` rejects, since none of their
    candidates beats a held column minimum and so none has a positive
    benefit; a round with no restart left is not run. The loop ends when
    `meter` cannot pay for every restart's candidate batch. Returns the
    (R, N, d) members, (R, N) validity, (R, N, M) costs and R traces.
    """
    start = np.broadcast_to(ws.user_idx, (len(rngs), n, len(ws.user_idx)))
    members = ws.perturb_rows(start, rngs)
    valid = _classify(ws, classifier, members, meter)
    costs = _priced_rows(members, samples, valid)
    stats = column_stats(costs)
    emcs = _held_emcs(stats)
    traces = [[emc] for emc in emcs]
    everyone = np.arange(len(rngs))

    while True:
        cand = ws.perturb_rows(members, rngs)
        try:
            cand_valid = _classify(ws, classifier, cand, meter)
        except BudgetExhausted:
            break
        cand_costs = _priced_rows(cand, samples, cand_valid)
        # Greedy rounds. Each starts by screening out the restarts with no
        # candidate below a held column minimum, which cannot swap; after a
        # swap only the restarts that swapped stay. While every restart is
        # active the held statistics are used as they are.
        active, sub_stats, sub_cand = everyone, stats, cand_costs
        swapped = False
        while True:
            beats = can_swap(sub_stats, sub_cand)
            if not beats.all():
                active = active[beats]
                if not len(active):
                    break
                sub_stats, sub_cand = stats.take(active), cand_costs[active]
            swaps = select_swaps(compute_benefits(sub_stats, sub_cand))
            if not swaps:
                break
            local, p, q = np.array(swaps).T
            r = active[local]
            members[r, p] = cand[r, q]
            valid[r, p] = cand_valid[r, q]
            costs[r, p] = cand_costs[r, q]
            _refresh(stats, costs, r)
            swapped = True
            if len(r) < len(everyone):
                active, sub_stats, sub_cand = r, stats.take(r), cand_costs[r]
        if swapped:
            emcs = _held_emcs(stats)
        for trace, emc in zip(traces, emcs):
            trace.append(emc)
    return members, valid, costs, traces


def cols(
    s_u: UserState,
    classifier: Classifier,
    samples: CostSampleSet,
    schema: DatasetSchema,
    settings: GenerationSettings,
    user_key: int = 0,
) -> SearchResult:
    """Cost-optimized local search over recourse sets: `pcols` with one
    restart, whatever `settings.restarts` says.

    Initializes the best set with N perturbations of the user state, then
    loops perturb -> classify -> price -> swap until the query budget can no
    longer pay for a candidate batch. The recorded objective trace is
    non-increasing; running out of budget mid-batch simply ends the loop.
    """
    one = replace(settings, restarts=1)
    return pcols(s_u, classifier, samples, schema, one, user_key)


def pcols(
    s_u: UserState,
    classifier: Classifier,
    samples: CostSampleSet,
    schema: DatasetSchema,
    settings: GenerationSettings,
    user_key: int = 0,
) -> SearchResult:
    """Independent COLS restarts, each on budget // restarts queries and its
    own RNG sub-stream, run in lockstep; the run with the least objective
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
    rngs = [stream_rng(SEARCH_STREAM, settings.seed, r, user_key) for r in range(restarts)]
    members, valid, costs, traces = _lockstep(
        ws, classifier, samples, settings.set_size, meter, rngs
    )
    emcs = [trace[-1] for trace in traces]
    win = emcs.index(min(emcs))
    best = _result(ws, members[win], valid[win], costs[win], traces[win],
                   meter.used, emcs[win])
    best.restart_emcs = emcs
    best.restart_queries = [meter.used // restarts] * restarts
    return best


def _set_objective(
    objective: str,
    ws: _Workspace,
    members: np.ndarray,
    valid: np.ndarray,
    samples: Optional[CostSampleSet],
) -> float:
    """Score to maximize: the negated EMC, or a distance metric. Sets
    without a single valid member score -inf, mirroring the hard validity
    constraint on recourse."""
    if not valid.any():
        return -INF
    if objective == "emc":
        return -emc_of_matrix(_priced_rows(members, samples, valid))
    div, prox, spar = set_distance_stats(ws.s_u, ws.schema.codes(members), ws.schema)
    return {"diversity": div, "proximity": prox, "sparsity": spar}[objective]


def _whole_set(
    s_u: UserState,
    classifier: Classifier,
    samples: Optional[CostSampleSet],
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
    objective prices sets; the others never read `samples`, which may be
    None."""
    ws = _Workspace(s_u, schema)
    rng = stream_rng(SEARCH_STREAM, settings.seed, 0, user_key)
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
    emc = emc_of_matrix(costs) if costs is not None else INF
    return _result(ws, members, valid, costs, trace, meter.used, emc)


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
    samples: Optional[CostSampleSet],
    schema: DatasetSchema,
    settings: GenerationSettings,
    user_key: int = 0,
) -> SearchResult:
    """Plain hill climbing on whole sets for `settings.objective`.

    Same perturbation neighborhood as `cols`, but a candidate set is taken
    only when its objective strictly improves on the incumbent set's; there
    is no per-member swapping. The trace records the maximized score: the
    negated EMC, or the diversity, proximity or sparsity of the set. Only
    the emc objective reads `samples`.
    """
    return _whole_set(
        s_u, classifier, samples, schema, settings, user_key, settings.objective,
        lambda ws, members, rng: ws.perturb_rows(members[None], [rng])[0],
    )
