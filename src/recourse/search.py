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
in lockstep: one loop holds an (R, N, d) tensor of member positions and
(R, N, M) tensors of their raw rows and costs, and each iteration makes
one classifier query and one pricing of R * N candidates, then greedy
rounds of one benefit computation and one swap selection over all
restarts. One meter of
R * (B // R) queries serves all restarts: each spends N queries per
iteration, so the shared meter runs out on the same iteration as R meters
of B // R would.

The best sets change only when a swap is applied, so the loop holds their
column statistics (`column_stats`: minimum, second minimum, coverage,
one-hot ownership and idle rows) and `compute_benefits` does only the
candidate-dependent work. After a swap the statistics of the restarts
that swapped are recomputed in full, never patched, so ties on a column's
minimum keep going to the lowest row. Before every greedy round a screen
(`can_swap`) keeps only the restarts with some valid candidate's cost
strictly below a held column minimum, and the rounds end when it keeps
none. It reads the candidates' raw rows with their validity as a mask,
and only the rounds that compute benefits build the priced candidate
table, which `compute_benefits` clamps once: every held minimum is at
most BIG, so a raw entry beats it exactly when the cost clamped to BIG
does. The screen is exact: a candidate at or above
the minimum in every column has min(candidate, second best) >= minimum
there, so each of its deltas is a difference x - y with x <= y, which
IEEE arithmetic keeps <= 0, its idle-row gains are 0, and the sums over
those terms stay <= 0; no entry is strictly positive. It drops whole
restarts only, so the benefit tables keep their shape and their last
bits. Within one iteration a restart that did not swap keeps its costs
and candidates, so later rounds also skip it. The objective trace is
read from the held statistics, and an iteration without a swap repeats
the previous values.

A candidate is its parent member with k = HAMMING features moved, so it
is priced from the parent's raw row (`_price_moves`): the row plus, per
move, the new position's table entry minus the old one's: four gathers
and four adds of R * N rows, however many features the members have
moved. A raw row sums a table in which BIG = 2**20 stands in for an
infeasible move. A feasible row sums d costs of at most 1, far below
BIG, so a raw row is BIG or more exactly where a move is infeasible: it
clamps to BIG as inf does, `can_swap` never lets it beat a held minimum
(at most BIG), and `_costs` turns it back into inf. Every cost is a
multiple of `cost.QUANTUM` and every raw row a multiple no larger than
d * BIG, far inside a double's exact range, so each add and subtract is
exact and the candidate's raw row is bit for bit the `cost_rows` sum of
its positions, with BIG or more where that sum is inf. The user state's
raw row is all zeros, so the first set is priced by the same rule, and a
swap copies the candidate's raw row with its position, validity and
cost. `local_search` prices a perturbed set from the incumbent's raw
rows the same way; only `random`'s whole new sets are priced by
`cost_rows`.

Perturbation is planned a chunk of calls at a time (`_Workspace.plan`).
A call resamples two features of each of the R * N rows, and restart r
pays for it with one uniform (N, m + 2) block from its own (seed, user, r)
stream, m being the number of movable features: the argsort of the first
m columns picks the two features, and the last two, scaled by each
feature's count of feasible positions, pick their new positions. The
blocks never depend on the rows, only the rows they overwrite do. So
restart r draws the blocks of CHUNK calls as one (CHUNK, N, m + 2) array,
which reads its stream exactly as CHUNK successive blocks do, and one
argsort and one scaling per chunk give every call's flat indices and new
positions; an iteration only copies its rows and writes 2 * R * N entries.
A chunk covers no more calls than the meter can still pay for, plus the
one call that finds it exhausted, so every stream ends where per-call
draws leave it. Every restart reads the same amount on every call, so it
equals `_lockstep` run alone on its stream and B // R queries.

`random_search` and `local_search` are the baselines used for ablations.
Both keep a whole candidate set only when its loss is strictly below the
incumbent's. `local_search` is a hill climb: it perturbs every member of
the incumbent like `cols` does and classifies each candidate set in one
query. A `random_search` set is N states drawn uniformly from the
feasible product space and never depends on the incumbent, so the run is
one array program: it draws all B // N sets in stream order, classifies
them in one query and prices each with `cost_rows`; its trace is the
running minimum of their losses and its incumbent the first set at the
least one.

Every optimizer minimizes, and every trace holds the value minimized. For
the emc objective that is `cost.emc`, the one definition of the objective:
`_lockstep` reads it from the held column statistics, `random_search`
and `local_search` from the priced sets. `local_search`'s distance
objectives are minimized as losses, the negated diversity, proximity or
sparsity.

Every optimizer takes the same `GenerationSettings` (method, budget, set
size, restarts, seed; the other fields drive cost sampling) and has the
signature `fn(state, classifier, samples, schema, settings, user_key=0)`,
`state` the user's (d,) int64 code row. Members are searched as domain
positions (`DatasetSchema.positions`), and the result holds the recourse
set as two arrays, the (N, d) int64 feature codes of the members
(`DatasetSchema.codes`) and their (N,) bool validity flags, which is also
the form evaluation scores and result documents store.
Beside the set a result keeps only its trace, the queries it used and its
final objective; the members' costs are one `cost_rows` call away.

Each batch of members or candidates is classified in one metered
`predict_batch` call on its domain positions. A run encodes every domain
position of every feature once (`model.EncodedView`), so a batch's model
inputs are one gather, and each row gets the verdict `Classifier.prob`
gives its codes, bit for bit. Candidates predicted to the undesired class
are not discarded: their cost rows are set to infinity, which keeps them
out of every column minimum and therefore out of every positive-benefit
swap. Infinite costs are clamped to a large finite sentinel inside the
benefit bookkeeping only, so that uncovered samples (all-infinite
columns) trade off sanely against finite costs without producing
inf - inf artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .cost import (
    MAX_SAMPLES,
    SEARCH_STREAM,
    CostSampleSet,
    check_alpha,
    cost_rows,
    emc,
    stream_rng,
)
from .evaluate import set_distance_stats
from .model import BudgetExhausted, BudgetMeter, Classifier, EncodedView, predict_batch
from .schema import DatasetSchema, feasible_positions

INF = math.inf

# Finite stand-in for infinite costs inside benefit sums and for an
# infeasible move in raw rows (`_price_moves`). Any value far above the
# largest possible finite transition cost (= feature count) works; a power
# of two keeps every benefit sum of cost quanta exact (see `cost`).
BIG = float(2**20)

# Features each perturbation resamples per member.
HAMMING = 2

# Perturbation calls a run draws at once (see `_Workspace.plan`).
CHUNK = 64

METHODS = ("cols", "pcols", "random", "ls:emc", "ls:diversity", "ls:proximity", "ls:sparsity")


@dataclass
class GenerationSettings:
    """One user's run: the optimizer and its inputs, and how to sample the
    user's cost functions."""

    method: str = "cols"
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
        for name in ("budget", "set_size", "restarts", "num_samples"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.num_samples > MAX_SAMPLES:
            raise ValueError(
                f"num_samples must be at most {MAX_SAMPLES}, got {self.num_samples}: "
                f"benefit sums over more samples are no longer exact"
            )
        # Only pcols splits the budget; every run must pay for its first set.
        split = self.restarts if self.method == "pcols" else 1
        if self.budget // split < self.set_size:
            over = f" over {split} restarts" if split > 1 else ""
            raise ValueError(
                f"budget {self.budget}{over} cannot cover set size {self.set_size}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.editable is not None and not self.editable:
            raise ValueError("editable must name at least one feature, or be None to draw it")
        check_alpha(self.alpha)

    @property
    def objective(self) -> str:
        """The objective the method minimizes: an `ls:` name's suffix, else emc."""
        return self.method.partition(":")[2] or "emc"

    @property
    def prices_samples(self) -> bool:
        """Whether the optimizer prices sampled cost functions, as emc does."""
        return self.objective == "emc"


@dataclass
class SearchResult:
    """A recourse set of N options as arrays, (N, d) int64 feature codes and
    per member whether the model predicts it to the desired class, with the
    search's trace, the queries it used and its final objective."""

    members: np.ndarray  # (N, d) int64
    validity: np.ndarray  # (N,) bool
    trace: list[float]
    queries_used: int
    emc: float


class _Workspace:
    """Per-user precomputation: the positions of code row `state` and its moves."""

    def __init__(self, state: np.ndarray, schema: DatasetSchema):
        self.schema = schema
        self.state = state
        self.user_idx = schema.positions(state)
        self.movable = np.array(schema.mutable_indices(), dtype=np.intp)
        if not len(self.movable):
            raise ValueError("schema has no non-immutable features to perturb")
        # (d, max feasible) table of each feature's feasible domain positions,
        # padded past its n_choices[f] entries.
        feasible = [feasible_positions(schema, fi, v) for fi, v in enumerate(state.tolist())]
        self.n_choices = np.array([len(c) for c in feasible], dtype=np.intp)
        self.feasible = np.zeros((len(feasible), self.n_choices.max()), dtype=np.intp)
        for fi, choices in enumerate(feasible):
            self.feasible[fi, : len(choices)] = choices

    def _draw(
        self, rngs: Sequence[np.random.Generator], n: int, calls: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(calls, R * n * k) flat indices into (R, n, d) rows, the
        positions to write there and the cost-table row offsets of their
        features, for `calls` successive perturbations that each resample
        k = min(HAMMING, m) distinct movable features of every row from
        their feasible sets. Restart r draws the uniform (n, m + k) blocks
        of all calls from rngs[r] at once: the first m columns of a block
        rank the features, its last k pick the new positions."""
        m = len(self.movable)
        k = min(HAMMING, m)
        u = np.empty((len(rngs), calls, n, m + k))
        for blocks, rng in zip(u, rngs, strict=True):
            rng.random(out=blocks)
        feats = self.movable[np.argsort(u[..., :m], axis=-1)[..., :k]]
        pos = (u[..., m:] * self.n_choices[feats]).astype(np.intp)
        rows = np.arange(len(rngs))[:, None, None, None] * n + np.arange(n)[:, None]
        where = rows * len(self.user_idx) + feats
        return tuple(a.swapaxes(0, 1).reshape(calls, -1) for a in
                     (where, self.feasible[feats, pos], self.schema.offsets[feats]))

    def plan(
        self, rngs: Sequence[np.random.Generator], n: int, meter: BudgetMeter
    ) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """A run's perturbation: each call of the returned function perturbs
        (R, n, d) rows (or (n, d) rows when R = 1) from the next call's
        draws, and returns the perturbed rows with the cost-table rows
        each row's k moves leave and enter, both (R, n, k) (or (n, k)), as
        `_price_moves` takes them. The draws come CHUNK calls at a time,
        but never more calls than `meter` can still pay for (R * n queries
        each) plus the one that finds it exhausted, so every stream ends
        where per-call draws leave it. On a meter that pays for nothing
        every chunk is one call."""
        per_call = len(rngs) * n

        def chunks():
            while True:
                calls = min(CHUNK, meter.remaining // per_call + 1)
                yield from zip(*self._draw(rngs, n, calls))

        moves = chunks()

        def perturb(base: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
            where, vals, offsets = next(moves)
            out = np.array(base, dtype=np.intp, order="C")
            flat = out.reshape(-1)
            moved = (*out.shape[:-1], -1)
            left = (flat[where] + offsets).reshape(moved)
            flat[where] = vals
            return out, left, (vals + offsets).reshape(moved)

        return perturb

    def uniform_rows(self, k: int, n: int, rng: np.random.Generator) -> np.ndarray:
        """(k, n, d) positions: k sets of n states drawn uniformly from the
        feasible product space, in one `integers` call that reads the
        stream as k * d calls of n draws each do, set by set and feature by
        feature (a one-choice feature draws nothing)."""
        d = len(self.n_choices)
        pos = rng.integers(np.broadcast_to(self.n_choices[:, None], (k, d, n)))
        return self.feasible[np.arange(d), pos.swapaxes(1, 2)]


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


def _refresh(stats: ColumnStats, costs: np.ndarray, restarts: np.ndarray) -> ColumnStats:
    """Recompute in full, in place, the held statistics of the restarts
    whose (N, M) tables in `costs` changed; returns theirs alone."""
    fresh = column_stats(costs[restarts])
    for held, new in zip(stats, fresh):
        held[restarts] = new
    return fresh


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


def can_swap(stats: ColumnStats, cand_raw: np.ndarray, cand_valid: np.ndarray) -> np.ndarray:
    """(R,) screen for `compute_benefits` over R restarts: whether some
    valid candidate of restart r, its (Nc, M) raw rows (`_price_moves`)
    masked by its (Nc,) validity, costs strictly less than its column's
    held minimum somewhere. The held minima are at most BIG, so a raw
    entry beats one exactly when the priced cost, inf where a raw row is
    BIG or more, does. A restart it rejects has no strictly positive
    benefit entry (see `_lockstep`)."""
    beats = (cand_raw < stats.min_vals[..., None, :]).any(axis=-1)
    return (beats & cand_valid).any(axis=-1)


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


def _classify(model: EncodedView, idx: np.ndarray, meter: BudgetMeter) -> np.ndarray:
    """Validity of (..., d) member positions, in one metered model query."""
    rows = idx.reshape(-1, idx.shape[-1])
    return predict_batch(model, rows, meter).reshape(idx.shape[:-1])


def _raw_table(samples: CostSampleSet) -> np.ndarray:
    """The (W, M) table raw rows add: each cost, with BIG for inf."""
    return np.minimum(samples.table, BIG)


def _price_moves(parent: np.ndarray, table: np.ndarray, left: np.ndarray,
                 entered: np.ndarray) -> np.ndarray:
    """(..., M) raw rows of perturbed members: each member's parent raw row
    (broadcast against (..., M); the user state's is 0.0) plus, per move j,
    `table[entered[..., j]] - table[left[..., j]]`, for (..., k) table rows
    of the `_raw_table` (W, M) `table`. A raw row is its member's sum of
    table entries, BIG for an infeasible one, so it is BIG or more exactly
    where `cost_rows` gives inf and equals the `cost_rows` sum elsewhere:
    the entries are multiples of `cost.QUANTUM` no larger than BIG, so
    every partial sum of a row's few dozen terms is exact."""
    out = parent + table.take(entered[..., 0], axis=0)
    out -= table.take(left[..., 0], axis=0)
    for j in range(1, entered.shape[-1]):
        out += table.take(entered[..., j], axis=0)
        out -= table.take(left[..., j], axis=0)
    return out


def _costs(raw: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """(..., M) costs of raw rows: inf where the member is invalid or some
    move infeasible (the raw row BIG or more), the raw row elsewhere."""
    return np.where(valid[..., None] & (raw < BIG), raw, INF)


def _lockstep(
    ws: _Workspace,
    classifier: Classifier,
    samples: CostSampleSet,
    n: int,
    meter: BudgetMeter,
    rngs: list[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray, list[list[float]]]:
    """COLS restarts run side by side, restart r perturbing from rngs[r].

    Each iteration perturbs every restart, classifies all R * N candidates
    in one query and prices each from its parent member's raw row
    (`_price_moves`), then applies greedy rounds of the single best
    positive swap per restart until no restart has one left. Each round
    first drops the restarts `can_swap` rejects, since none of their
    candidates beats a held column minimum and so none has a positive
    benefit; a round with no restart left is not run. The loop ends when
    `meter` cannot pay for every restart's candidate batch. Returns the
    (R, N, d) members, (R, N) validity and R traces, each restart's `emc`
    after every iteration, read from its held statistics with the
    uncovered columns' minima restored to inf.
    """
    model = EncodedView(classifier, ws.schema)
    table = _raw_table(samples)
    perturb = ws.plan(rngs, n, meter)
    members, left, entered = perturb(
        np.broadcast_to(ws.user_idx, (len(rngs), n, len(ws.user_idx))))
    valid = _classify(model, members, meter)
    raw = _price_moves(0.0, table, left, entered)
    costs = _costs(raw, valid)
    stats = column_stats(costs)
    traces = [[] for _ in rngs]
    everyone = np.arange(len(rngs))
    swapped = True

    while True:
        if swapped:
            values = emc(np.where(stats.covered, stats.min_vals, INF)).tolist()
        for trace, value in zip(traces, values):
            trace.append(value)
        cand, left, entered = perturb(members)
        try:
            cand_valid = _classify(model, cand, meter)
        except BudgetExhausted:
            break
        cand_raw = _price_moves(raw, table, left, entered)
        # Greedy rounds. Each starts by screening out the restarts with no
        # valid candidate below a held column minimum, which cannot swap;
        # after a swap only the restarts that swapped stay, with the
        # statistics `_refresh` computed for them. While every restart is
        # active the held statistics are used as they are.
        active, sub_stats, sub_raw, sub_valid = everyone, stats, cand_raw, cand_valid
        swapped = False
        while True:
            beats = can_swap(sub_stats, sub_raw, sub_valid)
            if not beats.all():
                active = active[beats]
                if not len(active):
                    break
                sub_stats = stats.take(active)
                sub_raw, sub_valid = cand_raw[active], cand_valid[active]
            sub_costs = _costs(sub_raw, sub_valid)
            swaps = select_swaps(compute_benefits(sub_stats, sub_costs))
            if not swaps:
                break
            local, p, q = np.array(swaps).T
            r = active[local]
            members[r, p] = cand[r, q]
            valid[r, p] = cand_valid[r, q]
            raw[r, p] = cand_raw[r, q]
            costs[r, p] = sub_costs[local, q]
            fresh = _refresh(stats, costs, r)
            swapped = True
            if len(r) < len(everyone):
                active, sub_stats = r, fresh
                sub_raw, sub_valid = cand_raw[r], cand_valid[r]
    return members, valid, traces


def cols(
    state: np.ndarray,
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
    return pcols(state, classifier, samples, schema, one, user_key)


def pcols(
    state: np.ndarray,
    classifier: Classifier,
    samples: CostSampleSet,
    schema: DatasetSchema,
    settings: GenerationSettings,
    user_key: int = 0,
) -> SearchResult:
    """Independent COLS restarts, each on budget // restarts queries and its
    own RNG sub-stream, run in lockstep; the run with the least objective
    wins (ties to the lowest restart index)."""
    # Validated as pcols whatever method it names: the split budget must
    # cover the set.
    settings = replace(settings, method="pcols")
    restarts = settings.restarts
    ws = _Workspace(state, schema)
    meter = BudgetMeter(restarts * (settings.budget // restarts))
    rngs = [stream_rng(SEARCH_STREAM, settings.seed, r, user_key) for r in range(restarts)]
    members, valid, traces = _lockstep(
        ws, classifier, samples, settings.set_size, meter, rngs
    )
    finals = [trace[-1] for trace in traces]
    win = finals.index(min(finals))
    return SearchResult(schema.codes(members[win]), valid[win], traces[win], meter.used,
                        finals[win])


def _set_loss(
    objective: str,
    ws: _Workspace,
    members: np.ndarray,
    valid: np.ndarray,
    raw: Optional[np.ndarray],
) -> float:
    """The loss a whole-set search minimizes: the `emc` of the set's (N, M)
    raw rows (or `cost_rows` table) priced by `_costs`, invalid members
    costing inf, or the negated diversity, proximity or sparsity. A set
    without a single valid member has loss inf, mirroring the hard
    validity constraint on recourse."""
    if objective == "emc":
        return float(emc(_costs(raw, valid).min(axis=0)))
    if not valid.any():
        return INF
    div, prox, spar = set_distance_stats(ws.state, ws.schema.codes(members), ws.schema)
    return -{"diversity": div, "proximity": prox, "sparsity": spar}[objective]


def random_search(
    state: np.ndarray,
    classifier: Classifier,
    samples: CostSampleSet,
    schema: DatasetSchema,
    settings: GenerationSettings,
    user_key: int = 0,
) -> SearchResult:
    """Whole-set baseline: B // N sets of N states drawn uniformly from the
    feasible product space by one `uniform_rows` call, all classified in
    one metered query and each priced with `cost_rows`. A set replaces the
    incumbent only when its EMC is strictly lower, so the trace, the
    incumbent's EMC after every set, is the running minimum of the sets'
    EMCs, and the incumbent is the first set at the least."""
    ws = _Workspace(state, schema)
    rng = stream_rng(SEARCH_STREAM, settings.seed, 0, user_key)
    n = settings.set_size
    meter = BudgetMeter(settings.budget)
    sets = ws.uniform_rows(settings.budget // n, n, rng)
    valid = _classify(EncodedView(classifier, schema), sets, meter)
    losses = np.array([_set_loss("emc", ws, cand, cand_valid, cost_rows(cand, samples))
                       for cand, cand_valid in zip(sets, valid)])
    trace = np.minimum.accumulate(losses)
    best = int(losses.argmin())
    return SearchResult(schema.codes(sets[best]), valid[best], trace.tolist(), meter.used,
                        float(trace[-1]))


def local_search(
    state: np.ndarray,
    classifier: Classifier,
    samples: Optional[CostSampleSet],
    schema: DatasetSchema,
    settings: GenerationSettings,
    user_key: int = 0,
) -> SearchResult:
    """Plain hill climbing on whole sets for the objective `settings.method`
    names: `ls:emc`, `ls:diversity`, `ls:proximity` or `ls:sparsity`.

    Same perturbation neighborhood as `cols`: each candidate set perturbs
    every member of the incumbent through the workspace's plan (the first
    from N copies of the user state), and replaces the incumbent only when
    its loss (`_set_loss`) is strictly lower; there is no per-member
    swapping. The loop ends when the budget cannot pay for a candidate
    set, and the trace holds the incumbent's loss after every iteration:
    the EMC, or the negated diversity, proximity or sparsity of the set.
    Only `ls:emc` prices sets, each from the incumbent's raw rows
    (`_price_moves`), and reads `samples`, which may otherwise be None;
    its final loss is the result's emc, and the other objectives report an
    emc of inf.
    """
    ws = _Workspace(state, schema)
    model = EncodedView(classifier, schema)
    rng = stream_rng(SEARCH_STREAM, settings.seed, 0, user_key)
    n, objective = settings.set_size, settings.objective
    meter = BudgetMeter(settings.budget)
    perturb = ws.plan([rng], n, meter)
    table = _raw_table(samples) if objective == "emc" else None

    def propose(members: np.ndarray, raw) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """A candidate set, its validity from one metered query, and its raw
        rows when the objective prices them."""
        cand, left, entered = perturb(members)
        cand_valid = _classify(model, cand, meter)
        if table is None:
            return cand, cand_valid, None
        return cand, cand_valid, _price_moves(raw, table, left, entered)

    members, valid, raw = propose(np.tile(ws.user_idx, (n, 1)), 0.0)
    loss = _set_loss(objective, ws, members, valid, raw)
    trace = [loss]

    while True:
        try:
            cand, cand_valid, cand_raw = propose(members, raw)
        except BudgetExhausted:
            break
        cand_loss = _set_loss(objective, ws, cand, cand_valid, cand_raw)
        if cand_loss < loss:
            members, valid, raw, loss = cand, cand_valid, cand_raw, cand_loss
        trace.append(loss)

    final = loss if objective == "emc" else INF
    return SearchResult(schema.codes(members), valid, trace, meter.used, final)
