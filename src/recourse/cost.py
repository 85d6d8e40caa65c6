"""User cost functions as arrays: hierarchical sampling, pricing, and the
expected-minimum-cost objective.

A `CostSampleSet` holds M cost functions for one user state in one
read-only (W, M) `table`, W = sum of the domain sizes |D_f| (57 on the
adult-like schema). Feature f owns rows `offsets[f]` to `offsets[f + 1]`
(`DatasetSchema.offsets`), one per domain position, and column i is sample
i: entry (offsets[f] + j, i) prices moving feature f from the user's value
to position j under sample i, a cost in [0, 1], 0 for the no-op and
infinity when infeasible. `costs[f]` is the (M, |D_f|) view
`table[offsets[f]:offsets[f + 1]].T`. `alpha` is (M,); `editable` (bool)
and `preferences` are (M, d).

Sampling is hierarchical: an editable feature subset, Dirichlet preference
scores over it, a mixing weight alpha between step-count (alpha=1) and
percentile-shift (alpha=0) difficulty, and a Beta draw per transition
around the blended mean. Each feature's targets, table rows and ordered raw
means come from `PercentileTable.moves`. Sample i of a batch is drawn from
`stream_rng(stream, seed, i, subkey)` alone, with these calls in this
order:

- the subset: `random(n)` over the n candidate features, keeping those
  below 0.5, repeated until one is kept;
- the preferences: `standard_exponential(k)` over the k chosen features,
  times the reciprocal of their left-to-right sum;
- alpha: `random()`;
- per editable feature in index order: for an unordered feature one
  `random(2 * |D_f|)`, the step-count means then the percentile means of
  every position; then one scalar `beta(a, b)` per target whose Beta
  exists, in position order.

Each call reads the same doubles as the numpy call the sampler was first
written with, and leaves the generator in the same place:
`dirichlet(ones(k))` (numpy draws Gamma(1) as a standard exponential and
scales by the reciprocal of the sequential sum), `uniform(0, 1)` per
double, two `uniform(0, 1, |D_f|)` rows, and one array `beta` over a
feature's targets, which draws its cells in order. `TestDrawEquivalence`
in tests/test_cost.py pins each identity. Batches extend without
disturbing earlier samples, and features outside the editable set draw
nothing.

Every price comes from `cost_rows`, which takes members as domain
positions (`DatasetSchema.positions`), gathers each feature's table rows
for all members and adds them left to right; sums saturate at
`math.inf`, so one infeasible feature makes a whole transition infeasible.
The sum is an explicit loop (a running `add.accumulate` for a single cost
function) and never a numpy reduction: `add.reduce` and `.sum(axis=...)`
sum 8 or more terms pairwise when the summed axis is contiguous, as it is
for one cost function, and then disagree with the sequential sum in the
last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .schema import DatasetSchema, PercentileTable, SchemaError, UserState

INF = math.inf

# Beta noise around each blended transition-cost mean.
COST_STD = 0.01
_VAR = COST_STD * COST_STD

# Seed-stream namespaces: generation-time samples and hidden evaluation-time
# samples must never share an RNG stream, even for equal integer seeds.
TRAIN_STREAM = 0
TEST_STREAM = 1

DISTRIBUTIONS = ("lin", "perc", "mix")


@dataclass(frozen=True)
class CostSampleSet:
    """M cost functions sampled for one user state, as arrays."""

    schema: DatasetSchema
    state: UserState
    table: np.ndarray  # (W, M): row schema.offsets[f] + j prices feature f -> position j
    alpha: np.ndarray  # (M,)
    editable: np.ndarray  # (M, d) bool
    preferences: np.ndarray  # (M, d)

    @property
    def m(self) -> int:
        return len(self.alpha)

    @property
    def costs(self) -> tuple[np.ndarray, ...]:
        """Per feature f, the (M, |D_f|) view `table[offsets[f]:offsets[f+1]].T`."""
        off = self.schema.offsets.tolist()
        return tuple(self.table[lo:hi].T for lo, hi in zip(off, off[1:]))


def random_editable_subset(candidates: list[int], rng: np.random.Generator) -> list[int]:
    """Uniform over non-empty subsets of the candidate features, ascending."""
    if not candidates:
        raise ValueError("schema has no mutable features; supply an editable set")
    while True:
        coins = rng.random(len(candidates)).tolist()
        chosen = [c for c, u in zip(candidates, coins) if u < 0.5]
        if chosen:
            return chosen


def _flat_dirichlet(rng: np.random.Generator, k: int) -> np.ndarray:
    """Dirichlet(1, ..., 1) over k >= 1 coordinates, the doubles numpy's
    `dirichlet(ones(k))` returns: k standard exponentials (its Gamma(1)
    draws) times the reciprocal of their left-to-right sum."""
    draws = rng.standard_exponential(k)
    total = 0.0
    for v in draws.tolist():
        total += v
    return draws * (1.0 / total)


def _feature_costs(
    rng: np.random.Generator,
    size: int,
    targets: Sequence[int],
    raw: Optional[Sequence[tuple[float, float]]],
    a: float,
    keep: float,
) -> list[float]:
    """One sample's costs of moving a feature of `size` domain positions to
    each of its `targets`: the alpha blend of the step-count and percentile
    means scaled by `keep` (1 - preference), clipped to [0, 1], and a Beta
    draw around it where one exists. An ordered feature's raw means are the
    (step count, percentile) pairs `raw`; an unordered feature (`raw` None)
    draws fresh Uniform(0,1) means in one `random(2 * size)` call, step
    counts first."""
    if raw is None:
        means = rng.random(2 * size).tolist()
        raw = [(means[j], means[j + size]) for j in targets]
    b = 1.0 - a
    costs = []
    for x, y in raw:
        mu = a * (x * keep) + b * (y * keep)
        mu = 0.0 if mu < 0.0 else 1.0 if mu > 1.0 else mu
        nu = mu * (1.0 - mu) / _VAR - 1.0
        costs.append(rng.beta(mu * nu, (1.0 - mu) * nu) if nu > 0.0 else mu)
    return costs


def _sample(
    state: UserState,
    schema: DatasetSchema,
    table: PercentileTable,
    rngs: Sequence[np.random.Generator],
    alpha: Optional[float],
    editable: Optional[frozenset[int]],
    pref: Optional[np.ndarray],
) -> CostSampleSet:
    """Fill column i of the cost table and row i of the other arrays from
    `rngs[i]` alone, start to finish; absent inputs are drawn per sample
    (see `sample_cost_function`)."""
    d = schema.n_features
    pinned = None if editable is None else sorted(int(i) for i in editable)
    for i in pinned or []:
        if not 0 <= i < d:
            raise ValueError(f"editable feature index {i} out of range")
    if pref is not None:
        pref = np.asarray(pref, dtype=float)
        if pref.shape != (d,):
            raise ValueError("preference vector length must match feature count")
        if (pref < 0).any():
            raise ValueError("preference scores must be non-negative")
        inside = np.zeros(d, dtype=bool)
        inside[pinned or []] = True
        if (pref[~inside] != 0.0).any():
            raise ValueError("preference mass outside the editable set")
        if pinned and abs(pref.sum() - 1.0) > 1e-9:
            raise ValueError("preference scores must sum to 1 over editable features")
    if alpha is not None and not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0,1], got {alpha}")
    if table.schema is not schema and table.schema != schema:
        raise SchemaError("percentile table was built for a different schema")

    features = schema.features
    candidates = schema.mutable_indices()
    at = schema.positions(state.values).tolist()
    off = schema.offsets
    m = len(rngs)
    alphas = np.empty(m)
    keep_of = None if pref is None else (1.0 - pref).tolist()
    chosen_rows, chosen_cols, chosen_prefs = [], [], []
    rows, cols, vals = [], [], []
    for i, rng in enumerate(rngs):
        chosen = pinned if pinned is not None else random_editable_subset(candidates, rng)
        chosen_rows += [i] * len(chosen)
        chosen_cols += chosen
        if pref is None and chosen:
            p = _flat_dirichlet(rng, len(chosen))
            chosen_prefs += p.tolist()
            keep_of = dict(zip(chosen, (1.0 - p).tolist()))
        alphas[i] = a = rng.random() if alpha is None else alpha
        for fi in chosen:
            targets, target_rows, raw = table.moves[fi][at[fi]]
            costs = _feature_costs(rng, features[fi].size, targets, raw, a, keep_of[fi])
            rows += target_rows
            cols += [i] * len(costs)
            vals += costs
    chosen_mask = np.zeros((m, d), dtype=bool)
    chosen_mask[chosen_rows, chosen_cols] = True
    prefs = np.zeros((m, d))
    if pref is None:
        prefs[chosen_rows, chosen_cols] = chosen_prefs
    else:
        prefs[:] = pref

    cost_table = np.empty((int(off[-1]), m))
    cost_table.fill(INF)
    cost_table[off[:-1] + at] = 0.0
    cost_table[rows, cols] = vals
    for arr in (cost_table, alphas, chosen_mask, prefs):
        arr.setflags(write=False)
    return CostSampleSet(schema, state, cost_table, alphas, chosen_mask, prefs)


def sample_cost_function(
    state: UserState,
    schema: DatasetSchema,
    table: PercentileTable,
    rng: np.random.Generator,
    alpha: Optional[float] = None,
    editable: Optional[frozenset[int]] = None,
    pref: Optional[np.ndarray] = None,
) -> CostSampleSet:
    """Draw one cost function conditioned on `state` (a set with M=1).

    Absent inputs are sampled: the editable set uniformly over non-empty
    subsets of non-immutable features, preference scores from a flat
    Dirichlet over the editable set (zero elsewhere), alpha from
    Uniform(0,1). Per feature the step-count and percentile means are
    scaled by (1 - preference), blended with alpha, and each transition
    cost drawn from a Beta around the blend.
    """
    return _sample(state, schema, table, [rng], alpha, editable, pref)


def stream_rng(stream: int, seed: int, index: int, subkey: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([stream, seed, subkey, index]))


def distribution_alpha(distribution: str, alpha: Optional[float]) -> Optional[float]:
    """The alpha a named distribution fixes: "lin" -> 1, "perc" -> 0, "mix"
    -> `alpha` (None draws it per sample). "lin" and "perc" fix their own
    alpha, so an explicit one with them is refused, not ignored."""
    if distribution not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {distribution!r}")
    if distribution != "mix" and alpha is not None:
        raise ValueError(f"alpha {alpha} applies to distribution 'mix' only; "
                         f"{distribution!r} fixes its own")
    return {"lin": 1.0, "perc": 0.0}.get(distribution, alpha)


def sample_cost_batch(
    state: UserState,
    schema: DatasetSchema,
    table: PercentileTable,
    m: int,
    distribution: str = "mix",
    seed: int = 0,
    alpha: Optional[float] = None,
    editable: Optional[frozenset[int]] = None,
    pref: Optional[np.ndarray] = None,
    subkey: int = 0,
) -> CostSampleSet:
    """Draw M independent generation-time cost functions; deterministic per
    (seed, state, subkey).

    `distribution` fixes alpha: "lin" -> 1, "perc" -> 0, "mix" -> per-sample
    Uniform(0,1) unless an explicit `alpha` pins it (see
    `distribution_alpha`).
    """
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    fixed_alpha = distribution_alpha(distribution, alpha)
    rngs = [stream_rng(TRAIN_STREAM, seed, i, subkey) for i in range(m)]
    return _sample(state, schema, table, rngs, fixed_alpha, editable, pref)


def cost_rows(index_matrix: np.ndarray, samples: CostSampleSet) -> np.ndarray:
    """(N, M) cost table for members given as (N, d) domain positions, as
    `DatasetSchema.positions` returns them for their codes.

    Each member's feature costs are added left to right: one (N, M) row
    gather per feature, added in place, or for a single cost function a
    running sum along each member's d costs (one call in place of d tiny
    gathers). Never a numpy reduction (see the module docstring)."""
    rows = index_matrix + samples.schema.offsets[:-1]
    table = samples.table
    if samples.m == 1:
        return np.add.accumulate(table[rows, 0], axis=1)[:, -1:]
    out = table[rows[:, 0]]
    for fi in range(1, rows.shape[1]):
        out += table[rows[:, fi]]
    return out


def min_cost(s_u: UserState, members: np.ndarray, samples: CostSampleSet) -> float:
    """Least transition cost over (n, d) member codes under a single cost
    function (M=1); a code outside its feature's domain raises SchemaError."""
    if not len(members):
        raise ValueError("recourse set is empty")
    if samples.state.values != s_u.values:
        raise ValueError("cost function is conditioned on a different state")
    if samples.m != 1:
        raise ValueError(f"expected a single cost function, got {samples.m}")
    return float(cost_rows(samples.schema.positions(members), samples).min())


def emc_of_matrix(entries: np.ndarray) -> float:
    """Mean over samples of the per-sample minimum of an (N, M) cost table."""
    if entries.size == 0:
        raise ValueError("cost table is empty")
    mins = entries.min(axis=0)
    if np.isinf(mins).any():
        return INF
    return float(mins.mean())
