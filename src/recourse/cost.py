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
means come from `PercentileTable.moves`. Features outside the editable set
cost infinity to move and draw no Beta.

`sample_cost_batch` draws in blocks of `BLOCK` = 64 samples: block b is
rows 64b to 64b + 63, drawn from `stream_rng(stream, seed, b, subkey)`
alone. A block always draws its full width and the batch is then cut to
M, so row i never depends on M and a batch is a prefix of any larger one.
Within a block the n movable features (`DatasetSchema.mutable_indices`)
are drawn as whole arrays, with these calls in this order and no others:

1. unless the editable set is pinned, `random((64, n))` coins, keeping
   those below 0.5; then, in row order, `random(n)` again for each row that
   kept nothing, until it keeps one;
2. unless preferences are pinned, one `standard_exponential(K)` over the K
   chosen (row, feature) cells in row-major order, each row times the
   reciprocal of its left-to-right sum (numpy's `dirichlet(ones(k))`);
3. unless alpha is fixed, `random(64)`;
4. one `random((64, U))`, U the sum of 2 |D_f| over the unordered movable
   features in index order, each feature's step-count means then its
   percentile means by position (skipped when U is 0);
5. one array `beta` over the chosen cells whose Beta exists, row by row,
   each row's cells by feature and then by target.

The blend, clip and Beta shapes are the scalar formulas of
`_feature_costs` applied to whole arrays, so a cell without a Beta holds
exactly the scalar blend. Beta cells use numpy's `beta`, never a ratio of
gammas: with both shapes small, both gammas underflow and the ratio is NaN.

`sample_cost_function`, the one draw (M=1) from a caller's generator that
evaluation makes per simulated user, keeps the per-sample path: the subset
from `random(n)` repeated until one is kept, `standard_exponential(k)`
over its k features, a scalar `random()` alpha, and per editable feature
in index order one `random(2 * |D_f|)` for an unordered feature, then one
scalar `beta` per target with a Beta. On an adult-like user one draw took
88-151 us on this path and 418-544 us as a cut 64-row block (generator
construction included; numpy 2.4, 2 CPUs), and single draws are about
half of scoring one (user, population) pair. Both paths share one input
check (`_check_inputs`).

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

# Samples drawn per generator by `sample_cost_batch`.
BLOCK = 64


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


def _check_inputs(
    schema: DatasetSchema,
    table: PercentileTable,
    alpha: Optional[float],
    editable: Optional[frozenset[int]],
    pref: Optional[np.ndarray],
) -> tuple[Optional[list[int]], Optional[np.ndarray]]:
    """The sampler's input check, shared by both paths. Returns the pinned
    editable features ascending and the pinned preferences as floats, each
    None when drawn per sample."""
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
    distribution_alpha("mix", alpha)  # refuses an alpha outside [0, 1]
    if table.schema is not schema and table.schema != schema:
        raise SchemaError("percentile table was built for a different schema")
    if pinned is None and not schema.mutable_indices():
        raise ValueError("schema has no mutable features; supply an editable set")
    return pinned, pref


def _sample_set(state, schema, at, rows, vals, alphas, chosen, prefs) -> CostSampleSet:
    """The read-only sample set whose (W, M) table holds `vals` at `rows`
    (one row of values per listed table row), 0 at the user's own
    positions `at` and infinity elsewhere."""
    cost_table = np.empty((int(schema.offsets[-1]), len(alphas)))
    cost_table.fill(INF)
    cost_table[schema.offsets[:-1] + at] = 0.0
    cost_table[rows] = vals
    for arr in (cost_table, alphas, chosen, prefs):
        arr.setflags(write=False)
    return CostSampleSet(schema, state, cost_table, alphas, chosen, prefs)


def _sample_blocks(
    state: UserState,
    schema: DatasetSchema,
    table: PercentileTable,
    rngs: Sequence[np.random.Generator],
    m: int,
    alpha: Optional[float],
    editable: Optional[frozenset[int]],
    pref: Optional[np.ndarray],
) -> CostSampleSet:
    """Rows `BLOCK * b` to `BLOCK * b + BLOCK - 1` drawn from `rngs[b]` in
    whole-array calls (see the module docstring), cut to the first m rows;
    absent inputs are drawn."""
    pinned, pref = _check_inputs(schema, table, alpha, editable, pref)
    d = schema.n_features
    features = schema.features
    candidates = schema.mutable_indices()
    movable = candidates if pinned is None else pinned
    at = schema.positions(state.values).tolist()
    # Column layout of the unordered means drawn per block, then one column
    # per ordered raw mean; `xi`/`yi` pick each cost cell's two means.
    start, u = {}, 0
    for fi in candidates:
        if table.cdf[fi] is None:
            start[fi] = u
            u += 2 * features[fi].size
    feat, rows, xi, yi, fixed = [], [], [], [], []
    for fi in movable:
        targets, target_rows, raw = table.moves[fi][at[fi]]
        feat += [fi] * len(targets)
        rows += target_rows
        if raw is None and targets:
            xi += [start[fi] + j for j in targets]
            yi += [start[fi] + features[fi].size + j for j in targets]
        for x, y in raw or ():
            xi.append(u + len(fixed))
            yi.append(u + len(fixed) + 1)
            fixed += (x, y)

    width = BLOCK * len(rngs)
    chosen = np.zeros((width, d), dtype=bool)
    if pinned is not None:
        chosen[:, pinned] = True
    prefs = np.zeros((width, d))
    alphas = np.empty(width)
    means = np.empty((width, u + len(fixed)))
    means[:, u:] = fixed
    for b, rng in enumerate(rngs):
        blk = slice(BLOCK * b, BLOCK * (b + 1))
        if pinned is None:
            kept = rng.random((BLOCK, len(candidates))) < 0.5
            for r in np.flatnonzero(~kept.any(axis=1)).tolist():
                while not kept[r].any():
                    kept[r] = rng.random(len(candidates)) < 0.5
            chosen[blk, candidates] = kept
        if pref is None and movable:
            cells = chosen[blk]
            prefs[blk][cells] = rng.standard_exponential(int(np.count_nonzero(cells)))
        if alpha is None:
            alphas[blk] = rng.random(BLOCK)
        if u:
            means[blk, :u] = rng.random((BLOCK, u))
    if pref is not None:
        prefs[:] = pref
    elif movable:
        prefs *= (1.0 / np.add.accumulate(prefs, axis=1)[:, -1])[:, None]
    if alpha is not None:
        alphas.fill(alpha)

    keep = 1.0 - prefs[:, feat]
    a = alphas[:, None]
    mu = np.clip(a * (means[:, xi] * keep) + (1.0 - a) * (means[:, yi] * keep), 0.0, 1.0)
    nu = mu * (1.0 - mu) / _VAR - 1.0
    live = chosen[:, feat]
    vals = np.where(live, mu, INF)
    drawn = live & (nu > 0.0)
    for b, rng in enumerate(rngs):
        blk = slice(BLOCK * b, BLOCK * (b + 1))
        cells = drawn[blk]
        mu_b, nu_b = mu[blk][cells], nu[blk][cells]
        vals[blk][cells] = rng.beta(mu_b * nu_b, (1.0 - mu_b) * nu_b)
    return _sample_set(state, schema, at, np.array(rows, dtype=np.intp), vals[:m].T,
                       alphas[:m], chosen[:m], prefs[:m])


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
    cost drawn from a Beta around the blend, with the per-sample draws of
    the module docstring.
    """
    pinned, pref = _check_inputs(schema, table, alpha, editable, pref)
    d = schema.n_features
    chosen = pinned if pinned is not None else random_editable_subset(
        schema.mutable_indices(), rng)
    prefs = np.zeros((1, d))
    if pref is not None:
        prefs[0] = pref
    elif chosen:
        prefs[0, chosen] = _flat_dirichlet(rng, len(chosen))
    keep = (1.0 - prefs[0]).tolist()
    a = rng.random() if alpha is None else alpha
    at = schema.positions(state.values).tolist()
    rows, vals = [], []
    for fi in chosen:
        targets, target_rows, raw = table.moves[fi][at[fi]]
        rows += target_rows
        vals += _feature_costs(rng, schema.features[fi].size, targets, raw, a, keep[fi])
    mask = np.zeros((1, d), dtype=bool)
    mask[0, chosen] = True
    return _sample_set(state, schema, at, np.array(rows, dtype=np.intp),
                       np.array(vals)[:, None], np.array([a], dtype=float), mask, prefs)




def stream_rng(stream: int, seed: int, index: int, subkey: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([stream, seed, subkey, index]))


def distribution_alpha(distribution: str, alpha: Optional[float]) -> Optional[float]:
    """The alpha a named distribution fixes: "lin" -> 1, "perc" -> 0, "mix"
    -> `alpha` (None draws it per sample). "lin" and "perc" fix their own
    alpha, so an explicit one with them is refused, not ignored, and an
    explicit alpha outside [0, 1] is refused."""
    if distribution not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {distribution!r}")
    if distribution != "mix" and alpha is not None:
        raise ValueError(f"alpha {alpha} applies to distribution 'mix' only; "
                         f"{distribution!r} fixes its own")
    if alpha is not None and not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0,1], got {alpha}")
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
    (seed, state, subkey), one generator per block of `BLOCK` samples.

    `distribution` fixes alpha: "lin" -> 1, "perc" -> 0, "mix" -> per-sample
    Uniform(0,1) unless an explicit `alpha` pins it (see
    `distribution_alpha`).
    """
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    fixed_alpha = distribution_alpha(distribution, alpha)
    rngs = [stream_rng(TRAIN_STREAM, seed, b, subkey) for b in range(-(-m // BLOCK))]
    return _sample_blocks(state, schema, table, rngs, m, fixed_alpha, editable, pref)


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
