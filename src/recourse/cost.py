"""User cost functions as arrays: hierarchical sampling, pricing, and the
expected-minimum-cost objective.

A `CostSampleSet` holds M cost functions in one read-only (W, M) `table`,
W = sum of the domain sizes |D_f| (57 on the adult-like schema). Column i
is sample i, a cost function conditioned on the user state whose codes
are row i of `states` (M, d): one state throughout for a generation
batch, user u's state in column u for a hidden population. Feature f owns
rows `offsets[f]` to `offsets[f + 1]` (`DatasetSchema.offsets`), one per
domain position: entry (offsets[f] + j, i) prices moving feature f from
the state's value to position j under sample i, a cost in [0, 1], 0 for
the no-op and infinity when infeasible, so feature f's (M, |D_f|) costs
are the view `table[offsets[f]:offsets[f + 1]].T`. `alpha` is (M,);
`editable` (bool) and `preferences` are (M, d).

Sampling is hierarchical: an editable feature subset, Dirichlet preference
scores over it, a mixing weight alpha between step-count (alpha=1) and
percentile-shift (alpha=0) difficulty, and a Beta draw per transition
around the blended mean. Alpha is the one mixing input: a fixed value, or
None to draw it per sample from Uniform(0,1). The paper's linear,
percentile and mixture distributions are alpha = 1, alpha = 0 and None.
Each feature's feasible targets and ordered raw means are one gather from
the `PercentileTable` cell arrays, at the user's origin rows. Features
outside the editable set cost infinity to move and draw no Beta.

Every cost function comes from one block sampler. A block is a user
state, a generator, a width and an optional pinned editable set: `width`
samples for that state drawn from that generator alone, so a draw never
depends on the other blocks of its call. `sample_cost_batch` draws
ceil(M / 64) blocks of one state and one pin at width `BLOCK` = 64, block
b from `stream_rng(stream, seed, b, subkey)`; every block draws its full
width and the batch is then cut to M, so a batch is a prefix of any
larger one. `sample_cost_functions` draws a population, one width-1 block
per state on its own generator with its own pin, into one set whose
column u belongs to state u, and evaluation draws each hidden population
in one such call: a lone width-1 block costs more than the per-sample
draw it replaced. Within a block the n movable features
(`DatasetSchema.mutable_indices`) are drawn as whole arrays, with these
calls in this order and no others:

1. unless the block's editable set is pinned, `random((width, n))` coins,
   keeping those below 0.5; then, in row order, `random(n)` again for each
   row that kept nothing, until it keeps one;
2. unless preferences are pinned, one `standard_exponential(K)` over the K
   chosen (row, feature) cells in row-major order, each row times the
   reciprocal of its left-to-right sum (numpy's `dirichlet(ones(k))`); a
   row with no chosen feature (an empty pin) keeps zero preferences, and
   a zero-size draw leaves its generator where it was;
3. unless alpha is fixed, `random(width)`;
4. one `random((width, U))`, U the sum of 2 |D_f| over the unordered
   movable features in index order, each feature's step-count means then
   its percentile means by position (skipped when U is 0);
5. one array `beta` over the chosen cells whose Beta exists, row by row,
   each row's cells by feature and then by target.

The blend clip(alpha * (x * keep) + (1 - alpha) * (y * keep), 0, 1), keep
= 1 - preference, is elementwise, so a cell without a Beta holds exactly
the scalar blend. Beta cells use numpy's `beta`, never a ratio of gammas:
with both shapes small, both gammas underflow and the ratio is NaN.

Every price comes from `cost_rows`, which takes members as domain
positions (`DatasetSchema.positions`), gathers each feature's table rows
for all members and adds them left to right; sums saturate at
`math.inf`, so one infeasible feature makes a whole transition infeasible.
Search prices every member under every column; `min_cost` prices a hidden
population, each member under its owner's column alone. The sum is an
explicit loop, one gather per term, and never a numpy reduction:
`add.reduce` and `.sum(axis=...)` sum 8 or more terms pairwise when the
summed axis is contiguous, as it is in a (P, d) gather of each member's
feature costs, and then disagree with the sequential sum in the last bits.

The sampler writes exactly +0.0 into every column of a feature's origin
row, and a searched member moves only a few of its features, so most of
the rows a full (P, M) pricing gathers add nothing. It skips them: each
member adds only its rows that are not all +0.0 (`CostSampleSet.zero_rows`),
still in feature order, and a member with fewer such rows than the widest
adds an all-+0.0 row in their place. That is bit for bit the full sum: a
sum of doubles is -0.0 only when both terms are, so in a table without a
-0.0 no partial sum is -0.0, and adding +0.0 returns every other double
unchanged. A table holding a -0.0 anywhere has no zero rows and is
priced in full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .schema import DatasetSchema, PercentileTable, SchemaError, UserState

INF = math.inf

# Beta noise around each blended transition-cost mean.
COST_STD = 0.01
_VAR = COST_STD * COST_STD

# Seed-stream namespaces, so that no two uses share an RNG stream even for
# equal integer seeds: generation-time samples, hidden evaluation-time
# samples, search perturbations and the concentration-shift sweep's
# editable sets.
TRAIN_STREAM = 0
TEST_STREAM = 1
SEARCH_STREAM = 2
SHIFT_STREAM = 3

# Samples drawn per generator by `sample_cost_batch`.
BLOCK = 64


@dataclass(frozen=True)
class CostSampleSet:
    """M cost functions, each conditioned on a user state, as arrays."""

    schema: DatasetSchema
    states: np.ndarray  # (M, d) int64: column i is conditioned on the codes states[i]
    table: np.ndarray  # (W, M): row schema.offsets[f] + j prices feature f -> position j
    alpha: np.ndarray  # (M,)
    editable: np.ndarray  # (M, d) bool
    preferences: np.ndarray  # (M, d)

    @property
    def m(self) -> int:
        return len(self.alpha)

    @cached_property
    def zero_rows(self) -> np.ndarray:
        """(W,) bool: the table rows whose entries are all +0.0, which
        `cost_rows` leaves out of its sums; none when the table holds a
        -0.0 (see the module docstring)."""
        zero = self.table == 0.0
        if np.signbit(self.table[zero]).any():
            return np.zeros(len(self.table), dtype=bool)
        return zero.all(axis=1)


def _check_inputs(
    schema: DatasetSchema,
    table: PercentileTable,
    alpha: Optional[float],
    editables: Sequence[Optional[frozenset[int]]],
    pref: Optional[np.ndarray],
) -> tuple[list[Optional[list[int]]], Optional[np.ndarray]]:
    """The sampler's input check. Returns per block its pinned editable
    features ascending, and the pinned preferences as floats, each None
    when drawn per sample."""
    d = schema.n_features
    pins = [None if e is None else sorted(int(i) for i in e) for e in editables]
    bad = [i for pin in pins for i in pin or [] if not 0 <= i < d]
    if bad:
        raise ValueError(f"editable feature index {bad[0]} out of range")
    if pref is not None:
        pref = np.asarray(pref, dtype=float)
        if pref.shape != (d,):
            raise ValueError("preference vector length must match feature count")
        if not np.isfinite(pref).all():
            raise ValueError(f"preference scores must be finite, got {pref.tolist()}")
        if (pref < 0).any():
            raise ValueError("preference scores must be non-negative")
        if any((np.delete(pref, pin or []) != 0.0).any() for pin in pins):
            raise ValueError("preference mass outside the editable set")
        if any(pins) and abs(pref.sum() - 1.0) > 1e-9:
            raise ValueError("preference scores must sum to 1 over editable features")
    check_alpha(alpha)
    if table.schema is not schema and table.schema != schema:
        raise SchemaError("percentile table was built for a different schema")
    if None in pins and not schema.mutable_indices():
        raise ValueError("schema has no mutable features; supply an editable set")
    return pins, pref


def _sample_blocks(
    states: Sequence[UserState],
    schema: DatasetSchema,
    table: PercentileTable,
    rngs: Sequence[np.random.Generator],
    width: int,
    m: int,
    alpha: Optional[float],
    editables: Sequence[Optional[frozenset[int]]],
    pref: Optional[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Samples `width * b` to `width * b + width - 1` drawn for `states[b]`
    from `rngs[b]` in whole-array calls (see the module docstring), their
    editable set `editables[b]` (None: drawn), cut to the first m; absent
    inputs are drawn. Returns the read-only (W, m) cost table, alphas,
    editable mask and preferences."""
    pins, pref = _check_inputs(schema, table, alpha, editables, pref)
    d, off = schema.n_features, schema.offsets
    sizes = off[1:] - off[:-1]
    candidates = schema.mutable_indices()
    n = width * len(rngs)
    # Unordered candidates draw their raw means per sample: 2 |D_f| columns
    # each, step counts first; feature f's end at column `ends[f]`.
    fresh = np.zeros(d, dtype=bool)
    fresh[[fi for fi in candidates if table.cdf[fi] is None]] = True
    ends = np.cumsum(2 * sizes * fresh)
    u = int(ends[-1])

    chosen = np.zeros((n, d), dtype=bool)
    prefs = np.zeros((n, d))
    alphas = np.empty(n)
    means = np.empty((n, u))
    for b, (rng, pin) in enumerate(zip(rngs, pins)):
        blk = slice(width * b, width * (b + 1))
        if pin is None:
            kept = rng.random((width, len(candidates))) < 0.5
            for r in np.flatnonzero(~kept.any(axis=1)).tolist():
                while not kept[r].any():
                    kept[r] = rng.random(len(candidates)) < 0.5
            chosen[blk, candidates] = kept
        else:
            chosen[blk, pin] = True
        if pref is None:
            picked = chosen[blk]
            prefs[blk][picked] = rng.standard_exponential(int(np.count_nonzero(picked)))
        if alpha is None:
            alphas[blk] = rng.random(width)
        if u:
            means[blk] = rng.random((width, u))
    if pref is not None:
        prefs[:] = pref
    else:
        some = chosen.any(axis=1)
        prefs[some] *= (1.0 / np.add.accumulate(prefs[some], axis=1)[:, -1])[:, None]
    if alpha is not None:
        alphas.fill(alpha)

    # Layout: per block, the cells of its state's moves, one per cost-table
    # row, kept to the rows (`cols`) of features that some sample chose and
    # some state can move to.
    origin = off[:-1] + schema.positions([s.values for s in states])
    row_feature = np.repeat(np.arange(d), sizes)
    cells = table.cell[origin][:, row_feature] + np.arange(off[-1])
    feasible = table.feasible[cells]
    cols = np.flatnonzero(chosen.any(axis=0)[row_feature] & feasible.any(axis=0))
    feat = row_feature[cols]
    cells, feasible = cells[:, cols], feasible[:, cols]
    mixed = np.flatnonzero(fresh[feat])
    f_mixed = feat[mixed]
    xi = ends[f_mixed] - 2 * sizes[f_mixed] + cols[mixed] - off[f_mixed]
    yi = xi + sizes[f_mixed]

    x = np.repeat(table.step[cells], width, axis=0)
    y = np.repeat(table.shift[cells], width, axis=0)
    x[:, mixed], y[:, mixed] = means[:, xi], means[:, yi]
    keep = 1.0 - prefs[:, feat]
    a = alphas[:, None]
    mu = np.clip(a * (x * keep) + (1.0 - a) * (y * keep), 0.0, 1.0)
    nu = mu * (1.0 - mu) / _VAR - 1.0
    live = chosen[:, feat] & np.repeat(feasible, width, axis=0)
    vals = np.where(live, mu, INF)
    drawn = live & (nu > 0.0)
    mu, nu = mu[drawn], nu[drawn]
    shape_a, shape_b = mu * nu, (1.0 - mu) * nu
    stop = np.cumsum(np.count_nonzero(drawn.reshape(len(rngs), -1), axis=1)).tolist()
    vals[drawn] = np.concatenate([
        rng.beta(shape_a[lo:hi], shape_b[lo:hi])
        for rng, lo, hi in zip(rngs, [0, *stop], stop)
    ])

    cost_table = np.full((int(off[-1]), m), INF)
    cost_table[cols] = vals[:m].T
    cost_table[np.repeat(origin, width, axis=0)[:m].T, np.arange(m)] = 0.0
    for arr in (cost_table, alphas, chosen, prefs):
        arr.setflags(write=False)
    return cost_table, alphas[:m], chosen[:m], prefs[:m]


def sample_cost_functions(
    states: Sequence[UserState],
    schema: DatasetSchema,
    table: PercentileTable,
    rngs: Sequence[np.random.Generator],
    alpha: Optional[float] = None,
    editable: Optional[Sequence[Optional[frozenset[int]]]] = None,
) -> CostSampleSet:
    """A population: one set whose column u is a block of width 1 drawn for
    `states[u]` on `rngs[u]` with editable set `editable[u]` (None, or no
    `editable` at all: drawn), all in one call; absent inputs are drawn."""
    editable = [None] * len(states) if editable is None else editable
    if not states or not len(states) == len(rngs) == len(editable):
        raise ValueError(f"need one generator and one editable set per state and at least "
                         f"one state, got {len(states)} states for {len(rngs)} generators "
                         f"and {len(editable)} editable sets")
    drawn = _sample_blocks(states, schema, table, rngs, 1, len(rngs), alpha, editable, None)
    codes = np.array([s.values for s in states], dtype=np.int64)
    codes.setflags(write=False)
    return CostSampleSet(schema, codes, *drawn)


def sample_cost_function(
    state: UserState,
    schema: DatasetSchema,
    table: PercentileTable,
    rng: np.random.Generator,
    alpha: Optional[float] = None,
    editable: Optional[frozenset[int]] = None,
) -> CostSampleSet:
    """Draw one cost function conditioned on `state` (a set with M=1): a
    population of one for `sample_cost_functions`."""
    return sample_cost_functions([state], schema, table, [rng], alpha, [editable])


def stream_rng(stream: int, seed: int, index: int, subkey: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([stream, seed, subkey, index]))


def check_alpha(alpha: Optional[float]) -> None:
    """Refuse a mixing weight outside [0, 1]; None (drawn per sample) passes."""
    if alpha is not None and not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0,1], got {alpha}")


def sample_cost_batch(
    state: UserState,
    schema: DatasetSchema,
    table: PercentileTable,
    m: int,
    *,
    seed: int = 0,
    alpha: Optional[float] = None,
    editable: Optional[frozenset[int]] = None,
    pref: Optional[np.ndarray] = None,
    subkey: int = 0,
) -> CostSampleSet:
    """Draw M independent generation-time cost functions; deterministic per
    (seed, state, subkey), one generator per block of `BLOCK` samples.

    `alpha` fixes every sample's mixing weight (1: step counts alone, 0:
    percentile shifts alone); None draws it per sample from Uniform(0,1).
    The options after `m` are keyword-only.
    """
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    rngs = [stream_rng(TRAIN_STREAM, seed, b, subkey) for b in range(-(-m // BLOCK))]
    drawn = _sample_blocks([state] * len(rngs), schema, table, rngs, BLOCK, m, alpha,
                           [editable] * len(rngs), pref)
    codes = np.broadcast_to(np.array(state.values, dtype=np.int64), (m, len(state.values)))
    return CostSampleSet(schema, codes, *drawn)


def cost_rows(index_matrix: np.ndarray, samples: CostSampleSet,
              columns: Optional[np.ndarray] = None) -> np.ndarray:
    """Costs of members given as (P, d) domain positions, as
    `DatasetSchema.positions` returns them for their codes: the (P, M)
    table of every member under every cost function or, given (P,)
    `columns`, the (P,) cost of member p under column `columns[p]` alone.

    Each member's feature costs are added left to right: one gather per
    term, added in place, never a numpy reduction. The (P, M) table skips
    each member's all-+0.0 rows, bit for bit (see the module docstring)."""
    rows = index_matrix + samples.schema.offsets[:-1]
    table = samples.table
    if columns is None:
        rows, columns = _moved_rows(rows, samples.zero_rows), slice(None)
    out = table[rows[:, 0], columns]
    for fi in range(1, rows.shape[1]):
        out += table[rows[:, fi], columns]
    return out


def _moved_rows(rows: np.ndarray, zero_rows: np.ndarray) -> np.ndarray:
    """The (P, k) table rows that member p adds: its rows outside
    `zero_rows` in feature order, then an all-+0.0 row up to k, the widest
    member's count (at least 1). When no row is all +0.0 every member adds
    all d of its rows, and the plan equals `rows`."""
    pad = int(zero_rows.argmax())
    live = ~zero_rows[rows]
    count = live.sum(axis=1)
    k = count.max(initial=1)
    plan = np.full((len(rows), k), pad)
    # Both boolean indexings run in row-major order, so member p's live rows
    # fill its first count[p] slots in feature order.
    plan[np.arange(k) < count[:, None]] = rows[live]
    return plan


def min_cost(members: np.ndarray, owners: np.ndarray, population: CostSampleSet) -> np.ndarray:
    """(M,) least transition cost per column of `population` over the
    (P, d) member codes it owns, member p priced under column `owners[p]`
    alone; infinity for a column that owns no member. A code outside its
    feature's domain raises SchemaError."""
    prices = cost_rows(population.schema.positions(members), population, owners)
    best = np.full(population.m, INF)
    np.minimum.at(best, owners, prices)
    return best


def emc(minima: np.ndarray):
    """The expected minimum cost of (..., M) per-sample minimum costs: their
    mean over the M samples, which is inf where some sample is uncovered
    (its minimum is inf). This is the one objective every optimizer
    minimizes; one (M,) vector gives a numpy float."""
    return np.mean(minima, axis=-1)
