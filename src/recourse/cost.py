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
draw it replaced. A population's generators are seeded in one pass by
`stream_rngs`, which runs numpy's SeedSequence hash (a stable algorithm,
NEP 19) over every user's key at once; generator u has the state that
`stream_rng` gives user u's key. Within a block the n movable features
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
3. one `random(width * (1 + U))`, U the sum of 2 |D_f| over the
   unordered movable features in index order: the row alphas, then per
   row each such feature's step-count means and its percentile means by
   position; without the alphas (`random(width * U)`) when alpha is fixed,
   and skipped when nothing is left to draw. It reads the stream as
   `random(width)` then `random((width, U))` do;
4. the Betas of the chosen cells whose Beta exists, row by row, each
   row's cells by feature and then by target: one `standard_gamma` over
   their interleaved (a, b) shapes, each Beta the ratio Ga / (Ga + Gb),
   or one array `beta` when a cell has both shapes at most 1.

A call runs these steps phase by phase over all its blocks: every
unpinned block's coins into one array, the redraws in (block, row) order,
then per block its exponential and uniform draws, then per block its
Betas. Each generator still makes exactly the calls above in that order,
so the phases change no draw; that needs a generator per block, and a
population refuses a generator shared by two states.

The blend clip(alpha * (x * keep) + (1 - alpha) * (y * keep), 0, 1), keep
= 1 - preference, is elementwise, so a cell without a Beta holds exactly
the scalar blend before rounding (below). Each Beta is exactly numpy's
`beta` of its shapes, which draws Ga then Gb by `standard_gamma` and
returns their ratio unless both shapes are at most 1. There numpy takes
Johnk's algorithm, since both gammas can underflow and the ratio be NaN,
so such a block keeps `beta`.

Every sampled cost is then rounded up to a multiple of the quantum
`QUANTUM` = 2**-20 (`ceil(x * 2**20) / 2**20`, exact for a cost in
[0, 1]). It rounds up, never to nearest, so an infeasible entry stays
infinite, the no-op stays +0.0 and a positive cost, however small, stays
positive: no move becomes free. With quanta every sum the package forms
of table entries is exact, whatever its order, batch shape or BLAS
kernel. A priced row adds d terms of at most 1. A benefit entry of
`search.compute_benefits` adds at most one term per sample column, each a
multiple of the quantum no larger than `search.BIG` = 2**20, so for M <=
`MAX_SAMPLES` = 4096 columns it stays within 2**52 quanta, inside a
double's 53-bit significand. Generation settings therefore refuse more
than `MAX_SAMPLES` samples; a hidden population prices each column alone
and has no such bound.

Every price of a whole member comes from `cost_rows`, which takes members
as domain positions (`DatasetSchema.positions`), gathers each feature's
table rows for all members and adds them left to right; sums saturate at
`math.inf`, so one infeasible feature makes a whole transition infeasible.
`random` prices its whole uniform sets under every column; `min_cost`
prices a hidden population, each member under its owner's column alone.
A perturbed member is priced from its parent's row instead
(`search._price_moves`), which the quanta make exact too.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .schema import DatasetSchema, PercentileTable, SchemaError

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

# Every sampled cost is a multiple of QUANTUM, rounded up (see the module
# docstring); with at most MAX_SAMPLES samples every sum over them is exact.
QUANTUM = 2.0**-20
MAX_SAMPLES = 4096


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


def _betas(rngs: Sequence[np.random.Generator], shape_a: np.ndarray, shape_b: np.ndarray,
           stop: np.ndarray) -> np.ndarray:
    """Per block b, `rngs[b].beta(shape_a[lo:hi], shape_b[lo:hi])` over its
    cells lo = stop[b - 1] (0 for the first block) to hi = stop[b], laid end
    to end, bit for bit and with every generator left where `beta` leaves
    it. Where a shape exceeds 1, numpy's `beta` draws Ga = standard_gamma(a)
    then Gb = standard_gamma(b) and returns Ga / (Ga + Gb); so a block is
    one `standard_gamma` call over its interleaved (a, b) shapes, and the
    ratio one division over every block. A block holding a cell with both
    shapes at most 1 (numpy's Johnk branch) keeps `beta`."""
    shapes = np.stack((shape_a, shape_b), axis=1)
    gammas = np.ones_like(shapes)  # a Johnk block's placeholder ratio stays finite
    starts = np.concatenate(([0], stop[:-1]))
    johnk = np.concatenate(([0], np.cumsum((shape_a <= 1.0) & (shape_b <= 1.0))))
    blocks = zip(rngs, starts.tolist(), stop.tolist(), (johnk[stop] - johnk[starts]).tolist())
    johnk_blocks = []
    for rng, lo, hi, n_johnk in blocks:
        if n_johnk:
            johnk_blocks.append((rng, lo, hi))
        elif lo < hi:
            rng.standard_gamma(shapes[lo:hi], out=gammas[lo:hi])
    ga, gb = gammas.T
    out = ga / (ga + gb)
    for rng, lo, hi in johnk_blocks:
        out[lo:hi] = rng.beta(shape_a[lo:hi], shape_b[lo:hi])
    return out


def _sample_blocks(
    states: np.ndarray,
    schema: DatasetSchema,
    table: PercentileTable,
    rngs: Sequence[np.random.Generator],
    width: int,
    m: int,
    alpha: Optional[float],
    editables: Sequence[Optional[frozenset[int]]],
    pref: Optional[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Samples `width * b` to `width * b + width - 1` drawn for the state
    codes `states[b]`, a row of (B, d), from `rngs[b]` in whole-array calls
    (see the module docstring), their editable set `editables[b]` (None:
    drawn), cut to the first m; absent inputs are drawn. Returns the
    read-only (W, m) cost table, alphas, editable mask and preferences."""
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

    # Phase by phase over all blocks (see the module docstring).
    free = [b for b, pin in enumerate(pins) if pin is None]
    coins = np.empty((len(free), width, len(candidates)))
    for j, b in enumerate(free):
        rngs[b].random(out=coins[j])
    kept = coins < 0.5
    for j, r in np.argwhere(~kept.any(axis=2)).tolist():
        while not kept[j, r].any():
            kept[j, r] = rngs[free[j]].random(len(candidates)) < 0.5
    chosen = np.zeros((len(rngs), width, d), dtype=bool)
    chosen[np.ix_(free, np.arange(width), candidates)] = kept
    pinned = [(b, i) for b, pin in enumerate(pins) for i in pin or []]
    if pinned:
        at_block, at_feature = zip(*pinned)
        chosen[at_block, :, at_feature] = True
    counts = np.count_nonzero(chosen, axis=(1, 2)).tolist()
    exponentials = []
    # Per block its alphas, unless fixed, then its means: one row of uniforms.
    n_alpha = width if alpha is None else 0
    uniforms = np.empty((len(rngs), n_alpha + width * u))
    for b, rng in enumerate(rngs):
        if pref is None:
            exponentials.append(rng.standard_exponential(counts[b]))
        if uniforms.shape[1]:
            rng.random(out=uniforms[b])
    chosen = chosen.reshape(n, d)
    alphas = uniforms[:, :n_alpha].ravel() if alpha is None else np.full(n, alpha, dtype=float)
    means = uniforms[:, n_alpha:].reshape(n, u)
    prefs = np.zeros((n, d))
    if pref is not None:
        prefs[:] = pref
    else:
        prefs[chosen] = np.concatenate(exponentials)
        some = chosen.any(axis=1)
        prefs[some] *= (1.0 / np.add.accumulate(prefs[some], axis=1)[:, -1])[:, None]

    # Layout: per block, the cells of its state's moves, one per cost-table
    # row, kept to the rows (`cols`) of features that some sample chose and
    # some state can move to.
    origin = off[:-1] + schema.positions(states)
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
    stop = np.cumsum(np.count_nonzero(drawn.reshape(len(rngs), -1), axis=1))
    vals[drawn] = _betas(rngs, mu * nu, (1.0 - mu) * nu, stop)
    vals = np.ceil(vals * (1.0 / QUANTUM)) * QUANTUM

    cost_table = np.full((int(off[-1]), m), INF)
    cost_table[cols] = vals[:m].T
    cost_table[np.repeat(origin, width, axis=0)[:m].T, np.arange(m)] = 0.0
    for arr in (cost_table, alphas, chosen, prefs):
        arr.setflags(write=False)
    return cost_table, alphas[:m], chosen[:m], prefs[:m]


def sample_cost_functions(
    states: np.ndarray,
    schema: DatasetSchema,
    table: PercentileTable,
    rngs: Sequence[np.random.Generator],
    alpha: Optional[float] = None,
    editable: Optional[Sequence[Optional[frozenset[int]]]] = None,
) -> CostSampleSet:
    """A population: one set whose column u is a block of width 1 drawn for
    the state codes `states[u]`, a row of (U, d), on `rngs[u]` with editable
    set `editable[u]` (None, or no `editable` at all: drawn), all in one
    call; absent inputs are drawn."""
    codes = np.array(states, dtype=np.int64)
    editable = [None] * len(codes) if editable is None else editable
    if not len(codes) or not len(codes) == len(rngs) == len(editable):
        raise ValueError(f"need one generator and one editable set per state and at least "
                         f"one state, got {len(codes)} states for {len(rngs)} generators "
                         f"and {len(editable)} editable sets")
    if len(set(map(id, rngs))) < len(rngs):
        raise ValueError("each state needs a generator of its own")
    drawn = _sample_blocks(codes, schema, table, rngs, 1, len(rngs), alpha, editable, None)
    codes.setflags(write=False)
    return CostSampleSet(schema, codes, *drawn)


def sample_cost_function(
    state: np.ndarray,
    schema: DatasetSchema,
    table: PercentileTable,
    rng: np.random.Generator,
    alpha: Optional[float] = None,
    editable: Optional[frozenset[int]] = None,
) -> CostSampleSet:
    """Draw one cost function conditioned on the (d,) code row `state` (a
    set with M=1): a population of one for `sample_cost_functions`."""
    return sample_cost_functions([state], schema, table, [rng], alpha, [editable])


def stream_rng(stream: int, seed: int, index: int, subkey: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([stream, seed, subkey, index]))


# numpy's SeedSequence constants (NEP 19 keeps the algorithm stable): the
# hash multipliers of the entropy mix (A) and of the state output (B), and
# the two multipliers of `mix`.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


class _SeedWords(ISeedSequence):
    """A seed sequence whose state is already generated: the (4,) uint64
    words of the one `generate_state(4, np.uint64)` call that `PCG64`
    makes."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint64) -> np.ndarray:
        return self.words


def _words(key) -> list[int]:
    """A non-negative int as SeedSequence reads it: little-endian 32-bit
    words, at least one."""
    key = operator.index(key)
    if key < 0:
        raise ValueError(f"expected non-negative integer, got {key}")
    words = [key & _MASK32]
    while key := key >> 32:
        words.append(key & _MASK32)
    return words


def _consts(init: int, mult: int, n: int) -> np.ndarray:
    """The first n + 1 values of SeedSequence's running hash constant."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


def _hashmix(value: np.ndarray, const: np.ndarray) -> np.ndarray:
    """SeedSequence's `hashmix` of uint32 `value` at successive hash
    constants `const[:-1]`, each multiplied by its successor."""
    value = (value ^ const[:-1]) * const[1:]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's `mix` of uint32 `x` and `y`."""
    out = _MIX_L * x - _MIX_R * y
    return out ^ (out >> 16)


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """(R, 4) uint64: per row of the (R, L) uint32 `entropy`, L >= 4,
    `SeedSequence(row).generate_state(4, np.uint64)`. Each of SeedSequence's
    hashmix calls runs for all rows at once, and the calls that read one
    source word run together: their hash constants follow the call order."""
    L = entropy.shape[1]
    a = _consts(_INIT_A, _MULT_A, 4 * (L - 4) + 16)
    pool = _hashmix(entropy[:, :4], a[:5])
    k = 4
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src, None], a[k:k + 4]))
        k += 3
    for src in range(4, L):
        pool = _mix(pool, _hashmix(entropy[:, src, None], a[k:k + 5]))
        k += 4
    out = _hashmix(np.tile(pool, 2), _consts(_INIT_B, _MULT_B, 8))
    # Word pairs (2t, 2t + 1) are uint64 t's low and high halves.
    return np.ascontiguousarray(out, dtype="<u4").view("<u8").astype(np.uint64, copy=False)


def stream_rngs(stream: int, seed: int, indices: Sequence[int],
                subkey: int = 0) -> list[np.random.Generator]:
    """`stream_rng(stream, seed, index, subkey)` for every index, seeded in
    one pass: generator i has the state of the i-th reference generator.
    SeedSequence's mixing runs once per key length over all keys of that
    length (an int of 2**32 or more takes two words). The pass has a fixed
    cost of a few dozen numpy calls, so a lone stream is cheaper through
    `stream_rng`; on a 2-CPU x86 host the pass wins from about 6 streams."""
    head = _words(stream) + _words(seed) + _words(subkey)
    keys = [head + _words(i) for i in indices]
    by_length: dict[int, list[int]] = {}
    for i, key in enumerate(keys):
        by_length.setdefault(len(key), []).append(i)
    rngs = [None] * len(keys)
    for rows in by_length.values():
        states = _seed_states(np.array([keys[i] for i in rows], dtype=np.uint32))
        for i, words in zip(rows, states):
            rngs[i] = np.random.Generator(np.random.PCG64(_SeedWords(words)))
    return rngs


def check_alpha(alpha: Optional[float]) -> None:
    """Refuse a mixing weight outside [0, 1]; None (drawn per sample) passes."""
    if alpha is not None and not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0,1], got {alpha}")


def sample_cost_batch(
    state: np.ndarray,
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
    """Draw M independent generation-time cost functions for the (d,) code
    row `state`; deterministic per (seed, state, subkey), one generator per
    block of `BLOCK` samples.

    `alpha` fixes every sample's mixing weight (1: step counts alone, 0:
    percentile shifts alone); None draws it per sample from Uniform(0,1).
    The options after `m` are keyword-only.
    """
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    rngs = [stream_rng(TRAIN_STREAM, seed, b, subkey) for b in range(-(-m // BLOCK))]
    codes = np.array(state, dtype=np.int64)
    drawn = _sample_blocks(np.broadcast_to(codes, (len(rngs), len(codes))), schema, table,
                           rngs, BLOCK, m, alpha, [editable] * len(rngs), pref)
    return CostSampleSet(schema, np.broadcast_to(codes, (m, len(codes))), *drawn)


def cost_rows(index_matrix: np.ndarray, samples: CostSampleSet,
              columns: Optional[np.ndarray] = None) -> np.ndarray:
    """Costs of members given as (P, d) domain positions, as
    `DatasetSchema.positions` returns them for their codes: the (P, M)
    table of every member under every cost function or, given (P,)
    `columns`, the (P,) cost of member p under column `columns[p]` alone.

    Each member's feature costs are added left to right, one gather per
    term added in place."""
    rows = index_matrix + samples.schema.offsets[:-1]
    columns = slice(None) if columns is None else columns
    out = samples.table[rows[:, 0], columns]
    for fi in range(1, rows.shape[1]):
        out += samples.table[rows[:, fi], columns]
    return out


def min_cost(positions: np.ndarray, owners: np.ndarray, population: CostSampleSet) -> np.ndarray:
    """(M,) least transition cost per column of `population` over the
    members it owns, given as (P, d) domain positions
    (`DatasetSchema.positions`), member p priced under column `owners[p]`
    alone; infinity for a column that owns no member."""
    prices = cost_rows(positions, population, owners)
    best = np.full(population.m, INF)
    np.minimum.at(best, owners, prices)
    return best


def emc(minima: np.ndarray):
    """The expected minimum cost of (..., M) per-sample minimum costs: their
    mean over the M samples, which is inf where some sample is uncovered
    (its minimum is inf). This is the one objective every optimizer
    minimizes; one (M,) vector gives a numpy float."""
    return np.mean(minima, axis=-1)
