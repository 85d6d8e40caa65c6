"""User cost functions as arrays: hierarchical sampling, pricing, and the
expected-minimum-cost objective.

A `CostSampleSet` holds M cost functions for one user state. `costs[f]` is
an (M, |D_f|) array whose row i prices moving feature f from the user's
value to each domain position under sample i: a cost in [0, 1], 0 for the
no-op and infinity when infeasible. `alpha` is (M,); `editable` (bool) and
`preferences` are (M, d).

Sampling is hierarchical: an editable feature subset, Dirichlet preference
scores over it, a mixing weight alpha between step-count (alpha=1) and
percentile-shift (alpha=0) difficulty, and a Beta draw per transition
around the blended mean. Sample i of a batch is drawn from
`stream_rng(stream, seed, i, subkey)` alone, in this order: the subset, the
preferences, alpha, then per editable feature in index order two
Uniform(size=|D_f|) draws (unordered features only) and one Beta draw over
its finite targets. Batches therefore extend without disturbing earlier
samples, and features outside the editable set draw nothing.

A batch is filled in two passes over its generators. Pass one draws each
sample's subset, preferences and alpha. An ordered feature's Beta
parameters depend on nothing else, so they are then computed for all
samples at once, for the features some sample chose. Pass two goes back to
each generator, which is exactly where pass one left it, and makes that
sample's remaining draws in the order above. Every generator therefore
sees the same calls with the same arguments as when one sample is drawn
alone, and the arithmetic is the same elementwise steps, so the results
are bit-identical.

Every price comes from `cost_rows`, which adds the features' costs left to
right; sums saturate at `math.inf`, so one infeasible feature makes a whole
transition infeasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .schema import DatasetSchema, PercentileTable, UserState, feasible_values

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
    costs: tuple[np.ndarray, ...]  # per feature, (M, |D_f|)
    alpha: np.ndarray  # (M,)
    editable: np.ndarray  # (M, d) bool
    preferences: np.ndarray  # (M, d)

    @property
    def m(self) -> int:
        return len(self.alpha)


def _targets(
    state: UserState, schema: DatasetSchema, table: PercentileTable, fi: int
) -> tuple[int, np.ndarray, Optional[np.ndarray]]:
    """Feature fi's domain position s of the user's value, its other
    feasible positions x, and for an ordered feature the (2, |x|) raw means
    of moving there: step count |{y : s < y <= x}| / |{y : y > s}| (mirrored
    downward) and CDF shift |cdf(x) - cdf(s)|. Unordered raw means are drawn
    per sample."""
    f = schema.features[fi]
    value = state.values[fi]
    s_idx = f.index_of(value)
    allowed = feasible_values(schema, fi, value)
    targets = [j for j, v in enumerate(f.domain) if j != s_idx and v in allowed]
    raw = None
    if f.kind == "ordered":
        n_up, n_down = f.size - s_idx - 1, s_idx
        lin = [(j - s_idx) / n_up if j > s_idx else (s_idx - j) / n_down for j in targets]
        cdf_s = table.percentile(f, value) if targets else 0.0
        perc = [abs(table.percentile(f, f.domain[j]) - cdf_s) for j in targets]
        raw = np.array([lin, perc], dtype=float)
    return s_idx, np.array(targets, dtype=np.intp), raw


def random_editable_subset(candidates: list[int], rng: np.random.Generator) -> list[int]:
    """Uniform over non-empty subsets of the candidate features, ascending."""
    if not candidates:
        raise ValueError("schema has no mutable features; supply an editable set")
    while True:
        mask = rng.random(len(candidates)) < 0.5
        if mask.any():
            return [c for c, m in zip(candidates, mask) if m]


def _blend(
    a: np.ndarray, keep: np.ndarray, lin: np.ndarray, perc: np.ndarray
) -> np.ndarray:
    """Transition-cost means: the alpha blend of the preference-scaled
    step-count and percentile means, clipped to [0, 1]."""
    return np.clip(a * (lin * keep) + (1.0 - a) * (perc * keep), 0.0, 1.0)


def _beta_shapes(mu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where a Beta around each mean exists, nu = mu(1-mu)/std^2 - 1 > 0,
    and its parameters (mu * nu, (1 - mu) * nu) there in row-major order.
    Elsewhere the mean itself is the cost."""
    nu = mu * (1.0 - mu) / _VAR - 1.0
    ok = nu > 0.0
    mu_ok, nu_ok = mu[ok], nu[ok]
    return ok, mu_ok * nu_ok, (1.0 - mu_ok) * nu_ok


def _unordered_costs(
    rng: np.random.Generator, size: int, targets: np.ndarray, a: float, keep: float
) -> list[float]:
    """One sample's costs of an unordered feature's targets: fresh
    Uniform(0,1) step-count and percentile means, blended and Beta-drawn
    like the ordered features, on Python floats (the same IEEE steps)."""
    lin = rng.uniform(0.0, 1.0, size=size)[targets].tolist()
    perc = rng.uniform(0.0, 1.0, size=size)[targets].tolist()
    b = 1.0 - a
    mu = [min(max(a * (x * keep) + b * (y * keep), 0.0), 1.0) for x, y in zip(lin, perc)]
    nu = [v * (1.0 - v) / _VAR - 1.0 for v in mu]
    ok = [j for j, n in enumerate(nu) if n > 0.0]
    if ok:
        draws = rng.beta([mu[j] * nu[j] for j in ok], [(1.0 - mu[j]) * nu[j] for j in ok])
        for j, v in zip(ok, draws.tolist()):
            mu[j] = v
    return mu


def _sample(
    state: UserState,
    schema: DatasetSchema,
    table: PercentileTable,
    rngs: Sequence[np.random.Generator],
    alpha: Optional[float],
    editable: Optional[frozenset[int]],
    pref: Optional[np.ndarray],
) -> CostSampleSet:
    """Fill row i of every array from `rngs[i]` alone; absent inputs are
    drawn per sample (see `sample_cost_function`)."""
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

    features = schema.features
    candidates = schema.mutable_indices()
    m = len(rngs)
    chosen_mask = np.zeros((m, d), dtype=bool)
    prefs = np.zeros((m, d))
    # Pass one: each sample's editable subset, preferences and alpha.
    subsets, alpha_list = [], []
    for i, rng in enumerate(rngs):
        chosen = pinned if pinned is not None else random_editable_subset(candidates, rng)
        subsets.append(chosen)
        chosen_mask[i, chosen] = True
        if pref is None:
            prefs[i, chosen] = rng.dirichlet(np.ones(len(chosen)))
        alpha_list.append(float(rng.uniform(0.0, 1.0)) if alpha is None else alpha)
    alphas = np.array(alpha_list, dtype=float)
    if pref is not None:
        prefs[:] = pref

    # Blended means and Beta parameters of all samples at once, over the
    # targets of the features some sample chose, side by side: feature fi
    # owns columns spans[fi]. Unordered columns hold zero means until pass
    # two fills them. ok_before[k] counts the Beta draws of the first k
    # cells in row-major order, so sample i's draws for fi sit in
    # [ok_before[i * width + lo], ok_before[i * width + hi]).
    used = [fi for fi, hit in enumerate(chosen_mask.any(axis=0).tolist()) if hit]
    plan = {fi: _targets(state, schema, table, fi) for fi in used}
    spans, width = {}, 0
    for fi in used:
        spans[fi] = (width, width + len(plan[fi][1]))
        width = spans[fi][1]
    raw = np.concatenate(
        [np.zeros((2, 0))]
        + [r if r is not None else np.zeros((2, len(t))) for _, t, r in plan.values()],
        axis=1,
    )
    owner = [fi for fi in used for _ in range(*spans[fi])]
    mu = _blend(alphas[:, None], 1.0 - prefs[:, owner], raw[0], raw[1])
    ok, shape_a, shape_b = _beta_shapes(mu)
    ok_before = np.zeros(m * width + 1, dtype=np.intp)
    np.cumsum(ok, out=ok_before[1:])
    draws = np.empty(len(shape_a))

    # Pass two: each sample's remaining draws, per editable feature in index
    # order: two Uniform rows for an unordered feature, then its Beta draw.
    for i, rng in enumerate(rngs):
        for fi in subsets[i]:
            lo, hi = spans[fi]
            _, targets, ordered_raw = plan[fi]
            if ordered_raw is None:
                keep = 1.0 - float(prefs[i, fi])
                mu[i, lo:hi] = _unordered_costs(
                    rng, features[fi].size, targets, alpha_list[i], keep
                )
                continue
            start, stop = ok_before[i * width + lo], ok_before[i * width + hi]
            if stop > start:
                draws[start:stop] = rng.beta(shape_a[start:stop], shape_b[start:stop])
    mu[ok] = draws
    del ok, ok_before, shape_a, shape_b, draws  # freed before the cost arrays

    costs = []
    for fi, (f, value) in enumerate(zip(features, state.values)):
        stack = np.empty((m, f.size))
        stack.fill(INF)
        stack[:, f.index_of(value)] = 0.0
        if fi in spans:
            lo, hi = spans[fi]
            stack[:, plan[fi][1]] = np.where(chosen_mask[:, fi, None], mu[:, lo:hi], INF)
        costs.append(stack)
    for arr in (*costs, alphas, chosen_mask, prefs):
        arr.setflags(write=False)
    return CostSampleSet(schema, state, tuple(costs), alphas, chosen_mask, prefs)


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
    -> `alpha` (None draws it per sample)."""
    if distribution not in DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {distribution!r}")
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
    Uniform(0,1) unless an explicit `alpha` pins it.
    """
    if m < 1:
        raise ValueError(f"sample count must be >= 1, got {m}")
    fixed_alpha = distribution_alpha(distribution, alpha)
    rngs = [stream_rng(TRAIN_STREAM, seed, i, subkey) for i in range(m)]
    return _sample(state, schema, table, rngs, fixed_alpha, editable, pref)


def cost_rows(index_matrix: np.ndarray, samples: CostSampleSet) -> np.ndarray:
    """(N, M) cost table for members given as (N, d) domain-position indices."""
    out = np.zeros((index_matrix.shape[0], samples.m))
    for fi, stack in enumerate(samples.costs):
        out += stack[:, index_matrix[:, fi]].T
    return out


def min_cost(s_u: UserState, members: np.ndarray, samples: CostSampleSet) -> float:
    """Least transition cost over (n, d) member codes under a single cost
    function (M=1)."""
    if not len(members):
        raise ValueError("recourse set is empty")
    if samples.state.values != s_u.values:
        raise ValueError("cost function is conditioned on a different state")
    if samples.m != 1:
        raise ValueError(f"expected a single cost function, got {samples.m}")
    features = samples.schema.features
    idx = np.array(
        [[f.index_of(v) for f, v in zip(features, row)] for row in members.tolist()],
        dtype=np.intp,
    )
    return float(cost_rows(idx, samples).min())


def emc_of_matrix(entries: np.ndarray) -> float:
    """Mean over samples of the per-sample minimum of an (N, M) cost table."""
    if entries.size == 0:
        raise ValueError("cost table is empty")
    mins = entries.min(axis=0)
    if np.isinf(mins).any():
        return INF
    return float(mins.mean())
