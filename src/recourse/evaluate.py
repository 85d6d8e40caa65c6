"""Simulated-user evaluation: satisfaction, cost, coverage, distance, and
fairness metrics.

A simulated user is a hidden ground-truth cost function drawn for the
user's state from the evaluation RNG stream, which is structurally
disjoint from the stream that produced the generation-time samples.
`simulate_users` draws a population in one call, as one `CostSampleSet`
whose column u is user u's cost function, each from the user's own
(test seed, user id) stream, so a user's draw does not depend on who else
is drawn. Every user's stream is seeded in one vectorized pass
(`cost.stream_rngs`, each generator in the state `stream_rng` gives it),
and the sampler runs its per-user draws phase by phase over the whole
population, each generator making the same calls in the same order.

A population's recourse sets are arrays: (P, d) int64 member codes and,
per member, its owner (its user's index) and validity flag. A user's
realised cost is the minimum over the *valid* members they own, infinity
when they own none. One `min_cost` call prices a population, each valid
member, given as domain positions, under its owner's column alone.

A report is one flat table, metric name -> value, whose names and row
order come from `metric_names` alone. `compute_report` prices a population
once, holding one realised cost per user: FS@k, PAC and coverage, overall
and per protected subgroup, are reductions over that vector (a subgroup is
a boolean mask over it, read from the population's states). `set_metrics`
measures what depends on the sets alone, once whatever the number of
hidden populations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .cost import (
    TEST_STREAM,
    CostSampleSet,
    min_cost,
    sample_cost_function,
    sample_cost_functions,
    stream_rng,
    stream_rngs,
)
from .schema import DatasetSchema, PercentileTable

INF = math.inf


@dataclass
class PacResult:
    """Average realised cost over covered users; None when nobody is covered."""

    value: Optional[float]
    uncovered: int


@dataclass
class MetricsReport:
    """Hidden-cost metrics as a flat table in `metric_names` order."""

    table: dict[str, Optional[float]]
    n_users: int
    fs_at_k: float
    pac: PacResult
    coverage: float


SET_METRICS = ("diversity", "proximity", "sparsity", "validity")


def _subgroup_names(fs: str, attr: str, value: int) -> tuple[str, str]:
    return f"{fs}[{attr}={value}]", f"coverage[{attr}={value}]"


def _ratio_names(fs: str, attr: str) -> tuple[str, str]:
    return f"dir_{fs}[{attr}]", f"dir_coverage[{attr}]"


def metric_names(schema: DatasetSchema, k: float) -> list[str]:
    """Every metric a report table can hold, in row order: overall, then
    FS@k and coverage per protected subgroup, then disparate impact ratios."""
    fs = f"fs_at_{k:g}"
    names = [fs, "pac", "pac_uncovered", "coverage", *SET_METRICS]
    for attr in schema.protected_attributes:
        for value in schema.features[schema.feature_index(attr)].domain:
            names.extend(_subgroup_names(fs, attr, value))
    for attr in schema.protected_attributes:
        names.extend(_ratio_names(fs, attr))
    return names


def simulate_user(
    state: np.ndarray,
    schema: DatasetSchema,
    table: PercentileTable,
    test_seed: int,
    user_id: int,
    alpha: Optional[float] = None,
    editable: Optional[frozenset[int]] = None,
) -> CostSampleSet:
    """The hidden cost function of the code row `state` (a population of
    one), keyed by (test_seed, user_id); `alpha` as in `sample_cost_batch`."""
    rng = stream_rng(TEST_STREAM, test_seed, user_id)
    return sample_cost_function(state, schema, table, rng, alpha=alpha, editable=editable)


def simulate_users(
    states: np.ndarray,
    schema: DatasetSchema,
    table: PercentileTable,
    test_seed: int,
    user_ids: Sequence[int],
    alpha: Optional[float] = None,
    editable: Optional[Sequence[Optional[frozenset[int]]]] = None,
) -> CostSampleSet:
    """`simulate_user` for each user, the population drawn in one call:
    column u is the hidden cost function of the state codes `states[u]`,
    pinned to the editable set `editable[u]` when one is given."""
    rngs = stream_rngs(TEST_STREAM, test_seed, user_ids)
    return sample_cost_functions(states, schema, table, rngs, alpha=alpha, editable=editable)


def fs_at_k(costs: np.ndarray, k: float = 1.0) -> float:
    """Fraction of users whose realised cost is strictly below k."""
    return int(np.count_nonzero(costs < k)) / len(costs)


def pac(costs: np.ndarray) -> PacResult:
    """Mean realised cost over covered users, with the uncovered count."""
    finite = costs[costs < INF].tolist()
    uncovered = len(costs) - len(finite)
    if not finite:
        return PacResult(value=None, uncovered=uncovered)
    return PacResult(value=sum(finite) / len(finite), uncovered=uncovered)


def coverage(costs: np.ndarray) -> float:
    """Fraction of users with any finite-cost valid recourse."""
    return fs_at_k(costs, INF)


def _pair_distances(a: np.ndarray, b: np.ndarray, schema: DatasetSchema) -> np.ndarray:
    """Distance of each row pair of two (P, d) code arrays: the mean
    per-feature normalized distance, range-scaled absolute difference for
    ordered features and change indicator for unordered ones. Features are
    accumulated left to right."""
    features = schema.features
    ordered = np.array([f.kind == "ordered" for f in features])
    # Ordered domains are sorted and duplicate-free, so a zero span is a
    # one-value domain where every difference is zero.
    spans = np.array([
        max(f.domain[-1] - f.domain[0], 1) if f.kind == "ordered" else 1
        for f in features
    ])
    diff = np.abs(a - b)
    terms = np.where(ordered, diff / spans, diff != 0)
    return np.cumsum(terms, axis=1)[:, -1] / schema.n_features


def set_distance_stats(
    state: np.ndarray, members: np.ndarray, schema: DatasetSchema
) -> tuple[float, float, float]:
    """(diversity, proximity, sparsity) of (n, d) member codes for the
    state codes `state`, validity aside.

    Pair distances are summed left to right, member pairs in (i, j) order."""
    n = len(members)
    d = schema.n_features
    # Rows 0..n-1 are the members and row n is the user.
    codes = np.vstack([members, state], dtype=np.int64)
    i, j = np.nonzero(np.less.outer(np.arange(n), np.arange(n)))
    left = np.concatenate([np.full(n, n), i])
    right = np.concatenate([np.arange(n), j])
    dist = _pair_distances(codes[left], codes[right], schema).tolist()
    prox = 1.0 - sum(dist[:n]) / n
    spar = 1.0 - int(np.count_nonzero(codes[:n] != codes[n])) / (n * d)
    div = sum(dist[n:]) / len(i) if n >= 2 else 0.0
    return div, prox, spar


def distance_metrics(
    state: np.ndarray, members: np.ndarray, validity: np.ndarray, schema: DatasetSchema
) -> tuple[float, float, float, float]:
    """(diversity, proximity, sparsity, validity) of one recourse set, (n, d)
    member codes with (n,) validity flags, for the state codes `state`."""
    div, prox, spar = set_distance_stats(state, members, schema)
    unique_valid = set(map(tuple, members[validity].tolist()))
    return div, prox, spar, len(unique_valid) / len(members)


def dir_ratio(
    metric_by_subgroup: Mapping[int, float], group_order: Sequence[int]
) -> Optional[float]:
    """Disparate impact ratio metric(first group) / metric(second group).

    The numerator group is the first value of the protected feature's
    domain. None (undefined) when the denominator is zero.
    """
    if len(group_order) != 2:
        raise ValueError("disparate impact needs exactly two subgroups")
    num = metric_by_subgroup[group_order[0]]
    den = metric_by_subgroup[group_order[1]]
    if den == 0:
        return None
    return num / den


def concentration_distance(
    test_concentrations: np.ndarray, train_concentrations: np.ndarray
) -> np.ndarray:
    """(V,) Euclidean distance from each row of the (V, d) test vectors to
    its nearest row of the (T, d) train vectors."""
    test = np.asarray(test_concentrations, dtype=float)
    train = np.asarray(train_concentrations, dtype=float)
    if train.size == 0:
        raise ValueError("no train concentration vectors")
    diffs = test[:, None, :] - train[None, :, :]
    return np.sqrt((diffs**2).sum(axis=2)).min(axis=1)


def set_metrics(states: np.ndarray, members: np.ndarray, owners: np.ndarray,
                validity: np.ndarray, schema: DatasetSchema) -> dict[str, float]:
    """Mean diversity, proximity, sparsity and validity over users' sets:
    user u (state codes `states[u]`) owns the members where `owners` is u."""
    order = np.argsort(owners, kind="stable")
    ends = np.cumsum(np.bincount(owners, minlength=len(states))).tolist()
    per_set = [distance_metrics(state, members[order[lo:hi]], validity[order[lo:hi]], schema)
               for state, lo, hi in zip(states, [0, *ends], ends)]
    return {name: float(np.mean(col)) for name, col in zip(SET_METRICS, zip(*per_set))}


def compute_report(
    users: CostSampleSet,
    positions: np.ndarray,
    owners: np.ndarray,
    schema: DatasetSchema,
    k: float = 1.0,
) -> MetricsReport:
    """Hidden-cost metrics, with subgroup splits and ratios, of a population
    (user u is column u of `users`) from its valid members' (P, d) domain
    positions, member p owned by column `owners[p]`."""
    if len(owners) != len(positions) or not ((owners >= 0) & (owners < users.m)).all():
        raise ValueError(f"need one owner column in 0..{users.m - 1} per member")
    costs = min_cost(positions, owners, users)
    fs = f"fs_at_{k:g}"
    overall = pac(costs)
    table = {fs: fs_at_k(costs, k), "pac": overall.value,
             "pac_uncovered": overall.uncovered, "coverage": coverage(costs)}
    ratios = {}
    for attr in schema.protected_attributes:
        fi = schema.feature_index(attr)
        groups = {}
        for value in schema.features[fi].domain:
            sub = costs[users.states[:, fi] == value]
            if len(sub):
                groups[value] = (fs_at_k(sub, k), coverage(sub))
                table.update(zip(_subgroup_names(fs, attr, value), groups[value]))
        if len(groups) == 2:
            order = list(groups)
            for i, name in enumerate(_ratio_names(fs, attr)):
                ratios[name] = dir_ratio({v: g[i] for v, g in groups.items()}, order)
    table.update(ratios)
    return MetricsReport(table=table, n_users=users.m, fs_at_k=table[fs],
                         pac=overall, coverage=table["coverage"])
