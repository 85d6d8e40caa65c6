"""Simulated-user evaluation: satisfaction, cost, coverage, distance, and
fairness metrics.

Each simulated user carries a hidden ground-truth cost function drawn from
the evaluation RNG stream, which is structurally disjoint from the stream
that produced the generation-time samples. A user's realised cost is the
minimum over the *valid* members of their recourse set; invalid members
count as infinitely expensive.

A population is priced once: `compute_report` holds one realised cost per
user, and FS@k, PAC and coverage, overall and per protected subgroup, are
reductions over that vector (a subgroup is a boolean mask over it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .cost import (
    TEST_STREAM,
    CostSampleSet,
    distribution_alpha,
    min_cost,
    sample_cost_function,
    stream_rng,
)
from .schema import DatasetSchema, PercentileTable, UserState
from .search import RecourseSet

INF = math.inf


@dataclass(frozen=True)
class SimulatedUser:
    state: UserState
    true_cost: CostSampleSet  # a single hidden cost function (M=1)
    subgroups: Mapping[str, int]


@dataclass
class PacResult:
    """Average realised cost over covered users; None when nobody is covered."""

    value: Optional[float]
    uncovered: int


@dataclass
class MetricsReport:
    fs_at_k: float
    k: float
    pac: PacResult
    coverage: float
    diversity: float
    proximity: float
    sparsity: float
    validity: float
    n_users: int
    by_subgroup: dict[str, dict[int, dict[str, float]]]
    dir_ratios: dict[str, dict[str, Optional[float]]]


def simulate_user(
    state: UserState,
    schema: DatasetSchema,
    table: PercentileTable,
    test_seed: int,
    user_id: int,
    distribution: str = "mix",
    alpha: Optional[float] = None,
    editable: Optional[frozenset[int]] = None,
) -> SimulatedUser:
    """Draw one hidden cost function for a user, keyed by (test_seed, user_id)."""
    rng = stream_rng(TEST_STREAM, test_seed, user_id)
    true_cost = sample_cost_function(
        state, schema, table, rng, alpha=distribution_alpha(distribution, alpha),
        editable=editable,
    )
    subgroups = {
        name: state.values[schema.feature_index(name)]
        for name in schema.protected_attributes
    }
    return SimulatedUser(state=state, true_cost=true_cost, subgroups=subgroups)


def realized_cost(user: SimulatedUser, recourse: RecourseSet) -> float:
    """Cheapest valid option under the user's hidden cost function."""
    valid_members = [
        m for m, ok in zip(recourse.members, recourse.validity) if ok
    ]
    if not valid_members:
        return INF
    return min_cost(user.state, valid_members, user.true_cost)


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
    s_u: UserState, members: Sequence[UserState], schema: DatasetSchema
) -> tuple[float, float, float]:
    """(diversity, proximity, sparsity) of a member list, validity aside.

    Pair distances are summed left to right, member pairs in (i, j) order."""
    n = len(members)
    d = schema.n_features
    # Rows 0..n-1 are the members and row n is the user.
    codes = np.array([*(m.values for m in members), s_u.values], dtype=np.int64)
    i, j = np.nonzero(np.less.outer(np.arange(n), np.arange(n)))
    left = np.concatenate([np.full(n, n), i])
    right = np.concatenate([np.arange(n), j])
    dist = _pair_distances(codes[left], codes[right], schema).tolist()
    prox = 1.0 - sum(dist[:n]) / n
    spar = 1.0 - int(np.count_nonzero(codes[:n] != codes[n])) / (n * d)
    div = sum(dist[n:]) / len(i) if n >= 2 else 0.0
    return div, prox, spar


def distance_metrics(
    s_u: UserState, recourse: RecourseSet, schema: DatasetSchema
) -> tuple[float, float, float, float]:
    """(diversity, proximity, sparsity, validity) of one recourse set."""
    div, prox, spar = set_distance_stats(s_u, recourse.members, schema)
    unique_valid = {
        m.values for m, ok in zip(recourse.members, recourse.validity) if ok
    }
    val = len(unique_valid) / recourse.n
    return div, prox, spar, val


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
    """Per test vector, the Euclidean distance to its nearest train vector."""
    test = np.asarray(test_concentrations, dtype=float)
    train = np.asarray(train_concentrations, dtype=float)
    if train.size == 0:
        raise ValueError("no train concentration vectors")
    if test.ndim == 1:
        test = test[None, :]
    diffs = test[:, None, :] - train[None, :, :]
    return np.sqrt((diffs**2).sum(axis=2)).min(axis=1)


def compute_report(
    users: Sequence[SimulatedUser],
    sets: Sequence[RecourseSet],
    schema: DatasetSchema,
    k: float = 1.0,
) -> MetricsReport:
    """All metrics over a population, with per-subgroup splits and ratios."""
    if not users or len(users) != len(sets):
        raise ValueError("need one recourse set per user, at least one user")
    costs = np.array([realized_cost(u, s) for u, s in zip(users, sets)])
    dists = [distance_metrics(u.state, s, schema) for u, s in zip(users, sets)]
    div, prox, spar, val = (float(np.mean([d[i] for d in dists])) for i in range(4))

    by_subgroup: dict[str, dict[int, dict[str, float]]] = {}
    dir_ratios: dict[str, dict[str, Optional[float]]] = {}
    for attr in schema.protected_attributes:
        feature = schema.features[schema.feature_index(attr)]
        labels = np.array([u.subgroups.get(attr) for u in users], dtype=object)
        groups: dict[int, dict[str, float]] = {}
        for value in feature.domain:
            sub = costs[labels == value]
            if len(sub):
                groups[value] = {
                    "fs_at_k": fs_at_k(sub, k),
                    "coverage": coverage(sub),
                    "n": len(sub),
                }
        by_subgroup[attr] = groups
        if len(groups) == 2:
            order = list(groups)
            dir_ratios[attr] = {
                metric: dir_ratio({v: g[metric] for v, g in groups.items()}, order)
                for metric in ("fs_at_k", "coverage")
            }

    return MetricsReport(
        fs_at_k=fs_at_k(costs, k),
        k=k,
        pac=pac(costs),
        coverage=coverage(costs),
        diversity=div,
        proximity=prox,
        sparsity=spar,
        validity=val,
        n_users=len(users),
        by_subgroup=by_subgroup,
        dir_ratios=dir_ratios,
    )
