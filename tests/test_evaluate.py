import math

import numpy as np
import pytest

from recourse import evaluate
from recourse.cost import INF, min_cost
from recourse.datasets import make_adult_like
from recourse.evaluate import (
    SimulatedUser,
    compute_report,
    concentration_distance,
    coverage,
    dir_ratio,
    distance_metrics,
    fs_at_k,
    pac,
    realized_cost,
    set_distance_stats,
    simulate_user,
)
from recourse.schema import (
    DatasetSchema,
    FeatureSpec,
    UserState,
    build_percentile_table,
)
from recourse.search import RecourseSet, _Workspace

from test_cost import manual_samples


def single_feature_user(costs):
    """A user on a one-feature domain with hand-set transition costs.

    costs[j] is the cost of moving from value 0 to value j; a recourse set
    pointing at value 1 realises costs[1].
    """
    schema = DatasetSchema(
        features=(FeatureSpec("f", "ordered", tuple(range(len(costs)))),)
    )
    state = UserState((0,))
    cost = manual_samples(schema, state, [[costs]])
    return SimulatedUser(state=state, true_cost=cost, subgroups={})


def pointing_set(value=1, valid=True):
    return RecourseSet(members=(UserState((value,)),), validity=(valid,))


class TestRealizedCost:
    def test_reads_the_pointed_transition(self):
        for c in (0.0, 0.5, 1.2, INF):
            assert realized_cost(single_feature_user([0.0, c]), pointing_set()) == c


class TestFsAtK:
    def test_hand_count(self):
        assert fs_at_k(np.array([0.5, 1.2, INF]), k=1.0) == pytest.approx(1 / 3)

    def test_all_zero_cost(self):
        assert fs_at_k(np.zeros(4), k=1.0) == 1.0

    def test_k_zero_boundary_is_strict(self):
        assert fs_at_k(np.array([0.0]), k=0.0) == 0.0

    def test_non_decreasing_in_k(self):
        costs = np.array([0.1, 0.5, 0.9, INF])
        values = [fs_at_k(costs, k) for k in (0.0, 0.2, 0.6, 1.0, 5.0)]
        assert values == sorted(values)

    def test_invalid_members_cost_infinity(self):
        user = single_feature_user([0.0, 0.1])
        costs = np.array([realized_cost(user, pointing_set(valid=False))])
        assert costs[0] == INF
        assert fs_at_k(costs, k=1.0) == 0.0
        assert coverage(costs) == 0.0

    def test_removal_never_helps(self):
        user = single_feature_user([0.0, 0.9, 0.2])
        both = RecourseSet(
            members=(UserState((1,)), UserState((2,))), validity=(True, True)
        )
        assert realized_cost(user, both) <= realized_cost(user, pointing_set(1))

    def test_empty_population_rejected(self):
        schema = DatasetSchema(features=(FeatureSpec("f", "ordered", (0, 1)),))
        with pytest.raises(ValueError):
            compute_report([], [], schema, k=1.0)
        with pytest.raises(ValueError):
            compute_report([single_feature_user([0.0, 0.5])], [], schema, k=1.0)


class TestPac:
    def test_mean_of_finite(self):
        result = pac(np.array([0.2, 0.4]))
        assert result.value == pytest.approx(0.3)
        assert result.uncovered == 0

    def test_uncovered_reported_separately(self):
        result = pac(np.array([0.2, INF]))
        assert result.value == pytest.approx(0.2)
        assert result.uncovered == 1

    def test_single_zero_cost_user(self):
        assert pac(np.array([0.0])).value == 0.0

    def test_all_uncovered_flagged_undefined(self):
        result = pac(np.array([INF]))
        assert result.value is None
        assert result.uncovered == 1

    def test_left_to_right_sum(self):
        # Sequential float addition, not numpy's pairwise sum: for these
        # draws np.mean differs in the last bit.
        finite = np.random.default_rng(0).uniform(0, 2, size=(3, 20))[2]
        costs = np.insert(finite, 5, INF)
        expected = sum(finite.tolist()) / len(finite)
        assert expected != np.mean(finite)
        assert pac(costs).value == expected


class TestCoverage:
    def test_hand_count(self):
        assert coverage(np.array([0.5, INF, 3.0])) == pytest.approx(2 / 3)

    def test_all_finite(self):
        assert coverage(np.full(3, 0.5)) == 1.0

    def test_fs_never_exceeds_coverage(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            costs = np.array([INF if rng.random() < 0.3 else float(rng.uniform(0, 2))
                              for _ in range(10)])
            for k in (0.5, 1.0, 2.0):
                assert fs_at_k(costs, k) <= coverage(costs)


def _pair_distance(a: UserState, b: UserState, schema: DatasetSchema) -> float:
    """Scalar oracle: mean per-feature normalized distance, range-scaled
    absolute difference for ordered features, change indicator for
    unordered ones, accumulated feature by feature."""
    total = 0.0
    for fi, f in enumerate(schema.features):
        x, y = a.values[fi], b.values[fi]
        if f.kind == "ordered":
            span = f.domain[-1] - f.domain[0]
            total += abs(x - y) / span if span else 0.0
        else:
            total += 1.0 if x != y else 0.0
    return total / schema.n_features


def scalar_distance_stats(s_u, members, schema):
    """(diversity, proximity, sparsity) through the scalar oracle."""
    n, d = len(members), schema.n_features
    prox = 1.0 - sum(_pair_distance(s_u, m, schema) for m in members) / n
    changed = sum(
        1 for m in members for fi in range(d) if m.values[fi] != s_u.values[fi]
    )
    spar = 1.0 - changed / (n * d)
    if n < 2:
        return 0.0, prox, spar
    pairs = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
    div = sum(_pair_distance(members[i], members[j], schema) for i, j in pairs)
    return div / len(pairs), prox, spar


class TestDistanceMetrics:
    def _schema3(self):
        return DatasetSchema(
            features=(
                FeatureSpec("a", "ordered", (0, 1, 2, 3)),
                FeatureSpec("b", "ordered", (0, 1, 2, 3)),
                FeatureSpec("c", "unordered", (0, 1)),
            )
        )

    def test_sparsity_single_change(self):
        schema = self._schema3()
        s_u = UserState((0, 0, 0))
        rs = RecourseSet(members=(UserState((2, 0, 0)),), validity=(True,))
        div, prox, spar, val = distance_metrics(s_u, rs, schema)
        assert spar == pytest.approx(1 - 1 / 3)
        assert div == 0.0
        assert val == 1.0

    def test_noop_member_identity_case(self):
        schema = self._schema3()
        s_u = UserState((1, 1, 0))
        rs = RecourseSet(members=(s_u,), validity=(True,))
        div, prox, spar, val = distance_metrics(s_u, rs, schema)
        assert prox == 1.0
        assert spar == 1.0
        assert div == 0.0

    def test_validity_counts_unique_valid(self):
        schema = self._schema3()
        s_u = UserState((0, 0, 0))
        members = [UserState((1 + i // 3, i % 3, 0)) for i in range(9)]
        members.append(UserState((1, 0, 0)))  # duplicate of the first
        rs = RecourseSet(members=tuple(members), validity=(True,) * 10)
        *_, val = distance_metrics(s_u, rs, schema)
        assert val == pytest.approx(0.9)

    def test_metrics_bounded(self, synth6):
        schema, rows, _, table, _ = synth6
        rng = np.random.default_rng(2)
        s_u = rows[0]
        for _ in range(20):
            members = tuple(
                UserState(
                    tuple(int(rng.choice(f.domain)) for f in schema.features)
                )
                for _ in range(4)
            )
            rs = RecourseSet(members=members,
                             validity=tuple(rng.random(4) < 0.5))
            for v in distance_metrics(s_u, rs, schema):
                assert 0.0 <= v <= 1.0


    def test_matches_scalar_oracle_bit_for_bit(self):
        schema, rows, _ = make_adult_like(300, seed=5)
        rng = np.random.default_rng(6)
        checked = 0
        for uid in range(60):
            ws = _Workspace(rows[uid], schema)
            n = int(rng.integers(1, 12))
            moves = ws.perturb_rows(np.tile(ws.user_idx, (n, 1)), rng, 1 + uid % 3)
            members = ws.to_states(moves)
            if uid % 4 == 0:  # repeated members and the user's own state
                members = [members[0], rows[uid], *members, members[0]]
            got = set_distance_stats(rows[uid], members, schema)
            assert got == scalar_distance_stats(rows[uid], members, schema)
            checked += len(members) > 1
        assert checked > 40


class TestDirRatio:
    def test_reproduces_published_ratio(self):
        by_group = {1: 76.8, 0: 76.5}
        ratio = dir_ratio(by_group, group_order=[1, 0])
        assert round(ratio, 3) == 1.004

    def test_equal_metrics(self):
        assert dir_ratio({0: 0.5, 1: 0.5}, [0, 1]) == 1.0

    def test_zero_denominator_undefined(self):
        assert dir_ratio({0: 0.0, 1: 0.4}, [1, 0]) is None

    def test_swap_inverts(self):
        by_group = {0: 0.3, 1: 0.6}
        a = dir_ratio(by_group, [0, 1])
        b = dir_ratio(by_group, [1, 0])
        assert a * b == pytest.approx(1.0)

    def test_needs_two_groups(self):
        with pytest.raises(ValueError):
            dir_ratio({0: 1.0}, [0])


class TestConcentrationDistance:
    def test_present_vector_is_zero(self):
        train = np.array([[1, 0, 1], [0, 1, 1]])
        assert concentration_distance(np.array([1, 0, 1]), train)[0] == 0.0

    def test_one_bit_is_one(self):
        train = np.array([[1, 0, 1]])
        assert concentration_distance(np.array([1, 1, 1]), train)[0] == 1.0

    def test_four_bits_is_two(self):
        train = np.array([[0, 0, 0, 0, 0]])
        test = np.array([[1, 1, 1, 1, 0]])
        assert concentration_distance(test, train)[0] == pytest.approx(2.0)

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError):
            concentration_distance(np.array([[1.0]]), np.empty((0, 1)))


class TestSimulatedUsers:
    def test_deterministic_per_seed_and_id(self, synth6):
        schema, rows, _, table, _ = synth6
        a = simulate_user(rows[0], schema, table, test_seed=5, user_id=3)
        b = simulate_user(rows[0], schema, table, test_seed=5, user_id=3)
        assert all(
            np.array_equal(x, y)
            for x, y in zip(a.true_cost.costs, b.true_cost.costs)
        )

    def test_different_from_generation_stream(self, synth6):
        from recourse.cost import sample_cost_batch

        schema, rows, _, table, _ = synth6
        gen = sample_cost_batch(rows[0], schema, table, 1, "mix", seed=5, subkey=3)
        test = simulate_user(rows[0], schema, table, test_seed=5, user_id=3)
        same = all(
            np.array_equal(x, y)
            for x, y in zip(gen.costs, test.true_cost.costs)
        )
        assert not same

    def test_unknown_distribution_rejected(self, synth6):
        from recourse.experiments import evaluate_docs
        from recourse.results import ResultDoc

        schema, rows, _, table, _ = synth6
        with pytest.raises(ValueError, match="unknown distribution 'linear'"):
            simulate_user(rows[0], schema, table, test_seed=5, user_id=3,
                          distribution="linear")
        doc = ResultDoc(
            user_id=3, method="cols", state=list(rows[0].values),
            members=[list(rows[0].values)], validity=[False], final_emc=INF,
            trace=[INF], queries_used=1, seed=0,
        )
        with pytest.raises(ValueError, match="unknown distribution 'linear'"):
            evaluate_docs([doc], schema, table, test_seed=5,
                          test_distribution="linear")

    def test_subgroups_read_from_state(self, synth6):
        schema, rows, _, table, _ = synth6
        user = simulate_user(rows[0], schema, table, test_seed=1, user_id=0)
        assert user.subgroups == {
            "origin": rows[0].values[schema.feature_index("origin")]
        }


@pytest.fixture(scope="module")
def adult_population():
    """80 adult-like users, each with three feasible two-feature moves (the
    first always valid), so realised costs mix cheap, dear and infinite."""
    schema, rows, _ = make_adult_like(400, seed=7)
    table = build_percentile_table(rows, schema)
    rng = np.random.default_rng(4)
    users, sets = [], []
    for uid in range(80):
        users.append(simulate_user(rows[uid], schema, table, 31, uid))
        ws = _Workspace(rows[uid], schema)
        moves = ws.perturb_rows(np.tile(ws.user_idx, (3, 1)), rng)
        sets.append(RecourseSet(
            members=tuple(ws.to_states(moves)),
            validity=(True, *(bool(v) for v in rng.random(2) < 0.5)),
        ))
    return schema, users, sets


class TestComputeReport:
    def test_report_fields_and_subgroups(self, synth6):
        schema, rows, _, table, _ = synth6
        users, sets = [], []
        for uid, state in enumerate(rows[:20]):
            users.append(simulate_user(state, schema, table, 99, uid))
            sets.append(
                RecourseSet(members=(state,), validity=(True,))
            )
        report = compute_report(users, sets, schema, k=1.0)
        assert report.n_users == 20
        assert 0.0 <= report.fs_at_k <= 1.0
        assert report.coverage >= report.fs_at_k
        assert "origin" in report.by_subgroup
        assert set(report.dir_ratios.get("origin", {})) <= {"fs_at_k", "coverage"}

    def test_prices_each_pair_once(self, adult_population, monkeypatch):
        schema, users, sets = adult_population
        calls = []

        def counting_min_cost(s_u, members, samples):
            calls.append(len(members))
            return min_cost(s_u, members, samples)

        monkeypatch.setattr(evaluate, "min_cost", counting_min_cost)
        compute_report(users, sets, schema, k=1.0)
        assert len(calls) == len(users)

    def test_subgroups_are_slices_of_the_cost_vector(self, adult_population):
        schema, users, sets = adult_population
        k = 1.0
        report = compute_report(users, sets, schema, k=k)
        costs = np.array([realized_cost(u, s) for u, s in zip(users, sets)])
        assert report.fs_at_k == fs_at_k(costs, k)
        assert report.coverage == coverage(costs)
        assert len(schema.protected_attributes) == 2
        for attr in schema.protected_attributes:
            groups = report.by_subgroup[attr]
            assert sum(g["n"] for g in groups.values()) == len(users)
            for value, stats in groups.items():
                sub = costs[[u.subgroups[attr] == value for u in users]]
                assert stats == {
                    "fs_at_k": fs_at_k(sub, k),
                    "coverage": coverage(sub),
                    "n": len(sub),
                }
