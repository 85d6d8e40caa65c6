import math

import numpy as np
import pytest

from recourse.cost import INF
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
    simulate_user,
)
from recourse.schema import DatasetSchema, FeatureSpec, UserState
from recourse.search import RecourseSet

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


class TestFsAtK:
    def test_hand_count(self):
        users = [single_feature_user([0.0, c]) for c in (0.5, 1.2)]
        users.append(single_feature_user([0.0, INF]))
        sets = [pointing_set()] * 3
        assert fs_at_k(users, sets, k=1.0) == pytest.approx(1 / 3)

    def test_all_zero_cost(self):
        users = [single_feature_user([0.0, 0.0]) for _ in range(4)]
        sets = [pointing_set()] * 4
        assert fs_at_k(users, sets, k=1.0) == 1.0

    def test_k_zero_boundary_is_strict(self):
        users = [single_feature_user([0.0, 0.0])]
        assert fs_at_k(users, [pointing_set()], k=0.0) == 0.0

    def test_non_decreasing_in_k(self):
        users = [single_feature_user([0.0, c]) for c in (0.1, 0.5, 0.9, INF)]
        sets = [pointing_set()] * 4
        values = [fs_at_k(users, sets, k) for k in (0.0, 0.2, 0.6, 1.0, 5.0)]
        assert values == sorted(values)

    def test_invalid_members_cost_infinity(self):
        users = [single_feature_user([0.0, 0.1])]
        assert fs_at_k(users, [pointing_set(valid=False)], k=1.0) == 0.0

    def test_removal_never_helps(self):
        user = single_feature_user([0.0, 0.9, 0.2])
        both = RecourseSet(
            members=(UserState((1,)), UserState((2,))), validity=(True, True)
        )
        assert realized_cost(user, both) <= realized_cost(user, pointing_set(1))

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            fs_at_k([], [], k=1.0)


class TestPac:
    def test_mean_of_finite(self):
        users = [single_feature_user([0.0, c]) for c in (0.2, 0.4)]
        sets = [pointing_set()] * 2
        result = pac(users, sets)
        assert result.value == pytest.approx(0.3)
        assert result.uncovered == 0

    def test_uncovered_reported_separately(self):
        users = [single_feature_user([0.0, 0.2]), single_feature_user([0.0, INF])]
        sets = [pointing_set()] * 2
        result = pac(users, sets)
        assert result.value == pytest.approx(0.2)
        assert result.uncovered == 1

    def test_single_zero_cost_user(self):
        result = pac([single_feature_user([0.0, 0.0])], [pointing_set()])
        assert result.value == 0.0

    def test_all_uncovered_flagged_undefined(self):
        users = [single_feature_user([0.0, INF])]
        result = pac(users, [pointing_set()])
        assert result.value is None
        assert result.uncovered == 1


class TestCoverage:
    def test_hand_count(self):
        users = [single_feature_user([0.0, c]) for c in (0.5, INF, 3.0)]
        sets = [pointing_set()] * 3
        assert coverage(users, sets) == pytest.approx(2 / 3)

    def test_all_finite(self):
        users = [single_feature_user([0.0, 0.5])] * 3
        assert coverage(users, [pointing_set()] * 3) == 1.0

    def test_fs_never_exceeds_coverage(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            costs = [INF if rng.random() < 0.3 else float(rng.uniform(0, 2))
                     for _ in range(10)]
            users = [single_feature_user([0.0, c]) for c in costs]
            sets = [pointing_set()] * 10
            for k in (0.5, 1.0, 2.0):
                assert fs_at_k(users, sets, k) <= coverage(users, sets)


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

    def test_subgroups_read_from_state(self, synth6):
        schema, rows, _, table, _ = synth6
        user = simulate_user(rows[0], schema, table, test_seed=1, user_id=0)
        assert user.subgroups == {
            "origin": rows[0].values[schema.feature_index("origin")]
        }


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
