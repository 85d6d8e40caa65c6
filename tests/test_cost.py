import numpy as np
import pytest

from recourse.cost import (
    INF,
    CostSampleSet,
    _flat_dirichlet,
    cost_rows,
    emc_of_matrix,
    min_cost,
    sample_cost_batch,
    sample_cost_function,
)
from recourse.datasets import make_adult_like
from recourse.schema import (
    DatasetSchema,
    FeatureSpec,
    SchemaError,
    UserState,
    build_percentile_table,
    feasible_values,
)


def transition_cost(s_u, s_j, samples, i=0):
    """Scalar oracle: the cost of moving s_u to the code row s_j under
    sample i, summed feature by feature; one infinite feature makes the move
    infinite."""
    if samples.state.values != s_u.values:
        raise ValueError("cost function is conditioned on a different state")
    total = 0.0
    at = samples.schema.positions(s_j)
    for fi in range(samples.schema.n_features):
        cost = float(samples.costs[fi][i, at[fi]])
        if cost == INF:
            return INF
        total += cost
    return total


def manual_samples(schema, state, per_sample):
    """Sample set from hand-set costs: per_sample[i][f] lists feature f's
    costs by domain position under sample i (inf allowed)."""
    m, d = len(per_sample), schema.n_features
    return CostSampleSet(
        schema=schema,
        state=state,
        table=np.concatenate(
            [np.array([s[f] for s in per_sample], dtype=float).T for f in range(d)]
        ),
        alpha=np.full(m, 0.5),
        editable=np.ones((m, d), dtype=bool),
        preferences=np.full((m, d), 1.0 / d),
    )


def codes(*members):
    """(n, d) int64 code array of the given code rows."""
    return np.array(members, dtype=np.int64)


def one_feature_schema(mutability="increase_only", kind="ordered"):
    return DatasetSchema(
        features=(FeatureSpec("f", kind, (0, 1, 2, 3, 4), mutability),)
    )


def flat_table(schema):
    rows = [UserState(tuple(f.domain[0] for f in schema.features))]
    # a CDF is needed structurally; single-row step CDFs are fine for tests
    return build_percentile_table(rows, schema)


def raw_means(schema, state, table, fi=0):
    """Feature fi's raw (step-count, CDF-shift) means by domain position:
    0 at the user's value, inf where infeasible."""
    s_idx = schema.positions(state.values)[fi]
    targets, _, raw = table.moves[fi][s_idx]
    out = []
    for k in range(2):
        full = np.full(schema.features[fi].size, INF)
        full[s_idx] = 0.0
        full[list(targets)] = [pair[k] for pair in raw]
        out.append(full)
    return out


def two_feature_schema():
    return DatasetSchema(
        features=(
            FeatureSpec("f", "ordered", (0, 1, 2, 3, 4), "increase_only"),
            FeatureSpec("g", "ordered", (0, 1, 2), "mutable"),
        )
    )


class TestLinearMeans:
    def test_two_thirds_example(self):
        schema = one_feature_schema("increase_only")
        means, _ = raw_means(schema, UserState((1,)), flat_table(schema))
        assert means[3] == pytest.approx(2 / 3)
        assert means[2] == pytest.approx(1 / 3)
        assert means[4] == pytest.approx(1.0)

    def test_preference_halves_the_mean(self):
        # half the preference mass on f: its sampled costs center on half
        # the raw mean of 2/3
        schema = two_feature_schema()
        batch = sample_cost_batch(
            UserState((1, 0)), schema, flat_table(schema), 200, "lin", seed=0,
            editable=frozenset({0, 1}), pref=np.array([0.5, 0.5]),
        )
        assert batch.costs[0][:, 3].mean() == pytest.approx(1 / 3, abs=0.005)

    def test_case_split(self):
        schema = one_feature_schema("increase_only")
        means, _ = raw_means(schema, UserState((1,)), flat_table(schema))
        assert means[1] == 0.0
        assert means[0] == INF

    def test_decrease_only_mirrors(self):
        schema = one_feature_schema("decrease_only")
        means, _ = raw_means(schema, UserState((3,)), flat_table(schema))
        assert means[1] == pytest.approx(2 / 3)
        assert means[4] == INF
        assert means[3] == 0.0

    def test_not_editable_is_all_infinite(self):
        schema = two_feature_schema()
        batch = sample_cost_batch(
            UserState((1, 2)), schema, flat_table(schema), 20, "lin", seed=0,
            editable=frozenset({0}),
        )
        g = batch.costs[1]
        assert (g[:, 2] == 0.0).all()
        assert (g[:, :2] == INF).all()
        assert not batch.editable[:, 1].any()

    def test_unordered_uniform_means(self):
        # the preference mass sits on g, leaving f's means unscaled
        schema = DatasetSchema(
            features=(
                FeatureSpec("f", "unordered", (0, 1, 2, 3, 4), "mutable"),
                FeatureSpec("g", "ordered", (0, 1, 2), "mutable"),
            )
        )
        batch = sample_cost_batch(
            UserState((2, 0)), schema, flat_table(schema), 50, "lin", seed=0,
            editable=frozenset({0, 1}), pref=np.array([0.0, 1.0]),
        )
        finite = batch.costs[0][:, [0, 1, 3, 4]]
        assert ((finite >= 0.0) & (finite <= 1.0)).all()
        assert (batch.costs[0][:, 2] == 0.0).all()
        # raw means are fresh Uniform(0,1) draws per sample and target
        assert len(np.unique(finite)) == finite.size


class TestPercentileMeans:
    # Rows of f with CDF (0.2, 0.5, 0.7, 0.9, 1.0) and of g with (0.3, 0.6, 1.0).
    F_ROWS = (0, 0, 1, 1, 1, 2, 2, 3, 3, 4)
    G_ROWS = (0, 0, 0, 1, 1, 1, 2, 2, 2, 2)

    def test_cdf_shift_example(self):
        schema = one_feature_schema("increase_only")
        table = build_percentile_table([UserState((v,)) for v in self.F_ROWS], schema)
        assert table.cdf[0] == (0.2, 0.5, 0.7, 0.9, 1.0)
        _, means = raw_means(schema, UserState((1,)), table)
        assert means[3] == pytest.approx(0.4)
        assert means[1] == 0.0
        assert means[0] == INF

    def test_preference_scaling(self):
        # a quarter of the preference mass on f scales its CDF shift of 0.4
        # by 0.75
        schema = two_feature_schema()
        table = build_percentile_table(
            [UserState(r) for r in zip(self.F_ROWS, self.G_ROWS)], schema
        )
        assert table.cdf == ((0.2, 0.5, 0.7, 0.9, 1.0), (0.3, 0.6, 1.0))
        batch = sample_cost_batch(
            UserState((1, 0)), schema, table, 200, "perc", seed=0,
            editable=frozenset({0, 1}), pref=np.array([0.25, 0.75]),
        )
        assert batch.costs[0][:, 3].mean() == pytest.approx(0.3, abs=0.005)


class TestForeignTable:
    """A percentile table samples only the schema it was built for: any
    other is refused before the first draw, on every draw."""

    @staticmethod
    def _draws(state, schema, table):
        for i in range(20):
            with pytest.raises(SchemaError, match="built for a different schema"):
                sample_cost_function(state, schema, table, np.random.default_rng(i))
        with pytest.raises(SchemaError, match="built for a different schema"):
            sample_cost_batch(state, schema, table, 50, "mix", seed=0)

    def test_other_feature_set_refused(self, synth6):
        table = synth6[3]
        schema, rows, _ = make_adult_like(50, seed=1)
        self._draws(rows[0], schema, table)

    def test_relabelled_domains_refused(self, synth6):
        schema, rows, _, table, _ = synth6
        relabelled = DatasetSchema(
            features=tuple(
                FeatureSpec(f.name, f.kind, tuple(v + 100 for v in f.domain), f.mutability)
                for f in schema.features
            ),
            desired_class=schema.desired_class,
            protected_attributes=schema.protected_attributes,
        )
        shifted = [UserState(tuple(v + 100 for v in r.values)) for r in rows]
        self._draws(rows[0], schema, build_percentile_table(shifted, relabelled))
        self._draws(shifted[0], relabelled, table)

    def test_equal_schema_accepted(self, synth6):
        schema, rows, _, table, _ = synth6
        twin = DatasetSchema(schema.features, schema.desired_class,
                             schema.protected_attributes)
        assert twin is not schema and twin == schema
        a = sample_cost_batch(rows[0], twin, table, 30, "mix", seed=4)
        b = sample_cost_batch(rows[0], schema, table, 30, "mix", seed=4)
        assert a.table.tobytes() == b.table.tobytes()


class TestMonotoneMeans:
    """Farther feasible targets never cost less, for both raw mean families."""

    @pytest.mark.parametrize("mutability", ["increase_only", "decrease_only", "mutable"])
    def test_ordered_means_monotone(self, mutability):
        schema = one_feature_schema(mutability)
        rng = np.random.default_rng(42)
        rows = [UserState((int(v),)) for v in rng.integers(0, 5, size=200)]
        table = build_percentile_table(rows, schema)
        for s in range(5):
            for means in raw_means(schema, UserState((s,)), table):
                up = [means[j] for j in range(s, 5) if means[j] != INF]
                down = [means[j] for j in range(s, -1, -1) if means[j] != INF]
                assert all(b >= a - 1e-12 for a, b in zip(up, up[1:]))
                assert all(b >= a - 1e-12 for a, b in zip(down, down[1:]))


class TestSampleCostFunction:
    def test_lin_alpha_means_with_full_preference(self):
        # one editable feature holding all preference mass: scaled means are 0
        schema = one_feature_schema("increase_only")
        table = flat_table(schema)
        rng = np.random.default_rng(1)
        pref = np.array([1.0])
        c = sample_cost_function(
            UserState((1,)), schema, table, rng, alpha=1.0,
            editable=frozenset({0}), pref=pref,
        )
        assert c.m == 1
        assert c.costs[0][0, 0] == INF
        assert c.costs[0][0, 1] == 0.0
        for j in (2, 3, 4):
            assert abs(c.costs[0][0, j] - 0.0) < 0.05

    def test_lin_alpha_tracks_linear_means(self):
        # all preference mass on the second feature leaves the first unscaled
        schema = two_feature_schema()
        table = flat_table(schema)
        rng = np.random.default_rng(1)
        c = sample_cost_function(
            UserState((1, 0)), schema, table, rng, alpha=1.0,
            editable=frozenset({0, 1}), pref=np.array([0.0, 1.0]),
        )
        for j, expected in ((2, 1 / 3), (3, 2 / 3), (4, 1.0)):
            assert abs(c.costs[0][0, j] - expected) < 0.05

    def test_all_immutable_without_editable_set(self):
        schema = DatasetSchema(
            features=(FeatureSpec("f", "ordered", (0, 1), "immutable"),)
        )
        table = flat_table(schema)
        with pytest.raises(ValueError):
            sample_cost_function(UserState((0,)), schema, table,
                                 np.random.default_rng(0))

    def test_same_seed_identical(self, synth6):
        schema, rows, _, table, _ = synth6
        draws = []
        for _ in range(2):
            rng = np.random.default_rng(123)
            draws.append(sample_cost_function(rows[0], schema, table, rng))
        a, b = draws
        assert np.array_equal(a.alpha, b.alpha)
        assert np.array_equal(a.editable, b.editable)
        assert all(np.array_equal(x, y) for x, y in zip(a.costs, b.costs))

    def test_invariants_on_samples(self, synth6):
        schema, rows, _, table, _ = synth6
        rng = np.random.default_rng(5)
        state = rows[0]
        for _ in range(50):
            c = sample_cost_function(state, schema, table, rng)
            editable = c.editable[0]
            at = schema.positions(state.values)
            for fi, f in enumerate(schema.features):
                vec = c.costs[fi][0]
                s_idx = at[fi]
                assert vec[s_idx] == 0.0
                finite = vec[np.isfinite(vec)]
                assert ((finite >= 0.0) & (finite <= 1.0)).all()
                if not editable[fi]:
                    assert all(
                        vec[j] == INF for j in range(f.size) if j != s_idx
                    )
            scores = c.preferences[0]
            assert (scores >= 0).all()
            assert abs(scores.sum() - 1.0) < 1e-9
            assert (scores[~editable] == 0.0).all()

    def test_malformed_preferences_rejected(self, synth6):
        schema, rows, _, table, _ = synth6
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_cost_function(
                rows[0], schema, table, rng,
                editable=frozenset({0}), pref=np.full(schema.n_features, 0.5),
            )


class TestSampleBatch:
    def test_batch_shape_and_tags(self, synth6):
        schema, rows, _, table, _ = synth6
        batch = sample_cost_batch(rows[0], schema, table, 5, "mix", seed=1)
        d = schema.n_features
        assert batch.m == 5
        assert [c.shape for c in batch.costs] == [(5, f.size) for f in schema.features]
        assert batch.alpha.shape == (5,)
        assert batch.editable.shape == batch.preferences.shape == (5, d)
        assert batch.editable.dtype == bool
        assert len(set(batch.alpha)) > 1  # mix draws fresh alphas

    def test_lin_and_perc_pin_alpha(self, synth6):
        schema, rows, _, table, _ = synth6
        lin = sample_cost_batch(rows[0], schema, table, 3, "lin", seed=1)
        perc = sample_cost_batch(rows[0], schema, table, 3, "perc", seed=1)
        assert (lin.alpha == 1.0).all()
        assert (perc.alpha == 0.0).all()

    @pytest.mark.parametrize("distribution", ["lin", "perc"])
    def test_explicit_alpha_refused_with_fixed_distribution(self, synth6, distribution):
        schema, rows, _, table, _ = synth6
        with pytest.raises(ValueError, match=f"alpha 0.3 .*'{distribution}'"):
            sample_cost_batch(rows[0], schema, table, 3, distribution, seed=1, alpha=0.3)

    def test_same_seed_byte_identical(self, synth6):
        schema, rows, _, table, _ = synth6
        a = sample_cost_batch(rows[0], schema, table, 4, "mix", seed=9)
        b = sample_cost_batch(rows[0], schema, table, 4, "mix", seed=9)
        assert a.alpha.tobytes() == b.alpha.tobytes()
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a.costs, b.costs))

    def test_prefix_of_a_larger_batch(self, synth6):
        # sample i depends only on its own stream, so batches extend
        schema, rows, _, table, _ = synth6
        small = sample_cost_batch(rows[0], schema, table, 3, "mix", seed=9, subkey=2)
        big = sample_cost_batch(rows[0], schema, table, 8, "mix", seed=9, subkey=2)
        assert np.array_equal(small.alpha, big.alpha[:3])
        assert all(np.array_equal(x, y[:3]) for x, y in zip(small.costs, big.costs))
        assert np.array_equal(small.preferences, big.preferences[:3])

    def test_singleton(self, synth6):
        schema, rows, _, table, _ = synth6
        assert sample_cost_batch(rows[0], schema, table, 1, "mix", seed=0).m == 1

    def test_m_zero_rejected(self, synth6):
        schema, rows, _, table, _ = synth6
        with pytest.raises(ValueError):
            sample_cost_batch(rows[0], schema, table, 0, "mix", seed=0)

    def test_arrays_are_read_only(self, synth6):
        schema, rows, _, table, _ = synth6
        batch = sample_cost_batch(rows[0], schema, table, 2, "mix", seed=0)
        with pytest.raises(ValueError):
            batch.costs[0][0, 0] = 1.0


class TestTransitionCost:
    """Prices from `min_cost`/`cost_rows` against hand sums."""

    def _setup(self):
        schema = DatasetSchema(
            features=(
                FeatureSpec("a", "ordered", (0, 1, 2)),
                FeatureSpec("b", "ordered", (0, 1, 2)),
                FeatureSpec("c", "ordered", (0, 1), "immutable"),
            )
        )
        state = UserState((0, 0, 0))
        c = manual_samples(
            schema, state, [[[0.0, 0.2, 0.9], [0.0, 0.3, 0.8], [0.0, INF]]]
        )
        return schema, state, c

    def test_noop_is_free(self):
        _, state, c = self._setup()
        assert min_cost(state, codes(state.values), c) == 0.0

    def test_hand_sum(self):
        _, state, c = self._setup()
        assert min_cost(state, codes((1, 1, 0)), c) == pytest.approx(0.5)
        assert min_cost(state, codes((2, 1, 0)), c) == pytest.approx(1.2)

    def test_immutable_edit_is_infinite(self):
        _, state, c = self._setup()
        assert min_cost(state, codes((0, 0, 1)), c) == INF

    def test_wrong_conditioning_state(self):
        _, state, c = self._setup()
        with pytest.raises(ValueError):
            min_cost(UserState((1, 0, 0)), codes(state.values), c)

    def test_out_of_domain_member_names_value_and_feature(self):
        _, state, c = self._setup()
        with pytest.raises(SchemaError, match="value 999 not in domain of feature 'b'"):
            min_cost(state, codes((1, 1, 0), (0, 999, 0)), c)

    def test_cost_rows_match_scalar_oracle_bitwise(self, synth6):
        schema, rows, _, table, _ = synth6
        state = rows[0]
        batch = sample_cost_batch(state, schema, table, 30, "mix", seed=3)
        rng = np.random.default_rng(0)
        members = [
            tuple(
                sorted(feasible_values(schema, i, v))[
                    rng.integers(len(feasible_values(schema, i, v)))
                ]
                for i, v in enumerate(state.values)
            )
            for _ in range(12)
        ]
        got = cost_rows(schema.positions(members), batch)
        want = [[transition_cost(state, s, batch, i) for i in range(batch.m)]
                for s in members]
        assert got.tobytes() == np.asarray(want).tobytes()


def moved_members(schema, state, n, seed):
    """n code rows that move every feature with more than one feasible
    value to a random other one."""
    rng = np.random.default_rng(seed)
    options = []
    for i, v in enumerate(state.values):
        other = sorted(feasible_values(schema, i, v) - {v})
        options.append(other or [v])
    return [
        tuple(opts[rng.integers(len(opts))] for opts in options) for _ in range(n)
    ]


class TestTwelveFeaturePricing:
    """`cost_rows` and `min_cost` against the scalar oracle on the 12-feature
    adult-like schema, with members that move all nine movable features.
    From 8 terms on numpy's reductions sum pairwise, so a feature sum by
    `np.add.reduce` or `.sum(axis=...)` differs from the oracle in the last
    bits here, while the 6-feature test above cannot tell."""

    @pytest.mark.parametrize("m,n", [(1, 3000), (1000, 12)])
    def test_cost_rows_match_scalar_oracle_bitwise(self, adult, m, n):
        schema, rows, _, table, _ = adult
        assert schema.n_features == 12
        state = rows[0]
        batch = sample_cost_batch(state, schema, table, m, "mix", seed=3,
                                  editable=frozenset(schema.mutable_indices()))
        members = moved_members(schema, state, n, seed=m)
        got = cost_rows(schema.positions(members), batch)
        want = [[transition_cost(state, s, batch, i) for i in range(batch.m)]
                for s in members]
        assert np.isfinite(want).all()
        assert got.tobytes() == np.asarray(want).tobytes()

    def test_min_cost_matches_scalar_oracle_bitwise(self, adult):
        schema, rows, _, table, _ = adult
        state = rows[0]
        movable = frozenset(schema.mutable_indices())
        for k in range(20):
            one = sample_cost_function(state, schema, table,
                                       np.random.default_rng(k), editable=movable)
            members = moved_members(schema, state, 100, seed=k)
            for lo in range(0, 100, 10):
                group = members[lo:lo + 10]
                want = min(transition_cost(state, s, one) for s in group)
                assert min_cost(state, codes(*group), one).hex() == want.hex()


class TestDrawEquivalence:
    """Each draw the sampler makes reads the same doubles from its generator
    as the numpy call it stands for, and leaves the generator in the same
    place; the sampled streams rest on these identities."""

    SEEDS = range(40)

    def _pair(self, seed):
        return np.random.default_rng(seed), np.random.default_rng(seed)

    def test_one_random_row_is_two_uniform_rows(self):
        for seed in self.SEEDS:
            n = seed % 16 + 1
            old, new = self._pair(seed)
            want = [old.uniform(0.0, 1.0, size=n), old.uniform(0.0, 1.0, size=n)]
            assert new.random(2 * n).tobytes() == np.concatenate(want).tobytes()
            assert new.random() == old.random()

    def test_scalar_random_is_scalar_uniform(self):
        for seed in self.SEEDS:
            old, new = self._pair(seed)
            assert new.random().hex() == float(old.uniform(0.0, 1.0)).hex()
            assert new.random() == old.random()

    @pytest.mark.parametrize("k", range(1, 10))
    def test_normalized_exponentials_are_flat_dirichlet(self, k):
        for seed in self.SEEDS:
            old, new = self._pair(seed)
            want = old.dirichlet(np.ones(k))
            assert _flat_dirichlet(new, k).tobytes() == want.tobytes()
            assert new.random() == old.random()

    def test_scalar_betas_are_one_array_beta(self):
        grid = np.geomspace(1e-3, 3e3, 19)
        shape_a, shape_b = (g.ravel() for g in np.meshgrid(grid, grid))
        for seed in range(5):
            old, new = self._pair(seed)
            want = old.beta(shape_a, shape_b)
            got = [new.beta(a, b) for a, b in zip(shape_a.tolist(), shape_b.tolist())]
            assert np.array(got).tobytes() == want.tobytes()
            assert new.random() == old.random()


class TestMinCostAndEmc:
    def _single_feature(self, costs):
        schema = DatasetSchema(
            features=(FeatureSpec("f", "ordered", tuple(range(len(costs)))),)
        )
        state = UserState((0,))
        return schema, state, manual_samples(schema, state, [[costs]])

    def test_min_of_three(self):
        schema, state, c = self._single_feature([0.0, 0.5, 0.2, 0.9])
        members = codes((1,), (2,), (3,))
        assert min_cost(state, members, c) == pytest.approx(0.2)

    def test_singleton(self):
        schema, state, c = self._single_feature([0.0, 0.5])
        assert min_cost(state, codes((1,)), c) == pytest.approx(0.5)

    def test_all_infinite(self):
        schema, state, c = self._single_feature([0.0, INF, INF])
        members = codes((1,), (2,))
        assert min_cost(state, members, c) == INF

    def test_empty_set_rejected(self):
        schema, state, c = self._single_feature([0.0, 0.5])
        with pytest.raises(ValueError):
            min_cost(state, codes(), c)

    def test_several_samples_rejected(self):
        schema = DatasetSchema(features=(FeatureSpec("f", "ordered", (0, 1)),))
        state = UserState((0,))
        c = manual_samples(schema, state, [[[0.0, 0.2]], [[0.0, 0.4]]])
        with pytest.raises(ValueError):
            min_cost(state, codes((1,)), c)

    def test_emc_single_sample_equals_min_cost(self, synth6):
        schema, rows, _, table, _ = synth6
        state = rows[0]
        batch = sample_cost_batch(state, schema, table, 1, "mix", seed=4)
        members = codes(state.values)
        assert emc_of_matrix(cost_rows(schema.positions(members), batch)) == (
            min_cost(state, members, batch)
        )

    def test_emc_hand_average(self):
        schema = DatasetSchema(features=(FeatureSpec("f", "ordered", (0, 1)),))
        state = UserState((0,))
        batch = manual_samples(schema, state, [[[0.0, 0.2]], [[0.0, 0.4]]])
        rows = cost_rows(schema.positions([(1,)]), batch)
        assert emc_of_matrix(rows) == pytest.approx(0.3)

    def test_pair_beats_either_singleton(self):
        # two samples preferring different moves: the pair set is strictly
        # cheaper than the best singleton
        schema = DatasetSchema(
            features=(
                FeatureSpec("a", "ordered", (0, 1)),
                FeatureSpec("b", "ordered", (0, 1)),
            )
        )
        state = UserState((0, 0))
        batch = manual_samples(
            schema, state,
            [[[0.0, 0.1], [0.0, 0.9]], [[0.0, 0.9], [0.0, 0.1]]],
        )

        def emc(members):
            return emc_of_matrix(cost_rows(schema.positions(members), batch))

        move_a, move_b = (1, 0), (0, 1)
        pair = emc([move_a, move_b])
        singles = [emc([m]) for m in (move_a, move_b)]
        # exhaustive check over every changed-state singleton in the domain
        for a in (0, 1):
            for b in (0, 1):
                if (a, b) != state.values:
                    singles.append(emc([(a, b)]))
        assert pair < min(singles)

    def test_emc_subset_monotone(self, synth6):
        schema, rows, _, table, _ = synth6
        state = rows[0]
        batch = sample_cost_batch(state, schema, table, 20, "mix", seed=6)
        rng = np.random.default_rng(0)

        def random_member():
            vals = []
            for i, f in enumerate(schema.features):
                allowed = sorted(feasible_values(schema, i, state.values[i]))
                vals.append(allowed[rng.integers(len(allowed))])
            return tuple(vals)

        members = [random_member() for _ in range(6)]
        rows_all = cost_rows(schema.positions(members), batch)
        for cut in range(1, 6):
            assert emc_of_matrix(rows_all) <= emc_of_matrix(rows_all[:cut])


class TestCostMatrix:
    def test_1x1(self):
        schema = DatasetSchema(features=(FeatureSpec("f", "ordered", (0, 1)),))
        state = UserState((0,))
        batch = manual_samples(schema, state, [[[0.0, 0.7]]])
        cm = cost_rows(schema.positions([(1,)]), batch)
        assert cm.shape == (1, 1)
        assert cm[0, 0] == pytest.approx(0.7)

    def test_column_minima_mean_equals_emc(self, synth6):
        schema, rows, _, table, _ = synth6
        state = rows[0]
        batch = sample_cost_batch(state, schema, table, 10, "mix", seed=8)
        members = [state.values, rows[1].values]
        cm = cost_rows(schema.positions(members), batch)
        mins = [
            min(transition_cost(state, s, batch, i) for s in members)
            for i in range(batch.m)
        ]
        expected = INF if np.isinf(mins).any() else float(np.mean(mins))
        assert emc_of_matrix(cm) == expected
