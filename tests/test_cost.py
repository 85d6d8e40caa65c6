import numpy as np
import pytest

from math import sqrt
from statistics import NormalDist

from recourse import cost
from recourse.cost import (
    BLOCK,
    COST_STD,
    INF,
    TRAIN_STREAM,
    CostSampleSet,
    cost_rows,
    emc,
    min_cost,
    sample_cost_batch,
    sample_cost_function,
    sample_cost_functions,
    stream_rng,
    stream_rngs,
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
from recourse.search import _Workspace


def feature_costs(samples):
    """Per feature f, the (M, |D_f|) view `table[offsets[f]:offsets[f + 1]].T`
    of a sample set's cost table."""
    off = samples.schema.offsets.tolist()
    return tuple(samples.table[lo:hi].T for lo, hi in zip(off, off[1:]))


def transition_cost(s_u, s_j, samples, i=0):
    """Scalar oracle: the cost of moving s_u to the code row s_j under
    sample i, summed feature by feature; one infinite feature makes the move
    infinite."""
    if not np.array_equal(samples.states[i], s_u):
        raise ValueError("cost function is conditioned on a different state")
    total = 0.0
    at = samples.schema.positions(s_j)
    for fi in range(samples.schema.n_features):
        cost = float(feature_costs(samples)[fi][i, at[fi]])
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
        states=np.tile(np.array(state, dtype=np.int64), (m, 1)),
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


def user(row):
    """The `UserState` of a code row, as `run_user` and `run_population`
    take a user."""
    return UserState(tuple(row.tolist()))


def one_feature_schema(mutability="increase_only", kind="ordered"):
    return DatasetSchema(
        features=(FeatureSpec("f", kind, (0, 1, 2, 3, 4), mutability),)
    )


def flat_table(schema):
    rows = np.array([[f.domain[0] for f in schema.features]])
    # a CDF is needed structurally; single-row step CDFs are fine for tests
    return build_percentile_table(rows, schema)


def moves(table, fi, s):
    """Feature fi's moves from position s, read from the percentile table's
    cell arrays: the feasible targets other than s, ascending, and for an
    ordered feature each one's (step count, CDF shift) raw mean, None for
    an unordered one."""
    lo = int(table.schema.offsets[fi])
    block = table.cell[lo + s] + lo + np.arange(table.schema.features[fi].size)
    targets = np.flatnonzero(table.feasible[block]).tolist()
    if table.cdf[fi] is None:
        return targets, None
    return targets, list(zip(table.step[block][targets].tolist(),
                             table.shift[block][targets].tolist()))


def raw_means(schema, state, table, fi=0):
    """Feature fi's raw (step-count, CDF-shift) means by domain position:
    0 at the user's value, inf where infeasible."""
    s_idx = schema.positions(state)[fi]
    targets, raw = moves(table, fi, s_idx)
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
        means, _ = raw_means(schema, np.array((1,)), flat_table(schema))
        assert means[3] == pytest.approx(2 / 3)
        assert means[2] == pytest.approx(1 / 3)
        assert means[4] == pytest.approx(1.0)

    def test_preference_halves_the_mean(self):
        # half the preference mass on f: its sampled costs center on half
        # the raw mean of 2/3
        schema = two_feature_schema()
        batch = sample_cost_batch(
            np.array((1, 0)), schema, flat_table(schema), 200, alpha=1.0, seed=0,
            editable=frozenset({0, 1}), pref=np.array([0.5, 0.5]),
        )
        assert feature_costs(batch)[0][:, 3].mean() == pytest.approx(1 / 3, abs=0.005)

    def test_case_split(self):
        schema = one_feature_schema("increase_only")
        means, _ = raw_means(schema, np.array((1,)), flat_table(schema))
        assert means[1] == 0.0
        assert means[0] == INF

    def test_decrease_only_mirrors(self):
        schema = one_feature_schema("decrease_only")
        means, _ = raw_means(schema, np.array((3,)), flat_table(schema))
        assert means[1] == pytest.approx(2 / 3)
        assert means[4] == INF
        assert means[3] == 0.0

    def test_not_editable_is_all_infinite(self):
        schema = two_feature_schema()
        batch = sample_cost_batch(
            np.array((1, 2)), schema, flat_table(schema), 20, alpha=1.0, seed=0,
            editable=frozenset({0}),
        )
        g = feature_costs(batch)[1]
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
            np.array((2, 0)), schema, flat_table(schema), 50, alpha=1.0, seed=0,
            editable=frozenset({0, 1}), pref=np.array([0.0, 1.0]),
        )
        finite = feature_costs(batch)[0][:, [0, 1, 3, 4]]
        assert ((finite >= 0.0) & (finite <= 1.0)).all()
        assert (feature_costs(batch)[0][:, 2] == 0.0).all()
        # raw means are fresh Uniform(0,1) draws per sample and target
        assert len(np.unique(finite)) == finite.size


class TestPercentileMeans:
    # Rows of f with CDF (0.2, 0.5, 0.7, 0.9, 1.0) and of g with (0.3, 0.6, 1.0).
    F_ROWS = (0, 0, 1, 1, 1, 2, 2, 3, 3, 4)
    G_ROWS = (0, 0, 0, 1, 1, 1, 2, 2, 2, 2)

    def test_cdf_shift_example(self):
        schema = one_feature_schema("increase_only")
        table = build_percentile_table(np.array([(v,) for v in self.F_ROWS]), schema)
        assert table.cdf[0] == (0.2, 0.5, 0.7, 0.9, 1.0)
        _, means = raw_means(schema, np.array((1,)), table)
        assert means[3] == pytest.approx(0.4)
        assert means[1] == 0.0
        assert means[0] == INF

    def test_preference_scaling(self):
        # a quarter of the preference mass on f scales its CDF shift of 0.4
        # by 0.75
        schema = two_feature_schema()
        table = build_percentile_table(
            np.array(list(zip(self.F_ROWS, self.G_ROWS))), schema
        )
        assert table.cdf == ((0.2, 0.5, 0.7, 0.9, 1.0), (0.3, 0.6, 1.0))
        batch = sample_cost_batch(
            np.array((1, 0)), schema, table, 200, alpha=0.0, seed=0,
            editable=frozenset({0, 1}), pref=np.array([0.25, 0.75]),
        )
        assert feature_costs(batch)[0][:, 3].mean() == pytest.approx(0.3, abs=0.005)


class TestForeignTable:
    """A percentile table samples only the schema it was built for: any
    other is refused before the first draw, on every draw."""

    @staticmethod
    def _draws(state, schema, table):
        for i in range(20):
            with pytest.raises(SchemaError, match="built for a different schema"):
                sample_cost_function(state, schema, table, np.random.default_rng(i))
        with pytest.raises(SchemaError, match="built for a different schema"):
            sample_cost_batch(state, schema, table, 50, seed=0)

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
        shifted = rows + 100
        self._draws(rows[0], schema, build_percentile_table(shifted, relabelled))
        self._draws(shifted[0], relabelled, table)

    def test_equal_schema_accepted(self, synth6):
        schema, rows, _, table, _ = synth6
        twin = DatasetSchema(schema.features, schema.desired_class,
                             schema.protected_attributes)
        assert twin is not schema and twin == schema
        a = sample_cost_batch(rows[0], twin, table, 30, seed=4)
        b = sample_cost_batch(rows[0], schema, table, 30, seed=4)
        assert a.table.tobytes() == b.table.tobytes()


class TestMonotoneMeans:
    """Farther feasible targets never cost less, for both raw mean families."""

    @pytest.mark.parametrize("mutability", ["increase_only", "decrease_only", "mutable"])
    def test_ordered_means_monotone(self, mutability):
        schema = one_feature_schema(mutability)
        rng = np.random.default_rng(42)
        rows = rng.integers(0, 5, size=200)[:, None]
        table = build_percentile_table(rows, schema)
        for s in range(5):
            for means in raw_means(schema, np.array((s,)), table):
                up = [means[j] for j in range(s, 5) if means[j] != INF]
                down = [means[j] for j in range(s, -1, -1) if means[j] != INF]
                assert all(b >= a - 1e-12 for a, b in zip(up, up[1:]))
                assert all(b >= a - 1e-12 for a, b in zip(down, down[1:]))


class TestSampleCostFunction:
    def test_lin_alpha_means_with_full_preference(self):
        # one editable feature holding all preference mass: scaled means are 0
        schema = one_feature_schema("increase_only")
        table = flat_table(schema)
        pref = np.array([1.0])
        c = sample_cost_batch(
            np.array((1,)), schema, table, 1, seed=1, alpha=1.0,
            editable=frozenset({0}), pref=pref,
        )
        assert c.m == 1
        assert feature_costs(c)[0][0, 0] == INF
        assert feature_costs(c)[0][0, 1] == 0.0
        for j in (2, 3, 4):
            assert abs(feature_costs(c)[0][0, j] - 0.0) < 0.05

    def test_lin_alpha_tracks_linear_means(self):
        # all preference mass on the second feature leaves the first unscaled
        schema = two_feature_schema()
        table = flat_table(schema)
        c = sample_cost_batch(
            np.array((1, 0)), schema, table, 1, seed=1, alpha=1.0,
            editable=frozenset({0, 1}), pref=np.array([0.0, 1.0]),
        )
        for j, expected in ((2, 1 / 3), (3, 2 / 3), (4, 1.0)):
            assert abs(feature_costs(c)[0][0, j] - expected) < 0.05

    def test_all_immutable_without_editable_set(self):
        schema = DatasetSchema(
            features=(FeatureSpec("f", "ordered", (0, 1), "immutable"),)
        )
        table = flat_table(schema)
        with pytest.raises(ValueError):
            sample_cost_function(np.array((0,)), schema, table,
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
        assert all(np.array_equal(x, y) for x, y in zip(feature_costs(a), feature_costs(b)))

    def test_population_refuses_a_shared_generator(self, synth6):
        """Blocks draw phase by phase, so a generator shared by two states
        would interleave their draws."""
        schema, rows, _, table, _ = synth6
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="generator of its own"):
            sample_cost_functions(rows[:2], schema, table, [rng, rng])

    def test_invariants_on_samples(self, synth6):
        schema, rows, _, table, _ = synth6
        rng = np.random.default_rng(5)
        state = rows[0]
        for _ in range(50):
            c = sample_cost_function(state, schema, table, rng)
            editable = c.editable[0]
            at = schema.positions(state)
            for fi, f in enumerate(schema.features):
                vec = feature_costs(c)[fi][0]
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
        with pytest.raises(ValueError):
            sample_cost_batch(
                rows[0], schema, table, 1, seed=0,
                editable=frozenset({0}), pref=np.full(schema.n_features, 0.5),
            )


def _one(state, schema, table, alpha=None, editable=None, pref=None):
    """One cost function: a population of one or, since only the batch path
    pins preferences, a batch of one when `pref` is given."""
    if pref is not None:
        return sample_cost_batch(state, schema, table, 1, seed=0,
                                 alpha=alpha, editable=editable, pref=pref)
    return sample_cost_function(state, schema, table, np.random.default_rng(0),
                                alpha=alpha, editable=editable)


def _batch(state, schema, table, alpha=None, editable=None, pref=None):
    return sample_cost_batch(state, schema, table, 70, seed=0,
                             alpha=alpha, editable=editable, pref=pref)


class TestInputChecks:
    """The one input check refuses the same inputs on the single-draw path
    and the block path."""

    @pytest.mark.parametrize("draw", [_one, _batch], ids=["single", "batch"])
    @pytest.mark.parametrize("inputs,message", [
        (dict(editable=frozenset({0, 9})), "editable feature index 9 out of range"),
        (dict(pref=np.full(5, 0.2)), "length must match feature count"),
        (dict(editable=frozenset({0, 1}), pref=np.array([1.5, -0.5, 0, 0, 0, 0])),
         "must be non-negative"),
        (dict(editable=frozenset({0}), pref=np.array([0.5, 0.5, 0, 0, 0, 0])),
         "preference mass outside the editable set"),
        (dict(editable=frozenset({0, 1}), pref=np.array([0.5, 0.4, 0, 0, 0, 0])),
         "must sum to 1 over editable features"),
        (dict(pref=np.array([0.5, 0.5, 0, 0, 0, 0])), "preference mass outside"),
        (dict(alpha=1.5), r"alpha must lie in \[0,1\], got 1.5"),
        (dict(alpha=-0.2), r"alpha must lie in \[0,1\], got -0.2"),
        (dict(editable=frozenset({1, 2}), pref=np.array([0, 0.5, np.nan, 0, 0, 0])),
         "must be finite"),
        (dict(editable=frozenset({1, 2}), pref=np.array([0, np.inf, 0.5, 0, 0, 0])),
         "must be finite"),
        (dict(editable=frozenset({1, 2}), pref=np.array([0, 1.0, -np.inf, 0, 0, 0])),
         "must be finite"),
    ])
    def test_refused_on_both_paths(self, synth6, draw, inputs, message):
        schema, rows, _, table, _ = synth6
        with pytest.raises(ValueError, match=message):
            draw(rows[0], schema, table, **inputs)

    @pytest.mark.parametrize("draw", [_one, _batch], ids=["single", "batch"])
    def test_no_mutable_feature_without_editable_set(self, draw):
        schema = DatasetSchema(
            features=(FeatureSpec("f", "ordered", (0, 1), "immutable"),)
        )
        with pytest.raises(ValueError, match="no mutable features"):
            draw(np.array((0,)), schema, flat_table(schema))


class TestStreamRngs:
    """`stream_rngs` seeds many streams in one pass, each generator in the
    state `stream_rng` gives its key."""

    INDICES = [0, 1, 2**31, 2**32, 2**64 + 9, 2**70]

    @pytest.mark.parametrize("stream", range(4))
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 9_137_000_004, 2**70])
    @pytest.mark.parametrize("subkey", [0, 5])
    def test_states_equal_the_reference(self, stream, seed, subkey):
        """Indices of one, two and three 32-bit words in one call."""
        rngs = stream_rngs(stream, seed, self.INDICES, subkey)
        assert len(rngs) == len(self.INDICES)
        for index, rng in zip(self.INDICES, rngs):
            want = stream_rng(stream, seed, index, subkey)
            assert rng.bit_generator.state == want.bit_generator.state
            assert rng.random(10).tobytes() == want.random(10).tobytes()

    @pytest.mark.parametrize("key, error", [
        (dict(index=-1), ValueError),
        (dict(seed=-2**40), ValueError),
        (dict(subkey=-1), ValueError),
        (dict(index=3.5), TypeError),
        (dict(seed=2.0), TypeError),
    ], ids=["negative_index", "negative_seed", "negative_subkey", "float_index",
            "float_seed"])
    def test_refuses_what_seed_sequence_refuses(self, key, error):
        args = dict(stream=1, seed=5, index=7, subkey=0) | key
        with pytest.raises(error):
            stream_rng(**args)
        index = args.pop("index")
        with pytest.raises(error):
            stream_rngs(indices=[3, index], **args)

    def test_no_indices_no_generators(self):
        assert stream_rngs(1, 5, []) == []


class TestSampleBatch:
    def test_batch_shape_and_tags(self, synth6):
        schema, rows, _, table, _ = synth6
        batch = sample_cost_batch(rows[0], schema, table, 5, seed=1)
        d = schema.n_features
        assert batch.m == 5
        assert [c.shape for c in feature_costs(batch)] == [(5, f.size) for f in schema.features]
        assert batch.alpha.shape == (5,)
        assert batch.editable.shape == batch.preferences.shape == (5, d)
        assert batch.editable.dtype == bool
        assert len(set(batch.alpha)) > 1  # mix draws fresh alphas

    def test_lin_and_perc_pin_alpha(self, synth6):
        schema, rows, _, table, _ = synth6
        lin = sample_cost_batch(rows[0], schema, table, 3, alpha=1.0, seed=1)
        perc = sample_cost_batch(rows[0], schema, table, 3, alpha=0.0, seed=1)
        assert (lin.alpha == 1.0).all()
        assert (perc.alpha == 0.0).all()

    def test_options_after_m_are_keyword_only(self, synth6):
        schema, rows, _, table, _ = synth6
        with pytest.raises(TypeError):
            sample_cost_batch(rows[0], schema, table, 3, "lin")

    def test_same_seed_byte_identical(self, synth6):
        schema, rows, _, table, _ = synth6
        a = sample_cost_batch(rows[0], schema, table, 4, seed=9)
        b = sample_cost_batch(rows[0], schema, table, 4, seed=9)
        assert a.alpha.tobytes() == b.alpha.tobytes()
        assert all(x.tobytes() == y.tobytes() for x, y in zip(feature_costs(a), feature_costs(b)))

    def test_prefix_of_a_larger_batch(self, synth6):
        # every block draws its full width, so batches extend, also across
        # block boundaries
        schema, rows, _, table, _ = synth6
        big = sample_cost_batch(rows[0], schema, table, 200, seed=9, subkey=2)
        for m in (3, 64, 65, 130):
            small = sample_cost_batch(rows[0], schema, table, m, seed=9, subkey=2)
            assert small.alpha.tobytes() == big.alpha[:m].tobytes()
            assert all(x.tobytes() == y[:m].tobytes()
                       for x, y in zip(feature_costs(small), feature_costs(big)))
            assert small.preferences.tobytes() == big.preferences[:m].tobytes()
            assert small.editable.tobytes() == big.editable[:m].tobytes()

    def test_one_generator_per_block(self, synth6, monkeypatch):
        schema, rows, _, table, _ = synth6
        keys = []

        def counted(stream, seed, index, subkey=0):
            keys.append((stream, seed, index, subkey))
            return stream_rng(stream, seed, index, subkey)

        monkeypatch.setattr(cost, "stream_rng", counted)
        sample_cost_batch(rows[0], schema, table, 130, seed=9, subkey=2)
        assert keys == [(TRAIN_STREAM, 9, b, 2) for b in range(3)]

    def test_singleton(self, synth6):
        schema, rows, _, table, _ = synth6
        assert sample_cost_batch(rows[0], schema, table, 1, seed=0).m == 1

    def test_m_zero_rejected(self, synth6):
        schema, rows, _, table, _ = synth6
        with pytest.raises(ValueError):
            sample_cost_batch(rows[0], schema, table, 0, seed=0)

    def test_arrays_are_read_only(self, synth6):
        schema, rows, _, table, _ = synth6
        batch = sample_cost_batch(rows[0], schema, table, 2, seed=0)
        with pytest.raises(ValueError):
            feature_costs(batch)[0][0, 0] = 1.0


def _homogeneity_chi2(a, b):
    """Chi-square statistic and degrees of freedom of the 2 x k table of
    bin counts `a` and `b`, bins empty in both dropped."""
    counts = np.array([a, b], dtype=float)
    counts = counts[:, counts.sum(axis=0) > 0]
    expected = counts.sum(axis=1, keepdims=True) * counts.sum(axis=0) / counts.sum()
    return float(((counts - expected) ** 2 / expected).sum()), counts.shape[1] - 1


def _chi2_quantile(df, p):
    """Wilson-Hilferty approximation of chi-square's upper p quantile."""
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + NormalDist().inv_cdf(1.0 - p) * sqrt(h)) ** 3


def _deciles(a, b):
    """Bin counts of `a` and `b` over the deciles of both pooled."""
    edges = np.unique(np.quantile(np.concatenate([a, b]), np.linspace(0.1, 0.9, 9)))
    return [np.bincount(np.searchsorted(edges, v, side="right"),
                        minlength=len(edges) + 1) for v in (a, b)]


def _flat_dirichlet(rng, k):
    """Dirichlet(1, ..., 1) over k >= 1 coordinates, the doubles numpy's
    `dirichlet(ones(k))` returns: k standard exponentials (its Gamma(1)
    draws) times the reciprocal of their left-to-right sum."""
    draws = rng.standard_exponential(k)
    total = 0.0
    for v in draws.tolist():
        total += v
    return draws * (1.0 / total)


def scalar_cost_functions(state, schema, table, rngs):
    """Reference sampler, drawn one sample at a time, sample i on rngs[i]:
    a subset from `random(n)` coins repeated until one is kept, a flat
    Dirichlet over it, a scalar `random()` alpha, then per chosen feature in
    index order one `random(2 * |D_f|)` for an unordered feature's means and
    one scalar `beta` per target whose Beta exists. Returns a set with
    M = len(rngs)."""
    d, movable, m = schema.n_features, schema.mutable_indices(), len(rngs)
    at = schema.positions(state).tolist()
    costs = np.full((int(schema.offsets[-1]), m), INF)
    costs[schema.offsets[:-1] + at] = 0.0
    alphas, editable, prefs = np.empty(m), np.zeros((m, d), dtype=bool), np.zeros((m, d))
    var = COST_STD * COST_STD
    for i, rng in enumerate(rngs):
        chosen = []
        while not chosen:
            chosen = [f for f, c in zip(movable, rng.random(len(movable)).tolist()) if c < 0.5]
        prefs[i, chosen] = _flat_dirichlet(rng, len(chosen))
        a = alphas[i] = rng.random()
        for f in chosen:
            targets, raw = moves(table, f, at[f])
            size, keep = schema.features[f].size, 1.0 - float(prefs[i, f])
            if raw is None:
                means = rng.random(2 * size).tolist()
                raw = [(means[j], means[j + size]) for j in targets]
            for j, (x, y) in zip(targets, raw):
                mu = a * (x * keep) + (1.0 - a) * (y * keep)
                mu = 0.0 if mu < 0.0 else 1.0 if mu > 1.0 else mu
                nu = mu * (1.0 - mu) / var - 1.0
                costs[schema.offsets[f] + j, i] = (rng.beta(mu * nu, (1.0 - mu) * nu)
                                                   if nu > 0.0 else mu)
        editable[i, chosen] = True
    return CostSampleSet(schema, np.tile(np.array(state, dtype=np.int64), (m, 1)),
                         costs, alphas, editable, prefs)


def quantized(costs):
    """Costs rounded up to multiples of 2**-20, the sampler's last step."""
    return np.ceil(np.asarray(costs) * 2.0**20) / 2.0**20


def reference_block(state, schema, table, rng, alpha, editable, pref, rounded=True):
    """The 64 rows of one block, drawn row by row in the documented order
    (see the `cost` module docstring), as (costs by feature, alpha,
    editable mask, preferences) per row, each cost rounded up to a
    multiple of 2**-20 unless not `rounded`."""
    d, movable = schema.n_features, schema.mutable_indices()
    at = schema.positions(state).tolist()
    if editable is None:
        coins = rng.random((BLOCK, len(movable))).tolist()
        subsets = [[f for f, c in zip(movable, row) if c < 0.5] for row in coins]
        for r in range(BLOCK):
            while not subsets[r]:
                subsets[r] = [f for f, c in zip(movable, rng.random(len(movable))) if c < 0.5]
    else:
        subsets = [sorted(editable)] * BLOCK
    prefs = np.zeros((BLOCK, d))
    if pref is not None:
        prefs[:] = pref
    else:
        draws = iter(rng.standard_exponential(sum(map(len, subsets))).tolist())
        for r, subset in enumerate(subsets):
            row = [next(draws) for _ in subset]
            total = 0.0
            for v in row:
                total += v
            prefs[r, subset] = [v * (1.0 / total) for v in row]
    alphas = rng.random(BLOCK).tolist() if alpha is None else [alpha] * BLOCK
    start, u = {}, 0
    for f in movable:
        if table.cdf[f] is None:
            start[f], u = u, u + 2 * schema.features[f].size
    means = rng.random((BLOCK, u)).tolist() if u else [[]] * BLOCK
    var, cells, out = COST_STD * COST_STD, [], []
    for r, subset in enumerate(subsets):
        costs = [np.full(f.size, INF) for f in schema.features]
        for f in range(d):
            costs[f][at[f]] = 0.0
        a = alphas[r]
        for f in subset:
            targets, raw = moves(table, f, at[f])
            keep = 1.0 - float(prefs[r, f])
            size = schema.features[f].size
            if raw is None:
                raw = [(means[r][start[f] + j], means[r][start[f] + size + j])
                       for j in targets]
            for j, (x, y) in zip(targets, raw):
                mu = a * (x * keep) + (1.0 - a) * (y * keep)
                mu = 0.0 if mu < 0.0 else 1.0 if mu > 1.0 else mu
                nu = mu * (1.0 - mu) / var - 1.0
                costs[f][j] = mu
                if nu > 0.0:
                    cells.append((costs[f], j, mu * nu, (1.0 - mu) * nu))
        editable_row = np.zeros(d, dtype=bool)
        editable_row[subset] = True
        out.append((costs, a, editable_row, prefs[r]))
    for costs, j, shape_a, shape_b in cells:
        costs[j] = rng.beta(shape_a, shape_b)
    if not rounded:
        return out
    return [([quantized(c) for c in costs], *rest) for costs, *rest in out]


class TestBlockDraws:
    @pytest.mark.parametrize("distribution,inputs", [
        ("mix", {}),
        ("lin", {}),
        ("mix", dict(alpha=0.3)),
        ("mix", dict(editable=frozenset({0, 1, 4, 8, 10}))),
        ("mix", dict(editable=frozenset({0, 1, 4, 8, 10}),
                     pref=np.array([0.3, 0.1, 0, 0, 0.2, 0, 0, 0, 0.25, 0, 0.15, 0]))),
        ("perc", dict(pref=np.zeros(12))),
    ])
    def test_blocks_match_the_row_by_row_reference(self, adult, distribution, inputs):
        """Every row of a 130-sample batch equals the reference's row drawn
        on its block's stream, to the bit."""
        schema, rows, _, table, _ = adult
        inputs = dict(inputs)
        alpha = inputs.pop("alpha", {"lin": 1.0, "perc": 0.0}.get(distribution))
        for u, state in enumerate(rows[:3]):
            batch = sample_cost_batch(state, schema, table, 130, seed=u, alpha=alpha,
                                      subkey=5, **inputs)
            want = [row for b in range(3) for row in reference_block(
                state, schema, table, stream_rng(TRAIN_STREAM, u, b, 5), alpha,
                inputs.get("editable"), inputs.get("pref"))]
            for i, (costs, a, editable, prefs) in enumerate(want[:batch.m]):
                assert all(feature_costs(batch)[f][i].tobytes() == c.tobytes()
                           for f, c in enumerate(costs))
                assert batch.alpha[i] == a
                assert (batch.editable[i] == editable).all()
                assert batch.preferences[i].tobytes() == prefs.tobytes()


class TestQuanta:
    """Every sampled cost is rounded up to a multiple of 2**-20, so every sum
    of table entries is exact in any order (see the `cost` module
    docstring): priced rows, benefit tables and objectives do not depend on
    the order of features, of samples or of stacked restarts."""

    CASES = ({}, dict(alpha=1.0), dict(alpha=0.0),
             dict(editable=frozenset({0, 1, 4, 8, 10})))

    @staticmethod
    def batches(adult):
        """Six adult-like users at M=1000, half with every movable feature
        editable, so that most sums have many finite terms."""
        schema, rows, _, table, _ = adult
        movable = frozenset(schema.mutable_indices())
        for u, state in enumerate(rows[:6]):
            yield state, sample_cost_batch(state, schema, table, 1000, seed=u, subkey=7,
                                           editable=movable if u % 2 else None)

    @pytest.mark.parametrize("inputs", CASES)
    def test_entries_round_up_to_quanta(self, adult, inputs):
        """Against the unrounded row-by-row reference, each entry of a
        130-sample batch is the least multiple of 2**-20 at or above it:
        infeasible entries stay inf, zeros stay +0.0 and positive entries
        stay positive."""
        schema, rows, _, table, _ = adult
        inputs = dict(inputs)
        alpha = inputs.pop("alpha", None)
        moved = 0
        for u, state in enumerate(rows[:3]):
            batch = sample_cost_batch(state, schema, table, 130, seed=u, alpha=alpha,
                                      subkey=5, **inputs)
            raw = np.stack([np.concatenate(costs) for b in range(3) for costs, *_ in
                            reference_block(state, schema, table,
                                            stream_rng(TRAIN_STREAM, u, b, 5), alpha,
                                            inputs.get("editable"), None, rounded=False)])
            got = batch.table.T
            assert raw[:batch.m].shape == got.shape
            raw = raw[:batch.m]
            finite = np.isfinite(raw)
            assert np.array_equal(np.isfinite(got), finite)
            assert np.array_equal(got > 0.0, raw > 0.0)
            assert not np.signbit(got).any()
            up, down = got[finite], raw[finite]
            assert ((up >= down) & (up - cost.QUANTUM < down)).all()
            assert (up * 2**20 % 1.0 == 0.0).all()
            moved += int((up > down).sum())
        assert moved

    def test_rows_summed_in_any_order_equal_cost_rows(self, adult):
        """A member's feature costs summed right to left, or by
        `.sum(axis=1)` (pairwise from 8 terms on), equal `cost_rows`' left
        to right sum bit for bit, infeasible members included."""
        schema = adult[0]
        rng = np.random.default_rng(12)
        finite = 0
        for state, batch in self.batches(adult):
            positions = np.concatenate([
                schema.positions(moved_members(schema, state, 40, seed=int(rng.integers(99)))),
                partly_moved(schema, state, rng.integers(0, 13, size=40), rng)])
            terms = batch.table[positions + schema.offsets[:-1]]  # (P, d, M)
            want = cost_rows(positions, batch)
            backwards = terms[:, -1].copy()
            for fi in range(schema.n_features - 2, -1, -1):
                backwards += terms[:, fi]
            assert_same_bits(backwards, want)
            assert_same_bits(terms.sum(axis=1), want)
            finite += int(np.isfinite(want).sum())
        assert finite

    def test_benefits_ignore_sample_order_and_stacking(self, adult):
        """`compute_benefits` of 40 random (10, 10) best/candidate pairs per
        user is the same table, bit for bit, when the sample columns are
        permuted and when the pairs are stacked as restarts."""
        from recourse.search import column_stats, compute_benefits

        schema = adult[0]
        rng = np.random.default_rng(40)
        positive = 0
        for state, batch in self.batches(adult):
            tables = []
            for k in range(40):
                pair = [schema.positions(moved_members(schema, state, 10, seed=100 * k + j))
                        for j in range(2)]
                best, cand = (np.where(rng.random((10, 1)) < 0.8, cost_rows(p, batch), INF)
                              for p in pair)
                tables.append((best, cand))
            alone = [compute_benefits(column_stats(best), cand) for best, cand in tables]
            best, cand = (np.stack(t) for t in zip(*tables))
            stacked = compute_benefits(column_stats(best), cand)
            perm = rng.permutation(batch.m)
            permuted = compute_benefits(column_stats(best[..., perm]), cand[..., perm])
            for k, want in enumerate(alone):
                assert_same_bits(stacked[k], want)
                assert_same_bits(permuted[k], want)
                positive += int((want > 0.0).sum())
        assert positive


class TestBlockDistribution:
    """Block rows against the sample-by-sample reference sampler: blocks
    change the stream, not the distribution."""

    N = 10_000
    LEVEL = 1e-3  # family-wise, split evenly over the binned quantities

    def test_binned_chi_square_against_single_draws(self, adult):
        """10^4 rows of one batch (seed 11) against 10^4 draws of
        `scalar_cost_functions` on their own streams (seed 11), for one
        adult-like user: alpha in 10 equal bins, each movable feature's editable
        frequency, the editable-set size, and deciles of each chosen
        feature's preference and of each (feature, target) cost. Each
        two-sample chi-square must stay below chi-square's upper
        0.001 / Q quantile, Q the number of quantities (Bonferroni)."""
        schema, rows, _, table, _ = adult
        state, movable = rows[3], schema.mutable_indices()
        block = sample_cost_batch(state, schema, table, self.N, seed=11, subkey=3)
        single = scalar_cost_functions(state, schema, table,
                                       [stream_rng(TRAIN_STREAM, 11, i, 3)
                                        for i in range(self.N)])
        binned = {"alpha": [np.histogram(x.alpha, bins=10, range=(0.0, 1.0))[0]
                            for x in (block, single)],
                  "size": [np.bincount(x.editable.sum(axis=1), minlength=10)
                           for x in (block, single)]}
        at = schema.positions(state)
        for fi in movable:
            binned[f"editable {fi}"] = [
                np.bincount(x.editable[:, fi], minlength=2) for x in (block, single)]
            binned[f"preference {fi}"] = _deciles(
                *(x.preferences[x.editable[:, fi], fi] for x in (block, single)))
            for j in moves(table, fi, at[fi])[0]:
                binned[f"cost {fi}->{j}"] = _deciles(
                    *(feature_costs(x)[fi][x.editable[:, fi], j] for x in (block, single)))
        assert len(binned) >= 50
        p = self.LEVEL / len(binned)
        for name, (a, b) in binned.items():
            stat, df = _homogeneity_chi2(a, b)
            assert stat < _chi2_quantile(df, p), (name, stat, df)

    def test_cells_without_a_beta_hold_the_scalar_blend(self, adult):
        """Where a cell's Beta does not exist (nu <= 0), its cost is the
        scalar blend and clip of `scalar_cost_functions`, rounded up to a
        multiple of 2**-20, to the bit, checked
        on every chosen ordered cell of 130-row batches."""
        schema, rows, _, table, _ = adult
        var = COST_STD * COST_STD
        exact = 0
        for alpha, pref in ((None, None), (1.0, np.zeros(schema.n_features)), (0.0, None)):
            for u, state in enumerate(rows[:6]):
                batch = sample_cost_batch(state, schema, table, 130, alpha=alpha,
                                          seed=u, pref=pref, subkey=u)
                at = schema.positions(state)
                for i in range(batch.m):
                    a = float(batch.alpha[i])
                    for fi in np.flatnonzero(batch.editable[i]).tolist():
                        targets, raw = moves(table, fi, at[fi])
                        keep = 1.0 - float(batch.preferences[i, fi])
                        for j, (x, y) in zip(targets, raw or ()):
                            mu = a * (x * keep) + (1.0 - a) * (y * keep)
                            mu = 0.0 if mu < 0.0 else 1.0 if mu > 1.0 else mu
                            if mu * (1.0 - mu) / var - 1.0 <= 0.0:
                                got = float(feature_costs(batch)[fi][i, j])
                                assert got.hex() == float(quantized(mu)).hex()
                                exact += 1
        assert exact > 100


def one_each(samples, *members):
    """`min_cost` arguments pricing every given code row under column 0 of
    `samples`: the rows' domain positions and their owners."""
    return samples.schema.positions(codes(*members)), np.zeros(len(members), dtype=np.int64)


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
        state = np.array((0, 0, 0))
        c = manual_samples(
            schema, state, [[[0.0, 0.2, 0.9], [0.0, 0.3, 0.8], [0.0, INF]]]
        )
        return schema, state, c

    def test_noop_is_free(self):
        _, state, c = self._setup()
        assert min_cost(*one_each(c, state), c).tolist() == [0.0]

    def test_hand_sum(self):
        _, state, c = self._setup()
        assert min_cost(*one_each(c, (1, 1, 0)), c) == pytest.approx([0.5])
        assert min_cost(*one_each(c, (2, 1, 0)), c) == pytest.approx([1.2])

    def test_immutable_edit_is_infinite(self):
        _, state, c = self._setup()
        assert min_cost(*one_each(c, (0, 0, 1)), c).tolist() == [INF]

    def test_out_of_domain_member_names_value_and_feature(self):
        _, state, c = self._setup()
        # pricing takes domain positions; codes are checked on the way there
        with pytest.raises(SchemaError, match="value 999 not in domain of feature 'b'"):
            c.schema.positions(codes((1, 1, 0), (0, 999, 0)))

    def test_cost_rows_match_scalar_oracle_bitwise(self, synth6):
        schema, rows, _, table, _ = synth6
        state = rows[0]
        batch = sample_cost_batch(state, schema, table, 30, seed=3)
        rng = np.random.default_rng(0)
        members = [
            tuple(
                sorted(feasible_values(schema, i, v))[
                    rng.integers(len(feasible_values(schema, i, v)))
                ]
                for i, v in enumerate(state.tolist())
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
    for i, v in enumerate(state.tolist()):
        other = sorted(feasible_values(schema, i, v) - {v})
        options.append(other or [v])
    return [
        tuple(opts[rng.integers(len(opts))] for opts in options) for _ in range(n)
    ]


class TestTwelveFeaturePricing:
    """`cost_rows` and `min_cost` against the scalar oracle on the 12-feature
    adult-like schema, with members that move all nine movable features."""

    @pytest.mark.parametrize("m,n", [(1, 3000), (1000, 12)])
    def test_cost_rows_match_scalar_oracle_bitwise(self, adult, m, n):
        schema, rows, _, table, _ = adult
        assert schema.n_features == 12
        state = rows[0]
        batch = sample_cost_batch(state, schema, table, m, seed=3,
                                  editable=frozenset(schema.mutable_indices()))
        members = moved_members(schema, state, n, seed=m)
        got = cost_rows(schema.positions(members), batch)
        want = [[transition_cost(state, s, batch, i) for i in range(batch.m)]
                for s in members]
        assert np.isfinite(want).all()
        assert got.tobytes() == np.asarray(want).tobytes()

    def test_owned_columns_are_the_full_table_entries(self, adult):
        """Pricing member p under column columns[p] alone gives entry
        (p, columns[p]) of the full table, to the bit."""
        schema, rows, _, table, _ = adult
        state = rows[0]
        batch = sample_cost_batch(state, schema, table, 40, seed=5,
                                  editable=frozenset(schema.mutable_indices()))
        positions = schema.positions(moved_members(schema, state, 300, seed=5))
        columns = np.random.default_rng(5).integers(batch.m, size=len(positions))
        full = cost_rows(positions, batch)
        got = cost_rows(positions, batch, columns)
        assert got.shape == (300,)
        assert got.tobytes() == full[np.arange(300), columns].tobytes()

    def test_min_cost_matches_scalar_oracle_bitwise(self, adult):
        """20 populations of 100 users, each user but one owning 1 to 19
        members that move every movable feature, passed in shuffled order:
        each user's least cost is the oracle's minimum over their members
        under their own column, to the bit, and infinity for the user who
        owns none."""
        schema, rows, _, table, _ = adult
        movable = frozenset(schema.mutable_indices())
        states = rows[:100]
        for k in range(20):
            rngs = [np.random.default_rng([k, u]) for u in range(100)]
            population = sample_cost_functions(states, schema, table, rngs,
                                               editable=[movable] * 100)
            sizes = np.random.default_rng(k).integers(1, 20, size=100)
            sizes[k] = 0
            owned = [moved_members(schema, s, n, seed=100 * k + u)
                     for u, (s, n) in enumerate(zip(states, sizes.tolist()))]
            members = codes(*(m for group in owned for m in group))
            owners = np.repeat(np.arange(100), sizes)
            shuffled = np.random.default_rng(k).permutation(len(owners))
            got = min_cost(schema.positions(members)[shuffled], owners[shuffled], population)
            want = [min((transition_cost(s, m, population, u) for m in group),
                        default=INF) for u, (s, group) in enumerate(zip(states, owned))]
            assert got[k] == INF and np.isfinite(np.delete(got, k)).all()
            assert [x.hex() for x in got.tolist()] == [float(x).hex() for x in want]


def dense_rows(positions, samples):
    """Reference (P, M) pricing: every feature's table row gathered and
    added left to right, into a fresh array each time."""
    rows = positions + samples.schema.offsets[:-1]
    out = samples.table[rows[:, 0]].copy()
    for fi in range(1, rows.shape[1]):
        out = out + samples.table[rows[:, fi]]
    return out


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def partly_moved(schema, state, counts, rng):
    """(len(counts), d) positions: the state's, with member p's `counts[p]`
    features, chosen at random, moved to another domain position, feasible
    or not."""
    at = schema.positions(state)
    sizes = [f.size for f in schema.features]
    out = np.tile(at, (len(counts), 1))
    for p, k in enumerate(counts):
        for fi in rng.choice([f for f in range(len(at)) if sizes[f] > 1], k, replace=False):
            out[p, fi] = (at[fi] + rng.integers(1, sizes[fi])) % sizes[fi]
    return out


class TestDenseRowSums:
    """The (P, M) `cost_rows` is the dense left-to-right sum of every
    member's feature rows, to the bit, whether members moved no feature,
    some or all of them."""

    @staticmethod
    def batches(adult):
        schema, rows, _, table, _ = adult
        movable = frozenset(schema.mutable_indices())
        for k, (m, editable) in enumerate([(1, None), (1, movable), (7, None),
                                           (100, movable), (1000, None)]):
            yield rows[k], sample_cost_batch(rows[k], schema, table, m, seed=k,
                                             editable=editable)

    def test_sampler_tables_hold_no_negative_zero(self, adult):
        """Parent-row pricing (`search._price_moves`) starts from a +0.0 row
        and relies on the sampler writing +0.0, never -0.0; every origin
        row is all +0.0."""
        schema, rows, _, table, _ = adult
        population = sample_cost_functions(
            rows[:50], schema, table, [np.random.default_rng(u) for u in range(50)])
        sets = [(s, b) for s, b in self.batches(adult)] + [(rows[0], population)]
        for state, samples in sets:
            zero = samples.table == 0.0
            assert zero.any() and not np.signbit(samples.table[zero]).any()
        for state, batch in self.batches(adult):
            origin = schema.offsets[:-1] + schema.positions(state)
            assert (batch.table[origin] == 0.0).all()

    def test_mixed_live_counts_match_dense_sum(self, adult):
        schema = adult[0]
        d = schema.n_features
        rng = np.random.default_rng(3)
        for state, batch in self.batches(adult):
            calls = [
                [0] * 5,  # every member at the origin
                [d] * 4,  # every feature moved
                rng.integers(0, d + 1, size=40),  # mixed counts in one call
                *([k] for k in range(d + 1)),  # P=1
            ]
            infinite = 0
            for counts in calls:
                positions = partly_moved(schema, state, counts, rng)
                want = dense_rows(positions, batch)
                assert_same_bits(cost_rows(positions, batch), want)
                infinite += int(np.isinf(want).sum())
            assert infinite

    def test_origin_members_cost_plus_zero(self, adult):
        schema = adult[0]
        for state, batch in self.batches(adult):
            positions = partly_moved(schema, state, [0, 0, 0], np.random.default_rng(0))
            got = cost_rows(positions, batch)
            assert_same_bits(got, np.zeros((3, batch.m)))

    def test_hand_tables_match_dense_sum(self, adult):
        """A hand-built table with no all-+0.0 row, and a sampled one with
        a -0.0 in an origin row: both match the dense sum."""
        schema, rows, _, table, _ = adult
        state = rows[0]
        batch = sample_cost_batch(state, schema, table, 30, seed=9)
        rng = np.random.default_rng(9)
        dense = rng.uniform(0.0, 1.0, size=batch.table.shape)
        dense[rng.random(dense.shape) < 0.1] = INF
        signed = np.array(batch.table)
        origin = schema.offsets[:-1] + schema.positions(state)
        signed[origin[0]] = -0.0
        for hand in (dense, signed):
            samples = CostSampleSet(schema, batch.states, hand, batch.alpha,
                                    batch.editable, batch.preferences)
            positions = partly_moved(schema, state, rng.integers(0, 12, size=30), rng)
            positions[:4] = schema.positions(state)
            want = dense_rows(positions, samples)
            assert_same_bits(cost_rows(positions, samples), want)
        # -0.0 plus the other features' +0.0 is +0.0: a sum that left them
        # out would keep the sign.
        assert not np.signbit(want[:4]).any()


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
        """The block normalization (a pinned k-feature set, so the
        exponentials are a block's first draw) and the reference's
        `_flat_dirichlet` both return numpy's `dirichlet(ones(k))`."""
        schema = DatasetSchema(features=tuple(
            FeatureSpec(f"f{i}", "ordered", (0, 1)) for i in range(9)))
        table, state = flat_table(schema), np.array((0,) * 9)
        for seed in self.SEEDS:
            old, new = self._pair(seed)
            want = old.dirichlet(np.ones(k))
            assert _flat_dirichlet(new, k).tobytes() == want.tobytes()
            assert new.random() == old.random()
            drawn = sample_cost_function(state, schema, table, np.random.default_rng(seed),
                                         editable=frozenset(range(k)))
            assert drawn.preferences[0, :k].tobytes() == want.tobytes()

    def test_scalar_betas_are_one_array_beta(self):
        grid = np.geomspace(1e-3, 3e3, 19)
        shape_a, shape_b = (g.ravel() for g in np.meshgrid(grid, grid))
        for seed in range(5):
            old, new = self._pair(seed)
            want = old.beta(shape_a, shape_b)
            got = [new.beta(a, b) for a, b in zip(shape_a.tolist(), shape_b.tolist())]
            assert np.array(got).tobytes() == want.tobytes()
            assert new.random() == old.random()

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
    def test_uniform_rows_are_per_feature_integers(self, k, n):
        """`_Workspace.uniform_rows`' one `integers` call draws what k sets
        of one `integers(c, size=n)` call per feature do, c its feature's
        count of feasible positions, and leaves the generator in the same
        place, on adult-like users whose immutable features have one
        choice and draw nothing."""
        schema, rows, _ = make_adult_like(40, seed=7)
        for seed, state in enumerate(rows):
            ws = _Workspace(state, schema)
            assert (ws.n_choices == 1).any()
            old, new = self._pair(seed)
            pos = [np.stack([old.integers(c, size=n) for c in ws.n_choices.tolist()], axis=1)
                   for _ in range(k)]
            want = ws.feasible[np.arange(schema.n_features), np.stack(pos)]
            got = ws.uniform_rows(k, n, new)
            assert got.shape == (k, n, schema.n_features)
            assert np.array_equal(got, want)
            assert new.random() == old.random()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_block_betas_are_one_beta_per_block(self):
        """`_betas` equals one `beta` call per block, byte for byte, and
        leaves each generator where that call leaves it: over blocks of
        gamma cells alone, of Johnk cells (both shapes at most 1) alone and
        of both, the (1, 1) Johnk cell and its gamma neighbours just above
        1, and empty blocks first, between and last."""
        grid = np.geomspace(1e-3, 3e3, 19)
        shape_a, shape_b = (g.ravel() for g in np.meshgrid(grid, grid))
        johnk = (shape_a <= 1.0) & (shape_b <= 1.0)
        a_j, b_j, a_g, b_g = shape_a[johnk], shape_b[johnk], shape_a[~johnk], shape_b[~johnk]
        above = np.nextafter(1.0, 2.0)
        blocks = [
            ([], []),
            (a_g[:140], b_g[:140]),
            (np.r_[a_g[140:200], a_j[:40]], np.r_[b_g[140:200], b_j[:40]]),
            ([1.0], [1.0]),
            ([1.0, above], [above, 1.0]),
            ([], []),
            (a_j[40:], b_j[40:]),
            (a_g[200:], b_g[200:]),
            ([], []),
            ([], []),
        ]
        shape_a = np.concatenate([a for a, _ in blocks])
        shape_b = np.concatenate([b for _, b in blocks])
        stop = np.cumsum([len(a) for a, _ in blocks])
        for seed in range(5):
            old = [np.random.default_rng([seed, i]) for i in range(len(blocks))]
            new = [np.random.default_rng([seed, i]) for i in range(len(blocks))]
            want = np.concatenate([rng.beta(a, b) for rng, (a, b) in zip(old, blocks)])
            assert cost._betas(new, shape_a, shape_b, stop).tobytes() == want.tobytes()
            assert [rng.random() for rng in new] == [rng.random() for rng in old]


class TestMinCostAndEmc:
    def _single_feature(self, costs):
        schema = DatasetSchema(
            features=(FeatureSpec("f", "ordered", tuple(range(len(costs)))),)
        )
        state = np.array((0,))
        return schema, state, manual_samples(schema, state, [[costs]])

    def test_min_of_three(self):
        schema, state, c = self._single_feature([0.0, 0.5, 0.2, 0.9])
        assert min_cost(*one_each(c, (1,), (2,), (3,)), c) == pytest.approx([0.2])

    def test_singleton(self):
        schema, state, c = self._single_feature([0.0, 0.5])
        assert min_cost(*one_each(c, (1,)), c) == pytest.approx([0.5])

    def test_all_infinite(self):
        schema, state, c = self._single_feature([0.0, INF, INF])
        assert min_cost(*one_each(c, (1,), (2,)), c).tolist() == [INF]

    def test_no_member_is_infinite(self):
        schema, state, c = self._single_feature([0.0, 0.5])
        none = np.empty((0, 1), dtype=np.int64), np.empty(0, dtype=np.int64)
        assert min_cost(*none, c).tolist() == [INF]

    def test_members_priced_under_their_owner_only(self):
        schema = DatasetSchema(features=(FeatureSpec("f", "ordered", (0, 1, 2)),))
        state = np.array((0,))
        c = manual_samples(schema, state, [[[0.0, 0.2, 0.1]], [[0.0, 0.4, 0.7]]])
        members = schema.positions(codes((1,), (2,)))
        assert min_cost(members, np.array([1, 1]), c) == pytest.approx([INF, 0.4])
        assert min_cost(members, np.array([0, 1]), c) == pytest.approx([0.2, 0.7])
        assert min_cost(members, np.array([1, 0]), c) == pytest.approx([0.1, 0.4])

    def test_emc_single_sample_equals_min_cost(self, synth6):
        schema, rows, _, table, _ = synth6
        state = rows[0]
        batch = sample_cost_batch(state, schema, table, 1, seed=4)
        members = codes(state)
        assert [emc(cost_rows(schema.positions(members), batch).min(axis=0))] == (
            min_cost(*one_each(batch, state), batch).tolist()
        )

    def test_emc_hand_average(self):
        schema = DatasetSchema(features=(FeatureSpec("f", "ordered", (0, 1)),))
        state = np.array((0,))
        batch = manual_samples(schema, state, [[[0.0, 0.2]], [[0.0, 0.4]]])
        rows = cost_rows(schema.positions([(1,)]), batch)
        assert emc(rows.min(axis=0)) == pytest.approx(0.3)

    def test_pair_beats_either_singleton(self):
        # two samples preferring different moves: the pair set is strictly
        # cheaper than the best singleton
        schema = DatasetSchema(
            features=(
                FeatureSpec("a", "ordered", (0, 1)),
                FeatureSpec("b", "ordered", (0, 1)),
            )
        )
        state = np.array((0, 0))
        batch = manual_samples(
            schema, state,
            [[[0.0, 0.1], [0.0, 0.9]], [[0.0, 0.9], [0.0, 0.1]]],
        )

        def set_emc(members):
            return emc(cost_rows(schema.positions(members), batch).min(axis=0))

        move_a, move_b = (1, 0), (0, 1)
        pair = set_emc([move_a, move_b])
        singles = [set_emc([m]) for m in (move_a, move_b)]
        # exhaustive check over every changed-state singleton in the domain
        for a in (0, 1):
            for b in (0, 1):
                if (a, b) != tuple(state.tolist()):
                    singles.append(set_emc([(a, b)]))
        assert pair < min(singles)

    def test_emc_subset_monotone(self, synth6):
        schema, rows, _, table, _ = synth6
        state = rows[0]
        batch = sample_cost_batch(state, schema, table, 20, seed=6)
        rng = np.random.default_rng(0)

        def random_member():
            vals = []
            for i, f in enumerate(schema.features):
                allowed = sorted(feasible_values(schema, i, state[i]))
                vals.append(allowed[rng.integers(len(allowed))])
            return tuple(vals)

        members = [random_member() for _ in range(6)]
        rows_all = cost_rows(schema.positions(members), batch)
        for cut in range(1, 6):
            assert emc(rows_all.min(axis=0)) <= emc(rows_all[:cut].min(axis=0))


class TestCostMatrix:
    def test_1x1(self):
        schema = DatasetSchema(features=(FeatureSpec("f", "ordered", (0, 1)),))
        state = np.array((0,))
        batch = manual_samples(schema, state, [[[0.0, 0.7]]])
        cm = cost_rows(schema.positions([(1,)]), batch)
        assert cm.shape == (1, 1)
        assert cm[0, 0] == pytest.approx(0.7)

    def test_column_minima_mean_equals_emc(self, synth6):
        schema, rows, _, table, _ = synth6
        state = rows[0]
        batch = sample_cost_batch(state, schema, table, 10, seed=8)
        members = [state, rows[1]]
        cm = cost_rows(schema.positions(members), batch)
        mins = [
            min(transition_cost(state, s, batch, i) for s in members)
            for i in range(batch.m)
        ]
        expected = INF if np.isinf(mins).any() else float(np.mean(mins))
        assert emc(cm.min(axis=0)) == expected
