import math
from dataclasses import replace

import numpy as np
import pytest

from recourse import evaluate
from recourse.cost import INF, min_cost
from recourse.datasets import make_adult_like
from recourse.evaluate import (
    compute_report,
    concentration_distance,
    coverage,
    dir_ratio,
    distance_metrics,
    fs_at_k,
    metric_names,
    pac,
    set_distance_stats,
    set_metrics,
    simulate_user,
    simulate_users,
)
from recourse.experiments import doc_arrays, evaluate_docs, score_docs, select_undesired
from recourse.model import TrainConfig, train_classifier
from recourse.results import GenerationSettings, ResultDoc, run_population
from recourse.schema import (
    DatasetSchema,
    FeatureSpec,
    SchemaError,
    build_percentile_table,
)
from recourse.search import _Workspace

from test_cost import feature_costs, manual_samples, transition_cost
from test_search import perturb_once


def single_feature_users(*costs):
    """Users on a one-feature domain with hand-set transition costs: a
    hidden population whose column u is conditioned on the state (0,).

    costs[u][j] is user u's cost of moving from value 0 to value j; a
    recourse set pointing at value 1 realises costs[u][1].
    """
    schema = DatasetSchema(
        features=(FeatureSpec("f", "ordered", tuple(range(len(costs[0])))),)
    )
    return manual_samples(schema, np.array((0,)), [[c] for c in costs])


def recourse_set(members, validity):
    """A recourse set as arrays: (N, d) int64 codes and (N,) bool validity."""
    return np.array(members, dtype=np.int64), np.array(validity, dtype=bool)


def pointing_set(value=1, valid=True):
    return recourse_set([(value,)], [valid])


def stacked(sets):
    """Recourse sets stacked as `doc_arrays` stacks documents: (P, d)
    members, and per member the index of its set and its validity flag."""
    owners = np.repeat(np.arange(len(sets)), [len(m) for m, _ in sets])
    return (np.concatenate([m for m, _ in sets]), owners,
            np.concatenate([v for _, v in sets]))


def valid_of(sets, schema):
    """The valid members of `sets` as domain positions, which pricing
    takes, and the index of each one's set."""
    members, owners, validity = stacked(sets)
    return schema.positions(members[validity]), owners[validity]


def realised(user, recourse):
    """The realised cost of a population of one owning `recourse`."""
    (cost,) = min_cost(*valid_of([recourse], user.schema), user)
    return cost


def result_doc(state, members, validity):
    """A result document holding only what evaluation reads."""
    return ResultDoc(user_id=0, method="cols", state=list(state),
                     members=[list(m) for m in members], validity=list(validity),
                     final_emc=0.0, trace=[0.0], queries_used=0, seed=0)


class TestDocArrays:
    SCHEMA = DatasetSchema(features=(FeatureSpec("a", "ordered", (0, 1, 2)),
                                     FeatureSpec("b", "unordered", (5, 7))))

    def test_stacks_members_in_document_order(self):
        docs = [result_doc((0, 5), [(1, 5), (2, 7)], [True, False]),
                result_doc((2, 7), [(0, 5)], [True])]
        states, members, owners, validity, positions = doc_arrays(docs, self.SCHEMA)
        assert states.tolist() == [[0, 5], [2, 7]]
        assert members.tolist() == [[1, 5], [2, 7], [0, 5]]
        assert positions.tolist() == [[1, 0], [2, 1], [0, 0]]
        assert owners.tolist() == [0, 0, 1]
        assert validity.tolist() == [True, False, True]
        assert [a.dtype for a in (states, members, validity)] == [np.int64, np.int64, bool]

    @pytest.mark.parametrize("doc, error, message", [
        (result_doc((0, 5), [], []), ValueError,
         "recourse set must have at least one member"),
        (result_doc((0, 5), [(1, 5)], [True, False]), ValueError,
         "one validity flag per member required"),
        (result_doc((0, 6), [(1, 5)], [True]), SchemaError,
         "value 6 not in domain of feature 'b'"),
    ], ids=["no_member", "flag_count", "state_outside_domain"])
    def test_refuses_a_malformed_document(self, doc, error, message):
        good = result_doc((1, 7), [(2, 7)], [True])
        with pytest.raises(error, match=message):
            doc_arrays([good, doc], self.SCHEMA)

    @pytest.mark.parametrize("state, members, what", [
        ((0, 5), [(1, 5), (2,)], "member 1 has 1 values"),
        ((0, 5), [(1, 5, 7)], "member 0 has 3 values"),
        ((0,), [(1, 5)], "state has 1 values"),
    ], ids=["short_member", "long_member", "short_state"])
    def test_refuses_a_row_of_the_wrong_width(self, state, members, what):
        """A state or member of the wrong width is refused before numpy
        sees it, naming the document by its 1-based position."""
        good = result_doc((1, 7), [(2, 7)], [True])
        bad = replace(result_doc(state, members, [True] * len(members)), user_id=7)
        with pytest.raises(SchemaError) as info:
            doc_arrays([good, bad], self.SCHEMA)
        assert str(info.value) == f"document 2: {what}, schema has 2"

    def test_refuses_a_state_outside_the_schema_naming_the_document(self):
        good = result_doc((1, 7), [(2, 7)], [True])
        bad = replace(result_doc((0, 6), [(1, 5)], [True]), user_id=7)
        with pytest.raises(SchemaError) as info:
            doc_arrays([good, good, bad, bad], self.SCHEMA)
        assert str(info.value) == "document 3: value 6 not in domain of feature 'b'"

    @pytest.mark.parametrize("code, shown", [(6, 6), (2**70, 2**70), (-(2**64), -(2**64))],
                             ids=["in_int64", "beyond_int64", "below_int64"])
    @pytest.mark.parametrize("valid", [False, True], ids=["invalid", "valid"])
    def test_refuses_a_member_outside_the_schema_whatever_its_flag(self, valid, code,
                                                                   shown):
        good = result_doc((1, 7), [(2, 7)], [True])
        bad = result_doc((0, 5), [(1, 5), (2, code)], [True, valid])
        with pytest.raises(SchemaError) as info:
            doc_arrays([good, bad, good], self.SCHEMA)
        assert str(info.value) == f"document 2: value {shown} not in domain of feature 'b'"

    @pytest.mark.parametrize("valid", [False, True], ids=["invalid", "valid"])
    @pytest.mark.parametrize("scoring", ["evaluate_docs", "score_docs"])
    def test_scoring_refuses_a_member_outside_the_schema(self, scoring, valid):
        """In-process scoring refuses an out-of-domain member naming its
        document: a valid one would be priced, and an invalid one's
        distances would enter the diversity."""
        table = build_percentile_table(np.array([(0, 5), (2, 7)]), self.SCHEMA)
        score = {
            "evaluate_docs": lambda docs: evaluate_docs(docs, self.SCHEMA, table, 901),
            "score_docs": lambda docs: score_docs(docs, self.SCHEMA, table, [901], 1.0, None),
        }[scoring]
        good = result_doc((1, 7), [(2, 7)], [True])
        score([good, good])
        bad = result_doc((0, 5), [(1, 5), (2, 99)], [True, valid])
        with pytest.raises(SchemaError) as info:
            score([good, bad, good])
        assert str(info.value) == "document 2: value 99 not in domain of feature 'b'"

    def test_take_slices_out_the_arrays_of_some_documents(self):
        """`DocArrays.take` gives what `doc_arrays` makes of the kept
        documents alone, bit for bit."""
        rng = np.random.default_rng(5)
        docs = []
        for _ in range(9):
            n = int(rng.integers(1, 4))
            docs.append(result_doc((int(rng.integers(3)), 5),
                                   [(int(rng.integers(3)), 7)] * n,
                                   (rng.random(n) < 0.5).tolist()))
        arrays = doc_arrays(docs, self.SCHEMA)
        for keep in (rng.random(9) < 0.5, np.ones(9, bool), np.zeros(9, bool)):
            want = doc_arrays([doc for doc, k in zip(docs, keep) if k], self.SCHEMA)
            for got, ref in zip(arrays.take(keep), want):
                assert got.dtype == ref.dtype and np.array_equal(got, ref)


class TestRealizedCost:
    def test_reads_the_pointed_transition(self):
        costs = [0.0, 0.5, 1.2, INF]
        users = single_feature_users(*([0.0, c] for c in costs))
        got = min_cost(*valid_of([pointing_set()] * len(costs), users.schema), users)
        assert got.tolist() == costs


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
        user = single_feature_users([0.0, 0.1])
        costs = np.array([realised(user, pointing_set(valid=False))])
        assert costs[0] == INF
        assert fs_at_k(costs, k=1.0) == 0.0
        assert coverage(costs) == 0.0

    def test_removal_never_helps(self):
        user = single_feature_users([0.0, 0.9, 0.2])
        both = recourse_set([(1,), (2,)], [True, True])
        assert realised(user, both) <= realised(user, pointing_set(1))

    def test_empty_population_rejected(self, synth6):
        schema, _, _, table, _ = synth6
        with pytest.raises(ValueError, match="at least one state"):
            simulate_users([], schema, table, 5, [])
        user = single_feature_users([0.0, 0.5])
        # A user who owns no valid member is uncovered.
        nobody = compute_report(user, *valid_of([pointing_set(valid=False)], user.schema),
                                user.schema)
        assert (nobody.n_users, nobody.coverage, nobody.pac.uncovered) == (1, 0.0, 1)
        with pytest.raises(ValueError, match=r"owner column in 0\.\.0 per member"):
            compute_report(user, *valid_of([pointing_set()] * 2, user.schema), user.schema,
                           k=1.0)
        with pytest.raises(ValueError, match="per member"):
            compute_report(user, np.zeros((2, 1), np.int64), np.zeros(1, np.intp),
                           user.schema)
        with pytest.raises(ValueError, match="per member"):
            compute_report(user, np.zeros((1, 1), np.int64), np.array([-1]), user.schema)

    def test_one_pin_per_user(self, synth6):
        schema, rows, _, table, _ = synth6
        with pytest.raises(ValueError, match="for 2 generators and 1 editable sets"):
            simulate_users(rows[:2], schema, table, 5, [0, 1], editable=[None])


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


def _pair_distance(a, b, schema: DatasetSchema) -> float:
    """Scalar oracle on two code rows: mean per-feature normalized distance,
    range-scaled absolute difference for ordered features, change indicator
    for unordered ones, accumulated feature by feature."""
    total = 0.0
    for fi, f in enumerate(schema.features):
        x, y = a[fi], b[fi]
        if f.kind == "ordered":
            span = f.domain[-1] - f.domain[0]
            total += abs(x - y) / span if span else 0.0
        else:
            total += 1.0 if x != y else 0.0
    return total / schema.n_features


def scalar_distance_stats(s_u, members, schema):
    """(diversity, proximity, sparsity) of code rows through the scalar
    oracle."""
    n, d = len(members), schema.n_features
    prox = 1.0 - sum(_pair_distance(s_u, m, schema) for m in members) / n
    changed = sum(
        1 for m in members for fi in range(d) if m[fi] != s_u[fi]
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
        s_u = np.array((0, 0, 0))
        rs = recourse_set([(2, 0, 0)], [True])
        div, prox, spar, val = distance_metrics(s_u, *rs, schema)
        assert spar == pytest.approx(1 - 1 / 3)
        assert div == 0.0
        assert val == 1.0

    def test_noop_member_identity_case(self):
        schema = self._schema3()
        s_u = np.array((1, 1, 0))
        rs = recourse_set([s_u], [True])
        div, prox, spar, val = distance_metrics(s_u, *rs, schema)
        assert prox == 1.0
        assert spar == 1.0
        assert div == 0.0

    def test_validity_counts_unique_valid(self):
        schema = self._schema3()
        s_u = np.array((0, 0, 0))
        members = [(1 + i // 3, i % 3, 0) for i in range(9)]
        members.append((1, 0, 0))  # duplicate of the first
        rs = recourse_set(members, [True] * 10)
        *_, val = distance_metrics(s_u, *rs, schema)
        assert val == pytest.approx(0.9)

    def test_metrics_bounded(self, synth6):
        schema, rows, _, table, _ = synth6
        rng = np.random.default_rng(2)
        s_u = rows[0]
        for _ in range(20):
            members = [
                tuple(int(rng.choice(f.domain)) for f in schema.features)
                for _ in range(4)
            ]
            rs = recourse_set(members, rng.random(4) < 0.5)
            for v in distance_metrics(s_u, *rs, schema):
                assert 0.0 <= v <= 1.0


    def test_matches_scalar_oracle_bit_for_bit(self):
        schema, rows, _ = make_adult_like(300, seed=5)
        rng = np.random.default_rng(6)
        checked = 0
        for uid in range(60):
            ws = _Workspace(rows[uid], schema)
            n = int(rng.integers(1, 12))
            moves = np.tile(ws.user_idx, (1, n, 1))
            for _ in range(1 + uid % 3):  # up to 2, 4 or 6 features moved
                moves = perturb_once(ws, moves, [rng])
            moves = moves[0]
            members = schema.codes(moves)
            if uid % 4 == 0:  # repeated members and the user's own state
                members = np.vstack([members[0], rows[uid], members, members[0]])
            got = set_distance_stats(rows[uid], members, schema)
            assert got == scalar_distance_stats(rows[uid], members.tolist(), schema)
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
        assert concentration_distance(np.array([[1, 0, 1]]), train)[0] == 0.0

    def test_one_bit_is_one(self):
        train = np.array([[1, 0, 1]])
        assert concentration_distance(np.array([[1, 1, 1]]), train)[0] == 1.0

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
            for x, y in zip(feature_costs(a), feature_costs(b))
        )

    def test_different_from_generation_stream(self, synth6):
        from recourse.cost import sample_cost_batch

        schema, rows, _, table, _ = synth6
        gen = sample_cost_batch(rows[0], schema, table, 1, seed=5, subkey=3)
        test = simulate_user(rows[0], schema, table, test_seed=5, user_id=3)
        same = all(
            np.array_equal(x, y)
            for x, y in zip(feature_costs(gen), feature_costs(test))
        )
        assert not same

    @pytest.mark.parametrize("alpha,pinned", [pytest.param(None, False, id="mix"),
                                              pytest.param(1.0, False, id="lin"),
                                              pytest.param(None, True, id="mix-pins")])
    def test_draw_does_not_depend_on_the_population(self, adult, alpha, pinned):
        """Each of 100 adult-like users' hidden draws is the same bytes
        drawn alone as column u of one 100-user population and as column
        99 - u of that population reversed: scoring a user does not depend
        on who else is scored. With `pinned`, each user but every third one
        pins an editable set of their own (user 1 an empty one), alone as in
        the population."""
        schema, rows, _, table, _ = adult
        states, ids = rows[:100], [7 * i + 3 for i in range(100)]
        pins = [None] * 100
        if pinned:
            rng = np.random.default_rng(8)
            pins = [None if u % 3 == 0 else
                    frozenset(f for f in schema.mutable_indices() if rng.random() < 0.5)
                    for u in range(100)]
            pins[1] = frozenset()
        codes = states
        together = simulate_users(codes, schema, table, 41, ids, alpha, pins)
        reversed_ = simulate_users(codes[::-1], schema, table, 41, ids[::-1], alpha,
                                   pins[::-1])
        assert len(set(map(tuple, states.tolist()))) > 50
        assert together.m == reversed_.m == 100
        for u, (state, uid, pin) in enumerate(zip(states, ids, pins)):
            alone = simulate_user(state, schema, table, 41, uid, alpha, pin)
            assert alone.m == 1
            assert alone.states.tolist() == [state.tolist()]
            if pin is not None:
                assert np.flatnonzero(alone.editable[0]).tolist() == sorted(pin)
            for x, i in ((together, u), (reversed_, 99 - u)):
                for got, want in ((x.states[i], alone.states[0]),
                                  (x.table[:, i], alone.table[:, 0]),
                                  (x.alpha[i], alone.alpha[0]),
                                  (x.editable[i], alone.editable[0]),
                                  (x.preferences[i], alone.preferences[0])):
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def adult_population():
    """80 adult-like users, each with three feasible two-feature moves (the
    first always valid), so realised costs mix cheap, dear and infinite."""
    schema, rows, _ = make_adult_like(400, seed=7)
    table = build_percentile_table(rows, schema)
    rng = np.random.default_rng(4)
    states = rows[:80]
    users = simulate_users(states, schema, table, 31, range(80))
    sets = []
    for state in states:
        ws = _Workspace(state, schema)
        moves = perturb_once(ws, np.tile(ws.user_idx, (1, 3, 1)), [rng])[0]
        sets.append(recourse_set(
            schema.codes(moves), [True, *(bool(v) for v in rng.random(2) < 0.5)]
        ))
    return schema, states, users, sets


class TestComputeReport:
    def test_report_fields_and_subgroups(self, synth6):
        schema, rows, _, table, _ = synth6
        users = simulate_users(rows[:20], schema, table, 99, range(20))
        sets = [recourse_set([state], [True]) for state in rows[:20]]
        report = compute_report(users, *valid_of(sets, schema), schema, k=1.0)
        assert report.n_users == 20
        assert 0.0 <= report.fs_at_k <= 1.0
        assert report.coverage >= report.fs_at_k
        assert any(name.startswith("fs_at_1[origin=") for name in report.table)
        assert {name for name in report.table if name.startswith("dir_")} <= {
            "dir_fs_at_1[origin]", "dir_coverage[origin]"}

    def test_prices_each_pair_once(self, adult_population, monkeypatch):
        """One `min_cost` call per population, pricing every valid member
        once, under its own user's column."""
        schema, _, users, sets = adult_population
        calls = []

        def counting_min_cost(members, owners, population):
            calls.append((members, owners, population))
            return min_cost(members, owners, population)

        monkeypatch.setattr(evaluate, "min_cost", counting_min_cost)
        compute_report(users, *valid_of(sets, schema), schema, k=1.0)
        assert len(calls) == 1
        members, owners, population = calls[0]
        assert population is users
        want = [(u, tuple(m)) for u, (members, validity) in enumerate(sets)
                for m in members[validity].tolist()]
        assert list(zip(owners.tolist(), map(tuple, members.tolist()))) == want
        assert len(want) > len(sets)

    def test_subgroups_are_slices_of_the_cost_vector(self, adult_population):
        schema, states, users, sets = adult_population
        k = 1.0
        report = compute_report(users, *valid_of(sets, schema), schema, k=k)
        costs = np.array([
            min((transition_cost(state, tuple(m), users, u)
                 for m in members[validity].tolist()), default=INF)
            for u, (state, (members, validity)) in enumerate(zip(states, sets))
        ])
        assert INF in costs and (costs < k).any() and (costs >= k).any()
        assert report.fs_at_k == fs_at_k(costs, k)
        assert report.coverage == coverage(costs)
        assert len(schema.protected_attributes) == 2
        for attr in schema.protected_attributes:
            fi = schema.feature_index(attr)
            present = set(states[:, fi].tolist())
            for value in schema.features[fi].domain:
                sub = costs[states[:, fi] == value]
                names = (f"fs_at_1[{attr}={value}]", f"coverage[{attr}={value}]")
                if value not in present:
                    assert not set(names) & set(report.table)
                    continue
                assert [report.table[name] for name in names] == [
                    fs_at_k(sub, k), coverage(sub)
                ]


class TestReportTables:
    def test_mean_table_skips_none_and_absent_metrics(self):
        from recourse.experiments import mean_table

        tables = [
            {"a": 1.0, "b": None, "c": 2.0},
            {"a": 3.0, "b": 0.5},
            {"a": 2.0, "d": None},
        ]
        mean = mean_table(tables)
        assert mean == {"a": 2.0, "b": 0.5, "c": 2.0, "d": None}
        assert list(mean) == ["a", "b", "c", "d"]

    def test_mean_table_follows_order_then_first_seen(self):
        from recourse.experiments import mean_table

        tables = [{"x": 1.0, "c": 1.0}, {"b": 2.0, "a": 3.0, "y": None}]
        mean = mean_table(tables, ["a", "b", "c", "z"])
        assert list(mean) == ["a", "b", "c", "x", "y"]
        assert mean == {"a": 3.0, "b": 2.0, "c": 1.0, "x": 1.0, "y": None}
        assert list(mean_table(tables[::-1], ["a", "b", "c"])) == ["a", "b", "c", "y", "x"]

    def test_metric_names_list_a_full_table_in_row_order(self, adult_population):
        schema, states, users, sets = adult_population
        table = compute_report(users, *valid_of(sets, schema), schema, k=1.0).table
        shared = set_metrics(states, *stacked(sets), schema)
        order = metric_names(schema, 1.0)
        assert set(table) | set(shared) <= set(order)
        assert [name for name in order if name in table] == list(table)

    def test_table_rows_formats(self):
        from recourse.experiments import table_rows

        table = {"fs_at_1": 0.5, "pac": 0.12345, "pac_uncovered": 2.5,
                 "coverage[origin=0]": 1.0, "dir_fs_at_1[origin]": 1.33333,
                 "dir_coverage[origin]": None}
        assert table_rows("cols", table) == [
            ["cols", "fs_at_1", "50.00"],
            ["cols", "pac", "0.123"],
            ["cols", "pac_uncovered", 2],
            ["cols", "coverage[origin=0]", "100.00"],
            ["cols", "dir_fs_at_1[origin]", "1.333"],
            ["cols", "dir_coverage[origin]", "-"],
        ]

    def test_table_names_in_row_order(self, adult_population):
        schema, _, users, sets = adult_population
        report = compute_report(users, *valid_of(sets, schema), schema, k=1.0)
        table = report.table
        names = metric_names(schema, 1.0)
        assert names[:8] == ["fs_at_1", "pac", "pac_uncovered", "coverage",
                             "diversity", "proximity", "sparsity", "validity"]
        assert list(table)[:4] == names[:4]
        assert table["pac"] == report.pac.value
        assert table["pac_uncovered"] == report.pac.uncovered
        domains = {
            attr: schema.features[schema.feature_index(attr)].domain
            for attr in schema.protected_attributes
        }
        subgroup_rows = [
            name
            for attr, domain in domains.items()
            for value in domain
            for name in (f"fs_at_1[{attr}={value}]", f"coverage[{attr}={value}]")
        ]
        dir_rows = [
            f"dir_{metric}[{attr}]"
            for attr in domains
            for metric in ("fs_at_1", "coverage")
        ]
        assert names[8:] == subgroup_rows + dir_rows
        assert list(table)[4:] == [
            name for name in subgroup_rows + dir_rows if name in table
        ]

    def test_set_metrics_are_means_of_distance_metrics(self, adult_population):
        schema, states, _, sets = adult_population
        dists = [distance_metrics(state, *s, schema) for state, s in zip(states, sets)]
        shared = set_metrics(states, *stacked(sets), schema)
        assert list(shared) == ["diversity", "proximity", "sparsity", "validity"]
        for i, value in enumerate(shared.values()):
            assert value == float(np.mean([d[i] for d in dists]))
        # Owners need not come in order: users last to first, each set kept in order.
        members, owners, validity = stacked(sets)
        back = np.argsort(-owners, kind="stable")
        assert set_metrics(states, members[back], owners[back], validity[back],
                           schema) == shared


def recode(f, v):
    """synth6's code v of feature f as a code that is not its domain
    position: 10v + 100 on an ordered feature, 2v - 3 on an unordered one."""
    return 10 * v + 100 if f.kind == "ordered" else 2 * v - 3


def relabel(schema, values):
    return [recode(f, v) for f, v in zip(schema.features, values)]


@pytest.fixture(scope="module")
def relabelled_synth6(synth6):
    """synth6 with every code relabelled, its model trained as the original."""
    schema, rows, labels, _, _ = synth6
    new_schema = replace(schema, features=tuple(
        replace(f, domain=tuple(recode(f, v) for v in f.domain)) for f in schema.features
    ))
    new_rows = np.array([relabel(schema, r) for r in rows.tolist()])
    clf = train_classifier(new_rows, labels, new_schema, TrainConfig(epochs=200, seed=0))
    return new_schema, new_rows, labels, build_percentile_table(new_rows, new_schema), clf


@pytest.mark.parametrize(
    "method", ["cols", "pcols", "random", "ls:emc", "ls:diversity"],
    ids=["cols-emc", "pcols-emc", "random-emc", "ls-emc", "ls-diversity"],
)
def test_relabelled_codes_change_no_document_or_score(synth6, relabelled_synth6, method):
    """Search and scoring work on domain positions: after relabelling,
    documents map back to the original ones and every metric is equal."""
    settings = GenerationSettings(
        method=method, budget=120, set_size=4, num_samples=20, restarts=3, seed=1,
        editable=tuple(synth6[0].mutable_indices()),
    )
    runs = []
    for schema, rows, _, table, clf in (synth6, relabelled_synth6):
        states, ids = select_undesired(rows, clf, schema, limit=6)
        docs = run_population(states, clf, schema, table, settings, ids)
        runs.append((ids, docs, score_docs(docs, schema, table, [901, 902], 1.0, None)))
    (ids, docs, scores), (new_ids, new_docs, new_scores) = runs
    schema = synth6[0]
    assert new_ids == ids
    for doc, new in zip(docs, new_docs):
        assert new.state == relabel(schema, doc.state)
        assert new.members == [relabel(schema, m) for m in doc.members]
        assert (new.validity, new.trace, new.queries_used) == (
            doc.validity, doc.trace, doc.queries_used)
    assert [list(t.values()) for t in new_scores] == [list(t.values()) for t in scores]
