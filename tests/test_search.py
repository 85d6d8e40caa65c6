import math

import numpy as np
import pytest

from recourse.cost import INF, sample_cost_batch
from recourse.model import BudgetMeter, Classifier
from recourse.schema import DatasetSchema, FeatureSpec, UserState, feasible_values
from recourse.search import (
    BIG,
    SearchConfig,
    _ColumnCache,
    _column_minima,
    _Workspace,
    cols,
    compute_benefits,
    local_search,
    pcols,
    random_search,
    select_swaps,
)


def naive_benefits(cb_raw: np.ndarray, cc_raw: np.ndarray) -> np.ndarray:
    """Independent per-entry accounting, straight from the replacement case
    analysis: scan each column for its min/second-min, no caches, no
    vectorization. The production path must agree exactly."""
    cb = np.minimum(np.asarray(cb_raw, dtype=float), BIG)
    cc = np.minimum(np.asarray(cc_raw, dtype=float), BIG)
    n, m = cb.shape
    out = np.zeros((n, cc.shape[0]))
    mins = [float(min(cb[:, r])) for r in range(m)]
    owners = [int(np.argmin(cb[:, r])) for r in range(m)]
    seconds = [
        float(sorted(cb[:, r])[1]) if n > 1 else BIG for r in range(m)
    ]
    for p in range(n):
        owns_any = any(owners[r] == p and mins[r] < BIG for r in range(m))
        for q in range(cc.shape[0]):
            total = 0.0
            for r in range(m):
                if mins[r] >= BIG:
                    total += BIG - min(cc[q, r], BIG)
                elif owners[r] == p:
                    if cb[p, r] > cc[q, r]:
                        total += cb[p, r] - cc[q, r]
                    else:
                        total += cb[p, r] - min(cc[q, r], seconds[r])
                elif not owns_any:
                    total += max(0.0, mins[r] - cc[q, r])
            out[p, q] = total
    return out


class TestComputeBenefits:
    def test_hand_traced_example(self):
        cb = np.array([[0.5, 0.9], [0.7, 0.3]])
        cc = np.array([[0.2, 0.8], [0.6, 0.6]])
        got = compute_benefits(cb, cc)
        assert np.allclose(got, [[0.3, -0.1], [-0.5, -0.3]], atol=1e-12)

    def test_single_entry(self):
        got = compute_benefits(np.array([[0.5]]), np.array([[0.2]]))
        assert np.allclose(got, [[0.3]], atol=1e-12)

    def test_self_replacement_diagonal_zero(self):
        rng = np.random.default_rng(0)
        cb = rng.uniform(0, 1, size=(4, 6))
        got = compute_benefits(cb, cb.copy())
        assert np.allclose(np.diag(got), 0.0, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            compute_benefits(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 6))
            cb = rng.uniform(0, 1, size=(n, m))
            cc = rng.uniform(0, 1, size=(n, m))
            got = compute_benefits(cb, cc)
            assert np.allclose(got, naive_benefits(cb, cc), atol=1e-9)

    def test_matches_naive_oracle_with_infinities(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 6))
            cb = rng.uniform(0, 1, size=(n, m))
            cc = rng.uniform(0, 1, size=(n, m))
            cb[rng.random(cb.shape) < 0.3] = INF
            cc[rng.random(cc.shape) < 0.3] = INF
            got = compute_benefits(cb, cc)
            assert np.isfinite(got).all()
            assert np.allclose(got, naive_benefits(cb, cc), atol=1e-6)

    def test_invalid_candidates_never_positive(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            cb = rng.uniform(0, 1, size=(3, 4))
            cc = np.full((3, 4), INF)
            got = compute_benefits(cb, cc)
            assert (got <= 0.0).all()
            assert select_swaps(compute_benefits(cb, cc)) == []

    def test_covering_an_uncovered_sample_dominates(self):
        cb = np.array([[0.1, INF], [0.4, INF]])
        cc = np.array([[0.9, 0.8], [INF, INF]])
        got = compute_benefits(cb, cc)
        # candidate 0 covers the dead sample through either row, but going
        # through the dead row keeps row 0's coverage of column 0
        assert got[0, 0] > 0 and got[1, 0] > 0
        assert got[1, 0] > got[0, 0]
        assert select_swaps(compute_benefits(cb, cc)) == [(1, 0)]


class TestSelectSwaps:
    def test_from_hand_trace(self):
        cb = np.array([[0.5, 0.9], [0.7, 0.3]])
        cc = np.array([[0.2, 0.8], [0.6, 0.6]])
        assert select_swaps(compute_benefits(cb, cc)) == [(0, 0)]

    def test_no_positive_entries(self):
        assert select_swaps(np.array([[0.0, -1.0]])) == []

    def test_tie_goes_lexicographic(self):
        b = np.array([[0.0, 0.7], [0.7, 0.1]])
        assert select_swaps(b) == [(0, 1)]


class TestColumnCache:
    def test_incremental_matches_full_recompute(self):
        def check(cache):
            mv, mi, sv = _column_minima(cache.entries)
            assert np.array_equal(cache.min_vals, mv)
            assert np.array_equal(cache.min_idx, mi)
            assert np.array_equal(cache.second_vals, sv)

        # A new row joining a tied minimum takes it: ties go to the lowest row.
        cache = _ColumnCache(np.array([[0.9], [0.5], [0.5]]))
        cache.replace_row(0, np.array([0.5]))
        check(cache)
        assert cache.min_idx.tolist() == [0]

        rng = np.random.default_rng(11)
        for _ in range(50):
            n, m = int(rng.integers(2, 6)), int(rng.integers(1, 8))
            entries = rng.uniform(0, 1, size=(n, m))
            entries[rng.random((n, m)) < 0.2] = BIG
            cache = _ColumnCache(entries.copy())
            for _ in range(6):
                p = int(rng.integers(n))
                row = rng.uniform(0, 1, size=m)
                row[rng.random(m) < 0.2] = BIG
                cache.replace_row(p, row)
                check(cache)

        # On a coarse grid, ties on the minimum are common.
        rng = np.random.default_rng(12)
        for _ in range(50):
            n, m = int(rng.integers(2, 6)), int(rng.integers(1, 8))
            cache = _ColumnCache(rng.integers(0, 3, size=(n, m)).astype(float))
            for _ in range(6):
                p = int(rng.integers(n))
                cache.replace_row(p, rng.integers(0, 3, size=m).astype(float))
                check(cache)


def two_mutable_schema():
    return DatasetSchema(
        features=(
            FeatureSpec("a", "ordered", (0, 1, 2, 3), "mutable"),
            FeatureSpec("b", "unordered", (0, 1, 2), "mutable"),
            FeatureSpec("frozen", "ordered", (0, 1), "immutable"),
        )
    )


def perturb(base, s_u, schema, rng):
    """One perturbed candidate per base state, through the search workspace."""
    ws = _Workspace(s_u, schema)
    idx = np.array(
        [[f.index_of(v) for f, v in zip(schema.features, s.values)] for s in base],
        dtype=np.intp,
    )
    return ws.to_states(ws.perturb_rows(idx, rng))


class TestPerturb:
    def test_feasibility_and_distance(self, synth6):
        schema, rows, *_ = synth6
        s_u = rows[0]
        rng = np.random.default_rng(0)
        base = [s_u] * 4
        for _ in range(250):
            cands = perturb(base, s_u, schema, rng)
            for cand in cands:
                changed = sum(
                    a != b for a, b in zip(cand.values, s_u.values)
                )
                assert changed <= 2
                for i in range(schema.n_features):
                    assert cand.values[i] in feasible_values(
                        schema, i, s_u.values[i]
                    )

    def test_exactly_two_mutable_features_both_chosen(self):
        schema = two_mutable_schema()
        s_u = UserState((0, 0, 1))
        rng = np.random.default_rng(1)
        changed_a = changed_b = 0
        for _ in range(200):
            (cand,) = perturb([s_u], s_u, schema, rng)
            assert cand.values[2] == 1  # immutable never moves
            changed_a += cand.values[0] != 0
            changed_b += cand.values[1] != 0
        # both features get redrawn every round: each changes ~2/3 or ~3/4
        # of the time, never close to zero
        assert changed_a > 100 and changed_b > 100

    def test_all_immutable_rejected(self):
        schema = DatasetSchema(
            features=(FeatureSpec("x", "ordered", (0, 1), "immutable"),)
        )
        s_u = UserState((0,))
        with pytest.raises(ValueError):
            perturb([s_u], s_u, schema, np.random.default_rng(0))


class TestCols:
    def test_budget_equals_set_size_returns_initial(self, synth6):
        schema, rows, _, table, clf = synth6
        s_u = rows[0]
        samples = sample_cost_batch(s_u, schema, table, 20, "mix", seed=0)
        config = SearchConfig(budget=10, set_size=10, seed=0)
        res = cols(s_u, clf, samples, schema, config)
        assert res.queries_used == 10
        assert len(res.trace) == 1

    def test_trace_non_increasing(self, synth6):
        schema, rows, _, table, clf = synth6
        for seed, s_u in enumerate(rows[:5]):
            samples = sample_cost_batch(s_u, schema, table, 50, "mix", seed=seed)
            config = SearchConfig(budget=600, set_size=6, seed=seed)
            res = cols(s_u, clf, samples, schema, config)
            tr = res.trace
            assert all(b <= a + 1e-12 for a, b in zip(tr, tr[1:]))

    def test_budget_never_exceeded(self, synth6):
        schema, rows, _, table, clf = synth6
        s_u = rows[1]
        samples = sample_cost_batch(s_u, schema, table, 30, "mix", seed=1)
        for budget in (6, 13, 47, 100):
            config = SearchConfig(budget=budget, set_size=6, seed=1)
            res = cols(s_u, clf, samples, schema, config)
            assert res.queries_used <= budget
            # whole batches only: usage is a multiple of the set size
            assert res.queries_used % 6 == 0

    def test_validity_flags_match_model(self, synth6):
        schema, rows, _, table, clf = synth6
        s_u = rows[2]
        samples = sample_cost_batch(s_u, schema, table, 30, "mix", seed=2)
        config = SearchConfig(budget=300, set_size=5, seed=2)
        res = cols(s_u, clf, samples, schema, config)
        codes = np.asarray(
            [m.values for m in res.recourse_set.members], dtype=float
        )
        model_says = clf.prob(codes) >= 0.5
        assert list(model_says) == list(res.recourse_set.validity)

    def test_deterministic(self, synth6):
        schema, rows, _, table, clf = synth6
        s_u = rows[3]
        samples = sample_cost_batch(s_u, schema, table, 30, "mix", seed=3)
        config = SearchConfig(budget=300, set_size=5, seed=3)
        a = cols(s_u, clf, samples, schema, config)
        b = cols(s_u, clf, samples, schema, config)
        assert [m.values for m in a.recourse_set.members] == [
            m.values for m in b.recourse_set.members
        ]
        assert a.trace == b.trace

    def test_budget_smaller_than_set_rejected(self, synth6):
        schema, rows, _, table, clf = synth6
        samples = sample_cost_batch(rows[0], schema, table, 10, "mix", seed=0)
        config = SearchConfig(budget=5, set_size=10, seed=0)
        with pytest.raises(ValueError):
            cols(rows[0], clf, samples, schema, config)


class TestPcols:
    def test_single_restart_equals_cols(self, synth6):
        schema, rows, _, table, clf = synth6
        s_u = rows[0]
        samples = sample_cost_batch(s_u, schema, table, 30, "mix", seed=4)
        config = SearchConfig(budget=400, set_size=5, restarts=1, seed=4)
        a = pcols(s_u, clf, samples, schema, config)
        b = cols(s_u, clf, samples, schema, config)
        assert [m.values for m in a.recourse_set.members] == [
            m.values for m in b.recourse_set.members
        ]
        assert a.emc == b.emc

    def test_budget_split_exact(self, synth6):
        schema, rows, _, table, clf = synth6
        s_u = rows[1]
        samples = sample_cost_batch(s_u, schema, table, 20, "mix", seed=5)
        config = SearchConfig(budget=5000, set_size=10, restarts=5, seed=5)
        res = pcols(s_u, clf, samples, schema, config)
        assert res.restart_queries == [1000] * 5
        assert res.queries_used == 5000

    def test_winner_is_argmin(self, synth6):
        schema, rows, _, table, clf = synth6
        s_u = rows[2]
        samples = sample_cost_batch(s_u, schema, table, 20, "mix", seed=6)
        config = SearchConfig(budget=600, set_size=5, restarts=3, seed=6)
        res = pcols(s_u, clf, samples, schema, config)
        assert len(res.restart_emcs) == 3
        assert all(res.emc <= e for e in res.restart_emcs)

    def test_insufficient_per_restart_budget(self, synth6):
        schema, rows, _, table, clf = synth6
        samples = sample_cost_batch(rows[0], schema, table, 10, "mix", seed=0)
        config = SearchConfig(budget=20, set_size=10, restarts=5, seed=0)
        with pytest.raises(ValueError):
            pcols(rows[0], clf, samples, schema, config)


class TestRandomSearch:
    def test_trace_non_increasing_and_budget(self, synth6):
        schema, rows, _, table, clf = synth6
        s_u = rows[0]
        samples = sample_cost_batch(s_u, schema, table, 30, "mix", seed=7)
        config = SearchConfig(budget=300, set_size=5, seed=7)
        res = random_search(s_u, clf, samples, schema, config)
        tr = res.trace
        assert all(b <= a + 1e-12 for a, b in zip(tr, tr[1:]))
        assert res.queries_used <= 300

    def test_zero_iterations_returns_initial(self, synth6):
        schema, rows, _, table, clf = synth6
        s_u = rows[1]
        samples = sample_cost_batch(s_u, schema, table, 10, "mix", seed=8)
        config = SearchConfig(budget=5, set_size=5, seed=8)
        res = random_search(s_u, clf, samples, schema, config)
        assert res.queries_used == 5
        assert len(res.trace) == 1


class TestLocalSearch:
    def test_emc_objective_needs_samples(self, synth6):
        schema, rows, _, table, clf = synth6
        config = SearchConfig(budget=100, set_size=5, seed=0)
        with pytest.raises(ValueError):
            local_search(rows[0], clf, schema, "emc", config)

    def test_unknown_objective(self, synth6):
        schema, rows, _, table, clf = synth6
        config = SearchConfig(budget=100, set_size=5, seed=0)
        with pytest.raises(ValueError):
            local_search(rows[0], clf, schema, "novelty", config)

    def test_accept_if_better_trace(self, synth6):
        schema, rows, _, table, clf = synth6
        s_u = rows[0]
        samples = sample_cost_batch(s_u, schema, table, 30, "mix", seed=9)
        config = SearchConfig(budget=400, set_size=5, seed=9)
        for objective in ("emc", "diversity", "proximity", "sparsity"):
            res = local_search(
                s_u, clf, schema, objective, config,
                samples=samples if objective == "emc" else None,
            )
            tr = res.trace
            assert all(b >= a - 1e-12 for a, b in zip(tr, tr[1:]))
            assert res.queries_used <= 400

    def test_objective_scores_require_valid_member(self, synth6):
        schema, rows, _, table, clf = synth6
        s_u = rows[0]
        config = SearchConfig(budget=300, set_size=5, seed=10)
        res = local_search(s_u, clf, schema, "diversity", config)
        if res.trace[-1] > -math.inf:
            assert any(res.recourse_set.validity)


class TestPairedDirections:
    """Seed-paired comparisons on the small synthetic problem; directions
    must match the large-scale benchmark."""

    def _run(self, synth6, method, seed, objective="emc"):
        from recourse.results import GenerationSettings, run_user

        schema, rows, _, table, clf = synth6
        settings = GenerationSettings(
            method=method, objective=objective, budget=300, set_size=6,
            num_samples=30, seed=seed,
        )
        doc, _ = run_user(seed % 5, rows[seed % 5], clf, schema, table, settings)
        return doc

    def test_cols_emc_beats_local_search_in_most_seeds(self, synth6):
        wins = 0
        for seed in range(20):
            emc_cols = self._run(synth6, "cols", seed).final_emc
            emc_ls = self._run(synth6, "ls", seed).final_emc
            wins += emc_cols <= emc_ls
        assert wins >= 18  # >= 90% of 20 paired seeds

    def test_diversity_objective_yields_more_diverse_sets(self, synth6):
        from recourse.evaluate import distance_metrics
        from recourse.schema import UserState
        from recourse.search import RecourseSet

        schema, rows, *_ = synth6
        gaps = []
        for seed in range(10):
            docs = {
                obj: self._run(synth6, "ls", seed, objective=obj)
                for obj in ("diversity", "emc")
            }
            divs = {}
            for obj, doc in docs.items():
                rs = RecourseSet(
                    members=tuple(UserState(tuple(m)) for m in doc.members),
                    validity=tuple(doc.validity),
                )
                divs[obj] = distance_metrics(
                    UserState(tuple(doc.state)), rs, schema
                )[0]
            gaps.append(divs["diversity"] - divs["emc"])
        assert np.mean(gaps) > 0

    def test_random_search_satisfies_fewer_users(self, synth6):
        from recourse.evaluate import realized_cost, simulate_user
        from recourse.schema import UserState
        from recourse.search import RecourseSet

        schema, rows, _, table, clf = synth6
        hits = {"cols": 0, "random": 0}
        for seed in range(20):
            for method in ("cols", "random"):
                doc = self._run(synth6, method, seed)
                user = simulate_user(
                    UserState(tuple(doc.state)), schema, table,
                    test_seed=31337, user_id=seed,
                )
                rs = RecourseSet(
                    members=tuple(UserState(tuple(m)) for m in doc.members),
                    validity=tuple(doc.validity),
                )
                hits[method] += realized_cost(user, rs) < 1.0
        assert hits["cols"] > hits["random"]


class TestValidityChanneling:
    def test_invalid_members_only_come_from_initialization(self, synth6):
        """Members flagged invalid in the final set must be initialization
        leftovers: no undesired-class candidate is ever swapped in."""
        import numpy as np

        from recourse.search import _Workspace, search_rng

        schema, rows, _, table, clf = synth6
        for seed in range(5):
            s_u = rows[seed]
            samples = sample_cost_batch(s_u, schema, table, 30, "mix",
                                        seed=seed)
            config = SearchConfig(budget=600, set_size=8, seed=seed)
            res = cols(s_u, clf, samples, schema, config)
            ws = _Workspace(s_u, schema)
            rng = search_rng(seed, 0)
            init = ws.perturb_rows(np.tile(ws.user_idx, (8, 1)), rng, 2)
            init_rows = {tuple(r) for r in ws.decode(init).astype(int)}
            for member, ok in zip(res.recourse_set.members,
                                  res.recourse_set.validity):
                if not ok:
                    assert member.values in init_rows


class TestMonotonicityUnderSwaps:
    def test_realized_gain_at_least_bookkept(self):
        """Applying the selected swap improves the capped objective by at
        least the benefit entry (extra gains on non-owned columns are free)."""
        rng = np.random.default_rng(13)
        for _ in range(200):
            n, m = int(rng.integers(2, 5)), int(rng.integers(2, 7))
            cb = rng.uniform(0, 1, size=(n, m))
            cc = rng.uniform(0, 1, size=(n, m))
            pairs = select_swaps(compute_benefits(cb, cc))
            if not pairs:
                continue
            p, q = pairs[0]
            benefit = compute_benefits(cb, cc)[p, q]
            before = cb.min(axis=0).sum()
            swapped = cb.copy()
            swapped[p] = cc[q]
            after = swapped.min(axis=0).sum()
            assert before - after >= benefit - 1e-9
