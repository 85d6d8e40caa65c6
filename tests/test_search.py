import math

import numpy as np
import pytest

from recourse import search as search_module
from recourse.cost import INF, SEARCH_STREAM, cost_rows, emc, sample_cost_batch, stream_rng
from recourse.model import BudgetExhausted, BudgetMeter, Classifier, EncodedView, predict_batch
from recourse.schema import DatasetSchema, FeatureSpec, feasible_values
from recourse.search import (
    BIG,
    CHUNK,
    HAMMING,
    METHODS,
    GenerationSettings,
    _lockstep,
    _refresh,
    _Workspace,
    can_swap,
    cols,
    column_stats,
    compute_benefits,
    local_search,
    pcols,
    random_search,
    select_swaps,
)

from test_cost import user


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
        got = compute_benefits(column_stats(cb), cc)
        assert np.allclose(got, [[0.3, -0.1], [-0.5, -0.3]], atol=1e-12)

    def test_single_entry(self):
        got = compute_benefits(column_stats(np.array([[0.5]])), np.array([[0.2]]))
        assert np.allclose(got, [[0.3]], atol=1e-12)

    def test_self_replacement_diagonal_zero(self):
        rng = np.random.default_rng(0)
        cb = rng.uniform(0, 1, size=(4, 6))
        got = compute_benefits(column_stats(cb), cb.copy())
        assert np.allclose(np.diag(got), 0.0, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            compute_benefits(column_stats(np.zeros((2, 3))), np.zeros((2, 4)))

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 6))
            cb = rng.uniform(0, 1, size=(n, m))
            cc = rng.uniform(0, 1, size=(n, m))
            got = compute_benefits(column_stats(cb), cc)
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
            got = compute_benefits(column_stats(cb), cc)
            assert np.isfinite(got).all()
            assert np.allclose(got, naive_benefits(cb, cc), atol=1e-6)

    def test_invalid_candidates_never_positive(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            cb = rng.uniform(0, 1, size=(3, 4))
            cc = np.full((3, 4), INF)
            got = compute_benefits(column_stats(cb), cc)
            assert (got <= 0.0).all()
            assert select_swaps(compute_benefits(column_stats(cb), cc)[None]) == []

    def test_covering_an_uncovered_sample_dominates(self):
        cb = np.array([[0.1, INF], [0.4, INF]])
        cc = np.array([[0.9, 0.8], [INF, INF]])
        got = compute_benefits(column_stats(cb), cc)
        # candidate 0 covers the dead sample through either row, but going
        # through the dead row keeps row 0's coverage of column 0
        assert got[0, 0] > 0 and got[1, 0] > 0
        assert got[1, 0] > got[0, 0]
        assert select_swaps(compute_benefits(column_stats(cb), cc)[None]) == [(0, 1, 0)]

    def test_batched_matches_slices_and_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            r, n, m = (int(v) for v in rng.integers((1, 1, 1), (5, 6, 7)))
            nc = int(rng.integers(1, 6))
            cb = rng.uniform(0, 1, size=(r, n, m))
            cc = rng.uniform(0, 1, size=(r, nc, m))
            cb[rng.random(cb.shape) < 0.2] = INF
            cc[rng.random(cc.shape) < 0.2] = INF
            got = compute_benefits(column_stats(cb), cc)
            assert got.shape == (r, n, nc)
            for k in range(r):
                assert np.array_equal(
                    got[k], compute_benefits(column_stats(cb[k]), cc[k])
                )
                assert np.allclose(got[k], naive_benefits(cb[k], cc[k]), atol=1e-9)

    def test_batched_shape_mismatch(self):
        with pytest.raises(ValueError):
            compute_benefits(column_stats(np.zeros((2, 3, 4))), np.zeros((3, 3, 4)))


class TestSelectSwaps:
    def test_from_hand_trace(self):
        cb = np.array([[0.5, 0.9], [0.7, 0.3]])
        cc = np.array([[0.2, 0.8], [0.6, 0.6]])
        assert select_swaps(compute_benefits(column_stats(cb), cc)[None]) == [(0, 0, 0)]

    def test_no_positive_entries(self):
        assert select_swaps(np.array([[[0.0, -1.0]]])) == []

    def test_tie_goes_lexicographic(self):
        b = np.array([[0.0, 0.7], [0.7, 0.1]])
        assert select_swaps(b[None]) == [(0, 0, 1)]

    def test_one_swap_per_restart(self):
        b = np.array([
            [[0.0, 0.7], [0.7, 0.1]],  # tie: the smallest (p, q) wins
            [[0.0, -1.0], [0.0, 0.0]],  # nothing strictly positive
            [[0.2, 0.1], [0.3, 0.3]],  # tie in the last row
        ])
        assert select_swaps(b) == [(0, 0, 1), (2, 1, 0)]
        assert all(type(i) is int for swap in select_swaps(b) for i in swap)


def naive_minima(entries: np.ndarray):
    """Per-column scan of one (N, M) table: min, first row at the min,
    second-smallest entry (inf with a single row)."""
    n, m = entries.shape
    mins, owners, seconds = [], [], []
    for r in range(m):
        col = [float(entries[p, r]) for p in range(n)]
        mins.append(min(col))
        owners.append(col.index(min(col)))
        seconds.append(sorted(col)[1] if n > 1 else INF)
    return np.array(mins), np.array(owners), np.array(seconds)


class TestColumnMinima:
    """`column_stats`' minima, owners and second minima against a per-column
    scan; every table here is already at most BIG, and a second minimum
    the scan finds infinite is BIG."""

    def test_batched_matches_per_table_scan_after_swaps(self):
        def check(stack):
            held = column_stats(stack)
            for r, entries in enumerate(stack):
                nv, ni, ns = naive_minima(entries)
                owner = (ni == np.arange(len(entries))[:, None]) & (nv < BIG)
                assert np.array_equal(held.min_vals[r], nv)
                assert np.array_equal(held.own[r], owner)
                assert np.array_equal(held.second_vals[r], np.minimum(ns, BIG))
            return held.own.argmax(axis=-2)

        # A new row joining a tied minimum takes it: ties go to the lowest row.
        stack = np.array([[[0.9], [0.5], [0.5]], [[0.5], [0.5], [0.9]]])
        stack[0, 0] = [0.5]
        assert check(stack).tolist() == [[0], [0]]

        rng = np.random.default_rng(11)
        for _ in range(50):
            r, n, m = (int(v) for v in rng.integers((1, 2, 1), (4, 6, 8)))
            stack = rng.uniform(0, 1, size=(r, n, m))
            stack[rng.random(stack.shape) < 0.2] = BIG
            check(stack)
            for _ in range(6):
                row = rng.uniform(0, 1, size=m)
                row[rng.random(m) < 0.2] = BIG
                stack[rng.integers(r), rng.integers(n)] = row
                check(stack)

        # On a coarse grid, ties on the minimum are common.
        rng = np.random.default_rng(12)
        for _ in range(50):
            r, n, m = (int(v) for v in rng.integers((1, 2, 1), (4, 6, 8)))
            stack = rng.integers(0, 3, size=(r, n, m)).astype(float)
            check(stack)
            for _ in range(6):
                stack[rng.integers(r), rng.integers(n)] = rng.integers(0, 3, size=m)
                check(stack)

    def test_single_row_second_min_is_inf(self):
        held = column_stats(np.array([[[0.3, INF]], [[0.1, 0.2]]]))
        assert held.min_vals.tolist() == [[0.3, BIG], [0.1, 0.2]]
        assert held.own.tolist() == [[[1.0, 0.0]], [[1.0, 1.0]]]
        assert (held.second_vals == BIG).all()


class TestHeldColumnStats:
    """The loop keeps each restart's column statistics between swaps and
    recomputes a restart's in full after it swaps; benefits from the held
    statistics must equal those from a fresh scan, bit for bit."""

    @staticmethod
    def check(held, stack, rng, nc):
        fresh = column_stats(stack)
        for h, f in zip(held, fresh):
            assert np.array_equal(h, f)
        cand = rng.uniform(0, 1, size=(stack.shape[0], nc, stack.shape[-1]))
        on_grid = rng.random(cand.shape) < 0.5
        cand[on_grid] = rng.choice([0.0, 0.5, 1.0, INF], size=int(on_grid.sum()))
        want = compute_benefits(fresh, cand)
        assert np.array_equal(compute_benefits(held, cand), want)
        active = np.flatnonzero(rng.random(stack.shape[0]) < 0.5)
        got = compute_benefits(held.take(active), cand[active])
        assert np.array_equal(got, want[active])

    def replace_rows(self, held, stack, rng, draw_row):
        r = np.flatnonzero(rng.random(stack.shape[0]) < 0.6)
        for k in r:
            stack[k, rng.integers(stack.shape[1])] = draw_row()
        fresh = _refresh(held, stack, r)
        for f, h in zip(fresh, held.take(r)):
            assert f.dtype == h.dtype and np.array_equal(f, h)

    def test_tie_repro(self):
        # Row 0 joins a tied minimum and must take the column from row 1.
        stack = np.array([[[0.9], [0.5], [0.5]], [[0.5], [0.5], [0.9]]])
        held = column_stats(stack)
        assert held.idle.tolist() == [[True, False, True], [False, True, True]]
        stack[0, 0] = [0.5]
        _refresh(held, stack, np.array([0]))
        assert held.own[0, :, 0].tolist() == [1.0, 0.0, 0.0]
        assert held.idle.tolist() == [[False, True, True], [False, True, True]]
        self.check(held, stack, np.random.default_rng(0), 2)

    def test_random_row_replacements(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            r, n, m = (int(v) for v in rng.integers((1, 1, 1), (5, 6, 9)))
            nc = int(rng.integers(1, 6))

            def draw_row():
                row = rng.uniform(0, 1, size=m)
                row[rng.random(m) < 0.25] = INF
                return row

            stack = np.stack([[draw_row() for _ in range(n)] for _ in range(r)])
            stack[:, :, rng.random(m) < 0.2] = INF  # columns no member covers
            held = column_stats(stack)
            self.check(held, stack, rng, nc)
            for _ in range(8):
                self.replace_rows(held, stack, rng, draw_row)
                self.check(held, stack, rng, nc)

    def test_coarse_grid_ties_and_idle_rows(self):
        rng = np.random.default_rng(22)
        for _ in range(60):
            r, n, m = (int(v) for v in rng.integers((1, 2, 1), (5, 6, 9)))
            grid = np.array([0.0, 0.5, 1.0, INF])

            def draw_row():
                # Mostly-high rows own nothing and are idle.
                if rng.random() < 0.3:
                    return np.full(m, rng.choice([1.0, INF]))
                return rng.choice(grid, size=m)

            stack = np.stack([[draw_row() for _ in range(n)] for _ in range(r)])
            held = column_stats(stack)
            self.check(held, stack, rng, n)
            for _ in range(8):
                self.replace_rows(held, stack, rng, draw_row)
                self.check(held, stack, rng, n)
            assert held.idle.shape == (r, n)

    def test_all_infinite_columns(self):
        stack = np.full((2, 3, 4), INF)
        stack[0, 1, 0] = 0.2
        held = column_stats(stack)
        assert held.covered.tolist() == [[True, False, False, False], [False] * 4]
        assert held.idle.tolist() == [[True, False, True], [True, True, True]]
        assert (held.min_vals[~held.covered] == BIG).all()
        stack[1, 2] = [0.1, INF, 0.3, INF]
        _refresh(held, stack, np.array([1]))
        self.check(held, stack, np.random.default_rng(1), 3)


class TestScreen:
    """`_lockstep` skips every restart `can_swap` rejects; no such restart
    may hold a strictly positive benefit entry."""

    def test_rejected_restarts_have_no_positive_benefit(self):
        rng = np.random.default_rng(31)
        grid = np.array([0.0, 0.5, 1.0, INF])
        dropped = kept = 0
        for _ in range(200):
            r, n, m = (int(v) for v in rng.integers((2, 1, 1), (6, 6, 9)))
            nc = int(rng.integers(1, 6))
            stack = rng.choice(grid, size=(r, n, m))
            off_grid = rng.random(stack.shape) < 0.3
            stack[off_grid] = rng.uniform(0, 1, size=int(off_grid.sum()))
            # ties on the grid, rows that own nothing, columns no member covers
            stack[rng.random((r, n)) < 0.3] = 1.0
            stack[:, :, rng.random(m) < 0.2] = INF
            stats = column_stats(stack)
            cand = np.where(rng.random((r, nc, m)) < 0.5,
                            rng.choice(grid, size=(r, nc, m)),
                            rng.uniform(0, 1, size=(r, nc, m)))
            # restarts whose candidates sit at or above every held minimum:
            # ties with the minimum, the second minimum, above both, or inf
            held = np.where(stats.covered, stats.min_vals, INF)[:, None, :]
            above = np.stack([np.broadcast_to(held, cand.shape),
                              np.broadcast_to(stats.second_vals[:, None, :], cand.shape),
                              held + rng.choice([0.25, 0.5], size=cand.shape),
                              np.full(cand.shape, INF)])
            pick = rng.integers(len(above), size=cand.shape)
            at_or_above = np.take_along_axis(above, pick[None], axis=0)[0]
            blocked = rng.random(r) < 0.5
            cand[blocked] = at_or_above[blocked]
            # validity masks candidates as the priced table does with inf
            valid = rng.random((r, nc)) < 0.8
            screen = can_swap(stats, cand, valid)
            assert np.array_equal(screen, can_swap(stats, np.minimum(cand, BIG), valid))
            costs = np.where(valid[..., None], cand, INF)
            assert np.array_equal(screen, can_swap(stats, costs, np.ones_like(valid)))
            assert not screen[blocked].any()
            benefits = compute_benefits(stats, costs)
            assert not (benefits[~screen] > 0.0).any()
            rejected = np.flatnonzero(~screen)
            alone = compute_benefits(stats.take(rejected), costs[rejected])
            assert not (alone > 0.0).any()
            assert not any(k in rejected for k, _, _ in select_swaps(benefits))
            dropped += len(rejected)
            kept += int(screen.sum())
        assert dropped and kept

    def test_replay_finds_no_positive_benefit_the_screen_skipped(self, synth6,
                                                                  monkeypatch):
        """Evaluate `compute_benefits` on every restart at every round of a
        pcols run, including the rounds and restarts the screen skipped:
        exactly the restarts that swapped hold a positive entry."""
        schema, rows, _, table, clf = synth6
        s_u = rows[4]
        movable = frozenset(schema.mutable_indices())
        samples = sample_cost_batch(s_u, schema, table, 25, seed=4,
                                    editable=movable)
        config = GenerationSettings(budget=600, set_size=5, restarts=3, seed=4)
        plain = pcols(s_u, clf, samples, schema, config)
        real = {name: getattr(search_module, name) for name in
                ("column_stats", "_classify", "_price_moves", "_refresh",
                 "compute_benefits")}
        held, rounds = {}, []

        def open_round():
            full = real["compute_benefits"](held["stats"], held["cand"])
            positive = np.flatnonzero((full > 0.0).any(axis=(1, 2))).tolist()
            rounds.append({"positive": positive, "evaluated": 0, "swapped": []})

        def column_stats(costs):
            out = real["column_stats"](costs)
            held.setdefault("stats", out)  # the loop's held statistics
            return out

        def _classify(model, idx, meter):
            held["valid"] = real["_classify"](model, idx, meter)
            return held["valid"]

        def _price_moves(parent, table, left, entered):
            out = real["_price_moves"](parent, table, left, entered)
            if "stats" in held:  # an iteration's candidates
                held["cand"] = np.where(held["valid"][..., None], out, INF)
                open_round()
            return out

        def _refresh(stats, costs, restarts):
            out = real["_refresh"](stats, costs, restarts)
            rounds[-1]["swapped"] = restarts.tolist()
            open_round()
            return out

        def compute_benefits(stats, cand):
            rounds[-1]["evaluated"] = len(cand)
            return real["compute_benefits"](stats, cand)

        for name, fn in [("column_stats", column_stats), ("_classify", _classify),
                         ("_price_moves", _price_moves), ("_refresh", _refresh),
                         ("compute_benefits", compute_benefits)]:
            monkeypatch.setattr(search_module, name, fn)
        res = pcols(s_u, clf, samples, schema, config)

        assert res.trace == plain.trace
        assert np.array_equal(res.members, plain.members)
        for round_ in rounds:
            assert round_["positive"] == round_["swapped"]
            assert round_["evaluated"] >= len(round_["swapped"])
        skipped = [rd for rd in rounds if not rd["evaluated"]]
        partial = [rd for rd in rounds if 0 < rd["evaluated"] < config.restarts]
        assert skipped and partial and any(rd["swapped"] for rd in rounds)


def priced(positions, valid, samples):
    """(N, M) costs of (N, d) member positions re-priced with `cost_rows`,
    an invalid member costing inf under every sample."""
    rows = np.full((len(valid), samples.m), INF)
    rows[valid] = cost_rows(positions[valid], samples)
    return rows


def result_costs(res, samples):
    """The re-priced (N, M) costs of a search result's members."""
    return priced(samples.schema.positions(res.members), res.validity, samples)


def two_mutable_schema():
    return DatasetSchema(
        features=(
            FeatureSpec("a", "ordered", (0, 1, 2, 3), "mutable"),
            FeatureSpec("b", "unordered", (0, 1, 2), "mutable"),
            FeatureSpec("frozen", "ordered", (0, 1), "immutable"),
        )
    )


def perturb_once(ws, base, rngs):
    """One perturbation of the (R, n, d) `base`, restart r drawing from
    rngs[r]: a plan on a meter that pays for nothing draws one call."""
    return ws.plan(rngs, base.shape[-2], BudgetMeter(0))(base)[0]


def perturb(base, s_u, schema, rng):
    """One perturbed candidate (a code row) per base state, through the
    search workspace."""
    ws = _Workspace(s_u, schema)
    idx = schema.positions(base)
    return schema.codes(perturb_once(ws, idx[None], [rng])[0])


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
                    a != b for a, b in zip(cand, s_u)
                )
                assert changed <= 2
                for i in range(schema.n_features):
                    assert cand[i] in feasible_values(
                        schema, i, s_u[i]
                    )

    def test_exactly_two_mutable_features_both_chosen(self):
        schema = two_mutable_schema()
        s_u = np.array((0, 0, 1))
        rng = np.random.default_rng(1)
        changed_a = changed_b = 0
        for _ in range(200):
            (cand,) = perturb([s_u], s_u, schema, rng)
            assert cand[2] == 1  # immutable never moves
            changed_a += cand[0] != 0
            changed_b += cand[1] != 0
        # both features get redrawn every round: each changes ~2/3 or ~3/4
        # of the time, never close to zero
        assert changed_a > 100 and changed_b > 100

    def test_all_immutable_rejected(self):
        schema = DatasetSchema(
            features=(FeatureSpec("x", "ordered", (0, 1), "immutable"),)
        )
        s_u = np.array((0,))
        with pytest.raises(ValueError):
            perturb([s_u], s_u, schema, np.random.default_rng(0))


def chi2_bound(df: int, z: float = 3.719) -> float:
    """Upper chi-square quantile for `df` degrees of freedom at the normal
    quantile z (3.719: one-sided 1e-4), by the Wilson-Hilferty cube."""
    c = 2.0 / (9.0 * df)
    return df * (1.0 - c + z * np.sqrt(c)) ** 3


def chi2_uniform(counts) -> float:
    """Pearson statistic of observed counts against equal expected counts."""
    counts = np.asarray(counts, dtype=float)
    expected = counts.sum() / len(counts)
    return float(((counts - expected) ** 2 / expected).sum())


class TestPerturbDistribution:
    """Properties of one batched draw of 10^4 rows (4 restarts of 2,500) on
    a schema with movable features of 4, 3, 4 and 1 feasible positions.
    A base of -1 everywhere makes the resampled features visible: a feature
    was chosen exactly when its entry is no longer -1."""

    SCHEMA = DatasetSchema(
        features=(
            FeatureSpec("a", "ordered", (0, 1, 2, 3), "mutable"),
            FeatureSpec("b", "unordered", (0, 1, 2), "mutable"),
            FeatureSpec("frozen", "ordered", (0, 1), "immutable"),
            FeatureSpec("c", "ordered", (0, 1, 2, 3, 4, 5), "increase_only"),
            FeatureSpec("top", "ordered", (0, 1, 2), "increase_only"),
        )
    )
    USER = np.array((1, 0, 1, 2, 2))
    MOVABLE = (0, 1, 3, 4)

    @pytest.fixture(scope="class")
    def drawn(self):
        ws = _Workspace(self.USER, self.SCHEMA)
        rngs = [np.random.default_rng([40, r]) for r in range(4)]
        out = perturb_once(ws, np.full((4, 2500, 5), -1), rngs)
        return ws, out.reshape(-1, 5)

    def test_unordered_pairs_of_movable_features_equally_likely(self, drawn):
        _, rows = drawn
        chosen = rows != -1
        assert (chosen.sum(axis=1) == 2).all()
        pairs = [(f, g) for i, f in enumerate(self.MOVABLE) for g in self.MOVABLE[i + 1:]]
        counts = [int((chosen[:, f] & chosen[:, g]).sum()) for f, g in pairs]
        assert sum(counts) == len(rows)
        assert chi2_uniform(counts) < chi2_bound(len(pairs) - 1)

    @pytest.mark.parametrize("feature,positions", [(0, (0, 1, 2, 3)), (1, (0, 1, 2)),
                                                   (3, (2, 3, 4, 5))])
    def test_feasible_positions_equally_likely(self, drawn, feature, positions):
        _, rows = drawn
        values = rows[rows[:, feature] != -1, feature]
        counts = [int((values == p).sum()) for p in positions]
        assert sum(counts) == len(values) > 4000
        assert chi2_uniform(counts) < chi2_bound(len(positions) - 1)

    def test_immutable_never_moves(self, drawn):
        _, rows = drawn
        assert (rows[:, 2] == -1).all()

    def test_single_feasible_position_stays(self, drawn):
        ws, rows = drawn
        top = rows[:, 4]
        assert (top != -1).sum() > 4000
        assert set(top[top != -1].tolist()) == {2}
        base = np.tile(ws.user_idx, (2, 500, 1))
        moved = perturb_once(ws, base, [np.random.default_rng(s) for s in (1, 2)])
        assert (moved[..., 4] == 2).all() and (moved[..., 2] == 1).all()

    def test_restart_equals_its_lone_draw(self):
        ws = _Workspace(self.USER, self.SCHEMA)
        seeds = (3, 17, 99)
        together = [np.random.default_rng(s) for s in seeds]
        alone = [np.random.default_rng(s) for s in seeds]
        base = np.tile(ws.user_idx, (3, 7, 1))
        for _ in range(5):  # successive calls read the same amount per restart
            out = perturb_once(ws, base, together)
            for r, rng in enumerate(alone):
                assert np.array_equal(out[r], perturb_once(ws, base[r:r + 1], [rng])[0])
            base = out


def per_call_perturb(ws, base, rngs):
    """The per-call reference for `_Workspace.plan`: one uniform (N, m + k)
    block per restart and call, ranked and scaled on its own. Returns the
    perturbed rows and the (R, N, k) cost-table rows each row's moves leave
    and enter."""
    m = len(ws.movable)
    k = min(HAMMING, m)
    n_restarts, n = base.shape[:2]
    u = np.empty((n_restarts, n, m + k))
    for block, rng in zip(u, rngs, strict=True):
        rng.random(out=block)
    feats = ws.movable[np.argsort(u[..., :m], axis=-1)[..., :k]]
    pos = (u[..., m:] * ws.n_choices[feats]).astype(np.intp)
    out = np.array(base, dtype=np.intp)
    at = np.arange(n_restarts)[:, None, None], np.arange(n)[:, None], feats
    offsets = ws.schema.offsets[feats]
    left = offsets + out[at]
    out[at] = ws.feasible[feats, pos]
    return out, left, offsets + out[at]


class TestPlan:
    """A run's perturbation plan, drawn CHUNK calls at a time, against the
    per-call draws: bit for bit, across chunk boundaries, with the rows
    replaced between calls as swaps replace them."""

    WIDE = (TestPerturbDistribution.SCHEMA, TestPerturbDistribution.USER)
    WIDE_WS = _Workspace(WIDE[1], WIDE[0])
    ONE_MOVABLE = (
        DatasetSchema(features=(
            FeatureSpec("frozen", "ordered", (0, 1), "immutable"),
            FeatureSpec("a", "ordered", (0, 1, 2, 3, 4), "mutable"),
        )),
        np.array((1, 2)),
    )

    @staticmethod
    def _streams(restarts, seed=5):
        return [np.random.default_rng([seed, r]) for r in range(restarts)]

    @pytest.mark.parametrize("restarts", [1, 3])
    @pytest.mark.parametrize("n", [1, 7])
    @pytest.mark.parametrize("case", ["wide", "one_movable"])
    def test_plan_equals_per_call_draws(self, restarts, n, case):
        schema, user = {"wide": self.WIDE, "one_movable": self.ONE_MOVABLE}[case]
        ws = _Workspace(user, schema)
        assert len(ws.movable) == (1 if case == "one_movable" else 4)
        paid = 2 * CHUNK + 5  # calls the meter pays for: three chunks
        meter = BudgetMeter(restarts * n * paid)
        planned, alone = self._streams(restarts), self._streams(restarts)
        perturb = ws.plan(planned, n, meter)
        swaps = np.random.default_rng(0)
        # the first rows are a broadcast view of the user, as in `_lockstep`
        base = np.broadcast_to(ws.user_idx, (restarts, n, len(ws.user_idx)))
        calls = 0
        while True:
            out, *moves = perturb(base)
            calls += 1
            assert out.dtype == np.intp
            want, *want_moves = per_call_perturb(ws, base, alone)
            assert np.array_equal(out, want)
            for got, ref in zip(moves, want_moves, strict=True):
                assert np.array_equal(got, ref)
            try:
                meter.charge(restarts * n)
            except BudgetExhausted:
                break
            replaced = swaps.random((restarts, n)) < 0.3
            base = np.where(replaced[..., None], out, base)
        # the one extra call that finds the meter empty, and no draw beyond it
        assert calls == paid + 1
        for a, b in zip(planned, alone):
            assert a.bit_generator.state == b.bit_generator.state

    def test_restarts_do_not_depend_on_each_other(self):
        ws = self.WIDE_WS
        n = 4
        together = ws.plan(self._streams(3), n, BudgetMeter(10**6))
        alone = [ws.plan([rng], n, BudgetMeter(10**6)) for rng in self._streams(3)]
        base = np.tile(ws.user_idx, (3, n, 1))
        for _ in range(CHUNK + 3):
            out = together(base)[0]
            for r, lone in enumerate(alone):
                assert np.array_equal(out[r], lone(base[r:r + 1])[0][0])
            base = out

    def test_one_restart_takes_set_rows(self):
        """`local_search` perturbs (N, d) sets: the same rows as (1, N, d)."""
        ws = self.WIDE_WS
        flat = ws.plan(self._streams(1), 6, BudgetMeter(10**6))
        nested = ws.plan(self._streams(1), 6, BudgetMeter(10**6))
        base = np.tile(ws.user_idx, (6, 1))
        for _ in range(CHUNK + 3):
            out = flat(base)
            for got, ref in zip(out, nested(base[None]), strict=True):
                assert np.array_equal(got, ref[0])
            base = out[0]


class TestCols:
    def test_budget_equals_set_size_returns_initial(self, synth6):
        schema, rows, _, table, clf = synth6
        s_u = rows[0]
        samples = sample_cost_batch(s_u, schema, table, 20, seed=0)
        config = GenerationSettings(budget=10, set_size=10, seed=0)
        res = cols(s_u, clf, samples, schema, config)
        assert res.queries_used == 10
        assert len(res.trace) == 1

    def test_trace_non_increasing(self, synth6):
        schema, rows, _, table, clf = synth6
        for seed, s_u in enumerate(rows[:5]):
            samples = sample_cost_batch(s_u, schema, table, 50, seed=seed)
            config = GenerationSettings(budget=600, set_size=6, seed=seed)
            res = cols(s_u, clf, samples, schema, config)
            tr = res.trace
            assert all(b <= a + 1e-12 for a, b in zip(tr, tr[1:]))

    def test_budget_never_exceeded(self, synth6):
        schema, rows, _, table, clf = synth6
        s_u = rows[1]
        samples = sample_cost_batch(s_u, schema, table, 30, seed=1)
        for budget in (6, 13, 47, 100):
            config = GenerationSettings(budget=budget, set_size=6, seed=1)
            res = cols(s_u, clf, samples, schema, config)
            assert res.queries_used <= budget
            # whole batches only: usage is a multiple of the set size
            assert res.queries_used % 6 == 0

    def test_validity_flags_match_model(self, synth6):
        schema, rows, _, table, clf = synth6
        s_u = rows[2]
        samples = sample_cost_batch(s_u, schema, table, 30, seed=2)
        config = GenerationSettings(budget=300, set_size=5, seed=2)
        res = cols(s_u, clf, samples, schema, config)
        codes = np.asarray(res.members, dtype=float)
        model_says = clf.prob(codes) >= 0.5
        assert list(model_says) == list(res.validity)

    def test_deterministic(self, synth6):
        schema, rows, _, table, clf = synth6
        s_u = rows[3]
        samples = sample_cost_batch(s_u, schema, table, 30, seed=3)
        config = GenerationSettings(budget=300, set_size=5, seed=3)
        a = cols(s_u, clf, samples, schema, config)
        b = cols(s_u, clf, samples, schema, config)
        assert np.array_equal(a.members, b.members)
        assert a.trace == b.trace

    def test_budget_smaller_than_set_rejected(self, synth6):
        schema, rows, _, table, clf = synth6
        samples = sample_cost_batch(rows[0], schema, table, 10, seed=0)
        with pytest.raises(ValueError, match="budget 5 cannot cover set size 10"):
            cols(rows[0], clf, samples, schema,
                 GenerationSettings(budget=5, set_size=10, seed=0))


class TestPcols:
    def test_single_restart_equals_cols(self, synth6):
        schema, rows, _, table, clf = synth6
        s_u = rows[0]
        samples = sample_cost_batch(s_u, schema, table, 30, seed=4)
        config = GenerationSettings(budget=400, set_size=5, restarts=1, seed=4)
        a = pcols(s_u, clf, samples, schema, config)
        b = cols(s_u, clf, samples, schema, config)
        assert np.array_equal(a.members, b.members)
        assert a.emc == b.emc

    def test_cols_ignores_restarts(self, synth6):
        """`cols` is a one-restart `pcols`, whatever `settings.restarts` says."""
        schema, rows, _, table, clf = synth6
        s_u = rows[1]
        samples = sample_cost_batch(s_u, schema, table, 30, seed=8)
        config = GenerationSettings(budget=400, set_size=5, restarts=5, seed=8)
        a = cols(s_u, clf, samples, schema, config, user_key=3)
        b = pcols(s_u, clf, samples, schema,
                  GenerationSettings(budget=400, set_size=5, restarts=1, seed=8),
                  user_key=3)
        assert np.array_equal(a.members, b.members)
        assert np.array_equal(a.validity, b.validity)
        assert np.array_equal(result_costs(a, samples), result_costs(b, samples))
        assert a.trace == b.trace
        assert a.queries_used == b.queries_used == 400
        assert a.emc == b.emc == b.trace[-1]

    def test_budget_split_exact(self, synth6):
        schema, rows, _, table, clf = synth6
        s_u = rows[1]
        samples = sample_cost_batch(s_u, schema, table, 20, seed=5)
        config = GenerationSettings(budget=5000, set_size=10, restarts=5, seed=5)
        res = pcols(s_u, clf, samples, schema, config)
        assert res.queries_used == 5000
        # each restart spends N queries per trace entry: its initial set and
        # one candidate batch per iteration
        meter = BudgetMeter(5000)
        rngs = [stream_rng(SEARCH_STREAM, 5, r, 0) for r in range(5)]
        *_, traces = _lockstep(_Workspace(s_u, schema), clf, samples, 10, meter, rngs)
        assert [10 * len(trace) for trace in traces] == [1000] * 5
        assert meter.used == res.queries_used

    def test_winner_is_argmin(self, synth6):
        schema, rows, _, table, clf = synth6
        s_u = rows[2]
        samples = sample_cost_batch(s_u, schema, table, 20, seed=6)
        config = GenerationSettings(budget=600, set_size=5, restarts=3, seed=6)
        res = pcols(s_u, clf, samples, schema, config)
        rngs = [stream_rng(SEARCH_STREAM, 6, r, 0) for r in range(3)]
        *_, traces = _lockstep(_Workspace(s_u, schema), clf, samples, 5,
                               BudgetMeter(600), rngs)
        finals = [trace[-1] for trace in traces]
        assert len(finals) == 3
        assert all(res.emc <= e for e in finals)
        assert res.trace == traces[finals.index(min(finals))]

    def test_insufficient_per_restart_budget(self, synth6):
        schema, rows, _, table, clf = synth6
        samples = sample_cost_batch(rows[0], schema, table, 10, seed=0)
        config = GenerationSettings(budget=20, set_size=10, restarts=5, seed=0)
        with pytest.raises(ValueError):
            pcols(rows[0], clf, samples, schema, config)


class TestLockstep:
    """pcols runs its restarts side by side in one loop; each restart must
    behave exactly like a lone COLS run: the loop run alone on that
    restart's stream and share of the budget."""

    @pytest.mark.parametrize("restarts", [2, 3, 5])
    def test_each_restart_equals_its_cols_run(self, synth6, restarts):
        from recourse.experiments import select_undesired

        schema, rows, _, table, clf = synth6
        _, ids = select_undesired(rows, clf, schema, limit=12)
        states = rows[ids]
        # Every movable feature editable keeps the objectives finite, so the
        # restarts differ and the winner is not always restart 0. The first
        # 4 users are always checked; later ones, in screening order, only
        # until some user is won by another restart, so the last assertion
        # holds by construction.
        movable = frozenset(
            i for i, f in enumerate(schema.features) if f.mutability != "immutable"
        )
        winners = []
        for user, s_u in enumerate(states):
            samples = sample_cost_batch(s_u, schema, table, 30, seed=user,
                                        editable=movable)
            config = GenerationSettings(budget=330, set_size=6, restarts=restarts,
                                        seed=21 + user)
            res = pcols(s_u, clf, samples, schema, config, user_key=user)
            sub = config.budget // restarts
            ws = _Workspace(s_u, schema)
            meter = BudgetMeter(restarts * sub)
            together = _lockstep(
                ws, clf, samples, config.set_size, meter,
                [stream_rng(SEARCH_STREAM, config.seed, r, user) for r in range(restarts)],
            )
            runs = []
            for r in range(restarts):
                lone = BudgetMeter(sub)
                members, valid, traces = _lockstep(
                    ws, clf, samples, config.set_size, lone,
                    [stream_rng(SEARCH_STREAM, config.seed, r, user)],
                )
                costs = priced(members[0], valid[0], samples)
                runs.append((members[0], valid[0], costs, traces[0], lone.used))
                # restart r of the lockstep run is its lone run, and every
                # restart is charged the same share of the shared meter
                for held, alone in zip(together, (members, valid)):
                    assert np.array_equal(held[r], alone[0])
                assert np.array_equal(priced(together[0][r], together[1][r], samples), costs)
                assert together[2][r] == traces[0]
                assert meter.used == restarts * lone.used
            finals = [trace[-1] for _, _, _, trace, _ in runs]
            assert all(math.isfinite(e) for e in finals)
            win = finals.index(min(finals))
            assert res.emc == finals[win]
            assert res.queries_used == meter.used
            winners.append(win)
            members, valid, costs, trace, _ = runs[win]
            assert np.array_equal(res.members,
                                  schema.codes(members))
            assert np.array_equal(res.validity, valid)
            assert res.trace == trace
            assert np.array_equal(result_costs(res, samples), costs)
            if any(winners) and user >= 3:
                break
        assert any(winners)

    def test_objective_read_from_held_statistics(self, synth6):
        """The trace and result objective that `_lockstep` reads from its
        held column statistics equal `emc` of the final best set's column
        minima, whether or not every sample is covered."""
        schema, rows, _, table, clf = synth6
        movable = frozenset(schema.mutable_indices())
        finite = []
        for user, s_u in enumerate(rows[:8]):
            samples = sample_cost_batch(s_u, schema, table, 20, seed=user,
                                        editable=movable if user % 2 else None)
            config = GenerationSettings(budget=120, set_size=4, restarts=3, seed=user)
            res = pcols(s_u, clf, samples, schema, config, user_key=user)
            assert res.emc == res.trace[-1] == emc(result_costs(res, samples).min(axis=0))
            finite.append(math.isfinite(res.emc))
        assert any(finite) and not all(finite)

    @pytest.mark.parametrize("budget,restarts", [(330, 3), (5000, 5), (97, 2)])
    def test_one_query_of_all_restarts_per_iteration(self, synth6, monkeypatch,
                                                     budget, restarts):
        schema, rows, _, table, clf = synth6
        s_u = rows[3]
        samples = sample_cost_batch(s_u, schema, table, 20, seed=3)
        n = 6
        config = GenerationSettings(budget=budget, set_size=n, restarts=restarts, seed=3)
        sizes, answered = [], []
        real = search_module.predict_batch

        def counting(classifier, codes, meter):
            sizes.append(len(codes))
            out = real(classifier, codes, meter)
            answered.append(len(codes))
            return out

        monkeypatch.setattr(search_module, "predict_batch", counting)
        res = pcols(s_u, clf, samples, schema, config)
        sub = budget // restarts
        iterations = len(res.trace) - 1
        assert iterations == (sub - n) // n
        assert set(sizes) == {restarts * n}
        assert len(answered) == 1 + iterations
        assert len(sizes) == len(answered) + 1  # the refused last call
        assert res.queries_used == sum(answered) == restarts * (sub - sub % n)


class TestTracedNames:
    def test_patched_names_see_every_call_of_a_pcols_run(self, synth6, monkeypatch):
        """The benchmark's traced pass wraps these module-level names; the
        search must look each one up at call time. pcols calls `cost_rows`
        never."""
        schema, rows, _, table, clf = synth6
        s_u = rows[4]
        samples = sample_cost_batch(s_u, schema, table, 25, seed=4)
        config = GenerationSettings(budget=300, set_size=5, restarts=3, seed=4)
        plain = pcols(s_u, clf, samples, schema, config)

        seen = {"queried": 0, "priced": 0, "benefits": [], "selects": [],
                "iterations": []}
        real = {name: getattr(search_module, name) for name in
                ("predict_batch", "cost_rows", "compute_benefits", "select_swaps")}

        def predict_batch(classifier, codes, meter):
            out = real["predict_batch"](classifier, codes, meter)
            seen["queried"] += len(codes)
            seen["iterations"].append([])
            return out

        def cost_rows(idx, s):
            seen["priced"] += len(idx)
            return real["cost_rows"](idx, s)

        def compute_benefits(stats, cand):
            out = real["compute_benefits"](stats, cand)
            seen["benefits"].append(out)
            return out

        def select_swaps(benefits):
            out = real["select_swaps"](benefits)
            seen["selects"].append((benefits, out))
            seen["iterations"][-1].append(out)
            return out

        for name, fn in [("predict_batch", predict_batch), ("cost_rows", cost_rows),
                         ("compute_benefits", compute_benefits),
                         ("select_swaps", select_swaps)]:
            monkeypatch.setattr(search_module, name, fn)
        res = pcols(s_u, clf, samples, schema, config)

        assert np.array_equal(res.members, plain.members)
        assert np.array_equal(res.validity, plain.validity)
        assert res.trace == plain.trace
        # candidates are priced from their parents' raw rows (`_price_moves`)
        assert seen["queried"] == res.queries_used and seen["priced"] == 0
        assert len(seen["selects"]) == len(seen["benefits"])
        assert all(b is out for b, (out, _) in zip(seen["benefits"], seen["selects"]))
        # each iteration's greedy rounds end either on a select that finds
        # nothing or on a round the screen emptied: no select follows an
        # empty one, and some iterations end with no empty select at all
        _, *iterations = seen["iterations"]
        assert len(iterations) == len(res.trace) - 1
        assert all(all(rounds[:-1]) for rounds in iterations)
        assert any(not rounds or rounds[-1] for rounds in iterations)
        # the screen skips whole iterations' benefit computations
        assert len(seen["benefits"]) < len(iterations)


def sequential_random(s_u, clf, samples, schema, settings, user_key=0):
    """The loop `random_search` stands for, one set at a time: draw a set,
    classify it alone, price it with `cost_rows` and keep it when its emc
    is strictly below the incumbent's, until the budget cannot pay for a
    set. Returns (members, validity, trace, queries used, emc)."""
    ws = _Workspace(s_u, schema)
    model = EncodedView(clf, schema)
    rng = stream_rng(SEARCH_STREAM, settings.seed, 0, user_key)
    meter = BudgetMeter(settings.budget)
    trace = []
    while True:
        cand = ws.uniform_rows(1, settings.set_size, rng)[0]
        try:
            valid = predict_batch(model, cand, meter)
        except BudgetExhausted:
            break
        loss = float(emc(np.where(valid[:, None], cost_rows(cand, samples), INF).min(axis=0)))
        if not trace or loss < best:
            members, validity, best = schema.codes(cand), valid, loss
        trace.append(best)
    return members, validity, trace, meter.used, best


class TestRandomSearch:
    @pytest.mark.parametrize("budget", [6, 7, 37])
    def test_one_answered_query_of_every_set(self, synth6, monkeypatch, budget):
        schema, rows, _, table, clf = synth6
        s_u = rows[2]
        samples = sample_cost_batch(s_u, schema, table, 20, seed=3)
        answered = []

        def counting(model, codes, meter):
            out = predict_batch(model, codes, meter)
            answered.append(len(codes))
            return out

        monkeypatch.setattr(search_module, "predict_batch", counting)
        settings = GenerationSettings(method="random", budget=budget, set_size=6, seed=3)
        res = random_search(s_u, clf, samples, schema, settings)
        assert answered == [6 * (budget // 6)] == [res.queries_used]

    def test_equals_the_sequential_loop(self, adult, synth6):
        """Field by field on adult-like and synth6 users, under sampled
        editable sets, where a uniform set seldom covers every sample, and
        with every movable feature editable, where traces move."""
        from recourse.experiments import select_undesired

        runs = {"moved": 0, "all inf": 0}
        for schema, rows, _, table, clf in (adult, synth6):
            _, ids = select_undesired(rows, clf, schema, limit=3)
            self.check_users(schema, table, clf, rows[ids], ids, runs)
        assert all(runs.values()), runs

    @staticmethod
    def check_users(schema, table, clf, states, ids, runs):
        movable = frozenset(schema.mutable_indices())
        for k, (state, uid) in enumerate(zip(states, ids)):
            for editable, seed in ((None, k), (movable, k + 10)):
                samples = sample_cost_batch(state, schema, table, 40, seed=seed, subkey=uid,
                                            editable=editable)
                for budget in (6, 7, 37, 450):
                    settings = GenerationSettings(method="random", budget=budget, set_size=6,
                                                  seed=seed)
                    res = random_search(state, clf, samples, schema, settings, user_key=uid)
                    members, validity, trace, used, final = sequential_random(
                        state, clf, samples, schema, settings, user_key=uid)
                    assert np.array_equal(res.members, members)
                    assert np.array_equal(res.validity, validity)
                    assert res.trace == trace
                    assert (res.queries_used, res.emc) == (used, final)
                    runs["moved"] += trace[0] != trace[-1]
                    runs["all inf"] += math.isinf(trace[-1])

    def test_trace_non_increasing_and_budget(self, synth6):
        schema, rows, _, table, clf = synth6
        s_u = rows[0]
        samples = sample_cost_batch(s_u, schema, table, 30, seed=7)
        config = GenerationSettings(budget=300, set_size=5, seed=7)
        res = random_search(s_u, clf, samples, schema, config)
        tr = res.trace
        assert all(b <= a + 1e-12 for a, b in zip(tr, tr[1:]))
        assert res.queries_used <= 300

    def test_zero_iterations_returns_initial(self, synth6):
        schema, rows, _, table, clf = synth6
        s_u = rows[1]
        samples = sample_cost_batch(s_u, schema, table, 10, seed=8)
        config = GenerationSettings(budget=5, set_size=5, seed=8)
        res = random_search(s_u, clf, samples, schema, config)
        assert res.queries_used == 5
        assert len(res.trace) == 1


class TestLocalSearch:
    def test_unknown_objective(self):
        with pytest.raises(ValueError, match="unknown method 'ls:novelty'"):
            GenerationSettings(method="ls:novelty", budget=100, set_size=5, seed=0)

    def test_accept_if_better_trace(self, synth6):
        schema, rows, _, table, clf = synth6
        s_u = rows[0]
        samples = sample_cost_batch(s_u, schema, table, 30, seed=9)
        for objective in ("emc", "diversity", "proximity", "sparsity"):
            settings = GenerationSettings(method=f"ls:{objective}", budget=400,
                                          set_size=5, seed=9)
            res = local_search(s_u, clf, samples, schema, settings)
            tr = res.trace
            assert all(b <= a + 1e-12 for a, b in zip(tr, tr[1:]))
            assert res.queries_used <= 400

    def test_objective_scores_require_valid_member(self, synth6):
        schema, rows, _, table, clf = synth6
        s_u = rows[0]
        samples = sample_cost_batch(s_u, schema, table, 10, seed=10)
        settings = GenerationSettings(method="ls:diversity", budget=300, set_size=5,
                                      seed=10)
        res = local_search(s_u, clf, samples, schema, settings)
        if res.trace[-1] < math.inf:
            assert any(res.validity)


class TestGenerationSettings:
    @pytest.mark.parametrize("fields,message", [
        (dict(budget=0), "budget must be positive"),
        (dict(set_size=0), "set_size must be positive"),
        (dict(restarts=0), "restarts must be positive"),
        (dict(method="pcols", budget=4, restarts=5),
         "budget 4 over 5 restarts cannot cover set size 10"),
        (dict(num_samples=0), "num_samples must be positive"),
        (dict(method="cols:diversity"), "unknown method 'cols:diversity'; valid methods: "
         "cols, pcols, random, ls:emc, ls:diversity, ls:proximity, ls:sparsity"),
        (dict(method="pcols:proximity"), "unknown method 'pcols:proximity'"),
        (dict(method="random:sparsity"), "unknown method 'random:sparsity'"),
        (dict(method="colz"), "unknown method 'colz'; valid methods: cols, pcols, random, ls"),
        (dict(method="ls:novelty"), "unknown method 'ls:novelty'"),
        (dict(alpha=float("inf")), r"alpha must lie in \[0,1\], got inf"),
        (dict(method="ls:diversity", alpha=1.5), r"alpha must lie in \[0,1\], got 1.5"),
        (dict(method="ls:diversity", alpha=-0.2), r"alpha must lie in \[0,1\], got -0.2"),
        (dict(alpha=float("nan")), r"alpha must lie in \[0,1\], got nan"),
        (dict(seed=-1), "seed must be non-negative, got -1"),
        (dict(method="ls:emc", budget=4, set_size=5), "budget 4 cannot cover set size 5"),
        (dict(method="pcols", budget=30, restarts=3, set_size=11),
         "budget 30 over 3 restarts cannot cover set size 11"),
        (dict(method="ls"), "unknown method 'ls'; valid methods: cols, pcols, random, "
         "ls:emc, ls:diversity, ls:proximity, ls:sparsity"),
        (dict(num_samples=4097), "num_samples must be at most 4096, got 4097: benefit "
         "sums over more samples are no longer exact"),
        (dict(method="ls:diversity", num_samples=10**6), "num_samples must be at most 4096"),
        (dict(editable=()), "editable must name at least one feature"),
    ])
    def test_rejected_at_construction(self, fields, message):
        with pytest.raises(ValueError, match=message):
            GenerationSettings(**fields)

    def test_exact_sample_bound_accepted(self):
        assert GenerationSettings(num_samples=4096).num_samples == 4096

    @pytest.mark.parametrize("method", METHODS)
    def test_every_method_runs_through_run_user(self, synth6, monkeypatch, method):
        """Every listed method runs its optimizer, every `ls:` one
        `local_search`, and its document records the full method name and
        the objective; only the emc objective samples cost functions."""
        from recourse import results

        calls = []

        def recording(name):
            fn = getattr(results, name)

            def run(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return run

        for name in ("cols", "pcols", "random_search", "local_search"):
            monkeypatch.setattr(results, name, recording(name))
        schema, rows, _, table, clf = synth6
        settings = GenerationSettings(method=method, budget=40, set_size=4,
                                      num_samples=10)
        doc, samples = results.run_user(0, user(rows[0]), clf, schema, table, settings)
        objective = method[3:] if method.startswith("ls:") else "emc"
        assert calls == [{"cols": "cols", "pcols": "pcols",
                          "random": "random_search"}.get(method, "local_search")]
        assert (doc.method, doc.settings["objective"]) == (method, objective)
        assert settings.objective == objective
        assert (samples is None) == (objective != "emc")
        assert doc.queries_used == 40

    @pytest.mark.parametrize("method", ["cols", "random", pytest.param("ls:emc", id="ls")])
    def test_restarts_read_by_pcols_only(self, synth6, method):
        """Only pcols splits its budget over `restarts`: the other methods
        construct and run with more restarts than budget."""
        from recourse.results import run_user

        schema, rows, _, table, clf = synth6
        settings = GenerationSettings(method=method, budget=4, set_size=2,
                                      num_samples=5, restarts=5)
        doc, _ = run_user(0, user(rows[0]), clf, schema, table, settings)
        assert len(doc.members) == 2
        assert doc.queries_used == 4
        assert len(doc.trace) == 2


class TestPairedDirections:
    """Seed-paired comparisons on the small synthetic problem; directions
    must match the large-scale benchmark."""

    def _run(self, synth6, method, seed):
        from recourse.results import GenerationSettings, run_user

        schema, rows, _, table, clf = synth6
        settings = GenerationSettings(
            method=method, budget=300, set_size=6, num_samples=30, seed=seed
        )
        doc, _ = run_user(seed % 5, user(rows[seed % 5]), clf, schema, table, settings)
        return doc

    def test_cols_emc_beats_local_search_in_most_seeds(self, synth6):
        wins = 0
        for seed in range(20):
            emc_cols = self._run(synth6, "cols", seed).final_emc
            emc_ls = self._run(synth6, "ls:emc", seed).final_emc
            wins += emc_cols <= emc_ls
        assert wins >= 18  # >= 90% of 20 paired seeds

    def test_diversity_objective_yields_more_diverse_sets(self, synth6):
        from recourse.evaluate import distance_metrics

        schema, rows, *_ = synth6
        gaps = []
        for seed in range(10):
            docs = {
                obj: self._run(synth6, f"ls:{obj}", seed)
                for obj in ("diversity", "emc")
            }
            divs = {}
            for obj, doc in docs.items():
                divs[obj] = distance_metrics(
                    np.array(doc.state), np.array(doc.members), np.array(doc.validity),
                    schema,
                )[0]
            gaps.append(divs["diversity"] - divs["emc"])
        assert np.mean(gaps) > 0

    def test_random_search_satisfies_fewer_users(self, synth6):
        from recourse.cost import min_cost
        from recourse.evaluate import simulate_user

        schema, rows, _, table, clf = synth6
        hits = {"cols": 0, "random": 0}
        for seed in range(20):
            for method in ("cols", "random"):
                doc = self._run(synth6, method, seed)
                user = simulate_user(
                    np.array(doc.state), schema, table,
                    test_seed=31337, user_id=seed,
                )
                valid = np.array(doc.validity)
                members = np.array(doc.members)[valid]
                hits[method] += min_cost(schema.positions(members),
                                         np.zeros(len(members), np.intp),
                                         user)[0] < 1.0
        assert hits["cols"] > hits["random"]


class TestParentRowPricing:
    """Every searched candidate is priced from its parent's raw row
    (`_price_moves`); each table it returns, clamped to BIG, is the
    `cost_rows` table of the same positions clamped to BIG, bit for bit,
    and priced by `_costs` it is the `cost_rows` table with invalid rows
    inf."""

    RUNS = (dict(method="cols", budget=300, set_size=5),
            dict(method="pcols", budget=600, set_size=5, restarts=3),
            dict(method="ls:emc", budget=300, set_size=5))

    @pytest.mark.parametrize("data", ["adult", "synth6"])
    def test_every_priced_table_equals_cost_rows(self, request, monkeypatch, data):
        from recourse.experiments import select_undesired

        schema, rows, _, table, clf = request.getfixturevalue(data)
        _, ids = select_undesired(rows, clf, schema, limit=4)
        states = rows[ids]
        real = {name: getattr(search_module, name) for name in ("_classify", "_price_moves")}
        seen = {"calls": 0, "stays": 0, "infeasible": 0, "finite": 0}

        def _classify(model, idx, meter):
            seen["idx"] = idx
            seen["valid"] = real["_classify"](model, idx, meter)
            return seen["valid"]

        def _price_moves(parent, raw_table, left, entered):
            out = real["_price_moves"](parent, raw_table, left, entered)
            idx, valid = seen["idx"], seen["valid"]
            want = cost_rows(idx.reshape(-1, idx.shape[-1]), seen["samples"])
            want = want.reshape(out.shape)
            assert_bits(np.minimum(out, BIG), np.minimum(want, BIG))
            assert_bits(search_module._costs(out, valid),
                        np.where(valid[..., None], want, INF))
            seen["calls"] += 1
            seen["stays"] += int((left == entered).sum())  # moves to the current position
            # rows with a move infeasible under some samples but not all
            some = (out >= BIG).any(axis=-1) & (out < BIG).any(axis=-1)
            seen["infeasible"] += int(some.sum())
            seen["finite"] += int(np.isfinite(want).sum())
            return out

        monkeypatch.setattr(search_module, "_classify", _classify)
        monkeypatch.setattr(search_module, "_price_moves", _price_moves)
        for k, (state, uid) in enumerate(zip(states, ids)):
            for fields in self.RUNS:
                settings = GenerationSettings(seed=k, num_samples=60, **fields)
                samples = sample_cost_batch(state, schema, table, settings.num_samples,
                                            seed=k, subkey=uid)
                seen["samples"] = samples
                run = {"cols": cols, "pcols": pcols, "ls:emc": local_search}[fields["method"]]
                run(state, clf, samples, schema, settings, user_key=uid)
        assert seen["calls"] and seen["stays"] and seen["infeasible"] and seen["finite"]


def assert_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestValidityChanneling:
    def test_invalid_members_only_come_from_initialization(self, synth6):
        """Members flagged invalid in the final set must be initialization
        leftovers: no undesired-class candidate is ever swapped in."""
        import numpy as np

        from recourse.search import _Workspace

        schema, rows, _, table, clf = synth6
        for seed in range(5):
            s_u = rows[seed]
            samples = sample_cost_batch(s_u, schema, table, 30,
                                        seed=seed)
            config = GenerationSettings(budget=600, set_size=8, seed=seed)
            res = cols(s_u, clf, samples, schema, config)
            ws = _Workspace(s_u, schema)
            rng = stream_rng(SEARCH_STREAM, seed, 0, 0)
            init = perturb_once(ws, np.tile(ws.user_idx, (1, 8, 1)), [rng])[0]
            init_rows = {tuple(r) for r in schema.codes(init).tolist()}
            for member, ok in zip(res.members, res.validity):
                if not ok:
                    assert tuple(member.tolist()) in init_rows


@pytest.mark.parametrize("method", METHODS)
def test_every_method_returns_its_set_as_two_arrays(synth6, monkeypatch, method):
    """Through `run_user`, every method's result holds (N, d) int64 member
    codes and (N,) bool validity flags, which its document lists."""
    from recourse import results

    schema, rows, _, table, clf = synth6
    seen = []
    for name in ("cols", "pcols", "random_search", "local_search"):
        def recording(*args, _search=getattr(results, name), **kwargs):
            seen.append(_search(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(results, name, recording)
    settings = GenerationSettings(method=method, budget=60, set_size=4, num_samples=10,
                                  restarts=2, seed=1)
    doc, _ = results.run_user(3, user(rows[0]), clf, schema, table, settings)
    (res,) = seen
    assert res.members.dtype == np.int64 and res.members.shape == (4, schema.n_features)
    assert res.validity.dtype == bool and res.validity.shape == (4,)
    assert (doc.members, doc.validity) == (res.members.tolist(), res.validity.tolist())


class TestMonotonicityUnderSwaps:
    def test_realized_gain_at_least_bookkept(self):
        """Applying the selected swap improves the capped objective by at
        least the benefit entry (extra gains on non-owned columns are free)."""
        rng = np.random.default_rng(13)
        for _ in range(200):
            n, m = int(rng.integers(2, 5)), int(rng.integers(2, 7))
            cb = rng.uniform(0, 1, size=(n, m))
            cc = rng.uniform(0, 1, size=(n, m))
            swaps = select_swaps(compute_benefits(column_stats(cb), cc)[None])
            if not swaps:
                continue
            _, p, q = swaps[0]
            benefit = compute_benefits(column_stats(cb), cc)[p, q]
            before = cb.min(axis=0).sum()
            swapped = cb.copy()
            swapped[p] = cc[q]
            after = swapped.min(axis=0).sum()
            assert before - after >= benefit - 1e-9
