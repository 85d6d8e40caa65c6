"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is deterministic and sized for a desktop run.
"""

import time
from itertools import combinations

import numpy as np
import pytest

from recourse import search as search_module
from recourse.cost import INF, emc, min_cost, sample_cost_batch, sample_cost_function
from recourse.datasets import make_adult_like, make_synthetic_6f
from recourse.evaluate import (
    coverage,
    dir_ratio,
    distance_metrics,
    fs_at_k,
    pac,
    set_metrics,
)
from recourse.experiments import (
    ExperimentSpec,
    doc_arrays,
    evaluate_docs,
    run_experiment,
    select_undesired,
)
from recourse.results import GenerationSettings, run_population
from recourse.schema import UserState, build_percentile_table, feasible_values
from recourse.search import BIG, cols, column_stats, compute_benefits

from test_cost import feature_costs, moves, transition_cost
from test_search import naive_benefits, result_costs


def _pass(n: int, msg: str) -> None:
    print(f"\nACCEPTANCE {n}: PASS - {msg}")


@pytest.fixture(scope="module")
def adult_users(adult):
    schema, rows, _, table, clf = adult
    states, ids = select_undesired(rows, clf, schema, limit=100)
    assert len(states) == 100
    return schema, table, clf, states, ids


@pytest.fixture(scope="module")
def adult_benchmark(adult_users):
    """cols / pcols / random / ls:diversity, 100 users x 5 seeds each."""
    schema, table, clf, states, ids = adult_users
    seeds = (0, 1, 2, 3, 4)
    out = {}
    for method in ("cols", "pcols", "random", "ls:diversity"):
        per_seed = []
        for seed in seeds:
            settings = GenerationSettings(
                method=method,
                budget=1000,
                set_size=10,
                num_samples=100,
                seed=seed,
            )
            docs = run_population(states, clf, schema, table, settings,
                                  user_ids=ids)
            report = evaluate_docs(docs, schema, table, test_seed=4242, k=1.0)
            per_seed.append((docs, report))
        out[method] = per_seed
    return out


def test_criterion_1_monotonicity_suite(synth6):
    """100 COLS runs (20 users x 5 seeds): every objective trace
    non-increasing, zero violations, under the 2-minute budget."""
    schema, rows, _, table, clf = synth6
    states, ids = select_undesired(rows, clf, schema, limit=20)
    assert len(states) == 20
    start = time.time()
    violations = 0
    runs = 0
    for seed in range(5):
        for uid, s_u in zip(ids, states):
            samples = sample_cost_batch(
                s_u, schema, table, 100, seed=seed, subkey=uid
            )
            config = GenerationSettings(budget=2000, set_size=10, seed=seed)
            res = cols(s_u, clf, samples, schema, config)
            runs += 1
            trace = res.trace
            if any(b > a + 1e-12 for a, b in zip(trace, trace[1:])):
                violations += 1
    elapsed = time.time() - start
    assert runs == 100
    assert violations == 0
    assert elapsed < 120.0
    _pass(1, f"100 runs, 0 trace violations, {elapsed:.1f}s (< 120s)")


def test_criterion_2_benefit_matrix_oracle():
    """1000 random cost-table pairs: the production benefit computation
    matches an independent naive accounting to 1e-9; entries never claim
    more than the realised objective change, and match it exactly whenever
    the swapped-in candidate improves no column owned by another row."""
    cb = np.array([[0.5, 0.9], [0.7, 0.3]])
    cc = np.array([[0.2, 0.8], [0.6, 0.6]])
    assert np.allclose(
        compute_benefits(column_stats(cb), cc), [[0.3, -0.1], [-0.5, -0.3]], atol=1e-12
    )

    rng = np.random.default_rng(20260810)
    exact_entries = 0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 6))
        cb = rng.uniform(0, 1, size=(n, m))
        cc = rng.uniform(0, 1, size=(n, m))
        got = compute_benefits(column_stats(cb), cc)
        assert np.allclose(got, naive_benefits(cb, cc), atol=1e-9)

        owners = cb.argmin(axis=0)
        owns_any = [(owners == p).any() for p in range(n)]
        before = cb.min(axis=0).sum()
        for p in range(n):
            for q in range(n):
                swapped = cb.copy()
                swapped[p] = cc[q]
                realized = before - swapped.min(axis=0).sum()
                assert got[p, q] <= realized + 1e-9
                improves_elsewhere = any(
                    owners[r] != p and cc[q, r] < cb[owners[r], r]
                    for r in range(m)
                )
                if not owns_any[p] or not improves_elsewhere:
                    assert abs(got[p, q] - realized) <= 1e-9
                    exact_entries += 1
    _pass(2, f"1000 pairs agree with the naive oracle; "
             f"{exact_entries} entries verified as exact objective deltas")


def test_criterion_3_exhaustive_optimum(toy2):
    """Small-domain limit: with as many members as samples and ample
    budget, every per-sample minimum matches the exhaustive optimum."""
    schema, _, table, clf = toy2
    all_states = [UserState((a, b)) for a in range(5) for b in range(5)]
    valid = [
        s
        for s in all_states
        if clf.prob(np.asarray([s.values], dtype=float))[0] >= 0.5
    ]
    s_u = UserState((1, 1))
    for seed in range(20):
        samples = sample_cost_batch(s_u, schema, table, 3, seed=seed)
        optima = [
            min((transition_cost(s_u, s.values, samples, i) for s in valid),
                default=INF)
            for i in range(samples.m)
        ]
        config = GenerationSettings(budget=3000, set_size=3, seed=seed)
        res = cols(s_u, clf, samples, schema, config)
        got = result_costs(res, samples).min(axis=0)
        for g, o in zip(got, optima):
            assert g == o or abs(g - o) < 1e-12
    _pass(3, "20/20 seeds reach the exhaustive per-sample optima exactly")


def test_criterion_3b_whole_set_optimum(toy2):
    """Companion check: the final objective equals the brute-force optimum
    over every possible member triple."""
    schema, _, table, clf = toy2
    all_states = [UserState((a, b)) for a in range(5) for b in range(5)]
    s_u = UserState((1, 1))
    for seed in range(5):
        samples = sample_cost_batch(s_u, schema, table, 3, seed=seed)
        costs = []
        for s in all_states:
            ok = clf.prob(np.asarray([s.values], dtype=float))[0] >= 0.5
            costs.append(
                [transition_cost(s_u, s.values, samples, i) if ok else INF
                 for i in range(samples.m)]
            )
        costs = np.asarray(costs)
        best = INF
        for combo in combinations(range(len(all_states)), 3):
            mins = costs[list(combo)].min(axis=0)
            e = INF if np.isinf(mins).any() else float(mins.mean())
            best = min(best, e)
        res = cols(s_u, clf, samples, schema,
                   GenerationSettings(budget=3000, set_size=3, seed=seed))
        assert abs(res.emc - best) < 1e-9
    _pass(3, "whole-set objective matches the C(25,3) brute force, 5 seeds")


def test_criterion_4_sampler_invariants(synth6, adult):
    """10,000 sampled cost functions across lin/perc/mix: every finite cost
    in [0,1], zero-cost no-ops, infinite infeasibles, unit preference mass,
    and monotone ordered raw means; zero violations."""
    packs = [(synth6[0], synth6[1], synth6[3]), (adult[0], adult[1], adult[3])]
    total = 0
    for schema, rows, table in packs:
        rng = np.random.default_rng(77)
        for dist_i, distribution in enumerate(("lin", "perc", "mix")):
            alpha = {"lin": 1.0, "perc": 0.0, "mix": None}[distribution]
            for draw in range(1668):
                state = rows[(draw * 3 + dist_i) % len(rows)]
                c = sample_cost_function(state, schema, table, rng, alpha=alpha)
                total += c.m
                editable = c.editable[0]
                at = schema.positions(state.values)
                for fi, f in enumerate(schema.features):
                    vec = feature_costs(c)[fi][0]
                    s_idx = at[fi]
                    assert vec[s_idx] == 0.0
                    finite = vec[np.isfinite(vec)]
                    assert ((finite >= 0.0) & (finite <= 1.0)).all()
                    if not editable[fi]:
                        assert all(vec[j] == INF for j in range(f.size)
                                   if j != s_idx)
                    else:
                        allowed = feasible_values(schema, fi, state.values[fi])
                        for j, v in enumerate(f.domain):
                            if v not in allowed:
                                assert vec[j] == INF
                scores = c.preferences[0]
                assert (scores >= 0).all()
                assert abs(scores.sum() - 1.0) < 1e-9
                assert (scores[~editable] == 0.0).all()
                if alpha is not None:
                    assert c.alpha[0] == alpha
    assert total == 2 * 3 * 1668  # 10,008 sampled functions

    # ordered raw means are monotone in the feasible direction
    for schema, rows, table in packs:
        for state in rows[:10]:
            at = schema.positions(state.values).tolist()
            for fi, f in enumerate(schema.features):
                if f.kind != "ordered" or f.mutability == "immutable":
                    continue
                s_idx = at[fi]
                targets, pairs = moves(table, fi, s_idx)
                targets = np.array(targets, dtype=np.intp)
                raw = np.array(pairs, dtype=float).reshape(-1, 2).T
                for means in raw:
                    up = means[targets > s_idx]
                    down = means[targets < s_idx][::-1]
                    assert (np.diff(up) >= -1e-12).all() and (up >= 0).all()
                    assert (np.diff(down) >= -1e-12).all() and (down >= 0).all()
    _pass(4, f"{total} sampled cost functions, zero invariant violations")


def test_criterion_5_directional_reproduction(adult_benchmark):
    """100-user income-style subset, 5 seeds: cols beats random search by
    at least 30 points of FS@1, and pcols' objective is no worse than cols'
    on average."""
    fs_cols = np.mean([r.fs_at_k for _, r in adult_benchmark["cols"]])
    fs_random = np.mean([r.fs_at_k for _, r in adult_benchmark["random"]])
    gap = (fs_cols - fs_random) * 100.0
    assert gap >= 30.0

    emc_cols = emc(
        [d.final_emc for docs, _ in adult_benchmark["cols"] for d in docs]
    )
    emc_pcols = emc(
        [d.final_emc for docs, _ in adult_benchmark["pcols"] for d in docs]
    )
    assert emc_pcols <= emc_cols
    capped_cols = np.mean(
        [min(d.final_emc, BIG) for docs, _ in adult_benchmark["cols"]
         for d in docs]
    )
    capped_pcols = np.mean(
        [min(d.final_emc, BIG) for docs, _ in adult_benchmark["pcols"]
         for d in docs]
    )
    _pass(
        5,
        f"FS@1 cols {100*fs_cols:.1f} vs random {100*fs_random:.1f} "
        f"(gap {gap:.1f} >= 30); mean objective pcols {emc_pcols} <= "
        f"cols {emc_cols} (capped means {capped_pcols:.0f} / {capped_cols:.0f})",
    )


def test_criterion_6_ablation_direction(adult_users, adult_benchmark):
    """Diversity-driven local search wins on diversity but loses at least
    20 points of FS@1 to the cost-optimized search."""
    schema = adult_users[0]

    def diversity(docs):
        states, members, owners, validity, _ = doc_arrays(docs, schema)
        return set_metrics(states, members, owners, validity, schema)["diversity"]

    div_ls = np.mean([diversity(docs) for docs, _ in adult_benchmark["ls:diversity"]])
    div_cols = np.mean([diversity(docs) for docs, _ in adult_benchmark["cols"]])
    fs_ls = np.mean([r.fs_at_k for _, r in adult_benchmark["ls:diversity"]])
    fs_cols = np.mean([r.fs_at_k for _, r in adult_benchmark["cols"]])
    assert div_ls > div_cols
    assert (fs_cols - fs_ls) * 100.0 >= 20.0
    _pass(
        6,
        f"ls:diversity div {100*div_ls:.1f} > cols {100*div_cols:.1f}; "
        f"FS@1 {100*fs_ls:.1f} vs {100*fs_cols:.1f}",
    )


def test_criterion_7_metric_units():
    """Hand-computed metric examples, including the published fairness
    ratio to three decimals."""
    from test_evaluate import pointing_set, single_feature_users, valid_of

    def realized(*costs):
        users = single_feature_users(*([0.0, c] for c in costs))
        return min_cost(*valid_of([pointing_set()] * len(costs), users.schema), users)

    costs = realized(0.5, 1.2, INF)
    assert fs_at_k(costs, k=1.0) == pytest.approx(1 / 3)
    assert coverage(costs) == pytest.approx(2 / 3)

    assert pac(realized(0.2, 0.4)).value == pytest.approx(0.3)
    result = pac(realized(0.2, INF))
    assert result.value == pytest.approx(0.2)
    assert result.uncovered == 1

    from recourse.schema import DatasetSchema, FeatureSpec

    schema = DatasetSchema(
        features=(
            FeatureSpec("a", "ordered", (0, 1, 2, 3)),
            FeatureSpec("b", "ordered", (0, 1, 2, 3)),
            FeatureSpec("c", "unordered", (0, 1)),
        )
    )
    div, prox, spar, val = distance_metrics(np.array([0, 0, 0]), np.array([(2, 0, 0)]),
                                            np.array([True]), schema)
    assert spar == pytest.approx(1 - 1 / 3)
    assert val == 1.0

    ratio = dir_ratio({1: 76.8, 0: 76.5}, group_order=[1, 0])
    assert round(ratio, 3) == 1.004
    assert dir_ratio({0: 0.0, 1: 0.4}, [1, 0]) is None
    _pass(7, "FS@k, PAC, Cov, sparsity, validity, DIR all reproduce the "
             "hand-computed values; DIR = 1.004")


@pytest.fixture(scope="module")
def sweep_env(synth6):
    schema, rows, _, table, clf = synth6
    states, ids = select_undesired(rows, clf, schema, limit=60)
    return schema, table, clf, states, ids


def test_criterion_8a_samples_sweep(sweep_env):
    """FS@1 non-decreasing in the Monte-Carlo sample count (2-point noise
    band) and within 3 points of its M=1000 value by M=20."""
    schema, table, clf, states, ids = sweep_env
    spec = ExperimentSpec(
        kind="samples_sweep",
        seeds=(0, 1),
        methods=("cols",),
        grid=(1, 5, 20, 200, 1000),
        test_seed=4242,
        base=GenerationSettings(budget=600, set_size=6, num_samples=100),
    )
    header, rows_out = run_experiment(spec, states, ids, clf, schema, table)
    fs = {int(r[0]): float(r[2]) for r in rows_out}
    grid = sorted(fs)
    for a, b in zip(grid, grid[1:]):
        assert fs[b] >= fs[a] - 2.0
    assert abs(fs[20] - fs[1000]) <= 3.0
    _pass(8, f"samples_sweep {[fs[g] for g in grid]} non-decreasing; "
             f"M=20 within 3 points of M=1000")


def test_criterion_8b_setsize_sweep(sweep_env):
    """FS@1 non-decreasing in the member count for both optimized methods."""
    schema, table, clf, states, ids = sweep_env
    spec = ExperimentSpec(
        kind="setsize_sweep",
        seeds=(0, 1),
        methods=("cols", "pcols"),
        grid=(1, 2, 3, 5, 10),
        test_seed=4242,
        base=GenerationSettings(budget=1200, set_size=6, num_samples=100),
    )
    header, rows_out = run_experiment(spec, states, ids, clf, schema, table)
    for method in ("cols", "pcols"):
        fs = {int(r[0]): float(r[2]) for r in rows_out if r[1] == method}
        grid = sorted(fs)
        values = [fs[g] for g in grid]
        assert values == sorted(values), f"{method}: {values}"
    _pass(8, "setsize_sweep non-decreasing for cols and pcols")


def test_criterion_8c_alpha_grid(sweep_env):
    """Corner-to-corner FS@1 spread of the mixing-weight grid stays within
    10 points (robustness to full distribution shift)."""
    schema, table, clf, states, ids = sweep_env
    spec = ExperimentSpec(
        kind="alpha_grid",
        seeds=(0, 1),
        methods=("cols",),
        test_seed=4242,
        base=GenerationSettings(budget=600, set_size=6, num_samples=100),
    )
    header, rows_out = run_experiment(spec, states, ids, clf, schema, table)
    cells = {(float(r[0]), float(r[1])): float(r[2]) for r in rows_out}
    assert len(cells) == 36
    corners = [cells[(a, b)] for a in (0.0, 1.0) for b in (0.0, 1.0)]
    spread = max(corners) - min(corners)
    assert spread <= 10.0
    _pass(8, f"alpha_grid corners {corners}, spread {spread:.1f} <= 10")


def test_criterion_9_budget_exactness(synth6, monkeypatch):
    """Every method, several seeds and budgets: recorded query usage never
    exceeds the budget, and swap bookkeeping consumes no queries (usage is
    whole candidate batches only)."""
    schema, rows, _, table, clf = synth6
    states, ids = select_undesired(rows, clf, schema, limit=4)
    checked = 0
    for method in ("cols", "pcols", "random", "ls:emc", "ls:diversity"):
        for seed in range(3):
            for budget in (37, 120, 450):
                settings = GenerationSettings(
                    method=method, budget=budget, set_size=6, num_samples=20,
                    restarts=3, seed=seed,
                )
                docs = run_population(states, clf, schema, table, settings,
                                      user_ids=ids)
                for doc in docs:
                    assert doc.queries_used <= budget
                    if method != "pcols":
                        assert doc.queries_used % 6 == 0
                    checked += 1
    # direct check of real classifier traffic: the rows of every query the
    # model answered (a refused last query raises and charges nothing)
    s_u = states[0]
    samples = sample_cost_batch(s_u, schema, table, 20, seed=0)
    answered = []
    real = search_module.predict_batch

    def counting(classifier, codes, meter):
        out = real(classifier, codes, meter)
        answered.append(len(codes))
        return out

    monkeypatch.setattr(search_module, "predict_batch", counting)
    res = cols(s_u, clf, samples, schema,
               GenerationSettings(budget=100, set_size=6, seed=0))
    assert sum(answered) == res.queries_used <= 100
    _pass(9, f"{checked} instrumented runs, all within budget")
