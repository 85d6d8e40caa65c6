"""Bit-identity guard: pinned sha256 digests of sampled cost functions, of
generated result documents and of the CSV tables the command line writes.

The sampler digests cover every cost array, alpha, editable mask and
preference vector that `sample_cost_batch` and `simulate_user` produce for
fixed adult-like inputs. Any change to the draw order, the RNG streams or
the floating-point steps of the sampler changes them. The document digests
cover the members, validity flags, objective trace and query count of
`run_user` documents, so they also pin every swap the search makes. The
CSV digests cover every table of a small synthetic `evaluate`, `main` and
`ablation` run, so they pin each metric's name, row order and printed value.
"""

import hashlib
import os

import numpy as np
import pytest

from recourse.cli import main
from recourse.cost import (
    TRAIN_STREAM,
    distribution_alpha,
    sample_cost_batch,
    sample_cost_function,
    stream_rng,
)
from recourse.evaluate import simulate_user
from recourse.experiments import select_undesired
from recourse.model import save_model
from recourse.results import GenerationSettings, run_user
from recourse.schema import save_dataset, save_schema

# Fixed editable set and preferences for the pinned batch: three ordered
# features (age, capital_gain, hours_per_week) and two unordered ones
# (workclass, occupation).
PINNED_EDITABLE = frozenset({0, 1, 4, 8, 10})
PINNED_PREF = (0.3, 0.1, 0.0, 0.0, 0.2, 0.0, 0.0, 0.0, 0.25, 0.0, 0.15, 0.0)

# Each batch case's distribution and pinned inputs. "mix-editable" pins the
# editable set alone, so preferences are a flat Dirichlet over that set;
# "mix-zero-pref" pins all-zero preferences alone, so the editable set is
# drawn and every chosen feature keeps its full means.
BATCH_CASES = {
    "lin": dict(distribution="lin"),
    "mix": dict(distribution="mix"),
    "mix-alpha": dict(distribution="mix", alpha=0.3),
    "mix-editable": dict(distribution="mix", editable=PINNED_EDITABLE),
    "mix-pinned": dict(distribution="mix", editable=PINNED_EDITABLE,
                       pref=np.asarray(PINNED_PREF)),
    "mix-zero-pref": dict(distribution="mix", pref=np.zeros(len(PINNED_PREF))),
    "perc": dict(distribution="perc"),
}
BATCH_DIGESTS = {
    "lin": "f75b0e83a9550c37e4e3e5c6dc4ad92e9d268c5451c75a3728f2fb3ba43bf3a0",
    "mix": "7e99d553b9c5e6e4bfb3c1824c924eeb27f2e4230bd3ad28a85f5180483cfed2",
    "mix-alpha": "f4567d1a618d11b2e134acdd308111944595e436500a11dedcbf0ac45adf7ad6",
    "mix-editable": "c3ec875ae3526b38f2d284b43fb8b17fd8baf667547a6442e7176efd84e89ba2",
    "mix-pinned": "c826a630f05d02fecbf19ba2553188a42bc87c5345de75baa3da00b7dc1f48b1",
    "mix-zero-pref": "060a63efc2353352b6735c42bb6fb0bf3e745e29253a51207066b2787d4f0074",
    "perc": "133b6144fd20c9bc8484342a11634922636c7822e8d8a9faee8180dd49ddbf0b",
}
# Every non-immutable feature of the adult-like schema. With all of them
# editable every sample prices each valid member finitely, so the EMC
# objectives of `random` and `ls:emc` are finite and their traces move.
ADULT_MOVABLE = (0, 1, 2, 3, 4, 5, 8, 9, 10)
DOC_SETTINGS = {
    "cols": dict(method="cols", budget=500, set_size=10, num_samples=1000),
    "pcols": dict(method="pcols", budget=500, set_size=10, num_samples=100, restarts=5),
    "random": dict(method="random", budget=500, set_size=10, num_samples=100,
                   editable=ADULT_MOVABLE),
    "ls:emc": dict(method="ls", objective="emc", budget=500, set_size=10,
                   num_samples=100, editable=ADULT_MOVABLE),
    "ls:diversity": dict(method="ls", objective="diversity", budget=500, set_size=10,
                         num_samples=100),
}
DOC_DIGESTS = {
    "cols": "6ac9f65ae25691f7519609d253a59a049f0915f3a8adf11c02a9398613955973",
    "pcols": "aadbd0a747b33ff6f2241feae7600cf4bf4cc24aad9918370f92d2e5c21c70c7",
    "random": "020ac1d5225ee788ba58de63573428f45abc70ca75281d3487821e11fd465182",
    "ls:emc": "8e8fe4d1ad57f051d182068bba44abbdd1625797918029876126d362c0320028",
    "ls:diversity": "d60b6f3f6700c282f78704c8528720609b515e41bee31b4bfa35b5e403750201",
}
SIMULATED_DIGEST = "be4552bdc2bf117bd78c25ff9561a45d63fc96c70a32d2aeb9244f059a4513b5"
CSV_DIGESTS = {
    "evaluate/metrics_mean.csv":
        "e38eeb8333adb73fc01f1594841714d646a85de532bc8d9364571ed426348d99",
    "evaluate/metrics_results_cols_seed901.csv":
        "0572079b52b68a088e88a3ea87bc989c25aafd7b0474ae177539290bc6ea2fe7",
    "evaluate/metrics_results_cols_seed902.csv":
        "3748c8df7310609fc257b3d1f9ecf27bbd9379c5efb0d2a61989c2a0a6d2e391",
    "evaluate/metrics_results_pcols_seed901.csv":
        "8728a2fd490247e98beca765c20eec627f4c44ee811783fd84e3402ad7fada66",
    "evaluate/metrics_results_pcols_seed902.csv":
        "85ca51f93772cefdf193a4bc26372115d5faacaee3c7c88c66b0cbdd26267cc9",
    "main/main.csv":
        "adcd1eedcece51dd6c08dea3a4765e2449648ce19350e53b45148dd86292288b",
    "ablation/ablation.csv":
        "ff70fe7b3ec23168dd807e6bd2e1a197c5fe49d82d039625fcad6612f39e8720",
}


def _update(h, samples) -> None:
    """Hash a sample set's per-feature cost arrays, alpha, editable mask and
    preferences, with their shapes."""
    costs, alpha, editable, prefs = (
        samples.costs, samples.alpha, samples.editable, samples.preferences
    )
    arrays = [np.ascontiguousarray(c, dtype=np.float64) for c in costs]
    arrays.append(np.ascontiguousarray(alpha, dtype=np.float64))
    arrays.append(np.ascontiguousarray(editable, dtype=bool))
    arrays.append(np.ascontiguousarray(prefs, dtype=np.float64))
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())


@pytest.fixture(scope="module")
def rejected(adult):
    schema, rows, _, table, clf = adult
    states, ids = select_undesired(rows, clf, schema, limit=20)
    return schema, table, states, ids


@pytest.mark.parametrize("case", sorted(BATCH_DIGESTS))
def test_sample_cost_batch_digest(rejected, case):
    schema, table, states, ids = rejected
    samples = sample_cost_batch(states[0], schema, table, 50, seed=3, subkey=ids[0],
                                **BATCH_CASES[case])
    h = hashlib.sha256()
    _update(h, samples)
    assert h.hexdigest() == BATCH_DIGESTS[case]


def test_simulate_user_digest(rejected):
    schema, table, states, ids = rejected
    h = hashlib.sha256()
    for k in range(20):
        user = simulate_user(states[k], schema, table, test_seed=k % 4,
                             user_id=ids[k], distribution=("mix", "lin", "perc")[k % 3])
        _update(h, user)
    assert h.hexdigest() == SIMULATED_DIGEST


@pytest.mark.parametrize("case", sorted(BATCH_DIGESTS))
def test_batch_rows_are_single_draws_on_their_streams(rejected, case):
    """Row i of a batch is the one cost function that stream i of (seed,
    subkey) draws on its own."""
    schema, table, states, ids = rejected
    kwargs = BATCH_CASES[case]
    pins = {key: kwargs[key] for key in ("editable", "pref") if key in kwargs}
    alpha = distribution_alpha(kwargs["distribution"], kwargs.get("alpha"))
    for state, uid in zip(states[:3], ids[:3]):
        batch = sample_cost_batch(state, schema, table, 50, seed=3, subkey=uid, **kwargs)
        rows = [*batch.costs, batch.alpha, batch.editable, batch.preferences]
        for i in range(batch.m):
            one = sample_cost_function(state, schema, table,
                                       stream_rng(TRAIN_STREAM, 3, i, uid),
                                       alpha=alpha, **pins)
            single = [*one.costs, one.alpha, one.editable, one.preferences]
            for got, want in zip(rows, single):
                assert got[i].tobytes() == want[0].tobytes()


@pytest.mark.parametrize("method", sorted(DOC_DIGESTS))
def test_run_user_document_digest(adult, rejected, method):
    schema, _, _, table, clf = adult
    _, _, states, ids = rejected
    assert ADULT_MOVABLE == tuple(schema.mutable_indices())
    settings = GenerationSettings(seed=5, **DOC_SETTINGS[method])
    h = hashlib.sha256()
    for state, uid in zip(states[:3], ids[:3]):
        doc, _ = run_user(uid, state, clf, schema, table, settings)
        trace = [float(t).hex() for t in doc.trace]
        h.update(repr((doc.members, doc.validity, trace, doc.queries_used)).encode())
    assert h.hexdigest() == DOC_DIGESTS[method]


@pytest.fixture(scope="module")
def synth6_csvs(synth6, tmp_path_factory):
    """sha256 of every CSV, by `<out dir>/<file>`, of a small synthetic run:
    `recourse evaluate` over a cols and a pcols result file at two test
    seeds, and the `main` and `ablation` sweeps over two seeds."""
    schema, rows, _, _, clf = synth6
    root = tmp_path_factory.mktemp("csv")
    save_schema(schema, root / "schema.yaml")
    save_dataset(rows, schema, root / "data.csv")
    save_model(clf, root / "model.json")
    io = ["--schema", str(root / "schema.yaml"), "--data", str(root / "data.csv")]
    gen = [*io, "--model", str(root / "model.json"), "--budget", "120",
           "--set-size", "4", "--num-samples", "20", "--users", "10"]
    for method in ("cols", "pcols"):
        assert main(["generate", *gen, "--method", method, "--seed", "1",
                     "--out", str(root / "gen")]) == 0
    assert main(["evaluate", *io, "--results", str(root / "gen"),
                 "--test-seed", "901,902", "--out", str(root / "evaluate")]) == 0
    for kind in ("main", "ablation"):
        assert main(["experiment", *gen, "--kind", kind, "--seeds", "0,1",
                     "--out", str(root / kind)]) == 0
    return {
        f"{out}/{name}": hashlib.sha256((root / out / name).read_bytes()).hexdigest()
        for out in ("evaluate", "main", "ablation")
        for name in sorted(os.listdir(root / out))
        if name.endswith(".csv")
    }


def test_cli_csv_digests(synth6_csvs):
    assert synth6_csvs == CSV_DIGESTS
