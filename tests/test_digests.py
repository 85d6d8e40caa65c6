"""Bit-identity guard: pinned sha256 digests of the synthetic tables, of
sampled cost functions, of generated result documents and of the CSV
tables the command line writes.

The sampler digests cover every cost array, alpha, editable mask and
preference vector that `sample_cost_batch` (with its pinned inputs),
`simulate_user` and `simulate_users` (each input but alpha drawn) produce
for fixed adult-like inputs. Any change to the draw order, the RNG
streams or the floating-point steps of the sampler changes them. The
concentration-shift CSV also pins the editable sets its hidden users draw
for themselves. The document digests
cover the members, validity flags, objective trace and query count of
`run_user` documents, so they also pin every swap the search makes. The
CSV digests cover every table of a small synthetic `evaluate`, `main`,
`ablation`, `concentration_shift`, `alpha_grid` and `budget_sweep` run, so
they pin each metric's name, row order and printed value.
"""

import hashlib
import os

import numpy as np
import pytest

from recourse.cli import main
from recourse.cost import (
    BLOCK,
    TRAIN_STREAM,
    _sample_blocks,
    sample_cost_batch,
    stream_rng,
)
from recourse.datasets import make_adult_like, make_synthetic_6f
from recourse.evaluate import simulate_user, simulate_users
from recourse.experiments import select_undesired
from recourse.model import save_model
from recourse.results import GenerationSettings, run_user
from recourse.schema import save_dataset, save_schema

from test_cost import feature_costs

# Fixed editable set and preferences for the pinned batch: three ordered
# features (age, capital_gain, hours_per_week) and two unordered ones
# (workclass, occupation).
PINNED_EDITABLE = frozenset({0, 1, 4, 8, 10})
PINNED_PREF = (0.3, 0.1, 0.0, 0.0, 0.2, 0.0, 0.0, 0.0, 0.25, 0.0, 0.15, 0.0)

# Each batch case's alpha and pinned inputs, named after the command line's
# distribution ("lin" fixes alpha 1, "perc" 0, "mix" draws it per sample
# unless "mix-alpha" pins it). "mix-editable" pins the
# editable set alone, so preferences are a flat Dirichlet over that set;
# "mix-zero-pref" pins all-zero preferences alone, so the editable set is
# drawn and every chosen feature keeps its full means.
BATCH_CASES = {
    "lin": dict(alpha=1.0),
    "mix": dict(),
    "mix-alpha": dict(alpha=0.3),
    "mix-editable": dict(editable=PINNED_EDITABLE),
    "mix-pinned": dict(editable=PINNED_EDITABLE, pref=np.asarray(PINNED_PREF)),
    "mix-zero-pref": dict(pref=np.zeros(len(PINNED_PREF))),
    "perc": dict(alpha=0.0),
}
BATCH_DIGESTS = {
    "lin": "61f07abe0943bede4c51a38b09aefa8559f68ac38d0bf850d68102e07f556193",
    "mix": "f3ee6f0a796c6b67f146b460323d30980608b14c1db1a8f250d176009e86ecca",
    "mix-alpha": "a2c59d65f4446c60849215f51fab4ee5d16b27fa42e8d8eaaa613e5a40c70096",
    "mix-editable": "b57354a848a903c5d2b638a7d770d3214f253756d7d4b11ee1dba98ba8b520f6",
    "mix-pinned": "c3177a673102937ae3e26edb45399da1ee86d12db1dfb778baf7555a702516f2",
    "mix-zero-pref": "3f62e4c7baf2cd8db42b6ff86ede5c1cfea54952cb13d259fb4eb93094c1dc97",
    "perc": "b1f744f019e95bfa9c58c544897e3aadea8cfc730ab64961922869ac55e82f01",
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
    "ls:emc": dict(method="ls:emc", budget=500, set_size=10, num_samples=100,
                   editable=ADULT_MOVABLE),
    "ls:diversity": dict(method="ls:diversity", budget=500, set_size=10,
                         num_samples=100),
}
DOC_DIGESTS = {
    "cols": "e3f03add7470cec8b26d8b5261e193a58955b59bd97250d93ef824be0760cb00",
    "pcols": "3e2c64b854f59dc369832e218681da4cf6e81fc19ac02b8a153727c500690b1c",
    "random": "f4c3864b9bb5fb04a2bbf2661df0864b44ee35a642b2edde2c77bafd6a0d1069",
    "ls:emc": "bb5b08fd936cdbd64aec6c50b4bf9b4cb9dcdd506493d70a52db98af60a96830",
    "ls:diversity": "929878ab82760b4a8064f510841c1d86bdabe260f4f12982f3df06a6c2a7719d",
}
# (shape, sha256 of the <i8 codes, sha256 of the <i8 labels) of each
# synthetic table.
DATASET_DIGESTS = {
    "adult_like": ((4000, 12),
                   "e4dc0e43a00102399aa6a90824ee4aed34a606f301b3b1569a34bd03db832ec5",
                   "06c720bfdf8a296f33c4f611b9af4397c7692f7a0d2a2c71da6df0731c12e4ac"),
    "synthetic_6f": ((800, 6),
                     "d8838b389f1d2d7b61760cac8c11202119e1aa3227be9e78cf8462f02fe67708",
                     "d311691896e7c8f0cf1c0f8d8482f2e5a4e43b176ed8638d2ccec312b25771ad"),
}
SIMULATED_DIGEST = "fb2733235396b5fe6e2018c51c2dac2cf8206ffc1d209e1d8a7e1b7957fbe848"
POPULATION_DIGEST = "265667af5d0e90223e8e1f29604cecd3fe4186fa7fef6c9ac82a79841d57a6b8"
CSV_DIGESTS = {
    "evaluate/metrics_mean.csv":
        "32fe6951c30e41a46152a6f04ce886e2dc3f81646891a99ec47f42e34fd376b0",
    "evaluate/metrics_results_cols_seed901.csv":
        "62d49efab7236dd2ca97ef0c9de539d7a78d964cc909c8cd6630e00634cd8dd6",
    "evaluate/metrics_results_cols_seed902.csv":
        "957e4b9186fce7e3d3cafbed9c48ed984ad9092881941e06e044b0c1976c9c2f",
    "evaluate/metrics_results_pcols_seed901.csv":
        "7465249e104e9d1c58a8f06be41a243d6b6d9f0f0c721d452925b2dc214653bd",
    "evaluate/metrics_results_pcols_seed902.csv":
        "1b301182dab59d430260fda4e6e898709f330273e62a8cb28b7bd3c37b027044",
    "main/main.csv":
        "3b67526aef9c0dcc1c8d416e18afefc90656792f18410d0bf75094261426b3c1",
    "ablation/ablation.csv":
        "3400bfb2c69fef7bbd49eaf7437da0a33599dd9aacdc0562dd67fbb282a8cf31",
    "concentration_shift/concentration_shift.csv":
        "92b3e798ae778c4820d186621df6eaa967edc7908ee19dbca12e90833085fe6e",
    "alpha_grid/alpha_grid.csv":
        "7e1ef309567ad3d40bfc8c3bcdbf0eee97169c456bcc2cc92b1a388589724b04",
    "budget_sweep/budget_sweep.csv":
        "2f7b1cb49fda225c193a13c7f2015547aec3836412f335d9763ed683e40ad9d8",
}


@pytest.mark.parametrize("name", sorted(DATASET_DIGESTS))
def test_dataset_digest(name):
    """The synthetic tables are (n, d) int64 codes with pinned bytes."""
    make = {"adult_like": lambda: make_adult_like(4000, seed=7),
            "synthetic_6f": lambda: make_synthetic_6f(800, seed=11)}[name]
    _, rows, labels = make()
    shape, *digests = DATASET_DIGESTS[name]
    assert rows.shape == shape and rows.dtype == np.int64
    assert [hashlib.sha256(np.asarray(a, dtype="<i8").tobytes()).hexdigest()
            for a in (rows, labels)] == digests


def _update(h, samples) -> None:
    """Hash a sample set's per-feature cost arrays, alpha, editable mask and
    preferences, with their shapes."""
    costs, alpha, editable, prefs = (
        feature_costs(samples), samples.alpha, samples.editable, samples.preferences
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
    """The first 20 rejected users' code rows and row indices."""
    schema, rows, _, table, clf = adult
    _, ids = select_undesired(rows, clf, schema, limit=20)
    return schema, table, rows[ids], ids


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
                             user_id=ids[k], alpha=(None, 1.0, 0.0)[k % 3])
        _update(h, user)
    assert h.hexdigest() == SIMULATED_DIGEST


def test_simulate_users_digest(adult):
    """300 adult-like users per population, at two test seeds, with alpha
    drawn and fixed; user ids alternate below 2**32 and above it (two
    32-bit entropy words)."""
    schema, rows, _, table, _ = adult
    states = rows[:300]
    ids = [k if k % 2 else 2**32 + 11 * k for k in range(300)]
    h = hashlib.sha256()
    for test_seed in (5, 9_137_000_004):
        for alpha in (None, 0.3):
            _update(h, simulate_users(states, schema, table, test_seed, ids, alpha))
    assert h.hexdigest() == POPULATION_DIGEST


@pytest.mark.parametrize("case", sorted(BATCH_DIGESTS))
def test_batch_is_its_blocks(rejected, case):
    """Row i of a 130-sample batch is row i mod 64 of block i // 64, the 64
    rows that stream i // 64 of (seed, subkey) draws on its own."""
    schema, table, states, ids = rejected
    kwargs = BATCH_CASES[case]
    for state, uid in zip(states[:3], ids[:3]):
        batch = sample_cost_batch(state, schema, table, 130, seed=3, subkey=uid, **kwargs)
        rows = [batch.table.T, batch.alpha, batch.editable, batch.preferences]
        for b in range(3):
            costs, *rest = _sample_blocks(state[None], schema, table,
                                          [stream_rng(TRAIN_STREAM, 3, b, uid)], BLOCK, BLOCK,
                                          kwargs.get("alpha"), kwargs.get("editable"),
                                          kwargs.get("pref"))
            for got, want in zip(rows, [costs.T, *rest]):
                assert got[BLOCK * b:BLOCK * (b + 1)].tobytes() == want[:130 - BLOCK * b].tobytes()


@pytest.fixture(scope="module")
def documents(adult):
    """The `run_user` documents of the first three rejected users, by
    `DOC_SETTINGS` key."""
    schema, rows, _, table, clf = adult
    states, ids = select_undesired(rows, clf, schema, limit=3)
    assert ADULT_MOVABLE == tuple(schema.mutable_indices())
    return {
        method: [run_user(uid, state, clf, schema, table,
                          GenerationSettings(seed=5, **kwargs))[0]
                 for state, uid in zip(states[:3], ids[:3])]
        for method, kwargs in DOC_SETTINGS.items()
    }


@pytest.mark.parametrize("method", sorted(DOC_DIGESTS))
def test_run_user_document_digest(documents, method):
    h = hashlib.sha256()
    for doc in documents[method]:
        trace = [float(t).hex() for t in doc.trace]
        h.update(repr((doc.members, doc.validity, trace, doc.queries_used)).encode())
    assert h.hexdigest() == DOC_DIGESTS[method]


@pytest.mark.parametrize("method", sorted(DOC_SETTINGS))
def test_every_trace_is_minimized(documents, method):
    """Every optimizer minimizes, so every trace is non-increasing; under
    the emc objective it ends at the document's `final_emc`."""
    for doc in documents[method]:
        assert all(b <= a for a, b in zip(doc.trace, doc.trace[1:]))
        if GenerationSettings(**DOC_SETTINGS[method]).objective == "emc":
            assert doc.final_emc == doc.trace[-1]


@pytest.fixture(scope="module")
def synth6_csvs(synth6, tmp_path_factory):
    """sha256 of every CSV, by `<out dir>/<file>`, of a small synthetic run:
    `recourse evaluate` over a cols and a pcols result file at two test
    seeds, the `main` and `ablation` sweeps over two seeds, a
    `concentration_shift` sweep of 40 hidden users, an `alpha_grid` over
    alphas 0 and 1, and a `budget_sweep` of cols and ls:emc at budgets 40
    and 80."""
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
    assert main(["experiment", *gen, "--kind", "concentration_shift", "--seeds", "0",
                 "--methods", "cols", "--shift-vectors", "40", "--bins", "5",
                 "--out", str(root / "concentration_shift")]) == 0
    assert main(["experiment", *gen, "--kind", "alpha_grid", "--seeds", "0",
                 "--grid", "0,1", "--out", str(root / "alpha_grid")]) == 0
    assert main(["experiment", *gen, "--kind", "budget_sweep", "--seeds", "0",
                 "--grid", "40,80", "--methods", "cols,ls:emc",
                 "--out", str(root / "budget_sweep")]) == 0
    return {
        f"{out}/{name}": hashlib.sha256((root / out / name).read_bytes()).hexdigest()
        for out in ("evaluate", "main", "ablation", "concentration_shift", "alpha_grid",
                    "budget_sweep")
        for name in sorted(os.listdir(root / out))
        if name.endswith(".csv")
    }


def test_cli_csv_digests(synth6_csvs):
    assert synth6_csvs == CSV_DIGESTS
