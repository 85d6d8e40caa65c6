"""Bit-identity guard: pinned sha256 digests of sampled cost functions and
of generated result documents.

The sampler digests cover every cost array, alpha, editable mask and
preference vector that `sample_cost_batch` and `simulate_user` produce for
fixed adult-like inputs. Any change to the draw order, the RNG streams or
the floating-point steps of the sampler changes them. The document digests
cover the members, validity flags, objective trace and query count of
`run_user` documents, so they also pin every swap the search makes.
"""

import hashlib

import numpy as np
import pytest

from recourse.cost import TRAIN_STREAM, sample_cost_batch, sample_cost_function, stream_rng
from recourse.evaluate import simulate_user
from recourse.experiments import select_undesired
from recourse.results import GenerationSettings, run_user

# Fixed editable set and preferences for the pinned batch: three ordered
# features (age, capital_gain, hours_per_week) and two unordered ones
# (workclass, occupation).
PINNED_EDITABLE = frozenset({0, 1, 4, 8, 10})
PINNED_PREF = (0.3, 0.1, 0.0, 0.0, 0.2, 0.0, 0.0, 0.0, 0.25, 0.0, 0.15, 0.0)

BATCH_DIGESTS = {
    "lin": "f75b0e83a9550c37e4e3e5c6dc4ad92e9d268c5451c75a3728f2fb3ba43bf3a0",
    "mix": "7e99d553b9c5e6e4bfb3c1824c924eeb27f2e4230bd3ad28a85f5180483cfed2",
    "mix-pinned": "c826a630f05d02fecbf19ba2553188a42bc87c5345de75baa3da00b7dc1f48b1",
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
    "cols": "73b75917acb9eac9a1ad1fb799afc52bb771d93cb485e2685d735eb3307c0e2f",
    "pcols": "1cc40181a8211f72e21dd69e399f31d0d59df780ae12685ccc263e92175a2e99",
    "random": "020ac1d5225ee788ba58de63573428f45abc70ca75281d3487821e11fd465182",
    "ls:emc": "174e2c800ac229d2d5b489a62eada96df76adf234902b3a21ccca593a0e6e964",
    "ls:diversity": "64c0313791ad3b9f40330b55dea9f0422c445c207f3d211b5488083c61e1f51f",
}
SIMULATED_DIGEST = "be4552bdc2bf117bd78c25ff9561a45d63fc96c70a32d2aeb9244f059a4513b5"


def _fields(samples):
    """(per-feature cost arrays, alpha, editable, preferences) of a sample set.

    Reads the array layout when the set has one, and otherwise stacks the
    per-sample cost functions of the object layout, so that the same
    digests check both."""
    if hasattr(samples, "costs"):
        return (list(samples.costs), samples.alpha, samples.editable,
                samples.preferences)
    fns = samples.samples if hasattr(samples, "samples") else [samples]
    d = len(fns[0].vectors)
    return (
        [np.stack([c.vectors[f] for c in fns]) for f in range(d)],
        [c.alpha for c in fns],
        [[f in c.editable for f in range(d)] for c in fns],
        [c.preference_scores for c in fns],
    )


def _update(h, samples) -> None:
    costs, alpha, editable, prefs = _fields(samples)
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
    distribution, _, pinned = case.partition("-")
    samples = sample_cost_batch(
        states[0], schema, table, 50, distribution, seed=3, subkey=ids[0],
        editable=PINNED_EDITABLE if pinned else None,
        pref=np.asarray(PINNED_PREF) if pinned else None,
    )
    h = hashlib.sha256()
    _update(h, samples)
    assert h.hexdigest() == BATCH_DIGESTS[case]


def test_simulate_user_digest(rejected):
    schema, table, states, ids = rejected
    h = hashlib.sha256()
    for k in range(20):
        user = simulate_user(states[k], schema, table, test_seed=k % 4,
                             user_id=ids[k], distribution=("mix", "lin", "perc")[k % 3])
        _update(h, user.true_cost)
    assert h.hexdigest() == SIMULATED_DIGEST


@pytest.mark.parametrize("case", sorted(BATCH_DIGESTS))
def test_batch_rows_are_single_draws_on_their_streams(rejected, case):
    """Row i of a batch is the one cost function that stream i of (seed,
    subkey) draws on its own."""
    schema, table, states, ids = rejected
    distribution, _, pinned = case.partition("-")
    pins = dict(editable=PINNED_EDITABLE, pref=np.asarray(PINNED_PREF)) if pinned else {}
    alpha = {"lin": 1.0, "perc": 0.0}.get(distribution)
    for state, uid in zip(states[:3], ids[:3]):
        batch = sample_cost_batch(state, schema, table, 50, distribution, seed=3,
                                  subkey=uid, **pins)
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
