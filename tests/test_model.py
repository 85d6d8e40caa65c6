import json
import math
import re

import numpy as np
import pytest

from recourse.model import (
    BudgetExhausted,
    BudgetMeter,
    Classifier,
    TrainConfig,
    load_model,
    predict_batch,
    save_model,
    train_classifier,
)
from recourse.schema import DatasetSchema, FeatureSpec, UserState


def separable_toy(n=200, seed=0):
    schema = DatasetSchema(
        features=(
            FeatureSpec("x", "ordered", tuple(range(10))),
            FeatureSpec("y", "ordered", tuple(range(10))),
        )
    )
    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for _ in range(n):
        a, b = int(rng.integers(10)), int(rng.integers(10))
        rows.append(UserState((a, b)))
        labels.append(int(a + b >= 9))
    return schema, rows, labels


class TestTraining:
    def test_separable_logistic_hits_99(self):
        schema, rows, labels = separable_toy()
        clf = train_classifier(
            rows, labels, schema,
            TrainConfig(architecture="logistic", epochs=800, lr=0.05, seed=0),
        )
        codes = np.asarray([r.values for r in rows], dtype=float)
        acc = ((clf.prob(codes) >= 0.5).astype(int) == np.asarray(labels)).mean()
        assert acc >= 0.99

    def test_adult_style_accuracy_in_vicinity(self, adult):
        _, _, _, _, clf = adult
        assert 0.76 <= clf.val_accuracy <= 0.87

    def test_deterministic_given_seed(self):
        schema, rows, labels = separable_toy()
        config = TrainConfig(architecture="mlp", epochs=50, seed=3)
        a = train_classifier(rows, labels, schema, config)
        b = train_classifier(rows, labels, schema, config)
        for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
            assert np.array_equal(wa, wb)
            assert np.array_equal(ba, bb)

    @pytest.mark.parametrize("field,value,message", [
        ("architecture", "cnn", "unknown architecture 'cnn'"),
        ("hidden_width", 0, "hidden_width must be at least 1, got 0"),
        ("epochs", 0, "epochs must be at least 1, got 0"),
        ("lr", -1.0, "lr must be finite and positive, got -1.0"),
        ("lr", 0.0, "lr must be finite and positive, got 0.0"),
        ("lr", math.nan, "lr must be finite and positive, got nan"),
        ("lr", math.inf, "lr must be finite and positive, got inf"),
    ])
    def test_config_refuses_bad_values(self, field, value, message):
        """`--hidden-width 0` used to die dividing by zero; `--epochs 0` and
        `--lr -1` trained without complaint."""
        with pytest.raises(ValueError, match=re.escape(message)):
            TrainConfig(**{field: value})

    def test_single_class_rejected(self):
        schema, rows, _ = separable_toy()
        with pytest.raises(ValueError):
            train_classifier(rows, [1] * len(rows), schema, TrainConfig(epochs=1))

    def test_length_mismatch_rejected(self):
        schema, rows, labels = separable_toy()
        with pytest.raises(ValueError):
            train_classifier(rows, labels[:-1], schema, TrainConfig(epochs=1))

    def test_desired_class_zero_flips_labels(self):
        schema, rows, labels = separable_toy()
        flipped = DatasetSchema(features=schema.features, desired_class=0)
        a = train_classifier(rows, labels, schema,
                             TrainConfig("logistic", epochs=300, lr=0.05, seed=1))
        b = train_classifier(rows, labels, flipped,
                             TrainConfig("logistic", epochs=300, lr=0.05, seed=1))
        codes = np.asarray([r.values for r in rows], dtype=float)
        agree = ((a.prob(codes) >= 0.5) == (b.prob(codes) < 0.5)).mean()
        assert agree >= 0.95


def predict_one(clf, state, meter):
    """Classify one state as a 1-row batch."""
    return int(predict_batch(clf, np.asarray([state.values], dtype=float), meter)[0])


class TestPredictAndBudget:
    def _clf(self):
        # prob = sigmoid(4*(x_scaled - 0.5)): class 1 iff x >= 5 on 0..9
        return Classifier(
            architecture="logistic",
            layers=[(np.array([[4.0]]), np.array([-2.0]))],
            scale_min=np.zeros(1),
            scale_max=np.full(1, 9.0),
        )

    def test_thresholding_and_charging(self):
        clf = self._clf()
        meter = BudgetMeter(limit=10)
        assert predict_one(clf, UserState((9,)), meter) == 1
        assert predict_one(clf, UserState((0,)), meter) == 0
        assert meter.used == 2

    def test_meter_at_limit_charges_nothing(self):
        clf = self._clf()
        meter = BudgetMeter(limit=1)
        predict_one(clf, UserState((9,)), meter)
        with pytest.raises(BudgetExhausted):
            predict_one(clf, UserState((9,)), meter)
        assert meter.used == 1

    def test_exactly_5000_then_error(self):
        clf = self._clf()
        meter = BudgetMeter(limit=5000)
        state = UserState((7,))
        for _ in range(5000):
            predict_one(clf, state, meter)
        assert meter.used == 5000
        with pytest.raises(BudgetExhausted):
            predict_one(clf, state, meter)
        assert meter.used == 5000

    def test_batch_is_atomic(self):
        clf = self._clf()
        meter = BudgetMeter(limit=5)
        codes = np.arange(6, dtype=float)[:, None]
        with pytest.raises(BudgetExhausted):
            predict_batch(clf, codes, meter)
        assert meter.used == 0
        out = predict_batch(clf, codes[:5], meter)
        assert meter.used == 5
        assert out.tolist() == [0, 0, 0, 0, 0]

    def test_prediction_is_pure(self):
        clf = self._clf()
        codes = np.asarray([[3.0]])
        assert clf.prob(codes) == clf.prob(codes)


def unaligned_copy(block: np.ndarray) -> np.ndarray:
    """`block` copied into a float buffer that starts one byte past an
    allocation, so no element is 8-byte aligned."""
    out = np.frombuffer(bytearray(block.nbytes + 1), dtype=float,
                        count=block.size, offset=1).reshape(block.shape)
    out[...] = block
    return out


class TestBatchInvariance:
    """A row's probability is the same to the bit in every batch it can be
    scored in: a population of users or restarts scored together must give
    each row the verdict of its own query."""

    @pytest.mark.parametrize("batch", [1, 7, 10, 64, 257, 4000])
    def test_row_probability_is_bit_equal_in_every_batch(self, adult, batch):
        _, rows, _, _, clf = adult
        codes = np.array([r.values for r in rows], dtype=float)
        want = clf.prob(codes)
        order = np.random.default_rng(batch).permutation(len(codes))
        # Batches of the permuted rows whose boundaries start `shift` rows in,
        # each scored from an unaligned copy.
        for shift in (0, 1, 3):
            got = np.empty_like(want)
            bounds = sorted({0, len(order), *range(shift, len(order), batch)})
            for lo, hi in zip(bounds, bounds[1:]):
                got[order[lo:hi]] = clf.prob(unaligned_copy(codes[order[lo:hi]]))
            differ = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
            assert not len(differ), (
                f"batch {batch}, shift {shift}: {len(differ)} rows differ from the "
                f"one {len(codes)}-row batch, first row {differ[0]}: "
                f"{got[differ[0]].hex()} vs {want[differ[0]].hex()}")


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path, synth6):
        schema, rows, labels, _, clf = synth6
        path = tmp_path / "model.json"
        save_model(clf, path)
        loaded = load_model(path)
        for (wa, ba), (wb, bb) in zip(clf.layers, loaded.layers):
            assert np.array_equal(wa, wb)
            assert np.array_equal(ba, bb)
        rng = np.random.default_rng(0)
        codes = np.column_stack(
            [rng.choice(f.domain, size=100) for f in schema.features]
        ).astype(float)
        assert np.array_equal(clf.prob(codes), loaded.prob(codes))

    def test_truncated_file(self, tmp_path, synth6):
        *_, clf = synth6
        path = tmp_path / "model.json"
        save_model(clf, path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(ValueError):
            load_model(path)

    def test_architecture_layer_mismatch(self, tmp_path, synth6):
        *_, clf = synth6
        path = tmp_path / "model.json"
        save_model(clf, path)
        doc = json.loads(path.read_text())
        assert doc["architecture"] == "mlp"
        doc["architecture"] = "logistic"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="single layer"):
            load_model(path)

    def test_non_finite_weights_rejected(self, tmp_path, synth6):
        *_, clf = synth6
        path = tmp_path / "model.json"
        save_model(clf, path)
        doc = json.loads(path.read_text())
        doc["layers"][0]["w"][0] = 1e999  # json parses to inf
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_model(path)
