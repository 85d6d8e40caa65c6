"""Black-box classifier boundary: a small trainable model family and a
strict query meter.

Two architectures are supported, a logistic regression and a 2-hidden-layer
MLP. Inputs are the integer feature codes min-max scaled to [0, 1] with
bounds taken from the training split and stored inside the weights file, so
a loaded model predicts with no outside context. All optimizer access to
the model goes through `predict_batch`, which charges a `BudgetMeter` one
unit per forward-passed state.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .schema import DatasetSchema, UserState

ARCHITECTURES = ("logistic", "mlp")

VAL_FRACTION = 0.1  # share of training rows held out for `val_accuracy`


class BudgetExhausted(RuntimeError):
    """No queries left; the optimizer must stop and return its current best."""


@dataclass
class BudgetMeter:
    limit: int
    used: int = 0

    @property
    def remaining(self) -> int:
        return self.limit - self.used

    def charge(self, n: int = 1) -> None:
        """Consume n units, or raise without consuming if they are not there."""
        if n > self.remaining:
            raise BudgetExhausted(
                f"budget {self.limit} exhausted ({self.used} used, {n} requested)"
            )
        self.used += n


@dataclass
class TrainConfig:
    architecture: str = "mlp"
    hidden_width: int = 20
    epochs: int = 300
    lr: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}; "
                             f"valid architectures: {', '.join(ARCHITECTURES)}")
        for name in ("hidden_width", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")


@dataclass
class Classifier:
    """Feedforward scorer over min-max scaled feature codes.

    `layers` chains (weights, bias) pairs; hidden activations are ReLU and
    the final scalar goes through a sigmoid. A logistic model is the
    degenerate single-layer case.
    """

    architecture: str
    layers: list[tuple[np.ndarray, np.ndarray]]
    scale_min: np.ndarray
    scale_max: np.ndarray
    val_accuracy: float = math.nan

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        d = len(self.scale_min)
        expect = d
        for w, b in self.layers:
            if w.shape[0] != expect or w.shape[1] != len(b):
                raise ValueError(
                    f"layer shapes do not chain: {w.shape} after width {expect}"
                )
            expect = w.shape[1]
        if expect != 1:
            raise ValueError("final layer must output a single logit")

    def _scale(self, codes: np.ndarray) -> np.ndarray:
        span = np.where(
            self.scale_max > self.scale_min, self.scale_max - self.scale_min, 1.0
        )
        return (codes - self.scale_min) / span

    def prob(self, codes: np.ndarray) -> np.ndarray:
        """P(class 1) for an (n, d) matrix of raw feature codes. Pure; unmetered.

        A row's probability does not depend on the batch it is in, to the
        bit: `@` lets BLAS pick its kernel by shape, so the products use
        unoptimized einsum, which sums each row the same way at every batch
        size and offset. numpy does not document that; `tests/test_model.py`
        checks it."""
        x = self._scale(np.asarray(codes, dtype=float))
        for w, b in self.layers[:-1]:
            x = np.maximum(_rows_times(x, w) + b, 0.0)
        w, b = self.layers[-1]
        z = (_rows_times(x, w) + b).ravel()
        return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))


def _rows_times(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w, each output row a function of its input row alone."""
    return np.einsum("nk,kw->nw", x, w, optimize=False)


def predict_batch(
    classifier: Classifier, codes: np.ndarray, meter: BudgetMeter
) -> np.ndarray:
    """Classify an (n, d) batch, charging n units atomically.

    Raises BudgetExhausted without charging when fewer than n units remain;
    a partially evaluated batch would be unusable to the caller anyway.
    """
    codes = np.asarray(codes, dtype=float)
    meter.charge(codes.shape[0])
    return (classifier.prob(codes) >= 0.5).astype(int)


def _init_layers(
    arch: str, d: int, width: int, rng: np.random.Generator
) -> list[tuple[np.ndarray, np.ndarray]]:
    if arch == "logistic":
        dims = [d, 1]
    else:
        dims = [d, width, width, 1]
    layers = []
    for a, b in zip(dims[:-1], dims[1:]):
        w = rng.normal(0.0, math.sqrt(2.0 / a), size=(a, b))
        layers.append((w, np.zeros(b)))
    return layers


def train_classifier(
    rows: Sequence[UserState],
    labels: Sequence[int],
    schema: DatasetSchema,
    config: TrainConfig | None = None,
) -> Classifier:
    """Fit a classifier with full-batch Adam on binary cross-entropy.

    Deterministic given config.seed: the split shuffle, the weight init,
    and the (shuffle-free) update order all come from that seed. Dataset
    labels are mapped so that the schema's desired class is coded 1. The
    held-out accuracy is stored on the returned classifier.
    """
    config = config or TrainConfig()
    if len(rows) != len(labels) or not rows:
        raise ValueError("rows and labels must be equally long and non-empty")
    y_raw = np.asarray(labels, dtype=int)
    if set(np.unique(y_raw)) - {0, 1}:
        raise ValueError("labels must be 0/1")
    if len(np.unique(y_raw)) < 2:
        raise ValueError("training needs both classes present")
    # Desired class is always coded 1 internally.
    y = (y_raw == schema.desired_class).astype(float)
    x = np.asarray([r.values for r in rows], dtype=float)
    if x.shape[1] != schema.n_features:
        raise ValueError("row width does not match schema")

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(rows))
    n_val = max(1, int(len(rows) * VAL_FRACTION))
    val_idx, train_idx = order[:n_val], order[n_val:]
    if len(train_idx) == 0:
        raise ValueError("not enough rows to split off a validation set")
    x_train, y_train = x[train_idx], y[train_idx]

    scale_min = x_train.min(axis=0)
    scale_max = x_train.max(axis=0)
    span = np.where(scale_max > scale_min, scale_max - scale_min, 1.0)
    xs = (x_train - scale_min) / span

    layers = _init_layers(config.architecture, x.shape[1], config.hidden_width, rng)
    params = [p for pair in layers for p in pair]
    m_t = [np.zeros_like(p) for p in params]
    v_t = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    for step in range(1, config.epochs + 1):
        # Forward pass, keeping pre-activations for the backward sweep.
        acts = [xs]
        for w, b in layers[:-1]:
            acts.append(np.maximum(acts[-1] @ w + b, 0.0))
        w, b = layers[-1]
        z = (acts[-1] @ w + b).ravel()
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))

        grads: list[np.ndarray] = []
        delta = ((p - y_train) / len(y_train))[:, None]
        for li in range(len(layers) - 1, -1, -1):
            w, b = layers[li]
            grads.insert(0, acts[li].T @ delta)
            grads.insert(1, delta.sum(axis=0))
            if li > 0:
                delta = (delta @ w.T) * (acts[li] > 0.0)

        for i, (pm, g) in enumerate(zip(params, grads)):
            m_t[i] = beta1 * m_t[i] + (1 - beta1) * g
            v_t[i] = beta2 * v_t[i] + (1 - beta2) * g * g
            m_hat = m_t[i] / (1 - beta1**step)
            v_hat = v_t[i] / (1 - beta2**step)
            pm -= config.lr * m_hat / (np.sqrt(v_hat) + eps)

    clf = Classifier(
        architecture=config.architecture,
        layers=layers,
        scale_min=scale_min,
        scale_max=scale_max,
    )
    val_pred = (clf.prob(x[val_idx]) >= 0.5).astype(float)
    clf.val_accuracy = float((val_pred == y[val_idx]).mean())
    return clf


def save_model(classifier: Classifier, path) -> None:
    for w, b in classifier.layers:
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError("refusing to save non-finite weights")
    doc = {
        "architecture": classifier.architecture,
        "layers": [
            {"shape": list(w.shape), "w": w.ravel().tolist(), "b": b.tolist()}
            for w, b in classifier.layers
        ],
        "scale_min": classifier.scale_min.tolist(),
        "scale_max": classifier.scale_max.tolist(),
        "val_accuracy": classifier.val_accuracy,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_model(path) -> Classifier:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed weights file {path}: {exc}") from exc
    try:
        layers = []
        for entry in doc["layers"]:
            rows_, cols = entry["shape"]
            w = np.asarray(entry["w"], dtype=float).reshape(rows_, cols)
            b = np.asarray(entry["b"], dtype=float)
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"non-finite weights in {path}")
            layers.append((w, b))
        clf = Classifier(
            architecture=doc["architecture"],
            layers=layers,
            scale_min=np.asarray(doc["scale_min"], dtype=float),
            scale_max=np.asarray(doc["scale_max"], dtype=float),
            val_accuracy=float(doc.get("val_accuracy", math.nan)),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed weights file {path}: {exc}") from exc
    n_hidden = len(clf.layers) - 1
    if clf.architecture == "logistic" and n_hidden != 0:
        raise ValueError("logistic weights must be a single layer")
    if clf.architecture == "mlp" and n_hidden != 2:
        raise ValueError("mlp weights must have exactly two hidden layers")
    return clf
