"""Black-box classifier boundary: a small trainable model family and a
strict query meter.

Two architectures are supported, a logistic regression and a 2-hidden-layer
MLP. Inputs are the integer feature codes min-max scaled to [0, 1] with
bounds taken from the training split and stored inside the weights file, so
a loaded model predicts with no outside context. `Classifier.encode` does
that scaling and `Classifier.forward` scores encoded rows; `prob` on codes
is the two in turn.

All optimizer access to the model goes through `predict_batch`, which
charges a `BudgetMeter` one unit per forward-passed row and returns bool
verdicts. The optimizers query an `EncodedView`: every domain position of
every feature encoded once per run, so a batch of (n, d) domain positions
is one gather and one `forward`, and gets the probabilities `prob` gives
the same rows' codes, bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .schema import DatasetSchema

ARCHITECTURES = ("logistic", "mlp")

VAL_FRACTION = 0.1  # share of training rows held out for `val_accuracy`


class BudgetExhausted(RuntimeError):
    """No queries left; the optimizer must stop and return its current best."""


@dataclass
class BudgetMeter:
    limit: int
    used: int = 0

    def __post_init__(self):
        if self.limit < 0:
            raise ValueError(f"budget limit must be non-negative, got {self.limit}")

    @property
    def remaining(self) -> int:
        return self.limit - self.used

    def charge(self, n: int = 1) -> None:
        """Consume n units, or raise without consuming if they are not there."""
        if n < 0:
            raise ValueError(f"cannot charge a negative count, got {n}")
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
    degenerate single-layer case. `scale_min` and `scale_max` hold one
    finite bound per input of the first layer.
    """

    architecture: str
    layers: list[tuple[np.ndarray, np.ndarray]]
    scale_min: np.ndarray
    scale_max: np.ndarray
    val_accuracy: float = math.nan

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if not self.layers:
            raise ValueError("a classifier needs at least one layer")
        d = self.layers[0][0].shape[0]
        for name in ("scale_min", "scale_max"):
            bound = getattr(self, name)
            if np.shape(bound) != (d,):
                raise ValueError(f"{name} has shape {np.shape(bound)}, but the "
                                 f"first layer takes {d} inputs")
            if not np.isfinite(bound).all():
                raise ValueError(f"{name} holds a non-finite value")
        expect = d
        for w, b in self.layers:
            if w.shape[0] != expect or w.shape[1] != len(b):
                raise ValueError(
                    f"layer shapes do not chain: {w.shape} after width {expect}"
                )
            expect = w.shape[1]
        if expect != 1:
            raise ValueError("final layer must output a single logit")
        self._span = np.where(
            self.scale_max > self.scale_min, self.scale_max - self.scale_min, 1.0
        )

    def encode(self, codes) -> np.ndarray:
        """The model inputs of (..., d) raw feature codes: each code min-max
        scaled with the training split's bounds, elementwise."""
        return (np.asarray(codes, dtype=float) - self.scale_min) / self._span

    def forward(self, x: np.ndarray) -> np.ndarray:
        """P(class 1) for an (n, d) matrix of encoded rows (`encode`). Pure;
        unmetered; `x` is never written.

        A row's probability does not depend on the batch it is in, to the
        bit: `@` lets BLAS pick its kernel by shape, so the products use
        unoptimized einsum, which sums each row the same way at every batch
        size and offset. numpy does not document that; `tests/test_model.py`
        checks it. Every later step works in place on a product's fresh
        array."""
        for w, b in self.layers[:-1]:
            x = _rows_times(x, w)
            x += b
            np.maximum(x, 0.0, out=x)
        w, b = self.layers[-1]
        z = _rows_times(x, w).ravel()
        z += b
        np.minimum(z, 60.0, out=z)
        np.maximum(z, -60.0, out=z)
        np.negative(z, out=z)
        np.exp(z, out=z)
        z += 1.0
        return np.reciprocal(z, out=z)

    def prob(self, codes) -> np.ndarray:
        """P(class 1) for an (n, d) matrix of raw feature codes,
        `forward(encode(codes))`. Pure; unmetered."""
        return self.forward(self.encode(codes))


def _rows_times(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w, each output row a function of its input row alone."""
    return np.einsum("nk,kw->nw", x, w, optimize=False)


class EncodedView:
    """A classifier read on (n, d) domain positions instead of codes.

    Every domain position of every feature of `schema` is encoded once, into
    a (d, max domain size) table; a row's encoded inputs are one gather from
    it, the same floats `Classifier.encode` gives the row's codes, so `prob`
    equals `classifier.prob` of those codes, bit for bit."""

    def __init__(self, classifier: Classifier, schema: DatasetSchema):
        sizes = np.array([f.size for f in schema.features])
        # Position j of every feature, the last one repeated past its domain.
        pos = np.minimum(np.arange(sizes.max())[:, None], sizes - 1)
        table = classifier.encode(schema.codes(pos)).T
        self._flat = table.ravel()
        self._offsets = np.arange(len(sizes)) * table.shape[1]
        self._forward = classifier.forward

    def prob(self, rows: np.ndarray) -> np.ndarray:
        """P(class 1) for an (n, d) matrix of domain positions. Pure;
        unmetered."""
        return self._forward(self._flat[rows + self._offsets])


def predict_batch(
    model: Classifier | EncodedView, rows, meter: BudgetMeter
) -> np.ndarray:
    """Bool verdicts, True for the desired class, for an (n, d) batch:
    raw feature codes for a `Classifier`, domain positions for an
    `EncodedView`. Charges n units atomically.

    Raises BudgetExhausted without charging when fewer than n units remain;
    a partially evaluated batch would be unusable to the caller anyway.
    """
    meter.charge(len(rows))
    return model.prob(rows) >= 0.5


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
    rows: np.ndarray,
    labels: Sequence[int],
    schema: DatasetSchema,
    config: TrainConfig | None = None,
) -> Classifier:
    """Fit a classifier to (n, d) codes with full-batch Adam on binary cross-entropy.

    Deterministic given config.seed: the split shuffle, the weight init,
    and the (shuffle-free) update order all come from that seed. Dataset
    labels are mapped so that the schema's desired class is coded 1. The
    held-out accuracy is stored on the returned classifier.
    """
    config = config or TrainConfig()
    if len(rows) != len(labels) or not len(rows):
        raise ValueError("rows and labels must be equally long and non-empty")
    y_raw = np.asarray(labels, dtype=int)
    if set(np.unique(y_raw)) - {0, 1}:
        raise ValueError("labels must be 0/1")
    if len(np.unique(y_raw)) < 2:
        raise ValueError("training needs both classes present")
    # Desired class is always coded 1 internally.
    y = (y_raw == schema.desired_class).astype(float)
    x = np.asarray(rows, dtype=float)
    if x.shape[1] != schema.n_features:
        raise ValueError("row width does not match schema")

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(rows))
    n_val = max(1, int(len(rows) * VAL_FRACTION))
    val_idx, train_idx = order[:n_val], order[n_val:]
    if len(train_idx) == 0:
        raise ValueError("not enough rows to split off a validation set")
    x_train, y_train = x[train_idx], y[train_idx]

    layers = _init_layers(config.architecture, x.shape[1], config.hidden_width, rng)
    # Training updates the layers in place, so `clf` holds the trained model.
    clf = Classifier(
        architecture=config.architecture,
        layers=layers,
        scale_min=x_train.min(axis=0),
        scale_max=x_train.max(axis=0),
    )
    xs = clf.encode(x_train)
    params = [p for pair in layers for p in pair]
    m_t = [np.zeros_like(p) for p in params]
    v_t = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    # The hidden activations, and below the top layer the backward products
    # and ReLU masks, live in buffers made once and rewritten every step.
    acts = [xs, *(np.empty((len(xs), w.shape[1])) for w, _ in layers[:-1])]
    back = [np.empty_like(h) for h in acts[1:]]
    masks = [np.empty(h.shape, dtype=bool) for h in acts[1:]]

    for step in range(1, config.epochs + 1):
        # Forward pass, keeping the activations for the backward sweep.
        for li, (w, b) in enumerate(layers[:-1]):
            h = np.matmul(acts[li], w, out=acts[li + 1])
            h += b
            np.maximum(h, 0.0, out=h)
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
                delta = np.matmul(delta, w.T, out=back[li - 1])
                delta *= np.greater(acts[li], 0.0, out=masks[li - 1])

        for i, (pm, g) in enumerate(zip(params, grads)):
            m_t[i] = beta1 * m_t[i] + (1 - beta1) * g
            v_t[i] = beta2 * v_t[i] + (1 - beta2) * g * g
            m_hat = m_t[i] / (1 - beta1**step)
            v_hat = v_t[i] / (1 - beta2**step)
            pm -= config.lr * m_hat / (np.sqrt(v_hat) + eps)

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
                raise ValueError("non-finite weights")
            layers.append((w, b))
        clf = Classifier(
            architecture=doc["architecture"],
            layers=layers,
            scale_min=np.asarray(doc["scale_min"], dtype=float),
            scale_max=np.asarray(doc["scale_max"], dtype=float),
            val_accuracy=float(doc.get("val_accuracy", math.nan)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed weights file {path}: {exc}") from exc
    n_hidden = len(clf.layers) - 1
    if clf.architecture == "logistic" and n_hidden != 0:
        raise ValueError(f"logistic weights must be a single layer in {path}")
    if clf.architecture == "mlp" and n_hidden != 2:
        raise ValueError(f"mlp weights must have exactly two hidden layers in {path}")
    return clf
