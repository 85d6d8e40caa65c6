import numpy as np
import pytest

from recourse.datasets import make_adult_like, make_synthetic_6f
from recourse.model import Classifier, TrainConfig, train_classifier
from recourse.schema import DatasetSchema, FeatureSpec, build_percentile_table


def toy_schema_2f(size: int = 5) -> DatasetSchema:
    """Two ordered mutable features, fully enumerable (size x size states)."""
    return DatasetSchema(
        features=(
            FeatureSpec("x0", "ordered", tuple(range(size)), "mutable"),
            FeatureSpec("x1", "ordered", tuple(range(size)), "mutable"),
        ),
        desired_class=1,
    )


def toy_rows_2f(schema: DatasetSchema, n: int = 60, seed: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    sizes = [f.size for f in schema.features]
    return np.array([[int(rng.integers(s)) for s in sizes] for _ in range(n)])


@pytest.fixture(scope="session")
def toy2():
    """5x5 two-feature domain with a hand-built linear boundary x0+x1 >= 5."""
    schema = toy_schema_2f(5)
    rows = toy_rows_2f(schema, 60, seed=3)
    table = build_percentile_table(rows, schema)
    clf = Classifier(
        architecture="logistic",
        layers=[(np.array([[40.0], [40.0]]), np.array([-49.0]))],
        scale_min=np.zeros(2),
        scale_max=np.full(2, 4.0),
    )
    return schema, rows, table, clf


@pytest.fixture(scope="session")
def synth6():
    schema, rows, labels = make_synthetic_6f(800, seed=11)
    clf = train_classifier(rows, labels, schema, TrainConfig(epochs=200, seed=0))
    table = build_percentile_table(rows, schema)
    return schema, rows, labels, table, clf


@pytest.fixture(scope="session")
def adult():
    schema, rows, labels = make_adult_like(4000, seed=7)
    clf = train_classifier(
        rows, labels, schema, TrainConfig(architecture="mlp", epochs=300, seed=0)
    )
    table = build_percentile_table(rows, schema)
    return schema, rows, labels, table, clf

