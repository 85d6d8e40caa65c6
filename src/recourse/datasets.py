"""Synthetic tabular datasets for demos and tests.

`make_adult_like` produces a 12-feature income-style classification table
whose feature semantics (ordered/unordered, conditionally mutable,
protected) mirror a census-income problem; the label comes from a noisy
nonlinear score so a small MLP tops out in the low 80s of accuracy.
"""

from __future__ import annotations

import numpy as np

from .schema import DatasetSchema, FeatureSpec, UserState


def adult_like_schema() -> DatasetSchema:
    features = (
        FeatureSpec("age", "ordered", tuple(range(10)), "increase_only"),
        FeatureSpec("workclass", "unordered", tuple(range(4)), "mutable"),
        FeatureSpec("education", "ordered", tuple(range(8)), "increase_only"),
        FeatureSpec("marital_status", "unordered", tuple(range(3)), "mutable"),
        FeatureSpec("occupation", "unordered", tuple(range(6)), "mutable"),
        FeatureSpec("relationship", "unordered", tuple(range(3)), "mutable"),
        FeatureSpec("race", "unordered", (0, 1), "immutable"),
        FeatureSpec("gender", "unordered", (0, 1), "immutable"),
        FeatureSpec("capital_gain", "ordered", tuple(range(5)), "mutable"),
        FeatureSpec("capital_loss", "ordered", tuple(range(5)), "mutable"),
        FeatureSpec("hours_per_week", "ordered", tuple(range(7)), "mutable"),
        FeatureSpec("native_country", "unordered", (0, 1), "immutable"),
    )
    return DatasetSchema(
        features=features,
        desired_class=1,
        protected_attributes=("gender", "race"),
    )


def make_adult_like(
    n: int = 4000, seed: int = 7
) -> tuple[DatasetSchema, list[UserState], list[int]]:
    """Sample rows and binary labels from the income-style generative story."""
    schema = adult_like_schema()
    rng = np.random.default_rng(seed)

    age = np.clip(rng.normal(4.0, 2.2, n).round(), 0, 9).astype(int)
    workclass = rng.integers(0, 4, n)
    edu_base = np.clip(rng.normal(3.2 + 0.25 * age, 1.6, n).round(), 0, 7).astype(int)
    marital = rng.integers(0, 3, n)
    occupation = rng.integers(0, 6, n)
    relationship = rng.integers(0, 3, n)
    race = (rng.random(n) < 0.75).astype(int)
    gender = (rng.random(n) < 0.5).astype(int)
    capital_gain = np.minimum(rng.geometric(0.55, n) - 1, 4)
    capital_loss = np.minimum(rng.geometric(0.7, n) - 1, 4)
    hours = np.clip(rng.normal(3.5, 1.5, n).round(), 0, 6).astype(int)
    country = (rng.random(n) < 0.85).astype(int)

    score = (
        0.55 * (edu_base - 3.5)
        + 0.35 * (age - 4.0)
        + 0.9 * (capital_gain - 0.8)
        + 0.45 * (hours - 3.5)
        + 0.3 * (occupation >= 4)
        + 0.25 * (marital == 1)
        - 0.2 * (capital_loss > 2)
        + 0.15 * ((edu_base >= 5) & (hours >= 4))
        - 1.1
        + rng.normal(0.0, 1.0, n)
    )
    labels = (score > 0).astype(int)

    cols = np.column_stack(
        [
            age,
            workclass,
            edu_base,
            marital,
            occupation,
            relationship,
            race,
            gender,
            capital_gain,
            capital_loss,
            hours,
            country,
        ]
    )
    rows = [UserState(tuple(int(v) for v in row)) for row in cols]
    return schema, rows, labels.tolist()


def synthetic_schema_6f() -> DatasetSchema:
    """Mixed-kind 6-feature schema exercising every mutability flavor."""
    return DatasetSchema(
        features=(
            FeatureSpec("level", "ordered", tuple(range(6)), "increase_only"),
            FeatureSpec("grade", "ordered", tuple(range(5)), "decrease_only"),
            FeatureSpec("band", "ordered", tuple(range(8)), "mutable"),
            FeatureSpec("sector", "unordered", tuple(range(4)), "mutable"),
            FeatureSpec("region", "unordered", tuple(range(3)), "mutable"),
            FeatureSpec("origin", "unordered", (0, 1), "immutable"),
        ),
        desired_class=1,
        protected_attributes=("origin",),
    )


def make_synthetic_6f(
    n: int = 800, seed: int = 11
) -> tuple[DatasetSchema, list[UserState], list[int]]:
    schema = synthetic_schema_6f()
    rng = np.random.default_rng(seed)
    level = rng.integers(0, 6, n)
    grade = rng.integers(0, 5, n)
    band = np.clip(rng.normal(3.5, 2.0, n).round(), 0, 7).astype(int)
    sector = rng.integers(0, 4, n)
    region = rng.integers(0, 3, n)
    origin = (rng.random(n) < 0.6).astype(int)
    score = (
        0.8 * (level - 2.5)
        - 0.5 * (grade - 2.0)
        + 0.45 * (band - 3.5)
        + 0.4 * (sector == 2)
        - 0.9
        + rng.normal(0.0, 0.9, n)
    )
    labels = (score > 0).astype(int)
    cols = np.column_stack([level, grade, band, sector, region, origin])
    rows = [UserState(tuple(int(v) for v in row)) for row in cols]
    return schema, rows, labels.tolist()
