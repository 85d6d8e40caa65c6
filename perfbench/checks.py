"""Output checks applied to every result document the benchmark produces.

Each check returns a list of problems; an empty list means the document
passed. A document fails when:

- its query count differs from the exact count the method spends, or
  exceeds the budget;
- a member leaves a feature's domain or is infeasible relative to the
  user's original state;
- a validity flag differs from the unmetered classifier's verdict;
- its objective trace increases anywhere.
"""

from __future__ import annotations

import numpy as np

from recourse.model import Classifier
from recourse.results import GenerationSettings, ResultDoc
from recourse.schema import DatasetSchema, UserState, feasible_values


def cols_queries(budget: int, set_size: int) -> int:
    """Queries one cols run spends: the initial set plus every whole
    candidate batch the remaining budget can pay for."""
    return set_size + set_size * ((budget - set_size) // set_size)


def expected_queries(settings: GenerationSettings) -> int:
    if settings.method == "cols":
        return cols_queries(settings.budget, settings.set_size)
    if settings.method == "pcols":
        sub_budget = settings.budget // settings.restarts
        return settings.restarts * cols_queries(sub_budget, settings.set_size)
    raise ValueError(f"no query formula for method {settings.method!r}")


def check_doc(
    doc: ResultDoc,
    user_id: int,
    state: UserState,
    settings: GenerationSettings,
    schema: DatasetSchema,
    classifier: Classifier,
) -> list[str]:
    problems = []
    if doc.user_id != user_id or doc.state != list(state.values):
        problems.append(f"document is for user {doc.user_id}, expected {user_id}")
    want = expected_queries(settings)
    if doc.queries_used != want or doc.queries_used > settings.budget:
        problems.append(
            f"{doc.queries_used} queries charged, expected {want} "
            f"within budget {settings.budget}"
        )
    if len(doc.members) != settings.set_size or len(doc.validity) != len(doc.members):
        problems.append(
            f"{len(doc.members)} members and {len(doc.validity)} flags, "
            f"expected {settings.set_size} of each"
        )
    allowed = [
        feasible_values(schema, fi, v) for fi, v in enumerate(state.values)
    ]
    for j, member in enumerate(doc.members):
        if len(member) != schema.n_features:
            problems.append(f"member {j} has {len(member)} values")
            continue
        for fi, v in enumerate(member):
            if v not in schema.features[fi] or v not in allowed[fi]:
                problems.append(
                    f"member {j} feature {schema.features[fi].name!r}: value {v} "
                    "is outside the feasible set"
                )
    if doc.members and len(doc.validity) == len(doc.members):
        truth = classifier.prob(np.asarray(doc.members, dtype=float)) >= 0.5
        flipped = [j for j, (a, b) in enumerate(zip(doc.validity, truth)) if a != b]
        if flipped:
            problems.append(f"validity flags of members {flipped} disagree with the model")
    rises = [i for i in range(1, len(doc.trace)) if doc.trace[i] > doc.trace[i - 1]]
    if rises:
        problems.append(f"objective trace increases at steps {rises[:5]}")
    return problems
