"""Per-user generation runs and their on-disk result documents.

A result document records everything evaluation needs about one (user,
method) run: the final member vectors with their validity flags, the
objective trace, and the query count. Documents are one JSON object per
line; a run directory also gets a manifest with the full flag set and
content hashes of every input file, enough to reproduce the run.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .cost import CostSampleSet, sample_cost_batch
from .model import Classifier
from .schema import DatasetSchema, PercentileTable, UserState
from .search import GenerationSettings, cols, local_search, pcols, random_search

WORKERS_ENV = "RECOURSE_WORKERS"


@dataclass
class ResultDoc:
    user_id: int
    method: str
    state: list[int]
    members: list[list[int]]
    validity: list[bool]
    final_emc: float
    trace: list[float]
    queries_used: int
    seed: int
    settings: dict = field(default_factory=dict)


def run_user(
    user_id: int,
    state: UserState,
    classifier: Classifier,
    schema: DatasetSchema,
    table: PercentileTable,
    settings: GenerationSettings,
) -> tuple[ResultDoc, Optional[CostSampleSet]]:
    """Sample this user's cost batch and run the configured method; returns
    the result document and the samples it was optimized against, None for
    a method that prices none (`ls` with a distance objective). The user
    becomes a (d,) int64 code row through `positions`, which refuses any
    value outside its feature's domain, one beyond int64 included."""
    row = schema.codes(schema.positions(state.values))
    samples = None
    if settings.prices_samples:
        samples = sample_cost_batch(
            row,
            schema,
            table,
            settings.num_samples,
            seed=settings.seed,
            alpha=settings.alpha,
            editable=settings.editable,
            pref=settings.preferences,
            subkey=user_id,
        )
    # Looked up at call time, so that wrappers installed on this module see
    # every run; every other method is an `ls:` one.
    optimizer = {"cols": cols, "pcols": pcols, "random": random_search}.get(
        settings.method, local_search)
    result = optimizer(row, classifier, samples, schema, settings, user_key=user_id)
    doc = ResultDoc(
        user_id=user_id,
        method=settings.method,
        state=row.tolist(),
        members=result.members.tolist(),
        validity=result.validity.tolist(),
        final_emc=result.emc,
        trace=result.trace,
        queries_used=result.queries_used,
        seed=settings.seed,
        settings={
            "objective": settings.objective,
            "budget": settings.budget,
            "set_size": settings.set_size,
            "num_samples": settings.num_samples,
            "alpha": settings.alpha,
            "restarts": settings.restarts,
        },
    )
    return doc, samples


def _worker(args) -> ResultDoc:
    user_id, state, classifier, schema, table, settings = args
    doc, _ = run_user(user_id, state, classifier, schema, table, settings)
    return doc


def run_population(
    states: Sequence[UserState],
    classifier: Classifier,
    schema: DatasetSchema,
    table: PercentileTable,
    settings: GenerationSettings,
    user_ids: Optional[Sequence[int]] = None,
) -> list[ResultDoc]:
    """Run the method for every user; honors the RECOURSE_WORKERS pool size.

    Each user owns an independent RNG stream and budget meter, so the pooled
    run is byte-identical to the sequential one.
    """
    raw = os.environ.get(WORKERS_ENV, "") or "1"
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
    ids = list(user_ids) if user_ids is not None else list(range(len(states)))
    if len(ids) != len(states):
        raise ValueError(f"need one user id per state, got {len(ids)} ids "
                         f"for {len(states)} states")
    tasks = [
        (uid, state, classifier, schema, table, settings)
        for uid, state in zip(ids, states)
    ]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_worker, tasks))
    return [_worker(t) for t in tasks]


def _enc_float(v: float):
    """JSON has no infinities or nan: they are written as the strings
    "inf", "-inf" and "nan", which `float` reads back."""
    return str(v) if math.isinf(v) or math.isnan(v) else v


def write_results(docs: Sequence[ResultDoc], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            raw = dict(vars(doc))
            raw["final_emc"] = _enc_float(doc.final_emc)
            raw["trace"] = [_enc_float(v) for v in doc.trace]
            fh.write(json.dumps(raw) + "\n")


def read_results(path) -> list[ResultDoc]:
    """The documents of a JSONL file; a line that does not load raises a
    ValueError naming the file and the line."""
    docs = []
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
                raw["final_emc"] = float(raw["final_emc"])
                raw["trace"] = [float(v) for v in raw["trace"]]
                docs.append(ResultDoc(**raw))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path} line {n}: malformed JSON: {exc}") from None
            except KeyError as exc:
                raise ValueError(f"{path} line {n}: missing field {exc}") from None
            except (TypeError, ValueError) as exc:
                problem = exc if isinstance(raw, dict) else "not a JSON object"
                raise ValueError(f"{path} line {n}: {problem}") from None
    if not docs:
        raise ValueError(f"no result documents in {path}")
    return docs


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, args: dict, input_files: Sequence[str]) -> None:
    manifest = {
        "args": {k: v for k, v in sorted(args.items())},
        "inputs": {
            str(f): file_sha256(f) for f in input_files if f and os.path.exists(f)
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
