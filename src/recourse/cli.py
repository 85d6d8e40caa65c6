"""Command-line entry point: train, generate, evaluate, experiment.

Every run writes a manifest (flags, seeds, input-file hashes) next to its
outputs so it can be reproduced byte for byte. Worker-pool size for
per-user generation comes from the RECOURSE_WORKERS environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import experiments as xp
from .model import TrainConfig, load_model, save_model, train_classifier
from .results import (
    GenerationSettings,
    read_results,
    run_population,
    write_manifest,
    write_results,
)
from .schema import (
    DatasetSchema,
    SchemaError,
    build_percentile_table,
    load_dataset,
    load_schema,
)
from .search import METHODS, OBJECTIVES


def _parse_editable(raw: str | None, schema: DatasetSchema):
    if not raw:
        return None
    return tuple(schema.feature_index(name.strip()) for name in raw.split(","))


def _parse_preferences(raw: str | None, editable, schema: DatasetSchema):
    if not raw:
        return None
    if editable is None:
        raise SchemaError("--preferences requires --editable-features")
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != len(editable):
        raise SchemaError(
            f"got {len(parts)} preference values for {len(editable)} editable features"
        )
    try:
        weights = [float(p) for p in parts]
    except ValueError:
        raise SchemaError(f"malformed preference vector {raw!r}") from None
    full = np.zeros(schema.n_features)
    for idx, w in zip(editable, weights):
        full[idx] = w
    if (full < 0).any() or abs(full.sum() - 1.0) > 1e-9:
        raise SchemaError("preferences must be non-negative and sum to 1")
    return tuple(float(v) for v in full)


def _add_common_io(p: argparse.ArgumentParser):
    p.add_argument("--schema", required=True, help="schema document (YAML)")
    p.add_argument("--data", required=True, help="coded dataset (CSV)")
    p.add_argument("--out", required=True, help="output directory")


def _add_generation_flags(p: argparse.ArgumentParser):
    p.add_argument("--model", required=True, help="weights file (JSON)")
    p.add_argument("--budget", type=int, default=5000)
    p.add_argument("--set-size", type=int, default=10)
    p.add_argument("--num-samples", type=int, default=1000)
    p.add_argument("--distribution", choices=["mix", "lin", "perc"], default="mix")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--users", type=int, default=None,
                   help="cap on how many rejected users to process")


def _generation_settings(args, **fields) -> GenerationSettings:
    """Settings from the shared generation flags, plus the given fields."""
    return GenerationSettings(
        budget=args.budget,
        set_size=args.set_size,
        num_samples=args.num_samples,
        distribution=args.distribution,
        alpha=args.alpha,
        restarts=args.restarts,
        seed=args.seed,
        **fields,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recourse",
        description="Generate and evaluate low-cost recourse sets for a "
        "black-box tabular classifier.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a classifier on a labeled table")
    p.add_argument("--schema", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--label-column", default="label")
    p.add_argument("--arch", choices=["logistic", "mlp"], default="mlp")
    p.add_argument("--hidden-width", type=int, default=20)
    p.add_argument("--epochs", type=int, default=300)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="weights file to write")

    p = sub.add_parser("generate", help="produce recourse sets for rejected users")
    _add_common_io(p)
    _add_generation_flags(p)
    p.add_argument("--method", choices=list(METHODS), default="cols")
    p.add_argument("--objective", choices=list(OBJECTIVES), default="emc")
    p.add_argument("--editable-features", default=None,
                   help="comma list of feature names every sample must respect")
    p.add_argument("--preferences", default=None,
                   help="comma list of weights aligned with --editable-features")

    p = sub.add_parser("evaluate", help="score result documents with hidden costs")
    _add_common_io(p)
    p.add_argument("--results", required=True,
                   help="comma list of result directories or .jsonl files")
    p.add_argument("--test-seed", required=True,
                   help="comma list of hidden-cost seeds")
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--distribution", choices=["mix", "lin", "perc"], default="mix")
    p.add_argument("--alpha", type=float, default=None)

    p = sub.add_parser("experiment", help="run a named sweep end to end")
    _add_common_io(p)
    _add_generation_flags(p)
    p.add_argument("--kind", choices=list(xp.EXPERIMENT_KINDS), required=True)
    p.add_argument("--methods", default="cols,pcols,random")
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--grid", default=None,
                   help="comma list overriding the sweep's default grid")
    p.add_argument("--test-seed", type=int, default=9001)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--shift-vectors", type=int, default=500)
    return parser


def _cmd_train(args) -> int:
    schema = load_schema(args.schema)
    rows, labels = load_dataset(args.data, schema, args.label_column)
    config = TrainConfig(
        architecture=args.arch,
        hidden_width=args.hidden_width,
        epochs=args.epochs,
        lr=args.lr,
        seed=args.seed,
    )
    clf = train_classifier(rows, labels, schema, config)
    save_model(clf, args.out)
    write_manifest(args.out + ".manifest.json", vars(args), [args.schema, args.data])
    print(f"trained {args.arch}: held-out accuracy {clf.val_accuracy:.3f}")
    print(f"weights written to {args.out}")
    return 0


def _cmd_generate(args) -> int:
    schema = load_schema(args.schema)
    rows = load_dataset(args.data, schema)
    classifier = load_model(args.model)
    table = build_percentile_table(rows, schema)
    editable = _parse_editable(args.editable_features, schema)
    preferences = _parse_preferences(args.preferences, editable, schema)
    settings = _generation_settings(
        args, method=args.method, objective=args.objective, editable=editable,
        preferences=preferences,
    )
    states, ids = xp.select_undesired(rows, classifier, schema, limit=args.users)
    docs = run_population(states, classifier, schema, table, settings, user_ids=ids)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, f"results_{args.method}.jsonl")
    write_results(docs, out_path)
    write_manifest(
        os.path.join(args.out, "manifest.json"),
        vars(args),
        [args.schema, args.data, args.model],
    )
    print(f"{len(docs)} users processed with {args.method}; results in {out_path}")
    return 0


def _resolve_result_files(raw: str) -> list[str]:
    files = []
    for token in raw.split(","):
        token = token.strip()
        if os.path.isdir(token):
            found = sorted(
                os.path.join(token, f)
                for f in os.listdir(token)
                if f.endswith(".jsonl")
            )
            if not found:
                raise SchemaError(f"no result documents (*.jsonl) in {token}")
            files.extend(found)
        elif token:
            files.append(token)
    if not files:
        raise SchemaError("no result files given")
    return files


def _cmd_evaluate(args) -> int:
    schema = load_schema(args.schema)
    rows = load_dataset(args.data, schema)
    table = build_percentile_table(rows, schema)
    test_seeds = [int(s) for s in str(args.test_seed).split(",")]
    files = _resolve_result_files(args.results)
    os.makedirs(args.out, exist_ok=True)

    per_file_reports: dict[tuple[str, str, int], xp.MetricsReport] = {}
    for path in files:
        docs = read_results(path)
        method = docs[0].method
        gen_seeds = {doc.seed for doc in docs}
        for ts in test_seeds:
            if ts in gen_seeds:
                raise SchemaError(
                    f"test seed {ts} collides with the generation seed in {path}"
                )
            report = xp.evaluate_docs(
                docs, schema, table, ts, args.k, args.distribution, args.alpha
            )
            per_file_reports[(path, method, ts)] = report
            tag = os.path.splitext(os.path.basename(path))[0]
            xp.write_csv(
                os.path.join(args.out, f"metrics_{tag}_seed{ts}.csv"),
                ["method", "metric", "value"],
                xp.report_rows(method, report),
            )

    by_method: dict[str, list] = {}
    for (_, method, _), report in per_file_reports.items():
        by_method.setdefault(method, []).append(report)
    mean_rows = []
    for method, reports in by_method.items():
        mean_rows.extend(xp.report_rows(method, xp.mean_report(reports)))
    xp.write_csv(
        os.path.join(args.out, "metrics_mean.csv"),
        ["method", "metric", "value"],
        mean_rows,
    )
    write_manifest(
        os.path.join(args.out, "manifest.json"),
        vars(args),
        [args.schema, args.data, *files],
    )
    print(f"wrote {len(per_file_reports)} per-seed tables and metrics_mean.csv to {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    schema = load_schema(args.schema)
    rows = load_dataset(args.data, schema)
    classifier = load_model(args.model)
    table = build_percentile_table(rows, schema)
    grid: tuple = ()
    if args.grid:
        values = [float(v) for v in args.grid.split(",")]
        if args.kind != "alpha_grid":
            values = [int(v) for v in values]
        grid = tuple(values)
    base = _generation_settings(args)
    spec = xp.ExperimentSpec(
        kind=args.kind,
        seeds=tuple(int(s) for s in args.seeds.split(",")),
        methods=tuple(m.strip() for m in args.methods.split(",")),
        grid=grid,
        users=args.users or 100,
        test_seed=args.test_seed,
        k=args.k,
        base=base,
        shift_vectors=args.shift_vectors,
        bins=args.bins,
    )
    states, ids = xp.select_undesired(rows, classifier, schema, limit=spec.users)
    header, table_rows = xp.run_experiment(spec, states, ids, classifier, schema, table)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, f"{args.kind}.csv")
    xp.write_csv(out_path, header, table_rows)
    write_manifest(
        os.path.join(args.out, "manifest.json"),
        vars(args),
        [args.schema, args.data, args.model],
    )
    print(f"{args.kind} sweep written to {out_path}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "evaluate":
            return _cmd_evaluate(args)
        return _cmd_experiment(args)
    except (SchemaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
