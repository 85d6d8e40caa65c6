"""Command-line entry point: train, generate, evaluate, experiment.

Every run writes a manifest (flags, seeds, input-file hashes) next to its
outputs so it can be reproduced byte for byte. Worker-pool size for
per-user generation comes from the RECOURSE_WORKERS environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain

import numpy as np

from . import experiments as xp
from .cost import check_alpha
from .evaluate import metric_names
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
    UserState,
    build_percentile_table,
    load_dataset,
    load_schema,
)
from .search import METHODS


def _parse_editable(raw: str | None, schema: DatasetSchema):
    if not raw:
        return None
    names = [name.strip() for name in raw.split(",")]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise SchemaError(f"--editable-features names {name!r} more than once")
    return tuple(schema.feature_index(name) for name in names)


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
    if not np.isfinite(full).all() or (full < 0).any() or abs(full.sum() - 1.0) > 1e-9:
        raise SchemaError(f"--preferences {raw!r}: values must be finite, "
                          "non-negative and sum to 1")
    return tuple(float(v) for v in full)


def _comma_list(flag: str, raw: str, kind: type) -> tuple:
    """The items of a comma-list flag as ints or floats (`kind`); a bad item
    is refused naming the flag and the item."""
    items = []
    for item in raw.split(","):
        try:
            items.append(kind(item))
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ValueError(f"{flag}: {item!r} is not {noun}") from None
    return tuple(items)


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


def _mixing_alpha(args):
    """The cost-mixing alpha that --distribution and --alpha name: lin fixes
    1, perc fixes 0, mix takes --alpha (None: drawn per sample)."""
    if args.distribution != "mix" and args.alpha is not None:
        raise ValueError(f"alpha {args.alpha} applies to distribution 'mix' only; "
                         f"{args.distribution!r} fixes its own")
    return {"lin": 1.0, "perc": 0.0}.get(args.distribution, args.alpha)


def _generation_settings(args, **fields) -> GenerationSettings:
    """Settings from the shared generation flags, plus the given fields."""
    return GenerationSettings(
        budget=args.budget,
        set_size=args.set_size,
        num_samples=args.num_samples,
        alpha=_mixing_alpha(args),
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
    config = TrainConfig(
        architecture=args.arch,
        hidden_width=args.hidden_width,
        epochs=args.epochs,
        lr=args.lr,
        seed=args.seed,
    )
    schema = load_schema(args.schema)
    rows, labels = load_dataset(args.data, schema, args.label_column)
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
        args, method=args.method, editable=editable, preferences=preferences
    )
    states, ids = xp.select_undesired(rows, classifier, schema, limit=args.users)
    docs = run_population(states, classifier, schema, table, settings, user_ids=ids)
    os.makedirs(args.out, exist_ok=True)
    # Named after the method, ':' spelled '-': results_ls-diversity.jsonl.
    out_path = os.path.join(args.out, f"results_{args.method.replace(':', '-')}.jsonl")
    write_results(docs, out_path)
    # One manifest per result file: runs of other methods into the same
    # directory keep their own.
    write_manifest(
        os.path.splitext(out_path)[0] + ".manifest.json",
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


def _well_formed(docs, schema: DatasetSchema) -> bool:
    """Whether every document passes `_check_docs`: the types of its ids,
    method, codes and flags, its row widths and counts, and every code's
    domain in one `positions` call over the file's rows stacked."""
    d = schema.n_features
    try:
        rows = [row for doc in docs for row in (doc.state, *doc.members)]
        flags = chain.from_iterable(doc.validity for doc in docs)
        if (set(map(len, rows)) - {d} or set(map(type, chain.from_iterable(rows))) - {int}
                or set(map(type, flags)) - {bool}):
            return False
        schema.positions(np.fromiter(chain.from_iterable(rows), np.int64, len(rows) * d)
                         .reshape(len(rows), d))
    except (TypeError, ValueError, OverflowError):
        return False
    return all(type(doc.user_id) is int and doc.user_id >= 0 and type(doc.seed) is int
               and doc.seed >= 0 and type(doc.method) is str and doc.method and doc.members
               and len(doc.members) == len(doc.validity) for doc in docs)


def _check_docs(docs, schema: DatasetSchema, path: str) -> None:
    """Each document has a non-negative integer user id and seed, a method
    named by a non-empty string (only a label: names of older versions
    pass), its state and members as integer codes in the schema's domains,
    at least one member and one boolean validity flag per member; errors
    name the file, the document and the value. The whole file is checked
    at once; the scan document by document only words the first error."""
    if _well_formed(docs, schema):
        return
    for n, doc in enumerate(docs, 1):
        try:
            for name in ("user_id", "seed"):
                value = getattr(doc, name)
                if type(value) is not int or value < 0:
                    raise ValueError(f"{name} {value!r} is not a non-negative integer")
            if type(doc.method) is not str or not doc.method:
                raise ValueError(f"method {doc.method!r} is not a non-empty string")
            for values in (doc.state, *doc.members):
                for f, v in zip(schema.features, values):
                    if type(v) is not int:
                        raise ValueError(f"value {v!r} of feature {f.name!r} is not "
                                         f"an integer code")
                UserState(tuple(values)).validate(schema)
            for flag in doc.validity:
                if type(flag) is not bool:
                    raise ValueError(f"validity flag {flag!r} is not true or false")
            if not doc.members:
                raise ValueError("recourse set must have at least one member")
            if len(doc.members) != len(doc.validity):
                raise ValueError("one validity flag per member required")
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"{path}: document {n}: {exc}") from None


def _cmd_evaluate(args) -> int:
    alpha = _mixing_alpha(args)
    check_alpha(alpha)
    if not args.k > 0:
        raise ValueError(f"--k must be positive, got {args.k}")
    test_seeds = list(dict.fromkeys(_comma_list("--test-seed", args.test_seed, int)))
    for ts in test_seeds:
        if ts < 0:
            raise ValueError(f"--test-seed must be non-negative, got {ts}")
    schema = load_schema(args.schema)
    rows = load_dataset(args.data, schema)
    table = build_percentile_table(rows, schema)
    files = _resolve_result_files(args.results)
    # Per-seed tables are named after the file stem, so stems must differ.
    tags = [os.path.splitext(os.path.basename(path))[0] for path in files]
    for i, tag in enumerate(tags):
        if tag in tags[:i]:
            raise SchemaError(f"{files[tags.index(tag)]} and {files[i]} would both "
                              f"write metrics_{tag}_seed*.csv; rename one of them")
    os.makedirs(args.out, exist_ok=True)

    by_method: dict[str, list[dict]] = {}
    for tag, path in zip(tags, files):
        docs = read_results(path)
        _check_docs(docs, schema, path)
        gen_seeds = {doc.seed for doc in docs}
        for ts in test_seeds:
            if ts in gen_seeds:
                raise SchemaError(
                    f"test seed {ts} collides with the generation seed in {path}"
                )
        per_seed: list[list] = [[] for _ in test_seeds]
        for method in dict.fromkeys(doc.method for doc in docs):
            group = [doc for doc in docs if doc.method == method]
            tables = xp.score_docs(group, schema, table, test_seeds, args.k, alpha)
            by_method.setdefault(method, []).extend(tables)
            for rows_of_seed, metrics in zip(per_seed, tables):
                rows_of_seed.extend(xp.table_rows(method, metrics))
        for ts, rows_of_seed in zip(test_seeds, per_seed):
            xp.write_csv(
                os.path.join(args.out, f"metrics_{tag}_seed{ts}.csv"),
                ["method", "metric", "value"],
                rows_of_seed,
            )

    mean_rows = []
    order = metric_names(schema, args.k)
    for method in sorted(by_method):
        mean_rows.extend(xp.table_rows(method, xp.mean_table(by_method[method], order)))
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
    print(f"wrote {len(files) * len(test_seeds)} per-seed tables and metrics_mean.csv "
          f"to {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    grid = _comma_list("--grid", args.grid, float) if args.grid else ()
    base = _generation_settings(args)
    spec = xp.ExperimentSpec(
        kind=args.kind,
        seeds=_comma_list("--seeds", args.seeds, int),
        methods=tuple(m.strip() for m in args.methods.split(",")),
        grid=grid,
        test_seed=args.test_seed,
        k=args.k,
        base=base,
        shift_vectors=args.shift_vectors,
        bins=args.bins,
    )
    schema = load_schema(args.schema)
    rows = load_dataset(args.data, schema)
    classifier = load_model(args.model)
    table = build_percentile_table(rows, schema)
    limit = 100 if args.users is None else args.users
    states, ids = xp.select_undesired(rows, classifier, schema, limit=limit)
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
    except (SchemaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
