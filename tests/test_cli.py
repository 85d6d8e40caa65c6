import csv
import json
import math
import os
import re
import shutil
from dataclasses import replace

import numpy as np
import pytest

from recourse.cli import main
from recourse.cost import INF, sample_cost_batch
from recourse.datasets import make_synthetic_6f
from recourse.evaluate import distance_metrics, metric_names
from recourse.experiments import doc_arrays
from recourse.model import load_model
from recourse.results import (
    GenerationSettings,
    ResultDoc,
    read_results,
    run_population,
    run_user,
    write_results,
)
from recourse.schema import (
    SchemaError,
    UserState,
    build_percentile_table,
    load_dataset,
    load_schema,
    save_dataset,
    save_schema,
)
from recourse.search import METHODS

from test_cost import feature_costs, user


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Schema + labeled data + plain data files for a small synthetic table."""
    root = tmp_path_factory.mktemp("cli")
    schema, rows, labels = make_synthetic_6f(500, seed=11)
    save_schema(schema, root / "schema.yaml")
    save_dataset(rows, schema, root / "data.csv")
    with open(root / "labeled.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(schema.names) + ["label"])
        for row, label in zip(rows, labels):
            writer.writerow([*row.tolist(), label])
    code = main(
        [
            "train",
            "--schema", str(root / "schema.yaml"),
            "--data", str(root / "labeled.csv"),
            "--label-column", "label",
            "--arch", "mlp",
            "--epochs", "200",
            "--seed", "0",
            "--out", str(root / "model.json"),
        ]
    )
    assert code == 0
    return root


class TestParserDefaults:
    def test_generate_defaults_match_documented_settings(self):
        from recourse.cli import build_parser

        args = build_parser().parse_args(
            ["generate", "--schema", "s", "--data", "d", "--model", "m",
             "--out", "o"]
        )
        assert args.method == "cols"
        assert args.budget == 5000
        assert args.set_size == 10
        assert args.num_samples == 1000
        assert args.distribution == "mix"
        assert args.restarts == 5

    def test_evaluate_default_k(self):
        from recourse.cli import build_parser

        args = build_parser().parse_args(
            ["evaluate", "--schema", "s", "--data", "d", "--results", "r",
             "--test-seed", "9", "--out", "o"]
        )
        assert args.k == 1.0
        assert args.distribution == "mix"


class TestTrain(object):
    def test_model_and_manifest_written(self, workdir):
        assert (workdir / "model.json").exists()
        manifest = json.loads((workdir / "model.json.manifest.json").read_text())
        assert "inputs" in manifest and len(manifest["inputs"]) == 2
        clf = load_model(workdir / "model.json")
        assert clf.architecture == "mlp"

    def _train_on_edited_row(self, workdir, tmp_path, capsys, column, cell):
        """Train on labeled.csv with data row 3's `column` set to `cell`."""
        with open(workdir / "labeled.csv", newline="") as fh:
            table = list(csv.reader(fh))
        table[3][table[0].index(column)] = cell
        bad = tmp_path / "bad.csv"
        with open(bad, "w", newline="") as fh:
            csv.writer(fh).writerows(table)
        code = main(
            [
                "train",
                "--schema", str(workdir / "schema.yaml"),
                "--data", str(bad),
                "--label-column", "label",
                "--epochs", "1",
                "--out", str(tmp_path / "model.json"),
            ]
        )
        assert code == 2
        assert not (tmp_path / "model.json").exists()
        return capsys.readouterr().err

    def test_non_integer_cell_names_file_row_and_column(self, workdir, tmp_path, capsys):
        err = self._train_on_edited_row(workdir, tmp_path, capsys, "origin", "x")
        assert f"dataset {tmp_path / 'bad.csv'} row 3" in err
        assert "'x'" in err and "column 'origin'" in err

    def test_bad_label_names_file_row_and_column(self, workdir, tmp_path, capsys):
        err = self._train_on_edited_row(workdir, tmp_path, capsys, "label", "7")
        assert f"dataset {tmp_path / 'bad.csv'} row 3" in err
        assert "label 7" in err and "column 'label'" in err

    def test_label_column_naming_a_feature_exits_2(self, workdir, tmp_path, capsys):
        """`--label-column origin` used to train on the `origin` feature as
        the labels while keeping it as an input."""
        code = main(
            [
                "train",
                "--schema", str(workdir / "schema.yaml"),
                "--data", str(workdir / "data.csv"),
                "--label-column", "origin",
                "--epochs", "1",
                "--out", str(tmp_path / "model.json"),
            ]
        )
        assert code == 2
        assert (f"dataset {workdir / 'data.csv'}: label column 'origin' is a feature"
                in capsys.readouterr().err)
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--hidden-width", "0", "hidden_width must be at least 1, got 0"),
        ("--epochs", "0", "epochs must be at least 1, got 0"),
        ("--lr", "-1", "lr must be finite and positive, got -1.0"),
    ])
    def test_bad_training_value_exits_2(self, workdir, tmp_path, capsys, monkeypatch,
                                        flag, value, message):
        """`--hidden-width 0` used to die dividing by zero; `--epochs 0` and
        `--lr -1` trained a model without complaint."""
        from recourse import cli

        def refuse(*args, **kwargs):
            raise AssertionError("a model was trained")

        monkeypatch.setattr(cli, "train_classifier", refuse)
        code = main(
            [
                "train",
                "--schema", str(workdir / "schema.yaml"),
                "--data", str(workdir / "labeled.csv"),
                "--label-column", "label",
                flag, value,
                "--out", str(tmp_path / "model.json"),
            ]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()


class TestGenerate:
    def _generate(self, workdir, out, extra=()):
        return main(
            [
                "generate",
                "--schema", str(workdir / "schema.yaml"),
                "--data", str(workdir / "data.csv"),
                "--model", str(workdir / "model.json"),
                "--method", "cols",
                "--budget", "200",
                "--set-size", "5",
                "--num-samples", "20",
                "--seed", "1",
                "--users", "6",
                "--out", str(out),
                *extra,
            ]
        )

    def test_documents_and_manifest(self, workdir, tmp_path):
        out = tmp_path / "run"
        assert self._generate(workdir, out) == 0
        docs = read_results(out / "results_cols.jsonl")
        assert len(docs) == 6
        for doc in docs:
            assert doc.method == "cols"
            assert len(doc.members) == 5
            assert doc.queries_used <= 200
            assert len(doc.trace) >= 1
        manifest = json.loads((out / "results_cols.manifest.json").read_text())
        assert manifest["args"]["budget"] == 200
        assert not (out / "manifest.json").exists()

    def test_each_result_file_keeps_its_manifest(self, workdir, tmp_path):
        """cols then random into one directory: each result file has a
        manifest recording its own method."""
        out = tmp_path / "run"
        assert self._generate(workdir, out) == 0
        assert self._generate(workdir, out, ["--method", "random"]) == 0
        for method in ("cols", "random"):
            manifest = json.loads((out / f"results_{method}.manifest.json").read_text())
            assert manifest["args"]["method"] == method
            assert (out / f"results_{method}.jsonl").exists()

    def test_ls_objectives_keep_separate_files_and_mean_rows(self, workdir, tmp_path):
        """ls:emc then ls:diversity into one directory: each writes its own
        result file, named with '-' for ':', and evaluating both gives each
        method its own rows in the mean table."""
        out = tmp_path / "run"
        methods = {"ls:emc": "ls-emc", "ls:diversity": "ls-diversity"}
        for method, tag in methods.items():
            assert self._generate(workdir, out, ["--method", method]) == 0
            docs = read_results(out / f"results_{tag}.jsonl")
            assert {(doc.method, doc.settings["objective"]) for doc in docs} == {
                (method, method[3:])
            }
        assert sorted(os.listdir(out)) == sorted(
            f"results_{tag}{ext}" for tag in methods.values()
            for ext in (".jsonl", ".manifest.json")
        )
        evaluated = tmp_path / "eval"
        assert main(["evaluate", "--schema", str(workdir / "schema.yaml"),
                     "--data", str(workdir / "data.csv"), "--results", str(out),
                     "--test-seed", "901", "--out", str(evaluated)]) == 0
        with open(evaluated / "metrics_mean.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        names = [r[1] for r in rows if r[0] == "ls:emc"]
        assert names and names == [r[1] for r in rows if r[0] == "ls:diversity"]
        assert len(rows) == 2 * len(names)

    def test_deterministic_per_seed(self, workdir, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        self._generate(workdir, out_a)
        self._generate(workdir, out_b)
        assert (out_a / "results_cols.jsonl").read_bytes() == (
            out_b / "results_cols.jsonl"
        ).read_bytes()

    def test_documents_do_not_depend_on_blas_threads(self, workdir, tmp_path):
        """A pcols run writes the same bytes on one OpenBLAS thread and on
        two: with cost quanta every benefit sum is exact, whichever kernel
        forms it."""
        import subprocess
        import sys

        import recourse

        src = os.path.dirname(os.path.dirname(os.path.abspath(recourse.__file__)))
        written = []
        for threads in ("1", "2"):
            env = {k: v for k, v in os.environ.items() if k != "RECOURSE_WORKERS"}
            env.update(OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
            out = tmp_path / f"threads{threads}"
            subprocess.run(
                [sys.executable, "-m", "recourse.cli", "generate",
                 "--schema", str(workdir / "schema.yaml"), "--data", str(workdir / "data.csv"),
                 "--model", str(workdir / "model.json"), "--method", "pcols",
                 "--budget", "1000", "--set-size", "10", "--num-samples", "1000",
                 "--seed", "1", "--users", "6", "--out", str(out)],
                env=env, check=True, capture_output=True)
            written.append((out / "results_pcols.jsonl").read_bytes())
        assert written[0] == written[1]
        assert len(written[0].splitlines()) == 6

    @pytest.mark.parametrize("distribution,alpha", [("lin", "1"), ("perc", "0")])
    def test_fixed_distribution_writes_its_alpha(self, workdir, tmp_path, distribution,
                                                 alpha):
        """--distribution lin and perc write the documents of --alpha 1 and 0."""
        named, numeric = tmp_path / "named", tmp_path / "numeric"
        assert self._generate(workdir, named, ["--distribution", distribution]) == 0
        assert self._generate(workdir, numeric, ["--alpha", alpha]) == 0
        assert (named / "results_cols.jsonl").read_bytes() == (
            numeric / "results_cols.jsonl"
        ).read_bytes()

    def test_zero_samples_exits_2(self, workdir, tmp_path, capsys):
        out = tmp_path / "none"
        assert self._generate(workdir, out, ["--num-samples", "0"]) == 2
        assert "num_samples must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_samples_above_the_exact_bound_exit_2(self, workdir, tmp_path, capsys):
        out = tmp_path / "none"
        assert self._generate(workdir, out, ["--num-samples", "5000"]) == 2
        assert "num_samples must be at most 4096, got 5000" in capsys.readouterr().err
        assert not out.exists()

    def test_budget_below_default_restarts_runs_cols(self, workdir, tmp_path):
        """cols runs one restart, so the default --restarts 5 does not refuse
        a budget of 4; pcols, which splits it, does."""
        out = tmp_path / "small"
        small = ["--budget", "4", "--set-size", "2"]
        assert self._generate(workdir, out, small) == 0
        docs = read_results(out / "results_cols.jsonl")
        assert {doc.queries_used for doc in docs} == {4}
        split = tmp_path / "split"
        assert self._generate(workdir, split, [*small, "--method", "pcols"]) == 2

    def test_objective_the_method_ignores_exits_2(self, workdir, tmp_path, capsys):
        """Only `ls` names an objective; there is no --objective flag."""
        out = tmp_path / "ignored"
        for extra in (["--method", "cols:diversity"], ["--objective", "diversity"]):
            with pytest.raises(SystemExit) as info:
                self._generate(workdir, out, extra)
            assert info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'cols:diversity'" in err
        assert "unrecognized arguments: --objective diversity" in err
        assert not out.exists()

    def test_unknown_method_lists_choices(self, workdir, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "generate",
                    "--schema", str(workdir / "schema.yaml"),
                    "--data", str(workdir / "data.csv"),
                    "--model", str(workdir / "model.json"),
                    "--method", "nosuch",
                    "--out", str(tmp_path / "x"),
                ]
            )
        err = capsys.readouterr().err
        assert all(f"'{method}'" in err for method in METHODS)

    def test_editable_features_pin_every_sample(self, workdir, tmp_path):
        out = tmp_path / "pinned"
        code = self._generate(
            workdir, out, extra=["--editable-features", "level,band"]
        )
        assert code == 0
        # re-derive the first user's sample batch and check the pin
        schema = load_schema(workdir / "schema.yaml")
        from recourse.schema import load_dataset

        rows = load_dataset(workdir / "data.csv", schema)
        docs = read_results(out / "results_cols.jsonl")
        doc = docs[0]
        editable = (schema.feature_index("level"), schema.feature_index("band"))
        state = np.array(doc.state)
        table = build_percentile_table(rows, schema)
        batch = sample_cost_batch(
            state, schema, table, 20, seed=1,
            editable=frozenset(editable), subkey=doc.user_id,
        )
        for fi, f in enumerate(schema.features):
            assert batch.editable[:, fi].all() == (fi in editable)
            if fi in editable:
                continue
            s_idx = schema.positions(state)[fi]
            stack = feature_costs(batch)[fi]
            assert all(
                (stack[:, j] == INF).all() for j in range(f.size) if j != s_idx
            )

    def test_preferences_require_editable(self, workdir, tmp_path, capsys):
        code = main(
            [
                "generate",
                "--schema", str(workdir / "schema.yaml"),
                "--data", str(workdir / "data.csv"),
                "--model", str(workdir / "model.json"),
                "--preferences", "0.5,0.5",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2
        assert "editable" in capsys.readouterr().err

    @pytest.mark.parametrize("prefs", ["0.5,nan", "inf,0.5", "1.5,-inf"])
    def test_non_finite_preferences_exit_2(self, workdir, tmp_path, capsys, prefs):
        out = tmp_path / "x"
        code = self._generate(workdir, out, ["--editable-features", "grade,band",
                                             "--preferences", prefs])
        assert code == 2
        err = capsys.readouterr().err
        assert "--preferences" in err and "finite" in err
        assert not out.exists()

    def test_repeated_editable_feature_exits_2(self, workdir, tmp_path, capsys):
        for extra in (["--preferences", "0.5,0.5"], []):
            out = tmp_path / "x"
            code = self._generate(workdir, out, ["--editable-features", "grade, grade",
                                                 *extra])
            assert code == 2
            assert "--editable-features names 'grade' more than once" in (
                capsys.readouterr().err)
            assert not out.exists()


class TestEvaluate:
    @staticmethod
    @pytest.fixture(scope="class")
    def generated(workdir, tmp_path_factory):
        out = tmp_path_factory.mktemp("gen")
        main(
            [
                "generate",
                "--schema", str(workdir / "schema.yaml"),
                "--data", str(workdir / "data.csv"),
                "--model", str(workdir / "model.json"),
                "--method", "cols",
                "--budget", "200",
                "--set-size", "5",
                "--num-samples", "20",
                "--seed", "1",
                "--users", "6",
                "--out", str(out),
            ]
        )
        return out

    def test_tables_written(self, workdir, generated, tmp_path):
        out = tmp_path / "eval"
        code = main(
            [
                "evaluate",
                "--schema", str(workdir / "schema.yaml"),
                "--data", str(workdir / "data.csv"),
                "--results", str(generated),
                "--test-seed", "901,902",
                "--k", "1.0",
                "--out", str(out),
            ]
        )
        assert code == 0
        files = sorted(os.listdir(out))
        assert "metrics_mean.csv" in files
        per_seed = [f for f in files if f.startswith("metrics_results_cols_seed")]
        assert len(per_seed) == 2
        with open(out / "metrics_mean.csv") as fh:
            rows = list(csv.reader(fh))
        metrics = {r[1] for r in rows[1:]}
        assert {"fs_at_1", "pac", "coverage", "validity"} <= metrics

    def test_lin_scores_as_alpha_one(self, workdir, generated, tmp_path):
        """evaluate --distribution lin writes the tables of --alpha 1."""
        tables = []
        for flags in (["--distribution", "lin"], ["--alpha", "1"]):
            out = tmp_path / flags[0][2:]
            code = main(
                [
                    "evaluate",
                    "--schema", str(workdir / "schema.yaml"),
                    "--data", str(workdir / "data.csv"),
                    "--results", str(generated),
                    "--test-seed", "901,902",
                    *flags,
                    "--out", str(out),
                ]
            )
            assert code == 0
            tables.append({name: (out / name).read_bytes()
                           for name in sorted(os.listdir(out)) if name.endswith(".csv")})
        assert len(tables[0]) == 3
        assert tables[0] == tables[1]

    def test_generation_seed_collision_refused(self, workdir, generated, tmp_path, capsys):
        code = main(
            [
                "evaluate",
                "--schema", str(workdir / "schema.yaml"),
                "--data", str(workdir / "data.csv"),
                "--results", str(generated),
                "--test-seed", "1",
                "--out", str(tmp_path / "eval"),
            ]
        )
        assert code == 2
        assert "collides" in capsys.readouterr().err

    def test_empty_results_dir_rejected(self, workdir, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(
            [
                "evaluate",
                "--schema", str(workdir / "schema.yaml"),
                "--data", str(workdir / "data.csv"),
                "--results", str(empty),
                "--test-seed", "901",
                "--out", str(tmp_path / "eval"),
            ]
        )
        assert code == 2
        assert "no result documents" in capsys.readouterr().err

    @staticmethod
    def _evaluate(workdir, results, out):
        return main(
            [
                "evaluate",
                "--schema", str(workdir / "schema.yaml"),
                "--data", str(workdir / "data.csv"),
                "--results", results,
                "--test-seed", "901",
                "--out", str(out),
            ]
        )

    @pytest.mark.parametrize("first", ["all_users", "origin1"])
    def test_mean_table_keeps_subgroups_absent_from_some_files(
        self, workdir, generated, tmp_path, first
    ):
        """Two files of one method: every user, and only the origin=1 users.
        The mean table has the origin=0 and disparate-impact rows whichever
        file comes first, averaged over the files that define them."""
        origin = load_schema(workdir / "schema.yaml").feature_index("origin")
        docs = read_results(generated / "results_cols.jsonl")
        assert {doc.state[origin] for doc in docs} == {0, 1}
        write_results(docs, tmp_path / "all_users.jsonl")
        write_results([d for d in docs if d.state[origin] == 1], tmp_path / "origin1.jsonl")
        order = [first, *({"all_users", "origin1"} - {first})]
        out = tmp_path / "eval"
        code = self._evaluate(
            workdir, ",".join(str(tmp_path / f"{name}.jsonl") for name in order), out
        )
        assert code == 0

        def table(name):
            with open(out / name) as fh:
                return {metric: value for _, metric, value in list(csv.reader(fh))[1:]}

        mean = table("metrics_mean.csv")
        full = table("metrics_all_users_seed901.csv")
        only = {"fs_at_1[origin=0]", "coverage[origin=0]", "dir_fs_at_1[origin]",
                "dir_coverage[origin]"}
        assert only <= set(full)
        assert not only & set(table("metrics_origin1_seed901.csv"))
        assert set(mean) == set(full)
        for metric in only:
            assert mean[metric] == full[metric]

    def test_mean_table_row_order_independent_of_file_order(
        self, workdir, generated, tmp_path
    ):
        """Files holding disjoint subgroups (origin=0 users, origin=1 users)
        and a second method: either file order writes the same bytes, with
        the rows in schema order and the methods sorted."""
        schema = load_schema(workdir / "schema.yaml")
        origin = schema.feature_index("origin")
        docs = read_results(generated / "results_cols.jsonl")
        write_results([d for d in docs if d.state[origin] == 0], tmp_path / "origin0.jsonl")
        write_results([d for d in docs if d.state[origin] == 1], tmp_path / "origin1.jsonl")
        write_results([replace(d, method="pcols") for d in docs], tmp_path / "other.jsonl")
        names = ["other", "origin1", "origin0"]
        written = []
        for order in (names, names[::-1]):
            out = tmp_path / f"eval_{order[0]}"
            results = ",".join(str(tmp_path / f"{name}.jsonl") for name in order)
            assert self._evaluate(workdir, results, out) == 0
            written.append((out / "metrics_mean.csv").read_bytes())
        assert written[0] == written[1]
        with open(tmp_path / "eval_other" / "metrics_mean.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [method for method, *_ in rows] == sorted(method for method, *_ in rows)
        cols_rows = [metric for method, metric, _ in rows if method == "cols"]
        assert "fs_at_1[origin=0]" in cols_rows and "fs_at_1[origin=1]" in cols_rows
        order = metric_names(schema, 1.0)
        assert cols_rows == sorted(cols_rows, key=order.index)

    def test_repeated_file_stems_refused(self, workdir, generated, tmp_path, capsys):
        """Per-seed tables are named after the file stem: two files with one
        stem would overwrite each other's table."""
        other = tmp_path / "again"
        other.mkdir()
        first = generated / "results_cols.jsonl"
        shutil.copy(first, other / "results_cols.jsonl")
        out = tmp_path / "eval"
        code = self._evaluate(workdir, f"{generated},{other}", out)
        assert code == 2
        err = capsys.readouterr().err
        assert str(first) in err and str(other / "results_cols.jsonl") in err
        assert not out.exists()

    def _evaluate_tampered(self, workdir, generated, tmp_path, capsys, tamper):
        """Evaluate the generated documents after `tamper(doc)` edits the
        second one; returns the exit code, stderr and the tampered file."""
        docs = read_results(generated / "results_cols.jsonl")
        tamper(docs[1])
        path = tmp_path / "tampered.jsonl"
        write_results(docs, path)
        code = main(
            [
                "evaluate",
                "--schema", str(workdir / "schema.yaml"),
                "--data", str(workdir / "data.csv"),
                "--results", str(path),
                "--test-seed", "901",
                "--out", str(tmp_path / "eval"),
            ]
        )
        return code, capsys.readouterr().err, str(path)

    @pytest.mark.parametrize("valid", [False, True])
    def test_member_outside_domain_names_file_document_and_feature(
        self, workdir, generated, tmp_path, capsys, valid
    ):
        band = load_schema(workdir / "schema.yaml").feature_index("band")

        def tamper(doc):
            doc.validity[0] = valid
            doc.members[0][band] = 999

        code, err, path = self._evaluate_tampered(
            workdir, generated, tmp_path, capsys, tamper
        )
        assert code == 2
        assert (f"{path}: document 2: value 999 not in domain of feature 'band'"
                in err)

    @pytest.mark.parametrize("tamper, message", [
        (lambda doc, band: doc.members[0].__setitem__(band, 4.7),
         "value 4.7 of feature 'band' is not an integer code"),
        (lambda doc, band: doc.state.__setitem__(band, "3"),
         "value '3' of feature 'band' is not an integer code"),
        (lambda doc, band: doc.members[1].__setitem__(band, True),
         "value True of feature 'band' is not an integer code"),
        (lambda doc, band: doc.state.__setitem__(band, 2**70),
         f"value {2**70} not in domain of feature 'band'"),
        (lambda doc, band: doc.validity.__setitem__(0, "no"),
         "validity flag 'no' is not true or false"),
        (lambda doc, band: doc.validity.__setitem__(0, 1),
         "validity flag 1 is not true or false"),
        (lambda doc, band: doc.members.__setitem__(0, 5), "'int' object is not iterable"),
        (lambda doc, band: setattr(doc, "user_id", 3.5),
         "user_id 3.5 is not a non-negative integer"),
        (lambda doc, band: setattr(doc, "user_id", -1),
         "user_id -1 is not a non-negative integer"),
        (lambda doc, band: setattr(doc, "user_id", "7"),
         "user_id '7' is not a non-negative integer"),
        (lambda doc, band: setattr(doc, "user_id", True),
         "user_id True is not a non-negative integer"),
        (lambda doc, band: setattr(doc, "seed", [1]),
         "seed [1] is not a non-negative integer"),
        (lambda doc, band: setattr(doc, "seed", "x"),
         "seed 'x' is not a non-negative integer"),
        (lambda doc, band: setattr(doc, "method", ["cols"]),
         "method ['cols'] is not a non-empty string"),
    ], ids=["float_member_code", "string_state_code", "boolean_member_code",
            "state_code_beyond_int64", "string_flag", "integer_flag",
            "member_not_a_list", "float_user_id", "negative_user_id", "string_user_id",
            "boolean_user_id", "list_seed", "string_seed", "list_method"])
    def test_mistyped_value_names_file_document_and_value(
        self, workdir, generated, tmp_path, capsys, tamper, message
    ):
        """A code that is not an integer or lies beyond int64, a flag that
        is not a boolean, a member that is not a list, a user id or seed that is not a
        non-negative integer or a method that is not a non-empty string
        exits 2 instead of being truncated, read as true or as another user
        or seed, or raising a traceback."""
        band = load_schema(workdir / "schema.yaml").feature_index("band")
        code, err, path = self._evaluate_tampered(
            workdir, generated, tmp_path, capsys, lambda doc: tamper(doc, band)
        )
        assert code == 2
        assert f"{path}: document 2: {message}" in err

    def test_method_of_an_older_version_accepted(self, workdir, generated, tmp_path,
                                                 capsys):
        """The method is only a label: `ls`, which older versions wrote for
        every objective, is no longer runnable but is still read."""
        code, err, _ = self._evaluate_tampered(
            workdir, generated, tmp_path, capsys, lambda doc: setattr(doc, "method", "ls")
        )
        assert code == 0, err

    def test_missing_validity_flag_names_file_and_document(
        self, workdir, generated, tmp_path, capsys
    ):
        code, err, path = self._evaluate_tampered(
            workdir, generated, tmp_path, capsys, lambda doc: doc.validity.pop()
        )
        assert code == 2
        assert f"{path}: document 2: one validity flag per member required" in err

    def test_document_without_member_names_file_and_document(
        self, workdir, generated, tmp_path, capsys
    ):
        def tamper(doc):
            doc.members.clear()
            doc.validity.clear()

        code, err, path = self._evaluate_tampered(
            workdir, generated, tmp_path, capsys, tamper
        )
        assert code == 2
        assert f"{path}: document 2: recourse set must have at least one member" in err

    def test_state_outside_domain_names_file_document_and_feature(
        self, workdir, generated, tmp_path, capsys
    ):
        band = load_schema(workdir / "schema.yaml").feature_index("band")
        code, err, path = self._evaluate_tampered(
            workdir, generated, tmp_path, capsys,
            lambda doc: doc.state.__setitem__(band, 999)
        )
        assert code == 2
        assert f"{path}: document 2: value 999 not in domain of feature 'band'" in err

    def test_file_of_two_methods_scores_each_method(self, workdir, generated, tmp_path):
        """A file holding two methods' documents, interleaved, is scored as
        two groups in first-seen order: its per-seed table holds each
        method's rows, and its mean table equals that of one file per
        method."""
        docs = read_results(generated / "results_cols.jsonl")[:4]
        docs[1::2] = [replace(doc, method="random") for doc in docs[1::2]]
        write_results(docs, tmp_path / "mixed.jsonl")
        write_results(docs[0::2], tmp_path / "cols.jsonl")
        write_results(docs[1::2], tmp_path / "random.jsonl")
        assert self._evaluate(workdir, str(tmp_path / "mixed.jsonl"), tmp_path / "one") == 0
        apart = ",".join(str(tmp_path / f"{m}.jsonl") for m in ("cols", "random"))
        assert self._evaluate(workdir, apart, tmp_path / "two") == 0

        def rows(path):
            with open(path) as fh:
                return list(csv.reader(fh))

        mean = rows(tmp_path / "one" / "metrics_mean.csv")
        assert {method for method, *_ in mean[1:]} == {"cols", "random"}
        assert mean == rows(tmp_path / "two" / "metrics_mean.csv")
        assert rows(tmp_path / "one" / "metrics_mixed_seed901.csv") == (
            rows(tmp_path / "two" / "metrics_cols_seed901.csv")
            + rows(tmp_path / "two" / "metrics_random_seed901.csv")[1:])

    def test_a_file_of_two_methods_becomes_arrays_once(
        self, workdir, generated, tmp_path, monkeypatch
    ):
        """`recourse evaluate` on a file of two methods calls `doc_arrays`
        once, on the whole file, and scores each method group from slices
        of those arrays equal to the group's own `doc_arrays`."""
        import recourse.experiments as xp

        calls, scored = [], []
        real_score = xp.score_arrays

        def counting_arrays(docs, schema):
            calls.append([(doc.method, doc.user_id) for doc in docs])
            return doc_arrays(docs, schema)

        def recording_score(arrays, ids, *args):
            scored.append((arrays, ids))
            return real_score(arrays, ids, *args)

        schema = load_schema(workdir / "schema.yaml")
        docs = read_results(generated / "results_cols.jsonl")[:5]
        docs[1::2] = [replace(doc, method="random") for doc in docs[1::2]]
        write_results(docs, tmp_path / "mixed.jsonl")
        monkeypatch.setattr(xp, "doc_arrays", counting_arrays)
        monkeypatch.setattr(xp, "score_arrays", recording_score)
        assert self._evaluate(workdir, str(tmp_path / "mixed.jsonl"), tmp_path / "out") == 0
        assert calls == [[(doc.method, doc.user_id) for doc in docs]]
        assert len(scored) == 2
        for (arrays, ids), group in zip(scored, (docs[0::2], docs[1::2])):
            assert ids == [doc.user_id for doc in group]
            for got, want in zip(arrays, doc_arrays(group, schema)):
                assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_set_metrics_measured_once_per_document(
        self, workdir, generated, tmp_path, monkeypatch
    ):
        """Three test seeds share one distance measurement per document."""
        import recourse.evaluate as evaluate

        calls = []

        def counting(*args):
            calls.append(args)
            return distance_metrics(*args)

        monkeypatch.setattr(evaluate, "distance_metrics", counting)
        code = main(
            [
                "evaluate",
                "--schema", str(workdir / "schema.yaml"),
                "--data", str(workdir / "data.csv"),
                "--results", str(generated),
                "--test-seed", "901,902,903",
                "--out", str(tmp_path / "eval"),
            ]
        )
        assert code == 0
        assert len(calls) == len(read_results(generated / "results_cols.jsonl"))

    def test_score_docs_builds_each_state_and_set_once(
        self, workdir, generated, monkeypatch
    ):
        """Three test seeds share one `doc_arrays` call, which turns each
        document's state and recourse set into arrays once; no `UserState`
        is built."""
        import recourse.experiments as xp

        calls, states = [], []

        def counting_arrays(docs, schema):
            calls.append(docs)
            return doc_arrays(docs, schema)

        def counting_state(state, values):
            states.append(values)

        schema = load_schema(workdir / "schema.yaml")
        table = build_percentile_table(load_dataset(workdir / "data.csv", schema), schema)
        docs = read_results(generated / "results_cols.jsonl")
        monkeypatch.setattr(xp, "doc_arrays", counting_arrays)
        monkeypatch.setattr(UserState, "__init__", counting_state)
        tables = xp.score_docs(docs, schema, table, [901, 902, 903], 1.0, None)
        assert len(tables) == 3
        assert calls == [docs]
        assert states == []

    def test_evaluate_docs_measures_no_distances(self, workdir, generated, monkeypatch):
        import recourse.evaluate as evaluate
        from recourse.experiments import evaluate_docs

        def refuse(*args):
            raise AssertionError("distance_metrics called")

        schema = load_schema(workdir / "schema.yaml")
        table = build_percentile_table(load_dataset(workdir / "data.csv", schema), schema)
        docs = read_results(generated / "results_cols.jsonl")
        monkeypatch.setattr(evaluate, "distance_metrics", refuse)
        report = evaluate_docs(docs, schema, table, test_seed=901)
        assert report.n_users == len(docs)

    @pytest.mark.parametrize("case, bad_line, message", [
        ("missing_field",
         lambda line: json.dumps({k: v for k, v in json.loads(line).items()
                                  if k != "final_emc"}),
         "missing field 'final_emc'"),
        ("unknown_field", lambda line: json.dumps({**json.loads(line), "colour": "red"}),
         "'colour'"),
        ("malformed_json", lambda line: line[:-1], "malformed JSON"),
        ("not_an_object", lambda line: "[1, 2]", "not a JSON object"),
    ])
    def test_bad_document_line_names_file_and_line(
        self, workdir, generated, tmp_path, capsys, case, bad_line, message
    ):
        lines = (generated / "results_cols.jsonl").read_text().splitlines()
        lines[1] = bad_line(lines[1])
        path = tmp_path / f"{case}.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))} line 2: .*{message}"):
            read_results(path)
        assert self._evaluate(workdir, str(path), tmp_path / "eval") == 2
        assert f"{path} line 2: " in capsys.readouterr().err


class TestExperimentCommand:
    def test_samples_sweep_smoke(self, workdir, tmp_path):
        out = tmp_path / "xp"
        code = main(
            [
                "experiment",
                "--kind", "samples_sweep",
                "--schema", str(workdir / "schema.yaml"),
                "--data", str(workdir / "data.csv"),
                "--model", str(workdir / "model.json"),
                "--methods", "cols",
                "--seeds", "0",
                "--grid", "5,20",
                "--users", "4",
                "--budget", "150",
                "--set-size", "5",
                "--test-seed", "901",
                "--out", str(out),
            ]
        )
        assert code == 0
        with open(out / "samples_sweep.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "num_samples"
        assert [r[0] for r in rows[1:]] == ["5", "20"]

    def test_alpha_grid_shape(self, workdir, tmp_path):
        out = tmp_path / "xp2"
        code = main(
            [
                "experiment",
                "--kind", "alpha_grid",
                "--schema", str(workdir / "schema.yaml"),
                "--data", str(workdir / "data.csv"),
                "--model", str(workdir / "model.json"),
                "--methods", "cols",
                "--seeds", "0",
                "--grid", "0.0,1.0",
                "--users", "4",
                "--budget", "150",
                "--set-size", "5",
                "--num-samples", "10",
                "--test-seed", "901",
                "--out", str(out),
            ]
        )
        assert code == 0
        with open(out / "alpha_grid.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 4  # header + 2x2 grid

    def test_fairness_table(self, workdir, tmp_path):
        out = tmp_path / "xp4"
        code = main(
            [
                "experiment",
                "--kind", "main",
                "--schema", str(workdir / "schema.yaml"),
                "--data", str(workdir / "data.csv"),
                "--model", str(workdir / "model.json"),
                "--methods", "cols,random",
                "--seeds", "0",
                "--users", "8",
                "--budget", "150",
                "--set-size", "5",
                "--num-samples", "10",
                "--test-seed", "901",
                "--out", str(out),
            ]
        )
        assert code == 0
        with open(out / "main.csv") as fh:
            rows = list(csv.reader(fh))
        metrics = {(r[1], r[2]) for r in rows[1:]}
        assert ("cols", "dir_fs_at_1[origin]") in metrics
        assert ("mean", "cols") in {(r[0], r[1]) for r in rows[1:]}

    def test_ablation_uses_objective_methods(self, workdir, tmp_path):
        out = tmp_path / "xp5"
        code = main(
            [
                "experiment",
                "--kind", "ablation",
                "--schema", str(workdir / "schema.yaml"),
                "--data", str(workdir / "data.csv"),
                "--model", str(workdir / "model.json"),
                "--seeds", "0",
                "--users", "6",
                "--budget", "120",
                "--set-size", "4",
                "--num-samples", "10",
                "--test-seed", "901",
                "--out", str(out),
            ]
        )
        assert code == 0
        with open(out / "ablation.csv") as fh:
            rows = list(csv.reader(fh))
        methods = {r[1] for r in rows[1:]}
        assert methods == {
            "ls:sparsity", "ls:proximity", "ls:diversity", "ls:emc", "cols",
        }

    def test_concentration_shift_bins(self, workdir, tmp_path):
        out = tmp_path / "xp3"
        code = main(
            [
                "experiment",
                "--kind", "concentration_shift",
                "--schema", str(workdir / "schema.yaml"),
                "--data", str(workdir / "data.csv"),
                "--model", str(workdir / "model.json"),
                "--methods", "cols",
                "--seeds", "0",
                "--users", "4",
                "--budget", "150",
                "--set-size", "5",
                "--num-samples", "10",
                "--shift-vectors", "40",
                "--bins", "5",
                "--test-seed", "901",
                "--out", str(out),
            ]
        )
        assert code == 0
        with open(out / "concentration_shift.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 5
        assert sum(int(r[2]) for r in rows[1:]) == 40


    def test_concentration_shift_refuses_a_method_without_samples(
        self, workdir, tmp_path, capsys
    ):
        code = main(
            [
                "experiment",
                "--kind", "concentration_shift",
                "--schema", str(workdir / "schema.yaml"),
                "--data", str(workdir / "data.csv"),
                "--model", str(workdir / "model.json"),
                "--methods", "ls:diversity",
                "--seeds", "0",
                "--users", "2",
                "--budget", "20",
                "--set-size", "2",
                "--num-samples", "5",
                "--out", str(tmp_path / "xp4"),
            ]
        )
        assert code == 2
        assert "'ls:diversity'" in capsys.readouterr().err


    @pytest.mark.parametrize("flag", ["--bins", "--shift-vectors"])
    def test_zero_bins_or_shift_vectors_exits_2(self, workdir, tmp_path, capsys, flag):
        code = main(
            [
                "experiment",
                "--kind", "concentration_shift",
                "--schema", str(workdir / "schema.yaml"),
                "--data", str(workdir / "data.csv"),
                "--model", str(workdir / "model.json"),
                "--seeds", "0",
                "--users", "2",
                "--budget", "20",
                "--set-size", "2",
                "--num-samples", "5",
                flag, "0",
                "--out", str(tmp_path / "xp5"),
            ]
        )
        assert code == 2
        name = flag[2:].replace("-", "_")
        assert f"{name} must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "xp5").exists()


class TestFlagConflicts:
    @pytest.mark.parametrize("command", [
        ["generate"],
        ["experiment", "--kind", "main", "--methods", "cols", "--seeds", "0"],
        ["evaluate", "--test-seed", "901"],
    ])
    @pytest.mark.parametrize("distribution", ["lin", "perc"])
    def test_alpha_with_fixed_distribution_exits_2(
        self, workdir, tmp_path, capsys, command, distribution
    ):
        if command[0] == "evaluate":
            inputs = ["--results", str(tmp_path / "results")]
        else:
            inputs = ["--model", str(workdir / "model.json"), "--users", "2",
                      "--budget", "20", "--set-size", "2", "--num-samples", "5"]
        code = main(
            [
                *command,
                "--schema", str(workdir / "schema.yaml"),
                "--data", str(workdir / "data.csv"),
                *inputs,
                "--distribution", distribution,
                "--alpha", "0.3",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "alpha 0.3" in err and f"'{distribution}'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["budget_sweep", "setsize_sweep", "samples_sweep"])
    def test_fractional_grid_exits_2(self, workdir, tmp_path, capsys, kind):
        code = main(
            [
                "experiment",
                "--kind", kind,
                "--schema", str(workdir / "schema.yaml"),
                "--data", str(workdir / "data.csv"),
                "--model", str(workdir / "model.json"),
                "--methods", "cols",
                "--seeds", "0",
                "--grid", "5, 1000.7",
                "--users", "2",
                "--budget", "20",
                "--set-size", "2",
                "--num-samples", "5",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"grid values of {kind} must be integers, got [1000.7]" in err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("alpha", ["1.5", "-0.2"])
    def test_alpha_out_of_range_exits_2(self, workdir, tmp_path, capsys, alpha):
        code = main(
            [
                "generate",
                "--schema", str(workdir / "schema.yaml"),
                "--data", str(workdir / "data.csv"),
                "--model", str(workdir / "model.json"),
                "--method", "ls:diversity",
                "--alpha", alpha,
                "--users", "2",
                "--budget", "20",
                "--set-size", "2",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert f"alpha must lie in [0,1], got {alpha}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["main", "ablation", "concentration_shift"])
    def test_grid_for_kind_without_one_exits_2(self, workdir, tmp_path, capsys, kind):
        code = main(
            [
                "experiment",
                "--kind", kind,
                "--schema", str(workdir / "schema.yaml"),
                "--data", str(workdir / "data.csv"),
                "--model", str(workdir / "model.json"),
                "--methods", "cols",
                "--seeds", "0",
                "--grid", "1,0.5",
                "--users", "2",
                "--budget", "20",
                "--set-size", "2",
                "--num-samples", "5",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert f"experiment kind '{kind}' takes no grid" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("command", [
        ["experiment", "--kind", "main", "--methods", "cols", "--seeds", "0"],
        ["evaluate", "--test-seed", "901"],
    ], ids=["experiment", "evaluate"])
    @pytest.mark.parametrize("k", ["nan", "0", "-1"])
    def test_bad_k_exits_2(self, workdir, tmp_path, capsys, command, k):
        """Without the check `--k nan` wrote `fs_at_nan` rows that read 0."""
        if command[0] == "evaluate":
            inputs = ["--results", str(tmp_path / "results")]
        else:
            inputs = ["--model", str(workdir / "model.json"), "--users", "2",
                      "--budget", "20", "--set-size", "2", "--num-samples", "5"]
        code = main(
            [
                *command,
                "--schema", str(workdir / "schema.yaml"),
                "--data", str(workdir / "data.csv"),
                *inputs,
                "--k", k,
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert f"k must be positive, got {float(k)}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, name", [
        (["generate", "--seed", "-1"], "seed"),
        (["experiment", "--kind", "main", "--methods", "cols", "--seeds", "0",
          "--test-seed", "-1"], "test_seed"),
        (["experiment", "--kind", "main", "--methods", "cols", "--seeds", "0,-3"], "seed"),
        (["evaluate", "--test-seed", "901,-1"], "--test-seed"),
    ], ids=["generate", "experiment-test-seed", "experiment-seeds", "evaluate"])
    def test_negative_seed_exits_2(self, workdir, tmp_path, capsys, command, name):
        """A negative seed used to reach numpy, which failed with "expected
        non-negative integer" and named neither the flag nor the value."""
        if command[0] == "evaluate":
            inputs = ["--results", str(tmp_path / "results")]
        else:
            inputs = ["--model", str(workdir / "model.json"), "--users", "2",
                      "--budget", "20", "--set-size", "2", "--num-samples", "5"]
        code = main(
            [
                *command,
                "--schema", str(workdir / "schema.yaml"),
                "--data", str(workdir / "data.csv"),
                *inputs,
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        value = command[-1].split(",")[-1]
        assert f"{name} must be non-negative, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, message", [
        (["--kind", "ablation", "--methods", "cols", "--seeds", "0"],
         "experiment kind 'ablation' takes no methods"),
        (["--kind", "alpha_grid", "--methods", "cols,pcols", "--seeds", "0"],
         "experiment kind 'alpha_grid' reads one method, got 2"),
        (["--kind", "concentration_shift", "--methods", "cols,random", "--seeds", "0"],
         "experiment kind 'concentration_shift' reads one method, got 2"),
        (["--kind", "concentration_shift", "--seeds", "0,1"],
         "experiment kind 'concentration_shift' reads one seed, got 2"),
    ], ids=["ablation_methods", "alpha_grid_methods", "concentration_shift_methods",
            "concentration_shift_seeds"])
    def test_input_the_kind_ignores_exits_2(self, workdir, tmp_path, capsys, command,
                                            message):
        code = main(
            [
                "experiment", *command,
                "--schema", str(workdir / "schema.yaml"),
                "--data", str(workdir / "data.csv"),
                "--model", str(workdir / "model.json"), "--users", "2",
                "--budget", "20", "--set-size", "2", "--num-samples", "5",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, message", [
        (["experiment", "--kind", "main", "--methods", "cols", "--seeds", "0,x"],
         "--seeds: 'x' is not an integer"),
        (["experiment", "--kind", "budget_sweep", "--methods", "cols", "--seeds", "0",
          "--grid", "60,abc"], "--grid: 'abc' is not a number"),
        (["evaluate", "--test-seed", "5,y"], "--test-seed: 'y' is not an integer"),
    ], ids=["seeds", "grid", "test-seed"])
    def test_bad_comma_list_item_exits_2(self, workdir, tmp_path, capsys, command, message):
        """A bad item used to print int()'s or float()'s own message, which
        named neither the flag nor the list."""
        if command[0] == "evaluate":
            inputs = ["--results", str(tmp_path / "results")]
        else:
            inputs = ["--model", str(workdir / "model.json"), "--users", "2",
                      "--budget", "20", "--set-size", "2", "--num-samples", "5"]
        code = main(
            [
                *command,
                "--schema", str(workdir / "schema.yaml"),
                "--data", str(workdir / "data.csv"),
                *inputs,
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_generation_seed_refused_before_any_run(self, workdir, tmp_path,
                                                             capsys, monkeypatch):
        """`--seeds 0,-3` used to run every method for seed 0 before the
        settings of seed -3 refused it."""
        from recourse import experiments

        def refuse(*args, **kwargs):
            raise AssertionError("a user was searched")

        monkeypatch.setattr(experiments, "run_population", refuse)
        code = main(
            [
                "experiment", "--kind", "main", "--seeds", "0,-3",
                "--schema", str(workdir / "schema.yaml"),
                "--data", str(workdir / "data.csv"),
                "--model", str(workdir / "model.json"),
                "--users", "2", "--budget", "20", "--set-size", "2",
                "--num-samples", "5",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "seed must be non-negative, got -3 in seeds" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("methods,message", [
        ("cols,colz", "unknown method 'colz'"),
        ("cols,ls:novelty", "unknown method 'ls:novelty'"),
    ])
    def test_unknown_method_refused_before_any_run(self, workdir, tmp_path, capsys,
                                                   monkeypatch, methods, message):
        """`--methods cols,colz` used to search every user with cols before
        the settings of colz refused it."""
        from recourse import experiments

        def refuse(*args, **kwargs):
            raise AssertionError("a user was searched")

        monkeypatch.setattr(experiments, "run_population", refuse)
        code = main(
            [
                "experiment", "--kind", "main", "--methods", methods, "--seeds", "0",
                "--schema", str(workdir / "schema.yaml"),
                "--data", str(workdir / "data.csv"),
                "--model", str(workdir / "model.json"),
                "--users", "2", "--budget", "20", "--set-size", "2",
                "--num-samples", "5",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestUserLimit:
    @pytest.mark.parametrize("limit", [0, -3])
    def test_limit_below_one_rejected(self, synth6, limit):
        from recourse.experiments import select_undesired

        schema, rows, _, _, clf = synth6
        with pytest.raises(ValueError, match=f"got {limit}"):
            select_undesired(rows, clf, schema, limit=limit)

    def test_limit_caps_users(self, synth6):
        from recourse.experiments import select_undesired

        schema, rows, _, _, clf = synth6
        everyone, ids = select_undesired(rows, clf, schema)
        assert len(everyone) > 2
        two, two_ids = select_undesired(rows, clf, schema, limit=2)
        assert two == everyone[:2] and two_ids == ids[:2]

    @pytest.mark.parametrize("command", [
        ["generate"],
        ["experiment", "--kind", "main", "--methods", "random", "--seeds", "0"],
    ])
    def test_zero_users_exits_2(self, workdir, tmp_path, capsys, command):
        code = main(
            [
                *command,
                "--schema", str(workdir / "schema.yaml"),
                "--data", str(workdir / "data.csv"),
                "--model", str(workdir / "model.json"),
                "--budget", "20",
                "--set-size", "2",
                "--num-samples", "5",
                "--users", "0",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert code == 2
        assert "user limit must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, missing", [
    (["train", "--schema", "{root}/schema.yaml", "--data", "{root}/nothere.csv",
      "--out", "{tmp}/model.json"], "nothere.csv"),
    (["generate", "--schema", "{root}/schema.yaml", "--data", "{root}/data.csv",
      "--model", "{root}/nothere.json", "--out", "{tmp}/gen"], "nothere.json"),
    (["evaluate", "--schema", "{root}/schema.yaml", "--data", "{root}/data.csv",
      "--results", "{tmp}/nothere.jsonl", "--test-seed", "901", "--out", "{tmp}/eval"],
     "nothere.jsonl"),
    (["experiment", "--kind", "main", "--schema", "{root}/nothere.yaml",
      "--data", "{root}/data.csv", "--model", "{root}/model.json", "--out", "{tmp}/xp"],
     "nothere.yaml"),
], ids=["train", "generate", "evaluate", "experiment"])
def test_missing_input_file_exits_2_naming_it(workdir, tmp_path, capsys, command, missing):
    """A missing input file is an input error like any other: `error: ...`
    naming the path and exit status 2, not a traceback."""
    argv = [arg.format(root=workdir, tmp=tmp_path) for arg in command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and missing in err


class TestExperimentSpecValidation:
    def test_default_grids(self):
        from recourse.experiments import DEFAULT_GRIDS, ExperimentSpec

        assert DEFAULT_GRIDS["budget_sweep"] == (500, 1000, 2000, 3000, 5000, 10000)
        assert DEFAULT_GRIDS["setsize_sweep"] == (1, 2, 3, 5, 10, 20, 30)
        assert DEFAULT_GRIDS["samples_sweep"] == (
            1, 5, 10, 20, 30, 100, 200, 300, 500, 1000,
        )
        assert DEFAULT_GRIDS["alpha_grid"] == (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
        spec = ExperimentSpec(kind="samples_sweep")
        assert spec.grid == DEFAULT_GRIDS["samples_sweep"]

    def test_unknown_kind_rejected(self):
        from recourse.experiments import ExperimentSpec

        with pytest.raises(ValueError, match="kind"):
            ExperimentSpec(kind="mystery")

    @pytest.mark.parametrize("kind", ["main", "ablation", "concentration_shift"])
    def test_grid_refused_for_kinds_without_one(self, kind):
        from recourse.experiments import ExperimentSpec

        with pytest.raises(ValueError,
                           match=f"experiment kind '{kind}' takes no grid"):
            ExperimentSpec(kind=kind, grid=(1, 2))
        assert ExperimentSpec(kind=kind).grid == ()

    @pytest.mark.parametrize("kind, methods, seeds", [
        ("main", ("cols", "pcols", "random"), (0, 1, 2, 3, 4)),
        ("budget_sweep", ("cols", "pcols", "random"), (0, 1, 2, 3, 4)),
        ("ablation", ("ls:sparsity", "ls:proximity", "ls:diversity", "ls:emc", "cols"),
         (0, 1, 2, 3, 4)),
        ("alpha_grid", ("cols",), (0, 1, 2, 3, 4)),
        ("concentration_shift", ("cols",), (0,)),
    ])
    def test_methods_and_seeds_default_per_kind(self, kind, methods, seeds):
        from recourse.experiments import ExperimentSpec

        spec = ExperimentSpec(kind=kind)
        assert (spec.methods, spec.seeds) == (methods, seeds)

    @pytest.mark.parametrize("kind, field, values, message", [
        ("ablation", "methods", ("cols",),
         "experiment kind 'ablation' takes no methods; it runs ls:sparsity, "
         "ls:proximity, ls:diversity, ls:emc, cols"),
        ("alpha_grid", "methods", ("cols", "pcols"),
         "experiment kind 'alpha_grid' reads one method, got 2"),
        ("concentration_shift", "methods", ("cols", "pcols", "random"),
         "experiment kind 'concentration_shift' reads one method, got 3"),
        ("concentration_shift", "seeds", (0, 1),
         "experiment kind 'concentration_shift' reads one seed, got 2"),
    ])
    def test_inputs_a_kind_ignores_refused(self, kind, field, values, message):
        """`ablation` ran its own methods whatever it was given, and
        `alpha_grid` and `concentration_shift` read only the first method,
        `concentration_shift` only the first seed."""
        from recourse.experiments import ExperimentSpec

        with pytest.raises(ValueError) as info:
            ExperimentSpec(kind=kind, **{field: values})
        assert str(info.value) == message

    def test_alpha_grid_values_validated(self):
        from recourse.experiments import ExperimentSpec

        with pytest.raises(ValueError):
            ExperimentSpec(kind="alpha_grid", grid=(0.0, 1.5))

    def test_fractional_sweep_values_refused(self):
        from recourse.experiments import ExperimentSpec

        with pytest.raises(ValueError,
                           match=r"grid values of budget_sweep must be integers, got \[60.9\]"):
            ExperimentSpec(kind="budget_sweep", grid=(60.9,))

    def test_integral_sweep_values_become_integers(self):
        """So that the sweep runs the value its CSV prints."""
        from recourse.experiments import ExperimentSpec

        spec = ExperimentSpec(kind="budget_sweep", grid=(500.0, 1000))
        assert spec.grid == (500, 1000)
        assert all(type(v) is int for v in spec.grid)

    @pytest.mark.parametrize("kind,grid,message", [
        ("setsize_sweep", (2, 0), "set_size must be positive"),
        ("budget_sweep", (500, 3), "budget 3 cannot cover set size 10"),
        ("budget_sweep", (500, 30), "budget 30 over 5 restarts cannot cover set size 10"),
        ("samples_sweep", (1000, 4097), "num_samples must be at most 4096, got 4097"),
    ])
    def test_grid_values_checked_at_construction(self, kind, grid, message):
        """Refused before the sweep runs the values ahead of the bad one."""
        from recourse.experiments import ExperimentSpec

        with pytest.raises(ValueError, match=message):
            ExperimentSpec(kind=kind, grid=grid)

    def test_methods_required(self):
        from recourse.experiments import ExperimentSpec

        with pytest.raises(ValueError, match="at least one method required"):
            ExperimentSpec(kind="main", methods=())

    def test_seeds_required(self):
        from recourse.experiments import ExperimentSpec

        with pytest.raises(ValueError):
            ExperimentSpec(kind="main", seeds=())

    @pytest.mark.parametrize("k", [float("nan"), 0.0, -1.0])
    def test_k_must_be_positive(self, k):
        from recourse.experiments import ExperimentSpec

        with pytest.raises(ValueError, match=f"k must be positive, got {k}"):
            ExperimentSpec(kind="main", k=k)

    def test_test_seed_must_be_non_negative(self):
        from recourse.experiments import ExperimentSpec

        with pytest.raises(ValueError, match="test_seed must be non-negative, got -1"):
            ExperimentSpec(kind="main", test_seed=-1)

    def test_generation_seeds_must_be_non_negative(self):
        from recourse.experiments import ExperimentSpec

        with pytest.raises(ValueError, match="seed must be non-negative, got -3 in seeds"):
            ExperimentSpec(kind="main", seeds=(0, -3))

    @pytest.mark.parametrize("kind,field,values,shown", [
        ("main", "seeds", (0, 1, 0), "0"),
        ("main", "methods", ("cols", "cols"), "'cols'"),
        ("alpha_grid", "grid", (0.2, 0.4, 0.2), "0.2"),
        ("budget_sweep", "grid", (500, 500.0), "500"),
    ])
    def test_repeated_values_refused(self, kind, field, values, shown):
        """A repeated method wrote its rows twice, and a repeated grid value
        counted each cell several times per seed."""
        from recourse.experiments import ExperimentSpec

        with pytest.raises(ValueError, match=f"^{field} names {shown} more than once$"):
            ExperimentSpec(kind=kind, **{field: values})

    @pytest.mark.parametrize("name", ["bins", "shift_vectors"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_bins_and_shift_vectors_must_be_positive(self, name, value):
        from recourse.experiments import ExperimentSpec

        with pytest.raises(ValueError, match=f"{name} must be at least 1, got {value}"):
            ExperimentSpec(kind="concentration_shift", **{name: value})


class TestResultDocs:
    def test_roundtrip_with_infinities(self, tmp_path, synth6):
        schema, rows, _, table, clf = synth6
        settings = GenerationSettings(
            method="cols", budget=60, set_size=4, num_samples=10, seed=2
        )
        doc, _ = run_user(0, user(rows[0]), clf, schema, table, settings)
        path = tmp_path / "r.jsonl"
        write_results([doc], path)
        (loaded,) = read_results(path)
        assert loaded.final_emc == doc.final_emc or (
            math.isinf(loaded.final_emc) and math.isinf(doc.final_emc)
        )
        assert loaded.members == doc.members
        assert loaded.validity == doc.validity

    def test_roundtrip_keeps_the_sign_of_infinities(self, tmp_path):
        # A document's floats are written as strings, and both infinities
        # must read back with their sign.
        doc = ResultDoc(
            user_id=3, method="ls", state=[1, 2], members=[[1, 2], [2, 2]],
            validity=[False, False], final_emc=math.inf,
            trace=[-math.inf, -math.inf, 0.25, math.inf], queries_used=4, seed=0,
            settings={"objective": "diversity"},
        )
        path = tmp_path / "r.jsonl"
        write_results([doc], path)
        assert read_results(path) == [doc]
        assert '"-inf"' in path.read_text()

    def test_worker_pool_matches_sequential(self, synth6, monkeypatch):
        schema, rows, _, table, clf = synth6
        settings = GenerationSettings(
            method="cols", budget=60, set_size=4, num_samples=10, seed=3
        )
        seq = run_population([user(r) for r in rows[:4]], clf, schema, table, settings)
        monkeypatch.setenv("RECOURSE_WORKERS", "2")
        par = run_population([user(r) for r in rows[:4]], clf, schema, table, settings)
        assert [d.members for d in seq] == [d.members for d in par]
        assert [d.trace for d in seq] == [d.trace for d in par]

    @pytest.mark.parametrize("objective", ["diversity", "proximity", "sparsity"])
    def test_distance_objectives_draw_no_cost_batch(self, synth6, monkeypatch, objective):
        import recourse.results as results

        def no_batch(*args, **kwargs):
            raise AssertionError("a cost batch was drawn")

        schema, rows, _, table, clf = synth6
        settings = GenerationSettings(
            method=f"ls:{objective}", budget=60, set_size=4, num_samples=10, seed=3
        )
        monkeypatch.setattr(results, "sample_cost_batch", no_batch)
        doc, samples = run_user(0, user(rows[0]), clf, schema, table, settings)
        assert samples is None
        assert doc.queries_used == 60 and math.isinf(doc.final_emc)

    def test_emc_objective_draws_its_cost_batch(self, synth6):
        schema, rows, _, table, clf = synth6
        settings = GenerationSettings(
            method="ls:emc", budget=60, set_size=4, num_samples=10, seed=3
        )
        _, samples = run_user(0, user(rows[0]), clf, schema, table, settings)
        assert samples.m == 10

    @pytest.mark.parametrize("method", ["cols", "ls:diversity"])
    def test_user_beyond_int64_refused_naming_the_feature(self, synth6, method):
        """A user's values are checked once, for every method; an emc method
        used to fail converting the value to int64."""
        schema, _, _, table, clf = synth6
        settings = GenerationSettings(method=method, budget=60, set_size=4, num_samples=10)
        with pytest.raises(SchemaError, match=f"^value {2**70} not in domain of feature "
                                              f"'level'$"):
            run_user(0, UserState((2**70, 0, 0, 0, 0, 0)), clf, schema, table, settings)

    def test_empty_preferences_refused_by_the_sampler(self, synth6):
        """An empty preference tuple reaches the sampler's length check; it
        used to be read as no preferences, and the run went ahead."""
        schema, rows, _, table, clf = synth6
        settings = GenerationSettings(method="cols", budget=60, set_size=4, num_samples=10,
                                      preferences=())
        with pytest.raises(ValueError, match="preference vector length must match"):
            run_user(0, user(rows[0]), clf, schema, table, settings)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("inputs,message", [
        (dict(editable=(99,), preferences=(5.0,)), "editable feature index 99 out of range"),
        (dict(preferences=(5.0,)), "preference vector length must match feature count"),
    ])
    def test_sampler_inputs_refused_by_every_method(self, synth6, method, inputs, message):
        """Every method runs the sampler's input check; one that samples
        nothing used to ignore the editable set and the preferences."""
        schema, rows, _, table, clf = synth6
        settings = GenerationSettings(method=method, budget=20, set_size=2, **inputs)
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_user(0, user(rows[0]), clf, schema, table, settings)

    @pytest.mark.parametrize("n_states,n_ids", [(5, 2), (2, 5)])
    def test_one_user_id_per_state(self, synth6, n_states, n_ids):
        """Unequal lengths used to drop the users past the shorter one."""
        schema, rows, _, table, clf = synth6
        settings = GenerationSettings(
            method="cols", budget=60, set_size=4, num_samples=10, seed=3
        )
        with pytest.raises(ValueError, match=f"need one user id per state, "
                                             f"got {n_ids} ids for {n_states} states"):
            run_population([user(r) for r in rows[:n_states]], clf, schema, table, settings,
                           user_ids=list(range(n_ids)))

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_worker_count_rejected(self, synth6, monkeypatch, value):
        import recourse.results as results

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        schema, rows, _, table, clf = synth6
        settings = GenerationSettings(
            method="cols", budget=60, set_size=4, num_samples=10, seed=3
        )
        monkeypatch.setattr(results, "ProcessPoolExecutor", no_pool)
        monkeypatch.setenv("RECOURSE_WORKERS", value)
        with pytest.raises(ValueError, match=f"RECOURSE_WORKERS.*{value}"):
            run_population([user(r) for r in rows[:2]], clf, schema, table, settings)
