"""Tests of the benchmark itself, at tiny sizes on the synthetic 6-feature
table. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys
from dataclasses import replace

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402
from recourse import results  # noqa: E402
from recourse.datasets import make_synthetic_6f  # noqa: E402
from recourse.model import TrainConfig  # noqa: E402


def tiny_data():
    return make_synthetic_6f(300, seed=11)


def tiny_workloads() -> dict:
    small = dict(
        data=tiny_data,
        train=TrainConfig(architecture="mlp", epochs=30, seed=0),
        users=3,
    )
    w = run.WORKLOADS
    return {
        "paper_defaults": replace(
            w["paper_defaults"],
            settings=dict(method="cols", budget=60, set_size=3, num_samples=20),
            **small,
        ),
        "pcols_wide_search": replace(
            w["pcols_wide_search"],
            settings=dict(method="pcols", restarts=2, budget=60, set_size=3, num_samples=10),
            **small,
        ),
        "evaluate_hidden": replace(
            w["evaluate_hidden"],
            settings=dict(method="cols", budget=30, set_size=3, num_samples=5),
            populations=2,
            **small,
        ),
    }


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    return tmp_path


def result_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in run.load_spec()["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(trace, capsys):
    code = run.main(["--seconds", "0", "--trace", str(trace)], workloads=tiny_workloads())
    out = capsys.readouterr().out
    assert code == 0
    spec = run.load_spec()
    wanted = spec["per_layer" if trace else "end_to_end"]
    lines = out.splitlines()
    for wl in spec["workloads"]:
        for m in wanted:
            prefix = f"metric {wl['name']} {m['name']} "
            printed = [line for line in lines if line.startswith(prefix)]
            assert len(printed) == 1, prefix
            assert printed[0].endswith(f" {m['unit']}") and "n/a" not in printed[0]
    result = result_line(out)
    assert result["correct"] is True and result["failed"] == 0
    assert len(result["metrics"]) == len(wanted) * len(spec["workloads"])


def test_two_runs_print_the_same_digest(capsys):
    digests = []
    for _ in range(2):
        assert run.main(["--workload", "pcols_wide_search", "--seconds", "0"],
                        workloads=tiny_workloads()) == 0
        out = capsys.readouterr().out
        digests.append([line for line in out.splitlines() if line.startswith("digest ")])
    assert digests[0] == digests[1] and len(digests[0]) == 1


def flip_first_validity_flag(doc):
    doc.validity[0] = not doc.validity[0]


def charge_one_extra_query(doc):
    doc.queries_used += 1


@pytest.mark.parametrize("tamper", [flip_first_validity_flag, charge_one_extra_query])
def test_tampered_document_fails_the_command(tamper, monkeypatch, capsys):
    honest = results.run_user

    def tampered(*args, **kwargs):
        doc, samples = honest(*args, **kwargs)
        tamper(doc)
        return doc, samples

    monkeypatch.setattr(results, "run_user", tampered)
    code = run.main(["--workload", "paper_defaults", "--seconds", "0"],
                    workloads=tiny_workloads())
    captured = capsys.readouterr()
    assert code == 1
    result = result_line(captured.out)
    assert result["correct"] is False
    assert result["failed"] == tiny_workloads()["paper_defaults"].users
    assert "check failed: paper_defaults: user" in captured.err
