"""The README's library example runs as written against the package."""

import re
from pathlib import Path

from recourse.model import save_model
from recourse.schema import save_dataset, save_schema

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The python block of the README's `## Library` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1, f"expected one python block under ## Library, got {len(blocks)}"
    return blocks[0]


def test_library_example_runs(synth6, tmp_path, monkeypatch):
    schema, rows, _, _, clf = synth6
    save_schema(schema, tmp_path / "schema.yaml")
    save_dataset(rows, schema, tmp_path / "data.csv")
    save_model(clf, tmp_path / "model.json")
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(library_example(), str(README), "exec"), scope)
    assert scope["result"].queries_used == 5000
