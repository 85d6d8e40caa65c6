import numpy as np
import pytest

from recourse.datasets import (
    adult_like_schema,
    make_adult_like,
    make_synthetic_6f,
    synthetic_schema_6f,
)
from recourse.schema import (
    DatasetSchema,
    FeatureSpec,
    SchemaError,
    build_percentile_table,
    feasible_positions,
    feasible_values,
    load_dataset,
    load_schema,
    save_dataset,
    save_schema,
)

ADULT_STYLE_DOC = """\
desired_class: 1
protected_attributes: [gender, race]
features:
  - {name: age, kind: ordered, domain: {min: 0, max: 9}, mutability: increase_only}
  - {name: workclass, kind: unordered, domain: [0, 1, 2, 3]}
  - {name: education, kind: ordered, domain: {min: 0, max: 7}, mutability: increase_only}
  - {name: marital_status, kind: unordered, domain: [0, 1, 2]}
  - {name: occupation, kind: unordered, domain: [0, 1, 2, 3, 4, 5]}
  - {name: relationship, kind: unordered, domain: [0, 1, 2]}
  - {name: race, kind: unordered, domain: [0, 1], mutability: immutable}
  - {name: gender, kind: unordered, domain: [0, 1], mutability: immutable}
  - {name: capital_gain, kind: ordered, domain: {min: 0, max: 4}}
  - {name: capital_loss, kind: ordered, domain: {min: 0, max: 4}}
  - {name: hours_per_week, kind: ordered, domain: {min: 0, max: 6}}
  - {name: native_country, kind: unordered, domain: [0, 1], mutability: immutable}
"""


class TestLoadSchema:
    def test_adult_style_document(self, tmp_path):
        path = tmp_path / "schema.yaml"
        path.write_text(ADULT_STYLE_DOC)
        schema = load_schema(path)
        assert schema.n_features == 12
        assert schema.desired_class == 1
        assert schema.protected_attributes == ("gender", "race")
        assert schema.features[0].mutability == "increase_only"
        assert schema.features[0].domain == tuple(range(10))

    def test_degenerate_single_feature(self, tmp_path):
        path = tmp_path / "schema.yaml"
        path.write_text("features:\n  - {name: only, kind: ordered, domain: [0]}\n")
        schema = load_schema(path)
        assert schema.n_features == 1
        assert schema.features[0].domain == (0,)

    def test_increase_only_on_unordered_rejected(self, tmp_path):
        path = tmp_path / "schema.yaml"
        path.write_text(
            "features:\n"
            "  - {name: bad, kind: unordered, domain: [0, 1], mutability: increase_only}\n"
        )
        with pytest.raises(SchemaError):
            load_schema(path)

    def test_duplicate_feature_names_rejected(self, tmp_path):
        path = tmp_path / "schema.yaml"
        path.write_text(
            "features:\n"
            "  - {name: a, domain: [0, 1]}\n"
            "  - {name: a, domain: [0, 1]}\n"
        )
        with pytest.raises(SchemaError, match="duplicate"):
            load_schema(path)

    @pytest.mark.parametrize("body, message", [
        ("features:\n", "no 'features' list"),
        ("features:\n  - 1\n", "feature entry 1 lacks a name or a domain"),
        ("features:\n  - {name: a, domain: [0, 1]}\ndesired_class: one\n",
         "desired_class must be 0 or 1, got 'one'"),
        ("features:\n  - {name: a, domain: [0, 1]}\ndesired_class: 1.5\n",
         "desired_class must be 0 or 1, got 1.5"),
        ("features:\n  - {name: gender, domain: [0, 1]}\nprotected_attributes: gender\n",
         "protected_attributes 'gender' is not a list"),
    ], ids=["null_features", "entry_not_a_mapping", "string_desired_class",
            "float_desired_class", "protected_attributes_not_a_list"])
    def test_malformed_structure_names_file(self, tmp_path, body, message):
        """Malformed structure is refused with a SchemaError naming the file,
        never a TypeError, a bare ValueError or a misread value."""
        path = tmp_path / "schema.yaml"
        path.write_text(body)
        with pytest.raises(SchemaError) as info:
            load_schema(path)
        assert str(info.value) == f"schema document {path}: {message}"

    @pytest.mark.parametrize("domain, shown", [
        ("[0, 1.7, 3]", "1.7"),
        ("{min: 0, max: 2.9}", "2.9"),
        ("{min: 0.0, max: 2}", "0.0"),
        ("[true, false]", "True"),
        ("{min: false, max: 2}", "False"),
        ("[0, '1']", "'1'"),
    ], ids=["float_value", "float_range_end", "float_range_start", "bool_values",
            "bool_range_end", "string_value"])
    def test_non_integer_domain_names_file_and_feature(self, tmp_path, domain, shown):
        """A domain value or range end that is not a YAML integer is refused,
        never truncated to one."""
        path = tmp_path / "schema.yaml"
        path.write_text(f"features:\n  - {{name: tier, domain: {domain}}}\n")
        with pytest.raises(SchemaError) as info:
            load_schema(path)
        assert str(info.value) == (f"schema document {path}: feature 'tier': "
                                   f"domain value {shown} is not an integer")

    def test_sparse_code_range_names_file_feature_and_range(self, tmp_path):
        """A domain whose code range holds more than 2**16 codes outside it
        is refused: positions are looked up in a table over the range."""
        path = tmp_path / "schema.yaml"
        path.write_text("features:\n  - {name: a, domain: [0, 1]}\n"
                        "  - {name: income, domain: [0, 1000000000000]}\n")
        with pytest.raises(SchemaError) as info:
            load_schema(path)
        assert str(info.value) == (
            f"schema document {path}: feature 'income': code range 0..1000000000000 "
            f"holds 999999999999 codes outside its domain, more than 65536")

    def test_dense_range_of_any_size_loads(self, tmp_path):
        path = tmp_path / "schema.yaml"
        path.write_text("features:\n  - {name: id, domain: {min: -5, max: 199994}}\n")
        schema = load_schema(path)
        assert schema.positions([[-5], [199994]]).tolist() == [[0], [199999]]

    def test_parse_error(self, tmp_path):
        path = tmp_path / "schema.yaml"
        path.write_text("features: [\n")
        with pytest.raises(SchemaError):
            load_schema(path)

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "schema.yaml"
        path.write_text(ADULT_STYLE_DOC)
        schema = load_schema(path)
        out = tmp_path / "copy.yaml"
        save_schema(schema, out)
        assert load_schema(out) == schema


class TestFeatureSpecInvariants:
    def test_ordered_domain_must_increase(self):
        with pytest.raises(SchemaError):
            FeatureSpec("f", "ordered", (3, 1, 2))

    def test_unique_domain(self):
        with pytest.raises(SchemaError):
            FeatureSpec("f", "unordered", (1, 1))

    def test_empty_domain(self):
        with pytest.raises(SchemaError):
            FeatureSpec("f", "ordered", ())

    def test_protected_attribute_must_exist(self):
        with pytest.raises(SchemaError):
            DatasetSchema(
                features=(FeatureSpec("a", "ordered", (0, 1)),),
                protected_attributes=("ghost",),
            )

    def test_code_range_with_too_many_gaps_refused(self):
        """At most 2**16 codes of a feature's range may lie outside its
        domain, however they are spread."""
        at_limit = FeatureSpec("f", "unordered", (0, 2**16 + 1))
        assert DatasetSchema(features=(at_limit,)).positions([[2**16 + 1]]).tolist() == [[1]]
        for domain in ((0, 2**16 + 2), (-(2**16), 2, 3)):
            with pytest.raises(SchemaError, match=(
                    f"feature 'f': code range {min(domain)}..{max(domain)} holds "
                    f"{max(domain) - min(domain) + 1 - len(domain)} codes outside its "
                    f"domain, more than 65536")):
                DatasetSchema(features=(FeatureSpec("f", "unordered", domain),))


class TestDataset:
    def _schema(self):
        return DatasetSchema(
            features=(
                FeatureSpec("a", "ordered", (0, 1, 2)),
                FeatureSpec("b", "unordered", (0, 1)),
            )
        )

    def test_three_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n0,1\n2,0\n1,1\n")
        rows = load_dataset(path, self._schema())
        assert rows.dtype == np.int64
        assert rows.tolist() == [[0, 1], [2, 0], [1, 1]]

    def test_out_of_domain_names_row_and_feature(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n0,1\n9,0\n")
        with pytest.raises(SchemaError, match=r"row 2.*'a'"):
            load_dataset(path, self._schema())

    def test_cell_beyond_int64_names_row_and_feature(self, tmp_path):
        """Cells are checked as Python ints, before they become int64, so a
        cell no int64 holds is refused as outside its feature's domain."""
        path = tmp_path / "d.csv"
        path.write_text("a,b\n0,1\n99999999999999999999,0\n")
        with pytest.raises(SchemaError) as info:
            load_dataset(path, self._schema())
        assert str(info.value) == (f"dataset {path} row 2: value 99999999999999999999 "
                                   f"not in domain of feature 'a'")

    def test_column_named_twice_refused(self, tmp_path):
        """A repeated column would have its second copy's values dropped."""
        path = tmp_path / "d.csv"
        path.write_text("a,b,a\n0,1,2\n")
        with pytest.raises(SchemaError) as info:
            load_dataset(path, self._schema())
        assert str(info.value) == f"dataset {path}: column 'a' named twice"

    def test_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,a,b\n1,0,1\n0,2,0\n")
        rows, labels = load_dataset(path, self._schema(), label_column="y")
        assert rows.tolist() == [[0, 1], [2, 0]]
        assert labels == [1, 0]

    def test_short_row_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,y\n0,1,1\n2,0\n")
        with pytest.raises(SchemaError, match=r"row 2: expected 3 cells, got 2"):
            load_dataset(path, self._schema(), label_column="y")

    def test_unknown_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,c\n0,1,0\n")
        with pytest.raises(SchemaError, match="unknown"):
            load_dataset(path, self._schema())

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a\n0\n")
        with pytest.raises(SchemaError, match="missing"):
            load_dataset(path, self._schema())

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(SchemaError):
            load_dataset(path, self._schema())

    def test_save_load_identity(self, tmp_path):
        schema = self._schema()
        rows = np.array([(0, 1), (2, 0), (1, 1)])
        path = tmp_path / "d.csv"
        save_dataset(rows, schema, path)
        back = load_dataset(path, schema)
        assert back.dtype == np.int64 and np.array_equal(back, rows)


class TestPercentileTable:
    def test_hand_counted_cdf(self):
        schema = DatasetSchema(
            features=(FeatureSpec("f", "ordered", (0, 1, 2, 3, 4)),)
        )
        rows = np.array([(v,) for v in (0, 1, 1, 2, 4)])
        table = build_percentile_table(rows, schema)
        f = schema.features[0]
        expected = {0: 0.2, 1: 0.6, 2: 0.8, 3: 0.8, 4: 1.0}
        for v, cdf in expected.items():
            assert table.cdf[0][f.domain.index(v)] == pytest.approx(cdf)

    def test_single_row_step(self):
        schema = DatasetSchema(
            features=(FeatureSpec("f", "ordered", (0, 1, 2, 3, 4)),)
        )
        table = build_percentile_table(np.array([(3,)]), schema)
        cdf = table.cdf[0]
        assert cdf[2] == 0.0
        assert cdf[3] == 1.0
        assert cdf[4] == 1.0

    def test_terminal_value_is_one(self, synth6):
        schema, rows, _, table, _ = synth6
        for f, cdf in zip(schema.features, table.cdf):
            if f.kind == "ordered":
                assert cdf[-1] == pytest.approx(1.0)

    def test_monotone_and_bounded(self, synth6):
        schema, rows, _, table, _ = synth6
        for f, values in zip(schema.features, table.cdf):
            if f.kind != "ordered":
                continue
            assert all(0.0 <= v <= 1.0 for v in values)
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_empty_rows_rejected(self):
        schema = DatasetSchema(features=(FeatureSpec("f", "ordered", (0, 1)),))
        with pytest.raises(SchemaError, match="^cannot build percentile table from zero "
                                              "rows$"):
            build_percentile_table(np.empty((0, 1), dtype=np.int64), schema)


class TestFeasibleValues:
    def _schema(self):
        return DatasetSchema(
            features=(
                FeatureSpec("up", "ordered", (0, 1, 2, 3, 4), "increase_only"),
                FeatureSpec("down", "ordered", (0, 1, 2, 3, 4), "decrease_only"),
                FeatureSpec("frozen", "ordered", (0, 1, 2), "immutable"),
                FeatureSpec("free", "unordered", (0, 1), "mutable"),
            )
        )

    def test_increase_only(self):
        assert feasible_values(self._schema(), 0, 2) == {2, 3, 4}

    def test_decrease_only(self):
        assert feasible_values(self._schema(), 1, 2) == {0, 1, 2}

    def test_immutable(self):
        assert feasible_values(self._schema(), 2, 1) == {1}

    def test_mutable_full_domain(self):
        assert feasible_values(self._schema(), 3, 0) == {0, 1}

    def test_noop_always_feasible(self):
        schema = self._schema()
        for i, f in enumerate(schema.features):
            for v in f.domain:
                assert v in feasible_values(schema, i, v)

    def test_invalid_index(self):
        with pytest.raises(SchemaError):
            feasible_values(self._schema(), 9, 0)


class TestUserState:
    """A state's codes are checked by `positions`, the one domain check."""

    def test_validate_rejects_out_of_domain(self):
        schema = DatasetSchema(features=(FeatureSpec("a", "ordered", (0, 1)),))
        with pytest.raises(SchemaError, match="^value 5 not in domain of feature 'a'$"):
            schema.positions(np.array((5,)))

    def test_validate_rejects_wrong_length(self):
        schema = DatasetSchema(features=(FeatureSpec("a", "ordered", (0, 1)),))
        with pytest.raises(SchemaError, match="not rows of 1 features"):
            schema.positions(np.array((0, 0)))


def unsorted_schema():
    """Domains that are not 0..n-1: an unordered domain out of order with
    gaps, a shifted ordered one, and a one-value feature."""
    return DatasetSchema(
        features=(
            FeatureSpec("tier", "unordered", (5, 2, 9), "mutable"),
            FeatureSpec("level", "ordered", (-3, 0, 4, 10), "increase_only"),
            FeatureSpec("flag", "ordered", (7,), "immutable"),
        )
    )


SCHEMAS = {
    "adult": adult_like_schema,
    "synth6": synthetic_schema_6f,
    "unsorted": unsorted_schema,
}

def sparse_schema():
    """Domains with negative codes and gaps inside their ranges."""
    return DatasetSchema(
        features=(
            FeatureSpec("gappy", "unordered", (-7, 0, 40)),
            FeatureSpec("far", "ordered", (3, 1000)),
        )
    )


def cube_positions(schema, codes):
    """The compare-cube definition of `positions`: each code against every
    value of its feature's domain, padded with the first value; a code's
    position is its first match. Also returns which codes match at all."""
    width = max(f.size for f in schema.features)
    domains = np.array([f.domain + f.domain[:1] * (width - f.size)
                        for f in schema.features], dtype=np.int64)
    hit = codes[..., None] == domains
    return hit.argmax(axis=-1), hit.any(axis=-1)


I64 = 2**63 - 1


class TestDomainPositions:
    @pytest.mark.parametrize("name", sorted(SCHEMAS))
    def test_round_trip(self, name):
        schema = SCHEMAS[name]()
        rng = np.random.default_rng(0)
        sizes = [f.size for f in schema.features]
        pos = np.stack([rng.integers(n, size=(7, 40)) for n in sizes], axis=-1)
        codes = schema.codes(pos)
        assert codes.dtype == np.int64
        want = [[f.domain[j] for f, j in zip(schema.features, row)]
                for row in pos.reshape(-1, len(sizes)).tolist()]
        assert codes.reshape(-1, len(sizes)).tolist() == want
        assert np.array_equal(schema.positions(codes), pos)
        assert np.array_equal(schema.positions(codes[0, 0]), pos[0, 0])

    @pytest.mark.parametrize("name", sorted({**SCHEMAS, "sparse": sparse_schema}))
    def test_lookup_matches_compare_cube(self, name):
        """Random codes, some replaced by codes in a gap, just below or
        above the range, or at +-(2**63 - 1): found codes read the cube's
        positions as intp, and codes outside their domains raise an error
        naming the first such code in row-major order and its feature."""
        schema = {**SCHEMAS, "sparse": sparse_schema}[name]()
        d = schema.n_features
        bad = [[min(f.domain) - 1, max(f.domain) + 1, I64, -I64,
                *sorted(set(range(min(f.domain), max(f.domain))) - set(f.domain))[:3]]
               for f in schema.features]
        assert any(len(b) > 4 for b in bad) == (name in ("unsorted", "sparse"))
        rng = np.random.default_rng(3)
        for shape in ((7, 40), ()):
            pos = np.stack([rng.integers(f.size, size=shape) for f in schema.features], -1)
            codes = schema.codes(pos)
            got = schema.positions(codes)
            want, found = cube_positions(schema, codes)
            assert found.all() and got.dtype == np.intp
            assert np.array_equal(got, want)
            for _ in range(20):
                mixed = codes.copy()
                flat = mixed.reshape(-1, d)
                for _ in range(rng.integers(1, 4)):
                    r, f = rng.integers(len(flat)), rng.integers(d)
                    flat[r, f] = rng.choice(bad[f])
                _, found = cube_positions(schema, mixed)
                r, f = np.argwhere(~found.reshape(-1, d))[0]
                with pytest.raises(SchemaError) as got_error:
                    schema.positions(mixed)
                assert str(got_error.value) == (f"value {flat[r, f]} not in domain of "
                                                f"feature {schema.features[f].name!r}")

    def test_unsorted_domain_positions(self):
        schema = unsorted_schema()
        got = schema.positions([(5, -3, 7), (2, 0, 7), (9, 10, 7)])
        assert got.tolist() == [[0, 0, 0], [1, 1, 0], [2, 3, 0]]

    @pytest.mark.parametrize("bad", [(999, 0, 7), (5, 1, 7), (5, 0, 0)])
    def test_out_of_domain_code_names_value_and_feature(self, bad):
        schema = unsorted_schema()
        name = next(f.name for f, v in zip(schema.features, bad) if v not in f)
        value = next(v for f, v in zip(schema.features, bad) if v not in f)
        with pytest.raises(
            SchemaError, match=f"value {value} not in domain of feature '{name}'"
        ):
            schema.positions([(2, 0, 7), bad])

    @pytest.mark.parametrize("rows, value, name", [
        ([(5, 2**70, 7)], 2**70, "level"),
        ([(5, 0, 7), (-(2**64), 0, 7)], -(2**64), "tier"),
        ([(5, 1, 2**63)], 1, "level"),
        ([(5, 0, 7), (3, 2**63, 7)], 3, "tier"),
    ], ids=["beyond_int64", "below_int64", "earlier_code_first", "earlier_feature_first"])
    def test_code_beyond_int64_is_outside_every_domain(self, rows, value, name):
        """A Python int that int64 cannot hold is named as given, in the
        same row-major order as any other code outside its domain."""
        with pytest.raises(SchemaError) as info:
            unsorted_schema().positions(rows)
        assert str(info.value) == f"value {value} not in domain of feature '{name}'"

    def test_wrong_width_rejected(self):
        with pytest.raises(SchemaError, match="not rows of 3 features"):
            unsorted_schema().positions([5, 2**70])
        with pytest.raises(SchemaError, match="not rows of 3 features"):
            unsorted_schema().positions([5, -3])

    def test_feasible_positions_match_feasible_values(self):
        schema = synthetic_schema_6f()
        assert {f.mutability for f in schema.features} == {
            "mutable", "increase_only", "decrease_only", "immutable",
        }
        for fi, f in enumerate(schema.features):
            for value in f.domain:
                got = feasible_positions(schema, fi, value)
                values = sorted(feasible_values(schema, fi, value))
                state = [g.domain[0] for g in schema.features]
                rows = [state[:fi] + [v] + state[fi + 1:] for v in values]
                assert got == schema.positions(rows)[:, fi].tolist()

    def test_feasible_positions_on_unsorted_domains(self):
        schema = unsorted_schema()
        assert feasible_positions(schema, 0, 2) == [0, 1, 2]
        assert feasible_positions(schema, 1, 4) == [2, 3]
        assert feasible_positions(schema, 2, 7) == [0]
        with pytest.raises(SchemaError, match="value 3 not in domain of feature 'tier'"):
            feasible_positions(schema, 0, 3)


def unsorted_rows(n=60, seed=0):
    schema = unsorted_schema()
    rng = np.random.default_rng(seed)
    return np.array([[int(rng.choice(f.domain)) for f in schema.features]
                     for _ in range(n)])


MOVE_PACKS = {
    "synth6": lambda: make_synthetic_6f(300, seed=2)[:2],
    "adult_like": lambda: make_adult_like(600, seed=5)[:2],
    "unsorted": lambda: (unsorted_schema(), unsorted_rows()),
}


class TestMoveTable:
    """`build_percentile_table` against an oracle made from `feasible_values`
    and CDFs counted by hand, for every feature and every origin position,
    including origins no user sits at."""

    @pytest.mark.parametrize("name", sorted(MOVE_PACKS))
    def test_moves_match_oracle(self, name):
        schema, rows = MOVE_PACKS[name]()
        table = build_percentile_table(rows, schema)
        first_row, cells = 0, []
        for fi, f in enumerate(schema.features):
            size = f.size
            column = rows[:, fi].tolist()
            cdf = None
            if f.kind == "ordered":
                cdf = tuple(sum(1 for v in column if v <= x) / len(rows)
                            for x in f.domain)
            assert table.cdf[fi] == cdf
            for s, value in enumerate(f.domain):
                allowed = feasible_values(schema, fi, value) - {value}
                targets = tuple(sorted(f.domain.index(v) for v in allowed))
                raw = None
                if cdf is not None:
                    raw = tuple(
                        (sum(1 for y in range(size) if s < y <= x)
                         / sum(1 for y in range(size) if y > s), abs(cdf[x] - cdf[s]))
                        if x > s else
                        (sum(1 for y in range(size) if x <= y < s)
                         / sum(1 for y in range(size) if y < s), abs(cdf[x] - cdf[s]))
                        for x in targets
                    )
                # The cells of origin row first_row + s, by target position.
                block = table.cell[first_row + s] + first_row + np.arange(size)
                got = tuple(np.flatnonzero(table.feasible[block]).tolist())
                assert got == targets, (f.name, s)
                means = tuple(zip(table.step[block].tolist(), table.shift[block].tolist()))
                want = dict(zip(targets, raw or ()))
                assert means == tuple(want.get(x, (0.0, 0.0)) for x in range(size)), (f.name, s)
                cells.append(block)
            first_row += size
        # The blocks tile the cell arrays, each cell once.
        assert sorted(np.concatenate(cells).tolist()) == list(range(len(table.feasible)))
        assert len(table.feasible) == sum(f.size ** 2 for f in schema.features)
        assert schema.offsets.tolist() == [
            sum(f.size for f in schema.features[:fi]) for fi in range(schema.n_features + 1)
        ]
