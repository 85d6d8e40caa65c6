"""Feature space definition, mutability semantics, and dataset ingestion.

A schema document declares, per feature: its name, whether its states are
ordered, the integer-coded domain, and how it may move (mutable,
increase_only, decrease_only, immutable). Continuous features must arrive
pre-discretized to integer codes; optional bin edges in the document are
documentation only. Feasibility of a transition is always judged against
the user's original state, never against an intermediate candidate.
Cost tables, search moves and percentile counts work in domain positions
(a code's index in its feature's `domain`), mapped to and from codes by
`DatasetSchema.positions` and `codes` alone. `positions` reads one lookup
table laid over every feature's code range min(D)..max(D), -1 marking a
code in the range but not the domain, so a schema refuses a feature
whose range holds more than `MAX_GAPS` such codes. A `PercentileTable`
holds the per-dataset part of cost sampling: CDFs and every (feature,
origin) move, as flat arrays indexed by (origin row, target row).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import yaml

KINDS = ("ordered", "unordered")
MUTABILITIES = ("mutable", "increase_only", "decrease_only", "immutable")
# The most codes a feature's range min(D)..max(D) may hold outside its domain.
MAX_GAPS = 2**16


class SchemaError(ValueError):
    """Raised when a schema document or dataset violates the schema contract."""


@dataclass(frozen=True)
class FeatureSpec:
    """One feature: its coded domain, ordering, and mutability."""

    name: str
    kind: str
    domain: tuple[int, ...]
    mutability: str = "mutable"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SchemaError(f"feature {self.name!r}: unknown kind {self.kind!r}")
        if self.mutability not in MUTABILITIES:
            raise SchemaError(
                f"feature {self.name!r}: unknown mutability {self.mutability!r}"
            )
        if len(self.domain) == 0:
            raise SchemaError(f"feature {self.name!r}: empty domain")
        if len(set(self.domain)) != len(self.domain):
            raise SchemaError(f"feature {self.name!r}: duplicate domain values")
        if self.kind == "ordered" and list(self.domain) != sorted(self.domain):
            raise SchemaError(
                f"feature {self.name!r}: ordered domain must be strictly increasing"
            )
        if self.kind == "unordered" and self.mutability in (
            "increase_only",
            "decrease_only",
        ):
            raise SchemaError(
                f"feature {self.name!r}: {self.mutability} requires an ordered domain"
            )
        object.__setattr__(self, "_values", frozenset(self.domain))

    @property
    def size(self) -> int:
        return len(self.domain)

    def __contains__(self, value: int) -> bool:
        return value in self._values


@dataclass(frozen=True)
class DatasetSchema:
    """Ordered collection of features plus label and fairness metadata."""

    features: tuple[FeatureSpec, ...]
    desired_class: int = 1
    protected_attributes: tuple[str, ...] = ()
    # (d + 1,) first cost-table row of each feature, then the row count W.
    offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate feature names: {dupes}")
        if type(self.desired_class) is not int or self.desired_class not in (0, 1):
            raise SchemaError(f"desired_class must be 0 or 1, got {self.desired_class!r}")
        for attr in self.protected_attributes:
            if attr not in names:
                raise SchemaError(f"protected attribute {attr!r} is not a feature")
        object.__setattr__(self, "_by_name", {n: i for i, n in enumerate(names)})
        # Cost-table row offsets[f] + j holds feature f's code at position j.
        values = np.array([v for f in self.features for v in f.domain], dtype=np.int64)
        # Feature f's codes min(D_f)..max(D_f) own table entries base[f] on,
        # each holding the code's position, -1 for a code outside D_f; the
        # last entry is a -1 that every code outside its range reads.
        low = [min(f.domain) for f in self.features]
        span = [max(f.domain) - lo + 1 for f, lo in zip(self.features, low)]
        for f, lo, n in zip(self.features, low, span):
            if n - f.size > MAX_GAPS:
                raise SchemaError(f"feature {f.name!r}: code range {lo}..{lo + n - 1} "
                                  f"holds {n - f.size} codes outside its domain, "
                                  f"more than {MAX_GAPS}")
        base = np.cumsum([0, *span]).astype(np.intp)
        lookup = np.full(base[-1] + 1, -1, dtype=np.intp)
        for f, lo, b in zip(self.features, low, base):
            lookup[b + np.array(f.domain, dtype=np.int64) - lo] = np.arange(f.size)
        offsets = np.cumsum([0, *(f.size for f in self.features)]).astype(np.intp)
        for name, arr in (("_values", values), ("_low", np.array(low, dtype=np.int64)),
                          ("_span", np.array(span, dtype=np.uint64)), ("_base", base[:-1]),
                          ("_lookup", lookup), ("offsets", offsets)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.features)

    @property
    def n_features(self) -> int:
        return len(self.features)

    def feature_index(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown feature {name!r}") from None

    def codes(self, positions) -> np.ndarray:
        """int64 feature codes of (..., d) domain positions."""
        return self._values.take(self.offsets[:-1] + positions)

    def positions(self, codes) -> np.ndarray:
        """Domain positions of (..., d) feature codes, the inverse of
        `codes`, by one gather from the lookup table: a code inside its
        feature's range reads its position there, or -1 for a gap, and a
        code outside the range reads the table's final -1. The table stays
        small because a range with more than `MAX_GAPS` gaps is refused
        when the schema is built. The first code outside its feature's
        domain, in row-major order, raises a SchemaError naming it and the
        feature; a Python int beyond int64 is outside every domain."""
        try:
            shown = codes = np.asarray(codes, dtype=np.int64)
        except OverflowError:
            shown, codes = np.asarray(codes, dtype=object), None
        if shown.shape[-1:] != (self.n_features,):
            raise SchemaError(f"codes of shape {shown.shape} are not rows of "
                              f"{self.n_features} features")
        if codes is None:
            fits = (shown >= -(2**63)) & (shown < 2**63)
            codes = np.where(fits, shown, self._low - 1).astype(np.int64)
        at = codes - self._low
        # 0 <= at < span in one compare: a negative `at` is huge as uint64.
        outside = at.view(np.uint64) >= self._span
        at += self._base
        at[outside] = -1
        pos = self._lookup.take(at)
        missing = pos.reshape(-1) < 0
        if missing.any():
            i = int(missing.argmax())
            raise SchemaError(f"value {shown.reshape(-1)[i]} not in domain of feature "
                              f"{self.features[i % self.n_features].name!r}")
        return pos

    def mutable_indices(self) -> list[int]:
        """Indices of features that may move at all (includes conditional)."""
        return [
            i for i, f in enumerate(self.features) if f.mutability != "immutable"
        ]


@dataclass(frozen=True)
class UserState:
    """A user as `run_user` and `run_population` take one: a value per
    feature, in schema order. Below them a user is a (d,) int64 code row."""

    values: tuple[int, ...]


@dataclass(frozen=True)
class PercentileTable:
    """A dataset's empirical CDFs and the sampler's moves, for one schema.

    `cdf[f]` is ordered feature f's inclusive CDF P(X <= domain[j]) by
    position j, None for an unordered feature. The moves are arrays over
    one cell per (origin, target) position pair of each feature, sum
    |D_f|^2 in all: origin row o to target row t (cost-table rows of one
    feature) is cell `cell[o] + t`. `feasible` marks the moves allowed,
    the no-op excluded; `step` and `shift` hold an ordered feature's
    (step count, CDF shift) raw means, 0 elsewhere.
    """

    schema: DatasetSchema
    cdf: tuple[Optional[tuple[float, ...]], ...]
    cell: np.ndarray = field(compare=False)  # (W,)
    feasible: np.ndarray = field(compare=False)  # (sum |D_f|^2,) bool
    step: np.ndarray = field(compare=False)
    shift: np.ndarray = field(compare=False)


def feasible_values(
    schema: DatasetSchema, feature_index: int, original_value: int
) -> set[int]:
    """All values feature `feature_index` may take, judged from the original state."""
    if not 0 <= feature_index < schema.n_features:
        raise SchemaError(f"invalid feature index {feature_index}")
    f = schema.features[feature_index]
    if original_value not in f:
        raise SchemaError(
            f"value {original_value} not in domain of feature {f.name!r}"
        )
    if f.mutability == "immutable":
        return {original_value}
    if f.mutability == "increase_only":
        return {v for v in f.domain if v >= original_value}
    if f.mutability == "decrease_only":
        return {v for v in f.domain if v <= original_value}
    return set(f.domain)


def feasible_positions(
    schema: DatasetSchema, feature_index: int, original_value: int
) -> list[int]:
    """Domain positions of `feasible_values`, ascending."""
    allowed = feasible_values(schema, feature_index, original_value)
    domain = schema.features[feature_index].domain
    return [j for j, v in enumerate(domain) if v in allowed]


def _moves(schema: DatasetSchema, fi: int, s: int, cdf):
    """Feature fi's feasible targets from position s (ascending, s left
    out) and, for an ordered feature, their step counts |{y : s < y <= x}| /
    |{y : y > s}| (mirrored downward) and CDF shifts |cdf(x) - cdf(s)|."""
    f = schema.features[fi]
    targets = feasible_positions(schema, fi, f.domain[s])
    targets.remove(s)
    if cdf is None:
        return targets, 0.0, 0.0
    n_up, n_down = f.size - s - 1, s
    step = [(j - s) / n_up if j > s else (s - j) / n_down for j in targets]
    return targets, step, [abs(cdf[j] - cdf[s]) for j in targets]


def build_percentile_table(rows: np.ndarray, schema: DatasetSchema) -> PercentileTable:
    """Empirical inclusive CDF P(X <= v) per ordered feature, from the
    (n, d) codes `rows`, and every feature's moves from every origin
    position."""
    n = len(rows)
    if not n:
        raise SchemaError("cannot build percentile table from zero rows")
    pos = schema.positions(rows)
    cdf = tuple(
        tuple((np.cumsum(np.bincount(pos[:, i], minlength=f.size)) / n).tolist())
        if f.kind == "ordered" else None
        for i, f in enumerate(schema.features)
    )
    sizes = np.diff(schema.offsets)
    first = np.cumsum([0, *(sizes * sizes)])
    # Origin row offsets[f] + s starts at cell first[f] + s |D_f|, less
    # offsets[f], so that adding a target row lands on its cell.
    feat = np.repeat(np.arange(schema.n_features), sizes)
    off = schema.offsets[feat]
    cell = first[feat] - off + (np.arange(schema.offsets[-1]) - off) * sizes[feat]
    feasible = np.zeros(first[-1], dtype=bool)
    step, shift = np.zeros(first[-1]), np.zeros(first[-1])
    for fi, f in enumerate(schema.features):
        for s in range(f.size):
            targets, lin, perc = _moves(schema, fi, s, cdf[fi])
            origin = schema.offsets[fi] + s
            at = cell[origin] + schema.offsets[fi] + np.array(targets, dtype=np.intp)
            feasible[at], step[at], shift[at] = True, lin, perc
    for arr in (cell, feasible, step, shift):
        arr.setflags(write=False)
    return PercentileTable(schema, cdf, cell, feasible, step, shift)


def _domain_value(v, name: str) -> int:
    """A domain value or range end: a YAML integer, never a float or a bool."""
    if type(v) is not int:
        raise SchemaError(f"feature {name!r}: domain value {v!r} is not an integer")
    return v


def _parse_domain(raw, name: str) -> tuple[int, ...]:
    if isinstance(raw, dict):
        if set(raw) != {"min", "max"}:
            raise SchemaError(
                f"feature {name!r}: range domain needs exactly min and max"
            )
        lo, hi = _domain_value(raw["min"], name), _domain_value(raw["max"], name)
        if hi < lo:
            raise SchemaError(f"feature {name!r}: empty range {lo}..{hi}")
        return tuple(range(lo, hi + 1))
    if isinstance(raw, (list, tuple)):
        return tuple(_domain_value(v, name) for v in raw)
    raise SchemaError(f"feature {name!r}: domain must be a list or a min/max range")


def load_schema(path) -> DatasetSchema:
    """Parse and validate a YAML schema document.

    Expected keys: `features` (list of {name, kind, domain, mutability}),
    `desired_class`, `protected_attributes`. A feature may carry a `bins`
    key documenting discretization edges; it is ignored here. Every error
    names the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise SchemaError(f"cannot parse schema document {path}: {exc}") from exc
    try:
        if not isinstance(doc, dict) or not isinstance(doc.get("features"), list):
            raise SchemaError("no 'features' list")
        features = []
        for entry in doc["features"]:
            if not isinstance(entry, dict) or not {"name", "domain"} <= entry.keys():
                raise SchemaError(f"feature entry {entry!r} lacks a name or a domain")
            features.append(
                FeatureSpec(
                    name=str(entry["name"]),
                    kind=str(entry.get("kind", "ordered")),
                    domain=_parse_domain(entry["domain"], str(entry["name"])),
                    mutability=str(entry.get("mutability", "mutable")),
                )
            )
        protected = doc.get("protected_attributes") or []
        if not isinstance(protected, list):
            raise SchemaError(f"protected_attributes {protected!r} is not a list")
        return DatasetSchema(tuple(features), doc.get("desired_class", 1), tuple(protected))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"schema document {path}: {exc}") from None


def save_schema(schema: DatasetSchema, path) -> None:
    doc = {
        "features": [
            {
                "name": f.name,
                "kind": f.kind,
                "domain": list(f.domain),
                "mutability": f.mutability,
            }
            for f in schema.features
        ],
        "desired_class": schema.desired_class,
        "protected_attributes": list(schema.protected_attributes),
    }
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


def load_dataset(path, schema: DatasetSchema, label_column: Optional[str] = None):
    """Read a comma-delimited table of integer codes as (n, d) int64 codes.

    The header must list exactly the schema's feature names (any order,
    each once), plus `label_column` when one is given; the result is then
    the pair (codes, labels) with one 0/1 label per row. Bad cells are
    rejected with the file, their 1-based row index and their column name;
    the cells become codes through one `positions` call over every row,
    which refuses a code outside its domain, one beyond int64 included.
    """
    columns = [*schema.names, *([label_column] if label_column else [])]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"dataset {path} is empty") from None
        header = [h.strip() for h in header]
        twice = [h for i, h in enumerate(header) if h in header[:i]]
        if twice:
            raise SchemaError(f"dataset {path}: column {twice[0]!r} named twice")
        missing = set(columns) - set(header)
        extra = set(header) - set(columns)
        if missing:
            raise SchemaError(f"dataset {path}: missing columns {sorted(missing)}")
        if extra:
            raise SchemaError(f"dataset {path}: unknown columns {sorted(extra)}")
        order = [header.index(n) for n in columns]
        rows: list[list[int]] = []
        linenos: list[int] = []
        labels: list[int] = []
        for lineno, cells in enumerate(reader, start=1):
            if not cells:
                continue
            where = f"dataset {path} row {lineno}"
            if len(cells) != len(header):
                raise SchemaError(
                    f"{where}: expected {len(header)} cells, got {len(cells)}"
                )
            values = []
            for name, j in zip(columns, order):
                try:
                    values.append(int(cells[j]))
                except ValueError:
                    raise SchemaError(
                        f"{where}: non-integer cell {cells[j]!r} in column {name!r}"
                    ) from None
            if label_column:
                label = values.pop()
                if label not in (0, 1):
                    raise SchemaError(
                        f"{where}: label {label} in column {label_column!r} is not 0/1"
                    )
                labels.append(label)
            rows.append(values)
            linenos.append(lineno)
    if not rows:
        raise SchemaError(f"dataset {path} has a header but no rows")
    try:
        codes = schema.codes(schema.positions(rows))
    except SchemaError:
        for lineno, row in zip(linenos, rows):
            try:
                schema.positions(row)
            except SchemaError as exc:
                raise SchemaError(f"dataset {path} row {lineno}: {exc}") from None
    return (codes, labels) if label_column else codes


def save_dataset(rows: np.ndarray, schema: DatasetSchema, path) -> None:
    """Write (n, d) codes as a table `load_dataset` reads back."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(schema.names)
        writer.writerows(rows.tolist())
