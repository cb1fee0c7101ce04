"""Dataset, schema, and metadata abstractions.

The DRAI framework moves *datasets* through processing stages.  A
:class:`Dataset` is a columnar, in-memory collection: every column is a NumPy
array whose leading axis indexes samples.  Columns are described by
:class:`FieldSpec` entries in a :class:`Schema`, which carries the information
the readiness assessor needs (roles, units, sensitivity, categorical domains).

Design notes
------------
* Columnar layout keeps per-field preprocessing (normalize one variable,
  one-hot one category column) vectorized and cache-friendly, per the
  HPC-Python guidance of operating on contiguous arrays rather than Python
  object loops.
* Variable-length scientific records (fusion shots, sequences before tiling)
  live in domain containers until the *structure* stage fixes their shape;
  ``Dataset`` deliberately requires rectangular columns so the shard stage
  can compute exact byte layouts.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.provenance.record import contiguous_bytes

__all__ = [
    "Modality",
    "FieldRole",
    "FieldSpec",
    "Schema",
    "DatasetMetadata",
    "Dataset",
    "SchemaError",
]


class SchemaError(ValueError):
    """Raised when data does not conform to its declared schema."""


class Modality(enum.Enum):
    """Data modality, matching Table 1's Modality column."""

    TABULAR = "tabular"
    GRID = "spatial-temporal grid"
    TIME_SERIES = "time-series"
    MULTICHANNEL = "multi-channel signals"
    SEQUENCE = "sequence"
    IMAGE = "image"
    GRAPH = "graph"


class FieldRole(enum.Enum):
    """What part a field plays in training."""

    FEATURE = "feature"
    LABEL = "label"
    COORDINATE = "coordinate"
    IDENTIFIER = "identifier"
    METADATA = "metadata"
    WEIGHT = "weight"


@dataclasses.dataclass(frozen=True)
class FieldSpec:
    """Declarative description of one dataset column.

    Parameters
    ----------
    name:
        Column name; unique within a schema.
    dtype:
        NumPy dtype the column must have (compared by kind+itemsize via
        ``np.dtype`` equality).
    shape:
        Per-sample shape, i.e. the column array has shape
        ``(n_samples, *shape)``.  ``()`` means scalar per sample.
    role:
        Training role of the field.
    units:
        Physical units string (``"K"``, ``"A"``, ``"m/s"``); ``None`` for
        dimensionless or non-physical fields.  Unit consistency is a
        readiness criterion (Section 2.1).
    sensitive:
        ``True`` when the field contains PHI/PII and must be anonymized
        before the dataset can pass governance checks (Section 3.3).
    categories:
        For categorical fields, the allowed values.  Enables one-hot
        encoding and schema validation.
    description:
        Free-text documentation, surfaced in generated datasheets.
    """

    name: str
    dtype: np.dtype
    shape: Tuple[int, ...] = ()
    role: FieldRole = FieldRole.FEATURE
    units: Optional[str] = None
    sensitive: bool = False
    categories: Optional[Tuple[object, ...]] = None
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "dtype", np.dtype(self.dtype))
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        if self.categories is not None:
            object.__setattr__(self, "categories", tuple(self.categories))

    def validate_column(self, values: np.ndarray) -> None:
        """Raise :class:`SchemaError` unless *values* conforms to this spec."""
        if not isinstance(values, np.ndarray):
            raise SchemaError(f"field {self.name!r}: expected ndarray, got {type(values).__name__}")
        if values.ndim < 1:
            raise SchemaError(f"field {self.name!r}: column must have a sample axis")
        if tuple(values.shape[1:]) != self.shape:
            raise SchemaError(
                f"field {self.name!r}: per-sample shape {values.shape[1:]} != declared {self.shape}"
            )
        if np.dtype(values.dtype) != self.dtype:
            raise SchemaError(
                f"field {self.name!r}: dtype {values.dtype} != declared {self.dtype}"
            )
        if self.categories is not None and values.size:
            allowed = set(self.categories)
            present = set(np.unique(values).tolist())
            extra = present - allowed
            if extra:
                raise SchemaError(
                    f"field {self.name!r}: values outside declared categories: {sorted(map(repr, extra))[:5]}"
                )

    def with_(self, **changes: object) -> "FieldSpec":
        """Return a copy with *changes* applied (dataclass ``replace``)."""
        return dataclasses.replace(self, **changes)


class Schema:
    """Ordered collection of :class:`FieldSpec`, one per dataset column."""

    def __init__(self, fields: Iterable[FieldSpec]):
        self._fields: Dict[str, FieldSpec] = {}
        for spec in fields:
            if spec.name in self._fields:
                raise SchemaError(f"duplicate field name {spec.name!r}")
            self._fields[spec.name] = spec

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._fields)

    def __iter__(self) -> Iterator[FieldSpec]:
        return iter(self._fields.values())

    def __contains__(self, name: str) -> bool:
        return name in self._fields

    def __getitem__(self, name: str) -> FieldSpec:
        try:
            return self._fields[name]
        except KeyError:
            raise SchemaError(f"no field named {name!r} in schema") from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return f"Schema({[f.name for f in self]})"

    # -- queries ------------------------------------------------------------
    @property
    def names(self) -> List[str]:
        return list(self._fields)

    def by_role(self, role: FieldRole) -> List[FieldSpec]:
        """Fields with the given role, in schema order."""
        return [f for f in self if f.role is role]

    @property
    def feature_names(self) -> List[str]:
        return [f.name for f in self.by_role(FieldRole.FEATURE)]

    @property
    def label_names(self) -> List[str]:
        return [f.name for f in self.by_role(FieldRole.LABEL)]

    @property
    def sensitive_names(self) -> List[str]:
        return [f.name for f in self if f.sensitive]

    # -- evolution ----------------------------------------------------------
    def replace(self, spec: FieldSpec) -> "Schema":
        """Return a new schema with the same-named field replaced by *spec*."""
        if spec.name not in self._fields:
            raise SchemaError(f"cannot replace unknown field {spec.name!r}")
        return Schema(spec if f.name == spec.name else f for f in self)

    def add(self, spec: FieldSpec) -> "Schema":
        """Return a new schema with *spec* appended."""
        return Schema(list(self) + [spec])

    def drop(self, *names: str) -> "Schema":
        """Return a new schema without the named fields."""
        missing = [n for n in names if n not in self._fields]
        if missing:
            raise SchemaError(f"cannot drop unknown fields: {missing}")
        gone = set(names)
        return Schema(f for f in self if f.name not in gone)


@dataclasses.dataclass
class DatasetMetadata:
    """Descriptive metadata, the raw material for datasheets and registries."""

    name: str
    domain: str = "generic"
    source: str = "synthetic"
    version: str = "0"
    description: str = ""
    license: str = "unspecified"
    modality: Modality = Modality.TABULAR
    extra: Dict[str, object] = dataclasses.field(default_factory=dict)


class Dataset:
    """An in-memory columnar dataset with schema and metadata.

    Columns are NumPy arrays sharing a leading sample axis.  Instances are
    *mostly* immutable by convention: transforms return new datasets (with
    shared column arrays where unchanged) so that provenance hashing stays
    meaningful.
    """

    def __init__(
        self,
        columns: Mapping[str, np.ndarray],
        schema: Schema,
        metadata: Optional[DatasetMetadata] = None,
        *,
        validate: bool = True,
    ):
        self._columns: Dict[str, np.ndarray] = {k: np.asarray(v) for k, v in columns.items()}
        self.schema = schema
        self.metadata = metadata or DatasetMetadata(name="unnamed")
        lengths = {v.shape[0] for v in self._columns.values()}
        if len(lengths) > 1:
            raise SchemaError(f"columns disagree on sample count: {sorted(lengths)}")
        self._n = lengths.pop() if lengths else 0
        if validate:
            self.validate()

    # -- construction helpers ------------------------------------------------
    @classmethod
    def from_arrays(cls, columns: Mapping[str, np.ndarray]) -> "Dataset":
        """Infer a schema from the arrays themselves (shape + dtype), every
        column a feature."""
        fields = [
            FieldSpec(
                name=name,
                dtype=np.asarray(arr).dtype,
                shape=tuple(np.asarray(arr).shape[1:]),
                role=FieldRole.FEATURE,
            )
            for name, arr in columns.items()
        ]
        return cls(columns, Schema(fields))

    # -- basic protocol --------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    @property
    def n_samples(self) -> int:
        return self._n

    @property
    def columns(self) -> Dict[str, np.ndarray]:
        """The column mapping.  Treat as read-only."""
        return self._columns

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(f"dataset {self.metadata.name!r} has no column {name!r}") from None

    def __repr__(self) -> str:
        return (
            f"Dataset(name={self.metadata.name!r}, n_samples={self._n}, "
            f"columns={list(self._columns)})"
        )

    # -- validation -------------------------------------------------------------
    def validate(self) -> None:
        """Check every column against the schema; raise :class:`SchemaError`."""
        declared = set(self.schema.names)
        actual = set(self._columns)
        if declared != actual:
            raise SchemaError(
                f"schema/column mismatch: missing={sorted(declared - actual)}, "
                f"undeclared={sorted(actual - declared)}"
            )
        for spec in self.schema:
            spec.validate_column(self._columns[spec.name])

    # -- derivation (all return new Dataset objects) -----------------------------
    def with_column(
        self, spec: FieldSpec, values: np.ndarray, *, replace: bool = False
    ) -> "Dataset":
        """Return a dataset with a column added (or replaced when *replace*)."""
        values = np.asarray(values)
        if spec.name in self._columns and not replace:
            raise SchemaError(f"column {spec.name!r} already exists (pass replace=True)")
        cols = dict(self._columns)
        cols[spec.name] = values
        if spec.name in self.schema:
            schema = self.schema.replace(spec)
        else:
            schema = self.schema.add(spec)
        return Dataset(cols, schema, self.metadata)

    def drop_columns(self, *names: str) -> "Dataset":
        cols = {k: v for k, v in self._columns.items() if k not in set(names)}
        return Dataset(cols, self.schema.drop(*names), self.metadata)

    def take(self, indices: np.ndarray) -> "Dataset":
        """Row subset/reorder by integer indices (or boolean mask)."""
        indices = np.asarray(indices)
        if indices.dtype == bool:
            if indices.shape != (self._n,):
                raise SchemaError("boolean mask length must equal n_samples")
            indices = np.flatnonzero(indices)
        cols = {k: v[indices] for k, v in self._columns.items()}
        return Dataset(cols, self.schema, self.metadata, validate=False)

    def head(self, n: int) -> "Dataset":
        return self.take(np.arange(min(n, self._n)))

    # -- features / labels convenience -----------------------------------------
    def feature_matrix(self) -> np.ndarray:
        """Stack scalar feature columns into an ``(n, k)`` float64 design matrix.

        Only scalar-per-sample feature fields participate; higher-rank
        features (grids, tiles) must be flattened explicitly by the caller.
        """
        cols = [
            self[f.name].astype(np.float64, copy=False)
            for f in self.schema.by_role(FieldRole.FEATURE)
            if f.shape == () and np.issubdtype(f.dtype, np.number)
        ]
        if not cols:
            return np.empty((self._n, 0), dtype=np.float64)
        return np.stack(cols, axis=1)

    # -- accounting ---------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Total payload bytes across all columns."""
        return sum(int(v.nbytes) for v in self._columns.values())

    def fingerprint(self) -> str:
        """Deterministic content hash of schema + column bytes.

        Used by the provenance subsystem to identify dataset states; any
        change to values, dtypes, ordering, or metadata-relevant schema
        yields a different digest.
        """
        digest = hashlib.sha256()
        for spec in self.schema:
            digest.update(spec.name.encode())
            digest.update(str(spec.dtype).encode())
            digest.update(repr(spec.shape).encode())
            digest.update(spec.role.value.encode())
            column = np.ascontiguousarray(self._columns[spec.name])
            if column.dtype.kind == "O":
                for item in column.ravel().tolist():
                    digest.update(repr(item).encode())
            else:
                digest.update(contiguous_bytes(column))
        return digest.hexdigest()
