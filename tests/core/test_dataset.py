"""Dataset/Schema semantics: validation, derivation, fingerprints."""

import numpy as np
import pytest

from repro.core.dataset import Dataset, FieldRole, FieldSpec, Schema, SchemaError


class TestFieldSpec:
    def test_validates_matching_column(self):
        spec = FieldSpec("x", np.dtype(np.float64), shape=(3,))
        spec.validate_column(np.zeros((5, 3)))

    def test_rejects_wrong_shape(self):
        spec = FieldSpec("x", np.dtype(np.float64), shape=(3,))
        with pytest.raises(SchemaError, match="shape"):
            spec.validate_column(np.zeros((5, 4)))

    def test_rejects_wrong_dtype(self):
        spec = FieldSpec("x", np.dtype(np.float64))
        with pytest.raises(SchemaError, match="dtype"):
            spec.validate_column(np.zeros(5, dtype=np.float32))

    def test_rejects_scalar(self):
        spec = FieldSpec("x", np.dtype(np.float64))
        with pytest.raises(SchemaError, match="expected ndarray"):
            spec.validate_column(np.float64(1.0))
        with pytest.raises(SchemaError, match="sample axis"):
            spec.validate_column(np.array(1.0))

    def test_category_enforcement(self):
        spec = FieldSpec("c", np.dtype(np.int64), categories=(0, 1))
        spec.validate_column(np.asarray([0, 1, 1]))
        with pytest.raises(SchemaError, match="categories"):
            spec.validate_column(np.asarray([0, 2]))

    def test_with_returns_modified_copy(self):
        spec = FieldSpec("x", np.dtype(np.float64))
        new = spec.with_(units="K", sensitive=True)
        assert new.units == "K" and new.sensitive
        assert spec.units is None  # original untouched


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema([FieldSpec("x", np.dtype(np.float64))] * 2)

    def test_role_queries(self, small_dataset):
        schema = small_dataset.schema
        assert schema.feature_names == ["x1", "x2", "grid"]
        assert schema.label_names == ["label"]
        assert [f.name for f in schema.by_role(FieldRole.IDENTIFIER)] == ["sample_id"]

    def test_add_drop_select_replace(self, small_dataset):
        schema = small_dataset.schema
        bigger = schema.add(FieldSpec("new", np.dtype(np.float64)))
        assert "new" in bigger and "new" not in schema
        smaller = schema.drop("x1")
        assert "x1" not in smaller
        replaced = schema.replace(schema["x1"].with_(units="m"))
        assert replaced["x1"].units == "m"

    def test_drop_unknown_raises(self, small_dataset):
        with pytest.raises(SchemaError, match="unknown"):
            small_dataset.schema.drop("nope")

    def test_equality(self, small_dataset):
        clone = Schema(list(small_dataset.schema))
        assert clone == small_dataset.schema


class TestDataset:
    def test_validation_on_construction(self, small_dataset):
        small_dataset.validate()

    def test_ragged_columns_rejected(self):
        with pytest.raises(SchemaError, match="disagree"):
            Dataset.from_arrays({"a": np.zeros(3), "b": np.zeros(4)})

    def test_undeclared_column_rejected(self, small_dataset):
        columns = dict(small_dataset.columns)
        columns["extra"] = np.zeros(small_dataset.n_samples)
        with pytest.raises(SchemaError, match="undeclared"):
            Dataset(columns, small_dataset.schema)

    def test_missing_column_rejected(self, small_dataset):
        columns = dict(small_dataset.columns)
        del columns["x1"]
        with pytest.raises(SchemaError, match="missing"):
            Dataset(columns, small_dataset.schema)

    def test_take_by_indices(self, small_dataset):
        subset = small_dataset.take(np.asarray([3, 1, 4]))
        assert subset.n_samples == 3
        assert subset["sample_id"].tolist() == [3, 1, 4]

    def test_take_by_boolean_mask(self, small_dataset):
        mask = small_dataset["label"] == 0
        subset = small_dataset.take(mask)
        assert (subset["label"] == 0).all()

    def test_take_bad_mask_length(self, small_dataset):
        with pytest.raises(SchemaError, match="mask"):
            small_dataset.take(np.asarray([True, False]))

    def test_with_column_add_and_replace(self, small_dataset):
        spec = FieldSpec("x3", np.dtype(np.float64))
        grown = small_dataset.with_column(spec, np.zeros(small_dataset.n_samples))
        assert "x3" in grown
        with pytest.raises(SchemaError, match="already exists"):
            grown.with_column(spec, np.ones(grown.n_samples))
        replaced = grown.with_column(spec, np.ones(grown.n_samples), replace=True)
        assert (replaced["x3"] == 1).all()

    def test_drop_and_select_columns(self, small_dataset):
        dropped = small_dataset.drop_columns("grid")
        assert "grid" not in dropped

    def test_feature_matrix_scalar_numeric_only(self, small_dataset):
        matrix = small_dataset.feature_matrix()
        # grid (rank-2) excluded; x1 and x2 included
        assert matrix.shape == (small_dataset.n_samples, 2)

    def test_nbytes_positive(self, small_dataset):
        assert small_dataset.nbytes > 0


class TestFingerprint:
    def test_deterministic(self, small_dataset):
        assert small_dataset.fingerprint() == small_dataset.fingerprint()

    def test_sensitive_to_values(self, small_dataset):
        changed = small_dataset.with_column(
            small_dataset.schema["x1"],
            small_dataset["x1"] + 1e-9,
            replace=True,
        )
        assert changed.fingerprint() != small_dataset.fingerprint()

    def test_sensitive_to_column_order(self, small_dataset):
        names = list(small_dataset.schema.names)[::-1]
        reordered = Dataset(
            {n: small_dataset[n] for n in names},
            Schema(small_dataset.schema[n] for n in names),
            small_dataset.metadata,
        )
        assert reordered.fingerprint() != small_dataset.fingerprint()

    def test_sensitive_to_role(self, small_dataset):
        relabeled = Dataset(
            small_dataset.columns,
            small_dataset.schema.replace(
                small_dataset.schema["x1"].with_(role=FieldRole.LABEL)
            ),
            small_dataset.metadata,
        )
        assert relabeled.fingerprint() != small_dataset.fingerprint()

    def test_row_subset_changes_fingerprint(self, small_dataset):
        assert small_dataset.head(10).fingerprint() != small_dataset.fingerprint()
