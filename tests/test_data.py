import numpy as np
import pytest

from coxmix.data import (
    DataError,
    Dataset,
    load_dataset,
    save_dataset,
    standardize_covariates,
)


class TestDataset:
    def test_basic_construction(self, small_data):
        assert small_data.n == 5
        assert small_data.p == 2

    def test_rejects_non_integral_status(self):
        # a cast to integers would read 0.5 and 1.7 as 0 and 1
        with pytest.raises(DataError, match="status values must be 0 or 1"):
            Dataset(y=[1.0, 2.0, 3.0], delta=[0.5, 1.7, 1], x=np.zeros((3, 1)))

    def test_status_stored_as_integers(self):
        data = Dataset(y=[1.0, 2.0], delta=[1.0, False], x=np.zeros((2, 1)))
        assert data.delta.dtype == np.int64
        assert data.delta.tolist() == [1, 0]

    def test_arrays_read_only(self, small_data):
        with pytest.raises(ValueError):
            small_data.y[0] = 99.0

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            Dataset(y=np.array([]), delta=np.array([]), x=np.empty((0, 1)))

    def test_rejects_shape_mismatches(self):
        with pytest.raises(DataError):
            Dataset(y=np.array([1.0, 2.0]), delta=np.array([1]), x=np.zeros((2, 1)))
        with pytest.raises(DataError):
            Dataset(y=np.array([1.0, 2.0]), delta=np.array([1, 0]), x=np.zeros((3, 1)))

    def test_rejects_bad_values(self):
        with pytest.raises(DataError):
            Dataset(y=np.array([1.0, np.inf]), delta=np.array([1, 1]), x=np.zeros((2, 1)))
        with pytest.raises(DataError):
            Dataset(y=np.array([1.0, -2.0]), delta=np.array([1, 1]), x=np.zeros((2, 1)))
        with pytest.raises(DataError):
            Dataset(y=np.array([1.0, 2.0]), delta=np.array([1, 2]), x=np.zeros((2, 1)))
        with pytest.raises(DataError):
            Dataset(y=np.array([1.0, 2.0]), delta=np.array([0, 0]), x=np.zeros((2, 1)))
        with pytest.raises(DataError, match="status values must be 0 or 1"):
            Dataset(y=np.array([1.0, 2.0]), delta=np.array([1.0, np.nan]), x=np.zeros((2, 1)))
        with pytest.raises(DataError):
            Dataset(y=np.array([1.0, 2.0]), delta=np.array([1, 1]), x=np.array([[1.0], [np.nan]]))


class TestCsvRoundTrip:
    def test_save_then_load_identical(self, small_data, tmp_path):
        path = str(tmp_path / "d.csv")
        save_dataset(small_data, path, covariate_names=["age", "size"])
        back = load_dataset(path)
        assert np.array_equal(back.y, small_data.y)
        assert np.array_equal(back.delta, small_data.delta)
        assert np.array_equal(back.x, small_data.x)

    def test_covariate_selection(self, small_data, tmp_path):
        path = str(tmp_path / "d.csv")
        save_dataset(small_data, path, covariate_names=["age", "size"])
        narrowed = load_dataset(path, covariate_cols=["size"])
        assert narrowed.p == 1
        assert np.array_equal(narrowed.x[:, 0], small_data.x[:, 1])

    def test_missing_column_errors(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,x1\n1.0,2.0\n")
        with pytest.raises(DataError, match="status"):
            load_dataset(str(path))

    @pytest.mark.parametrize(
        "header, repeated",
        [("time,status,x1,x1", "'x1'"), ("time,status,x1,time", "'time'"), ("status,x,time,x,status", "'status', 'x'")],
    )
    def test_repeated_header_column_errors(self, tmp_path, header, repeated):
        path = tmp_path / "bad.csv"
        fields = len(header.split(","))
        path.write_text(header + "\n" + ",".join(["1"] * fields) + "\n")
        with pytest.raises(DataError, match=f"bad\\.csv: header names {repeated} more than once"):
            load_dataset(str(path))

    def test_ragged_row_errors(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,status,x1\n1.0,1\n")
        with pytest.raises(DataError, match="row 1"):
            load_dataset(str(path))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_covariate_names_row_and_column(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"time,status,x1,x2\n1.0,1,0.5,0.1\n2.0,0,0.2,{cell}\n")
        with pytest.raises(DataError, match=r"bad\.csv: row 2, column 'x2': non-finite covariate"):
            load_dataset(str(path))

    def test_unparseable_cell_errors(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,status,x1\n1.0,1,abc\n")
        with pytest.raises(DataError, match="cannot parse"):
            load_dataset(str(path))

    def test_bad_status_errors(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,status,x1\n1.0,2,0.5\n")
        with pytest.raises(DataError, match="status"):
            load_dataset(str(path))

    def test_empty_and_headerless(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_dataset(str(path))
        path.write_text("time,status,x1\n")
        with pytest.raises(DataError, match="no data rows"):
            load_dataset(str(path))

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_dataset(str(tmp_path / "nope.csv"))

    def test_save_name_length_mismatch(self, small_data, tmp_path):
        with pytest.raises(ValueError):
            save_dataset(small_data, str(tmp_path / "d.csv"), covariate_names=["only_one"])


class TestStandardization:
    def test_centers_and_scales(self, small_data):
        std, record = standardize_covariates(small_data)
        assert np.allclose(std.x.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(std.x.std(axis=0, ddof=1), 1.0, atol=1e-12)
        assert np.allclose(std.x * record.scale + record.mean, small_data.x, atol=1e-12)

    def test_constant_column_passthrough(self):
        data = Dataset(
            y=np.array([1.0, 2.0, 3.0]),
            delta=np.array([1, 1, 1]),
            x=np.array([[2.0, 1.0], [2.0, 2.0], [2.0, 3.0]]),
        )
        with pytest.warns(UserWarning, match="constant"):
            std, record = standardize_covariates(data)
        assert record.scale[0] == 1.0
        assert record.mean[0] == 2.0
        assert np.allclose(std.x[:, 0], 0.0)
        assert np.allclose(std.x[:, 1], [-1.0, 0.0, 1.0])

    def test_original_beta_maps_linear_predictor(self, small_data):
        std, record = standardize_covariates(small_data)
        beta_std = np.array([0.7, -1.3])
        beta_orig = record.original_beta(beta_std)
        lp_std = std.x @ beta_std
        lp_orig = small_data.x @ beta_orig - record.linear_offset(beta_std)
        assert np.allclose(lp_std, lp_orig, atol=1e-12)

    def test_single_row(self):
        data = Dataset(y=np.array([1.0]), delta=np.array([1]), x=np.array([[5.0]]))
        with pytest.warns(UserWarning):
            std, record = standardize_covariates(data)
        assert record.scale[0] == 1.0
        assert std.x[0, 0] == 0.0
