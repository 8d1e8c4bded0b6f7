import zipfile

import numpy as np
import pytest

from unisca import matio
from unisca.embedio import EmbeddingTable, read_dictionary, read_vec_text
from unisca.numerics import ValidationError


class TestVecText:
    def test_minimal_instance(self, tmp_path):
        p = tmp_path / "v.vec"
        p.write_text("2 3\na 1 2 3\nb 4 5 6\n")
        t = read_vec_text(str(p))
        assert t.tokens == ["a", "b"]
        np.testing.assert_array_equal(t.matrix, [[1, 2, 3], [4, 5, 6]])

    def test_dimension_mismatch_names_line(self, tmp_path):
        p = tmp_path / "v.vec"
        p.write_text("2 3\na 1 2 3\nb 4 5\n")
        with pytest.raises(ValidationError, match=":3"):
            read_vec_text(str(p))

    @pytest.mark.parametrize("end", [" \n", "\r\n", " \r\n"])
    def test_trailing_whitespace_ignored(self, tmp_path, end):
        p = tmp_path / "v.vec"
        p.write_bytes(f"2 3{end}a 1 2 3{end}b 4 5 6{end}".encode())
        t = read_vec_text(str(p))
        assert t.tokens == ["a", "b"]
        np.testing.assert_array_equal(t.matrix, [[1, 2, 3], [4, 5, 6]])

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "v.vec"
        p.write_text("3\na 1 2 3\n")
        with pytest.raises(ValidationError, match="header"):
            read_vec_text(str(p))

    def test_negative_header_count(self, tmp_path):
        p = tmp_path / "v.vec"
        p.write_text("-1 3\na 1 2 3\n")
        with pytest.raises(ValidationError, match="negative size in header"):
            read_vec_text(str(p))

    def test_non_numeric_field(self, tmp_path):
        p = tmp_path / "v.vec"
        p.write_text("1 2\na 1 x\n")
        with pytest.raises(ValidationError, match=":2"):
            read_vec_text(str(p))

    def test_duplicate_token_warns_keeps_first(self, tmp_path):
        p = tmp_path / "v.vec"
        p.write_text("3 1\na 1\na 2\nb 3\n")
        with pytest.warns(UserWarning, match="duplicate"):
            t = read_vec_text(str(p))
        assert t.tokens == ["a", "b"]
        np.testing.assert_array_equal(t.matrix[:, 0], [1.0, 3.0])

    @pytest.mark.parametrize("text,count,held", [
        ("3 2\na 1 2\nb 3 4\n", 3, 2), ("1 2\n", 1, 0),
        ("4 1\na 1\na 2\nb 3\n", 4, 3)], ids=["short", "empty", "duplicate"])
    @pytest.mark.filterwarnings("ignore:.*duplicate token")
    def test_file_shorter_than_header_rejected(self, tmp_path, text, count, held):
        # A duplicate line counts as one of the header's rows.
        p = tmp_path / "v.vec"
        p.write_text(text)
        with pytest.raises(ValidationError, match=(
                f"v.vec: header states {count} rows, file ends after {held}")):
            read_vec_text(str(p))

    def test_lines_after_header_count_ignored(self, tmp_path):
        p = tmp_path / "v.vec"
        p.write_text("1 2\na 1 2\nnot a row\n")
        t = read_vec_text(str(p))
        assert t.tokens == ["a"]

    def test_duplicate_tokens_rejected(self, rng):
        with pytest.raises(ValidationError):
            EmbeddingTable(tokens=["a", "a"], matrix=rng.normal(size=(2, 2)))


class TestDictionary:
    def test_multi_translation(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("0 3\n0 4\n2 1\n")
        d = read_dictionary(str(p))
        assert d == {0: {3, 4}, 2: {1}}

    def test_bad_columns(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("0 1 2\n")
        with pytest.raises(ValidationError, match="line 1"):
            read_dictionary(str(p))


class TestMatio:
    def test_json_layout(self, tmp_path):
        path = str(tmp_path / "doc.json")
        matio.write_json(path, {"b": [1, 2], "a": {"y": None, "x": 0.5}})
        assert (tmp_path / "doc.json").read_text() == (
            '{\n  "a": {\n    "x": 0.5,\n    "y": null\n  },\n'
            '  "b": [\n    1,\n    2\n  ]\n}\n')
        assert matio.read_json(path) == {"a": {"x": 0.5, "y": None}, "b": [1, 2]}

    @pytest.mark.parametrize("rows", [5, 0])
    def test_csv_roundtrip(self, tmp_path, rng, rows):
        a = rng.normal(size=(rows, 3))
        a[:2, 0] = [np.nan, -np.inf][:rows]
        path = str(tmp_path / "t.csv")
        matio.write_csv(path, a, ["x", "y", "z"])
        back, columns = matio.read_csv(path)
        assert columns == ["x", "y", "z"]
        assert back.shape == (rows, 3) and back.tobytes() == a.tobytes()

    @pytest.mark.parametrize("text,message", [
        ("", "no header"), ("a,b\n1.0\n", "does not hold 2 values"),
        ("a,b\n1.0,x\n", "non-numeric")])
    def test_csv_rejects_malformed_files(self, tmp_path, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(ValidationError, match=message):
            matio.read_csv(str(path))

    def test_roundtrip_keeps_shape_dtype_and_bytes(self, tmp_path, rng):
        arrays = {"A": rng.normal(size=(6, 3)), "m": rng.normal(size=4),
                  "e": np.zeros((0, 2)), "idx": np.arange(5, dtype=np.int64)}
        path = str(tmp_path / matio.ARCHIVE)
        matio.write_arrays(path, arrays)
        back = matio.read_arrays(path, ["A", "m", "e", "idx"],
                                 integers=("idx",))
        for name, a in arrays.items():
            assert back[name].shape == a.shape, name
            assert back[name].dtype == a.dtype, name
            assert back[name].tobytes() == a.tobytes(), name
        assert sorted(matio.read_arrays(path, ["m"])) == ["m"]
        with zipfile.ZipFile(path) as archive:
            assert {i.compress_type for i in archive.infolist()} == {
                zipfile.ZIP_STORED}

    def test_integer_dtype(self, tmp_path):
        a = np.arange(10, dtype=np.int64).reshape(5, 2)
        path = str(tmp_path / matio.ARCHIVE)
        matio.write_arrays(path, {"idx": a})
        back = matio.read_arrays(path, ["idx"], integers=("idx",))["idx"]
        assert back.dtype == np.int64 and np.array_equal(a, back)

    @pytest.mark.parametrize("a,integers,fault", [
        (np.zeros(3, dtype=np.float32), (), "expected float64, got float32"),
        (np.arange(3), (), "expected float64, got int64"),
        (np.arange(3.0), ("x",), "expected int64, got float64"),
        (np.arange(3, dtype=np.int32), ("x",), "expected int64, got int32")])
    def test_other_dtypes_are_refused(self, tmp_path, a, integers, fault):
        path = str(tmp_path / matio.ARCHIVE)
        matio.write_arrays(path, {"x": a})
        with pytest.raises(ValidationError) as info:
            matio.read_arrays(path, ["x"], integers=integers)
        assert str(info.value) == f"{path}: x: {fault}"

    def test_size_mismatch_detected(self, tmp_path, rng):
        # A truncated archive.
        path = tmp_path / matio.ARCHIVE
        matio.write_arrays(str(path), {"A": rng.normal(size=(4, 2))})
        path.write_bytes(path.read_bytes()[:-30])
        with pytest.raises(ValidationError) as info:
            matio.read_arrays(str(path), ["A"])
        assert str(info.value) == (f"{path}: not a numpy archive of numeric "
                                   f"arrays: File is not a zip file")

    def test_corrupt_bytes_fail_the_crc(self, tmp_path, rng):
        path = tmp_path / matio.ARCHIVE
        a = rng.normal(size=(4, 2))
        matio.write_arrays(str(path), {"A": a})
        raw = bytearray(path.read_bytes())
        raw[raw.index(a.tobytes()) + 3] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(ValidationError,
                           match="Bad CRC-32 for file 'A.npy'"):
            matio.read_arrays(str(path), ["A"])

    @pytest.mark.parametrize("content", [b"", b"0.5 1.5\n",
                                         b"\x93NUMPY not an archive"],
                             ids=["empty", "text", "npy"])
    def test_a_file_that_is_no_zip_is_refused(self, tmp_path, content):
        path = tmp_path / matio.ARCHIVE
        path.write_bytes(content)
        with pytest.raises(ValidationError) as info:
            matio.read_arrays(str(path), ["A"])
        assert str(info.value) == (f"{path}: not a numpy archive of numeric "
                                   f"arrays: File is not a zip file")

    def test_an_object_array_is_refused_and_never_unpickled(self, tmp_path):
        path = str(tmp_path / matio.ARCHIVE)
        np.savez(path, A=np.array([_Trap()], dtype=object))
        _UNPICKLED.clear()
        with pytest.raises(ValidationError) as info:
            matio.read_arrays(path, ["A"])
        assert str(info.value) == (
            f"{path}: not a numpy archive of numeric arrays: Object arrays "
            f"cannot be loaded when allow_pickle=False")
        assert not isinstance(info.value.__cause__, ValidationError)
        assert _UNPICKLED == []
        with np.load(path, allow_pickle=True) as archive:
            archive["A"]  # the trap springs once unpickling is allowed
        assert _UNPICKLED == ["unpickled"]

    def test_a_missing_name_is_refused(self, tmp_path, rng):
        path = str(tmp_path / matio.ARCHIVE)
        matio.write_arrays(path, {"A": rng.normal(size=(2, 2))})
        with pytest.raises(ValidationError) as info:
            matio.read_arrays(path, ["A", "B", "C"])
        assert str(info.value) == f"{path}: missing arrays ['B', 'C']"

    def test_missing_file(self, tmp_path):
        path = str(tmp_path / "nope.npz")
        with pytest.raises(ValidationError) as info:
            matio.read_arrays(path, ["A"])
        assert str(info.value) == f"{path}: No such file or directory"


_UNPICKLED = []


def _record_unpickling():
    _UNPICKLED.append("unpickled")


class _Trap:
    """An object whose unpickling is recorded in _UNPICKLED."""

    def __reduce__(self):
        return _record_unpickling, ()
