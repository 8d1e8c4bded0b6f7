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

    def test_roundtrip_and_header(self, tmp_path, rng):
        a = rng.normal(size=(6, 3))
        matio.write_matrix(str(tmp_path), "A", a, role="test")
        back, header = matio.read_matrix(str(tmp_path), "A")
        assert np.array_equal(a, back)
        assert header == {"name": "A", "shape": [6, 3], "dtype": "<f8",
                          "order": "C", "role": "test"}

    def test_integer_dtype(self, tmp_path):
        a = np.arange(10, dtype=np.int64).reshape(5, 2)
        matio.write_matrix(str(tmp_path), "idx", a, dtype="<i8")
        back, _ = matio.read_matrix(str(tmp_path), "idx")
        assert back.dtype == np.int64 and np.array_equal(a, back)

    def test_size_mismatch_detected(self, tmp_path, rng):
        matio.write_matrix(str(tmp_path), "A", rng.normal(size=(4, 2)))
        with open(tmp_path / "A.bin", "ab") as fh:
            fh.write(b"\0" * 8)
        with pytest.raises(ValidationError):
            matio.read_matrix(str(tmp_path), "A")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            matio.read_matrix(str(tmp_path), "nope")
