import io
import json
import math

import numpy as np
import pytest

from qramprep.errors import (
    AllZeroMatrixError,
    EmptyMatrixError,
    InvalidDimensionsError,
    InvalidSeedError,
    InvalidZeroFractionError,
    ParseError,
)
from qramprep.matrix import (
    ComplexMatrix,
    load_matrix,
    parse_complex_literal,
    random_matrix,
    scaled_moduli,
    squared_moduli,
)

EXAMPLE_JSON = json.dumps(
    {
        "rows": 2,
        "cols": 4,
        "entries": [[2, 1], [-1, 2], [3, 0], [0, -1], [1, -1], [0, 2], [-2, 1], [1, 1]],
    }
)
EXAMPLE_CSV = "2+1i,-1+2i,3,-i\n1-1i,2i,-2+1i,1+1i\n"


class TestLoadMatrix:
    def test_json_example_dimensions(self):
        m = load_matrix(EXAMPLE_JSON, "json")
        assert (m.rows, m.cols, m.size, m.depth) == (2, 4, 8, 3)
        assert m.entries.tolist() == [
            2 + 1j, -1 + 2j, 3 + 0j, -1j, 1 - 1j, 2j, -2 + 1j, 1 + 1j,
        ]

    def test_csv_matches_json(self):
        assert np.array_equal(
            load_matrix(EXAMPLE_CSV, "csv").entries,
            load_matrix(EXAMPLE_JSON, "json").entries,
        )

    def test_bytes_input(self):
        m = load_matrix(EXAMPLE_JSON.encode(), "json")
        assert m.size == 8

    def test_all_zero_1x1_rejected(self):
        doc = json.dumps({"rows": 1, "cols": 1, "entries": [[0, 0]]})
        with pytest.raises(AllZeroMatrixError):
            load_matrix(doc, "json")

    def test_all_zero_rejected(self):
        doc = json.dumps({"rows": 2, "cols": 2, "entries": [[0, 0]] * 4})
        with pytest.raises(AllZeroMatrixError):
            load_matrix(doc, "json")

    def test_single_cell_rejected(self):
        doc = json.dumps({"rows": 1, "cols": 1, "entries": [[5, 0]]})
        with pytest.raises(InvalidDimensionsError):
            load_matrix(doc, "json")

    def test_pads_2x3_to_2x4(self):
        doc = json.dumps({"rows": 2, "cols": 3, "entries": [[1, 0]] * 6})
        m = load_matrix(doc, "json")
        assert (m.rows, m.cols) == (2, 4)
        assert (m.original_rows, m.original_cols) == (2, 3)
        assert np.array_equal(m.as_2d()[:, 3], [0, 0])

    def test_pads_3x1_rows(self):
        doc = json.dumps({"rows": 3, "cols": 1, "entries": [[1, 0]] * 3})
        m = load_matrix(doc, "json")
        assert (m.rows, m.cols) == (4, 1)
        assert m.entries[3] == 0

    def test_row_vector_allowed(self):
        doc = json.dumps({"rows": 1, "cols": 2, "entries": [[1, 0], [0, 1]]})
        assert load_matrix(doc, "json").size == 2

    def test_empty(self):
        with pytest.raises(EmptyMatrixError):
            load_matrix(json.dumps({"rows": 0, "cols": 4, "entries": []}), "json")
        with pytest.raises(EmptyMatrixError):
            load_matrix("", "csv")

    @pytest.mark.parametrize(
        "doc",
        [
            "{not json",
            json.dumps([1, 2]),
            json.dumps({"rows": 2, "cols": 2}),
            json.dumps({"rows": 2.5, "cols": 2, "entries": [[1, 0]] * 5}),
            json.dumps({"rows": 2, "cols": 2, "entries": [[1, 0]] * 3}),
            json.dumps({"rows": 1, "cols": 2, "entries": [[1, 0], [1]]}),
            json.dumps({"rows": 1, "cols": 2, "entries": [[1, 0], ["x", 0]]}),
            json.dumps({"rows": 1, "cols": 2, "entries": [[1, 0], [float("nan"), 0]]})
            .replace("NaN", "1e999"),
        ],
    )
    def test_malformed_json(self, doc):
        with pytest.raises(ParseError):
            load_matrix(doc, "json")

    def test_integer_beyond_float_range(self):
        # a bare OverflowError used to escape from the int -> float conversion
        doc = '{"rows": 1, "cols": 2, "entries": [[1' + "0" * 400 + ', 0], [1, 0]]}'
        with pytest.raises(ParseError, match="entry 0 real part"):
            load_matrix(doc, "json")

    def test_integer_past_digit_limit(self):
        doc = '{"rows": 1, "cols": 2, "entries": [[1' + "0" * 5000 + ', 0], [1, 0]]}'
        with pytest.raises(ParseError):
            load_matrix(doc, "json")

    @pytest.mark.parametrize(
        "bad,message",
        [
            ([[1, 0], [True, 0]], "entry 1 real part"),
            ([[1, 0], [0, None]], "entry 1 imaginary part"),
            ([[1, 0], [1, 1e999], ["x", 0], [0, 0]], "entry 1 imaginary part"),
            ([[1, 0], [0, 0], [1, 2, 3], [0, 0]], "entry 2 must be a"),
            ([[1, 0], 5], "entry 1 must be a"),
        ],
    )
    def test_first_bad_entry_named(self, bad, message):
        cols = len(bad)
        doc = json.dumps({"rows": 1, "cols": cols, "entries": bad}).replace("Infinity", "1e999")
        with pytest.raises(ParseError, match=message):
            load_matrix(doc, "json")

    def test_large_integers_match_float_conversion(self):
        big = [2 ** 60 + 1, 10 ** 30, -(2 ** 70) - 3]
        doc = json.dumps({"rows": 1, "cols": 4, "entries": [[b, 1] for b in big] + [[0.5, -0.0]]})
        m = load_matrix(doc, "json")
        assert m.entries.tolist() == [complex(float(b), 1.0) for b in big] + [0.5 + 0j]
        assert math.copysign(1.0, m.entries[3].imag) == -1.0

    def test_csv_ragged(self):
        with pytest.raises(ParseError):
            load_matrix("1,2\n3\n", "csv")

    def test_csv_bad_literal(self):
        with pytest.raises(ParseError):
            load_matrix("1,2\n3,4x\n", "csv")

    @pytest.mark.parametrize("fmt", ["tsv", "yaml"])
    def test_unknown_format(self, fmt):
        with pytest.raises(ParseError):
            load_matrix(EXAMPLE_JSON, fmt)

    @pytest.mark.parametrize("source", [123, None, [1, 2]])
    def test_source_must_be_text_bytes_or_file(self, source):
        with pytest.raises(ParseError):
            load_matrix(source, "json")

    def test_file_like_source(self):
        m = load_matrix(io.StringIO(EXAMPLE_CSV), "csv")
        assert m.entries.tolist() == load_matrix(EXAMPLE_CSV, "csv").entries.tolist()


class TestComplexLiteral:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("3", 3 + 0j),
            ("-i", -1j),
            ("i", 1j),
            ("2i", 2j),
            ("1+i", 1 + 1j),
            ("-1+2i", -1 + 2j),
            ("1.5-0.5i", 1.5 - 0.5j),
            ("1e-3+2.5i", 1e-3 + 2.5j),
            (" 2 + 1i ", 2 + 1j),
        ],
    )
    def test_forms(self, text, value):
        assert parse_complex_literal(text) == value

    @pytest.mark.parametrize("text", ["", "abc", "1+", "inf", "1+2x"])
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_complex_literal(text)


class TestSquaredModuli:
    def test_example_values(self, example):
        got = squared_moduli(example)
        assert got.tolist() == [5, 5, 9, 1, 2, 4, 5, 2]
        assert math.fsum(got.tolist()) == 33

    def test_uniform(self):
        m = ComplexMatrix.from_array([[1, 1], [1, 1]])
        assert squared_moduli(m).tolist() == [1, 1, 1, 1]

    def test_matches_complex_arithmetic_oracle(self):
        m = random_matrix(8, 8, seed=11)
        oracle = [abs(complex(a)) ** 2 for a in m.entries]
        assert np.allclose(squared_moduli(m), oracle, rtol=1e-14, atol=0)

    def test_frobenius_conservation(self):
        for seed in range(5):
            m = random_matrix(16, 8, seed=seed, zero_fraction=0.3)
            compensated = math.fsum(
                a.real * a.real + a.imag * a.imag for a in map(complex, m.entries)
            )
            assert math.isclose(
                float(np.sum(squared_moduli(m))), compensated, rel_tol=1e-12
            )


class TestScaledModuli:
    @pytest.mark.parametrize("e", [-1000, -600, 0, 600, 1020])
    def test_power_of_two_scaling_is_exact(self, e):
        m = random_matrix(8, 8, seed=4, zero_fraction=0.2)
        grid = m.as_2d()
        scaled = ComplexMatrix.from_array(np.ldexp(grid.real, e) + 1j * np.ldexp(grid.imag, e))
        moduli, exponent = scaled_moduli(scaled)
        want, base = scaled_moduli(m)
        assert exponent == base + e
        assert np.array_equal(moduli, want)

    def test_ordinary_scale_keeps_the_raw_squares(self):
        # at ordinary scales the scaled squares are the raw ones times an exact power of two
        m = random_matrix(8, 8, seed=12)
        moduli, e = scaled_moduli(m)
        assert np.array_equal(np.ldexp(moduli, 2 * e), squared_moduli(m))


class TestPadding:
    def test_padded_entries_are_exact_zero(self):
        m = ComplexMatrix.from_array([[1 + 1j, 2], [3, 4], [5, 6]])
        assert (m.rows, m.cols) == (4, 2)
        assert not m.as_2d()[3, :].any()

    def test_entries_read_only(self, example):
        with pytest.raises(ValueError):
            example.entries[0] = 0

    @pytest.mark.parametrize(
        "arr", [[["a"]], [[1, "a"]], [[object()]], [[1 + 2j, {}]], [[1, 2], [3]]]
    )
    def test_non_numeric_entries_rejected(self, arr):
        with pytest.raises(ParseError):
            ComplexMatrix.from_array(arr)

    @pytest.mark.parametrize(
        "arr", [[[None, 1]], [[1, 2], [3, None]], [None, 1.0], np.array([[1, None]], dtype=object)]
    )
    def test_none_entry_named_not_a_number(self, arr):
        # numpy turns None into NaN; the refusal must not call it non-finite
        with pytest.raises(ParseError, match="not a number: None"):
            ComplexMatrix.from_array(arr)

    @pytest.mark.parametrize("arr", [[[math.nan, 1]], [[1, complex(0, math.inf)]]])
    def test_non_finite_entry_named_non_finite(self, arr):
        with pytest.raises(ParseError, match="non-finite"):
            ComplexMatrix.from_array(arr)

    def test_huge_integer_entry_accepted(self):
        m = ComplexMatrix.from_array([[2 ** 70, 1]])
        assert m.entries.tolist() == [2.0 ** 70, 1.0]

    @pytest.mark.parametrize(
        "arr,error",
        [
            ([[math.nan]], ParseError),
            ([[0.0]], AllZeroMatrixError),
            ([[5.0]], InvalidDimensionsError),
        ],
    )
    def test_one_cell_refusals(self, arr, error):
        # the finite and all-zero checks run before the two-cell check
        with pytest.raises(error):
            ComplexMatrix.from_array(arr)

    def test_dirty_padding_rejected(self):
        with pytest.raises(InvalidDimensionsError):
            ComplexMatrix(
                rows=2,
                cols=2,
                entries=np.array([1, 0, 0, 1], dtype=np.complex128),
                original_rows=1,
                original_cols=2,
            )


class TestRandomMatrix:
    def test_deterministic(self):
        a = random_matrix(4, 4, seed=7)
        b = random_matrix(4, 4, seed=7)
        assert np.array_equal(a.entries, b.entries)

    def test_real_mode(self):
        m = random_matrix(4, 4, seed=7, real=True)
        assert not m.entries.imag.any()

    @pytest.mark.parametrize("rows,cols", [(0, 4), (4, 0), (-2, 4), (0, 0)])
    def test_needs_positive_dimensions(self, rows, cols):
        with pytest.raises(EmptyMatrixError):
            random_matrix(rows, cols)

    @pytest.mark.parametrize("seed", [-1, -(1 << 70), 1.5, None, True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(InvalidSeedError):
            random_matrix(2, 2, seed=seed)

    @pytest.mark.parametrize("rows,cols", [(2.5, 2), (True, 2), (2, 2.0), ("2", 2), (None, 2)])
    def test_dimensions_must_be_integers(self, rows, cols):
        with pytest.raises(InvalidDimensionsError):
            random_matrix(rows, cols)

    @pytest.mark.parametrize("fraction", [math.nan, 2.0, -0.1, math.inf, True, "0.5", None])
    def test_zero_fraction_must_lie_in_unit_interval(self, fraction):
        with pytest.raises(InvalidZeroFractionError):
            random_matrix(2, 2, zero_fraction=fraction)

    def test_large_and_numpy_integer_seeds(self):
        assert random_matrix(2, 2, seed=1 << 70).entries.any()
        assert np.array_equal(random_matrix(2, 2, seed=np.int64(7)).entries,
                              random_matrix(2, 2, seed=7).entries)

    def test_never_all_zero(self):
        m = random_matrix(2, 2, seed=0, zero_fraction=1.0)
        assert m.entries.any()
