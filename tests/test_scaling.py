"""Log-log fits and the scan harness."""

import math

import pytest

from hypersens import scaling
from hypersens.errors import BadParameter, TooLarge
from hypersens.properties import IsolatedCliqueProperty
from hypersens.scaling import (
    fit_exponent,
    rows_from_csv,
    rows_to_csv,
    run_scan,
)
from hypersens.witnesses import triangle_packing


class TestFitExponent:
    def test_pure_cubic(self):
        fit = fit_exponent([(v, 5 * v**3) for v in (2, 4, 8, 16)])
        assert abs(fit.slope - 3) < 1e-12
        assert abs(fit.intercept - math.log(5)) < 1e-12
        assert fit.r_squared == pytest.approx(1.0)

    def test_constant_series(self):
        fit = fit_exponent([(v, 7) for v in (3, 5, 9)])
        assert abs(fit.slope) < 1e-12

    def test_perfect_square_law(self):
        fit = fit_exponent([(v, v * v) for v in range(5, 40, 3)])
        assert abs(fit.slope - 2.0) < 1e-9

    def test_triangle_packing_counts_scale_quadratically(self):
        rows = [
            (v, len(triangle_packing(v).members)) for v in range(9, 100, 6)
        ]
        fit = fit_exponent(rows)
        assert 1.9 <= fit.slope <= 2.1
        assert fit.v_range == (9, 99)

    def test_validation(self):
        with pytest.raises(BadParameter, match="need at least 3 rows, got 2"):
            fit_exponent([(2, 4), (3, 9)])
        with pytest.raises(BadParameter, match="all y values must be positive"):
            fit_exponent([(2, 4), (3, 0), (4, 16)])


class TestCsv:
    def test_round_trip_is_bit_exact(self):
        result = run_scan(
            "isolated-triangle", range(9, 22, 6), ("s_lower", "bs_lower")
        )
        text = rows_to_csv(result.rows)
        assert rows_to_csv(rows_from_csv(text)) == text

    def test_header_checked(self):
        with pytest.raises(BadParameter):
            rows_from_csv("a,b\n1,2\n")

    def test_empty_text_is_bad_parameter(self):
        with pytest.raises(BadParameter, match="line 1: unexpected CSV header"):
            rows_from_csv("")

    @pytest.mark.parametrize("row", ["5,10", "5,10,,,,,,,7"])
    def test_row_of_the_wrong_length_is_bad_parameter(self, row):
        """A short row is not padded with empty cells, nor a long one cut."""
        text = rows_to_csv([]) + "4,6,,,,3,,\n" + row + "\n"
        with pytest.raises(BadParameter, match="line 3: .* cells, expected 8"):
            rows_from_csv(text)

    def test_non_integer_cell_is_bad_parameter(self):
        text = rows_to_csv([]) + "5,ten,,,,,,\n"
        with pytest.raises(BadParameter, match="line 2: .*'ten'"):
            rows_from_csv(text)


class TestRunScan:
    def test_triangle_columns(self):
        result = run_scan(
            "isolated-triangle", range(9, 28, 6), ("s_lower", "bs_lower")
        )
        for row in result.rows:
            assert row.s_lower == 3 * row.v - 6
            vp = row.v
            while vp % 6 != 3:
                vp -= 1
            assert row.bs_lower == vp * (vp - 1) // 6
            assert row.ms_s is None and row.ms_bs is None
        assert set(result.fits) == {"s_lower", "bs_lower"}
        assert not result.warnings

    def test_determinism(self):
        a = run_scan("isolated-triangle", range(9, 22, 6), ("s_lower", "bs_lower"))
        b = run_scan("isolated-triangle", range(9, 22, 6), ("s_lower", "bs_lower"))
        assert rows_to_csv(a.rows) == rows_to_csv(b.rows)

    def test_timings_columns_only_on_request(self):
        result = run_scan(
            "isolated-triangle", [9, 15, 21], ("s_lower",), timings=True
        )
        assert all(isinstance(r.ms_s, int) for r in result.rows)

    def test_exact_columns_for_isolated_vertex(self):
        result = run_scan("isolated-vertex", [4, 5, 6], ("s_lower", "s_exact"))
        for row in result.rows:
            assert row.s_exact == row.v - 1 == row.s_lower

    def test_bs_exact_tiny(self):
        result = run_scan("isolated-vertex", [4], ("bs_exact",))
        assert result.rows[0].bs_exact == 3

    def test_each_packing_is_built_in_its_own_cell(self, monkeypatch):
        """The bs_lower check before the rows builds no packing, so the
        first row's cell times and budgets its own build too."""
        cells = []
        measure = scaling._measure

        def measured(col, prop, deadline):
            cells.append(col)
            try:
                return measure(col, prop, deadline)
            finally:
                cells.pop()

        built = []
        make = IsolatedCliqueProperty._make_packing

        def spy(prop):
            assert cells == ["bs_lower"], "a packing built outside its cell"
            built.append(prop.v)
            return make(prop)

        monkeypatch.setattr(scaling, "_measure", measured)
        monkeypatch.setattr(IsolatedCliqueProperty, "_make_packing", spy)
        result = run_scan(
            "isolated-clique", [8, 9], ("s_lower", "bs_lower"), k=3, i=1, h=4
        )
        assert built == [8, 9]
        assert all(r.bs_lower for r in result.rows)

    def test_exhaustive_budget_names_column_and_v(self):
        with pytest.raises(TooLarge, match=r"needs 2\^36 inputs") as exc:
            run_scan("isolated-triangle", [9], ("s_exact",))
        assert "s_exact" in str(exc.value) and "v=9" in str(exc.value)

    def test_wall_clock_budget_leaves_cells_empty(self):
        result = run_scan(
            "isolated-triangle", [9, 15], ("s_lower",), budget_ms=0
        )
        assert all(r.s_lower is None for r in result.rows)
        assert len(result.warnings) >= 2

    def test_isolated_clique_scan(self):
        result = run_scan(
            "isolated-clique", range(8, 15, 2), ("s_lower", "bs_lower"), k=3, i=1, h=4
        )
        for row in result.rows:
            expected = 4 + 4 * math.comb(row.v - 4, 2) + 6 * (row.v - 4)
            assert row.s_lower == expected
            assert row.bs_lower >= math.comb(row.v, 4) / (4 * (row.v - 4) + 1)

    def test_validation(self):
        with pytest.raises(BadParameter):
            run_scan("isolated-triangle", [], ("s_lower",))
        with pytest.raises(BadParameter):
            run_scan("isolated-triangle", [9], ("nope",))
        with pytest.raises(BadParameter):
            run_scan("isolated-vertex", [9], ("bs_lower",))
        with pytest.raises(BadParameter):
            run_scan("isolated-clique", [9], ("s_lower",), k=3, i=1)  # h missing
