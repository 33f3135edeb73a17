"""Unit tests for the analysis building blocks: Table, EmpiricalCdf, stats."""

import pytest

from repro.analysis import Column, EmpiricalCdf, Table, mean, median, percentile, share


class TestTable:
    def test_requires_columns_and_unique_names(self):
        with pytest.raises(ValueError):
            Table([])
        with pytest.raises(ValueError):
            Table([Column("a"), Column("a")])

    def test_add_row_positional_and_named(self):
        table = Table([Column("name"), Column("value", ".1f")])
        table.add_row("x", 1.25)
        table.add_row(name="y", value=2.5)
        assert table.to_csv().splitlines() == ["name,value", "x,1.25", "y,2.5"]

    def test_add_row_arity_checked(self):
        table = Table([Column("a"), Column("b")])
        with pytest.raises(ValueError):
            table.add_row(1)
        with pytest.raises(ValueError):
            table.add_row(1, 2, named=3)

    def test_render_text_and_csv(self):
        table = Table([Column("step"), Column("share", ".0%")])
        table.add_row("resolved", 0.976)
        text = table.render_text("Funnel")
        assert "Funnel" in text and "98%" in text and "resolved" in text
        assert table.to_csv().splitlines()[0] == "step,share"


class TestEmpiricalCdf:
    def test_empty(self):
        cdf = EmpiricalCdf.from_values([])
        assert cdf.is_empty
        assert cdf.probability_at(10) == 0.0
        assert cdf.quantile(0.5) == 0.0
        assert cdf.points() == []

    def test_probability_at(self):
        cdf = EmpiricalCdf.from_values([1, 2, 3, 4])
        assert cdf.probability_at(0) == 0.0
        assert cdf.probability_at(2) == 0.5
        assert cdf.probability_at(4) == 1.0
        assert cdf.probability_at(100) == 1.0

    def test_quantiles(self):
        cdf = EmpiricalCdf.from_values(range(1, 101))
        assert cdf.quantile(0.0) == 1
        assert cdf.quantile(1.0) == 100
        assert cdf.median == 50
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_monotonicity_of_points(self):
        cdf = EmpiricalCdf.from_values([5, 1, 7, 3, 9, 2] * 30)
        points = cdf.points(max_points=20)
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        assert xs == sorted(xs)
        assert ys == sorted(ys)
        assert ys[-1] == 1.0

    def test_values_get_sorted_on_construction(self):
        cdf = EmpiricalCdf((3.0, 1.0, 2.0))
        assert cdf.unique_values == (1.0, 2.0, 3.0)
        assert cdf.cumulative_counts == (1, 2, 3)

    def test_from_counts_ignores_zero_multiplicity_entries(self):
        cdf = EmpiricalCdf.from_counts({1.0: 0, 2.0: 3})
        assert cdf == EmpiricalCdf.from_values([2.0, 2.0, 2.0])
        assert cdf.probability_at(1.0) == 0.0
        all_zero = EmpiricalCdf.from_counts({1.0: 0})
        assert all_zero.is_empty
        assert all_zero.points() == []

    def test_from_counts_rejects_negative_multiplicities(self):
        with pytest.raises(ValueError, match="negative multiplicity"):
            EmpiricalCdf.from_counts({1.0: -3, 2.0: 5})


class TestStats:
    def test_mean_median(self):
        assert mean([1, 2, 3]) == 2
        assert mean([]) == 0.0
        assert median([1, 2, 100]) == 2

    def test_percentile(self):
        values = list(range(101))
        assert percentile(values, 0.0) == 0
        assert percentile(values, 1.0) == 100
        assert percentile(values, 0.9) == 90
        with pytest.raises(ValueError):
            percentile(values, 2)

    def test_share(self):
        assert share([1, 2, 3, 4], lambda v: v % 2 == 0) == 0.5
        assert share([], lambda v: True) == 0.0
