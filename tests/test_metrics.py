"""Tests for the closed-form figures of merit."""
import io
import math

import pytest

from mcrsp import metrics
from mcrsp.protocol import CLUSTER_TARGET, SQRT_HALF, ChannelPair
from mcrsp.engine import enumerate_branches
from mcrsp.metrics import (
    MAX_RESOLUTION,
    EfficiencyInputs,
    SchemeRow,
    comparison_table,
    entropy_curve,
    intrinsic_efficiency,
    render_comparison_text,
    shannon_entropy,
    tsp_formula,
    tsp_sweep,
    write_comparison_csv,
    write_entropy_csv,
    write_tsp_sweep_csv,
)

# Efficiencies of the stored comparison rows as two-decimal percentages.
PUBLISHED_ETA = (1.25, 1.25, 8.33, 8.33, 8.33, 20.00, 10.00, 33.33)


class TestTspFormula:
    def test_maximal_point_reaches_one(self):
        assert tsp_formula(SQRT_HALF, SQRT_HALF) == pytest.approx(1.0)

    def test_empty_channel_kills_success(self):
        assert tsp_formula(0.0, 0.3) == 0.0

    def test_generic_point(self):
        assert tsp_formula(math.sqrt(0.2), math.sqrt(0.3)) == pytest.approx(0.24)

    def test_sign_invariance(self):
        assert tsp_formula(0.3, -0.4) == tsp_formula(0.3, 0.4)

    def test_rejects_out_of_range_coefficients(self):
        with pytest.raises(ValueError, match="a1"):
            tsp_formula(0.8, 0.3)
        with pytest.raises(ValueError, match="b1"):
            tsp_formula(0.3, float("nan"))


class TestShannonEntropy:
    def test_peak_is_exactly_one_bit(self):
        assert shannon_entropy(SQRT_HALF) == pytest.approx(1.0, abs=1e-12)
        assert shannon_entropy(-SQRT_HALF) == pytest.approx(1.0, abs=1e-12)

    def test_zero_coefficient_carries_no_entropy(self):
        assert shannon_entropy(0.0) == 0.0

    def test_frozen_midpoint_value(self):
        assert shannon_entropy(0.5) == pytest.approx(0.8112781244591328,
                                                     abs=1e-15)

    def test_even_function(self):
        assert shannon_entropy(0.37) == shannon_entropy(-0.37)

    def test_monotone_on_upper_half(self):
        assert shannon_entropy(0.3) < shannon_entropy(0.5) < shannon_entropy(0.7)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="1/sqrt"):
            shannon_entropy(0.8)


class TestEfficiency:
    def test_current_scheme_value(self):
        assert intrinsic_efficiency(EfficiencyInputs(4, 8, 4, 1.0)) == \
            pytest.approx(1 / 3)

    def test_low_probability_scheme(self):
        assert intrinsic_efficiency(EfficiencyInputs(4, 12, 8, 1 / 16)) == \
            pytest.approx(0.0125)

    def test_smaller_resource_scheme(self):
        assert intrinsic_efficiency(EfficiencyInputs(4, 7, 3, 0.25)) == \
            pytest.approx(0.1)

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError, match="n_q"):
            EfficiencyInputs(4, 0, 4, 1.0)
        with pytest.raises(ValueError, match="n_s"):
            EfficiencyInputs(True, 8, 4, 1.0)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="tsp"):
            EfficiencyInputs(4, 8, 4, 1.5)
        with pytest.raises(ValueError, match="tsp"):
            EfficiencyInputs(4, 8, 4, float("nan"))

    def test_scheme_row_rechecks_eta(self):
        with pytest.raises(ValueError, match="eta"):
            SchemeRow("bogus", 4, 8, 4, 1.0, 0.5)


class TestComparisonTable:
    def test_eight_rows_ending_with_current_scheme(self):
        rows = comparison_table()
        assert len(rows) == 8
        assert rows[5].label == "Ref. [Y.B.11]"
        assert rows[6].label == "Ref. [K.Hou]"
        assert rows[7].label == "Current scheme"
        assert all(r.n_s == 4 for r in rows)

    def test_efficiencies_match_reported_percentages(self):
        for row, eta in zip(comparison_table(), PUBLISHED_ETA):
            assert 100.0 * row.eta == pytest.approx(eta, abs=0.005)

    def test_current_scheme_tops_the_table(self):
        rows = comparison_table()
        assert rows[7].eta == max(r.eta for r in rows)

    def test_rendered_text(self):
        text = render_comparison_text()
        lines = text.splitlines()
        assert lines[0].startswith("scheme")
        assert len(lines) == 9
        assert "Current scheme" in lines[-1]
        assert "33.33%" in lines[-1]


class TestGrids:
    def test_sweep_corner_and_shape(self):
        rows = tsp_sweep(5)
        assert len(rows) == 25
        a1, b1, tsp = rows[-1]
        assert a1 == b1 == SQRT_HALF
        assert tsp == pytest.approx(1.0)

    def test_sweep_zero_row(self):
        for a1, b1, tsp in tsp_sweep(4)[:4]:
            assert a1 == 0.0
            assert tsp == 0.0

    def test_sweep_monotone_along_rows(self):
        rows = tsp_sweep(6)
        for start in range(0, 36, 6):
            tsps = [row[2] for row in rows[start:start + 6]]
            assert tsps == sorted(tsps)

    def test_sweep_rejects_degenerate_resolution(self):
        with pytest.raises(ValueError, match="resolution"):
            tsp_sweep(1)
        with pytest.raises(ValueError, match=f"limit of {MAX_RESOLUTION}"):
            tsp_sweep(MAX_RESOLUTION + 1)

    def test_entropy_curve_is_exactly_even(self):
        rows = entropy_curve(17)
        for k in range(17):
            f, h = rows[k]
            f2, h2 = rows[16 - k]
            assert f == -f2
            assert h == h2

    def test_entropy_curve_endpoints_and_center(self):
        rows = entropy_curve(9)
        assert rows[0][1] == pytest.approx(1.0, abs=1e-12)
        assert rows[-1][1] == pytest.approx(1.0, abs=1e-12)
        assert rows[4] == (0.0, 0.0)

    def test_entropy_curve_rejects_degenerate_resolution(self):
        with pytest.raises(ValueError, match="resolution"):
            entropy_curve(1)

    def test_entropy_curve_refuses_an_oversized_grid_before_any_work(
            self, monkeypatch):
        def refuse(f):
            raise AssertionError("evaluated the entropy past the size guard")

        monkeypatch.setattr(metrics, "shannon_entropy", refuse)
        with pytest.raises(ValueError, match=f"limit of {MAX_RESOLUTION}"):
            entropy_curve(MAX_RESOLUTION + 1)


def test_sweep_values_match_exact_enumeration():
    """The closed form and the branch enumerator must agree on a shared grid."""
    rows = tsp_sweep(5)
    for idx in (6, 12, 18, 9, 23):
        a1, b1, expected = rows[idx]
        channels = ChannelPair(math.sqrt(1.0 - a1 * a1), a1,
                               math.sqrt(1.0 - b1 * b1), b1, 1, 1)
        report = enumerate_branches(CLUSTER_TARGET, channels)
        assert report.tsp == pytest.approx(expected, abs=1e-9)


class TestCsvWriters:
    def test_tsp_sweep_csv(self):
        buf = io.StringIO()
        write_tsp_sweep_csv(tsp_sweep(2), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "a1,b1,tsp"
        assert len(lines) == 5
        assert lines[1] == "0,0,0"
        assert lines[-1] == "0.707106781187,0.707106781187,1"

    def test_entropy_csv(self):
        buf = io.StringIO()
        write_entropy_csv(entropy_curve(3), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "f,entropy"
        assert lines[2] == "0,0"

    def test_comparison_csv(self):
        buf = io.StringIO()
        write_comparison_csv(comparison_table(), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "label,n_s,n_q,n_c,tsp,eta"
        assert lines[-1] == "Current scheme,4,8,4,1,0.333333333333"
