import math

import numpy as np
import pytest
from scipy.integrate import quad

from coxmix.penalties import (
    PenaltySpec,
    lla_coefficient,
    log_scale_term,
    penalty_derivative,
    penalty_value,
)

SCAD = PenaltySpec(kind="scad", level=0.1, shape=3.7)
MCP = PenaltySpec(kind="mcp", level=0.1, shape=3.0)
LS = PenaltySpec(kind="ls", level=0.05)


class TestSpecValidation:
    def test_defaults(self):
        assert PenaltySpec(kind="scad", level=0.1).shape == 3.7
        assert PenaltySpec(kind="mcp", level=0.1).shape == 3.0
        assert PenaltySpec(kind="ls", level=0.1).shape is None
        assert SCAD.epsilon == 1e-4
        assert SCAD.prune_threshold == 1e-5

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError, match="kind"):
            PenaltySpec(kind="lasso", level=0.1)

    def test_rejects_bad_level(self):
        with pytest.raises(ValueError):
            PenaltySpec(kind="scad", level=-0.1)
        with pytest.raises(ValueError):
            PenaltySpec(kind="scad", level=float("nan"))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="SCAD shape"):
            PenaltySpec(kind="scad", level=0.1, shape=2.0)
        with pytest.raises(ValueError, match="MCP shape"):
            PenaltySpec(kind="mcp", level=0.1, shape=1.0)

    def test_rejects_bad_epsilon_and_threshold(self):
        with pytest.raises(ValueError):
            PenaltySpec(kind="ls", level=0.1, epsilon=0.0)
        with pytest.raises(ValueError):
            PenaltySpec(kind="ls", level=0.1, prune_threshold=0.0)
        with pytest.raises(ValueError):
            PenaltySpec(kind="ls", level=0.1, prune_threshold=1.0)

    def test_proportion_domain(self):
        with pytest.raises(ValueError):
            penalty_value(SCAD, -0.001)
        with pytest.raises(ValueError):
            penalty_value(SCAD, 1.001)
        # float dust just outside [0,1] is clamped
        assert penalty_value(SCAD, -1e-10) == 0.0


class TestScad:
    # kappa=0.1, a=3.7: derivative is 1 on [0, 0.1], then (a*k - pi)/((a-1)*k),
    # then 0 past a*k = 0.37
    def test_derivative_values(self):
        assert penalty_derivative(SCAD, 0.05) == 1.0
        assert penalty_derivative(SCAD, 0.1) == 1.0
        expected_mid = (3.7 * 0.1 - 0.2) / ((3.7 - 1.0) * 0.1)
        assert penalty_derivative(SCAD, 0.2) == pytest.approx(expected_mid, abs=1e-15)
        # the float knot sits at 3.7 * 0.1 = 0.37000000000000005
        assert penalty_derivative(SCAD, 0.37) == pytest.approx(0.0, abs=1e-15)
        assert penalty_derivative(SCAD, 0.3701) == 0.0
        assert penalty_derivative(SCAD, 0.8) == 0.0

    def test_value_values(self):
        assert penalty_value(SCAD, 0.05) == pytest.approx(0.05, abs=1e-15)
        mid = (2 * 0.37 * 0.2 - 0.2**2 - 0.1**2) / (2 * (3.7 - 1.0) * 0.1)
        assert penalty_value(SCAD, 0.2) == pytest.approx(mid, abs=1e-15)
        assert penalty_value(SCAD, 0.37) == pytest.approx(0.1 * 4.7 / 2, abs=1e-15)
        assert penalty_value(SCAD, 0.9) == pytest.approx(0.235, abs=1e-15)

    def test_knot_continuity(self):
        k, a = 0.1, 3.7
        # value branches meet at kappa and a*kappa
        left = k
        right = (2 * a * k * k - k * k - k * k) / (2 * (a - 1) * k)
        assert abs(left - right) < 1e-12
        mid_at_knee = (2 * a * k * (a * k) - (a * k) ** 2 - k * k) / (2 * (a - 1) * k)
        assert abs(mid_at_knee - k * (a + 1) / 2) < 1e-12
        # derivative branches at kappa: both equal 1
        assert abs(1.0 - (a * k - k) / ((a - 1) * k)) < 1e-12

    def test_value_is_integral_of_derivative(self):
        for pi in (0.03, 0.1, 0.15, 0.37, 0.6, 1.0):
            integral, _ = quad(
                lambda u: penalty_derivative(SCAD, u), 0.0, pi, points=[0.1, 0.37], limit=200
            )
            assert penalty_value(SCAD, pi) == pytest.approx(integral, abs=1e-8)

    def test_level_zero_disables(self):
        off = PenaltySpec(kind="scad", level=0.0)
        assert penalty_value(off, 0.4) == 0.0
        assert penalty_derivative(off, 0.4) == 0.0
        assert log_scale_term(off, 0.4) == 0.0


class TestMcp:
    # alpha=0.1, b=3: derivative (alpha - pi/b)_+, flat past b*alpha = 0.3
    def test_derivative_values(self):
        assert penalty_derivative(MCP, 0.05) == pytest.approx(0.1 - 0.05 / 3.0, abs=1e-15)
        assert penalty_derivative(MCP, 0.3) == pytest.approx(0.0, abs=1e-15)
        assert penalty_derivative(MCP, 0.301) == 0.0
        assert penalty_derivative(MCP, 0.7) == 0.0

    def test_value_values(self):
        assert penalty_value(MCP, 0.05) == pytest.approx(0.1 * 0.05 - 0.05**2 / 6.0, abs=1e-15)
        assert penalty_value(MCP, 0.3) == pytest.approx(3.0 * 0.01 / 2.0, abs=1e-15)
        assert penalty_value(MCP, 0.9) == pytest.approx(0.015, abs=1e-15)

    def test_knot_continuity(self):
        a, b = 0.1, 3.0
        inside = a * (b * a) - (b * a) ** 2 / (2 * b)
        assert abs(inside - b * a * a / 2) < 1e-12
        assert abs((a - (b * a) / b) - 0.0) < 1e-12

    def test_value_is_integral_of_derivative(self):
        for pi in (0.02, 0.1, 0.3, 0.55, 1.0):
            integral, _ = quad(
                lambda u: penalty_derivative(MCP, u), 0.0, pi, points=[0.3], limit=200
            )
            assert penalty_value(MCP, pi) == pytest.approx(integral, abs=1e-8)


class TestLogScaleTerm:
    def test_ls_uses_pi_directly(self):
        assert log_scale_term(LS, 0.5) == pytest.approx(math.log(0.5001) - math.log(1e-4), rel=1e-14)

    def test_ls_matches_closed_forms_bitwise(self):
        # LS is p(pi) = pi inside the shared formulas; its closed forms are the oracle
        for pi in np.concatenate((np.linspace(0.0, 1.0, 1001), [1e-300, 1e-12, 1e-5, 1.0 - 1e-16])):
            pi = float(pi)
            assert penalty_value(LS, pi) == pi
            assert penalty_derivative(LS, pi) == 1.0
            assert log_scale_term(LS, pi) == math.log1p(pi / LS.epsilon)
            assert lla_coefficient(LS, pi) == 1.0 / (LS.epsilon + pi)

    def test_nondecreasing_in_pi(self):
        grid = np.linspace(0.0, 1.0, 401)
        for spec in (SCAD, MCP, LS):
            vals = [log_scale_term(spec, float(g)) for g in grid]
            assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_flat_tail_for_folded_concave_only(self):
        assert log_scale_term(SCAD, 0.4) == log_scale_term(SCAD, 0.95)
        assert log_scale_term(MCP, 0.35) == log_scale_term(MCP, 0.95)
        assert log_scale_term(LS, 0.95) > log_scale_term(LS, 0.4)

    def test_zero_at_zero(self):
        for spec in (SCAD, MCP, LS):
            assert log_scale_term(spec, 0.0) == 0.0


class TestLlaCoefficient:
    def test_scad_flat_tail_is_zero(self):
        assert lla_coefficient(SCAD, 0.5) == 0.0

    def test_mcp_at_knot_is_zero(self):
        assert lla_coefficient(MCP, 0.3) == pytest.approx(0.0, abs=1e-15)
        assert lla_coefficient(MCP, 0.31) == 0.0

    def test_ls_exact_derivative(self):
        assert lla_coefficient(LS, 0.5) == pytest.approx(1.0 / 0.5001, rel=1e-14)

    def test_scad_inside_first_branch(self):
        expected = 1.0 / (1e-4 + 0.05)
        assert lla_coefficient(SCAD, 0.05) == pytest.approx(expected, rel=1e-14)

    def test_matches_finite_difference_of_log_scale_term(self):
        h = 1e-7
        for spec in (SCAD, MCP, LS):
            for pi0 in (0.04, 0.2, 0.6):
                fd = (log_scale_term(spec, pi0 + h) - log_scale_term(spec, pi0 - h)) / (2 * h)
                assert lla_coefficient(spec, pi0) == pytest.approx(fd, abs=1e-5)
