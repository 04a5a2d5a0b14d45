import math

import numpy as np
import pytest
import scipy.optimize

from discwitness import chord_chart
from discwitness.asymptotics import bracket_main_term
from discwitness.characterize import kl_profile
from discwitness import shapeopt
from discwitness.errors import Infeasible, MalformedSpec, NoFeasibleStart
from discwitness.shapeopt import (
    OptOptions,
    ShapeVector,
    circle_distance,
    minimize,
    objective_bracket,
    objective_kl,
)


class TestObjectiveKL:
    def test_circle_is_zero(self):
        assert objective_kl(ShapeVector(a0=3.0)) <= 1e-12

    def test_three_lobe_positive(self):
        assert objective_kl(ShapeVector(cos=(0, 0, 0.1))) > 1e-2

    def test_infeasible_raises(self):
        with pytest.raises(Infeasible):
            objective_kl(ShapeVector(cos=(0, 0, 0.5)))

    def test_gauge_invariance(self):
        v = ShapeVector(a0=1.0, cos=(0, 0, 0.05))
        scaled = ShapeVector(a0=4.0, cos=(0, 0, 0.2))
        assert objective_kl(v) == pytest.approx(objective_kl(scaled), rel=1e-12)


class TestObjectiveBracket:
    def test_circle_is_zero(self):
        dirs = [math.pi * k / 8 for k in range(8)]
        assert objective_bracket(ShapeVector(a0=2.0), dirs, 50) <= 1e-12

    def test_asymmetric_positive(self):
        dirs = [math.pi * k / 8 for k in range(8)]
        v = ShapeVector(cos=(0, 0.05), sin=(0, 0, 0.03))
        assert objective_bracket(v, dirs, 50) > 0

    def test_matches_chart_bracket_terms(self):
        # oracle: one chord chart per frame, terms from the extremum fields
        dirs = [0.0, 0.4, 1.3, 2.9, 4.4]
        v = ShapeVector(a0=1.3, cos=(0, 0.06, -0.02), sin=(0, 0.03, 0, 0.01))
        curve = v.decode()
        total = 0.0
        for ang in dirs:
            bt = bracket_main_term(chord_chart(curve, ang), 50)
            ref = max(bt.term_f.log_scale, bt.term_g.log_scale)
            bf = bt.term_f.mantissa * math.exp(bt.term_f.log_scale - ref)
            bg = bt.term_g.mantissa * math.exp(bt.term_g.log_scale - ref)
            total += abs(bf - bg) ** 2
        assert total > 1e-3
        assert objective_bracket(v, dirs, 50) == pytest.approx(total, rel=1e-12)

    def test_origin_outside_a_peak_raises(self):
        v = ShapeVector(1.0, (2.0,), pin_translation=False)  # h(pi) = -1
        with pytest.raises(MalformedSpec):
            objective_bracket(v, [math.pi / 2], 50)

    def test_empty_directions_warns(self):
        with pytest.warns(UserWarning):
            assert objective_bracket(ShapeVector(a0=1.0), [], 50) == 0.0


class TestMinimize:
    def test_circle_start_is_fixed_point(self):
        res = minimize(ShapeVector(a0=1.0), "kl", OptOptions(max_iter=50))
        assert res.objective <= 1e-12
        assert res.circle_distance <= 1e-9

    def test_three_lobe_converges_to_disc(self):
        res = minimize(ShapeVector(cos=(0, 0, 0.1)), "kl")
        assert res.objective <= 1e-8
        assert res.circle_distance <= 1e-4
        assert res.iterations <= 5000
        assert all(a >= b for a, b in zip(res.trace, res.trace[1:]))
        verdict = kl_profile(res.best.decode(), 256, tol=1e-3).verdict
        assert verdict == "disc"

    def test_bracket_best_stays_feasible(self):
        # this start visits shapes with min rho near eps0, which a bracket
        # objective that needs a validated curve cannot evaluate
        start = ShapeVector(1.0, (0, 0, 0.1), (0, 0.04))
        res = minimize(start, "bracket", OptOptions(max_iter=80))
        res.best.decode()

    def test_best_point_always_decodes(self):
        # an objective that rewards leaving the convex set
        t = np.linspace(0.0, 2.0 * math.pi, 512, endpoint=False)

        def min_rho(g):
            k = np.arange(1, g.K + 1)
            kt = np.outer(t, k)
            rho = (g.a0 + np.cos(kt) @ ((1 - k * k) * np.asarray(g.cos))
                   + np.sin(kt) @ ((1 - k * k) * np.asarray(g.sin)))
            return float(np.min(rho))

        res = minimize(ShapeVector(cos=(0, 0, 0.1)), min_rho,
                       OptOptions(max_iter=200))
        assert res.objective < 0.2  # it did descend
        res.best.decode()

    def test_infeasible_start(self):
        with pytest.raises(NoFeasibleStart):
            minimize(ShapeVector(cos=(0, 0, 0.5)), "kl")

    def test_deterministic(self):
        opts = OptOptions(max_iter=300, seed=7)
        a = minimize(ShapeVector(cos=(0, 0, 0.08)), "kl", opts)
        b = minimize(ShapeVector(cos=(0, 0, 0.08)), "kl", opts)
        assert a.trace == b.trace
        assert np.array_equal(a.best.coefficients(), b.best.coefficients())

    def test_each_point_scored_once(self, monkeypatch):
        # the objective runs once at the start and otherwise only inside
        # scipy, which reports every call it makes as nfev
        calls = [0]
        nfev = [0]

        def counted(g):
            calls[0] += 1
            return shapeopt._penalized_kl(g)

        def recorder(*args, **kwargs):
            res = scipy_minimize(*args, **kwargs)
            nfev[0] += res.nfev
            return res

        scipy_minimize = scipy.optimize.minimize
        monkeypatch.setattr(scipy.optimize, "minimize", recorder)
        res = minimize(ShapeVector(cos=(0, 0, 0.08)), counted,
                       OptOptions(max_iter=300, seed=7))
        assert res.iterations > 0
        assert calls[0] == 1 + nfev[0]

    def test_penalized_kl_builds_one_grid(self, monkeypatch):
        grids = [0]
        grid_eval = shapeopt._grid_eval

        def counted(*args, **kwargs):
            grids[0] += 1
            return grid_eval(*args, **kwargs)

        monkeypatch.setattr(shapeopt, "_grid_eval", counted)
        shapeopt._penalized_kl(ShapeVector(cos=(0, 0, 0.08)))
        assert grids[0] == 1

    @pytest.mark.parametrize("objective", ["kl", "bracket"])
    def test_values_are_python_floats(self, objective):
        res = minimize(ShapeVector(cos=(0, 0, 0.08)), objective,
                       OptOptions(max_iter=40))
        assert type(res.objective) is float
        assert all(type(j) is float for j in res.trace)

    def test_zero_set_matches_disc_verdict(self):
        res = minimize(ShapeVector(sin=(0, 0.06)), "kl",
                       OptOptions(target=1e-12))
        if res.objective <= 1e-10:
            assert kl_profile(res.best.decode(), 256, tol=1e-4).verdict == "disc"


def test_circle_distance_on_circle():
    assert circle_distance(ShapeVector(a0=5.0)) <= 1e-12
