import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discwitness.geometry import (EPS0, VALIDATION_GRID, FourierCurve,
                                  build_curve, frame_peaks, periodic_trig,
                                  validation_rho, width_at)
from discwitness.characterize import constraint_residuals, kl_profile
from discwitness import cli, geometry, shapeopt
from discwitness.errors import NoFeasibleStart
from discwitness.shapeopt import circle_distance, minimize


def objective(curve, name):
    """J at the gauged curve: the start value of a run that takes no step."""
    return minimize(curve, name, max_iter=0).objective


def gauged(curve, K=shapeopt.DEFAULT_K):
    """The gauged curve a search of size K starts from, and its free
    coordinates."""
    x = shapeopt._coordinates(curve, K)
    return shapeopt._curve(x), x


class TestObjectiveKL:
    def test_circle_is_zero(self):
        assert objective(FourierCurve(3.0), "kl") <= 1e-12

    def test_three_lobe_positive(self):
        assert objective(FourierCurve(1.0, (0, 0, 0.1)), "kl") > 1e-2

    def test_gauge_invariance(self):
        v = FourierCurve(1.0, (0, 0, 0.05))
        scaled = FourierCurve(4.0, (0, 0, 0.2))
        assert objective(v, "kl") == pytest.approx(objective(scaled, "kl"),
                                                   rel=1e-12)


C8 = FourierCurve(1.0, (0,) * 7 + (0.01,))  # sin 8 theta = 0 at pi j / 8
NEAR_FLOOR = FourierCurve(1.0, (0, 0, 0.1248))  # min rho 0.0016
# builds (min rho 0.0015), but gauged to a0 = 1 its min rho is 0.00075
GAUGE_INFEASIBLE = {"type": "support_fourier", "a0": 2, "cos": [0, 0, 0.2498125]}


@pytest.mark.parametrize("v,K", [(FourierCurve(1.0, (0, 0, 0.1)), 8),
                                 (FourierCurve(0.7, (0.3, 0.02, 0.01),
                                               (-0.2, 0.0, 0.03)), 5),
                                 (NEAR_FLOOR, 8)],
                         ids=["three_lobe", "K5", "near_floor"])
def test_validation_rho_is_the_curves_jet_bit_for_bit(v, K):
    # the line search's feasibility test, on the free coordinates, and the
    # gauged curve's own check are one sum on the same values
    g, x = gauged(v, K)
    want = g.periodic_jet(VALIDATION_GRID)[2]
    assert np.array_equal(validation_rho(g.a0, g.cos, g.sin), want)
    assert np.array_equal(shapeopt._free_rho(x), want)


def _record_cleared(monkeypatch):
    """The (a0, cos, sin) whose shapeopt.validation_rho clears EPS0: the
    start, then every point the solve accepts on these starts, since a
    halved trial's rho is summed only once its value has fallen, and every
    full step whose sum clears EPS0 is taken."""
    cleared = []
    rho_of = shapeopt.validation_rho

    def recorded(a0, cos, sin):
        rho = rho_of(a0, cos, sin)
        if a0 != 0.0 and np.min(rho) > EPS0:
            cleared.append((a0, tuple(cos), tuple(sin)))
        return rho

    monkeypatch.setattr(shapeopt, "validation_rho", recorded)
    return cleared


class TestObjectiveBracket:
    def test_circle_is_zero(self):
        assert objective(FourierCurve(2.0), "bracket") <= 1e-30

    def test_asymmetric_positive(self):
        v = FourierCurve(1.0, (0, 0.05), (0, 0, 0.03))
        assert objective(v, "bracket") > 0

    def test_frames_tied_to_k(self):
        # K = 8 frames alias against cos 8 theta; F = 2K frames do not
        _, x = gauged(C8)
        maps = shapeopt._bracket_maps(8, [math.pi * k / 8 for k in range(8)])
        r, _ = shapeopt._bracket_residuals(maps, x)
        assert r @ r <= 1e-28
        assert len(shapeopt.bracket_frames(8)) == 16
        assert objective(C8, "bracket") > 1e-2

    def test_matches_chart_bracket_terms(self):
        # oracle: the peaks of the five frames from one frame_peaks call, and
        # each frame's heights, curvatures and phase through
        # constraint_residuals
        dirs = [0.0, 0.4, 1.3, 2.9, 4.4]
        v = FourierCurve(1.3, (0, 0.06, -0.02), (0, 0.03, 0, 0.01))
        curve, x = gauged(v)
        maps = shapeopt._bracket_maps(8, dirs)
        r, _ = shapeopt._bracket_residuals(maps, x)
        r_h, r_rho, r_phase = r.reshape(3, -1)
        h, _, rho = frame_peaks(curve, dirs)
        for j, ang in enumerate(dirs):
            res = constraint_residuals(curve, ang)
            # the peaks' heights are h(up) and h(lo), their |y''| 1/rho
            height = h[1, j] * abs(math.expm1(r_h[j]))
            curv = abs(math.expm1(-r_rho[j])) / rho[1, j]
            assert res.p == 0
            assert height == pytest.approx(res.height, rel=0, abs=1e-10)
            assert curv == pytest.approx(res.curv, rel=0, abs=1e-10)
            assert abs(r_phase[j]) == pytest.approx(res.phase, rel=0, abs=1e-10)
        assert np.max(np.abs(r)) > 1e-2
        # the bracket J is the same sum over bracket_frames(K)
        frames = shapeopt._bracket_maps(8, shapeopt.bracket_frames(8))
        r, _ = shapeopt._bracket_residuals(frames, x)
        assert objective(v, "bracket") == r @ r


def _problem(name, K=8):
    """(maps, residuals) of the objective name, as minimize picks them."""
    if name == "kl":
        return shapeopt._kl_maps(K), shapeopt._kl_residuals
    return (shapeopt._bracket_maps(K, shapeopt.bracket_frames(K)),
            shapeopt._bracket_residuals)


@pytest.mark.parametrize("name", ["kl", "bracket"])
def test_jacobian_matches_central_differences(name):
    _, x = gauged(FourierCurve(1.3, (0, 0.06, -0.02), (0, 0.03, 0, 0.01)))
    maps, residuals = _problem(name)
    _, jac = residuals(maps, x)
    d = 1e-6
    fd = np.array([(residuals(maps, x + d * e)[0]
                    - residuals(maps, x - d * e)[0]) / (2 * d)
                   for e in np.eye(len(x))]).T
    assert np.max(np.abs(jac - fd)) <= 1e-8 * np.max(np.abs(jac))


@st.composite
def free_starts(draw):
    """(K, x): free coordinates of harmonics 2..K, K in 2..40, with
    sum k^2 |c| <= 0.9, so min rho >= 0.1."""
    K = draw(st.integers(2, 40))
    c = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=2 * K - 2,
                               max_size=2 * K - 2)))
    weight = float(np.tile(np.arange(2, K + 1) ** 2, 2) @ np.abs(c))
    return K, c * (draw(st.floats(0.0, 0.9)) / weight if weight else 0.0)


@settings(max_examples=60, deadline=None)
@given(start=free_starts(), name=st.sampled_from(["kl", "bracket"]))
def test_step_is_the_least_squares_solution(start, name):
    # the normal equations of the column-scaled Jacobian, against an SVD
    # solve; unit columns keep cond(J D) small, so cond((J D)^T J D) too
    K, x = start
    maps, residuals = _problem(name, K)
    r, jac = residuals(maps, x)
    want = np.linalg.lstsq(jac, -r, rcond=None)[0]
    p = shapeopt._step(jac, r)
    assert np.linalg.norm(p - want) <= 1e-10 * np.linalg.norm(want)
    assert np.linalg.cond(jac / np.linalg.norm(jac, axis=0)) <= 100.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("column", ["zero", "repeated"])
def test_singular_jacobian_stops_the_descent(monkeypatch, column):
    # no step: the run stops at the gauged start, as when no halving
    # lowers J, with no LinAlgError and no non-finite value
    kl_residuals = shapeopt._kl_residuals

    def singular(maps, x):
        r, jac = kl_residuals(maps, x)
        jac[:, 1] = 0.0 if column == "zero" else jac[:, 0]
        return r, jac

    monkeypatch.setattr(shapeopt, "_kl_residuals", singular)
    start = FourierCurve(1.0, (0, 0, 0.1))
    r, jac = singular(_problem("kl")[0], gauged(start)[1])
    assert shapeopt._step(jac, r) is None
    res = minimize(start, "kl")
    assert res.iterations == 0 and res.evaluations == 1
    assert res.best == gauged(start)[0]
    assert all(map(math.isfinite, (res.objective, res.circle_distance,
                                   res.min_rho)))


@pytest.mark.parametrize("table", [lambda: periodic_trig(64, 3),
                                   lambda: shapeopt._kl_maps(5)],
                         ids=["periodic_trig", "kl_maps"])
def test_cached_tables_are_read_only(table):
    before = [a.copy() for a in table()]
    for a in table():
        with pytest.raises(ValueError):
            a[(0,) * a.ndim] = 7.0
        with pytest.raises(ValueError):
            a *= 2.0
    assert all(np.array_equal(a, b) for a, b in zip(table(), before))


@pytest.mark.parametrize("name", ["kl", "bracket"])
def test_highest_resolved_harmonic(name):
    # harmonic 255 is the last the 512-node grid resolves: the run sees it
    # and removes it (sin 256 theta would vanish on every node)
    start = FourierCurve(1.0, (0, 0, 0.02), (0,) * 254 + (1e-6,))
    res = minimize(start, name)
    assert res.objective <= shapeopt.TARGETS[name]
    assert res.circle_distance <= 1e-8
    assert abs(res.best.sin[254]) <= 1e-12


def test_each_point_summed_once(monkeypatch):
    # the start, one sum per full step (each kl step here takes t = 1), and
    # the returned curve's own validation
    start, calls = _random_k8(1), [0]
    for module in (geometry, shapeopt):
        def counted(*args, rho_of=module.validation_rho):
            calls[0] += 1
            return rho_of(*args)

        monkeypatch.setattr(module, "validation_rho", counted)
    res = minimize(start, "kl")
    assert res.iterations == 3 and calls[0] == res.iterations + 2



class TestMinimize:
    def test_circle_start_is_fixed_point(self):
        res = minimize(FourierCurve(1.0), "kl", max_iter=50)
        assert res.objective <= 1e-12
        assert res.circle_distance <= 1e-9

    def test_three_lobe_converges_to_disc(self):
        res = minimize(FourierCurve(1.0, (0, 0, 0.1)), "kl")
        assert res.objective <= 1e-8
        assert res.circle_distance <= 1e-4
        assert res.iterations <= 5000
        assert all(a >= b for a, b in zip(res.trace, res.trace[1:]))
        verdict = kl_profile(res.best, 256, tol=1e-3).verdict
        assert verdict == "disc"

    def test_bracket_best_stays_feasible(self):
        # this start visits shapes with min rho near EPS0, which a bracket
        # objective that needs a validated curve cannot evaluate
        start = FourierCurve(1.0, (0, 0, 0.1), (0, 0.04))
        res = minimize(start, "bracket", max_iter=80)
        assert build_curve(res.best.to_spec()) == res.best

    def test_best_point_always_decodes(self, monkeypatch):
        # every point the bracket solve accepts is a valid curve, from a
        # start 0.0006 above the convexity floor
        cleared = _record_cleared(monkeypatch)
        res = minimize(NEAR_FLOOR, "bracket")
        start, *accepted = (FourierCurve(*g) for g in cleared)
        assert start == gauged(NEAR_FLOOR)[0]
        assert len(accepted) == res.iterations == len(res.trace) - 1
        assert accepted[-1] == res.best

    @pytest.mark.parametrize("start", [FourierCurve(1.0, (0, 0, 0.1), (0, 0.04)),
                                       FourierCurve(1.0, (0, 0, 0.1)), C8],
                             ids=["script", "three_lobe", "c8"])
    def test_bracket_reaches_a_disc(self, start):
        res = minimize(start, "bracket")
        assert res.objective <= shapeopt.TARGETS["bracket"]
        assert res.circle_distance <= 1e-8
        assert res.iterations <= 10
        assert all(a > b for a, b in zip(res.trace, res.trace[1:]))
        assert kl_profile(res.best, 512, tol=1e-3).verdict == "disc"

    def test_infeasible_start(self):
        # the start builds; its gauged curve does not
        start = build_curve(GAUGE_INFEASIBLE)
        with pytest.raises(NoFeasibleStart, match="radius of curvature "
                           r"0\.00075 <= 0\.001 at theta=0$"):
            minimize(start, "kl")

    def test_deterministic(self):
        a = minimize(FourierCurve(1.0, (0, 0, 0.08)), "bracket")
        b = minimize(FourierCurve(1.0, (0, 0, 0.08)), "bracket")
        assert a.trace == b.trace
        assert a.best == b.best

    def test_each_point_scored_once(self, monkeypatch):
        # each solve computes its residuals once at the start and once per
        # line-search trial, never again at an accepted point, and
        # evaluations counts every one
        for name in ("kl", "bracket"):
            calls = [0]
            residuals = _problem(name)[1]

            def counted(*args, residuals=residuals, calls=calls):
                calls[0] += 1
                return residuals(*args)

            monkeypatch.setattr(shapeopt, residuals.__name__, counted)
            res = minimize(NEAR_FLOOR, name)
            assert res.iterations > 0
            assert calls[0] == res.evaluations >= res.iterations + 1

    def test_unknown_objective(self):
        with pytest.raises(ValueError):
            minimize(FourierCurve(1.0, (0, 0, 0.08)), "simplex")

    @pytest.mark.parametrize("objective", ["kl", "bracket"])
    def test_values_are_python_floats(self, objective):
        res = minimize(FourierCurve(1.0, (0, 0, 0.08)), objective, max_iter=40)
        assert type(res.objective) is float
        assert all(type(j) is float for j in res.trace)

    def test_zero_set_matches_disc_verdict(self):
        res = minimize(FourierCurve(1.0, (), (0, 0.06)), "kl")
        assert res.objective <= 1e-10
        assert kl_profile(res.best, 256, tol=1e-4).verdict == "disc"


def _random_k8(seed, weight=0.6):
    # sum k^2 (|c_k| + |s_k|) = weight < 1 keeps the shape strictly convex
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((2, 8))
    c[:, 0] = 0.0
    c *= weight / float(np.sum(np.arange(1, 9) ** 2 * np.abs(c)))
    return FourierCurve(1.0, tuple(c[0]), tuple(c[1]))


KL_STARTS = [FourierCurve(1.0, (0, 0, 0.1)), _random_k8(1), _random_k8(2)]


class TestNewtonKL:
    """The kl Gauss-Newton solve: its residuals' affine parts checked
    against kl_profile's arrays, and its runs."""

    @pytest.mark.parametrize("v", KL_STARTS)
    def test_affine_parts_match_kl_profile(self, v):
        # kappa and L as kl_profile builds them, on the optimizer's grid
        curve = gauged(v)[0]
        n = 512
        thetas = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        rho = curve.rho(thetas)
        kl = width_at(curve, thetas) / rho
        prof = kl_profile(curve, n).kappa_L
        assert np.allclose(kl[:len(prof)], prof,
                           rtol=1e-14, atol=0.0)
        ref = 2.0 * math.pi / n * float(np.sum((kl - 2.0) ** 2 * rho))
        assert ref > 1e-3
        assert objective(v, "kl") == pytest.approx(ref, rel=0, abs=1e-12)

    @pytest.mark.parametrize("v", KL_STARTS)
    def test_derivatives_match_central_differences(self, v):
        # the closed-form Jacobian, and J's gradient 2 jac^T r, against
        # central differences of r and of J = r . r
        _, x = gauged(v)
        maps = shapeopt._kl_maps(8)
        r, jac = shapeopt._kl_residuals(maps, x)

        def res(dx):
            return shapeopt._kl_residuals(maps, x + dx)[0]

        eye = np.eye(len(x))
        d = 1e-7
        fd_jac = np.array([(res(d * e) - res(-d * e)) / (2 * d)
                           for e in eye]).T
        fd_grad = np.array([(res(d * e) @ res(d * e)
                             - res(-d * e) @ res(-d * e)) / (2 * d)
                            for e in eye])
        grad = 2.0 * jac.T @ r
        assert np.max(np.abs(jac - fd_jac)) <= 1e-6 * np.max(np.abs(jac))
        assert np.max(np.abs(grad - fd_grad)) <= 1e-6 * np.max(np.abs(grad))
        assert np.min(np.linalg.eigvalsh(jac.T @ jac)) > 0.0

    def test_near_floor_start(self, monkeypatch):
        # min rho = 1 - 8 * 0.1248 = 0.0016, just above EPS0 = 1e-3
        cleared = _record_cleared(monkeypatch)
        res = minimize(NEAR_FLOOR, "kl")
        start, *accepted = (FourierCurve(*g) for g in cleared)
        assert start == gauged(NEAR_FLOOR)[0]
        assert res.objective <= 1e-10
        assert res.iterations <= 10
        assert all(a > b for a, b in zip(res.trace, res.trace[1:]))
        assert len(accepted) == res.iterations == len(res.trace) - 1
        assert accepted[-1] == res.best

    def test_one_step_budget(self):
        res = minimize(FourierCurve(1.0, (0, 0, 0.1)), "kl", max_iter=1)
        assert res.iterations == 1
        assert len(res.trace) == 2

    def test_seed_is_ignored(self, tmp_path):
        # --seed is accepted and read by nothing
        spec = tmp_path / "start.json"
        spec.write_text(json.dumps(_random_k8(3).to_spec()))
        outs = []
        for seed in ("0", "12345"):
            out, trace = tmp_path / f"{seed}.json", tmp_path / f"{seed}.csv"
            assert cli.main(["optimize", "--shape", str(spec), "--seed", seed,
                             "--out", str(out), "--trace-out", str(trace)]) == 0
            outs.append(out.read_bytes() + trace.read_bytes())
        assert outs[0] == outs[1]

    def test_evaluations_count_every_j(self, monkeypatch):
        calls = [0]
        kl_residuals = shapeopt._kl_residuals

        def counted(*args):
            calls[0] += 1
            return kl_residuals(*args)

        monkeypatch.setattr(shapeopt, "_kl_residuals", counted)
        res = minimize(FourierCurve(1.0, (0, 0, 0.1248)), "kl")
        assert calls[0] == res.evaluations >= res.iterations + 1


def test_circle_distance_on_circle():
    h, _, rho = FourierCurve(5.0).periodic_jet(512)
    assert circle_distance(h, rho) <= 1e-12
