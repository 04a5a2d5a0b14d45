"""Seeded inputs and op lists for the benchmark workloads.

Each workload turns a seed into a dict of shape specs and a list of ops.
An op is one ``discwitness`` CLI call; its argv names the shape and
carries the placeholders ``{out}`` (and ``{trace}`` for optimize), which
the worker fills with a per-pass output path.  The program only ever sees
the generated shape files.  Every Fourier shape obeys the rule used by the
test suite, sum_k k^2 (|c_k| + |s_k|) <= 0.8, so it is strictly convex.

Every timed workload is a fixed population -- shapes, frames and ops drawn
once from fixed generators -- whose numbers the seed moves by a few
percent.  Free draws made the cost of a pass swing with the draw: the area
integrator stops its node doubling at 1024, 2048 or 4096 nodes (the last
adding a 128 MB eigenproblem) depending on shape and frame, and the
inscribed-disc search takes two to three times longer on some shapes than
on others.
"""

from __future__ import annotations

import math

import numpy as np

CONVEXITY_WEIGHT_MAX = 0.8


def _fourier(rng, k_max: int, weight: float) -> dict:
    """Support-Fourier spec with harmonics 2..k_max and sum k^2|coef| = weight.

    The first harmonic (a translation) is left at zero, so the origin stays
    well inside the shape and every chord chart exists.
    """
    if not 0.0 < weight <= CONVEXITY_WEIGHT_MAX:
        raise ValueError("weight must lie in (0, 0.8]")
    cos = rng.standard_normal(k_max)
    sin = rng.standard_normal(k_max)
    cos[0] = sin[0] = 0.0
    k2 = np.arange(1, k_max + 1) ** 2
    scale = weight / float(k2 @ np.abs(cos) + k2 @ np.abs(sin))
    return {"type": "support_fourier", "a0": 1.0,
            "cos": [float(v) for v in cos * scale],
            "sin": [float(v) for v in sin * scale]}


def _circle(rng, offset: float) -> dict:
    ang = rng.uniform(0.0, 2.0 * math.pi)
    return {"type": "circle",
            "center": [offset * math.cos(ang), offset * math.sin(ang)],
            "radius": float(rng.uniform(0.95, 1.05))}


def _ellipse(rng) -> dict:
    ang = rng.uniform(0.0, 2.0 * math.pi)
    return {"type": "ellipse", "a": float(rng.uniform(1.5, 1.7)), "b": 1.0,
            "center": [0.1 * math.cos(ang), 0.1 * math.sin(ang)],
            "rotation": float(rng.uniform(0.0, math.pi))}


def _nonconvex(rng) -> dict:
    """One harmonic with (k^2 - 1)|c_k| > 1: the radius of curvature
    1 + (1 - k^2) c_k cos(k theta) dips below 0."""
    k = int(rng.integers(2, 7))
    cos = [0.0] * k
    cos[k - 1] = float(rng.uniform(1.1, 1.5)) / (k * k - 1)
    return {"type": "support_fourier", "a0": 1.0, "cos": cos, "sin": []}


def _frame(rng) -> float:
    return round(float(rng.uniform(0.0, 360.0)), 6)


def _jittered(rng, spec: dict, rel: float) -> dict:
    """Copy of spec with every number scaled by its own factor in 1 +- rel."""
    def move(v):
        return float(v * (1.0 + rng.uniform(-rel, rel)))
    return {k: (v if k == "type" else
                [move(x) for x in v] if isinstance(v, list) else move(v))
            for k, v in spec.items()}


def _jittered_frame(rng, frame: float, spread_deg: float = 2.0) -> float:
    return round(frame + float(rng.uniform(-spread_deg, spread_deg)), 6)


def _op(op_id, kind, shape, argv, **extra) -> dict:
    """One CLI call: id, kind, argv template, shape name, expectations."""
    return dict(id=op_id, kind=kind, shape=shape, argv=argv, **extra)


# name -> (shape, frame in degrees)
SWEEP_SHAPES = {
    "circle": ({"type": "circle", "center": [0.2, 0.15], "radius": 1.0}, 0.0),
    "ellipse": ({"type": "ellipse", "a": 1.6, "b": 1.0, "center": [0.1, 0.05],
                 "rotation": 0.5}, 20.0),
    "fourier": ({"type": "support_fourier", "a0": 1.0, "cos": [0.0, 0.05],
                 "sin": [0.0, 0.0, 0.03]}, 45.0),
}


def sweep(seed: int):
    """Moment sweeps: every shape through n = 0..400 (chord, green) and
    n = 0..40 (chord, green, area) at one frame."""
    rng = np.random.default_rng([seed, 1])
    shapes = {}
    ops = []
    for name, (spec, frame) in SWEEP_SHAPES.items():
        shapes[name] = _jittered(rng, spec, 0.02)
        frame = _jittered_frame(rng, frame)
        common = ["--shape", name, "--frame-deg", repr(frame), "--out", "{out}"]
        ops.append(_op(f"{name}.moments400", "moments", name,
                       ["moments", "--n-max", "400", "--methods", "chord,green"]
                       + common, frame=frame, n_max=400,
                       methods=["chord", "green"]))
        ops.append(_op(f"{name}.moments40", "moments", name,
                       ["moments", "--n-max", "40"] + common, frame=frame,
                       n_max=40, methods=["area", "chord", "green"]))
    return shapes, ops


CERTIFY_KINDS = ("circle", "ellipse", "fourier", "fourier", "fourier")
CERTIFY_ROUNDS = 3
CERTIFY_FRAMES = 3


def _certify_base(r: int, i: int, kind: str):
    """The fixed shape and frames (report, then residuals) of slot i, round r."""
    base = np.random.default_rng([r, i, 20])
    if kind == "circle":
        spec = _circle(base, offset=float(base.uniform(0.05, 0.3)))
    elif kind == "ellipse":
        spec = _ellipse(base)
    else:
        spec = _fourier(base, int(base.integers(2, 9)),
                        float(base.uniform(0.2, 0.6)))
    return spec, [_frame(base) for _ in range(1 + CERTIFY_FRAMES)]


def certify(seed: int):
    """Characterization reports over a mixed population, plus a fixed share
    of non-convex specs that must be rejected with exit code 2."""
    rng = np.random.default_rng([seed, 2])
    shapes = {}
    ops = []
    for r in range(CERTIFY_ROUNDS):
        for i, kind in enumerate(CERTIFY_KINDS):
            name = f"r{r}.{kind}{i}"
            spec, frames = _certify_base(r, i, kind)
            shapes[name] = _jittered(rng, spec, 0.05)
            frame, *res_frames = [_jittered_frame(rng, f) for f in frames]
            ops.append(_op(f"{name}.report", "report", name,
                           ["report", "--shape", name, "--frame-deg",
                            repr(frame), "--out", "{out}"], frame=frame))
            ops.append(_op(f"{name}.asymptotics", "asymptotics", name,
                           ["asymptotics", "--shape", name, "--m-list",
                            "50,100,200", "--frame-deg", repr(frame),
                            "--out", "{out}"], frame=frame, m_list=[50, 100, 200]))
            for j, fr in enumerate(res_frames):
                ops.append(_op(f"{name}.residuals{j}", "residuals", name,
                               ["residuals", "--shape", name, "--frame-deg",
                                repr(fr), "--out", "{out}"], frame=fr))
            ops.append(_op(f"{name}.identities", "identities", name,
                           ["identities", "--shape", name, "--out", "{out}"]))
        bad = f"r{r}.nonconvex"
        shapes[bad] = _nonconvex(rng)
        ops.append(_op(f"{bad}.report", "reject", bad,
                       ["report", "--shape", bad, "--out", "{out}"],
                       invalid=True))
    return shapes, ops


OPTIMIZE_STARTS = 16
OPTIMIZE_BRACKET_STARTS = 1
BRACKET_MAX_ITER = 2


def optimize(seed: int):
    """Shape optimization from K = 8 Fourier starts: every start under the
    kl objective (run to convergence), the first also under the bracket
    objective with a small fixed iteration budget.

    A bracket run costs about fifteen kl runs (8 chord charts per
    evaluation against grid numpy; its initial simplex alone takes 15
    evaluations), so more starts go through kl than through bracket to
    keep both objectives near half of the pass.
    """
    rng = np.random.default_rng([seed, 3])
    shapes = {}
    ops = []
    for i in range(OPTIMIZE_STARTS):
        name = f"start{i}"
        shapes[name] = _jittered(rng, _fourier(np.random.default_rng([i, 30]),
                                               8, 0.4), 0.05)
        opt_seed = str(int(rng.integers(0, 1000)))
        ops.append(_op(f"{name}.kl", "optimize_kl", name,
                       ["optimize", "--shape", name, "--objective", "kl",
                        "--seed", opt_seed, "--out", "{out}",
                        "--trace-out", "{trace}"]))
        if i < OPTIMIZE_BRACKET_STARTS:
            ops.append(_op(f"{name}.bracket", "optimize_bracket", name,
                           ["optimize", "--shape", name, "--objective",
                            "bracket", "--max-iter", str(BRACKET_MAX_ITER),
                            "--seed", opt_seed, "--out", "{out}",
                            "--trace-out", "{trace}"]))
    return shapes, ops


# The two seed defects behind these specs are counted, never filtered:
# NaN and infinite parameters pass validation, so commands exit 0 with
# NaN in their JSON or exit 1 from deep inside the chart code, where 2 is
# the documented code; and the bracket optimizer crashes with Infeasible
# on this start.  The non-convex spec is the control that already exits 2.
def probes(seed: int):
    """Invalid specs that must exit 2, and the bracket-optimizer start that
    is known to crash with Infeasible."""
    rng = np.random.default_rng([seed, 4])
    specs = {
        "nan_radius": {"type": "circle", "center": [0.0, 0.0], "radius": math.nan},
        "inf_radius": {"type": "circle", "center": [0.0, 0.0], "radius": math.inf},
        "nan_center": {"type": "circle", "center": [math.nan, 0.0], "radius": 1.0},
        "inf_axis": {"type": "ellipse", "a": math.inf, "b": 1.0},
        "nan_coef": {"type": "support_fourier", "a0": 1.0, "cos": [0.0, math.nan]},
        "inf_a0": {"type": "support_fourier", "a0": math.inf},
        "nonconvex": _nonconvex(rng),
    }
    ops = []
    for name in specs:
        for cmd in ("profile", "report", "moments"):
            ops.append(_op(f"{name}.{cmd}", "reject", name,
                           [cmd, "--shape", name, "--out", "{out}"],
                           invalid=True))
    specs["infeasible_start"] = {"type": "support_fourier", "a0": 1.0,
                                 "cos": [0.0, 0.0, 0.1], "sin": [0.0, 0.04]}
    ops.append(_op("infeasible_start.bracket", "optimize_bracket",
                   "infeasible_start",
                   ["optimize", "--shape", "infeasible_start", "--objective",
                    "bracket", "--max-iter", "300", "--out", "{out}",
                    "--trace-out", "{trace}"]))
    return specs, ops


WORKLOADS = {"sweep": sweep, "certify": certify, "optimize": optimize,
             "probes": probes}

# Workloads the benchmark definition lists; ``probes`` is run on demand.
TIMED = ("sweep", "certify", "optimize")
