"""Output checks, one per op kind, run outside every timed region.

The reference values come from the benchmark's own numpy model of the
support function (``Model``), from closed forms (disc moment
e^{i x_c'} 2 pi r J1(r), inscribed radius b and witness width 2a of an
ellipse, chart extrema at theta = pi/2 + phi and 3 pi/2 + phi), and from
cross-checks between the program's independent integrators.  Each check
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

CHORD_GREEN_TOL = 1e-8
AREA_CHORD_TOL = 1e-6
AREA_MAX_N = 40
RESIDUAL_TOL = 1e-9
RADIUS_TOL = 1e-6
GRID_RADIUS_SLACK = 1e-8
IDENTITY_TOL = 1e-5
KL_TARGET = 1e-8
KL_CIRCLE_DISTANCE = 1e-4
ASYMPTOTIC_LAST_MAX = 0.05


class Model:
    """Support function h(theta) of a shape spec and its derivatives."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.kind = spec["type"]
        self.cx, self.cy = (float(v) for v in spec.get("center", (0.0, 0.0)))
        if self.kind == "support_fourier":
            k = max(len(spec.get("cos", ())), len(spec.get("sin", ())))
            self.k = np.arange(1, k + 1, dtype=float)
            self.c = np.zeros(k)
            self.s = np.zeros(k)
            self.c[:len(spec.get("cos", ()))] = spec.get("cos", ())
            self.s[:len(spec.get("sin", ()))] = spec.get("sin", ())

    def _shift(self, t, d):
        # derivative d of cx cos t + cy sin t
        c, s = np.cos(t), np.sin(t)
        return [self.cx * c + self.cy * s, -self.cx * s + self.cy * c,
                -self.cx * c - self.cy * s][d]

    def h(self, t, d=0):
        t = np.asarray(t, dtype=float)
        if self.kind == "circle":
            base = float(self.spec["radius"]) if d == 0 else 0.0 * t
        elif self.kind == "ellipse":
            a, b = float(self.spec["a"]), float(self.spec["b"])
            psi = t - float(self.spec.get("rotation", 0.0))
            w = (a * np.cos(psi)) ** 2 + (b * np.sin(psi)) ** 2
            w1 = (b * b - a * a) * np.sin(2.0 * psi)
            w2 = 2.0 * (b * b - a * a) * np.cos(2.0 * psi)
            base = [np.sqrt(w), 0.5 * w1 / np.sqrt(w),
                    0.5 * w2 / np.sqrt(w) - 0.25 * w1 ** 2 / w ** 1.5][d]
        else:
            kt = np.multiply.outer(t, self.k)
            k, c, s = self.k, self.c, self.s
            base = [float(self.spec["a0"]) + np.cos(kt) @ c + np.sin(kt) @ s,
                    -np.sin(kt) @ (k * c) + np.cos(kt) @ (k * s),
                    -np.cos(kt) @ (k * k * c) - np.sin(kt) @ (k * k * s)][d]
        return base + self._shift(t, d)

    def rho(self, t):
        return self.h(t) + self.h(t, 2)

    def extrema(self, frame_deg: float) -> dict:
        """Chart extrema in closed form: the upper peak has normal angle
        pi/2 in the rotated frame, the lower one 3 pi/2."""
        phi = math.radians(frame_deg)
        up, lo = math.pi / 2.0 + phi, 3.0 * math.pi / 2.0 + phi
        d = -float(self.h(up, 1)) - float(self.h(lo, 1))
        p = int(round(d / (2.0 * math.pi)))
        return {"height": abs(abs(float(self.h(up))) - abs(float(self.h(lo)))),
                "curv": abs(1.0 / float(self.rho(up)) - 1.0 / float(self.rho(lo))),
                "phase": abs(d - 2.0 * math.pi * p), "p": p}

    def clearance(self, centers, grid: int = 1 << 16):
        """min over theta of h - c.u for each center, on a fine grid."""
        t = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
        h, c, s = self.h(t), np.cos(t), np.sin(t)
        return np.array([float(np.min(h - x * c - y * s)) for x, y in centers])


def _j1(x: float) -> float:
    """Bessel J1 by its power series (|x| of order 1 here)."""
    term = x / 2.0
    total = term
    for m in range(1, 60):
        term *= -(x * x / 4.0) / (m * (m + 1))
        total += term
        if abs(term) < 1e-18 * abs(total):
            break
    return total


def strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def parse_csv(text: str):
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty CSV")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"ragged CSV row: {line!r}")
        row = {}
        for key, cell in zip(header, cells):
            if cell == "":
                row[key] = None
                continue
            try:
                row[key] = int(cell)
            except ValueError:
                try:
                    row[key] = float(cell)
                except ValueError:
                    row[key] = cell  # a text column such as "method"
                    continue
            if not math.isfinite(row[key]):
                raise ValueError(f"non-finite value {cell} in column {key}")
        rows.append(row)
    return header, rows


def _finite_tree(obj, path="$"):
    if isinstance(obj, float) and not math.isfinite(obj):
        return [f"non-finite {path}"]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in _finite_tree(v, f"{path}.{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in _finite_tree(v, f"{path}[{i}]")]
    return []


def _gap(z1: complex, z2: complex, scale: float) -> float:
    return abs(z1 - z2) / max(abs(z1), abs(z2), scale)


def check_moments(op, spec, text):
    header, rows = parse_csv(text)
    if header != ["n", "frame_deg", "method", "re", "im", "log_scale", "abs"]:
        return [f"unexpected header {header}"]
    problems = []
    by_method = {}
    for r in rows:
        if r["frame_deg"] != op["frame"]:
            problems.append(f"frame_deg {r['frame_deg']} != {op['frame']}")
            break
        z = complex(r["re"], r["im"])
        if abs(abs(z) - r["abs"]) > 1e-12 * max(1.0, r["abs"]):
            problems.append(f"abs column disagrees with re, im at n={r['n']}")
        by_method.setdefault(r["method"], {})[r["n"]] = z
    want = list(range(op["n_max"] + 1))
    for method in op["methods"]:
        if sorted(by_method.get(method, {})) != want:
            problems.append(f"{method}: orders are not 0..{op['n_max']}")
    if problems:
        return problems
    model = Model(spec)
    chord, green = by_method["chord"], by_method["green"]
    phi = math.radians(op["frame"])
    ymax = max(abs(float(model.h(math.pi / 2 + phi))),
               abs(float(model.h(3 * math.pi / 2 + phi))))
    for n in want:
        # moments far below the natural size ymax^(n+1)/(n+1) are compared
        # absolutely at that scale: both integrators stop at a relative
        # tolerance of the integral, not of its cancelling parts
        scale = 1e-6 * ymax ** (n + 1) / (n + 1)
        g = _gap(chord[n], green[n], scale)
        if g > CHORD_GREEN_TOL:
            problems.append(f"chord vs green gap {g:.3g} at n={n}")
        if "area" in by_method and n <= AREA_MAX_N:
            g = _gap(by_method["area"][n], chord[n], scale)
            if g > AREA_CHORD_TOL:
                problems.append(f"area vs chord gap {g:.3g} at n={n}")
    if spec["type"] == "circle":
        r = float(spec["radius"])
        cx = model.cx * math.cos(phi) + model.cy * math.sin(phi)
        m0 = cmath.exp(1j * cx) * 2.0 * math.pi * r * _j1(r)
        for method, tol in (("chord", CHORD_GREEN_TOL), ("green", CHORD_GREEN_TOL),
                            ("area", AREA_CHORD_TOL)):
            if method in by_method and _gap(by_method[method][0], m0, 0.0) > tol:
                problems.append(f"{method} M0 misses the disc closed form")
    return problems


def _check_residual_values(res, model, frame):
    ext = model.extrema(frame)
    problems = []
    for key in ("height", "curv", "phase"):
        if abs(res[key] - ext[key]) > RESIDUAL_TOL:
            problems.append(f"residual {key} {res[key]!r} != {ext[key]!r}")
    if res["p"] != ext["p"]:
        problems.append(f"residual p {res['p']} != {ext['p']}")
    return problems


def check_residuals(op, spec, text):
    res = strict_json(text)
    return _check_residual_values(res, Model(spec), op["frame"])


def check_identities(op, spec, text):
    ident = strict_json(text)
    problems = []
    if max(ident["max_res_gap"], ident["max_res_width"]) > IDENTITY_TOL:
        problems.append("identity residual above 1e-5")
    if abs(ident["total_curvature"] - 2.0 * math.pi) > 1e-8:
        problems.append("total curvature is not 2 pi")
    if abs(ident["total_L_prime"]) > 1e-8 or not ident["p_zero_consistent"]:
        problems.append("width is not periodic (p != 0)")
    return problems


def check_asymptotics(op, spec, text):
    header, rows = parse_csv(text)
    if header != ["m", "ratio_f_abs_err", "ratio_g_abs_err", "combined_abs_err"]:
        return [f"unexpected header {header}"]
    if [r["m"] for r in rows] != op["m_list"]:
        return ["m column does not match --m-list"]
    problems = []
    for col in ("ratio_f_abs_err", "ratio_g_abs_err"):
        errs = [r[col] for r in rows]
        # the leading-term error is O(1/m)
        if not all(a > b for a, b in zip(errs, errs[1:])):
            problems.append(f"{col} does not fall with m: {errs}")
        if errs[-1] > ASYMPTOTIC_LAST_MAX:
            problems.append(f"{col} at m={rows[-1]['m']} is {errs[-1]:.3g}")
    return problems


def check_report(op, spec, text):
    rep = strict_json(text)
    problems = _finite_tree(rep)
    model = Model(spec)
    problems += _check_residual_values(rep["residuals"], model, op["frame"])
    ident = rep["identities"]
    if max(ident["max_res_gap"], ident["max_res_width"]) > IDENTITY_TOL:
        problems.append("identity residual above 1e-5")
    (cx, cy), r = rep["inscribed"]["center"], rep["inscribed"]["radius"]
    witness = rep.get("witness")
    kind = spec["type"]
    if kind == "circle":
        fit = rep.get("fitted_circle")
        if rep["verdict"] != "disc" or fit is None or witness is not None:
            return problems + ["circle: verdict must be disc, without witness"]
        for got, want in ((fit["radius"], spec["radius"]),
                          (fit["center"][0], model.cx),
                          (fit["center"][1], model.cy)):
            if abs(got - want) > RESIDUAL_TOL:
                problems.append(f"fitted circle {fit} != spec {spec}")
                break
        if abs(r - spec["radius"]) > RADIUS_TOL or math.hypot(
                cx - model.cx, cy - model.cy) > RADIUS_TOL:
            problems.append("circle: inscribed disc is not the circle")
        return problems
    if rep["verdict"] != "not_disc" or witness is None:
        return problems + [f"{kind}: verdict must be not_disc, with witness"]
    if abs(witness["K_radius"] - r) > 1e-12 * max(1.0, r):
        problems.append("witness disc differs from the inscribed disc")
    width = float(model.h(witness["x_prime_theta"])
                  + model.h(witness["x_prime_theta"] + math.pi))
    if abs(witness["L_dir"] - width) > RESIDUAL_TOL:
        problems.append("witness L_dir is not the width at x'")
    if kind == "ellipse":
        if abs(r - spec["b"]) > RADIUS_TOL:
            problems.append(f"ellipse: inscribed radius {r!r} != b")
        if abs(witness["L_dir"] - 2.0 * spec["a"]) > RADIUS_TOL:
            problems.append(f"ellipse: witness L_dir {witness['L_dir']!r} != 2a")
        return problems
    steps = np.linspace(-0.05, 0.05, 11)
    grid_best = float(np.max(model.clearance(
        [(cx + dx, cy + dy) for dx in steps for dy in steps])))
    if r < grid_best - GRID_RADIUS_SLACK:
        problems.append(f"inscribed radius {r!r} below grid optimum {grid_best!r}")
    if r > float(model.clearance([(cx, cy)])[0]) + GRID_RADIUS_SLACK:
        problems.append("inscribed disc leaves the shape")
    return problems


def _check_trace(text):
    header, rows = parse_csv(text)
    if header != ["iter", "J", "circle_distance", "min_rho"]:
        return None, [f"unexpected trace header {header}"]
    js = [r["J"] for r in rows]
    if not all(a >= b for a, b in zip(js, js[1:])):
        return rows, ["objective trace increases"]
    return rows, []


def check_optimize(op, spec, text, trace_text, build_curve):
    out = strict_json(text)
    problems = []
    try:
        build_curve(out)
    except Exception as exc:  # any rejection of our own output is a failure
        problems.append(f"output spec does not re-validate: {exc}")
    rows, trace_problems = _check_trace(trace_text)
    problems += trace_problems
    if rows and op["kind"] == "optimize_kl":
        last = rows[-1]
        if last["J"] > KL_TARGET or last["circle_distance"] > KL_CIRCLE_DISTANCE:
            problems.append(f"kl run stopped at J={last['J']!r}, "
                            f"circle_distance={last['circle_distance']!r}")
    return problems


CHECKS = {
    "moments": check_moments,
    "residuals": check_residuals,
    "identities": check_identities,
    "asymptotics": check_asymptotics,
    "report": check_report,
}
