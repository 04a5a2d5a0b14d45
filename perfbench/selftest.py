"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py [--seed N]

1. Every wrapped function is rebound in every module that holds it, and
   restored afterwards.
2. Each oracle accepts a real output and rejects the same output with one
   value perturbed.
3. A traced run of each workload has calls > 0 on every function that
   workload exercises, and its traced outputs equal the untraced ones.
4. Two runs with the same seed write byte-identical outputs.

Exits 0 when every check holds; prints one line per check.  Takes about
seven minutes (fifteen workload passes).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import oracles  # noqa: E402
import run  # noqa: E402
from tracer import SPANS, Tracer  # noqa: E402
from workloads import TIMED, WORKLOADS  # noqa: E402

sys.path.insert(0, run.SRC)

# span or counter -> the workloads that must call it
EXERCISED = {
    "geometry.build_curve": TIMED,
    "geometry.chord_chart": TIMED,
    "geometry.chart_eval": TIMED,
    "geometry.arclength": ("certify",),
    "quadrature.adaptive_quad": ("sweep", "certify"),
    "moments.moment_sweep": ("sweep",),
    "moments.moment_chord": ("sweep", "certify"),
    "moments.moment_green": ("sweep",),
    "moments.moment_area": ("sweep",),
    "asymptotics.asymptotic_ratio": ("certify",),
    "asymptotics.arc_integral": ("certify",),
    "asymptotics.bracket_main_term": ("certify", "optimize"),
    "characterize.inscribed_disc": ("certify",),
    "characterize.lemma2_witness": ("certify",),
    "characterize.kl_profile": ("certify",),
    "characterize.identity_residuals": ("certify",),
    "characterize.p_zero_check": ("certify",),
    "characterize.constraint_residuals": ("certify",),
    "characterize.min_clearance": ("certify",),
    "shapeopt.minimize": ("optimize",),
    "shapeopt.objective_bracket": ("optimize",),
}

FAILED = []


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}{'  ' + detail if detail else ''}")
    if not ok:
        FAILED.append(name)


def check_rebinding():
    import discwitness.cli  # noqa: F401  (loads every module)
    import discwitness.shapeopt  # noqa: F401
    mods = {n: m for n, m in sys.modules.items()
            if n == "discwitness" or n.startswith("discwitness.")}
    originals = {}
    for mod_name, attr, _ in SPANS:
        if "." not in attr:
            originals[attr] = getattr(mods[f"discwitness.{mod_name}"], attr)
    tracer = Tracer()
    tracer.install()
    stale = [f"{n}.{a}" for n, m in mods.items() for a, v in vars(m).items()
             if any(v is o for o in originals.values())]
    tracer.uninstall()
    restored = all(getattr(mods[f"discwitness.{m}"], a) is originals[a]
                   for m, a, _ in SPANS if "." not in a)
    report("every reference to a wrapped function is rebound", not stale,
           ", ".join(stale))
    report("uninstall restores every original", restored)


def _perturb_csv(text, match, columns, fn):
    header, *lines = text.splitlines()
    cols = header.split(",")
    for i, line in enumerate(lines):
        cells = line.split(",")
        if match(dict(zip(cols, cells)), i, len(lines)):
            for column in columns:
                j = cols.index(column)
                cells[j] = repr(fn(float(cells[j])))
            lines[i] = ",".join(cells)
    return "\n".join([header] + lines) + "\n"


def _perturb_json(text, paths, fn):
    obj = json.loads(text)
    for path in paths:
        node = obj
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = fn(node[path[-1]])
    return json.dumps(obj)


def _scale(f):
    return lambda v: v * f


def _row(method, n):
    return lambda r, i, count: r["method"] == method and r["n"] == str(n)


MOMENT = ("re", "im", "abs")  # scaling all three keeps the row consistent

# (workload, op id) -> (perturb output, perturb trace, expected problem)
PERTURB = {
    ("sweep", "ellipse.moments400"): (lambda t: _perturb_csv(
        t, _row("chord", 200), MOMENT, _scale(1 + 1e-7)), None,
        "chord vs green gap"),
    ("sweep", "fourier.moments40"): (lambda t: _perturb_csv(
        t, _row("area", 10), MOMENT, _scale(1 + 1e-5)), None,
        "area vs chord gap"),
    ("sweep", "circle.moments40"): (lambda t: _perturb_csv(
        t, lambda r, i, n: r["n"] == "0", MOMENT, _scale(1 + 1e-6)), None,
        "M0 misses the disc closed form"),
    ("certify", "r0.ellipse1.residuals0"): (lambda t: _perturb_json(
        t, [["height"]], lambda v: v + 1e-8), None, "residual height"),
    ("certify", "r0.fourier2.identities"): (lambda t: _perturb_json(
        t, [["max_res_gap"]], lambda v: 1e-4), None, "identity residual"),
    ("certify", "r0.fourier3.asymptotics"): (lambda t: _perturb_csv(
        t, lambda r, i, n: i == n - 1, ["ratio_f_abs_err"], lambda v: 0.5),
        None, "does not fall with m"),
    ("certify", "r0.circle0.report"): (lambda t: _perturb_json(
        t, [["fitted_circle", "radius"]], lambda v: v + 1e-8), None,
        "fitted circle"),
    ("certify", "r0.ellipse1.report"): (lambda t: _perturb_json(
        t, [["inscribed", "radius"], ["witness", "K_radius"]],
        lambda v: v - 1e-5), None, "inscribed radius"),
    ("certify", "r0.fourier4.report"): (lambda t: _perturb_json(
        t, [["inscribed", "radius"], ["witness", "K_radius"]],
        lambda v: v - 1e-6), None, "below grid optimum"),
    ("certify", "r1.fourier2.report"): (lambda t: t.replace(
        '"max_dev": ', '"max_dev": NaN, "was": ', 1), None, "non-finite"),
    ("optimize", "start0.kl"): (None, lambda t: _perturb_csv(
        t, lambda r, i, n: True, ["J"], _scale(1e4)), "kl run stopped"),
    ("optimize", "start0.bracket"): (lambda t: _perturb_json(
        t, [["cos", 2]], lambda v: 0.5), None, "does not re-validate"),
    ("optimize", "start1.kl"): (None, lambda t: _perturb_csv(
        t, lambda r, i, n: i == 1, ["J"], _scale(2.0)), "trace increases"),
}


def check_oracles(seed):
    import discwitness.cli as cli
    from discwitness import build_curve
    work = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_ROOT)
    try:
        for (wl, op_id), (p_out, p_trace, expect) in PERTURB.items():
            shapes, ops = WORKLOADS[wl](seed)
            op = next(o for o in ops if o["id"] == op_id)
            shape = os.path.join(work, "shape.json")
            with open(shape, "w") as fh:
                json.dump(shapes[op["shape"]], fh)
            out, trace = os.path.join(work, "o.out"), os.path.join(work, "t.csv")
            argv = [a.replace("{out}", out).replace("{trace}", trace)
                    for a in op["argv"]]
            argv[argv.index("--shape") + 1] = shape
            assert cli.main(argv) == 0, op_id
            with open(out) as fh:
                text = fh.read()
            trace_text = None
            if os.path.exists(trace):
                with open(trace) as fh:
                    trace_text = fh.read()

            def verdict(t, tr):
                try:
                    if tr is not None:
                        return oracles.check_optimize(op, shapes[op["shape"]],
                                                      t, tr, build_curve)
                    return oracles.CHECKS[op["kind"]](op, shapes[op["shape"]], t)
                except ValueError as exc:
                    return [repr(exc)]

            clean = verdict(text, trace_text)
            bad = verdict(p_out(text) if p_out else text,
                          p_trace(trace_text) if p_trace else trace_text)
            caught = any(expect in problem for problem in bad)
            report(f"oracle {wl}/{op_id}: accepts real output, rejects perturbed",
                   not clean and caught, "; ".join(clean or bad)[:200])
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_traced_runs(seed):
    for wl in TIMED:
        s = run.run_workload(wl, seed, 0, trace=1)
        layers = s["layers"]
        missing = []
        for name, wls in EXERCISED.items():
            if wl not in wls:
                continue
            key = (f"{name}.points" if name == "geometry.chart_eval"
                   else f"{name}.calls")
            if not layers.get(key, 0) > 0:
                missing.append(key)
        report(f"{wl}: every exercised function has calls > 0", not missing,
               ", ".join(missing))
        units = run._units()
        absent = sorted(set(units) - set(layers))
        report(f"{wl}: traced run reports every per-layer metric", not absent,
               ", ".join(absent))
        report(f"{wl}: traced outputs equal untraced, all oracles pass",
               s["failed"] == 0, str(s["failures"][:2]))


def check_repeatable(seed):
    for wl in TIMED:
        first = run.run_workload(wl, seed, 0, trace=0)["digests"]
        second = run.run_workload(wl, seed, 0, trace=0)["digests"]
        report(f"{wl}: two runs with one seed write identical outputs",
               first == second and len(first) > 0)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    check_rebinding()
    check_oracles(args.seed)
    check_traced_runs(args.seed)
    check_repeatable(args.seed)
    print(f"{len(FAILED)} failed" if FAILED else "all self-tests passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
