"""Runs one workload's ops in a fresh, single-threaded interpreter.

Usage (started by run.py, never by hand):
    python3 perfbench/worker.py JOB.json RESULT.json
    python3 perfbench/worker.py --setup SRC_DIR SHAPES.json

The job names the program's source directory, the ops (argv lists whose
``{out}``/``{trace}`` placeholders are filled per pass), the measuring
window and whether to trace.  Each op is one ``discwitness.cli.main(argv)``
call; the next starts only after the previous returns (closed loop, one
client).  Outputs go to one directory per pass and are checked by run.py
after this process exits, outside every timed region.

``--setup`` measures set-up alone: the time to import ``discwitness.cli``
in this fresh interpreter and then build and validate every shape, both
scaled by the machine speed index read right after.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


# Machine speed index.  The shared 2-core host this benchmark was built on
# runs the same op up to 1.6x slower for tens of seconds at a time.  A
# fixed kernel of the program's kind of work (small numpy calls in a
# Python loop), timed between ops, slows with it, so each op's time is also
# reported scaled by SPEED_REF_S / (kernel time around the op).  Measured
# over ten seeds this cut the quartile spread of run_s from 0.26 to 0.06 on
# certify (many short ops); on sweep, whose ops last seconds, it neither
# helped nor hurt (0.15).
SPEED_REF_S = 1.0e-3
SPEED_REPS = 5
SPEED_EVERY_S = 0.5


def _speed_kernel():
    import numpy as np  # not at the top: set-up times the program's import
    x = np.linspace(0.0, 1.0, 64)
    acc = 0.0
    for i in range(280):
        acc += float(np.sin(x * i) @ np.cos(x))
    return acc


def _speed():
    """Median time of a few kernel runs: one reading of the speed index."""
    times = []
    for _ in range(SPEED_REPS):
        t0 = time.perf_counter()
        _speed_kernel()
        times.append(time.perf_counter() - t0)
    return sorted(times)[SPEED_REPS // 2]


def _import_cli(src_dir):
    sys.path.insert(0, src_dir)
    t0 = time.perf_counter()
    import discwitness.cli as cli
    import_s = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src_dir)):
        raise SystemExit(f"discwitness imported from {cli.__file__}, "
                         f"not from {src_dir}")
    return cli, import_s


def setup_probe(src_dir, shapes_path):
    _, import_s = _import_cli(src_dir)
    with open(shapes_path) as fh:
        specs = json.load(fh)
    t0 = time.perf_counter()
    build_curve = sys.modules["discwitness"].build_curve
    for spec in specs:
        build_curve(spec)
    validate_s = time.perf_counter() - t0
    scale = SPEED_REF_S / _speed()
    print(json.dumps({"import_s": import_s * scale,
                      "validate_s": validate_s * scale}))


def _fill(argv, out_dir, op_id):
    out = os.path.join(out_dir, op_id + ".out")
    trace = os.path.join(out_dir, op_id + ".trace.csv")
    return [a.replace("{out}", out).replace("{trace}", trace) for a in argv]


def _run_op(cli, argv):
    """One closed-loop call; returns (seconds, exit code, traceback, stderr)."""
    err = io.StringIO()
    tb = None
    with contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse exits on bad arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = None
            tb = traceback.format_exc()
        dt = time.perf_counter() - t0
    return dt, rc, tb, err.getvalue()[-2000:]


def _run_pass(cli, ops, out_dir, tracer=None):
    """Run ops once; read the speed index before an op when the last
    reading is older than SPEED_EVERY_S, and after the last op."""
    os.makedirs(out_dir)
    records = []
    total = 0.0
    last_read, speed = -1e9, None
    for op in ops:
        if time.perf_counter() - last_read > SPEED_EVERY_S:
            speed = _speed()
            last_read = time.perf_counter()
            for rec in records:
                rec.setdefault("speed_after", speed)
        argv = _fill(op["argv"], out_dir, op["id"])
        if tracer is None:
            dt, rc, tb, err = _run_op(cli, argv)
        else:
            with tracer.span("cli.cmd"):
                dt, rc, tb, err = _run_op(cli, argv)
        total += dt
        records.append({"id": op["id"], "seconds": dt, "rc": rc,
                        "traceback": tb, "stderr": err, "speed_before": speed})
    speed = _speed()
    for rec in records:
        rec.setdefault("speed_after", speed)
        # scaled to the reference speed with the readings around the op
        mean = 0.5 * (rec.pop("speed_before") + rec.pop("speed_after"))
        rec["scaled_s"] = rec["seconds"] * SPEED_REF_S / mean
    return {"dir": out_dir, "seconds": total, "ops": records}


def run_job(job_path, result_path):
    with open(job_path) as fh:
        job = json.load(fh)
    cli, import_s = _import_cli(job["src_dir"])
    ops, work = job["ops"], job["work_dir"]
    passes = []
    started = time.perf_counter()
    if job["trace"]:
        # a warm-up pass, the same ops traced, then untraced again: the
        # last two differ only by the tracing, and every pass's outputs
        # must be identical
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        passes.append(_run_pass(cli, ops, os.path.join(work, "pass0")))
        tracer = Tracer()
        wrapped = tracer.install()
        passes.append(_run_pass(cli, ops, os.path.join(work, "pass1"), tracer))
        tracer.uninstall()
        passes.append(_run_pass(cli, ops, os.path.join(work, "pass2")))
        layers = tracer.metrics()
        layers["trace.overhead_s"] = passes[1]["seconds"] - passes[2]["seconds"]
        extra = {"layers": layers, "wrapped": wrapped,
                 "traced_pass": 1}
    else:
        # repeat the fixed op list while another pass fits in the window
        # (run.py takes each op's median over the passes)
        while True:
            passes.append(_run_pass(cli, ops, os.path.join(
                work, f"pass{len(passes)}")))
            elapsed = time.perf_counter() - started
            if elapsed + passes[-1]["seconds"] > job["seconds"]:
                break
        extra = {}
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"import_s": import_s, "passes": passes,
              "peak_rss_mb": peak_kb / 1024.0, **extra}
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--setup":
        setup_probe(sys.argv[2], sys.argv[3])
    elif len(sys.argv) == 3:
        run_job(sys.argv[1], sys.argv[2])
    else:
        raise SystemExit(__doc__)
