"""Seeded end-to-end and per-layer benchmark of the discwitness CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # all timed workloads
    python3 perfbench/run.py --workload probes --seed 1   # known-defect probes

Workloads (see workloads.py): ``sweep`` (moment sweeps to n = 400),
``certify`` (reports, asymptotics, residuals, identities over a mixed
population) and ``optimize`` (kl and bracket shape optimization).
``probes`` runs the invalid specs and the optimizer start behind the
program's known defects; it is not timed and not part of BENCHMARK.json,
whose workloads must not contain failing ops, and it reports their
error rate.

Each run makes its shapes from the seed, measures set-up in fresh
interpreters, then drives ``discwitness.cli.main(argv)`` one op at a time
in one fresh single-threaded worker process with BLAS pinned to one
thread.  The fixed op list is run once, then again while another pass
fits in ``--seconds``.  ``run_s`` adds up each op's median over the
passes, with each op's wall time scaled to a reference machine speed
(set-up times likewise): the worker times a fixed numpy kernel around the
ops (see worker.py), which cancels the slow spells of a shared host.  The
summary line also prints the unscaled wall time.  After the worker exits, every pass's outputs are checked
against oracles, against the first pass and against earlier runs of the
same program version and seed, byte for byte (their digests are kept
under ``.perfbench_work/digests``).  The last line of stdout is one JSON
object:

    --trace 0: setup_s, run_s, peak_rss_mb (end to end, tracing off)
    --trace 1: per-layer spans and counters from one traced pass,
               run between two untraced passes

``attempted``/``failed`` count op executions; ``failed/attempted`` is the
error rate printed on the summary line.  Exit code 0 when the run
completed (whatever its error rate), 2 when the program is missing or the
worker did not finish.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

sys.path.insert(0, HERE)
from workloads import TIMED, WORKLOADS  # noqa: E402


class BenchError(Exception):
    """The benchmark could not produce a result (not an op failure)."""


def _env():
    env = dict(os.environ)
    for key in THREAD_PINS:
        env[key] = "1"
    env.pop("DISCWITNESS_THREADS", None)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def machine_info() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": 1, "machine": platform.machine()}


def _subprocess(argv, timeout):
    """Run a child to completion; kill and reap it on timeout."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_env(), cwd=ROOT, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{argv[1:]} did not finish within {timeout} s")
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:]} exited {proc.returncode}: {err[-2000:]}")
    return out


def measure_setup(shapes_path) -> list:
    worker = os.path.join(HERE, "worker.py")
    samples = []
    for _ in range(SETUP_PROBES):
        out = _subprocess([sys.executable, worker, "--setup", SRC, shapes_path],
                          PROBE_TIMEOUT_S)
        samples.append(json.loads(out.splitlines()[-1]))
    return samples


def _materialize(work, shapes, ops):
    """Write shape files; point each op's --shape at its file."""
    shape_dir = os.path.join(work, "shapes")
    os.makedirs(shape_dir)
    paths = {}
    for name, spec in shapes.items():
        paths[name] = os.path.join(shape_dir, name + ".json")
        with open(paths[name], "w") as fh:
            json.dump(spec, fh)
    job_ops = []
    for op in ops:
        argv = list(op["argv"])
        i = argv.index("--shape") + 1
        argv[i] = paths[argv[i]]
        job_ops.append({"id": op["id"], "argv": argv})
    return job_ops


def _read(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def history_path(name, seed, shapes, ops) -> str:
    """Digest file shared by runs of one program version on one input set."""
    h = hashlib.sha256(json.dumps([shapes, ops], sort_keys=True).encode())
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            h.update(_read(path) + b"\0")
    return os.path.join(WORK_ROOT, "digests",
                        f"{name}-{seed}-{h.hexdigest()[:16]}.json")


class Checker:
    """Checks each op execution; identical outputs are checked once.

    ``previous`` maps op ids to output digests of an earlier run of the
    same program version and seed; a differing output fails the op.
    """

    def __init__(self, shapes, ops, previous=None):
        self.shapes = shapes
        self.ops = {op["id"]: op for op in ops}
        self.previous = previous or {}
        self.digests = {}  # op id -> output digest of this run
        self.verdicts = {}  # digest -> problems
        self._build_curve = None

    def build_curve(self, spec):
        if self._build_curve is None:
            sys.path.insert(0, SRC)
            from discwitness import build_curve
            self._build_curve = build_curve
        return self._build_curve(spec)

    def _oracle(self, op, spec, out, trace):
        import oracles
        if op["kind"] in ("optimize_kl", "optimize_bracket"):
            if trace is None:
                return ["no trace output"]
            return oracles.check_optimize(op, spec, out.decode(), trace.decode(),
                                          self.build_curve)
        return oracles.CHECKS[op["kind"]](op, spec, out.decode())

    def check(self, out_dir, rec) -> list:
        op = self.ops[rec["id"]]
        if rec["traceback"]:
            return ["traceback: " + rec["traceback"].strip().splitlines()[-1]]
        want_rc = 2 if op.get("invalid") else 0
        if rec["rc"] != want_rc:
            last = rec["stderr"].strip().splitlines()[-1:]
            return [f"exit code {rec['rc']}, expected {want_rc}: " + "".join(last)]
        out = _read(os.path.join(out_dir, op["id"] + ".out"))
        trace = _read(os.path.join(out_dir, op["id"] + ".trace.csv"))
        if op.get("invalid"):
            return ["output written for an invalid spec"] if out else []
        if out is None:
            return ["no output file"]
        digest = hashlib.sha256(out + b"\0" + (trace or b"")).hexdigest()
        if self.digests.setdefault(op["id"], digest) != digest:
            return ["output bytes differ from the first pass"]
        if self.previous.get(op["id"], digest) != digest:
            return ["output bytes differ from an earlier run with this seed"]
        if digest not in self.verdicts:
            try:
                self.verdicts[digest] = self._oracle(
                    op, self.shapes[op["shape"]], out, trace)
            except (ValueError, KeyError, TypeError, IndexError,
                    UnicodeDecodeError) as exc:
                self.verdicts[digest] = [f"unparsable output: {exc!r}"]
        return self.verdicts[digest]


def run_workload(name, seed, seconds, trace) -> dict:
    shapes, ops = WORKLOADS[name](seed)
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORK_ROOT)
    try:
        job = {"src_dir": SRC, "work_dir": work, "seconds": seconds,
               "trace": bool(trace), "ops": _materialize(work, shapes, ops)}
        valid = dict.fromkeys(op["shape"] for op in ops if not op.get("invalid"))
        valid_path = os.path.join(work, "valid_shapes.json")
        with open(valid_path, "w") as fh:
            json.dump([shapes[n] for n in valid], fh)
        setup = measure_setup(valid_path)
        job_path = os.path.join(work, "job.json")
        result_path = os.path.join(work, "result.json")
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        _subprocess([sys.executable, os.path.join(HERE, "worker.py"),
                     job_path, result_path], WORKER_TIMEOUT_S)
        with open(result_path) as fh:
            result = json.load(fh)
        history = history_path(name, seed, shapes, ops)
        previous = None
        if os.path.exists(history):
            with open(history) as fh:
                previous = json.load(fh)
        checker = Checker(shapes, ops, previous)
        failures = []
        attempted = 0
        for p in result["passes"]:
            for rec in p["ops"]:
                attempted += 1
                problems = checker.check(p["dir"], rec)
                if problems:
                    failures.append((rec["id"], problems))
        os.makedirs(os.path.dirname(history), exist_ok=True)
        with open(history, "w") as fh:
            json.dump({**checker.digests, **(previous or {})}, fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    import_s = statistics.median(s["import_s"] for s in setup)
    validate_s = statistics.median(s["validate_s"] for s in setup)
    setup_s = statistics.median(s["import_s"] + s["validate_s"] for s in setup)
    traced = result.get("traced_pass")
    scaled, wall = {}, {}
    for i, p in enumerate(result["passes"]):
        for rec in p["ops"]:
            if i != traced:
                scaled.setdefault(rec["id"], []).append(rec["scaled_s"])
                wall.setdefault(rec["id"], []).append(rec["seconds"])
    op_s = {k: statistics.median(v) for k, v in scaled.items()}
    summary = {"workload": name, "seed": seed, "passes": len(result["passes"]),
               "ops_per_pass": len(ops), "attempted": attempted,
               "failed": len(failures), "failures": failures,
               "setup_s": setup_s, "import_s": import_s,
               "validate_s": validate_s,
               "run_s": sum(op_s.values()), "op_s": op_s,
               "wall_s": sum(statistics.median(v) for v in wall.values()),
               "peak_rss_mb": result["peak_rss_mb"],
               "digests": checker.digests}
    if trace:
        layers = dict(result["layers"])
        layers["setup.import_s"] = import_s
        layers["setup.validate_s"] = validate_s
        summary["layers"] = layers
        summary["wrapped"] = result["wrapped"]
    return summary


END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))


def _units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer"]}


def metrics_of(summary, trace) -> dict:
    if not trace:
        return {k: {"value": summary[k], "unit": u} for k, u in END_TO_END}
    units = _units()
    return {k: {"value": summary["layers"].get(k, 0), "unit": u}
            for k, u in units.items()}


def print_summary(s):
    rate = s["failed"] / s["attempted"]
    print(f"{s['workload']} seed={s['seed']}: setup_s={s['setup_s']:.4f} s  "
          f"run_s={s['run_s']:.4f} s (wall {s['wall_s']:.4f} s)  "
          f"error_rate={rate:.4f} "
          f"({s['failed']}/{s['attempted']} ops)  "
          f"peak_rss_mb={s['peak_rss_mb']:.1f} MB  passes={s['passes']}")
    slow = sorted(s["op_s"].items(), key=lambda kv: -kv[1])[:3]
    print("  slowest ops: " + ", ".join(f"{k} {v:.3f} s" for k, v in slow))
    for op_id, problems in s["failures"][:10]:
        print(f"  FAIL {op_id}: {'; '.join(problems)[:400]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "discwitness", "cli.py")):
        print(f"error: no program at {SRC}/discwitness", file=sys.stderr)
        return 2
    names = TIMED if args.workload == "all" else (args.workload,)
    print("machine: " + json.dumps(machine_info(), sort_keys=True))
    summaries = []
    try:
        for name in names:
            summaries.append(run_workload(name, args.seed, args.seconds,
                                          args.trace))
            print_summary(summaries[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(summaries) == 1:
        metrics = metrics_of(summaries[0], args.trace)
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries
                   for k, v in metrics_of(s, args.trace).items()}
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
