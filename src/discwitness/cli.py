"""Command-line front end.

Subcommands: profile, moments, asymptotics, inscribed, identities,
residuals, optimize, report.  Each cmd_<name>(curve, args) returns its
output text; main parses argv by the subcommand's own parser, loads --shape
and writes the text atomically to --out (a symlink's target).  Angles are
degrees on the command line, radians inside; floats are emitted with 17
significant digits so round-trips are bit-faithful.

Exit codes: 0 success; 1 numerical failure (quadrature non-convergence, a
failed inscribed-disc search); 2 validation error (malformed spec,
non-convex shape, bad arguments, an --out or --trace-out it cannot write).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import io
import itertools
import json
import math
import os
import stat
import sys

import numpy as np

from . import characterize, shapeopt
from .asymptotics import asymptotic_ratio, check_m_list
from .errors import DiscWitnessError, MalformedSpec, NoFeasibleStart, NotStrictlyConvex
from .geometry import FourierCurve, arclength, build_curve
from .logscale import exp_or_inf
from .moments import METHODS, check_orders, moment_sweep


class UnwritableOutput(DiscWitnessError):
    """An --out or --trace-out path that cannot be written."""


VALIDATION_ERRORS = (MalformedSpec, NotStrictlyConvex, NoFeasibleStart, UnwritableOutput)
# "chord" names green's integral traversed in x along the arcs: its rows are
# green's, from the same sweep
MOMENT_NAMES = ("chord",) + METHODS


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _emit(path, text: str) -> None:
    """Write text to stdout, or to path (a link's target) by a temp file and
    a rename, in open(path, "w")'s mode: its own, else 0o666 less the umask."""
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    target, st = path, None
    try:
        with contextlib.suppress(FileNotFoundError):  # then st stays None
            st = os.lstat(path)
            if stat.S_ISLNK(st.st_mode):  # a link loop raises, as open would
                st, target = None, os.path.realpath(path)
                st = os.stat(target)
        for i in itertools.count():  # unique per process; a leftover is skipped
            tmp = os.path.join(os.path.dirname(target), f".discwitness-{os.getpid()}-{i}")
            with contextlib.suppress(FileExistsError):
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | os.O_CLOEXEC, 0o666)
                break
        try:
            try:
                if st is not None:
                    os.fchmod(fd, stat.S_IMODE(st.st_mode))
                data = text.encode()
                while data:
                    data = data[os.write(fd, data):]
            finally:
                os.close(fd)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise UnwritableOutput(f"cannot write {path}: {exc.strerror}") from exc


def _csv(rows, header) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join("" if v is None else _fmt(v) for v in row) + "\n")
    return buf.getvalue()


def _json(obj) -> str:
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise DiscWitnessError(f"non-finite value in output: {exc}") from exc


def _load_curve(args):
    try:
        with open(args.shape) as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise MalformedSpec(f"cannot read shape file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedSpec(f"shape file is not valid JSON: {exc}") from exc
    return build_curve(spec)


def _profile_dict(report):
    out = {
        "verdict": report.verdict,
        "max_dev": report.max_dev,
        "tol": report.tol,
    }
    if report.fitted_circle is not None:
        (cx, cy), r = report.fitted_circle
        out["fitted_circle"] = {"center": [cx, cy], "radius": r}
    return out


def cmd_profile(curve, args) -> str:
    report = characterize.kl_profile(curve, args.samples, args.tol)
    if args.format == "csv":  # with the arc length s from theta = 0
        columns = (arclength(curve, 0.0, report.theta), report.theta,
                   report.kappa, report.L, report.kappa_L)
        return _csv(zip(*(c.tolist() for c in columns)),
                    ["s", "theta", "kappa", "L", "kappaL"])
    return _json(_profile_dict(report))


def cmd_moments(curve, args) -> str:
    n_list = args.n_list or range(args.n_max + 1)
    orders = sorted(set(n_list))
    integral = {m: "green" if m == "chord" else m for m in args.methods}
    integrals = list(dict.fromkeys(integral.values()))  # fixes which failure shows
    cells = {}  # integral -> its value columns, one line per order
    for m, (mantissa, log_scale) in zip(integrals, moment_sweep(
            curve, orders, math.radians(args.frame_deg), integrals)):
        # np.exp and np.abs(complex) differ from math.exp and abs() in the last
        # bit; complex * float and np.hypot match Python, inf and nan included
        with np.errstate(over="ignore", invalid="ignore"):
            val = mantissa * np.array([exp_or_inf(x) for x in log_scale.tolist()])
        table = np.stack([val.real, val.imag, log_scale, np.hypot(val.real, val.imag)])
        cells[m] = ("%.17g,%.17g,%.17g,%.17g\n" * len(orders)
                    % tuple(table.T.ravel().tolist())).splitlines(keepends=True)
    # rows by order, then method name; a repeated order or method repeats its rows
    names = sorted(args.methods)
    row = "".join("%d," + _fmt(args.frame_deg) + "," + name + ",%s" for name in names)
    text = row * len(orders) % tuple(itertools.chain.from_iterable(zip(
        *[column for name in names for column in (orders, cells[integral[name]])])))
    if len(n_list) > len(orders):
        repeats = collections.Counter(n_list)
        text = "".join(line * repeats[n] for line, n in zip(
            text.splitlines(keepends=True), (n for n in orders for _ in names)))
    return "n,frame_deg,method,re,im,log_scale,abs\n" + text


def cmd_asymptotics(curve, args) -> str:
    rows = asymptotic_ratio(curve, math.radians(args.frame_deg), args.m_list)
    return _csv([(r.m, r.ratio_f_abs_err, r.ratio_g_abs_err, r.combined_abs_err)
                 for r in rows],
                ["m", "ratio_f_abs_err", "ratio_g_abs_err", "combined_abs_err"])


def cmd_inscribed(curve, args) -> str:
    (cx, cy), r = characterize.inscribed_disc(curve)
    return _json({"center": [cx, cy], "radius": r})


def cmd_identities(curve, args) -> str:
    return _json({**vars(characterize.identity_residuals(curve, args.samples)),
                  **vars(characterize.p_zero_check(curve))})


def cmd_residuals(curve, args) -> str:
    res = characterize.constraint_residuals(curve, math.radians(args.frame_deg))
    return _json(vars(res))


def cmd_optimize(curve, args) -> str:
    """The gauged optimum's spec; writes --trace-out itself, before --out."""
    if not isinstance(curve, FourierCurve):
        raise MalformedSpec("optimize requires a support_fourier or circle shape")
    result = shapeopt.minimize(curve, args.objective, args.max_iter)
    if args.trace_out:
        rows = [(i, j, None, None) for i, j in enumerate(result.trace)]
        rows[-1] = (len(rows) - 1, result.objective,
                    result.circle_distance, result.min_rho)
        _emit(args.trace_out, _csv(rows, ["iter", "J", "circle_distance",
                                          "min_rho"]))
    return _json(result.best.to_spec())


def cmd_report(curve, args) -> str:
    profile = characterize.kl_profile(curve, args.samples, args.tol)
    res = characterize.constraint_residuals(curve, math.radians(args.frame_deg))
    disc = characterize.inscribed_disc(curve)
    (cx, cy), r = disc
    ident = characterize.identity_residuals(curve, args.samples)
    witness = characterize.lemma2_witness(curve, disc=disc)
    out = _profile_dict(profile)
    out["residuals"] = vars(res)
    out["inscribed"] = {"center": [cx, cy], "radius": r}
    out["identities"] = {"max_res_gap": ident.max_res_gap,
                         "max_res_width": ident.max_res_width}
    if witness is not None:
        out["witness"] = vars(witness)
    return _json(out)


def _int_list(check):
    """argparse type: comma-separated integers that pass check, a library
    validator raising ValueError."""
    def parse(text):
        try:
            values = [int(v) for v in text.split(",")]
            check(values)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return values
    return parse


def _finite(text):
    """argparse type: a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not finite")
    return value


def _methods(text):
    names = [v.strip() for v in text.split(",")]
    unknown = [v for v in names if v not in MOMENT_NAMES]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown method {unknown[0]!r}; choose from {', '.join(MOMENT_NAMES)}")
    return names


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process, its .subcommands each
    name's subparser; parsing leaves them unchanged."""
    parser = argparse.ArgumentParser(
        prog="discwitness",
        description="Moment, asymptotic, and disc-characterization analyses "
                    "of strictly convex plane shapes.")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = {}

    shared = {  # each subcommand takes only the ones it reads
        "--format": dict(choices=["csv", "json"], default="json"),
        "--frame-deg": dict(type=_finite, default=0.0),
        "--tol": dict(type=float, default=1e-6),
        "--samples": dict(type=int, default=64),
        "--seed": dict(type=int, default=0,
                       help="ignored: both objectives are deterministic"),
    }

    def add(name, help, func, *flags):
        p = parser.subcommands[name] = sub.add_parser(name, help=help)
        p.add_argument("--shape", required=True, help="shape spec JSON file")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        p.set_defaults(func=func, command=name)  # as the full parse sets it
        return p

    p = add("profile", "kappa*L profile and disc verdict", cmd_profile,
            "--format", "--tol", "--samples")
    p.set_defaults(samples=1000)

    p = add("moments", "moment sweep, CSV", cmd_moments, "--frame-deg")
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--n-list", type=_int_list(check_orders), default=None)
    p.add_argument("--methods", type=_methods, default=",".join(MOMENT_NAMES))

    p = add("asymptotics", "Laplace ratio table, CSV", cmd_asymptotics,
            "--frame-deg")
    p.add_argument("--m-list", type=_int_list(check_m_list), default="50,100,200")

    add("inscribed", "maximal inscribed disc", cmd_inscribed)
    add("identities", "differential identity residuals", cmd_identities,
        "--samples")
    add("residuals", "frame peak constraint residuals", cmd_residuals, "--frame-deg")

    p = add("optimize", "drive the shape toward a disc", cmd_optimize, "--seed")
    p.add_argument("--objective", choices=["kl", "bracket"], default="kl")
    p.add_argument("--max-iter", type=int, default=5000)
    p.add_argument("--trace-out", default=None, help="objective trace CSV")

    add("report", "combined JSON report", cmd_report,
        "--frame-deg", "--tol", "--samples")

    return parser


def main(argv=None) -> int:
    argv, parser = sys.argv[1:] if argv is None else argv, build_parser()
    sub = parser.subcommands.get(argv[0]) if argv else None
    args, rest = sub.parse_known_args(argv[1:]) if sub else (None, True)
    if rest:  # no subcommand, or leftover arguments: the full parse and its errors
        args = parser.parse_args(argv)
    if not 0 < getattr(args, "tol", 1.0) < math.inf:
        parser.exit(2, "tol must be positive and finite\n")
    if getattr(args, "samples", 16) < 16:
        parser.exit(2, "samples must be >= 16\n")
    if getattr(args, "n_max", 0) < 0:
        parser.error("n-max must be >= 0")
    if getattr(args, "max_iter", 0) < 0:
        parser.error("max-iter must be >= 0")
    try:
        _emit(args.out, args.func(_load_curve(args), args))
    except DiscWitnessError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, VALIDATION_ERRORS) else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
