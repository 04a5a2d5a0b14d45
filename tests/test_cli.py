import json
import math
import os
import stat
import subprocess
import sys
import warnings

import mpmath
import pytest

import discwitness
from discwitness import characterize
from discwitness.cli import build_parser, main
from discwitness.geometry import CONTACT_GRID, FourierCurve, SupportCurve
from discwitness.logscale import exp_or_inf
from discwitness.moments import moment_sweep

CIRCLE = {"type": "circle", "center": [0, 0], "radius": 1}
ELLIPSE = {"type": "ellipse", "a": 2, "b": 1, "center": [0, 0], "rotation": 0}
NONCONVEX = {"type": "support_fourier", "a0": 1, "cos": [0, 0, 0.5]}
THREE_LOBE = {"type": "support_fourier", "a0": 1, "cos": [0, 0, 0.1]}
SWEEP_FOURIER = {"type": "support_fourier", "a0": 1.0, "cos": [0.0, 0.05],
                 "sin": [0.0, 0.0, 0.03]}
CIRCLE_10 = {"type": "circle", "center": [0, 0], "radius": 10}
FAR_CIRCLE = {"type": "circle", "center": [1000, 1000], "radius": 1}
# a/b = 3e4: h's spectrum outruns arclength's node budget
FLAT_ROTATED = {"type": "ellipse", "a": 9e6, "b": 300, "rotation": 0.2}
NON_FINITE = {
    "nan_radius": {"type": "circle", "center": [0.0, 0.0], "radius": math.nan},
    "inf_radius": {"type": "circle", "center": [0.0, 0.0], "radius": math.inf},
    "nan_center": {"type": "circle", "center": [math.nan, 0.0], "radius": 1.0},
    "inf_axis": {"type": "ellipse", "a": math.inf, "b": 1.0},
    "nan_coef": {"type": "support_fourier", "a0": 1.0, "cos": [0.0, math.nan]},
    "inf_a0": {"type": "support_fourier", "a0": math.inf},
}


@pytest.fixture
def shape_file(tmp_path):
    def write(spec, name="shape.json"):
        path = tmp_path / name
        path.write_text(json.dumps(spec))
        return str(path)

    return write


def run(args):
    return main(args)


class TestExitCodes:
    def test_profile_circle(self, shape_file, tmp_path):
        out = tmp_path / "out.json"
        assert run(["profile", "--shape", shape_file(CIRCLE),
                    "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["verdict"] == "disc"
        assert report["fitted_circle"]["radius"] == pytest.approx(1.0)

    def test_nonconvex_is_validation_error(self, shape_file, capsys):
        # an ellipse's least rho, b^2/a at the major axis' normal: 1e-4 here
        for spec in (NONCONVEX, {"type": "ellipse", "a": 1, "b": 0.01}):
            assert run(["profile", "--shape", shape_file(spec)]) == 2
            assert "NotStrictlyConvex" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        # broken JSON, then a shape parameter that is not a number
        for text in ("{not json", '{"type": "circle", "radius": true}'):
            bad.write_text(text)
            assert run(["profile", "--shape", str(bad)]) == 2
            assert "MalformedSpec" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert run(["profile", "--shape", str(tmp_path / "nope.json")]) == 2

    def test_failed_disc_search_is_numerical_error(self, shape_file, capsys,
                                                   monkeypatch):
        monkeypatch.setattr(characterize, "_NEWTON_STEPS", 0)
        assert run(["inscribed", "--shape", shape_file(THREE_LOBE)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_origin_at_lowest_point_is_numerical_error(self, shape_file,
                                                         capsys):
        # the lower arc's y cancels to ~1e-8 there, so y^{2m} carries
        # relative noise above the trapezoid kernel's stopping test
        spec = {"type": "circle", "center": [0.0, 1.0 - 1e-8], "radius": 1.0}
        assert run(["asymptotics", "--shape", shape_file(spec),
                    "--m-list", "10,200"]) == 1
        err = capsys.readouterr().err
        assert "QuadratureNoConvergence" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["residuals", "asymptotics", "report"])
    def test_origin_outside_is_validation_error(self, shape_file, capsys,
                                                command):
        # the frame peaks need the origin inside; moments do not
        far = shape_file({"type": "circle", "center": [5, 0], "radius": 1})
        assert run([command, "--shape", far]) == 2
        err = capsys.readouterr().err
        assert "MalformedSpec" in err and "Traceback" not in err
        assert run(["moments", "--shape", far, "--n-max", "3"]) == 0

    @pytest.mark.parametrize("command", ["profile", "report", "moments"])
    @pytest.mark.parametrize("name", sorted(NON_FINITE))
    def test_non_finite_spec_is_validation_error(self, shape_file, tmp_path,
                                                 capsys, name, command):
        out = tmp_path / "out"
        assert run([command, "--shape", shape_file(NON_FINITE[name]),
                    "--out", str(out)]) == 2
        assert "MalformedSpec" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["profile", "inscribed", "report"])
    def test_aliased_harmonic_is_validation_error(self, shape_file, tmp_path,
                                                 capsys, command):
        # cos 4096 theta is 1 on every node of the 4096-node validation
        # grid, where rho reads 17.8 against a true minimum of -15.8
        spec = {"type": "support_fourier", "a0": 1, "cos": [0] * 4095 + [-1e-6]}
        out = tmp_path / "out"
        assert run([command, "--shape", shape_file(spec),
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "MalformedSpec" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["inscribed", "--out"],
                                      ["optimize", "--trace-out"]],
                             ids=["out", "trace-out"])
    @pytest.mark.parametrize("where,reason", [
        ("missing/x", "No such file or directory"), ("dir", "Is a directory")],
        ids=["missing_dir", "directory"])
    def test_unwritable_output_is_validation_error(self, shape_file, tmp_path,
                                                   capsys, argv, where, reason):
        (tmp_path / "dir").mkdir()
        target = str(tmp_path / where)
        assert run([argv[0], "--shape", shape_file(CIRCLE), argv[1], target]) == 2
        assert capsys.readouterr() == (
            "", f"error: UnwritableOutput: cannot write {target}: {reason}\n")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["dir", "shape.json"]

    @pytest.mark.parametrize("existing", ["--out", "--trace-out"])
    def test_output_mode_is_what_open_leaves(self, shape_file, tmp_path,
                                             existing):
        """A new file gets 0o666 less the umask, an existing one keeps its
        mode, as with open(path, "w")."""
        paths = {"--out": tmp_path / "best.json", "--trace-out": tmp_path / "t.csv"}
        paths[existing].write_text("old")
        paths[existing].chmod(0o604)
        umask = os.umask(0o027)
        try:
            assert run(["optimize", "--shape", shape_file(CIRCLE)] + [
                str(v) for item in paths.items() for v in item]) == 0
        finally:
            os.umask(umask)
        assert {flag: stat.S_IMODE(path.stat().st_mode)
                for flag, path in paths.items()} == {
            flag: 0o604 if flag == existing else 0o640 for flag in paths}


SHARED_FLAGS = {"--format": "json", "--frame-deg": "0", "--tol": "1e-6",
                "--samples": "64", "--seed": "0"}
READ_FLAGS = {
    "profile": {"--format", "--tol", "--samples"},
    "moments": {"--frame-deg"},
    "asymptotics": {"--frame-deg"},
    "inscribed": set(),
    "identities": {"--samples"},
    "residuals": {"--frame-deg"},
    "optimize": {"--seed"},
    "report": {"--frame-deg", "--tol", "--samples"},
}
UNREAD = [(cmd, flag) for cmd, read in READ_FLAGS.items()
          for flag in SHARED_FLAGS if flag not in read]


class TestFlags:
    @pytest.mark.parametrize("command,flag", UNREAD)
    def test_unread_flag_is_usage_error(self, shape_file, command, flag):
        with pytest.raises(SystemExit) as exc:
            run([command, "--shape", shape_file(CIRCLE),
                 flag, SHARED_FLAGS[flag]])
        assert exc.value.code == 2

    def test_profile_csv(self, shape_file, tmp_path):
        out = tmp_path / "p.csv"
        assert run(["profile", "--shape", shape_file(CIRCLE), "--format",
                    "csv", "--samples", "32", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "s,theta,kappa,L,kappaL"
        assert len(lines) > 1

    def test_profile_arc_length_of_a_flat_ellipse(self, shape_file, capsys):
        """s is exact arc length from theta = 0, even where rho's narrow
        peak (a^2/b = 2000) falls between samples."""
        a, b = 20, 0.2
        assert run(["profile", "--shape", shape_file({"type": "ellipse", "a": a, "b": b}),
                    "--format", "csv", "--samples", "64"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        s, theta = zip(*((float(v) for v in r.split(",")[:2]) for r in rows))
        with mpmath.workdps(20):
            rho = lambda t: (a * b) ** 2 / (  # noqa: E731
                (a * mpmath.cos(t)) ** 2 + (b * mpmath.sin(t)) ** 2) ** 1.5
            length = float(4 * a * mpmath.ellipe(1 - (b / a) ** 2))
            ref = [0.0]
            for t0, t1 in zip(theta, theta[1:]):
                ref.append(ref[-1] + float(mpmath.quad(rho, [t0, t1])))
        assert len(s) == 64 and all(lo < hi for lo, hi in zip(s, s[1:]))
        assert s[-1] < length
        assert max(abs(x - y) for x, y in zip(s, ref)) <= 1e-12 * length

    def test_profile_keeps_every_sample(self, shape_file, capsys):
        assert run(["profile", "--shape", shape_file(CIRCLE), "--samples",
                    "16", "--format", "csv"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1 + 16

    @pytest.mark.parametrize("command", ["profile", "report"])
    def test_zero_tol_is_usage_error(self, shape_file, command):
        with pytest.raises(SystemExit) as exc:
            run([command, "--shape", shape_file(CIRCLE), "--tol", "0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        *([command, f"--frame-deg={v}"] for command in
          ("moments", "asymptotics", "residuals", "report")
          for v in ("nan", "inf", "-inf")),
        *([command, "--tol", v] for command in ("profile", "report")
          for v in ("nan", "inf")),
        ["moments", "--frame-deg", "abc"],  # not a float at all
    ])
    def test_non_finite_float_is_usage_error(self, shape_file, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--shape", shape_file(CIRCLE)])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["profile", "identities", "report"])
    def test_few_samples_is_usage_error(self, shape_file, command):
        with pytest.raises(SystemExit) as exc:
            run([command, "--shape", shape_file(CIRCLE), "--samples", "8"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["moments", "--n-list", "-1"],
        ["moments", "--n-max", "-1"],
        ["moments", "--methods", "chord,foo"],
        ["asymptotics", "--m-list", "5"],
        ["asymptotics", "--m-list", "50,20"],
        ["asymptotics", "--m-list", "abc"],
        ["optimize", "--max-iter", "-3"],
    ])
    def test_bad_list_argument_is_usage_error(self, shape_file, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--shape", shape_file(CIRCLE)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err


def per_row_csv(spec, n_list, frame_deg, methods):
    """The moments CSV written one field at a time from the same sweeps:
    z * exp_or_inf(log_scale) in Python complex arithmetic, Python abs and
    format(x, ".17g") on every row, rows
    sorted by (n, method) with ties in request order; chord rows are green's."""
    curve = discwitness.build_curve(spec)
    rows = []
    for method in methods:
        mantissa, log_scale = moment_sweep(curve, n_list, math.radians(frame_deg),
                                           "green" if method == "chord" else method)
        for n, z, ls in zip(n_list, mantissa.tolist(), log_scale.tolist()):
            val = z * exp_or_inf(ls)
            rows.append((n, frame_deg, method, val.real, val.imag, ls, abs(val)))
    rows.sort(key=lambda row: (row[0], row[2]))
    return "n,frame_deg,method,re,im,log_scale,abs\n" + "".join(
        ",".join(format(v, ".17g") if isinstance(v, float) else str(v)
                 for v in row) + "\n" for row in rows)


class TestMoments:
    @staticmethod
    def stdout(shape_file, capsys, spec, argv):
        assert run(["moments", "--shape", shape_file(spec)] + argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        return out

    def test_csv_matches_per_row_fields(self, shape_file, capsys):
        # the array writer against field-by-field Python formatting: any
        # last-bit change (np.exp for math.exp, np.abs for abs) shows here
        out = self.stdout(shape_file, capsys, SWEEP_FOURIER,
                          ["--n-max", "400", "--methods", "chord,green,area",
                           "--frame-deg", "45"])
        assert out == per_row_csv(SWEEP_FOURIER, list(range(401)), 45.0,
                                  ["chord", "green", "area"])
        # area within 1e-10 of green at every order, floor 1/(n+1)
        rows = {}
        for row in out.splitlines()[1:]:
            n, _, method, re, im = row.split(",")[:5]
            rows.setdefault(int(n), {})[method] = complex(float(re), float(im))
        assert sorted(rows) == list(range(401))
        for n, v in rows.items():
            scale = max(abs(v["area"]), abs(v["green"]), 1.0 / (n + 1))
            assert abs(v["area"] - v["green"]) <= 1e-10 * scale, n

    def test_overflow_rows(self, shape_file, capsys):
        # radius 10: |M_n| passes the largest float between n = 300 and 320;
        # re, im and abs read inf there, log_scale stays finite
        out = self.stdout(shape_file, capsys, CIRCLE_10,
                          ["--n-list", "0,300,320,400", "--methods", "green,area"])
        assert out == per_row_csv(CIRCLE_10, [0, 300, 320, 400], 0.0,
                                  ["green", "area"])
        rows = [row.split(",") for row in out.splitlines()[1:]]
        assert [(int(r[0]), r[2]) for r in rows] == [
            (n, m) for n in (0, 300, 320, 400) for m in ("area", "green")]
        for n, _, _, re, im, log_scale, mag in rows:
            assert math.isfinite(float(log_scale))
            big = [abs(float(v)) for v in (re, im, mag)]
            assert all(map(math.isinf, big)) if int(n) >= 320 else all(
                map(math.isfinite, big))
        assert float(rows[5][5]) == pytest.approx(734.2305982341612, rel=1e-12)
        # every order and method, no floating-point warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = self.stdout(shape_file, capsys, CIRCLE_10,
                              ["--n-max", "400", "--methods", "chord,green,area"])
        rows = [row.split(",") for row in out.splitlines()[1:]]
        assert len(rows) == 3 * 401 and "nan" not in out
        assert all(math.isfinite(float(r[5])) for r in rows)

    def test_rows_sorted_by_order_then_method(self, shape_file, capsys):
        # unsorted orders and a repeated order and method: a stable sort on
        # (n, method), every repeat kept
        argv = ["--n-list", "5,0,5,399,57", "--methods", "green,chord,area,green"]
        out = self.stdout(shape_file, capsys, SWEEP_FOURIER, argv)
        assert out == per_row_csv(SWEEP_FOURIER, [5, 0, 5, 399, 57], 0.0,
                                  ["green", "chord", "area", "green"])
        rows = [row.split(",")[:3] for row in out.splitlines()[1:]]
        per_n = {0: 1, 5: 2, 57: 1, 399: 1}
        assert rows == [[str(n), "0", m] for n in sorted(per_n)
                        for m, k in (("area", 1), ("chord", 1), ("green", 2))
                        for _ in range(k * per_n[n])]

    @pytest.mark.parametrize("methods,integrals", [
        (["--methods", "chord,green"], ["green"]),
        (["--methods", "green,chord,area,green"], ["area", "green"]),
        ([], ["area", "green"]),
    ], ids=["chord,green", "repeats", "default"])
    def test_chord_rows_are_green_rows(self, shape_file, capsys, monkeypatch,
                                       methods, integrals):
        # one sweep per distinct integral; a chord row is green's, byte for byte
        calls = []

        def counted(curve, n_list, frame_angle, method):
            calls.append(method)
            return moment_sweep(curve, n_list, frame_angle, method)

        monkeypatch.setattr(discwitness.cli, "moment_sweep", counted)
        out = self.stdout(shape_file, capsys, SWEEP_FOURIER,
                          ["--n-list", "0,57,400", "--frame-deg", "45"] + methods)
        assert sorted(calls) == integrals
        fields = {}
        for row in out.splitlines()[1:]:
            n, frame, method, rest = row.split(",", 3)
            fields.setdefault(method, set()).add((n, frame, rest))
        assert len(fields["chord"]) == 3 and fields["chord"] == fields["green"]

    def test_row_count_and_header(self, shape_file, tmp_path):
        out = tmp_path / "m.csv"
        assert run(["moments", "--shape", shape_file(ELLIPSE),
                    "--n-max", "40", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,frame_deg,method,re,im,log_scale,abs"
        assert len(lines) == 1 + 41 * 3

    def test_area_reaches_every_order(self, shape_file, tmp_path):
        out = tmp_path / "a.csv"
        assert run(["moments", "--shape", shape_file(ELLIPSE), "--methods",
                    "area", "--n-max", "400", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [int(row.split(",")[0]) for row in rows] == list(range(401))

    def test_deterministic_output(self, shape_file, tmp_path):
        args = ["moments", "--shape", shape_file(ELLIPSE), "--n-max", "3"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(args + ["--out", str(out1)])
        run(args + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_failure_does_not_depend_on_the_hash_seed(self, shape_file):
        """The integrals run in --methods order, green before area, so the
        one reported as failing is the same under every PYTHONHASHSEED."""
        shape = shape_file({"type": "circle", "center": [1e15, -1e15],
                            "radius": 3})
        src = os.path.dirname(os.path.dirname(discwitness.__file__))
        errs = []
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "discwitness.cli", "moments", "--shape",
                 shape, "--n-max", "40"], capture_output=True, text=True,
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed))
            assert proc.returncode == 1
            errs.append(proc.stderr)
        assert errs[0] == errs[1]
        assert errs[0].startswith("error: QuadratureNoConvergence: green moments")


class TestSubcommands:
    def test_asymptotics_csv(self, shape_file, tmp_path):
        out = tmp_path / "a.csv"
        assert run(["asymptotics", "--shape", shape_file(ELLIPSE),
                    "--m-list", "50,100", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "m,ratio_f_abs_err,ratio_g_abs_err,combined_abs_err"
        # symmetric ellipse: combined column blank
        assert lines[1].endswith(",")
        # in a tilted frame the per-arc error halves with each doubling of m
        assert run(["asymptotics", "--shape", shape_file(ELLIPSE), "--m-list",
                    "50,100,200", "--frame-deg", "30", "--out", str(out)]) == 0
        errs = [float(line.split(",")[1])
                for line in out.read_text().splitlines()[1:]]
        assert len(errs) == 3 and all(map(math.isfinite, errs))
        assert all(1.6 <= hi / lo <= 2.4 for hi, lo in zip(errs, errs[1:]))

    def test_inscribed(self, shape_file, tmp_path):
        out = tmp_path / "i.json"
        assert run(["inscribed", "--shape", shape_file(ELLIPSE),
                    "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["radius"] == pytest.approx(1.0, abs=1e-6)

    def test_inscribed_flat_rotated_ellipse(self, shape_file, capsys):
        flat = {"type": "ellipse", "a": 100, "b": 1, "center": [0, 0],
                "rotation": math.pi / 6}
        assert run(["inscribed", "--shape", shape_file(flat)]) == 0
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        assert json.loads(out)["radius"] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("offset", [1e3, 1e6])
    def test_inscribed_far_circle(self, shape_file, capsys, offset):
        far = {"type": "circle", "center": [offset, offset], "radius": 1}
        assert run(["inscribed", "--shape", shape_file(far)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        radius = json.loads(out)["radius"]
        assert abs(radius - 1.0) <= 1e-12 * offset

    def test_identities_and_residuals(self, shape_file, tmp_path):
        out = tmp_path / "r.json"
        assert run(["identities", "--shape", shape_file(ELLIPSE),
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["p_zero_consistent"] is True
        assert run(["residuals", "--shape", shape_file(ELLIPSE),
                    "--out", str(out)]) == 0
        assert json.loads(out.read_text())["p"] == 0

    def test_report_combined(self, shape_file, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["report", "--shape", shape_file(ELLIPSE),
                    "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["verdict"] == "not_disc"
        assert "residuals" in rep and "inscribed" in rep and "witness" in rep
        assert rep["witness"]["inequality_report"]["L_gt_two_r"] is True
        circle = {"type": "circle", "center": [0.3, 0.1], "radius": 1.5}
        assert run(["report", "--shape", shape_file(circle),
                    "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["verdict"] == "disc" and "witness" not in rep
        assert abs(rep["inscribed"]["radius"] - 1.5) <= 1e-12

    @pytest.mark.parametrize("spec", [ELLIPSE, THREE_LOBE],
                             ids=["ellipse", "fourier"])
    def test_report_reads_the_contact_grid_once(self, spec, shape_file,
                                                monkeypatch):
        """The origin check, the disc search and the witness all read the
        curve's one evaluation of h on the contact grid."""
        calls = []
        for cls in (SupportCurve, FourierCurve):
            def counted(self, n, periodic_jet=cls.periodic_jet):
                calls.append(n)
                return periodic_jet(self, n)
            monkeypatch.setattr(cls, "periodic_jet", counted)
        assert run(["report", "--shape", shape_file(spec)]) == 0
        assert calls.count(CONTACT_GRID) == 1

    def test_inscribed_sharp_contacts(self, shape_file, capsys):
        """At a/b = 500 the minor-axis well of q is narrower than the
        contact grid's spacing; the disc is still the minor semi-axis."""
        flat = {"type": "ellipse", "a": 250000, "b": 500, "rotation": 0.01}
        assert run(["inscribed", "--shape", shape_file(flat)]) == 0
        assert json.loads(capsys.readouterr().out)["radius"] == pytest.approx(
            500.0, rel=1e-9)

    def test_flat_ellipse_report_and_json_profile(self, shape_file, capsys):
        """Neither prints arc length, so neither meets its node budget."""
        path = shape_file(FLAT_ROTATED)
        assert run(["report", "--shape", path]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["verdict"] == "not_disc"
        assert rep["inscribed"]["radius"] == pytest.approx(300.0, rel=1e-9)
        assert run(["profile", "--shape", path]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "not_disc"

    def test_flat_ellipse_profile_csv_is_numerical_error(self, shape_file,
                                                         capsys):
        """The CSV's arc-length column is the one place the budget binds."""
        assert run(["profile", "--shape", shape_file(FLAT_ROTATED),
                    "--format", "csv"]) == 1
        err = capsys.readouterr().err
        assert "QuadratureNoConvergence" in err and "Traceback" not in err

    def test_only_the_profile_csv_takes_arc_length(self, shape_file,
                                                   monkeypatch):
        """report and JSON profile take no arc length; the CSV's s column
        is one call, which shows the patch reaches every holder."""
        calls = []
        real = discwitness.geometry.arclength

        def counted(*args):
            calls.append(args)
            return real(*args)
        for name, mod in list(sys.modules.items()):
            if name.startswith("discwitness") and hasattr(mod, "arclength"):
                monkeypatch.setattr(mod, "arclength", counted)
        assert run(["report", "--shape", shape_file(ELLIPSE)]) == 0
        assert run(["profile", "--shape", shape_file(ELLIPSE)]) == 0
        assert calls == []
        assert run(["profile", "--shape", shape_file(ELLIPSE), "--format",
                    "csv"]) == 0
        assert len(calls) == 1

    def test_json_keys_are_the_record_fields(self, shape_file, capsys):
        """The residuals and witness blocks carry exactly these keys."""
        residual_keys = {"curv", "height", "p", "phase"}
        assert run(["residuals", "--shape", shape_file(ELLIPSE)]) == 0
        assert set(json.loads(capsys.readouterr().out)) == residual_keys
        assert run(["report", "--shape", shape_file(THREE_LOBE)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert set(rep["residuals"]) == residual_keys
        assert set(rep["witness"]) == {"K_center", "K_radius", "L_dir",
                                       "inequality_report", "rho",
                                       "x_prime_theta"}


class TestOptimizeRoundTrip:
    def test_optimized_shape_reloads_everywhere(self, shape_file, tmp_path):
        final = tmp_path / "final.json"
        trace = tmp_path / "trace.csv"
        assert run(["optimize", "--shape", shape_file(THREE_LOBE),
                    "--out", str(final), "--trace-out", str(trace)]) == 0
        spec = json.loads(final.read_text())
        assert spec["type"] == "support_fourier"
        header = trace.read_text().splitlines()[0]
        assert header == "iter,J,circle_distance,min_rho"
        for cmd in ("profile", "moments", "asymptotics", "inscribed",
                    "identities", "residuals", "report"):
            assert run([cmd, "--shape", str(final),
                        "--out", str(tmp_path / "x.out")]) == 0

    def test_circle_start_is_the_unit_disc(self, shape_file, tmp_path):
        """A circle is a one-harmonic support series: optimize gauges it to
        the unit disc and stops at J = 0 after no iterations, near the
        origin or far from it."""
        out, trace = tmp_path / "disc.json", tmp_path / "trace.csv"
        for circle in (CIRCLE, FAR_CIRCLE):
            assert run(["optimize", "--shape", shape_file(circle), "--out",
                        str(out), "--trace-out", str(trace)]) == 0
            spec = json.loads(out.read_text())
            assert spec == {"type": "support_fourier", "a0": 1.0,
                            "cos": [0.0] * 8, "sin": [0.0] * 8}
            header, *rows = trace.read_text().splitlines()
            assert len(rows) == 1 and rows[0].split(",")[:2] == ["0", "0"]

    def test_ellipse_start_is_validation_error(self, shape_file, capsys):
        assert run(["optimize", "--shape", shape_file(ELLIPSE)]) == 2
        err = capsys.readouterr().err
        assert "requires a support_fourier or circle shape" in err
        assert "Traceback" not in err

    def test_gauge_infeasible_start_is_validation_error(self, shape_file, capsys):
        # the spec builds (min rho 0.0015); gauged to a0 = 1 it does not
        spec = {"type": "support_fourier", "a0": 2, "cos": [0, 0, 0.2498125]}
        assert run(["optimize", "--shape", shape_file(spec)]) == 2
        err = capsys.readouterr().err
        assert err == ("error: NoFeasibleStart: radius of curvature 0.00075 "
                       "<= 0.001 at theta=0\n")

    @pytest.mark.parametrize("K,field", [(256, "sin"), (300, "cos")])
    def test_unresolved_harmonic_is_validation_error(self, shape_file,
                                                      tmp_path, capsys, K,
                                                      field):
        # the optimizer's 512-node grid resolves harmonics below 256:
        # sin 256 theta vanishes on every node, cos 300 theta aliases onto
        # cos 212 theta
        spec = {"type": "support_fourier", "a0": 1, "cos": [0, 0, 0.02],
                "sin": []}
        spec[field] = spec[field] + [0.0] * (K - 1 - len(spec[field])) + [1e-6]
        out = tmp_path / "out.json"
        assert run(["optimize", "--shape", shape_file(spec),
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: MalformedSpec: {K} harmonics: optimize takes "
                       "fewer than 256\n")
        assert not out.exists()

    def test_bracket_seed_is_ignored(self, shape_file, tmp_path):
        shape = shape_file(THREE_LOBE)
        outs = []
        for seed in ("7", "8"):
            out, trace = tmp_path / f"{seed}.json", tmp_path / f"{seed}.csv"
            assert run(["optimize", "--shape", shape, "--objective", "bracket",
                        "--seed", seed, "--out", str(out),
                        "--trace-out", str(trace)]) == 0
            outs.append((out.read_bytes(), trace.read_bytes()))
        assert outs[0] == outs[1]
        rows = outs[0][1].decode().splitlines()
        assert float(rows[-1].split(",")[2]) <= 1e-8  # circle distance


class TestParserCache:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_one_process_matches_fresh_processes(self, shape_file, tmp_path):
        """profile, inscribed, report in one process write the same bytes
        as each run in its own interpreter."""
        shape = shape_file(THREE_LOBE)
        commands = ("profile", "inscribed", "report")
        for cmd in commands:
            assert run([cmd, "--shape", shape,
                        "--out", str(tmp_path / f"{cmd}.one")]) == 0
        src = os.path.dirname(os.path.dirname(discwitness.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        for cmd in commands:
            fresh = tmp_path / f"{cmd}.fresh"
            subprocess.run([sys.executable, "-m", "discwitness.cli", cmd,
                            "--shape", shape, "--out", str(fresh)],
                           env=env, check=True)
            assert fresh.read_bytes() == (tmp_path / f"{cmd}.one").read_bytes()


ASYMMETRIC = {"type": "support_fourier", "a0": 1, "cos": [0, 0.05],
              "sin": [0, 0, 0.03]}
# scipy, and the polynomial module and quadrature engine the moments retired
UNLOADED_MODULES = ("scipy.optimize", "scipy.special", "numpy.polynomial",
                    "discwitness.quadrature")


def _fresh_python(code):
    """stdout of `code` run in a new interpreter importing this checkout."""
    src = os.path.dirname(os.path.dirname(discwitness.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


class TestColdStart:
    """No subcommand imports scipy, numpy.polynomial or a second
    quadrature engine."""

    loaded = f"print([m for m in {UNLOADED_MODULES!r} if m in sys.modules])\n"

    def test_import_and_build_curve(self):
        code = ("import sys\n"
                "import discwitness.cli\n"
                "from discwitness import build_curve\n"
                f"for spec in {[CIRCLE, ELLIPSE, ASYMMETRIC]!r}:\n"
                "    build_curve(spec)\n" + self.loaded)
        assert _fresh_python(code) == "[]\n"

    def test_numpy_only_subcommands(self, shape_file, tmp_path):
        shape = shape_file(ASYMMETRIC)
        commands = [["profile"],
                    ["moments", "--n-max", "20"],
                    ["asymptotics"], ["residuals"], ["identities"]]
        runs = [argv + ["--shape", shape, "--out", str(tmp_path / f"{i}.out")]
                for i, argv in enumerate(commands)]
        code = ("import sys\n"
                "from discwitness.cli import main\n"
                f"for argv in {runs!r}:\n"
                "    assert main(argv) == 0, argv\n" + self.loaded)
        assert _fresh_python(code) == "[]\n"

    def test_kl_optimize_skips_scipy(self, shape_file, tmp_path):
        argv = ["optimize", "--shape", shape_file(THREE_LOBE), "--objective",
                "kl", "--out", str(tmp_path / "best.json")]
        code = ("import sys\n"
                "from discwitness.cli import main\n"
                f"assert main({argv!r}) == 0\n" + self.loaded)
        assert _fresh_python(code) == "[]\n"

    def test_bracket_optimize_skips_scipy(self, shape_file, tmp_path):
        argv = ["optimize", "--shape", shape_file(THREE_LOBE), "--objective",
                "bracket", "--out", str(tmp_path / "best.json")]
        code = ("import sys\n"
                "from discwitness.cli import main\n"
                f"assert main({argv!r}) == 0\n" + self.loaded)
        assert _fresh_python(code) == "[]\n"

    def test_disc_commands_skip_scipy(self, shape_file, tmp_path):
        shapes = [shape_file(ASYMMETRIC), shape_file(ELLIPSE, "ellipse.json")]
        runs = [[cmd, "--shape", shape, "--out", str(tmp_path / cmd)]
                for cmd in ("inscribed", "report") for shape in shapes]
        code = ("import sys\n"
                "from discwitness.cli import main\n"
                f"for argv in {runs!r}:\n"
                "    assert main(argv) == 0, argv\n" + self.loaded)
        assert _fresh_python(code) == "[]\n"
