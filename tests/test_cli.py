import dataclasses
import json
import math
import os
import re
import shlex
import subprocess
import sys
import textwrap

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qbody
from qbody import (AngleTuple, Body, SamplerConfig, build_model, mc_volume,
                   selftest_residuals)
from qbody.cli import _build_parser, main

from helpers import SQRT2


README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def _readme_commands() -> list[list[str]]:
    """The arguments of every ``qbody`` line of the README's command-line
    block."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1]
    return [shlex.split(line)[1:]
            for line in block.split("```", 1)[0].splitlines()
            if line.startswith("qbody ")]


def _child_env() -> dict:
    src = os.path.dirname(os.path.dirname(qbody.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


CHSH_JSON = "[0.7071067811865475,0.7071067811865475," \
    "0.7071067811865475,-0.7071067811865475]"
BIG = str(10 ** 400)  # an integer beyond the float range


class TestSubcommands:
    def test_member_all_oracles(self, capsys):
        code, data = run_cli(capsys, "member", "--point", CHSH_JSON,
                             "--oracle", "all")
        assert code == 0
        assert set(data) == {"semialg", "pushout", "completion", "timo",
                             "landau"}
        for verdict in data.values():
            assert abs(verdict["margin"]) < 1e-12

    def test_member_single_oracle(self, capsys):
        code, data = run_cli(capsys, "member", "--point", "[0,0,0,0]",
                             "--oracle", "semialg")
        assert code == 0 and data["semialg"]["inside"]

    def test_support_quantum_case(self, capsys):
        code, data = run_cli(capsys, "support", "--functional",
                             "[0.5,0.5,0.5,-0.5]")
        assert code == 0
        assert data == {"phi": 1.4142135623730951, "case": "quantum"}

    def test_support_of_zero_functional(self, capsys):
        assert main(["support", "--functional", "[0,0,0,0]"]) == 0
        assert capsys.readouterr().out == '{"phi": 0.0, "case": "zero"}\n'

    def test_gauge(self, capsys):
        code, data = run_cli(capsys, "gauge", "--point", "[1,1,1,-1]")
        assert code == 0
        assert data["gauge"] == pytest.approx(SQRT2, abs=1e-12)

    def test_classify(self, capsys):
        code, data = run_cli(capsys, "classify", "--point", "[1,0,0,1]")
        assert code == 0 and data == {"stratum": "Q2"}

    def test_complete(self, capsys):
        code, data = run_cli(capsys, "complete", "--point", CHSH_JSON)
        assert code == 0
        assert data["feasible"] and data["unique"] and data["rank"] == 2

    def test_volume(self, capsys):
        code, data = run_cli(capsys, "volume", "--body", "q",
                             "--samples", "100000", "--seed", "42")
        assert code == 0
        assert abs(data["fraction"] - 0.92527) < 3e-3
        assert data["stderr"] > 0

    def test_dual(self, capsys):
        code, data = run_cli(capsys, "dual", "--functional",
                             "[0.25,0.25,0.25,0.25]")
        assert code == 0
        assert data["member"]["inside"]
        assert data["completion"]["feasible"]

    def test_dual_near_boundary_agrees_with_member(self, capsys):
        # support 0.99894...: inside Q°, so the certificate is feasible too
        code, data = run_cli(capsys, "dual", "--functional",
                             "[0.1317,0.3538,-0.5143,0.2592]")
        assert code == 0
        assert data["member"]["inside"]
        assert data["completion"]["feasible"]
        assert data["support"] == pytest.approx(0.99894, abs=1e-5)

    def test_orbit(self, capsys):
        code, data = run_cli(capsys, "orbit", "--point", "[1,1,1,1]")
        assert code == 0 and data["size"] == 8

    def test_ncycle(self, capsys):
        code, data = run_cli(capsys, "ncycle", "--point", "[1,1,1,1]",
                             "--functional", "[1,0,0,0]")
        assert code == 0
        assert len(data["residuals"]) == 20
        assert data["residuals"][0] == 0.0

    def test_selftest_from_angles(self, capsys):
        code, data = run_cli(capsys, "selftest", "--angles",
                             "[0.7853981633974483,0.7853981633974483,"
                             "0.7853981633974483,-2.356194490192345]")
        assert code == 0
        assert data["residual_bpsi"] < 1e-9


class TestRoundTrips:
    def test_point_to_angles_to_expose_to_support(self, capsys):
        code, data = run_cli(capsys, "angles", "--point", CHSH_JSON)
        assert code == 0
        angles_json = json.dumps(data["angles"])

        code, data = run_cli(capsys, "angles", "--angles", angles_json)
        assert code == 0 and data["stratum"] == "Q4"
        point_json = json.dumps(data["point"])

        code, data = run_cli(capsys, "expose", "--angles", angles_json)
        assert code == 0
        functional_json = json.dumps(data["functional"])

        code, data = run_cli(capsys, "support", "--functional",
                             functional_json)
        assert code == 0 and data["phi"] == pytest.approx(1.0, abs=1e-10)

        code, data = run_cli(capsys, "member", "--point", point_json,
                             "--oracle", "semialg")
        assert code == 0

    def test_model_correlations_consistent(self, capsys):
        code, data = run_cli(capsys, "model", "--angles",
                             "[0.3,0.4,0.5,-1.2]")
        assert code == 0
        assert data["d"] == 4
        expected = [math.cos(x) for x in (0.3, 0.4, 0.5, -1.2)]
        assert max(abs(a - b) for a, b in
                   zip(data["correlations"], expected)) < 1e-12

    def test_model_json_feeds_selftest(self, capsys, tmp_path):
        code, payload = run_cli(capsys, "model", "--angles",
                                "[0.7853981633974483,0.7853981633974483,"
                                "0.7853981633974483,-2.356194490192345]")
        assert code == 0
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        code, report = run_cli(capsys, "selftest", "--model", str(path))
        assert code == 0
        assert report["residual_anticommutator"] < 1e-9


class TestReadme:
    @pytest.mark.parametrize("argv", _readme_commands(),
                             ids=lambda argv: argv[0])
    def test_command_line_example_exits_zero(self, capsys, tmp_path, argv):
        # --out files land in tmp_path
        argv = [str(tmp_path / os.path.basename(arg)) if flag == "--out"
                else arg for flag, arg in zip([None] + argv, argv)]
        assert main(argv) == 0, capsys.readouterr()


class TestAngleTolerance:
    # the sum of these angles misses 0 by 1e-7
    LOOSE = "[0.3,0.4,0.5,-1.1999999]"

    def test_eps_angle_admits_residual_below_it(self, capsys):
        code, data = run_cli(capsys, "angles", "--angles", self.LOOSE,
                             "--eps-angle", "1e-6")
        assert code == 0
        assert data == {
            "point": [math.cos(x) for x in (0.3, 0.4, 0.5, -1.1999999)],
            "stratum": "Q4"}

    @pytest.mark.parametrize("command", ["expose", "model", "selftest"])
    def test_eps_angle_reaches_every_angles_input(self, capsys, command):
        code, _ = run_cli(capsys, command, "--angles", self.LOOSE)
        assert code == 1
        code, _ = run_cli(capsys, command, "--angles", self.LOOSE,
                          "--eps-angle", "1e-6")
        assert code == 0

    def test_residual_above_eps_angle_rejected(self, capsys):
        # residual 1e-5
        code, data = run_cli(capsys, "angles", "--angles",
                             "[0.3,0.4,0.5,-1.19999]", "--eps-angle", "1e-6")
        assert code == 1
        assert data["error"]["kind"] == "AngleSumViolation"


def outcome(capsys, argv):
    """Exit status and stdout of one invocation, usage errors included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


# the --eps-* flags each subcommand registers: the Tolerance fields its
# code reads; every subcommand not listed registers none
EPS_FLAGS = {
    "member": {"boundary"}, "slice": {"boundary"},
    "classify": {"boundary", "psd"}, "complete": {"boundary", "psd"},
    "dual": {"psd"},
    "angles": {"boundary", "angle"}, "expose": {"angle"},
    "model": {"angle"}, "selftest": {"angle"}, "orbit": {"angle"},
}
INPUT_FLAGS = ("--point", "--functional", "--angles", "--model", "--fix",
               "--normal")
# (subcommand, input flag, eps flag) registered but read only with the
# other input, so rejected with exit 2
UNREAD = {("angles", "--angles", "boundary"),
          ("selftest", "--model", "angle")}

# points near the CHSH point just outside and just inside Q, a point just
# outside the cube, one 1.2e-8 off the angle-sum constraint, angles whose
# sum misses 0 by 1e-7, and a functional on the boundary of the polar body
OUTSIDE = "[0.7071068,0.7071068,0.7071068,-0.7071068]"
INSIDE = "[0.70710678,0.70710678,0.70710678,-0.70710678]"
OFF_CUBE = "[1.000001,0,0,1]"
OFF_SUM = "[0.7071067811865476,0.7071067811865476,0.7071067811865476," \
    "-0.70710679]"
LOOSE = TestAngleTolerance.LOOSE
HALF_CHSH_FUNCTIONAL = "[0.3535533905932738,0.3535533905932738," \
    "0.3535533905932738,-0.3535533905932738]"

# (argv, eps flag, value): adding the flag alone moves stdout or the exit
# status
EPS_WITNESSES = [
    (["member", "--point", OUTSIDE, "--oracle", "completion"],
     "boundary", "1e-6"),
    (["classify", "--point", INSIDE], "boundary", "1e-7"),
    (["classify", "--point", INSIDE, "--eps-boundary", "1e-7"], "psd", "1e-7"),
    (["complete", "--point", OUTSIDE], "boundary", "1e-6"),
    (["complete", "--point", INSIDE, "--eps-boundary", "1e-7"], "psd", "1e-7"),
    (["dual", "--functional", HALF_CHSH_FUNCTIONAL], "psd", "1e-20"),
    (["angles", "--point", OFF_CUBE], "boundary", "1e-5"),
    (["angles", "--point", OFF_SUM], "angle", "1e-6"),
    (["angles", "--angles", LOOSE], "angle", "1e-6"),
    (["expose", "--point", OFF_SUM], "angle", "1e-6"),
    (["expose", "--angles", LOOSE], "angle", "1e-6"),
    (["model", "--angles", LOOSE], "angle", "1e-6"),
    (["selftest", "--angles", LOOSE], "angle", "1e-6"),
    (["orbit", "--point", "[1,1,1,0.9999999]"], "angle", "1e-6"),
    (["slice", "--fix", "c11=0.9999999999999", "--grid", "2"], "boundary",
     "1e-6"),
    (["slice", "--normal", "[1,0,0,0]", "--offset", "0.9999999999999",
      "--grid", "2"], "boundary", "1e-6"),
]


class TestToleranceFlags:
    def test_eps_flags_of_every_subcommand(self):
        subparsers = _build_parser()._subparsers._group_actions[0].choices
        registered = {
            name: {option[len("--eps-"):] for action in parser._actions
                   for option in action.option_strings
                   if option.startswith("--eps-")}
            for name, parser in subparsers.items()}
        assert registered == {name: EPS_FLAGS.get(name, set())
                              for name in subparsers}
        # and each registered flag has a witness for each input that reads it
        read = {(name, option, flag) for name, flags in EPS_FLAGS.items()
                for action in subparsers[name]._actions
                for option in action.option_strings
                if option in INPUT_FLAGS for flag in flags} - UNREAD
        assert {(argv[0], argv[1], flag)
                for argv, flag, _ in EPS_WITNESSES} == read

    @pytest.mark.parametrize("argv, flag, value", EPS_WITNESSES,
                             ids=[f"{argv[0]} {argv[1]} --eps-{flag}"
                                  for argv, flag, _ in EPS_WITNESSES])
    def test_moving_the_flag_alone_moves_the_output(self, capsys, argv, flag,
                                                    value):
        assert outcome(capsys, argv) \
            != outcome(capsys, [*argv, f"--eps-{flag}", value])

    @pytest.mark.parametrize("argv, code", [
        # eps_psd, not registered, follows eps_boundary below its default
        (["member", "--point", "[0.5,0.5,0.5,-0.5]", "--oracle", "completion",
          "--eps-boundary", "1e-11"], 0),
        # eps_boundary, not registered, follows eps_psd above its default
        (["dual", "--functional", "[0.5,0.5,0.5,-0.5]", "--eps-psd", "1e-8"],
         0),
        # both registered: eps_psd must not exceed eps_boundary
        (["classify", "--point", "[0.5,0.5,0.5,-0.5]", "--eps-psd",
          "1e-8"], 2),
        (["complete", "--point", "[0.5,0.5,0.5,-0.5]", "--eps-psd",
          "1e-8"], 2),
    ], ids=["member", "dual", "classify", "complete"])
    def test_unregistered_field_is_derived(self, capsys, argv, code):
        if code == 0:
            assert main(argv) == 0
            return
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert capsys.readouterr().err \
            == "qbody: error: eps_psd must not exceed eps_boundary\n"


class TestFilesAndSeeds:
    def test_sample_csv_out(self, capsys, tmp_path):
        out = tmp_path / "points.csv"
        code, data = run_cli(capsys, "sample", "--target", "q4",
                             "--samples", "20", "--seed", "9",
                             "--out", str(out))
        assert code == 0 and data["count"] == 20
        lines = out.read_text().splitlines()
        assert lines[0] == "c11,c12,c21,c22"
        assert len(lines) == 21

    def test_slice_csv_out(self, capsys, tmp_path):
        out = tmp_path / "slice.csv"
        code, data = run_cli(capsys, "slice", "--fix", "c11=1", "--fix",
                             "c12=1", "--fix", "c21=1", "--grid", "5",
                             "--out", str(out))
        assert code == 0 and data["rows"] == 5
        lines = out.read_text().splitlines()
        assert lines[0] == "c22,stratum,classical,g,h"

    def test_hyperplane_offset_defaults_to_zero(self, capsys):
        argv = ["slice", "--normal", "[1,1,1,-1]", "--grid", "3"]
        assert run_cli(capsys, *argv) == run_cli(capsys, *argv, "--offset",
                                                 "0")

    @pytest.mark.parametrize("argv, report", [
        (["selftest", "--angles", "[0.3,0.4,0.5,-1.2]"],
         lambda: selftest_residuals(build_model(AngleTuple(0.3, 0.4, 0.5,
                                                           -1.2)))),
        (["volume", "--body", "cl", "--samples", "5000", "--seed", "4"],
         lambda: mc_volume(Body.CL, SamplerConfig(seed=4, samples=5000))),
    ], ids=["selftest", "volume"])
    def test_report_is_printed_as_returned(self, capsys, argv, report):
        assert main(argv) == 0
        assert capsys.readouterr().out \
            == json.dumps(dataclasses.asdict(report())) + "\n"

    @pytest.mark.parametrize("env", ["77", "abc"])
    def test_environment_does_not_seed(self, capsys, monkeypatch, env):
        # only --seed sets the seed, which defaults to 0
        monkeypatch.setenv("QBODY_SEED", env)
        for argv in (["volume", "--body", "cl", "--samples", "50000"],
                     ["sample", "--target", "cube", "--samples", "5"]):
            assert main(argv) == 0
            unseeded = capsys.readouterr().out
            assert main(argv + ["--seed", "0"]) == 0
            assert capsys.readouterr().out == unseeded


class TestExitCodes:
    def test_domain_error_is_one(self, capsys):
        code = main(["expose", "--angles",
                     "[1.0471975511965976,1.0471975511965976,"
                     "1.0471975511965976,-3.141592653589793]"])
        out = capsys.readouterr().out
        data = json.loads(out)
        assert code == 1
        assert data["error"]["kind"] == "DegenerateAngles"

    def test_unbalanceable_dual_certificate_is_domain_error(self, capsys):
        code, data = run_cli(capsys, "dual", "--functional",
                             "[3e150,1e150,2e150,-1e150]")
        assert code == 1
        assert data["error"]["kind"] == "ConsistencyError"

    @pytest.mark.parametrize("argv", [
        pytest.param(["dual", "--functional", "[1e15,1e15,1e15,-1e15]"],
                     id="1e15"),
        pytest.param(["dual", "--functional", "[1e200,1e200,1e200,-1e200]"],
                     id="1e200"),
    ])
    def test_inexact_dual_certificate_is_domain_error(self, capsys, argv):
        # p1 = p3 = 1/2 exactly, but the computed p1 is off by 0.25 at
        # 1e15 and rounds to 0 at 1e200, where p1 + p2 is still 1
        code, data = run_cli(capsys, *argv)
        assert code == 1
        assert data["error"]["kind"] == "ConsistencyError"
        assert "cannot be balanced" in data["error"]["detail"]

    @pytest.mark.parametrize("argv", [
        pytest.param(["member", "--point", "[1e300,1e300,1e300,1e300]"],
                     id="member completion margin"),
        pytest.param(["dual", "--functional", "[1e200,1e200,1e200,-1e200]"],
                     id="dual member margin"),
    ])
    def test_output_is_strict_json(self, capsys, argv):
        code = main(argv)
        out = capsys.readouterr().out
        data = json.loads(out, parse_constant=lambda token: pytest.fail(
            f"non-JSON token {token} in {out}"))
        assert code == 1
        assert data["error"]["kind"] == "ConsistencyError"

    def test_overflowing_gauge_is_domain_error(self, capsys):
        # Hc/2 sums four entries of 1e308 to inf
        code, data = run_cli(capsys, "gauge", "--point",
                             "[1e308,1e308,1e308,1e308]")
        assert code == 1
        assert data["error"]["kind"] == "ConsistencyError"
        assert "the float range" in data["error"]["detail"]

    def test_overflowing_dual_transform_is_domain_error(self, capsys):
        code, data = run_cli(capsys, "dual", "--functional",
                             "[1.7e308,1e308,1.5e308,-1e308]")
        assert code == 1
        assert data["error"]["kind"] == "ConsistencyError"

    @pytest.mark.parametrize("argv", [
        pytest.param(["support", "--functional", "[1e308,1e308,1e308,1e308]"],
                     id="support"),
        pytest.param(["ncycle", "--point", "[1e200,0,0,0]", "--functional",
                      "[1e200,0,0,0]"], id="ncycle power"),
        pytest.param(["ncycle", "--point", "[1e100,0,0,0]", "--functional",
                      "[1e100,0,0,0]"], id="ncycle product"),
        pytest.param(["slice", "--normal", "[1,0,0,0]", "--offset", "1e308",
                      "--grid", "2"], id="slice g and h"),
    ])
    def test_overflow_is_domain_error(self, capsys, argv):
        code, data = run_cli(capsys, *argv)
        assert code == 1
        assert data["error"]["kind"] == "ConsistencyError"
        assert "the float range" in data["error"]["detail"]

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda doc: {}, id="empty object"),
        pytest.param(lambda doc: {k: v for k, v in doc.items() if k != "B2"},
                     id="missing B2"),
        pytest.param(lambda doc: [1, 2], id="array"),
        pytest.param(lambda doc: {**doc, "psi": [False, *doc["psi"][1:]]},
                     id="boolean entry"),
        pytest.param(lambda doc: {**doc, "d": True}, id="boolean d"),
        pytest.param(lambda doc: {**doc, "d": 4.5}, id="non-integer d"),
        pytest.param(lambda doc: {**doc, "d": 2}, id="d against shapes"),
        pytest.param(lambda doc: {**doc, "A1": doc["A1"][:3]},
                     id="three rows"),
        pytest.param(lambda doc: {**doc, "psi": [10 ** 400, 0, 0, 0]},
                     id="integer beyond float range"),
    ])
    def test_malformed_model_file_is_two(self, capsys, tmp_path, edit):
        doc = build_model(AngleTuple(0.3, 0.4, 0.5, -1.2)).to_json_dict()
        path = tmp_path / "model.json"
        path.write_text(json.dumps(edit(doc)))
        with pytest.raises(SystemExit) as info:
            main(["selftest", "--model", str(path)])
        assert info.value.code == 2
        assert "model" in capsys.readouterr().err

    def test_non_finite_model_file_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"d": 2, "psi": [NaN, 0], "A1": [[1, 0], [0, 1]], '
                        '"A2": [[1, 0], [0, 1]], "B1": [[1, 0], [0, 1]], '
                        '"B2": [[1, 0], [0, 1]]}')
        code, data = run_cli(capsys, "selftest", "--model", str(path))
        assert code == 1
        assert data["error"]["kind"] == "InvalidModel"

    @pytest.mark.parametrize("command", ["angles", "expose", "model",
                                         "selftest"])
    @pytest.mark.parametrize("angles", ["[NaN,0,0,0]", "[0,0,0,Infinity]",
                                        "[0,-Infinity,0,0]"])
    def test_non_finite_angles_are_two(self, capsys, command, angles):
        with pytest.raises(SystemExit) as info:
            main([command, "--angles", angles])
        assert info.value.code == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        pytest.param(["--grid", "3"], id="neither fix nor normal"),
        pytest.param(["--grid", "3", "--fix", "c11=0", "--normal",
                      "[1,0,0,0]"], id="fix and normal"),
        pytest.param(["--grid", "1", "--fix", "c11=0"], id="grid 1"),
        pytest.param(["--grid", "3", "--fix", "c11=0", "--fix", "c12=0",
                      "--fix", "c21=0", "--fix", "c22=0"], id="four fixes"),
        pytest.param(["--grid", "3", "--fix", "c11=1", "--offset", "5"],
                     id="offset without normal"),
        pytest.param(["--grid", "3", "--offset", "0", "--fix", "c11=1"],
                     id="zero offset without normal"),
        pytest.param(["--grid", "3", "--fix", "c11=1", "--fix", "c11=0.5"],
                     id="repeated fix"),
    ])
    def test_malformed_slice_is_two(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(["slice", *argv])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "qbody: error:" in captured.err

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["--fix", "c11"], "--fix expects cij=VALUE",
                     id="fix without value"),
        pytest.param(["--fix", "c99=0"], "--fix coordinate must be one of",
                     id="fix of no coordinate"),
        pytest.param(["--normal", "[1,0,0,0]", "--offset", "abc"],
                     "'abc' is not a finite number", id="offset not a number"),
    ])
    def test_malformed_slice_flag_is_two(self, capsys, argv, message):
        with pytest.raises(SystemExit) as info:
            main(["slice", *argv])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    def test_slice_beyond_float_range_is_two(self, capsys):
        # the dependent coordinate is 1/1e-320; the error names the slice,
        # not a coordinate the user never typed
        with pytest.raises(SystemExit) as info:
            main(["slice", "--normal", "[1e-320,0,0,0]", "--offset", "1",
                  "--grid", "2"])
        assert info.value.code == 2
        assert capsys.readouterr().err == ("qbody: error: a solved "
                                           "hyperplane coordinate is not "
                                           "finite\n")

    @pytest.mark.parametrize("argv", [
        ["member", "--point", "[NaN,0,0,0]"],
        ["classify", "--point", "[0,1e400,0,0]"],
        ["ncycle", "--point", "[0,0,-Infinity,0]", "--functional",
         "[1,0,0,0]"],
        ["ncycle", "--point", "[0,0,0,0]", "--functional",
         "[0,0,0,Infinity]"],
    ], ids=["member", "classify", "ncycle point", "ncycle functional"])
    def test_non_finite_points_are_two(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, argv", [
        ("--point", ["member", "--point", f"[{BIG},0,0,0]"]),
        ("--functional", ["support", "--functional", f"[0,-{BIG},0,0]"]),
        ("--point", ["ncycle", "--point", f"[0,0,{BIG},0]",
                     "--functional", "[1,0,0,0]"]),
        ("--functional", ["ncycle", "--point", "[0,0,0,0]",
                          "--functional", f"[1,0,0,{BIG}]"]),
        ("--angles", ["angles", "--angles", f"[{BIG},0,0,0]"]),
        ("--normal", ["slice", "--normal", f"[{BIG},0,0,1]", "--grid", "2"]),
        ("--normal", ["slice", "--normal", "[1,0,0,Infinity]", "--grid",
                      "2"]),
        ("--normal", ["slice", "--normal", "[NaN,0,0,1]", "--grid", "2"]),
        ("--fix", ["slice", "--fix", "c11=nan", "--grid", "2"]),
        ("--fix", ["slice", "--fix", "c12=-inf", "--grid", "2"]),
        ("--offset", ["slice", "--normal", "[1,0,0,0]", "--offset", "nan",
                      "--grid", "2"]),
        ("--offset", ["slice", "--normal", "[1,0,0,0]", "--offset", "1e400",
                      "--grid", "2"]),
    ], ids=["member point", "support", "ncycle point", "ncycle functional",
            "angles", "slice normal big", "slice normal inf",
            "slice normal nan", "fix nan", "fix inf", "offset nan",
            "offset inf"])
    def test_malformed_number_names_its_flag(self, capsys, flag, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}:" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["angles", "--angles", "[0.3,0.4,0.5,2.0]", "--eps-angle",
         "Infinity"],
        ["member", "--point", "[2,2,2,2]", "--oracle", "completion",
         "--eps-boundary", "Infinity"],
    ], ids=["eps-angle", "eps-boundary"])
    def test_non_finite_tolerance_is_two(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert capsys.readouterr() == (
            "", "qbody: error: tolerances must be positive and finite\n")

    @pytest.mark.parametrize("entries, detail", [
        pytest.param([("B1", 7, 7, 1.5)],
                     "B1 spectrum [1.0, 1.5] leaves [-1, 1]", id="spectrum"),
        # A1 = sigma_x and B1 = sigma_z on the first two coordinates
        pytest.param([("A1", 0, 0, 0.0), ("A1", 0, 1, 1.0), ("A1", 1, 0, 1.0),
                      ("A1", 1, 1, 0.0), ("B1", 1, 1, -1.0)],
                     "commutator norm 2.0", id="commutator"),
    ])
    def test_large_model_detail_has_plain_floats(self, capsys, tmp_path,
                                                 entries, detail):
        # d = 8 takes the numpy route; the detail must not show numpy
        # scalar reprs such as np.float64(1.5)
        eye = [[float(i == j) for j in range(8)] for i in range(8)]
        doc = {"d": 8, "psi": eye[0],
               **{name: [row[:] for row in eye]
                  for name in ("A1", "A2", "B1", "B2")}}
        for name, i, j, value in entries:
            doc[name][i][j] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, data = run_cli(capsys, "selftest", "--model", str(path))
        assert code == 1
        assert data["error"] == {"kind": "InvalidModel", "detail": detail}

    def test_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["member", "--point", "[1,2"])
        assert info.value.code == 2

    def test_boolean_point_entries_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["member", "--point", "[true,false,0,0]"])
        assert info.value.code == 2

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["member", "--point", "[0,0,0,0]", "--bogus", "1"])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["support", "--functional", "[0.5,0.5,0.5,-0.5]", "--eps-angle", "0.5"],
        ["gauge", "--point", "[0.3,0.2,-0.7,0.1]", "--eps-angle", "0.5"],
        ["ncycle", "--point", CHSH_JSON, "--functional", "[0.5,0.5,0.5,-0.5]",
         "--eps-angle", "0.5"],
        # Tolerance accepts each value, so only the untaken flag can fail
        *(pytest.param([command, *args, "--eps-angle", "0.5"],
                       id=f"{command} --eps-angle")
          for command, args in (
              ("member", ["--point", "[0.1,0.2,0.3,0.4]"]),
              ("classify", ["--point", "[0.1,0.2,0.3,0.4]"]),
              ("dual", ["--functional", "[0.5,0.5,0.5,-0.5]"]),
              ("complete", ["--point", "[0.1,0.2,0.3,0.4]"]),
              ("slice", ["--fix", "c11=-0.8", "--grid", "3"]))),
        *(pytest.param([command, *args, flag, value], id=f"{command} {flag}")
          for command, args in (
              ("orbit", ["--point", "[0.1,0.2,0.3,0.4]"]),
              ("model", ["--angles", "[0.3,0.4,0.5,-1.2]"]),
              ("selftest", ["--angles", "[0.3,0.4,0.5,-1.2]"]))
          # eps_psd must not exceed eps_boundary, 1e-9 by default
          for flag, value in (("--eps-boundary", "0.5"),
                              ("--eps-psd", "1e-12"))),
        *(pytest.param([command, *args, flag, value], id=f"{command} {flag}")
          for command, args, flag, value in (
              ("member", ["--point", "[0.1,0.2,0.3,0.4]"], "--eps-psd",
               "1e-12"),
              ("angles", ["--point", "[1,0,0,1]"], "--eps-psd", "1e-12"),
              ("expose", ["--angles", "[0.3,0.4,0.5,-1.2]"], "--eps-psd",
               "1e-12"),
              ("expose", ["--point", "[1.000001,0,0,1]"], "--eps-boundary",
               "1e-5"),
              ("slice", ["--fix", "c11=-0.8", "--grid", "3"], "--eps-psd",
               "1e-12"),
              ("dual", ["--functional", "[0.5,0.5,0.5,-0.5]"],
               "--eps-boundary", "0.5"))),
        # registered on angles but read only with --point; not registered
        # on expose, whose --point path reads only the derived value
        *(pytest.param([command, "--angles", "[0.3,0.4,0.5,-1.2]",
                        "--eps-boundary", "0.5"],
                       id=f"{command} --angles --eps-boundary")
          for command in ("angles", "expose")),
    ])
    def test_eps_flags_rejected_where_nothing_reads_them(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err, flag = capsys.readouterr().err, argv[-2]
        if flag[len("--eps-"):] in EPS_FLAGS.get(argv[0], ()):
            # registered, so refused for this input, naming the one that
            # reads it
            assert f"reads {flag} only with --point" in err
        else:
            assert f"unrecognized arguments: {flag}" in err

    def test_eps_flags_rejected_with_selftest_model(self, capsys, tmp_path):
        code, payload = run_cli(capsys, "model", "--angles",
                                "[0.3,0.4,0.5,-1.2]")
        assert code == 0
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        for flag in ("--eps-boundary", "--eps-angle", "--eps-psd"):
            with pytest.raises(SystemExit) as info:
                main(["selftest", "--model", str(path), flag, "1e-9"])
            assert info.value.code == 2
            # selftest registers --eps-angle only, so the other two are
            # unknown flags and only --eps-angle gets the --angles message
            err = capsys.readouterr().err
            assert flag != "--eps-angle" or "--angles" in err
        code, _ = run_cli(capsys, "selftest", "--model", str(path))
        assert code == 0

    def test_closed_stdout_exits_without_traceback(self):
        child = subprocess.Popen(
            [sys.executable, "-m", "qbody.cli", "model",
             "--angles", "[0.3,0.4,0.5,-1.2]"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env())
        child.stdout.close()  # the reader is gone before the child writes
        err = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait(timeout=60) == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err

    def test_unknown_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_not_extreme_domain_error(self, capsys):
        code = main(["angles", "--point", "[-1,0,0,0]"])
        data = json.loads(capsys.readouterr().out)
        assert code == 1 and data["error"]["kind"] == "NotExtreme"


# JSON entries of every kind a user can type: numbers small and beyond the
# float range, NaN and infinities, booleans, strings, null, nested arrays
_JSON_ENTRY = st.one_of(
    st.floats(), st.floats(-2.0, 2.0), st.integers(-3, 3),
    st.integers(-10 ** 400, 10 ** 400), st.booleans(), st.text(max_size=3),
    st.none(), st.lists(st.floats(-2.0, 2.0), max_size=2))


def _four_finite_numbers(entries: list) -> bool:
    if len(entries) != 4 or any(type(v) not in (int, float) for v in entries):
        return False
    try:
        return all(math.isfinite(float(v)) for v in entries)
    except OverflowError:
        return False


class TestVectorFlags:
    # capsys is read, and so emptied, once per example
    @settings(max_examples=400, deadline=None, derandomize=True,
              database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from([["member", "--point"], ["support", "--functional"],
                            ["angles", "--angles"], ["slice", "--normal"]]),
           st.lists(_JSON_ENTRY, max_size=6))
    def test_exit_two_or_strict_json(self, capsys, command, entries):
        text = json.dumps(entries)
        argv = [*command, text] + (["--grid", "2"] if "slice" in command
                                   else [])
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        if code == 2:
            assert captured.out == ""
            assert re.search(r"^qbody( \w+)?: error: ", captured.err, re.M)
        else:
            assert code in (0, 1)
            assert captured.out.count("\n") == 1
            json.loads(captured.out, parse_constant=lambda token: pytest.fail(
                f"non-JSON token {token} in {captured.out}"))
        if not _four_finite_numbers(entries):
            assert code == 2


class TestStartWithoutNumpy:
    """The scalar subcommands and a bare ``import qbody`` load no numpy."""

    # exit status 3 marks a run that loaded numpy
    _CHILD = ("import sys; from qbody.cli import main; "
              "status = main(sys.argv[1:]); "
              "sys.exit(3 if 'numpy' in sys.modules else status)")

    @pytest.mark.parametrize("argv", [
        ["member", "--point", CHSH_JSON, "--oracle", "all"],
        ["support", "--functional", "[0.5,0.5,0.5,-0.5]"],
        ["gauge", "--point", "[0.2,0.1,-0.3,0.4]"],
        ["angles", "--point", CHSH_JSON],
        ["angles", "--angles", "[0.3,0.4,0.5,-1.2]"],
        ["expose", "--angles", "[0.3,0.4,0.5,-1.2]"],
        ["ncycle", "--point", "[1,1,1,1]", "--functional", "[1,0,0,0]"],
        # rank and PSD by inertia counts, the orbit from tuples
        pytest.param(["classify", "--point", "[1.0,0.8775825618903728,"
                      "0.7648421872844885,0.3623577544766736]"],
                     id="classify Q3"),  # cos(0, 0.5, 0.7, -1.2)
        pytest.param(["classify", "--point", CHSH_JSON], id="classify Q4"),
        pytest.param(["classify", "--point", "[1,1,1,-1]"],
                     id="classify exterior"),
        pytest.param(["complete", "--point", CHSH_JSON], id="complete Q4"),
        pytest.param(["dual", "--functional", "[0.2,0.1,-0.3,0.1]"],
                     id="dual inside"),
        pytest.param(["dual", "--functional", "[1,1,1,1]"],
                     id="dual outside"),
        pytest.param(["orbit", "--point", "[0.1,-0.2,0.35,0.4]"],
                     id="orbit generic"),
        # models with d <= 4 on Python floats, self-tests by Jacobi SVD
        *(pytest.param([command, "--angles", angles], id=f"{command} {name}")
          for command in ("model", "selftest")
          for name, angles in (
              ("CHSH", "[0.7853981633974483,0.7853981633974483,"
                       "0.7853981633974483,-2.356194490192345]"),
              ("vertex", "[0,0,0,0]"),
              ("Q2", "[0.3,0.4,-0.3,-0.4]"))),
    ], ids=lambda argv: " ".join(argv[:1] + argv[1:2]))
    def test_scalar_subcommand(self, argv):
        child = subprocess.run([sys.executable, "-c", self._CHILD, *argv],
                               capture_output=True, text=True,
                               env=_child_env(), timeout=60)
        assert child.returncode == 0, child.stderr
        assert "error" not in json.loads(child.stdout)

    def test_selftest_of_small_model_file(self, capsys, tmp_path):
        code, payload = run_cli(capsys, "model", "--angles",
                                "[0.3,0.4,0.5,-1.2]")
        assert code == 0
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        child = subprocess.run(
            [sys.executable, "-c", self._CHILD, "selftest", "--model",
             str(path)],
            capture_output=True, text=True, env=_child_env(), timeout=60)
        assert child.returncode == 0, child.stderr
        assert "error" not in json.loads(child.stdout)

    def test_public_names(self):
        # the package exports its modules' __all__ and nothing more, every
        # name there without numpy; each exported object that names a
        # module names its own, where the perfbench tracer looks for it
        code = textwrap.dedent("""\
            import importlib, pkgutil, sys, qbody
            public = {name for name in vars(qbody) if not name.startswith("_")}
            exported = set()
            for info in pkgutil.iter_modules(qbody.__path__):
                module = importlib.import_module("qbody." + info.name)
                if hasattr(module, "__all__"):
                    exported.update([info.name, *module.__all__])
                for name in getattr(module, "__all__", ()):
                    owner = getattr(getattr(module, name), "__module__",
                                    module.__name__)
                    assert owner == module.__name__, (name, owner)
            assert public == exported, sorted(public ^ exported)
            sys.exit(3 if 'numpy' in sys.modules else 0)""")
        child = subprocess.run([sys.executable, "-c", code],
                               capture_output=True, text=True,
                               env=_child_env(), timeout=60)
        assert child.returncode == 0, child.stderr

    def test_library_chain(self):
        # Gram vectors by pivoted Cholesky, the dual certificate by inertia,
        # on a Q4 point (rank 2) and a facet point (Q5, rank 3); Clifford
        # models of rank 2 and 1 on the row route
        code = textwrap.dedent("""\
            import sys
            from qbody import (Correlation, Functional, clifford_model,
                               dual_completion, gram_vectors,
                               selftest_residuals, solve_completion)
            s = 0.5 ** 0.5
            for c, r in (((s, s, s, -s), 2), ((1.0, 0.3, 0.2, 0.1), 3)):
                comp = solve_completion(Correlation(*c))
                gs = gram_vectors(comp.witness)
                back = gs.correlation().as_tuple()
                assert gs.r == comp.rank == r, (gs.r, comp.rank)
                assert max(abs(x - y) for x, y in zip(back, c)) < 1e-9
            for c, d in (((s, s, s, -s), 4), ((1.0, 1.0, 1.0, 1.0), 1)):
                gs = gram_vectors(solve_completion(Correlation(*c)).witness)
                model = clifford_model(gs)
                report = selftest_residuals(model)
                assert model.d == d, model.d
                assert max(report.residual_bpsi, report.residual_squares,
                           report.residual_anticommutator,
                           report.residual_tracial) < 1e-12, report
            assert dual_completion(Functional(0.2, 0.1, -0.3, 0.1)).feasible
            sys.exit(3 if 'numpy' in sys.modules else 0)""")
        child = subprocess.run([sys.executable, "-c", code],
                               capture_output=True, text=True,
                               env=_child_env(), timeout=60)
        assert child.returncode == 0, child.stderr

    def test_bare_import(self):
        code = ("import sys, qbody, qbody.core, qbody.quantum; "
                "assert not hasattr(qbody.core, 'NO_SUCH_NAME'); "
                "assert not hasattr(qbody.quantum, 'NO_SUCH_NAME'); "
                "sys.exit(3 if 'numpy' in sys.modules else 0)")
        child = subprocess.run([sys.executable, "-c", code],
                               capture_output=True, text=True,
                               env=_child_env(), timeout=60)
        assert child.returncode == 0, child.stderr
