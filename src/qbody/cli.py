"""Command-line front end.

Points are flat JSON arrays ``[c11, c12, c21, c22]``, functionals
``[f11, f12, f21, f22]``, angles ``[alpha, beta, gamma, delta]`` in
radians.  Output is JSON on stdout (CSV for the tabular subcommands when
``--out`` is given).  Exit status: 0 success, 1 domain error (with a
machine-readable ``{"error": {...}}`` payload, also for a result that holds
an infinite or NaN number, which strict JSON cannot write) or stdout
closed before the output was written, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys


from . import boundary, core, duality, measures, membership, quantum
from .core import Correlation, Functional, QBodyError, Tolerance

_ORACLES = {o.value: o for o in membership.Oracle}
_BODIES = {b.value: b for b in measures.Body}
_TARGETS = {t.value: t for t in measures.SampleTarget}


def _vector(text: str, what: str, convert=list):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"{what} is not valid JSON: {exc}")
    if not isinstance(data, list) or len(data) != 4 \
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in data):
        raise argparse.ArgumentTypeError(
            f"{what} must be a JSON array of 4 numbers")
    try:
        return convert([float(v) for v in data])
    except ValueError as exc:  # a non-finite entry
        raise argparse.ArgumentTypeError(str(exc))


_point_arg, _functional_arg, _angles_arg, _normal_arg = (
    functools.partial(_vector, what=flag, convert=convert)
    for flag, convert in (("--point", Correlation.from_sequence),
                          ("--functional", Functional.from_sequence),
                          ("--angles", list), ("--normal", list)))


def _fix_arg(text: str) -> tuple[str, float]:
    if "=" not in text:
        raise argparse.ArgumentTypeError("--fix expects cij=VALUE")
    name, _, value = text.partition("=")
    if name not in measures.AXES:
        raise argparse.ArgumentTypeError(
            f"--fix coordinate must be one of {measures.AXES}")
    try:
        return name, float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--fix value {value!r} not a number")


def _add_eps_flags(parser: argparse.ArgumentParser, *names: str) -> None:
    # flags for the Tolerance fields the subcommand reads, eps_psd with
    # eps_boundary, which bounds it; a flag left out stays None
    for name in names:
        parser.add_argument(f"--eps-{name}", type=float)


def _eps_given(args: argparse.Namespace) -> dict[str, float]:
    return {name: value for name, value in vars(args).items()
            if name.startswith("eps_") and value is not None}


def _default_seed() -> int:
    env = os.environ.get("QBODY_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"QBODY_SEED must be an integer, got {env!r}") from None


_POINT_HELP = "JSON array [c11,c12,c21,c22]"
_FUNCTIONAL_HELP = "JSON array [f11,f12,f21,f22] of inequality coefficients"
_ANGLES_HELP = "JSON array [alpha,beta,gamma,delta] in radians, sum 0 mod 2*pi"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbody",
        description="Compute with the minimal-scenario quantum correlation body.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("member", help="membership of a point in Q")
    p.add_argument("--point", type=_point_arg, required=True, help=_POINT_HELP)
    p.add_argument("--oracle", choices=["all"] + sorted(_ORACLES), default="all")
    _add_eps_flags(p, "boundary", "psd")

    p = sub.add_parser("classify", help="boundary stratum of a point")
    p.add_argument("--point", type=_point_arg, required=True, help=_POINT_HELP)
    _add_eps_flags(p, "boundary", "psd")

    p = sub.add_parser("support", help="support function of a functional")
    p.add_argument("--functional", type=_functional_arg, required=True,
                   help=_FUNCTIONAL_HELP)

    p = sub.add_parser("gauge", help="gauge function of a point")
    p.add_argument("--point", type=_point_arg, required=True, help=_POINT_HELP)

    p = sub.add_parser("dual", help="polar-body membership of a functional")
    p.add_argument("--functional", type=_functional_arg, required=True,
                   help=_FUNCTIONAL_HELP)
    _add_eps_flags(p, "boundary", "psd")

    p = sub.add_parser("complete", help="matrix completion of a point")
    p.add_argument("--point", type=_point_arg, required=True, help=_POINT_HELP)
    _add_eps_flags(p, "boundary", "psd")

    p = sub.add_parser("angles", help="angles <-> point conversions")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--point", type=_point_arg, help=_POINT_HELP)
    group.add_argument("--angles", type=_angles_arg, help=_ANGLES_HELP)
    _add_eps_flags(p, "boundary", "angle", "psd")

    p = sub.add_parser("expose", help="exposing functional of an extreme point")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--angles", type=_angles_arg, help=_ANGLES_HELP)
    group.add_argument("--point", type=_point_arg, help=_POINT_HELP)
    _add_eps_flags(p, "boundary", "angle", "psd")

    p = sub.add_parser("model", help="explicit quantum model for angles")
    p.add_argument("--angles", type=_angles_arg, required=True,
                   help=_ANGLES_HELP)
    _add_eps_flags(p, "angle")

    p = sub.add_parser("selftest", help="self-testing residuals of a model")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--angles", type=_angles_arg, help=_ANGLES_HELP)
    group.add_argument("--model", help="path to a model JSON file")
    _add_eps_flags(p, "boundary", "angle", "psd")

    p = sub.add_parser("volume", help="Monte-Carlo volume fraction")
    p.add_argument("--body", choices=sorted(_BODIES), default="q")
    p.add_argument("--samples", type=int, default=1000000)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("sample", help="draw points from a target set")
    p.add_argument("--target", choices=sorted(_TARGETS), default="cube")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="write CSV to this path instead of JSON")

    p = sub.add_parser("slice", help="labelled grid over a slice of the cube")
    p.add_argument("--fix", type=_fix_arg, action="append", default=[],
                   help="fix a coordinate, e.g. c11=-0.8 (repeatable)")
    p.add_argument("--normal", type=_normal_arg, default=None,
                   help="hyperplane normal as a JSON 4-array")
    p.add_argument("--offset", type=float, default=None,
                   help="hyperplane offset (normal . c = offset), default 0")
    p.add_argument("--grid", type=int, default=50,
                   help="grid resolution per free axis")
    p.add_argument("--out", help="write CSV to this path instead of JSON")
    _add_eps_flags(p, "boundary", "psd")

    p = sub.add_parser("orbit", help="symmetry orbit of a point")
    p.add_argument("--point", type=_point_arg, required=True, help=_POINT_HELP)
    _add_eps_flags(p, "angle")

    p = sub.add_parser("ncycle", help="normal-cycle residuals of a pair")
    p.add_argument("--point", type=_point_arg, required=True, help=_POINT_HELP)
    p.add_argument("--functional", type=_functional_arg, required=True,
                   help=_FUNCTIONAL_HELP)

    return parser


def _verdict_dict(v: membership.MembershipVerdict) -> dict:
    # the oracle by its name, as --oracle spells it
    return {**dataclasses.asdict(v),
            "oracle": None if v.oracle is None else v.oracle.value}


def _run(args: argparse.Namespace) -> dict | measures.SliceTable | list:
    cmd = args.command
    tol = Tolerance(**_eps_given(args))

    if cmd == "member":
        names = sorted(_ORACLES) if args.oracle == "all" else [args.oracle]
        return {name: _verdict_dict(membership.member(args.point,
                                                      _ORACLES[name], tol))
                for name in names}

    if cmd == "classify":
        return {"stratum": boundary.classify(args.point, tol).value}

    if cmd == "support":
        if max(abs(v) for v in args.functional) == 0.0:
            return {"phi": 0.0, "case": "zero"}
        verdict = duality.quantum_case(args.functional)
        return {"phi": verdict.phi,
                "case": "quantum" if verdict.quantum_case else "classical"}

    if cmd == "gauge":
        return {"gauge": duality.gauge(args.point)}

    if cmd == "dual":
        verdict = duality.dual_member(args.functional, tol=tol)
        completion = duality.dual_completion(args.functional, tol)
        return {
            "member": _verdict_dict(verdict),
            "support": completion.support,
            "completion": {
                "feasible": completion.feasible,
                "p": [completion.witness.p1, completion.witness.p2,
                      completion.witness.p3, completion.witness.p4],
            },
        }

    if cmd == "complete":
        result = boundary.solve_completion(args.point, tol)
        return {
            "feasible": result.feasible,
            "u": result.witness.u,
            "v": result.witness.v,
            "unique": result.unique,
            "rank": result.rank,
        }

    if cmd == "angles":
        if args.point is not None:
            t = boundary.angles_from_point(args.point, tol)
            return {"angles": list(t.as_tuple())}
        t = boundary.AngleTuple(*args.angles, eps=tol.eps_angle)
        ext = boundary.extreme_from_angles(t, tol)
        return {"point": list(ext.c.as_tuple()), "stratum": ext.stratum.value}

    if cmd == "expose":
        if args.angles is not None:
            t = boundary.AngleTuple(*args.angles, eps=tol.eps_angle)
        else:
            t = boundary.angles_from_point(args.point, tol)
        f = boundary.exposing_functional(t, tol)
        return {"functional": list(f.as_tuple())}

    if cmd == "model":
        t = boundary.AngleTuple(*args.angles, eps=tol.eps_angle)
        model = quantum.build_model(t)
        payload = model.to_json_dict()
        payload["correlations"] = list(quantum.correlations_of(model).as_tuple())
        return payload

    if cmd == "selftest":
        # rejected here, not by argparse, so the message can name --angles
        if args.eps_boundary is not None or args.eps_psd is not None \
                or (args.model is not None and args.eps_angle is not None):
            raise ValueError("selftest takes --eps-angle only, with --angles; "
                             "--model takes no tolerance")
        if args.angles is not None:
            model = quantum.build_model(boundary.AngleTuple(
                *args.angles, eps=tol.eps_angle))
        else:
            with open(args.model, encoding="utf-8") as fh:
                model = quantum.QuantumModel.from_json_dict(json.load(fh))
        return dataclasses.asdict(quantum.selftest_residuals(model))

    if cmd == "volume":
        seed = args.seed if args.seed is not None else _default_seed()
        cfg = measures.SamplerConfig(seed=seed, samples=args.samples)
        return dataclasses.asdict(measures.mc_volume(_BODIES[args.body], cfg))

    if cmd == "sample":
        seed = args.seed if args.seed is not None else _default_seed()
        cfg = measures.SamplerConfig(seed=seed, samples=args.samples)
        points = measures.sample(_TARGETS[args.target], cfg)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                measures.write_csv(fh, measures.AXES,
                                   [c.as_tuple() for c in points])
            return {"written": args.out, "count": len(points)}
        return {"points": [list(c.as_tuple()) for c in points]}

    if cmd == "slice":
        if args.offset is not None and args.normal is None:
            raise core.InvalidSlice("--offset needs --normal")
        fixed = dict(args.fix) if args.fix else None
        if fixed is not None and len(fixed) < len(args.fix):
            raise core.InvalidSlice("--fix names a coordinate twice")
        spec = measures.SliceSpec(fixed=fixed, normal=args.normal,
                                  offset=0.0 if args.offset is None
                                  else args.offset, resolution=args.grid)
        table = measures.slice_grid(spec, tol)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                table.write_csv(fh)
            return {"written": args.out, "rows": len(table.rows)}
        return {"columns": list(table.columns),
                "rows": [list(row) for row in table.rows]}

    if cmd == "orbit":
        points = core.orbit(args.point, tol)
        return {"size": len(points),
                "orbit": [list(p.as_tuple()) for p in points]}

    if cmd == "ncycle":
        residuals = duality.ncycle_residuals(args.point, args.functional)
        return {"names": list(duality.NCYCLE_RESIDUAL_NAMES),
                "residuals": list(residuals)}

    raise AssertionError(f"unhandled command {cmd!r}")  # pragma: no cover


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        result, status = _run(args), 0
    except (ValueError, OSError, core.InvalidSlice) as exc:
        # a malformed slice is a usage error, though the library raises it
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    except QBodyError as exc:
        result = {"error": {"kind": type(exc).__name__, "detail": str(exc)}}
        status = 1
    try:
        text = json.dumps(result, allow_nan=False)
    except ValueError:  # strict JSON has no token for inf or nan
        text, status = json.dumps({"error": {
            "kind": "ConsistencyError",
            "detail": "the result holds an infinite or NaN number"}}), 1
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader is gone; the flush at interpreter exit must not raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
