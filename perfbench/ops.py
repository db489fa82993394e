"""Calls into qbody and the checks on their answers, one pair per kind.

An operation spec (see :mod:`inputs`) names a kind; ``Runner.call`` makes
the call, reaching every library function through a module attribute at
call time so that the tracer's wrappers are seen, and ``check(op,
result)`` raises :class:`CheckError` when the answer contradicts the
reference or a property the method must have.  Checks never compare
against an earlier output of the library, except for the byte-identity of
repeated seeded CLI output, which is the property under test there.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import time

import numpy as np

import geometry as G

# A membership verdict is checked only when the reference margin is
# farther than this from zero: the oracles agree as sets, so only
# round-off near the boundary may flip a verdict.
BAND = 1e-7
# Dual certificates are searched numerically; their verdict is checked
# only for functionals whose support is at least this far from 1.
DUAL_BAND = 1e-3
POLY_TOL = 1e-11
VALUE_TOL = 1e-9
PSD_TOL = 1e-9
RESIDUAL_TOL = 1e-9
STDERRS = 5.0
RANK_BY_STRATUM = {"Q1": 1, "Q2": 2, "Q3": 2, "Q4": 2, "Q5": 3}
BOUNDARY = tuple(RANK_BY_STRATUM)


class CheckError(AssertionError):
    """An answer contradicts its reference."""


def expect(cond, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def close(a, b, tol: float, what: str) -> None:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = np.maximum(1.0, np.abs(b))
    err = float(np.max(np.abs(a - b) / scale)) if a.size else 0.0
    expect(a.shape == b.shape and err <= tol,
           f"{what}: {a.tolist()} vs {b.tolist()} (error {err:.3e})")


def verdict_agrees(inside: bool, margin: float, band: float, what: str) -> None:
    if abs(margin) > band:
        expect(bool(inside) == (margin > 0),
               f"{what}: verdict {inside} but reference margin {margin:.3e}")


def min_eig(mat) -> float:
    return float(np.linalg.eigvalsh(np.asarray(mat, dtype=float))[0])


def completion_matrix(c, u, v) -> np.ndarray:
    c11, c12, c21, c22 = c
    return np.array([[1, u, c11, c12], [u, 1, c21, c22],
                     [c11, c21, 1, v], [c12, c22, v, 1]], dtype=float)


def dual_matrix(f, p) -> np.ndarray:
    f11, f12, f21, f22 = f
    return np.array([[p[0], 0, -f11, -f12], [0, p[1], -f21, -f22],
                     [-f11, -f21, p[2], 0], [-f12, -f22, 0, p[3]]],
                    dtype=float)


# ---------------------------------------------------------------------------
# Checks on library answers (plain values, shared with the CLI checks)
# ---------------------------------------------------------------------------

def check_member(op, res) -> None:
    point, oracle = op["args"]
    expect(res.oracle is not None and res.oracle.value == oracle,
           f"verdict names oracle {res.oracle}")
    expect(math.isfinite(res.margin), "margin is not finite")
    verdict_agrees(res.inside, op["ref"]["margin"], BAND, f"member {oracle}")


def check_member_classical(op, res) -> None:
    ref = op["ref"]["classical"]
    close(res.margin, ref, 1e-12, "CL margin")
    verdict_agrees(res.inside, ref, 1e-12, "member_classical")


def check_classify(op, res) -> None:
    expect(res.value in op["ref"]["strata"],
           f"classify gave {res.value}, expected {op['ref']['strata']}")


def check_completion(point, feasible, u, v, rank, unique, ref) -> None:
    verdict_agrees(feasible, ref["margin"], BAND, "completion feasibility")
    if feasible:
        mat = completion_matrix(point, u, v)
        expect(min_eig(mat) >= -PSD_TOL,
               f"witness is not PSD: min eigenvalue {min_eig(mat):.3e}")
    if ref.get("cat") in BOUNDARY:
        expect(feasible, f"{ref['cat']} point without a completion")
        want = RANK_BY_STRATUM[ref["cat"]]
        expect(unique and rank == want,
               f"{ref['cat']} point: rank {rank} unique {unique}, want {want}")


def check_solve_completion(op, res) -> None:
    check_completion(op["args"], res.feasible, res.witness.u, res.witness.v,
                     res.rank, res.unique, op["ref"])


def check_primal_polys(op, res) -> None:
    ref = op["ref"]
    scale = (1.0 + max(abs(x) for x in op["args"])) ** 6
    close([res.g / scale, res.h / scale],
          [ref["g"] / scale, ref["h"] / scale], POLY_TOL, "g, h")


def check_extreme_from_angles(op, res) -> None:
    close(res.c.as_tuple(), op["ref"]["point"], 1e-14, "cos(angles)")
    expect(res.stratum.value == op["ref"]["stratum"],
           f"stratum {res.stratum.value}, expected {op['ref']['stratum']}")


def check_angles_of(point, angles) -> None:
    close(np.cos(angles), point, 1e-7, "cos(recovered angles)")
    residual = abs(math.remainder(sum(angles), 2 * math.pi))
    expect(residual <= 1e-9, f"angle sum residual {residual:.3e}")


def check_angles_from_point(op, res) -> None:
    check_angles_of(op["args"], res.as_tuple())


def check_exposing(f, ref) -> None:
    close(f, ref["f"], VALUE_TOL, "exposing functional")
    incidence = sum(a * b for a, b in zip(f, ref["point"]))
    close(incidence, 1.0, 1e-10, "f·c at the exposed point")


def check_exposing_functional(op, res) -> None:
    check_exposing(res.as_tuple(), op["ref"])


def check_support(op, res) -> None:
    close(res, op["ref"]["support"], VALUE_TOL, "support")
    if op["ref"].get("exact") is not None:
        close(res, op["ref"]["exact"], 1e-12, "closed-form support value")


def check_gauge(op, res) -> None:
    close(res, op["ref"]["gauge"], VALUE_TOL, "gauge")
    if "margin" in op["ref"]:
        verdict_agrees(res <= 1.0, op["ref"]["margin"], BAND, "gauge <= 1")


def check_dual_member(op, res) -> None:
    s = op["ref"]["support"]
    verdict_agrees(res.inside, 1.0 - s, BAND, "dual_member")


def check_dual_polys(op, res) -> None:
    ref = op["ref"]
    for name in ("k", "p", "q", "g_dual", "h_dual"):
        close(getattr(res, name), ref[name], POLY_TOL, name)


def check_model(op, res) -> None:
    close(res, op["ref"]["point"], 1e-12, "correlations of the model")


def check_ncycle(op, res) -> None:
    expect(len(res) == 20, f"{len(res)} residuals")
    if op["ref"]["incident"]:
        worst = max(abs(r) for r in res)
        expect(worst <= RESIDUAL_TOL, f"incident pair residual {worst:.3e}")
    else:
        close(res[0], op["ref"]["ell"], 1e-12, "incidence c·f - 1")
        close(res[1], op["ref"]["h"], POLY_TOL, "h(c)")


def check_volume(fraction, stderr, samples, exact) -> None:
    sigma = math.sqrt(exact * (1 - exact) / samples)
    expect(abs(fraction - exact) <= STDERRS * sigma,
           f"fraction {fraction} is {abs(fraction - exact) / sigma:.1f} "
           f"stderr from {exact}")
    close(stderr, math.sqrt(fraction * (1 - fraction) / samples), 1e-12,
          "reported stderr")


def check_mc_volume(op, res) -> None:
    check_volume(res.fraction, res.stderr, op["args"][2], op["ref"]["exact"])


def check_margin_batch(op, res) -> None:
    check_margin_array(res, op["ref"], exact=False)


def check_classical_margin_batch(op, res) -> None:
    check_margin_array(res, op["ref"], exact=True)


def check_margin_array(res, ref, exact: bool) -> None:
    res = np.asarray(res)
    expect(res.shape == ref.shape, f"shape {res.shape} vs {ref.shape}")
    if exact:
        close(res, ref, 1e-12, "classical margins")
    clear = np.abs(ref) > BAND
    bad = int(((res[clear] >= 0) != (ref[clear] >= 0)).sum())
    expect(bad == 0, f"{bad} verdicts disagree with the pushout reference")


def check_slice_rows(columns, rows, ref) -> None:
    free, nodes = ref["free"], ref["nodes"]
    expect(list(columns) == free + ["stratum", "classical", "g", "h"],
           f"columns {columns}")
    expect(len(rows) == len(nodes), f"{len(rows)} rows for {len(nodes)} nodes")
    axes = ("c11", "c12", "c21", "c22")
    idx = [axes.index(a) for a in free]
    coords = np.array([[float(x) for x in r[:len(free)]] for r in rows])
    close(coords, nodes[:, idx], 0.0, "node coordinates")
    labels = np.array([r[len(free)] for r in rows])
    ext = labels == "EXTERIOR"
    m = ref["margin"]
    expect(not (ext & (m > BAND)).any(), "EXTERIOR label on a point of Q")
    expect(ext[m < -BAND].all(), "point outside Q not labelled EXTERIOR")
    if "facet" in ref:
        cubic = ref["facet"]
        open_facet = (cubic > BAND) & (np.abs(nodes[:, 1:]).max(axis=1)
                                       < 1 - BAND)
        expect((labels[open_facet] == "Q5").all(), "open facet point not Q5")
        expect(ext[cubic < -BAND].all(), "point off the elliptope not EXTERIOR")
    classical = np.array([int(r[len(free) + 1]) for r in rows])
    cm = ref["classical"]
    clear = np.abs(cm) > 1e-9
    expect((classical[clear] == (cm[clear] >= 0)).all(),
           "classical bit disagrees with the CL facets")
    g = np.array([float(r[-2]) for r in rows])
    h = np.array([float(r[-1]) for r in rows])
    close(g, ref["g"], VALUE_TOL, "slice g")
    close(h, ref["h"], VALUE_TOL, "slice h")


def check_slice_grid(op, res) -> None:
    check_slice_rows(res.columns, res.rows, op["ref"])


def check_sample_points(target, pts, samples) -> None:
    pts = np.asarray(pts, dtype=float).reshape(-1, 4)
    expect(len(pts) == samples, f"{len(pts)} points for {samples}")
    expect(np.abs(pts).max() <= 1.0, "sample left the cube")
    if target == "q4":
        g, h = G.polys(pts)
        expect(np.abs(h).max() <= VALUE_TOL, f"q4 sample |h| {np.abs(h).max():.3e}")
        expect((g < 0).all(), "q4 sample with g >= 0")
    elif target == "q5":
        sat = np.abs(pts) == 1.0
        expect((sat.sum(axis=1) == 1).all(), "q5 sample without one ±1 entry")
        axis = np.argmax(sat, axis=1)
        sign = pts[np.arange(len(pts)), axis]
        rest = pts[~sat].reshape(-1, 3)
        x, y, z = rest.T
        cubic = 1 - x * x - y * y - z * z + 2 * sign * x * y * z
        expect((cubic > 0).all(), "q5 sample off its facet elliptope")
    elif target == "cl":
        expect((G.classical_margin(pts) >= 0).all(), "cl sample outside CL")


def check_sample(op, res) -> None:
    target, _, samples = op["args"]
    check_sample_points(target, [c.as_tuple() for c in res], samples)


def check_orbit_points(points, ref) -> None:
    n = len(points)
    expect(n > 0 and 192 % n == 0, f"orbit size {n} does not divide 192")
    got = sorted(tuple(round(x, 9) + 0.0 for x in p) for p in points)
    want = [tuple(p) for p in ref["images"]]
    expect(got == want, f"orbit of size {n}, reference has {len(want)}")


def check_orbit(op, res) -> None:
    check_orbit_points([c.as_tuple() for c in res], op["ref"])


def check_dual_certificate(f, feasible, p, support) -> None:
    if abs(support - 1.0) > DUAL_BAND:
        expect(bool(feasible) == (support <= 1.0),
               f"dual certificate feasible={feasible} at support {support}")
    close([p[0] + p[1], p[2] + p[3]], [1.0, 1.0], 1e-12, "diagonal sums")
    if feasible:
        expect(min_eig(dual_matrix(f, p)) >= -PSD_TOL,
               "feasible dual certificate is not PSD")


def check_dual_completion(op, res) -> None:
    w = res.witness
    check_dual_certificate(op["args"], res.feasible, (w.p1, w.p2, w.p3, w.p4),
                           op["ref"]["support"])


def check_selftest(rep) -> None:
    worst = max(rep["residual_bpsi"], rep["residual_squares"],
                rep["residual_anticommutator"], rep["residual_tracial"])
    expect(worst <= RESIDUAL_TOL, f"self-test residual {worst:.3e} on Q4")


def check_chain(op, res) -> None:
    vectors, rep = res
    a1, a2, b1, b2 = (np.asarray(v) for v in vectors)
    close([a1 @ b1, a1 @ b2, a2 @ b1, a2 @ b2], op["args"], 1e-9,
          "Gram vectors reproduce c")
    check_selftest(rep)


# ---------------------------------------------------------------------------
# CLI answers, parsed from stdout or the CSV file written
# ---------------------------------------------------------------------------

def _csv(text: str) -> tuple[list[str], list[list[str]]]:
    expect(text.endswith("\n") and "\r" not in text, "CSV line endings")
    lines = text[:-1].split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_cli_answer(op, out: dict, csv_text: str | None) -> None:
    kind, ref = op["args"]["check"], op["ref"]
    argv = op["args"]["argv"]
    if kind == "member_all":
        expect(sorted(out) == sorted(("completion", "landau", "pushout",
                                      "semialg", "timo")), "oracle set")
        for name, v in out.items():
            expect(v["oracle"] == name, "oracle name")
            verdict_agrees(v["inside"], ref["margin"], BAND, f"cli {name}")
    elif kind == "classify":
        expect(out["stratum"] in ref["strata"], f"stratum {out['stratum']}")
    elif kind == "support":
        close(out["phi"], ref["support"], VALUE_TOL, "cli support")
    elif kind == "gauge":
        close(out["gauge"], ref["gauge"], VALUE_TOL, "cli gauge")
    elif kind == "dual":
        verdict_agrees(out["member"]["inside"], 1.0 - ref["support"], BAND,
                       "cli dual member")
        close(out["support"], ref["support"], VALUE_TOL, "cli dual support")
        check_dual_certificate(json.loads(argv[2]), out["completion"]["feasible"],
                               out["completion"]["p"], ref["support"])
    elif kind == "complete":
        check_completion(ref["point"], out["feasible"], out["u"], out["v"],
                         out["rank"], out["unique"], ref)
    elif kind == "angles_point":
        check_angles_of(ref["point"], out["angles"])
    elif kind == "angles_angles":
        close(out["point"], ref["point"], 1e-14, "cli cos(angles)")
        expect(out["stratum"] == ref["stratum"], f"stratum {out['stratum']}")
    elif kind == "expose":
        check_exposing(out["functional"], ref)
    elif kind == "model":
        psi = np.asarray(out["psi"])
        corr = [float(psi @ np.asarray(out[a]) @ np.asarray(out[b]) @ psi)
                for a in ("A1", "A2") for b in ("B1", "B2")]
        close(corr, ref["point"], 1e-12, "model correlations recomputed")
        close(out["correlations"], ref["point"], 1e-12, "reported correlations")
    elif kind == "selftest":
        check_selftest(out)
    elif kind == "volume":
        check_volume(out["fraction"], out["stderr"], ref["samples"],
                     ref["exact"])
    elif kind == "sample_csv":
        header, rows = _csv(csv_text)
        expect(header == ["c11", "c12", "c21", "c22"], f"header {header}")
        expect(out["count"] == ref["samples"], "reported count")
        check_sample_points(ref["target"], [[float(x) for x in r] for r in rows],
                            ref["samples"])
    elif kind == "slice_csv":
        header, rows = _csv(csv_text)
        expect(out["rows"] == len(rows), "reported row count")
        check_slice_rows(header, rows, ref)
    elif kind == "orbit":
        expect(out["size"] == len(out["orbit"]), "reported orbit size")
        check_orbit_points(out["orbit"], ref)
    elif kind == "ncycle":
        expect(len(out["names"]) == 20, "residual names")
        worst = max(abs(r) for r in out["residuals"])
        expect(worst <= RESIDUAL_TOL, f"incident pair residual {worst:.3e}")
    else:
        raise CheckError(f"unknown CLI check {kind}")


def check_cli(op, res) -> None:
    rc, stdout, csv_text, _ = res
    want = op["args"]["exit"]
    expect(rc == want, f"exit {rc}, expected {want}: {stdout[:200]!r}")
    if want == 0:
        check_cli_answer(op, json.loads(stdout), csv_text)


def cli_fault(op, res) -> bool:
    """True when a CLI answer shows exactly the op's known fault."""
    rc, stdout = res[0], res[1]
    if op["fault"] == "exit0":
        return rc == 0
    if op["fault"] == "AngleSumViolation":
        return rc == 1 and '"AngleSumViolation"' in stdout
    return False


KINDS = ("member", "member_classical", "classify", "solve_completion",
         "primal_polys", "extreme_from_angles", "angles_from_point",
         "exposing_functional", "support", "gauge", "dual_member",
         "dual_polys", "model", "ncycle", "mc_volume", "margin_batch",
         "classical_margin_batch", "slice_grid", "sample", "orbit",
         "dual_completion", "chain", "cli")
CHECKS = {kind: globals()["check_" + kind] for kind in KINDS}


# ---------------------------------------------------------------------------
# The calls
# ---------------------------------------------------------------------------

CLI_MAIN = "import sys; from qbody.cli import main; sys.exit(main())"


class Runner:
    """Makes each kind of call; holds the library module and CLI settings.

    ``Q`` is the imported ``qbody`` package, ``env`` the environment of CLI
    subprocesses, ``out_dir`` where they write CSV files.  ``wrap_cli``,
    when set, maps a CLI argv to the interpreter arguments that run it
    (the traced run uses it to record spans inside the subprocess).
    """

    def __init__(self, Q, env=None, out_dir=None, wrap_cli=None):
        self.Q = Q
        self.env = env
        self.out_dir = out_dir
        self.wrap_cli = wrap_cli
        self.span_path = None
        self.cli_rss_kb = 0

    def call(self, op):
        return getattr(self, "_" + op["kind"])(op["args"])

    def _member(self, a):
        Q = self.Q
        return Q.member(Q.Correlation(*a[0]), Q.Oracle(a[1]))

    def _member_classical(self, a):
        return self.Q.member_classical(self.Q.Correlation(*a))

    def _classify(self, a):
        return self.Q.classify(self.Q.Correlation(*a))

    def _solve_completion(self, a):
        return self.Q.solve_completion(self.Q.Correlation(*a))

    def _primal_polys(self, a):
        return self.Q.primal_polys(self.Q.Correlation(*a))

    def _extreme_from_angles(self, a):
        return self.Q.extreme_from_angles(self.Q.AngleTuple(*a))

    def _angles_from_point(self, a):
        return self.Q.angles_from_point(self.Q.Correlation(*a))

    def _exposing_functional(self, a):
        return self.Q.exposing_functional(self.Q.AngleTuple(*a))

    def _support(self, a):
        return self.Q.support(self.Q.Functional(*a))

    def _gauge(self, a):
        return self.Q.gauge(self.Q.Correlation(*a))

    def _dual_member(self, a):
        return self.Q.dual_member(self.Q.Functional(*a))

    def _dual_polys(self, a):
        return self.Q.dual_polys(self.Q.Functional(*a))

    def _model(self, a):
        Q = self.Q
        return Q.correlations_of(Q.build_model(Q.AngleTuple(*a))).as_tuple()

    def _ncycle(self, a):
        Q = self.Q
        return Q.ncycle_residuals(Q.Correlation(*a[0]), Q.Functional(*a[1]))

    def _mc_volume(self, a):
        Q = self.Q
        return Q.mc_volume(Q.Body(a[0]), Q.SamplerConfig(seed=a[1], samples=a[2]))

    def _margin_batch(self, a):
        return self.Q.membership.margin_batch(a[0], self.Q.Oracle(a[1]))

    def _classical_margin_batch(self, a):
        return self.Q.membership.classical_margin_batch(a)

    def _slice_grid(self, a):
        spec, res = a
        return self.Q.slice_grid(self.Q.SliceSpec(resolution=res, **spec))

    def _sample(self, a):
        Q = self.Q
        return Q.sample(Q.SampleTarget(a[0]), Q.SamplerConfig(seed=a[1], samples=a[2]))

    def _orbit(self, a):
        return self.Q.orbit(self.Q.Correlation(*a))

    def _dual_completion(self, a):
        return self.Q.dual_completion(self.Q.Functional(*a))

    def _chain(self, a):
        Q = self.Q
        comp = Q.solve_completion(Q.Correlation(*a))
        gs = Q.gram_vectors(comp.witness)
        rep = Q.selftest_residuals(Q.clifford_model(gs))
        return (gs.vectors(), {"residual_bpsi": rep.residual_bpsi,
                               "residual_squares": rep.residual_squares,
                               "residual_anticommutator": rep.residual_anticommutator,
                               "residual_tracial": rep.residual_tracial})

    def _cli(self, a):
        out_path = None
        argv = list(a["argv"])
        if a["out"]:
            out_path = os.path.join(self.out_dir, a["out"])
            argv = [out_path if x == "{out}" else x for x in argv]
        prefix = self.wrap_cli(argv) if self.wrap_cli else ["-c", CLI_MAIN]
        rc, stdout, rss_kb = run_child(prefix + argv, self.env)
        self.cli_rss_kb = max(self.cli_rss_kb, rss_kb)
        return rc, stdout, out_path, argv[0]

    def collect(self, op, res):
        """After the timer: read (and remove) the CSV a CLI call wrote."""
        if op["kind"] != "cli" or res[2] is None:
            return res
        rc, stdout, out_path, argv0 = res
        csv_text = None
        if os.path.exists(out_path):
            with open(out_path, encoding="utf-8", newline="") as fh:
                csv_text = fh.read()
            os.remove(out_path)
        return rc, stdout, csv_text, argv0


def run_child(args, env) -> tuple[int, str, int]:
    """Run ``python3 args`` to completion; exit code, stdout, peak RSS in kB.

    The child is reaped with ``wait4`` so that its own peak RSS is read,
    not that of every child this process ever had.
    """
    import sys
    with subprocess.Popen([sys.executable, *args], env=env,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL) as proc:
        stdout = proc.stdout.read().decode()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout, usage.ru_maxrss


def timed_call(runner: Runner, op) -> tuple[float, object, BaseException | None]:
    """Latency in seconds, result, and the library error raised if any."""
    t0 = time.perf_counter()
    try:
        res = runner.call(op)
    except runner.Q.QBodyError as exc:
        return time.perf_counter() - t0, None, exc
    dt = time.perf_counter() - t0
    return dt, runner.collect(op, res), None
