"""Short-lived processes that time start-up, run by the workload process.

    python3 probe.py setup WORKLOAD OUT_DIR   first call of each function
                                              the workload uses, then
                                              prints "ready"
    python3 probe.py import                   prints the seconds that
                                              ``import qbody.cli`` takes
    python3 probe.py main OUT_DIR             prints the seconds of each
                                              in-process ``main(argv)``
    python3 probe.py traced-cli SPANS OP ARGV...
                                              ``qbody ARGV`` with spans

Inputs are small fixed literals: the probes measure what a user pays
before the first answer, not the size of the work.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time

Q4_POINT = (0.6216099682706644, 0.7648421872844885, 0.8775825618903728,
            -0.5048461045998576)          # cos(0.9, 0.7, 0.5, -2.1)
Q4_ANGLES = (0.9, 0.7, 0.5, -2.1)
FUNCTIONAL = (0.5, 0.5, 0.5, -0.5)


def cli_argvs(out_dir: str) -> list[list[str]]:
    """One small call of each of the 15 subcommands."""
    p, f, t = (f"[{','.join(map(repr, v))}]"
               for v in (Q4_POINT, FUNCTIONAL, Q4_ANGLES))
    return [
        ["member", "--point", p], ["classify", "--point", p],
        ["support", "--functional", f], ["gauge", "--point", p],
        ["dual", "--functional", f], ["complete", "--point", p],
        ["angles", "--point", p], ["expose", "--angles", t],
        ["model", "--angles", t], ["selftest", "--angles", t],
        ["volume", "--samples", "1000", "--seed", "1"],
        ["sample", "--target", "q4", "--samples", "10", "--seed", "1",
         "--out", os.path.join(out_dir, "probe-sample.csv")],
        ["slice", "--fix", "c11=1", "--grid", "3",
         "--out", os.path.join(out_dir, "probe-slice.csv")],
        ["orbit", "--point", p],
        ["ncycle", "--point", p, "--functional", f],
    ]


def first_calls(workload: str, out_dir: str) -> None:
    if workload == "cli":
        from qbody.cli import main
        for argv in cli_argvs(out_dir):
            with contextlib.redirect_stdout(io.StringIO()):
                main(argv)
        return
    import numpy as np
    import qbody as Q
    c, f, t = Q.Correlation(*Q4_POINT), Q.Functional(*FUNCTIONAL), \
        Q.AngleTuple(*Q4_ANGLES)
    if workload == "query":
        for o in Q.Oracle:
            Q.member(c, o)
        Q.member_classical(c)
        Q.classify(c)
        Q.solve_completion(c)
        Q.primal_polys(c)
        Q.extreme_from_angles(t)
        Q.angles_from_point(c)
        Q.exposing_functional(t)
        Q.support(f)
        Q.gauge(c)
        Q.dual_member(f)
        Q.dual_polys(f)
        Q.correlations_of(Q.build_model(t))
        Q.ncycle_residuals(c, f)
    elif workload == "mc":
        cfg = Q.SamplerConfig(seed=1, samples=1000)
        for body in Q.Body:
            Q.mc_volume(body, cfg)
        pts = np.random.default_rng(1).uniform(-1, 1, size=(1000, 4))
        for o in Q.Oracle:
            Q.membership.margin_batch(pts, o)
        Q.membership.classical_margin_batch(pts)
    elif workload == "strata":
        for spec in ({"fixed": {"c11": -0.8}}, {"fixed": {"c11": 1.0}},
                     {"normal": [1.0, 1.0, 1.0, -1.0], "offset": 2.0}):
            Q.slice_grid(Q.SliceSpec(resolution=2, **spec))
        for target in ("q4", "q5", "cube"):
            Q.sample(Q.SampleTarget(target), Q.SamplerConfig(seed=1, samples=1))
        Q.orbit(Q.Correlation(0.1, 0.2, 0.3, 0.4))
        Q.dual_completion(f)
        gs = Q.gram_vectors(Q.solve_completion(c).witness)
        Q.selftest_residuals(Q.clifford_model(gs))
    else:
        raise SystemExit(f"unknown workload {workload!r}")


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        first_calls(argv[1], argv[2])
        print("ready", flush=True)
    elif mode == "import":
        t0 = time.perf_counter()
        import qbody.cli  # noqa: F401
        print(time.perf_counter() - t0)
    elif mode == "main":
        from qbody.cli import main as cli_main
        times = []
        for args in cli_argvs(argv[1]):
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                cli_main(args)
            times.append(time.perf_counter() - t0)
        print(" ".join(repr(x) for x in times))
    elif mode == "traced-cli":
        import qbody.cli
        from spans import Tracer, write_spans
        tracer = Tracer(op=int(argv[2]))
        tracer.install()
        try:
            return qbody.cli.main(argv[3:])
        finally:
            write_spans(tracer.spans, argv[1])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
