"""Shows that every correctness check rejects a wrong answer.

    python3 perfbench/run.py --bites

For every operation of one round of each workload (seed 0), the library's
real answer must pass its check, and the same answer with a deliberate
error (a flipped verdict, a value off by far more than the tolerance, a
wrong stratum, a missing orbit point, a changed CSV line, ...) must fail
it.  Checks that only apply outside a boundary band cannot see a flipped
verdict inside the band; the report counts how many of each kind's
perturbed answers were rejected, and every kind must reject at least one.
Known-fault operations are skipped.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile

import numpy as np

import inputs
import ops as O

STRATA = ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "EXTERIOR")


def _other_stratum(Q, s):
    return Q.Stratum(STRATA[(STRATA.index(s.value) + 1) % len(STRATA)])


def _perturb_sample(Q, op, res):
    target = op["args"][0]
    first = list(res[0].as_tuple())
    if target == "q5":
        i = int(np.argmax(np.abs(first) == 1.0))
        first[i] *= 0.999
    elif target == "q4":
        first[0] += 1e-3 * (1 if first[0] < 0 else -1)
    else:
        first[0] = 1.5
    return [Q.Correlation(*first)] + list(res[1:])


def _perturb_slice(Q, op, res):
    swap = {"Q6": "EXTERIOR", "EXTERIOR": "Q6", "Q5": "EXTERIOR"}
    k = len(res.columns) - 4
    rows = [r[:k] + (swap.get(r[k], r[k]),) + r[k + 1:] for r in res.rows]
    return dataclasses.replace(res, rows=rows)


def perturbers(Q):
    rep = dataclasses.replace
    return {
        "member": lambda op, r: rep(r, inside=not r.inside, margin=-r.margin),
        "member_classical": lambda op, r: rep(r, margin=r.margin + 1e-6),
        "classify": lambda op, r: _other_stratum(Q, r),
        "solve_completion": lambda op, r: rep(r, feasible=not r.feasible),
        "primal_polys": lambda op, r: rep(r, h=r.h + 1e-8),
        "extreme_from_angles": lambda op, r: rep(
            r, stratum=_other_stratum(Q, r.stratum)),
        "angles_from_point": lambda op, r: Q.AngleTuple(
            r.alpha + 1e-3, r.beta, r.gamma, r.delta - 1e-3),
        "exposing_functional": lambda op, r: Q.Functional(
            *(1.001 * x for x in r.as_tuple())),
        "support": lambda op, r: r * (1 + 1e-6),
        "gauge": lambda op, r: r * (1 + 1e-6) + 1e-6,
        "dual_member": lambda op, r: rep(r, inside=not r.inside),
        "dual_polys": lambda op, r: rep(r, k=r.k + 1e-9),
        "model": lambda op, r: (r[0] + 1e-9,) + tuple(r[1:]),
        "ncycle": lambda op, r: (r[0] + 1e-6,) + tuple(r[1:]),
        "mc_volume": lambda op, r: rep(r, fraction=r.fraction + 10 * max(
            r.stderr, 1e-4)),
        "margin_batch": lambda op, r: -r,
        "classical_margin_batch": lambda op, r: r + 1e-9,
        "slice_grid": lambda op, r: _perturb_slice(Q, op, r),
        "sample": lambda op, r: _perturb_sample(Q, op, r),
        "orbit": lambda op, r: r[:-1],
        "dual_completion": lambda op, r: rep(r, feasible=not r.feasible),
        "chain": lambda op, r: (r[0], {**r[1], "residual_tracial": 1e-6}),
        "cli": _perturb_cli,
    }


# One wrong value per CLI answer, keyed by the op's check kind.
CLI_EDITS = {
    "member_all": lambda d: d["semialg"].update(inside=not d["semialg"]["inside"]),
    "classify": lambda d: d.update(stratum="Q6"),
    "support": lambda d: d.update(phi=d["phi"] + 1e-6),
    "gauge": lambda d: d.update(gauge=d["gauge"] + 1e-6),
    "dual": lambda d: d["completion"].update(
        feasible=not d["completion"]["feasible"]),
    "complete": lambda d: d.update(rank=d["rank"] + 1),
    "angles_point": lambda d: d["angles"].__setitem__(0, d["angles"][0] + 1e-3),
    "angles_angles": lambda d: d.update(stratum="Q6"),
    "expose": lambda d: d["functional"].__setitem__(0, d["functional"][0] * 1.001),
    "model": lambda d: d["correlations"].__setitem__(0, d["correlations"][0] + 1e-9),
    "selftest": lambda d: d.update(residual_tracial=1e-6),
    "volume": lambda d: d.update(fraction=d["fraction"] + 0.05),
    "orbit": lambda d: d["orbit"].pop(),
    "ncycle": lambda d: d["residuals"].__setitem__(0, 1e-6),
}


def _perturb_cli(op, res):
    rc, stdout, csv_text, argv0 = res
    kind = op["args"]["check"]
    if kind == "usage":
        return 0, "{}", csv_text, argv0
    if csv_text is not None:
        lines = csv_text.split("\n")
        return rc, stdout, "\n".join(lines[:-2] + lines[-1:]), argv0
    out = json.loads(stdout)
    CLI_EDITS[kind](out)
    return rc, json.dumps(out), csv_text, argv0


def main() -> int:
    import qbody as Q
    from run import bench_env
    perturb = perturbers(Q)
    failures = 0
    out = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".out")
    os.makedirs(out, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        runner = O.Runner(Q, env=bench_env(os.path.join(os.getcwd(), "src")),
                          out_dir=tmp)
        for workload in ("query", "mc", "strata", "cli"):
            counts: dict[str, list[int]] = {}
            for op in inputs.build(workload, 0):
                if op["fault"]:
                    continue
                res = runner.collect(op, runner.call(op))
                check = O.CHECKS[op["kind"]]
                check(op, res)  # the real answer passes
                label = op["kind"] if op["kind"] != "cli" else \
                    f"cli {op['args']['check']}"
                tally = counts.setdefault(label, [0, 0])
                tally[1] += 1
                try:
                    check(op, perturb[op["kind"]](op, res))
                except O.CheckError:
                    tally[0] += 1
            for label, (bit, total) in counts.items():
                ok = bit > 0
                failures += not ok
                print(f"{'ok  ' if ok else 'FAIL'} {workload:7s} {label:28s} "
                      f"{bit}/{total} perturbed answers rejected")
    print("every check bites" if not failures else
          f"{failures} checks accepted every perturbed answer")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
