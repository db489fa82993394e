"""Acceptance suite: one test per shipped guarantee, stated tolerances.

Each test prints a single pass/fail line; run

    pytest tests/test_acceptance.py -v -s

to see them.  Sampling is seeded, so every run checks identical points.
"""

import math
import time

import numpy as np

from qbody import (
    AngleTuple,
    Body,
    Correlation,
    Functional,
    Oracle,
    SampleTarget,
    SamplerConfig,
    Stratum,
    build_model,
    chsh_values,
    classify,
    correlations_of,
    exposing_functional,
    extreme_from_angles,
    member,
    mixture_model,
    mc_volume,
    ncycle_residuals,
    phi_map,
    sample,
    selftest_residuals,
    solve_completion,
    support,
    symmetry_group,
)
from qbody.core import _g, _h
from qbody.membership import classical_margin_batch, margin_batch
from qbody.measures import (
    EXACT_CL_FRACTION,
    EXACT_ELLIPTOPE_FRACTION,
    EXACT_Q_FRACTION,
)

from helpers import (
    CHSH_ANGLES,
    CHSH_POINT,
    SQRT2,
    TWO_H,
    q1_point,
    q2_point,
    q3_point,
    tetra_angles,
)

RANK_TABLE = {Stratum.Q1: 1, Stratum.Q2: 2, Stratum.Q3: 2,
              Stratum.Q4: 2, Stratum.Q5: 3}


def _report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {number:02d} [{status}] {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def test_01_volume_constant():
    start = time.perf_counter()
    est = mc_volume(Body.Q, SamplerConfig(seed=42, samples=1000000))
    elapsed = time.perf_counter() - start
    deviation = abs(est.fraction - EXACT_Q_FRACTION)
    ok = deviation < 3 * est.stderr and elapsed < 10.0
    _report(1, "quantum volume fraction matches 3*pi^2/32", ok,
            f"fraction={est.fraction:.6f} dev={deviation / est.stderr:.2f}"
            f" sigma, {elapsed:.2f}s")


def test_02_tsirelson_bound():
    phi = support(Functional(0.5, 0.5, 0.5, -0.5))
    peak = max(chsh_values(CHSH_POINT))
    ok = abs(phi - SQRT2) < 1e-12 and abs(peak - SQRT2) < 1e-12
    _report(2, "support and combination peak hit sqrt(2) to 1e-12", ok,
            f"phi={phi!r} peak={peak!r}")


def test_03_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    pts = rng.uniform(-1.0, 1.0, size=(100000, 4))
    margins = {o: margin_batch(pts, o) for o in Oracle}
    clear = np.ones(len(pts), dtype=bool)
    for m in margins.values():
        clear &= np.abs(m) > 1e-8
    bits = np.stack([margins[o] >= 0.0 for o in Oracle])
    disagreements = int(
        (bits[:, clear].min(axis=0) != bits[:, clear].max(axis=0)).sum())

    # the batch margins must be the scalar oracles' margins
    mismatched = 0
    for i in range(0, len(pts), 50):
        c = Correlation.from_sequence(pts[i])
        for oracle in Oracle:
            v = member(c, oracle)
            if abs(v.margin - margins[oracle][i]) > 1e-12:
                mismatched += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and mismatched == 0 and elapsed < 30.0
    _report(3, "five membership oracles agree on 1e5 cube samples", ok,
            f"excluded={int((~clear).sum())} disagreements={disagreements} "
            f"scalar mismatches={mismatched}, {elapsed:.2f}s")


def test_04_pushout_identity():
    q_members = sample(SampleTarget.Q_INTERIOR,
                       SamplerConfig(seed=1001, samples=10000))
    arr = np.array([c.as_tuple() for c in q_members])
    inverse = (2.0 / math.pi) * np.arcsin(np.clip(arr, -1.0, 1.0))
    failures = int((classical_margin_batch(inverse) < -1e-9).sum())

    cl_members = sample(SampleTarget.CL, SamplerConfig(seed=1002, samples=10000))
    arr = np.array([c.as_tuple() for c in cl_members])
    forward = np.sin(0.5 * math.pi * arr)
    failures += int((margin_batch(forward, Oracle.SEMIALG) < -1e-9).sum())
    _report(4, "sine pushout carries CL onto Q (both directions, 1e4 each)",
            failures == 0, f"failures={failures}")


def test_05_self_duality():
    rng = np.random.default_rng(515)
    disagreements = 0
    checked = 0
    from qbody import dual_member
    for _ in range(10000):
        f = Functional.from_sequence(rng.uniform(-1.0, 1.0, size=4))
        verdict = dual_member(f)     # primal route on 2Hf, asserts internally
        s = support(f)
        if abs(s - 1.0) <= 1e-8 or abs(verdict.margin) <= 1e-8:
            continue
        checked += 1
        if verdict.inside != (s <= 1.0):
            disagreements += 1
    _report(5, "polar membership via reflection matches the support test",
            disagreements == 0, f"checked={checked} disagreements={disagreements}")


def test_06_rank_table():
    rng = np.random.default_rng(606)
    samplers = {
        Stratum.Q1: lambda: q1_point(rng),
        Stratum.Q2: lambda: q2_point(rng),
        Stratum.Q3: lambda: q3_point(rng),
    }
    bad = 0
    for stratum, sampler in samplers.items():
        for _ in range(1000):
            c = sampler()
            result = solve_completion(c)
            if classify(c) is not stratum or not result.unique \
                    or result.rank != RANK_TABLE[stratum]:
                bad += 1
    for target, stratum in ((SampleTarget.Q4_STRATUM, Stratum.Q4),
                            (SampleTarget.Q5_STRATUM, Stratum.Q5)):
        for c in sample(target, SamplerConfig(seed=607, samples=1000)):
            result = solve_completion(c)
            if classify(c) is not stratum or not result.unique \
                    or result.rank != RANK_TABLE[stratum]:
                bad += 1
    # interior points admit full-rank witnesses (sampled at depth, since
    # arbitrarily close to the boundary the witness eigenvalues dip below
    # the rank threshold)
    interior = 0
    pts = rng.uniform(-1.0, 1.0, size=(20000, 4))
    deep = pts[margin_batch(pts, Oracle.SEMIALG) > 1e-3][:1000]
    for row in deep:
        result = solve_completion(Correlation.from_sequence(row))
        interior += 1
        if not result.feasible or result.rank != 4 or result.unique:
            bad += 1
    _report(6, "completion rank table {1,2,2,2,3} and rank-4 interior",
            bad == 0 and interior == 1000, f"violations={bad}")


def test_07_model_fidelity():
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(1000):
        a, b, g = rng.uniform(-math.pi, math.pi, size=3)
        t = AngleTuple(a, b, g, -(a + b + g))
        model = build_model(t)
        model.validate()     # commutators, spectra, normalization
        realized = correlations_of(model).as_array()
        expected = np.cos(np.array(t.as_tuple()))
        worst = max(worst, float(np.abs(realized - expected).max()))
    _report(7, "standard models realize the cosine tuple (1e3 draws)",
            worst < 1e-10, f"worst deviation={worst:.3e}")


def test_08_selftest_residuals():
    rng = np.random.default_rng(808)
    worst_extreme = 0.0
    for t in tetra_angles(rng, 100):
        report = selftest_residuals(build_model(t))
        worst_extreme = max(worst_extreme, report.residual_bpsi,
                            report.residual_squares,
                            report.residual_anticommutator,
                            report.residual_tracial)
    weakest_mixture = math.inf
    made = 0
    while made < 100:
        t1, t2 = tetra_angles(rng, 2)
        if max(abs(a - b) for a, b in
               zip(t1.as_tuple(), t2.as_tuple())) < 0.2:
            continue
        made += 1
        w = float(rng.uniform(0.3, 0.7))
        mix = mixture_model([(w, build_model(t1)), (1.0 - w, build_model(t2))])
        report = selftest_residuals(mix)
        weakest_mixture = min(weakest_mixture,
                              max(report.residual_bpsi,
                                  report.residual_squares,
                                  report.residual_anticommutator,
                                  report.residual_tracial))
    ok = worst_extreme < 1e-9 and weakest_mixture >= 1e-3
    _report(8, "self-test relations: tight on extremes, broken on mixtures",
            ok, f"extreme worst={worst_extreme:.3e} "
            f"mixture weakest={weakest_mixture:.3e}")


def test_09_normal_cycle_ideal():
    rng = np.random.default_rng(909)
    worst = 0.0
    for t in tetra_angles(rng, 1000, k_min=0.1):
        c = extreme_from_angles(t).c
        f = exposing_functional(t)
        worst = max(worst, max(abs(r) for r in ncycle_residuals(c, f)))
    _report(9, "all 20 incidence residuals vanish on 1e3 extreme pairs",
            worst < 1e-9, f"worst={worst:.3e}")


def test_10_involution():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for t in tetra_angles(rng, 1000):
        image = phi_map(phi_map(t))
        worst = max(worst, max(abs(a - b) for a, b in
                               zip(t.as_tuple(), image.as_tuple())))
    fixed = phi_map(CHSH_ANGLES)
    fix_err = max(abs(a - b) for a, b in
                  zip(fixed.as_tuple(), CHSH_ANGLES.as_tuple()))
    ok = worst < 1e-8 and fix_err < 1e-10
    _report(10, "dual patch map is an involution fixing the standard point",
            ok, f"worst={worst:.3e} fixed-point error={fix_err:.3e}")


def test_11_symmetry():
    group = symmetry_group()
    keys = {g.tobytes() for g in group}
    closure_ok = all((a @ b).tobytes() in keys
                     for a in group[::8] for b in group[::8])
    inverse_ok = all(np.ascontiguousarray(g.T).tobytes() in keys
                     for g in group)

    rng = np.random.default_rng(1111)
    pts = rng.uniform(-1.0, 1.0, size=(1000, 4))
    base_g = np.array([_g(*row) for row in pts])
    base_h = np.array([_h(*row) for row in pts])
    base_in = margin_batch(pts, Oracle.SEMIALG) >= 0.0
    invariant = True
    equivariant = True
    for S in group:
        images = pts @ S.T.astype(float)
        g_vals = 2.0 - (images ** 2).sum(axis=1) + 2.0 * images.prod(axis=1)
        a, b, c, d = (images[:, i] for i in range(4))
        h_vals = (4.0 * (a * d - b * c) * (a * c - b * d) * (a * b - c * d)
                  - (a + b - c - d) * (a - b + c - d) * (a - b - c + d)
                  * (a + b + c + d))
        if np.abs(g_vals - base_g).max() > 1e-9 \
                or np.abs(h_vals - base_h).max() > 1e-9:
            invariant = False
        if ((margin_batch(images, Oracle.SEMIALG) >= 0.0) != base_in).any():
            equivariant = False

    strata_pts = ([q1_point(rng) for _ in range(8)]
                  + [q2_point(rng) for _ in range(50)]
                  + [q3_point(rng) for _ in range(50)]
                  + sample(SampleTarget.Q4_STRATUM,
                           SamplerConfig(seed=1112, samples=100))
                  + sample(SampleTarget.Q5_STRATUM,
                           SamplerConfig(seed=1113, samples=100)))
    classes_ok = True
    for c in strata_pts:
        expected = classify(c)
        arr = c.as_array()
        for S in group[:: 4]:
            if classify(Correlation.from_sequence(S @ arr)) is not expected:
                classes_ok = False
    ok = closure_ok and inverse_ok and invariant and equivariant and classes_ok
    _report(11, "order-192 symmetry: closure, invariance, equivariance", ok,
            f"closure={closure_ok} invariant={invariant} "
            f"equivariant={equivariant} strata={classes_ok}")


def test_12_classical_geometry():
    est = mc_volume(Body.CL, SamplerConfig(seed=1212, samples=1000000))
    cl_ok = abs(est.fraction - EXACT_CL_FRACTION) < 3 * est.stderr

    rng = np.random.default_rng(1213)
    counted = 0
    bad = 0
    while counted < 10000:
        pts = rng.uniform(-1.0, 1.0, size=(65536, 4))
        flipped = pts.copy()
        flipped[:, 3] = -flipped[:, 3]
        half = 0.5 * (flipped @ TWO_H.T)
        violations = (np.abs(half) > 1.0).sum(axis=1)
        outside = violations > 0
        take = min(10000 - counted, int(outside.sum()))
        bad += int((violations[outside][:take] != 1).sum())
        counted += take
    one_ok = bad == 0

    est3 = mc_volume(Body.ELLIPTOPE3, SamplerConfig(seed=1214, samples=1000000))
    e3_ok = abs(est3.fraction - EXACT_ELLIPTOPE_FRACTION) < 3 * est3.stderr
    _report(12, "classical fraction 2/3, one violated combination, "
            "elliptope fraction pi^2/16",
            cl_ok and one_ok and e3_ok,
            f"cl={est.fraction:.5f} multi-violations={bad} "
            f"elliptope={est3.fraction:.5f}")


def test_13_case_split_equivalence():
    rng = np.random.default_rng(1313)
    fs = rng.uniform(-1.0, 1.0, size=(100000, 4))
    fs = fs[np.abs(fs).min(axis=1) > 1e-6]

    p = fs.prod(axis=1)
    absf = np.abs(fs)
    m = absf.min(axis=1) * (1.0 / absf).sum(axis=1)
    margin_a = np.where(p < 0.0, np.minimum(-p, m - 2.0), -p)

    r = 1.0 / fs
    m_tilde = ((r[:, 0] + r[:, 1] + r[:, 2] + r[:, 3])
               * (r[:, 0] + r[:, 1] - r[:, 2] - r[:, 3])
               * (r[:, 0] - r[:, 1] + r[:, 2] - r[:, 3])
               * (r[:, 0] - r[:, 1] - r[:, 2] + r[:, 3]))
    margin_b = np.where(p < 0.0, np.minimum(-p, -m_tilde), -p)

    y = fs @ TWO_H.T.astype(float)
    idx = np.argmax(np.abs(y), axis=1)
    sgn = np.where(y[np.arange(len(fs)), idx] >= 0.0, 1.0, -1.0)
    vertices = sgn[:, None] * TWO_H.T.astype(float)[idx]
    reduced = vertices * fs
    e3 = reduced.prod(axis=1) * (1.0 / reduced).sum(axis=1)
    margin_c = -e3

    clear = (np.abs(margin_a) > 1e-9) & (np.abs(margin_b) > 1e-9) \
        & (np.abs(margin_c) > 1e-9)
    va, vb, vc = margin_a > 0.0, margin_b > 0.0, margin_c > 0.0
    disagreements = int(((va != vb) | (vb != vc))[clear].sum())

    # spot-check the library path, which also self-asserts agreement
    from qbody import quantum_case
    mismatched = 0
    for i in range(0, len(fs), 37):
        verdict = quantum_case(Functional.from_sequence(fs[i]))
        if clear[i] and verdict.quantum_case != bool(va[i]):
            mismatched += 1
    ok = disagreements == 0 and mismatched == 0
    _report(13, "the three nonclassical-case criteria agree on 1e5 draws",
            ok, f"clear={int(clear.sum())} disagreements={disagreements} "
            f"library mismatches={mismatched}")
