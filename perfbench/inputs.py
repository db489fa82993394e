"""Seeded inputs and their reference answers for the four workloads.

``build(workload, seed)`` returns one round: a list of operation specs,
each a plain dict ``{"kind", "args", "ref", "fault"}``.  Every run
repeats the same round, so ``fault`` (the known failure an operation may
show) is the same share of the attempts in every run.  Nothing here
imports qbody; the answers in ``ref`` come from :mod:`reference`.
"""

from __future__ import annotations

import math

import numpy as np

import geometry as G
import reference as R

CATEGORIES = ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "EXTERIOR", "OUTSIDE")
ORACLES = ("semialg", "pushout", "completion", "timo", "landau")

# The ROADMAP sweep: cos(α, β, γ, -α-β-γ) for 20,000 draws of
# default_rng(1) on (0, π)³.  classify raises AmbiguousClassification on
# exactly these three of them (eps_boundary is used both as a coordinate
# distance and as a margin band); they are in every round of `query`.
SWEEP_SIZE = 20000
SWEEP_FAULTS = (4463, 5450, 15954)
SWEEP_PER_ROUND = 60
# Within this distance of a multiple of π the sweep point sits at a
# junction of strata, and classify may return a neighbouring stratum.
JUNCTION_COLLAR = 1e-3

MC_ARRAYS = 5
MC_POINTS = 1 << 16
MC_VOLUME_SEEDS = 4
MC_SAMPLES = 1 << 17
SAMPLE_SIZE = 10000
SLICE_RESOLUTION = 14
SLICES = (
    {"fixed": {"c11": -0.8}},
    {"fixed": {"c11": 1.0}},
    {"normal": [1.0, 1.0, 1.0, -1.0], "offset": 2.0},
)
CLI_SAMPLES = 200
CLI_VOLUME_SAMPLES = 20000
CLI_SLICE_GRID = 10


def _op(kind, args, ref=None, fault=None) -> dict:
    return {"kind": kind, "args": args, "ref": ref, "fault": fault}


def _tup(v) -> tuple[float, ...]:
    return tuple(float(x) for x in v)


def _image(rng, point) -> tuple[float, ...]:
    """A random symmetry image of ``point`` (exact: signed permutation)."""
    return _tup(G.GROUP[rng.integers(len(G.GROUP))] @ np.asarray(point))


def _tetra_angles(rng, collar: float = 0.15) -> tuple[float, ...]:
    """Angles of an exposed extreme point (Q4), inside the tetrahedron."""
    while True:
        a, b, g = rng.uniform(collar, math.pi - collar, size=3)
        if a + b + g < math.pi - collar:
            return (float(a), float(b), float(g), float(-(a + b + g)))


def _interior_angles(rng, collar: float = 0.15) -> tuple[float, ...]:
    """Angles with a positive sine product (the point is interior, Q6)."""
    while True:
        a, b, g = rng.uniform(collar, math.pi - collar, size=3)
        if math.pi + collar < a + b + g < 2 * math.pi - collar:
            return (float(a), float(b), float(g), float(-(a + b + g)))


def _category_point(rng, cat: str) -> dict:
    """One point of a category, with the angles that made it if any."""
    angles = None
    if cat == "Q1":
        v = G.EVEN_VERTICES[rng.integers(8)]
        angles = tuple(0.0 if x > 0 else math.pi for x in v)
        point = _tup(v)
    elif cat == "Q2":
        g = float(rng.uniform(0.3, math.pi - 0.3))
        angles = (0.0, 0.0, g, -g)
        point = _image(rng, np.cos(angles))
    elif cat == "Q3":
        while True:
            b, g = rng.uniform(0.3, math.pi - 0.3, size=2)
            if abs(b + g - math.pi) > 0.3:
                break
        angles = (0.0, float(b), float(g), float(-(b + g)))
        point = _image(rng, np.cos(angles))
    elif cat == "Q4":
        angles = _tetra_angles(rng)
        point = _image(rng, np.cos(angles))
    elif cat == "Q5":
        axis, sign = int(rng.integers(4)), float(rng.choice((-1.0, 1.0)))
        while True:
            x, y, z = rng.uniform(-0.9, 0.9, size=3)
            if 1 - x * x - y * y - z * z + 2 * sign * x * y * z > 0.05:
                break
        rest = [float(x), float(y), float(z)]
        point = tuple(rest[:axis] + [sign] + rest[axis:])
    elif cat in ("Q6", "EXTERIOR"):
        while True:
            p = rng.uniform(-0.98, 0.98, size=(256, 4))
            m = G.pushout_margin(p)
            ok = m > 0.05 if cat == "Q6" else m < -0.02
            if ok.any():
                point = _tup(p[np.argmax(ok)])
                break
    else:  # OUTSIDE the cube
        p = rng.uniform(-1.0, 1.0, size=4)
        p[rng.integers(4)] = rng.choice((-1.0, 1.0)) * rng.uniform(1.05, 1.5)
        point = _tup(p)
    return {"cat": cat, "point": point, "angles": angles}


def _expected_stratum(cat: str) -> list[str]:
    return ["EXTERIOR"] if cat in ("EXTERIOR", "OUTSIDE") else [cat]


def _point_ref(point) -> dict:
    g, h = R.polys_mp(point)
    return {"margin": float(G.pushout_margin(point)[0]),
            "classical": float(G.classical_margin(point)[0]),
            "g": g, "h": h}


def _functional_ref(f, exact: float | None = None) -> dict:
    """Dual polynomials, the searched support and, if known, its exact value."""
    k, p, q, gd, hd = R.dual_polys_mp(f)
    return {"support": R.support(f), "exact": exact, "k": k, "p": p, "q": q,
            "g_dual": gd, "h_dual": hd}


def _sweep() -> np.ndarray:
    rng = np.random.default_rng(1)
    return rng.uniform(0.0, math.pi, size=(SWEEP_SIZE, 3))


def _sweep_op(abg, fault=None) -> dict:
    a, b, g = (float(x) for x in abg)
    angles = (a, b, g, -(a + b + g))
    strata = [R.angle_stratum(angles)]
    if min(abs(math.sin(t)) for t in angles) < JUNCTION_COLLAR:
        strata = ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"]
    return _op("classify", _tup(np.cos(angles)),
               {"strata": strata, "cat": "sweep"}, fault)


def build_query(rng) -> list[dict]:
    pts = [_category_point(rng, cat) for cat in CATEGORIES for _ in range(3)]
    ops = []
    for p in pts:
        ref = _point_ref(p["point"])
        ref.update(cat=p["cat"], strata=_expected_stratum(p["cat"]))
        ops += [_op("member", (p["point"], o), ref) for o in ORACLES]
        ops.append(_op("member_classical", p["point"], ref))
        ops.append(_op("classify", p["point"], ref))
        ops.append(_op("solve_completion", p["point"], ref))
        ops.append(_op("primal_polys", p["point"], ref))

    # A fixed number of sweep points of each stratum, in the sweep's own
    # ratio (6,698 Q4 to 13,299 Q6), so that every seed costs the same.
    sweep = _sweep()
    ok = np.setdiff1d(np.arange(SWEEP_SIZE), SWEEP_FAULTS)
    q4 = (sweep[ok].sum(axis=1) < math.pi) | (sweep[ok].sum(axis=1) > 2 * math.pi)
    for pool, n in ((ok[q4], SWEEP_PER_ROUND // 3),
                    (ok[~q4], SWEEP_PER_ROUND - SWEEP_PER_ROUND // 3)):
        for i in rng.choice(pool, size=n, replace=False):
            ops.append(_sweep_op(sweep[i]))
    for i in SWEEP_FAULTS:
        ops.append(_sweep_op(sweep[i], fault="AmbiguousClassification"))

    angle_sets = ([_category_point(rng, c)["angles"] for c in
                   ("Q1", "Q1", "Q2", "Q2", "Q3", "Q3")]
                  + [_tetra_angles(rng) for _ in range(3)]
                  + [_interior_angles(rng) for _ in range(3)])
    for t in angle_sets:
        ops.append(_op("extreme_from_angles", t,
                       {"point": _tup(np.cos(t)),
                        "stratum": R.angle_stratum(t)}))

    for cat in ("Q1", "Q1", "Q2", "Q2", "Q3", "Q3") + ("Q4",) * 6:
        point = _category_point(rng, cat)["point"]
        ops.append(_op("angles_from_point", point))

    q4 = [_tetra_angles(rng) for _ in range(8)]
    for t in q4:
        f = R.exposing_functional(t)
        ops.append(_op("exposing_functional", t,
                       {"f": f, "point": _tup(np.cos(t))}))

    ops.append(_op("support", (0.5, 0.5, 0.5, -0.5),
                   _functional_ref((0.5, 0.5, 0.5, -0.5), math.sqrt(2.0))))
    for t in q4:  # an exposing functional touches Q exactly at its point
        f = R.exposing_functional(t)
        ops.append(_op("support", f, _functional_ref(f, 1.0)))
    for _ in range(3):
        f = _tup(rng.normal(size=4))
        ops.append(_op("support", f, _functional_ref(f)))

    for cat in ("Q4", "Q4", "Q5", "Q5", "Q6", "Q6", "Q6", "EXTERIOR",
                "EXTERIOR", "OUTSIDE", "Q2", "Q3"):
        point = _category_point(rng, cat)["point"]
        ops.append(_op("gauge", point,
                       {"gauge": R.gauge(point),
                        "margin": float(G.pushout_margin(point)[0])}))

    for cat in ("Q4", "Q5", "Q6", "Q6", "EXTERIOR", "EXTERIOR", "OUTSIDE",
                "Q1", "Q2", "Q3", "Q6", "EXTERIOR"):
        point = _category_point(rng, cat)["point"]
        f = _tup(0.5 * G.HADAMARD @ np.asarray(point))
        ref = _functional_ref(f)
        ops.append(_op("dual_member", f, ref))
        ops.append(_op("dual_polys", f, ref))

    # The models are the slowest calls of the round; fourteen of them put
    # the tail percentile inside their cluster.
    models = ([_tetra_angles(rng) for _ in range(8)]
              + [_interior_angles(rng) for _ in range(3)]
              + [_category_point(rng, c)["angles"] for c in ("Q3", "Q2", "Q1")])
    for t in models:
        ops.append(_op("model", t, {"point": _tup(np.cos(t))}))

    for t in q4[:6]:
        c, f = _tup(np.cos(t)), R.exposing_functional(t)
        ops.append(_op("ncycle", (c, f), {"incident": True}))
    for _ in range(2):
        c, f = _tup(rng.uniform(-1, 1, 4)), _tup(rng.normal(size=4))
        ops.append(_op("ncycle", (c, f),
                       {"incident": False, "ell": R.dot_mp(c, f) - 1.0,
                        "h": R.polys_mp(c)[1]}))
    return ops


EXACT_FRACTIONS = {"q": 3 * math.pi ** 2 / 32, "cl": 2 / 3,
                   "elliptope": math.pi ** 2 / 16}


def build_mc(rng) -> list[dict]:
    ops = []
    for _ in range(MC_ARRAYS):
        pts = rng.uniform(-1.0, 1.0, size=(MC_POINTS, 4))
        margin = G.pushout_margin(pts)
        ops += [_op("margin_batch", (pts, o), margin) for o in ORACLES]
        ops.append(_op("classical_margin_batch", pts, G.classical_margin(pts)))
    for _ in range(MC_VOLUME_SEEDS):
        for body in ("q", "cl", "elliptope"):
            seed = int(rng.integers(2 ** 32))
            ops.append(_op("mc_volume", (body, seed, MC_SAMPLES),
                           {"exact": EXACT_FRACTIONS[body]}))
    return ops


def slice_nodes(spec: dict, resolution: int) -> tuple[list[str], np.ndarray]:
    """Free axes and full 4-d node coordinates of a slice, row-major."""
    axes = ("c11", "c12", "c21", "c22")
    if "fixed" in spec:
        free = [a for a in axes if a not in spec["fixed"]]
    else:
        dep = int(np.argmax(np.abs(spec["normal"])))
        free = [a for i, a in enumerate(axes) if i != dep]
    grid = np.linspace(-1.0, 1.0, resolution)
    mesh = np.meshgrid(*([grid] * len(free)), indexing="ij")
    nodes = np.zeros((grid.size ** len(free), 4))
    for a, m in zip(free, mesh):
        nodes[:, axes.index(a)] = m.ravel()
    if "fixed" in spec:
        for a, v in spec["fixed"].items():
            nodes[:, axes.index(a)] = v
    else:
        n = np.asarray(spec["normal"], dtype=float)
        rest = nodes @ n  # the dependent column is still zero here
        nodes[:, dep] = (spec["offset"] - rest) / n[dep]
    return free, nodes


def slice_ref(spec: dict, resolution: int) -> dict:
    free, nodes = slice_nodes(spec, resolution)
    g, h = G.polys(nodes)
    ref = {"free": free, "nodes": nodes, "margin": G.pushout_margin(nodes),
           "classical": G.classical_margin(nodes), "g": g, "h": h}
    if spec.get("fixed") == {"c11": 1.0}:
        ref["facet"] = np.array([G.facet_cubic(p, 0) for p in nodes])
    return ref


def _dual_functionals(rng, n: int) -> list[tuple[tuple[float, ...], float]]:
    """Functionals scaled to a support value clear of 1 on either side."""
    targets = (0.8, 0.95, 1.05, 1.25)
    out = []
    for i in range(n):
        f0 = rng.normal(size=4)
        target = targets[i % len(targets)]
        out.append((_tup(f0 * (target / R.support(f0))), target))
    return out


def build_strata(rng) -> list[dict]:
    ops = []
    for spec in SLICES:
        ops.append(_op("slice_grid", (spec, SLICE_RESOLUTION),
                       slice_ref(spec, SLICE_RESOLUTION)))
    for target in ("q4", "q5", "cube"):
        ops.append(_op("sample", (target, int(rng.integers(2 ** 32)),
                                  SAMPLE_SIZE)))
    # Generic and Q4 points have 192 images and dominate the cost; eight
    # of them put the tail percentile of the round inside the orbit cluster.
    generic = [_tup(rng.uniform(-1, 1, 4)) for _ in range(4)]
    q4 = [_category_point(rng, "Q4")["point"] for _ in range(4)]
    q2 = [_category_point(rng, "Q2")["point"] for _ in range(2)]
    vertex = [(1.0, 1.0, 1.0, 1.0), _category_point(rng, "Q1")["point"]]
    for c in generic + q4 + q2 + vertex:
        ops.append(_op("orbit", c, {"images": sorted(R.orbit_set(c))}))
    for f, target in _dual_functionals(rng, 14):
        ops.append(_op("dual_completion", f, {"support": target}))
    for _ in range(14):
        ops.append(_op("chain", _category_point(rng, "Q4")["point"]))
    return ops


def _cli(argv, check, ref=None, exit_code=0, fault=None, out=None) -> dict:
    return _op("cli", {"argv": argv, "check": check, "exit": exit_code,
                       "out": out}, ref, fault)


def _js(v) -> str:
    return "[" + ",".join(repr(float(x)) for x in v) + "]"


CLI_VARIANTS = (("q4", {"fixed": {"c11": 1.0}}),
                ("cube", {"fixed": {"c11": -0.8}}),
                ("cl", {"normal": [1.0, 1.0, 1.0, -1.0], "offset": 2.0}))


def _slice_argv(spec: dict) -> list[str]:
    if "fixed" in spec:
        return [f"--fix={a}={v!r}" for a, v in spec["fixed"].items()]
    return ["--normal", _js(spec["normal"]), "--offset", repr(spec["offset"])]


def _cli_variant(rng, k: int) -> list[dict]:
    """One call of each of the 15 subcommands on seeded small inputs."""
    target, spec = CLI_VARIANTS[k]
    q4 = _category_point(rng, "Q4")
    q3 = _category_point(rng, "Q3")
    mixed = _category_point(rng, ("Q6", "EXTERIOR", "Q6")[k])
    f = _tup(rng.normal(size=4))
    fd, support = _dual_functionals(rng, 4)[k]
    t = _tetra_angles(rng)
    fq = R.exposing_functional(t)
    seed = int(rng.integers(2 ** 32))
    return [
        _cli(["member", "--point", _js(mixed["point"]), "--oracle", "all"],
             "member_all", _point_ref(mixed["point"])),
        _cli(["classify", "--point", _js(q3["point"])], "classify",
             {"strata": ["Q3"]}),
        _cli(["support", "--functional", _js(f)], "support",
             _functional_ref(f)),
        _cli(["gauge", "--point", _js(mixed["point"])], "gauge",
             {"gauge": R.gauge(mixed["point"])}),
        _cli(["dual", "--functional", _js(fd)], "dual", {"support": support}),
        _cli(["complete", "--point", _js(q4["point"])], "complete",
             {"point": q4["point"], "cat": "Q4",
              "margin": float(G.pushout_margin(q4["point"])[0])}),
        _cli(["angles", "--point", _js(q4["point"])], "angles_point",
             {"point": q4["point"]}),
        _cli(["expose", "--angles", _js(t)], "expose",
             {"f": fq, "point": _tup(np.cos(t))}),
        _cli(["model", "--angles", _js(t)], "model",
             {"point": _tup(np.cos(t))}),
        _cli(["selftest", "--angles", _js(t)], "selftest"),
        _cli(["volume", "--body", "q", "--samples", str(CLI_VOLUME_SAMPLES),
              "--seed", str(seed)], "volume",
             {"exact": EXACT_FRACTIONS["q"], "samples": CLI_VOLUME_SAMPLES}),
        _cli(["sample", "--target", target, "--samples", str(CLI_SAMPLES),
              "--seed", str(seed), "--out", "{out}"], "sample_csv",
             {"samples": CLI_SAMPLES, "target": target},
             out=f"sample-{k}.csv"),
        _cli(["slice", *_slice_argv(spec), "--grid", str(CLI_SLICE_GRID),
              "--out", "{out}"], "slice_csv",
             slice_ref(spec, CLI_SLICE_GRID), out=f"slice-{k}.csv"),
        _cli(["orbit", "--point", _js(q4["point"])], "orbit",
             {"images": sorted(R.orbit_set(q4["point"]))}),
        _cli(["ncycle", "--point", _js(np.cos(t)), "--functional", _js(fq)],
             "ncycle"),
    ]


def build_cli(rng) -> list[dict]:
    ops = [op for k in range(len(CLI_VARIANTS)) for op in _cli_variant(rng, k)]
    return ops + [
        # malformed JSON is a usage error
        _cli(["member", "--point", "[0.1,0.2"], "usage", exit_code=2),
        # known fault: JSON booleans pass as numbers, exit 0 instead of 2
        _cli(["member", "--point", "[true,false,0,0]"], "usage", exit_code=2,
             fault="exit0"),
        # known fault: --eps-angle is ignored by AngleTuple validation
        _cli(["angles", "--angles", "[0.3,0.4,0.5,-1.1999999]",
              "--eps-angle", "1e-6"], "angles_angles",
             {"point": _tup(np.cos([0.3, 0.4, 0.5, -1.1999999])),
              "stratum": "Q4"}, fault="AngleSumViolation"),
    ]


def build(workload: str, seed: int) -> list[dict]:
    build_round = {"query": build_query, "mc": build_mc,
                   "strata": build_strata, "cli": build_cli}[workload]
    return build_round(np.random.default_rng(seed))
