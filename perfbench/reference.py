"""Reference answers computed without importing qbody.

Every function here works from the definitions in the paper, not from
the library's code paths:

* membership in Q through the sine pushout: ``c ∈ Q`` iff ``c`` is in the
  cube and ``(2/π)·asin(c)`` satisfies the eight odd CHSH inequalities of
  the classical polytope CL;
* ``g`` and ``h`` in 40-digit ``mpmath`` arithmetic, ``h`` in its squared
  form ``4·Π(1-c²) - g²`` (the library reports the product form);
* the support function as the maximum of ``f·cos(θ)`` over the angle torus
  ``θ = (α, β, γ, -α-β-γ)``, whose image contains every extreme point of Q;
* symmetry orbits by enumerating the 192 signed permutations with an even
  number of minus signs.

The module is imported only by the process that prepares inputs, so its
imports (scipy, mpmath) and its temporary arrays stay out of the measured
workload process.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.optimize import minimize

from geometry import GROUP, HADAMARD

mpmath.mp.dps = 40


def polys_mp(c) -> tuple[float, float]:
    """``g(c)`` and ``h(c)`` at 40 digits, ``h`` from its squared form."""
    a = [mpmath.mpf(float(v)) for v in c]
    g = 2 - sum(v * v for v in a) + 2 * a[0] * a[1] * a[2] * a[3]
    h = 4 * (1 - a[0] ** 2) * (1 - a[1] ** 2) * (1 - a[2] ** 2) \
        * (1 - a[3] ** 2) - g * g
    return float(g), float(h)


def dual_polys_mp(f) -> tuple[float, float, float, float, float]:
    """``(k, p, q, g°, h°)`` at 40 digits from their defining products."""
    f11, f12, f21, f22 = (mpmath.mpf(float(v)) for v in f)
    k = (f11 * f22 - f12 * f21) * (f11 * f12 - f21 * f22) \
        * (f11 * f21 - f12 * f22)
    p = f11 * f12 * f21 * f22
    q = (f11 + f12 + f21 + f22) * (f11 - f12 + f21 - f22) \
        * (f11 + f12 - f21 - f22) * (f11 - f12 - f21 + f22)
    norm2 = f11 ** 2 + f12 ** 2 + f21 ** 2 + f22 ** 2
    return float(k), float(p), float(q), float(1 - 2 * norm2 + q), float(k - p)


def dot_mp(c, f) -> float:
    return float(sum(mpmath.mpf(float(a)) * mpmath.mpf(float(b))
                     for a, b in zip(c, f)))


def _torus_value(theta: np.ndarray, f: np.ndarray) -> np.ndarray:
    a, b, g = theta[..., 0], theta[..., 1], theta[..., 2]
    return (f[0] * np.cos(a) + f[1] * np.cos(b) + f[2] * np.cos(g)
            + f[3] * np.cos(a + b + g))


_GRID = np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False)


def support(f) -> float:
    """``max f·c`` over Q by a grid search on the angle torus and refinement.

    The grid contains the classical vertices (angles 0 and π); the best
    grid nodes are polished with BFGS, which converges to machine
    precision at a smooth maximum.
    """
    fv = np.asarray(f, dtype=float)
    if not np.any(fv):
        return 0.0
    best = []
    for a in _GRID:  # one slab at a time keeps the temporaries small
        b, g = np.meshgrid(_GRID, _GRID, indexing="ij")
        theta = np.stack([np.full_like(b, a), b, g], axis=-1).reshape(-1, 3)
        vals = _torus_value(theta, fv)
        idx = np.argsort(vals)[-3:]
        best.extend((float(vals[i]), tuple(theta[i])) for i in idx)
    best.sort(reverse=True)
    top = max(v for v, _ in best)
    for _, start in best[:6]:
        res = minimize(lambda t: -float(_torus_value(np.asarray(t), fv)),
                       np.asarray(start), method="BFGS",
                       jac=lambda t: -np.array([
                           -fv[0] * math.sin(t[0]) - fv[3] * math.sin(t.sum()),
                           -fv[1] * math.sin(t[1]) - fv[3] * math.sin(t.sum()),
                           -fv[2] * math.sin(t[2]) - fv[3] * math.sin(t.sum())]),
                       options={"gtol": 1e-13})
        top = max(top, -float(res.fun))
    return top


def gauge(c) -> float:
    """Gauge of Q at ``c``: ``max (½Hc')·c`` over ``c' ∈ Q`` by self-duality."""
    return support(0.5 * HADAMARD @ np.asarray(c, dtype=float))


def orbit_set(c, decimals: int = 9) -> set[tuple[float, ...]]:
    v = np.asarray(c, dtype=float)
    return {tuple(np.round(S @ v, decimals) + 0.0) for S in GROUP}


def exposing_functional(angles) -> tuple[float, ...]:
    """``f = (1/K)(1/sin θ_i)`` with ``K = Σ cot θ_i`` (paper formula)."""
    k = sum(math.cos(t) / math.sin(t) for t in angles)
    return tuple(1.0 / (k * math.sin(t)) for t in angles)


def angle_stratum(angles, eps: float = 1e-9) -> str:
    """Stratum of ``cos(θ)`` from the sine product and multiples of π."""
    sines = [math.sin(t) for t in angles]
    delta = sines[0] * sines[1] * sines[2] * sines[3]
    if delta < -eps:
        return "Q4"
    if delta > eps:
        return "Q6"
    multiples = sum(1 for s in sines if abs(s) <= eps)
    return {4: "Q1", 3: "Q1", 2: "Q2", 1: "Q3"}.get(multiples, "Q4")
