"""Membership, facet and polynomial formulas in float64, without qbody.

These are the definitions from the paper, written once for the benchmark:
the process that prepares reference answers and the workload process
that checks answers both use them.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# Sign patterns with an odd number of minus signs: the eight CHSH facets.
ODD_SIGNS = np.array([s for s in itertools.product((1, -1), repeat=4)
                      if s[0] * s[1] * s[2] * s[3] == -1], dtype=float)
EVEN_VERTICES = np.array([s for s in itertools.product((1, -1), repeat=4)
                          if s[0] * s[1] * s[2] * s[3] == 1], dtype=float)
HADAMARD = 0.5 * np.array([[1, 1, 1, 1], [1, -1, 1, -1],
                           [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float)


def group_elements() -> list[np.ndarray]:
    """The 192 signed permutation matrices with an even sign count."""
    out = []
    for perm in itertools.permutations(range(4)):
        for signs in itertools.product((1, -1), repeat=4):
            if signs[0] * signs[1] * signs[2] * signs[3] != 1:
                continue
            mat = np.zeros((4, 4))
            for i in range(4):
                mat[i, perm[i]] = signs[i]
            out.append(mat)
    return out


GROUP = group_elements()


def pushout_margin(points) -> np.ndarray:
    """Signed margin of ``Q`` membership via the sine pushout, per row.

    Positive inside.  Outside the cube only the cube slack counts.
    """
    p = np.atleast_2d(np.asarray(points, dtype=float))
    cube = 1.0 - np.abs(p).max(axis=1)
    x = (2.0 / math.pi) * np.arcsin(np.clip(p, -1.0, 1.0))
    chsh = 0.5 * (x @ ODD_SIGNS.T).max(axis=1)
    return np.minimum(cube, 1.0 - chsh)


def classical_margin(points) -> np.ndarray:
    """Minimum slack over the 16 facets of CL (8 cube, 8 CHSH), per row."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    cube = 1.0 - np.abs(p).max(axis=1)
    chsh = 0.5 * (p @ ODD_SIGNS.T).max(axis=1)
    return np.minimum(cube, 1.0 - chsh)


def facet_cubic(point, axis: int) -> float:
    """Elliptope cubic on the facet ``c_axis = ±1`` (sign of that entry)."""
    s = 1.0 if point[axis] >= 0 else -1.0
    x, y, z = (point[j] for j in range(4) if j != axis)
    return 1.0 - x * x - y * y - z * z + 2.0 * s * x * y * z


def polys(points) -> tuple[np.ndarray, np.ndarray]:
    """``g`` and the squared form of ``h`` in float64, per row."""
    p = np.atleast_2d(np.asarray(points, dtype=float))
    g = 2.0 - (p * p).sum(axis=1) + 2.0 * p.prod(axis=1)
    h = 4.0 * (1.0 - p * p).prod(axis=1) - g * g
    return g, h
