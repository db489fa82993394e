"""Membership tests for the cube N, the classical polytope CL, and Q.

Five independent characterizations of ``Q`` are exposed through a single
entry point, :func:`member`:

* ``SEMIALG``    in-cube and (``g(c) ≥ 0`` or ``h(c) ≥ 0``),
* ``PUSHOUT``    the inverse coordinatewise sine map lands in CL,
* ``COMPLETION`` the 4x4 unit-diagonal matrix completion is feasible, by
  the kernel that :func:`qbody.boundary.solve_completion` reads,
* ``TIMO``       single inequality ``g ≥ -2·sqrt(Π(1-c_ij²))`` in the cube,
* ``LANDAU``     ``sqrt((1-c11²)(1-c12²)) + sqrt((1-c21²)(1-c22²)) ≥
  |c11·c12 - c21·c22|`` in the cube.

All report a signed margin: the minimum slack over the oracle's active
constraints, positive inside.  Margins are constraint slacks in each
oracle's own units, not Euclidean distances, so different oracles may
report different magnitudes for the same point.  Within ``eps_boundary``
of the boundary the inside/outside bit is not meaningful and downstream
classification treats such points as boundary.

The square-root based oracles require the cube hypothesis; negative
radicands (only possible outside the cube) are clamped to zero and the
cube slack then drives the verdict.

:func:`margin_batch` and :func:`classical_margin_batch` evaluate the same
column kernels as the scalar path, on ``(n, 4)`` arrays, in blocks of a
few thousand rows (``_by_blocks``) so that the kernels' temporaries stay
in cache.  The kernels are elementwise, so blocking changes no bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .core import (
    DEFAULT_TOLERANCE,
    ConsistencyError,
    Correlation,
    InputOutsideCube,
    Tolerance,
    _Floats,
    _g,
    _h,
    _odd_sums,
)

__all__ = [
    "Oracle",
    "PushDirection",
    "MembershipVerdict",
    "pushout",
    "member_classical",
    "member",
    "margin_batch",
    "classical_margin_batch",
]


class Oracle(enum.Enum):
    SEMIALG = "semialg"
    PUSHOUT = "pushout"
    COMPLETION = "completion"
    TIMO = "timo"
    LANDAU = "landau"


class PushDirection(enum.Enum):
    FORWARD = "forward"     # t -> sin(pi t / 2)
    INVERSE = "inverse"     # t -> (2/pi) asin(t)


@dataclass(frozen=True, init=False)
class MembershipVerdict:
    """Outcome of a membership test.

    ``margin`` is signed: positive inside, and its magnitude is the binding
    constraint's slack.  ``oracle`` is None for the classical-polytope test.
    """

    inside: bool
    margin: float
    oracle: Oracle | None

    def __init__(self, inside: bool, margin: float,
                 oracle: Oracle | None) -> None:
        d = self.__dict__
        d["inside"] = inside; d["margin"] = margin; d["oracle"] = oracle


# ---------------------------------------------------------------------------
# Margin kernels (see the column-kernel notes in qbody.core)
# ---------------------------------------------------------------------------

def _max_abs(a, b, c, d, xp):
    return xp.maximum(xp.maximum(abs(a), abs(b)), xp.maximum(abs(c), abs(d)))


def _cube_slack(a, b, c, d, xp):
    return 1.0 - _max_abs(a, b, c, d, xp)


def _inverse_pushout(v, xp):
    """``(2/π)·asin(v)`` on the coordinate clamped to ``[-1, 1]``."""
    x = xp.arcsin(xp.clip(v, -1.0, 1.0)); x *= 2.0 / math.pi
    return x


def _unit_gaps(a, b, c, d):
    """``(1 - a², 1 - b², 1 - c², 1 - d²)``: the four 2x2 diagonal minors
    of the completion, which the parabolas multiply in pairs.  Callers form
    them once and share them, so no kernel may update one in place."""
    return 1.0 - a * a, 1.0 - b * b, 1.0 - c * c, 1.0 - d * d


def _entry_interval(a, b, c, d, xp, gaps=None):
    """The interval ``(lo, hi)``, empty if ``lo > hi``, where the free
    entry ``u`` of the completion of ``(a, b, c, d)`` keeps the parabolas
    ``(1 - a²)(1 - c²) - (u - a·c)²`` and ``(1 - b²)(1 - d²) - (u - b·d)²``
    nonnegative; ``(a, c, b, d)`` gives the interval of ``v``.  ``gaps``
    is ``_unit_gaps(a, b, c, d)`` when the caller has formed it."""
    ga, gb, gc, gd = _unit_gaps(a, b, c, d) if gaps is None else gaps
    s1 = ga * gc; s1 = xp.sqrt(xp.maximum(s1, 0.0))
    s2 = gb * gd; s2 = xp.sqrt(xp.maximum(s2, 0.0))
    lo1, lo2 = a * c, b * d
    hi1, hi2 = lo1 + s1, lo2 + s2
    lo1 -= s1; lo2 -= s2
    return xp.maximum(lo1, lo2), xp.minimum(hi1, hi2)


def _odd_max(a, b, c, d, xp):
    """The largest of the eight odd-signed CHSH halves, scaled once."""
    m = _max_abs(*_odd_sums(a, b, c, d), xp); m *= 0.5
    return m


def _classical(a, b, c, d, xp):
    return xp.minimum(_cube_slack(a, b, c, d, xp),
                      1.0 - _odd_max(a, b, c, d, xp))


def _semialg(a, b, c, d, xp):
    return xp.minimum(_cube_slack(a, b, c, d, xp),
                      xp.maximum(_g(a, b, c, d), _h(a, b, c, d)))


def _pushout(a, b, c, d, xp):
    # outside the cube the cube slack is negative and both terms
    # contribute to the (negative) margin
    inv = [_inverse_pushout(v, xp) for v in (a, b, c, d)]
    return xp.minimum(_cube_slack(a, b, c, d, xp), _classical(*inv, xp))


def _completion_slack(gaps, lo, hi, xp):
    # Positive-semidefinite completability reduces to the intersection of
    # the nonnegativity intervals of two downward parabolas in the free
    # entry u, ``(lo, hi)`` from _entry_interval, plus the four 2x2 diagonal
    # minors ``gaps`` (the cube, quadratically).
    ga, gb, gc, gd = gaps
    quad = xp.minimum(xp.minimum(ga, gb), xp.minimum(gc, gd))
    return xp.minimum(quad, hi - lo)


def _completion(a, b, c, d, xp):
    gaps = _unit_gaps(a, b, c, d)
    return _completion_slack(gaps, *_entry_interval(a, b, c, d, xp, gaps), xp)


def _timo(a, b, c, d, xp):
    prod = 1.0 - a * a; prod *= 1.0 - b * b
    prod *= 1.0 - c * c; prod *= 1.0 - d * d
    root = xp.sqrt(xp.maximum(prod, 0.0)); root *= 2.0
    g = _g(a, b, c, d); g += root
    return xp.minimum(_cube_slack(a, b, c, d, xp), g)


def _landau(a, b, c, d, xp):
    r1 = 1.0 - a * a; r1 *= 1.0 - b * b
    r2 = 1.0 - c * c; r2 *= 1.0 - d * d
    slack = xp.sqrt(xp.maximum(r1, 0.0))
    slack += xp.sqrt(xp.maximum(r2, 0.0))
    cross = a * b; cross -= c * d; slack -= abs(cross)
    return xp.minimum(_cube_slack(a, b, c, d, xp), slack)


_MARGINS = {
    Oracle.SEMIALG: _semialg,
    Oracle.PUSHOUT: _pushout,
    Oracle.COMPLETION: _completion,
    Oracle.TIMO: _timo,
    Oracle.LANDAU: _landau,
}


def _margin_kernel(oracle: Oracle):
    try:
        return _MARGINS[oracle]
    except KeyError:
        raise ValueError(f"unknown oracle {oracle!r}") from None


# ---------------------------------------------------------------------------
# Pushout
# ---------------------------------------------------------------------------

def pushout(c: Correlation, direction: PushDirection,
            tol: Tolerance = DEFAULT_TOLERANCE) -> Correlation:
    """Apply the sine pushout (or its inverse) coordinatewise.

    Entries must lie in the cube within ``tol.eps_boundary``; they are
    clamped to ``[-1, 1]`` before the transform, so a forward/inverse round
    trip is the identity to machine precision on cube points.
    """
    vals = c.as_tuple()
    for v in vals:
        if abs(v) > 1.0 + tol.eps_boundary:
            raise InputOutsideCube(f"coordinate {v!r} outside [-1, 1]")
    if direction is PushDirection.FORWARD:
        out = [math.sin(0.5 * math.pi * _Floats.clip(v, -1.0, 1.0))
               for v in vals]
    elif direction is PushDirection.INVERSE:
        out = [_inverse_pushout(v, _Floats) for v in vals]
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown direction {direction!r}")
    return Correlation(*out)


# ---------------------------------------------------------------------------
# Classical polytope
# ---------------------------------------------------------------------------

def member_classical(c: Correlation) -> MembershipVerdict:
    """Test membership in the classical cross polytope CL.

    The 16 face constraints are the 8 cube bounds and the 8 odd-signed
    combinations; the margin is the minimum slack over all of them.
    """
    margin = _classical(*c.as_tuple(), _Floats)
    return MembershipVerdict(inside=margin >= 0.0, margin=margin, oracle=None)


# ---------------------------------------------------------------------------
# Q oracles
# ---------------------------------------------------------------------------

def member(c: Correlation, oracle: Oracle = Oracle.SEMIALG,
           tol: Tolerance = DEFAULT_TOLERANCE) -> MembershipVerdict:
    """Decide ``c ∈ Q`` by the named characterization.

    All oracles agree exactly as sets; floating-point verdicts may differ
    within ``tol.eps_boundary`` of the boundary.  Only ``COMPLETION``
    reads ``tol``; the other four decide by ``margin ≥ 0`` (whether they
    should honour the band is the oracle-tolerance decision of ROADMAP
    item 3, still open).

    ``COMPLETION`` is inside down to a margin of ``-tol.eps_boundary``, as
    :func:`qbody.boundary.solve_completion` is feasible.  Its sign must match
    the ``SEMIALG`` margin's (``g ≥ 0`` or ``h ≥ 0``) where both margins
    lie outside the band, otherwise :class:`ConsistencyError` is raised.
    """
    vals = c.as_tuple()
    margin = _margin_kernel(oracle)(*vals, _Floats)
    inside = margin >= 0.0
    if oracle is Oracle.COMPLETION:
        semialg = _semialg(*vals, _Floats)
        if inside != (semialg >= 0.0) \
                and min(abs(margin), abs(semialg)) > tol.eps_boundary:
            raise ConsistencyError(f"completion margin {margin!r} contradicts "
                                   f"semialgebraic margin {semialg!r}")
        inside = margin >= -tol.eps_boundary
    return MembershipVerdict(inside=inside, margin=margin, oracle=oracle)


# ---------------------------------------------------------------------------
# Batch margins
# ---------------------------------------------------------------------------

def _as_points(points: np.ndarray) -> np.ndarray:
    import numpy as np
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 4:
        raise ValueError("expected an (n, 4) array of points")
    return pts


# Rows per block: a kernel's temporaries on this many rows are 64 KB each
# and stay in the core's cache; on whole 65,536-row columns they stream
# through memory.  With the in-place kernels, on a core with 2 MiB of L2,
# 4096 rows made a round of batch margins and volumes 16-25% slower than
# 8192, and 16384 made margin_batch 1.7-2.3x slower: glibc malloc maps or
# trims 128 KB temporaries, which then page-fault over 1,000 times a call.
_BLOCK_ROWS = 8192


def _by_blocks(kernel, pts: np.ndarray, *args) -> np.ndarray:
    """``kernel(*pts.T, *args)`` evaluated ``_BLOCK_ROWS`` rows at a time.

    Each block's columns are passed as contiguous copies, since a kernel
    reads each column several times.  The kernels are elementwise, so the
    result is bit-identical to one call on the whole array.  Overflow is
    silent, as on the scalar path.
    """
    import numpy as np
    out = np.empty(pts.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, pts.shape[0], _BLOCK_ROWS):
            out[start:start + _BLOCK_ROWS] = \
                kernel(*pts[start:start + _BLOCK_ROWS].T.copy(), *args)
    return out


def classical_margin_batch(points: np.ndarray) -> np.ndarray:
    """Vectorized CL margin (cube slack and odd-signed combination slack)."""
    import numpy as np
    return _by_blocks(_classical, _as_points(points), np)


def margin_batch(points: np.ndarray, oracle: Oracle) -> np.ndarray:
    """Vectorized signed margins; the same kernels as :func:`member`, but a
    row with an entry beyond about 1e154 can get NaN where it is negative."""
    import numpy as np
    return _by_blocks(_margin_kernel(oracle), _as_points(points), np)
