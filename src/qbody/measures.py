"""Monte-Carlo volumes, stratum samplers, and grid slices.

Randomness contract: all sampling is driven by a PCG64 generator.  The
requested sample count is processed in fixed blocks of 65536 draws, and
block ``b`` uses the stream ``SeedSequence(seed, spawn_key=(b,))``.
Results are therefore a deterministic function of ``(seed, samples)``
alone.  Rejection samplers consume whole blocks until enough points are
accepted and then truncate, which keeps them inside the same contract.

:func:`mc_volume` counts the hits of each block in turn and sums the
integer counts.  The counts decide membership with fewer operations than
the margins of :mod:`qbody.membership` and agree with them bit for bit:
cube draws lie in ``[-1, 1)``, so the cube slack is ``≥ 0`` and no
kernel meets a NaN; a draw is in Q exactly when ``g ≥ 0`` or ``h ≥ 0``,
so ``h`` is evaluated only where ``g < 0``; and in CL exactly when the
largest odd half ``m`` has ``m ≤ 1``, as its margin ``fl(1 - m) ≥ 0``
does.

Cube draws come from :func:`_cube_draws`, ``random`` mapped in place by
``*= 2; -= 1``: the bits and generator state of ``uniform(-1, 1)``.

Volume facts this module reproduces as Monte-Carlo fractions of the
ambient cube:

* quantum body: 3·π²/32 ≈ 0.9252754126 of the 4-cube,
* classical polytope: 2/3 of the 4-cube,
* three-dimensional elliptope {1 - x² - y² - z² + 2xyz ≥ 0}: π²/16
  of the 3-cube.

Stratum samplers draw uniformly in parameter space (angles for the
exposed-extreme stratum, facet coordinates for the elliptope stratum),
not in surface measure, and keep a small collar away from neighbouring
strata so every emitted point classifies unambiguously.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Mapping, Sequence, TextIO

from .core import (_REL_TOL, Correlation, ConsistencyError, InvalidSlice,
                   Tolerance, DEFAULT_TOLERANCE, _g, _h, _h_squared,
                   primal_polys, symmetry_group)
from .membership import (Oracle, _by_blocks, _odd_max, classical_margin_batch,
                         margin_batch)
from .boundary import _FACES, _face

__all__ = [
    "Body",
    "SampleTarget",
    "SamplerConfig",
    "VolumeEstimate",
    "SliceSpec",
    "SliceTable",
    "mc_volume",
    "sample",
    "slice_grid",
    "EXACT_Q_FRACTION",
    "EXACT_CL_FRACTION",
    "EXACT_ELLIPTOPE_FRACTION",
]

_BLOCK = 1 << 16

AXES = ("c11", "c12", "c21", "c22")

EXACT_Q_FRACTION = 3.0 * math.pi ** 2 / 32.0
EXACT_CL_FRACTION = 2.0 / 3.0
EXACT_ELLIPTOPE_FRACTION = math.pi ** 2 / 16.0


class Body(enum.Enum):
    Q = "q"
    CL = "cl"
    ELLIPTOPE3 = "elliptope"


class SampleTarget(enum.Enum):
    Q_INTERIOR = "q-interior"
    Q4_STRATUM = "q4"
    Q5_STRATUM = "q5"
    CUBE = "cube"
    CL = "cl"


@dataclass(frozen=True)
class SamplerConfig:
    """Deterministic sampling parameters; see the module docstring."""

    seed: int
    samples: int

    def __post_init__(self) -> None:
        if not (0 <= self.seed < 2 ** 64):
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.samples < 1:
            raise ValueError("samples must be positive")


@dataclass(frozen=True)
class VolumeEstimate:
    fraction: float
    stderr: float


def _block_rng(seed: int, block: int) -> np.random.Generator:
    import numpy as np
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(block,))))


def _cube_draws(rng: np.random.Generator, shape) -> np.ndarray:
    """``rng.uniform(-1.0, 1.0, size=shape)``, bit for bit, in place."""
    pts = rng.random(shape); pts *= 2.0; pts -= 1.0
    return pts


def _count_inside(body: Body, pts: np.ndarray) -> int:
    """Number of rows of ``pts``, draws in the ambient cube, inside
    ``body``; see the module docstring for why this equals the count of
    nonnegative margins."""
    import numpy as np
    if body is Body.Q:
        g = _by_blocks(_g, pts)
        undecided = g < 0.0
        return (pts.shape[0] - int(undecided.sum())
                + int((_by_blocks(_h, pts[undecided]) >= 0.0).sum()))
    if body is Body.CL:
        return int((_by_blocks(_odd_max, pts, np) <= 1.0).sum())
    # g(x, y, z, 1) = 1 - x² - y² - z² + 2xyz
    return int((_by_blocks(_g, pts, 1.0) >= 0.0).sum())


def mc_volume(body: Body, cfg: SamplerConfig) -> VolumeEstimate:
    """Fraction of uniform ambient-cube samples that land in the body."""
    dim = 3 if body is Body.ELLIPTOPE3 else 4

    def count(block: int) -> int:
        n = min(_BLOCK, cfg.samples - block * _BLOCK)
        pts = _cube_draws(_block_rng(cfg.seed, block), (n, dim))
        return _count_inside(body, pts)

    hits = sum(map(count, range(-(-cfg.samples // _BLOCK))))
    fraction = hits / cfg.samples
    stderr = math.sqrt(fraction * (1.0 - fraction) / cfg.samples)
    return VolumeEstimate(fraction=fraction, stderr=stderr)


# ---------------------------------------------------------------------------
# Samplers
# ---------------------------------------------------------------------------

# Collar widths keeping stratum samples clear of neighbouring strata.
_ANGLE_COLLAR = 1e-2
_FACET_COLLAR = 1e-6


def _sample_blocks(cfg: SamplerConfig, accept) -> np.ndarray:
    """Accumulate accepted points block by block, then truncate."""
    import numpy as np
    out: list[np.ndarray] = []
    count = 0
    block = 0
    while count < cfg.samples:
        pts = accept(_block_rng(cfg.seed, block))
        if pts.shape[0]:
            out.append(pts)
            count += pts.shape[0]
        block += 1
        if block > 100000:  # pragma: no cover - guards a broken predicate
            raise RuntimeError("rejection sampler failed to accept points")
    return np.concatenate(out, axis=0)[:cfg.samples]


def _accept_cube(rng: np.random.Generator) -> np.ndarray:
    return _cube_draws(rng, (_BLOCK, 4))


def _accept_cl(rng: np.random.Generator) -> np.ndarray:
    pts = _cube_draws(rng, (_BLOCK, 4))
    return pts[classical_margin_batch(pts) >= 0.0]


def _accept_q_interior(rng: np.random.Generator) -> np.ndarray:
    pts = _cube_draws(rng, (_BLOCK, 4))
    return pts[margin_batch(pts, Oracle.SEMIALG) > 0.0]


def _accept_q4(rng: np.random.Generator) -> np.ndarray:
    import numpy as np
    angles = rng.random((_BLOCK, 3))
    angles *= math.pi  # the bits of uniform(0, π), which adds 0 to π·u
    total = angles.sum(axis=1)
    lo, hi = _ANGLE_COLLAR, math.pi - _ANGLE_COLLAR
    keep = ((angles > lo).all(axis=1) & (angles < hi).all(axis=1)
            & (total > lo) & (total < hi))
    angles = angles[keep]
    total = total[keep]
    pts = np.empty((angles.shape[0], 4))
    pts[:, :3] = np.cos(angles)
    pts[:, 3] = np.cos(total)  # cos(delta) with delta = -(alpha+beta+gamma)
    group = symmetry_group()
    idx = rng.integers(0, len(group), size=pts.shape[0])
    return np.einsum("nij,nj->ni", group[idx], pts)


def _accept_q5(rng: np.random.Generator) -> np.ndarray:
    import numpy as np
    coords = _cube_draws(rng, (_BLOCK, 3))
    facets = rng.integers(0, 8, size=_BLOCK)
    axis = facets // 2
    sign = np.where(facets % 2 == 0, 1.0, -1.0)
    # g is symmetric, so the saturated coordinate may go last
    keep = (_g(*coords.T, sign) > _FACET_COLLAR) \
        & (np.abs(coords).max(axis=1) < 1.0 - _FACET_COLLAR)
    coords, axis, sign = coords[keep], axis[keep], sign[keep]
    # the saturated coordinate goes in column ``axis``, the free ones
    # keep their order around it
    rows = np.arange(coords.shape[0])
    free = np.arange(3)
    pts = np.empty((coords.shape[0], 4))
    pts[rows, axis] = sign
    pts[rows[:, None], free + (free >= axis[:, None])] = coords
    return pts


def sample(target: SampleTarget, cfg: SamplerConfig) -> list[Correlation]:
    """Draw ``cfg.samples`` points from the requested set.

    ``CUBE`` is uniform; ``CL`` and ``Q_INTERIOR`` are rejections from the
    cube; ``Q4_STRATUM`` draws uniform angles in the prototype tetrahedron
    (with a collar) mapped through cosines and then moved to a random
    symmetry patch; ``Q5_STRATUM`` rejects on a random facet's elliptope
    interior.
    """
    accept = {
        SampleTarget.CUBE: _accept_cube,
        SampleTarget.CL: _accept_cl,
        SampleTarget.Q_INTERIOR: _accept_q_interior,
        SampleTarget.Q4_STRATUM: _accept_q4,
        SampleTarget.Q5_STRATUM: _accept_q5,
    }[target]
    pts = _sample_blocks(cfg, accept)
    return [Correlation(*row) for row in pts.tolist()]


# ---------------------------------------------------------------------------
# Grid slices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SliceSpec:
    """A 1-3 dimensional axis-aligned or hyperplane slice of the cube.

    Exactly one of ``fixed`` (coordinate name to value) or ``normal`` (a
    4-vector, with ``offset``) must be given, and a nonzero ``offset``
    only with ``normal``.  For a hyperplane the free axes are the three
    coordinates other than the largest normal component, which is solved
    for.  Every free axis spans [-1, 1];
    ``resolution`` is its number of grid nodes, one integer per free axis
    (a single integer applies to all).
    """

    fixed: Mapping[str, float] | None = None
    normal: Sequence[float] | None = None
    offset: float = 0.0
    resolution: int | Sequence[int] = 50

    def free_axes(self) -> list[str]:
        if (self.fixed is None) == (self.normal is None):
            raise InvalidSlice("specify exactly one of fixed or normal")
        if self.fixed is not None:
            if self.offset != 0.0:
                raise InvalidSlice("an offset needs a hyperplane normal")
            bad = set(self.fixed) - set(AXES)
            if bad:
                raise InvalidSlice(f"unknown coordinates {sorted(bad)}")
            free = [a for a in AXES if a not in self.fixed]
            if not 1 <= len(free) <= 3:
                raise InvalidSlice("between 1 and 3 axes must remain free")
            return free
        normal = [float(v) for v in self.normal]
        if len(normal) != 4 or max(abs(v) for v in normal) == 0.0:
            raise InvalidSlice("hyperplane normal must be a nonzero 4-vector")
        dependent = max(range(4), key=lambda i: abs(normal[i]))
        return [AXES[i] for i in range(4) if i != dependent]

    def resolutions(self) -> list[int]:
        free = self.free_axes()
        if isinstance(self.resolution, int):
            res = [self.resolution] * len(free)
        else:
            res = [int(r) for r in self.resolution]
            if len(res) != len(free):
                raise InvalidSlice(
                    f"{len(res)} resolutions for {len(free)} free axes")
        if min(res) < 2:
            raise InvalidSlice("resolution must be at least 2 per axis")
        return res


@dataclass(frozen=True)
class SliceTable:
    """Grid evaluation result; one row per node, for :func:`write_csv`."""

    columns: tuple[str, ...]
    rows: list[tuple]


def write_csv(stream: TextIO, columns: Sequence[str],
              rows: Sequence[Sequence]) -> None:
    """UTF-8 CSV with LF line endings and 17-significant-digit floats."""
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def slice_grid(spec: SliceSpec, tol: Tolerance = DEFAULT_TOLERANCE) -> SliceTable:
    """Label every grid node with stratum, classical bit, g, and h.

    Row count is the product of the per-axis resolutions; node order is
    row-major in the free axes.  The stratum is the face count of
    :func:`qbody.boundary.classify`, on numpy columns and never through
    its rank check, so a label differs from ``classify`` only where
    ``classify`` raises.  ``g`` and ``h`` are checked on every node, and
    the first node that fails raises what ``primal_polys`` raises for it.
    """
    import numpy as np
    free = spec.free_axes()
    at_free = [AXES.index(axis) for axis in free]
    grids = np.meshgrid(*(np.linspace(-1.0, 1.0, n) for n in spec.resolutions()),
                        indexing="ij")
    nodes = np.empty((grids[0].size, 4))
    nodes[:, at_free] = np.stack([grid.ravel() for grid in grids], axis=1)
    if spec.fixed is not None:
        for axis, value in spec.fixed.items():
            nodes[:, AXES.index(axis)] = float(value)
    else:
        (dependent,) = set(range(4)) - set(at_free)
        acc = spec.offset
        with np.errstate(over="ignore", invalid="ignore"):
            for i in at_free:
                acc = acc - float(spec.normal[i]) * nodes[:, i]
            nodes[:, dependent] = acc / float(spec.normal[dependent])
        if not np.isfinite(nodes).all():
            raise InvalidSlice("a solved hyperplane coordinate is not finite")
    g, h, h_alt = (_by_blocks(k, nodes) for k in (_g, _h, _h_squared))
    with np.errstate(over="ignore", invalid="ignore"):
        bound = _REL_TOL * np.maximum(1.0, np.maximum(abs(h), abs(h_alt)))
        ok = np.isfinite([g, h, h_alt]).all(axis=0) & (abs(h - h_alt) <= bound)
    if not ok.all():
        c = Correlation(*nodes[ok.argmin()].tolist())
        primal_polys(c)
        raise ConsistencyError(f"slice check and primal_polys differ at {c!r}")
    face = _by_blocks(_face, nodes, tol.eps_boundary, np).astype(int)
    labels = np.array([s.value for s in _FACES])[face]
    classical = (classical_margin_batch(nodes) >= 0.0).astype(int)
    rows = list(zip(*nodes[:, at_free].T.tolist(), labels.tolist(),
                    classical.tolist(), g.tolist(), h.tolist()))
    return SliceTable(columns=tuple(free) + ("stratum", "classical", "g", "h"),
                      rows=rows)
