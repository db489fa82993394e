"""The column kernels against frozen one-expression formulas, bit for bit.

The kernels of ``qbody.core``, ``qbody.membership`` and ``qbody.boundary``
accumulate in place and share partial sums; the references below are the
same formulas written as single expressions, with the same operation
order, so every output must match to the last bit: ``tobytes()`` on
numpy columns and ``repr`` on Python floats.  Numpy columns are passed
read-only, so a kernel that updated an argument in place would raise.
"""

import math
from itertools import product

import numpy as np
import pytest

from qbody import Correlation, chsh_values
from qbody.boundary import _face
from qbody.core import _Floats, _g, _h, _odd_sums
from qbody.measures import _BLOCK, _block_rng, _cube_draws
from qbody.membership import (_MARGINS, Oracle, _classical, _entry_interval,
                              _inverse_pushout, _odd_max,
                              classical_margin_batch, margin_batch)


# ---------------------------------------------------------------------------
# Frozen references
# ---------------------------------------------------------------------------

def ref_g(c11, c12, c21, c22):
    return 2.0 - (c11 * c11 + c12 * c12 + c21 * c21 + c22 * c22) \
        + 2.0 * c11 * c12 * c21 * c22


def ref_h(c11, c12, c21, c22):
    return 4.0 * ((c11 * c22 - c12 * c21) * (c11 * c21 - c12 * c22)
                  * (c11 * c12 - c21 * c22)) \
        - ((c11 + c12 - c21 - c22) * (c11 - c12 + c21 - c22)
           * (c11 - c12 - c21 + c22) * (c11 + c12 + c21 + c22))


def ref_odd_halves(c11, c12, c21, c22):
    return (0.5 * (c11 + c12 + c21 - c22), 0.5 * (c11 + c12 - c21 + c22),
            0.5 * (c11 - c12 + c21 + c22), 0.5 * (c11 - c12 - c21 - c22))


def ref_max_abs(a, b, c, d, xp):
    return xp.maximum(xp.maximum(abs(a), abs(b)), xp.maximum(abs(c), abs(d)))


def ref_inverse_pushout(v, xp):
    return (2.0 / math.pi) * xp.arcsin(xp.clip(v, -1.0, 1.0))


def ref_entry_interval(a, b, c, d, xp):
    return (xp.maximum(a * c - xp.sqrt(xp.maximum((1.0 - a * a) * (1.0 - c * c), 0.0)),
                       b * d - xp.sqrt(xp.maximum((1.0 - b * b) * (1.0 - d * d), 0.0))),
            xp.minimum(a * c + xp.sqrt(xp.maximum((1.0 - a * a) * (1.0 - c * c), 0.0)),
                       b * d + xp.sqrt(xp.maximum((1.0 - b * b) * (1.0 - d * d), 0.0))))


def ref_odd_max(a, b, c, d, xp):
    return ref_max_abs(*ref_odd_halves(a, b, c, d), xp)


def ref_classical(a, b, c, d, xp):
    return xp.minimum(1.0 - ref_max_abs(a, b, c, d, xp),
                      1.0 - ref_odd_max(a, b, c, d, xp))


def ref_semialg(a, b, c, d, xp):
    return xp.minimum(1.0 - ref_max_abs(a, b, c, d, xp),
                      xp.maximum(ref_g(a, b, c, d), ref_h(a, b, c, d)))


def ref_pushout(a, b, c, d, xp):
    return xp.minimum(1.0 - ref_max_abs(a, b, c, d, xp), ref_classical(
        *[ref_inverse_pushout(v, xp) for v in (a, b, c, d)], xp))


def ref_completion(a, b, c, d, xp):
    lo, hi = ref_entry_interval(a, b, c, d, xp)
    return xp.minimum(xp.minimum(xp.minimum(1.0 - a * a, 1.0 - b * b),
                                 xp.minimum(1.0 - c * c, 1.0 - d * d)), hi - lo)


def ref_timo(a, b, c, d, xp):
    return xp.minimum(1.0 - ref_max_abs(a, b, c, d, xp), ref_g(a, b, c, d) + 2.0 * xp.sqrt(
        xp.maximum((1.0 - a * a) * (1.0 - b * b) * (1.0 - c * c) * (1.0 - d * d), 0.0)))


def ref_landau(a, b, c, d, xp):
    return xp.minimum(1.0 - ref_max_abs(a, b, c, d, xp),
                      xp.sqrt(xp.maximum((1.0 - a * a) * (1.0 - b * b), 0.0))
                      + xp.sqrt(xp.maximum((1.0 - c * c) * (1.0 - d * d), 0.0))
                      - abs(a * b - c * d))


def ref_face(a, b, c, d, eps, xp):
    x = [ref_inverse_pushout(v, xp) for v in (a, b, c, d)]
    odd = ref_max_abs(*ref_odd_halves(*x), xp)
    face = 2 * xp.minimum(sum(abs(v) >= 1.0 - eps for v in x), 3) + (odd >= 1.0 - eps)
    outside = (ref_max_abs(a, b, c, d, xp) > 1.0 + eps) | (odd > 1.0 + eps)
    return xp.maximum(face, 8 * outside)


REF_MARGINS = {
    Oracle.SEMIALG: ref_semialg,
    Oracle.PUSHOUT: ref_pushout,
    Oracle.COMPLETION: ref_completion,
    Oracle.TIMO: ref_timo,
    Oracle.LANDAU: ref_landau,
}


def _halves(c11, c12, c21, c22):
    """The CHSH halves from the unscaled sums, scaled as ``chsh_values``
    scales them."""
    return tuple(0.5 * v for v in _odd_sums(c11, c12, c21, c22))


# (name, kernel, reference, whether both take the namespace ``xp``)
PAIRS = [
    ("g", _g, ref_g, False),
    ("h", _h, ref_h, False),
    ("odd_halves", _halves, ref_odd_halves, False),
    ("odd_max", _odd_max, ref_odd_max, True),
    ("inverse_pushout", lambda a, b, c, d, xp: _inverse_pushout(a, xp),
     lambda a, b, c, d, xp: ref_inverse_pushout(a, xp), True),
    ("entry_interval", _entry_interval, ref_entry_interval, True),
    ("entry_interval_v", lambda a, b, c, d, xp: _entry_interval(a, c, b, d, xp),
     lambda a, b, c, d, xp: ref_entry_interval(a, c, b, d, xp), True),
    ("classical", _classical, ref_classical, True),
] + [(f"face {eps}", lambda a, b, c, d, xp, eps=eps: _face(a, b, c, d, eps, xp),
      lambda a, b, c, d, xp, eps=eps: ref_face(a, b, c, d, eps, xp), True)
     for eps in (0.0, 1e-9, 1e-3)] \
  + [(o.value, _MARGINS[o], REF_MARGINS[o], True) for o in Oracle]


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

# ±0.0, ±inf and NaN, the cube's faces and one float inside them, and
# entries whose squares or products overflow or underflow
EDGES = (0.0, -0.0, 0.5, -0.75, 1.0, -1.0, 1.0 - 2.0 ** -53, 2.0,
         math.inf, -math.inf, math.nan, 1e-170, -1e160)


def _rows() -> np.ndarray:
    rng = np.random.default_rng(2203)
    base = rng.uniform(-1.2, 1.2, size=(1500, 4))
    abg = rng.uniform(-math.pi, math.pi, size=(500, 3))
    torus = np.cos(np.column_stack([abg, -abg.sum(axis=1)]))
    return np.concatenate([np.array(list(product(EDGES, repeat=4))), base,
                           base * 1e160, base * 1e-170, torus])


ROWS = _rows()


def _read_only(cols):
    for col in cols:
        col.flags.writeable = False
    return cols


def _evaluate(fn, takes_xp, cols, xp):
    return fn(*cols, xp) if takes_xp else fn(*cols)


def _as_bytes(value) -> bytes:
    if isinstance(value, tuple):
        return b"|".join(_as_bytes(v) for v in value)
    return np.asarray(value).tobytes()


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, kernel, ref, takes_xp", PAIRS,
                         ids=[p[0] for p in PAIRS])
class TestKernelBits:
    def test_python_floats(self, name, kernel, ref, takes_xp):
        for row in ROWS.tolist():
            got = _evaluate(kernel, takes_xp, row, _Floats)
            want = _evaluate(ref, takes_xp, row, _Floats)
            assert repr(got) == repr(want), (name, row)

    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    def test_numpy_columns(self, name, kernel, ref, takes_xp, layout):
        pts = ROWS.copy()
        cols = _read_only(list(pts.T.copy() if layout == "contiguous"
                               else pts.T))
        with np.errstate(all="ignore"):
            got = _evaluate(kernel, takes_xp, cols, np)
            want = _evaluate(ref, takes_xp, cols, np)
        assert _as_bytes(got) == _as_bytes(want)


class TestBlockLayouts:
    """``margin_batch`` and ``classical_margin_batch`` on inputs of every
    memory layout equal the reference on whole columns."""

    @pytest.mark.parametrize("layout", ["C", "Fortran", "column slice",
                                        "row slice"])
    def test_batches_match_reference(self, layout):
        # ROWS spans four blocks of _BLOCK_ROWS and part of a fifth
        n = ROWS.shape[0]
        if layout == "C":
            pts = ROWS.copy()
        elif layout == "Fortran":
            pts = np.asfortranarray(ROWS)
        elif layout == "column slice":
            pts = np.zeros((n, 8))
            pts[:, 1::2] = ROWS
            pts = pts[:, 1::2]
        else:
            pts = np.zeros((2 * n, 4))
            pts[1::2] = ROWS
            pts = pts[1::2]
        pts.flags.writeable = False
        cols = pts.T.copy()
        with np.errstate(all="ignore"):
            for oracle, ref in REF_MARGINS.items():
                assert margin_batch(pts, oracle).tobytes() \
                    == ref(*cols, np).tobytes(), oracle
            assert classical_margin_batch(pts).tobytes() \
                == ref_classical(*cols, np).tobytes()


def test_chsh_values():
    for row in ROWS[np.isfinite(ROWS).all(axis=1)].tolist():
        halves = ref_odd_halves(*row)
        assert repr(chsh_values(Correlation(*row))) \
            == repr(halves + tuple(-v for v in reversed(halves)))


class TestCubeDraws:
    """The draw helper equals ``Generator.uniform`` bit for bit and leaves
    the generator where ``uniform`` leaves it."""

    @pytest.mark.parametrize("shape", [(_BLOCK, 4), (1699, 4), (_BLOCK, 3),
                                       (1, 3)])
    def test_matches_uniform(self, shape):
        for seed, block in product((0, 3, 11, 2 ** 63 + 5, 987654321),
                                   range(25)):
            ours, theirs = _block_rng(seed, block), _block_rng(seed, block)
            assert _cube_draws(ours, shape).tobytes() \
                == theirs.uniform(-1.0, 1.0, size=shape).tobytes()
            assert ours.integers(0, 8, size=64).tobytes() \
                == theirs.integers(0, 8, size=64).tobytes()

    def test_angles_match_uniform(self):
        # the draw of measures._accept_q4
        for seed, block in product((0, 7, 2 ** 40), range(40)):
            ours, theirs = _block_rng(seed, block), _block_rng(seed, block)
            angles = ours.random((_BLOCK, 3))
            angles *= math.pi
            assert angles.tobytes() \
                == theirs.uniform(0.0, math.pi, size=(_BLOCK, 3)).tobytes()
            assert ours.integers(0, 192, size=64).tobytes() \
                == theirs.integers(0, 192, size=64).tobytes()
