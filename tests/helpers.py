"""Shared samplers, constants and reference solvers for the test suite.

All samplers take an explicit numpy Generator so every test pins its own
seed.  Stratum samplers keep a collar away from neighbouring strata; the
collar sizes are test choices, not library tolerances.
"""

import math
from functools import reduce
from itertools import chain, permutations, product
from operator import add

import numpy as np

from qbody import (
    DEFAULT_TOLERANCE,
    AngleTuple,
    Correlation,
    NotExtreme,
    Stratum,
    DualCompletion,
    Functional,
    Oracle,
    Tolerance,
    extreme_from_angles,
    GramSystem,
    InvalidModel,
    build_model,
    clifford_model,
    member,
    symmetry_group,
)
from qbody.boundary import _FACES, _count_above, _face, _psd_threshold
from qbody.core import _Floats
from qbody.quantum import (_COMMUTATOR_TOL, _PSI_NORM_TOL, _SPECTRUM_TOL,
                           _SYMMETRY_TOL, QuantumModel)

SQRT2 = math.sqrt(2.0)
CHSH_POINT = Correlation(1 / SQRT2, 1 / SQRT2, 1 / SQRT2, -1 / SQRT2)
CHSH_ANGLES = AngleTuple(math.pi / 4, math.pi / 4, math.pi / 4,
                         -3 * math.pi / 4)
# The self-duality matrix 2H, the tensor square of the 2x2 Hadamard
# matrix, and H with H² = 1.
TWO_H = np.kron(np.array([[1, 1], [1, -1]]), np.array([[1, 1], [1, -1]]))
HADAMARD = TWO_H / 2.0
# The antisymmetric maximally entangled state on R² ⊗ R².
SINGLET_PSI = np.array([0.0, 1.0, -1.0, 0.0]) / SQRT2
EVEN_VERTEX_TUPLES = [
    (1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1), (1, -1, -1, 1),
    (-1, -1, 1, 1), (-1, 1, -1, 1), (-1, 1, 1, -1), (-1, -1, -1, -1),
]


def reflection_matrix(tau: float) -> np.ndarray:
    """The planar reflection ``M(tau)``."""
    return np.array([[math.cos(tau), math.sin(tau)],
                     [math.sin(tau), -math.cos(tau)]])


def certificate_matrix(cert) -> np.ndarray:
    """The 4x4 matrix of a primal or dual completion certificate."""
    return np.array(cert.rows())


def min_eigenvalue(cert) -> float:
    """The smallest eigenvalue of a certificate, by ``eigvalsh``."""
    return float(np.linalg.eigvalsh(certificate_matrix(cert))[0])


def tetra_angles(rng: np.random.Generator, n: int, collar: float = 0.05,
                 k_min: float = 0.0) -> list[AngleTuple]:
    """Angle tuples in the prototype tetrahedron with a sine collar.

    ``k_min`` additionally rejects tuples whose cotangent sum is small,
    which keeps exposing functionals bounded.
    """
    out = []
    while len(out) < n:
        a, b, g = rng.uniform(collar, math.pi - collar, size=3)
        s = a + b + g
        if not collar < s < math.pi - collar:
            continue
        t = AngleTuple(a, b, g, -s)
        if k_min:
            K = sum(math.cos(x) / math.sin(x) for x in t.as_tuple())
            if abs(K) < k_min:
                continue
        out.append(t)
    return out


def sine_rule_stratum(t: AngleTuple) -> Stratum:
    """The stratum of an angle tuple by the sign of its sine product and
    the count of angles that are multiples of π, both at ``t.eps``, as a
    branch table: the reference that ``extreme_from_angles``, which reads
    the same through the face table, must reproduce."""
    eps = t.eps
    sines = t.sines()
    delta = t.delta_product()
    if delta < -eps:
        return Stratum.Q4
    if delta > eps:
        return Stratum.Q6
    multiples = sum(1 for s in sines if abs(s) <= eps)
    if multiples >= 3:
        # the sum constraint forces the fourth to be a multiple as well
        return Stratum.Q1
    if multiples == 2:
        return Stratum.Q2
    if multiples == 1:
        return Stratum.Q3
    return Stratum.Q4 if delta < 0.0 else Stratum.Q6


def _left_sum(values) -> float:
    """``values`` added left to right from 0, as ``sum`` did before
    Python 3.12."""
    return reduce(add, values, 0)


def angles_by_search(c: Correlation,
                     tol: Tolerance = DEFAULT_TOLERANCE) -> AngleTuple:
    """The canonical angle tuple of ``c`` by a search of the eight arccos
    sign patterns, up to overall negation, for the least sum residual,
    the first on ties: a reference, written apart from the library's
    ``angles_from_point``, that it must reproduce bit for bit."""
    values = c.as_tuple()
    if max(abs(v) for v in values) > 1.0 + tol.eps_boundary:
        raise NotExtreme("point outside the cube")
    base = [math.acos(min(1.0, max(-1.0, v))) for v in values]

    best = None
    # masks m and 15 - m negate the total, and tie as math.remainder is
    # odd; the strict < keeps the lower one, so masks 8..15 never win
    for mask in range(8):
        signs = tuple(-1 if (mask >> j) & 1 else 1 for j in range(4))
        total = _left_sum(s * b for s, b in zip(signs, base))
        res = abs(math.remainder(total, 2.0 * math.pi))
        if best is None or res < best[0]:
            best = (res, signs)
    res, signs = best
    if res > tol.eps_angle:
        raise NotExtreme(
            f"no arccos sign pattern meets the sum constraint "
            f"(best residual {res:.3e})")
    raw = [s * b for s, b in zip(signs, base)]
    # absorb the residual so the constructed tuple passes validation exactly
    total = _left_sum(raw)
    shift = 2.0 * math.pi * round(total / (2.0 * math.pi))
    raw[3] -= total - shift
    return AngleTuple(*raw, eps=tol.eps_angle).canonical()


def face_of(c: Correlation, tol: Tolerance = DEFAULT_TOLERANCE):
    """The stratum of ``c`` by the scalar face count alone, the answer of
    ``classify`` without its completion rank check."""
    return _FACES[_face(*c.as_tuple(), tol.eps_boundary, _Floats)]


def group_matrices() -> list[np.ndarray]:
    """The 192 even signed permutation matrices, one at a time:
    permutations outer, even sign tuples inner, ``S[i, perm[i]] = sign[i]``."""
    elements = []
    for perm in permutations(range(4)):
        for signs in product((1, -1), repeat=4):
            if signs[0] * signs[1] * signs[2] * signs[3] == 1:
                mat = np.zeros((4, 4), dtype=np.int64)
                for i in range(4):
                    mat[i, perm[i]] = signs[i]
                elements.append(mat)
    return elements


def random_symmetry(rng: np.random.Generator) -> np.ndarray:
    group = symmetry_group()
    return group[int(rng.integers(0, len(group)))]


def q1_point(rng: np.random.Generator) -> Correlation:
    return Correlation(*EVEN_VERTEX_TUPLES[int(rng.integers(0, 8))])


def q2_point(rng: np.random.Generator) -> Correlation:
    t = float(rng.uniform(-0.95, 0.95))
    base = np.array([1.0, t, t, 1.0])
    return Correlation.from_sequence(random_symmetry(rng) @ base)


def q3_point(rng: np.random.Generator) -> Correlation:
    while True:
        b, g = rng.uniform(0.05, math.pi - 0.05, size=2)
        if 0.05 < b + g < math.pi - 0.05 or math.pi + 0.05 < b + g:
            if abs(math.sin(b + g)) > 0.05:
                break
    t = AngleTuple(0.0, b, g, -(b + g))
    c = extreme_from_angles(t).c
    return Correlation.from_sequence(random_symmetry(rng) @ c.as_array())


def q4_point(rng: np.random.Generator, collar: float = 0.05) -> Correlation:
    t = tetra_angles(rng, 1, collar)[0]
    c = extreme_from_angles(t).c
    return Correlation.from_sequence(random_symmetry(rng) @ c.as_array())


def q5_point(rng: np.random.Generator) -> Correlation:
    while True:
        x, y, z = rng.uniform(-0.95, 0.95, size=3)
        if 1.0 - x * x - y * y - z * z + 2.0 * x * y * z > 1e-3:
            break
    base = np.array([1.0, x, y, z])
    return Correlation.from_sequence(random_symmetry(rng) @ base)


def deep_interior_point(rng: np.random.Generator,
                        depth: float = 1e-3) -> Correlation:
    while True:
        c = Correlation.from_sequence(rng.uniform(-1.0, 1.0, size=4))
        if member(c, Oracle.SEMIALG).margin > depth:
            return c


def boundary_cl_points(rng: np.random.Generator, n: int) -> list[Correlation]:
    """Points on the boundary of the classical polytope, both facet kinds."""
    chsh_facet = np.array([
        [1.0, 1.0, 1.0, 1.0],
        [1.0, 1.0, -1.0, -1.0],
        [1.0, -1.0, 1.0, -1.0],
        [-1.0, 1.0, 1.0, -1.0],
    ])
    n_facet = np.array([
        [1.0, 1.0, 1.0, 1.0],
        [1.0, 1.0, -1.0, -1.0],
        [1.0, -1.0, 1.0, -1.0],
        [1.0, -1.0, -1.0, 1.0],
    ])
    out = []
    for i in range(n):
        verts = chsh_facet if i % 2 == 0 else n_facet
        w = rng.dirichlet(np.ones(4))
        point = w @ verts
        out.append(Correlation.from_sequence(random_symmetry(rng) @ point))
    return out


# Entries that sit on, or a rounding step from, the cube's faces, and
# entries whose squares underflow, approach or leave the float range.
EDGE_ENTRIES = (0.0, 1.0, -1.0, 1.0 + 1e-12, 1.0 - 1e-12, 1e-200, 1e300,
                -1e300, 1e154, 2.0)


def completion_points(rng: np.random.Generator, n: int) -> list[Correlation]:
    """``n`` points, a quarter from each family: uniform in the cube,
    uniform in ``[-1.3, 1.3]⁴``, cosines of angle tuples on the torus with
    each entry nudged by 0, ±1e-12 or ±1e-8, and entries drawn from
    ``EDGE_ENTRIES``."""
    k = n // 4
    abg = rng.uniform(-math.pi, math.pi, size=(k, 3))
    torus = np.cos(np.column_stack([abg, -abg.sum(axis=1)])) + rng.choice(
        (-1e-8, -1e-12, 0.0, 1e-12, 1e-8), size=(k, 4))
    rows = np.concatenate([rng.uniform(-1.0, 1.0, size=(k, 4)),
                           rng.uniform(-1.3, 1.3, size=(k, 4)), torus,
                           rng.choice(EDGE_ENTRIES, size=(n - 3 * k, 4))])
    return [Correlation(*row) for row in rows.tolist()]


_GRID = 64
_REFINEMENTS = 40


def _dual_min_eig_grid(f_arr: np.ndarray, p1: np.ndarray,
                       p3: np.ndarray) -> np.ndarray:
    """Batched minimum eigenvalue of F over arrays of (p1, p3)."""
    n = p1.shape[0]
    mats = np.zeros((n, 4, 4))
    mats[:, 0, 0] = p1
    mats[:, 1, 1] = 1.0 - p1
    mats[:, 2, 2] = p3
    mats[:, 3, 3] = 1.0 - p3
    mats[:, 0, 2] = mats[:, 2, 0] = -f_arr[0]
    mats[:, 0, 3] = mats[:, 3, 0] = -f_arr[1]
    mats[:, 1, 2] = mats[:, 2, 1] = -f_arr[2]
    mats[:, 1, 3] = mats[:, 3, 1] = -f_arr[3]
    return np.linalg.eigvalsh(mats)[:, 0]


def dual_completion_grid(f: Functional, tol: Tolerance = DEFAULT_TOLERANCE
                         ) -> tuple[bool, DualCompletion, float]:
    """Reference dual certificate by search: ``(feasible, witness, λmin)``.

    The minimum eigenvalue is concave in ``(p1, p3)``, so a coarse 64x64
    grid followed by 40 local halving refinements finds its maximizer; the
    certificate is feasible iff that maximum clears the PSD threshold.
    """
    f_arr = f.as_array()

    grid = (np.arange(_GRID) + 0.5) / _GRID
    p1g, p3g = np.meshgrid(grid, grid, indexing="ij")
    flat1, flat3 = p1g.ravel(), p3g.ravel()
    vals = _dual_min_eig_grid(f_arr, flat1, flat3)
    best = int(np.argmax(vals))
    p1_best, p3_best, val_best = flat1[best], flat3[best], vals[best]

    step = 1.0 / _GRID
    offsets = np.array([(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)])
    for _ in range(_REFINEMENTS):
        cand1 = np.clip(p1_best + offsets[:, 0] * step, 1e-12, 1.0 - 1e-12)
        cand3 = np.clip(p3_best + offsets[:, 1] * step, 1e-12, 1.0 - 1e-12)
        vals = _dual_min_eig_grid(f_arr, cand1, cand3)
        idx = int(np.argmax(vals))
        if vals[idx] > val_best:
            p1_best, p3_best, val_best = cand1[idx], cand3[idx], vals[idx]
        step *= 0.5

    witness = DualCompletion(f=f, p1=float(p1_best), p3=float(p3_best))
    feasible = bool(val_best >= -_psd_threshold(witness.rows(), tol))
    return feasible, witness, float(val_best)


_OBSERVABLE_NAMES = ("A1", "A2", "B1", "B2")


def checked_rows_reference(m: QuantumModel):
    """``quantum._checked_rows`` with no shortcut: every observable gets the
    entrywise symmetry scan and both inertia counts, above ``1 +
    _SPECTRUM_TOL`` for ``X`` and ``-X``, and every commutator the full
    products.  Returns ``(psi, observables)`` as row tuples or raises
    :class:`InvalidModel` with the library's message.  Entries must be
    numbers."""
    d = m.d
    psi = tuple(m.psi.tolist()) if hasattr(m.psi, "tolist") else m.psi
    obs = tuple(tuple(map(tuple, X.tolist())) if hasattr(X, "tolist") else X
                for X in m.observables())
    for name, X in zip(_OBSERVABLE_NAMES, obs):
        if len(X) != d or any(len(row) != d for row in X):
            raise InvalidModel(f"{name} is not {d}x{d}")
    if not all(map(math.isfinite, chain(psi, *chain(*obs)))):
        raise InvalidModel("model entries must be finite")
    norm = math.hypot(*psi)
    if abs(norm - 1.0) > _PSI_NORM_TOL:
        raise InvalidModel(f"|psi| = {norm!r} not normalized")
    bound = 1.0 + _SPECTRUM_TOL
    for name, X in zip(_OBSERVABLE_NAMES, obs):
        if max(abs(X[i][j] - X[j][i])
               for i in range(d) for j in range(d)) > _SYMMETRY_TOL:
            raise InvalidModel(f"{name} not symmetric")
        if _count_above(X, bound):
            raise InvalidModel(
                f"{name} spectrum leaves [-1, 1]: an eigenvalue above 1")
        if _count_above([[-x for x in row] for row in X], bound):
            raise InvalidModel(
                f"{name} spectrum leaves [-1, 1]: an eigenvalue below -1")

    def product_rows(X, Y):
        return [sum(x * y for x, y in zip(row, col))
                for row in X for col in zip(*Y)]

    for A in obs[:2]:
        for B in obs[2:]:
            worst = max(abs(x - y) for x, y in zip(product_rows(A, B),
                                                   product_rows(B, A)))
            if worst > _COMMUTATOR_TOL:
                raise InvalidModel(f"commutator norm {worst!r}")
    return psi, obs


VALIDATION_FAMILIES = ("involution", "scaled", "projector", "symmetric",
                       "asymmetric", "built")


def _rows(x: np.ndarray) -> tuple[tuple[float, ...], ...]:
    return tuple(map(tuple, x.tolist()))


def validation_model(rng: np.random.Generator, family: str,
                     d: int) -> QuantumModel:
    """A random row-tuple model of ``family`` on R^d, ``d ≤ 4``, for the
    differential tests of model validation.

    The four observables share an eigenbasis, so they commute, except that
    one time in four ``B2`` gets its own.  Their spectra are:

    * ``involution``: signs, half the time with the rows symmetrized
      exactly;
    * ``scaled``: signs times ``1 ± 10^u``, ``u`` uniform in ``[-12, -8]``,
      on both sides of the spectrum tolerance;
    * ``projector``: ``{0, 1}``;
    * ``symmetric``: uniform in ``[-1.2, 1.2]``;
    * ``asymmetric``: signs, with ``1e-13`` added above the diagonal;
    * ``built``: :func:`build_model` of random angles at ``d = 4`` and
      :func:`clifford_model` of a random rank-``r`` Gram system at ``d =
      4^(r-1)``, so ``d`` must be 1 or 4.
    """
    if family == "built":
        if d == 4 and rng.integers(0, 2):
            a, b, g = rng.uniform(-math.pi, math.pi, size=3)
            return build_model(AngleTuple(a, b, g, -(a + b + g)))
        r = {1: 1, 4: 2}[d]
        units = rng.normal(size=(4, r))
        units /= np.linalg.norm(units, axis=1, keepdims=True)
        return clifford_model(GramSystem(*map(tuple, units.tolist())))

    def basis() -> np.ndarray:
        return np.linalg.qr(rng.normal(size=(d, d)))[0]

    def observable(q: np.ndarray) -> np.ndarray:
        signs = rng.choice((-1.0, 1.0), size=d)
        if family == "scaled":
            spectrum = signs * (1.0 + rng.choice((-1.0, 1.0))
                                * 10.0 ** rng.uniform(-12.0, -8.0))
        elif family == "projector":
            spectrum = (signs + 1.0) / 2.0
        elif family == "symmetric":
            spectrum = rng.uniform(-1.2, 1.2, size=d)
        else:
            spectrum = signs
        x = (q * spectrum) @ q.T
        if family == "involution" and rng.integers(0, 2):
            x = (x + x.T) / 2.0
        elif family == "asymmetric":
            x = x + np.triu(np.full((d, d), 1e-13), 1)
        return x

    q = basis()
    mats = [observable(q) for _ in range(3)]
    mats.append(observable(basis() if rng.integers(0, 4) == 0 else q))
    psi = rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    return QuantumModel(psi=tuple(psi.tolist()),
                        **dict(zip(_OBSERVABLE_NAMES, map(_rows, mats))))
