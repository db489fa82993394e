"""Explicit quantum models over real Hilbert spaces, and their self-tests.

A model is a unit vector ``psi`` together with real symmetric observables
``A1, A2, B1, B2`` satisfying ``[A_i, B_j] = 0`` and spectra in
``[-1, 1]``; it realizes the correlations ``c_ij = <psi| A_i B_j psi>``.
Real coefficients suffice for every point of the correlation body, so no
complex support is provided.

The workhorse family lives on R² ⊗ R² with the planar reflections

    M(tau) = [[cos tau, sin tau], [sin tau, -cos tau]]

and the antisymmetric maximally entangled state
``psi = (0, 1, -1, 0)/sqrt(2)``, for which

    <psi| M(u) ⊗ M(v) psi> = -cos(u - v).

Choosing ``A1 = M(alpha)⊗1``, ``A2 = M(-gamma)⊗1``, ``B1 = 1⊗M(pi)``,
``B2 = 1⊗M(alpha+beta+pi)`` realizes ``(cos alpha, cos beta, cos gamma,
cos delta)`` for every angle tuple, whether or not it is extreme.

At nonclassical extreme points the model is essentially unique, which is
certified numerically through the algebraic relations that force
uniqueness (all on the cyclic subspace generated from ``psi``):

* ``B_j psi = Σ_i gamma_ji A_i psi``  for a real 2x2 matrix gamma,
* ``X² = 1`` for each observable,
* ``A1 A2 + A2 A1 = 2u·1`` with ``u = <psi| A1 A2 psi>``,
* the state is tracial on words in ``A1, A2``:
  ``<psi| M psi> = (normalized trace of M)``.

Mixtures of distinct extreme models (block direct sums) break at least
one of these relations by a macroscopic amount, which is what makes the
relations a usable self-test.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from .core import (
    BadWeights,
    Correlation,
    DimensionTooLarge,
    InvalidModel,
)
from .boundary import AngleTuple, GramSystem

__all__ = [
    "QuantumModel",
    "SelfTestReport",
    "reflection_matrix",
    "build_model",
    "correlations_of",
    "selftest_residuals",
    "clifford_model",
    "mixture_model",
    "CLIFFORD_GENERATORS",
    "SINGLET_PSI",
]

# Hypothesis tolerances (fixed by the model contract, not user-tunable).
_PSI_NORM_TOL = 1e-12
_COMMUTATOR_TOL = 1e-10
_SPECTRUM_TOL = 1e-10
_SYMMETRY_TOL = 1e-12


@functools.cache
def _singlet_psi() -> np.ndarray:
    import numpy as np
    return np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)


def __getattr__(name: str):
    # ``SINGLET_PSI`` and ``CLIFFORD_GENERATORS`` are numpy arrays, built on
    # first access so that importing this module does not import numpy.
    if name == "SINGLET_PSI":
        return _singlet_psi()
    if name == "CLIFFORD_GENERATORS":
        return _clifford_generators()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def reflection_matrix(tau: float) -> np.ndarray:
    """The planar reflection ``M(tau)``; symmetric, orthogonal, trace 0."""
    import numpy as np
    ct, st = math.cos(tau), math.sin(tau)
    return np.array([[ct, st], [st, -ct]])


@dataclass(frozen=True)
class QuantumModel:
    """State vector plus four commuting-pair observables on R^d."""

    psi: np.ndarray
    A1: np.ndarray
    A2: np.ndarray
    B1: np.ndarray
    B2: np.ndarray
    d: int

    def observables(self) -> tuple[np.ndarray, ...]:
        return (self.A1, self.A2, self.B1, self.B2)

    def validate(self) -> None:
        """Check the defining hypotheses; raise :class:`InvalidModel`."""
        import numpy as np
        if self.psi.shape != (self.d,):
            raise InvalidModel(f"psi shape {self.psi.shape} != ({self.d},)")
        norm = float(np.linalg.norm(self.psi))
        if abs(norm - 1.0) > _PSI_NORM_TOL:
            raise InvalidModel(f"|psi| = {norm!r} not normalized")
        for name, X in zip(("A1", "A2", "B1", "B2"), self.observables()):
            if X.shape != (self.d, self.d):
                raise InvalidModel(f"{name} shape {X.shape}")
            if np.abs(X - X.T).max() > _SYMMETRY_TOL:
                raise InvalidModel(f"{name} not symmetric")
            eigs = np.linalg.eigvalsh(X)
            if eigs[0] < -1.0 - _SPECTRUM_TOL or eigs[-1] > 1.0 + _SPECTRUM_TOL:
                raise InvalidModel(
                    f"{name} spectrum [{eigs[0]!r}, {eigs[-1]!r}] leaves [-1, 1]")
        for A in (self.A1, self.A2):
            for B in (self.B1, self.B2):
                comm = A @ B - B @ A
                if np.abs(comm).max() > _COMMUTATOR_TOL:
                    raise InvalidModel(
                        f"commutator norm {np.abs(comm).max()!r}")

    def to_json_dict(self) -> dict:
        """Row-major JSON export of the model."""
        return {
            "d": self.d,
            "psi": self.psi.tolist(),
            "A1": self.A1.tolist(),
            "A2": self.A2.tolist(),
            "B1": self.B1.tolist(),
            "B2": self.B2.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "QuantumModel":
        import numpy as np
        d = int(data["d"])
        return cls(psi=np.asarray(data["psi"], dtype=float),
                   A1=np.asarray(data["A1"], dtype=float),
                   A2=np.asarray(data["A2"], dtype=float),
                   B1=np.asarray(data["B1"], dtype=float),
                   B2=np.asarray(data["B2"], dtype=float),
                   d=d)


@dataclass(frozen=True)
class SelfTestReport:
    gamma: np.ndarray
    residual_bpsi: float
    residual_squares: float
    residual_anticommutator: float
    residual_tracial: float
    u_value: float


def build_model(t: AngleTuple) -> QuantumModel:
    """The standard 4-dimensional model realizing the cosines of ``t``.

    ``t`` met its sum constraint at its own tolerance when it was built.
    """
    import numpy as np
    eye2 = np.eye(2)
    A1 = np.kron(reflection_matrix(t.alpha), eye2)
    A2 = np.kron(reflection_matrix(-t.gamma), eye2)
    B1 = np.kron(eye2, reflection_matrix(math.pi))
    B2 = np.kron(eye2, reflection_matrix(t.alpha + t.beta + math.pi))
    return QuantumModel(psi=_singlet_psi().copy(), A1=A1, A2=A2, B1=B1, B2=B2, d=4)


def correlations_of(m: QuantumModel) -> Correlation:
    """Evaluate ``c_ij = <psi| A_i B_j psi>`` after validating the model."""
    m.validate()
    psi = m.psi
    vals = []
    for A in (m.A1, m.A2):
        for B in (m.B1, m.B2):
            vals.append(float(psi @ (A @ (B @ psi))))
    return Correlation(*vals)


# ---------------------------------------------------------------------------
# Self-testing residuals
# ---------------------------------------------------------------------------

def _cyclic_basis(m: QuantumModel) -> np.ndarray:
    """Orthonormal basis of the span of words of length <= 3 applied to psi."""
    import numpy as np
    ops = m.observables()
    vectors = [m.psi]
    frontier = [m.psi]
    for _ in range(3):
        frontier = [X @ v for X in ops for v in frontier]
        vectors.extend(frontier)
    stack = np.array(vectors).T  # d x n_words
    u, s, _ = np.linalg.svd(stack, full_matrices=False)
    keep = s > 1e-10 * max(1.0, float(s[0]))
    return u[:, keep]


def selftest_residuals(m: QuantumModel) -> SelfTestReport:
    """Evaluate the uniqueness-forcing algebraic relations on the model.

    All residuals are restricted to the cyclic subspace generated from
    ``psi`` (span of words of length at most 3 in the observables), where
    the relations are provable for extreme nonclassical correlations;
    gamma is recovered by least squares on span{A1 psi, A2 psi}, so
    off-manifold models yield informative residuals instead of errors.
    """
    import numpy as np
    m.validate()
    psi = m.psi
    A1, A2, B1, B2 = m.observables()
    basis = _cyclic_basis(m)
    r = basis.shape[1]

    def restrict(X: np.ndarray) -> np.ndarray:
        return basis.T @ X @ basis

    a_vecs = np.stack([A1 @ psi, A2 @ psi], axis=1)  # d x 2
    gamma = np.zeros((2, 2))
    residual_bpsi = 0.0
    for j, B in enumerate((B1, B2)):
        target = B @ psi
        coeff, *_ = np.linalg.lstsq(a_vecs, target, rcond=None)
        gamma[j, :] = coeff
        residual_bpsi = max(residual_bpsi,
                            float(np.linalg.norm(target - a_vecs @ coeff)))

    eye = np.eye(m.d)
    residual_squares = max(
        float(np.abs(restrict(X @ X - eye)).max()) for X in m.observables())

    u_value = float(psi @ (A1 @ (A2 @ psi)))
    jordan = A1 @ A2 + A2 @ A1 - 2.0 * u_value * eye
    residual_anticommutator = float(np.abs(restrict(jordan)).max())

    words = (eye, A1, A2, A1 @ A1, A1 @ A2, A2 @ A1, A2 @ A2)
    residual_tracial = max(
        abs(float(psi @ (M @ psi)) - float(np.trace(restrict(M))) / r)
        for M in words)

    return SelfTestReport(gamma=gamma, residual_bpsi=residual_bpsi,
                          residual_squares=residual_squares,
                          residual_anticommutator=residual_anticommutator,
                          residual_tracial=residual_tracial,
                          u_value=u_value)


# ---------------------------------------------------------------------------
# Constructive realization of arbitrary Gram systems
# ---------------------------------------------------------------------------

@functools.cache
def _clifford_generators() -> tuple[np.ndarray, ...]:
    """Four pairwise-anticommuting real symmetric involutions on R^8.

    Built from two commuting 2x2 building blocks (reflections sigma1,
    sigma3 and the rotation eps with eps² = -1): three generators of this
    kind exist on R^4, and doubling with a sigma1/sigma3 split extends
    them to four on R^8.  Four such matrices cannot exist on R^4, which
    pins the ambient dimension used below.
    """
    import numpy as np
    s1 = np.array([[0.0, 1.0], [1.0, 0.0]])
    s3 = np.array([[1.0, 0.0], [0.0, -1.0]])
    eps = np.array([[0.0, 1.0], [-1.0, 0.0]])
    quad4 = (np.kron(s3, np.eye(2)), np.kron(s1, np.eye(2)), np.kron(eps, eps))
    gens = tuple(np.kron(s1, q) for q in quad4) + (np.kron(s3, np.eye(4)),)
    return gens



def clifford_model(gs: GramSystem) -> QuantumModel:
    """Realize ``c_ij = a_i·b_j`` by contracting anticommuting generators.

    Alice's observables are ``(Σ_k a_i^k γ_k) ⊗ 1`` and Bob's are
    ``1 ⊗ (Σ_k b_j^k γ_k^T)`` on R^8 ⊗ R^8 with the maximally entangled
    ``psi = Σ_m e_m ⊗ e_m / sqrt(8)``, for which
    ``<psi| X ⊗ Y^T psi> = tr(XY)/8``; the generator trace relations then
    reproduce the scalar products exactly.  Unit vectors make each
    observable an involution, so the hypotheses hold by construction.
    """
    import numpy as np
    r = gs.r
    if r > 4:
        raise DimensionTooLarge(f"Gram vectors live in R^{r}, maximum is 4")
    generators = _clifford_generators()
    dim = generators[0].shape[0]
    eye = np.eye(dim)

    def contract(vec: np.ndarray) -> np.ndarray:
        padded = np.zeros(4)
        padded[:r] = vec
        return sum(padded[k] * generators[k] for k in range(4))

    A1 = np.kron(contract(gs.a1), eye)
    A2 = np.kron(contract(gs.a2), eye)
    B1 = np.kron(eye, contract(gs.b1).T)
    B2 = np.kron(eye, contract(gs.b2).T)
    psi = np.eye(dim).reshape(-1) / math.sqrt(dim)
    return QuantumModel(psi=psi, A1=A1, A2=A2, B1=B1, B2=B2, d=dim * dim)


def mixture_model(models: Sequence[tuple[float, QuantumModel]]) -> QuantumModel:
    """Block direct sum realizing the weighted mixture of correlations."""
    import numpy as np
    if not models:
        raise BadWeights("empty mixture")
    weights = [w for w, _ in models]
    if min(weights) <= 0.0:
        raise BadWeights(f"weights must be positive, got {weights}")
    if abs(sum(weights) - 1.0) > 1e-12:
        raise BadWeights(f"weights sum to {sum(weights)!r}, expected 1")

    dims = [m.d for _, m in models]
    d = sum(dims)
    psi = np.concatenate([math.sqrt(w) * m.psi for w, m in models])
    blocks = {"A1": [], "A2": [], "B1": [], "B2": []}
    for _, m in models:
        blocks["A1"].append(m.A1)
        blocks["A2"].append(m.A2)
        blocks["B1"].append(m.B1)
        blocks["B2"].append(m.B2)

    def direct_sum(mats: list[np.ndarray]) -> np.ndarray:
        out = np.zeros((d, d))
        pos = 0
        for mat in mats:
            n = mat.shape[0]
            out[pos:pos + n, pos:pos + n] = mat
            pos += n
        return out

    return QuantumModel(psi=psi,
                        A1=direct_sum(blocks["A1"]),
                        A2=direct_sum(blocks["A2"]),
                        B1=direct_sum(blocks["B1"]),
                        B2=direct_sum(blocks["B2"]),
                        d=d)
