"""Support/gauge functions, the polar body, and incidence residuals.

The polar body is a reflected copy of the primal one: ``Q° = ½·H·Q`` for
the Hadamard involution ``H`` from :mod:`qbody.core`.  Consequences used
here:

* the support function of ``Q`` is the gauge of ``Q°`` and vice versa,
  so ``gauge(c) = ½·support(H·c)``;
* ``f ∈ Q°``  iff  ``2Hf ∈ Q``  iff  ``support(f) ≤ 1``.

For a nonzero functional the support value takes one of two closed forms.
With ``k, p`` from :func:`qbody.core.dual_polys`, the maximizer is a
nonclassical exposed point exactly when ``p(f) < 0`` and
``m(f) = min|f_ij| · Σ 1/|f_ij| > 2``; then ``support(f) = sqrt(k/p)``.
Otherwise the maximum is classical and ``support(f) = ‖2Hf‖∞``, the
maximum over the eight even cube vertices.  (Hand-expanded four-term
absolute-value displays of that vertex maximum are easy to get wrong by
repeating one of the sign patterns; this implementation always takes the
max-norm form.)  Two further equivalent tests for the nonclassical case
are evaluated and cross-checked: the reciprocal-sum product
``m~(f) = q(1/f) < 0`` (with ``p(f) < 0``), and the elementary symmetric
cubic ``e3(f') < 0`` after an even sign change making ``(1,1,1,1)`` the
classical maximizer.

The dual matrix completion certificate for ``f ∈ Q°`` is

        [ p1    0    -f11  -f12 ]
    F = [ 0     p2   -f21  -f22 ]      p_i > 0,  Σ p_i = 2,
        [ -f11  -f21  p3    0   ]      p1 + p2 = p3 + p4 = 1,
        [ -f12  -f22  0     p4  ]

built in closed form by complementary slackness: with ``s = support(f)``
attained at ``c* ∈ Q``, ``F·M* = 0`` for the completion ``M*`` of ``c*``
fixes ``p1 = f11·c11* + f12·c12* + (1-s)/2`` and
``p3 = f11·c11* + f21·c21* + (1-s)/2``.  Then ``λmin(F) = (1-s)/2``, the
largest any balanced diagonal reaches, so ``F`` is PSD iff ``f ∈ Q°``;
for ``f`` outside, ``λmin < 0`` measures the violation.  For incident
primal/dual certificates, ``tr(C·F) = 2 - 2·f·c``.

The incidence set {(c, f) : c on the boundary, f exposing, f·c = 1}
restricted to exposed-extreme pairs is cut out by 17 polynomial
generators; :func:`ncycle_residuals` evaluates them (padded with three
duality-transformed copies to a fixed 20-slot layout, see
:data:`NCYCLE_RESIDUAL_NAMES`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .core import (
    DEFAULT_TOLERANCE,
    ConsistencyError,
    Correlation,
    Functional,
    OutsideTetrahedron,
    Tolerance,
    TransformDirection,
    ZeroFunctional,
    dual_polys,
    dual_transform,
    _fold_sum,
    _h,
    _h_polar,
    _k,
    _q,
    _two_h,
)
from .membership import MembershipVerdict, member
from .boundary import AngleTuple, _Certificate, exposing_functional

__all__ = [
    "CaseVerdict",
    "DualCompletion",
    "DualCompletionResult",
    "quantum_case",
    "support",
    "gauge",
    "dual_member",
    "dual_completion",
    "phi_map",
    "ncycle_residuals",
    "NCYCLE_RESIDUAL_NAMES",
]


@dataclass(frozen=True, init=False)
class CaseVerdict:
    """Which branch of the support function applies to a functional.

    ``m_value`` is defined only when ``p(f) < 0`` (all entries nonzero),
    ``phi_quantum`` only on the nonclassical branch.  ``vertex`` is the
    even cube vertex maximizing ``f·c``, where ``f`` attains
    ``phi_classical``.
    """

    quantum_case: bool
    m_value: float | None
    phi_classical: float
    phi_quantum: float | None
    vertex: tuple[float, float, float, float]

    def __init__(self, quantum_case: bool, m_value: float | None,
                 phi_classical: float, phi_quantum: float | None,
                 vertex: tuple[float, float, float, float]) -> None:
        d = self.__dict__
        d["quantum_case"] = quantum_case; d["m_value"] = m_value
        d["phi_classical"] = phi_classical; d["phi_quantum"] = phi_quantum
        d["vertex"] = vertex

    @property
    def phi(self) -> float:
        """The support value: the branch's maximum of ``f·c`` over ``Q``."""
        return self.phi_quantum if self.quantum_case else self.phi_classical


def _normalized(entries: tuple) -> tuple[tuple, int]:
    """``(f·2^-e, e)`` with the largest ``|f_ij|·2^-e`` in ``[0.5, 1)``.

    The scaling is exact, so a degree-1 result computed from the scaled
    entries and multiplied by ``2^e`` is bit for bit the unscaled one
    wherever that neither under- nor overflows; and the scaled entries
    keep products up to degree 6 in the float range at any magnitude.
    """
    e = math.frexp(max(abs(v) for v in entries))[1]
    return tuple(math.ldexp(v, -e) for v in entries), e


def quantum_case(f: Functional) -> CaseVerdict:
    """Decide whether ``f`` is maximized at a nonclassical exposed point.

    Three equivalent criteria are evaluated; they must agree whenever all
    three margins exceed 1e-9, else :class:`ConsistencyError`.  The margin
    band exists because the criteria use different arithmetic and may
    disagree on the razor's edge.  The criteria run on ``f`` scaled by a
    power of two (see :func:`_normalized`), which keeps the support
    positively homogeneous at every magnitude; the margins are those of
    the scaled functional.  A support value beyond the float range raises
    :class:`ConsistencyError`.
    """
    if max(abs(v) for v in f.as_tuple()) == 0.0:
        raise ZeroFunctional("the zero functional has no case split")
    entries, exponent = _normalized(f.as_tuple())

    polys = dual_polys(Functional(*entries))
    p = polys.p

    # criterion A: p < 0 and m > 2 (m needs all entries nonzero, which
    # p < 0 guarantees; each ratio is at most 1, so none overflows);
    # criterion B: p < 0 and the even-signed product of reciprocals < 0
    m_value, margin_a, margin_b = None, -p, -p
    if p < 0.0:
        smallest = min(abs(v) for v in entries)
        m_value = _fold_sum(smallest / abs(v) for v in entries)
        margin_a = min(-p, m_value - 2.0)
        margin_b = min(-p, -_q(*(1.0 / v for v in entries)))
    verdict_a, verdict_b = margin_a > 0.0, margin_b > 0.0

    # criterion C: after the even sign change putting the classical
    # maximizer at (1,1,1,1), the elementary symmetric cubic is negative
    y = _two_h(*entries)
    kstar = max(range(4), key=lambda i: abs(y[i]))  # the first maximum
    # the vertex is column kstar of 2H, signed: 2H applied to ±e_kstar
    unit = [0.0] * 4
    unit[kstar] = 1.0 if y[kstar] >= 0 else -1.0
    vertex = _two_h(*unit)
    fp = [s * v for s, v in zip(vertex, entries)]
    cubic = (fp[0] * fp[1] * fp[2] + fp[0] * fp[1] * fp[3]
             + fp[0] * fp[2] * fp[3] + fp[1] * fp[2] * fp[3])
    margin_c = -cubic
    verdict_c = margin_c > 0.0

    verdicts = (verdict_a, verdict_b, verdict_c)
    if len(set(verdicts)) > 1:
        if min(abs(margin_a), abs(margin_b), abs(margin_c)) > 1e-9:
            raise ConsistencyError(
                f"case criteria disagree: {verdicts} with margins "
                f"({margin_a:.3e}, {margin_b:.3e}, {margin_c:.3e})")

    phi_q = None
    if verdict_a:
        k = polys.k
        if min(abs(k), -p) < sys.float_info.min:
            # k or p underflowed: take their ratio in exact arithmetic
            exact = _exact(entries)
            k, p = _k(*exact), math.prod(exact)
        phi_q = math.sqrt(k / p)
    try:  # back to the scale of f
        phi_c = math.ldexp(abs(y[kstar]), exponent)
        if verdict_a:
            phi_q = math.ldexp(phi_q, exponent)
    except OverflowError:
        raise ConsistencyError(f"the support of {f!r} overflows the float "
                               "range") from None
    return CaseVerdict(quantum_case=verdict_a, m_value=m_value,
                       phi_classical=phi_c, phi_quantum=phi_q, vertex=vertex)


def _exact(entries) -> list:
    """The entries as Fractions, for products that underflow in floats
    (imported here: fractions pulls in decimal, which nothing else needs)."""
    from fractions import Fraction
    return [Fraction(v) for v in entries]


def support(f: Functional) -> float:
    """Maximum of ``f·c`` over ``Q`` (positively homogeneous, support(0)=0)."""
    if max(abs(v) for v in f.as_tuple()) == 0.0:
        return 0.0
    return quantum_case(f).phi


def gauge(c: Correlation) -> float:
    """Gauge (Minkowski functional) of ``Q`` at ``c``.

    Self-duality turns the gauge of ``Q`` into the support of ``Q°``,
    giving ``gauge(c) = support(½·H·c)``; points of ``Q`` are exactly
    those with gauge at most 1.  A point whose ``½·H·c`` leaves the float
    range raises :class:`ConsistencyError`.
    """
    half_hc = dual_transform(c.as_tuple(), TransformDirection.TO_DUAL)
    if not all(map(math.isfinite, half_hc)):
        raise ConsistencyError(f"Hc/2 overflows the float range: {half_hc!r}")
    return support(Functional(*half_hc))


def dual_member(f: Functional) -> MembershipVerdict:
    """Decide ``f ∈ Q°`` as ``2Hf ∈ Q`` by the ``SEMIALG`` oracle.

    That verdict and the support test ``support(f) ≤ 1`` must agree
    outside a 1e-8 band around the boundary.  A functional whose ``2Hf``
    leaves the float range raises :class:`ConsistencyError`.
    """
    two_hf = dual_transform(f.as_tuple(), TransformDirection.FROM_DUAL)
    if not all(map(math.isfinite, two_hf)):
        raise ConsistencyError(f"2Hf overflows the float range: {two_hf!r}")
    verdict = member(Correlation(*two_hf))
    s = support(f)
    if (s <= 1.0) != verdict.inside:
        if abs(s - 1.0) > 1e-8 and abs(verdict.margin) > 1e-8:
            raise ConsistencyError(
                f"support route ({s!r}) and primal route "
                f"(margin {verdict.margin!r}) disagree")
    return verdict


# ---------------------------------------------------------------------------
# Dual matrix completion
# ---------------------------------------------------------------------------

_BALANCE_TOL = 1e-10  # how far a certificate diagonal may sum from 2


@dataclass(frozen=True)
class DualCompletion(_Certificate):
    """Diagonal certificate for ``f ∈ Q°`` with balanced row sums."""

    f: Functional
    p1: float
    p2: float
    p3: float
    p4: float

    def __post_init__(self) -> None:
        total = self.p1 + self.p2 + self.p3 + self.p4
        if abs(total - 2.0) > _BALANCE_TOL:
            raise ValueError(f"diagonal sum {total!r} != 2")

    def rows(self) -> tuple[tuple[float, ...], ...]:
        f11, f12, f21, f22 = self.f.as_tuple()
        return ((self.p1, 0.0, -f11, -f12),
                (0.0, self.p2, -f21, -f22),
                (-f11, -f21, self.p3, 0.0),
                (-f12, -f22, 0.0, self.p4))


@dataclass(frozen=True)
class DualCompletionResult:
    """The certificate together with ``support(f)`` and a maximizer ``c*``."""

    feasible: bool
    witness: DualCompletion
    support: float
    maximizer: Correlation


def _quantum_maximizer(f: tuple) -> tuple[float, ...]:
    """``c* = ∇ sqrt(k/p) = (∇k - s²·∇p) / (2·s·p)`` on the nonclassical
    branch, with ``k = A·B·C`` and ``∂p/∂f_i`` the product of the other
    three entries.  Where ``k`` or ``p`` underflows, in exact arithmetic."""
    f11, f12, f21, f22 = f
    a = f11 * f22 - f12 * f21
    b = f11 * f12 - f21 * f22
    c = f11 * f21 - f12 * f22
    k, p = a * b * c, f11 * f12 * f21 * f22
    if isinstance(p, float) and min(abs(k), abs(p)) < sys.float_info.min:
        return _quantum_maximizer(_exact(f))
    dk = (f22 * b * c + f12 * a * c + f21 * a * b,
          -f21 * b * c + f11 * a * c - f22 * a * b,
          -f12 * b * c - f22 * a * c + f11 * a * b,
          f11 * b * c - f21 * a * c - f12 * a * b)
    dp = (f12 * f21 * f22, f11 * f21 * f22, f11 * f12 * f22, f11 * f12 * f21)
    s2 = k / p
    return tuple(float((dki - s2 * dpi) / (2 * p)) / math.sqrt(s2)
                 for dki, dpi in zip(dk, dp))


def dual_completion(f: Functional,
                    tol: Tolerance = DEFAULT_TOLERANCE) -> DualCompletionResult:
    """The dual certificate that complementary slackness forces at the
    maximizer ``c*`` of ``f`` (see the module docstring); ``c*`` is the
    even vertex on the classical branch, ``∇ sqrt(k/p)`` otherwise.

    ``p1`` and ``p3`` sum ``f11·c11*``, ``f12·c12*`` (``f21·c21*``) and
    ``(1-s)/2`` with ``|c*_ij| ≤ 1``, so rounding leaves them within
    ``8·ε·(|f11| + max(|f12|, |f21|) + (1+s)/2)``, ``ε = 2^-52`` (errors
    against 60-digit ``mpmath`` stayed under half of that).  Raises
    :class:`ConsistencyError` when it exceeds the 1e-10 balance tolerance
    (entries of order 1e4 and up): ``p2 = 1 - p1`` would still balance.
    """
    entries = f.as_tuple()
    s, c_star = 0.0, (0.0, 0.0, 0.0, 0.0)  # zero functional: s = 0 at 0
    if max(abs(v) for v in entries) > 0.0:
        verdict = quantum_case(f)
        s = verdict.phi
        # c* is of degree 0 in f, so the scaled entries give it unchanged
        c_star = _quantum_maximizer(_normalized(entries)[0]) \
            if verdict.quantum_case else verdict.vertex
    p1 = entries[0] * c_star[0] + entries[1] * c_star[1] + 0.5 * (1.0 - s)
    p3 = entries[0] * c_star[0] + entries[2] * c_star[2] + 0.5 * (1.0 - s)
    bound = 8.0 * sys.float_info.epsilon * (
        abs(entries[0]) + max(abs(entries[1]), abs(entries[2]))
        + 0.5 * (1.0 + s))
    if bound > _BALANCE_TOL:
        raise ConsistencyError(
            f"the certificate diagonal cannot be balanced in floating point: "
            f"p1 = {p1!r} and p3 = {p3!r} are known only to {bound:.1e}")
    witness = DualCompletion(f=f, p1=p1, p2=1.0 - p1, p3=p3, p4=1.0 - p3)
    return DualCompletionResult(feasible=witness.is_psd(tol), witness=witness,
                                support=s, maximizer=Correlation(*c_star))


# ---------------------------------------------------------------------------
# The involutive self-map of the parameter tetrahedron
# ---------------------------------------------------------------------------

def phi_map(t: AngleTuple) -> AngleTuple:
    """Map exposed-point angles to the angles of the dual exposed point.

    Defined on the prototype tetrahedron T: alpha, beta, gamma in (0, π)
    with alpha+beta+gamma in (0, π) and delta their negated sum within the
    tuple's own ``t.eps``, which the image carries.  The image is the
    angle tuple of ``2H·f`` where ``f`` is the exposing functional; arccos
    branches are chosen to stay inside T, which makes the map an
    involution.
    """
    alpha, beta, gamma, delta = t.as_tuple()
    eps = t.eps
    inside = (0.0 < alpha < math.pi and 0.0 < beta < math.pi
              and 0.0 < gamma < math.pi
              and 0.0 < alpha + beta + gamma < math.pi)
    if not inside or abs(delta + (alpha + beta + gamma)) > eps:
        raise OutsideTetrahedron(
            "angles must satisfy alpha, beta, gamma, alpha+beta+gamma in (0, pi) "
            "with delta = -(alpha+beta+gamma)")

    image = _dual_image(t)
    # delta may miss -(alpha+beta+gamma) by up to eps, and the image moves
    # with it; the checks run on the image of the tuple with delta
    # re-derived, so that their bounds cover arithmetic alone
    exact = -(alpha + beta + gamma)
    checked = image if delta == exact else _dual_image(
        AngleTuple(alpha, beta, gamma, exact, eps=eps))
    if max(abs(v) for v in checked) > 1.0 + 1e-9:
        raise ConsistencyError(f"dual image {checked!r} left the cube")
    a2, b2, g2, d2 = _arccos(checked)
    total = a2 + b2 + g2
    if abs(total - d2) > 1e-8 or not total < math.pi:
        raise ConsistencyError("arccos branches do not close up inside T")
    a2, b2, g2, _ = _arccos(image)
    return AngleTuple(a2, b2, g2, -(a2 + b2 + g2), eps=eps)


def _dual_image(t: AngleTuple) -> tuple[float, ...]:
    """``2H·f`` for the exposing functional ``f`` of ``t``."""
    f = exposing_functional(t)
    return dual_transform(f.as_tuple(), TransformDirection.FROM_DUAL)


def _arccos(image: tuple[float, ...]) -> list[float]:
    return [math.acos(min(1.0, max(-1.0, v))) for v in image]


# ---------------------------------------------------------------------------
# Normal-cycle residuals
# ---------------------------------------------------------------------------

NCYCLE_RESIDUAL_NAMES: tuple[str, ...] = (
    "incidence",        # c·f - 1
    "h_primal",         # h(c)
    "h_polar",          # k(f) - p(f)
    "gen_01", "gen_02", "gen_03", "gen_04", "gen_05", "gen_06", "gen_07",
    "gen_08", "gen_09", "gen_10", "gen_11", "gen_12", "gen_13", "gen_14",
    "dual_gen_01",      # gen_01 at the reflected pair (2Hf, ½Hc)
    "dual_gen_02",      # gen_02 at the reflected pair
    "dual_gen_09",      # gen_09 at the reflected pair
)


def _ideal_generators(c: tuple[float, ...], f: tuple[float, ...]
                      ) -> list[float]:
    c11, c12, c21, c22 = c
    f11, f12, f21, f22 = f
    return [
        c11**2 * f11**2 - c22**2 * f22**2 - f11**2 + f22**2,

        c21 * f11 * f12 * f21 + c22 * f11 * f12 * f22
        + c11 * f11 * f21 * f22 + c12 * f12 * f21 * f22,

        c11**2 * f11 * f12 - c21**2 * f21 * f22 - c12 * c21 * f12 * f22
        + c11 * c22 * f12 * f22 - f11 * f12 + f21 * f22,

        c11**2 * f11 * f21 - c12**2 * f12 * f22 - c12 * c21 * f21 * f22
        + c11 * c22 * f21 * f22 - f11 * f21 + f12 * f22,

        c12**2 * f11 * f12 - c21**2 * f21 * f22 - c11 * c21 * f11 * f22
        + c12 * c22 * f11 * f22 - f11 * f12 + f21 * f22,

        c12**2 * f12 * f21 - c11**2 * f11 * f22 - c11 * c21 * f21 * f22
        + c12 * c22 * f21 * f22 - f12 * f21 + f11 * f22,

        c21**2 * f11 * f21 - c12**2 * f12 * f22 - c11 * c12 * f11 * f22
        + c21 * c22 * f11 * f22 - f11 * f21 + f12 * f22,

        c21**2 * f12 * f21 - c11**2 * f11 * f22 - c11 * c12 * f12 * f22
        + c21 * c22 * f12 * f22 - f12 * f21 + f11 * f22,

        (c11 * c12**2 + c11 * c21**2 + c11 * c22**2
         - 2.0 * c12 * c21 * c22) * f11
        + c12**3 * f12 + c21**3 * f21 + c22**3 * f22 - 1.0,

        c11 * c12 * f12 * f21 - c21 * c22 * f12 * f21 + c12 * c21 * f21 * f22
        - c11 * c22 * f21 * f22 + c12**2 * f12 * f22 - c22**2 * f12 * f22,

        c12 * c21 * f11 * f21 - c11 * c22 * f11 * f21 + c11 * c21 * f11 * f22
        - c12 * c22 * f11 * f22 + c21**2 * f21 * f22 - c22**2 * f21 * f22,

        c12 * c21 * f11 * f12 - c11 * c22 * f11 * f12 + c11 * c12 * f11 * f22
        - c21 * c22 * f11 * f22 + c12**2 * f12 * f22 - c22**2 * f12 * f22,

        (c12**3 - c11**2 * c12 - c12 * c21**2 - c12 * c22**2
         + 2.0 * c11 * c21 * c22) * f12
        - (c22**3 - c11**2 * c22 - c12**2 * c22 - c21**2 * c22
           + 2.0 * c11 * c12 * c21) * f22,

        (c21**3 - c11**2 * c21 - c12**2 * c21 - c21 * c22**2
         + 2.0 * c11 * c12 * c22) * f21
        - (c22**3 - c11**2 * c22 - c12**2 * c22 - c21**2 * c22
           + 2.0 * c11 * c12 * c21) * f22,
    ]


def ncycle_residuals(c: Correlation, f: Functional) -> tuple[float, ...]:
    """Evaluate the 20 incidence-variety residuals at ``(c, f)``.

    All vanish simultaneously exactly on the closure of the stratum of
    incident exposed-extreme pairs.  Slots follow
    :data:`NCYCLE_RESIDUAL_NAMES`: the incidence form, the two boundary
    sextics, the 14 remaining prime-ideal generators, and three of those
    generators re-evaluated at the duality-reflected pair (which lies on
    the same stratum, so they vanish there too).  A residual that leaves
    the float range raises :class:`ConsistencyError`.
    """
    ct, ft = c.as_tuple(), f.as_tuple()
    try:
        refl = _ideal_generators(
            dual_transform(ft, TransformDirection.FROM_DUAL),
            dual_transform(ct, TransformDirection.TO_DUAL))
        residuals = (_fold_sum(a * b for a, b in zip(ct, ft)) - 1.0, _h(*ct),
                     _h_polar(*ft), *_ideal_generators(ct, ft),
                     refl[0], refl[1], refl[8])
    except OverflowError:  # float ** raises where float * gives inf
        residuals = (math.inf,)
    if not all(map(math.isfinite, residuals)):
        raise ConsistencyError(
            "the normal-cycle residuals overflow the float range")
    return residuals
