"""The paper's identities, checked exactly on the library's own kernels.

The polynomial kernels of ``qbody.core`` use only ``+ - *`` and dyadic
literals, so they run unchanged on ``sympy`` symbols, and
``nsimplify(..., rational=True)`` makes the result exact.  Each identity
is a function of the kernels as ``qbody.core`` holds them at call time;
each is shown to fail once one sign in the source of a kernel is flipped.
"""

import inspect
import textwrap
from itertools import product

import pytest

sympy = pytest.importorskip("sympy")

from qbody import core  # noqa: E402

C = sympy.symbols("c11 c12 c21 c22", real=True)


def _exact(expr):
    return sympy.expand(sympy.nsimplify(expr, rational=True))


def h_forms_agree():
    """The product form of ``h`` and ``4·Π(1 - c²) - g²`` are one
    polynomial."""
    return _exact(core._h(*C) - core._h_squared(*C)) == 0


def polar_of_half_h_is_h():
    """Self-duality of the defining polynomials: ``h°(½H·c) = h(c)/256``."""
    half_h = [y / 4 for y in core._two_h(*C)]
    return _exact(core._h_polar(*half_h) - core._h(*C) / 256) == 0


def h_vanishes_on_the_angles():
    """``h`` is 0 on the trigonometric parametrization of the extreme
    points, ``c = cos(a, b, d, a + b + d)``: ``fu`` leaves cosines of
    multiple angles, which ``expand_trig`` cancels."""
    a, b, d = sympy.symbols("a b d", real=True)
    h = core._h(sympy.cos(a), sympy.cos(b), sympy.cos(d),
                sympy.cos(a + b + d))
    h = sympy.fu(sympy.expand(sympy.nsimplify(h, rational=True)))
    return sympy.expand(sympy.expand_trig(h)) == 0


def q_is_the_even_chsh_product():
    """``q`` is the product of the four even CHSH sums, the sign patterns
    with ``s11 = 1`` and an even count of ``-1``."""
    even = [(1,) + s for s in product((1, -1), repeat=3)
            if s[0] * s[1] * s[2] == 1]
    sums = [sum(si * ci for si, ci in zip(s, C)) for s in even]
    return _exact(core._q(*C) - sympy.Mul(*sums)) == 0


def two_h_squared_is_four():
    """``2H`` applied twice is ``4·I``, as ``H² = 1``."""
    twice = core._two_h(*core._two_h(*C))
    return all(_exact(y - 4 * c) == 0 for y, c in zip(twice, C))


def _mutant(kernel, old, new):
    """``kernel`` rebuilt with the first ``old`` of its source read ``new``."""
    source = textwrap.dedent(inspect.getsource(kernel))
    assert old in source
    namespace = dict(vars(core))
    exec(source.replace(old, new, 1), namespace)
    return namespace[kernel.__name__]


# each identity with the kernel it rests on and one sign flip in it
IDENTITIES = [
    (h_forms_agree, "_h_squared", "- g * g", "+ g * g"),
    (polar_of_half_h_is_h, "_h_polar", "- f11", "+ f11"),
    (h_vanishes_on_the_angles, "_h", "sextic -= quartic",
     "sextic += quartic"),
    (q_is_the_even_chsh_product, "_q", "f11 - f12 + f21 - f22",
     "f11 - f12 + f21 + f22"),
    (two_h_squared_is_four, "_two_h", "d02 - d13", "d02 + d13"),
]


@pytest.mark.parametrize("identity", [row[0] for row in IDENTITIES],
                         ids=lambda f: f.__name__)
def test_identity_holds(identity):
    assert identity()


@pytest.mark.parametrize("identity, name, old, new", IDENTITIES,
                         ids=[row[0].__name__ for row in IDENTITIES])
def test_identity_fails_on_a_sign_mutant(identity, name, old, new,
                                          monkeypatch):
    monkeypatch.setattr(core, name, _mutant(getattr(core, name), old, new))
    assert not identity()
