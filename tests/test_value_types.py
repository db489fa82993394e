"""The value types with a written ``__init__`` behave as generated ones do.

Their field lists are written twice, in the class body and in the
``__init__`` signature, and their checks are written out by hand; these
tests hold both to the generated dataclass behaviour.
"""

import copy
import dataclasses
import inspect
import math
import pickle

import pytest

from qbody import (
    AngleSumViolation,
    AngleTuple,
    Correlation,
    Functional,
    build_model,
    dual_polys,
    extreme_from_angles,
    member,
    primal_polys,
    quantum_case,
    solve_completion,
)
from qbody.boundary import Completion, CompletionResult, ExtremePoint
from qbody.core import DualPolys, PrimalPolys
from qbody.duality import CaseVerdict
from qbody.membership import MembershipVerdict
from qbody.quantum import QuantumModel


def _instances():
    """One instance of each written type, new on every call, built by
    the library's own calls."""
    c = Correlation(0.3, 0.2, 0.1, -0.4)
    f = Functional(0.3, 0.4, 0.2, -0.5)
    t = AngleTuple(0.3, 0.4, 0.5, -1.2, eps=1e-6)
    return [c, f, t, primal_polys(c), dual_polys(f), member(c),
            solve_completion(c).witness, solve_completion(c),
            extreme_from_angles(t), quantum_case(f), build_model(t)]


WRITTEN = [Correlation, Functional, AngleTuple, PrimalPolys, DualPolys,
           MembershipVerdict, Completion, CompletionResult, ExtremePoint,
           CaseVerdict, QuantumModel]


def test_instances_cover_every_written_type():
    assert [type(x) for x in _instances()] == WRITTEN


@pytest.mark.parametrize("cls", WRITTEN, ids=lambda cls: cls.__name__)
def test_written_init_matches_the_fields(cls):
    assert cls.__dataclass_params__.frozen
    assert not cls.__dataclass_params__.init
    fields = [f for f in dataclasses.fields(cls) if f.init]
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == [f.name for f in fields]
    for p, f in zip(params, fields):
        assert p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        assert f.default_factory is dataclasses.MISSING
        expected = (inspect.Parameter.empty if f.default is dataclasses.MISSING
                    else f.default)
        assert p.default == expected


@pytest.mark.parametrize("i", range(len(WRITTEN)),
                         ids=[cls.__name__ for cls in WRITTEN])
class TestParity:
    def test_frozen(self, i):
        x = _instances()[i]
        name = dataclasses.fields(x)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, name, 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(x, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            x.extra = 0.0

    def test_copies_are_equal(self, i):
        x = _instances()[i]
        assert dataclasses.replace(x) == x
        assert _rebuilt(x, dataclasses.asdict(x)) == x
        assert copy.copy(x) == x
        assert pickle.loads(pickle.dumps(x)) == x

    def test_equal_instances_hash_equal(self, i):
        x, y = _instances()[i], _instances()[i]
        assert x is not y and x == y
        assert hash(x) == hash(y)

    def test_positional_and_keyword_construction_agree(self, i):
        x = _instances()[i]
        values = [getattr(x, f.name) for f in dataclasses.fields(x)]
        by_name = {f.name: v for f, v in zip(dataclasses.fields(x), values)}
        assert type(x)(*values) == type(x)(**by_name) == x


def _rebuilt(like, data: dict):
    """The instance of ``type(like)`` that ``dataclasses.asdict`` gave
    ``data``, rebuilding the nested value types that ``like`` holds."""
    return type(like)(**{
        name: (_rebuilt(getattr(like, name), value)
               if dataclasses.is_dataclass(getattr(like, name)) else value)
        for name, value in data.items()})


def test_reprs():
    assert repr(Correlation(0.1, 0.2, 0.3, 0.4)) \
        == "Correlation(c11=0.1, c12=0.2, c21=0.3, c22=0.4)"
    assert repr(AngleTuple(0.3, 0.4, 0.5, -1.2, eps=1e-6)) \
        == "AngleTuple(alpha=0.3, beta=0.4, gamma=0.5, delta=-1.2)"


@pytest.mark.parametrize("cls", [Correlation, Functional, AngleTuple],
                         ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entry_named(cls, position, bad):
    values = [0.0] * 4
    values[position] = bad
    with pytest.raises(ValueError) as info:
        cls(*values)
    assert str(info.value) \
        == f"{cls.__name__} entries must be finite, got {bad!r}"


@pytest.mark.parametrize("cls", [Correlation, Functional, AngleTuple],
                         ids=lambda cls: cls.__name__)
def test_first_non_finite_entry_named(cls):
    with pytest.raises(ValueError, match="got inf$"):
        cls(0.0, math.inf, math.nan, -math.inf)


def test_angle_checks_in_order():
    # finiteness before eps, eps before the angle sum
    with pytest.raises(ValueError, match="must be finite"):
        AngleTuple(math.nan, 0.0, 0.0, 9.0, eps=-1.0)
    with pytest.raises(ValueError, match="eps must be positive"):
        AngleTuple(0.0, 0.0, 0.0, 9.0, eps=-1.0)
    with pytest.raises(AngleSumViolation):
        AngleTuple(0.0, 0.0, 0.0, 9.0, eps=1e-9)
