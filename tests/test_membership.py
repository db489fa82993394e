import itertools

import numpy as np
import pytest

from qbody import (
    Body,
    ConsistencyError,
    Correlation,
    InputOutsideCube,
    Oracle,
    PushDirection,
    SamplerConfig,
    Tolerance,
    chsh_values,
    mc_volume,
    member,
    member_classical,
    pushout,
    solve_completion,
)
from qbody import boundary, membership
from qbody.cli import main
from qbody.core import _Floats
from qbody.membership import (
    _BLOCK_ROWS,
    _MARGINS,
    _classical,
    classical_margin_batch,
    margin_batch,
)

from helpers import (CHSH_POINT, SQRT2, boundary_cl_points,
                     completion_points, random_symmetry)


class TestPushout:
    def test_origin_fixed(self):
        assert pushout(Correlation(0, 0, 0, 0), PushDirection.FORWARD) \
            == Correlation(0, 0, 0, 0)

    def test_half_cube_point(self):
        image = pushout(Correlation(0.5, 0.5, 0.5, -0.5), PushDirection.FORWARD)
        assert np.allclose(image.as_array(), CHSH_POINT.as_array(), atol=1e-15)

    def test_vertex_fixed(self):
        image = pushout(Correlation(1, 1, 1, 1), PushDirection.FORWARD)
        assert image == Correlation(1, 1, 1, 1)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            c = Correlation.from_sequence(rng.uniform(-1, 1, size=4))
            back = pushout(pushout(c, PushDirection.FORWARD),
                           PushDirection.INVERSE)
            assert np.abs(back.as_array() - c.as_array()).max() < 1e-12

    def test_rejects_points_outside_cube(self):
        with pytest.raises(InputOutsideCube):
            pushout(Correlation(1.1, 0, 0, 0), PushDirection.FORWARD)


class TestMemberClassical:
    def test_vertex_on_boundary(self):
        verdict = member_classical(Correlation(1, 1, 1, 1))
        assert verdict.inside
        assert verdict.margin == 0.0

    def test_maximal_violation_outside(self):
        verdict = member_classical(CHSH_POINT)
        assert not verdict.inside
        assert verdict.margin == pytest.approx(1 - SQRT2, abs=1e-12)

    def test_origin_deepest(self):
        verdict = member_classical(Correlation(0, 0, 0, 0))
        assert verdict.inside
        assert verdict.margin == 1.0


class TestMember:
    @pytest.mark.parametrize("oracle", list(Oracle))
    def test_boundary_point_all_oracles(self, oracle):
        verdict = member(CHSH_POINT, oracle)
        assert abs(verdict.margin) < 1e-12

    @pytest.mark.parametrize("oracle", list(Oracle))
    def test_nonquantum_box_outside(self, oracle):
        assert not member(Correlation(1, 1, 1, -1), oracle).inside

    @pytest.mark.parametrize("oracle", list(Oracle))
    def test_origin_inside(self, oracle):
        verdict = member(Correlation(0, 0, 0, 0), oracle)
        assert verdict.inside and verdict.margin > 0.5

    @pytest.mark.parametrize("oracle", list(Oracle))
    def test_scaled_boundary_point_strictly_inside(self, oracle):
        c = Correlation.from_sequence(0.99 * CHSH_POINT.as_array())
        verdict = member(c, oracle)
        assert verdict.inside and verdict.margin > 0.0


class TestOracleConsistency:
    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(17)
        pts = rng.uniform(-1.2, 1.2, size=(2 * _BLOCK_ROWS + 3, 4))
        rows = [Correlation.from_sequence(p) for p in pts]
        for oracle in Oracle:
            margins = margin_batch(pts, oracle)
            verdicts = [member(c, oracle) for c in rows]
            scalar = np.array([v.margin for v in verdicts])
            if oracle is Oracle.PUSHOUT:
                # math.asin and numpy's arcsin differ in the last bit on
                # some inputs; (2/pi)·asin then moves an inverse coordinate
                # by at most spacing(1.0), and a half-sum of four of them
                # by at most twice that
                assert np.abs(margins - scalar).max() <= 2 * np.spacing(1.0)
            else:
                assert margins.tobytes() == scalar.tobytes()
            assert ((margins >= 0) == [v.inside for v in verdicts]).all()
        scalar = np.array([member_classical(c).margin for c in rows])
        assert classical_margin_batch(pts).tobytes() == scalar.tobytes()

    def test_arcsin_differs_by_at_most_one_ulp(self):
        v = np.random.default_rng(19).uniform(-1.0, 1.0, size=20000)
        batch = np.arcsin(v)
        scalar = np.array([_Floats.arcsin(x) for x in v])
        assert (np.abs(batch - scalar) <= np.spacing(np.abs(scalar))).all()

    def test_inclusion_chain(self):
        rng = np.random.default_rng(23)
        pts = rng.uniform(-1, 1, size=(20000, 4))
        classical = classical_margin_batch(pts) >= 0
        quantum = margin_batch(pts, Oracle.SEMIALG) >= 0
        cube = np.abs(pts).max(axis=1) <= 1
        assert (quantum[classical]).all()      # CL inside Q
        assert (cube[quantum]).all()           # Q inside N

    def test_symmetry_equivariance(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            c = rng.uniform(-1, 1, size=4)
            S = random_symmetry(rng)
            a = member(Correlation.from_sequence(c), Oracle.SEMIALG)
            b = member(Correlation.from_sequence(S @ c), Oracle.SEMIALG)
            assert a.inside == b.inside
            assert a.margin == pytest.approx(b.margin, abs=1e-12)

    def test_classical_polytope_is_chsh_cap(self):
        # max of the odd-signed combinations <= 1 exactly characterizes CL
        # inside the cube
        rng = np.random.default_rng(31)
        for _ in range(500):
            c = Correlation.from_sequence(rng.uniform(-1, 1, size=4))
            assert member_classical(c).inside == (max(chsh_values(c)) <= 1.0)


class TestHugeRows:
    # 9⁴ = 6,561 rows, most with entries whose products overflow
    VALUES = (0.0, 0.5, -1.0, 2.0, 1e155, -1e155, 1e200, 1e300, -1e300)

    def test_batch_sign_matches_scalar(self):
        pts = np.array(list(itertools.product(self.VALUES, repeat=4)))
        rows = [Correlation.from_sequence(p) for p in pts]
        # a NaN margin counts as negative, as margin >= 0 reads it
        for oracle in Oracle:
            scalar = [member(c, oracle).margin >= 0.0 for c in rows]
            assert ((margin_batch(pts, oracle) >= 0.0) == scalar).all()
        scalar = [member_classical(c).margin >= 0.0 for c in rows]
        assert ((classical_margin_batch(pts) >= 0.0) == scalar).all()


class TestBlocks:
    R = _BLOCK_ROWS

    @pytest.mark.parametrize("n", [1, R - 1, R, R + 1, 3 * R + 5])
    def test_margins_match_unblocked_kernel(self, n):
        pts = np.random.default_rng(n).uniform(-1.2, 1.2, size=(n, 4))
        for oracle in Oracle:
            unblocked = _MARGINS[oracle](*pts.T, np)
            assert margin_batch(pts, oracle).tobytes() == unblocked.tobytes()
        assert classical_margin_batch(pts).tobytes() \
            == _classical(*pts.T, np).tobytes()

    def test_mc_volume_matches_unblocked_kernel(self):
        from qbody.core import _g
        from qbody.measures import _BLOCK, _block_rng
        seed, samples = 5, 100003          # 100003 = 65536 + 4·8192 + 1699
        unblocked = {
            Body.Q: lambda p: _MARGINS[Oracle.SEMIALG](*p.T, np),
            Body.CL: lambda p: _classical(*p.T, np),
            Body.ELLIPTOPE3: lambda p: _g(*p.T, 1.0),
        }
        for body, kernel in unblocked.items():
            dim = 3 if body is Body.ELLIPTOPE3 else 4
            hits = 0
            for block, start in enumerate(range(0, samples, _BLOCK)):
                n = min(_BLOCK, samples - start)
                pts = _block_rng(seed, block).uniform(-1.0, 1.0, size=(n, dim))
                hits += int((kernel(pts) >= 0.0).sum())
            est = mc_volume(body, SamplerConfig(seed=seed, samples=samples))
            assert est.fraction == hits / samples


class TestBoundaryTransport:
    def test_classical_boundary_maps_to_quantum_boundary(self):
        rng = np.random.default_rng(37)
        for c in boundary_cl_points(rng, 1000):
            assert abs(member_classical(c).margin) < 1e-12
            image = pushout(c, PushDirection.FORWARD)
            assert abs(member(image, Oracle.SEMIALG).margin) < 1e-7

    def test_exactly_one_violated_combination_off_polytope(self):
        rng = np.random.default_rng(41)
        count = 0
        while count < 2000:
            c = Correlation.from_sequence(rng.uniform(-1, 1, size=4))
            vals = chsh_values(c)
            if max(vals) <= 1.0:
                continue
            count += 1
            assert sum(1 for v in vals if v > 1.0) == 1


class TestToleranceShell:
    def test_completion_oracle_near_cube_shell(self):
        # points a fraction of eps outside the cube must not trip the
        # solver/margin consistency check (quadratic vs linear slack shapes)
        verdict = member(Correlation(1 + 7.5e-10, 0.0, 0.9, 0.0),
                         Oracle.COMPLETION)
        assert not verdict.inside
        rng = np.random.default_rng(131)
        for _ in range(5000):
            base = rng.uniform(-1, 1, size=4)
            i = int(rng.integers(0, 4))
            sign = 1.0 if base[i] >= 0 else -1.0
            base[i] = sign * (1.0 + rng.uniform(-2e-9, 2e-9))
            member(Correlation.from_sequence(base), Oracle.COMPLETION)


class TestCompletionVerdict:
    @pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-6])
    def test_inside_is_solver_feasibility(self, eps):
        tol = Tolerance(eps_boundary=eps, eps_psd=min(eps, 1e-10))
        points = completion_points(np.random.default_rng(14), 20000)
        for c in points:
            assert member(c, Oracle.COMPLETION, tol).inside \
                == solve_completion(c, tol).feasible, c

    def test_semialg_cross_check_can_raise(self, monkeypatch):
        semialg = membership._semialg
        monkeypatch.setattr(membership, "_semialg",
                            lambda *args: -semialg(*args))
        for c in (Correlation(0, 0, 0, 0), Correlation(1.2, 0, 0, 0)):
            with pytest.raises(ConsistencyError, match="semialgebraic"):
                member(c, Oracle.COMPLETION)
        # inside the band the signs may differ: no check is made there
        member(Correlation(1.0, 0.0, 0.0, 0.0), Oracle.COMPLETION)

    def test_makes_no_solver_call(self, monkeypatch, capsys):
        calls = []
        solve = boundary.solve_completion
        monkeypatch.setattr(boundary, "solve_completion",
                            lambda *args: calls.append(args) or solve(*args))
        for c in (CHSH_POINT, Correlation(0, 0, 0, 0),
                  Correlation(1.2, 0, 0, 0)):
            member(c, Oracle.COMPLETION)
        assert main(["member", "--point", "[0.1,0.2,0.3,0.4]",
                     "--oracle", "all"]) == 0
        capsys.readouterr()
        assert calls == []
