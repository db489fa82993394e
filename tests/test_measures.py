import io
import math
import sys
import threading
from itertools import product

import numpy as np
import pytest

from qbody import (
    Body,
    ConsistencyError,
    Correlation,
    InvalidSlice,
    Oracle,
    SampleTarget,
    SamplerConfig,
    SliceSpec,
    SliceTable,
    Stratum,
    classify,
    mc_volume,
    member,
    member_classical,
    primal_polys,
    sample,
    slice_grid,
)
from qbody import measures
from qbody.core import _g
from qbody.membership import classical_margin_batch, margin_batch
from qbody.measures import (
    EXACT_CL_FRACTION,
    EXACT_ELLIPTOPE_FRACTION,
    EXACT_Q_FRACTION,
    VolumeEstimate,
    write_csv,
)

from helpers import face_of, group_matrices


class TestMcVolume:
    def test_quantum_fraction(self):
        est = mc_volume(Body.Q, SamplerConfig(seed=42, samples=200000))
        assert abs(est.fraction - EXACT_Q_FRACTION) < 3 * est.stderr

    def test_classical_fraction(self):
        est = mc_volume(Body.CL, SamplerConfig(seed=42, samples=200000))
        assert abs(est.fraction - EXACT_CL_FRACTION) < 3 * est.stderr

    def test_elliptope_fraction(self):
        est = mc_volume(Body.ELLIPTOPE3, SamplerConfig(seed=42, samples=200000))
        assert abs(est.fraction - EXACT_ELLIPTOPE_FRACTION) < 3 * est.stderr

    def test_deterministic_and_worker_invariant(self):
        a = mc_volume(Body.Q, SamplerConfig(seed=5, samples=100000))
        b = mc_volume(Body.Q, SamplerConfig(seed=5, samples=100000))
        assert a == b

    def test_monotone_fractions(self):
        cfg = SamplerConfig(seed=8, samples=100000)
        assert mc_volume(Body.CL, cfg).fraction \
            <= mc_volume(Body.Q, cfg).fraction <= 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(seed=-1, samples=10)
        with pytest.raises(ValueError):
            SamplerConfig(seed=0, samples=0)


def _volume_reference(body: Body, cfg: SamplerConfig) -> VolumeEstimate:
    """``mc_volume`` as serial margins: each 65,536-draw block from its own
    stream in turn, every nonnegative margin a hit."""
    dim = 3 if body is Body.ELLIPTOPE3 else 4
    hits = 0
    for block, start in enumerate(range(0, cfg.samples, 65536)):
        n = min(65536, cfg.samples - start)
        pts = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            cfg.seed, spawn_key=(block,)))).uniform(-1.0, 1.0, size=(n, dim))
        if body is Body.Q:
            margin = margin_batch(pts, Oracle.SEMIALG)
        elif body is Body.CL:
            margin = classical_margin_batch(pts)
        else:
            margin = _g(*pts.T, 1.0)
        hits += int((margin >= 0.0).sum())
    fraction = hits / cfg.samples
    return VolumeEstimate(
        fraction, math.sqrt(fraction * (1.0 - fraction) / cfg.samples))


class TestMcVolumeCounts:
    @pytest.mark.parametrize("samples", [1, 65535, 65536, 65537,
                                         3 * 65536 + 5])
    @pytest.mark.parametrize("body", list(Body), ids=lambda b: b.value)
    def test_equals_serial_margins(self, body, samples):
        for seed in (0, 7, 2 ** 64 - 1):
            cfg = SamplerConfig(seed=seed, samples=samples)
            got, want = mc_volume(body, cfg), _volume_reference(body, cfg)
            assert got.fraction == want.fraction
            assert got.stderr == want.stderr

    def _raises_and_joins(self, monkeypatch, fails):
        """``mc_volume`` on 3 blocks with ``_count_inside`` raising where
        ``fails(pts)`` holds: the caller gets that exception, and no
        thread outlives the call."""
        count_inside = measures._count_inside
        error = ZeroDivisionError("injected")

        def failing(body, pts):
            if fails(pts):
                raise error
            return count_inside(body, pts)

        monkeypatch.setattr(measures, "_count_inside", failing)
        before = threading.active_count()
        with pytest.raises(ZeroDivisionError) as raised:
            mc_volume(Body.Q, SamplerConfig(seed=3, samples=3 * 65536))
        assert raised.value is error
        assert threading.active_count() == before

    def test_failing_block_reaches_caller(self, monkeypatch):
        block_one = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            3, spawn_key=(1,)))).uniform(-1.0, 1.0, size=(65536, 4))
        self._raises_and_joins(
            monkeypatch, lambda pts: np.array_equal(pts, block_one))

    def test_concurrent_callers_under_fast_switching(self):
        # six callers on two cores, switching every microsecond: counts
        # mixed between calls change some caller's result
        cfg = SamplerConfig(seed=11, samples=5 * 65536 + 3)
        want = {body: _volume_reference(body, cfg) for body in Body}
        got = []
        callers = [threading.Thread(
            target=lambda body=body: got.append((body, mc_volume(body, cfg))))
            for body in list(Body) * 2]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert len(got) == len(callers)
        assert all(estimate == want[body] for body, estimate in got)

    def test_many_blocks_start_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        cfg = SamplerConfig(seed=3, samples=3 * 65536 + 5)
        assert mc_volume(Body.CL, cfg) == _volume_reference(Body.CL, cfg)


class TestExactVolume:
    def test_closed_form_and_jacobian_cross_check(self):
        value = EXACT_Q_FRACTION
        assert value == pytest.approx(0.9252754126, abs=1e-9)
        assert value == 3.0 * math.pi ** 2 / 32.0
        # quasi-Monte-Carlo integral of the pushout Jacobian
        # prod (pi/2)·cos(pi·x_ij/2) over the classical polytope
        from scipy.stats import qmc
        pts = 2.0 * qmc.Sobol(d=4, scramble=False).random_base2(m=19) - 1.0
        inside = classical_margin_batch(pts) >= 0.0
        jacobian = np.prod(0.5 * math.pi * np.cos(0.5 * math.pi * pts), axis=1)
        assert abs(float(np.mean(inside * jacobian)) - value) < 1e-3

    def test_within_monte_carlo_band(self):
        est = mc_volume(Body.Q, SamplerConfig(seed=42, samples=1000000))
        assert abs(EXACT_Q_FRACTION - est.fraction) < 3 * est.stderr


def _q5_reference(seed: int, samples: int) -> np.ndarray:
    """The q5 sampler written as a per-row loop: draw each 65,536-point
    block from its own stream, keep facet points inside the elliptope and
    the collar, insert the saturated coordinate with one ``np.insert`` per
    row, and truncate once enough rows are kept."""
    rows = []
    block = 0
    while len(rows) < samples:
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(seed, spawn_key=(block,))))
        coords = rng.uniform(-1.0, 1.0, size=(65536, 3))
        facets = rng.integers(0, 8, size=65536)
        axis = facets // 2
        sign = np.where(facets % 2 == 0, 1.0, -1.0)
        x, y, z = coords[:, 0], coords[:, 1], coords[:, 2]
        cubic = 1.0 - x * x - y * y - z * z + 2.0 * sign * x * y * z
        keep = (cubic > 1e-6) & (np.abs(coords).max(axis=1) < 1.0 - 1e-6)
        for c, i, s in zip(coords[keep], axis[keep], sign[keep]):
            rows.append(np.insert(c, i, s))
        block += 1
    return np.array(rows[:samples])


def _q4_reference(seed: int, samples: int) -> np.ndarray:
    """The q4 sampler with its group step written as a per-point loop:
    each 65,536-point block draws angles from its own stream, keeps the
    collared tetrahedron and maps it through cosines; each point is then
    moved by one group matrix at a time, ``group[i] @ q``.  Truncates once
    enough rows are kept."""
    group = group_matrices()
    rows = []
    block = 0
    while len(rows) < samples:
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(seed, spawn_key=(block,))))
        angles = rng.uniform(0.0, math.pi, size=(65536, 3))
        total = angles.sum(axis=1)
        lo, hi = 1e-2, math.pi - 1e-2
        keep = ((angles > lo).all(axis=1) & (angles < hi).all(axis=1)
                & (total > lo) & (total < hi))
        pts = np.cos(np.column_stack([angles[keep], total[keep]]))
        idx = rng.integers(0, len(group), size=len(pts))
        rows.extend(group[i] @ q for i, q in zip(idx, pts))
        block += 1
    return np.array(rows[:samples])


class TestSample:
    @pytest.mark.parametrize("seed", [4, 11])
    @pytest.mark.parametrize("samples", [300, 25000])  # one block, three
    def test_q4_matches_point_loop(self, seed, samples):
        pts = sample(SampleTarget.Q4_STRATUM,
                     SamplerConfig(seed=seed, samples=samples))
        got = np.array([p.as_tuple() for p in pts])
        assert got.tobytes() == _q4_reference(seed, samples).tobytes()

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("samples", [300, 70000])  # one block, two
    def test_q5_matches_row_loop(self, seed, samples):
        pts = sample(SampleTarget.Q5_STRATUM,
                     SamplerConfig(seed=seed, samples=samples))
        got = np.array([p.as_tuple() for p in pts])
        assert np.array_equal(got, _q5_reference(seed, samples))

    def test_q4_purity(self):
        pts = sample(SampleTarget.Q4_STRATUM, SamplerConfig(seed=3, samples=300))
        assert len(pts) == 300
        assert {classify(p) for p in pts} == {Stratum.Q4}

    def test_q5_purity(self):
        pts = sample(SampleTarget.Q5_STRATUM, SamplerConfig(seed=3, samples=300))
        assert {classify(p) for p in pts} == {Stratum.Q5}

    def test_classical_rejection(self):
        pts = sample(SampleTarget.CL, SamplerConfig(seed=3, samples=300))
        assert all(member_classical(p).inside for p in pts)

    def test_interior_positive_margin(self):
        pts = sample(SampleTarget.Q_INTERIOR, SamplerConfig(seed=3, samples=300))
        assert all(member(p, Oracle.SEMIALG).margin > 0 for p in pts)

    def test_cube_and_determinism(self):
        cfg = SamplerConfig(seed=12, samples=500)
        a = sample(SampleTarget.CUBE, cfg)
        b = sample(SampleTarget.CUBE, cfg)
        assert a == b
        assert all(max(abs(v) for v in p.as_tuple()) <= 1 for p in a)


def _slice_reference(spec: SliceSpec) -> SliceTable:
    """Slice rows built node by node: ``itertools.product`` over the free
    axes' grids, each node completed to a point by fixed values or by the
    hyperplane (subtractions in coordinate order), then labelled with
    scalar calls."""
    axes = ("c11", "c12", "c21", "c22")
    free = spec.free_axes()
    grids = [np.linspace(-1.0, 1.0, n) for n in spec.resolutions()]
    rows = []
    for node in product(*grids):
        values = dict(zip(free, node))
        if spec.fixed is not None:
            values.update(spec.fixed)
        else:
            normal = [float(v) for v in spec.normal]
            dependent = max(range(4), key=lambda i: abs(normal[i]))
            acc = spec.offset
            for i, axis in enumerate(axes):
                if i != dependent:
                    acc -= normal[i] * values[axis]
            values[axes[dependent]] = acc / normal[dependent]
        c = Correlation(*(float(values[a]) for a in axes))
        polys = primal_polys(c)
        rows.append(tuple(float(v) for v in node)
                    + (face_of(c).value,
                       int(member_classical(c).inside), polys.g, polys.h))
    return SliceTable(columns=tuple(free) + ("stratum", "classical", "g", "h"),
                      rows=rows)


def _csv(table: SliceTable) -> str:
    buffer = io.StringIO()
    write_csv(buffer, table.columns, table.rows)
    return buffer.getvalue()


class TestSliceGrid:
    @pytest.mark.parametrize("spec", [
        SliceSpec(fixed={"c11": 1.0}, resolution=12),
        SliceSpec(fixed={"c11": 0.0, "c12": 0.5}, resolution=(7, 9)),
        # |n_i| = 1 on every axis: the first of the tied axes is solved for
        SliceSpec(normal=(1.0, 1.0, 1.0, -1.0), offset=2.0, resolution=12),
        SliceSpec(normal=(0.3, -2.0, 0.7, 1.1), offset=-0.4, resolution=12),
    ])
    def test_matches_node_loop(self, spec):
        assert _csv(slice_grid(spec)) == _csv(_slice_reference(spec))

    def test_facet_slice_is_elliptope_mask(self):
        table = slice_grid(SliceSpec(fixed={"c11": 1.0}, resolution=50))
        assert table.columns == ("c12", "c21", "c22", "stratum",
                                 "classical", "g", "h")
        assert len(table.rows) == 50 ** 3
        for row in table.rows:
            x, y, z = row[0], row[1], row[2]
            cubic = 1 - x * x - y * y - z * z + 2 * x * y * z
            labelled_q = row[3] != Stratum.EXTERIOR.value
            if abs(cubic) > 1e-9:
                assert labelled_q == (cubic > 0)

    def test_interior_slice_has_quantum_gap(self):
        table = slice_grid(SliceSpec(fixed={"c11": -0.8}, resolution=21))
        strata = [row[3] for row in table.rows]
        classical = [row[4] for row in table.rows]
        gap = [s == Stratum.Q6.value and cl == 0
               for s, cl in zip(strata, classical)]
        assert any(gap)                       # quantum but not classical
        assert Stratum.EXTERIOR.value in strata  # cube but not quantum

    def test_hyperplane_slice_symmetric(self):
        # the swap c12 <-> c21 stabilizes the hyperplane and the body, so
        # node labels must be symmetric in the first two free axes
        spec = SliceSpec(normal=(1.0, 1.0, 1.0, -1.0), offset=0.0,
                         resolution=15)
        table = slice_grid(spec)
        assert table.columns[:3] == ("c12", "c21", "c22")
        labels = {}
        for row in table.rows:
            labels[(row[0], row[1], row[2])] = row[3]
        for (x, y, z), stratum in labels.items():
            assert labels[(y, x, z)] == stratum

    def test_row_count_matches_resolutions(self):
        table = slice_grid(SliceSpec(fixed={"c11": 0.0, "c12": 0.5},
                                     resolution=(7, 9)))
        assert len(table.rows) == 63

    def test_validation(self):
        with pytest.raises(InvalidSlice):
            SliceSpec(fixed=None, normal=None).free_axes()
        with pytest.raises(InvalidSlice):
            SliceSpec(fixed={"c99": 0.0}).free_axes()
        with pytest.raises(InvalidSlice):
            SliceSpec(fixed={"c11": 0, "c12": 0, "c21": 0, "c22": 0}).free_axes()
        with pytest.raises(InvalidSlice):
            SliceSpec(fixed={"c11": 0.0}, resolution=1).resolutions()
        with pytest.raises(InvalidSlice):
            SliceSpec(normal=(0, 0, 0, 0)).free_axes()

    def test_offset_needs_a_normal(self):
        # an axis-aligned slice has no offset to honour
        with pytest.raises(InvalidSlice, match="offset"):
            SliceSpec(fixed={"c11": 1.0}, offset=5.0).free_axes()
        assert SliceSpec(fixed={"c11": 1.0}, offset=0.0).free_axes() == [
            "c12", "c21", "c22"]

    def test_hyperplane_beyond_float_range(self):
        # the dependent coordinate 1/1e-320 overflows, without a warning
        spec = SliceSpec(normal=(1e-320, 0.0, 0.0, 0.0), offset=1.0,
                         resolution=2)
        with pytest.raises(InvalidSlice, match="not finite"):
            slice_grid(spec)

    @pytest.mark.parametrize("fixed, error, detail", [
        ({"c11": math.nan}, ValueError, "must be finite"),
        ({"c11": math.inf}, ValueError, "must be finite"),
        ({"c11": 1e308}, ConsistencyError, "the float range"),  # g and h
        ({"c11": 1e100}, ConsistencyError, "the float range"),  # h alone
        ({"c11": 1.2e77, "c12": 1.2e77}, ConsistencyError,
         "two evaluation forms of h disagree"),
    ])
    def test_node_errors_match_node_loop(self, fixed, error, detail):
        # the error, and its detail naming the first failing node, is the
        # one the scalar path raises
        spec = SliceSpec(fixed=fixed, resolution=3)
        with pytest.raises(error, match=detail) as expected:
            _slice_reference(spec)
        with pytest.raises(error, match=detail) as raised:
            slice_grid(spec)
        assert str(raised.value) == str(expected.value)

    def test_csv_format(self):
        table = slice_grid(SliceSpec(fixed={"c11": 1.0, "c12": 1.0,
                                            "c21": 1.0}, resolution=3))
        buffer = io.StringIO()
        write_csv(buffer, table.columns, table.rows)
        text = buffer.getvalue()
        lines = text.split("\n")
        assert lines[0] == "c22,stratum,classical,g,h"
        assert len(lines) == 1 + 3 + 1      # header + rows + trailing LF
        assert "\r" not in text
        # 17 significant digits on a value that needs them
        c22 = float(lines[1].split(",")[0])
        assert f"{c22:.17g}" == lines[1].split(",")[0]
