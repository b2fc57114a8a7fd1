"""Plane-curve reconstruction, the parabola family, self-intersection
detection, and the kick transition sweep."""

import math
from typing import Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from slboundary import planar as pl
from slboundary.errors import DomainError, WindowTooSmall


def self_intersects_reference(curve: pl.PlanarCurve) -> Optional[tuple]:
    """The dict-of-cell-lists spatial hash that planar.self_intersects replaced,
    kept as the reference its result must equal exactly."""
    x, y, s = curve.x, curve.y, curve.s
    nseg = len(x) - 1
    if nseg < 2:
        return None
    lens = np.hypot(np.diff(x), np.diff(y))
    cell = float(np.max(lens))
    if cell == 0.0:
        return None
    inv = 1.0 / cell

    buckets: dict = {}
    ix_lo = np.floor(np.minimum(x[:-1], x[1:]) * inv).astype(np.int64)
    ix_hi = np.floor(np.maximum(x[:-1], x[1:]) * inv).astype(np.int64)
    iy_lo = np.floor(np.minimum(y[:-1], y[1:]) * inv).astype(np.int64)
    iy_hi = np.floor(np.maximum(y[:-1], y[1:]) * inv).astype(np.int64)
    for i in range(nseg):
        for cx in range(ix_lo[i], ix_hi[i] + 1):
            for cy in range(iy_lo[i], iy_hi[i] + 1):
                buckets.setdefault((cx, cy), []).append(i)

    candidates = set()
    for members in buckets.values():
        for a in range(len(members)):
            for bidx in range(a + 1, len(members)):
                i, j = members[a], members[bidx]
                if j > i + 1:
                    candidates.add((i, j))
                elif i > j + 1:
                    candidates.add((j, i))

    for i, j in sorted(candidates):
        hit = pl._segments_cross(
            ((x[i], y[i]), (x[i + 1], y[i + 1])),
            ((x[j], y[j]), (x[j + 1], y[j + 1])),
        )
        if hit is not None:
            t, u = hit
            si = float(s[i] + t * (s[i + 1] - s[i]))
            sj = float(s[j] + u * (s[j + 1] - s[j]))
            return (si, sj)
    return None


def self_intersects_brute_force(curve: pl.PlanarCurve) -> Optional[tuple]:
    """Every non-adjacent pair in ascending (i, j) order: the first that
    _segments_cross accepts, as self_intersects reports it, or None.  A
    polyline whose segments all have zero length has none, which is
    self_intersects' early return."""
    x, y, s = curve.x, curve.y, curve.s
    nseg = len(x) - 1
    if not np.any(np.hypot(np.diff(x), np.diff(y))):
        return None
    for i in range(nseg):
        for j in range(i + 2, nseg):
            hit = pl._segments_cross(
                ((x[i], y[i]), (x[i + 1], y[i + 1])),
                ((x[j], y[j]), (x[j + 1], y[j + 1])),
            )
            if hit is not None:
                t, u = hit
                return (float(s[i] + t * (s[i + 1] - s[i])), float(s[j] + u * (s[j + 1] - s[j])))
    return None


def parabola_x_of_s_reference(k: float, s):
    """The Newton loop that planar.parabola_x_of_s replaced, which computed
    the square root twice per pass, kept as the reference its result must
    equal exactly."""
    s = np.asarray(s, dtype=float)
    x = np.minimum(s, np.sqrt(s / k))
    for _ in range(100):
        g = pl.parabola_arclength(k, x) - s
        slope = np.sqrt(1.0 + 4.0 * k * k * x * x)
        dx = g / slope
        x = np.maximum(x - dx, 0.0)
        if np.max(np.abs(g)) <= 1e-13 * (1.0 + np.max(s)):
            break
    return x if x.ndim else float(x)


def polyline(points) -> pl.PlanarCurve:
    pts = np.asarray(points, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    s = np.concatenate([[0.0], np.cumsum(np.hypot(np.diff(x), np.diff(y)))])
    zero = np.zeros_like(s)
    return pl.PlanarCurve(s=s, x=x, y=y, theta=zero, kappa=zero)


# Integer grids give touching, collinear, repeated and zero-length segments.
GRID_POINTS = st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                       min_size=2, max_size=40)
FREE_POINTS = st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                       min_size=2, max_size=40)


class TestReconstruct:
    def test_zero_curvature_is_a_segment(self):
        c = pl.reconstruct(lambda s: 0.0 * np.asarray(s), (0.0, 5.0), 0.01)
        assert np.max(np.hypot(c.x - c.s, c.y)) <= 1e-10

    def test_unit_circle_closes(self):
        c = pl.reconstruct(lambda s: 1.0 + 0.0 * np.asarray(s), (0.0, 2 * math.pi), 0.01)
        assert math.hypot(c.x[-1] - c.x[0], c.y[-1] - c.y[0]) <= 1e-8

    def test_parabola_matches_direct_parametrization(self):
        k = 1.0
        c = pl.reconstruct(lambda s: pl.parabola_curvature(k, np.abs(np.asarray(s))),
                           (0.0, 40.0), 0.005)
        xs = pl.parabola_x_of_s(k, c.s)
        dev = np.max(np.hypot(c.x - xs, c.y - k * xs**2))
        assert dev <= 1e-5

    def test_turning_angle_identity(self):
        kfun = lambda s: pl.parabola_curvature(1.0, np.abs(np.asarray(s)))
        c = pl.reconstruct(kfun, (0.0, 60.0), 0.005)
        integral, _ = quad(lambda s: float(pl.parabola_curvature(1.0, s)), 0.0, 60.0,
                           limit=400, epsabs=1e-13, epsrel=1e-12)
        assert abs(c.total_turn() - integral) <= 1e-8

    def test_rigid_motion_equivariance(self):
        kfun = lambda s: 0.8 + 0.3 * np.sin(np.asarray(s))
        base = pl.reconstruct(kfun, (0.0, 10.0), 0.01)
        for ang in (0.3, 1.2, -2.0):
            rot = pl.reconstruct(kfun, (0.0, 10.0), 0.01, theta0=ang)
            ca, sa = math.cos(ang), math.sin(ang)
            assert np.max(np.abs(rot.x - (ca * base.x - sa * base.y))) <= 1e-10
            assert np.max(np.abs(rot.y - (sa * base.x + ca * base.y))) <= 1e-10


    @pytest.mark.parametrize("window", [(0.0, math.inf), (-math.inf, 1.0), (0.0, math.nan)])
    def test_non_finite_window_is_refused(self, window):
        with pytest.raises(DomainError):
            pl.reconstruct(lambda s: 0.0 * s, window, 0.01)

    @pytest.mark.parametrize("step", [math.inf, math.nan, 1e-320])
    def test_non_finite_step_is_refused(self, step):
        # 1e-320 is finite, but the panel count overflows
        with pytest.raises(DomainError):
            pl.reconstruct(lambda s: 0.0 * s, (0.0, 1e10), step)

    def test_scalar_curvature_is_refused(self):
        with pytest.raises(DomainError, match="shape"):
            pl.reconstruct(lambda s: 1.0, (0.0, 1.0), 0.1)


class TestParabolaCurvature:
    def test_vertex_value(self):
        assert pl.parabola_curvature(1.0, 0.0) == 2.0
        assert pl.parabola_curvature(20.0, 0.0) == 40.0

    def test_strictly_decreasing(self):
        s = np.linspace(0.0, 50.0, 200)
        k = pl.parabola_curvature(1.0, s)
        assert np.all(np.diff(k) < 0)

    def test_total_turn_approaches_quarter_circle(self):
        # integral to arclength of x = 10^3 reaches pi/2 - 1e-3
        S = pl.parabola_arclength(1.0, 1e3)
        integral, _ = quad(lambda s: float(pl.parabola_curvature(1.0, s)), 0.0, S,
                           limit=500)
        assert integral >= math.pi / 2 - 1e-3
        assert_allclose(integral, math.atan(2e3), rtol=1e-9)

    def test_arclength_inverse_roundtrip(self):
        for k in (3.0, 0.1, 20.0, 100.0):
            # L(x) ~ k x^2, so x = sqrt(1e6 / k) reaches arclength ~1e6
            xs = np.concatenate([[0.0, 0.3, 2.0, 55.0, 900.0],
                                 np.geomspace(1e-3, math.sqrt(1e6 / k), 9)])
            s = pl.parabola_arclength(k, xs)
            assert_allclose(pl.parabola_x_of_s(k, s), xs, rtol=1e-12, atol=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(k=st.floats(1e-2, 1e3),
           s=st.one_of(st.floats(0.0, 1e6),
                       st.lists(st.floats(0.0, 1e6), min_size=1, max_size=50)))
    def test_matches_reference_loop(self, k, s):
        if isinstance(s, list):
            s = np.array([0.0] + s)
        got, want = pl.parabola_x_of_s(k, s), parabola_x_of_s_reference(k, s)
        assert type(got) is type(want)
        assert np.array_equal(got, want)


class TestSelfIntersects:
    @settings(max_examples=1500, deadline=None, derandomize=True, database=None)
    @given(st.one_of(GRID_POINTS, FREE_POINTS))
    # a subnormal longest segment: 1 / cell overflowed, and 0 * inf made the
    # cell indices NaN
    @example([(0.0, 0.0), (0.0, 0.0), (0.0, 2.225073858507e-311)])
    # pair (0, 2) touches within _on_segment's 1e-300 slack; the reference
    # hash's cell boundary at y = 0 splits it, the hash here does not
    @example([(0.0, -1.0), (0.0, -2.225073858507e-311), (0.0, 0.0), (0.0, 0.0)])
    def test_matches_reference_hash(self, points):
        c = polyline(points)
        assert pl.self_intersects(c) == self_intersects_brute_force(c)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(k=st.floats(5.0, 40.0), t=st.floats(-0.3, 0.3),
           window=st.floats(5.0, 15.0), step=st.floats(0.005, 0.01))
    def test_kicked_parabola_matches_reference_hash(self, k, t, window, step):
        # 1,000-6,000 segments; the window is short enough that small kicks
        # stay embedded and large ones cross.
        c = pl.reconstruct(lambda s: pl.parabola_curvature(k, np.abs(s)) + t * pl.mollifier_bump(s),
                           (-window, window), step)
        assert pl.self_intersects(c) == self_intersects_reference(c)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_vertex_is_refused(self, bad):
        c = polyline([(0.0, 0.0), (1.0, 0.0), (bad, 1.0), (2.0, 1.0), (0.5, -1.0)])
        with pytest.raises(DomainError):
            pl.self_intersects(c)

    def test_segment_has_none(self):
        c = pl.reconstruct(lambda s: 0.0 * np.asarray(s), (0.0, 3.0), 0.01)
        assert pl.self_intersects(c) is None

    def test_overshot_circle_crosses(self):
        c = pl.reconstruct(lambda s: 1.0 + 0.0 * np.asarray(s), (0.0, 2.5 * math.pi), 0.01)
        hit = pl.self_intersects(c)
        assert hit is not None
        si, sj = hit
        # the retraced arc meets the start of the loop near s = 0 / s = 2 pi
        assert si <= 0.05
        assert abs(sj - 2 * math.pi) <= 0.05

    def test_parabola_is_embedded(self):
        c = pl.reconstruct(lambda s: pl.parabola_curvature(1.0, np.abs(np.asarray(s))),
                           (-40.0, 40.0), 0.01)
        assert pl.self_intersects(c) is None

    def test_known_crossing_location(self):
        # figure-eight-ish: straight run, full loop, straight run again
        def kappa(s):
            s = np.asarray(s)
            return np.where((s > 1.0) & (s < 1.0 + 2 * math.pi), 1.0, 0.0)

        c = pl.reconstruct(kappa, (0.0, 2 + 2 * math.pi), 0.002)
        hit = pl.self_intersects(c)
        assert hit is not None

    @pytest.mark.parametrize("offset", [1e30, -1e30, 2.0**100])
    def test_far_from_origin(self, offset):
        # x / cell ~ 1e30 does not fit int64; the answer is the one at x = 0
        # (every difference of x is exactly 0, so s and the crossing agree).
        # A RuntimeWarning from the cast would fail here as an error.
        ys = [0.0, 3.0, 1.0, 4.0, 2.0, -1.0]
        far = polyline([(offset, y) for y in ys])
        near = polyline([(0.0, y) for y in ys])
        hit = pl.self_intersects(far)
        assert hit is not None and hit == self_intersects_reference(near)
        assert pl.self_intersects(polyline([(offset, y) for y in range(30)])) is None

    def test_scaled_shifted_grid(self):
        # an integer-grid crossing scaled by 2**50 and shifted by 2**100 is exact
        pts = [(0, 0), (3, 0), (3, 2), (1, 2), (1, -1), (2, -1), (2, 3)]
        c = polyline([(x * 2.0**50 + 2.0**100, y * 2.0**50 + 2.0**100) for x, y in pts])
        assert pl.self_intersects(c) == self_intersects_reference(c) is not None


class TestKickFamilyTransition:
    def test_single_crossing_bracketed_at_zero(self):
        ts = [round(-0.15 + 0.05 * i, 10) for i in range(7)]
        rep = pl.kick_family_transition(20.0, ts, window=60.0, step=0.005)
        verdicts = [e.verdict for e in rep.entries]
        assert verdicts == ["embedded"] * 4 + ["self-intersecting"] * 3
        assert rep.single_crossing
        assert rep.bracket == (0.0, 0.05)

    def test_negative_kick_stays_embedded_on_long_window(self):
        rep = pl.kick_family_transition(1.0, [-0.3], window=200.0, step=0.01)
        assert rep.entries[0].verdict == "embedded"

    def test_positive_kick_crosses_at_finite_arclength(self):
        rep = pl.kick_family_transition(1.0, [0.3], window=40.0, step=0.005)
        e = rep.entries[0]
        assert e.verdict == "self-intersecting"
        assert e.witness_s is not None and e.witness_s < 40.0

    def test_underpowered_window_raises(self):
        # k = 1, t = 0.05 on window 100: total turn stays below pi
        with pytest.raises(WindowTooSmall):
            pl.kick_family_transition(1.0, [0.05], window=100.0, step=0.01)

    def test_empty_t_range_refused(self):
        with pytest.raises(DomainError):
            pl.kick_family_transition(20.0, [], window=40.0, step=0.005)

    def test_parabola_inverted_once_per_sweep(self, monkeypatch):
        calls = []
        inner = pl.parabola_x_of_s
        monkeypatch.setattr(pl, "parabola_x_of_s", lambda k, s: calls.append(1) or inner(k, s))
        ts = [-0.05, 0.0, 0.1]
        rep = pl.kick_family_transition(20.0, ts, window=40.0, step=0.005)
        assert len(calls) == 1
        for t, entry in zip(ts, rep.entries):
            alone = pl.kick_family_transition(20.0, [t], window=40.0, step=0.005)
            assert alone.entries[0] == entry

    def test_entries_serialise(self):
        rep = pl.kick_family_transition(20.0, [-0.05, 0.0, 0.1], window=40.0, step=0.005)
        docs = rep.as_json_entries()
        assert [d["t"] for d in docs] == [-0.05, 0.0, 0.1]
        assert docs[-1]["first_intersection_s_pair"] is not None
        assert docs[0]["window"] == 40.0
