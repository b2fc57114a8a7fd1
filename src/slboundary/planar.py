"""Plane curves from curvature: reconstruction, the parabola family, polyline
self-intersection, and the kick-to-crossing transition sweep.

Reconstruction is theta-first: the turning angle is the cumulative Simpson
quadrature of the curvature samples, and the position integrates the unit
tangent with the same panels, so the turning-angle identity
theta(s1) - theta(s0) = int kappa holds as an identity of the discretisation.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, WindowTooSmall


@dataclass(frozen=True)
class PlanarCurve:
    """Arclength-parameterised polyline with curvature and turning angle samples."""

    s: np.ndarray
    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    kappa: np.ndarray

    @property
    def s_range(self) -> tuple:
        return float(self.s[0]), float(self.s[-1])

    def total_turn(self) -> float:
        return float(self.theta[-1] - self.theta[0])

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["s", "x", "y", "theta", "kappa"])
            for row in zip(self.s, self.x, self.y, self.theta, self.kappa):
                writer.writerow([f"{v:.12g}" for v in row])


def reconstruct(
    kappa: Callable[[np.ndarray], np.ndarray],
    s_range: tuple,
    step: float,
    theta0: float = 0.0,
) -> PlanarCurve:
    """Integrate curvature into a unit-speed curve.

    Default frame: C(s0) = (0, 0), C'(s0) = (1, 0).  Curvature is sampled on
    a half-step grid; theta accumulates by composite Simpson and (x, y) by
    Simpson on the unit tangent over the same panels.  ``kappa`` takes the
    array of half-step arclengths and returns the curvature at each of them;
    it is called once.
    """
    s0, s1, step = float(s_range[0]), float(s_range[1]), float(step)
    if not (s1 > s0 and 0.0 < step < math.inf and math.isfinite((s1 - s0) / step)):
        raise DomainError(f"bad reconstruction window {s_range} / step {step}")
    n = max(1, int(math.ceil((s1 - s0) / step - 1e-12)))
    h = (s1 - s0) / n
    d = 0.5 * h
    sh = s0 + d * np.arange(2 * n + 1)
    ks = np.asarray(kappa(sh), dtype=float)
    if ks.shape != sh.shape:
        raise DomainError(f"curvature returned shape {ks.shape} for {sh.shape} arclengths")
    if not np.all(np.isfinite(ks)):
        raise DomainError("curvature evaluated to a non-finite value")

    k0, km, k1 = ks[0:-1:2], ks[1::2], ks[2::2]
    dtheta = (h / 6.0) * (k0 + 4.0 * km + k1)
    theta_nodes = theta0 + np.concatenate([[0.0], np.cumsum(dtheta)])
    # theta at panel midpoints: open Newton-Cotes increment over half a panel
    theta_mid = theta_nodes[:-1] + (d / 12.0) * (5.0 * k0 + 8.0 * km - k1)

    tn_x, tn_y = np.cos(theta_nodes), np.sin(theta_nodes)
    tm_x, tm_y = np.cos(theta_mid), np.sin(theta_mid)
    dx = (h / 6.0) * (tn_x[:-1] + 4.0 * tm_x + tn_x[1:])
    dy = (h / 6.0) * (tn_y[:-1] + 4.0 * tm_y + tn_y[1:])
    x = np.concatenate([[0.0], np.cumsum(dx)])
    y = np.concatenate([[0.0], np.cumsum(dy)])

    return PlanarCurve(s=sh[0::2], x=x, y=y, theta=theta_nodes, kappa=ks[0::2])


def parabola_arclength(k: float, x) -> np.ndarray:
    """Arclength of y = k x^2 from the vertex: (x sqrt(1+4k^2x^2) + asinh(2kx)/(2k))/2."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * (x * np.sqrt(1.0 + 4.0 * k * k * x * x) + np.arcsinh(2.0 * k * x) / (2.0 * k))
    return out if out.ndim else float(out)


def parabola_x_of_s(k: float, s) -> np.ndarray:
    """Invert the parabola arclength map by guarded Newton iteration.

    The map is convex increasing with slope >= 1, and L(x) >= x and
    L(x) >= k x^2, so Newton from x0 = min(s, sqrt(s / k)) starts above the
    root and converges monotonically from above.
    """
    if k <= 0.0:
        raise DomainError(f"parabola coefficient must be positive, got {k}")
    s = np.asarray(s, dtype=float)
    if np.any(s < 0.0):
        raise DomainError("arclength from the vertex must be >= 0")
    x = np.minimum(s, np.sqrt(s / k))
    tol = 1e-13 * (1.0 + np.max(s))
    for _ in range(100):
        # q is both the slope L'(x) and the root in L(x), computed with
        # exactly parabola_arclength's operations.
        q = np.sqrt(1.0 + 4.0 * k * k * x * x)
        g = 0.5 * (x * q + np.arcsinh(2.0 * k * x) / (2.0 * k)) - s
        x = np.maximum(x - g / q, 0.0)
        if np.max(np.abs(g)) <= tol:
            break
    return x if x.ndim else float(x)


def parabola_curvature(k: float, s) -> np.ndarray:
    """Curvature of the arclength-parameterised parabola y = k x^2, s >= 0.

    kappa(s) = 2k / (1 + 4 k^2 x(s)^2)^{3/2}; strictly decreasing, with total
    integral pi/2 over [0, infinity).
    """
    x = np.asarray(parabola_x_of_s(k, s), dtype=float)
    out = 2.0 * k / (1.0 + 4.0 * k * k * x * x) ** 1.5
    return out if out.ndim else float(out)


def mollifier_bump(s) -> np.ndarray:
    """Smooth bump supported on [-1, 1] with values in [0, 1], peak 1 at 0."""
    s = np.asarray(s, dtype=float)
    inside = np.abs(s) < 1.0
    t = np.where(inside, s, 0.0)
    with np.errstate(divide="ignore", over="ignore"):
        out = np.where(inside, np.exp(-t * t / np.clip(1.0 - t * t, 1e-300, None)), 0.0)
    return out if out.ndim else float(out)


def _orient(ax, ay, bx, by, cx, cy) -> int:
    """Sign of the turn a->b->c with a relative zero band for near-collinearity."""
    d = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    scale = (abs(bx - ax) + abs(by - ay)) * (abs(cx - ax) + abs(cy - ay))
    if abs(d) <= 1e-12 * scale:
        return 0
    return 1 if d > 0.0 else -1


def _on_segment(ax, ay, bx, by, px, py) -> bool:
    return (
        min(ax, bx) - 1e-300 <= px <= max(ax, bx) + 1e-300
        and min(ay, by) - 1e-300 <= py <= max(ay, by) + 1e-300
    )


def _segments_cross(p, q) -> Optional[tuple]:
    """(t, u) parameters when segments p = (p1, p2), q = (q1, q2) intersect."""
    (x1, y1), (x2, y2) = p
    (x3, y3), (x4, y4) = q
    d1 = _orient(x3, y3, x4, y4, x1, y1)
    d2 = _orient(x3, y3, x4, y4, x2, y2)
    d3 = _orient(x1, y1, x2, y2, x3, y3)
    d4 = _orient(x1, y1, x2, y2, x4, y4)
    if d1 != d2 and d3 != d4 and 0 not in (d1, d2, d3, d4):
        den = (x2 - x1) * (y4 - y3) - (y2 - y1) * (x4 - x3)
        if den == 0.0:
            return (0.5, 0.5)
        t = ((x3 - x1) * (y4 - y3) - (y3 - y1) * (x4 - x3)) / den
        u = ((x3 - x1) * (y2 - y1) - (y3 - y1) * (x2 - x1)) / den
        return (min(max(t, 0.0), 1.0), min(max(u, 0.0), 1.0))
    # Touching / near-collinear cases: accept any endpoint on the other segment.
    if d1 == 0 and _on_segment(x3, y3, x4, y4, x1, y1):
        return (0.0, 0.5)
    if d2 == 0 and _on_segment(x3, y3, x4, y4, x2, y2):
        return (1.0, 0.5)
    if d3 == 0 and _on_segment(x1, y1, x2, y2, x3, y3):
        return (0.5, 0.0)
    if d4 == 0 and _on_segment(x1, y1, x2, y2, x4, y4):
        return (0.5, 1.0)
    return None


def self_intersects(curve: PlanarCurve) -> Optional[tuple]:
    """First pair of non-adjacent intersecting segments, as arclength values.

    Candidate pairs come from a sort-based uniform spatial hash with cell size
    equal to the longest segment: each cell a segment's box touches gets one
    row holding the packed int64 cell key, the rows are sorted by key once,
    and two rows share a cell exactly when their keys are equal.  Candidates
    are tested with orientation predicates in ascending (i, j) order and the
    first hit is returned as the interpolated (s_i, s_j) of the crossing.
    Every crossing or touching pair shares a cell, so the hit is the smallest
    intersecting (i, j).  Adjacent segments are excluded.  A polyline whose
    segments all have zero length has none.  Raises DomainError on a
    non-finite vertex.
    """
    x, y, s = curve.x, curve.y, curve.s
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise DomainError("polyline has a non-finite vertex")
    nseg = len(x) - 1
    if nseg < 2:
        return None
    lens = np.hypot(np.diff(x), np.diff(y))
    cell = float(np.max(lens))
    if cell == 0.0:
        return None
    # A subnormal cell would make 1 / cell inf, and 0 * inf a NaN index; a
    # cell as long as the smallest normal float still holds every segment.
    inv = 1.0 / max(cell, sys.float_info.min)

    # Each segment's box spans cells cx .. cx + wx by cy .. cy + wy, counted
    # from the lowest cell.  A connected polyline whose longest segment is one
    # cell spans at most nseg cells each way, so the key
    # cx * ny + cy stays below (nseg + 2)**2.  Coordinates are measured from
    # the lowest vertex before they are scaled, so the cell indices fit int64
    # however far from the origin the polyline lies.
    x0, y0 = x.min(), y.min()
    cx = np.floor((np.minimum(x[:-1], x[1:]) - x0) * inv).astype(np.int64)
    cy = np.floor((np.minimum(y[:-1], y[1:]) - y0) * inv).astype(np.int64)
    wx = np.floor((np.maximum(x[:-1], x[1:]) - x0) * inv).astype(np.int64) - cx
    wy = np.floor((np.maximum(y[:-1], y[1:]) - y0) * inv).astype(np.int64) - cy
    ny = int((cy + wy).max()) + 1
    base = cx * ny + cy

    # One row per touched cell.  A box spans about 2 x 2 cells, so the loops
    # run over offsets, not segments.
    key, seg = [], []
    for ox in range(int(wx.max()) + 1):
        for oy in range(int(wy.max()) + 1):
            keep = np.flatnonzero((wx >= ox) & (wy >= oy))
            key.append(base[keep] + (ox * ny + oy))
            seg.append(keep)
    key, seg = np.concatenate(key), np.concatenate(seg)
    order = np.argsort(key)
    key, seg = key[order], seg[order]
    del order

    # The rows of a cell are contiguous, so its pairs sit at row distances
    # 1, 2, ...; stop at the first distance with none.
    pairs = [np.empty(0, dtype=np.int64)]
    for d in range(1, len(seg)):
        same = key[d:] == key[:-d]
        if not same.any():
            break
        a, b = seg[:-d][same], seg[d:][same]
        i, j = np.minimum(a, b), np.maximum(a, b)
        pairs.append((i * nseg + j)[j > i + 1])

    for i, j in zip(*np.divmod(np.unique(np.concatenate(pairs)), nseg)):
        hit = _segments_cross(
            ((x[i], y[i]), (x[i + 1], y[i + 1])),
            ((x[j], y[j]), (x[j + 1], y[j + 1])),
        )
        if hit is not None:
            t, u = hit
            si = float(s[i] + t * (s[i + 1] - s[i]))
            sj = float(s[j] + u * (s[j + 1] - s[j]))
            return (si, sj)
    return None


@dataclass(frozen=True)
class TransitionEntry:
    t: float
    verdict: str  # "embedded" | "self-intersecting"
    intersection: Optional[tuple]
    witness_s: Optional[float]
    total_turn: float


@dataclass(frozen=True)
class TransitionReport:
    """Per-t verdicts of the kicked parabola family on a fixed window."""

    entries: tuple
    window: float
    step: float
    bracket: Optional[tuple]
    single_crossing: bool

    def as_json_entries(self) -> list:
        return [
            {
                "t": e.t,
                "verdict": e.verdict,
                "first_intersection_s_pair": list(e.intersection) if e.intersection else None,
                "window": self.window,
            }
            for e in self.entries
        ]


def kick_family_transition(
    k: float,
    t_range: Sequence[float],
    window: float = 100.0,
    step: float = 0.004,
) -> TransitionReport:
    """Sweep kappa_t = kappa_parabola + t * bump over t and test embeddedness.

    Each curve is reconstructed on [-window, window] and run through the
    segment sweep.  Raises WindowTooSmall when some t > 0 shows no
    intersection while the total turn is still below pi: such a window cannot
    witness the crossing yet.  The bracket is the (t_embedded, t_crossing)
    pair around the empirical transition.
    """
    ts = [float(t) for t in t_range]
    if not ts:
        raise DomainError("t_range is empty")
    if sorted(ts) != ts:
        raise DomainError("t_range must be increasing")

    # Every t is reconstructed on the same window and step, hence the same
    # half-step grid: the parabola curvature (a Newton inversion over the
    # grid) and the bump are computed on the first call and reused.
    fixed = []

    def kappa_t(t):
        def f(s):
            if not fixed:
                fixed.extend((parabola_curvature(k, np.abs(s)), mollifier_bump(s)))
            return fixed[0] + t * fixed[1]

        return f

    entries = []
    for t in ts:
        curve = reconstruct(kappa_t(t), (-window, window), step)
        hit = self_intersects(curve)
        turn = curve.total_turn()
        if hit is None and t > 0.0 and turn < math.pi:
            raise WindowTooSmall(
                f"t = {t:g}: no intersection and total turn {turn:.6f} < pi; "
                f"window {window:g} cannot witness the crossing yet"
            )
        entries.append(
            TransitionEntry(
                t=t,
                verdict="embedded" if hit is None else "self-intersecting",
                intersection=hit,
                witness_s=None if hit is None else float(max(abs(hit[0]), abs(hit[1]))),
                total_turn=turn,
            )
        )

    flags = [e.verdict == "self-intersecting" for e in entries]
    crossings = sum(1 for a, b in zip(flags[:-1], flags[1:]) if a != b)
    single = crossings == 1 and flags[-1] and not flags[0]
    bracket = None
    if single:
        i = flags.index(True)
        bracket = (entries[i - 1].t, entries[i].t)
    return TransitionReport(
        entries=tuple(entries),
        window=window,
        step=step,
        bracket=bracket,
        single_crossing=single,
    )
