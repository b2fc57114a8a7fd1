"""Sturm comparison as metamorphic properties, and the upper edge of the
kick threshold that certify can see.

The four properties need no closed form and hold for any correct solver:
if b <= c pointwise, then r1(c) <= r1(b); a Bifurcator or NoncompactSide
verdict for c forbids a second zero for b; Compact at mu implies Compact at
every larger mu; and r1 does not increase under b -> s b for s >= 1.  They
are drawn over scaled and bumped arctan profiles, piecewise-constant jump
profiles and the kicked family.

On the README shell (1, e, e^2) the smallest mu that certify calls Compact
is the mu* at which the closed-form r1 equals r_max: certify must say
Inconclusive just below it and Compact just above it.
"""

import bisect
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slboundary import closed_form as cf
from slboundary import kick
from slboundary.bifurcator import CLASS_BIFURCATOR, arctan_profile, classify, noncompact_side_check
from slboundary.errors import NoSecondZero
from slboundary.sl_engine import CurvatureProfile, coefficient_func, find_second_zero, origin_start

E = math.e


def _bump(x):
    """Smooth bump supported on (-1, 1) with peak 1 at 0, of a float or an array."""
    if isinstance(x, float):
        return math.exp(1.0 - 1.0 / (1.0 - x * x)) if abs(x) < 1.0 else 0.0
    inside = np.abs(x) < 1.0
    return np.where(inside, np.exp(1.0 - 1.0 / (1.0 - np.where(inside, x, 0.0) ** 2)), 0.0)


def _times(p, factor, label, cuts=()):
    """p times factor(r), split again at cuts; factor takes a float or an array."""
    return CurvatureProfile(func=lambda r: p.func(r) * factor(r), r_min=p.r_min,
                            label=f"{p.label}*{label}",
                            breakpoints=tuple(sorted(p.breakpoints + tuple(cuts))))


@st.composite
def comparison_pairs(draw):
    """(family, c, b, start, r_max, spec): a profile c, a profile b <= c (c
    divided by s >= 1 and cut down by a factor 1 - h on a window), the
    shared start data, and the kicked shell when c is one."""
    family = draw(st.sampled_from(["arctan", "jump", "kicked"]))
    spec = None
    if family == "arctan":
        f = draw(st.one_of(st.just(1.0), st.floats(0.5, 3.0)))
        height = f * draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
        centre, width = draw(st.floats(0.5, 5.0)), draw(st.floats(0.2, 2.0))
        ar = arctan_profile().func
        c = CurvatureProfile(func=lambda r: f * ar(r) + height * _bump((r - centre) / width),
                             label=f"arctan[f={f:.6g}]+{height:.3g}bump")
        r_max = 1e4  # classify's Cauchy tail calls arctan itself Bifurcator from here on
    elif family == "jump":
        cuts = sorted(draw(st.lists(st.floats(0.2, 8.0), min_size=1, max_size=4, unique=True)))
        vals = draw(st.lists(st.floats(0.0, 2.5), min_size=len(cuts) + 1,
                             max_size=len(cuts) + 1))
        c = CurvatureProfile(
            func=coefficient_func(lambda r: vals[bisect.bisect_right(cuts, r)],
                                  lambda r: np.array(vals)[np.searchsorted(cuts, r, "right")]),
            label=f"jump{vals}", breakpoints=tuple(cuts))
        r_max = 50.0
    else:
        k = draw(st.integers(0, 2))
        r0 = (1.0, 3.0, 20.0)[k] * draw(st.floats(1.0, 2.0))
        a = r0 * draw(st.floats(1.2, 3.0))
        b = a * draw(st.floats(1.2, 3.0))
        lam = kick.lambda_log(k, r0, a, b)
        spec = cf.KickSpec(r0, a, b, lam * draw(st.floats(0.5, 3.0)), k)
        c = kick.kicked_profile(spec)
        r_max = 1e4 * r0
    s = draw(st.one_of(st.just(1.0), st.floats(1.0, 2.0)))
    h = draw(st.floats(0.0, 0.9))
    lo = draw(st.floats(0.1, 0.9)) * r_max ** 0.25
    hi = lo * draw(st.floats(1.1, 4.0))
    b = _times(c, lambda r: (1.0 - h * ((r >= lo) & (r <= hi))) / s, f"{s:.6g}cut{h:.3g}",
               (lo, hi))
    start = (spec.r0, 0.0, 1.0) if spec else origin_start(c)
    return family, c, b, start, r_max, spec


def _r1(profile, start, r_max, tol):
    r_start, w0, w0p = start
    return find_second_zero(profile, r_start, r_max, tol, w0, w0p).r1


def _margin(r1_low, r1_high, tol):
    """How far r1 of the larger coefficient lies below r1 of the smaller, in
    units of the zero tolerance tol * max(1, r1)."""
    return (r1_low - r1_high) / (tol * max(1.0, r1_low))


class TestSturmComparison:
    def test_metamorphic_properties(self):
        worst = {"b <= c": math.inf, "s b": math.inf}
        seen = {"zero pairs": 0, "Bifurcator": 0, "NoncompactSide": 0, "Compact pairs": 0}

        @settings(max_examples=60, deadline=None, derandomize=True, database=None)
        @given(comparison_pairs(), st.floats(1.0, 3.0), st.floats(1.0, 2.0),
               st.sampled_from([1e-9, 1e-10]))
        def check(pair, s, mu_factor, tol):
            family, c, b, start, r_max, spec = pair
            r1_b, r1_c = _r1(b, start, r_max, tol), _r1(c, start, r_max, tol)
            # b <= c: c vanishes no later than b
            if r1_b is not None:
                assert r1_c is not None, (c.label, b.label, r1_b)
                seen["zero pairs"] += 1
                worst["b <= c"] = min(worst["b <= c"], _margin(r1_b, r1_c, tol))
            # s b for s >= 1 vanishes no later than b
            sb = _times(b, lambda r: s, f"{s:.6g}")
            r1_sb = _r1(sb, start, r_max, tol)
            if r1_b is not None:
                assert r1_sb is not None, (sb.label, r1_b)
                worst["s b"] = min(worst["s b"], _margin(r1_b, r1_sb, tol))
            if spec is None:
                # a certified bifurcator c, or c below the arctan bifurcator on
                # the grid, leaves b no second zero
                if classify(c, r_max, tol).classification == CLASS_BIFURCATOR:
                    seen["Bifurcator"] += 1
                    assert r1_b is None and r1_c is None, (c.label, r1_b, r1_c)
                if noncompact_side_check(c, arctan_profile(), r_max).verdict == "NoncompactSide":
                    seen["NoncompactSide"] += 1
                    assert r1_b is None and r1_c is None, (c.label, r1_b, r1_c)
            else:
                # Compact at mu stays Compact at every larger mu
                verdicts = [kick.certify(kick.kicked_profile(x), 2, x, r_max, tol=tol).verdict
                            for x in (spec, dataclasses.replace(spec, mu=mu_factor * spec.mu))]
                if verdicts[0] == "Compact":
                    seen["Compact pairs"] += 1
                    assert verdicts[1] == "Compact", (spec, mu_factor, verdicts)

        check()
        print(f"worst margin in units of tol * max(1, r1): {worst}; cases: {seen}")
        assert min(seen.values()) > 0
        assert min(worst.values()) >= -1.0


README_SHELL = cf.KickSpec(1.0, E, E**2, 1.0, 0)


def _closed_form_r1(mu):
    try:
        return cf.second_zero_closed_form(dataclasses.replace(README_SHELL, mu=mu))
    except NoSecondZero:
        return math.inf


class TestUpperEdge:
    @pytest.mark.parametrize("r_max, ratio", [(1e6, 1.068486), (1e12, 1.032561),
                                              (1e100, 1.003747)])
    def test_certify_turns_compact_where_r1_reaches_r_max(self, r_max, ratio):
        lam = kick.lambda_log(0, 1.0, E, E**2)
        lo, hi = lam, 3.0 * lam  # r1(lo) = inf > r_max >= r1(hi)
        while True:  # bisect the closed form down to adjacent floats
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            lo, hi = (mid, hi) if _closed_form_r1(mid) > r_max else (lo, mid)
        mu_star = hi
        verdicts = {}
        for mu in (mu_star * (1.0 - 1e-6), mu_star * (1.0 + 1e-6)):
            spec = dataclasses.replace(README_SHELL, mu=mu)
            cert = kick.certify(kick.kicked_profile(spec), 2, spec, r_max)
            verdicts[mu] = cert.verdict
            if cert.verdict == "Compact":
                assert cert.r1 <= r_max
        print(f"r_max {r_max:g}: mu*/lambda = {mu_star / lam:.9f}, verdicts {verdicts}")
        assert abs(mu_star / lam - ratio) <= 1e-6
        assert list(verdicts.values()) == ["Inconclusive", "Compact"]
