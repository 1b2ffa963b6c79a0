"""Shock layer: chord algebra, sonic families, jump bookkeeping.

Frozen literals below were produced by tests/oracles/gen_expected.py
(pure-stdlib nested bisection, independent of the package).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bztflow import shocks, thermo
from oracles.literals import (
    G15, S98, TAU1_I, TAU2_I, TAU_F_E, TAU_D, S_D, TAU_F_MID_PO,
    TAU_PO_POTENTIAL,
)
from test_selfsimilar import _euler_sol, _potential_sol, _vacuum_sol

# frozen by tests/oracles/gen_expected.py
ETA_HAT_F_E = 2.7564058882282114
TAU_C = 39.41020717339276
M2_DS = 0.00011924668345794642
TAU_F_MID_EULER = 5.836593429149022
TAU_PO_EULER = 14.842348586453308
S_PO_EULER = 0.348049264686074
TAU_F_MID_PR = 8.412505265382075
TAU_PR_POTENTIAL = 4.607052372700856


def pgas98():
    return thermo.PotentialGas(gas=G15, S=S98, bernoulli=1.0)


# ---------------------------------------------------------------------------
# chord algebra

def test_mass_flux_sonic_limit_along_isentrope():
    # tau_b -> tau_f along the isentrope: chord slope -> -p_tau
    tau_f, S = 5.0, S98
    p_f = thermo.pressure(tau_f, S, G15)
    for dt in (1e-3, 1e-5):
        tau_b = tau_f + dt
        p_b = thermo.pressure(tau_b, S, G15)
        m2 = shocks.mass_flux_squared(tau_f, p_f, tau_b, p_b)
        assert m2 == pytest.approx(-thermo.pressure_tau(tau_f, S, G15),
                                   rel=5.0 * dt)
    with pytest.raises(ValueError, match="non-compressive-chord"):
        shocks.mass_flux_squared(tau_f, p_f, tau_f, p_f)
    with pytest.raises(ValueError, match="non-compressive-chord"):
        shocks.mass_flux_squared(tau_f, p_f, tau_f + 1.0, p_f + 1.0)


def test_hugoniot_residual_zero_on_identical_states():
    p = thermo.pressure(5.0, S98, G15)
    assert shocks.hugoniot_residual(5.0, p, 5.0, p, G15) == 0.0
    # and strictly off the locus for a perturbed back pressure
    r = shocks.hugoniot_residual(5.0, p, 5.0, p + 1e-3, G15)
    assert abs(r) > 1e-6


# ---------------------------------------------------------------------------
# double-sonic family

def test_double_sonic_back_state_values():
    tau_b, S_b, m = shocks.double_sonic_back_state(TAU_F_E, G15, S_f=S98)
    assert tau_b == pytest.approx(TAU_D, rel=1e-12)
    assert S_b == pytest.approx(S_D, rel=1e-12)
    assert m**2 == pytest.approx(M2_DS, rel=1e-12)
    # tangency on both sides, within the stated tolerance
    assert abs(m**2 + thermo.pressure_tau(TAU_F_E, S98, G15)) < 1e-10 * m**2
    assert abs(m**2 + thermo.pressure_tau(tau_b, S_b, G15)) < 1e-10 * m**2
    # back state sits on the locus too
    assert abs(thermo.pressure(tau_b, S_b, G15)
               - thermo.double_sonic_locus(tau_b, G15)) < 1e-10
    # volume ratio above 1 and back volume beyond tau*
    assert tau_b / TAU_F_E > 1.0
    assert tau_b > 8.0
    # entropy increases front to back
    assert S_b > S98


def test_double_sonic_back_state_hugoniot():
    S_f = thermo.double_sonic_entropy(TAU_F_E, G15)
    tau_b, S_b, m = shocks.double_sonic_back_state(TAU_F_E, G15, S_f)
    p_f = thermo.pressure(TAU_F_E, S_f, G15)
    p_b = thermo.pressure(tau_b, S_b, G15)
    assert abs(shocks.hugoniot_residual(TAU_F_E, p_f, tau_b, p_b, G15)) < 1e-10


def test_double_sonic_zero_strength_at_tau_star():
    tau_b, S_b, m = shocks.double_sonic_back_state(
        8.0, G15, thermo.double_sonic_entropy(8.0, G15))
    assert tau_b == pytest.approx(8.0, rel=1e-14)
    assert m**2 == pytest.approx(
        -thermo.pressure_tau(8.0, S_b, G15), rel=1e-12)


def test_double_sonic_rejects_off_locus_front():
    with pytest.raises(ValueError, match="not-on-locus"):
        shocks.double_sonic_back_state(TAU_F_E, G15, S_f=1.02 * S98)


# ---------------------------------------------------------------------------
# post-sonic family, Euler side

def test_post_sonic_euler_endpoint_matches_double_sonic():
    tau_po, S_po = shocks.post_sonic_back_state_euler(TAU_F_E, S98, G15)
    assert tau_po == pytest.approx(ETA_HAT_F_E * TAU_F_E, abs=1e-8)
    assert S_po == pytest.approx(S_D, abs=1e-10)


def test_post_sonic_euler_midpoint_value():
    tau_po, S_po = shocks.post_sonic_back_state_euler(
        TAU_F_MID_EULER, S98, G15)
    assert tau_po == pytest.approx(TAU_PO_EULER, abs=1e-9)
    assert S_po == pytest.approx(S_PO_EULER, abs=1e-11)
    # defining relations hold
    p_f = thermo.pressure(TAU_F_MID_EULER, S98, G15)
    p_b = thermo.pressure(tau_po, S_po, G15)
    m2 = shocks.mass_flux_squared(TAU_F_MID_EULER, p_f, tau_po, p_b)
    assert abs(shocks.hugoniot_residual(
        TAU_F_MID_EULER, p_f, tau_po, p_b, G15)) < 1e-10
    assert abs(m2 + thermo.pressure_tau(tau_po, S_po, G15)) < 1e-10 * m2
    # strictly supersonic on the front side, in the mass-flux sense
    assert m2 > -thermo.pressure_tau(TAU_F_MID_EULER, S98, G15)
    # entropy increases
    assert S_po > S98


def test_post_sonic_euler_endpoint_derivatives_vanish():
    base_t, base_S = shocks.post_sonic_back_state_euler(TAU_F_E, S98, G15)
    off_t, off_S = shocks.post_sonic_back_state_euler(
        TAU_F_E + 1e-4, S98, G15)
    assert abs(off_t - base_t) / 1e-4 < 1e-3
    assert abs(off_S - base_S) / 1e-4 < 1e-3


def test_post_sonic_euler_window_guard():
    with pytest.raises(ValueError, match="out-of-post-sonic-window"):
        shocks.post_sonic_back_state_euler(0.99 * TAU_F_E, S98, G15)
    with pytest.raises(ValueError, match="out-of-post-sonic-window"):
        shocks.post_sonic_back_state_euler(1.01 * TAU1_I, S98, G15)


def test_post_sonic_euler_is_one_root(monkeypatch):
    calls = []
    real = shocks.brentq

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(shocks, "brentq", counting)
    for tau_f in (TAU_F_E, TAU_F_MID_EULER, TAU1_I):
        del calls[:]
        shocks.post_sonic_back_state_euler(tau_f, S98, G15)
        assert len(calls) == 1


def _window(gamma, S_frac):
    gas = thermo.GasModel(gamma)
    S_star, _, S_cr = thermo.critical_entropies(gas)
    S = S_cr + S_frac * (S_star - S_cr)
    tau_f_e = thermo.front_locus_volume(S, gas)
    tau1_i, _ = thermo.inflection_roots(S, gas)
    return gas, S, tau_f_e, tau1_i


@pytest.mark.parametrize("frac", [0.0, 0.3, 0.7, 1.0])
@pytest.mark.parametrize("gamma", [1.3, 1.5, 1.9])
def test_post_sonic_euler_near_the_window_closure(gamma, frac):
    # S within 1e-3 of S*, where the window [tau_f_e, tau1_i] and the
    # back state's distance from the double-sonic shock both shrink
    gas, S, tau_f_e, tau1_i = _window(gamma, 0.999)
    tau_f = tau_f_e + frac * (tau1_i - tau_f_e)
    tau_b, S_b = shocks.post_sonic_back_state_euler(tau_f, S, gas)
    p_f = thermo.pressure(tau_f, S, gas)
    p_b = thermo.pressure(tau_b, S_b, gas)
    m2 = shocks.mass_flux_squared(tau_f, p_f, tau_b, p_b)
    assert abs(shocks.hugoniot_residual(tau_f, p_f, tau_b, p_b, gas)) < 1e-12
    assert abs(m2 + thermo.pressure_tau(tau_b, S_b, gas)) < 1e-10 * m2
    assert S_b > S
    if frac > 0.0:
        assert m2 > -thermo.pressure_tau(tau_f, S, gas)


def mpmath_post_sonic_state(tau_f, gamma, S_f, start):
    """(tau_b, S_b) on the Hugoniot locus of (tau_f, S_f) whose chord is
    tangent to the back isentrope, by a 40-digit Newton solve of the two
    relations in (tau_b, S_b) from the start point."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        g, tf, Sf = mp.mpf(gamma), mp.mpf(tau_f), mp.mpf(S_f)

        def p(t, S):
            return S / (t - 1) ** g - 1 / t**2

        def e(t, S):
            return S / ((g - 1) * (t - 1) ** (g - 1)) - 1 / t

        def p_tau(t, S):
            return -g * S / (t - 1) ** (g + 1) + 2 / t**3

        scale = -p_tau(tf, Sf)

        def hugoniot(t, S):
            return (e(tf, Sf) - e(t, S)
                    + (tf - t) * (p(tf, Sf) + p(t, S)) / 2) / (scale * tf**2)

        def tangency(t, S):
            return ((p(t, S) - p(tf, Sf)) / (t - tf) - p_tau(t, S)) / scale

        t, S = mp.mpf(start[0]), mp.mpf(start[1])
        for _ in range(100):
            F = mp.matrix([hugoniot(t, S), tangency(t, S)])
            J = mp.matrix([[mp.diff(f, (t, S), d) for d in ((1, 0), (0, 1))]
                           for f in (hugoniot, tangency)])
            step = mp.lu_solve(J, F)
            t, S = t - step[0], S - step[1]
            if abs(step[0]) < mp.mpf(10) ** -38 * t:
                break
        assert abs(hugoniot(t, S)) < mp.mpf(10) ** -35
        assert abs(tangency(t, S)) < mp.mpf(10) ** -35
        return float(t), float(S)


@pytest.mark.parametrize("case", ["mid-window", "near-closure", "band"])
def test_post_sonic_euler_matches_mpmath(case):
    if case == "mid-window":
        gas, S, tau_f = G15, S98, TAU_F_MID_EULER
        start = (TAU_PO_EULER, S_PO_EULER)
        tau_rel = 1e-12
    else:
        # near S*, or just above S_cr at gamma = 1.7, where the isentrope
        # has no back crossing of the double-sonic locus
        gamma, frac = (1.9, 0.999) if case == "near-closure" else (1.7, 0.01)
        gas, S, tau_f_e, tau1_i = _window(gamma, frac)
        tau_f = tau_f_e + 0.7 * (tau1_i - tau_f_e)
        tau_d = thermo.eta_hat(tau_f_e, gas) * tau_f_e
        start = (tau_d, thermo.double_sonic_entropy(tau_d, gas))
        # S_b is stationary along the Hugoniot at the sonic back point, so
        # it holds to rounding while tau_b is set only to about 1e-10 in
        # double precision this close to S* (9e-11 measured)
        tau_rel = 5e-10 if case == "near-closure" else 1e-12
    tau_b, S_b = shocks.post_sonic_back_state_euler(tau_f, S, gas)
    ref_t, ref_S = mpmath_post_sonic_state(tau_f, gas.gamma, S, start)
    assert tau_b == pytest.approx(ref_t, rel=tau_rel)
    assert S_b == pytest.approx(ref_S, rel=1e-12)


# ---------------------------------------------------------------------------
# sonic families, potential side

def test_tangent_chord_limit_value():
    assert shocks.tangent_chord_limit(pgas98()) == pytest.approx(
        TAU_C, rel=1e-12)
    # below S_cr, p_tau(tau1_i) > 0: no chord is tangent at tau1_i
    with pytest.raises(ValueError, match="^no-convergence: "):
        shocks.tangent_chord_limit(
            thermo.PotentialGas(G15, 0.34, bernoulli=1.0))


def test_post_sonic_potential_midpoint():
    pg = pgas98()
    tau_po = shocks.post_sonic_tau_potential(TAU_F_MID_PO, pg)
    assert tau_po == pytest.approx(TAU_PO_POTENTIAL, rel=1e-12)
    assert TAU1_I < tau_po < TAU2_I
    # tangency at the back point
    gap = ((2.0 * pg.h(TAU_F_MID_PO) - 2.0 * pg.h(tau_po))
           / (TAU_F_MID_PO**2 - tau_po**2) - pg.p_tau(tau_po))
    assert abs(gap) < 1e-14
    with pytest.raises(ValueError, match="out-of-window"):
        shocks.post_sonic_tau_potential(TAU2_I - 0.5, pg)
    with pytest.raises(ValueError, match="out-of-window"):
        shocks.post_sonic_tau_potential(TAU_C + 1.0, pg)


def test_post_sonic_potential_coalescing_limit():
    # tau_f just above tau2_i: the back volume returns to tau2_i
    pg = pgas98()
    tau_po = shocks.post_sonic_tau_potential(TAU2_I + 1e-4, pg)
    assert tau_po == pytest.approx(TAU2_I, abs=0.05)


def test_post_sonic_potential_slope_negative():
    pg = pgas98()
    a = shocks.post_sonic_tau_potential(TAU_F_MID_PO - 5e-3, pg)
    b = shocks.post_sonic_tau_potential(TAU_F_MID_PO + 5e-3, pg)
    assert b < a


def test_pre_sonic_potential_midpoint():
    pg = pgas98()
    tau_pr = shocks.pre_sonic_tau_potential(TAU_F_MID_PR, pg)
    assert tau_pr == pytest.approx(TAU_PR_POTENTIAL, rel=1e-12)
    assert tau_pr < TAU1_I
    # front-side tangency: chord slope equals p_tau at the front volume
    gap = ((2.0 * pg.h(TAU_F_MID_PR) - 2.0 * pg.h(tau_pr))
           / (TAU_F_MID_PR**2 - tau_pr**2) - pg.p_tau(TAU_F_MID_PR))
    assert abs(gap) < 1e-14
    with pytest.raises(ValueError, match="out-of-window"):
        shocks.pre_sonic_tau_potential(TAU1_I - 0.1, pg)


def test_pre_sonic_potential_slope_negative():
    pg = pgas98()
    a = shocks.pre_sonic_tau_potential(TAU_F_MID_PR - 5e-3, pg)
    b = shocks.pre_sonic_tau_potential(TAU_F_MID_PR + 5e-3, pg)
    assert b < a


def test_pre_sonic_potential_bracket_falls_back_when_it_misses():
    # a bracket 100 widths off the root, or one reaching tau1_i, gives the
    # unbracketed solve bit for bit; one holding the root gives it within
    # the tolerance of both solves
    pg = pgas98()
    tau1_i = pg.inflection_pair[0]
    tol = 2.0 * (thermo.BRENT_XTOL + 4.0 * np.finfo(float).eps * tau1_i)
    w = 1e-10
    for tau_f in (TAU1_I + 1e-3, TAU_F_MID_PR, 0.5 * (TAU_F_MID_PR + TAU2_I)):
        cold = shocks.pre_sonic_tau_potential(tau_f, pg)
        for bracket in ((cold + 99.0 * w, cold + 101.0 * w),
                        (cold - 101.0 * w, cold - 99.0 * w),
                        (cold - w, tau1_i)):
            got = shocks.pre_sonic_tau_potential(tau_f, pg, bracket)
            assert got == cold
        held = shocks.pre_sonic_tau_potential(tau_f, pg, (cold - w, cold + w))
        assert abs(held - cold) <= tol


def test_pre_sonic_potential_no_convergence_ignores_the_bracket():
    # a few ulps above tau1_i the sign change at tau1_i is lost to rounding
    # and the solve raises "no-convergence"; a bracket reaching tau1_i or
    # staying below it leaves every outcome of the scan as it was
    pg = pgas98()
    tau1_i = pg.inflection_pair[0]

    def outcome(tau_f, bracket):
        try:
            shocks.pre_sonic_tau_potential(tau_f, pg, bracket)
        except ValueError as exc:
            return str(exc).split(":")[0]
        return "root"

    tau_f, fired = tau1_i, []
    for _ in range(32):
        tau_f = math.nextafter(tau_f, math.inf)
        est = tau1_i - 2.0 * (tau_f - tau1_i)     # the tangent's third point
        plain = outcome(tau_f, None)
        for bracket in ((est - 1e-11, est + 1e-11),
                        (tau1_i - 1e-9, tau1_i - 1e-13)):
            assert outcome(tau_f, bracket) == plain
        fired.append(plain == "no-convergence")
    assert any(fired)


def mpmath_pre_sonic_root(tau_f, gamma, S, lo, hi):
    """Root of g4(t)/(tau_f - t)^2 on (lo, hi) by bisection to 40 digits,
    from the enthalpy of the reduced van der Waals gas at 80 digits: next
    to tau1_i, g4 loses about three times the digits of the relative
    distance to it."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(80):
        g, S, tf = mp.mpf(gamma), mp.mpf(S), mp.mpf(tau_f)

        def h(t):
            return (g * S / (g - 1) * (t - 1) ** (1 - g)
                    + S * (t - 1) ** (-g) - 2 / t)

        h_f = h(tf)
        p_tau_f = -g * S * (tf - 1) ** (-g - 1) + 2 / tf**3

        def deflated(t):
            return ((2 * h_f - 2 * h(t) - p_tau_f * (tf**2 - t**2))
                    / (tf - t) ** 2)

        a, b = mp.mpf(lo), mp.mpf(hi)
        assert deflated(a) < 0 < deflated(b)
        while b - a > mp.mpf(10) ** -40 * b:
            mid = (a + b) / 2
            if deflated(mid) < 0:
                a = mid
            else:
                b = mid
        return float((a + b) / 2)


@pytest.mark.parametrize("gamma", [1.5, 1.3, 1.8])
def test_pre_sonic_potential_matches_mpmath(gamma):
    # across the window, down to 1e-12 of its width above tau1_i, where the
    # wanted root merges with the double root at tau_f
    if gamma == 1.5:
        pg = pgas98()
    else:
        gas = thermo.GasModel(gamma)
        S_star, _, S_cr = thermo.critical_entropies(gas)
        pg = thermo.PotentialGas(gas=gas, S=0.5 * (S_star + S_cr))
    tau1_i, tau2_i = pg.inflection_pair
    for frac in (1e-12, 1e-8, 3e-5, 1e-4, 1e-3, 0.5, 0.999):
        tau_f = tau1_i + frac * (tau2_i - tau1_i)
        ref = mpmath_pre_sonic_root(tau_f, gamma, pg.S,
                                    1.0 + 1e-3 * (tau1_i - 1.0), tau1_i)
        assert shocks.pre_sonic_tau_potential(tau_f, pg) == pytest.approx(
            ref, rel=1e-13)


def test_composed_window_stays_below_first_inflection():
    pg = pgas98()
    for tau_f in (TAU2_I + 2.0, TAU_F_MID_PO, TAU_C - 2.0):
        tau_po = shocks.post_sonic_tau_potential(tau_f, pg)
        tau_pr = shocks.pre_sonic_tau_potential(tau_po, pg)
        assert tau_pr < TAU1_I


def test_liu_condition():
    pg = pgas98()
    # far-field front: any back volume passes
    assert shocks.liu_condition_check(TAU_C + 5.0, 2.0, pg)
    assert shocks.liu_condition_check(TAU_C + 5.0, TAU_C, pg)
    # post-sonic pair passes, and so does any back volume above it
    tau_po = shocks.post_sonic_tau_potential(TAU_F_MID_PO, pg)
    assert shocks.liu_condition_check(TAU_F_MID_PO, tau_po, pg)
    assert shocks.liu_condition_check(
        TAU_F_MID_PO, 0.5 * (tau_po + TAU_F_MID_PO), pg)
    # the band between the composed lower window and the tangency point is
    # forbidden: the chord overshoots the tangent chord there
    tau_pr = shocks.pre_sonic_tau_potential(tau_po, pg)
    assert shocks.liu_condition_check(TAU_F_MID_PO, 0.9 * tau_pr, pg)
    assert not shocks.liu_condition_check(
        TAU_F_MID_PO, 0.5 * (tau_pr + tau_po), pg)
    with pytest.raises(ValueError, match="^non-compressive-chord: "):
        shocks.liu_condition_check(5.0, 6.0, pg)


def _liu_on_the_grid(tau_f, tau_b, pgas, slack):
    # the grid alone: the definition liu_condition_check settles early;
    # points rounded onto tau_f, where the flux is 0/0, are not compared
    tt = np.linspace(tau_b, tau_f, shocks.LIU_GRID + 2)[:-1]
    m2 = shocks.mass_flux_squared_potential(tau_f, tt[tt < tau_f], pgas,
                                            xp=np)
    return bool(np.all(m2[1:] < m2[0] + slack * abs(m2[0])))


@settings(max_examples=60, deadline=None)
@given(gamma=st.floats(1.05, 1.95), s_frac=st.floats(0.02, 1.1),
       kind=st.sampled_from(["post_sonic", "pre_sonic", "chord"]),
       x=st.floats(0.0, 1.0), y=st.floats(0.0, 1.0),
       slack=st.sampled_from([1e-10, 1e-6]))
# a chord about one ulp wide (tau_b = 1.35 at S = S*), narrower than the
# grid: its last grid points round onto tau_f
@example(gamma=1.5, s_frac=1.0, kind="chord", x=0.0, y=1e-15, slack=1e-10)
def test_liu_condition_matches_the_grid(gamma, s_frac, kind, x, y, slack):
    # sonic-attached chords, whose margin has a double zero at one end,
    # and chords anywhere about the inflection pair; S above S* has none
    gas = thermo.GasModel(gamma)
    S_star, _, S_cr = thermo.critical_entropies(gas)
    S = S_cr + s_frac * (S_star - S_cr)
    pg = thermo.PotentialGas(gas, S)
    if S < S_star:
        tau1_i, tau2_i = pg.inflection_pair
    else:
        tau1_i = tau2_i = 4.0 / (2.0 - gamma)
        kind = "chord"
    if kind == "post_sonic":
        tau_c = shocks.tangent_chord_limit(pg)
        tau_f = tau2_i + (0.01 + 0.98 * x) * (tau_c - tau2_i)
        tau_b = shocks.post_sonic_tau_potential(tau_f, pg)
    elif kind == "pre_sonic":
        tau_f = tau1_i + (0.01 + 0.98 * x) * (tau2_i - tau1_i)
        tau_b = shocks.pre_sonic_tau_potential(tau_f, pg)
    else:
        lo, hi = math.log(1.0 + 0.05 * (tau1_i - 1.0)), math.log(3.0 * tau2_i)
        tau_b, tau_f = sorted(math.exp(lo + f * (hi - lo)) for f in (x, y))
        if not tau_b < tau_f:
            return
    assert (shocks.liu_condition_check(tau_f, tau_b, pg, slack=slack)
            == _liu_on_the_grid(tau_f, tau_b, pg, slack))


# ---------------------------------------------------------------------------
# velocity bookkeeping

def test_velocity_decomposition_round_trip():
    u, v, phi = 2.2, -0.7, 0.9
    _, N = shocks.normal_split(u, v, phi)
    # the back velocity at equal volumes recombines the split
    uu, vv = shocks.oblique_back_velocity(u, v, phi, 1.0, 1.0)
    assert uu == pytest.approx(u, abs=1e-15)
    assert vv == pytest.approx(v, abs=1e-15)
    # N = q sin(phi - sigma)
    q = math.hypot(u, v)
    sigma = math.atan2(v, u)
    assert N == pytest.approx(q * math.sin(phi - sigma), abs=1e-15)


def test_oblique_back_velocity_zero_strength():
    u, v = shocks.oblique_back_velocity(2.0, 0.1, 0.8, 5.0, 5.0)
    assert u == pytest.approx(2.0, abs=1e-15)
    assert v == pytest.approx(0.1, abs=1e-15)


def test_oblique_back_velocity_preserves_tangential():
    phi = 1.1
    u_b, v_b = shocks.oblique_back_velocity(2.0, 0.0, phi, 5.0, 9.0)
    L_f, N_f = shocks.normal_split(2.0, 0.0, phi)
    L_b, N_b = shocks.normal_split(u_b, v_b, phi)
    assert L_b == pytest.approx(L_f, abs=1e-15)
    assert N_b == pytest.approx(9.0 / 5.0 * N_f, rel=1e-15)
    with pytest.raises(ValueError, match="expansive-normal"):
        shocks.oblique_back_velocity(2.0, 0.0, -0.3, 5.0, 9.0)


def test_oblique_back_velocity_on_arrays():
    # the array form against the scalar one front by front; one expansive
    # front fails the whole array with the scalar code
    u, v, phi = np.array([2.0, 1.5, 0.4]), np.array([0.0, 0.3, -0.2]), 1.1
    tau_f, tau_b = np.array([5.0, 6.0, 7.0]), np.array([9.0, 6.0, 4.0])
    u_b, v_b = shocks.oblique_back_velocity(u, v, phi, tau_f, tau_b, xp=np)
    for k in range(3):
        want = shocks.oblique_back_velocity(u[k], v[k], phi, tau_f[k],
                                            tau_b[k])
        assert (u_b[k], v_b[k]) == pytest.approx(want, rel=1e-15, abs=1e-15)
    with pytest.raises(ValueError, match="expansive-normal"):
        shocks.oblique_back_velocity(u, v, np.array([1.1, -0.3, 1.1]),
                                     tau_f, tau_b, xp=np)


# ---------------------------------------------------------------------------
# assembled solutions: residuals and classification

def make_euler_double_sonic_solution():
    tau_b, S_b, m = shocks.double_sonic_back_state(TAU_F_E, G15, S_f=S98)
    # upstream along x with the required normal component
    N_f = m * TAU_F_E
    u_f = 1.3 * N_f
    phi = math.asin(N_f / u_f)
    return shocks.oblique_shock(shocks.FlowState(u_f, 0.0, TAU_F_E, S98),
                                phi, tau_b, S_b, G15)


def make_euler_post_sonic_solution():
    tau_po, S_po = shocks.post_sonic_back_state_euler(
        TAU_F_MID_EULER, S98, G15)
    p_f = thermo.pressure(TAU_F_MID_EULER, S98, G15)
    p_b = thermo.pressure(tau_po, S_po, G15)
    m = math.sqrt(shocks.mass_flux_squared(
        TAU_F_MID_EULER, p_f, tau_po, p_b))
    N_f = m * TAU_F_MID_EULER
    u_f = 1.2 * N_f
    phi = math.asin(N_f / u_f)
    return shocks.oblique_shock(
        shocks.FlowState(u_f, 0.0, TAU_F_MID_EULER, S98), phi, tau_po, S_po,
        G15)


def test_euler_solution_rh_residuals():
    sol = make_euler_double_sonic_solution()
    for r in shocks.rh_residuals_euler(sol, G15):
        assert abs(r) < 1e-10


def test_classify_kinds():
    # oblique_shock classifies the pair it assembles from the front state
    for build, kind in ((make_euler_double_sonic_solution, "double_sonic"),
                        (make_euler_post_sonic_solution, "post_sonic")):
        sol = build()
        assert sol.kind == kind
        assert shocks.classify(sol, G15) == kind
        for r in shocks.rh_residuals_euler(sol, G15):
            assert abs(r) < 1e-10


def test_oblique_shock_flux_is_the_front_normal_speed():
    # every shock of the three solution fixtures carries m = N_f / tau_f
    for sol in (_euler_sol(), _vacuum_sol(), _potential_sol()):
        for _, sh in sol.shocks:
            N_f = shocks.normal_split(sh.front.u, sh.front.v, sh.phi)[1]
            assert sh.m == N_f / sh.front.tau
    # a front whose normal component is not positive has no shock
    front = shocks.FlowState(2.0, 0.0, TAU_F_E, S98)
    for phi in (0.0, -0.3):
        with pytest.raises(ValueError, match="^expansive-normal"):
            shocks.oblique_shock(front, phi, TAU_D, S_D, G15)


def test_classify_potential_pairs():
    pg = pgas98()
    # potential post-sonic: back normal component sonic
    tau_f = TAU_F_MID_PO
    tau_b = shocks.post_sonic_tau_potential(tau_f, pg)
    m2 = -(2.0 * pg.h(tau_f) - 2.0 * pg.h(tau_b)) / (tau_f**2 - tau_b**2)
    m = math.sqrt(m2)
    assert abs(m * tau_b - pg.c(tau_b)) < 1e-10 * pg.c(tau_b)
    # potential pre-sonic: front normal component sonic
    tau_f2 = TAU_F_MID_PR
    tau_b2 = shocks.pre_sonic_tau_potential(tau_f2, pg)
    m2b = -(2.0 * pg.h(tau_f2) - 2.0 * pg.h(tau_b2)) / (tau_f2**2 - tau_b2**2)
    assert abs(math.sqrt(m2b) * tau_f2 - pg.c(tau_f2)) < 1e-10 * pg.c(tau_f2)


def test_classify_raises_a_code_outside_the_hyperbolic_region():
    # below S_cr the isentrope has p_tau > 0 about tau_cr = 6 (gamma 1.5)
    S = 0.5 * thermo.critical_entropies(G15)[2]
    assert thermo.pressure_tau(6.0, S, G15) > 0.0
    sol = shocks.ObliqueShockSolution(
        front=shocks.FlowState(1.0, 0.0, 6.0, S),
        back=shocks.FlowState(0.5, 0.0, 3.0, S), phi=0.5 * math.pi,
        m=1.0 / 6.0, kind="")
    with pytest.raises(ValueError, match="^subsonic-thermo"):
        shocks.classify(sol, G15)
