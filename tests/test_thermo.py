"""Thermodynamic layer: closed-form checks, loci identities, landmarks.

Frozen literals below were produced by tests/oracles/gen_expected.py
(pure-stdlib bisection, independent of the package).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq, minimize_scalar

from bztflow import thermo
from oracles.literals import G15, S_STAR_15, S98, TAU1_I, TAU2_I, TAU_F_E
from reference import turning

G12 = thermo.GasModel(1.2)
G18 = thermo.GasModel(1.8)

# frozen by tests/oracles/gen_expected.py
S_CR_15 = 0.3450722187499675           # closed form 2*5^2.5/(1.5*216)
TAU_B_E = 16.15694225515021


def central(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def test_gamma_validation():
    with pytest.raises(ValueError, match="gamma-out-of-range"):
        thermo.GasModel(2.0)
    with pytest.raises(ValueError, match="gamma-out-of-range"):
        thermo.GasModel(2.0 - 1e-7)
    with pytest.raises(ValueError, match="gamma-out-of-range"):
        thermo.GasModel(1.0)
    thermo.GasModel(1.999998)  # just inside


def test_pressure_on_double_sonic_locus_at_tau_star():
    # at (gamma=1.5, tau=8, S=S_hat(8)) the pressure is d(8) = 9/2560
    S = thermo.double_sonic_entropy(8.0, G15)
    p = thermo.pressure(8.0, S, G15)
    assert p == pytest.approx(9.0 / 2560.0, abs=1e-15)
    assert thermo.double_sonic_locus(8.0, G15) == pytest.approx(
        9.0 / 2560.0, abs=1e-16)
    assert thermo.inflection_locus(8.0, G15) == pytest.approx(
        9.0 / 2560.0, abs=1e-15)


def test_pressure_partials_match_finite_differences():
    # central differences at h=1e-6 carry ~1e-11 roundoff, hence abs floors
    # (p_tau itself is ~1e-4 near the loop boundary)
    S, tau = S98, 7.3
    for gas in (G12, G15, G18):
        assert thermo.pressure_tau(tau, S, gas) == pytest.approx(
            central(lambda t: thermo.pressure(t, S, gas), tau),
            rel=1e-6, abs=1e-9)
        assert thermo.pressure_tautau(tau, S, gas) == pytest.approx(
            central(lambda t: thermo.pressure_tau(t, S, gas), tau),
            rel=1e-6, abs=1e-9)


def test_loci_difference_identity():
    # d - i = (tau-1)((gamma-2) tau + 4)^2 / (2 gamma (gamma+1) tau^4),
    # checked on 1000 volumes for three gamma values
    taus = np.linspace(1.001, 20.0, 1000)
    for gas in (G12, G15, G18):
        g = gas.gamma
        d = np.array([thermo.double_sonic_locus(t, gas) for t in taus])
        i = np.array([thermo.inflection_locus(t, gas) for t in taus])
        rhs = ((taus - 1.0) * ((g - 2.0) * taus + 4.0) ** 2
               / (2.0 * g * (g + 1.0) * taus**4))
        assert np.max(np.abs((d - i) - rhs)) < 1e-12
        assert np.min(d - i) > -1e-15  # tangency from above only


def test_loci_coincide_at_tau_star():
    for gas in (G12, G15, G18):
        tau_star = 4.0 / (2.0 - gas.gamma)
        assert abs(thermo.double_sonic_locus(tau_star, gas)
                   - thermo.inflection_locus(tau_star, gas)) < 1e-12


def test_double_sonic_entropy_matches_limit_at_tau_star():
    for gas in (G12, G15, G18):
        S_star, tau_star, _ = thermo.critical_entropies(gas)
        assert abs(thermo.double_sonic_entropy(tau_star, gas)
                   - S_star) < 1e-12


def test_critical_entropies_values():
    S_star, tau_star, S_cr = thermo.critical_entropies(G15)
    assert tau_star == pytest.approx(8.0, abs=1e-14)
    assert S_star == pytest.approx(S_STAR_15, abs=1e-15)
    assert S_cr == pytest.approx(S_CR_15, abs=1e-12)
    # S* satisfies its defining oracle: d(.) - p(., S*) has a double root at
    # tau*: value and slope both vanish there
    gap = thermo.double_sonic_locus(8.0, G15) - thermo.pressure(8.0, S_star,
                                                               G15)
    slope = central(
        lambda t: thermo.double_sonic_locus(t, G15)
        - thermo.pressure(t, S_star, G15), 8.0)
    assert abs(gap) < 1e-14
    assert abs(slope) < 1e-9
    # S_cr satisfies the tangency system {p_tau = 0, p_tautau = 0}
    tau_cr = 3.0 / (2.0 - 1.5)
    assert thermo.pressure_tau(tau_cr, S_cr, G15) == pytest.approx(
        0.0, abs=1e-13)
    assert thermo.pressure_tautau(tau_cr, S_cr, G15) == pytest.approx(
        0.0, abs=1e-13)


def test_critical_entropies_ordering():
    for gas in (G12, G15, G18):
        S_star, _, S_cr = thermo.critical_entropies(gas)
        assert 0.0 < S_cr < S_star


def test_hyperbolic_for_entropy_above_critical():
    # p_tau < 0 on (1, 100) whenever S_cr < S < S*
    S_star, _, S_cr = thermo.critical_entropies(G15)
    taus = np.linspace(1.0 + 1e-6, 100.0, 4000)
    for frac in (0.05, 0.5, 0.95):
        S = S_cr + frac * (S_star - S_cr)
        pts = np.array([thermo.pressure_tau(t, S, G15) for t in taus])
        assert np.max(pts) < 0.0


def test_sound_speed_raises_outside_hyperbolic_region():
    # below S_cr the isentrope has a p_tau > 0 loop
    with pytest.raises(ValueError, match="subsonic-thermo"):
        thermo.sound_speed(6.0, 0.9 * S_CR_15, G15)
    # inside the window the speed is defined everywhere
    assert thermo.sound_speed(6.0, S98, G15) > 0.0


def test_sound_speed_past_the_float_range_of_p_tau():
    # the slip wall of test_validate_reports_on_a_wall_near_the_float_limit:
    # tau^3 and (tau-1)^(gamma+1) overflow there, the in-range powers give
    # c against a 40-digit evaluation
    mp = pytest.importorskip("mpmath")
    gas = thermo.GasModel(1.0001154515513817)
    tau, S = 1.5313642852251434e229, 0.31621056105817713
    with pytest.raises(OverflowError):
        thermo.pressure_tau(tau, S, gas)
    with mp.workdps(40):
        t, s, g = mp.mpf(tau), mp.mpf(S), mp.mpf(gas.gamma)
        ref = float(mp.sqrt(g * s * t**2 * (t - 1) ** -(g + 1) - 2 / t))
    assert thermo.sound_speed(tau, S, gas) == pytest.approx(ref, rel=1e-15)
    # near gamma = 2 and below S_cr, p_tau stays positive out to there
    with pytest.raises(ValueError, match="^subsonic-thermo: "):
        thermo.sound_speed(1e200, 0.5, thermo.GasModel(1.99999))


def test_inflection_roots():
    t1, t2 = thermo.inflection_roots(S98, G15)
    assert t1 == pytest.approx(TAU1_I, abs=1e-10)
    assert t2 == pytest.approx(TAU2_I, abs=1e-10)
    assert abs(thermo.pressure_tautau(t1, S98, G15)) < 1e-12
    assert abs(thermo.pressure_tautau(t2, S98, G15)) < 1e-12
    # p_tautau < 0 strictly between
    mid = np.linspace(t1 + 1e-6, t2 - 1e-6, 200)
    assert max(thermo.pressure_tautau(t, S98, G15) for t in mid) < 0.0
    # the spec-level example at S = 0.9 S* (below S_cr) still has a pair
    t1b, t2b = thermo.inflection_roots(0.9 * S_STAR_15, G15)
    assert t1b < 8.0 < t2b
    with pytest.raises(ValueError, match="no-inflection"):
        thermo.inflection_roots(1.01 * S_STAR_15, G15)
    # at S = 1e-60 the lower root lies within 1e-12 of the covolume, below
    # the first bracket point
    with pytest.raises(ValueError, match="^no-inflection: bracket failure"):
        thermo.inflection_roots(1e-60, G15)


@pytest.mark.parametrize("gamma, S", [(1.99, 1e-3), (1.999, 0.5)])
def test_inflection_roots_raise_a_code_past_the_float_range(gamma, S):
    # near gamma = 2 the upper root of a pair lies beyond the largest
    # float, so its bracket never closes
    gas = thermo.GasModel(gamma)
    assert 0.0 < S < thermo.critical_entropies(gas)[0]
    with pytest.raises(ValueError, match="^no-inflection: "):
        thermo.inflection_roots(S, gas)


def test_inflection_roots_coalesce_toward_tau_star():
    t1, t2 = thermo.inflection_roots(0.999999 * S_STAR_15, G15)
    assert abs(t1 - 8.0) < 0.02
    assert abs(t2 - 8.0) < 0.02
    assert t1 < 8.0 < t2


def test_locus_intersections():
    tf, tb = thermo.locus_intersections(S98, G15)
    assert tf == pytest.approx(TAU_F_E, abs=1e-10)
    assert tb == pytest.approx(TAU_B_E, abs=1e-10)
    t1, t2 = thermo.inflection_roots(S98, G15)
    assert tf < t1 < 8.0 < t2 < tb
    with pytest.raises(ValueError, match="no-intersection"):
        thermo.locus_intersections(1.5 * S_STAR_15, G15)


def scalar_locus_intersections(S, gas):
    """Reference: scan outward from tau* in steps of 1% of tau* - 1 for the
    first sign change of p - d on each side, refined by brentq."""
    g = gas.gamma
    tau_star = 4.0 / (2.0 - g)

    def f(t):
        return thermo.pressure(t, S, gas) - thermo.double_sonic_locus(t, gas)

    def first_crossing(direction):
        step = direction * 0.01 * (tau_star - 1.0)
        t_prev, f_prev = tau_star, f(tau_star)
        for _ in range(100000):
            t_next = t_prev + step
            if t_next <= 1.0:
                raise ValueError(
                    f"no-intersection: no locus crossing below tau* at S={S}")
            f_next = f(t_next)
            if (f_prev > 0.0) != (f_next > 0.0):
                a, b = sorted((t_prev, t_next))
                return brentq(f, a, b, xtol=thermo.BRENT_XTOL,
                              maxiter=thermo.BRENT_MAXITER)
            t_prev, f_prev = t_next, f_next
        raise ValueError(f"no-intersection: no locus crossing at S={S}")

    return first_crossing(-1.0), first_crossing(+1.0)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("gamma", [1.05, 1.3, 1.6, 1.9])
def test_locus_scan_matches_scalar_scan(gamma):
    # same messages across the no-intersection band just above S_cr and up
    # to S*; roots to 1e-12, except next to S*, where the crossing is
    # nearly a double root at tau* and p - d must change sign within 1e-9
    # of the returned root
    gas = thermo.GasModel(gamma)
    S_star, _, S_cr = thermo.critical_entropies(gas)
    codes = set()
    for frac in (1e-9, 0.01, 0.2, 0.5, 0.9, 0.999, 1.0 - 1e-9):
        S = S_cr + frac * (S_star - S_cr)
        got = outcome(thermo.locus_intersections, S, gas)
        ref = outcome(scalar_locus_intersections, S, gas)
        codes.add("no-intersection" if isinstance(got, str) else "ok")
        if isinstance(got, str) or isinstance(ref, str):
            assert got == ref
        elif frac < 0.999999:
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0)
        else:
            def gap(t):
                return (thermo.pressure(t, S, gas)
                        - thermo.double_sonic_locus(t, gas))
            for t in got:
                assert gap(t * (1.0 - 1e-9)) * gap(t * (1.0 + 1e-9)) < 0.0
    assert "ok" in codes
    if gamma > 1.5:
        assert "no-intersection" in codes


GAMMAS = [1.01, 1.05, 1.2, 1.3, 1.45, 1.5, 1.7, 1.9, 1.98, 1.999]


def back_window(g):
    """(tau_m, S_b): where the double-sonic entropy S_hat has its minimum
    beyond tau*, from the quadratic factor of S_hat'."""
    tau_m = ((3.0 * g - 2.0 + math.sqrt(5.0 * g * g - 4.0))
             / ((g - 1.0) * (2.0 - g)))
    return tau_m, thermo.double_sonic_entropy(tau_m, thermo.GasModel(g))


@pytest.mark.parametrize("gamma", GAMMAS)
def test_double_sonic_entropy_stationary_points(gamma):
    # S_hat' vanishes at tau = 1, tau* and tau_m (40-digit derivative of
    # S_hat written out independently of the package), and S_hat rises on
    # (1, tau*), falls on (tau*, tau_m) and rises beyond
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        g = mp.mpf(gamma)

        def S_hat(t):
            d = ((2 - g) ** 2 * t**3 - (2 - g) * (4 - 3 * g) * t**2
                 - 8 * (g - 1) * t - 4) / (2 * g * (g + 1) * t**4)
            return (d + 1 / t**2) * (t - 1) ** g

        tau_star = 4 / (2 - g)
        tau_m = (3 * g - 2 + mp.sqrt(5 * g * g - 4)) / ((g - 1) * (2 - g))
        assert float(tau_m) == pytest.approx(back_window(gamma)[0],
                                             rel=1e-14)
        scale = S_hat(tau_star) / tau_star
        assert abs(mp.diff(S_hat, 1, direction=1)) < 1e-30
        for t in (tau_star, tau_m):
            assert abs(mp.diff(S_hat, t)) < 1e-30 * scale
        signs = [mp.sign(mp.diff(S_hat, t)) for t in
                 (1 + (tau_star - 1) / 3, (tau_star + tau_m) / 2, 2 * tau_m)]
    assert signs == [1, -1, 1]


@pytest.mark.parametrize("gamma", GAMMAS)
def test_back_crossing_band_edge(gamma):
    # a back crossing exists exactly above S_b = S_hat(tau_m), below tau_m
    gas = thermo.GasModel(gamma)
    tau_m, S_b = back_window(gamma)
    with pytest.raises(ValueError, match="no-intersection: no locus "
                                         "crossing at S="):
        thermo.locus_intersections(S_b * (1.0 - 1e-9), gas)
    tau_f, tau_b = thermo.locus_intersections(S_b * (1.0 + 1e-9), gas)
    assert 1.0 < tau_f < 4.0 / (2.0 - gamma) < tau_b < tau_m


def test_no_band_at_low_gamma():
    # S_b < S_cr below gamma ~ 1.404: every S in the window has both
    # crossings
    gas = thermo.GasModel(1.3)
    _, _, S_cr = thermo.critical_entropies(gas)
    assert back_window(1.3)[1] < S_cr
    tau_f, tau_b = thermo.locus_intersections(S_cr * (1.0 + 1e-12), gas)
    assert tau_f < tau_b


@pytest.mark.parametrize("gamma", list(np.linspace(1.01, 1.99, 8))
                         + [1.907, 1.93, 1.9598852648632432, 1.98, 1.999,
                            2.0 - 2e-6])
def test_critical_entropy_is_the_envelope_peak(gamma):
    # S_cr is the maximum over tau of the p_tau = 0 envelope
    # 2 (tau-1)^(gamma+1) / (gamma tau^3), and p_tau = p_tautau = 0 at
    # (tau_cr, S_cr) to rounding of their terms
    gas = thermo.GasModel(float(gamma))
    g = gas.gamma
    _, _, S_cr = thermo.critical_entropies(gas)

    def envelope(t):
        return 2.0 * (t - 1.0) ** (g + 1.0) / (g * t**3)

    tau_cr = 3.0 / (2.0 - g)
    peak = minimize_scalar(lambda t: -envelope(t), bounds=(1.0, 10.0 * tau_cr),
                           method="bounded",
                           options={"xatol": 1e-9 * tau_cr})
    assert S_cr == pytest.approx(-peak.fun, rel=1e-12)
    grid = tau_cr * np.linspace(0.5, 2.0, 301)
    assert max(envelope(t) for t in grid) <= S_cr * (1.0 + 1e-14)
    assert (abs(thermo.pressure_tau(tau_cr, S_cr, gas))
            < 1e-14 * 2.0 / tau_cr**3)
    assert (abs(thermo.pressure_tautau(tau_cr, S_cr, gas))
            < 1e-14 * 6.0 / tau_cr**4)


def test_enthalpy_consistency():
    # h = e + p tau, and h_tau = tau p_tau (checked by finite differences)
    for gas in (G12, G15, G18):
        for tau in (2.0, 5.0, 9.0, 30.0):
            S = S98
            h = thermo.enthalpy(tau, S, gas)
            e = turning.internal_energy(tau, S, gas)
            p = thermo.pressure(tau, S, gas)
            assert h == pytest.approx(e + p * tau, rel=1e-13)
            assert central(
                lambda t: thermo.enthalpy(t, S, gas), tau) == pytest.approx(
                    tau * thermo.pressure_tau(tau, S, gas), abs=1e-8)


def test_enthalpy_decays_to_zero():
    assert abs(thermo.enthalpy(1e9, S98, G15)) < 1e-3
    assert thermo.enthalpy(1e9, S98, G15) > 0.0


def test_potential_gas_anchoring():
    pgas = thermo.PotentialGas.from_state(G15, S98, q0=0.5, tau0=12.0)
    assert abs(0.5 * 0.25 + pgas.h(12.0)) < 1e-15
    assert turning.speed_of_tau(pgas, 12.0) == pytest.approx(
        0.5, rel=1e-14)
    # Bernoulli-consistent speed at another volume round-trips
    q = turning.speed_of_tau(pgas, 20.0)
    assert thermo.tau_from_speed(q, pgas) == pytest.approx(20.0, abs=1e-11)


def test_tau_from_speed_residual_and_errors():
    pgas = thermo.PotentialGas.from_state(G15, S98, q0=0.4, tau0=15.0)
    tau = thermo.tau_from_speed(0.5, pgas)
    assert abs(0.5 * 0.25 + pgas.h(tau) - pgas.bernoulli) < 1e-12
    qlim = pgas.q_limit()
    with pytest.raises(ValueError, match="cavitation"):
        thermo.tau_from_speed(1.0001 * qlim, pgas)
    with pytest.raises(ValueError, match="^cavitation: "):
        thermo.PotentialGas(G15, S98, bernoulli=0.0, h_ref=1.0).q_limit()
    # the enthalpy at tau = 1 + 1e-12 is already below the target
    with pytest.raises(ValueError, match="^stagnation-out-of-range: "):
        thermo.tau_from_speed(
            0.1, thermo.PotentialGas(G15, S98, bernoulli=1e30))
    # the root lies past the float range of the enthalpy, whose power law
    # overflows near tau = 3e205 in the bracket search
    with pytest.raises(ValueError, match="^stagnation-out-of-range: "):
        thermo.tau_from_speed(
            0.0, thermo.PotentialGas(G15, S98, bernoulli=1e-150))
    with pytest.raises(ValueError, match="^stagnation-out-of-range: "):
        thermo.tau_from_speed(math.nan, pgas)


@settings(max_examples=60, deadline=None)
@given(tau=st.floats(1.2, 60.0), frac=st.floats(0.01, 0.99))
def test_entropy_of_pressure_roundtrip(tau, frac):
    S = frac * S_STAR_15
    p = thermo.pressure(tau, S, G15)
    assert thermo.entropy_of(p, tau, G15) == pytest.approx(
        S, rel=1e-12, abs=1e-14)


@settings(max_examples=40, deadline=None)
@given(q0=st.floats(0.1, 1.0), tau0=st.floats(12.0, 35.0))
def test_tau_from_speed_roundtrip(q0, tau0):
    pgas = thermo.PotentialGas.from_state(G15, S98, q0=q0, tau0=tau0)
    assert thermo.tau_from_speed(q0, pgas) == pytest.approx(
        tau0, rel=1e-10)


def test_eta_hat_at_tangency_volume():
    # at tau* the double-sonic shock has zero strength
    assert thermo.eta_hat(8.0, G15) == pytest.approx(1.0, abs=1e-15)
    assert thermo.eta_hat(TAU_F_E, G15) == pytest.approx(
        2.7564058882282114, rel=1e-13)
    # below the pole of the ratio, 2/(2-gamma) = 4
    with pytest.raises(ValueError, match="^not-on-locus: "):
        thermo.eta_hat(3.0, G15)
