"""Centered-fan layer: fan invariants, turning integrals, vacuum limit."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

from bztflow import fan, shocks, thermo, wavecurves
from oracles.literals import (
    G15, S_STAR_15, S98, TAU1_I, TAU2_I, TAU_F_E, TAU_D, S_D, TAU_F_MID_PO,
    TAU_PO_POTENTIAL,
)
from reference import turning
from test_selfsimilar import _euler_sol, _potential_sol, _vacuum_sol


def upstream_state(mach=2.0, tau0=4.9):
    c0 = thermo.sound_speed(tau0, S98, G15)
    u0 = mach * c0
    alpha0 = math.asin(c0 / u0)
    return u0, tau0, alpha0


def upstream_fan(mach=2.0, tau0=4.9, stop=None):
    u0, tau0, alpha0 = upstream_state(mach, tau0)
    if stop is None:
        stop = TAU_F_E
    return fan.integrate_fan(u0, tau0, 0.0, S98, alpha0, stop, G15)


def bernoulli(q, tau, S):
    return 0.5 * q * q + thermo.enthalpy(tau, S, G15)


def test_zero_length_integration():
    u0, tau0, alpha0 = upstream_state()
    sol = fan.integrate_fan(u0, tau0, 0.0, S98, alpha0, tau0, G15)
    assert sol.theta_end == sol.theta_start
    q, tau, sigma, S = sol.state(alpha0)
    assert (q, tau, sigma, S) == (u0, tau0, 0.0, S98)


def test_initial_data_guards():
    u0, tau0, alpha0 = upstream_state()
    with pytest.raises(ValueError, match="sonic-degeneracy"):
        fan.integrate_fan(0.5 * thermo.sound_speed(tau0, S98, G15), tau0,
                          0.0, S98, alpha0, TAU_F_E, G15)
    with pytest.raises(ValueError, match="not-centered"):
        fan.integrate_fan(u0, tau0, 0.0, S98, alpha0 + 1e-3, TAU_F_E, G15)
    with pytest.raises(ValueError, match="no-convergence"):
        fan.integrate_fan(u0, tau0, 0.0, S98, alpha0, 0.9 * tau0, G15)


def test_foot_outside_the_hyperbolic_region_is_coded():
    # p_tau > 0 at tau = 6 on the isentrope S = S_cr/2: the sound speed of
    # the foot is not real, which the fan reports by code, to a finite end
    # and to vacuum
    _, _, S_cr = thermo.critical_entropies(G15)
    S = 0.5 * S_cr
    assert thermo.pressure_tau(6.0, S, G15) > 0.0
    for tau_end in (10.0, math.inf):
        with pytest.raises(ValueError, match="subsonic-thermo"):
            fan.integrate_fan(1.0, 6.0, 0.0, S, 0.5, tau_end, G15)


def test_upstream_fan_reaches_target_volume():
    sol = upstream_fan()
    assert sol.theta_end < sol.theta_start
    q, tau, sigma, S = sol.state(sol.theta_end)
    assert tau == pytest.approx(TAU_F_E, abs=1e-10)
    assert S == S98
    assert sigma < 0.0       # flow deflected toward the expansion


def test_upstream_fan_monotone_signs():
    sol = upstream_fan()
    tt = np.linspace(sol.theta_start, sol.theta_end, 60)
    states = np.array([sol.state(t)[:3] for t in tt])
    dq = np.diff(states[:, 0])
    dtau = np.diff(states[:, 1])
    dsig = np.diff(states[:, 2])
    # theta decreases along tt, so signs flip: q and tau grow, sigma drops
    assert np.all(dq > 0.0)
    assert np.all(dtau > 0.0)
    assert np.all(dsig < 0.0)


def test_fan_bernoulli_and_entropy_invariance():
    sol = upstream_fan()
    u0, tau0, _ = upstream_state()
    B0 = bernoulli(u0, tau0, S98)
    for t in np.linspace(sol.theta_start, sol.theta_end, 40):
        q, tau, sigma, S = sol.state(t)
        assert S == S98
        assert abs(bernoulli(q, tau, S) - B0) < 1e-10


def test_fan_ray_tangency():
    sol = upstream_fan()
    for t in np.linspace(sol.theta_start, sol.theta_end, 40):
        st = sol.state_at(t)
        c = thermo.sound_speed(st.tau, st.S, G15)
        assert abs(st.u * math.sin(t) - st.v * math.cos(t) - c) < 1e-9


def test_fan_state_out_of_range():
    sol = upstream_fan()
    with pytest.raises(ValueError, match="theta-out-of-range"):
        sol.state(sol.theta_start + 0.1)


@pytest.fixture
def brentq_calls(monkeypatch):
    """The thermo.brentq calls made after the fixture is set up."""
    calls = []
    root = thermo.brentq

    def counted(*args, **kwargs):
        calls.append(args)
        return root(*args, **kwargs)

    monkeypatch.setattr(thermo, "brentq", counted)
    return calls


@pytest.mark.parametrize("S, tau0, tau_end, hit", [
    (S98, 4.9, TAU1_I * (1.0 - 1e-9), False),
    (S98, 4.9, TAU1_I * (1.0 + 1e-9), True),
    (S98, 4.9, TAU1_I + 0.5, True),
    # above S* the isentrope is convex: a fan builds across tau* = 8
    (1.01 * S_STAR_15, 4.0, 16.0, False),
], ids=["end-below-window", "end-in-window", "end-deep-in-window",
        "convex-isentrope"])
def test_inflection_hit(S, tau0, tau_end, hit, brentq_calls):
    # pushing the expansion past tau1_i runs into the inflection window,
    # where the ray stops being monotone in the volume; the window test is
    # closed-form and solves no root
    c0 = thermo.sound_speed(tau0, S, G15)
    args = (2.0 * c0, tau0, 0.0, S, math.asin(0.5), tau_end, G15)
    if hit:
        with pytest.raises(ValueError, match="inflection-hit"):
            fan.integrate_fan(*args)
    else:
        sol = fan.integrate_fan(*args)
        assert sol.state(sol.theta_end)[1] == tau_end
    assert brentq_calls == []


def downstream_foot():
    """Back state of the tangent-chord shock at the upstream fan end."""
    sol = upstream_fan()
    phi_d = sol.theta_end
    front = sol.state_at(phi_d)
    tau_b, S_b, m = shocks.double_sonic_back_state(TAU_F_E, G15, S_f=S98)
    u_d, v_d = shocks.oblique_back_velocity(front.u, front.v, phi_d, TAU_F_E,
                                            tau_b)
    return phi_d, u_d, v_d, tau_b, S_b


def test_downstream_foot_is_centered():
    phi_d, u_d, v_d, tau_d, S_d = downstream_foot()
    q_d = math.hypot(u_d, v_d)
    c_d = thermo.sound_speed(tau_d, S_d, G15)
    sigma_d = math.atan2(v_d, u_d)
    # the back side is sonic relative to the same ray: sigma + A = phi_d
    assert q_d > c_d
    assert sigma_d + math.asin(c_d / q_d) == pytest.approx(phi_d, abs=1e-9)
    assert sigma_d < 0.0


def test_downstream_fan_slip_stop():
    phi_d, u_d, v_d, tau_d, S_d = downstream_foot()
    sigma_d = math.atan2(v_d, u_d)
    theta_w = sigma_d - 0.05
    full = fan.integrate_fan(math.hypot(u_d, v_d), tau_d, sigma_d, S_d,
                             phi_d, math.inf, G15)
    sol = full.slip_line(theta_w)
    q, tau, sigma, S = sol.state(sol.theta_end)
    assert sigma == pytest.approx(theta_w, abs=1e-12)
    st = sol.state_at(sol.theta_end)
    assert st.v == pytest.approx(st.u * math.tan(theta_w), abs=1e-12)
    assert tau > tau_d       # the wall fan keeps expanding
    # the wall must lie in [sigma_end, sigma0): the foot direction itself
    # leaves the fan nothing to turn
    sigma_end = full.state(full.theta_end)[2]
    for theta_w in (sigma_d, sigma_d + 0.1, sigma_end - 1e-3):
        with pytest.raises(ValueError, match="no-convergence"):
            full.slip_line(theta_w)


def test_fan_turning_matches_quadrature():
    # same turning from the series in u and from QUADPACK in the volume,
    # at the fan end and on interior rays
    phi_d, u_d, v_d, tau_d, S_d = downstream_foot()
    q_d = math.hypot(u_d, v_d)
    sigma_d = math.atan2(v_d, u_d)
    tau_target = 1e8
    sol = fan.integrate_fan(q_d, tau_d, sigma_d, S_d, phi_d, tau_target, G15)
    q_end, tau_end, sigma_end, _ = sol.state(sol.theta_end)
    pg = thermo.PotentialGas(
        gas=G15, S=S_d,
        bernoulli=0.5 * q_d**2 + thermo.enthalpy(tau_d, S_d, G15))
    q_hat = turning.speed_of_tau(pg, tau_target)
    sigma_quad = sigma_d - turning.turning_in_volume(tau_d, tau_target, pg)
    assert q_end == pytest.approx(q_hat, rel=1e-12)
    assert sigma_end == pytest.approx(sigma_quad, abs=1e-12)
    for theta in np.linspace(sol.theta_start, sol.theta_end, 9)[1:-1]:
        q, tau, sigma, _ = sol.state(theta)
        sigma_hat, alpha_hat = turning.pm_potential(tau, pg, q_d, sigma_d,
                                                    tau_d)
        assert abs(sigma - sigma_hat) < 1e-10
        assert abs(theta - alpha_hat) < 1e-10


def vacuum_angle(q_d, tau_d, S_d, gas):
    """Turning of the fan from (q_d, tau_d, S_d) to vacuum: the end ray of
    integrate_fan to tau = inf from sigma = 0.  A subsonic foot gets the
    Mach angle pi/2, so that integrate_fan reports it."""
    c_d = thermo.sound_speed(tau_d, S_d, gas)
    return fan.integrate_fan(q_d, tau_d, 0.0, S_d,
                             math.asin(min(c_d / q_d, 1.0)), math.inf,
                             gas).theta_end


def test_vacuum_angle_bounds_the_wall_fan():
    phi_d, u_d, v_d, tau_d, S_d = downstream_foot()
    q_d = math.hypot(u_d, v_d)
    sigma_d = math.atan2(v_d, u_d)
    off = vacuum_angle(q_d, tau_d, S_d, G15)
    assert off < 0.0
    alpha_v = sigma_d + off
    assert alpha_v < sigma_d < phi_d
    # a wall just above the vacuum ray is still reachable
    sol = fan.integrate_fan(q_d, tau_d, sigma_d, S_d, phi_d, math.inf,
                            G15).slip_line(alpha_v + 5e-3)
    assert sol.theta_end > alpha_v


def test_vacuum_angle_degenerate_offset():
    # foot speed within a whisker of the cavitation speed: almost no
    # turning left (the offset scales like sqrt(1 - q_d/q_lim))
    tau_far = 1e4
    q_far = 1e3 * thermo.sound_speed(tau_far, S_D, G15)
    off = vacuum_angle(q_far, tau_far, S_D, G15)
    assert off < 0.0
    assert abs(off) < 1e-2


@pytest.mark.parametrize("tau_d, S, mach, match", [
    (TAU_D, S_D, 0.5, "sonic-degeneracy"),
    (0.5 * (TAU1_I + TAU2_I), S98, 2.0, "inflection-hit"),
    (TAU2_I * (1.0 - 1e-9), S98, 2.0, "inflection-hit"),
    (TAU2_I * (1.0 + 1e-9), S98, 2.0, None),
], ids=["subsonic-foot", "foot-mid-window", "foot-in-window",
        "foot-beyond-window"])
def test_vacuum_angle_guards(tau_d, S, mach, match, brentq_calls):
    q_d = mach * thermo.sound_speed(tau_d, S, G15)
    if match:
        with pytest.raises(ValueError, match=match):
            vacuum_angle(q_d, tau_d, S, G15)
    else:
        assert vacuum_angle(q_d, tau_d, S, G15) < 0.0
    assert brentq_calls == []


def speed_variable_vacuum_angle(q_d, tau_d, S_d, gas):
    """Vacuum turning as the speed integral int sqrt(q^2-c^2)/(q c) dq up
    to q_lim, with q = q_lim - t^2 and the volume found by root-finding on
    the enthalpy gap (reference for the fan to vacuum)."""
    pg = thermo.PotentialGas(
        gas=gas, S=S_d,
        bernoulli=0.5 * q_d**2 + thermo.enthalpy(tau_d, S_d, gas))
    q_lim = pg.q_limit()

    def tau_of_gap(gap):
        def f(t):
            return pg.h(t) - pg.h_ref - gap
        lo, hi = 1.0 + 1e-12, 2.0
        while f(hi) >= 0.0:
            lo, hi = hi, 2.0 * hi
        return brentq(f, lo, hi, xtol=thermo.BRENT_XTOL,
                      maxiter=thermo.BRENT_MAXITER)

    def integrand(t):
        q = q_lim - t * t
        # the gap (q_lim^2 - q^2)/2 without the cancellation of
        # bernoulli - q^2/2 as t -> 0
        tau = tau_of_gap(0.5 * t * t * (2.0 * q_lim - t * t))
        c = pg.c(tau)
        return 2.0 * t * math.sqrt(q * q - c * c) / (q * c)

    val, _ = quad(integrand, 0.0, math.sqrt(q_lim - q_d),
                  epsabs=1e-13, epsrel=1e-12, limit=200)
    return -val


@pytest.mark.parametrize("gamma", [1.3, 1.6, 1.9])
@pytest.mark.parametrize("mach", [1.0 + 1e-6, 3.0, 50.0])
def test_vacuum_angle_matches_speed_integral(gamma, mach):
    # foot states just above sonic, in between, and close to q_lim
    gas = thermo.GasModel(gamma)
    S_star, _, S_cr = thermo.critical_entropies(gas)
    S = 0.5 * (S_cr + S_star)
    _, tau2_i = thermo.inflection_roots(S, gas)
    for tau_d in (1.5 * tau2_i, 1e3 * tau2_i):
        q_d = mach * thermo.sound_speed(tau_d, S, gas)
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            got = vacuum_angle(q_d, tau_d, S, gas)
        ref = speed_variable_vacuum_angle(q_d, tau_d, S, gas)
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)


def mpmath_vacuum_angle(q_d, tau_d, S_d, gamma):
    """Vacuum turning -int_0^u_d sqrt(c_u^2 (q^2 - c_u^2 u^2))/(k q^2) du
    at 40 digits, split at 1e-6, 1e-3, 1/2 and 1 - 1e-6 of u_d so that the
    vacuum end and the near-sonic foot each sit at a panel end."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        g, S, tau0 = mp.mpf(gamma), mp.mpf(S_d), mp.mpf(tau_d)
        k = (g - 1) / 2

        def h(tau):
            return (g * S / ((g - 1) * (tau - 1) ** (g - 1))
                    + S / (tau - 1) ** g - 2 / tau)

        q_lim2 = mp.mpf(q_d) ** 2 + 2 * h(tau0)

        def integrand(u):
            if u == 0:
                return mp.sqrt(g * S / q_lim2) / k
            w = u ** (1 / k)
            c_u2 = g * S * (1 - w) ** -(g + 1) - 2 * w ** (2 - g)
            q2 = q_lim2 - 2 * h(1 / w)
            return mp.sqrt(c_u2 * (q2 - c_u2 * u * u)) / (k * q2)

        u_d = tau0 ** -k
        cuts = [0, mp.mpf("1e-6") * u_d, mp.mpf("1e-3") * u_d, u_d / 2,
                (1 - mp.mpf("1e-6")) * u_d, u_d]
        return float(-mp.quad(integrand, cuts))


def vacuum_fan_foot(gamma):
    """(gas, S, tau_d): S mid-way between S_cr and S*, tau_d = 1.5 tau2_i
    beyond the inflection window."""
    gas = thermo.GasModel(gamma)
    S_star, _, S_cr = thermo.critical_entropies(gas)
    S = 0.5 * (S_cr + S_star)
    _, tau2_i = thermo.inflection_roots(S, gas)
    return gas, S, 1.5 * tau2_i


@pytest.mark.parametrize("gamma", [1.02, 1.3, 1.6, 1.9, 1.99])
def test_vacuum_angle_near_sonic_matches_mpmath(gamma):
    # foot Mach - 1 = 2.4e-8: q^2 - c^2 cancels at the foot, where a
    # QUADPACK integral in u was off by up to 2.7e-12
    gas, S, tau_d = vacuum_fan_foot(gamma)
    q_d = (1.0 + 2.4e-8) * thermo.sound_speed(tau_d, S, gas)
    ref = mpmath_vacuum_angle(q_d, tau_d, S, gamma)
    got = vacuum_angle(q_d, tau_d, S, gas)
    assert got == pytest.approx(ref, rel=1e-13, abs=0.0)


def count_rounds(monkeypatch):
    """A list that gains one entry, the number of panels evaluated, per
    integrand round of a _Turning build: each round is one array call of
    fan._forms."""
    rounds = []
    forms = fan._forms

    def counted(lw, pgas, xp):
        if xp is np:
            rounds.append(len(lw))
        return forms(lw, pgas, xp)

    monkeypatch.setattr(fan, "_forms", counted)
    return rounds


@pytest.mark.parametrize("gamma", [1.3, 1.6, 1.9, 1.99])
def test_fan_to_vacuum_takes_few_refinement_rounds(gamma, monkeypatch):
    # u = 0 is a fractional-power point of the integrand (w^(2-gamma)):
    # refined by halving alone it takes one round per level, 44 at 1.99
    rounds = count_rounds(monkeypatch)
    gas, S, tau_d = vacuum_fan_foot(gamma)
    vacuum_angle(3.0 * thermo.sound_speed(tau_d, S, gas), tau_d, S, gas)
    assert 1 <= len(rounds) <= 6


def euler_fixture_leading_turning():
    # the expansion fixture's incoming state: Mach 2 at tau0 = 0.9 tau_f_e
    return upstream_fan(2.0, 0.9 * TAU_F_E)._turning


def potential_fixture_attached_turning():
    pg = thermo.PotentialGas.from_state(G15, S98, 0.32, TAU_F_MID_PO,
                                        bernoulli=1.0)
    return wavecurves.ramp_context(0.32, TAU_F_MID_PO, pg).turning


@pytest.mark.parametrize("build, panels", [
    (euler_fixture_leading_turning, 4),
    (potential_fixture_attached_turning, 4),
], ids=["euler-leading", "potential-attached"])
def test_finite_fixture_fans_take_one_refinement_round(build, panels,
                                                       monkeypatch):
    # both fixture fans are resolved by the first round's four panels; a
    # change to the panel rule or the acceptance test shows here first
    rounds = count_rounds(monkeypatch)
    assert len(build().panels) == panels
    assert rounds == [panels]


def count_evaluations(monkeypatch):
    """A list that gains one entry per scalar call of fan._forms: each
    Newton iterate of a fan query is one."""
    calls = []
    forms = fan._forms

    def counted(lw, pgas, xp):
        if xp is math:
            calls.append(lw)
        return forms(lw, pgas, xp)

    monkeypatch.setattr(fan, "_forms", counted)
    return calls


# fractions of a fan's rays, or of its flow directions, that the query
# tests ask for; the outer ones sit next to the ends of the node tables
QUERY_FRACTIONS = (1e-9, 1e-4, 0.02, 0.25, 0.5, 0.75, 0.98, 1 - 1e-4,
                   1 - 1e-9)


def fixture_fans():
    """Every fan of the expansion, cavitation and compression fixtures."""
    return [piece.fan for sol in (_euler_sol(), _vacuum_sol(),
                                  _potential_sol())
            for piece in sol.pieces if piece.kind == "fan"]


def trailing_fans_to_vacuum():
    """(solution, trailing fan before its wall cuts it) of the expansion and
    cavitation fixtures, built as solve_euler_fsf builds it."""
    for sol in (_euler_sol(), _vacuum_sol()):
        back = sol.shocks[0][1].back
        yield sol, fan.integrate_fan(back.q, back.tau, back.sigma, back.S,
                                     sol.meta["phi_d"], math.inf,
                                     sol.meta["gas"])


def test_fan_queries_take_few_newton_iterates(monkeypatch):
    # one _forms call per Newton iterate: the Hermite start leaves most
    # queries one step, and the counts are deterministic, so a change to
    # the start, the steps or the stopping tests shows here first
    fans = fixture_fans()
    walls = []
    for sol, full in trailing_fans_to_vacuum():
        s0, s_end = (full.state(t)[2] for t in (full.theta_start,
                                                 full.theta_end))
        if sol.theta_w > s_end:
            walls.append((full, sol.theta_w))     # a slip-line wall
        walls += [(full, s0 - f * (s0 - s_end)) for f in QUERY_FRACTIONS]
    calls = count_evaluations(monkeypatch)
    on_rays, on_walls, cuts = [], [], []
    for fs in fans:
        for f in QUERY_FRACTIONS:
            n = len(calls)
            fs.state_at(fs.theta_start - f * (fs.theta_start - fs.theta_end))
            on_rays.append(len(calls) - n)
    for full, theta_w in walls:
        n = len(calls)
        cuts.append(full.slip_line(theta_w))
        on_walls.append(len(calls) - n)
    # the first wall is the expansion fixture's own
    assert cuts[0].theta_end == _euler_sol().meta["alpha_w"]
    assert max(on_rays + on_walls) <= fan.NEWTON_STEPS
    assert (len(on_rays), sum(on_rays)) == (45, 75)
    assert (len(on_walls), sum(on_walls)) == (19, 32)


def solve_ray_with_slope_scaled(monkeypatch, turning, theta, scale):
    """(turning.solve(theta, 1), iterates taken) with P, and so the ray
    slope, scaled by `scale` in the first iterate."""
    calls = []
    forms = fan._forms

    def tampered(lw, pgas, xp):
        c_u2, q2, P = forms(lw, pgas, xp)
        calls.append(lw)
        return c_u2, q2, P * scale if len(calls) == 1 else P

    with monkeypatch.context() as m:
        m.setattr(fan, "_forms", tampered)
        return turning.solve(theta, 1), len(calls)


@pytest.mark.parametrize("frac", [0.25, 0.5, 0.75])
def test_a_newton_step_out_of_its_bracket_still_converges(frac,
                                                         monkeypatch):
    # the first iterate keeps its value and its bracket, but its slope is
    # scaled by 1e-15 and its step grows by 1e15: the untampered query
    # takes a second iterate, so that step was above x_tol, more than
    # 1e-13 of the node interval, and the tampered step leaves the bracket
    for fs in fixture_fans():
        theta = fs.theta_start - frac * (fs.theta_start - fs.theta_end)
        ref, n_ref = solve_ray_with_slope_scaled(monkeypatch, fs._turning,
                                                 theta, 1.0)
        got, n_got = solve_ray_with_slope_scaled(monkeypatch, fs._turning,
                                                 theta, 1e-15)
        assert n_ref >= 2
        assert n_got < fan.NEWTON_STEPS
        assert abs(got[3] - theta) <= 1e-14 * (1.0 + abs(theta))
        assert got[:3] == pytest.approx(ref[:3], rel=1e-12)


def mpmath_fan_end(q0, tau0, sigma0, tau_end, S, gamma):
    """(sigma, sigma + arcsin(c/q)) at tau_end of the fan from the state
    (q0, tau0, sigma0), from the turning rate c sqrt(q^2 - c^2)/(tau q^2)
    integrated in tau at 40 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        g, S_, t0, t1 = (mp.mpf(v) for v in (gamma, S, tau0, tau_end))

        def h(tau):
            return (g * S_ / ((g - 1) * (tau - 1) ** (g - 1))
                    + S_ / (tau - 1) ** g - 2 / tau)

        def c2(tau):
            return tau ** 2 * (g * S_ / (tau - 1) ** (g + 1) - 2 / tau ** 3)

        q_lim2 = mp.mpf(q0) ** 2 + 2 * h(t0)

        def rate(tau):
            q2 = q_lim2 - 2 * h(tau)
            return mp.sqrt(c2(tau) * (q2 - c2(tau))) / (tau * q2)

        sigma = mp.mpf(sigma0) - mp.quad(rate, mp.linspace(t0, t1, 5))
        ray = sigma + mp.asin(mp.sqrt(c2(t1) / (q_lim2 - 2 * h(t1))))
        return float(sigma), float(ray)


def test_fan_near_the_covolume_matches_mpmath():
    # tau0 - 1 = 5e-6 at Mach 50: next to the covolume c changes on a
    # scale of 1e-6 in u
    gas = thermo.GasModel(1.3)
    S_star, _, S_cr = thermo.critical_entropies(gas)
    S = 0.5 * (S_cr + S_star)
    tau0, tau_end = 1.0 + 5e-6, 1.0 + 1e-4
    c0 = thermo.sound_speed(tau0, S, gas)
    q0 = 50.0 * c0
    sol = fan.integrate_fan(q0, tau0, 0.0, S, math.asin(c0 / q0),
                            tau_end, gas)
    _, ref = mpmath_fan_end(q0, tau0, 0.0, tau_end, S, 1.3)
    assert sol.theta_end == pytest.approx(ref, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# potential-flow turning

def potential_anchor():
    tau_ref = TAU_PO_POTENTIAL
    c_ref = thermo.sound_speed(tau_ref, S98, G15)
    q_ref = 1.8 * c_ref
    pg = thermo.PotentialGas.from_state(G15, S98, q_ref, tau_ref,
                                        bernoulli=1.0)
    return pg, q_ref, tau_ref


def test_pm_potential_trivial_at_anchor():
    pg, q_ref, tau_ref = potential_anchor()
    sigma_ref = -0.1
    sig, alp = turning.pm_potential(tau_ref, pg, q_ref, sigma_ref, tau_ref)
    assert sig == pytest.approx(sigma_ref, abs=1e-13)
    A_ref = math.asin(pg.c(tau_ref) / q_ref)
    assert alp == pytest.approx(sigma_ref + A_ref, abs=1e-13)


def test_pm_potential_monotone_and_tangent():
    pg, q_ref, tau_ref = potential_anchor()
    sigma_ref = -0.1
    anchored = thermo.PotentialGas.from_state(G15, S98, q_ref, tau_ref,
                                              bernoulli=1.0)

    def row(tau):
        sig, alp = turning.pm_potential(tau, pg, q_ref, sigma_ref, tau_ref)
        q = turning.speed_of_tau(anchored, tau)
        return sig, alp, q

    taus = np.linspace(TAU1_I + 0.25, tau_ref, 9)
    rows = [row(t) for t in taus]
    # turning signs on the window: sigma decreasing, ray angle increasing
    assert all(a[0] > b[0] for a, b in zip(rows, rows[1:]))
    assert all(a[1] < b[1] for a, b in zip(rows, rows[1:]))
    # ray tangency identities, with the velocity row (u, v) = q (cos, sin)
    d = 1e-6
    for tau in taus[1:-1]:
        sig, alp, q = row(tau)
        u, v = q * math.cos(sig), q * math.sin(sig)
        assert u * math.sin(alp) - v * math.cos(alp) == pytest.approx(
            anchored.c(tau), rel=1e-12)
        sp, ap_, qp = row(tau + d)
        sm, am, qm = row(tau - d)
        du = (qp * math.cos(sp) - qm * math.cos(sm)) / (2 * d)
        dv = (qp * math.sin(sp) - qm * math.sin(sm)) / (2 * d)
        assert abs(du * math.cos(alp) + dv * math.sin(alp)) < 1e-6 * q


def _flat_isentrope_found_case():
    # potential_sweep seed 109 state 10 (tau0 ~ 516): the composite-branch
    # node tau_po - 1e-8 (tau_po - tau1_i), 3.6e-11 of the volume from P,
    # where QUADPACK raised "extremely bad integrand behavior" on the
    # rounding of a speed-to-volume root
    pg = thermo.PotentialGas.from_state(
        thermo.GasModel(1.7695926455780864), 0.5015107946990929,
        0.5001902721173039, 516.2033971219385, bernoulli=1.0)
    tau_po = shocks.post_sonic_tau_potential(516.2033971219385, pg)
    tau1_i, _ = pg.inflection_pair
    return pg, tau_po, tau_po - 1e-8 * (tau_po - tau1_i)


def _anchor_case():
    # the volume of the speed a model is built through: 4.90000000000002,
    # within rounding of 4.9, where QUADPACK raised the same warning
    pg = thermo.PotentialGas.from_state(G15, S98, 0.1, 4.9, bernoulli=1.0)
    return pg, 4.9, thermo.tau_from_speed(0.1, pg)


@pytest.mark.parametrize("case", ["found", "anchor", "0.9e-9", "-1e-10",
                                  "1e-13"])
def test_turning_angle_on_short_intervals(case):
    # the turning angle nu between two volumes within 1e-9 of each other
    if case == "found":
        pg, tau_from, tau_to = _flat_isentrope_found_case()
    elif case == "anchor":
        pg, tau_from, tau_to = _anchor_case()
    else:
        pg, _, tau_from = potential_anchor()
        tau_to = tau_from * (1.0 + float(case))
    d = tau_to - tau_from
    assert 0.0 < abs(d) <= 1e-9 * min(tau_from, tau_to)
    # reference: the mean of the integrand over widened intervals about the
    # same midpoint, taken by QUADPACK, differs from its value at the
    # midpoint by O(w^2); two widths a decade apart cancel that term
    mid = 0.5 * (tau_from + tau_to)

    def mean(w):
        a, b = mid - 0.5 * w, mid + 0.5 * w
        return turning.turning_in_volume(a, b, pg) / (b - a)

    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        short = turning.turning_in_volume(tau_from, tau_to, pg)
        ref = (100.0 * mean(1e-8 * tau_from) - mean(1e-7 * tau_from)) / 99.0
    assert short / d == pytest.approx(ref, rel=1e-9)


def test_turning_in_volume_is_antisymmetric():
    # long intervals of the fixture isentrope, both ways round
    pg, _, tau_ref = potential_anchor()
    for tau in (TAU1_I + 0.25, 0.5 * (TAU1_I + tau_ref), 2.0 * tau_ref,
                50.0 * tau_ref):
        nu = turning.turning_in_volume(tau_ref, tau, pg)
        assert turning.turning_in_volume(tau, tau_ref, pg) == pytest.approx(
            -nu, rel=1e-14, abs=0.0)


# (gamma, S, q_po, sigma_po, tau_po, tau1_i) of the post-sonic point of the
# compression fixture (u0 = 0.32, tau0 = 25.0066) and of potential_sweep
# seed 204 state 12 (tau_po within 0.2% of tau1_i) and seed 209 state 15
# (tau_po just below tau2_i)
PO_POINTS = {
    "fixture": (1.5, S98, 0.21812603958935026, 0.5305811595595423,
                7.481738396911067, 6.222021767887086),
    "204/12": (1.5610382502898574, 0.3679710887428113, 1.2147794364531164,
               0.2579312290701425, 6.899250263238171, 6.886071314060558),
    "209/15": (1.7211201174184678, 0.4642651727077509, 0.17151554001667524,
               0.0007960895446974813, 16.730067033786284,
               12.394356025920228),
}


@pytest.mark.parametrize("case", sorted(PO_POINTS))
def test_pm_potential_matches_mpmath(case):
    # against the volume integral at 40 digits; a speed-keyed integral
    # with a root solve at every node was off by up to 1.3e-14 rad here
    g, S, q_po, sigma_po, tau_po, tau1_i = PO_POINTS[case]
    pg = thermo.PotentialGas(gas=thermo.GasModel(g), S=S, bernoulli=1.0)
    for f in (0.05, 0.5, 0.95):
        tau = tau1_i + f * (tau_po - tau1_i)
        sigma, _ = turning.pm_potential(tau, pg, q_po, sigma_po, tau_po)
        ref, _ = mpmath_fan_end(q_po, tau_po, sigma_po, tau, S, g)
        assert sigma == pytest.approx(ref, rel=0.0, abs=2e-15)


def test_potential_fan_maps_no_speed_to_a_volume(monkeypatch):
    # pm_potential integrates in the volume; riemann_invariants solves the
    # Bernoulli law only for the state, its anchor being a volume
    calls = []
    root = turning.tau_from_speed

    def counted(q, pgas):
        calls.append(q)
        return root(q, pgas)

    monkeypatch.setattr(turning, "tau_from_speed", counted)
    monkeypatch.setattr(thermo, "tau_from_speed", counted)
    pg, q_ref, tau_ref = potential_anchor()
    sigma, _ = turning.pm_potential(TAU1_I + 0.25, pg, q_ref, -0.1, tau_ref)
    assert calls == []
    q = turning.speed_of_tau(pg, TAU1_I + 0.25)
    turning.riemann_invariants(q * math.cos(sigma), q * math.sin(sigma), pg,
                               tau_ref)
    assert len(calls) == 1


def test_riemann_invariants_sum_and_fan_invariance():
    pg, q_ref, tau_ref = potential_anchor()
    anchored = thermo.PotentialGas.from_state(G15, S98, q_ref, tau_ref,
                                              bernoulli=1.0)
    sigma_ref = -0.1
    rp_ref = None
    for tau in np.linspace(TAU1_I + 0.25, tau_ref, 7):
        sig, alp = turning.pm_potential(tau, pg, q_ref, sigma_ref, tau_ref)
        q = turning.speed_of_tau(anchored, tau)
        u, v = q * math.cos(sig), q * math.sin(sig)
        rp, rm = turning.riemann_invariants(u, v, anchored, tau_ref)
        assert rp + rm == pytest.approx(2.0 * sig, abs=1e-12)
        if rp_ref is None:
            rp_ref = rp
        else:
            # the fan is an integral curve of the plus family
            assert abs(rp - rp_ref) < 1e-9


def test_riemann_invariants_speed_partials():
    pg, q_ref, tau_ref = potential_anchor()
    anchored = thermo.PotentialGas.from_state(G15, S98, q_ref, tau_ref,
                                              bernoulli=1.0)
    q, sigma = q_ref, -0.05
    tau = thermo.tau_from_speed(q, anchored)
    c = anchored.c(tau)
    expect = q * c / (2.0 * math.sqrt(q * q - c * c))
    d = 1e-7
    # move along r_minus = const: dsigma = +dnu
    nu = turning.turning_in_volume(tau, thermo.tau_from_speed(q + d, anchored),
                                   anchored)
    u1, v1 = (q + d) * math.cos(sigma + nu), (q + d) * math.sin(sigma + nu)
    u0, v0 = q * math.cos(sigma), q * math.sin(sigma)
    rp1, rm1 = turning.riemann_invariants(u1, v1, anchored, tau_ref)
    rp0, rm0 = turning.riemann_invariants(u0, v0, anchored, tau_ref)
    assert rm1 == pytest.approx(rm0, abs=1e-12)
    assert d / (rp1 - rp0) == pytest.approx(expect, rel=1e-5)
    # move along r_plus = const: dsigma = -dnu
    u2, v2 = (q + d) * math.cos(sigma - nu), (q + d) * math.sin(sigma - nu)
    rp2, rm2 = turning.riemann_invariants(u2, v2, anchored, tau_ref)
    assert rp2 == pytest.approx(rp0, abs=1e-12)
    assert d / (rm2 - rm0) == pytest.approx(-expect, rel=1e-5)


def test_riemann_invariants_guards():
    pg, q_ref, tau_ref = potential_anchor()
    with pytest.raises(ValueError, match="subsonic"):
        turning.riemann_invariants(0.45 * q_ref, 0.0, pg, tau_ref)
    # a subsonic anchor volume: the integral crosses the sonic volume
    slow = thermo.tau_from_speed(0.45 * q_ref, pg)
    with pytest.raises(ValueError, match="subsonic"):
        turning.riemann_invariants(q_ref, 0.0, pg, slow)
