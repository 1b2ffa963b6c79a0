"""Piecewise self-similar assemblies: junctions, jumps, wall condition."""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from bztflow import shocks, thermo
from bztflow import selfsimilar as ss
from bztflow import wavecurves as wc
from bztflow.shocks import normal_split, rh_residuals_euler
from bztflow.thermo import GasModel, PotentialGas, sound_speed
from oracles.literals import (
    G15, S98, TAU1_I, TAU_F_E, TAU_D, S_D, U0, TAU0, PHI_PO, SIGMA_M,
    TAU_W_MID, ALPHA_HAT_MID, U_PI_MID, V_PI_MID, TAU_PR_MID, U_IJ_MID,
    V_IJ_MID, SIGMA_IJ_MID,
)
from reference import characteristics as ck
from reference import turning

# frozen from tests/oracles/gen_expected.py (fan turning by composite
# Gauss-Legendre panels, roots by bisection); entropy S98 = 0.98 S*

# expansion ramp: tau0 = 0.9 tau_f_e, incoming Mach 2
TAU0_R = 4.906048581369866
U0_R = 0.18208749581707645
B0_R = 0.18124798039078327
ALPHA0_R = 0.5235987755982989
Q1_R = 0.18527935031988466
PHI_D_R = 0.28843948768200867
U_D_R = 0.21488187539914352
V_D_R = -0.10739192666867611
Q_D_R = 0.24022332586296308
SIGMA_D_R = -0.4634651254772856
ALPHA_V_R = -2.8489920105818145
THETA_W_R = -1.417676
TAU_SLIP_R = 128.66025852286597
Q_W_R = 0.456324164274202
ALPHA_W_R = -1.0188674417940558
U_W_R = 0.06959978852617257
V_W_R = -0.45098515755805196
THETA_ML_R = 0.3862092412369046
TAU_ML_R = 5.178606835890414
Q_ML_R = 0.1840679948999641
SIGMA_ML_R = -0.021554723850839622
THETA_MR_R = -0.7144951361205722
TAU_MR_R = 71.8429410378894
Q_MR_R = 0.4108961165061022
SIGMA_MR_R = -1.1942442819663786

# same ramp at Mach 10: the full turning to cavitation fits above the
# downward vertical, so a wall can undercut the vacuum ray
U0_VAC = 0.9104374790853822
ALPHA_V_VAC = -1.2966415310678998
Q_LIM_VAC = 1.076213969418711

_CACHE = {}


def _euler_sol():
    if "euler" not in _CACHE:
        _CACHE["euler"] = ss.solve_euler_fsf(U0_R, TAU0_R, S98, THETA_W_R,
                                             G15)
    return _CACHE["euler"]


def _vacuum_sol():
    if "vacuum" not in _CACHE:
        _CACHE["vacuum"] = ss.solve_euler_fsf(U0_VAC, TAU0_R, S98, -1.4, G15)
    return _CACHE["vacuum"]


def _pgas():
    if "pgas" not in _CACHE:
        _CACHE["pgas"] = PotentialGas.from_state(G15, S98, U0, TAU0,
                                                 bernoulli=1.0)
    return _CACHE["pgas"]


def _potential_sol():
    if "potential" not in _CACHE:
        _CACHE["potential"] = ss.solve_potential_sfs(U0, TAU0,
                                                     SIGMA_IJ_MID, _pgas())
    return _CACHE["potential"]


def _ray(theta, r=2.0):
    return r * math.cos(theta), r * math.sin(theta)


# ---------------------------------------------------------------------------
# expansion assembly


def test_euler_assembly_angles():
    sol = _euler_sol()
    assert [p.kind for p in sol.pieces] == ["constant", "fan", "fan",
                                            "constant"]
    a0, phi_d, a_w = sol.breakpoints
    assert a0 == pytest.approx(ALPHA0_R, rel=1e-12)
    assert phi_d == pytest.approx(PHI_D_R, abs=1e-9)
    assert a_w == pytest.approx(ALPHA_W_R, abs=1e-9)
    assert sol.meta["sigma_d"] == pytest.approx(SIGMA_D_R, abs=1e-9)
    assert sol.meta["alpha_v"] == pytest.approx(ALPHA_V_R, abs=1e-9)


def test_euler_embedded_shock():
    sol = _euler_sol()
    (theta_s, sh), = sol.shocks
    assert theta_s == sol.breakpoints[1]
    assert sh.kind == "double_sonic"
    assert sh.front.tau == pytest.approx(TAU_F_E, rel=1e-10)
    assert sh.front.q == pytest.approx(Q1_R, rel=1e-9)
    assert sh.back.tau == pytest.approx(TAU_D, rel=1e-12)
    assert sh.back.S == pytest.approx(S_D, rel=1e-12)
    assert sh.back.u == pytest.approx(U_D_R, rel=1e-9)
    assert sh.back.v == pytest.approx(V_D_R, rel=1e-9)
    assert max(abs(r) for r in rh_residuals_euler(sh, G15)) < 1e-9
    # sonic on both sides of the front
    _, N_b = normal_split(sh.back.u, sh.back.v, sh.phi)
    assert N_b == pytest.approx(sound_speed(sh.back.tau, sh.back.S, G15),
                                rel=1e-10)
    _, N_f = normal_split(sh.front.u, sh.front.v, sh.phi)
    assert N_f == pytest.approx(sound_speed(sh.front.tau, sh.front.S, G15),
                                rel=1e-10)
    assert sh.back.S > sh.front.S


def test_euler_wall_state():
    sol = _euler_sol()
    wall = sol.pieces[-1].state
    assert wall.u == pytest.approx(U_W_R, rel=1e-9)
    assert wall.v == pytest.approx(V_W_R, rel=1e-9)
    assert wall.tau == pytest.approx(TAU_SLIP_R, rel=1e-9)
    assert wall.q == pytest.approx(Q_W_R, rel=1e-9)
    # aligned with the wall up to the rounding of tan itself
    assert wall.v == pytest.approx(wall.u * math.tan(THETA_W_R), abs=1e-15)


def test_euler_validation_report():
    sol = _euler_sol()
    rep = ss.validate(sol)
    assert sol.system == rep.system == "euler"
    assert rep.ok
    assert rep.max_junction_gap < 1e-9
    assert rep.max_rh_residual < 1e-9
    assert rep.slip_residual < 1e-12
    assert rep.bernoulli_spread < 1e-10
    assert rep.entropy_increasing
    assert rep.wall_supersonic
    assert rep.shock_kinds == ("double_sonic",)


def test_euler_evaluate_matches_fan_probes():
    sol = _euler_sol()
    st_l = ss.evaluate(sol, *_ray(THETA_ML_R))
    assert st_l.q == pytest.approx(Q_ML_R, rel=1e-9)
    assert st_l.sigma == pytest.approx(SIGMA_ML_R, abs=1e-9)
    assert st_l.tau == pytest.approx(TAU_ML_R, rel=1e-9)
    assert st_l.S == S98
    st_r = ss.evaluate(sol, *_ray(THETA_MR_R))
    assert st_r.q == pytest.approx(Q_MR_R, rel=1e-9)
    assert st_r.sigma == pytest.approx(SIGMA_MR_R, abs=1e-9)
    assert st_r.tau == pytest.approx(TAU_MR_R, rel=1e-8)
    # the point sampler and the fan's own state are the same curve
    q, tau, sigma, _ = sol.pieces[1].fan.state(THETA_ML_R)
    assert st_l.u == q * math.cos(sigma)
    assert st_l.v == q * math.sin(sigma)
    assert st_l.tau == tau


def test_euler_shock_ray_sides():
    sol = _euler_sol()
    phi_d = sol.breakpoints[1]
    above = ss.evaluate(sol, *_ray(phi_d + 1e-12))
    below = ss.evaluate(sol, *_ray(phi_d - 1e-12))
    assert above.S == S98 and above.tau == pytest.approx(TAU_F_E, rel=1e-8)
    assert below.S == pytest.approx(S_D, rel=1e-12)
    assert below.tau == pytest.approx(TAU_D, rel=1e-8)


def test_euler_scale_invariance():
    sol = _euler_sol()
    rays = (1.2, 0.45, -0.2, -0.9, -1.3, ALPHA0_R, PHI_D_R + 1e-7)
    for theta in rays:
        x, y = _ray(theta, r=0.7)
        base = ss.evaluate(sol, x, y)
        for lam in (0.5, 2.0):
            st2 = ss.evaluate(sol, lam * x, lam * y)
            assert (st2.u, st2.v, st2.tau, st2.S) == (base.u, base.v,
                                                      base.tau, base.S)
        st10 = ss.evaluate(sol, 10.0 * x, 10.0 * y)
        assert st10.u == pytest.approx(base.u, abs=1e-12)
        assert st10.v == pytest.approx(base.v, abs=1e-12)
        assert st10.tau == pytest.approx(base.tau, rel=1e-12)


def test_euler_tiling_is_gapless():
    for sol in (_euler_sol(), _vacuum_sol(), _potential_sol()):
        assert sol.pieces[0].theta_hi == 0.5 * math.pi
        for hi, lo in zip(sol.pieces[:-1], sol.pieces[1:]):
            assert hi.theta_lo == lo.theta_hi
        assert sol.pieces[-1].theta_lo == sol.theta_w
        assert list(sol.breakpoints) == sorted(sol.breakpoints,
                                               reverse=True)


def _wave_curve_walls():
    branch = wc.shock_fan_shock_branch(U0, TAU0, _pgas())
    sigma_m, sigma_M = wc.deflection_range(branch)
    return [ss.solve_potential_sfs(U0, TAU0,
                                   sigma_m + f * (sigma_M - sigma_m), _pgas())
            for f in (0.02, 0.25, 0.5, 0.75, 0.98)]


def test_every_fan_spans_its_piece():
    # a fan's head and end rays are its piece's edges, bit for bit: the
    # attached potential fan starts on the head shock's ray head.phi, as
    # the Euler fans start on their breakpoints
    sols = [_euler_sol(), _vacuum_sol(), *_wave_curve_walls()]
    pieces = [p for sol in sols for p in sol.pieces if p.kind == "fan"]
    assert len(pieces) == 9
    for piece in pieces:
        assert piece.fan.theta_start == piece.theta_hi
        assert piece.fan.theta_end == piece.theta_lo


def test_vacuum_reads_as_its_name():
    assert repr(ss.VACUUM) == "VACUUM"


def test_euler_outside_domain():
    sol = _euler_sol()
    with pytest.raises(ValueError, match="outside-domain"):
        ss.evaluate(sol, -1.0, 0.3)
    with pytest.raises(ValueError, match="outside-domain"):
        ss.evaluate(sol, 1.0, math.tan(THETA_W_R) - 1e-9)


def test_euler_degenerate_trailing_fan():
    sigma_d = _euler_sol().meta["sigma_d"]
    sol = ss.solve_euler_fsf(U0_R, TAU0_R, S98, sigma_d - 1e-7, G15)
    assert abs(sol.meta["alpha_w"] - sol.meta["phi_d"]) < 5e-6
    wall = sol.pieces[-1].state
    assert wall.q == pytest.approx(Q_D_R, rel=1e-5)
    assert ss.validate(sol).ok


def test_euler_vacuum_tail():
    sol = _vacuum_sol()
    assert [p.kind for p in sol.pieces] == ["constant", "fan", "fan",
                                            "vacuum"]
    assert sol.meta["q_lim"] == pytest.approx(Q_LIM_VAC, rel=1e-10)
    # the trailing fan ends at u = 0, where its ray is the vacuum ray
    assert sol.meta["theta_cav"] == pytest.approx(ALPHA_V_VAC, abs=1e-9)
    assert ss.evaluate(sol, *_ray(-1.35)) is ss.VACUUM
    seam = sol.meta["theta_cav"]
    st = ss.evaluate(sol, *_ray(seam + 1e-9))
    assert st.q == pytest.approx(Q_LIM_VAC, abs=1e-9)
    assert st.tau > 1e20
    rep = ss.validate(sol)
    assert rep.ok
    assert rep.vacuum_match < 1e-9
    assert rep.slip_residual == 0.0


def test_euler_trailing_fan_starts_on_the_shock_ray():
    # high-Mach cavitation case where the ray recomputed from the back
    # state, sigma_d + arcsin(c_d/q_d), rounds above phi_d; a fan started
    # there put the shock-back junction 1.16e-9 inside the fan
    sol = ss.solve_euler_fsf(90.58529873840524, 1.0923046197754214,
                             0.4102222434541033, -0.7227295075563864,
                             GasModel(1.643981048464775))
    assert sol.pieces[2].fan.theta_start == sol.meta["phi_d"]
    rep = ss.validate(sol)
    assert rep.max_junction_gap < 1e-10
    assert rep.ok


# expansion ramps from the euler_sweep benchmark, each ending in a
# cavitation sector: the fan-end rays must be centred to rounding and the
# vacuum seam must sit at q_lim exactly
@pytest.mark.parametrize("gamma, S0, tau0, u0, theta_w", [
    # fan-end Mach 10^3: the front-side RH residual amplifies a centring
    # drift of the leading fan's end ray by 2q/c
    (1.8866991098970174, 0.6564061954639853, 1.0936795514040591,
     143.48667217679193, -0.12430030903537248),
    (1.5768896032124757, 0.3765098758317232, 1.0326431085312135,
     331.99362956299865, -0.4775396200819754),
    # vacuum seam: a fan cut off at a finite volume missed q_lim by 4.7e-9
    (1.3360958501696587, 0.31050999921896705, 2.051044280350358,
     2.0094336369501598, -1.4900646264412416),
    # tau0 near the covolume at u0 ~ 1250, where u = tau^-k is close to 1
    # and the turning integrand is steep in u
    (1.5073551986366511, 0.3565272813276997, 1.0116930860384317,
     1252.2290060538976, -1.2064364376972951),
])
def test_euler_sweep_regressions(gamma, S0, tau0, u0, theta_w):
    sol = ss.solve_euler_fsf(u0, tau0, S0, theta_w, GasModel(gamma))
    rep = ss.validate(sol)
    assert rep.ok
    assert rep.max_rh_residual < 1e-12
    assert rep.vacuum_match == 0.0


@pytest.mark.parametrize("u0, tau0, S0, theta_w, msg", [
    (U0_R, TAU0_R, S98, 0.1, "assumption-A1-violated.*theta_w"),
    (U0_R, 6.0, S98, -0.5, "assumption-A1-violated.*tau0"),
    (U0_R, TAU0_R, 0.36, -0.5, "assumption-A1-violated.*S0"),
    (0.05, TAU0_R, S98, -0.5, "assumption-A1-violated.*not above"),
    (U0_R, TAU0_R, S98, -0.05, "wedge-angle-above-sigma_d"),
])
def test_euler_precondition_errors(u0, tau0, S0, theta_w, msg):
    with pytest.raises(ValueError, match=msg):
        ss.solve_euler_fsf(u0, tau0, S0, theta_w, G15)


# corners of the A1 domain, (u0, tau0, S0, theta_w, gamma), where a stage
# of the assembly fails
@pytest.mark.parametrize("case, stage, code", [
    ((213.0179713052221, 5.796012520839225, 0.9999179531127872,
      -0.004224748409037501, 1.999993974954234),
     "embedded-shock", "not-on-locus"),
    ((116.01480230072524, 2.645026446171485, 0.2979878456386255,
      -3.1392298457039827, 1.001182435680568),
     "trailing-fan", "no-convergence"),
    ((0.6145196709656628, 1.848884879344028, 0.3076391054814648,
      -3.140725801769546, 1.0000014574917322),
     "leading-fan", "no-convergence"),
], ids=["embedded-shock", "trailing-fan", "leading-fan"])
def test_euler_stage_errors_chain_the_inner_code(case, stage, code):
    u0, tau0, S0, theta_w, gamma = case
    with pytest.raises(ValueError, match=f"^{stage}: {code}: ") as info:
        ss.solve_euler_fsf(u0, tau0, S0, theta_w, GasModel(gamma))
    assert str(info.value.__cause__).startswith(f"{code}: ")


def test_validate_reports_on_a_wall_near_the_float_limit():
    # pressure_tau overflows at the slip wall near tau = 1.5e229; the sound
    # speed there comes from its in-range form, and the wall (q = 287.5,
    # c = 0.5455) is supersonic
    sol = ss.solve_euler_fsf(286.93721237352605, 3.6223385746722694,
                             0.31621056105471623, -1.0139333975461757,
                             GasModel(1.0001154515513817))
    assert sol.pieces[-1].state.tau > 1e229
    assert ss.validate(sol).wall_supersonic


@pytest.mark.parametrize("build, k", [
    (_euler_sol, 1), (_euler_sol, 2), (_potential_sol, 1),
], ids=["euler-leading", "euler-trailing", "potential-attached"])
def test_each_fan_carries_its_isentrope(build, k):
    # one PotentialGas per fan, vacuum-referenced for the Euler fans and the
    # ramp model itself for the attached potential fan: the Bernoulli law
    # holds about its constant at both ends, and the Euler model's B0 is
    # the leading fan's constant itself
    sol = build()
    fan_k = sol.pieces[k].fan
    pgas = fan_k.pgas
    if sol.system == "euler":
        assert pgas.h_ref == 0.0
    else:
        assert pgas is sol.meta["pgas"]
    for theta in (fan_k.theta_start, fan_k.theta_end):
        q, tau, _, S = fan_k.state(theta)
        assert S == pgas.S
        assert 0.5 * q * q + pgas.h(tau) == pytest.approx(
            pgas.bernoulli, rel=1e-14, abs=0.0)
    if sol.system == "euler":
        assert sol.model.B0 == sol.pieces[1].fan.pgas.bernoulli


_BUILDS = {"euler": _euler_sol, "vacuum": _vacuum_sol,
           "potential": _potential_sol}


@pytest.mark.parametrize("call, msg", [
    (lambda: ss.solve_euler_fsf(math.nan, TAU0_R, S98, -0.5, G15),
     "assumption-A1-violated: u0=nan not above"),
    (lambda: ss.solve_euler_fsf(math.inf, TAU0_R, S98, -0.5, G15),
     "assumption-A1-violated: u0=inf not above"),
    (lambda: ss.solve_euler_fsf(U0_R, TAU0_R, S98, math.nan, G15),
     "assumption-A1-violated: theta_w=nan not negative"),
    *[(lambda b=build, p=point: ss.evaluate(b(), *p), "outside-domain")
      for build in _BUILDS.values()
      for point in ((math.nan, 1.0), (1.0, math.nan))],
], ids=["solve-u0", "solve-u0-inf", "solve-theta_w",
        *[f"{name}-{axis}" for name in _BUILDS for axis in "xy"]])
def test_nan_inputs_raise_coded_errors(call, msg):
    # every comparison with NaN is false, so the domain tests are written
    # to fail closed; an infinite speed fails the same clause
    with pytest.raises(ValueError, match=msg):
        call()


@pytest.mark.parametrize("theta_w", [-math.inf, -4.0, -math.pi,
                                     math.nextafter(-math.pi, 0.0), -2.0])
def test_wall_angles_down_to_minus_pi(theta_w):
    # a wall direction at or below -pi is the line of one at or above 0;
    # above it a convex corner may turn the flow past pi/2
    if theta_w <= -math.pi:
        with pytest.raises(ValueError,
                           match="assumption-A1-violated: theta_w"):
            ss.solve_euler_fsf(U0_R, TAU0_R, S98, theta_w, G15)
    else:
        sol = ss.solve_euler_fsf(U0_R, TAU0_R, S98, theta_w, G15)
        assert sol.theta_w == theta_w and ss.validate(sol).ok


@settings(max_examples=25, deadline=None)
@given(theta=st.floats(min_value=THETA_W_R + 1e-6,
                       max_value=0.5 * math.pi - 1e-6))
def test_euler_bernoulli_on_random_rays(theta):
    from bztflow.thermo import enthalpy
    st_ = ss.evaluate(_euler_sol(), *_ray(theta))
    B = 0.5 * st_.q**2 + enthalpy(st_.tau, st_.S, G15)
    assert B == pytest.approx(B0_R, abs=1e-9)
    assert st_.S in (S98, _euler_sol().meta["S_d"])


# ---------------------------------------------------------------------------
# compression assembly


def test_potential_assembly_structure():
    sol = _potential_sol()
    assert [p.kind for p in sol.pieces] == ["constant", "fan", "constant"]
    assert sol.meta["tau_w"] == pytest.approx(TAU_W_MID, rel=1e-10)
    phi_po, alpha_t = sol.breakpoints
    assert phi_po == pytest.approx(PHI_PO, rel=1e-10)
    assert alpha_t == pytest.approx(ALPHA_HAT_MID, rel=1e-10)
    kinds = [sh.kind for _, sh in sol.shocks]
    assert kinds == ["post_sonic", "pre_sonic"]


def test_potential_sonic_attachments():
    sol = _potential_sol()
    pg = _pgas()
    (_, head), (_, tail) = sol.shocks
    _, N_hb = normal_split(head.back.u, head.back.v, head.phi)
    assert abs(N_hb - pg.c(head.back.tau)) < 1e-10
    _, N_tf = normal_split(tail.front.u, tail.front.v, tail.phi)
    assert abs(N_tf - pg.c(tail.front.tau)) < 1e-10
    # the leading front lies along the characteristic of its back state
    alpha_back = sol.meta["context"].fan_state(head.back.tau)[2]
    assert abs(head.phi - alpha_back) < 1e-10


def test_potential_wall_state():
    sol = _potential_sol()
    wall = sol.pieces[-1].state
    q_t = math.hypot(U_IJ_MID, V_IJ_MID)
    assert wall.q == pytest.approx(q_t, rel=1e-10)
    assert wall.tau == pytest.approx(TAU_PR_MID, rel=1e-10)
    assert wall.v == pytest.approx(wall.u * math.tan(SIGMA_IJ_MID), abs=1e-15)


def test_potential_validation_report():
    sol = _potential_sol()
    rep = ss.validate(sol)
    assert sol.system == rep.system == "potential"
    assert rep.ok
    assert rep.max_junction_gap < 1e-9
    assert rep.max_rh_residual < 1e-10
    assert rep.liu_ok
    assert rep.slip_residual < 1e-12
    assert rep.r_plus_spread < 1e-9
    assert rep.wall_supersonic


def _fixture_isentrope(u0):
    pgas = PotentialGas.from_state(G15, S98, u0, TAU0, bernoulli=1.0)
    return pgas, wc.deflection_range(wc.shock_fan_shock_branch(u0, TAU0,
                                                               pgas))


@pytest.mark.parametrize("u0, frac", [(0.2456, 0.02), (0.2456, 0.98),
                                      (0.25, 0.98)])
def test_potential_subsonic_wall_is_rejected(u0, frac):
    # slow streams on the fixture isentrope: the tail shock leaves the
    # wall state at Mach 0.56-0.88 near either end of the window
    pgas, (sigma_m, sigma_M) = _fixture_isentrope(u0)
    with pytest.raises(ValueError, match="^subsonic: wall state"):
        ss.solve_potential_sfs(u0, TAU0,
                               sigma_m + frac * (sigma_M - sigma_m), pgas)


@pytest.mark.parametrize("case", ["fixture-isentrope-mid",
                                  "seed18-state34-0.25",
                                  "seed18-state34-0.75"])
def test_potential_validate_reads_r_plus_inside_the_fan(case):
    # supersonic fans on isentropes with a subsonic stretch between the
    # incoming volume and the fan: r+ is chained between the fan's own
    # volumes, so that stretch never enters the check
    if case == "fixture-isentrope-mid":
        u0, tau0, frac = 0.25, TAU0, 0.5
        pgas, (sigma_m, sigma_M) = _fixture_isentrope(u0)
    else:   # potential_sweep state 34 of seed 18
        u0, tau0 = 0.3779059347925547, 91.9316031618242
        frac = float(case.rsplit("-", 1)[1])
        pgas = PotentialGas.from_state(GasModel(1.5136035475879908),
                                       0.35005316919321866, u0, tau0,
                                       bernoulli=1.0)
        sigma_m, sigma_M = wc.deflection_range(
            wc.shock_fan_shock_branch(u0, tau0, pgas))
    sol = ss.solve_potential_sfs(u0, tau0,
                                 sigma_m + frac * (sigma_M - sigma_m), pgas)
    rep = ss.validate(sol)
    assert rep.ok
    assert rep.r_plus_spread < 1e-13 and rep.bernoulli_spread < 1e-13


def count_package_calls(monkeypatch, *targets):
    """Wrap every attribute of every bztflow module that is one of the
    functions `targets`, found by identity as the benchmark tracer finds
    them, so a name bound in any module is counted.  Returns the list the
    wrapped calls append their function to."""
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn)
            return fn(*args, **kwargs)
        return wrapper

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bztflow":
            for attr, obj in list(vars(module).items()):
                if any(obj is fn for fn in targets):
                    monkeypatch.setattr(module, attr, counted(obj))
    return calls


def test_potential_validate_runs_no_quadrature_speed_root_or_liu_grid(
        monkeypatch):
    sol = _potential_sol()
    rep = ss.validate(sol)
    calls = count_package_calls(monkeypatch, quad, thermo.tau_from_speed)
    flux = shocks.mass_flux_squared_potential

    def liu_grid(*args, **kwargs):
        if "xp" in kwargs:
            calls.append(flux)
        return flux(*args, **kwargs)

    monkeypatch.setattr(shocks, "mass_flux_squared_potential", liu_grid)
    assert ss.validate(sol) == rep
    # no QUADPACK, no speed-to-volume root, no Liu grid on either shock
    assert calls == []


@pytest.mark.parametrize("bernoulli", [-0.5, 0.0, 1e-6, 1.0, 5.0])
def test_potential_validation_independent_of_bernoulli_constant(bernoulli):
    # the Bernoulli constant only shifts the enthalpy, so neither the
    # solution nor its jump residuals may depend on it
    pgas = PotentialGas.from_state(G15, S98, U0, TAU0,
                                   bernoulli=bernoulli)
    sol = ss.solve_potential_sfs(U0, TAU0, SIGMA_IJ_MID, pgas)
    rep = ss.validate(sol)
    assert rep.ok
    assert rep.max_rh_residual < 1e-12
    assert sol.meta["tau_w"] == pytest.approx(TAU_W_MID, rel=1e-10)


def test_potential_evaluate_inside_fan():
    sol = _potential_sol()
    st_ = ss.evaluate(sol, *_ray(ALPHA_HAT_MID + 1e-9))
    assert st_.u == pytest.approx(U_PI_MID, abs=1e-8)
    assert st_.v == pytest.approx(V_PI_MID, abs=1e-8)
    assert st_.tau == pytest.approx(TAU_W_MID, abs=1e-6)
    assert st_.S == S98
    # constant states on either side of the fan
    top = ss.evaluate(sol, *_ray(0.5 * (PHI_PO + 0.5 * math.pi)))
    assert (top.u, top.v) == (U0, 0.0)
    bottom = ss.evaluate(sol, *_ray(0.5 * (SIGMA_IJ_MID + ALPHA_HAT_MID)))
    assert bottom.tau == pytest.approx(TAU_PR_MID, rel=1e-10)


def test_potential_wall_angle_out_of_range():
    with pytest.raises(ValueError, match="no-root"):
        ss.solve_potential_sfs(U0, TAU0, 0.9, _pgas())


def test_potential_degenerate_tail():
    sol = ss.solve_potential_sfs(U0, TAU0, SIGMA_M, _pgas())
    assert sol.meta["tau_w"] == pytest.approx(TAU1_I, rel=1e-12)
    (_, tail) = sol.shocks[-1]
    assert tail.back.tau == tail.front.tau
    assert tail.kind == "double_sonic"
    assert ss.validate(sol).ok


def test_potential_liu_check_next_to_the_front():
    # flat isentrope at tau0 ~ 516: the back volumes next to tau_f carry
    # enthalpy differences far below the enthalpies themselves
    pgas = PotentialGas.from_state(GasModel(1.7695926455780864),
                                   0.5015107946990929, 0.5001902721173039,
                                   516.2033971219385, bernoulli=1.0)
    sol = ss.solve_potential_sfs(0.5001902721173039, 516.2033971219385,
                                 0.36898805709241045, pgas)
    rep = ss.validate(sol)
    assert rep.liu_ok
    assert rep.ok


@pytest.mark.parametrize("frac", [0.25, 0.75])
def test_potential_head_junction_next_to_the_inflection_pair(frac):
    # potential_sweep seed 209 state 15: tau_po sits just below tau2_i, so
    # the head ray phi_po lies below the fan's theta_start by rounding
    u0, tau0 = 0.17157264654955476, 16.767528467586786
    pgas = PotentialGas.from_state(GasModel(1.7211201174184678),
                                   0.4642651727077509, u0, tau0,
                                   bernoulli=1.0)
    sigma_m, sigma_M = wc.deflection_range(
        wc.shock_fan_shock_branch(u0, tau0, pgas))
    sol = ss.solve_potential_sfs(u0, tau0,
                                 sigma_m + frac * (sigma_M - sigma_m), pgas)
    rep = ss.validate(sol)
    assert rep.max_junction_gap < 1e-12
    assert rep.ok


def test_rays_next_to_the_head_take_the_head_state():
    # one end rule on both systems: a ray rounded just below a fan's head
    # ray reads the head state instead of a ray solve next to the head
    fans = [p.fan for sol in (_euler_sol(), _potential_sol())
            for p in sol.pieces if p.kind == "fan"]
    assert len(fans) == 3
    for f in fans:
        head = f.theta_start
        assert (f.state_at(head - 0.5e-12 * (1.0 + abs(head)))
                == f.state_at(head))


def test_potential_wall_study_builds_the_branch_once(monkeypatch):
    # a wall-angle study: deflection range, then two walls
    counts = {"_assemble": 0, "ramp_context": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    for module, name in ((wc, "_assemble"), (wc, "ramp_context"),
                         (ss, "ramp_context")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, counting(name, original))
    wc._shock_fan_shock_branch.cache_clear()
    pgas = _pgas()
    branch = wc.shock_fan_shock_branch(U0, TAU0, pgas)
    sigma_m, sigma_M = wc.deflection_range(branch)
    sols = [ss.solve_potential_sfs(U0, TAU0,
                                   sigma_m + f * (sigma_M - sigma_m), pgas)
            for f in (0.25, 0.75)]
    assert counts == {"_assemble": 1, "ramp_context": 1}
    for sol in sols:
        assert sol.meta["branch"] is branch
        assert sol.meta["context"] is branch.context
        assert ss.validate(sol).ok


def test_potential_walls_share_the_head_shock():
    # the head shock is built and classified once per incoming state, on
    # the ramp context; every wall takes that one object
    pgas = _pgas()
    branch = wc.shock_fan_shock_branch(U0, TAU0, pgas)
    head = branch.context.head
    assert head.kind == "post_sonic"
    sigma_m, sigma_M = wc.deflection_range(branch)
    for f in (0.02, 0.5, 0.98):
        sol = ss.solve_potential_sfs(U0, TAU0,
                                     sigma_m + f * (sigma_M - sigma_m), pgas)
        assert sol.shocks[0] == (head.phi, head)
        assert sol.shocks[0][1] is head
        assert sol.pieces[0].state is head.front


def test_potential_wall_solves_few_pre_sonic_roots(monkeypatch):
    # a wall on a built branch: each exact tail state of the wedge root
    # solves one pre-sonic root, and the tail shock and the attached fan's
    # end take the last iterate's fan state and back volume instead of
    # solving again
    pgas = _pgas()
    wc.shock_fan_shock_branch(U0, TAU0, pgas)
    roots = []
    original = wc.pre_sonic_tau_potential

    def counted(*args):
        roots.append(args)
        return original(*args)

    monkeypatch.setattr(wc, "pre_sonic_tau_potential", counted)
    sol = ss.solve_potential_sfs(U0, TAU0, SIGMA_IJ_MID, pgas)
    assert 1 <= len(roots) <= 3
    assert sol.meta["tau_w"] == roots[-1][0]
    assert sol.shocks[1][1].back.tau == original(*roots[-1])


def test_potential_roots_take_python_floats(monkeypatch):
    # a cold branch build, its deflection range and one wall: every front
    # volume reaches the pre-sonic root as a Python float, since NumPy
    # scalars slow each step of the root's objective
    types = set()
    original = wc.pre_sonic_tau_potential

    def recorded(tau_f, *args):
        types.add(type(tau_f))
        return original(tau_f, *args)

    monkeypatch.setattr(wc, "pre_sonic_tau_potential", recorded)
    wc._shock_fan_shock_branch.cache_clear()
    pgas = _pgas()
    sigma_m, sigma_M = wc.deflection_range(
        wc.shock_fan_shock_branch(U0, TAU0, pgas))
    ss.solve_potential_sfs(U0, TAU0, 0.5 * (sigma_m + sigma_M), pgas)
    assert types == {float}


def _reference_fan_state(ctx, theta, tau_tail):
    # the ray by bracketed root finding on one QUADPACK turning integral
    # per trial volume, the speed from the Bernoulli law
    pg, P = ctx.pgas, ctx.head.back

    def ray(tau):
        return turning.pm_potential(tau, pg, P.q, P.sigma, P.tau)[1] - theta

    tau = brentq(ray, tau_tail, P.tau, xtol=1e-13)
    sigma, _ = turning.pm_potential(tau, pg, P.q, P.sigma, P.tau)
    q = turning.speed_of_tau(pg, tau)
    return q * math.cos(sigma), q * math.sin(sigma)


# 110 rays per fan sector, clustered toward both of its ends
_RAY_FRACTIONS = np.concatenate((np.logspace(-12.0, -1.0, 12),
                                 np.linspace(0.15, 0.85, 86),
                                 1.0 - np.logspace(-9.0, -1.0, 12)))


@pytest.mark.parametrize("wall", [0.02, 0.25, 0.75, 0.98])
def test_potential_fan_rays_on_the_series(wall):
    pgas = _pgas()
    sigma_m, sigma_M = wc.deflection_range(
        wc.shock_fan_shock_branch(U0, TAU0, pgas))
    sol = ss.solve_potential_sfs(U0, TAU0,
                                 sigma_m + wall * (sigma_M - sigma_m), pgas)
    piece = sol.pieces[1]
    ctx, tau_tail = sol.meta["context"], sol.meta["tau_w"]
    for f in _RAY_FRACTIONS:
        theta = piece.theta_lo + f * (piece.theta_hi - piece.theta_lo)
        st_ = piece.state_at(theta)
        A = math.asin(pgas.c(st_.tau) / st_.q)
        assert abs(st_.sigma + A - theta) <= 2e-12
        u, v = _reference_fan_state(ctx, theta, tau_tail)
        assert max(abs(st_.u - u), abs(st_.v - v)) <= 1e-11


def test_potential_fan_queries_make_no_quadrature_or_root_solve(monkeypatch):
    # a fresh context builds its fan series on the first fan state; neither
    # the build nor any fan state or ray query integrates or root-solves
    ctx = wc.ramp_context(U0, TAU0, _pgas())
    branch = wc.shock_fan_shock_branch(U0, TAU0, _pgas())
    u, v, _ = branch.state(TAU_W_MID)
    tail = wc.wall_tail_shock(math.atan2(v, u), branch)
    calls = count_package_calls(monkeypatch, quad, brentq,
                                thermo.tau_from_speed)
    piece = ctx.fan(tail)
    for tau in np.linspace(ctx.tau1_i, ctx.tau_po, 9):
        ctx.fan_state(tau)
    for f in np.linspace(0.0, 1.0, 9):
        piece.state_at(piece.theta_end
                       + f * (piece.theta_start - piece.theta_end))
    assert calls == []


def test_potential_scale_invariance():
    sol = _potential_sol()
    for theta in (1.1, 0.85, ALPHA_HAT_MID + 1e-3, 0.62):
        x, y = _ray(theta, r=1.3)
        base = ss.evaluate(sol, x, y)
        for lam in (0.5, 2.0):
            st2 = ss.evaluate(sol, lam * x, lam * y)
            assert (st2.u, st2.v, st2.tau) == (base.u, base.v, base.tau)


# ---------------------------------------------------------------------------
# tampered solutions are reported, not rejected


def test_validate_flags_perturbed_shock():
    sol = _euler_sol()
    (theta_s, sh), = sol.shocks
    bad = replace(sh, back=replace(sh.back, u=sh.back.u + 1e-4))
    tampered = replace(sol, shocks=((theta_s, bad),))
    rep = ss.validate(tampered)
    assert not rep.ok
    assert rep.max_rh_residual > 1e-7
    assert rep.max_junction_gap > 1e-6


def test_validate_flags_perturbed_potential_tail():
    sol = _potential_sol()
    head, (theta_t, tail) = sol.shocks
    bad = replace(tail, front=replace(tail.front,
                                      tau=tail.front.tau * (1.0 + 1e-4)))
    tampered = replace(sol, shocks=(head, (theta_t, bad)))
    rep = ss.validate(tampered)
    assert not rep.ok
    assert rep.max_rh_residual > 1e-7


@pytest.mark.parametrize("fixture, index, kind", [
    (_euler_sol, 0, "post_sonic"),
    (_potential_sol, 0, "pre_sonic"),
    (_potential_sol, 1, "post_sonic"),
], ids=["euler-post_sonic", "potential-head-pre_sonic",
        "potential-tail-post_sonic"])
def test_validate_flags_a_shock_not_sonic_next_to_its_fan(fixture, index,
                                                          kind):
    # a side of a shock that borders a fan must be sonic: the Euler shock
    # on both sides, the potential head on its back, the tail on its front
    sol = fixture()
    shocks = list(sol.shocks)
    theta, sh = shocks[index]
    shocks[index] = (theta, replace(sh, kind=kind))
    rep = ss.validate(sol)
    bad = ss.validate(replace(sol, shocks=tuple(shocks)))
    assert rep.admissible and not bad.admissible and not bad.ok
    assert bad.shock_kinds[index] == kind
    assert replace(bad, admissible=True, shock_kinds=rep.shock_kinds) == rep


def test_validate_reports_an_expansive_potential_shock():
    # the head shock turned around expands; the Liu check reports it
    # instead of raising non-compressive-chord
    sol = _potential_sol()
    (theta_h, head), tail = sol.shocks
    swapped = replace(head, front=head.back, back=head.front)
    rep = ss.validate(replace(sol, shocks=((theta_h, swapped), tail)))
    assert rep.liu_ok is False
    assert not rep.ok


class _TamperedFan:
    """The fan of a piece, its states strictly inside the piece passed
    through alter."""

    def __init__(self, piece, alter):
        self.piece, self.alter = piece, alter

    def state_at(self, theta):
        st_ = self.piece.fan.state_at(theta)
        if not self.piece.theta_lo < theta < self.piece.theta_hi:
            return st_
        return self.alter(st_)


def _rotated(angle):
    c, s = math.cos(angle), math.sin(angle)
    return lambda st_: replace(st_, u=c * st_.u - s * st_.v,
                               v=s * st_.u + c * st_.v)


def test_validate_flags_a_rotated_potential_fan():
    # the turned interior keeps the junctions and the Bernoulli law, so
    # only the Riemann-invariant spread can see it
    sol = _potential_sol()
    assert ss.validate(sol).ok
    pieces = tuple(replace(p, fan=_TamperedFan(p, _rotated(1e-7)))
                   if p.kind == "fan" else p for p in sol.pieces)
    rep = ss.validate(replace(sol, pieces=pieces))
    assert rep.max_junction_gap < 1e-15
    assert rep.r_plus_spread == pytest.approx(1e-7, rel=1e-3)
    assert not rep.ok


def test_validate_flags_a_potential_fan_off_the_bernoulli_law():
    # a fan interior moved in volume at the same velocity
    sol = _potential_sol()
    pieces = tuple(replace(p, fan=_TamperedFan(
        p, lambda st_: replace(st_, tau=st_.tau * (1.0 + 1e-6))))
        if p.kind == "fan" else p for p in sol.pieces)
    rep = ss.validate(replace(sol, pieces=pieces))
    assert rep.max_junction_gap < 1e-15
    assert rep.bernoulli_spread > 1e-9
    assert not rep.ok


# ---------------------------------------------------------------------------
# sonic shocks are envelopes of one characteristic family: on each sonic
# side of a shock the shock angle is sigma + A of that side

def _envelope_defects(sol):
    out = []
    for _, sh in sol.shocks:
        for side in shocks.SONIC_SIDES[sh.kind]:
            s = getattr(sh, side)
            out.append(abs(sh.phi - s.sigma
                           - math.asin(sol.model.sound(s) / s.q)))
    return out


# potential_sweep seed 101 states 0-7: (gamma, S, u0, tau0, the walls at
# 0.25 and 0.75 of the deflection range); bernoulli = 1
ENVELOPE_POTENTIAL = (
    (1.3377524472773075, 0.31660110026887894, 0.6775941292441715,
     8.76579587647143, (0.12647456417255085, 0.14013306712661422)),
    (1.6320580437779426, 0.40331458556676186, 1.1747716769393315,
     22.492042219255413, (0.07296237369733685, 0.07993607265043587)),
    (1.5252908838912844, 0.35521778540238763, 0.732848669722499,
     50.992508981413145, (0.37383986911754097, 0.37623135864926)),
    (1.8945228805765508, 0.6710872824513578, 0.1839505596413434,
     56.49128097539, (0.07372962673992711, 0.08274103455507105)),
    (1.7122967276722192, 0.45628349644467203, 0.6813765224538733,
     32.05932839737054, (0.11193510254877928, 0.1158129898924008)),
    (1.4180644404143095, 0.32347821771796936, 1.0658772427586036,
     23.859198472012505, (0.22434752454071788, 0.23396671805812633)),
    (1.8248316058889031, 0.564395415654342, 0.5032281662321374,
     51.80165666891527, (0.08892105053735364, 0.09385785452153783)),
    (1.4555262910202145, 0.34071400329497115, 0.31789645029754865,
     8.20685587064079, (0.08800475669909007, 0.11460206377442257)),
)

# the first eight euler_sweep seed 101 cases that validate:
# (gamma, S0, u0, tau0, theta_w)
ENVELOPE_EULER = (
    (1.4278233706951142, 0.3253662505590287, 3.965115093582234,
     2.446711022889649, -1.2937426367280664),
    (1.7126110004261137, 0.45727936977967243, 0.28340439599476497,
     6.807778152813785, -0.772831173371871),
    (1.45748669244349, 0.33673664321563995, 0.8544739689013846,
     4.781802932077905, -0.21558533949187192),
    (1.763367569260299, 0.5001379854797502, 4.718339410332149,
     2.462830996527007, -0.8592631910751954),
    (1.8914581997320055, 0.6648825568901905, 2.924494794642899,
     5.722116762514961, -1.0555439440535523),
    (1.6231722267344595, 0.40378544634316194, 0.5962748074779649,
     6.570851305627347, -0.5766937658844292),
    (1.3360958501696587, 0.31050999921896705, 2.0094336369501598,
     2.051044280350358, -1.4900646264412416),
    (1.536207677423954, 0.3665222844816711, 1.486029690334826,
     4.787167119027838, -1.4675491234601674),
)


def test_sonic_shocks_are_characteristic_envelopes_on_the_fixtures():
    for sol in (_euler_sol(), _vacuum_sol()):
        assert max(_envelope_defects(sol)) <= 1e-12
    sol = _potential_sol()
    defects = _envelope_defects(sol)
    assert len(defects) == 2 and max(defects) <= 1e-12


@pytest.mark.parametrize("case", ENVELOPE_POTENTIAL)
def test_potential_sonic_shocks_are_characteristic_envelopes(case):
    g, S, u0, tau0, walls = case
    pgas = PotentialGas.from_state(GasModel(g), S, u0, tau0, bernoulli=1.0)
    for theta_w in walls:
        sol = ss.solve_potential_sfs(u0, tau0, theta_w, pgas)
        assert ss.validate(sol).ok
        assert max(_envelope_defects(sol)) <= 1e-12


# gamma = 1.7, S = S_cr + 0.01 (S* - S_cr), tau0 halfway to tau_f_e, Mach 2:
# an isentrope in the band with no back crossing of the double-sonic locus
BAND_EULER = (1.7, 0.4437126348522719, 0.46704062838274985,
              4.829922237499346, -0.6)


@pytest.mark.parametrize("case", ENVELOPE_EULER + (BAND_EULER,))
def test_euler_sonic_shocks_are_characteristic_envelopes(case):
    g, S0, u0, tau0, theta_w = case
    sol = ss.solve_euler_fsf(u0, tau0, S0, theta_w, GasModel(g))
    assert ss.validate(sol).ok
    # the double-sonic shock: both sides
    defects = _envelope_defects(sol)
    assert len(defects) == 2 and max(defects) <= 1e-12


# ---------------------------------------------------------------------------
# the paper's characteristic decompositions on the assembled fans

def _fan_field(sol):
    """The solution as a characteristics field, read through evaluate."""
    if sol.system == "potential":
        def fn(x, y):
            st_ = ss.evaluate(sol, x, y)
            return st_.u, st_.v
        return ck.PotentialFlowField(fn, sol.meta["pgas"],
                                     sol.meta["context"].tau0)

    def fn(x, y):
        st_ = ss.evaluate(sol, x, y)
        return st_.u, st_.v, st_.tau, st_.S
    return ck.FlowField(fn, sol.meta["gas"])


def _euler_case(case):
    g, S0, u0, tau0, theta_w = case
    return lambda: ss.solve_euler_fsf(u0, tau0, S0, theta_w, GasModel(g))


def _potential_case(case, theta_w):
    g, S, u0, tau0, _ = case

    def build():
        pgas = PotentialGas.from_state(GasModel(g), S, u0, tau0, bernoulli=1.0)
        return ss.solve_potential_sfs(u0, tau0, theta_w, pgas)
    return build


# euler_sweep seed 104 case 62: tau0 - 1 = 0.0117, next to the covolume,
# at u0 = 1252; its trailing fan ends in cavitation, as do ENVELOPE_EULER
# cases 0, 3 and 4
NEAR_COVOLUME_EULER = (1.5073551986366511, 0.3565272813276997,
                       1252.2290060538976, 1.0116930860384317,
                       -1.2064364376972951)

# steps of the decomposition checks; a stencil reaches 2h from its point,
# and each probe sits where it stays another 2h inside its fan
STEPS = (1e-3, 1e-4)


def _check_decompositions(sol):
    # the rays are characteristics of one family, so that family's line
    # holds up to the rounding of its second differences; the other line
    # is the genuine check and converges at first order in h
    field = _fan_field(sol)
    residual = (ck.decomposition_residual_potential
                if sol.system == "potential"
                else ck.decomposition_residual_euler_isentropic)
    fans = [p for p in sol.pieces if p.kind == "fan"]
    assert fans
    eps = np.finfo(float).eps
    for piece in fans:
        for f in (0.25, 0.5, 0.75):
            theta = piece.theta_lo + f * (piece.theta_hi - piece.theta_lo)
            margin = min(theta - piece.theta_lo, piece.theta_hi - theta)
            r = max(1.0, 4.0 * STEPS[0] / math.sin(margin))
            point = (r * math.cos(theta), r * math.sin(theta))
            minus = {}
            for h in STEPS:
                r_plus, r_minus = residual(field, point, h)
                assert r_plus <= 100.0 * eps / h**2
                assert r_minus < 10.0 * h
                minus[h] = r_minus
            assert minus[STEPS[0]] / minus[STEPS[1]] > 5.0


@pytest.mark.parametrize("fixture", [_euler_sol, _vacuum_sol,
                                     _potential_sol])
def test_decompositions_hold_on_the_fixture_fans(fixture):
    _check_decompositions(fixture())


# sweep fans that miss a bound, with the measured miss: each is a fan
# narrower than 0.006 rad, whose probes must sit at r = 3-19 to keep the
# stencils inside it
_NARROW_FAN_MISSES = {
    "euler-covolume": "minus ratio 3.64 (6.80e-9/1.87e-9), 1.1e-3 rad fan, "
                      "r = 14.4",
    "potential-sweep-0-0": "minus ratio 4.75 (1.20e-5/2.52e-6), 2.9e-3 rad, "
                           "r = 5.48",
    "potential-sweep-0-1": "minus ratio 3.08 (2.88e-6/9.32e-7), 1.5e-3 rad, "
                           "r = 10.8",
    "potential-sweep-2-0": "minus ratio 2.04 (8.57e-7/4.20e-7), 3.0e-3 rad, "
                           "r = 5.35",
    "potential-sweep-2-1": "minus ratio 0.23 (8.01e-8/3.44e-7), 1.4e-3 rad, "
                           "r = 11.8",
    "potential-sweep-3-1": "minus ratio 0.82 (2.28e-6/2.78e-6), 1.9e-3 rad, "
                           "r = 8.61",
    "potential-sweep-4-0": "minus ratio 1.59 (3.48e-7/2.19e-7), 1.7e-3 rad, "
                           "r = 9.22",
    "potential-sweep-4-1": "minus ratio 0.30 (7.98e-8/2.70e-7), 8.5e-4 rad, "
                           "r = 18.9",
    "potential-sweep-6-1": "minus ratio 4.15 (7.73e-7/1.86e-7), 2.2e-3 rad, "
                           "r = 7.25",
    "potential-sweep-7-0": "minus line 2.1e-2 > 10h at h = 1e-3, 5.2e-3 rad, "
                           "r = 3.06",
}


def _sweep_param(build, case_id):
    miss = _NARROW_FAN_MISSES.get(case_id)
    marks = () if miss is None else pytest.mark.xfail(strict=True,
                                                      reason=miss)
    return pytest.param(build, id=case_id, marks=marks)


SWEEP_DECOMPOSITION_CASES = (
    [_sweep_param(_euler_case(c), f"euler-sweep-{k}")
     for k, c in enumerate(ENVELOPE_EULER)]
    + [_sweep_param(_euler_case(NEAR_COVOLUME_EULER), "euler-covolume")]
    + [_sweep_param(_potential_case(c, w), f"potential-sweep-{k}-{j}")
       for k, c in enumerate(ENVELOPE_POTENTIAL)
       for j, w in enumerate(c[4])])


@pytest.mark.parametrize("build", SWEEP_DECOMPOSITION_CASES)
def test_decompositions_hold_on_the_sweep_fans(build):
    _check_decompositions(build())
