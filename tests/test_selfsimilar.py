"""Piecewise self-similar assemblies: junctions, jumps, wall condition."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bztflow import selfsimilar as ss
from bztflow import wavecurves as wc
from bztflow.shocks import VelocityDecomposition, rh_residuals_euler
from bztflow.thermo import GasModel, PotentialGas, sound_speed

G15 = GasModel(gamma=1.5)

# frozen from tests/oracles/gen_expected.py (fan turning by composite
# Gauss-Legendre panels, roots by bisection); entropy S98 = 0.98 S*
S98 = 0.3473995491020514
TAU_F_E = 5.451165090410962
TAU_D = 15.025623552912846
S_D = 0.34813341598088193

# expansion ramp: tau0 = 0.9 tau_f_e, incoming Mach 2
TAU0_R = 4.906048581369866
U0_R = 0.18208749581707645
B0_R = 0.18124798039078327
ALPHA0_R = 0.5235987755982989
Q1_R = 0.18527935031988466
PHI_D_R = 0.2884394876820086
U_D_R = 0.2148818753991435
V_D_R = -0.10739192666867611
Q_D_R = 0.24022332586296305
SIGMA_D_R = -0.46346512547728563
ALPHA_V_R = -2.8489920105818127
THETA_W_R = -1.417676
TAU_SLIP_R = 128.660258522866
Q_W_R = 0.45632416427420197
ALPHA_W_R = -1.0188674417940558
U_W_R = 0.06959978852617256
V_W_R = -0.4509851575580519
THETA_ML_R = 0.3862092412369046
TAU_ML_R = 5.178606835890414
Q_ML_R = 0.1840679948999641
SIGMA_ML_R = -0.021554723850839615
THETA_MR_R = -0.7144951361205731
TAU_MR_R = 71.84294103788942
Q_MR_R = 0.4108961165061022
SIGMA_MR_R = -1.1942442819663794

# same ramp at Mach 10: the full turning to cavitation fits above the
# downward vertical, so a wall can undercut the vacuum ray
U0_VAC = 0.9104374790853822
ALPHA_V_VAC = -1.2966415310678998
Q_LIM_VAC = 1.076213969418711

# compression ramp on one isentrope (shared with the wave-curve tests)
U0_P = 0.32
TAU0_P = 25.006597968134916
PHI_PO = 0.8738549683139092
T1I = 6.222021767887082
SIGMA_M = 0.5786914579282845
THETA_W_P = 0.6131477758288368
TAU_W_MID = 6.851880082399074
ALPHA_HAT_MID = 0.8302915568676801
U_PI_MID = 0.18377549599152085
V_PI_MID = 0.11419010160108702
TAU_PR_MID = 5.371779549384593
U_IJ_MID = 0.17443032757047178
V_IJ_MID = 0.12273173107194663

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
        _CACHE["pgas"] = PotentialGas.from_state(G15, S98, U0_P, TAU0_P,
                                                 bernoulli=1.0)
    return _CACHE["pgas"]


def _potential_sol():
    if "potential" not in _CACHE:
        _CACHE["potential"] = ss.solve_potential_sfs(U0_P, TAU0_P,
                                                     THETA_W_P, _pgas())
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
    dec_b = VelocityDecomposition.of(sh.back.u, sh.back.v, sh.phi)
    assert dec_b.N == pytest.approx(sound_speed(sh.back.tau, sh.back.S, G15),
                                    rel=1e-10)
    dec_f = VelocityDecomposition.of(sh.front.u, sh.front.v, sh.phi)
    assert dec_f.N == pytest.approx(sound_speed(sh.front.tau, sh.front.S,
                                                G15), rel=1e-10)
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
    rep = ss.validate(_euler_sol())
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
    q, tau, sigma, _ = sol.pieces[1].fan.solution.state(THETA_ML_R)
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
    assert sol.pieces[2].fan.solution.theta_start == sol.meta["phi_d"]
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
    dec_hb = VelocityDecomposition.of(head.back.u, head.back.v, head.phi)
    assert abs(dec_hb.N - pg.c(head.back.tau)) < 1e-10
    dec_tf = VelocityDecomposition.of(tail.front.u, tail.front.v, tail.phi)
    assert abs(dec_tf.N - pg.c(tail.front.tau)) < 1e-10
    # the leading front lies along the characteristic of its back state
    alpha_back = sol.meta["context"].fan_state(head.back.tau)[2]
    assert abs(head.phi - alpha_back) < 1e-10


def test_potential_wall_state():
    sol = _potential_sol()
    wall = sol.pieces[-1].state
    q_t = math.hypot(U_IJ_MID, V_IJ_MID)
    assert wall.q == pytest.approx(q_t, rel=1e-10)
    assert wall.tau == pytest.approx(TAU_PR_MID, rel=1e-10)
    assert wall.v == pytest.approx(wall.u * math.tan(THETA_W_P), abs=1e-15)


def test_potential_validation_report():
    rep = ss.validate(_potential_sol())
    assert rep.ok
    assert rep.max_junction_gap < 1e-9
    assert rep.max_rh_residual < 1e-10
    assert rep.liu_ok
    assert rep.slip_residual < 1e-12
    assert rep.r_plus_spread < 1e-9
    assert rep.wall_supersonic


def test_potential_evaluate_inside_fan():
    sol = _potential_sol()
    st_ = ss.evaluate(sol, *_ray(ALPHA_HAT_MID + 1e-9))
    assert st_.u == pytest.approx(U_PI_MID, abs=1e-8)
    assert st_.v == pytest.approx(V_PI_MID, abs=1e-8)
    assert st_.tau == pytest.approx(TAU_W_MID, abs=1e-6)
    assert st_.S == S98
    # constant states on either side of the fan
    top = ss.evaluate(sol, *_ray(0.5 * (PHI_PO + 0.5 * math.pi)))
    assert (top.u, top.v) == (U0_P, 0.0)
    bottom = ss.evaluate(sol, *_ray(0.5 * (THETA_W_P + ALPHA_HAT_MID)))
    assert bottom.tau == pytest.approx(TAU_PR_MID, rel=1e-10)


def test_potential_wall_angle_out_of_range():
    with pytest.raises(ValueError, match="no-root"):
        ss.solve_potential_sfs(U0_P, TAU0_P, 0.9, _pgas())


def test_potential_degenerate_tail():
    sol = ss.solve_potential_sfs(U0_P, TAU0_P, SIGMA_M, _pgas())
    assert sol.meta["tau_w"] == pytest.approx(T1I, rel=1e-12)
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
    branch = wc.shock_fan_shock_branch(U0_P, TAU0_P, pgas)
    sigma_m, sigma_M = wc.deflection_range(branch)
    sols = [ss.solve_potential_sfs(U0_P, TAU0_P,
                                   sigma_m + f * (sigma_M - sigma_m), pgas)
            for f in (0.25, 0.75)]
    assert counts == {"_assemble": 1, "ramp_context": 1}
    for sol in sols:
        assert sol.meta["branch"] is branch
        assert sol.meta["context"] is branch.context
        assert ss.validate(sol).ok


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
