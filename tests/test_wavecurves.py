"""Oblique wave-curve branches of one incoming ramp state."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bztflow import fan, shocks, thermo, wavecurves as wc

G15 = thermo.GasModel(1.5)

# frozen by tests/oracles/gen_expected.py (wavecurve fixture block)
S98 = 0.3473995491020514
TAU1_I = 6.222021767887082
TAU0 = 25.006597968134916
U0 = 0.32
TAU_PO = 7.481738396911066
TAU_PR_PO = 4.940591973029187
N_PO = 0.2453788920067122
PHI_PO = 0.8738549683139092
U_PO = 0.18813657298636563
V_PO = 0.11037934159923471
Q_PO = 0.21812603958934987
SIGMA_PO = 0.5305811595595431
TAU_B_MID_BP = 16.24416818252299
U_BP_MID = 0.26709614906355866
V_BP_MID = 0.05597557808875846
TAU_N = 3.149490643751223
TAU_B_MID_JN = 4.045041308390205
U_JN_MID = 0.14510191833345276
V_JN_MID = 0.12776862261648597
TAU_W_MID = 6.851880082399074
ALPHA_HAT_MID = 0.8302915568676801
U_PI_MID = 0.18377549599152085
V_PI_MID = 0.11419010160108702
TAU_PR_MID = 5.371779549384593
U_IJ_MID = 0.17443032757047178
V_IJ_MID = 0.12273173107194663
SIGMA_IJ_MID = 0.6131477758288368
SIGMA_M = 0.5786914579282845
SIGMA_MAX = 0.6420703650437722
U_J = 0.16901606165589447
V_J = 0.12638460931823556


_CACHE = {}


def _fixture_set():
    # built once per session; the hypothesis test reads it directly since
    # function-scoped draws cannot depend on module-scoped fixtures
    if not _CACHE:
        pg = thermo.PotentialGas.from_state(G15, S98, U0, TAU0,
                                            bernoulli=1.0)
        _CACHE.update(
            pgas=pg,
            bp=wc.polar_branch_I(U0, TAU0, pg),
            pi=wc.shock_fan_branch(U0, TAU0, pg),
            ij=wc.shock_fan_shock_branch(U0, TAU0, pg),
            jn=wc.polar_branch_II(U0, TAU0, pg),
        )
    return _CACHE


@pytest.fixture(scope="module")
def pgas():
    return _fixture_set()["pgas"]


@pytest.fixture(scope="module")
def branches():
    return _fixture_set()


def leading_shock(u, v, tau_b, phi):
    """The single shock of the incoming state with back state (u, v)."""
    return shocks.ObliqueShockSolution(
        front=shocks.FlowState(u=U0, v=0.0, tau=TAU0, S=S98),
        back=shocks.FlowState(u=u, v=v, tau=tau_b, S=S98),
        phi=phi, m=U0 * math.sin(phi) / TAU0, kind="ordinary")


# ---------------------------------------------------------------------------
# shared context and the polar branch


def test_context_matches_oracle(pgas):
    ctx = wc.ramp_context(U0, TAU0, pgas)
    assert ctx.tau_po == pytest.approx(TAU_PO, rel=1e-12)
    assert ctx.tau_pr_po == pytest.approx(TAU_PR_PO, rel=1e-10)
    assert ctx.u_po == pytest.approx(U_PO, rel=1e-12)
    assert ctx.v_po == pytest.approx(V_PO, rel=1e-12)
    assert ctx.q_po == pytest.approx(Q_PO, rel=1e-12)
    assert ctx.sigma_po == pytest.approx(SIGMA_PO, rel=1e-12)
    assert ctx.phi_po == pytest.approx(PHI_PO, rel=1e-12)


def test_point_p_is_post_sonic(pgas):
    # at P the back normal speed equals the back sound speed
    n_b = TAU_PO / TAU0 * N_PO
    assert n_b == pytest.approx(pgas.c(TAU_PO), rel=1e-12)
    sol = leading_shock(U_PO, V_PO, TAU_PO, PHI_PO)
    assert shocks.classify(sol, G15) == "post_sonic"
    for r in shocks.rh_residuals_potential(sol, pgas):
        assert abs(r) < 1e-10


def test_polar_branch_zero_strength_limit(branches):
    u, v, _ = branches["bp"].state(TAU0 * (1.0 - 1e-8))
    assert u == pytest.approx(U0, abs=1e-6)
    assert abs(v) < 1e-6


def test_polar_branch_endpoints_and_mid(branches):
    bp = branches["bp"]
    assert bp.params[0] == pytest.approx(TAU_PO, rel=1e-12)
    assert bp.u[0] == pytest.approx(U_PO, rel=1e-12)
    assert bp.v[0] == pytest.approx(V_PO, rel=1e-12)
    u, v, _ = bp.state(TAU_B_MID_BP)
    assert u == pytest.approx(U_BP_MID, rel=1e-12)
    assert v == pytest.approx(V_BP_MID, rel=1e-12)


def test_polar_branch_jump_relations(branches, pgas):
    bp = branches["bp"]
    for k in range(0, bp.params.size, 16):
        sol = leading_shock(bp.u[k], bp.v[k], bp.params[k], bp.angle[k])
        for r in shocks.rh_residuals_potential(sol, pgas):
            assert abs(r) < 1e-10


def test_mach_reflection_regime():
    pg = thermo.PotentialGas.from_state(G15, S98, 0.2, TAU0, bernoulli=1.0)
    with pytest.raises(ValueError, match="mach-reflection-regime"):
        wc.polar_branch_I(0.2, TAU0, pg)


def test_subsonic_incoming_state():
    pg = thermo.PotentialGas.from_state(G15, S98, 0.15, TAU0, bernoulli=1.0)
    with pytest.raises(ValueError, match="subsonic"):
        wc.polar_branch_I(0.15, TAU0, pg)


def test_bernoulli_mismatch(pgas):
    with pytest.raises(ValueError, match="bernoulli-mismatch"):
        wc.ramp_context(0.5, TAU0, pgas)


# ---------------------------------------------------------------------------
# fan branch


def test_fan_branch_mid_sample(branches):
    u, v, a = branches["pi"].state(TAU_W_MID)
    assert u == pytest.approx(U_PI_MID, rel=1e-10)
    assert v == pytest.approx(V_PI_MID, rel=1e-10)
    assert a == pytest.approx(ALPHA_HAT_MID, rel=1e-10)


def test_fan_branch_meets_polar_at_p(branches):
    bp, pi = branches["bp"], branches["pi"]
    assert pi.params[-1] == pytest.approx(TAU_PO, rel=1e-12)
    gap = math.hypot(bp.u[0] - pi.u[-1], bp.v[0] - pi.v[-1])
    assert gap < 1e-10


def test_fan_branch_invariant_spread(branches, pgas):
    pi = branches["pi"]
    rp = [fan.riemann_invariants(pi.u[k], pi.v[k], pgas)[0]
          for k in range(0, pi.params.size, 16)]
    assert max(rp) - min(rp) < 1e-9


def test_fan_branch_tangency_identities(branches, pgas):
    pi = branches["pi"]
    for k in range(0, pi.params.size, 8):
        u, v, a = pi.u[k], pi.v[k], pi.angle[k]
        n = u * math.sin(a) - v * math.cos(a)
        assert n == pytest.approx(pgas.c(pi.params[k]), rel=1e-10)
    # rays are characteristics: the branch tangent is normal to the ray.
    # The step balances FD truncation against the quadrature noise of the
    # turning integral, which caps the attainable residual near 1e-7.
    for tau in (6.5, 6.9, 7.3):
        e = 2e-4
        u1, v1, _ = pi.state(tau + e)
        u2, v2, _ = pi.state(tau - e)
        _, _, a = pi.state(tau)
        du, dv = (u1 - u2) / (2 * e), (v1 - v2) / (2 * e)
        t = math.hypot(du, dv)
        assert abs(du * math.cos(a) + dv * math.sin(a)) / t < 1e-6


def test_subsonic_post_state():
    u0 = N_PO * (1.0 + 1e-13)
    pg = thermo.PotentialGas.from_state(G15, S98, u0, TAU0, bernoulli=1.0)
    with pytest.raises(ValueError, match="subsonic-post-state"):
        wc.shock_fan_branch(u0, TAU0, pg)


# ---------------------------------------------------------------------------
# composite branch


def test_composite_meets_fan_at_i(branches):
    pi, ij = branches["pi"], branches["ij"]
    assert ij.params[0] == pytest.approx(TAU1_I, rel=1e-12)
    gap = math.hypot(pi.u[0] - ij.u[0], pi.v[0] - ij.v[0])
    assert gap < 1e-10
    u_pi, v_pi, _ = pi.state(TAU1_I)
    u_ij, v_ij, _ = ij.state(TAU1_I)
    assert (u_pi, v_pi) == (u_ij, v_ij)


def test_composite_mid_sample(branches):
    ij = branches["ij"]
    u, v, _ = ij.state(TAU_W_MID)
    assert u == pytest.approx(U_IJ_MID, rel=1e-10)
    assert v == pytest.approx(V_IJ_MID, rel=1e-10)
    assert ij.context.tail_back_volume(TAU_W_MID) == pytest.approx(
        TAU_PR_MID, rel=1e-10)


def test_tail_shocks_admissible(branches, pgas):
    # the admissibility margin of a front-sonic shock has a double zero at
    # the front, so the grid check needs slack for the noise that the
    # tangency-root conditioning leaves in the back volume
    ij = branches["ij"]
    for k in range(8, ij.params.size, 32):
        tau_f = ij.params[k]
        sol = wc.tail_shock_solution(ij, tau_f)
        assert sol.kind == "pre_sonic"
        for r in shocks.rh_residuals_potential(sol, pgas):
            assert abs(r) < 1e-10
        assert shocks.liu_condition_check(tau_f, sol.back.tau, pgas,
                                          slack=1e-6)


def test_strong_polar_junction(branches):
    # the zero-width limit of the composite at the fan head coincides with
    # the single shock down to the same back volume
    ij, jn = branches["ij"], branches["jn"]
    u1, v1, _ = ij.state(TAU_PO)
    assert u1 == pytest.approx(U_J, rel=1e-10)
    assert v1 == pytest.approx(V_J, rel=1e-10)
    u2, v2, _ = jn.state(TAU_PR_PO * (1.0 - 1e-9))
    assert math.hypot(u1 - u2, v1 - v2) < 1e-7


# ---------------------------------------------------------------------------
# strong polar branch


def test_polar_branch_II_normal_point(branches):
    jn = branches["jn"]
    assert jn.params[0] == pytest.approx(TAU_N, rel=1e-10)
    assert abs(jn.v[0]) < 1e-8
    assert np.all(jn.v[1:] > 0.0)
    u, v, _ = jn.state(TAU_B_MID_JN)
    assert u == pytest.approx(U_JN_MID, rel=1e-12)
    assert v == pytest.approx(V_JN_MID, rel=1e-12)


def test_polar_branch_II_admissible(branches, pgas):
    jn = branches["jn"]
    for k in range(0, jn.params.size, 16):
        sol = leading_shock(jn.u[k], jn.v[k], jn.params[k], jn.angle[k])
        for r in shocks.rh_residuals_potential(sol, pgas):
            assert abs(r) < 1e-10
        assert shocks.liu_condition_check(TAU0, jn.params[k], pgas)


# ---------------------------------------------------------------------------
# distance query


def test_distance_vanishes_on_samples(branches):
    ij = branches["ij"]
    for k in range(0, ij.params.size, 7):
        assert abs(wc.H_residual(ij.u[k], ij.v[k], ij)) < 1e-10


def test_distance_of_displaced_point(branches):
    ij = branches["ij"]
    u0, v0, _ = ij.state(TAU_W_MID)
    e = 1e-6
    u1, v1, _ = ij.state(TAU_W_MID + e)
    u2, v2, _ = ij.state(TAU_W_MID - e)
    t = math.hypot(u1 - u2, v1 - v2)
    nx, ny = -(v1 - v2) / t, (u1 - u2) / t
    r_plus = wc.H_residual(u0 + 1e-3 * nx, v0 + 1e-3 * ny, ij)
    r_minus = wc.H_residual(u0 - 1e-3 * nx, v0 - 1e-3 * ny, ij)
    assert abs(abs(r_plus) - 1e-3) < 1e-5
    assert abs(abs(r_minus) - 1e-3) < 1e-5
    assert r_plus * r_minus < 0.0


def test_distance_to_independent_back_states(branches):
    # back states rebuilt off-node from the defining relations must sit on
    # the spline to well under the sampling error
    ij = branches["ij"]
    for tau_f in np.linspace(TAU1_I + 0.05, TAU_PO - 0.05, 9):
        u, v, _ = ij.context.tail_state(tau_f)
        assert abs(wc.H_residual(u, v, ij)) < 1e-8


def test_distance_extrapolation_guard(branches):
    with pytest.raises(ValueError, match="extrapolation"):
        wc.H_residual(0.5, -0.2, branches["ij"])


# ---------------------------------------------------------------------------
# deflection range and the wedge state


def test_deflection_range(branches):
    sm, sM = wc.deflection_range(branches["ij"])
    assert sm == pytest.approx(SIGMA_M, abs=1e-9)
    assert sM == pytest.approx(SIGMA_MAX, abs=1e-9)
    ij = branches["ij"]
    grid = np.arctan2(ij.v, ij.u)
    assert abs(grid.min() - sm) < 1e-8
    assert abs(grid.max() - sM) < 1e-8


def test_deflection_range_constant_branch():
    q = np.linspace(0.2, 0.3, 64)
    b = wc.WaveCurveBranch(
        tag="shock_fan_shock", param_label="tau_f", param_range=(0.0, 1.0),
        params=np.linspace(0.0, 1.0, 64), u=q * math.cos(0.3),
        v=q * math.sin(0.3), angle=np.zeros(64))
    sm, sM = wc.deflection_range(b)
    assert sm == pytest.approx(0.3, abs=1e-12)
    assert sM == pytest.approx(0.3, abs=1e-12)


def test_solve_wedge_state_mid(branches):
    ij = branches["ij"]
    tau_w = wc.solve_wedge_state(SIGMA_IJ_MID, ij)
    u, v, _ = ij.state(tau_w)
    assert abs(math.atan2(v, u) - SIGMA_IJ_MID) < 1e-12
    assert tau_w == pytest.approx(TAU_W_MID, rel=1e-10)
    assert wc.solve_wedge_state(SIGMA_IJ_MID, ij, all_roots=True) == [tau_w]


def test_solve_wedge_state_endpoint(branches):
    ij = branches["ij"]
    theta = math.atan2(ij.v[0], ij.u[0])
    assert wc.solve_wedge_state(theta, ij) == ij.params[0]


def test_solve_wedge_state_no_root(branches):
    with pytest.raises(ValueError, match="no-root"):
        wc.solve_wedge_state(0.9, branches["ij"])


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=TAU1_I + 2e-2, max_value=TAU_PO - 1e-3))
def test_wedge_state_round_trip(tau_w):
    # drawn away from the fan head, where the tail-shock tangency equation
    # is too ill-conditioned for the inverse to resolve below ~1e-7
    ij = _fixture_set()["ij"]
    u, v, _ = ij.state(tau_w)
    back = wc.solve_wedge_state(math.atan2(v, u), ij)
    assert back == pytest.approx(tau_w, abs=1e-7)


# ---------------------------------------------------------------------------
# tangency of the front-state polar


def test_polar_tangency(branches, pgas):
    ij = branches["ij"]
    defect = wc.polar_tangency_check(ij, TAU_W_MID, pgas)
    assert defect < 1e-4

    # (G_u, G_v) of the front-state polar is normal to the branch
    u_f, v_f, _ = ij.context.fan_state(TAU_W_MID)
    u_b, v_b, _ = ij.state(TAU_W_MID)
    _, g_u, g_v = wc.polar_gradient(u_b, v_b, u_f, v_f, pgas)
    e = 1e-6
    u1, v1, _ = ij.state(TAU_W_MID + e)
    u2, v2, _ = ij.state(TAU_W_MID - e)
    du, dv = u1 - u2, v1 - v2
    cosang = ((g_u * du + g_v * dv)
              / math.hypot(g_u, g_v) / math.hypot(du, dv))
    assert abs(cosang) < 1e-4

    # branch samples satisfy the polar relation of their own front state
    for k in range(4, ij.params.size, 16):
        uf, vf, _ = ij.context.fan_state(ij.params[k])
        g, g_u, g_v = wc.polar_gradient(ij.u[k], ij.v[k], uf, vf, pgas)
        scale = math.hypot(g_u, g_v) * math.hypot(ij.u[k], ij.v[k])
        assert abs(g) / scale < 1e-10


def test_tail_predicates(branches):
    ij = branches["ij"]
    assert wc.tail_tangent_acute(ij, TAU_W_MID)
    assert wc.tail_back_supersonic(ij, TAU_W_MID)


# ---------------------------------------------------------------------------
# the composite-branch memo


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_memo_hit_matches_a_cold_build(pgas):
    hit = wc.shock_fan_shock_branch(U0, TAU0, pgas)
    assert wc.shock_fan_shock_branch(U0, TAU0, pgas) is hit
    wc._shock_fan_shock_branch.cache_clear()
    cold = wc.shock_fan_shock_branch(U0, TAU0, pgas)
    assert cold is not hit
    assert cold.context == hit.context
    assert cold.param_range == hit.param_range
    for name in ("params", "u", "v", "angle"):
        assert np.array_equal(getattr(cold, name), getattr(hit, name))


def test_memo_rebuilds_for_a_new_state_or_size(pgas, monkeypatch):
    assembled = _count_calls(monkeypatch, wc, "_assemble")
    wc._shock_fan_shock_branch.cache_clear()
    base = wc.shock_fan_shock_branch(U0, TAU0, pgas)
    # another incoming state on the same isentrope and Bernoulli constant
    tau0 = 0.99 * TAU0
    moved = wc.shock_fan_shock_branch(pgas.speed_of_tau(tau0), tau0, pgas)
    coarse = wc.shock_fan_shock_branch(pgas.speed_of_tau(tau0), tau0, pgas,
                                       n=256)
    assert len(assembled) == 3
    assert moved.context.tau0 == tau0 != base.context.tau0
    assert moved.context.tau_po != base.context.tau_po
    assert coarse.params.size < moved.params.size
    assert wc.shock_fan_shock_branch(pgas.speed_of_tau(tau0), tau0, pgas,
                                     n=256) is coarse
    assert len(assembled) == 3


def test_branch_arrays_are_read_only(branches):
    for key in ("bp", "pi", "ij", "jn"):
        for name in ("params", "u", "v", "angle"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(branches[key], name)[0] = 0.0


def test_inflection_pair_solved_once_per_model(monkeypatch):
    solves = _count_calls(monkeypatch, thermo, "inflection_roots")
    pg = thermo.PotentialGas.from_state(G15, S98, U0, TAU0, bernoulli=1.0)
    wc._shock_fan_shock_branch.cache_clear()
    ij = wc.shock_fan_shock_branch(U0, TAU0, pg)
    wc.polar_branch_II(U0, TAU0, pg)
    assert len(solves) == 1
    assert pg.inflection_pair == (ij.context.tau1_i, ij.context.tau2_i)
    assert ij.context.tau1_i == pytest.approx(TAU1_I, rel=1e-12)
    # the stored pair is invisible to equality and hashing
    twin = thermo.PotentialGas.from_state(G15, S98, U0, TAU0, bernoulli=1.0)
    assert twin == pg and hash(twin) == hash(pg)
    assert len(solves) == 1
