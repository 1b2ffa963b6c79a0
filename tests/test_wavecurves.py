"""Oblique wave-curve branches of one incoming ramp state."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from bztflow import fan, shocks, thermo, wavecurves as wc
from oracles.literals import (
    G15, S98, TAU1_I, TAU_PO_POTENTIAL, U0, TAU0, PHI_PO, SIGMA_M,
    TAU_W_MID, ALPHA_HAT_MID, U_PI_MID, V_PI_MID, TAU_PR_MID, U_IJ_MID,
    V_IJ_MID, SIGMA_IJ_MID,
)
from reference import polar, turning
from test_selfsimilar import ENVELOPE_POTENTIAL

# frozen by tests/oracles/gen_expected.py (wavecurve fixture block)
TAU_PR_PO = 4.940591973029187
N_PO = 0.2453788920067122
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
    assert ctx.tau_po == pytest.approx(TAU_PO_POTENTIAL, rel=1e-12)
    # the back volume of the front-sonic shock seated at P, which ends the
    # strong polar branch
    assert shocks.pre_sonic_tau_potential(ctx.tau_po, pgas) == \
        pytest.approx(TAU_PR_PO, rel=1e-10)
    assert ctx.head.m * TAU0 == pytest.approx(N_PO, rel=1e-12)
    assert ctx.head.back.u == pytest.approx(U_PO, rel=1e-12)
    assert ctx.head.back.v == pytest.approx(V_PO, rel=1e-12)
    assert ctx.head.back.q == pytest.approx(Q_PO, rel=1e-12)
    assert ctx.head.back.sigma == pytest.approx(SIGMA_PO, rel=1e-12)
    assert ctx.head.phi == pytest.approx(PHI_PO, rel=1e-12)


def test_point_p_is_post_sonic(pgas):
    # at P the back normal speed equals the back sound speed
    n_b = TAU_PO_POTENTIAL / TAU0 * N_PO
    assert n_b == pytest.approx(pgas.c(TAU_PO_POTENTIAL), rel=1e-12)
    sol = leading_shock(U_PO, V_PO, TAU_PO_POTENTIAL, PHI_PO)
    assert shocks.classify(sol, G15) == "post_sonic"
    for r in shocks.rh_residuals_potential(sol, pgas):
        assert abs(r) < 1e-10


def test_polar_branch_zero_strength_limit(branches):
    u, v, _ = branches["bp"].state(TAU0 * (1.0 - 1e-8))
    assert u == pytest.approx(U0, abs=1e-6)
    assert abs(v) < 1e-6


def test_polar_branch_endpoints_and_mid(branches):
    bp = branches["bp"]
    assert bp.params[0] == pytest.approx(TAU_PO_POTENTIAL, rel=1e-12)
    assert bp.u[0] == pytest.approx(U_PO, rel=1e-12)
    assert bp.v[0] == pytest.approx(V_PO, rel=1e-12)
    u, v, phi = bp.state(TAU_B_MID_BP)
    assert u == pytest.approx(U_BP_MID, rel=1e-12)
    assert v == pytest.approx(V_BP_MID, rel=1e-12)
    # between P and the zero-strength point neither side is sonic
    sol = leading_shock(u, v, TAU_B_MID_BP, phi)
    assert shocks.classify(sol, G15) == "ordinary"


def test_polar_branch_jump_relations(branches, pgas):
    bp = branches["bp"]
    for k in range(0, bp.params.size, 16):
        sol = leading_shock(bp.u[k], bp.v[k], bp.params[k], bp.angle[k])
        for r in shocks.rh_residuals_potential(sol, pgas):
            assert abs(r) < 1e-10


def test_mach_reflection_regime(pgas):
    pg = thermo.PotentialGas.from_state(G15, S98, 0.2, TAU0, bernoulli=1.0)
    with pytest.raises(ValueError, match="mach-reflection-regime"):
        wc.polar_branch_I(0.2, TAU0, pg)
    # a single shock past the attached window: the normal speed at
    # tau_b = 2 exceeds u0
    with pytest.raises(ValueError, match="^mach-reflection-regime: "):
        wc.ramp_context(U0, TAU0, pgas).polar_state(2.0)


@pytest.mark.parametrize("tau_b", [TAU0, 1.0, 0.5],
                         ids=["zero-strength", "covolume", "below-covolume"])
def test_polar_state_outside_the_window(pgas, tau_b):
    # a 0/0 flux at tau0 and at 1, no real one below the covolume: each
    # is refused before the chord is formed
    ctx = wc.ramp_context(U0, TAU0, pgas)
    with pytest.raises(ValueError, match="^out-of-window: "):
        ctx.polar_state(tau_b)


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
    assert pi.params[-1] == pytest.approx(TAU_PO_POTENTIAL, rel=1e-12)
    gap = math.hypot(bp.u[0] - pi.u[-1], bp.v[0] - pi.v[-1])
    assert gap < 1e-10


def test_fan_branch_invariant_spread(branches, pgas):
    pi = branches["pi"]
    rp = [turning.riemann_invariants(pi.u[k], pi.v[k], pgas, TAU0)[0]
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


# (gamma, S, u0, tau0) of the compression fixture and of potential_sweep
# seed 204 state 12 (tau_po within 0.2% of tau1_i) and seed 209 state 15
# (tau_po just below tau2_i); bernoulli = 1
RAMP_STATES = {
    "fixture": (1.5, S98, U0, TAU0),
    "204/12": (1.5610382502898574, 0.3679710887428113, 1.2616522840482773,
               121.4331245414606),
    "209/15": (1.7211201174184678, 0.4642651727077509, 0.17157264654955476,
               16.767528467586786),
}


@pytest.mark.parametrize("case", sorted(RAMP_STATES))
def test_fan_series_matches_pm_potential(case):
    # the context's stored series against one QUADPACK turning integral
    # per volume, from the inflection state to P
    g, S, u0, tau0 = RAMP_STATES[case]
    pg = thermo.PotentialGas.from_state(thermo.GasModel(g), S, u0, tau0,
                                        bernoulli=1.0)
    ctx = wc.ramp_context(u0, tau0, pg)
    P = ctx.head.back
    for tau in np.linspace(ctx.tau1_i, ctx.tau_po, 41):
        sigma, alpha = turning.pm_potential(tau, pg, P.q, P.sigma, P.tau)
        u, v, alpha_hat = ctx.fan_state(tau)
        assert abs(math.atan2(v, u) - sigma) <= 1e-14
        assert abs(alpha_hat - alpha) <= 1e-14


@pytest.mark.parametrize("case", sorted(RAMP_STATES))
def test_attached_fan_runs_on_the_ramp_model_from_the_head(case):
    # one isentrope per ramp: the series and the wall's fan sector carry
    # the ramp model itself, and the fan's foot is the head shock's back
    # state P, bit for bit
    g, S, u0, tau0 = RAMP_STATES[case]
    pg = thermo.PotentialGas.from_state(thermo.GasModel(g), S, u0, tau0,
                                        bernoulli=1.0)
    b = wc.shock_fan_shock_branch(u0, tau0, pg)
    ctx = b.context
    assert ctx.turning.pgas is ctx.pgas
    sigma_m, sigma_M = wc.deflection_range(b)
    attached = ctx.fan(wc.wall_tail_shock(0.5 * (sigma_m + sigma_M), b))
    assert attached.pgas is ctx.pgas
    P = ctx.head.back
    assert attached.state(attached.theta_start)[:3] == (P.q, P.tau, P.sigma)


@pytest.mark.parametrize("case", sorted(RAMP_STATES))
def test_composite_samples_match_the_evaluator(case):
    # the array pass at every node against the scalar evaluator the
    # queries polish on; the first node is the zero-strength tail, whose
    # back state is the fan state itself
    g, S, u0, tau0 = RAMP_STATES[case]
    pg = thermo.PotentialGas.from_state(thermo.GasModel(g), S, u0, tau0,
                                        bernoulli=1.0)
    b = wc.shock_fan_shock_branch(u0, tau0, pg)
    exact = np.array([b.state(t) for t in b.params.tolist()]).T
    for sampled, want in zip((b.u, b.v, b.angle), exact):
        assert np.all(np.abs(sampled - want) <= 1e-13 * np.abs(want))
    ctx, t0 = b.context, float(b.params[0])
    assert ctx.tail_back_volume(t0) == t0
    assert ([b.u[0], b.v[0], b.angle[0]]
            == [x[0] for x in ctx.fan_state(b.params, np)])
    pi = wc.shock_fan_branch(u0, tau0, pg)
    assert [b.u[0], b.v[0], b.angle[0]] == pytest.approx(
        pi.state(pi.params[0]), rel=1e-13)


def test_composite_build_fails_as_the_scalar_path(pgas, monkeypatch):
    # a model whose Bernoulli constant is lowered by 0.0215, between the
    # true model's (q^2 - c^2)/2 at P (0.0211) and at tau1_i (0.0220): its
    # speeds fall below sound near P, so its own series fails there, and
    # one built on the lower quarter of the window meets c > q when read
    # above its end.  The scalar path and the array pass of the build both
    # raise "sonic-degeneracy" there
    ctx = wc.ramp_context(U0, TAU0, pgas)
    slow = replace(ctx, pgas=replace(pgas, bernoulli=pgas.bernoulli - 0.0215))
    with pytest.raises(ValueError, match="^sonic-degeneracy: q reached c"):
        slow.turning
    slow.__dict__["turning"] = fan._Turning(
        ctx.tau1_i, 0.75 * ctx.tau1_i + 0.25 * ctx.tau_po, 0.0, slow.pgas)
    grid = wc._graded_grid(ctx.tau1_i, ctx.tau_po)
    with pytest.raises(ValueError, match="^sonic-degeneracy: "):
        for t in grid.tolist():
            slow.tail_state(t)
    monkeypatch.setattr(wc, "ramp_context", lambda *args: slow)
    monkeypatch.setattr(wc, "_require_supersonic_post_state", lambda c: None)
    wc._shock_fan_shock_branch.cache_clear()
    with pytest.raises(ValueError, match="^sonic-degeneracy: "):
        wc.shock_fan_shock_branch(U0, TAU0, pgas)


@pytest.mark.parametrize("case", (None,) + ENVELOPE_POTENTIAL, ids=[
    "fixture"] + [f"seed101-{k}" for k in range(len(ENVELOPE_POTENTIAL))])
def test_attached_fan_is_least_supersonic_at_p(case):
    # inside the window the fan is least supersonic at P, where
    # _require_supersonic_post_state checks it: the Mach angle ray - sigma
    # peaks at tau_po, so the composite build meets c > q nowhere once that
    # check has passed
    if case is None:
        u0, tau0, pg = U0, TAU0, _fixture_set()["pgas"]
    else:
        g, S, u0, tau0, _ = case
        pg = thermo.PotentialGas.from_state(thermo.GasModel(g), S, u0, tau0,
                                            bernoulli=1.0)
    ctx = wc.ramp_context(u0, tau0, pg)
    grid = wc._graded_grid(ctx.tau1_i, ctx.tau_po)
    _, sigma, ray = ctx.turning.at_volume(grid)
    assert grid[-1] == ctx.tau_po
    assert int(np.argmax(ray - sigma)) == grid.size - 1


def count_roots(monkeypatch):
    """[calls, objective evaluations] of brentq through every module of
    the package that binds it, as test_fan.count_rounds counts panels."""
    counts = [0, 0]

    def counted(f, a, b, **kwargs):
        counts[0] += 1

        def f_counted(t):
            counts[1] += 1
            return f(t)

        return brentq(f_counted, a, b, **kwargs)

    for module in (thermo, shocks, wc):
        monkeypatch.setattr(module, "brentq", counted)
    return counts


def test_cold_fixture_branch_build_work(monkeypatch):
    # one cold build of the fixture's composite branch: 4 roots for the
    # inflection pair and the post-sonic point, the guide's 16 unguided
    # roots (its node at tau1_i needs none) and one bracketed call for each
    # of the 525 nodes past tau1_i, none falling back.  Unguided, the build
    # made 529 calls and 4,624 evaluations in them, plus 524 pre-checks
    pg = thermo.PotentialGas.from_state(G15, S98, U0, TAU0, bernoulli=1.0)
    wc._shock_fan_shock_branch.cache_clear()
    counts = count_roots(monkeypatch)
    wc.shock_fan_shock_branch(U0, TAU0, pg)
    assert counts == [545, 2156]


def test_guide_holds_the_roots_and_a_miss_falls_back(pgas):
    # on the fixture's composite grid the guide's estimate is within its
    # bound of every unguided root, the guided root within the tolerance of
    # both solves of it; the guide moved 100 bounds off misses, and the
    # solve falls back to the unguided root
    ctx = wc.ramp_context(U0, TAU0, pgas)
    mid, hw, c0, rest, bound = ctx.guide
    tol = 2.0 * (thermo.BRENT_XTOL + 4.0 * np.finfo(float).eps * TAU1_I)
    for t in wc._graded_grid(ctx.tau1_i, ctx.tau_po).tolist()[1:]:
        cold = shocks.pre_sonic_tau_potential(t, pgas)
        est = fan._clenshaw(c0, rest, (t - mid) / hw)
        assert abs(est - cold) < bound
        assert abs(ctx.tail_back_volume(t) - cold) <= tol
        missed = shocks.pre_sonic_tau_potential(
            t, pgas, (est + 99.0 * bound, est + 101.0 * bound))
        assert abs(missed - cold) <= thermo.BRENT_XTOL


def test_a_raising_guide_node_leaves_the_state_unguided(pgas, monkeypatch):
    # when one of the guide's unguided roots raises, the state has no
    # guide: every root of the build and of its queries is solved without
    # a bracket, and the outcomes are those of the guided build
    ctx = wc.ramp_context(U0, TAU0, pgas)
    mid = 0.5 * (ctx.tau_po + ctx.tau1_i)
    node = (mid + 0.5 * (ctx.tau_po - ctx.tau1_i) * fan._X).tolist()[5]
    wc._shock_fan_shock_branch.cache_clear()
    branch = wc.shock_fan_shock_branch(U0, TAU0, pgas)
    want = (wc.deflection_range(branch),
            wc.wall_tail_shock(SIGMA_IJ_MID, branch))
    brackets = []
    original = wc.pre_sonic_tau_potential

    def flaky(tau_f, pg, bracket=None):
        if tau_f == node:
            raise ValueError("no-convergence: a guide node")
        brackets.append(bracket)
        return original(tau_f, pg, bracket)

    monkeypatch.setattr(wc, "pre_sonic_tau_potential", flaky)
    wc._shock_fan_shock_branch.cache_clear()
    try:
        branch = wc.shock_fan_shock_branch(U0, TAU0, pgas)
        got = (wc.deflection_range(branch),
               wc.wall_tail_shock(SIGMA_IJ_MID, branch))
    finally:
        wc._shock_fan_shock_branch.cache_clear()
    assert branch.context.guide is None
    assert len(brackets) > 525 and set(brackets) == {None}
    assert got[0] == pytest.approx(want[0], rel=1e-12, abs=0.0)
    assert got[1].kind == want[1].kind == "pre_sonic"
    assert got[1].front.tau == pytest.approx(want[1].front.tau, rel=1e-12)
    assert got[1].back.tau == pytest.approx(want[1].back.tau, rel=1e-12)


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
        sol = wc.wall_tail_shock(math.atan2(ij.v[k], ij.u[k]), ij)
        tau_f = sol.front.tau
        assert sol.kind == "pre_sonic"
        for r in shocks.rh_residuals_potential(sol, pgas):
            assert abs(r) < 1e-10
        assert shocks.liu_condition_check(tau_f, sol.back.tau, pgas,
                                          slack=1e-6)


def test_strong_polar_junction(branches):
    # the zero-width limit of the composite at the fan head coincides with
    # the single shock down to the same back volume
    ij, jn = branches["ij"], branches["jn"]
    u1, v1, _ = ij.state(TAU_PO_POTENTIAL)
    assert u1 == pytest.approx(U_J, rel=1e-10)
    assert v1 == pytest.approx(V_J, rel=1e-10)
    u2, v2, _ = jn.state(TAU_PR_PO * (1.0 - 1e-9))
    assert math.hypot(u1 - u2, v1 - v2) < 1e-7


@pytest.mark.parametrize("frac", [1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 0.9])
def test_composite_deflection_free_of_rounding_noise(branches, frac):
    # nudging tau_f by a few ulps may move sigma_IJ only at rounding level,
    # also next to tau1_i where the tail's pre-sonic root merges with the
    # double root at tau_f
    ctx = branches["ij"].context
    tau_f = ctx.tau1_i + frac * (ctx.tau_po - ctx.tau1_i)
    sigma = [math.atan2(*ctx.tail_state(tau_f * (1.0 + k * 1e-15))[1::-1])
             for k in range(5)]
    assert max(abs(s - sigma[0]) for s in sigma) <= 1e-14


# ---------------------------------------------------------------------------
# strong polar branch


def test_polar_branch_II_normal_point(branches):
    jn = branches["jn"]
    assert jn.params[0] == pytest.approx(TAU_N, rel=1e-10)
    # the first node is the normal shock, at no deflection to rounding,
    # wherever the solved normal volume rounds
    for u0 in np.linspace(0.30, 0.34, 41):
        pg = thermo.PotentialGas.from_state(G15, S98, float(u0), TAU0,
                                            bernoulli=1.0)
        assert abs(wc.polar_branch_II(float(u0), TAU0, pg).v[0]) < 1e-8
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


def test_polar_branch_II_starts_attached():
    # the normal point must stay on the attached side of u0 after rounding
    for u0 in np.linspace(0.30, 0.34, 41):
        pg = thermo.PotentialGas.from_state(G15, S98, float(u0), TAU0,
                                            bernoulli=1.0)
        jn = wc.polar_branch_II(float(u0), TAU0, pg)
        # the deflection grows like the root of the distance to the normal
        # point, so a volume within xtol of it deflects by ~1e-8
        assert abs(jn.v[0]) < 1e-7
        assert jn.angle[0] <= 0.5 * math.pi


def test_polar_branch_II_is_empty_at_the_attachment_edge(pgas):
    # the head chord, tangent at P, runs on to the front-sonic back volume
    # seated at P, so the strong branch's normal speed falls to n_po there;
    # with u0 one ulp above n_po it never falls below u0 after rounding
    tau_po = wc.ramp_context(U0, TAU0, pgas).tau_po
    u0 = math.nextafter(wc._normal_speed(TAU0, tau_po, pgas), 1.0)
    pg = thermo.PotentialGas.from_state(G15, S98, u0, TAU0, bernoulli=1.0)
    with pytest.raises(ValueError, match="^empty-branch: "):
        wc.polar_branch_II(u0, TAU0, pg)


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

    def q_of(t):
        return 0.2 + 0.1 * t

    b = wc.WaveCurveBranch(
        param_range=(0.0, 1.0), params=np.linspace(0.0, 1.0, 64),
        u=q * math.cos(0.3), v=q * math.sin(0.3), angle=np.zeros(64),
        state=lambda t: (q_of(t) * math.cos(0.3),
                         q_of(t) * math.sin(0.3), 0.0))
    sm, sM = wc.deflection_range(b)
    assert sm == pytest.approx(0.3, abs=1e-12)
    assert sM == pytest.approx(0.3, abs=1e-12)


def test_solve_wedge_state_mid(branches):
    ij = branches["ij"]
    tau_w = wc.solve_wedge_state(SIGMA_IJ_MID, ij)
    u, v, _ = ij.state(tau_w)
    assert abs(math.atan2(v, u) - SIGMA_IJ_MID) < 1e-12
    assert tau_w == pytest.approx(TAU_W_MID, rel=1e-10)
    # the only crossing: one bracketing sample interval, no sample on it
    f = np.arctan2(ij.v, ij.u) - SIGMA_IJ_MID
    assert np.count_nonzero(f[:-1] * f[1:] < 0.0) == 1
    assert not np.any(np.abs(f) <= 1e-13)


def _deflection_branch(params, sigma):
    """A branch of unit speed whose flow angle is sigma(param)."""
    def state(t):
        return math.cos(sigma(t)), math.sin(sigma(t)), 0.0

    u, v, _ = np.array([state(t) for t in params]).T
    return wc.WaveCurveBranch(
        param_range=(params[0], params[-1]), params=params, u=u, v=v,
        angle=np.zeros(params.size), state=state)


def _bump(t):
    # rises to 0.4 at t = 1/4 and falls back: two crossings of 0.35
    return 0.3 + 0.1 * math.sin(2.0 * math.pi * t)


def _counted_branch(params, sigma):
    # a _deflection_branch whose state records each exact evaluation
    b = _deflection_branch(params, sigma)
    calls = []

    def state(t):
        calls.append(t)
        return b.state(t)
    return replace(b, state=state), calls


def test_solve_wedge_state_takes_the_first_crossing():
    # crossings at t = 1/12 and 5/12, both inside sample intervals; the
    # four samples about the first are monotone, so the root starts from
    # their inverse cubic and takes a few exact evaluations
    b, calls = _counted_branch(np.linspace(0.0, 1.0, 64), _bump)
    assert wc.solve_wedge_state(0.35, b) == pytest.approx(1.0 / 12.0,
                                                          abs=1e-12)
    assert 1 <= len(calls) <= 3
    assert all(b.params[5] < t < b.params[6] for t in calls)


def test_solve_wedge_state_without_a_monotone_cubic():
    # on 8 samples the four about the first crossing rise and fall: the
    # root starts from the bracket's chord instead, and still returns the
    # first crossing, not the one at 5/12
    b, calls = _counted_branch(np.linspace(0.0, 1.0, 8), _bump)
    (a, c), (fa, fc) = b.params[:2], np.arctan2(b.v[:2], b.u[:2]) - 0.35
    assert wc.solve_wedge_state(0.35, b) == pytest.approx(1.0 / 12.0,
                                                          abs=1e-12)
    assert calls[0] == pytest.approx(a - fa * (c - a) / (fc - fa),
                                     rel=1e-15)
    assert all(a < t < c for t in calls)


@pytest.mark.parametrize("offset", [0.0, 5e-14], ids=["on", "within"])
def test_solve_wedge_state_takes_a_sample_on_the_first_crossing(offset):
    # theta_w on, or within 1e-13 of, the sample k = 5 of the rising flank;
    # next to it a sample interval brackets the same crossing (offset > 0)
    # and a later one the falling crossing: the sample wins, unevaluated
    b, calls = _counted_branch(np.linspace(0.0, 1.0, 64), _bump)
    theta_w = math.atan2(b.v[5], b.u[5]) + offset
    assert wc.solve_wedge_state(theta_w, b) == b.params[5]
    assert calls == []


@pytest.mark.parametrize("case", ["fixture", "204/12", "209/15"])
def test_wedge_root_matches_a_tight_brentq(case):
    # walls across each window, next to both extremes too: the secant's
    # root against brentq at xtol 1e-15 on the same first bracket, and the
    # tail shock of the wall seated at the same parameter
    g, S, u0, tau0 = RAMP_STATES[case]
    pg = thermo.PotentialGas.from_state(thermo.GasModel(g), S, u0, tau0,
                                        bernoulli=1.0)
    b = wc.shock_fan_shock_branch(u0, tau0, pg)
    sigma_m, sigma_M = wc.deflection_range(b)
    for frac in (0.02, 0.25, 0.5, 0.75, 0.98):
        theta_w = sigma_m + frac * (sigma_M - sigma_m)
        f = np.arctan2(b.v, b.u) - theta_w
        k = int(np.argmax(f[:-1] * f[1:] < 0.0))
        assert not np.any(np.abs(f[:k + 1]) <= 1e-13)

        def gap(t):
            u, v, _ = b.state(t)
            return math.atan2(v, u) - theta_w
        ref = brentq(gap, b.params[k], b.params[k + 1], xtol=1e-15)
        tau_w = wc.solve_wedge_state(theta_w, b)
        assert tau_w == pytest.approx(ref, rel=1e-13, abs=0.0)
        assert wc.wall_tail_shock(theta_w, b).front.tau == tau_w


@pytest.mark.parametrize("case", sorted(RAMP_STATES))
def test_queries_ignore_the_sample_spacing(case):
    # the samples only bracket: on every 4th, 16th and 32nd node, and the
    # last, where sigma_M sits on these states, the deflection range and
    # the wedge states are placed on the exact relations as on all nodes
    g, S, u0, tau0 = RAMP_STATES[case]
    pg = thermo.PotentialGas.from_state(thermo.GasModel(g), S, u0, tau0,
                                        bernoulli=1.0)
    b = wc.shock_fan_shock_branch(u0, tau0, pg)
    sigma_m, sigma_M = wc.deflection_range(b)
    thetas = [sigma_m + frac * (sigma_M - sigma_m)
              for frac in (0.02, 0.25, 0.5, 0.75, 0.98)]
    taus = [wc.solve_wedge_state(theta_w, b) for theta_w in thetas]
    for step in (4, 16, 32):
        keep = np.unique(np.r_[np.arange(0, b.params.size, step),
                               b.params.size - 1])
        thin = replace(b, params=b.params[keep], u=b.u[keep], v=b.v[keep],
                       angle=b.angle[keep])
        assert wc.deflection_range(thin) == pytest.approx(
            (sigma_m, sigma_M), rel=0.0, abs=1e-15)
        for theta_w, tau_w in zip(thetas, taus):
            assert wc.solve_wedge_state(theta_w, thin) == pytest.approx(
                tau_w, rel=1e-13, abs=0.0)


def test_solve_wedge_state_endpoint(branches):
    ij = branches["ij"]
    theta = math.atan2(ij.v[0], ij.u[0])
    assert wc.solve_wedge_state(theta, ij) == ij.params[0]


def test_solve_wedge_state_no_root(branches):
    with pytest.raises(ValueError, match="no-root"):
        wc.solve_wedge_state(0.9, branches["ij"])


def test_wall_tail_shock_needs_the_ramp_context(branches):
    bare = replace(branches["ij"], context=None)
    with pytest.raises(ValueError, match="^no-context: "):
        wc.wall_tail_shock(SIGMA_IJ_MID, bare)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=TAU1_I + 2e-2, max_value=TAU_PO_POTENTIAL - 1e-3))
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
    defect = polar.polar_tangency_check(ij, TAU_W_MID)
    assert defect < 1e-7

    # (G_u, G_v) of the front-state polar is normal to the branch
    u_f, v_f, _ = ij.context.fan_state(TAU_W_MID)
    u_b, v_b, _ = ij.state(TAU_W_MID)
    _, g_u, g_v = polar.polar_gradient(u_b, v_b, u_f, v_f, pgas)
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
        g, g_u, g_v = polar.polar_gradient(ij.u[k], ij.v[k], uf, vf, pgas)
        scale = math.hypot(g_u, g_v) * math.hypot(ij.u[k], ij.v[k])
        assert abs(g) / scale < 1e-10


def test_tail_predicates(branches):
    ij = branches["ij"]
    assert polar.tail_tangent_acute(ij, TAU_W_MID)
    assert polar.tail_back_supersonic(ij, TAU_W_MID)


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


def test_memo_rebuilds_for_a_new_state(pgas, monkeypatch):
    assembled = _count_calls(monkeypatch, wc, "_assemble")
    wc._shock_fan_shock_branch.cache_clear()
    base = wc.shock_fan_shock_branch(U0, TAU0, pgas)
    # another incoming state on the same isentrope and Bernoulli constant
    tau0 = 0.99 * TAU0
    moved = wc.shock_fan_shock_branch(turning.speed_of_tau(pgas, tau0),
                                      tau0, pgas)
    assert len(assembled) == 2
    assert moved.context.tau0 == tau0 != base.context.tau0
    assert moved.context.tau_po != base.context.tau_po
    assert wc.shock_fan_shock_branch(turning.speed_of_tau(pgas, tau0), tau0,
                                     pgas) is moved
    assert len(assembled) == 2


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
    assert pg.inflection_pair[0] == ij.context.tau1_i
    assert ij.context.tau1_i == pytest.approx(TAU1_I, rel=1e-12)
    # the stored pair is invisible to equality and hashing
    twin = thermo.PotentialGas.from_state(G15, S98, U0, TAU0, bernoulli=1.0)
    assert twin == pg and hash(twin) == hash(pg)
    assert len(solves) == 1


def test_package_import_leaves_out_scipy_interpolate():
    # every branch query reads the exact relations, so no spline is built
    src = str(Path(wc.__file__).resolve().parents[1])
    code = ("import sys, bztflow.selfsimilar, bztflow.wavecurves; "
            "print('scipy.interpolate' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.stdout.strip() == "False"
