"""Characteristic frames and the characteristic decompositions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from bztflow import fan, thermo
from oracles.literals import G15, S98, TAU1_I, TAU_F_E, TAU_PO_POTENTIAL
from reference import characteristics as ck
from reference import turning


# ---------------------------------------------------------------------------
# frames

def test_frame_symmetric_state():
    c = 0.05
    fr = ck.frame_from_state(2.0 * c, 0.0, c)
    assert fr.sigma == 0.0
    assert fr.alpha == pytest.approx(math.asin(0.5), abs=1e-15)
    assert fr.beta == pytest.approx(-fr.alpha, abs=1e-15)
    assert fr.A == pytest.approx((fr.alpha - fr.beta) / 2.0, abs=1e-15)


def test_frame_subsonic_guard():
    with pytest.raises(ValueError, match="subsonic"):
        ck.frame_from_state(0.03, 0.0, 0.05)
    with pytest.raises(ValueError, match="subsonic"):
        ck.frame_from_state(0.1, 0.0, 0.0)


@settings(max_examples=80, deadline=None)
@given(sigma=st.floats(-1.2, 1.2), A=st.floats(0.05, 1.5),
       c=st.floats(0.01, 2.0))
def test_frame_roundtrip(sigma, A, c):
    f = c / math.sin(A)
    u, v = f * math.cos(sigma), f * math.sin(sigma)
    fr = ck.frame_from_state(u, v, c)
    assert fr.sigma == pytest.approx(sigma, abs=1e-14)
    assert fr.A == pytest.approx(A, abs=1e-13)


def test_frame_identities_bulk():
    # q^2 cos(a)cos(b) = u^2 - c^2 and q^2 sin(a)sin(b) = v^2 - c^2,
    # plus the slope relations, over 1e5 random supersonic states
    rng = np.random.default_rng(1905)
    n = 100_000
    A = rng.uniform(0.1, 1.45, n)
    sigma = rng.uniform(-2.5, 2.5, n)
    c = rng.uniform(0.05, 2.0, n)
    q = c / np.sin(A)
    u, v = q * np.cos(sigma), q * np.sin(sigma)
    alpha, beta = sigma + A, sigma - A
    r1 = q**2 * np.cos(alpha) * np.cos(beta) - (u**2 - c**2)
    r2 = q**2 * np.sin(alpha) * np.sin(beta) - (v**2 - c**2)
    assert np.max(np.abs(r1)) < 1e-12
    assert np.max(np.abs(r2)) < 1e-12
    # slope formula lambda_pm = (u v pm c sqrt(q^2-c^2))/(u^2-c^2), away
    # from the vertical-characteristic degeneracy
    mask = np.abs(u**2 - c**2) > 0.05
    root = np.sqrt(q**2 - c**2)
    lp = (u * v + c * root) / (u**2 - c**2)
    lm = (u * v - c * root) / (u**2 - c**2)
    r3 = np.abs(np.tan(alpha)[mask] - lp[mask])
    r4 = np.abs(np.tan(beta)[mask] - lm[mask])
    scale = 1.0 + np.abs(lp[mask]) + np.abs(lm[mask])
    assert np.max(r3 / scale) < 1e-12
    assert np.max(r4 / scale) < 1e-12
    # spot-check the scalar constructor against the same identities
    for i in range(0, n, n // 100):
        fr = ck.frame_from_state(u[i], v[i], c[i])
        assert fr.alpha == pytest.approx(alpha[i], abs=1e-12)
        assert fr.beta == pytest.approx(beta[i], abs=1e-12)


# ---------------------------------------------------------------------------
# decompositions on exact fan fields

def _euler_fan_field():
    c0 = thermo.sound_speed(4.9, S98, G15)
    sol = fan.integrate_fan(2.0 * c0, 4.9, 0.0, S98, math.asin(0.5),
                            TAU_F_E, G15)

    def fn(x, y):
        q, tau, sigma, S = sol.state(math.atan2(y, x))
        return q * math.cos(sigma), q * math.sin(sigma), tau, S

    theta_mid = 0.5 * (sol.theta_start + sol.theta_end)
    return ck.FlowField(fn, G15), (math.cos(theta_mid), math.sin(theta_mid))


def test_decomposition_euler_uniform():
    field = ck.FlowField(lambda x, y: (0.12, 0.0, 4.9, S98), G15)
    assert ck.decomposition_residual_euler_isentropic(
        field, (0.3, 0.1), 1e-3) == (0.0, 0.0)


def test_decomposition_euler_fan():
    field, P = _euler_fan_field()
    # rays are plus-characteristics: the plus-derivative of density is zero
    # along them, so the plus line is trivially satisfied and the minus
    # line is the genuine first-order check
    dp0 = ck.dbar(field, field.density, ck.PLUS, 1e-4)(*P)
    assert abs(dp0) < 1e-10
    rs = {}
    for h in (1e-3, 1e-4):
        r_plus, r_minus = ck.decomposition_residual_euler_isentropic(
            field, P, h)
        assert r_plus < 1e-6
        assert r_minus < 10.0 * h
        rs[h] = r_minus
    assert rs[1e-3] / rs[1e-4] > 5.0


def test_decomposition_euler_entropy_guard():
    def fn(x, y):
        return 0.12, 0.0, 4.9, S98 * (1.0 + 0.1 * x)
    with pytest.raises(ValueError, match="entropy-gradient-present"):
        ck.decomposition_residual_euler_isentropic(
            ck.FlowField(fn, G15), (0.0, 0.0), 1e-3)


def _potential_fan_field():
    """Centered fan whose rays are minus-family characteristics.

    Built by mirroring the plus-family sonic fan about the x axis, so
    r_minus is one constant across the whole wedge.
    """
    tau_ref = TAU_PO_POTENTIAL
    c_ref = thermo.sound_speed(tau_ref, S98, G15)
    q_ref = 1.8 * c_ref
    pg = thermo.PotentialGas.from_state(G15, S98, q_ref, tau_ref,
                                        bernoulli=1.0)
    lo, hi = TAU1_I + 0.3, tau_ref

    def alpha_hat(tau):
        return turning.pm_potential(tau, pg, q_ref, 0.0, tau_ref)[1]

    def fn(x, y):
        th = math.atan2(-y, x)
        tau = brentq(lambda t: alpha_hat(t) - th, lo, hi, xtol=1e-14)
        sig, _ = turning.pm_potential(tau, pg, q_ref, 0.0, tau_ref)
        q = turning.speed_of_tau(pg, tau)
        return q * math.cos(sig), -q * math.sin(sig)

    theta_mid = alpha_hat(0.5 * (lo + hi))
    point = (math.cos(theta_mid), -math.sin(theta_mid))
    return ck.PotentialFlowField(fn, pg, tau_ref), point


def test_decomposition_potential_uniform():
    pg = thermo.PotentialGas.from_state(G15, S98, 0.1, 4.9, bernoulli=1.0)
    field = ck.PotentialFlowField(lambda x, y: (0.1, 0.0), pg, 4.9)
    assert ck.decomposition_residual_potential(field, (0.2, 0.0), 1e-3) \
        == (0.0, 0.0)


def test_decomposition_potential_fan():
    field, P = _potential_fan_field()
    # constant-invariant branch is exact; outgoing branch converges at
    # first order
    dm_rm = ck.dbar(field, lambda x, y: field.invariants(x, y)[1],
                    ck.MINUS, 1e-4)(*P)
    assert abs(dm_rm) < 1e-7
    rs = {}
    for h in (1e-3, 1e-4):
        r_plus, r_minus = ck.decomposition_residual_potential(field, P, h)
        assert r_plus < 10.0 * h
        assert r_minus < 1e-6
        rs[h] = r_plus
    assert rs[1e-3] / rs[1e-4] > 5.0
