"""
The shock-polar function of an oblique front state, and checks of the
composite wave curve (bztflow.wavecurves.shock_fan_shock_branch) against
its defining relations: the branch touches the polar of its own front
state, its backward tangent is acute to the state vector, and the tail
shock's back state is supersonic.  The branch tangent is a central
difference of the branch's exact evaluator.
"""

import math

from bztflow.thermo import tau_from_speed

# step of the central-difference branch tangent, relative to the branch's
# parameter range
TANGENT_STEP = 1e-6


def branch_tangent(branch, param):
    """Unit tangent (t_u, t_v) of a WaveCurveBranch in ascending parameter:
    the central difference of `branch.state` with step
    TANGENT_STEP * (hi - lo)."""
    lo, hi = branch.param_range
    step = TANGENT_STEP * (hi - lo)
    up, vp, _ = branch.state(param + step)
    um, vm, _ = branch.state(param - step)
    norm = math.hypot(up - um, vp - vm)
    return (up - um) / norm, (vp - vm) / norm


def polar_gradient(u, v, u_f, v_f, pgas):
    """Shock-polar function of the front state (u_f, v_f) at (u, v), and
    its gradient.

    G = (rho u - rho_f u_f)(u - u_f) + (rho v - rho_f v_f)(v - v_f)
    with each density taken from the Bernoulli law of pgas; G vanishes on
    the polar and (G_u, G_v) is normal to it.
    """
    q = math.hypot(u, v)
    q_f = math.hypot(u_f, v_f)
    tau = tau_from_speed(q, pgas)
    tau_f = tau_from_speed(q_f, pgas)
    rho = 1.0 / tau
    rho_f = 1.0 / tau_f
    c2 = pgas.c(tau) ** 2
    du, dv = u - u_f, v - v_f
    G = (rho * u - rho_f * u_f) * du + (rho * v - rho_f * v_f) * dv
    G_u = ((rho - rho * u * u / c2) * du + (rho * u - rho_f * u_f)
           - rho * u * v / c2 * dv)
    G_v = (-rho * u * v / c2 * du + (rho - rho * v * v / c2) * dv
           + (rho * v - rho_f * v_f))
    return G, G_u, G_v


def polar_tangency_check(branch_IJ, tau_w):
    """Angle defect between the composite-branch tangent at tau_w and the
    shock polar of the fan-branch front state through the same back
    point, whose normal is the polar_gradient there.  The two curves
    touch, so the defect measures only the finite-difference error of the
    branch tangent (TANGENT_STEP)."""
    ctx = branch_IJ.context
    lo, hi = branch_IJ.param_range
    if not lo < tau_w < hi:
        raise ValueError(f"out-of-window: tau_w={tau_w} not inside "
                         f"({lo}, {hi})")
    tu, tv = branch_tangent(branch_IJ, tau_w)
    u_f, v_f, _ = ctx.fan_state(tau_w)
    u_b, v_b, _ = branch_IJ.state(tau_w)
    _, g_u, g_v = polar_gradient(u_b, v_b, u_f, v_f, ctx.pgas)
    return math.asin(min(1.0, abs(tu * g_u + tv * g_v)
                         / math.hypot(g_u, g_v)))


def tail_tangent_acute(branch_IJ, tau_w):
    """True when the angle between the backward tangent -(u', v') of the
    composite branch and the state vector (u, v) at tau_w is acute."""
    u, v, _ = branch_IJ.state(tau_w)
    tu, tv = branch_tangent(branch_IJ, tau_w)
    return -(tu * u + tv * v) > 0.0


def tail_back_supersonic(branch_IJ, tau_w):
    """True when the back state of the tail shock at tau_w is supersonic."""
    ctx = branch_IJ.context
    u, v, _ = ctx.tail_state(tau_w)
    return math.hypot(u, v) > ctx.pgas.c(ctx.tail_back_volume(tau_w))
