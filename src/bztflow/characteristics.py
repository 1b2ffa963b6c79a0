"""
Characteristic frames of 2D steady supersonic flow, and numerical
residual evaluators for the characteristic decompositions that the wave
constructions lean on.

A supersonic state (u, v) with sound speed c carries a frame of angles:
the flow angle sigma = atan2(v, u), the Mach angle A = arcsin(c/q), and
the two characteristic angles alpha = sigma + A, beta = sigma - A.

The decompositions are written in the derivatives along the two
characteristic directions,

    d+ = cos(alpha) d_x + sin(alpha) d_y,
    d- = cos(beta)  d_x + sin(beta)  d_y,

which the operators take as a frame-angle getter: PLUS and MINUS read
alpha and beta off a frame.
First derivatives are taken by central differences of step h along the
frame direction of the evaluation point; the second (nested) application
uses a forward step, so the composed residuals shrink at first order
in h. Fields are assumed smooth on the stencil (within ~2h of the
point) with the flow angle away from the atan2 branch cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

from .fan import riemann_invariants
from .thermo import (
    GasModel,
    PotentialGas,
    pressure_tau,
    pressure_tautau,
    sound_speed,
    tau_from_speed,
)

# largest |d+ S| at which a field counts as isentropic
ENTROPY_GRADIENT_TOL = 1e-8


# ---------------------------------------------------------------------------
# frames

@dataclass(frozen=True)
class CharacteristicFrame:
    """Angle frame of one supersonic state.

    sigma: flow angle; A: Mach angle; alpha/beta: plus and minus
    characteristic angles.
    """

    sigma: float
    A: float
    alpha: float
    beta: float


# frame-angle getters: the directions of d+ and d-
PLUS = attrgetter("alpha")
MINUS = attrgetter("beta")


def frame_from_state(u, v, c):
    """Characteristic frame of the supersonic state (u, v) at sound speed c.

    Raises "subsonic" unless q = |(u, v)| exceeds c > 0.
    """
    q = math.hypot(u, v)
    if not c > 0.0 or q <= c:
        raise ValueError(f"subsonic: speed q={q} not above sound speed c={c}")
    sigma = math.atan2(v, u)
    A = math.asin(c / q)
    return CharacteristicFrame(sigma=sigma, A=A, alpha=sigma + A,
                               beta=sigma - A)


# ---------------------------------------------------------------------------
# flow fields as callables

@dataclass(frozen=True)
class FlowField:
    """Euler flow patch: fn(x, y) -> (u, v, tau, S), closed by a gas model.

    fn must be safe for repeated and concurrent invocation; the residual
    evaluators call it on small stencils around the requested point.
    """

    fn: Callable[[float, float], tuple]
    gas: GasModel

    def state(self, x, y):
        return self.fn(x, y)

    def density(self, x, y):
        return 1.0 / self.fn(x, y)[2]

    def frame(self, x, y):
        u, v, tau, S = self.fn(x, y)
        return frame_from_state(u, v, sound_speed(tau, S, self.gas))


@dataclass(frozen=True)
class PotentialFlowField:
    """Potential flow patch: fn(x, y) -> (u, v) on a fixed isentrope.

    tau and c follow from the Bernoulli law of pgas, and the Riemann
    invariants take their turning integral from the volume tau_ref.
    """

    fn: Callable[[float, float], tuple]
    pgas: PotentialGas
    tau_ref: float

    def state(self, x, y):
        return self.fn(x, y)

    def volume(self, x, y):
        u, v = self.fn(x, y)
        return tau_from_speed(math.hypot(u, v), self.pgas)

    def density(self, x, y):
        return 1.0 / self.volume(x, y)

    def frame(self, x, y):
        u, v = self.fn(x, y)
        tau = tau_from_speed(math.hypot(u, v), self.pgas)
        return frame_from_state(u, v, self.pgas.c(tau))

    def invariants(self, x, y):
        u, v = self.fn(x, y)
        return riemann_invariants(u, v, self.pgas, self.tau_ref)


# ---------------------------------------------------------------------------
# finite-difference directional operators

def dbar(field, scalar, direction, h):
    """Central-difference derivative of scalar(x, y) as a new callable.

    direction is a frame-angle getter, PLUS or MINUS for d+ or d-; it is
    read at each evaluation point's own frame.
    """
    def d(x, y):
        th = direction(field.frame(x, y))
        cx, sy = math.cos(th), math.sin(th)
        return (scalar(x + h * cx, y + h * sy)
                - scalar(x - h * cx, y - h * sy)) / (2.0 * h)
    return d


def _dbar_forward(field, scalar, direction, h):
    # one-sided outer application: keeps nested second derivatives at one
    # field evaluation per direction and makes the composed residuals O(h)
    def d(x, y):
        th = direction(field.frame(x, y))
        cx, sy = math.cos(th), math.sin(th)
        return (scalar(x + h * cx, y + h * sy) - scalar(x, y)) / h
    return d


def _mixed(field, f, g, point, h):
    # (d- d+ f, d+ d- g, d+ f, d- g) at the point
    dp = dbar(field, f, PLUS, h)
    dm = dbar(field, g, MINUS, h)
    return (_dbar_forward(field, dp, MINUS, h)(*point),
            _dbar_forward(field, dm, PLUS, h)(*point), dp(*point), dm(*point))


# ---------------------------------------------------------------------------
# characteristic decompositions

def decomposition_residual_potential(field, point, h):
    """Residuals of the invariant-form decompositions on a potential field.

    Checks, with F = -q^2 tau p''/(4 (q^2-c^2) p' sin2A),

        d- d+ r+ = -F (d+ r+ - cos2A d- r-) d+ r+,
        d+ d- r- =  F (d- r- - cos2A d+ r+) d- r-,

    and returns (r_plus, r_minus) = absolute residuals of the two lines.
    The field must be an exact (or manufactured) solution of the potential
    system on the stencil; residuals then vanish at first order in h.
    """
    pgas = field.pgas

    rp_of = lambda x, y: field.invariants(x, y)[0]
    rm_of = lambda x, y: field.invariants(x, y)[1]
    lhs_plus, lhs_minus, dp0, dm0 = _mixed(field, rp_of, rm_of, point, h)

    u, v = field.state(*point)
    q = math.hypot(u, v)
    tau = tau_from_speed(q, pgas)
    c = pgas.c(tau)
    A = math.asin(c / q)
    F = (-q * q * tau * pgas.p_tautau(tau)
         / (4.0 * (q * q - c * c) * pgas.p_tau(tau) * math.sin(2.0 * A)))

    c2A = math.cos(2.0 * A)
    r_plus = abs(lhs_plus + F * (dp0 - c2A * dm0) * dp0)
    r_minus = abs(lhs_minus - F * (dm0 - c2A * dp0) * dm0)
    return r_plus, r_minus


def decomposition_residual_euler_isentropic(field, point, h):
    """Residuals of the density decompositions on an isentropic Euler field.

    With K = tau^4 p_tautau/(4 c^2 cos^2 A) and the coupling coefficient
    phi = 2 sin^2 A - 8 p_tau cos^4 A/(tau p_tautau), checks

        d- d+ rho = K [ (d+ rho)^2 + (phi - 1) d- rho d+ rho ],
        d+ d- rho = K [ (d- rho)^2 + (phi - 1) d- rho d+ rho ],

    valid only when the entropy terms drop out: raises
    "entropy-gradient-present" if |d+ S| at the point exceeds
    ENTROPY_GRADIENT_TOL. The field should also be irrotational; a
    vortical field simply leaves a nonvanishing residual. Returns
    (r_plus, r_minus) for the two lines.
    """
    S_of = lambda x, y: field.state(x, y)[3]
    dpS = dbar(field, S_of, PLUS, h)(*point)
    if abs(dpS) > ENTROPY_GRADIENT_TOL:
        raise ValueError(
            f"entropy-gradient-present: |d+S|={abs(dpS)} exceeds "
            f"{ENTROPY_GRADIENT_TOL}; the reduced decomposition does not "
            "apply")

    lhs_plus, lhs_minus, dp0, dm0 = _mixed(field, field.density,
                                           field.density, point, h)

    u, v, tau, S = field.state(*point)
    c = sound_speed(tau, S, field.gas)
    A = math.asin(c / math.hypot(u, v))
    pt = pressure_tau(tau, S, field.gas)
    ptt = pressure_tautau(tau, S, field.gas)
    cosA2 = math.cos(A) ** 2
    K = tau**4 * ptt / (4.0 * c * c * cosA2)
    phi = 2.0 * math.sin(A) ** 2 - 8.0 * pt * cosA2 * cosA2 / (tau * ptt)

    cross = (phi - 1.0) * dm0 * dp0
    r_plus = abs(lhs_plus - K * (dp0 * dp0 + cross))
    r_minus = abs(lhs_minus - K * (dm0 * dm0 + cross))
    return r_plus, r_minus
