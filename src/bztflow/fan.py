# fan.py
"""
Centered simple waves (Prandtl-Meyer fans).

A centered fan is a one-parameter family of states indexed by the ray angle
theta = arctan(y/x): each ray is a straight characteristic tangent to the
local sonic circle, which forces sigma + A = theta with A = arcsin(c/q) the
Mach angle. Differentiating that constraint along the Bernoulli law turns
the fan into an ODE system in theta for (q, tau, sigma) at frozen entropy:

    q'     =  2 c p_tau cos(A) / (tau p_tautau)
    tau'   = -2 q c cos(A) / (tau^2 p_tautau)
    sigma' = -2 p_tau cos^2(A) / (tau p_tautau)

The system degenerates at inflection points of the isentrope (p_tautau = 0)
and at sonic states (q = c); both abort the integration.

The same turning integral in speed, nu(q) = int sqrt(q^2-c^2)/(q c) dq with
tau eliminated through the Bernoulli law, gives the potential-flow fan
(sigma as a function of tau at frozen entropy) and the Riemann invariants
sigma +/- nu.  The total turning of a fan that expands to vacuum is the
same integral taken in the volume variable u = tau^(-(gamma-1)/2), where
the Bernoulli law gives q in closed form and the vacuum end u = 0 is a
regular point of the integrand.
"""

import math
from dataclasses import dataclass

from scipy.integrate import quad, solve_ivp

from .thermo import (
    PotentialGas,
    enthalpy,
    inflection_roots,
    pressure_tau,
    pressure_tautau,
    tau_from_speed,
)


# ---------------------------------------------------------------------------
# stop predicates (first-class values; `signal` crosses zero at the stop)

@dataclass(frozen=True)
class TargetTau:
    """Stop when tau reaches `value`."""
    value: float

    def signal(self, theta, q, tau, sigma):
        return tau - self.value


@dataclass(frozen=True)
class SlipLine:
    """Stop when the flow direction aligns with a wall at angle `theta_w`
    through the fan centre (v = u tan(theta_w))."""
    theta_w: float

    def signal(self, theta, q, tau, sigma):
        return sigma - self.theta_w


# ---------------------------------------------------------------------------
# Euler fan

INFLECTION_GUARD = 1e-10


class FanSolution:
    """
    Dense-output centered fan: theta in [theta_end, theta_start] (or the
    reverse), entropy frozen at S, with state(theta) -> (q, tau, sigma, S).
    """

    def __init__(self, theta_start, theta_end, direction, S, gas,
                 dense, y0):
        self.theta_start = theta_start
        self.theta_end = theta_end
        self.direction = direction
        self.S = S
        self.gas = gas
        self._dense = dense        # scipy OdeSolution, or None if zero-length
        self._y0 = y0

    def state(self, theta):
        """(q, tau, sigma, S) on the ray theta."""
        lo = min(self.theta_start, self.theta_end)
        hi = max(self.theta_start, self.theta_end)
        tol = 1e-12 * (1.0 + hi - lo)
        if not (lo - tol <= theta <= hi + tol):
            raise ValueError(
                f"theta-out-of-range: {theta} outside [{lo}, {hi}]")
        if self._dense is None:
            q, tau, sigma = self._y0
        else:
            q, tau, sigma = self._dense(min(max(theta, lo), hi))
        return float(q), float(tau), float(sigma), self.S

    def velocity(self, theta):
        """(u, v) on the ray theta."""
        q, _, sigma, _ = self.state(theta)
        return q * math.cos(sigma), q * math.sin(sigma)


def _fan_rhs(S, gas):
    def rhs(theta, y):
        q, tau, sigma = y
        if not tau > 1.0:
            # a trial stage thrown past the covolume; NaN makes the step
            # control reject the step and retry a shorter one
            return (math.nan, math.nan, math.nan)
        pt = pressure_tau(tau, S, gas)
        ptt = pressure_tautau(tau, S, gas)
        c = tau * math.sqrt(-pt)
        sinA = c / q
        cosA = math.sqrt(max(0.0, 1.0 - sinA * sinA))
        return (2.0 * c * pt * cosA / (tau * ptt),
                -2.0 * q * c * cosA / (tau**2 * ptt),
                -2.0 * pt * cosA * cosA / (tau * ptt))
    return rhs


def integrate_fan(q0, tau0, sigma0, S0, theta0, stop, gas,
                  direction=-1, theta_span=math.pi):
    """
    Integrate a centered fan from the state (q0, tau0, sigma0, S0) on the
    ray theta0 until the `stop` predicate fires.

    `stop` is TargetTau or SlipLine; `direction` is the sense in which
    theta advances (default decreasing).  The integrator is the 8th-order
    Dormand-Prince pair DOP853 (rtol 1e-12, atol 1e-14) with dense output.
    The data must be centered (theta0 = sigma0 + arcsin(c0/q0)) and
    supersonic. Raises "inflection-hit" when p_tautau degenerates along
    the path and "sonic-degeneracy" when q reaches c.
    """
    pt0 = pressure_tau(tau0, S0, gas)
    c0 = tau0 * math.sqrt(-pt0)
    if q0 <= c0:
        raise ValueError(
            f"sonic-degeneracy: initial speed q0={q0} not above c0={c0}")
    A0 = math.asin(c0 / q0)
    if abs(sigma0 + A0 - theta0) > 1e-9 * (1.0 + abs(theta0)):
        raise ValueError(
            f"not-centered: theta0={theta0} differs from sigma0+A0="
            f"{sigma0 + A0}")

    y0 = (q0, tau0, sigma0)
    if abs(stop.signal(theta0, q0, tau0, sigma0)) <= 1e-12 * (1.0 + abs(theta0)):
        return FanSolution(theta0, theta0, direction, S0, gas,
                           dense=None, y0=y0)

    def stop_ev(theta, y):
        return stop.signal(theta, y[0], y[1], y[2])

    # signed so that the signal stays negative once the band is crossed,
    # however large the step that crossed it
    ptt_sign = math.copysign(1.0, pressure_tautau(tau0, S0, gas))

    def inflection_ev(theta, y):
        q, tau, sigma = y
        return (ptt_sign * pressure_tautau(tau, S0, gas)
                - INFLECTION_GUARD * abs(pressure_tau(tau, S0, gas)) / tau)

    def sonic_ev(theta, y):
        q, tau, sigma = y
        return q - tau * math.sqrt(-pressure_tau(tau, S0, gas))

    for ev in (stop_ev, inflection_ev, sonic_ev):
        ev.terminal = True

    res = solve_ivp(_fan_rhs(S0, gas), (theta0, theta0 + direction * theta_span),
                    y0, method="DOP853", rtol=1e-12, atol=1e-14,
                    dense_output=True,
                    events=(stop_ev, inflection_ev, sonic_ev))
    if res.status == -1:
        # Step-size underflow.  The usual cause is the fold at the inflection
        # locus, where dtau/dtheta diverges and the stepper stalls a little
        # before the guard event can cross zero.  Attribute the failure by
        # looking at where the integration died.
        q_end, tau_end, _ = res.y[:, -1]
        c_end = tau_end * math.sqrt(-pressure_tau(tau_end, S0, gas))
        try:
            t1i, t2i = inflection_roots(S0, gas)
        except ValueError:
            t1i = t2i = None
        if t1i is not None and min(abs(tau_end - t1i),
                                   abs(tau_end - t2i)) <= 1e-6 * tau_end:
            raise ValueError(
                f"inflection-hit: integration stalled at tau={tau_end} "
                f"against the p_tautau = 0 locus")
        if abs(q_end - c_end) <= 1e-6 * q_end:
            raise ValueError(
                f"sonic-degeneracy: integration stalled at q={q_end} "
                f"with c={c_end}")
        raise ValueError(f"no-convergence: {res.message}")
    if res.t_events[1].size:
        raise ValueError(
            f"inflection-hit: p_tautau degenerate at theta="
            f"{res.t_events[1][0]}")
    if res.t_events[2].size:
        raise ValueError(
            f"sonic-degeneracy: q reached c at theta={res.t_events[2][0]}")
    if not res.t_events[0].size:
        raise ValueError(
            f"no-convergence: stop {stop} never fired within "
            f"{theta_span} rad of theta0={theta0}")
    theta_end = float(res.t_events[0][0])
    return FanSolution(theta0, theta_end, direction, S0, gas,
                       dense=res.sol, y0=y0)


# ---------------------------------------------------------------------------
# turning integrals on one isentrope

def turning_angle(q_from, q_to, pgas):
    """Turning integral int sqrt(q^2 - c^2)/(q c) dq from q_from to q_to,
    with tau eliminated through the Bernoulli law of pgas."""
    def nu_prime(q):
        tau = tau_from_speed(q, pgas)
        c = pgas.c(tau)
        if q <= c:
            raise ValueError(f"subsonic: q={q} at or below c={c}")
        return math.sqrt(q * q - c * c) / (q * c)

    val, _ = quad(nu_prime, q_from, q_to, epsabs=1e-13, epsrel=1e-12,
                  limit=200)
    return val


def vacuum_angle(q_d, tau_d, S_d, gas):
    """
    Total turning of a fan that expands from (q_d, tau_d, S_d) all the way
    to vacuum, as a (negative) offset from the flow direction at the fan
    foot: the vacuum ray sits at sigma_d + vacuum_angle(...).

    Along the isentrope q dq = (c^2/tau) dtau, so the turning rate in
    volume is c sqrt(q^2 - c^2)/(tau q^2), with q^2 = q_lim^2 - 2 h(tau)
    from the Bernoulli law and q_lim^2 = q_d^2 + 2 h(tau_d, S_d) (enthalpy
    normalised to vanish at infinite volume).  The integral is taken in
    u = tau^(-(gamma-1)/2) over [0, tau_d^(-(gamma-1)/2)]: c/u stays finite
    and the integrand tends to (2/(gamma-1)) sqrt(gamma S_d)/q_lim at the
    vacuum end u = 0.
    Raises "divergent-limit" if the enthalpy has no finite vacuum limit,
    "sonic-degeneracy" if the foot state is not supersonic, and
    "out-of-window" if tau_d lies inside the nonconvex window (the
    expansion would hit an inflection point).
    """
    h_d = enthalpy(tau_d, S_d, gas)
    if not math.isfinite(h_d):
        raise ValueError(
            f"divergent-limit: enthalpy not finite at tau_d={tau_d}")
    c_d = tau_d * math.sqrt(-pressure_tau(tau_d, S_d, gas))
    if q_d <= c_d:
        raise ValueError(
            f"sonic-degeneracy: q_d={q_d} not above c_d={c_d}")
    try:
        _, tau2_i = inflection_roots(S_d, gas)
    except ValueError:
        tau2_i = None          # convex isentrope: no window to avoid
    if tau2_i is not None and tau_d <= tau2_i:
        raise ValueError(
            f"out-of-window: tau_d={tau_d} not beyond the nonconvex window "
            f"(tau2_i={tau2_i})")
    g = gas.gamma
    k = 0.5 * (g - 1.0)
    q_lim2 = q_d * q_d + 2.0 * h_d

    def integrand(u):
        # w = 1/tau, r = 1/(tau-1): finite down to the vacuum end w = 0
        w = u ** (1.0 / k)
        r = w / (1.0 - w)
        h = S_d * r ** (g - 1.0) * (g / (g - 1.0) + r) - 2.0 * w
        q2 = q_lim2 - 2.0 * h
        c_u2 = g * S_d * (1.0 - w) ** -(g + 1.0) - 2.0 * w ** (2.0 - g)
        return math.sqrt(c_u2 * (q2 - c_u2 * u * u)) / q2

    val, _ = quad(integrand, 0.0, tau_d ** -k,
                  epsabs=1e-13, epsrel=1e-12, limit=200)
    return -val / k


def pm_potential(tau, pgas, q_ref, sigma_ref, tau_ref):
    """
    Potential-flow fan on the isentrope of pgas, anchored at the state
    (q_ref, sigma_ref, tau_ref): returns (sigma_hat, alpha_hat) at volume
    tau, where sigma_hat is the flow direction after the turning integral
    and alpha_hat = sigma_hat + arcsin(c/q) the ray angle.
    """
    anchored = PotentialGas.from_state(pgas.gas, pgas.S, q_ref, tau_ref,
                                       bernoulli=pgas.bernoulli)
    q_hat = anchored.speed_of_tau(tau)
    c_hat = anchored.c(tau)
    if q_hat <= c_hat:
        raise ValueError(f"subsonic: q={q_hat} at or below c={c_hat} "
                         f"at tau={tau}")
    sigma_hat = sigma_ref - turning_angle(q_ref, q_hat, anchored)
    return sigma_hat, sigma_hat + math.asin(c_hat / q_hat)


def riemann_invariants(u, v, pgas):
    """
    (r_plus, r_minus) = sigma +/- nu(q) with nu the turning integral from
    the reference speed pgas.q_ref on the isentrope of pgas.

    Raises "subsonic" when the state is not supersonic and
    "no-reference-speed" when pgas carries no positive q_ref.
    """
    if not pgas.q_ref > 0.0:
        raise ValueError(
            "no-reference-speed: pgas.q_ref must be positive to anchor the "
            "turning integral")
    q = math.hypot(u, v)
    tau = tau_from_speed(q, pgas)
    c = pgas.c(tau)
    if q <= c:
        raise ValueError(f"subsonic: q={q} at or below c={c}")
    sigma = math.atan2(v, u)
    nu = turning_angle(pgas.q_ref, q, pgas)
    return sigma + nu, sigma - nu
