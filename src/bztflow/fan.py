# fan.py
"""
Centered simple waves (Prandtl-Meyer fans).

A centered fan is a one-parameter family of states indexed by the ray angle
theta = arctan(y/x): each ray is a straight characteristic tangent to the
local sonic circle, which forces sigma + A = theta with A = arcsin(c/q) the
Mach angle.  At frozen entropy S and Bernoulli constant the fan is a
closed-form integral along the isentrope: q^2 = q_lim^2 - 2 h(tau), and
q dq = (c^2/tau) dtau turns the flow at the rate

    dsigma/dtau = -c sqrt(q^2 - c^2)/(tau q^2).

The Euler fan takes that integral in the volume variable
u = tau^(-k), k = (gamma-1)/2, where u = 0 is vacuum.  With w = 1/tau,
c_u^2 = c^2/u^2 = gamma S (1-w)^-(gamma+1) - 2 w^(2-gamma) and

    dsigma/du = sqrt(c_u^2 (q^2 - c_u^2 u^2)) / (k q^2),

the integrand stays finite up to and including the vacuum end.  It is
fitted on adaptive Chebyshev panels in u and integrated term by term, so
sigma(u) is a stored series and the ray theta(u) = sigma + arcsin(c/q) is
monotone in u on a convex stretch of the isentrope.  A ray is mapped back
to u by bisection on the panel nodes and safeguarded Newton steps.  The
construction stops short of the inflection window of the isentrope
(p_tautau = 0) and requires a supersonic foot.

The same turning integral in speed, nu(q) = int sqrt(q^2-c^2)/(q c) dq with
tau eliminated through the Bernoulli law, gives the potential-flow fan
(sigma as a function of tau at frozen entropy) and the Riemann invariants
sigma +/- nu.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev
# solve_ivp stays bound here: the benchmark tracer wraps fan.solve_ivp
from scipy.integrate import quad, solve_ivp  # noqa: F401

from .thermo import (
    PotentialGas,
    enthalpy,
    inflection_roots,
    pressure_tau,
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

# Chebyshev-Lobatto points per panel and the cap on the panel count.  A
# panel is accepted when its last two coefficients fall below TAIL_TOL of
# the integrand scale, or when their product with the half-width (the
# panel's error in radians) stays within BUDGET_TOL of the scale times the
# whole u interval, or of one radian if that is larger.  The budget ends
# refinement where rounding noise, not resolution, sets the tail: near a
# sonic foot q^2 - c^2 cancels, and a short fan's turning is far below
# what a double resolves in sigma.
PANEL_POINTS = 17
MAX_PANELS = 512
TAIL_TOL = 1e-13
BUDGET_TOL = 1e-15
NEWTON_STEPS = 6

_M = PANEL_POINTS - 1
_X = -np.cos(np.pi * np.arange(PANEL_POINTS) / _M)          # ascending
_T = np.cos(np.outer(np.arccos(_X), np.arange(PANEL_POINTS + 1)))
_HALF = np.ones(PANEL_POINTS)
_HALF[[0, -1]] = 0.5
# values at _X -> Chebyshev coefficients (discrete orthogonality)
_FIT = (2.0 / _M) * _HALF[:, None] * _T[:, :PANEL_POINTS].T * _HALF
_XS = _X.tolist()


def _forms(lw, g, S, q_lim2, xp):
    """Closed forms at lw = log(w), w = 1/tau: (c_u^2, q^2, P) with
    c_u^2 = c^2/u^2, q^2 from the Bernoulli law and P = tau^(gamma+2)
    p_tautau.  `xp` is math for scalars or numpy for arrays."""
    w = xp.exp(lw)
    omw = -xp.expm1(lw)              # 1 - w without cancellation near tau=1
    r = w / omw
    h = S * r ** (g - 1.0) * (g / (g - 1.0) + r) - 2.0 * w
    w2g = w ** (2.0 - g)
    c_u2 = g * S * omw ** -(g + 1.0) - 2.0 * w2g
    P = g * (g + 1.0) * S * omw ** -(g + 2.0) - 6.0 * w2g
    return c_u2, q_lim2 - 2.0 * h, P


def _tau_of(lw):
    return math.exp(-lw) if lw > -700.0 else math.inf


def _clenshaw(c0, rest, x):
    """sum c_k T_k(x) with rest = (c_n, ..., c_1)."""
    b1 = b2 = 0.0
    x2 = x + x
    for c in rest:
        b1, b2 = c + x2 * b1 - b2, b1
    return c0 + x * b1 - b2


class _Turning:
    """sigma(u) on Chebyshev panels from the foot u_hi down to u_lo, with
    the ray theta(u) tabulated at the panel nodes.  A point is addressed
    as (panel p, x) with u = mid_p + hw_p x."""

    def __init__(self, u_lo, u_hi, sigma0, S, q_lim2, gas):
        g = gas.gamma
        self.g, self.k, self.S, self.q_lim2 = g, 0.5 * (g - 1.0), S, q_lim2
        k = self.k
        span = u_hi - u_lo

        def integrand(mid, hw, x):
            u = mid + hw * x
            with np.errstate(divide="ignore"):
                c_u2, q2, P = _forms(np.log(u) / k, g, S, q_lim2, np)
            m2 = q2 - c_u2 * u * u
            if not (np.all(c_u2 > 0.0) and np.all(m2 > -1e-12 * q2)):
                raise ValueError(
                    "sonic-degeneracy: q reached c along the fan")
            m2 = np.maximum(m2, 0.0)
            return np.sqrt(c_u2 * m2) / (k * q2), u, c_u2, q2, P, m2

        # adaptive panels; every round evaluates all pending panels at once
        done = []
        edges = np.linspace(u_lo, u_hi, 5)
        pending = np.stack([edges[:-1], edges[1:]], axis=1)
        scale = 0.0
        while len(pending):
            mid = 0.5 * (pending[:, 0] + pending[:, 1])
            hw = 0.5 * (pending[:, 1] - pending[:, 0])
            f = integrand(mid[:, None], hw[:, None], _X)[0]
            scale = max(scale, float(np.max(f)))
            coef = f @ _FIT.T
            tail = np.abs(coef[:, -1]) + np.abs(coef[:, -2])
            ok = ((tail <= TAIL_TOL * scale)
                  | (tail * hw <= BUDGET_TOL * max(scale * span, 1.0)))
            done.append(np.column_stack([pending[ok], coef[ok]]))
            split = pending[~ok]
            pending = np.concatenate(
                [np.column_stack([split[:, 0], mid[~ok]]),
                 np.column_stack([mid[~ok], split[:, 1]])])
            if sum(map(len, done)) + len(pending) > MAX_PANELS:
                raise ValueError(
                    f"no-convergence: fan integrand needs more than "
                    f"{MAX_PANELS} panels on u in [{u_lo}, {u_hi}]")
        panels = np.concatenate(done)
        panels = panels[np.argsort(panels[:, 0])]
        a, b, coef = panels[:, 0], panels[:, 1], panels[:, 2:]
        mid, hw = 0.5 * (a + b), 0.5 * (b - a)

        # sigma series: antiderivative per panel, chained down from the foot
        G = chebyshev.chebint(coef, axis=1) * hw[:, None]
        top, bottom = G.sum(axis=1), G @ (-1.0) ** np.arange(G.shape[1])
        drop = top - bottom
        sigma_top = sigma0 - (np.cumsum(drop[::-1])[::-1] - drop)
        G[:, 0] += sigma_top - top

        # nodes ascending in u: each panel's points but its top, then the
        # foot as the top of the last panel
        f, u, c_u2, q2, P, m2 = (
            np.append(v[:, :-1].ravel(), v[-1, -1])
            for v in integrand(mid[:, None], hw[:, None], _X))
        sig = G @ _T.T
        sig = np.append(sig[:, :-1].ravel(), sigma_top[-1])
        self.sigmas = sig.tolist()
        self.rates = f.tolist()
        # c/q rounds above 1 where q^2 - c^2 was clamped at a sonic foot
        self.thetas = (sig + np.arcsin(np.minimum(np.sqrt(c_u2 / q2) * u,
                                                  1.0))).tolist()
        with np.errstate(divide="ignore"):
            self.slopes = (P / (2.0 * k * np.sqrt(c_u2 * m2))).tolist()
        self.panels = [(m_, h_, c[0], c[:0:-1])
                       for m_, h_, c in zip(mid.tolist(), hw.tolist(),
                                            G.tolist())]

    def point(self, p, x):
        """(sigma, theta, dtheta/du, dsigma/du, q^2, log w) at x on panel
        p."""
        g, k = self.g, self.k
        mid, hw, c0, rest = self.panels[p]
        u = mid + hw * x
        lw = math.log(u) / k if u > 0.0 else -math.inf
        c_u2, q2, P = _forms(lw, g, self.S, self.q_lim2, math)
        m2 = max(q2 - c_u2 * u * u, 0.0)
        root = math.sqrt(c_u2 * m2)
        sigma = _clenshaw(c0, rest, x)
        theta = sigma + math.asin(min(math.sqrt(c_u2 / q2) * u, 1.0))
        dtheta = P / (2.0 * k * root) if root > 0.0 else math.inf
        return sigma, theta, dtheta, root / (k * q2), q2, lw

    def solve(self, target, values, slopes, pick):
        """The point where the quantity tabulated at the nodes by `values`
        (increasing in u, with derivative `slopes`) equals target; pick
        selects (value, derivative) from point().  Returns point() there."""
        i = min(max(bisect_right(values, target) - 1, 0), len(values) - 2)
        p, j = divmod(i, _M)
        hw = self.panels[p][1]
        lo, hi = _XS[j], _XS[j + 1]
        v_lo, v_hi = values[i], values[i + 1]
        s_lo, s_hi = slopes[i] * hw, slopes[i + 1] * hw
        dv = v_hi - v_lo
        t = min(max((target - v_lo) / dv, 0.0), 1.0) if dv > 0.0 else 0.5
        x = lo + t * (hi - lo)
        if s_lo > 0.0 and s_hi > 0.0:
            # cubic Hermite of x over the value
            t2, t3 = t * t, t * t * t
            xh = ((2 * t3 - 3 * t2 + 1) * lo + (t3 - 2 * t2 + t) * dv / s_lo
                  + (3 * t2 - 2 * t3) * hi + (t3 - t2) * dv / s_hi)
            if lo <= xh <= hi:
                x = xh
        # resolved once the value is within its own rounding, or the step
        # within the rounding of x
        v_tol = 1e-14 * (1.0 + abs(target))
        x_tol = 1e-13 * (hi - lo) + 4e-16
        for _ in range(NEWTON_STEPS):
            pt = self.point(p, x)
            value, slope = pick(pt)
            if value < target:
                lo = x
            else:
                hi = x
            step = (target - value) / (slope * hw) if slope > 0.0 else 0.0
            if abs(step) <= x_tol or abs(target - value) <= v_tol:
                break
            x += step
            if not lo < x < hi:
                x = 0.5 * (lo + hi)
        return pt


def _theta_pick(pt):
    return pt[1], pt[2]


def _sigma_pick(pt):
    return pt[0], pt[3]


class FanSolution:
    """
    Centered fan from the foot ray theta_start down to theta_end, entropy
    frozen at S, with state(theta) -> (q, tau, sigma, S).  Rays between the
    two ends are mapped to the volume variable through the stored turning
    series; q and tau then follow in closed form, so the Bernoulli law and
    the ray tangency hold on every ray.  The end states are stored as
    built.
    """

    def __init__(self, theta_start, theta_end, S, gas, foot, end,
                 turning=None):
        self.theta_start = theta_start
        self.theta_end = theta_end
        self.S = S
        self.gas = gas
        self._foot = foot          # (q, tau, sigma) on theta_start
        self._end = end            # (q, tau, sigma) on theta_end
        self._turning = turning    # _Turning, or None if zero-length

    def state(self, theta):
        """(q, tau, sigma, S) on the ray theta."""
        lo, hi = self.theta_end, self.theta_start
        tol = 1e-12 * (1.0 + hi - lo)
        if not (lo - tol <= theta <= hi + tol):
            raise ValueError(
                f"theta-out-of-range: {theta} outside [{lo}, {hi}]")
        tr = self._turning
        if theta >= hi or tr is None or theta >= tr.thetas[-1]:
            q, tau, sigma = self._foot
        elif theta <= lo:
            q, tau, sigma = self._end
        else:
            sigma, _, _, _, q2, lw = tr.solve(theta, tr.thetas, tr.slopes,
                                              _theta_pick)
            q, tau = math.sqrt(q2), _tau_of(lw)
        return q, tau, sigma, self.S

    def velocity(self, theta):
        """(u, v) on the ray theta."""
        q, _, sigma, _ = self.state(theta)
        return q * math.cos(sigma), q * math.sin(sigma)

    def slip_line(self, theta_w):
        """The same fan ended on the ray where the flow direction reaches
        theta_w.  Raises "no-convergence" when theta_w lies outside the
        directions the fan passes through."""
        tr = self._turning
        sigma_end, sigma0 = self._end[2], self._foot[2]
        if tr is None or not sigma_end <= theta_w < sigma0:
            raise ValueError(
                f"no-convergence: slip line theta_w={theta_w} outside the "
                f"fan's flow directions [{sigma_end}, {sigma0}]")
        sigma, theta, _, _, q2, lw = tr.solve(theta_w, tr.sigmas, tr.rates,
                                              _sigma_pick)
        return FanSolution(self.theta_start, theta, self.S, self.gas,
                           self._foot, (math.sqrt(q2), _tau_of(lw), sigma),
                           tr)


def integrate_fan(q0, tau0, sigma0, S0, theta0, stop, gas):
    """
    Build the centered fan from the state (q0, tau0, sigma0, S0) on the
    ray theta0, expanding (theta decreasing) until the `stop` predicate
    fires.

    `stop` is TargetTau (TargetTau(math.inf) runs to vacuum, where the end
    ray is the flow direction) or SlipLine, the root of sigma(u) = theta_w
    on the fan built to vacuum.  The turning is the u-integral of the
    module docstring on adaptive Chebyshev panels.  The data must be
    centered (theta0 = sigma0 + arcsin(c0/q0)) and supersonic.  Raises
    "sonic-degeneracy" for a foot at or below sonic, "not-centered",
    "inflection-hit" when [tau0, tau_end] meets the inflection window of
    the isentrope, and "no-convergence" when the stop lies behind the foot
    or the panels exceed MAX_PANELS.
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

    foot = (q0, tau0, sigma0)
    if abs(stop.signal(theta0, q0, tau0, sigma0)) <= 1e-12 * (1.0 + abs(theta0)):
        return FanSolution(theta0, theta0, S0, gas, foot, foot)

    slip = isinstance(stop, SlipLine)
    tau_end = math.inf if slip else stop.value
    if not tau_end > tau0:
        raise ValueError(
            f"no-convergence: stop {stop} lies behind the foot tau0={tau0}; "
            f"a fan expands")
    try:
        tau1_i, tau2_i = inflection_roots(S0, gas)
    except ValueError:
        tau1_i = tau2_i = None      # convex isentrope: no window
    if tau1_i is not None and tau0 <= tau2_i and tau_end >= tau1_i:
        raise ValueError(
            f"inflection-hit: [{tau0}, {tau_end}] meets the p_tautau <= 0 "
            f"window [{tau1_i}, {tau2_i}]")

    k = 0.5 * (gas.gamma - 1.0)
    q_lim2 = q0 * q0 + 2.0 * enthalpy(tau0, S0, gas)
    tr = _Turning(tau_end ** -k, tau0 ** -k, sigma0, S0, q_lim2, gas)
    sigma_end = tr.sigmas[0]
    if math.isinf(tau_end):
        end, theta_end = (math.sqrt(q_lim2), tau_end, sigma_end), sigma_end
    else:
        q_end = math.sqrt(q_lim2 - 2.0 * enthalpy(tau_end, S0, gas))
        c_end = tau_end * math.sqrt(-pressure_tau(tau_end, S0, gas))
        end = (q_end, tau_end, sigma_end)
        theta_end = sigma_end + math.asin(c_end / q_end)
    sol = FanSolution(theta0, theta_end, S0, gas, foot, end, tr)
    return sol.slip_line(stop.theta_w) if slip else sol


# ---------------------------------------------------------------------------
# turning integrals on one isentrope

# (node, weight) of the 3-point Gauss-Legendre rule on [-1, 1]
_GL3 = ((-math.sqrt(0.6), 5.0 / 9.0), (0.0, 8.0 / 9.0),
        (math.sqrt(0.6), 5.0 / 9.0))


def turning_angle(q_from, q_to, pgas):
    """Turning integral int sqrt(q^2 - c^2)/(q c) dq from q_from to q_to,
    with tau eliminated through the Bernoulli law of pgas."""
    def nu_prime(q):
        tau = tau_from_speed(q, pgas)
        c = pgas.c(tau)
        if q <= c:
            raise ValueError(f"subsonic: q={q} at or below c={c}")
        return math.sqrt(q * q - c * c) / (q * c)

    if abs(q_to - q_from) <= 1e-9 * max(q_from, q_to):
        # on so short an interval QUADPACK reads the rounding of the
        # speed-to-volume root as bad integrand behaviour; the smooth
        # integrand is exact to rounding under a 3-point Gauss-Legendre rule
        mid, half = 0.5 * (q_from + q_to), 0.5 * (q_to - q_from)
        return half * sum(w * nu_prime(mid + half * x) for x, w in _GL3)
    val, _ = quad(nu_prime, q_from, q_to, epsabs=1e-13, epsrel=1e-12,
                  limit=200)
    return val


def vacuum_angle(q_d, tau_d, S_d, gas):
    """
    Total turning of a fan that expands from (q_d, tau_d, S_d) all the way
    to vacuum, as a (negative) offset from the flow direction at the fan
    foot: the vacuum ray sits at sigma_d + vacuum_angle(...).

    It is the end ray of the fan built from sigma = 0 to u = 0 by
    integrate_fan, where the Mach angle vanishes and the ray is the flow
    direction.
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
    return integrate_fan(q_d, tau_d, 0.0, S_d, math.asin(c_d / q_d),
                         TargetTau(math.inf), gas).theta_end


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
