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

the integrand stays finite up to and including the vacuum end, a
fractional-power point in u.  It is fitted on adaptive Chebyshev panels in
u, refined geometrically toward vacuum, and integrated term by term, so
sigma(u) is a stored series and the ray theta(u) = sigma + arcsin(c/q) is
monotone in u wherever p_tautau keeps one sign.  The ray is tabulated at
the panel nodes once, oriented to rise with u; a ray, or a flow angle, is
mapped back to u by bisection on that table and safeguarded Newton steps.
integrate_fan builds a fan from its foot to an end volume and stops short
of the inflection window of the isentrope, p_tautau <= 0, which is
6 psi >= gamma (gamma+1) S with psi = (tau-1)^(gamma+2)/tau^4 unimodal
about tau* = 4/(2-gamma): an interval meets it iff p_tautau <= 0 at its
point nearest tau*.  A wall end is the root FanSolution.slip_line takes on
the fan built to vacuum.

FanSolution is the fan sector of both systems: the attached fan of
potential flow is the same series (wavecurves.RampWaveContext.fan), inside
the inflection window where the ray angle falls as u rises.  The Riemann
invariants sigma +/- nu take the turning integral in tau itself, by
QUADPACK on the closed-form rate above (turning_in_volume), independent of
any series; pm_potential, the same integral between two fan volumes, is
the reference the series is tested against.  turning_angle keeps the
speed-keyed form nu(q) = int sqrt(q^2-c^2)/(q c) dq as a test reference.
"""

import math
from bisect import bisect_right
from functools import cached_property

import numpy as np
from numpy.polynomial import chebyshev
# solve_ivp stays bound here: the benchmark tracer wraps fan.solve_ivp
from scipy.integrate import quad, solve_ivp  # noqa: F401

from .shocks import FlowState
from .thermo import (
    PotentialGas,
    critical_entropies,
    enthalpy,
    pressure_tau,
    pressure_tautau,
    tau_from_speed,
)


# ---------------------------------------------------------------------------
# Euler fan

# Chebyshev-Lobatto points per panel and the cap on the panel count.  A
# panel is accepted when its last two coefficients fall below TAIL_TOL of
# the integrand scale, or when their product with the half-width (the
# panel's error in radians) stays within BUDGET_TOL of the scale times the
# whole u interval, or of one radian if that is larger.  The budget ends
# refinement where rounding noise, not resolution, sets the tail: near a
# sonic foot q^2 - c^2 cancels, and a short fan's turning is far below
# what a double resolves in sigma.  A failing panel is halved, except the
# one on vacuum, [0, b]: c_u^2 carries w^(2-gamma), a fractional power of u
# at u = 0, so halving would refine toward vacuum one level per round.  That
# panel is cut at b 2^-j, j = 1..VACUUM_SPLITS, in one round; each piece is
# a panel repeated halving also makes and faces the same test, so vacuum is
# never resolved more coarsely, and fans with u_lo > 0 keep their layout.
PANEL_POINTS = 17
VACUUM_SPLITS = 11
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
# Chebyshev coefficients -> those of an antiderivative
_INT = chebyshev.chebint(np.eye(PANEL_POINTS), axis=1)
_XS = _X.tolist()
_VACUUM_EDGES = np.append(0.0, 2.0 ** -np.arange(VACUUM_SPLITS, 0, -1))


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
    sigma and the ray tabulated at the panel nodes, the ray as sign * theta
    so that it rises with u (sign -1 inside the inflection window).  A
    point is addressed as (panel p, x) with u = mid_p + hw_p x.  Each round
    evaluates every pending panel at once and splits the failing ones (see
    PANEL_POINTS); an accepted panel keeps its node values from that round,
    so every node is evaluated once."""

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
            return np.stack([np.sqrt(c_u2 * m2) / (k * q2), u, c_u2, q2, P,
                             m2])

        # adaptive panels; every round evaluates all pending panels [a, b]
        # at once and keeps the accepted ones with their node values
        kept = []
        edges = np.linspace(u_lo, u_hi, 5)
        a, b = edges[:-1], edges[1:]
        scale, n_done = 0.0, 0
        while len(a):
            mid, hw = 0.5 * (a + b), 0.5 * (b - a)
            V = integrand(mid[:, None], hw[:, None], _X)
            scale = max(scale, float(np.max(V[0])))
            coef = V[0] @ _FIT.T
            tail = np.abs(coef[:, -1]) + np.abs(coef[:, -2])
            ok = ((tail <= TAIL_TOL * scale)
                  | (tail * hw <= BUDGET_TOL * max(scale * span, 1.0)))
            kept.append((a[ok], mid[ok], hw[ok], coef[ok], V[:, ok]))
            n_done += int(np.count_nonzero(ok))
            lo, m, hi = a[~ok], mid[~ok], b[~ok]
            a, b = np.concatenate([lo, m]), np.concatenate([m, hi])
            if len(lo) and lo[0] == 0.0:
                # the panel on vacuum, cut at hi 2^-j at once (VACUUM_SPLITS)
                e = hi[0] * _VACUUM_EDGES
                a, b = np.append(e[:-1], a[1:]), np.append(e[1:], b[1:])
            if n_done + len(a) > MAX_PANELS:
                raise ValueError(
                    f"no-convergence: fan integrand needs more than "
                    f"{MAX_PANELS} panels on u in [{u_lo}, {u_hi}]")
        a, mid, hw, coef, V = zip(*kept)
        order = np.argsort(np.concatenate(a))
        mid, hw, coef = (np.concatenate(v)[order] for v in (mid, hw, coef))
        V = np.concatenate(V, axis=1)[:, order]

        # sigma series: antiderivative per panel, chained down from the foot
        G = (coef @ _INT) * hw[:, None]
        top, bottom = G.sum(axis=1), G @ (-1.0) ** np.arange(G.shape[1])
        drop = top - bottom
        sigma_top = sigma0 - (np.cumsum(drop[::-1])[::-1] - drop)
        G[:, 0] += sigma_top - top

        # nodes ascending in u: each panel's points but its top, then the
        # foot as the top of the last panel
        f, u, c_u2, q2, P, m2 = np.concatenate(
            [V[:, :, :-1].reshape(6, -1), V[:, -1, -1:]], axis=1)
        sig = G @ _T.T
        sig = np.append(sig[:, :-1].ravel(), sigma_top[-1])
        self.sigmas = sig.tolist()
        self.rates = f.tolist()
        # c/q rounds above 1 where q^2 - c^2 was clamped at a sonic foot
        theta = sig + np.arcsin(np.minimum(np.sqrt(c_u2 / q2) * u, 1.0))
        self.sign = s = 1.0 if theta[-1] >= theta[0] else -1.0
        self.rays = (s * theta).tolist()
        with np.errstate(divide="ignore"):
            self.ray_slopes = (s * (P / (2.0 * k * np.sqrt(c_u2 * m2)))
                               ).tolist()
        self.panels = [(m_, h_, c[0], c[:0:-1])
                       for m_, h_, c in zip(mid.tolist(), hw.tolist(),
                                            G.tolist())]

    def point(self, p, x):
        """(sigma, theta, dsigma/du, dtheta/du, q^2, log w) at x on panel
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
        return sigma, theta, root / (k * q2), dtheta, q2, lw

    def solve(self, target, col):
        """point() where its column col (0: sigma, 1: the ray theta) equals
        target.  The search runs on that column's node table, which rises
        with u: sigma, or the ray times self.sign, so target and the values
        read from point() are multiplied by the same sign."""
        values, slopes, sign = ((self.rays, self.ray_slopes, self.sign)
                                if col else (self.sigmas, self.rates, 1.0))
        target = sign * target
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
            value, slope = sign * pt[col], sign * pt[col + 2]
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

    def shift(self, d):
        """Add d to sigma and to every ray (a change of the anchor)."""
        self.sigmas = [s + d for s in self.sigmas]
        self.rays = [t + self.sign * d for t in self.rays]
        self.panels = [(m, h, c0 + d, rest)
                       for m, h, c0, rest in self.panels]

    @cached_property
    def _lower_edges(self):
        return [m - h for m, h, _, _ in self.panels]

    def sigma_at(self, u):
        """sigma at u, by Clenshaw on the panel holding u."""
        p = max(bisect_right(self._lower_edges, u) - 1, 0)
        mid, hw, c0, rest = self.panels[p]
        return _clenshaw(c0, rest, (u - mid) / hw)

    def ray(self, theta):
        """(q, tau, sigma) on the ray theta, between the fan's two ends."""
        sigma, _, _, _, q2, lw = self.solve(theta, 1)
        return math.sqrt(q2), _tau_of(lw), sigma


class FanSolution:
    """
    Centered fan from the head ray theta_start down to theta_end, entropy
    frozen at S: the fan sector of both systems (integrate_fan and
    wavecurves.RampWaveContext.fan).  A ray at or below theta_end takes the
    end state, any other ray within 1e-12 (1 + |theta|) of theta_start the
    head state, and a ray in between is mapped to the volume variable by
    the stored turning series (_Turning.ray), with q and tau in closed
    form, so the Bernoulli law and the ray tangency hold on every ray.
    slip_line ends the same series at a wall.
    """

    def __init__(self, theta_start, theta_end, S, foot, end, turning=None):
        self.theta_start = theta_start
        self.theta_end = theta_end
        self.S = S
        self._foot = foot          # (q, tau, sigma) on theta_start
        self._end = end            # (q, tau, sigma) on theta_end
        self._turning = turning    # _Turning, or None if zero-length

    def _lookup(self, theta):
        # the end ray first, so a fan narrower than the head band returns
        # its end state on theta_end; the band keeps a breakpoint rounded
        # below the head ray, where the ray angle can be nearly stationary
        # in the volume, on the head state
        if theta <= self.theta_end:
            return self._end
        if (self._turning is None
                or theta >= self.theta_start - 1e-12 * (1.0 + abs(theta))):
            return self._foot
        return self._turning.ray(theta)

    def state(self, theta):
        """(q, tau, sigma, S) on the ray theta."""
        lo, hi = self.theta_end, self.theta_start
        tol = 1e-12 * (1.0 + hi - lo)
        if not (lo - tol <= theta <= hi + tol):
            raise ValueError(
                f"theta-out-of-range: {theta} outside [{lo}, {hi}]")
        q, tau, sigma = self._lookup(theta)
        return q, tau, sigma, self.S

    def state_at(self, theta):
        """FlowState on the ray theta; rays beyond either end take that
        end's state."""
        q, tau, sigma = self._lookup(theta)
        return FlowState(q * math.cos(sigma), q * math.sin(sigma), tau,
                         self.S)

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
        sigma, theta, _, _, q2, lw = tr.solve(theta_w, 0)
        return FanSolution(self.theta_start, theta, self.S, self._foot,
                           (math.sqrt(q2), _tau_of(lw), sigma), tr)


def integrate_fan(q0, tau0, sigma0, S0, theta0, tau_end, gas):
    """
    Build the centered fan from the state (q0, tau0, sigma0, S0) on the
    ray theta0, expanding (theta decreasing) to the volume tau_end.

    tau_end = math.inf runs to vacuum, where the end ray is the flow
    direction; a wall end is slip_line(theta_w) of that fan.  The turning
    is the u-integral of the module docstring on adaptive Chebyshev
    panels.  The data must be centered (theta0 = sigma0 + arcsin(c0/q0))
    and supersonic.  Raises "sonic-degeneracy" for a foot at or below
    sonic, "not-centered", "inflection-hit" when [tau0, tau_end] meets the
    inflection window of the isentrope (tested in closed form, see the
    module docstring), and "no-convergence" when tau_end lies behind the
    foot or the panels exceed MAX_PANELS.
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
    if abs(tau0 - tau_end) <= 1e-12 * (1.0 + abs(theta0)):
        return FanSolution(theta0, theta0, S0, foot, foot)
    if not tau_end > tau0:
        raise ValueError(
            f"no-convergence: tau_end={tau_end} lies behind the foot "
            f"tau0={tau0}; a fan expands")
    # psi peaks on [tau0, tau_end] at its point nearest tau*
    _, tau_star, _ = critical_entropies(gas)
    tau_near = min(max(tau_star, tau0), tau_end)
    if pressure_tautau(tau_near, S0, gas) <= 0.0:
        raise ValueError(
            f"inflection-hit: [{tau0}, {tau_end}] meets the p_tautau <= 0 "
            f"window at tau={tau_near}")

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
    return FanSolution(theta0, theta_end, S0, foot, end, tr)


# ---------------------------------------------------------------------------
# turning integrals on one isentrope

# (node, weight) of the 3-point Gauss-Legendre rule on [-1, 1]
_GL3 = ((-math.sqrt(0.6), 5.0 / 9.0), (0.0, 8.0 / 9.0),
        (math.sqrt(0.6), 5.0 / 9.0))


def turning_angle(q_from, q_to, pgas):
    """Turning integral int sqrt(q^2 - c^2)/(q c) dq from q_from to q_to,
    with tau eliminated through the Bernoulli law of pgas at every node.
    The speed-keyed public form: pm_potential and riemann_invariants take
    the same integral in the volume (turning_in_volume), and the tests keep
    this one as their reference."""
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
    "sonic-degeneracy" if the foot state is not supersonic, and, from
    integrate_fan, "inflection-hit" if tau_d is not beyond the nonconvex
    window: p_tautau <= 0 at max(tau*, tau_d), a test that solves no root.
    """
    h_d = enthalpy(tau_d, S_d, gas)
    if not math.isfinite(h_d):
        raise ValueError(
            f"divergent-limit: enthalpy not finite at tau_d={tau_d}")
    c_d = tau_d * math.sqrt(-pressure_tau(tau_d, S_d, gas))
    if q_d <= c_d:
        raise ValueError(
            f"sonic-degeneracy: q_d={q_d} not above c_d={c_d}")
    return integrate_fan(q_d, tau_d, 0.0, S_d, math.asin(c_d / q_d),
                         math.inf, gas).theta_end


def turning_in_volume(tau_from, tau_to, pgas):
    """Turning integral int c sqrt(q^2 - c^2)/(tau q^2) dtau from tau_from
    to tau_to on the isentrope of pgas, with q^2 = 2 (bernoulli - h(tau))
    in closed form.  Equal to turning_angle between the speeds of the two
    volumes.  Raises "subsonic" at a node where q is not above c."""
    def rate(tau):
        q2 = 2.0 * (pgas.bernoulli - pgas.h(tau))
        c = pgas.c(tau)
        if q2 <= c * c:
            raise ValueError(f"subsonic: q={math.sqrt(max(q2, 0.0))} at "
                             f"or below c={c} at tau={tau}")
        return c * math.sqrt(q2 - c * c) / (tau * q2)

    val, _ = quad(rate, tau_from, tau_to, epsabs=1e-13, epsrel=1e-12,
                  limit=200)
    return val


def pm_potential(tau, pgas, q_ref, sigma_ref, tau_ref):
    """
    Potential-flow fan on the isentrope of pgas, anchored at the state
    (q_ref, sigma_ref, tau_ref): returns (sigma_hat, alpha_hat) at volume
    tau, where sigma_hat is the flow direction after the turning integral
    and alpha_hat = sigma_hat + arcsin(c/q) the ray angle.  The integral is
    taken in the volume from tau_ref to tau (turning_in_volume).  A
    reference outside the hot path: the wave curves and the assembled
    solutions read the stored series (RampWaveContext.turning) instead.
    """
    anchored = PotentialGas.from_state(pgas.gas, pgas.S, q_ref, tau_ref,
                                       bernoulli=pgas.bernoulli)
    q_hat = anchored.speed_of_tau(tau)
    c_hat = anchored.c(tau)
    if q_hat <= c_hat:
        raise ValueError(f"subsonic: q={q_hat} at or below c={c_hat} "
                         f"at tau={tau}")
    sigma_hat = sigma_ref - turning_in_volume(tau_ref, tau, anchored)
    return sigma_hat, sigma_hat + math.asin(c_hat / q_hat)


def riemann_invariants(u, v, pgas):
    """
    (r_plus, r_minus) = sigma +/- nu(q) with nu the turning integral from
    the reference speed pgas.q_ref on the isentrope of pgas, taken in the
    volume (turning_in_volume) from pgas.tau_ref, the volume of q_ref kept
    on the model, to the root of the Bernoulli law at q.

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
    nu = turning_in_volume(pgas.tau_ref, tau, pgas)
    return sigma + nu, sigma - nu
