# fan.py
"""
Centered simple waves (Prandtl-Meyer fans).

A centered fan is a one-parameter family of states indexed by the ray angle
theta = arctan(y/x): each ray is a straight characteristic tangent to the
local sonic circle, which forces sigma + A = theta with A = arcsin(c/q) the
Mach angle.  Each fan carries its isentrope, any thermo.PotentialGas
(integrate_fan vacuum-references the Euler fans, h_ref = 0; the attached
potential fan runs on the ramp model): q^2 = 2 (bernoulli - h(tau)), and
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
point nearest tau*.  The fan built to vacuum, tau_end = inf, ends on the
vacuum ray; a wall end is the root FanSolution.slip_line takes on it.

FanSolution is the fan sector of both systems: the attached fan of
potential flow is the same series (wavecurves.RampWaveContext.fan), inside
the inflection window where the ray angle falls as u rises.  The
invariant nu of r+ = sigma + nu is the rate above integrated in tau itself,
independent of any series, by fixed Gauss-Legendre rules between given
volumes (turning_chain, read by validate).
"""

import math
from bisect import bisect_right
from functools import cached_property

import numpy as np
from numpy.polynomial import chebyshev
# quad, solve_ivp and tau_from_speed stay bound here: the benchmark tracer
# wraps fan.quad, fan.solve_ivp and fan.tau_from_speed
from scipy.integrate import quad, solve_ivp  # noqa: F401

from .shocks import FlowState
from .thermo import PotentialGas, enthalpy, pressure_tautau, sound_speed
from .thermo import tau_from_speed  # noqa: F401


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
_ALT = (-1.0) ** np.arange(PANEL_POINTS + 1)       # T_n(-1)


def _forms(lw, pgas, xp):
    """Closed forms at lw = log(w), w = 1/tau, on the isentrope pgas:
    (c_u^2, q^2, P) with c_u^2 = c^2/u^2, q^2 = 2 (bernoulli - h_ref - h),
    h vacuum-referenced, and P = tau^(gamma+2) p_tautau.  `xp` is math for
    scalars or numpy for arrays."""
    g, S = pgas.gas.gamma, pgas.S
    w = xp.exp(lw)
    omw = -xp.expm1(lw)              # 1 - w without cancellation near tau=1
    r = w / omw
    h = S * r ** (g - 1.0) * (g / (g - 1.0) + r) - 2.0 * w
    w2g = w ** (2.0 - g)
    c_u2 = g * S * omw ** -(g + 1.0) - 2.0 * w2g
    P = g * (g + 1.0) * S * omw ** -(g + 2.0) - 6.0 * w2g
    return c_u2, 2.0 * (pgas.bernoulli - pgas.h_ref - h), P


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
    """sigma(u), u = tau^(-k), on the isentrope pgas, any PotentialGas, on
    Chebyshev panels from tau_lo, where sigma = sigma0, to tau_hi (u = 0
    for inf), with sigma and the ray tabulated at the panel nodes, the ray
    as sign * theta so that it rises with u (sign -1 inside the inflection
    window).  A point is addressed as (panel p, x) with u = mid_p + hw_p x.
    Each round evaluates every pending panel at once and splits the failing
    ones (see PANEL_POINTS); an accepted panel keeps its node values from
    that round, so every node is evaluated once."""

    @np.errstate(divide="ignore")
    def __init__(self, tau_lo, tau_hi, sigma0, pgas):
        self.pgas = pgas
        self.k = k = 0.5 * (pgas.gas.gamma - 1.0)
        u_lo, u_hi = tau_hi ** -k, tau_lo ** -k
        span = u_hi - u_lo

        # adaptive panels; every round evaluates all pending panels [a, b]
        # at once and keeps the accepted ones with their node values
        kept = []
        edges = np.linspace(u_lo, u_hi, 5)
        a, b = edges[:-1], edges[1:]
        scale, n_done = 0.0, 0
        while True:
            # keep each round's panel set: NumPy rounds an element by where
            # it sits in the array, so another set moves every fan's bits
            mid, hw = 0.5 * (a + b), 0.5 * (b - a)
            u = mid[:, None] + hw[:, None] * _X
            c_u2, q2, P = _forms(np.log(u) / k, pgas, np)
            m2 = q2 - c_u2 * u * u
            if not ((c_u2 > 0.0).all() and (m2 > -1e-12 * q2).all()):
                raise ValueError(
                    "sonic-degeneracy: q reached c along the fan")
            m2 = np.maximum(m2, 0.0)
            f = np.sqrt(c_u2 * m2) / (k * q2)
            V = np.array([f, u, c_u2, q2, P, m2])
            scale = max(scale, float(f.max()))
            coef = f @ _FIT.T
            tail = np.abs(coef[:, -1]) + np.abs(coef[:, -2])
            ok = ((tail <= TAIL_TOL * scale)
                  | (tail * hw <= BUDGET_TOL * max(scale * span, 1.0)))
            if ok.all():
                kept.append((a, mid, hw, coef, V))
                break
            kept.append((a[ok], mid[ok], hw[ok], coef[ok], V[:, ok]))
            lo, m, hi = a[~ok], mid[~ok], b[~ok]
            n_done += len(a) - len(lo)
            a, b = np.concatenate([lo, m]), np.concatenate([m, hi])
            if lo[0] == 0.0:
                # the panel on vacuum, cut at hi 2^-j at once (VACUUM_SPLITS)
                e = hi[0] * _VACUUM_EDGES
                a, b = np.append(e[:-1], a[1:]), np.append(e[1:], b[1:])
            if n_done + len(a) > MAX_PANELS:
                raise ValueError(
                    f"no-convergence: fan integrand needs more than "
                    f"{MAX_PANELS} panels on u in [{u_lo}, {u_hi}]")
        if len(kept) > 1:
            a, mid, hw, coef, V = zip(*kept)
            order = np.argsort(np.concatenate(a))
            mid, hw, coef = (np.concatenate(v)[order]
                             for v in (mid, hw, coef))
            V = np.concatenate(V, axis=1)[:, order]

        # sigma series: antiderivative per panel, chained down from the foot
        G = (coef @ _INT) * hw[:, None]
        top, bottom = G.sum(axis=1), G @ _ALT
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
        self.ray_slopes = (s * (P / (2.0 * k * np.sqrt(c_u2 * m2)))).tolist()
        self.panels = list(zip(mid.tolist(), hw.tolist(), G[:, 0].tolist(),
                               G[:, :0:-1].tolist()))

    def point(self, p, x):
        """(sigma, theta, dsigma/du, dtheta/du, q^2, log w) at x on panel
        p."""
        k = self.k
        mid, hw, c0, rest = self.panels[p]
        u = mid + hw * x
        lw = math.log(u) / k if u > 0.0 else -math.inf
        c_u2, q2, P = _forms(lw, self.pgas, math)
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
        """sigma at u, a float or an array, by Clenshaw on the panel
        holding each u."""
        if isinstance(u, float):
            p = max(bisect_right(self._lower_edges, u) - 1, 0)
            mid, hw, c0, rest = self.panels[p]
        else:
            p = np.searchsorted(self._lower_edges, u, "right").clip(1) - 1
            mid, hw, c0, rest = (np.array(col)[p] for col in zip(*self.panels))
            rest = rest.T       # one row per coefficient, one column per u
        return _clenshaw(c0, rest, (u - mid) / hw)

    def ray(self, theta):
        """(q, tau, sigma) on the ray theta, between the fan's two ends."""
        sigma, _, _, _, q2, lw = self.solve(theta, 1)
        return math.sqrt(q2), _tau_of(lw), sigma


class FanSolution:
    """
    Centered fan from the head ray theta_start down to theta_end on its
    isentrope pgas, any PotentialGas: the fan sector of both systems,
    vacuum-referenced from integrate_fan and on the ramp model from
    wavecurves.RampWaveContext.fan.  A ray at or below theta_end takes the
    end state, any other ray within 1e-12 (1 + |theta|) of theta_start the
    head state, and a ray in between is mapped to the volume variable by the
    stored turning series (_Turning.ray), with q and tau in closed form, so
    the Bernoulli law and the ray tangency hold on every ray.  slip_line
    ends the same series at a wall.
    """

    def __init__(self, theta_start, theta_end, pgas, foot, end, turning=None):
        self.theta_start = theta_start
        self.theta_end = theta_end
        self.pgas = pgas
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
        return (*self._lookup(theta), self.pgas.S)

    def state_at(self, theta):
        """FlowState on the ray theta; rays beyond either end take that
        end's state."""
        q, tau, sigma = self._lookup(theta)
        return FlowState(q * math.cos(sigma), q * math.sin(sigma), tau,
                         self.pgas.S)

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
        return FanSolution(self.theta_start, theta, self.pgas, self._foot,
                           (math.sqrt(q2), _tau_of(lw), sigma), tr)


def integrate_fan(q0, tau0, sigma0, S0, theta0, tau_end, gas):
    """
    Build the centered fan from the state (q0, tau0, sigma0, S0) on the
    ray theta0, expanding (theta decreasing) to the volume tau_end, on
    its isentrope pgas: S0 with bernoulli 0.5 q0^2 + h(tau0), h_ref = 0.

    tau_end = math.inf runs to vacuum, where the end ray is the flow
    direction; a wall end is slip_line(theta_w) of that fan.  The turning
    is the u-integral of the module docstring on adaptive Chebyshev
    panels.  The data must be centered (theta0 = sigma0 + arcsin(c0/q0))
    and supersonic.  Raises "subsonic-thermo" (thermo.sound_speed) when
    the foot or the end lies outside the hyperbolic region (p_tau >= 0),
    "sonic-degeneracy" for a foot at or below sonic, "not-centered",
    "inflection-hit" when [tau0, tau_end] meets the inflection window of
    the isentrope (tested in closed form, see the module docstring), and
    "no-convergence" when tau_end lies behind the foot or the panels
    exceed MAX_PANELS.
    """
    c0 = sound_speed(tau0, S0, gas)
    if q0 <= c0:
        raise ValueError(
            f"sonic-degeneracy: initial speed q0={q0} not above c0={c0}")
    A0 = math.asin(c0 / q0)
    if abs(sigma0 + A0 - theta0) > 1e-9 * (1.0 + abs(theta0)):
        raise ValueError(
            f"not-centered: theta0={theta0} differs from sigma0+A0="
            f"{sigma0 + A0}")

    pgas = PotentialGas(gas, S0, 0.5 * q0 * q0 + enthalpy(tau0, S0, gas))
    foot = (q0, tau0, sigma0)
    if abs(tau0 - tau_end) <= 1e-12 * (1.0 + abs(theta0)):
        return FanSolution(theta0, theta0, pgas, foot, foot)
    if not tau_end > tau0:
        raise ValueError(
            f"no-convergence: tau_end={tau_end} lies behind the foot "
            f"tau0={tau0}; a fan expands")
    # psi peaks on [tau0, tau_end] at its point nearest tau* = 4/(2-gamma)
    tau_near = min(max(4.0 / (2.0 - gas.gamma), tau0), tau_end)
    if pressure_tautau(tau_near, S0, gas) <= 0.0:
        raise ValueError(
            f"inflection-hit: [{tau0}, {tau_end}] meets the p_tautau <= 0 "
            f"window at tau={tau_near}")

    tr = _Turning(tau0, tau_end, sigma0, pgas)
    theta_end = sigma_end = tr.sigmas[0]
    q_end = math.sqrt(2.0 * (pgas.bernoulli - pgas.h(tau_end)))
    if not math.isinf(tau_end):
        theta_end += math.asin(pgas.c(tau_end) / q_end)
    end = (q_end, tau_end, sigma_end)
    return FanSolution(theta0, theta_end, pgas, foot, end, tr)


# ---------------------------------------------------------------------------
# turning integrals on one isentrope

# weights of the 24- and 20-point Gauss-Legendre rules on [-1, 1], and
# the nodes of both in one array
(_X24, _W24), (_X20, _W20) = (np.polynomial.legendre.leggauss(n)
                              for n in (24, 20))
_GL_X = np.concatenate((_X24, _X20))


def _volume_rate(tau, pgas, xp):
    """Turning rate c sqrt(q^2 - c^2)/(tau q^2), q^2 = 2 (bernoulli - h),
    real where q > c.  `xp` is math for scalars or numpy for arrays."""
    c = tau * xp.sqrt(-pgas.p_tau(tau))
    q2 = 2.0 * (pgas.bernoulli - pgas.h(tau))
    return c * xp.sqrt(q2 - c * c) / (tau * q2)


def turning_chain(taus, pgas):
    """(nu, err): the turning integral int c sqrt(q^2 - c^2)/(tau q^2) dtau
    on the isentrope of pgas from taus[0] to each volume of taus, chained
    by the 24-point Gauss-Legendre rule, and the summed moduli of its
    differences from the 20-point rule.  Solves no root; every volume
    between consecutive taus must be supersonic."""
    taus = np.asarray(taus, dtype=float)
    mid, half = 0.5 * (taus[1:] + taus[:-1]), 0.5 * (taus[1:] - taus[:-1])
    rate = _volume_rate(mid[:, None] + half[:, None] * _GL_X, pgas, np)
    i24, i20 = half * (rate[:, :24] @ _W24), half * (rate[:, 24:] @ _W20)
    return [0.0] + np.cumsum(i24).tolist(), float(np.abs(i24 - i20).sum())
