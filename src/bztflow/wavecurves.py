# wavecurves.py
"""
Oblique wave curves of a supersonic potential-flow state meeting a ramp.

For a horizontal incoming state (u0, 0) with specific volume tau0 above
the nonconvex window of its isentrope, the reachable back states in the
(u, v)-plane form four branches:

  polar_I          single compressive shocks down to the post-sonic
                   point P, where the back side turns exactly sonic,
  shock_fan        the compression fan attached behind P, parametrized
                   by its volume down to the lower inflection state I,
  shock_fan_shock  back states of front-sonic tail shocks seated on the
                   fan (the composite branch the ramp solution uses),
  polar_II         the remaining strong portion of the shock polar.

Everything lives on one isentrope and the Bernoulli constant of the
supplied potential model is conserved across every front, so speed alone
determines the volume throughout.  Branches are immutable once built,
their sample arrays read-only; `state` re-evaluates the defining
relations at any parameter value, so queries never degrade to
interpolation between the samples.

The composite branch of the last incoming state is memoised: the
deflection range of a state and the wall solves on it
(`solve_potential_sfs`, which takes its context from the branch) reuse
one build of the branch and one `ramp_context`, whose attached fan is a
turning series built on first use (`RampWaveContext.turning`).  The fan
sector of a ramp solution is `RampWaveContext.fan`, a `fan.FanSolution` on
that series, the type the Euler fans have.
"""

import functools
import math
import weakref
from dataclasses import dataclass, replace

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq, minimize_scalar

from .fan import FanSolution, _Turning
from .shocks import (
    FlowState,
    ObliqueShockSolution,
    classify,
    mass_flux_squared_potential,
    oblique_back_velocity,
    post_sonic_tau_potential,
    pre_sonic_tau_potential,
    shock_angle,
)
from .thermo import enthalpy, tau_from_speed

# relative width below which a tail shock is treated as zero strength
_TAIL_EPS = 1e-12


# ---------------------------------------------------------------------------
# shared geometry of one incoming state


def _normal_speed(tau_f, tau_b, pgas):
    m2 = mass_flux_squared_potential(tau_f, tau_b, pgas)
    if m2 <= 0.0:
        raise ValueError(
            f"expansive-chord: no compressive flux from tau_f={tau_f} "
            f"to tau_b={tau_b}")
    return tau_f * math.sqrt(m2)


@dataclass(frozen=True)
class RampWaveContext:
    """Quantities shared by the four branches of one incoming state."""

    u0: float
    tau0: float
    pgas: object
    tau1_i: float
    tau2_i: float
    tau_po: float
    tau_pr_po: float
    n_po: float
    u_po: float
    v_po: float
    q_po: float
    sigma_po: float
    phi_po: float

    def polar_state(self, tau_b):
        """(u, v, phi) of the single shock with back volume tau_b."""
        nf = _normal_speed(self.tau0, tau_b, self.pgas)
        s = nf / self.u0
        if s > 1.0:
            raise ValueError(
                f"mach-reflection-regime: u0={self.u0} not above the normal "
                f"speed {nf} at tau_b={tau_b}")
        phi = math.asin(s)
        u, v = oblique_back_velocity(self.u0, 0.0, phi, self.tau0, tau_b)
        return u, v, phi

    @functools.cached_property
    def turning(self):
        """The attached fan from P down to the lower inflection state as a
        stored turning series (fan._Turning in u = tau^(-k)), anchored so
        that sigma(tau_po) = sigma_po.  Built on first use and kept on this
        instance; equality and hashing see only the fields."""
        pg = self.pgas
        k = 0.5 * (pg.gas.gamma - 1.0)
        q_lim2 = self.q_po**2 + 2.0 * enthalpy(self.tau_po, pg.S, pg.gas)
        tr = _Turning(self.tau_po**-k, self.tau1_i**-k, 0.0, pg.S, q_lim2,
                      pg.gas)
        tr.shift(self.sigma_po - tr.sigmas[0])
        return tr

    def fan_state(self, tau):
        """(u, v, alpha_hat) on the fan branch at volume tau: sigma_hat from
        the stored series, the speed from the Bernoulli law."""
        pg = self.pgas
        tr = self.turning
        sigma_hat = tr.sigma_at(tau**-tr.k)
        q_hat = math.sqrt(self.q_po**2
                          + 2.0 * (pg.h(self.tau_po) - pg.h(tau)))
        return q_hat * math.cos(sigma_hat), q_hat * math.sin(sigma_hat), \
            sigma_hat + math.asin(pg.c(tau) / q_hat)

    def fan(self, tau_tail):
        """The attached fan as a FanSolution on the stored series, from its
        head at P down to the volume tau_tail, with its end states and rays
        from fan_state."""
        def end(tau):
            u, v, alpha = self.fan_state(tau)
            return alpha, (math.hypot(u, v), tau, math.atan2(v, u))

        alpha_head, head = end(self.tau_po)
        alpha_tail, tail = end(tau_tail)
        return FanSolution(alpha_head, alpha_tail, self.pgas.S, head, tail,
                           self.turning)

    def tail_back_volume(self, tau_f):
        if tau_f <= self.tau1_i * (1.0 + _TAIL_EPS):
            return tau_f
        return pre_sonic_tau_potential(tau_f, self.pgas)

    def tail_state(self, tau_f):
        """(u, v, alpha_hat) behind the front-sonic tail shock whose front
        sits on the fan branch at volume tau_f."""
        u_hat, v_hat, alpha_hat = self.fan_state(tau_f)
        tau_pr = self.tail_back_volume(tau_f)
        if tau_pr >= tau_f:
            return u_hat, v_hat, alpha_hat
        u, v = oblique_back_velocity(u_hat, v_hat, alpha_hat, tau_f, tau_pr)
        return u, v, alpha_hat


def ramp_context(u0, tau0, pgas):
    """Resolve the post-sonic point P and the window edges for (u0, tau0).

    pgas must carry the isentrope and a Bernoulli constant consistent with
    the incoming state; the constant is conserved across every front, so
    any later speed lookup can go through the same model.
    """
    defect = 0.5 * u0 * u0 + pgas.h(tau0) - pgas.bernoulli
    if abs(defect) > 1e-9 * max(abs(pgas.bernoulli), 1.0):
        raise ValueError(
            f"bernoulli-mismatch: 0.5 u0^2 + h(tau0) deviates from the "
            f"model constant by {defect}")
    c0 = pgas.c(tau0)
    if not u0 > c0:
        raise ValueError(f"subsonic: u0={u0} not above sound speed c={c0}")
    tau1_i, tau2_i = pgas.inflection_pair
    tau_po = post_sonic_tau_potential(tau0, pgas)
    tau_pr_po = pre_sonic_tau_potential(tau_po, pgas)
    n_po = _normal_speed(tau0, tau_po, pgas)
    if n_po >= u0:
        raise ValueError(
            f"mach-reflection-regime: u0={u0} not above the normal speed "
            f"{n_po} of the post-sonic shock")
    phi_po = math.asin(n_po / u0)
    u_po, v_po = oblique_back_velocity(u0, 0.0, phi_po, tau0, tau_po)
    return RampWaveContext(
        u0=u0, tau0=tau0, pgas=pgas, tau1_i=tau1_i, tau2_i=tau2_i,
        tau_po=tau_po, tau_pr_po=tau_pr_po, n_po=n_po, u_po=u_po,
        v_po=v_po, q_po=math.hypot(u_po, v_po),
        sigma_po=math.atan2(v_po, u_po), phi_po=phi_po)


# ---------------------------------------------------------------------------
# branches


@dataclass(frozen=True, eq=False)
class WaveCurveBranch:
    """One sampled branch; params ascend.  `angle` holds the shock
    inclination phi on the polar branches and the ray angle alpha_hat on
    the fan-based ones; `evaluator` gives (u, v, angle) at any param."""

    param_label: str
    param_range: tuple
    params: np.ndarray
    u: np.ndarray
    v: np.ndarray
    angle: np.ndarray
    evaluator: object
    context: RampWaveContext = None

    def state(self, param):
        """(u, v, angle) at any parameter value, re-evaluated from the
        defining relations by the branch's evaluator."""
        return self.evaluator(param)


def _graded_grid(lo, hi, n, open_hi=False):
    # uniform nodes plus geometric clustering toward both ends, so that
    # spline queries stay accurate where the branch turns fastest
    w = hi - lo
    b = hi - (1e-9 * w if open_hi else 0.0)
    offs = w * np.logspace(-8.0, -2.0, 7)
    pts = np.concatenate((np.linspace(lo, b, n), lo + offs, b - offs))
    return np.unique(pts)


def _assemble(label, rng, grid, fn, ctx):
    uu = np.empty(grid.size)
    vv = np.empty(grid.size)
    aa = np.empty(grid.size)
    for k, t in enumerate(grid):
        uu[k], vv[k], aa[k] = fn(t)
    # a memoised branch is handed to every caller of its incoming state
    for arr in (grid, uu, vv, aa):
        arr.setflags(write=False)
    return WaveCurveBranch(param_label=label, param_range=rng, params=grid,
                           u=uu, v=vv, angle=aa, context=ctx, evaluator=fn)


def polar_branch_I(u0, tau0, pgas, n=512):
    """Single-shock branch from the zero-strength point B down to the
    post-sonic point P.

    Raises "mach-reflection-regime" when the incoming speed does not
    clear the normal speed somewhere on the window, i.e. the shock could
    not stay attached.
    """
    ctx = ramp_context(u0, tau0, pgas)
    grid = _graded_grid(ctx.tau_po, tau0, n, open_hi=True)
    return _assemble("tau_b", (ctx.tau_po, tau0), grid, ctx.polar_state,
                     ctx)


def _require_supersonic_post_state(ctx):
    c_po = ctx.pgas.c(ctx.tau_po)
    if ctx.q_po**2 - c_po**2 <= 1e-10 * c_po**2:
        raise ValueError(
            f"subsonic-post-state: q_po={ctx.q_po} does not clear the "
            f"sound speed {c_po} behind the post-sonic shock")


def shock_fan_branch(u0, tau0, pgas, n=512):
    """Fan branch from P down to the lower inflection state I.  The flow
    angle follows the turning integral anchored at P; the ray angle
    alpha_hat is stored as the auxiliary."""
    ctx = ramp_context(u0, tau0, pgas)
    _require_supersonic_post_state(ctx)
    grid = _graded_grid(ctx.tau1_i, ctx.tau_po, n)
    return _assemble("tau", (ctx.tau1_i, ctx.tau_po), grid, ctx.fan_state,
                     ctx)


def shock_fan_shock_branch(u0, tau0, pgas, n=512):
    """Composite branch: back states of front-sonic tail shocks whose
    fronts run along the fan branch.  At tau_f = tau1_i the tail has zero
    strength and the branch meets the fan branch continuously.

    The branch last built is kept, keyed by value on (u0, tau0, pgas, n):
    a wall-angle study reads one incoming state's branch once for its
    deflection range and again for every wall, and all of them get the
    same read-only branch.
    """
    return _shock_fan_shock_branch(u0, tau0, pgas, n)


# one entry serves the analysis-then-walls access pattern of one incoming
# state and keeps memory flat over a sweep of many states
@functools.lru_cache(maxsize=1)
def _shock_fan_shock_branch(u0, tau0, pgas, n):
    ctx = ramp_context(u0, tau0, pgas)
    _require_supersonic_post_state(ctx)
    grid = _graded_grid(ctx.tau1_i, ctx.tau_po, n)
    return _assemble("tau_f", (ctx.tau1_i, ctx.tau_po), grid,
                     ctx.tail_state, ctx)


def polar_branch_II(u0, tau0, pgas, n=512):
    """Strong portion of the shock polar, from the normal-shock point N
    (where the deflection vanishes) up to the back volume of the
    front-sonic shock seated at P."""
    ctx = ramp_context(u0, tau0, pgas)
    f = lambda t: _normal_speed(tau0, t, pgas) - u0
    lo = 1.0 + 1e-9
    hi = ctx.tau_pr_po * (1.0 - 1e-12)
    if not f(lo) > 0.0 > f(hi):
        raise ValueError(
            f"empty-branch: the normal speed never falls below u0={u0} "
            f"ahead of tau_b={ctx.tau_pr_po}")
    tau_n = brentq(f, lo, hi, xtol=1e-13)
    # step off the detached side, where polar_state would reject the root
    while f(tau_n) > 0.0:
        tau_n = math.nextafter(tau_n, hi)
    grid = _graded_grid(tau_n, ctx.tau_pr_po, n, open_hi=True)
    return _assemble("tau_b", (tau_n, ctx.tau_pr_po), grid, ctx.polar_state,
                     ctx)


# ---------------------------------------------------------------------------
# queries on the composite branch

_spline_cache = weakref.WeakKeyDictionary()


def _arc_spline(branch):
    try:
        return _spline_cache[branch]
    except KeyError:
        pass
    du = np.diff(branch.u)
    dv = np.diff(branch.v)
    seg = np.hypot(du, dv)
    keep = np.concatenate(([True], seg > 1e-14 * max(seg.max(), 1e-300)))
    uu, vv = branch.u[keep], branch.v[keep]
    s = np.concatenate(([0.0], np.cumsum(np.hypot(np.diff(uu),
                                                  np.diff(vv)))))
    entry = (s, CubicSpline(s, uu), CubicSpline(s, vv))
    _spline_cache[branch] = entry
    return entry


def H_residual(u, v, branch_IJ):
    """Signed distance of (u, v) from the composite branch.

    The branch is represented as an arc-length cubic spline; the sign is
    positive on the left of the curve walked in ascending parameter.
    Raises "extrapolation" when the orthogonal projection would fall
    outside the sampled parameter hull.
    """
    s, su, sv = _arc_spline(branch_IJ)
    d2 = (su(s) - u) ** 2 + (sv(s) - v) ** 2
    i0 = int(np.argmin(d2))
    lo = s[max(i0 - 1, 0)]
    hi = s[min(i0 + 1, s.size - 1)]

    def g(t):
        return ((su(t) - u) * su(t, 1) + (sv(t) - v) * sv(t, 1))

    glo, ghi = g(lo), g(hi)
    if glo == 0.0:
        s_star = lo
    elif ghi == 0.0:
        s_star = hi
    elif glo < 0.0 < ghi:
        s_star = brentq(g, lo, hi, xtol=1e-14)
    elif i0 == 0 and glo > 0.0:
        raise ValueError(
            f"extrapolation: ({u}, {v}) projects before the branch start")
    elif i0 == s.size - 1 and ghi < 0.0:
        raise ValueError(
            f"extrapolation: ({u}, {v}) projects past the branch end")
    else:
        res = minimize_scalar(lambda t: (su(t) - u) ** 2 + (sv(t) - v) ** 2,
                              bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-14})
        s_star = res.x
    cu, cv = float(su(s_star)), float(sv(s_star))
    tx, ty = float(su(s_star, 1)), float(sv(s_star, 1))
    norm = math.hypot(tx, ty)
    cross = (tx * (v - cv) - ty * (u - cu)) / norm
    dist = math.hypot(u - cu, v - cv)
    return math.copysign(dist, cross) if dist > 0.0 else 0.0


def _deflection(branch, param):
    u, v, _ = branch.state(param)
    return math.atan2(v, u)


def deflection_range(branch_IJ):
    """(sigma_m, sigma_M): extremes of the back-state flow angle over the
    branch.  Grid extrema from the stored samples are refined by bounded
    golden-section search on the exact deflection."""
    sig = np.arctan2(branch_IJ.v, branch_IJ.u)
    p = branch_IJ.params
    out = []
    for pick, sgn in ((int(np.argmin(sig)), 1.0), (int(np.argmax(sig)), -1.0)):
        lo = p[max(pick - 1, 0)]
        hi = p[min(pick + 1, p.size - 1)]
        if hi <= lo:
            out.append(_deflection(branch_IJ, lo))
            continue
        res = minimize_scalar(lambda t: sgn * _deflection(branch_IJ, t),
                              bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12})
        cands = [lo, hi, float(res.x)]
        vals = [sgn * _deflection(branch_IJ, t) for t in cands]
        out.append(sgn * min(vals))
    return out[0], out[1]


def solve_wedge_state(theta_w, branch_IJ, all_roots=False):
    """Parameter tau_w on the composite branch whose back-state flow
    angle equals theta_w.  With several crossings the smallest parameter
    wins; all_roots=True returns the full ascending list instead.
    """
    p = branch_IJ.params
    f_nodes = np.arctan2(branch_IJ.v, branch_IJ.u) - theta_w
    roots = [float(p[k]) for k in np.flatnonzero(np.abs(f_nodes) <= 1e-13)]
    sign_change = np.flatnonzero(f_nodes[:-1] * f_nodes[1:] < 0.0)
    for k in sign_change:
        roots.append(brentq(lambda t: _deflection(branch_IJ, t) - theta_w,
                            p[k], p[k + 1], xtol=1e-14))
    roots.sort()
    dedup = []
    for r in roots:
        if not dedup or r - dedup[-1] > 1e-10 * max(abs(r), 1.0):
            dedup.append(r)
    if not dedup:
        raise ValueError(
            f"no-root: theta_w={theta_w} is not attained on the branch")
    return dedup if all_roots else dedup[0]


# ---------------------------------------------------------------------------
# polar function of an oblique front state and tangency diagnostics


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


def _context(branch):
    if branch.context is None:
        raise ValueError("no-context: branch carries no ramp context")
    return branch.context


def _front_polar_state(ctx, tau_f, tau_b):
    # polar of the oblique fan-branch state at volume tau_f: pick the
    # inclination whose normal component matches the chord flux to tau_b
    u_hat, v_hat, _ = ctx.fan_state(tau_f)
    phi = shock_angle(u_hat, v_hat, _normal_speed(tau_f, tau_b, ctx.pgas))
    return oblique_back_velocity(u_hat, v_hat, phi, tau_f, tau_b)


def polar_tangency_check(branch_IJ, tau_w, pgas):
    """Angle defect between the composite-branch tangent at tau_w and the
    tangent of the shock polar of the fan-branch front state through the
    same back point.  The two curves touch, so the defect measures only
    the finite-difference error."""
    ctx = _context(branch_IJ)
    lo, hi = branch_IJ.param_range
    if not lo < tau_w < hi:
        raise ValueError(f"out-of-window: tau_w={tau_w} not inside "
                         f"({lo}, {hi})")
    e1 = 1e-6 * (hi - lo)
    up, vp, _ = ctx.tail_state(tau_w + e1)
    um, vm, _ = ctx.tail_state(tau_w - e1)
    t_ij = np.array([up - um, vp - vm])
    t_ij /= np.hypot(*t_ij)

    tau_pr = ctx.tail_back_volume(tau_w)
    e2 = 1e-6 * tau_pr
    up, vp = _front_polar_state(ctx, tau_w, tau_pr + e2)
    um, vm = _front_polar_state(ctx, tau_w, tau_pr - e2)
    t_pol = np.array([up - um, vp - vm])
    t_pol /= np.hypot(*t_pol)
    return math.asin(min(1.0, abs(t_ij[0] * t_pol[1] - t_ij[1] * t_pol[0])))


# volume step of the central difference along the composite branch
_TANGENT_STEP = 1e-6


def tail_tangent_acute(branch_IJ, tau_w):
    """True when the angle between the backward tangent -(u', v') of the
    composite branch and the state vector (u, v) at tau_w is acute."""
    ctx = _context(branch_IJ)
    u, v, _ = ctx.tail_state(tau_w)
    up, vp, _ = ctx.tail_state(tau_w + _TANGENT_STEP)
    um, vm, _ = ctx.tail_state(tau_w - _TANGENT_STEP)
    du = (up - um) / (2.0 * _TANGENT_STEP)
    dv = (vp - vm) / (2.0 * _TANGENT_STEP)
    return -(du * u + dv * v) > 0.0


def tail_back_supersonic(branch_IJ, tau_w):
    """True when the back state of the tail shock at tau_w is supersonic."""
    ctx = _context(branch_IJ)
    u, v, _ = ctx.tail_state(tau_w)
    return math.hypot(u, v) > ctx.pgas.c(ctx.tail_back_volume(tau_w))


def tail_shock_solution(branch_IJ, tau_f):
    """The tail shock at parameter tau_f as a resolved oblique shock on
    the branch isentrope (front on the fan branch, front-sonic flux)."""
    ctx = _context(branch_IJ)
    u_hat, v_hat, alpha_hat = ctx.fan_state(tau_f)
    tau_pr = ctx.tail_back_volume(tau_f)
    u_b, v_b, _ = ctx.tail_state(tau_f)
    S = ctx.pgas.S
    m = (u_hat * math.sin(alpha_hat) - v_hat * math.cos(alpha_hat)) / tau_f
    sol = ObliqueShockSolution(
        front=FlowState(u=u_hat, v=v_hat, tau=tau_f, S=S),
        back=FlowState(u=u_b, v=v_b, tau=tau_pr, S=S),
        phi=alpha_hat, m=m, kind="ordinary")
    return replace(sol, kind=classify(sol, ctx.pgas.gas))
