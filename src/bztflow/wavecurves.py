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
determines the volume throughout.  Branches are immutable once built and
their samples (BRANCH_POINTS graded nodes) read-only; the samples only
bracket.  The composite branch takes its fan states and back velocities at
all nodes from one array pass, around one scalar pre-sonic root per node,
bracketed by `RampWaveContext.guide` (the unguided window if that misses).
Every query (the flow-angle extremes, the wedge state) polishes on
`state`, the scalar evaluator, which re-evaluates the defining relations
at any parameter value, so no answer interpolates between samples.

The composite branch of the last incoming state is memoised: the
deflection range of a state and the wall solves on it
(`solve_potential_sfs`, which takes its context from the branch) reuse
one build of the branch and one `ramp_context`, which carries P's head
shock (`RampWaveContext.head`) and the attached fan's turning series, built
on first use (`RampWaveContext.turning`).  Every fan state is that series'
own, every shock `shocks.oblique_shock`'s; a ramp solution's fan sector is
`RampWaveContext.fan`, a `fan.FanSolution` on it, as the Euler fans are.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .fan import _FIT, _X, FanSolution, _clenshaw, _Turning
from .shocks import (
    FlowState,
    mass_flux_squared_potential,
    oblique_back_velocity,
    oblique_shock,
    post_sonic_tau_potential,
    pre_sonic_tau_potential,
)
from .thermo import BRENT_MAXITER, BRENT_XTOL
# tau_from_speed stays bound here: the benchmark tracer wraps
# wavecurves.tau_from_speed
from .thermo import tau_from_speed  # noqa: F401

# relative width below which a tail shock is treated as zero strength
_TAIL_EPS = 1e-12
# nodes of the uniform part of every branch's sample grid
BRANCH_POINTS = 512
# tolerance of the wedge root, relative to 1 + |tau_w|
WEDGE_XTOL = 1e-14


# ---------------------------------------------------------------------------
# shared geometry of one incoming state


def _normal_speed(tau_f, tau_b, pgas):
    m2 = mass_flux_squared_potential(tau_f, tau_b, pgas)
    if m2 <= 0.0:
        raise ValueError(
            f"expansive-chord: no compressive flux from tau_f={tau_f} "
            f"to tau_b={tau_b}")
    return tau_f * math.sqrt(m2)


def _single_shock(u0, tau0, tau_b, pgas):
    # (u, v, phi) of the single shock from (u0, 0) at tau0 to tau_b
    if not 1.0 < tau_b < tau0:
        raise ValueError(f"out-of-window: tau_b={tau_b} outside (1, {tau0})")
    nf = _normal_speed(tau0, tau_b, pgas)
    s = nf / u0
    if s > 1.0:
        raise ValueError(
            f"mach-reflection-regime: u0={u0} not above the normal speed "
            f"{nf} at tau_b={tau_b}")
    phi = math.asin(s)
    return (*oblique_back_velocity(u0, 0.0, phi, tau0, tau_b), phi)


@dataclass(frozen=True)
class RampWaveContext:
    """Quantities shared by the four branches of one incoming state; `head`
    is the classified post-sonic head shock from (u0, 0) to P = `head.back`,
    and every fan state is that of the attached fan's series `turning`."""

    u0: float
    tau0: float
    pgas: object
    tau1_i: float
    tau_po: float
    head: object

    def polar_state(self, tau_b):
        """(u, v, phi) of the single shock with back volume tau_b in
        (1, tau0) ("out-of-window" otherwise)."""
        return _single_shock(self.u0, self.tau0, tau_b, self.pgas)

    @functools.cached_property
    def turning(self):
        """The attached fan from P = head.back down to the lower inflection
        state as a stored turning series (fan._Turning) on the ramp model
        pgas, anchored so that sigma(tau_po) = head.back.sigma.  Built on
        first use and kept on this instance; equality and hashing see only
        the fields."""
        tr = _Turning(self.tau1_i, self.tau_po, 0.0, self.pgas)
        tr.shift(self.head.back.sigma - tr.sigmas[0])
        return tr

    def fan_state(self, tau, xp=math):
        """(u, v, alpha_hat) on the fan branch at volume tau: the series'
        state there (fan._Turning.at_volume, "sonic-degeneracy" where c > q).
        `xp` is math for scalars or numpy for arrays."""
        q_hat, sigma_hat, alpha_hat = self.turning.at_volume(tau)
        return q_hat * xp.cos(sigma_hat), q_hat * xp.sin(sigma_hat), alpha_hat

    def fan(self, tail):
        """The attached fan as a FanSolution on the stored series and the
        ramp model, from the head shock's ray at P = head.back down to the
        front of the tail shock `tail` (wall_tail_shock), whose inclination
        is the fan's last ray."""
        P, front = self.head.back, tail.front
        return FanSolution(self.head.phi, tail.phi, self.pgas,
                           (P.q, P.tau, P.sigma),
                           (front.q, front.tau, front.sigma), self.turning)

    @functools.cached_property
    def guide(self):
        """tail_back_volume on [tau1_i, tau_po] interpolated through the
        unbracketed roots at the fan's Lobatto points: (mid, half-width, c0,
        (c_n, ..., c_1), bound), the bound the last two coefficients plus
        1e-12 tau1_i, as those roots scatter by up to about 1.5e-13 tau1_i
        where rounding sets them.  None when a node raises."""
        mid = 0.5 * (self.tau_po + self.tau1_i)
        hw = 0.5 * (self.tau_po - self.tau1_i)
        nodes = (mid + hw * _X).tolist()
        try:    # a zero-strength tail at tau1_i, as in tail_back_volume
            roots = nodes[:1] + [pre_sonic_tau_potential(t, self.pgas)
                                 for t in nodes[1:]]
        except ValueError:
            return None
        coef = (_FIT @ roots).tolist()
        bound = abs(coef[-1]) + abs(coef[-2]) + 1e-12 * self.tau1_i
        return mid, hw, coef[0], coef[:0:-1], bound

    def tail_back_volume(self, tau_f):
        """Tail shock back volume from tau_f, bracketed by guide +- bound."""
        if tau_f <= self.tau1_i * (1.0 + _TAIL_EPS):
            return tau_f
        if self.guide is None:
            return pre_sonic_tau_potential(tau_f, self.pgas)
        mid, hw, c0, rest, bound = self.guide
        est = _clenshaw(c0, rest, (tau_f - mid) / hw)
        return pre_sonic_tau_potential(tau_f, self.pgas,
                                       (est - bound, est + bound))

    def tail_state(self, tau_f):
        """(u, v, alpha_hat) behind the front-sonic tail shock whose front
        sits on the fan branch at volume tau_f."""
        u_hat, v_hat, alpha_hat = self.fan_state(tau_f)
        u, v = _behind_tail(u_hat, v_hat, alpha_hat, tau_f,
                            self.tail_back_volume(tau_f))
        return u, v, alpha_hat


def _behind_tail(u_hat, v_hat, alpha_hat, tau_f, tau_pr, xp=math):
    # back velocity of the tail shock from the fan state at tau_f to tau_pr;
    # the front velocity itself at zero strength
    zero = tau_pr >= tau_f
    if xp is math:
        return (u_hat, v_hat) if zero else oblique_back_velocity(
            u_hat, v_hat, alpha_hat, tau_f, tau_pr)
    u, v = oblique_back_velocity(u_hat, v_hat, alpha_hat, tau_f, tau_pr, xp)
    return xp.where(zero, u_hat, u), xp.where(zero, v_hat, v)


def ramp_context(u0, tau0, pgas):
    """Resolve the post-sonic point P and the window edges for (u0, tau0),
    with P's head shock built and classified once (`RampWaveContext.head`)
    by oblique_shock at the inclination of polar_state's single-shock law.

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
    tau1_i, _ = pgas.inflection_pair
    tau_po = post_sonic_tau_potential(tau0, pgas)
    head = oblique_shock(FlowState(u0, 0.0, tau0, pgas.S),
                         _single_shock(u0, tau0, tau_po, pgas)[2], tau_po,
                         pgas.S, pgas.gas)
    return RampWaveContext(u0=u0, tau0=tau0, pgas=pgas, tau1_i=tau1_i,
                           tau_po=tau_po, head=head)


# ---------------------------------------------------------------------------
# branches


@dataclass(frozen=True, eq=False)
class WaveCurveBranch:
    """One sampled branch; params ascend.  `angle` holds the shock
    inclination phi on the polar branches and the ray angle alpha_hat on
    the fan-based ones; `state` gives (u, v, angle) at any param,
    re-evaluated from the branch's defining relations."""

    param_range: tuple
    params: np.ndarray
    u: np.ndarray
    v: np.ndarray
    angle: np.ndarray
    state: object
    context: RampWaveContext = None


def _graded_grid(lo, hi, open_hi=False):
    # uniform nodes plus geometric clustering toward both ends, so that
    # the brackets stay narrow where the branch turns fastest
    w = hi - lo
    b = hi - (1e-9 * w if open_hi else 0.0)
    offs = w * np.logspace(-8.0, -2.0, 7)
    pts = np.concatenate((np.linspace(lo, b, BRANCH_POINTS), lo + offs,
                          b - offs))
    return np.unique(pts)


def _sampled(fn, grid):
    # (u, v, angle) rows of fn at the nodes, called on Python floats
    return np.array([fn(t) for t in grid.tolist()]).T


def _assemble(rng, grid, samples, fn, ctx):
    uu, vv, aa = samples
    # a memoised branch is handed to every caller of its incoming state
    for arr in (grid, uu, vv, aa):
        arr.setflags(write=False)
    return WaveCurveBranch(param_range=rng, params=grid, u=uu, v=vv,
                           angle=aa, context=ctx, state=fn)


def polar_branch_I(u0, tau0, pgas):
    """Single-shock branch from the zero-strength point B down to the
    post-sonic point P.

    Raises "mach-reflection-regime" when the incoming speed does not
    clear the normal speed somewhere on the window, i.e. the shock could
    not stay attached.
    """
    ctx = ramp_context(u0, tau0, pgas)
    grid = _graded_grid(ctx.tau_po, tau0, open_hi=True)
    return _assemble((ctx.tau_po, tau0), grid,
                     _sampled(ctx.polar_state, grid), ctx.polar_state, ctx)


def _require_supersonic_post_state(ctx):
    c_po, q_po = ctx.pgas.c(ctx.tau_po), ctx.head.back.q
    if q_po**2 - c_po**2 <= 1e-10 * c_po**2:
        raise ValueError(
            f"subsonic-post-state: q_po={q_po} does not clear the "
            f"sound speed {c_po} behind the post-sonic shock")


def shock_fan_branch(u0, tau0, pgas):
    """Fan branch from P down to the lower inflection state I.  The flow
    angle follows the turning integral anchored at P; the ray angle
    alpha_hat is stored as the auxiliary."""
    ctx = ramp_context(u0, tau0, pgas)
    _require_supersonic_post_state(ctx)
    grid = _graded_grid(ctx.tau1_i, ctx.tau_po)
    return _assemble((ctx.tau1_i, ctx.tau_po), grid,
                     _sampled(ctx.fan_state, grid), ctx.fan_state, ctx)


def shock_fan_shock_branch(u0, tau0, pgas):
    """Composite branch: back states of front-sonic tail shocks whose
    fronts run along the fan branch.  At tau_f = tau1_i the tail has zero
    strength and the branch meets the fan branch continuously.

    The branch last built is kept, keyed by value on (u0, tau0, pgas):
    a wall-angle study reads one incoming state's branch once for its
    deflection range and again for every wall, and all of them get the
    same read-only branch.
    """
    return _shock_fan_shock_branch(u0, tau0, pgas)


# one entry serves the analysis-then-walls access pattern of one incoming
# state and keeps memory flat over a sweep of many states
@functools.lru_cache(maxsize=1)
def _shock_fan_shock_branch(u0, tau0, pgas):
    ctx = ramp_context(u0, tau0, pgas)
    _require_supersonic_post_state(ctx)
    grid = _graded_grid(ctx.tau1_i, ctx.tau_po)
    # fan states first: as on the scalar path, the series is built (and
    # fails) before any root is solved
    hat = ctx.fan_state(grid, np)
    tau_pr = np.array([ctx.tail_back_volume(t) for t in grid.tolist()])
    samples = (*_behind_tail(*hat, grid, tau_pr, np), hat[2])
    return _assemble((ctx.tau1_i, ctx.tau_po), grid, samples,
                     ctx.tail_state, ctx)


def polar_branch_II(u0, tau0, pgas):
    """Strong portion of the shock polar, from the normal-shock point N
    (where the deflection vanishes) up to the back volume of the
    front-sonic shock seated at P."""
    ctx = ramp_context(u0, tau0, pgas)
    tau_pr_po = pre_sonic_tau_potential(ctx.tau_po, pgas)
    f = lambda t: _normal_speed(tau0, t, pgas) - u0
    lo = 1.0 + 1e-9
    hi = tau_pr_po * (1.0 - 1e-12)
    if not f(lo) > 0.0 > f(hi):
        raise ValueError(
            f"empty-branch: the normal speed never falls below u0={u0} "
            f"ahead of tau_b={tau_pr_po}")
    tau_n = brentq(f, lo, hi, xtol=BRENT_XTOL, maxiter=BRENT_MAXITER)
    # step off the detached side, where polar_state would reject the root
    while f(tau_n) > 0.0:
        tau_n = math.nextafter(tau_n, hi)
    # the normal shock on the first node (asin of the rounded ratio: ~1e-8)
    normal = (*oblique_back_velocity(u0, 0.0, 0.5 * math.pi, tau0, tau_n),
              0.5 * math.pi)
    state = lambda t: normal if t == tau_n else ctx.polar_state(t)
    grid = _graded_grid(tau_n, tau_pr_po, open_hi=True)
    return _assemble((tau_n, tau_pr_po), grid, _sampled(state, grid), state,
                     ctx)


# ---------------------------------------------------------------------------
# queries on the composite branch

def deflection_range(branch_IJ):
    """(sigma_m, sigma_M): extremes of the back-state flow angle over the
    branch, each the least signed exact deflection at a grid extreme's two
    neighbour samples and at the bounded Brent point between them."""
    p = branch_IJ.params
    sig = np.arctan2(branch_IJ.v, branch_IJ.u)
    out = []
    for pick, sgn in ((int(np.argmin(sig)), 1.0), (int(np.argmax(sig)), -1.0)):
        def f(t):
            u, v, _ = branch_IJ.state(t)
            return sgn * math.atan2(v, u)
        lo, hi = p[[max(pick - 1, 0), min(pick + 1, p.size - 1)]].tolist()
        res = minimize_scalar(lambda t: f(float(t)), bounds=(lo, hi),
                              method="bounded", options={"xatol": 1e-12})
        out.append(sgn * min(f(t) for t in (lo, hi, float(res.x))))
    return out[0], out[1]


def _wedge_root(theta_w, branch, state):
    """(t, state(t)) at solve_wedge_state's tau_w, the deflection taken from
    state(t)'s leading (u, v); the state is None on a sample hit."""
    p = branch.params
    f_nodes = np.arctan2(branch.v, branch.u) - theta_w
    # event 2k: sample k hits theta_w; event 2k + 1: (p[k], p[k+1]) brackets
    events = np.empty(2 * p.size - 1, dtype=bool)
    events[0::2] = np.abs(f_nodes) <= 1e-13
    events[1::2] = f_nodes[:-1] * f_nodes[1:] < 0.0
    if not events.any():
        raise ValueError(
            f"no-root: theta_w={theta_w} is not attained on the branch")
    k, brackets = divmod(int(np.argmax(events)), 2)
    if not brackets:
        return float(p[k]), None
    lo = max(min(k - 1, p.size - 4), 0)
    ts, fs = p[lo:lo + 4].tolist(), f_nodes[lo:lo + 4].tolist()
    (a, b), (fa, fb) = ts[k - lo:k - lo + 2], fs[k - lo:k - lo + 2]
    h, slope, step_old = b - a, (b - a) / (fb - fa), math.inf
    x = a - fa * slope
    if len(set(fs)) == 4 and sorted(fs) in (fs, fs[::-1]):
        # divided differences of t(f), then Horner for t, dt/df at f = 0
        c = list(ts)
        for j in (1, 2, 3):
            for i in range(3, j - 1, -1):
                c[i] = (c[i] - c[i - 1]) / (fs[i] - fs[i - j])
        t0, dt0 = c[3], 0.0
        for i in (2, 1, 0):
            t0, dt0 = t0 * -fs[i] + c[i], dt0 * -fs[i] + t0
        if a < t0 < b:
            x, slope = t0, dt0
    for n in itertools.count():
        last = state(x)
        fx = math.atan2(last[1], last[0]) - theta_w
        a, b = (x, b) if (fx < 0.0) == (fa < 0.0) else (a, x)
        if n and fx != f_old:
            slope = (x - x_old) / (fx - f_old)
        x_old, f_old, step = x, fx, -fx * slope
        # converged, or stalled on the rounding noise of the deflection
        if (min(abs(step), b - a) <= WEDGE_XTOL * (1.0 + abs(x))
                or 1e-6 * h >= abs(step) >= 0.5 * abs(step_old)):
            return x, last
        step_old, x = step, x + step
        if n >= 8 or not a < x < b:     # bisect past 8 secant steps
            x = 0.5 * (a + b)


def solve_wedge_state(theta_w, branch_IJ):
    """Parameter tau_w on the composite branch whose back-state flow
    angle equals theta_w: the first sample within 1e-13 of it, or the
    root in the first sample interval that brackets it, whichever comes
    first in ascending parameter.  So with several crossings the smallest
    parameter wins, and a sample hit is returned unsolved.

    The root starts from the inverse cubic through the four stored
    samples around the bracket when their deflections are strictly
    monotone (else from the bracket's chord), and a secant seeded with
    the cubic's slope finishes it inside the bracket and its stored end
    values, bisecting when a step leaves the bracket or after 8 steps.
    It returns the last exact iterate once its next step is within
    WEDGE_XTOL (1 + |tau_w|), or once steps below 1e-6 of the bracket stop
    halving (the deflection's rounding noise): typically two or three
    exact evaluations on the composite branch.
    """
    return _wedge_root(theta_w, branch_IJ, branch_IJ.state)[0]


def wall_tail_shock(theta_w, branch_IJ):
    """The tail shock of the wall at theta_w on the branch isentrope: the
    oblique_shock from the fan state at solve_wedge_state's tau_w, on its
    ray alpha_hat, to the tail's back volume, both of the root's last exact
    iterate."""
    ctx = branch_IJ.context
    if ctx is None:
        raise ValueError("no-context: branch carries no ramp context")

    def tail(t):
        # back velocity, fan state and back volume of the tail at front t
        hat, tau_pr = ctx.fan_state(t), ctx.tail_back_volume(t)
        return (*_behind_tail(*hat, t, tau_pr), hat, tau_pr)

    tau_f, last = _wedge_root(theta_w, branch_IJ, tail)
    _, _, (u_hat, v_hat, alpha_hat), tau_pr = last or tail(tau_f)
    S = ctx.pgas.S
    return oblique_shock(FlowState(u_hat, v_hat, tau_f, S), alpha_hat, tau_pr,
                         S, ctx.pgas.gas)
