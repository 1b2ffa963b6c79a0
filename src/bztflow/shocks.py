# shocks.py
"""
Oblique shock relations for the reduced van der Waals gas.

A shock front inclined at angle phi splits the velocity into a tangential
component L (conserved) and a normal component N (jumping). The jump is
described in the volume-pressure plane by the chord between the front and
back states: its slope gives the squared mass flux, and the Hugoniot
relation selects the back entropy. On nonconvex isentropes the chord can
be tangent to an isentrope at one or both endpoints, which is where the
sonic shock families live:

  * double-sonic: |m| = rho c on both sides (tangent at both endpoints),
  * post-sonic:   |m| = rho_b c_b > rho_f c_f (tangent at the back),
  * pre-sonic:    |m| = rho_f c_f < rho_b c_b (tangent at the front).

The sonic flux is -p_tau on the isentrope through the sonic side. The
Euler solvers work with (tau, S) pairs and the full jump set: the
double-sonic shock is closed form, and the post-sonic one is a closed-form
back entropy plus one root of the Hugoniot relation. The potential-flow
solvers fix one isentrope and replace the normal momentum balance by the
Bernoulli invariant, with one cancellation-free chord flux in the
squared-volume chart, Liu's chord comparison for admissibility and the
front-sonic tangency solved with its double root divided out.
"""

import contextlib
import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .thermo import (
    BRENT_MAXITER,
    BRENT_XTOL,
    double_sonic_entropy,
    double_sonic_locus,
    enthalpy,
    eta_hat,
    front_locus_volume,
    inflection_roots,
    pressure,
    pressure_tau,
    sound_speed,
)

# relative tolerance of |m| = rho c for a sonic side (classify) and of the
# locus and tangency checks of a double-sonic shock
SONIC_TOL = 1e-8
LOCUS_TOL = 1e-10
# interior volumes of the grid Liu's chord comparison runs on
LIU_GRID = 10000


# ---------------------------------------------------------------------------
# value types

@dataclass(frozen=True)
class FlowState:
    """Velocity plus thermodynamic state (u, v, tau, S)."""

    u: float
    v: float
    tau: float
    S: float

    @property
    def q(self):
        return math.hypot(self.u, self.v)

    @property
    def sigma(self):
        return math.atan2(self.v, self.u)


@dataclass(frozen=True)
class ObliqueShockSolution:
    """A resolved shock: front/back states, inclination, mass flux, kind.

    kind is one of "ordinary", "post_sonic", "pre_sonic", "double_sonic".
    """

    front: FlowState
    back: FlowState
    phi: float
    m: float
    kind: str


# ---------------------------------------------------------------------------
# chord algebra in the (tau, p) plane

def _energy_of(p, tau, g):
    # internal energy through (p, tau), no entropy round-trip
    return (p + 1.0 / tau**2) * (tau - 1.0) / (g - 1.0) - 1.0 / tau


def mass_flux_squared(tau_f, p_f, tau_b, p_b):
    """
    Squared mass flux m^2 = -(p_f - p_b)/(tau_f - tau_b) of the chord.

    Raises ValueError("non-compressive-chord...") when the chord slope is
    not negative (no real shock) or the volumes coincide.
    """
    if tau_f == tau_b:
        raise ValueError(
            f"non-compressive-chord: coincident volumes tau={tau_f}")
    m2 = -(p_f - p_b) / (tau_f - tau_b)
    if m2 <= 0.0:
        raise ValueError(
            f"non-compressive-chord: m^2={m2} <= 0 for the chord "
            f"({tau_f}, {p_f}) -- ({tau_b}, {p_b})")
    return m2


def hugoniot_residual(tau_f, p_f, tau_b, p_b, gas):
    """eps_f - eps_b + (1/2)(tau_f - tau_b)(p_f + p_b); zero on the
    Hugoniot locus through either state."""
    g = gas.gamma
    return (_energy_of(p_f, tau_f, g) - _energy_of(p_b, tau_b, g)
            + 0.5 * (tau_f - tau_b) * (p_f + p_b))


# ---------------------------------------------------------------------------
# sonic shock families, Euler side

def double_sonic_back_state(tau_f, gas, S_f):
    """
    Back state of the shock whose chord is tangent to the isentropes at
    both endpoints, given the front volume on the tangent-point locus.

    Returns (tau_b, S_b, m) with tau_b = eta_hat(tau_f) tau_f and S_b the
    locus entropy at tau_b; |m| equals rho c on both sides. The front
    entropy S_f is checked against the locus ("not-on-locus" on mismatch).
    """
    p_f = pressure(tau_f, S_f, gas)
    d_f = double_sonic_locus(tau_f, gas)
    if abs(p_f - d_f) > LOCUS_TOL * max(abs(p_f), abs(d_f), 1e-30):
        raise ValueError(
            f"not-on-locus: p(tau_f={tau_f}, S_f={S_f})={p_f} differs from "
            f"the tangent-point locus value {d_f}")
    tau_b = eta_hat(tau_f, gas) * tau_f
    S_b = double_sonic_entropy(tau_b, gas)
    p_b = pressure(tau_b, S_b, gas)
    if abs(tau_b - tau_f) <= 1e-12 * tau_f:
        m2 = -pressure_tau(tau_f, S_f, gas)    # zero-strength sonic limit
    else:
        m2 = mass_flux_squared(tau_f, p_f, tau_b, p_b)
    for t, s in ((tau_f, S_f), (tau_b, S_b)):
        if abs(m2 + pressure_tau(t, s, gas)) > LOCUS_TOL * m2:
            raise ValueError(
                f"not-on-locus: chord not tangent at tau={t} "
                f"(m^2={m2}, -p_tau={-pressure_tau(t, s, gas)})")
    return tau_b, S_b, math.sqrt(m2)


def post_sonic_back_state_euler(tau_f, S_f, gas):
    """
    Back state (tau_po, S_po) of the shock from (tau_f, S_f) whose chord is
    tangent to the back isentrope (back side sonic, front side supersonic).

    Tangency, (p_b - p_f)/d = p_tau(tau_b, S_b) with d = tau_b - tau_f, is
    linear in S_b, which gives the back entropy in closed form,

        S_b(tau_b) = (p_f + 1/tau_b^2 + 2d/tau_b^3) (tau_b-1)^gamma
                     / (1 + gamma d/(tau_b-1)).

    tau_po is then the one root of the Hugoniot residual along S_b(tau_b)
    on (tau*, tau_d (1 + 1e-9)). Here tau_d = eta_hat(tau_f_e) tau_f_e is
    the double-sonic back volume, the root at tau_f = tau_f_e; the trivial
    root tau_b = tau_f lies below tau*. The front volume must lie in
    [tau_f_e(S_f), tau1_i(S_f)], the stretch of front volumes below the
    inflection pair that still admits the tangency
    ("out-of-post-sonic-window" otherwise).
    """
    tau_f_e = front_locus_volume(S_f, gas)
    tau1_i, _ = inflection_roots(S_f, gas)
    pad = 1e-9 * (tau1_i - tau_f_e)
    if not (tau_f_e - pad <= tau_f <= tau1_i + pad):
        raise ValueError(
            f"out-of-post-sonic-window: tau_f={tau_f} outside "
            f"[{tau_f_e}, {tau1_i}] at S_f={S_f}")
    g = gas.gamma
    p_f = pressure(tau_f, S_f, gas)

    def back_entropy(tau_b):
        d = tau_b - tau_f
        return ((p_f + 1.0 / tau_b**2 + 2.0 * d / tau_b**3)
                * (tau_b - 1.0) ** g / (1.0 + g * d / (tau_b - 1.0)))

    def residual(tau_b):
        return hugoniot_residual(
            tau_f, p_f, tau_b, pressure(tau_b, back_entropy(tau_b), gas), gas)

    tau_d = eta_hat(tau_f_e, gas) * tau_f_e
    tau_po = brentq(residual, 4.0 / (2.0 - g), tau_d * (1.0 + 1e-9),
                    xtol=BRENT_XTOL, maxiter=BRENT_MAXITER)
    return tau_po, back_entropy(tau_po)


# ---------------------------------------------------------------------------
# sonic shock families, potential side (one frozen isentrope, on which
# h = a1 (tau-1)^p1 + a2 (tau-1)^p2 - 2/tau + h_ref)

def _enthalpy_powers(pgas):
    g, S = pgas.gas.gamma, pgas.S
    return (g * S / (g - 1.0), 1.0 - g), (S, -g)


def mass_flux_squared_potential(tau_a, tau_b, pgas, xp=math):
    """
    Squared mass flux m^2 = -(2h(tau_a) - 2h(tau_b))/(tau_a^2 - tau_b^2)
    of the chord between two volumes of the isentrope (minus its slope in
    the squared-volume chart), with h(tau_a) - h(tau_b) taken term by term
    through expm1/log1p. `xp` is math for scalars or numpy for arrays.
    """
    x = xp.log1p((tau_a - tau_b) / (tau_b - 1.0))
    dh = 2.0 * (tau_a - tau_b) / (tau_a * tau_b)
    for a, p in _enthalpy_powers(pgas):
        dh = dh + a * (tau_b - 1.0) ** p * xp.expm1(p * x)
    return -2.0 * dh / ((tau_a - tau_b) * (tau_a + tau_b))


def tangent_chord_limit(pgas):
    """
    Largest front volume tau_c whose chord into the nonconvex window can
    still be tangent there: the chord from tau1_i is tangent at tau_c.
    Beyond tau_c every back volume below the front gives an admissible
    single shock.
    """
    tau1_i, tau2_i = pgas.inflection_pair
    sonic = -pgas.p_tau(tau1_i)

    def gap(t):
        return sonic - mass_flux_squared_potential(t, tau1_i, pgas)

    hi = 2.0 * tau2_i
    for _ in range(200):
        if gap(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise ValueError(f"no-convergence: no tangent chord beyond {tau2_i}")
    return brentq(gap, tau2_i, hi, xtol=BRENT_XTOL, maxiter=BRENT_MAXITER)


def post_sonic_tau_potential(tau_f, pgas):
    """
    Back volume tau_po in the nonconvex window whose chord from tau_f is
    tangent at the back point (back side sonic).

    Valid for tau_f between tau2_i and the tangent-chord limit
    ("out-of-window" otherwise); the back volume is the unique root of the
    tangency gap between the inflection volumes.
    """
    tau1_i, tau2_i = pgas.inflection_pair
    tau_c = tangent_chord_limit(pgas)
    if not tau2_i < tau_f < tau_c:
        raise ValueError(
            f"out-of-window: tau_f={tau_f} outside (tau2_i={tau2_i}, "
            f"tau_c={tau_c})")

    def gap(t):
        return -mass_flux_squared_potential(tau_f, t, pgas) - pgas.p_tau(t)

    return brentq(gap, tau1_i, tau2_i, xtol=BRENT_XTOL, maxiter=BRENT_MAXITER)


@functools.lru_cache(maxsize=8)
def _binomial_series(p):
    # C(p, k), k = 19 ... 2: ((1+y)^p - 1 - p y)/y^2 to rounding for |y| <= 0.1
    c = [0.5 * p * (p - 1.0)]
    for k in range(2, 19):
        c.append(c[-1] * (p - k) / (k + 1))
    return tuple(reversed(c))


def pre_sonic_tau_potential(tau_f, pgas, bracket=None):
    """
    Back volume tau_pr below the nonconvex window whose chord from tau_f
    is tangent at the front point (front side sonic); tau_f must lie
    strictly between the inflection volumes ("out-of-window" otherwise).

    g4(t) = 2h(tau_f) - 2h(t) - p_tau(tau_f)(tau_f^2 - t^2) has a double
    root at tau_f, which tau_pr merges into as tau_f falls to tau1_i. The
    deflated G = g4/(tau_f - t)^2 = p_tau(tau_f) - 2h[tau_f, tau_f, t]
    keeps a simple root up to tau1_i, so no expansion about the inflection
    point is needed. Each term a (tau-1)^p of h adds a x^(p-2) phi2 to the
    divided difference, x = tau_f - 1, y = (t - tau_f)/x, with
    phi2 = ((1+y)^p - 1 - p y)/y^2 from expm1/log1p for |y| > 0.1 and its
    binomial series below; -2/tau adds -2/(t tau_f^2). The solve runs on
    G ((t-1)/x)^gamma, which stays bounded as t -> 1 where G -> -inf.  A
    `bracket` (lo, hi) below tau1_i gets one brentq call first (G > 0 from
    the root to tau1_i, so a sign change there is the root); one that
    misses or reaches tau1_i falls back to the unbracketed solve and its
    "no-convergence".  The series is built only if the solve reaches y > -0.1.
    """
    tau1_i, tau2_i = pgas.inflection_pair
    if not tau1_i < tau_f < tau2_i:
        raise ValueError(
            f"out-of-window: tau_f={tau_f} outside (tau1_i={tau1_i}, "
            f"tau2_i={tau2_i})")
    x = tau_f - 1.0
    (a1, p1), (a2, p2) = _enthalpy_powers(pgas)
    c1, c2 = 2.0 * a1 * x ** (p1 - 2.0), 2.0 * a2 * x ** (p2 - 2.0)
    base, k = pgas.p_tau(tau_f), 4.0 / tau_f**2

    def series_to(top):
        return [c1 * b1 + c2 * b2 for b1, b2 in zip(
            _binomial_series(p1), _binomial_series(p2))
        ] if top - tau_f > -0.1 * x else ()

    def scaled_G(t):
        y = (t - tau_f) / x
        if y < -0.1:
            lg = math.log1p(y)
            e2 = math.expm1(p2 * lg)          # (1+y)^-gamma - 1
            d = (c1 * (math.expm1(p1 * lg) - p1 * y)
                 + c2 * (e2 - p2 * y)) / (y * y)
            return (base + k / t - d) / (1.0 + e2)
        d = 0.0
        for c in series:
            d = d * y + c
        return (base + k / t - d) * (1.0 + y) ** -p2

    lo = 1.0 + 1e-9 * (tau1_i - 1.0)
    if bracket is not None and bracket[1] < tau1_i:
        series = series_to(bracket[1])
        with contextlib.suppress(ValueError):     # no sign change on it
            return brentq(scaled_G, max(bracket[0], lo), bracket[1],
                          xtol=BRENT_XTOL, maxiter=BRENT_MAXITER)
    series = series_to(tau1_i)
    if not scaled_G(tau1_i) > 0.0:     # lost to rounding next to tau1_i
        raise ValueError(f"no-convergence: no sign change below tau1_i for "
                         f"tau_pr({tau_f})")
    return brentq(scaled_G, lo, tau1_i, xtol=BRENT_XTOL, maxiter=BRENT_MAXITER)


def liu_condition_check(tau_f, tau_b, pgas, slack=1e-10):
    """
    Extended entropy condition: the chord from tau_f to tau_b must lie
    below the chord from tau_f to every intermediate volume.  Defined on a
    LIU_GRID-point interior grid: True when it holds there up to a relative
    slack, which absorbs the roundoff of the sonic-attached shocks whose
    chord touches the comparison family at one endpoint.  The grid runs
    only when an exact bound cannot decide: m^2(tau_f, t) - m_b^2 =
    D(t)/(tau_f^2 - t^2), with D zero at both ends, convex in s = t^2
    outside the inflection pair and concave inside (D'' = p_tautau/(2t)),
    so max D is 0 or D at an edge of the window clipped to the chord or at
    the one root of p_tau = -m_b^2 inside it.  Every grid point passes when
    max D is below half the slack times tau_f^2 - t^2 at the last point.
    """
    if not tau_b < tau_f:
        raise ValueError(
            f"non-compressive-chord: requires tau_b={tau_b} < tau_f={tau_f}")
    m2_b = mass_flux_squared_potential(tau_f, tau_b, pgas)
    try:
        tau1_i, tau2_i = pgas.inflection_pair
    except ValueError:                  # S >= S*: convex throughout
        tau1_i = tau2_i = tau_f
    a, b = max(tau1_i, tau_b), min(tau2_i, tau_f)
    points = [a, b]     # neither lies inside the chord when a >= b
    if a < b and pgas.p_tau(a) + m2_b > 0.0 > pgas.p_tau(b) + m2_b:
        points.append(brentq(lambda t: pgas.p_tau(t) + m2_b, a, b,
                             xtol=BRENT_XTOL, maxiter=BRENT_MAXITER))
    d_max = max([0.0] + [(tau_f - t) * (tau_f + t)
                         * (mass_flux_squared_potential(tau_f, t, pgas) - m2_b)
                         for t in points if tau_b < t < tau_f])
    t_last = tau_f - (tau_f - tau_b) / (LIU_GRID + 1)
    if d_max < 0.5 * slack * abs(m2_b) * (tau_f - t_last) * (tau_f + t_last):
        return True
    tt = np.linspace(tau_b, tau_f, LIU_GRID + 2)[:-1]
    # points rounded onto tau_f (a 0/0 flux) are dropped, so a chord
    # narrower than the grid keeps only points on tau_b and reads True
    m2 = mass_flux_squared_potential(tau_f, tt[tt < tau_f], pgas, xp=np)
    return bool(np.all(m2[1:] < m2[0] + slack * abs(m2[0])))


# ---------------------------------------------------------------------------
# velocity bookkeeping across a front

def normal_split(u, v, phi, xp=math):
    """
    (L, N): the velocity split along a front of inclination phi, tangential
    L and normal N, with u = N sin(phi) + L cos(phi) and
    v = L sin(phi) - N cos(phi).  The split is a reflection, so it is its
    own inverse: normal_split(L, N, phi) gives back (u, v).  `xp` is math
    for scalars or numpy for arrays.
    """
    sp, cp = xp.sin(phi), xp.cos(phi)
    return u * cp + v * sp, u * sp - v * cp


def oblique_back_velocity(u_f, v_f, phi, tau_f, tau_b, xp=math):
    """
    Back velocity across a front of inclination phi: tangential component
    kept, normal component scaled by tau_b/tau_f (mass conservation).
    `xp` is math for scalars or numpy for arrays.

    Raises ValueError("expansive-normal...") when the upstream normal
    component is not positive (the least one of an array).
    """
    L, N = normal_split(u_f, v_f, phi, xp)
    n_min = N if xp is math else N.min()
    if n_min <= 0.0:
        raise ValueError(
            f"expansive-normal: upstream normal component N={n_min} <= 0")
    return normal_split(L, tau_b / tau_f * N, phi, xp)


# the sonic sides of a shock by its kind: a sonic side is an envelope of
# that side's characteristics, so only a sonic side can border a fan
SONIC_SIDES = {"ordinary": (), "pre_sonic": ("front",),
               "post_sonic": ("back",), "double_sonic": ("front", "back")}


def oblique_shock(front, phi, tau_b, S_b, gas):
    """The shock at inclination phi from the state `front` to volume tau_b
    and entropy S_b: back velocity from oblique_back_velocity, mass flux
    m = N_f/tau_f the front's normal speed, so that classify tests
    sonicity relative to the shock as assembled."""
    u, v = oblique_back_velocity(front.u, front.v, phi, front.tau, tau_b)
    m = normal_split(front.u, front.v, phi)[1] / front.tau
    shock = ObliqueShockSolution(front, FlowState(u, v, tau_b, S_b), phi, m,
                                 kind="")
    return replace(shock, kind=classify(shock, gas))


def classify(sol, gas):
    """
    Shock kind by comparing |m| against rho c on each side (relative
    tolerance SONIC_TOL): both equal -> "double_sonic", back only ->
    "post_sonic", front only -> "pre_sonic", neither -> "ordinary".
    A side outside the hyperbolic region raises "subsonic-thermo".
    """
    m_abs = abs(sol.m)
    rc_f = sound_speed(sol.front.tau, sol.front.S, gas) / sol.front.tau
    rc_b = sound_speed(sol.back.tau, sol.back.S, gas) / sol.back.tau
    front_sonic = abs(m_abs - rc_f) <= SONIC_TOL * rc_f
    back_sonic = abs(m_abs - rc_b) <= SONIC_TOL * rc_b
    if front_sonic and back_sonic:
        return "double_sonic"
    if back_sonic:
        return "post_sonic"
    if front_sonic:
        return "pre_sonic"
    return "ordinary"


def rh_residuals_euler(sol, gas):
    """
    The four jump-relation residuals (mass, normal momentum, tangential
    velocity, normal energy) of an Euler shock, each scaled by the larger
    magnitude of its two sides.
    """
    f, b = sol.front, sol.back
    L_f, N_f = normal_split(f.u, f.v, sol.phi)
    L_b, N_b = normal_split(b.u, b.v, sol.phi)
    p_f = pressure(f.tau, f.S, gas)
    p_b = pressure(b.tau, b.S, gas)
    h_f = enthalpy(f.tau, f.S, gas)
    h_b = enthalpy(b.tau, b.S, gas)
    pairs = (
        (N_f / f.tau, N_b / b.tau),
        (N_f**2 / f.tau + p_f, N_b**2 / b.tau + p_b),
        (L_f, L_b),
        (N_f**2 + 2.0 * h_f, N_b**2 + 2.0 * h_b),
    )
    return tuple((x - y) / max(abs(x), abs(y), 1e-30) for x, y in pairs)


def rh_residuals_potential(sol, pgas):
    """
    The three jump-relation residuals (mass, tangential velocity,
    Bernoulli) of a potential-flow shock, scaled as in rh_residuals_euler;
    the Bernoulli pair by the larger q^2, as h has a free offset.
    """
    f, b = sol.front, sol.back
    L_f, N_f = normal_split(f.u, f.v, sol.phi)
    L_b, N_b = normal_split(b.u, b.v, sol.phi)
    pairs = ((N_f / f.tau, N_b / b.tau), (L_f, L_b))
    bern = ((0.5 * f.q**2 + pgas.h(f.tau)) - (0.5 * b.q**2 + pgas.h(b.tau)))
    return (tuple((x - y) / max(abs(x), abs(y), 1e-30) for x, y in pairs)
            + (bern / max(f.q**2, b.q**2, 1e-30),))
