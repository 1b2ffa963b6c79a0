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

The Euler solvers work with (tau, S) pairs and the full jump set; the
potential-flow solvers fix one isentrope and replace the normal momentum
balance by the Bernoulli invariant, so the chord is taken in the
squared-volume chart and admissibility reduces to a chord comparison
(Liu's extended entropy condition).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .thermo import (
    BRENT_MAXITER,
    BRENT_XTOL,
    double_sonic_entropy,
    double_sonic_locus,
    eta_hat,
    inflection_roots,
    locus_intersections,
    pressure,
    pressure_S,
    pressure_tau,
    pressure_tauS,
    pressure_tautau,
)


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
class VelocityDecomposition:
    """Velocity split along a front of inclination phi: tangential L,
    normal N, with u = N sin(phi) + L cos(phi), v = L sin(phi) - N cos(phi).
    """

    L: float
    N: float
    phi: float

    @classmethod
    def of(cls, u, v, phi):
        return cls(L=u * math.cos(phi) + v * math.sin(phi),
                   N=u * math.sin(phi) - v * math.cos(phi),
                   phi=phi)

    def velocity(self):
        """Reconstruct (u, v)."""
        sp, cp = math.sin(self.phi), math.cos(self.phi)
        return self.N * sp + self.L * cp, self.L * sp - self.N * cp


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


def _energy_S(tau, g):
    return 1.0 / ((g - 1.0) * (tau - 1.0) ** (g - 1.0))


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


def sonic_flux_squared(p, tau, gas):
    """Squared mass flux of a shock that is sonic relative to (p, tau),
    i.e. -p_tau on the isentrope through that point."""
    g = gas.gamma
    return g * (p * tau**2 + 1.0) / (tau**2 * (tau - 1.0)) - 2.0 / tau**3


def eta_roots(tau_k, p_k, m2, gas):
    """
    Volume ratios eta = tau_other/tau_k compatible with a shock of squared
    mass flux m2 through the state (tau_k, p_k).

    Returns (roots, has_complex): roots is a sorted tuple of the real
    ratios, always containing the trivial eta = 1; has_complex flags a
    discarded complex-conjugate pair ("complex-roots"). When m2 is sonic
    relative to the state, the cofactor reduces to a quadratic whose double
    root is the tangent-chord ratio 2/((2-gamma) tau_k - 2).
    """
    if m2 <= 0.0:
        raise ValueError(f"non-compressive-chord: m^2={m2} <= 0")
    g = gas.gamma
    f_k = sonic_flux_squared(p_k, tau_k, gas)
    roots = [1.0]
    if abs(m2 - f_k) <= 1e-9 * abs(f_k):
        # sonic cofactor: quadratic in eta
        A = 0.5 * (g + 1.0) * f_k * tau_k
        B = 2.0 / tau_k**3 + (g - 2.0) / tau_k**2
        C = 1.0 / tau_k**3
        disc = B * B - 4.0 * A * C
        scale = B * B + abs(4.0 * A * C)
        if disc < -1e-12 * scale:
            return tuple(sorted(roots)), True
        if disc <= 1e-12 * scale:
            roots += [-B / (2.0 * A)] * 2
        else:
            sq = math.sqrt(disc)
            roots += [(-B - sq) / (2.0 * A), (-B + sq) / (2.0 * A)]
        return tuple(sorted(roots)), False
    # general cofactor: cubic in eta
    a3 = 0.5 * (g + 1.0) * m2 * tau_k
    a2 = -(m2 + 0.5 * (g - 1.0) * tau_k * m2 + g * p_k)
    a1 = -(1.0 / tau_k**3 + (g - 2.0) / tau_k**2)
    a0 = -1.0 / tau_k**3

    def cubic(e):
        return ((a3 * e + a2) * e + a1) * e + a0

    # a tangent chord makes the conjugate ratio a double root, which a
    # companion-matrix solve splits by ~sqrt(roundoff); snap such a pair to
    # the stationary point of the cubic when the residual there vanishes
    disc_b = 4.0 * a2 * a2 - 12.0 * a3 * a1
    if disc_b > 0.0:
        for v in ((-2.0 * a2 - math.sqrt(disc_b)) / (6.0 * a3),
                  (-2.0 * a2 + math.sqrt(disc_b)) / (6.0 * a3)):
            local = max(abs(a3 * v**3), abs(a2 * v**2), abs(a1 * v), abs(a0))
            if abs(cubic(v)) <= 1e-10 * local:
                third = -a0 / (a3 * v * v)
                roots += [v, v, third]
                return tuple(sorted(roots)), False
    terms = (18.0 * a3 * a2 * a1 * a0, -4.0 * a2**3 * a0, a2**2 * a1**2,
             -4.0 * a3 * a1**3, -27.0 * a3**2 * a0**2)
    disc = sum(terms)
    has_complex = disc < -1e-12 * sum(abs(t) for t in terms)
    for z in np.roots([a3, a2, a1, a0]):
        if has_complex and abs(z.imag) > 1e-9 * (1.0 + abs(z)):
            continue
        e = float(z.real)
        for _ in range(2):     # polish simple roots
            d = (3.0 * a3 * e + 2.0 * a2) * e + a1
            if d != 0.0:
                e -= cubic(e) / d
        roots.append(e)
    return tuple(sorted(roots)), has_complex


# ---------------------------------------------------------------------------
# sonic shock families, Euler side

def double_sonic_back_state(tau_f, gas, S_f=None, tol=1e-10):
    """
    Back state of the shock whose chord is tangent to the isentropes at
    both endpoints, given the front volume on the tangent-point locus.

    Returns (tau_b, S_b, m) with tau_b = eta_hat(tau_f) tau_f and S_b the
    locus entropy at tau_b; |m| equals rho c on both sides. S_f defaults
    to the locus entropy at tau_f; if given, it is checked against the
    locus ("not-on-locus" on mismatch).
    """
    if S_f is None:
        S_f = double_sonic_entropy(tau_f, gas)
    p_f = pressure(tau_f, S_f, gas)
    d_f = double_sonic_locus(tau_f, gas)
    if abs(p_f - d_f) > tol * max(abs(p_f), abs(d_f), 1e-30):
        raise ValueError(
            f"not-on-locus: p(tau_f={tau_f}, S_f={S_f})={p_f} differs from "
            f"the tangent-point locus value {d_f}")
    eta = eta_hat(tau_f, gas)
    tau_b = eta * tau_f
    if tau_b <= 1.0:
        raise ValueError(
            f"not-on-locus: back volume eta*tau_f={tau_b} <= 1")
    S_b = double_sonic_entropy(tau_b, gas)
    p_b = pressure(tau_b, S_b, gas)
    if abs(tau_b - tau_f) <= 1e-12 * tau_f:
        m2 = -pressure_tau(tau_f, S_f, gas)    # zero-strength sonic limit
    else:
        m2 = mass_flux_squared(tau_f, p_f, tau_b, p_b)
    for t, s in ((tau_f, S_f), (tau_b, S_b)):
        if abs(m2 + pressure_tau(t, s, gas)) > tol * m2:
            raise ValueError(
                f"not-on-locus: chord not tangent at tau={t} "
                f"(m^2={m2}, -p_tau={-pressure_tau(t, s, gas)})")
    return tau_b, S_b, math.sqrt(m2)


def post_sonic_back_state_euler(tau_f, S_f, gas, n_steps=24, max_iter=60):
    """
    Back state (tau_po, S_po) of the shock from (tau_f, S_f) whose chord is
    tangent to the back isentrope (back side sonic, front side supersonic).

    Solves {Hugoniot residual = 0, chord slope + p_tau(back) = 0} by a
    damped Newton iteration with closed-form Jacobian, seeded from the
    double-sonic endpoint of the front window and continued in tau_f.
    The front volume must lie in [tau_f_e(S_f), tau1_i(S_f)], the stretch
    of front volumes below the inflection pair that still admits the
    tangency ("out-of-post-sonic-window" otherwise).
    """
    tau_f_e, _ = locus_intersections(S_f, gas)
    tau1_i, _ = inflection_roots(S_f, gas)
    pad = 1e-9 * (tau1_i - tau_f_e)
    if not (tau_f_e - pad <= tau_f <= tau1_i + pad):
        raise ValueError(
            f"out-of-post-sonic-window: tau_f={tau_f} outside "
            f"[{tau_f_e}, {tau1_i}] at S_f={S_f}")
    g = gas.gamma
    tau_d = eta_hat(tau_f_e, gas) * tau_f_e
    tb, Sb = tau_d, double_sonic_entropy(tau_d, gas)
    for tf in np.linspace(tau_f_e, tau_f, n_steps + 1):
        p_f = pressure(tf, S_f, gas)
        e_f = _energy_of(p_f, tf, g)
        for _ in range(max_iter):
            p_b = pressure(tb, Sb, gas)
            pt_b = pressure_tau(tb, Sb, gas)
            pS_b = pressure_S(tb, Sb, gas)
            dt = tf - tb
            F1 = e_f - _energy_of(p_b, tb, g) + 0.5 * dt * (p_f + p_b)
            F2 = (p_b - p_f) / dt + pt_b
            J11 = 0.5 * (p_b - p_f) + 0.5 * dt * pt_b
            J12 = -_energy_S(tb, g) + 0.5 * dt * pS_b
            J21 = pt_b / dt + (p_b - p_f) / dt**2 + pressure_tautau(tb, Sb, gas)
            J22 = pS_b / dt + pressure_tauS(tb, Sb, gas)
            det = J11 * J22 - J12 * J21
            if det == 0.0:
                raise ValueError(
                    f"no-convergence: singular Jacobian at tau_f={tf}")
            step_t = -(F1 * J22 - F2 * J12) / det
            step_S = -(J11 * F2 - J21 * F1) / det
            # keep iterates inside the physical domain
            damp = min(1.0,
                       0.2 * (tb - 1.0) / max(abs(step_t), 1e-300),
                       0.2 * Sb / max(abs(step_S), 1e-300))
            tb += damp * step_t
            Sb += damp * step_S
            if abs(step_t) <= 1e-13 * tb and abs(step_S) <= 1e-13 * Sb:
                break
        else:
            raise ValueError(
                f"no-convergence: post-sonic continuation stalled at "
                f"tau_f={tf}")
    return tb, Sb


# ---------------------------------------------------------------------------
# sonic shock families, potential side (one frozen isentrope; chords taken
# in the squared-volume chart: slope (2h(tau_f)-2h(tau_b))/(tau_f^2-tau_b^2))

def _chord2(tau_b, tau_f, pgas):
    return ((2.0 * pgas.h(tau_f) - 2.0 * pgas.h(tau_b))
            / (tau_f**2 - tau_b**2))


def tangent_chord_limit(pgas):
    """
    Largest front volume tau_c whose chord into the nonconvex window can
    still be tangent there: the chord from tau1_i is tangent at tau_c.
    Beyond tau_c every back volume below the front gives an admissible
    single shock.
    """
    tau1_i, tau2_i = pgas.inflection_pair

    def gap(t):
        return _chord2(tau1_i, t, pgas) - pgas.p_tau(tau1_i)

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
        return _chord2(t, tau_f, pgas) - pgas.p_tau(t)

    return brentq(gap, tau1_i, tau2_i, xtol=BRENT_XTOL, maxiter=BRENT_MAXITER)


def pre_sonic_tau_potential(tau_f, pgas):
    """
    Back volume tau_pr below the nonconvex window whose chord from tau_f
    is tangent at the front point (front side sonic).

    Valid for tau_f strictly between the inflection volumes
    ("out-of-window" otherwise). The defining function has a double root
    at tau_f itself; the returned root is the isolated one below tau1_i.
    """
    tau1_i, tau2_i = pgas.inflection_pair
    if not tau1_i < tau_f < tau2_i:
        raise ValueError(
            f"out-of-window: tau_f={tau_f} outside (tau1_i={tau1_i}, "
            f"tau2_i={tau2_i})")
    slope_f = pgas.p_tau(tau_f)

    def g4(t):
        return (2.0 * pgas.h(tau_f) - 2.0 * pgas.h(t)
                - slope_f * (tau_f**2 - t**2))

    # Just above tau1_i the isolated root merges into the double root at
    # tau_f and the chord defect between them is sub-noise (it scales with
    # the cube of the distance to tau1_i), so no bracket can resolve it.
    # Expanding the defect about the inflection point, where the
    # squared-volume chart has zero curvature, puts the root at
    # 3 tau1_i^2 - 2 tau_f^2 in that chart; inside the ill-conditioned
    # collar this expansion is the more accurate route.
    band = tau_f - tau1_i
    if band <= 3e-5 * tau1_i:
        return math.sqrt(3.0 * tau1_i**2 - 2.0 * tau_f**2)
    lo = 1.0 + 1e-9 * (tau1_i - 1.0)
    for _ in range(200):
        if g4(lo) < 0.0:
            break
        lo = 1.0 + 0.1 * (lo - 1.0)
    else:
        raise ValueError(f"no-convergence: no bracket for tau_pr({tau_f})")
    if g4(tau1_i) > 0.0:
        return brentq(g4, lo, tau1_i, xtol=BRENT_XTOL, maxiter=BRENT_MAXITER)
    if band <= 1e-3 * tau1_i:
        return math.sqrt(3.0 * tau1_i**2 - 2.0 * tau_f**2)
    raise ValueError(f"no-convergence: no sign change below tau1_i for "
                     f"tau_pr({tau_f})")


def liu_condition_check(tau_f, tau_b, pgas, n_grid=10000, slack=1e-10):
    """
    Grid check of the extended entropy condition: the chord from tau_f to
    tau_b must lie below the chord from tau_f to every intermediate
    volume. True when the condition holds on an n_grid-point interior
    grid up to a relative slack, which absorbs the roundoff of the
    sonic-attached shocks whose chord touches the comparison family at
    one endpoint.
    """
    if not tau_b < tau_f:
        raise ValueError(
            f"non-compressive-chord: requires tau_b={tau_b} < tau_f={tau_f}")
    g, S = pgas.gas.gamma, pgas.S

    def chord2(t):
        # h(tau_f) - h(t) term by term: next to tau_f the two enthalpies
        # agree to many digits and their plain difference is noise
        x = np.log1p((tau_f - t) / (t - 1.0))
        dh = (g * S / (g - 1.0) * (t - 1.0) ** (1.0 - g)
              * np.expm1((1.0 - g) * x)
              + S * (t - 1.0) ** -g * np.expm1(-g * x)
              + 2.0 * (tau_f - t) / (tau_f * t))
        return 2.0 * dh / ((tau_f - t) * (tau_f + t))

    tt = np.linspace(tau_b, tau_f, n_grid + 2)[1:-1]
    chord_fb = chord2(tau_b)
    chords = chord2(tt)
    return bool(np.all(chords > chord_fb - slack * abs(chord_fb)))


# ---------------------------------------------------------------------------
# velocity bookkeeping across a front

def oblique_back_velocity(u_f, v_f, phi, tau_f, tau_b):
    """
    Back velocity across a front of inclination phi: tangential component
    kept, normal component scaled by tau_b/tau_f (mass conservation).

    Raises ValueError("expansive-normal...") when the upstream normal
    component is not positive.
    """
    dec = VelocityDecomposition.of(u_f, v_f, phi)
    if dec.N <= 0.0:
        raise ValueError(
            f"expansive-normal: upstream normal component N={dec.N} <= 0")
    back = VelocityDecomposition(L=dec.L, N=tau_b / tau_f * dec.N, phi=phi)
    return back.velocity()


def shock_angle(u, v, N):
    """
    Front inclination phi = sigma + arcsin(N/q) for a given upstream
    normal component N, with sigma the flow direction.

    Raises ValueError("normal-exceeds-speed...") if N > q and
    ValueError("expansive-normal...") if N <= 0.
    """
    q = math.hypot(u, v)
    if N > q:
        raise ValueError(f"normal-exceeds-speed: N={N} > q={q}")
    if N <= 0.0:
        raise ValueError(f"expansive-normal: N={N} <= 0")
    return math.atan2(v, u) + math.asin(N / q)


def classify(sol, gas, tol=1e-8):
    """
    Shock kind by comparing |m| against rho c on each side (relative
    tolerance tol): both equal -> "double_sonic", back only ->
    "post_sonic", front only -> "pre_sonic", neither -> "ordinary".
    """
    m_abs = abs(sol.m)
    rc_f = math.sqrt(-pressure_tau(sol.front.tau, sol.front.S, gas))
    rc_b = math.sqrt(-pressure_tau(sol.back.tau, sol.back.S, gas))
    front_sonic = abs(m_abs - rc_f) <= tol * rc_f
    back_sonic = abs(m_abs - rc_b) <= tol * rc_b
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
    from .thermo import enthalpy
    f, b = sol.front, sol.back
    df = VelocityDecomposition.of(f.u, f.v, sol.phi)
    db = VelocityDecomposition.of(b.u, b.v, sol.phi)
    p_f = pressure(f.tau, f.S, gas)
    p_b = pressure(b.tau, b.S, gas)
    h_f = enthalpy(f.tau, f.S, gas)
    h_b = enthalpy(b.tau, b.S, gas)
    pairs = (
        (df.N / f.tau, db.N / b.tau),
        (df.N**2 / f.tau + p_f, db.N**2 / b.tau + p_b),
        (df.L, db.L),
        (df.N**2 + 2.0 * h_f, db.N**2 + 2.0 * h_b),
    )
    return tuple((x - y) / max(abs(x), abs(y), 1e-30) for x, y in pairs)


def rh_residuals_potential(sol, pgas):
    """
    The three jump-relation residuals (mass, tangential velocity,
    Bernoulli) of a potential-flow shock, scaled as in
    rh_residuals_euler.
    """
    f, b = sol.front, sol.back
    df = VelocityDecomposition.of(f.u, f.v, sol.phi)
    db = VelocityDecomposition.of(b.u, b.v, sol.phi)
    pairs = (
        (df.N / f.tau, db.N / b.tau),
        (df.L, db.L),
        (0.5 * f.q**2 + pgas.h(f.tau), 0.5 * b.q**2 + pgas.h(b.tau)),
    )
    return tuple((x - y) / max(abs(x), abs(y), 1e-30) for x, y in pairs)
