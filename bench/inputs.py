"""
Seeded input generators for the benchmark workloads.

The generators never call bztflow: every landmark that bounds an input
domain (S_cr, S*, the inflection pair, the tangent-chord limit tau_c and the
front double-sonic crossing tau_f_e) is recomputed here from the closed-form
reduced van der Waals relations and plain bracketing.  If the domain edges
came from the package, a defect in a landmark routine would move the inputs
with it and never reach the solver; computed independently, inputs inside
the documented domain whose landmark the package cannot find fail in the
solver and are counted.

Inputs are scrambled-Sobol points, so every prefix of 2^k cases covers each
axis evenly and the mix of slow and fast cases varies little between seeds.
"""

import math

import numpy as np
from scipy.optimize import brentq
from scipy.stats import qmc

GAMMA_RANGE = (1.3, 1.9)
# incoming Mach numbers on both ramps: the documented range of the Euler
# expansion ramp, used for the potential compression ramp as well, where the
# package documents no narrower one
MACH_RANGE = (1.5, 10.0)
# the potential model's Bernoulli constant; any value works since only
# enthalpy differences enter, 1.0 matches the compression-ramp fixture
BERNOULLI = 1.0


# ---------------------------------------------------------------------------
# reduced van der Waals relations (unit covolume)

def _p(tau, S, g):
    return S / (tau - 1.0) ** g - 1.0 / tau**2


def _p_tau(tau, S, g):
    return -g * S / (tau - 1.0) ** (g + 1.0) + 2.0 / tau**3


def enthalpy(tau, S, g):
    """Specific enthalpy, normalised to vanish at infinite volume."""
    return (g * S / ((g - 1.0) * (tau - 1.0) ** (g - 1.0))
            + S / (tau - 1.0) ** g - 2.0 / tau)


def _double_sonic_p(tau, g):
    num = ((2.0 - g) ** 2 * tau**3
           - (2.0 - g) * (4.0 - 3.0 * g) * tau**2
           - 8.0 * (g - 1.0) * tau
           - 4.0)
    return num / (2.0 * g * (g + 1.0) * tau**4)


def _inflection_S(tau, g):
    # entropy whose isentrope has p_tautau = 0 at tau
    return 6.0 * (tau - 1.0) ** (g + 2.0) / (g * (g + 1.0) * tau**4)


def sound_speed(tau, S, g):
    return tau * math.sqrt(-_p_tau(tau, S, g))


def entropy_window(g):
    """(S_cr, S_star): the hyperbolicity bound is the peak of the p_tau = 0
    envelope, at tau = 3/(2-g); S* sits on the inflection locus at
    tau* = 4/(2-g)."""
    t_cr = 3.0 / (2.0 - g)
    S_cr = 2.0 * (t_cr - 1.0) ** (g + 1.0) / (g * t_cr**3)
    return S_cr, _inflection_S(4.0 / (2.0 - g), g)


def inflection_pair(S, g):
    """(tau1_i, tau2_i): both roots of S_i(tau) = S around tau*."""
    t_star = 4.0 / (2.0 - g)
    f = lambda t: _inflection_S(t, g) - S
    hi = 2.0 * t_star
    while f(hi) > 0.0:
        hi *= 2.0
    return brentq(f, 1.0, t_star, xtol=1e-13), brentq(f, t_star, hi,
                                                      xtol=1e-13)


def tangent_chord_volume(S, g):
    """tau_c > tau2_i whose squared-volume chord to tau1_i is tangent to
    the isentrope at tau1_i."""
    t1, t2 = inflection_pair(S, g)
    slope = _p_tau(t1, S, g)
    h1 = enthalpy(t1, S, g)
    f = lambda t: 2.0 * (enthalpy(t, S, g) - h1) / (t * t - t1 * t1) - slope
    hi = 2.0 * t2
    while f(hi) <= 0.0:
        hi *= 2.0
    return brentq(f, t2, hi, xtol=1e-13)


def front_double_sonic_volume(S, g):
    """tau_f_e: the crossing of the isentrope with the double-sonic locus
    nearest below tau*, bracketed on a geometric grid between 1 and tau*."""
    t_star = 4.0 / (2.0 - g)
    f = lambda t: _p(t, S, g) - _double_sonic_p(t, g)
    grid = 1.0 + (t_star - 1.0) * np.geomspace(1.0, 1e-9, 4000)
    pos = f(grid) > 0.0
    change = np.flatnonzero(pos[1:] != pos[:-1])
    if change.size:
        k = int(change[0])
        return brentq(f, grid[k + 1], grid[k], xtol=1e-13)
    raise ValueError(f"no front double-sonic crossing at S={S}, gamma={g}")


# ---------------------------------------------------------------------------
# case generators

def _sobol(dim, n, seed):
    m = max(0, math.ceil(math.log2(max(n, 1))))
    pts = qmc.Sobol(dim, scramble=True, seed=seed).random_base2(m)
    return pts[:n]


def _lerp(lo, hi, x):
    return lo + (hi - lo) * float(x)


def _thermo_state(g, s_frac):
    S_cr, S_star = entropy_window(g)
    return _lerp(S_cr, S_star, s_frac)


def euler_cases(seed, n):
    """n expansion-ramp cases drawn over the A1 domain: gamma, S in
    (S_cr, S*), tau0 in (1, tau_f_e), Mach in [1.5, 10], theta_w in
    (-pi/2, 0).  Each case is a dict of the constructor's arguments plus
    the incoming Mach number."""
    cases = []
    # the first two Sobol coordinates are the best stratified; they go to
    # the wall angle and the Mach number, which decide between a slip-line
    # and a tenfold dearer cavitation solve
    for x_theta, x_mach, x_S, x_g, x_tau in _sobol(5, n, seed):
        g = _lerp(*GAMMA_RANGE, x_g)
        S = _thermo_state(g, x_S)
        tau0 = _lerp(1.0, front_double_sonic_volume(S, g), x_tau)
        mach = _lerp(*MACH_RANGE, x_mach)
        cases.append({"gamma": g, "S0": S, "tau0": tau0,
                      "u0": mach * sound_speed(tau0, S, g),
                      "theta_w": -0.5 * math.pi * float(x_theta),
                      "mach": mach})
    return cases


def potential_states(seed, n):
    """n compression-ramp incoming states: gamma, S in (S_cr, S*), tau0 in
    (tau2_i, tau_c), Mach in [1.5, 10], on a potential model with Bernoulli
    constant BERNOULLI."""
    states = []
    # the best stratified coordinates go to S and tau0, whose low corner
    # holds the slowest solves
    for x_S, x_tau, x_g, x_mach in _sobol(4, n, seed):
        g = _lerp(*GAMMA_RANGE, x_g)
        S = _thermo_state(g, x_S)
        _, t2 = inflection_pair(S, g)
        tau0 = _lerp(t2, tangent_chord_volume(S, g), x_tau)
        mach = _lerp(*MACH_RANGE, x_mach)
        states.append({"gamma": g, "S": S, "tau0": tau0,
                       "u0": mach * sound_speed(tau0, S, g),
                       "bernoulli": BERNOULLI, "mach": mach})
    return states


def ray_fractions(seed, n):
    """n fractions in (0, 1) placing query rays uniformly in a fan sector."""
    return np.random.default_rng(seed).random(n)
