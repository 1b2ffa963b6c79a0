# thermo.py
"""
Reduced van der Waals thermodynamics for dense-gas (BZT) flow.

All quantities are in the reduced form with unit covolume: tau > 1 is the
scaled specific volume, and isentropes are labelled by the scaled entropy
S > 0, so that the pressure along an isentrope is

    p(tau, S) = S/(tau-1)^gamma - 1/tau^2.

For gamma between 1 and 2 an isentrope can lose convexity: p_tautau changes
sign between two inflection points (and with it the fundamental derivative
-tau p_tautau/(2 p_tau)), which is the mechanism behind the nonclassical
(rarefaction-shock) wave objects built on top of this module. Two loci
organise that structure:

  * the inflection locus i(tau): states where p_tautau = 0,
  * the double-sonic locus d(tau): states that can be an endpoint of a shock
    whose chord is tangent to the isentrope at both endpoints.

They coincide, tangentially, at tau* = 4/(2-gamma). The entropy value through
that tangency point, S*, is the largest entropy whose isentrope still has
inflection points; S_cr < S* is the smallest entropy whose isentrope stays in
the hyperbolic region (p_tau < 0 everywhere), reached at tau_cr = 3/(2-gamma).
Both are closed forms.  The entropy S_hat(tau) of the double-sonic locus rises
from 0 at tau = 1 to S* at tau*, then falls to a minimum S_b at a closed-form
tau_m before rising again, so the crossings of an isentrope with that locus
are single bracketed roots.  The front crossing tau_f_e < tau* exists on every
isentrope below S* (front_locus_volume); for gamma above about 1.404,
S_b > S_cr and isentropes in (S_cr, S_b] have no back crossing
(locus_intersections).

Euler flow carries (tau, S) states; potential flow freezes one isentrope and
adds a Bernoulli constant, wrapped in PotentialGas.
"""

from dataclasses import dataclass
from functools import cached_property

from scipy.optimize import brentq

BRENT_XTOL = 1e-13
BRENT_MAXITER = 200


@dataclass(frozen=True)
class GasModel:
    """Reduced van der Waals gas with polytropic exponent gamma in (1, 2)."""

    gamma: float

    def __post_init__(self):
        g = self.gamma
        if not (1.0 < g < 2.0 - 1e-6):
            raise ValueError(
                f"gamma-out-of-range: gamma={g} must lie in (1, 2-1e-6)")


# ---------------------------------------------------------------------------
# pressure and its partial derivatives

def pressure(tau, S, gas):
    """
    Pressure on the isentrope S at volume tau.

    tau: scaled specific volume (> 1)
    S: scaled entropy (> 0)
    gas: GasModel
    Returns: p
    """
    return S / (tau - 1.0) ** gas.gamma - 1.0 / tau**2


def pressure_tau(tau, S, gas):
    """d p / d tau at fixed S."""
    g = gas.gamma
    return -g * S / (tau - 1.0) ** (g + 1.0) + 2.0 / tau**3


def pressure_tautau(tau, S, gas):
    """d2 p / d tau2 at fixed S."""
    g = gas.gamma
    return g * (g + 1.0) * S / (tau - 1.0) ** (g + 2.0) - 6.0 / tau**4


def entropy_of(p, tau, gas):
    """Entropy label of the isentrope through (p, tau)."""
    return (p + 1.0 / tau**2) * (tau - 1.0) ** gas.gamma


# ---------------------------------------------------------------------------
# derived state functions

def sound_speed(tau, S, gas):
    """
    Sound speed c = tau * sqrt(-p_tau).

    Raises ValueError("subsonic-thermo...") when p_tau >= 0, i.e. when the
    state has left the hyperbolic region.  Past the float range of tau^3
    and (tau-1)^(gamma+1), c^2 is taken from powers that stay in range.
    """
    try:
        pt = pressure_tau(tau, S, gas)
    except OverflowError:
        # c^2 = gamma S (tau/(tau-1))^2 (tau-1)^(1-gamma) - 2/tau
        c2 = (gas.gamma * S * (tau / (tau - 1.0)) ** 2
              * (tau - 1.0) ** (1.0 - gas.gamma) - 2.0 / tau)
        if c2 > 0.0:
            return c2 ** 0.5
        pt = -c2 / tau / tau
    if pt >= 0.0:
        raise ValueError(
            f"subsonic-thermo: p_tau={pt} >= 0 at tau={tau}, S={S}; "
            "state outside the hyperbolic region")
    return tau * (-pt) ** 0.5


def enthalpy(tau, S, gas):
    """
    Specific enthalpy, normalised so that h -> 0 as tau -> infinity.

    Satisfies h_tau = tau * p_tau along an isentrope.
    """
    g = gas.gamma
    return (g * S / ((g - 1.0) * (tau - 1.0) ** (g - 1.0))
            + S / (tau - 1.0) ** g - 2.0 / tau)


# ---------------------------------------------------------------------------
# the two organising loci

def inflection_locus(tau, gas):
    """
    Pressure i(tau) at which the isentrope through (i, tau) has an
    inflection point exactly at tau.
    """
    g = gas.gamma
    return ((6.0 / (g * (g + 1.0)) * (1.0 - 1.0 / tau) ** 2 - 1.0) / tau**2)


def inflection_entropy(tau, gas):
    """Entropy label S(i(tau), tau) of the inflection locus."""
    return entropy_of(inflection_locus(tau, gas), tau, gas)


def double_sonic_locus(tau, gas):
    """
    Pressure d(tau) of the double-sonic locus: the set of states that can be
    either endpoint of a shock whose chord is tangent to the isentrope at
    both endpoints. Touches i(tau) exactly at tau* = 4/(2-gamma).
    """
    g = gas.gamma
    num = ((2.0 - g) ** 2 * tau**3
           - (2.0 - g) * (4.0 - 3.0 * g) * tau**2
           - 8.0 * (g - 1.0) * tau
           - 4.0)
    return num / (2.0 * g * (g + 1.0) * tau**4)


def double_sonic_entropy(tau, gas):
    """
    Entropy label S_hat(tau) = S(d(tau), tau) of the double-sonic locus.

    Computed by composition rather than from an expanded polynomial so that
    S_hat(tau*) equals S* to rounding.
    """
    return entropy_of(double_sonic_locus(tau, gas), tau, gas)


def eta_hat(tau, gas):
    """
    Volume ratio tau_b/tau_f of the double-sonic shock whose front volume is
    tau: the double root of the sonic-shock quadratic on the locus d.
    """
    den = (2.0 - gas.gamma) * tau - 2.0
    if den <= 0.0:
        raise ValueError(
            f"not-on-locus: tau={tau} below the double-sonic ratio pole")
    return 2.0 / den


def _tangency(gas):
    """(tau*, S*): the tangency volume 4/(2-gamma) of the loci and the
    entropy through it."""
    tau_star = 4.0 / (2.0 - gas.gamma)
    return tau_star, inflection_entropy(tau_star, gas)


def critical_entropies(gas):
    """
    The two organising entropy values of the gas.

    Returns (S_star, tau_star, S_cr):
      S_star: entropy through the tangency point of the loci; for S above it
              the isentrope has no inflection points.
      tau_star: the tangency volume 4/(2-gamma).
      S_cr: entropy whose isentrope is tangent to the p_tau = 0 boundary; for
            S above it, p_tau < 0 for every tau > 1.

    Both are closed forms.  S_cr is the maximum of the p_tau = 0 envelope
    S = 2 (tau-1)^(gamma+1) / (gamma tau^3), reached at
    tau_cr = 3/(2-gamma), where p_tautau vanishes too.
    """
    g = gas.gamma
    tau_star, S_star = _tangency(gas)
    tau_cr = 3.0 / (2.0 - g)
    S_cr = 2.0 * (tau_cr - 1.0) ** (g + 1.0) / (g * tau_cr**3)
    return S_star, tau_star, S_cr


def inflection_roots(S, gas):
    """
    The two inflection volumes tau1 < tau* < tau2 of the isentrope S.

    Raises ValueError("no-inflection...") when S >= S* (the pair has
    coalesced) or S <= 0, and when no bracket of 200 doublings above tau*
    reaches tau2 (near gamma = 2 it lies past the largest float).
    """
    tau_star, S_star = _tangency(gas)
    if S <= 0.0 or S >= S_star:
        raise ValueError(
            f"no-inflection: S={S} outside (0, S*={S_star}); the isentrope "
            "has no inflection pair")

    def f(t):
        return pressure_tautau(t, S, gas)

    lo = 1.0 + 1e-12
    while f(lo) <= 0.0:
        lo = 1.0 + (lo - 1.0) * 1e2
        if lo >= tau_star:
            raise ValueError(f"no-inflection: bracket failure at S={S}")
    tau1 = brentq(f, lo, tau_star, xtol=BRENT_XTOL, maxiter=BRENT_MAXITER)
    hi = 2.0 * tau_star
    for _ in range(200):
        if f(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise ValueError(f"no-inflection: no upper bracket at S={S}")
    tau2 = brentq(f, tau_star, hi, xtol=BRENT_XTOL, maxiter=BRENT_MAXITER)
    return tau1, tau2


def _locus_gap(S, gas):
    # p - d on the isentrope S, (S - S_hat(tau)) / (tau-1)^gamma
    return lambda t: pressure(t, S, gas) - double_sonic_locus(t, gas)


def front_locus_volume(S, gas):
    """
    Volume tau_f_e < tau* where the isentrope S crosses the double-sonic
    locus: the front volume of its double-sonic shock.

    S_hat rises from 0 at tau = 1 to S* at tau* (see locus_intersections),
    so for every S in (0, S*) this is the one root of p - d on (1, tau*).
    Raises ValueError("no-intersection...") when S is not in (0, S*).
    """
    tau_star, S_star = _tangency(gas)
    if not 0.0 < S < S_star:
        raise ValueError(
            f"no-intersection: S={S} not in (0, S*={S_star})")
    return brentq(_locus_gap(S, gas), 1.0 + 1e-12, tau_star,
                  xtol=BRENT_XTOL, maxiter=BRENT_MAXITER)


def locus_intersections(S, gas):
    """
    Volumes (tau_f_e, tau_b_e) where the isentrope S crosses the
    double-sonic locus, taken as the first crossing on each side of tau*.
    They bracket the inflection pair: tau_f_e < tau1 < tau* < tau2 < tau_b_e.

    On the isentrope p - d = (S - S_hat(tau)) / (tau-1)^gamma, and
    S_hat' vanishes for tau > 1 only at tau* and at
    tau_m = (3 gamma - 2 + sqrt(5 gamma^2 - 4)) / ((gamma-1)(2-gamma)):
    S_hat rises from 0 at tau = 1 to S* at tau*, then falls to its minimum
    S_b = S_hat(tau_m).  So tau_f_e is the one root of p - d on (1, tau*)
    (front_locus_volume), and a back crossing exists exactly when S > S_b,
    as the one root on (tau*, tau_m).  S_b lies above S_cr for gamma above
    about 1.404, where it closes the back crossing on a band of entropies.

    Raises ValueError("no-intersection...") when S is not in (0, S*) or
    not above S_b (no crossings adjacent to tau*).
    """
    g = gas.gamma
    tau_f_e = front_locus_volume(S, gas)
    f = _locus_gap(S, gas)
    tau_m = ((3.0 * g - 2.0 + (5.0 * g * g - 4.0) ** 0.5)
             / ((g - 1.0) * (2.0 - g)))
    if not f(tau_m) > 0.0:
        raise ValueError(f"no-intersection: no locus crossing at S={S}")
    return tau_f_e, brentq(f, 4.0 / (2.0 - g), tau_m, xtol=BRENT_XTOL,
                           maxiter=BRENT_MAXITER)


# ---------------------------------------------------------------------------
# potential-flow gas model

@dataclass(frozen=True)
class PotentialGas:
    """
    One frozen isentrope plus a Bernoulli invariant, as used by the
    irrotational (potential) flow model.

    gas: underlying GasModel
    S: the frozen entropy label
    bernoulli: value of q^2/2 + h along the flow (default 0, the convention
        in which the enthalpy offset absorbs the incoming state)
    h_ref: additive enthalpy normalization; h(tau) = h_nat(tau) + h_ref where
        h_nat -> 0 as tau -> infinity, so h_ref is the vacuum enthalpy
    """

    gas: GasModel
    S: float
    bernoulli: float = 0.0
    h_ref: float = 0.0

    @classmethod
    def from_state(cls, gas, S, q0, tau0, bernoulli=0.0):
        """
        Build the model through the state of speed q0 and volume tau0,
        shifting the enthalpy so that q0^2/2 + h(tau0) = bernoulli.
        """
        h_ref = bernoulli - 0.5 * q0**2 - enthalpy(tau0, S, gas)
        return cls(gas=gas, S=S, bernoulli=bernoulli, h_ref=h_ref)

    # -- curve evaluations on the frozen isentrope ------------------------
    def p_tau(self, tau):
        return pressure_tau(tau, self.S, self.gas)

    def h(self, tau):
        return enthalpy(tau, self.S, self.gas) + self.h_ref

    def c(self, tau):
        return sound_speed(tau, self.S, self.gas)

    @cached_property
    def inflection_pair(self):
        """(tau1_i, tau2_i) of the frozen isentrope, solved on first use and
        kept on this instance (equality and hashing see only the fields)."""
        return inflection_roots(self.S, self.gas)

    def q_limit(self):
        """Cavitation speed sqrt(2 (bernoulli - h_ref)), h_ref being the
        enthalpy in the vacuum limit tau -> infinity."""
        gap = 2.0 * (self.bernoulli - self.h_ref)
        if gap <= 0.0:
            raise ValueError(
                f"cavitation: bernoulli={self.bernoulli} at or below the "
                "vacuum enthalpy")
        return gap ** 0.5


def tau_from_speed(q, pgas):
    """
    Volume tau with q^2/2 + h(tau) = bernoulli on the potential model.

    The enthalpy is strictly decreasing in tau, so the root is unique.
    Raises ValueError("cavitation...") for q at or beyond the cavitation
    speed and ValueError("stagnation-out-of-range...") when no bracket
    exists at the low-speed end or the root lies past the float range of h.
    """
    target = pgas.bernoulli - 0.5 * q * q
    if target <= pgas.h_ref:
        raise ValueError(
            f"cavitation: speed q={q} at or beyond the cavitation speed "
            f"{pgas.q_limit()}")

    def f(t):
        return pgas.h(t) - target

    lo, hi = 1.0 + 1e-12, 2.0
    if not f(lo) >= 0.0:        # NaN too
        raise ValueError(
            f"stagnation-out-of-range: no volume with h = {target}")
    try:
        while f(hi) >= 0.0:
            lo, hi = hi, 2.0 * hi
    except OverflowError as exc:
        raise ValueError(
            f"stagnation-out-of-range: no volume with h = {target}") from exc
    return brentq(f, lo, hi, xtol=BRENT_XTOL, maxiter=BRENT_MAXITER)
