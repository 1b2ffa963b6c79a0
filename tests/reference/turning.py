"""
Closed-form relations on one isentrope and the turning integral of a
potential fan by QUADPACK in the volume: the reference values of the
Riemann invariants r+/- = sigma +/- nu and of the potential fan.

The fan series of the package (bztflow.fan._Turning) integrates the same
rate in u = tau^(-k) on Chebyshev panels; these functions share only the
closed-form rate with it (bztflow.fan._volume_rate), and turning_chain's
fixed Gauss-Legendre rule on intervals too short for QUADPACK.
"""

import math

from scipy.integrate import quad

from bztflow.fan import _volume_rate, turning_chain
from bztflow.thermo import PotentialGas, tau_from_speed


def internal_energy(tau, S, gas):
    """Specific internal energy on the isentrope S."""
    g = gas.gamma
    return S / ((g - 1.0) * (tau - 1.0) ** (g - 1.0)) - 1.0 / tau


def speed_of_tau(pgas, tau):
    """Flow speed at volume tau from the Bernoulli invariant of pgas."""
    gap = 2.0 * (pgas.bernoulli - pgas.h(tau))
    if gap < 0.0:
        raise ValueError(
            f"stagnation-out-of-range: h(tau={tau}) above the Bernoulli "
            "level; no real speed")
    return gap ** 0.5


def turning_in_volume(tau_from, tau_to, pgas):
    """Turning integral int c sqrt(q^2 - c^2)/(tau q^2) dtau from tau_from
    to tau_to on the isentrope of pgas by QUADPACK, the rate in closed form
    (_volume_rate): the reference value of nu between two volumes.  Raises
    "subsonic" at a node where q is not above c."""
    if abs(tau_to - tau_from) <= 1e-9 * min(tau_from, tau_to):
        # QUADPACK reads the rounding on so short an interval as bad
        # integrand behaviour; the smooth rate is exact under turning_chain
        return turning_chain((tau_from, tau_to), pgas)[0][1]

    def rate(tau):
        q2 = 2.0 * (pgas.bernoulli - pgas.h(tau))
        c = pgas.c(tau)
        if q2 <= c * c:
            raise ValueError(f"subsonic: q={math.sqrt(max(q2, 0.0))} at "
                             f"or below c={c} at tau={tau}")
        return _volume_rate(tau, pgas, math)

    val, _ = quad(rate, tau_from, tau_to, epsabs=1e-13, epsrel=1e-12,
                  limit=200)
    return val


def pm_potential(tau, pgas, q_ref, sigma_ref, tau_ref):
    """
    Potential-flow fan on the isentrope of pgas, anchored at the state
    (q_ref, sigma_ref, tau_ref): returns (sigma_hat, alpha_hat) at volume
    tau, where sigma_hat is the flow direction after the turning integral
    and alpha_hat = sigma_hat + arcsin(c/q) the ray angle.  The integral is
    taken in the volume from tau_ref to tau (turning_in_volume).
    """
    anchored = PotentialGas.from_state(pgas.gas, pgas.S, q_ref, tau_ref,
                                       bernoulli=pgas.bernoulli)
    q_hat = speed_of_tau(anchored, tau)
    c_hat = anchored.c(tau)
    if q_hat <= c_hat:
        raise ValueError(f"subsonic: q={q_hat} at or below c={c_hat} "
                         f"at tau={tau}")
    sigma_hat = sigma_ref - turning_in_volume(tau_ref, tau, anchored)
    return sigma_hat, sigma_hat + math.asin(c_hat / q_hat)


def riemann_invariants(u, v, pgas, tau_ref):
    """
    (r_plus, r_minus) = sigma +/- nu with nu the turning integral on the
    isentrope of pgas from the anchor volume tau_ref to the root of the
    Bernoulli law at q, taken in the volume (turning_in_volume).  The
    invariants of two states compare only under one anchor.

    Raises "subsonic" when the state is not supersonic.
    """
    q = math.hypot(u, v)
    tau = tau_from_speed(q, pgas)
    c = pgas.c(tau)
    if q <= c:
        raise ValueError(f"subsonic: q={q} at or below c={c}")
    sigma = math.atan2(v, u)
    nu = turning_in_volume(tau_ref, tau, pgas)
    return sigma + nu, sigma - nu
