"""
Piecewise self-similar wedge flows, assembled in the ray angle.

Two constructions are provided.  `solve_euler_fsf` builds the centred
expansion of a supersonic stream around a downward wall turn when the
incoming volume sits below the sonic-chord window: a leading fan carries
the state to the front volume of the double-sonic pair, an expansion
shock embedded along a common characteristic jumps across the window,
and a trailing fan (or a cavitation tail) finishes the turn onto the
wall.  `solve_potential_sfs` builds the compressive counterpart on one
isentrope: a leading shock with a sonic back side, an attached fan, and
a trailing shock with a sonic front side, the wall state picked on the
composite wave curve.

Solutions depend on position through the ray angle only; `evaluate`
samples them at a point and `validate` re-checks the jump relations,
junction continuity, admissibility and the wall condition, reporting
residuals without raising.  It serves both systems through the model
each solution carries (`EulerModel`, `PotentialModel`), and admits a
shock when every side of it that borders a fan is sonic
(`shocks.SONIC_SIDES`).
"""

import math
from dataclasses import dataclass, field

from .thermo import (GasModel, PotentialGas, critical_entropies, enthalpy,
                     front_locus_volume, sound_speed)
from .shocks import (SONIC_SIDES, FlowState, double_sonic_back_state,
                     liu_condition_check, oblique_shock, rh_residuals_euler,
                     rh_residuals_potential)
from .fan import FanSolution, integrate_fan, turning_chain
from .wavecurves import shock_fan_shock_branch, wall_tail_shock
# ramp_context stays bound here: the benchmark tracer wraps
# selfsimilar.ramp_context
from .wavecurves import ramp_context  # noqa: F401


class _Vacuum:
    """Distinguished cavitation value returned by evaluate()."""

    __slots__ = ()

    def __repr__(self):
        return "VACUUM"


VACUUM = _Vacuum()


# EulerFanPiece and PotentialFanPiece stay bound here: the benchmark checks
# parametrize over both names
EulerFanPiece = PotentialFanPiece = FanSolution


@dataclass(frozen=True)
class Piece:
    """One angular sector of a solution: constant state, fan, or vacuum."""

    kind: str                  # "constant" | "fan" | "vacuum"
    theta_hi: float
    theta_lo: float
    state: FlowState = None    # constant pieces only
    fan: FanSolution = None    # fan pieces of either system

    def state_at(self, theta):
        if self.kind == "constant":
            return self.state
        if self.kind == "vacuum":
            return VACUUM
        return self.fan.state_at(theta)


@dataclass(frozen=True)
class SelfSimilarSolution:
    """A wedge flow as a tiling of (theta_w, pi/2] by pieces.

    `model` is the EulerModel or PotentialModel the solution solves;
    `breakpoints` are the interior junction rays in decreasing order;
    `shocks` pairs a junction ray with the resolved jump sitting on it;
    `meta` carries the assembly angles and the gas description.
    """

    model: object              # EulerModel | PotentialModel
    theta_w: float
    breakpoints: tuple
    pieces: tuple
    shocks: tuple
    meta: dict = field(default_factory=dict, repr=False)

    @property
    def system(self):
        return self.model.system


def evaluate(solution, x, y):
    """State of the solution at the point (x, y), x > 0.

    On a shock ray the upstream (larger-angle) side is returned; inside
    a cavitation sector the distinguished VACUUM value is returned.
    """
    if not x > 0.0:
        raise ValueError(f"outside-domain: x={x} not positive")
    theta = math.atan2(y, x)
    if not theta > solution.theta_w:
        raise ValueError(
            f"outside-domain: theta={theta} at or below the wall angle "
            f"{solution.theta_w}")
    for piece in solution.pieces:
        if theta >= piece.theta_lo:
            return piece.state_at(theta)


# ---------------------------------------------------------------------------
# full-system assembly: fan, embedded expansion shock, fan


def solve_euler_fsf(u0, tau0, S0, theta_w, gas):
    """
    Centred turn of the uniform supersonic stream (u0, 0) at finite speed
    u0, volume tau0 and entropy S0 around a wall dropping at theta_w in
    (-pi, 0); a direction at or below -pi is the line of one at or above 0.

    Assumption A1: S0 lies in (S_cr, S*), between the hyperbolicity bound
    and the window-closing value, and tau0 in (1, tau_f_e), below the
    front volume of the double-sonic pair of its isentrope, where it
    crosses the double-sonic locus (thermo.front_locus_volume).  The
    locus's back crossing plays no part, so the band of entropies that
    lack one (thermo.locus_intersections) is solved too.  Violations raise
    "assumption-A1-violated" listing the failing clauses.  A wall angle
    at or above the flow deflection behind the embedded shock leaves the
    trailing fan nothing to do and raises "wedge-angle-above-sigma_d".
    Walls steeper than the total available turning produce a cavitation
    sector instead of a slip line.  A failure inside a stage is re-raised
    with the stage's prefix, chained to the inner coded error:
    "leading-fan: " and "trailing-fan: " (fan.integrate_fan),
    "embedded-shock: " (the double-sonic jump).
    """
    S_star, _, S_cr = critical_entropies(gas)
    clauses = []
    tau_fe = None
    if not S_cr < S0 < S_star:
        clauses.append(f"S0={S0} not in (S_cr={S_cr}, S_star={S_star})")
    else:
        tau_fe = front_locus_volume(S0, gas)
        if not 1.0 < tau0 < tau_fe:
            clauses.append(f"tau0={tau0} not in (1, tau_f_e={tau_fe})")
    c0 = None
    if tau0 > 1.0:
        c0 = sound_speed(tau0, S0, gas)
        if not c0 < u0 < math.inf:
            clauses.append(f"u0={u0} not above c0={c0} or not finite")
    if not -math.pi < theta_w < 0.0:
        clauses.append(f"theta_w={theta_w} not negative or not above -pi")
    if clauses:
        raise ValueError("assumption-A1-violated: " + "; ".join(clauses))

    alpha0 = math.asin(c0 / u0)
    state0 = FlowState(u0, 0.0, tau0, S0)

    try:
        left = integrate_fan(u0, tau0, 0.0, S0, alpha0, tau_fe, gas)
    except ValueError as exc:
        raise ValueError(f"leading-fan: {exc}") from exc
    phi_d = left.theta_end
    front = left.state_at(phi_d)

    try:
        tau_d, S_d, _ = double_sonic_back_state(tau_fe, gas, S_f=S0)
        shock = oblique_shock(front, phi_d, tau_d, S_d, gas)
    except ValueError as exc:
        raise ValueError(f"embedded-shock: {exc}") from exc
    back = shock.back

    sigma_d = back.sigma
    if theta_w >= sigma_d:
        raise ValueError(
            f"wedge-angle-above-sigma_d: theta_w={theta_w} not below "
            f"sigma_d={sigma_d}")
    # the trailing fan runs to vacuum once; its end ray is the vacuum ray
    try:
        right = integrate_fan(back.q, tau_d, sigma_d, S_d, phi_d, math.inf,
                              gas)
    except ValueError as exc:
        raise ValueError(f"trailing-fan: {exc}") from exc
    alpha_v = right.theta_end

    model = EulerModel(gas, left.pgas.bernoulli)
    meta = {"gas": gas, "S0": S0, "S_d": S_d, "tau_f_e": tau_fe,
            "tau_d": tau_d, "alpha0": alpha0, "phi_d": phi_d,
            "sigma_d": sigma_d, "alpha_v": alpha_v}
    if theta_w > alpha_v:
        # theta_w in (alpha_v, sigma_d): the trailing fan's flow directions
        right = right.slip_line(theta_w)
        alpha_end = meta["alpha_w"] = right.theta_end
        q_w, tau_w, _, _ = right.state(alpha_end)
        # the wall state keeps the slip speed and volume and is aligned
        # with the wall exactly; the root residual lands in the junction
        # gap, orders below its tolerance
        wall = Piece("constant", alpha_end, theta_w, state=FlowState(
            q_w * math.cos(theta_w), q_w * math.sin(theta_w), tau_w, S_d))
    else:
        alpha_end = meta["theta_cav"] = alpha_v
        meta["q_lim"] = right.state(alpha_v)[0]
        wall = Piece("vacuum", alpha_v, theta_w)

    pieces = (Piece("constant", 0.5 * math.pi, alpha0, state=state0),
              Piece("fan", alpha0, phi_d, fan=left),
              Piece("fan", phi_d, alpha_end, fan=right), wall)
    return SelfSimilarSolution(model, theta_w, (alpha0, phi_d, alpha_end),
                               pieces, ((phi_d, shock),), meta)


# ---------------------------------------------------------------------------
# potential assembly: leading shock, attached fan, trailing shock


def solve_potential_sfs(u0, tau0, theta_w, pgas):
    """
    Compressive turn of the stream (u0, 0) at volume tau0 on the
    isentrope of pgas onto a wall rising at theta_w, with the wall state
    picked on the composite branch of the wave curve.

    The composite branch comes from the wave-curve memo, so walls solved
    on one incoming state after its deflection range share one build of
    the branch, its ramp context and the head shock that context carries.

    Window and admissibility failures propagate from the wave-curve
    layer ("subsonic", "out-of-window", "mach-reflection-regime",
    "bernoulli-mismatch", "no-root"); a subsonic wall state raises
    "subsonic" too.
    """
    branch = shock_fan_shock_branch(u0, tau0, pgas)
    ctx = branch.context
    head, tail = ctx.head, wall_tail_shock(theta_w, branch)
    attached = ctx.fan(tail)
    alpha_tail = attached.theta_end

    q_t, c_t = tail.back.q, pgas.c(tail.back.tau)
    if q_t <= c_t:
        raise ValueError(f"subsonic: wall state q={q_t} at or below c={c_t}")
    wall = FlowState(q_t * math.cos(theta_w), q_t * math.sin(theta_w),
                     tail.back.tau, pgas.S)

    pieces = (
        Piece("constant", 0.5 * math.pi, head.phi, state=head.front),
        Piece("fan", head.phi, alpha_tail, fan=attached),
        Piece("constant", alpha_tail, theta_w, state=wall),
    )
    meta = {"pgas": pgas, "context": ctx, "branch": branch,
            "tau_w": tail.front.tau, "phi_po": head.phi,
            "alpha_tail": alpha_tail}
    return SelfSimilarSolution(PotentialModel(pgas), theta_w,
                               (head.phi, alpha_tail), pieces,
                               ((head.phi, head), (alpha_tail, tail)), meta)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    """Residual summary of a solution; every check reports, none raises.
    Both systems fill bernoulli_spread; the checks a system does not make
    (liu_ok, entropy_increasing, r_plus_spread) stay None."""

    system: str
    max_junction_gap: float
    max_rh_residual: float
    shock_kinds: tuple
    admissible: bool
    slip_residual: float
    wall_supersonic: bool
    bernoulli_spread: float
    vacuum_match: float
    liu_ok: bool = None
    entropy_increasing: bool = None
    r_plus_spread: float = None

    @property
    def ok(self):
        gates = [self.max_junction_gap < 1e-9,
                 self.max_rh_residual < 1e-9,
                 self.admissible,
                 self.slip_residual < 1e-9,
                 self.wall_supersonic,
                 self.entropy_increasing is not False,
                 self.liu_ok is not False]
        # the system's spreads and the vacuum seam gate where they apply
        gates += [r < 1e-9 for r in (self.bernoulli_spread, self.r_plus_spread,
                                     self.vacuum_match) if r is not None]
        return all(gates)


def _bernoulli_spread(solution, h, B):
    """max |0.5 q^2 + h(state) - B| on three rays of each non-vacuum piece"""
    spread = 0.0
    for piece in (p for p in solution.pieces if p.kind != "vacuum"):
        mid = 0.5 * (piece.theta_hi + piece.theta_lo)
        for theta in (piece.theta_hi, mid, piece.theta_lo):
            st = piece.state_at(min(theta, 0.5 * math.pi))
            spread = max(spread, abs(0.5 * st.q**2 + h(st) - B))
    return spread


@dataclass(frozen=True)
class EulerModel:
    """Full Euler system.  `checks` returns the ValidationReport fields it
    fills: the entropy rise across the shocks and 0.5 q^2 + h about B0."""

    gas: GasModel
    B0: float
    system = "euler"

    def rh_residuals(self, shock):
        return rh_residuals_euler(shock, self.gas)

    def sound(self, state):
        return sound_speed(state.tau, state.S, self.gas)

    def checks(self, solution):
        h = lambda st: enthalpy(st.tau, st.S, self.gas)
        return {"entropy_increasing": all(sh.back.S > sh.front.S
                                          for _, sh in solution.shocks),
                "bernoulli_spread": _bernoulli_spread(solution, h, self.B0)}


@dataclass(frozen=True)
class PotentialModel:
    """Potential system on the isentrope of pgas; its `checks` return the
    ValidationReport fields of the Liu condition on every shock, 0.5 q^2 +
    h about pgas.bernoulli, and the spread of r+ over five rays of each fan
    (fan.turning_chain)."""

    pgas: PotentialGas
    system = "potential"

    def rh_residuals(self, shock):
        return rh_residuals_potential(shock, self.pgas)

    def sound(self, state):
        return self.pgas.c(state.tau)

    def checks(self, solution):
        pgas = self.pgas
        liu_ok = True
        for _, sh in solution.shocks:
            lo, hi = sorted((sh.front.tau, sh.back.tau))
            if hi - lo <= 1e-10 * hi:
                continue        # zero-strength limit: nothing to compare
            # slack consistent with the wave-curve tests: the margin has a
            # double zero at a sonic-attached endpoint
            if not (sh.back.tau < sh.front.tau
                    and liu_condition_check(sh.front.tau, sh.back.tau, pgas,
                                            slack=1e-6)):
                liu_ok = False
        bernoulli_spread = _bernoulli_spread(
            solution, lambda st: pgas.h(st.tau), pgas.bernoulli)
        spreads = []
        for piece in (p for p in solution.pieces if p.kind == "fan"):
            states = [piece.state_at(piece.theta_lo
                                     + f * (piece.theta_hi - piece.theta_lo))
                      for f in (0.0, 0.25, 0.5, 0.75, 1.0)]
            nu, err = turning_chain([st.tau for st in states], pgas)
            r_plus = [st.sigma + n for st, n in zip(states, nu)]
            spreads.append(max(r_plus) - min(r_plus) + err)
        return {"liu_ok": liu_ok, "bernoulli_spread": bernoulli_spread,
                "r_plus_spread": max(spreads, default=None)}


def _state_gap(a, b):
    return max(abs(a.u - b.u), abs(a.v - b.v),
               abs(a.tau - b.tau) / max(a.tau, b.tau),
               abs(a.S - b.S) / max(a.S, b.S, 1e-30))


def validate(solution):
    """Re-check every interface of an assembled solution.

    Junction continuity is measured against the shock front/back states
    where a jump sits on the junction and directly across it elsewhere;
    jump relations are re-evaluated from the stored shock objects, so a
    tampered solution is flagged rather than rejected.  A shock is
    admissible when each side of it that borders a fan is sonic; the jump
    relations, sound speed and system checks come from solution.model.
    """
    model = solution.model
    shock_on = dict(solution.shocks)

    max_gap = 0.0
    vacuum_match = None
    admissible = True
    for bp, upper, lower in zip(solution.breakpoints, solution.pieces,
                                solution.pieces[1:]):
        if lower.kind == "vacuum":
            vacuum_match = abs(upper.state_at(bp).q - solution.meta["q_lim"])
            continue
        up, low = upper.state_at(bp), lower.state_at(bp)
        sh = shock_on.get(bp)
        if sh is None:
            max_gap = max(max_gap, _state_gap(up, low))
            continue
        max_gap = max(max_gap, _state_gap(up, sh.front),
                      _state_gap(low, sh.back))
        sonic = SONIC_SIDES.get(sh.kind, ())
        admissible &= all(side in sonic for side, piece in
                          (("front", upper), ("back", lower))
                          if piece.kind == "fan")

    max_rh = 0.0
    for _, sh in solution.shocks:
        max_rh = max(max_rh, max(abs(r) for r in model.rh_residuals(sh)))

    # a wall under a cavitation sector has nothing to slip or to choke
    slip_residual, wall_supersonic = 0.0, True
    wall = solution.pieces[-1].state_at(solution.theta_w)
    if wall is not VACUUM:
        slip_residual = abs(wall.v - wall.u * math.tan(solution.theta_w))
        wall_supersonic = wall.q > model.sound(wall)

    return ValidationReport(
        system=model.system,
        max_junction_gap=max_gap,
        max_rh_residual=max_rh,
        shock_kinds=tuple(sh.kind for _, sh in solution.shocks),
        admissible=admissible,
        slip_residual=slip_residual,
        wall_supersonic=wall_supersonic,
        vacuum_match=vacuum_match,
        **model.checks(solution),
    )
