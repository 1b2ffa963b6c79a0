"""
Correctness gate: the three pinned fixtures against their frozen literals.

The literals are those asserted by tests/test_selfsimilar.py, which were
frozen by tests/oracles/gen_expected.py without importing the package; each
is compared at the tolerance the test suite applies to it.  The gate also
requires `validate(sol).ok` for every fixture.
"""

import math

from bztflow import selfsimilar as ss
from bztflow.thermo import GasModel, PotentialGas

G15 = GasModel(gamma=1.5)
S98 = 0.3473995491020514

# expansion ramp at Mach 2: tau0 = 0.9 tau_f_e, slip-line wall
U0_R = 0.18208749581707645
TAU0_R = 4.906048581369866
THETA_W_R = -1.417676
# the same ramp at Mach 10: the wall undercuts the vacuum ray
U0_VAC = 0.9104374790853822
THETA_W_VAC = -1.4
# compression ramp on one isentrope
U0_P = 0.32
TAU0_P = 25.006597968134916
THETA_W_P = 0.6131477758288368
B_P = 1.0

# (name, literal, tolerance, "rel" | "abs")
EULER_LITERALS = (
    ("alpha0", 0.5235987755982989, 1e-12, "rel"),
    ("phi_d", 0.2884394876820086, 1e-9, "abs"),
    ("alpha_w", -1.0188674417940558, 1e-9, "abs"),
    ("sigma_d", -0.46346512547728563, 1e-9, "abs"),
    ("alpha_v", -2.8489920105818127, 1e-9, "abs"),
    ("shock_front_tau", 5.451165090410962, 1e-10, "rel"),
    ("shock_front_q", 0.18527935031988466, 1e-9, "rel"),
    ("shock_back_tau", 15.025623552912846, 1e-12, "rel"),
    ("shock_back_S", 0.34813341598088193, 1e-12, "rel"),
    ("shock_back_u", 0.2148818753991435, 1e-9, "rel"),
    ("shock_back_v", -0.10739192666867611, 1e-9, "rel"),
    ("wall_u", 0.06959978852617256, 1e-9, "rel"),
    ("wall_v", -0.4509851575580519, 1e-9, "rel"),
    ("wall_tau", 128.660258522866, 1e-9, "rel"),
    ("wall_q", 0.45632416427420197, 1e-9, "rel"),
    ("probe_left_q", 0.1840679948999641, 1e-9, "rel"),
    ("probe_left_sigma", -0.021554723850839615, 1e-9, "abs"),
    ("probe_left_tau", 5.178606835890414, 1e-9, "rel"),
    ("probe_right_q", 0.4108961165061022, 1e-9, "rel"),
    ("probe_right_sigma", -1.1942442819663794, 1e-9, "abs"),
    ("probe_right_tau", 71.84294103788942, 1e-8, "rel"),
)
THETA_PROBE_LEFT = 0.3862092412369046
THETA_PROBE_RIGHT = -0.7144951361205731

VACUUM_LITERALS = (
    ("q_lim", 1.076213969418711, 1e-10, "rel"),
    # the fan is cut at a finite volume; its ray approaches the vacuum ray
    # with a quarter power of the volume, hence the loose gate
    ("theta_cav", -1.2966415310678998, 1e-5, "abs"),
)

POTENTIAL_LITERALS = (
    ("tau_w", 6.851880082399074, 1e-10, "rel"),
    ("phi_po", 0.8738549683139092, 1e-10, "rel"),
    ("alpha_tail", 0.8302915568676801, 1e-10, "rel"),
    ("wall_q", math.hypot(0.17443032757047178, 0.12273173107194663), 1e-10,
     "rel"),
    ("wall_tau", 5.371779549384593, 1e-10, "rel"),
    ("fan_u", 0.18377549599152085, 1e-8, "abs"),
    ("fan_v", 0.11419010160108702, 1e-8, "abs"),
    ("fan_tau", 6.851880082399074, 1e-6, "abs"),
)


def _ray(theta, r=2.0):
    return r * math.cos(theta), r * math.sin(theta)


def euler_fixture():
    return ss.solve_euler_fsf(U0_R, TAU0_R, S98, THETA_W_R, G15)


def vacuum_fixture():
    return ss.solve_euler_fsf(U0_VAC, TAU0_R, S98, THETA_W_VAC, G15)


def potential_fixture(theta_w=THETA_W_P):
    pgas = PotentialGas.from_state(G15, S98, U0_P, TAU0_P, bernoulli=B_P)
    return ss.solve_potential_sfs(U0_P, TAU0_P, theta_w, pgas)


def _euler_values(sol):
    (_, sh), = sol.shocks
    wall = sol.pieces[-1].state
    left = ss.evaluate(sol, *_ray(THETA_PROBE_LEFT))
    right = ss.evaluate(sol, *_ray(THETA_PROBE_RIGHT))
    a0, phi_d, a_w = sol.breakpoints
    return {"alpha0": a0, "phi_d": phi_d, "alpha_w": a_w,
            "sigma_d": sol.meta["sigma_d"], "alpha_v": sol.meta["alpha_v"],
            "shock_front_tau": sh.front.tau, "shock_front_q": sh.front.q,
            "shock_back_tau": sh.back.tau, "shock_back_S": sh.back.S,
            "shock_back_u": sh.back.u, "shock_back_v": sh.back.v,
            "wall_u": wall.u, "wall_v": wall.v, "wall_tau": wall.tau,
            "wall_q": wall.q,
            "probe_left_q": left.q, "probe_left_sigma": left.sigma,
            "probe_left_tau": left.tau,
            "probe_right_q": right.q, "probe_right_sigma": right.sigma,
            "probe_right_tau": right.tau}


def _vacuum_values(sol):
    return {"q_lim": sol.meta["q_lim"], "theta_cav": sol.meta["theta_cav"]}


def _potential_values(sol):
    wall = sol.pieces[-1].state
    phi_po, alpha_t = sol.breakpoints
    fan = ss.evaluate(sol, *_ray(alpha_t + 1e-9))
    return {"tau_w": sol.meta["tau_w"], "phi_po": phi_po,
            "alpha_tail": alpha_t, "wall_q": wall.q, "wall_tau": wall.tau,
            "fan_u": fan.u, "fan_v": fan.v, "fan_tau": fan.tau}


FIXTURES = (
    ("euler_mach2", euler_fixture, _euler_values, EULER_LITERALS),
    ("euler_mach10_cavitation", vacuum_fixture, _vacuum_values,
     VACUUM_LITERALS),
    ("potential_compression", potential_fixture, _potential_values,
     POTENTIAL_LITERALS),
)


def check_fixtures(fixtures=FIXTURES):
    """Re-solve every fixture and compare it with its literals.

    Returns (ok, max_rel_err, failures): ok is False when a value misses
    its tolerance or a fixture fails validation; max_rel_err is the largest
    |value - literal| / |literal| over all literals.
    """
    failures = []
    max_rel = 0.0
    for name, build, values, literals in fixtures:
        sol = build()
        if not ss.validate(sol).ok:
            failures.append(f"{name}: validate(sol).ok is False")
        got = values(sol)
        for key, lit, tol, mode in literals:
            err = abs(got[key] - lit)
            max_rel = max(max_rel, err / abs(lit))
            limit = tol * abs(lit) if mode == "rel" else tol
            if not err <= limit:
                failures.append(f"{name}.{key}: {got[key]!r} vs literal "
                                f"{lit!r} ({mode} tol {tol})")
    return not failures, max_rel, failures
