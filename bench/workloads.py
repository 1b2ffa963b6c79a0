"""
The three benchmark workloads, each a closed loop with one caller.

A workload has `setup(seed, n)`, which builds everything the loop needs for
a seeded block of n cases, and `units(ctx)`, an iterator over the block's
work units.  Calling a unit with a Tally runs it: the package calls are timed,
their outcome is classified and recorded, and nothing else happens inside
the timed region.

A run works through its whole block once.  The block, and so the number of
cases attempted and the outcome of each, depends only on the seed and
--seconds, never on how fast the host is: two runs of the same code on one
seed count the same failures.  block_size() sizes the block from
--seconds and the workload's nominal cost per case.

  potential_sweep  wall-angle study on compression ramps: per incoming state
                   one wave-curve analysis (shock_fan_shock_branch +
                   deflection_range), then solve_potential_sfs + validate at
                   K fixed fractions of (sigma_m, sigma_M).
  euler_sweep      solve_euler_fsf + validate on expansion ramps drawn over
                   the whole A1 domain, slip-line and cavitation walls alike.
  field_query      evaluate at seeded rays inside the fan sectors of
                   potential and Euler solutions built in setup.
"""

import math
from dataclasses import dataclass, field
from time import perf_counter

import inputs
import oracle
from hostspeed import SpeedTrack
from bztflow import selfsimilar as ss
from bztflow import wavecurves as wc
from bztflow.thermo import GasModel, PotentialGas

# Documented rejection codes: a case that raises one of these was refused
# for being outside a constructor's window.  Any other exception, and any
# solution with validate(sol).ok False, is a failure.
REJECT_CODES = frozenset({
    "assumption-A1-violated", "wedge-angle-above-sigma_d", "subsonic",
    "out-of-window", "mach-reflection-regime", "bernoulli-mismatch",
    "no-root"})


def error_code(exc):
    """Code of an exception: the message prefix of a ValueError, else the
    exception type."""
    if isinstance(exc, ValueError):
        return str(exc).split(":", 1)[0].strip()
    return type(exc).__name__


@dataclass
class Tally:
    """Timed events of the units run so far, plus outcome counts.

    events holds (seconds, kind, group) with kind "ok", "failed",
    "rejected" or "work"; "work" is package time that is not itself an op,
    such as the wave-curve analysis ahead of the potential solves.  Every
    event counts towards busy time, whatever its outcome.
    """

    events: list = field(default_factory=list)
    codes: dict = field(default_factory=dict)
    messages: dict = field(default_factory=dict)      # first one per code
    results: list = field(default_factory=list)       # checked after the loop

    def _add(self, dt, kind, code, group=None):
        self.events.append((dt, kind, group))
        if code is not None:
            self.codes[code] = self.codes.get(code, 0) + 1

    def record_work(self, dt):
        self._add(dt, "work", None)

    def record_ok(self, dt, group=None):
        self._add(dt, "ok", "ok" if group is None else f"ok-{group}", group)

    def record_invalid(self, dt):
        self._add(dt, "failed", "invalid")

    def record_error(self, exc, dt):
        code = error_code(exc)
        self.messages.setdefault(code, str(exc)[:300])
        self._add(dt, "rejected" if code in REJECT_CODES else "failed", code)

    def count(self, kind):
        return sum(1 for e in self.events if e[1] == kind)

    @property
    def attempted(self):
        return len(self.events) - self.count("work")

    @property
    def ok(self):
        return self.count("ok")

    @property
    def failed(self):
        return self.count("failed")

    @property
    def rejected(self):
        return self.count("rejected")

    def busy(self, factors=None):
        """Package time of every event, scaled event by event."""
        factors = factors or [1.0] * len(self.events)
        return sum(dt * f for (dt, _, _), f in zip(self.events, factors))

    def ok_latencies(self, factors=None, group=None):
        factors = factors or [1.0] * len(self.events)
        return [dt * f for (dt, kind, g), f in zip(self.events, factors)
                if kind == "ok" and (group is None or g == group)]


def block_size(wl, seconds):
    """Cases in one run's block: the workload's share `fill` of `seconds`
    at the reference host's nominal speed (bench/hostspeed.py), divided by
    its nominal cost per case `case_s`, rounded to a whole number of
    `quantum` cases.  The shared host mostly runs at 0.6 to 0.9 of nominal
    speed, so a loop lasts `fill` of `seconds` or somewhat more."""
    return wl.quantum * max(1, round(wl.fill * seconds / wl.case_s
                                     / wl.quantum))


def run_timed(wl, ctx):
    """Closed loop over every unit of the block, sampling the host speed
    between units.  Returns the tally, the host-speed factor of each event
    and the number of units run."""
    tally, track = Tally(), SpeedTrack()
    n = 0
    track.sample(0)
    for unit in wl.units(ctx):
        unit(tally)
        n += 1
        track.maybe_sample(len(tally.events))
    track.sample(len(tally.events))
    return tally, track.factors(len(tally.events)), n


def run_fixed(wl, ctx, n=None, tracer=None):
    """Run the first n units of the block (all of them if n is None),
    optionally traced."""
    tally = Tally()
    for k, unit in enumerate(wl.units(ctx)):
        if k == n:
            break
        unit(tally, tracer)
    return tally


# ---------------------------------------------------------------------------
# potential_sweep

WALL_FRACTIONS = (0.25, 0.75)     # K = 2 solves per incoming state


class PotentialSweep:
    """Per incoming state, one unit for the wave-curve analysis and one for
    each of the K wall solves, so the loop can sample the host speed
    between them."""

    name = "potential_sweep"
    # nominal seconds of one state: analysis plus K solves; every aligned
    # run of 4 Sobol points covers each axis evenly
    case_s = 1.25
    quantum = 4
    fill = 0.8

    def setup(self, seed, n):
        return {"seed": seed, "states": inputs.potential_states(seed, n)}

    def units(self, ctx):
        for state in ctx["states"]:
            analysis = _PotentialAnalysis(state)
            yield analysis
            for frac in WALL_FRACTIONS:
                yield _PotentialSolve(analysis, frac)

    @staticmethod
    def describe(ctx):
        k = len(WALL_FRACTIONS)
        return {"K": k, "wall_fractions": WALL_FRACTIONS,
                # every state's composite branch is built once by the
                # analysis and once more inside each of its K solves
                "repeated_state_share": k / (k + 1),
                "inputs": ctx["states"]}


@dataclass
class _PotentialAnalysis:
    state: dict
    pgas: object = None
    window: tuple = None          # (sigma_m, sigma_M)
    error: Exception = None

    def __call__(self, tally, tracer=None):
        s = self.state
        if tracer is not None:
            tracer.begin_case()
        t0 = perf_counter()
        try:
            self.pgas = PotentialGas.from_state(
                GasModel(s["gamma"]), s["S"], s["u0"], s["tau0"],
                bernoulli=s["bernoulli"])
            branch = wc.shock_fan_shock_branch(s["u0"], s["tau0"], self.pgas)
            self.window = wc.deflection_range(branch)
        except Exception as exc:       # charged to each wall of this state
            self.error = exc
        tally.record_work(perf_counter() - t0)


@dataclass
class _PotentialSolve:
    analysis: _PotentialAnalysis
    frac: float

    def __call__(self, tally, tracer=None):
        a = self.analysis
        if a.error is not None:
            tally.record_error(a.error, 0.0)
            return
        sigma_m, sigma_M = a.window
        theta_w = sigma_m + self.frac * (sigma_M - sigma_m)
        if tracer is not None:
            tracer.begin_case()
        t0 = perf_counter()
        try:
            sol = ss.solve_potential_sfs(a.state["u0"], a.state["tau0"],
                                         theta_w, a.pgas)
            ok = ss.validate(sol).ok
        except Exception as exc:       # recorded, loop goes on
            tally.record_error(exc, perf_counter() - t0)
            return
        dt = perf_counter() - t0
        if ok:
            tally.record_ok(dt)
        else:
            tally.record_invalid(dt)


# ---------------------------------------------------------------------------
# euler_sweep

class EulerSweep:
    name = "euler_sweep"
    # every aligned run of 32 Sobol points covers each axis evenly
    case_s = 0.17
    quantum = 32
    fill = 0.8

    def setup(self, seed, n):
        return {"seed": seed, "cases": inputs.euler_cases(seed, n)}

    def units(self, ctx):
        for case in ctx["cases"]:
            yield _EulerCase(case)

    @staticmethod
    def describe(ctx):
        return {"inputs": ctx["cases"]}


@dataclass
class _EulerCase:
    case: dict

    def __call__(self, tally, tracer=None):
        c = self.case
        if tracer is not None:
            tracer.begin_case()
        t0 = perf_counter()
        try:
            sol = ss.solve_euler_fsf(c["u0"], c["tau0"], c["S0"],
                                     c["theta_w"], GasModel(c["gamma"]))
            ok = ss.validate(sol).ok
        except Exception as exc:       # recorded, loop goes on
            tally.record_error(exc, perf_counter() - t0)
            return
        dt = perf_counter() - t0
        if ok:
            wall = "cavitation" if sol.pieces[-1].kind == "vacuum" else "slip"
            tally.record_ok(dt, group=wall)
        else:
            tally.record_invalid(dt)


# ---------------------------------------------------------------------------
# field_query

# Queries come in blocks of QUERY_BLOCK on one field, the fields taken in
# this cycle: one potential query for every two Euler queries, so the lower
# quartile reads the Euler (dense-output) path and the upper quartile the
# potential (root-finding) path, each well inside its own mode.  A block
# reads like a caller sampling one field at several points.
FIELD_CYCLE = (("potential", 0), ("euler", 0), ("euler", 1),
               ("potential", 1), ("euler", 0), ("euler", 1))
QUERY_BLOCK = 16
QUERY_CYCLE = QUERY_BLOCK * len(FIELD_CYCLE)


def field_solutions():
    """The fields the queries run against: two potential walls on the
    compression fixture, and the expansion fixture with a slip-line wall
    and with a cavitation wall."""
    between = 0.5 * (oracle.THETA_W_P + 0.5786914579282845)   # > sigma_m
    return {"potential": [oracle.potential_fixture(),
                          oracle.potential_fixture(between)],
            "euler": [oracle.euler_fixture(), oracle.vacuum_fixture()]}


def _fan_sectors(sol):
    return [(p.theta_lo, p.theta_hi) for p in sol.pieces if p.kind == "fan"]


def _ray_in_sectors(sectors, frac):
    """Ray angle at fraction frac of the union of the sectors, measured
    uniformly in angle."""
    target = frac * sum(hi - lo for lo, hi in sectors)
    for lo, hi in sectors:
        if target <= hi - lo:
            return lo + target
        target -= hi - lo
    return sectors[-1][1]


class FieldQuery:
    name = "field_query"
    # nominal seconds of one query, averaged over the field cycle; whole
    # cycles, so every run has the same query mix.  Queries are many and
    # alike, so a shorter loop than the sweeps' is as steady.
    case_s = 1.5e-3
    quantum = QUERY_CYCLE
    fill = 0.3

    def setup(self, seed, n):
        return {"seed": seed, "fields": field_solutions(),
                "fractions": list(inputs.ray_fractions(seed, n))}

    def units(self, ctx):
        fields = ctx["fields"]
        sectors = {sys_: [_fan_sectors(s) for s in sols]
                   for sys_, sols in fields.items()}
        for k, frac in enumerate(ctx["fractions"]):
            system, j = FIELD_CYCLE[k // QUERY_BLOCK % len(FIELD_CYCLE)]
            theta = _ray_in_sectors(sectors[system][j], frac)
            yield _Query(system, j, fields[system][j], theta)

    @staticmethod
    def describe(ctx):
        return {"field_cycle": FIELD_CYCLE, "query_block": QUERY_BLOCK,
                "fields": {sys_: len(s) for sys_, s in ctx["fields"].items()},
                "ray_fractions": ctx["fractions"]}


@dataclass
class _Query:
    system: str
    index: int
    solution: object
    theta: float

    def __post_init__(self):
        self.x, self.y = math.cos(self.theta), math.sin(self.theta)

    def __call__(self, tally, tracer=None):
        t0 = perf_counter()
        try:
            st = ss.evaluate(self.solution, self.x, self.y)
        except Exception as exc:       # recorded, loop goes on
            tally.record_error(exc, perf_counter() - t0)
            return
        tally.record_ok(perf_counter() - t0, group=self.system)
        tally.results.append((self.system, self.index, self.theta, st))


def query_violations(ctx, tally, tol=1e-9):
    """Queries whose state breaks a law of the fan it lies in, with h and c
    from the benchmark's own closed forms; vacuum results are skipped.

    bernoulli       0.5 q^2 + h(tau, S) = B0 of the field, to tol.
    characteristic  the query ray is a characteristic of the fan:
                    |u sin(theta) - v cos(theta)| = c(tau, S), to tol
                    relative to q (c itself goes to 0 at cavitation).
                    Bernoulli holds at every ray of a fan, so only this
                    law catches a state taken at the wrong ray.
    """
    bad = []
    for system, index, theta, st in tally.results:
        if st is ss.VACUUM:
            continue
        sol = ctx["fields"][system][index]
        g = (sol.meta["pgas"].gas if system == "potential"
             else sol.meta["gas"]).gamma
        head = sol.pieces[0].state
        B0 = 0.5 * head.q**2 + inputs.enthalpy(head.tau, head.S, g)
        err = abs(0.5 * st.q**2 + inputs.enthalpy(st.tau, st.S, g) - B0)
        if not err <= tol:
            bad.append((system, index, theta, "bernoulli", err))
        normal = abs(st.u * math.sin(theta) - st.v * math.cos(theta))
        err = abs(normal - inputs.sound_speed(st.tau, st.S, g)) / st.q
        if not err <= tol:
            bad.append((system, index, theta, "characteristic", err))
    return bad


WORKLOADS = {w.name: w for w in (PotentialSweep(), EulerSweep(),
                                 FieldQuery())}
