"""
Benchmark of bztflow: three seeded closed-loop workloads, one caller, one
thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it is a
JSON report with the seed, the generated inputs, every outcome code, the
per-kind latencies and the versions the numbers were taken with.

--trace 0 works once through a seeded block of cases sized to take about
S seconds (bench/workloads.py) and reports the end-to-end metrics
(END_TO_END); the block depends only on the seed and S, so the cases
attempted and failed repeat exactly from run to run.  --trace 1 runs a
fixed, smaller block twice, untraced and then traced, and reports the
per-layer metrics (PER_LAYER) with the tracing overhead; every per-layer
count repeats exactly.  Both modes first re-solve the pinned
fixtures against their frozen literals and exit with status 1 if any
output is wrong (status 2 if the package cannot be found).
"""

import os

if __name__ == "__main__":
    # one thread per process, fixed before numpy is first imported
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS"):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.integrate import IntegrationWarning  # noqa: E402

import hostspeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPS = 3
# cases per traced run: 4 incoming states (analysis + K solves each), 32
# Euler cases, 3072 queries
TRACE_CASES = {"potential_sweep": 4, "euler_sweep": 32, "field_query": 3072}

# name -> (unit, better); an "op" is one solve + validate on the sweeps and
# one evaluate on field_query
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_ms_p25": ("ms", "lower"),
    "op_ms_p75": ("ms", "lower"),
    "ok_share": ("ratio", "higher"),
    "oracle_max_rel_err": ("ratio", "lower"),
}

_CALLS = ("fan.turning_angle", "thermo.tau_from_speed", "thermo.brentq",
          "thermo.inflection_roots", "wavecurves.ramp_context",
          "wavecurves.fan_state", "wavecurves.tail_state",
          "shocks.pre_sonic_tau_potential", "shocks.post_sonic_tau_potential",
          "shocks.tangent_chord_limit", "fan.integrate_fan",
          "thermo.critical_entropies", "fan.riemann_invariants")
_SELF_MS = ("fan.turning_angle", "fan.quad", "thermo.tau_from_speed",
            "thermo.brentq", "wavecurves.shock_fan_shock_branch",
            "wavecurves.deflection_range", "wavecurves.solve_wedge_state",
            "shocks.pre_sonic_tau_potential", "fan.integrate_fan",
            "fan.solve_ivp", "fan.vacuum_angle",
            "shocks.double_sonic_back_state", "thermo.locus_intersections",
            "selfsimilar.validate", "shocks.liu_condition_check",
            "fan.riemann_invariants")
_COUNTS = ("fan.quad.integrand_calls", "fan.quad.warnings",
           "thermo.brentq.fevals", "shocks.brentq.fevals",
           "wavecurves.brentq.fevals", "selfsimilar.brentq.fevals",
           "fan.solve_ivp.nfev", "fan.solve_ivp.steps")

PER_LAYER = {
    **{f"{n}.calls": ("count", "lower") for n in _CALLS},
    **{f"{n}.self_ms": ("ms", "lower") for n in _SELF_MS},
    **{n: ("count", "lower") for n in _COUNTS},
    "thermo.inflection_roots.repeat_share": ("ratio", "lower"),
    "fan.solve_ivp.steps_per_nfev": ("ratio", "higher"),
    "selfsimilar.evaluate.potential_us": ("us", "lower"),
    "selfsimilar.evaluate.euler_us": ("us", "lower"),
    "outcome.failed_share": ("ratio", "lower"),
    "outcome.rejected_share": ("ratio", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
}


def _import_package():
    """Import the package in a fresh interpreter, as a new user would;
    returns the wall time."""
    code = "import bztflow.selfsimilar, bztflow.wavecurves"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                   capture_output=True, timeout=120, check=True)
    return time.perf_counter() - t0


def set_up(wl, seed, n_cases):
    """One set-up, host-speed scaled (bench/hostspeed.py): the import by a
    reference import timed right after it, the input generation (and on
    field_query the field builds) by the reference computation timed around
    it.  Returns the scaled and the wall seconds and the loop's context."""
    t_import = _import_package()
    r_import = hostspeed.reference_import_seconds(ROOT)
    r0 = hostspeed.reference_seconds()
    t0 = time.perf_counter()
    ctx = wl.setup(seed, n_cases)
    t_build = time.perf_counter() - t0
    r1 = hostspeed.reference_seconds()
    scaled = (t_import * hostspeed.REF_IMPORT_S / r_import
              + t_build * 2.0 * hostspeed.REF_S / (r0 + r1))
    return scaled, t_import + t_build, ctx


def end_to_end_metrics(tally, factors, setup_s, max_rel):
    lat = tally.ok_latencies(factors)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "ops_per_s": tally.ok / tally.busy(factors),
        "op_ms_p25": float(np.percentile(lat, 25)) * 1e3,
        "op_ms_p75": float(np.percentile(lat, 75)) * 1e3,
        "ok_share": tally.ok / tally.attempted,
        "oracle_max_rel_err": max_rel,
    }


def per_layer_metrics(tr, plain, traced):
    spans, counters = tr.spans, tr.counters

    def per_call_us(name):
        calls, incl, _ = spans.get(name, (0, 0.0, 0.0))
        return incl / calls * 1e6 if calls else 0.0

    out = {f"{n}.calls": spans.get(n, (0,))[0] for n in _CALLS}
    out.update({f"{n}.self_ms": spans.get(n, (0, 0.0, 0.0))[2] * 1e3
                for n in _SELF_MS})
    out.update({n: counters.get(n, 0) for n in _COUNTS})
    roots = spans.get("thermo.inflection_roots", (0,))[0]
    nfev = counters.get("fan.solve_ivp.nfev", 0)
    out.update({
        "thermo.inflection_roots.repeat_share":
            counters.get("thermo.inflection_roots.repeats", 0) / roots
            if roots else 0.0,
        "fan.solve_ivp.steps_per_nfev":
            counters.get("fan.solve_ivp.steps", 0) / nfev if nfev else 0.0,
        "selfsimilar.evaluate.potential_us":
            per_call_us("selfsimilar.evaluate.potential"),
        "selfsimilar.evaluate.euler_us":
            per_call_us("selfsimilar.evaluate.euler"),
        "outcome.failed_share": plain.failed / plain.attempted,
        "outcome.rejected_share": plain.rejected / plain.attempted,
        "trace.overhead_share": traced.busy() / plain.busy() - 1.0,
    })
    return out


def report(args, wl, ctx, tally, factors, n_cases, units_run, loop_s,
           setup, setup_wall, gate, bad):
    by_kind = {}
    for group in sorted({g for _, _, g in tally.events if g is not None}):
        lat = tally.ok_latencies(factors, group)
        by_kind[group] = {"n": len(lat), "share_of_ok": len(lat) / tally.ok,
                          "p50_us": float(np.percentile(lat, 50)) * 1e6,
                          "p99_us": float(np.percentile(lat, 99)) * 1e6}
    lat_raw = tally.ok_latencies()
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": {"python": platform.python_version(),
                       "numpy": np.__version__, "scipy": scipy.__version__,
                       "nproc": os.cpu_count(),
                       "machine": platform.machine(),
                       "threads_env": os.environ.get("OMP_NUM_THREADS")},
        "setup_s_samples": setup, "setup_wall_s_samples": setup_wall,
        "host_speed_factor_median": statistics.median(factors)
        if factors else None,
        "unscaled": {"ops_per_s": tally.ok / tally.busy(),
                     "op_ms_p25": float(np.percentile(lat_raw, 25)) * 1e3,
                     "op_ms_p75": float(np.percentile(lat_raw, 75)) * 1e3}
        if lat_raw else None,
        "cases": n_cases, "units_run": units_run,
        "loop_wall_s": loop_s,
        "attempted": tally.attempted, "ok": tally.ok,
        "failed": tally.failed, "rejected": tally.rejected,
        "failed_share": tally.failed / tally.attempted,
        "rejected_share": tally.rejected / tally.attempted,
        "codes": dict(sorted(tally.codes.items())),
        "first_message_by_code": tally.messages,
        "ok_latency_samples": tally.ok,
        # host-speed scaled, in run order
        "ok_ms": [round(x * 1e3, 4) for x in tally.ok_latencies(factors)],
        "ok_by_kind": by_kind,
        "oracle": {"ok": gate[0], "max_rel_err": gate[1],
                   "failures": gate[2]},
        "query_violations": bad,
        **wl.describe(ctx),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("potential_sweep", "euler_sweep",
                                 "field_query"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bztflow" / "__init__.py").is_file():
        print(f"bench: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bztflow
    if Path(bztflow.__file__).resolve().parent != SRC / "bztflow":
        print(f"bench: bztflow imported from {bztflow.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import oracle
    import tracer
    import workloads

    # quadrature warnings are counted by the traced run, not printed
    warnings.simplefilter("ignore", IntegrationWarning)
    wl = workloads.WORKLOADS[args.workload]

    n_cases = (TRACE_CASES[args.workload] if args.trace
               else workloads.block_size(wl, args.seconds))

    # a traced run reports no setup_s and sets up once
    setup, setup_wall = [], []
    for _ in range(1 if args.trace else SETUP_REPS):
        scaled, wall, ctx = set_up(wl, args.seed, n_cases)
        setup.append(scaled)
        setup_wall.append(wall)
    setup_s = statistics.median(setup)

    # outside the timed region; also finishes any lazy set-up before timing
    gate = oracle.check_fixtures()

    t0 = time.perf_counter()
    if args.trace:
        tracer.assert_untraced()
        tally = workloads.run_fixed(wl, ctx)
        with tracer.Tracer() as tr:
            traced = workloads.run_fixed(wl, ctx, tracer=tr)
        tracer.assert_untraced()
        units_run = len(tally.events)
        factors = [1.0] * len(tally.events)
        metrics = per_layer_metrics(tr, tally, traced)
        specs = PER_LAYER
    else:
        tracer.assert_untraced()
        tally, factors, units_run = workloads.run_timed(wl, ctx)
        metrics = (end_to_end_metrics(tally, factors, setup_s, gate[1])
                   if tally.ok else None)
        specs = END_TO_END
    loop_s = time.perf_counter() - t0

    bad = []
    if args.workload == "field_query":
        for checked in (tally, traced) if args.trace else (tally,):
            bad += workloads.query_violations(ctx, checked)
    correct = gate[0] and not bad and metrics is not None
    print(json.dumps({"report": report(args, wl, ctx, tally, factors,
                                       n_cases, units_run, loop_s, setup,
                                       setup_wall, gate, bad)}))
    if metrics is None:
        print("bench: no case of the run succeeded", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": specs[name][0]}
                    for name in specs}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
