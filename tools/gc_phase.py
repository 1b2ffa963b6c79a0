"""
Where the benchmark's garbage collections fall, for ROADMAP item 1.

    python3 tools/gc_phase.py WORKLOAD SEED [--seconds S]

Runs `main` of bench/run.py in this process, untraced, with a hook on
`gc.callbacks` and a wrapper around `hostspeed.SpeedTrack.sample`, and
prints the collections made before the timed loop, the generations of the
collections made inside each reference sample of the loop, the run's
median host-speed factor and its unscaled ops/s.

Why: each SciPy `brentq` call leaves a few objects of cyclic garbage, so
the number of calls made before the timed loop decides where the run's one
generation-2 collection falls.  Inside a reference sample it slows the
sample, which scales every op timed next to it up, so a change that only
moves garbage can read as a speed change of code it did not touch.  The
probe only reports: it changes no file under bench/, and nothing in the
package may steer the collector.  CI runs it on two workloads as a smoke
test, so that it keeps working as bench/ changes; nothing asserts where a
collection falls.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import sys
from pathlib import Path

# one thread per process before numpy is first imported, as bench/run.py
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import hostspeed  # noqa: E402
import run  # noqa: E402


def probe(workload, seed, seconds):
    """Run the benchmark once; returns (collections by phase, report,
    exit status).  A phase is "before" the timed loop, "sample k" inside
    its k-th reference sample or "loop" between samples; each collection
    is listed by its generation."""
    phases = {"before": []}
    where = ["before"]

    def on_collect(phase, info):
        if phase == "start":
            phases.setdefault(where[0], []).append(info["generation"])

    sample = hostspeed.SpeedTrack.sample

    def traced_sample(track, n_events):
        where[0] = f"sample {len(track.marks)}"
        phases.setdefault(where[0], [])
        try:
            return sample(track, n_events)
        finally:
            where[0] = "loop"

    out = io.StringIO()
    gc.callbacks.append(on_collect)
    hostspeed.SpeedTrack.sample = traced_sample
    try:
        with contextlib.redirect_stdout(out):
            status = run.main(["--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds)])
    finally:
        hostspeed.SpeedTrack.sample = sample
        gc.callbacks.remove(on_collect)
    lines = out.getvalue().splitlines()
    report = next(json.loads(x)["report"] for x in lines if '"report"' in x)
    return phases, report, status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=("potential_sweep", "euler_sweep",
                                             "field_query"))
    parser.add_argument("seed", type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    phases, report, status = probe(args.workload, args.seed, args.seconds)
    before = phases.pop("before")
    print(f"{args.workload} seed {args.seed}: bench exit status {status}")
    print(f"before the timed loop: {len(before)} collections, by generation "
          f"{[before.count(g) for g in (0, 1, 2)]}")
    for name, gens in phases.items():
        if name != "loop":
            print(f"{name}: generations {gens}")
    loop = phases.get("loop", [])
    print(f"between samples: {len(loop)} collections, by generation "
          f"{[loop.count(g) for g in (0, 1, 2)]}")
    unscaled = report["unscaled"] or {}
    print(f"host factor {report['host_speed_factor_median']}, unscaled "
          f"ops/s {unscaled.get('ops_per_s')}")
    return status


if __name__ == "__main__":
    sys.exit(main())
