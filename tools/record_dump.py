"""
Every record the benchmark's sweeps build, one `repr` line each, so that a
claim of bit-identical results can be checked with `diff`.

    python3 tools/record_dump.py SEED [SEED ...] > records.txt

For each seed it solves the euler_sweep cases and, for each potential_sweep
state, builds the composite branch and its deflection range and solves the
walls at WALL_FRACTIONS of (sigma_m, sigma_M), each workload with the block
of a run of BENCHMARK.json's `run_seconds` (bench/workloads.py).  A line is
`WORKLOAD SEED INDEX NAME RECORD`: a solution's pieces, fan node tables,
breakpoints, shocks, float `meta` and `ValidationReport` fields by name, a
branch's samples, its deflection range and each wall's `solve_wedge_state`.
A raised error ends its case's records with one `error` line.

Run it at two commits and `diff` the outputs: any changed bit of a record
shows as a changed line.  To see how far two dumps differ,

    python3 tools/record_dump.py --compare A B

pairs their lines by `WORKLOAD SEED INDEX NAME`, prints for each record
name (wall fractions shown as `*`) the worst relative and the worst
absolute difference of its numbers (a number near zero, such as a clamped
rate or a rounding-level residual, can read a large relative difference
on a tiny absolute one), and lists every line whose other tokens differ
(error codes, shock kinds, booleans) or that only one dump has.  It exits
1 when it lists a line.
"""

import collections
import dataclasses
import json
import math
import os
import re
import sys
from pathlib import Path

# one thread per process before numpy is first imported, as bench/run.py
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
import workloads  # noqa: E402
from bztflow import selfsimilar as ss  # noqa: E402
from bztflow import wavecurves as wc  # noqa: E402
from bztflow.thermo import GasModel, PotentialGas  # noqa: E402

WALL_FRACTIONS = (0.02, 0.25, 0.75, 0.98)

# a number of a record, not a digit of a name such as 'S0'
_NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)"
                     r"(?![\w.])")
# WORKLOAD SEED INDEX NAME RECORD, the record a repr or an error message
_LINE = re.compile(r"(\S+ \S+ \S+ (.*?)) ([(\[].*|\S+Error: .*|\S+)$")


def _fan(fan):
    tr = fan._turning
    table = None if tr is None else {
        "sigmas": tr.sigmas, "rays": tr.rays, "ray_slopes": tr.ray_slopes,
        "rates": tr.rates, "panels": tr.panels, "sign": tr.sign}
    return (fan.theta_start, fan.theta_end, fan.pgas.S, fan._foot,
            fan._end, table)


def _solution(sol):
    """(name, record) of a solution and of its validation report."""
    for k, piece in enumerate(sol.pieces):
        yield f"piece {k}", (piece.kind, piece.theta_hi, piece.theta_lo,
                             piece.state)
        if piece.fan is not None:
            yield f"fan {k}", _fan(piece.fan)
    yield "breakpoints", sol.breakpoints
    for k, shock in enumerate(sol.shocks):
        yield f"shock {k}", shock
    yield "meta", sorted((key, v) for key, v in sol.meta.items()
                         if isinstance(v, float))
    report = ss.validate(sol)
    yield "report", sorted((f.name, getattr(report, f.name))
                           for f in dataclasses.fields(report))


def _euler(case):
    gas = GasModel(case["gamma"])
    yield from _solution(ss.solve_euler_fsf(case["u0"], case["tau0"],
                                            case["S0"], case["theta_w"], gas))


def _potential(state):
    pgas = PotentialGas.from_state(GasModel(state["gamma"]), state["S"],
                                   state["u0"], state["tau0"],
                                   bernoulli=state["bernoulli"])
    branch = wc.shock_fan_shock_branch(state["u0"], state["tau0"], pgas)
    yield "branch", (branch.param_range, branch.params.tolist(),
                     branch.u.tolist(), branch.v.tolist(),
                     branch.angle.tolist())
    sigma_m, sigma_M = wc.deflection_range(branch)
    yield "deflection_range", (sigma_m, sigma_M)
    for frac in WALL_FRACTIONS:
        theta_w = sigma_m + frac * (sigma_M - sigma_m)
        try:
            yield f"wall {frac} tau_w", wc.solve_wedge_state(theta_w, branch)
            sol = ss.solve_potential_sfs(state["u0"], state["tau0"],
                                         theta_w, pgas)
            for name, record in _solution(sol):
                yield f"wall {frac} {name}", record
        except Exception as exc:        # the next wall still runs
            yield f"wall {frac} error", f"{type(exc).__name__}: {exc}"


def _dump(head, records):
    try:
        for name, record in records:
            print(f"{head} {name} {record!r}")
    except Exception as exc:            # the next case still runs
        print(f"{head} error {type(exc).__name__}: {exc}")


def _records(path):
    """{(key, repeat): (group, record)} of a dump, in file order."""
    out, seen = {}, collections.Counter()
    with open(path) as fh:
        for line in fh:
            m = _LINE.match(line.rstrip("\n"))
            key, name, record = m.groups() if m else (line, "?", line)
            group = " ".join([key.split()[0]] + ["*" if "." in w else w
                                                 for w in name.split()])
            out[(key, seen[key])] = (group, record)
            seen[key] += 1
    return out


def _diff(a, b):
    """(relative, absolute) difference of two number tokens."""
    x, y = float(a), float(b)
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0, 0.0
    d = abs(x - y)
    return d / max(abs(x), abs(y)), d


def compare(path_a, path_b):
    """Worst relative and absolute difference per record name of two
    dumps; 1 when a line differs in more than its numbers or is in one
    dump only."""
    a, b = _records(path_a), _records(path_b)
    worst, differ = {}, []
    for key in list(a) + [k for k in b if k not in a]:
        if key not in a or key not in b:
            differ.append((key, a.get(key), b.get(key)))
            continue
        (group, ra), (_, rb) = a[key], b[key]
        na, nb = _NUMBER.findall(ra), _NUMBER.findall(rb)
        if _NUMBER.sub("#", ra) != _NUMBER.sub("#", rb) or len(na) != len(nb):
            differ.append((key, a[key], b[key]))
            continue
        rel, dif = worst.get(group, (0.0, 0.0))
        for r, d in (_diff(x, y) for x, y in zip(na, nb)):
            rel, dif = max(rel, r), max(dif, d)
        worst[group] = rel, dif
    for group, (rel, dif) in worst.items():
        print(f"{group}: worst relative difference {rel:.3e}, absolute "
              f"{dif:.3e}")
    print(f"{len(differ)} lines differ in more than their numbers")
    for (key, _), ra, rb in differ:
        print(f"- {key} {ra[1] if ra else '(missing)'}")
        print(f"+ {key} {rb[1] if rb else '(missing)'}")
    return 1 if differ else 0


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if args[:1] == ["--compare"] and len(args) == 3:
        return compare(*args[1:])
    seeds = [int(s) for s in args]
    if not seeds:
        usage = __doc__.split("\n\n")
        print(usage[1].strip(), usage[4].strip(), sep="\n", file=sys.stderr)
        return 2
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "run_seconds"]
    for name, cases, records in (("euler_sweep", "cases", _euler),
                                 ("potential_sweep", "states", _potential)):
        wl = workloads.WORKLOADS[name]
        for seed in seeds:
            ctx = wl.setup(seed, workloads.block_size(wl, seconds))
            for k, case in enumerate(ctx[cases]):
                _dump(f"{name} {seed} {k}", records(case))
    return 0


if __name__ == "__main__":
    sys.exit(main())
