"""Outside-in tracer: off unless installed, restored after, deterministic."""

import pytest

import oracle
import tracer
import workloads


def _bindings():
    snap = {}
    for module in tracer.TRACED_MODULES:
        snap.update({(module.__name__, k): v for k, v in vars(module).items()})
    for cls, names in tracer.TRACED_METHODS:
        snap.update({(cls.__name__, n): vars(cls)[n] for n in names})
    return snap


def test_untraced_run_sees_the_original_functions():
    before = _bindings()
    tracer.assert_untraced()
    with tracer.Tracer():
        inside = _bindings()
        changed = {k for k in before if inside[k] is not before[k]}
        with pytest.raises(RuntimeError, match="trace left installed"):
            tracer.assert_untraced()
    after = _bindings()
    assert all(after[k] is before[k] for k in before)
    tracer.assert_untraced()
    # every copy of a re-exported name was wrapped, not just the original
    for key in (("bztflow.fan", "tau_from_speed"),
                ("bztflow.wavecurves", "tau_from_speed"),
                ("bztflow.selfsimilar", "ramp_context"),
                ("bztflow.wavecurves", "ramp_context"),
                ("bztflow.thermo", "brentq"), ("bztflow.fan", "quad"),
                ("bztflow.fan", "solve_ivp"),
                ("RampWaveContext", "fan_state")):
        assert key in changed


def test_bindings_restored_when_the_traced_code_raises():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer():
            1 / 0
    assert all(_bindings()[k] is before[k] for k in before)


def _traced_counts(units):
    wl = workloads.WORKLOADS["euler_sweep"]
    ctx = wl.setup(3, units)
    with tracer.Tracer() as tr:
        tally = workloads.run_fixed(wl, ctx, units, tr)
    calls = {name: rec[0] for name, rec in tr.spans.items()}
    return calls, dict(tr.counters), tally.codes


def test_two_traced_runs_on_one_seed_give_identical_counts():
    first = _traced_counts(2)
    assert first[0]["selfsimilar.solve_euler_fsf"] == 2
    assert first[1]["thermo.brentq.fevals"] > 0
    assert _traced_counts(2) == first


def test_gate_fails_on_a_broken_literal():
    name, build, values, literals = oracle.FIXTURES[0]
    ok, max_rel, failures = oracle.check_fixtures(
        ((name, build, values, literals),))
    assert ok and max_rel < 1e-9 and not failures
    (key, lit, tol, mode), rest = literals[0], literals[1:]
    broken = ((key, lit * (1.0 + 1e-6), tol, mode),) + rest
    ok, max_rel, failures = oracle.check_fixtures(
        ((name, build, values, broken),))
    assert not ok and max_rel > 1e-7
    assert failures[0].startswith(f"{name}.{key}")
