"""Benchmark input generators: seeded, reproducible, inside the domain."""

import json
import math
from pathlib import Path

import pytest

import inputs
import run
import workloads
from bztflow.thermo import (GasModel, critical_entropies, inflection_roots,
                            locus_intersections)


@pytest.mark.parametrize("generate", [inputs.euler_cases,
                                      inputs.potential_states])
def test_same_seed_same_inputs(generate):
    assert generate(7, 16) == generate(7, 16)


@pytest.mark.parametrize("generate", [inputs.euler_cases,
                                      inputs.potential_states])
def test_different_seed_different_inputs(generate):
    a, b = generate(7, 16), generate(8, 16)
    assert all(x != y for x, y in zip(a, b))


def test_ray_fractions_seeded():
    first = list(inputs.ray_fractions(3, 64))
    assert first == list(inputs.ray_fractions(3, 64))
    assert first != list(inputs.ray_fractions(4, 64))


@pytest.mark.parametrize("generate", [inputs.euler_cases,
                                      inputs.potential_states,
                                      inputs.ray_fractions])
def test_longer_request_extends_the_same_sequence(generate):
    # a longer run's block of cases starts with a shorter run's block
    assert list(generate(5, 16)[:8]) == list(generate(5, 8))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_block_size_is_whole_quanta_growing_with_seconds(name):
    wl = workloads.WORKLOADS[name]
    for seconds in (1, 10, 25, 60):
        n = workloads.block_size(wl, seconds)
        assert n >= wl.quantum and n % wl.quantum == 0
    assert workloads.block_size(wl, 60) > workloads.block_size(wl, 10)


def test_timed_loop_attempts_every_case_of_the_block_once():
    wl = workloads.WORKLOADS["euler_sweep"]
    tally, factors, units = workloads.run_timed(wl, wl.setup(3, 4))
    assert tally.attempted == units == len(factors) == 4


def test_euler_cases_cover_the_a1_domain():
    for c in inputs.euler_cases(11, 32):
        gas = GasModel(c["gamma"])
        S_star, _, S_cr = critical_entropies(gas)
        assert S_cr < c["S0"] < S_star
        assert -0.5 * math.pi < c["theta_w"] < 0.0
        assert 1.5 <= c["mach"] <= 10.0
        tau_fe = inputs.front_double_sonic_volume(c["S0"], c["gamma"])
        assert 1.0 < c["tau0"] < tau_fe


def test_potential_states_cover_the_domain():
    states = inputs.potential_states(11, 32)
    for st in states:
        gas = GasModel(st["gamma"])
        S_star, _, S_cr = critical_entropies(gas)
        assert S_cr < st["S"] < S_star
        assert 1.5 <= st["mach"] <= 10.0
        _, tau2_i = inflection_roots(st["S"], gas)
        assert tau2_i < st["tau0"]
    # the whole Mach range, not only its low end
    assert max(st["mach"] for st in states) > 9.0


def test_landmarks_agree_with_the_package_where_it_finds_them():
    g, gas = 1.5, GasModel(1.5)
    S_star, _, S_cr = critical_entropies(gas)
    assert inputs.entropy_window(g) == pytest.approx((S_cr, S_star),
                                                     rel=1e-12)
    S = S_cr + 0.5 * (S_star - S_cr)
    assert inputs.inflection_pair(S, g) == pytest.approx(
        inflection_roots(S, gas), rel=1e-12)
    assert inputs.front_double_sonic_volume(S, g) == pytest.approx(
        locus_intersections(S, gas)[0], rel=1e-12)


def test_generator_reaches_the_band_without_a_back_crossing():
    # just above S_cr the package finds no back-side locus crossing and
    # raises; the generator must still place tau0 there
    g, gas = 1.7, GasModel(1.7)
    S_star, _, S_cr = critical_entropies(gas)
    S = S_cr + 0.01 * (S_star - S_cr)
    with pytest.raises(ValueError, match="no-intersection"):
        locus_intersections(S, gas)
    assert inputs.front_double_sonic_volume(S, g) > 1.0


@pytest.mark.parametrize("message, kind", [
    ("no-intersection: no locus crossing", "failed"),
    ("subsonic-post-state: q_po=0.1", "failed"),
    ("subsonic: u0=0.1 not above", "rejected"),
    ("wedge-angle-above-sigma_d: theta_w=-0.1", "rejected"),
    ("trailing-fan: inflection-hit: stalled", "failed"),
])
def test_outcome_taxonomy(message, kind):
    tally = workloads.Tally()
    tally.record_error(ValueError(message), 0.0)
    assert (tally.rejected, tally.failed) == ((1, 0) if kind == "rejected"
                                              else (0, 1))


def test_uncoded_exception_is_a_failure():
    tally = workloads.Tally()
    tally.record_error(ZeroDivisionError("float division by zero"), 0.0)
    assert tally.failed == 1
    assert tally.codes == {"ZeroDivisionError": 1}


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == table
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
