"""The field_query correctness check catches a state taken at the wrong
ray, which the Bernoulli law alone cannot see."""

import pytest

import workloads
from bztflow import selfsimilar as ss


@pytest.fixture(scope="module")
def ctx():
    return workloads.WORKLOADS["field_query"].setup(5, workloads.QUERY_CYCLE)


def _query(ctx, n=4 * workloads.QUERY_BLOCK):
    wl = workloads.WORKLOADS["field_query"]
    return workloads.query_violations(ctx, workloads.run_fixed(wl, ctx, n))


def test_correct_queries_pass(ctx):
    assert _query(ctx) == []


@pytest.mark.parametrize("piece", [ss.PotentialFanPiece, ss.EulerFanPiece])
def test_state_at_a_shifted_ray_fails(ctx, piece, monkeypatch):
    state_at = piece.state_at
    monkeypatch.setattr(piece, "state_at",
                        lambda self, theta: state_at(self, theta + 1e-6))
    laws = {law for *_, law, _ in _query(ctx)}
    assert laws == {"characteristic"}
