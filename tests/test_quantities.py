import json

import numpy as np
import pytest

from conftest import from_counts
from segdyn import (
    Cover,
    QuantitySpec,
    build_segments,
    reachable_bounds,
    segment_envelope,
)
from segdyn.quantities import quantity_from_json, quantity_to_json


def _single_cell_lib(model, center, cfg, horizon=1.0, n=9):
    cover = Cover(centers=np.asarray([center], dtype=float),
                  radii=np.array([0.5]))
    return build_segments(model, cover, horizon, n, cfg)


def test_envelope_constant_origin(lorenz, cfg):
    lib = _single_cell_lib(lorenz, [0.0, 0.0, 0.0], cfg)
    env = segment_envelope(lib, QuantitySpec(kind="energy"))
    assert env.sup_per_cell.tolist() == [0.0]
    assert env.inf_per_cell.tolist() == [0.0]


def test_envelope_linear_norm_decay(linear1, cfg):
    lib = _single_cell_lib(linear1, [1.0], cfg)
    env = segment_envelope(lib, QuantitySpec(kind="norm"))
    assert abs(env.sup_per_cell[0] - 1.0) <= 1e-12
    assert abs(env.inf_per_cell[0] - np.exp(-1.0)) <= 1e-8


def test_envelope_frozen_flow_energy(zero_field_1d, cfg):
    lib = _single_cell_lib(zero_field_1d, [0.8], cfg)
    env = segment_envelope(lib, QuantitySpec(kind="energy"))
    assert np.allclose([env.sup_per_cell[0], env.inf_per_cell[0]], 0.5 * 0.8 ** 2)


def _envelope(inf, sup):
    from segdyn.quantities import QuantityEnvelope
    return QuantityEnvelope(sup_per_cell=np.asarray(sup, dtype=float),
                            inf_per_cell=np.asarray(inf, dtype=float))


def test_reachable_bounds_single_window():
    env = _envelope([0.0, 2.0], [1.0, 3.0])
    rb = reachable_bounds(env, from_counts([[0, 1], [1, 1]]), 1, 1)
    assert (rb.lo, rb.hi) == (0.0, 1.0)
    assert rb.reachable == {1}


def test_reachable_bounds_full_shift_is_global():
    env = _envelope([0.0, 2.0, -1.0], [1.0, 3.0, 0.5])
    rb = reachable_bounds(env, from_counts(np.ones((3, 3))), 2, 4)
    assert (rb.lo, rb.hi) == (-1.0, 3.0)
    assert rb.reachable == {1, 2, 3}


def test_reachable_bounds_golden_mean_hand_case():
    env = _envelope([0.0, 2.0], [1.0, 3.0])
    rb = reachable_bounds(env, from_counts([[0, 1], [1, 1]]), 1, 2)
    assert rb.reachable == {1, 2}
    assert (rb.lo, rb.hi) == (0.0, 3.0)


def test_reachable_bounds_widen_with_length():
    gamma = from_counts([[0, 1, 0], [0, 0, 1], [0, 0, 1]])
    env = _envelope([0.0, -1.0, -5.0], [1.0, 2.0, 9.0])
    prev = None
    for m in (1, 2, 3, 4):
        rb = reachable_bounds(env, gamma, 1, m)
        if prev is not None:
            assert rb.lo <= prev.lo and rb.hi >= prev.hi
        prev = rb


def test_reachable_bounds_rejects_dead_start():
    gamma = from_counts([[0, 1], [0, 0]])
    env = _envelope([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="no admissible word"):
        reachable_bounds(env, gamma, 1, 3)


def test_quantity_validation():
    with pytest.raises(ValueError, match="kind"):
        QuantitySpec(kind="mass")
    with pytest.raises(ValueError, match="index"):
        QuantitySpec(kind="coordinate")
    with pytest.raises(ValueError, match="symmetric"):
        QuantitySpec(kind="weighted_quadratic", weight=np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_quantity_evaluate_kinds():
    x = np.array([[3.0, 4.0], [0.0, 1.0]])
    assert np.allclose(QuantitySpec(kind="energy").evaluate(x), [12.5, 0.5])
    assert np.allclose(QuantitySpec(kind="norm").evaluate(x), [5.0, 1.0])
    assert np.allclose(QuantitySpec(kind="coordinate", index=1).evaluate(x), [4.0, 1.0])
    w = np.array([[2.0, 0.0], [0.0, 1.0]])
    q = QuantitySpec(kind="weighted_quadratic", weight=w)
    assert np.allclose(q.evaluate(x), [34.0, 1.0])


@pytest.mark.parametrize("kind,index,weight", [
    ("energy", None, None),
    ("norm", None, None),
    ("coordinate", 0, None),
    ("weighted_quadratic", None, np.array([[1.5, 0.25], [0.25, 0.5]])),
])
def test_lipschitz_slack_bounds_observable_shift(kind, index, weight):
    q = QuantitySpec(kind=kind, index=index, weight=weight)
    rng = np.random.default_rng(5)
    radius, eps = 3.0, 0.4
    slack = q.lipschitz_slack(radius, eps)
    for _ in range(200):
        x = rng.uniform(-1, 1, size=2)
        x *= radius * rng.random() / max(np.linalg.norm(x), 1e-12)
        step = rng.uniform(-1, 1, size=2)
        step *= eps * rng.random() / max(np.linalg.norm(step), 1e-12)
        y = x + step
        if np.linalg.norm(y) > radius + eps:
            continue
        assert abs(q.evaluate(y) - q.evaluate(x)) <= slack + 1e-12


def test_quantity_json_roundtrip():
    specs = [
        QuantitySpec(kind="energy"),
        QuantitySpec(kind="coordinate", index=2),
        QuantitySpec(kind="weighted_quadratic", weight=np.array([[1.0, 0.5], [0.5, 2.0]])),
    ]
    for q in specs:
        back = quantity_from_json(json.loads(json.dumps(quantity_to_json(q))))
        assert back.kind == q.kind
        assert back.index == q.index
        if q.weight is not None:
            assert np.array_equal(back.weight, q.weight)
        assert back.label() == q.label()
