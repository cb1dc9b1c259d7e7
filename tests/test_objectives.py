import numpy as np
import pytest

from posekit import (
    LossBreakdown,
    LossWeights,
    Mesh,
    edge_discrepancy,
    edge_discrepancy_gradient,
    edge_loss,
    edge_term,
    numerical_gradient,
    make_puppet,
    total_loss,
)
from posekit.objectives import _edge_term_gradient
from test_kinematics import random_rotation


def path_mesh(coords):
    """Degenerate-free two-triangle strip over a 4-vertex path."""
    v = np.asarray(coords, dtype=float)
    return Mesh(v, np.array([[0, 1, 2], [1, 3, 2]]))


def test_loss_weights_defaults():
    w = LossWeights()
    assert (w.lambda_cycle, w.lambda_self) == (1.0, 1.0)


def test_loss_weights_dict_round_trip():
    w = LossWeights(lambda_cycle=3.0)
    assert LossWeights.from_dict(w.to_dict()) == w
    with pytest.raises(ValueError, match="unknown"):
        LossWeights.from_dict({"lambda_q": 1.0})


def test_loss_weights_accept_loss_names():
    # the names of LossBreakdown.to_dict, as written in losses.jsonl
    w = LossWeights.from_dict({"cycle": 0.5, "self": 2.0})
    assert w == LossWeights(0.5, 2.0)
    assert LossWeights.from_dict({"self": 2.0, "lambda_cycle": 0.5}) == LossWeights(
        lambda_cycle=0.5, lambda_self=2.0
    )
    with pytest.raises(ValueError, match="twice"):
        LossWeights.from_dict({"cycle": 1.0, "lambda_cycle": 1.0})
    with pytest.raises(ValueError, match=r"\['total'\]"):
        LossWeights.from_dict({"total": 1.0})
    # the paper's keypoint and skinning terms have no weight here, and no
    # unsupervised edge term is solved for
    for key in ("keypoint", "skin", "lambda_k", "lambda_skin", "edge", "lambda_edge"):
        with pytest.raises(ValueError, match=rf"unknown loss_weights keys: \['{key}'\]"):
            LossWeights.from_dict({key: 1.0})


def test_total_loss_default_weights_unit_components():
    out = total_loss(LossWeights(), cycle=1.0, self_recon=1.0)
    assert out.total == 2.0


def test_total_loss_zero_components():
    out = total_loss(LossWeights())
    assert out.total == 0.0
    assert out.cycle == 0.0


def test_breakdown_json_key_for_self():
    d = LossBreakdown(self_recon=0.5, total=0.5).to_dict()
    assert d["self"] == 0.5
    assert "self_recon" not in d
    assert set(d) == {"cycle", "self", "total"}


def test_edge_discrepancy_hand_value():
    # single edge stretched from length 1 to 3: (3-1)^2 = 4
    s = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    d = np.array([[0.0, 0, 0], [3.0, 0, 0]])
    e = np.array([[0, 1]])
    assert edge_discrepancy(s, d, e) == pytest.approx(4.0, abs=1e-15)


def test_edge_discrepancy_mean_over_edges():
    s = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 1, 0]])
    d = np.array([[0.0, 0, 0], [2.0, 0, 0], [2.0, 3, 0]])
    e = np.array([[0, 1], [1, 2]])
    # per-edge squared diffs: (2-1)^2 and (3-1)^2, averaged
    assert edge_discrepancy(s, d, e) == pytest.approx(2.5, abs=1e-15)


def test_edge_term_uses_given_rest_lengths():
    d = np.array([[0.0, 0, 0], [3.0, 0, 0], [3.0, 4.0, 0]])
    e = np.array([[0, 1], [1, 2]])
    value = edge_term(d, e, np.array([1.0, 4.0]))  # deformed lengths 3 and 4
    assert value == pytest.approx(2.0, abs=1e-15)  # (2^2 + 0^2) / 2
    assert edge_term(d, np.zeros((0, 2), int), np.zeros(0)) == 0.0


def test_edge_loss_equals_edge_discrepancy():
    rng = np.random.default_rng(3)
    a = path_mesh(rng.normal(size=(4, 3)))
    b = a.with_vertices(rng.normal(size=(4, 3)))
    assert edge_loss(a, b) == edge_discrepancy(a.vertices, b.vertices, a.edges)


def test_edge_discrepancy_empty():
    assert edge_discrepancy(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((0, 2), int)) == 0.0


def test_edge_loss_rigid_invariance():
    rng = np.random.default_rng(0)
    m = path_mesh(rng.normal(size=(4, 3)))
    for _ in range(10):
        R = random_rotation(rng)
        t = rng.normal(size=3)
        moved = m.with_vertices(m.vertices @ R.T + t)
        assert edge_loss(m, moved) <= 1e-12


def test_edge_loss_requires_same_connectivity():
    m = path_mesh(np.random.default_rng(1).normal(size=(4, 3)))
    other = Mesh(m.vertices.copy(), m.faces[:1].copy())
    with pytest.raises(ValueError):
        edge_loss(m, other)


def test_edge_gradient_matches_hand_derivation():
    # 2-edge path 0-1-2; d/dd of mean (|d_i-d_j| - l_ij)^2 worked out by hand
    s = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 1, 0]])
    d = np.array([[0.1, -0.2, 0.05], [1.4, 0.3, -0.1], [0.9, 1.8, 0.2]])
    e = np.array([[0, 1], [1, 2]])

    def hand_gradient():
        g = np.zeros_like(d)
        for (i, j) in e:
            ls = np.linalg.norm(s[i] - s[j])
            dv = d[i] - d[j]
            ld = np.linalg.norm(dv)
            coef = (ld - ls) / (ld * len(e))
            g[i] += 2.0 * coef * dv
            g[j] -= 2.0 * coef * dv
        return g

    hand = hand_gradient()
    analytic = edge_discrepancy_gradient(s, d, e)
    assert np.max(np.abs(analytic - hand)) <= 1e-12

    fd = numerical_gradient(
        lambda x: edge_discrepancy(s, x.reshape(3, 3), e), d.ravel()
    ).reshape(3, 3)
    denom = max(np.abs(hand).max(), 1e-12)
    assert np.max(np.abs(fd - hand)) / denom <= 1e-4


def test_edge_gradient_zero_at_rest():
    m = path_mesh(np.random.default_rng(2).normal(size=(4, 3)))
    g = edge_discrepancy_gradient(m.vertices, m.vertices, m.edges)
    assert np.max(np.abs(g)) == 0.0


def test_edge_gradient_collapsed_edge_finite():
    s = np.array([[0.0, 0, 0], [1.0, 0, 0]])
    d = np.zeros((2, 3))  # deformed edge fully collapsed
    g = edge_discrepancy_gradient(s, d, np.array([[0, 1]]))
    assert np.isfinite(g).all()
    assert np.array_equal(g, np.zeros((2, 3)))


def add_at_edge_gradient(d, edges, rest):
    """``_edge_term_gradient`` summed by np.add.at over i, then j: the reference
    its bincount sums must equal bit for bit."""
    grad = np.zeros_like(d)
    if edges.shape[0] == 0:
        return grad
    i, j = edges[:, 0], edges[:, 1]
    dv = d[i] - d[j]
    ld = np.linalg.norm(dv, axis=1)
    safe = np.where(ld > 0, ld, 1.0)
    coef = np.where(ld > 0, 2.0 * (ld - rest) / (edges.shape[0] * safe), 0.0)
    contrib = coef[:, None] * dv
    np.add.at(grad, i, contrib)
    np.add.at(grad, j, -contrib)
    return grad


def gradient_cases():
    rng = np.random.default_rng(5)
    puppet = make_puppet(2, 0.4, 0.2, seed=1).posed_mesh
    for k in range(10):  # a mesh's sorted edges, perturbed vertices
        d = puppet.vertices + rng.normal(scale=0.05, size=puppet.vertices.shape)
        yield pytest.param(d, puppet.edges, id=f"puppet_{k}")
    for k in range(10):  # repeated edges in any order, over few vertices
        d = rng.normal(size=(12, 3))
        yield pytest.param(d, rng.integers(0, 12, size=(40, 2)), id=f"random_edges_{k}")
    d = rng.normal(size=(4, 3))
    d[2] = d[1]
    collapsed = np.array([[0, 1], [1, 2], [2, 3], [3, 3]])
    yield pytest.param(d, collapsed, id="two_collapsed_edges")
    yield pytest.param(d, np.zeros((0, 2), dtype=np.int64), id="no_edges")


@pytest.mark.parametrize("d, edges", gradient_cases())
def test_edge_term_gradient_equals_the_add_at_sums(d, edges):
    rest = np.random.default_rng(0).uniform(0.01, 1.0, size=edges.shape[0])
    got = _edge_term_gradient(d, edges, rest)
    ref = add_at_edge_gradient(d, edges, rest)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def test_numerical_gradient_quadratic():
    A = np.array([[2.0, 0.5], [0.5, 1.0]])

    def f(x):
        return float(x @ A @ x)

    x0 = np.array([0.3, -1.2])
    expect = 2.0 * A @ x0
    got = numerical_gradient(f, x0)
    assert np.max(np.abs(got - expect)) <= 1e-8


def test_numerical_gradient_rejects_nonfinite_probe():
    def f(x):
        return float("nan")

    with pytest.raises(ValueError):
        numerical_gradient(f, np.array([1.0]))
