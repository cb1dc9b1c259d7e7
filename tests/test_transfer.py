import dataclasses
import functools
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from posekit import (
    DivergenceError,
    GmmParams,
    JointRegressor,
    KeypointSet,
    KinematicTree,
    SkinningMatrix,
    TransferConfig,
    bone_centers,
    bundled_tree,
    default_radii,
    edge_loss,
    gmm_weights,
    keypoint_loss,
    load_keypoints,
    load_mesh,
    load_regressor,
    load_tree,
    load_weights,
    make_puppet,
    pmd,
    pose_transfer,
    refine,
    regress_keypoints,
    run_manifest,
    save_keypoints,
    save_mesh,
    self_reconstruct,
    cycle_reconstruct,
    save_result,
    LossWeights,
    Mesh,
    TwistAngles,
    forward_kinematics,
    lbs_apply,
    numerical_gradient,
    pseudo_weights,
    scalable_ik,
    total_loss,
    transfer,
)
from posekit.transfer import _descend, _minimize, load_manifest


def puppet_config(puppet, **opt):
    cfg = TransferConfig(tree=puppet.tree)
    for k, v in opt.items():
        setattr(cfg.optimizer, k, v)
    return cfg


# -- optimizer --


def squares(root):
    """Objective x' root' root x for _minimize: value, residuals, Jacobian."""

    def f(x):
        r = root @ x
        return float(r @ r), r, lambda: root

    return f


def test_minimize_quadratic():
    f = squares(np.diag([1.0, 2.0]))
    x, values, stop = _minimize(f, np.array([2.0, -1.5]), 200, 1e-14)
    assert np.max(np.abs(x)) <= 1e-5
    assert values[0] == f(np.array([2.0, -1.5]))[0]
    assert values[-1] == f(x)[0]  # the last accepted value is the final point's
    assert all(b < a for a, b in zip(values, values[1:]))  # strict descent
    assert stop == "converged"


def rosenbrock(scale=1.0, points=None):
    """r = scale (10 (x2 - x1^2), 1 - x1) for _minimize: a curved valley
    Gauss-Newton alone overshoots. ``points`` collects every evaluated x."""

    def f(x):
        if points is not None:
            points.append(x)
        r = scale * np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])
        return float(r @ r), r, lambda: scale * np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])

    return f


def test_minimize_rosenbrock():
    x, values, stop = _minimize(rosenbrock(), np.array([-1.2, 1.0]), 100, 1e-20)
    assert np.max(np.abs(x - 1.0)) <= 1e-8
    assert all(b < a for a, b in zip(values, values[1:]))
    assert stop == "converged" and len(values) < 100


def test_minimize_first_step_is_damped_by_the_largest_curvature():
    # mu starts at 1e-3 max diag(H), H = 2 J'J: (H + mu I) d = -g, g = 2 J'r;
    # the second curvature is below mu, so an undamped step would differ
    root = np.array([[1.0, 0.3], [0.0, 0.01]])
    x0 = np.array([1.0, -2.0])
    hessian, g = 2.0 * root.T @ root, 2.0 * root.T @ (root @ x0)
    d = np.linalg.solve(hessian + 1e-3 * hessian.diagonal().max() * np.eye(2), -g)
    assert not np.allclose(d, np.linalg.solve(hessian, -g), rtol=0.1)
    x, values, stop = _minimize(squares(root), x0, 1, 0.0)
    assert np.allclose(x, x0 + d, rtol=1e-12, atol=0.0)
    assert stop == "max_iters" and len(values) == 2


def test_minimize_iterates_do_not_depend_on_the_scale_of_the_residuals():
    # scaling r and J by s scales 2 J'J, 2 J'r and the starting damping by s^2
    # alike, so each step, and each gain ratio, is the same up to rounding
    unit, small = [], []
    x0 = np.array([-1.2, 1.0])
    _, unit_values, _ = _minimize(rosenbrock(1.0, unit), x0, 12, 0.0)
    _, small_values, _ = _minimize(rosenbrock(1e-9, small), x0, 12, 0.0)
    assert len(unit_values) == 13 and len(small) == len(unit) > 13  # rejected trials too
    assert np.allclose(small, unit, rtol=1e-12, atol=1e-12)
    assert np.allclose(small_values, 1e-18 * np.array(unit_values), rtol=1e-10, atol=0.0)


def test_minimize_starts_at_optimum():
    x, values, stop = _minimize(squares(np.eye(3)), np.zeros(3), 50, 1e-12)
    assert np.array_equal(x, np.zeros(3))
    assert values == [0.0]
    assert stop == "zero_gradient"


@pytest.mark.parametrize("size", [3, 0], ids=["zero", "empty"])
def test_minimize_zero_residuals_build_no_jacobian(size):
    # 2 J'r is zero whatever J is, so the solve stops before asking for J
    calls = []

    def f(x):
        def jacobian():
            calls.append(1)
            return np.eye(size, x.shape[0])

        return 0.0, np.zeros(size), jacobian

    x, values, stop = _minimize(f, np.ones(2), 50, 1e-12)
    assert stop == "zero_gradient" and values == [0.0]
    assert np.array_equal(x, np.ones(2)) and calls == []


def test_minimize_stop_reasons():
    f = squares(np.diag([1.0, 2.0]))
    x0 = np.array([2.0, -1.5])
    _, values, stop = _minimize(f, x0, 3, 1e-14)
    assert stop == "max_iters" and len(values) == 4
    _, values, stop = _minimize(f, x0, 0, 1e-14)
    assert stop == "max_iters" and len(values) == 1

    def only_start(x):  # every trial is rejected
        return f(x) if np.array_equal(x, x0) else None

    x, values, stop = _minimize(only_start, x0, 50, 1e-14)
    assert stop == "no_decrease"
    assert np.array_equal(x, x0) and len(values) == 1


def test_minimize_nonfinite_start_raises():
    with pytest.raises(DivergenceError):
        _minimize(lambda v: (float("nan"), v, None), np.zeros(2), 10, 1e-12)
    with pytest.raises(DivergenceError):
        _minimize(lambda v: None, np.zeros(2), 10, 1e-12)


def test_minimize_analytic_gradient_path():
    # the gradient descent refine runs on
    def f(x):
        return float(x @ x)

    def g(x):
        return 2.0 * x

    x = _descend(f, g, np.array([3.0, -4.0]), 100, 1.0, 1e-14)
    assert np.max(np.abs(x)) <= 1e-6
    assert f(x) <= 1e-10


# -- puppet generator --


def test_puppet_layout():
    p = make_puppet(2, 0.0, 0.0, seed=0)
    assert p.tree.n_joints == 3
    assert np.allclose(p.rest_keypoints.joints, [[0, 0, 0], [0, 0, 1], [0, 0, 2]])
    p.rest_mesh.validate()
    p.posed_mesh.validate()
    assert p.rest_mesh.same_connectivity(p.posed_mesh)


def test_puppet_weight_rows_sum_exactly_to_one():
    p = make_puppet(3, 0.5, 0.2, seed=1)
    w = p.weights.weights
    assert np.array_equal(w.sum(axis=1), np.ones(w.shape[0]))


def test_puppet_weights_match_gaussian_soft_assignment():
    # the logistic blend is the two-center Gaussian softmax in closed form
    p = make_puppet(2, 0.0, 0.0, seed=2)
    params = GmmParams(
        bone_centers(p.rest_keypoints, p.tree),
        default_radii(p.rest_keypoints, p.tree),
        temperature=2.0,
    )
    w = gmm_weights(p.rest_mesh.vertices, params).weights
    assert np.max(np.abs(w - p.weights.weights)) <= 1e-12


def test_puppet_posed_joints_bend_only():
    # bending 60 degrees at the middle joint: tip at (0, -sin60, 1+cos60)
    p = make_puppet(2, np.pi / 3, 0.0, seed=3)
    assert np.allclose(p.posed_keypoints.joints[1], [0, 0, 1], atol=1e-15)
    assert np.allclose(
        p.posed_keypoints.joints[2], [0, -np.sin(np.pi / 3), 1.5], atol=1e-12
    )


def test_puppet_twist_leaves_joints_moves_surface():
    a = make_puppet(2, np.pi / 4, 0.0, seed=4)
    b = make_puppet(2, np.pi / 4, np.pi / 3, seed=4)
    assert np.max(np.abs(a.posed_keypoints.joints - b.posed_keypoints.joints)) <= 1e-12
    assert np.max(np.linalg.norm(a.posed_mesh.vertices - b.posed_mesh.vertices, axis=1)) >= 1e-3


def test_puppet_single_segment_twist():
    p = make_puppet(1, 0.0, np.pi / 2, seed=5)
    # quarter turn about z: x-axis ring vertices land on the y-axis
    r = p.rest_mesh.vertices
    q = p.posed_mesh.vertices
    assert np.allclose(q[:, 2], r[:, 2], atol=1e-15)
    assert np.allclose(q[:, 0], -r[:, 1], atol=1e-12)
    assert np.allclose(q[:, 1], r[:, 0], atol=1e-12)


def test_puppet_zero_pose_is_rest():
    # blending identical mapped points reassociates the sum, so ulp-level only
    p = make_puppet(3, 0.0, 0.0, seed=6)
    assert np.max(np.abs(p.rest_mesh.vertices - p.posed_mesh.vertices)) <= 1e-14


def test_puppet_seed_changes_surface_only():
    a = make_puppet(2, 0.3, 0.1, seed=7)
    b = make_puppet(2, 0.3, 0.1, seed=8)
    assert np.array_equal(a.rest_keypoints.joints, b.rest_keypoints.joints)
    assert not np.array_equal(a.rest_mesh.vertices, b.rest_mesh.vertices)


def test_puppet_rejects_zero_segments():
    with pytest.raises(ValueError):
        make_puppet(0, 0.0, 0.0, seed=0)


# -- pose transfer --


def test_transfer_identity_pose():
    p = make_puppet(2, np.pi / 3, np.pi / 4, seed=0)
    for enabled in (True, False):
        cfg = puppet_config(p)
        cfg.refinement.enabled = enabled
        res = pose_transfer(p.rest_mesh, p.rest_keypoints, p.rest_keypoints, cfg)
        assert pmd(res.refined, p.rest_mesh) <= 1e-12
        assert pmd(res.coarse, p.rest_mesh) <= 1e-12


def test_transfer_rigidly_moved_target():
    # keypoints alone pin the joints exactly; the surface roll about a
    # straight chain is twist, recoverable only with mesh supervision
    from test_kinematics import random_rotation

    p = make_puppet(2, 0.0, 0.0, seed=1)
    rng = np.random.default_rng(9)
    R = random_rotation(rng)
    t = rng.normal(size=3)
    tgt_kp = KeypointSet(p.rest_keypoints.joints @ R.T + t)
    expect = p.rest_mesh.with_vertices(p.rest_mesh.vertices @ R.T + t)
    cfg = puppet_config(p)
    bare = pose_transfer(p.rest_mesh, p.rest_keypoints, tgt_kp, cfg)
    assert np.max(np.abs(bare.rotations.posed_joints - tgt_kp.joints)) <= 1e-9
    guided = pose_transfer(
        p.rest_mesh, p.rest_keypoints, tgt_kp, cfg, target_mesh=expect
    )
    assert pmd(guided.coarse, expect) <= 1e-6


def test_transfer_recovers_distal_twist():
    p = make_puppet(2, np.pi / 3, np.pi / 4, seed=0)
    cfg = puppet_config(p)
    res = pose_transfer(
        p.rest_mesh, p.rest_keypoints, p.posed_keypoints, cfg, target_mesh=p.posed_mesh
    )
    assert abs(res.twists.phi[1] - np.pi / 4) <= np.deg2rad(1.0)
    assert pmd(res.refined, p.posed_mesh) <= 1e-3
    totals = [b.total for b in res.losses]
    assert all(b <= a for a, b in zip(totals, totals[1:]))


def test_transfer_history_starts_at_zero_twist():
    p = make_puppet(2, np.pi / 3, np.pi / 4, seed=0)
    cfg = puppet_config(p)
    res = pose_transfer(
        p.rest_mesh, p.rest_keypoints, p.posed_keypoints, cfg, target_mesh=p.posed_mesh
    )
    assert len(res.losses) >= 2
    assert res.losses[0].total >= res.losses[-1].total


def test_transfer_is_deterministic():
    p = make_puppet(2, np.pi / 3, np.pi / 4, seed=0)

    def run():
        cfg = puppet_config(p)
        return pose_transfer(
            p.rest_mesh,
            p.rest_keypoints,
            p.posed_keypoints,
            cfg,
            target_mesh=p.posed_mesh,
        )

    a, b = run(), run()
    assert np.array_equal(a.refined.vertices, b.refined.vertices)
    assert np.array_equal(a.twists.phi, b.twists.phi)
    assert [x.total for x in a.losses] == [x.total for x in b.losses]


def test_transfer_connectivity_mismatch():
    p = make_puppet(2, 0.1, 0.0, seed=0)
    q = make_puppet(3, 0.1, 0.0, seed=0)
    cfg = puppet_config(p)
    with pytest.raises(ValueError):
        pose_transfer(
            p.rest_mesh,
            p.rest_keypoints,
            p.posed_keypoints,
            cfg,
            target_mesh=q.rest_mesh,
        )


def test_transfer_supplied_weights_used_verbatim():
    p = make_puppet(2, 0.2, 0.0, seed=0)
    cfg = puppet_config(p)
    res = pose_transfer(
        p.rest_mesh,
        p.rest_keypoints,
        p.posed_keypoints,
        cfg,
        weights=p.weights,
    )
    assert res.weights is p.weights


def test_transfer_optimize_radii_path():
    p = make_puppet(2, np.pi / 6, 0.0, seed=0)
    cfg = puppet_config(p, max_iters=20)
    cfg.gmm.optimize_radii = True
    res = pose_transfer(p.rest_mesh, p.rest_keypoints, p.posed_keypoints, cfg)
    w = res.weights.weights
    assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-9
    # supplied weights are ignored, which lets run_manifest always pass them
    given = pose_transfer(
        p.rest_mesh, p.rest_keypoints, p.posed_keypoints, cfg, weights=p.weights
    )
    assert np.array_equal(given.weights.weights, w)
    assert np.array_equal(given.refined.vertices, res.refined.vertices)


@pytest.mark.parametrize(
    "radii, optimize_radii",
    [([0.5, np.nan], False), ([0.5, np.nan], True), ([0.5, -0.5], True)],
)
def test_bad_gmm_radii_are_bad_input_not_divergence(radii, optimize_radii):
    p = make_puppet(2, 0.1, 0.0, seed=0)
    cfg = puppet_config(p)
    cfg.gmm.radii = np.array(radii)
    cfg.gmm.optimize_radii = optimize_radii
    with pytest.raises(ValueError, match="radii must be finite and positive"):
        pose_transfer(p.rest_mesh, p.rest_keypoints, p.posed_keypoints, cfg)


def test_transfer_bad_radii_count():
    p = make_puppet(2, 0.1, 0.0, seed=0)
    cfg = puppet_config(p)
    cfg.gmm.radii = np.array([1.0])
    with pytest.raises(ValueError):
        pose_transfer(p.rest_mesh, p.rest_keypoints, p.posed_keypoints, cfg)


def test_transfer_recovers_the_eight_segment_twist():
    p = make_puppet(8, 0.3, 0.3, 0)
    res = pose_transfer(
        p.rest_mesh, p.rest_keypoints, p.posed_keypoints, puppet_config(p),
        target_mesh=p.posed_mesh,
    )
    assert abs(res.twists.phi[-1] - 0.3) <= 1e-3
    assert np.abs(res.twists.phi[:-1]).max() <= 1e-3
    assert res.stop_reason == "converged"  # before the max_iters cap


def test_unsupervised_bend_only_transfer_keeps_zero_twist():
    # twist is invisible to keypoints: with no target mesh there is nothing
    # to fit, so the solve stops at zero twist after one evaluation
    p = make_puppet(8, 0.3, 0.0, 0)
    res = pose_transfer(p.rest_mesh, p.rest_keypoints, p.posed_keypoints, puppet_config(p))
    assert res.stop_reason == "zero_gradient" and len(res.losses) == 1
    assert res.losses[0].total == 0.0
    assert np.abs(res.twists.phi).max() <= 1e-6
    assert pmd(res.refined, p.posed_mesh) <= 1e-6


def test_transfer_max_iters_stop_reason_is_saved(tmp_path):
    p = make_puppet(2, np.pi / 3, np.pi / 4, seed=0)
    res = pose_transfer(
        p.rest_mesh, p.rest_keypoints, p.posed_keypoints, puppet_config(p, max_iters=3),
        target_mesh=p.posed_mesh,
    )
    assert res.stop_reason == "max_iters" and len(res.losses) == 4
    summary = save_result(res, tmp_path)
    assert json.loads((tmp_path / "summary.json").read_text())["stop_reason"] == "max_iters"
    assert summary["stop_reason"] == "max_iters"


# -- twist Jacobian --


def captured_objective(run):
    """The objective ``run()`` hands to ``_minimize``."""
    got = []
    real = transfer._minimize

    def spy(f, x0, *args, **kwargs):
        got.append(f)
        return real(f, x0, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transfer, "_minimize", spy)
        run()
    return got[0]


def assert_gradient_matches(f, x):
    """2 J'r against central differences of the value, and r.r against the value.

    The differences at two steps are extrapolated to cancel their h^2 error,
    which near an exact fit outgrows the tolerance. Per component, as the
    twists a term hardly sees have tiny gradients; the absolute slack covers
    the differences' rounding, about 7e-11 |value|.
    """
    value, r, jacobian = f(x)
    assert float(r @ r) == pytest.approx(value, rel=1e-12)
    got = 2.0 * jacobian().T @ r
    fd = [numerical_gradient(lambda y: f(y)[0], x, step) for step in (1e-5, 5e-6)]
    want = (4.0 * fd[1] - fd[0]) / 3.0
    assert np.all(np.abs(got - want) <= 1e-5 * np.abs(want) + 1e-9 * value)


def assert_no_residuals(f, x):
    """An unsupervised objective: value 0 and an empty residual vector."""
    value, r, _ = f(x)
    assert value == 0.0 and r.shape == (0,)


def solve_nothing(puppet):
    cfg = puppet_config(puppet, max_iters=0)
    cfg.refinement.enabled = False
    return cfg


@settings(max_examples=25, deadline=None)
@given(
    segments=st.integers(1, 4),
    bend=st.floats(0.1, 1.2),
    twist=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**16),
    supervised=st.booleans(),
    data=st.data(),
)
def test_twist_jacobian_matches_finite_differences(segments, bend, twist, seed, supervised, data):
    p = make_puppet(segments, bend, twist, seed, sides=8, rings_per_segment=3)
    f = captured_objective(
        lambda: pose_transfer(
            p.rest_mesh, p.rest_keypoints, p.posed_keypoints, solve_nothing(p),
            target_mesh=p.posed_mesh if supervised else None,
        )
    )
    phi = np.array(
        data.draw(st.lists(st.floats(-np.pi, np.pi), min_size=segments, max_size=segments))
    )
    if not supervised:  # nothing to fit: no residuals, whatever the twists
        assert_no_residuals(f, phi)
        return
    # residuals near rounding (an exact fit) make the gradient rounding noise
    assume(f(phi)[0] > 1e-12)
    assert_gradient_matches(f, phi)


def test_radii_jacobian_matches_finite_differences():
    p = make_puppet(3, 0.5, 0.4, seed=2)
    cfg = solve_nothing(p)
    cfg.gmm.optimize_radii = True
    f = captured_objective(
        lambda: pose_transfer(
            p.rest_mesh, p.rest_keypoints, p.posed_keypoints, cfg, target_mesh=p.posed_mesh
        )
    )
    rng = np.random.default_rng(3)
    for _ in range(3):
        x = np.concatenate([rng.uniform(-1, 1, 3), np.log(rng.uniform(0.3, 0.8, 3))])
        assert_gradient_matches(f, x)


def ring_regressor(puppet, sides=16, rings_per_segment=8):
    """Joint j reads the mean of the vertex ring at height j."""
    n_joints = puppet.tree.n_joints
    matrix = np.zeros((n_joints, puppet.rest_mesh.n_vertices))
    for j in range(n_joints):
        start = j * rings_per_segment * sides
        matrix[j, start : start + sides] = 1.0 / sides
    return JointRegressor(matrix)


@pytest.mark.parametrize("with_regressor", [False, True])
def test_cycle_jacobian_matches_finite_differences(with_regressor):
    # without a regressor the solve is over hop 2's K twists; with one, over
    # both hops' 2K
    a = make_puppet(2, 0.6, 0.4, seed=0)
    b = make_puppet(2, 0.6, 0.4, seed=7, radius=0.3)
    c = make_puppet(2, 0.3, 0.0, seed=7, radius=0.3)
    f = captured_objective(
        lambda: cycle_reconstruct(
            a.rest_mesh, a.rest_keypoints, b.posed_mesh, b.posed_keypoints,
            c.posed_mesh, c.posed_keypoints, solve_nothing(a),
            intermediate_regressor=ring_regressor(a) if with_regressor else None,
        )
    )
    rng = np.random.default_rng(5)
    n_twists = a.tree.n_bones * (2 if with_regressor else 1)
    for _ in range(3):
        assert_gradient_matches(f, rng.uniform(-np.pi, np.pi, n_twists))


def branching_figure(tree, rng):
    """A figure over ``tree``, built without ``make_puppet``: three jittered
    vertices along each bone of a random rest skeleton, joined in order into
    one strip of faces, with pseudo weights; and the target keypoints and
    mesh of random relative rotations, posed by FK and LBS."""
    from test_kinematics import _random_pose, random_rotation

    rest_kp = _random_pose(tree, rng)
    heads, tails = rest_kp.joints[tree.parents[1:]], rest_kp.joints[1:]
    t = np.array([0.2, 0.5, 0.8])[None, :, None]
    vertices = (heads[:, None] + t * (tails - heads)[:, None]).reshape(-1, 3)
    vertices += 0.1 * rng.normal(size=vertices.shape)
    strip = np.arange(vertices.shape[0] - 2)
    rest = Mesh(vertices, np.stack([strip, strip + 1, strip + 2], axis=1))
    weights = pseudo_weights(vertices, rest_kp, tree, 2.0)
    rotations = np.stack([random_rotation(rng) for _ in range(tree.n_bones)])
    tf = forward_kinematics(rest_kp, rotations, tree)
    return rest, rest_kp, KeypointSet(tf.posed_joints), lbs_apply(rest, weights, tf)


@pytest.mark.parametrize("supervised", [False, True], ids=["unsupervised", "supervised"])
@pytest.mark.parametrize("name", ["smpl_24", "smal_33"])
def test_twist_jacobian_matches_finite_differences_on_branching_trees(name, supervised):
    # the roots of both trees, and joints 3 and 5 of smal_33, have several children
    tree = bundled_tree(name)
    rng = np.random.default_rng(11)
    rest, rest_kp, target_kp, target = branching_figure(tree, rng)
    cfg = TransferConfig(tree=tree)
    cfg.optimizer.max_iters = 0
    cfg.refinement.enabled = False
    f = captured_objective(
        lambda: pose_transfer(
            rest, rest_kp, target_kp, cfg, target_mesh=target if supervised else None
        )
    )
    phi = rng.uniform(-np.pi, np.pi, tree.n_bones)
    if not supervised:
        assert_no_residuals(f, phi)
        return
    assert f(phi)[0] > 1e-12
    assert_gradient_matches(f, phi)


def test_a_bone_folded_onto_its_parent_keeps_the_jacobian_finite():
    # the target turns the distal bone back onto its parent, so on the straight
    # rest chain u.a = -1 at every twist: _swing folds it, and the rate at which
    # its parent's twist turns it is undefined. That rate is 0, so the solve
    # builds only finite Jacobians (else _minimize raises), and it still
    # recovers the twists
    p = make_puppet(3, 0.5, 0.0, seed=0, sides=8, rings_per_segment=3)
    joints = p.posed_keypoints.joints.copy()
    joints[3] = joints[1]  # bone 3 runs from joint 2 back to joint 1
    target_kp = KeypointSet(joints)
    phi = np.array([0.0, 0.3, 0.5])
    tf = transfer._poser(p.rest_keypoints, target_kp, p.tree)(phi)
    res = pose_transfer(
        p.rest_mesh, p.rest_keypoints, target_kp, puppet_config(p),
        target_mesh=lbs_apply(p.rest_mesh, p.weights, tf), weights=p.weights,
    )
    assert res.stop_reason in ("converged", "no_decrease", "max_iters") and len(res.losses) > 1
    assert np.allclose(res.twists.phi, phi, rtol=0.0, atol=1e-3)


def gemm_case(name):
    """A run whose objective's Jacobian has twist columns, and a point to take it at."""
    rng = np.random.default_rng(sum(map(ord, name)))
    base = name.removesuffix("_radii")
    if base.startswith("chain"):
        p = make_puppet(int(base[5:]), 0.5, 0.4, seed=3)
        rest, rest_kp, target_kp, target, cfg = (
            p.rest_mesh, p.rest_keypoints, p.posed_keypoints, p.posed_mesh, solve_nothing(p)
        )
    elif name == "regressor_cycle":  # K own twists, then K first-hop twists
        a = make_puppet(2, 0.6, 0.4, seed=0)
        b = make_puppet(2, 0.6, 0.4, seed=7, radius=0.3)
        c = make_puppet(2, 0.3, 0.0, seed=7, radius=0.3)
        run = solve_runs(a, b, c, solve_nothing(a), ring_regressor(a))["cycle"]
        return run, rng.uniform(-np.pi, np.pi, 4)
    else:  # a bundled tree, or a random one of 2-33 joints
        n = int(rng.integers(2, 34))
        tree = bundled_tree(base) if base.startswith("sm") else KinematicTree(
            [-1] + [int(rng.integers(0, j)) for j in range(1, n)]
        )
        rest, rest_kp, target_kp, target = branching_figure(tree, rng)
        cfg = TransferConfig(tree=tree)
        cfg.optimizer.max_iters = 0
        cfg.refinement.enabled = False
    k = cfg.tree.n_bones
    x = rng.uniform(-np.pi, np.pi, k)
    if name.endswith("radii"):
        cfg.gmm.optimize_radii = True
        x = np.concatenate([x, np.log(rng.uniform(0.3, 0.8, k))])
    return lambda: pose_transfer(rest, rest_kp, target_kp, cfg, target_mesh=target), x


@pytest.mark.parametrize(
    "name",
    ["chain1", "chain3", "chain8", "chain3_radii", "random0", "random1", "random2",
     "smpl_24", "smal_33", "smpl_24_radii", "regressor_cycle"],
)
def test_gemm_twist_columns_equal_a_blend_per_tangent(name):
    # the closed-form twist derivatives against differences of _poser,
    # extrapolated to cancel their h^2 error; and the Jacobian's twist
    # columns, one design-matrix product, against one lbs_blend of each
    # derivative, scaled as the residuals are
    run, x = gemm_case(name)
    f = captured_objective(run)
    blends, derivatives = [], []
    real_blend, real_derivatives = transfer.lbs_blend, transfer._twist_derivatives

    def spy(*args):
        derivatives.append((args, real_derivatives(*args)))
        return derivatives[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transfer, "lbs_blend", lambda *a: blends.append(a) or real_blend(*a))
        mp.setattr(transfer, "_twist_derivatives", spy)
        _, r, jacobian = f(x)
        vertices, skin, _ = blends[-1]  # the residuals' blend: the weights at x
        jac = jacobian()
    assert len(derivatives) == 1 and r.shape == (3 * len(vertices),)
    (rest_kp, tf, tree), (rotations, translations) = derivatives[0]
    k = tree.n_bones
    # IK reads only the target's directions and root, so the posed joints
    # give the posing whose derivatives these are
    pose = transfer._poser(rest_kp, KeypointSet(tf.posed_joints), tree)
    assert np.allclose(pose(x[:k]).rotations, tf.rotations, rtol=0.0, atol=1e-12)

    def difference(m, h):
        hi, lo = pose(x[:k] + h * np.eye(k)[m]), pose(x[:k] - h * np.eye(k)[m])
        return [(getattr(hi, a) - getattr(lo, a)) / (2.0 * h) for a in ("rotations", "translations")]

    for m in range(k):
        coarse, fine = difference(m, 1e-4), difference(m, 5e-5)
        want = [(4.0 * b - a) / 3.0 for a, b in zip(coarse, fine)]
        largest = max(np.abs(w).max() for w in want)
        for got, expected in zip((rotations[m], translations[m]), want):
            assert np.all(np.abs(got - expected) <= 1e-8 * largest)
    scale = np.sqrt(1.0 / len(vertices))
    # lbs_blend reads only a transform set's rotations and translations
    rows = [transfer.BoneTransformSet(d, d, t, tf.posed_joints) for d, t in zip(*derivatives[0][1])]
    want = np.stack([scale * real_blend(vertices, skin, row).ravel() for row in rows], axis=1)
    got = jac[:, :k]
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want).max(axis=0))


def small_trio(segments):
    """Source, target and third puppets of a cycle, small enough for many solves."""
    return (
        make_puppet(segments, 0.6, 0.4, seed=0, sides=8, rings_per_segment=3),
        make_puppet(segments, 0.6, 0.4, seed=7, radius=0.3, sides=8, rings_per_segment=3),
        make_puppet(segments, 0.3, 0.0, seed=7, radius=0.3, sides=8, rings_per_segment=3),
    )


def solve_runs(a, b, c, cfg, regressor=None):
    """Both twist solves on a trio: ``pose_transfer`` supervised by a's posed
    mesh, and ``cycle_reconstruct`` through b and c."""
    return {
        "transfer": lambda: pose_transfer(
            a.rest_mesh, a.rest_keypoints, b.posed_keypoints, cfg, target_mesh=a.posed_mesh,
        ),
        "cycle": lambda: cycle_reconstruct(
            a.rest_mesh, a.rest_keypoints, b.posed_mesh, b.posed_keypoints,
            c.posed_mesh, c.posed_keypoints, cfg, intermediate_regressor=regressor,
        ),
    }


@pytest.mark.parametrize("segments", [1, 3, 6])
@pytest.mark.parametrize("solve", ["transfer", "cycle", "transfer_radii", "regressor_cycle"])
def test_an_evaluation_makes_one_stacked_ik_call_per_hop(monkeypatch, segments, solve):
    # each evaluation poses its point as one twist row per hop: two hops for a
    # cycle through a regressor, else one, as without a regressor the cycle
    # poses the third mesh onto the target keypoints and never its first hop.
    # A Jacobian poses nothing for the solved surface's own twists or for the
    # log radii, whose probes keep the evaluation's transforms, and poses each
    # probe point of a regressor cycle's first-hop twists as an evaluation does
    a, b, c = small_trio(segments)
    cfg = puppet_config(a, max_iters=3)
    cfg.gmm.optimize_radii = solve == "transfer_radii"
    regressor = ring_regressor(a, sides=8, rings_per_segment=3) if solve == "regressor_cycle" else None
    hops = [1, 1] if regressor else [1]
    per_jacobian = [1] * (2 * segments * len(hops)) if regressor else []
    calls, evaluations, jacobians = [], [], []
    real_ik, real_minimize = transfer._ik_twists, transfer._minimize

    def counted_ik(setup, phi, tree):  # the twist rows of each pass
        calls.append(len(np.atleast_2d(phi)))
        return real_ik(setup, phi, tree)

    def counted(f):
        def evaluate(x):
            before = len(calls)
            out = f(x)
            evaluations.append(calls[before:])
            if out is None:
                return None
            value, r, jacobian = out

            def counted_jacobian():
                before = len(calls)
                jac = jacobian()
                jacobians.append(calls[before:])
                return jac

            return value, r, counted_jacobian

        return evaluate

    monkeypatch.setattr(transfer, "_ik_twists", counted_ik)
    monkeypatch.setattr(
        transfer, "_minimize", lambda f, *args, **kw: real_minimize(counted(f), *args, **kw)
    )
    solve_runs(a, b, c, cfg, regressor)["cycle" if solve.endswith("cycle") else "transfer"]()
    assert len(jacobians) >= 2
    assert evaluations and all(made == hops for made in evaluations)
    assert all(made == per_jacobian for made in jacobians)
    # every call was made inside an evaluation or a Jacobian
    assert len(calls) == sum(map(len, evaluations + jacobians))


def pose_rows_alone(poser, posed):
    """``poser`` whose posers pose every call by a fresh poser of their
    target, built for that call alone; ``posed`` collects each call's rows."""

    def fresh_poser(rest_kp, target_kp, tree):
        def pose(twists):
            posed.append(len(np.atleast_2d(twists)))
            return poser(rest_kp, target_kp, tree)(twists)

        return pose

    return fresh_poser


@pytest.mark.parametrize(
    "solve, segments, radii, regressor",
    [
        *((solve, k, False, False) for solve in ("transfer", "cycle") for k in (1, 3, 6)),
        ("transfer", 3, True, False),
        ("cycle", 2, False, True),
    ],
)
def test_stacked_objective_equals_posing_every_row_alone(solve, segments, radii, regressor):
    # every posing of a solve, in an evaluation or in a Jacobian's central
    # differences, is one twist row; and neither a poser's setup, built once
    # per solve, nor anything kept from one evaluation to the next changes a
    # bit: points evaluated in turn by one objective give what a fresh
    # objective with a fresh poser per call gives at each
    if regressor:  # ring_regressor reads the default puppet rings
        a = make_puppet(2, 0.6, 0.4, seed=0)
        b = make_puppet(2, 0.6, 0.4, seed=7, radius=0.3)
        c = make_puppet(2, 0.3, 0.0, seed=7, radius=0.3)
    else:
        a, b, c = small_trio(segments)
    cfg = solve_nothing(a)
    cfg.gmm.optimize_radii = radii
    run = solve_runs(a, b, c, cfg, ring_regressor(a) if regressor else None)[solve]
    n_twists = segments * (2 if regressor else 1)
    rng = np.random.default_rng(segments)
    points = [rng.uniform(-np.pi, np.pi, n_twists) for _ in range(3)]
    if radii:
        points = [np.concatenate([x, np.log(rng.uniform(0.3, 0.8, segments))]) for x in points]

    solved = [(value, r, jacobian()) for value, r, jacobian in map(captured_objective(run), points)]
    posed = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transfer, "_poser", pose_rows_alone(transfer._poser, posed))
        fresh = (captured_objective(run)(x) for x in points)  # one objective per point
        reference = [(value, r, jacobian()) for value, r, jacobian in fresh]
    # the patch reached every evaluation, each posing one row per hop
    assert len(posed) >= len(points) * (2 if regressor else 1) and set(posed) == {1}
    for (value, r, jac), (want_value, want_r, want_jac) in zip(solved, reference):
        assert value == want_value
        assert np.array_equal(r, want_r)
        assert np.array_equal(jac, want_jac)


def test_cycle_with_a_regressor_that_merges_joints_raises_degenerate_bone():
    # joints 1 and 2 read the same vertex, so the intermediate keypoints put
    # bone 2 at zero length; the second hop's IK must reject them
    a = make_puppet(2, 0.6, 0.4, seed=0)
    b = make_puppet(2, 0.6, 0.4, seed=7, radius=0.3)
    c = make_puppet(2, 0.3, 0.0, seed=7, radius=0.3)
    matrix = ring_regressor(a).matrix
    matrix[2] = matrix[1]
    with pytest.raises(ValueError, match="degenerate bone"):
        cycle_reconstruct(
            a.rest_mesh, a.rest_keypoints, b.posed_mesh, b.posed_keypoints,
            c.posed_mesh, c.posed_keypoints, puppet_config(a),
            intermediate_regressor=JointRegressor(matrix),
        )


# -- refinement --


def test_refine_never_worsens_edges():
    p = make_puppet(2, np.pi / 3, np.pi / 4, seed=0)
    cfg = puppet_config(p)
    cfg.refinement.enabled = False
    res = pose_transfer(p.rest_mesh, p.rest_keypoints, p.posed_keypoints, cfg)
    refined = refine(res.coarse, p.rest_mesh, cfg)
    assert edge_loss(p.rest_mesh, refined) <= edge_loss(p.rest_mesh, res.coarse)


def test_refine_large_ridge_pins_to_coarse():
    p = make_puppet(2, np.pi / 3, 0.0, seed=0)
    cfg = puppet_config(p)
    cfg.refinement.ridge = 1e12
    res = pose_transfer(p.rest_mesh, p.rest_keypoints, p.posed_keypoints, cfg)
    refined = refine(res.coarse, p.rest_mesh, cfg)
    assert pmd(refined, res.coarse) <= 1e-12


def test_refine_connectivity_mismatch():
    p = make_puppet(2, 0.1, 0.0, seed=0)
    q = make_puppet(3, 0.1, 0.0, seed=0)
    with pytest.raises(ValueError):
        refine(p.rest_mesh, q.rest_mesh, puppet_config(p))


# -- reconstruction protocols --


def test_self_reconstruct_small_error():
    p = make_puppet(2, np.pi / 3, np.pi / 4, seed=0)
    cfg = puppet_config(p)
    err = self_reconstruct(
        p.rest_mesh, p.rest_keypoints, p.posed_mesh, p.posed_keypoints, cfg
    )
    assert err <= 1e-3


def test_self_reconstruct_connectivity_guard():
    p = make_puppet(2, 0.1, 0.0, seed=0)
    q = make_puppet(3, 0.1, 0.0, seed=0)
    with pytest.raises(ValueError):
        self_reconstruct(
            p.rest_mesh, p.rest_keypoints, q.rest_mesh, q.rest_keypoints, puppet_config(p)
        )


def test_cycle_reconstruct_small_error():
    bend, twist = np.pi / 3, np.pi / 4
    pa = make_puppet(2, bend, twist, seed=0, radius=0.25)
    pb_t = make_puppet(2, bend, twist, seed=7, radius=0.3)
    pb_3 = make_puppet(2, np.pi / 6, 0.0, seed=7, radius=0.3)
    cfg = puppet_config(pa)
    err = cycle_reconstruct(
        pa.rest_mesh,
        pa.rest_keypoints,
        pb_t.posed_mesh,
        pb_t.posed_keypoints,
        pb_3.posed_mesh,
        pb_3.posed_keypoints,
        cfg,
    )
    assert err <= 5e-3


def test_cycle_reconstruct_through_a_ring_regressor():
    bend, twist = np.pi / 3, np.pi / 4
    pa = make_puppet(2, bend, twist, seed=0, radius=0.25)
    pb_t = make_puppet(2, bend, twist, seed=7, radius=0.3)
    pb_3 = make_puppet(2, np.pi / 6, 0.0, seed=7, radius=0.3)
    regressor = ring_regressor(pa)
    assert keypoint_loss(
        regress_keypoints(pa.rest_mesh, regressor), pa.rest_keypoints
    ) <= 0.01
    err = cycle_reconstruct(
        pa.rest_mesh,
        pa.rest_keypoints,
        pb_t.posed_mesh,
        pb_t.posed_keypoints,
        pb_3.posed_mesh,
        pb_3.posed_keypoints,
        puppet_config(pa),
        intermediate_regressor=regressor,
    )
    assert err <= 5e-3


def scaled(puppet, c):
    """``puppet`` with its meshes and keypoints scaled by ``c`` about the origin."""
    return dataclasses.replace(
        puppet,
        rest_mesh=puppet.rest_mesh.with_vertices(c * puppet.rest_mesh.vertices),
        rest_keypoints=KeypointSet(c * puppet.rest_keypoints.joints),
        posed_mesh=puppet.posed_mesh.with_vertices(c * puppet.posed_mesh.vertices),
        posed_keypoints=KeypointSet(c * puppet.posed_keypoints.joints),
    )


def cycle_trio(bend, twist):
    """The source, target and third puppets of the cycle benchmark's shape."""
    return (
        make_puppet(2, bend, twist, seed=0, radius=0.25),
        make_puppet(2, bend, twist, seed=7, radius=0.3),
        make_puppet(2, bend / 2, 0.0, seed=7, radius=0.3),
    )


def cycle_error(a, b, c, **kwargs):
    return cycle_reconstruct(
        a.rest_mesh, a.rest_keypoints, b.posed_mesh, b.posed_keypoints,
        c.posed_mesh, c.posed_keypoints, puppet_config(a), **kwargs,
    )


@pytest.mark.parametrize("c", [0.01, 100.0])
@pytest.mark.parametrize("twist", [0.3, 2.0])
def test_pose_transfer_twists_do_not_depend_on_mesh_scale(twist, c):
    # twists are angles: meshes and keypoints in other units must give the
    # same solve, which an absolute starting damping does not
    def twists(p):
        cfg = puppet_config(p)
        cfg.refinement.enabled = False
        result = pose_transfer(
            p.rest_mesh, p.rest_keypoints, p.posed_keypoints, cfg, target_mesh=p.posed_mesh
        )
        return result.twists.phi

    p = make_puppet(4, 0.5, twist, 3)
    assert np.abs(twists(scaled(p, c)) - twists(p)).max() <= 1e-4


@pytest.mark.parametrize("c", [0.01, 100.0])
def test_cycle_error_scales_with_the_square_of_mesh_scale(c):
    # the error is a mean of squared distances: c^2 times the unit-scale one
    trio = cycle_trio(np.pi / 4, 0.6)
    assert cycle_error(*(scaled(p, c) for p in trio)) / c**2 == pytest.approx(
        cycle_error(*trio), rel=1e-3
    )


def count_evaluations(monkeypatch):
    """One count per twist solve of the objective evaluations it makes."""
    counts = []
    real = transfer._minimize

    def counted(f, *args, **kwargs):
        counts.append(0)

        def evaluate(x):
            counts[-1] += 1
            return f(x)

        return real(evaluate, *args, **kwargs)

    monkeypatch.setattr(transfer, "_minimize", counted)
    return counts


def test_twist_solves_take_few_evaluations(monkeypatch):
    # puppets of the benchmark's shapes: a damping that starts from the
    # problem's own curvature takes Gauss-Newton-like steps at once
    counts = count_evaluations(monkeypatch)
    cases = [(0.3, 0.2), (0.45, -0.6), (0.6, 0.4), (0.7, -0.3), (0.8, 0.5)]
    for seed, (bend, twist) in enumerate(cases):
        p = make_puppet(4, bend, twist, seed)
        cfg = puppet_config(p)
        cfg.refinement.enabled = False
        pose_transfer(
            p.rest_mesh, p.rest_keypoints, p.posed_keypoints, cfg,
            target_mesh=p.posed_mesh, weights=p.weights,
        )
    for bend, twist in [(np.pi / 6, 0.2), (np.pi / 4, -0.8), (np.pi / 3, 0.5)]:
        cycle_error(*cycle_trio(bend, twist))
    supervised, cycle = counts[: len(cases)], counts[len(cases) :]
    assert len(cycle) == 3 and np.mean(supervised) <= 5 and np.mean(cycle) <= 5


@pytest.mark.parametrize(
    "bend, twist",
    [(np.pi / 3, np.pi / 4), (0.5, 0.8), (0.8, -0.6)],
    ids=["pi/3,pi/4", "0.5,0.8", "0.8,-0.6"],
)
def test_ring_regressor_cycle_takes_few_evaluations(monkeypatch, bend, twist):
    trio = cycle_trio(bend, twist)
    counts = count_evaluations(monkeypatch)
    cycle_error(*trio, intermediate_regressor=ring_regressor(trio[0]))
    assert len(counts) == 1 and counts[0] <= 12


@settings(max_examples=10, deadline=None)
@given(
    segments=st.integers(1, 3),
    bend=st.floats(0.1, 1.2),
    twist=st.floats(-1.0, 1.0),
    seed=st.integers(0, 2**16),
    weight=st.sampled_from([1.0, 3.0]),
)
def test_cycle_without_a_regressor_is_one_supervised_hop(segments, bend, twist, seed, weight):
    # a twist moves no joint, so the first hop's joints are those at zero
    # twist, and the cycle is the third mesh's transfer onto them,
    # supervised by the target
    a = make_puppet(segments, bend, twist, seed, sides=8, rings_per_segment=3)
    b = make_puppet(segments, bend, twist, seed + 1, radius=0.3, sides=8, rings_per_segment=3)
    c = make_puppet(segments, bend / 2, 0.0, seed + 1, radius=0.3, sides=8, rings_per_segment=3)
    cfg = puppet_config(a)
    cfg.loss_weights.lambda_self = cfg.loss_weights.lambda_cycle = weight
    zero = TwistAngles(np.zeros(a.tree.n_bones))
    rel = scalable_ik(a.rest_keypoints, b.posed_keypoints, zero, a.tree)
    hop1 = forward_kinematics(
        a.rest_keypoints, rel, a.tree, root_position=b.posed_keypoints.joints[0]
    )
    one_hop = pose_transfer(
        c.posed_mesh, c.posed_keypoints, KeypointSet(hop1.posed_joints), cfg,
        target_mesh=b.posed_mesh,
    )
    err = cycle_reconstruct(
        a.rest_mesh, a.rest_keypoints, b.posed_mesh, b.posed_keypoints,
        c.posed_mesh, c.posed_keypoints, cfg,
    )
    assert err == pytest.approx(pmd(one_hop.refined, b.posed_mesh), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("segments", [1, 3])
def test_cycle_without_a_regressor_does_not_read_the_source_mesh(segments):
    # hop 1 gives only its joints, posed from the source keypoints: another
    # valid source mesh, of another surface and vertex count, changes no bit
    a, b, c = small_trio(segments)
    other = make_puppet(segments, 1.1, -0.7, seed=3, radius=0.4)
    assert other.posed_mesh.n_vertices != a.rest_mesh.n_vertices
    errors = [
        cycle_reconstruct(
            mesh, a.rest_keypoints, b.posed_mesh, b.posed_keypoints,
            c.posed_mesh, c.posed_keypoints, puppet_config(a),
        )
        for mesh in (a.rest_mesh, a.posed_mesh, other.posed_mesh)
    ]
    assert errors[0] > 0.0 and errors[1] == errors[0] and errors[2] == errors[0]


@pytest.mark.parametrize("extra_rows, extra_columns", [(1, 0), (0, -1)], ids=["rows", "columns"])
def test_cycle_rejects_a_misshapen_regressor_before_building_weights(
    monkeypatch, extra_rows, extra_columns
):
    a = make_puppet(2, 0.6, 0.4, seed=0)
    b = make_puppet(2, 0.6, 0.4, seed=7, radius=0.3)
    c = make_puppet(2, 0.3, 0.0, seed=7, radius=0.3)
    n_rows, n_columns = a.tree.n_joints + extra_rows, a.rest_mesh.n_vertices + extra_columns
    regressor = JointRegressor(np.full((n_rows, n_columns), 1.0 / n_columns))
    built = []
    monkeypatch.setattr(transfer, "pseudo_weights", lambda *args: built.append(1))
    want = (
        f"intermediate_regressor must be {a.tree.n_joints} x {a.rest_mesh.n_vertices} "
        rf"\(tree joints x source vertices\), not {n_rows} x {n_columns}"
    )
    with pytest.raises(ValueError, match=want):
        cycle_reconstruct(
            a.rest_mesh, a.rest_keypoints, b.posed_mesh, b.posed_keypoints,
            c.posed_mesh, c.posed_keypoints, puppet_config(a),
            intermediate_regressor=regressor,
        )
    assert built == []


def test_cycle_reconstruct_connectivity_guard():
    pa = make_puppet(2, 0.1, 0.0, seed=0)
    pb = make_puppet(3, 0.1, 0.0, seed=1)
    with pytest.raises(ValueError):
        cycle_reconstruct(
            pa.rest_mesh,
            pa.rest_keypoints,
            pa.posed_mesh,
            pa.posed_keypoints,
            pb.rest_mesh,
            pb.rest_keypoints,
            puppet_config(pa),
        )


# -- persistence --


def test_save_result_files(tmp_path):
    p = make_puppet(2, np.pi / 6, 0.0, seed=0)
    cfg = puppet_config(p, max_iters=5)
    res = pose_transfer(p.rest_mesh, p.rest_keypoints, p.posed_keypoints, cfg)
    summary = save_result(res, tmp_path / "out", extra={"note": 1})
    names = {f.name for f in (tmp_path / "out").iterdir()}
    assert names == {
        "coarse.obj",
        "refined.obj",
        "twists.json",
        "losses.jsonl",
        "weights.csv",
        "summary.json",
    }
    on_disk = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert on_disk == summary
    assert on_disk["note"] == 1
    assert on_disk["iterations"] == len(res.losses) - 1
    back = load_mesh(tmp_path / "out" / "refined.obj")
    assert np.array_equal(back.vertices, res.refined.vertices)
    lines = (tmp_path / "out" / "losses.jsonl").read_text().splitlines()
    assert len(lines) == len(res.losses)
    assert json.loads(lines[-1])["total"] == res.losses[-1].total


# -- config --


def test_config_from_dict_bundled_tree():
    cfg = TransferConfig.from_dict({"tree": "smpl_24"})
    assert cfg.tree.n_joints == 24


def test_config_from_dict_inline_tree():
    cfg = TransferConfig.from_dict(
        {"tree": {"parents": [-1, 0], "names": ["a", "b"]}, "optimizer": {"max_iters": 5}}
    )
    assert cfg.tree.n_joints == 2
    assert cfg.optimizer.max_iters == 5


def test_config_missing_tree():
    with pytest.raises(ValueError):
        TransferConfig.from_dict({})
    with pytest.raises(FileNotFoundError):
        TransferConfig.from_dict({"tree": "never_a_tree"})


def test_config_file_round_trip(tmp_path):
    p = make_puppet(2, 0.0, 0.0, seed=0)
    cfg = TransferConfig(tree=p.tree)
    cfg.loss_weights.lambda_cycle = 0.125
    cfg.gmm.temperature = 3.5
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    back = TransferConfig.from_file(path)
    assert back.loss_weights.lambda_cycle == 0.125
    assert back.gmm.temperature == 3.5
    assert list(back.tree.parents) == list(p.tree.parents)


def test_config_relative_tree_path(tmp_path):
    from posekit import save_tree

    p = make_puppet(2, 0.0, 0.0, seed=0)
    save_tree(p.tree, tmp_path / "tree.json")
    (tmp_path / "cfg.json").write_text(json.dumps({"tree": "tree.json"}))
    cfg = TransferConfig.from_file(tmp_path / "cfg.json")
    assert cfg.tree.n_joints == 3


# -- manifests --


def write_puppet_pose(dirpath, name, mesh, kp):
    save_mesh(mesh, dirpath / f"{name}.obj")
    save_keypoints(kp, dirpath / f"{name}.json")
    return {"mesh": f"{name}.obj", "keypoints": f"{name}.json"}


def manifest_fixture(tmp_path):
    a = make_puppet(2, np.pi / 6, 0.0, seed=0)
    b = make_puppet(2, np.pi / 4, 0.0, seed=3)
    data = {
        "identities": {
            "a": {
                "canonical": "rest",
                "poses": {
                    "rest": write_puppet_pose(tmp_path, "a_rest", a.rest_mesh, a.rest_keypoints),
                    "bent": write_puppet_pose(tmp_path, "a_bent", a.posed_mesh, a.posed_keypoints),
                },
            },
            "b": {
                "canonical": "rest",
                "poses": {
                    "rest": write_puppet_pose(tmp_path, "b_rest", b.rest_mesh, b.rest_keypoints),
                    "bent": write_puppet_pose(tmp_path, "b_bent", b.posed_mesh, b.posed_keypoints),
                },
            },
        },
        "pairs": [
            {"name": "a_to_b", "source": ["a", "rest"], "target": ["b", "bent"]},
            {"name": "a_self", "source": ["a", "rest"], "target": ["a", "bent"]},
        ],
    }
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(data))
    return path, a


def test_load_manifest_resolves_and_validates(tmp_path):
    path, _ = manifest_fixture(tmp_path)
    m = load_manifest(path)
    assert set(m["identities"]) == {"a", "b"}
    assert m["pairs"][0]["name"] == "a_to_b"
    bad = json.loads(path.read_text())
    bad["pairs"].append({"source": ["zz", "rest"], "target": ["a", "rest"]})
    path.write_text(json.dumps(bad))
    with pytest.raises(ValueError, match="zz"):
        load_manifest(path)


def test_load_manifest_missing_file(tmp_path):
    path, _ = manifest_fixture(tmp_path)
    data = json.loads(path.read_text())
    data["identities"]["a"]["poses"]["rest"]["mesh"] = "gone.obj"
    path.write_text(json.dumps(data))
    with pytest.raises(FileNotFoundError):
        load_manifest(path)


# reader, the kind its missing-file error names, and a text that breaks its
# rules; the OBJ record error names the file and line itself
READERS = {
    "mesh": (load_mesh, "mesh", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3 1\n"),
    "weights": (load_weights, "weight", "0.6,0.5\n0.5,0.5\n"),
    "regressor": (load_regressor, "regressor", "1,0,0\n0,0,0\n"),
    "tree": (load_tree, "tree", '{"parents": [-1, 0.5], "names": ["a", "b"]}'),
    "keypoints": (load_keypoints, "keypoint", '{"joints": [[0, 0]]}'),
    "config": (TransferConfig.from_file, "config", '{"tree": '),
    "manifest": (load_manifest, "manifest", '{"identities": {}, "pairs": 5}'),
}


@pytest.mark.parametrize("case", ["missing", "undecodable", "broken"])
@pytest.mark.parametrize("reader", list(READERS))
def test_every_reader_names_the_file(tmp_path, reader, case):
    read, kind, broken = READERS[reader]
    path = tmp_path / "input"
    if case == "missing":
        with pytest.raises(FileNotFoundError) as info:
            read(path)
        assert str(info.value) == f"no such {kind} file: {path}"
        return
    if case == "undecodable":
        path.write_bytes(b"# \xff\n")
    else:
        path.write_text(broken)
    with pytest.raises(ValueError) as info:
        read(path)
    message = str(info.value)
    assert message.startswith(f"{path}:") and message.count(str(path)) == 1
    if case == "undecodable":
        assert message.startswith(f"{path}: 'utf-8' codec can't decode byte 0xff")


def test_run_manifest_outputs_and_parallel_identity(tmp_path):
    path, a = manifest_fixture(tmp_path)
    cfg = TransferConfig(tree=a.tree)
    cfg.optimizer.max_iters = 5
    serial = run_manifest(path, cfg, tmp_path / "serial", jobs=1)
    threaded = run_manifest(path, cfg, tmp_path / "threaded", jobs=2)
    assert {name for name, _ in serial} == {"a_to_b", "a_self"}
    for name, _ in serial:
        for fname in ("refined.obj", "summary.json", "weights.csv"):
            s = (tmp_path / "serial" / name / fname).read_bytes()
            t = (tmp_path / "threaded" / name / fname).read_bytes()
            assert s == t, f"{name}/{fname} differs between jobs=1 and jobs=2"


def test_run_manifest_shares_identity_weights(tmp_path):
    path, a = manifest_fixture(tmp_path)
    data = json.loads(path.read_text())
    # two pairs drawing on identity a must skin with bit-identical weights
    data["pairs"] = [
        {"name": "p1", "source": ["a", "rest"], "target": ["b", "bent"]},
        {"name": "p2", "source": ["a", "bent"], "target": ["b", "rest"]},
    ]
    path.write_text(json.dumps(data))
    cfg = TransferConfig(tree=a.tree)
    cfg.optimizer.max_iters = 2
    run_manifest(path, cfg, tmp_path / "out", jobs=1)
    w1 = (tmp_path / "out" / "p1" / "weights.csv").read_bytes()
    w2 = (tmp_path / "out" / "p2" / "weights.csv").read_bytes()
    assert w1 == w2


@pytest.mark.parametrize("optimize_radii, formats", [(False, 1), (True, 2)])
def test_run_manifest_formats_shared_weights_once(tmp_path, monkeypatch, optimize_radii, formats):
    # both pairs draw on identity a, whose weights are formatted once;
    # optimized radii give each pair its own weights, formatted per pair
    path, a = manifest_fixture(tmp_path)
    cfg = TransferConfig(tree=a.tree)
    cfg.optimizer.max_iters = 2
    cfg.gmm.optimize_radii = optimize_radii
    real, texts = transfer._weights_csv, []

    def counted(weights):
        texts.append(real(weights))
        return texts[-1]

    monkeypatch.setattr(transfer, "_weights_csv", counted)
    results = run_manifest(path, cfg, tmp_path / "out", jobs=2)
    assert len(texts) == formats
    for name, _ in results:
        written = (tmp_path / "out" / name / "weights.csv").read_text()
        assert written in texts


# -- divergence surface --


def test_transfer_nan_mesh_diverges():
    p = make_puppet(2, 0.1, 0.0, seed=0)
    bad = p.rest_mesh.copy()
    bad.vertices[0, 0] = np.nan
    with pytest.raises(DivergenceError):
        pose_transfer(bad, p.rest_keypoints, p.posed_keypoints, puppet_config(p))


# -- objective on vertex arrays --


def count_meshes(monkeypatch):
    """Count Mesh constructions from here on."""
    built = []
    post_init = Mesh.__post_init__

    def counted(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(Mesh, "__post_init__", counted)
    return built


@pytest.mark.parametrize("max_iters", [1, 2])  # the solve converges after 2 steps
def test_pose_transfer_builds_meshes_only_at_the_boundary(monkeypatch, max_iters):
    p = make_puppet(2, 0.4, 0.3, seed=0)
    built = count_meshes(monkeypatch)
    res = pose_transfer(
        p.rest_mesh,
        p.rest_keypoints,
        p.posed_keypoints,
        puppet_config(p, max_iters=max_iters),
        target_mesh=p.posed_mesh,
        weights=p.weights,
    )
    assert res.stop_reason == "max_iters"  # every step was taken
    assert len(res.losses) == max_iters + 1
    assert len(built) == 2  # the coarse and the refined mesh


@pytest.mark.parametrize("max_iters", [2, 8])
def test_cycle_reconstruct_builds_meshes_only_at_the_boundary(monkeypatch, max_iters):
    a = make_puppet(2, 0.6, 0.4, seed=0)
    b = make_puppet(2, 0.6, 0.4, seed=7, radius=0.3)
    c = make_puppet(2, 0.3, 0.0, seed=7, radius=0.3)
    built = count_meshes(monkeypatch)
    cycle_reconstruct(
        a.rest_mesh,
        a.rest_keypoints,
        b.posed_mesh,
        b.posed_keypoints,
        c.posed_mesh,
        c.posed_keypoints,
        puppet_config(a, max_iters=max_iters),
    )
    assert len(built) == 2  # the second hop's output and its refinement


def test_losses_match_fresh_mesh_breakdowns(monkeypatch):
    # each history entry equals pmd recomputed on Mesh objects at the
    # optimizer's accepted iterate
    p = make_puppet(3, 0.5, 0.3, seed=4)
    cfg = puppet_config(p, max_iters=12)
    iterates = []  # accepted points of the twist solve
    real = transfer._minimize

    def keep_points(f, x0, *args, on_accept, **kwargs):
        # on_accept follows the evaluation of f at each accepted point
        def evaluate(x):
            evaluate.x = x
            return f(x)

        def accept():
            iterates.append(evaluate.x)
            on_accept()

        return real(evaluate, x0, *args, on_accept=accept, **kwargs)

    monkeypatch.setattr(transfer, "_minimize", keep_points)
    res = pose_transfer(
        p.rest_mesh,
        p.rest_keypoints,
        p.posed_keypoints,
        cfg,
        target_mesh=p.posed_mesh,
        weights=p.weights,
    )
    assert len(res.losses) == len(iterates) >= 3
    for params, got in zip(iterates, res.losses):
        phi = TwistAngles.wrap(params)
        rel = scalable_ik(p.rest_keypoints, p.posed_keypoints, phi, p.tree)
        tf = forward_kinematics(
            p.rest_keypoints, rel, p.tree, root_position=p.posed_keypoints.joints[0]
        )
        coarse = lbs_apply(p.rest_mesh, p.weights, tf)
        want = total_loss(cfg.loss_weights, self_recon=pmd(coarse, p.posed_mesh))
        assert got == want


def test_objective_bug_is_not_mistaken_for_a_rejected_step(monkeypatch):
    # a shape bug past the first evaluation must surface with its own
    # message, not pass for a rejected step that ends the line search
    p = make_puppet(2, 0.4, 0.3, seed=0)
    real = transfer._ik_twists
    calls = []

    def buggy_ik(*args):
        calls.append(1)
        rel = real(*args)
        return rel if len(calls) == 1 else rel[..., :-1, :, :]

    monkeypatch.setattr(transfer, "_ik_twists", buggy_ik)
    with pytest.raises(ValueError, match="one 3x3 rotation per bone"):
        pose_transfer(
            p.rest_mesh,
            p.rest_keypoints,
            p.posed_keypoints,
            puppet_config(p),
            target_mesh=p.posed_mesh,
            weights=p.weights,
        )


def test_underflowing_radii_reject_the_step(monkeypatch):
    # log-radii far below (above) zero make exp underflow to 0 (overflow to
    # inf); the objective must reject such a point, not raise, and the
    # solve goes on from the start
    p = make_puppet(2, 0.4, 0.5, seed=0)
    cfg = puppet_config(p, max_iters=3)
    cfg.gmm.optimize_radii = True
    seen = []
    real = transfer._minimize

    def probe_extremes(f, x0, *args, **kwargs):
        for shift in (-1e4, 1e4):
            seen.append(f(np.concatenate([x0[:2], x0[2:] + shift])))
        return real(f, x0, *args, **kwargs)

    monkeypatch.setattr(transfer, "_minimize", probe_extremes)
    with np.errstate(all="ignore"):
        res = pose_transfer(
            p.rest_mesh,
            p.rest_keypoints,
            p.posed_keypoints,
            cfg,
            target_mesh=p.posed_mesh,
        )
    assert seen == [None, None]
    totals = [b.total for b in res.losses]
    assert len(totals) == 4
    assert all(b < a for a, b in zip(totals, totals[1:]))


# one value per config key, each away from its default
CONFIG_KEY_VALUES = {
    ("loss_weights", "lambda_cycle"): 3.0,
    ("loss_weights", "lambda_self"): 3.0,
    ("gmm", "temperature"): 3.0,
    ("gmm", "radii"): [0.4, 0.4],
    ("gmm", "optimize_radii"): True,
    ("optimizer", "max_iters"): 2,
    ("optimizer", "tolerance"): 1e-3,
    ("refinement", "enabled"): False,
    ("refinement", "ridge"): 1e-3,
    ("refinement", "max_iters"): 1,
    ("refinement", "step_size"): 1e-3,
}
CONFIG_KEYS = [
    (block, key)
    for block, values in TransferConfig(bundled_tree("smpl_24")).to_dict().items()
    if block != "tree"
    for key in values
]
RUN_OUTPUTS = ("coarse", "refined", "twists", "losses", "stop_reason", "cycle_error")


@functools.cache
def config_run_outputs(block=None, key=None):
    """A supervised transfer's and a cycle reconstruction's outputs under the
    default config, with ``block.key`` set to its CONFIG_KEY_VALUES value."""
    # blend weights sharper than the GMM's, so radii and temperature matter
    p = make_puppet(2, 0.6, 0.4, 0, blend_temperature=4.0)
    data = {"tree": p.tree.to_dict()}
    if block is not None:
        data[block] = {key: CONFIG_KEY_VALUES[block, key]}
    cfg = TransferConfig.from_dict(data)
    res = pose_transfer(
        p.rest_mesh, p.rest_keypoints, p.posed_keypoints, cfg, target_mesh=p.posed_mesh
    )
    pa = make_puppet(2, np.pi / 3, np.pi / 4, seed=0, radius=0.25)
    pb_t = make_puppet(2, np.pi / 3, np.pi / 4, seed=7, radius=0.3)
    pb_3 = make_puppet(2, np.pi / 6, 0.0, seed=7, radius=0.3)
    err = cycle_reconstruct(
        pa.rest_mesh,
        pa.rest_keypoints,
        pb_t.posed_mesh,
        pb_t.posed_keypoints,
        pb_3.posed_mesh,
        pb_3.posed_keypoints,
        cfg,
    )
    return (
        res.coarse.vertices.tobytes(),
        res.refined.vertices.tobytes(),
        res.twists.phi.tobytes(),
        [b.to_dict() for b in res.losses],
        res.stop_reason,
        err,
    )


def test_every_config_key_has_one_value():
    # a deleted key's row must not linger, and a new key needs a row
    assert set(CONFIG_KEY_VALUES) == set(CONFIG_KEYS)


@pytest.mark.parametrize("block, key", CONFIG_KEYS, ids=[f"{b}.{k}" for b, k in CONFIG_KEYS])
def test_every_config_key_moves_an_output(block, key):
    # a key that moves none of these is a knob that does nothing
    changed, default = config_run_outputs(block, key), config_run_outputs()
    assert [name for name, a, b in zip(RUN_OUTPUTS, changed, default) if a != b]


def test_config_rejects_unknown_block_keys():
    for block in ("optimizer", "refinement", "gmm"):
        with pytest.raises(ValueError, match=rf"unknown {block} keys: \['max_iter'\]"):
            TransferConfig.from_dict({"tree": "smpl_24", block: {"max_iter": 3}})
    # a misspelt block is an unknown key of the config itself
    for block in ("optimiser", "loss_weight", "refine"):
        with pytest.raises(ValueError, match=rf"unknown config keys: \['{block}'\]"):
            TransferConfig.from_dict({"tree": "smpl_24", block: {"max_iters": 3}})


# a JSON integer that no float64 holds
HUGE_INT = int("9" * 400)


@pytest.mark.parametrize(
    "block, value, message",
    [
        ({"refinement": {"enabled": "false"}}, "refinement.enabled", "true or false"),
        ({"gmm": {"optimize_radii": "no"}}, "gmm.optimize_radii", "true or false"),
        ({"gmm": {"optimize_radii": 1}}, "gmm.optimize_radii", "true or false"),
        ({"optimizer": {"max_iters": 1.5}}, "optimizer.max_iters", "an integer"),
        ({"refinement": {"max_iters": True}}, "refinement.max_iters", "an integer"),
        ({"refinement": {"step_size": "1"}}, "refinement.step_size", "a finite number"),
        ({"optimizer": {"tolerance": float("nan")}}, "optimizer.tolerance", "a finite"),
        ({"gmm": {"temperature": None}}, "gmm.temperature", "a finite number"),
        ({"gmm": {"radii": 0.5}}, "gmm.radii", "a list of numbers or null"),
        ({"optimizer": {"max_iters": -1}}, "optimizer.max_iters", "nonnegative"),
        ({"refinement": {"step_size": 0}}, "refinement.step_size", "positive"),
        ({"refinement": {"step_size": -1.0}}, "refinement.step_size", "positive"),
        ({"loss_weights": {"cycle": "x"}}, "loss_weights.cycle", "finite nonnegative"),
        ({"loss_weights": {"self": -1.0}}, "loss_weights.self", "finite nonnegative"),
        ({"loss_weights": {"lambda_self": True}}, "loss_weights.lambda_self", "a finite"),
        ({"loss_weights": {"cycle": float("inf")}}, "loss_weights.cycle", "a finite"),
        ({"loss_weights": {"self": None}}, "loss_weights.self", "a finite"),
        ({"optimizer": 5}, "optimizer", "a JSON object"),
        ({"loss_weights": 5}, "loss_weights", "a JSON object"),
        ({"gmm": [1.0]}, "gmm", "a JSON object"),
        ({"refinement": "on"}, "refinement", "a JSON object"),
        ({"optimizer": {"tolerance": -1.0}}, "optimizer.tolerance", "nonnegative"),
        ({"refinement": {"ridge": -1.0}}, "refinement.ridge", "nonnegative"),
        ({"optimizer": {"tolerance": HUGE_INT}}, "optimizer.tolerance", "a finite number"),
        ({"refinement": {"step_size": HUGE_INT}}, "refinement.step_size", "a finite number"),
        ({"refinement": {"ridge": HUGE_INT}}, "refinement.ridge", "a finite number"),
        ({"loss_weights": {"cycle": HUGE_INT}}, "loss_weights.cycle", "finite nonnegative"),
        ({"gmm": {"temperature": HUGE_INT}}, "gmm.temperature", "a finite number"),
        ({"gmm": {"radii": ["0.5", 0.5]}}, "gmm.radii", "finite and positive"),
        ({"gmm": {"radii": [True, 0.5]}}, "gmm.radii", "finite and positive"),
        ({"gmm": {"radii": [HUGE_INT, 0.5]}}, "gmm.radii", "finite and positive"),
        ({"gmm": {"temperature": 0}}, "gmm.temperature", "positive"),
        ({"gmm": {"temperature": -2.0}}, "gmm.temperature", "positive"),
    ],
)
def test_config_rejects_mistyped_and_out_of_range_values(block, value, message):
    with pytest.raises(ValueError, match=rf"{value} must be .*{message}"):
        TransferConfig.from_dict({"tree": "smpl_24", **block})


@pytest.mark.parametrize("n", [0, 1, 22, 24])
def test_config_rejects_radii_not_one_per_bone(n):
    message = f"gmm.radii must hold one radius per bone (23), not {n}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TransferConfig.from_dict({"tree": "smpl_24", "gmm": {"radii": [0.5] * n}})


def test_config_must_be_an_object():
    for data in ([], [{"tree": "smpl_24"}], "smpl_24", None):
        with pytest.raises(ValueError, match="config must be a JSON object"):
            TransferConfig.from_dict(data)


def test_loss_weights_accept_zero_and_integers():
    cfg = TransferConfig.from_dict({"tree": "smpl_24", "loss_weights": {"cycle": 0, "self": 2}})
    assert cfg.loss_weights.lambda_cycle == 0 and cfg.loss_weights.lambda_self == 2


def test_config_accepts_ints_for_floats():
    cfg = TransferConfig.from_dict(
        {
            "tree": "smpl_24",
            "gmm": {"temperature": 3, "optimize_radii": True},
            "optimizer": {"max_iters": 0},
            "refinement": {"enabled": False, "step_size": 2},
        }
    )
    assert cfg.gmm.temperature == 3 and cfg.gmm.optimize_radii is True
    assert cfg.optimizer.max_iters == 0 and cfg.refinement.enabled is False
    assert cfg.refinement.step_size == 2.0 and isinstance(cfg.refinement.step_size, float)
    assert set(cfg.to_dict()["optimizer"]) == {"max_iters", "tolerance"}


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [b.split("```", 1)[0] for b in readme.split("```json\n")[1:]]
    (example,) = [b for b in blocks if '"loss_weights"' in b]
    cfg = TransferConfig.from_dict(json.loads(example))
    assert cfg.tree.n_joints == 24
    assert cfg.loss_weights == LossWeights()
    assert cfg.optimizer.max_iters == 300
    assert cfg.refinement.ridge == 1.0
