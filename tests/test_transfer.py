import json
from pathlib import Path

import numpy as np
import pytest

from posekit import (
    DivergenceError,
    GmmParams,
    KeypointSet,
    SkinningMatrix,
    TransferConfig,
    bone_centers,
    bundled_tree,
    default_radii,
    edge_loss,
    gmm_weights,
    load_mesh,
    make_puppet,
    pmd,
    pose_transfer,
    refine,
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
    scalable_ik,
    total_loss,
    transfer,
)
from posekit.transfer import _minimize, load_manifest


def puppet_config(puppet, **opt):
    cfg = TransferConfig(tree=puppet.tree)
    for k, v in opt.items():
        setattr(cfg.optimizer, k, v)
    return cfg


# -- optimizer --


def test_minimize_quadratic():
    A = np.diag([1.0, 4.0])

    def f(x):
        return float(x @ A @ x)

    x, values, points = _minimize(f, np.array([2.0, -1.5]), 200, 1.0, 1e-14)
    assert np.max(np.abs(x)) <= 1e-5
    assert values[0] == f(np.array([2.0, -1.5]))
    assert len(values) == len(points)
    assert all(b < a for a, b in zip(values, values[1:]))  # strict descent


def test_minimize_starts_at_optimum():
    x, values, _ = _minimize(lambda v: float(v @ v), np.zeros(3), 50, 1.0, 1e-12)
    assert np.array_equal(x, np.zeros(3))
    assert values == [0.0]


def test_minimize_nonfinite_start_raises():
    with pytest.raises(DivergenceError):
        _minimize(lambda v: float("nan"), np.zeros(2), 10, 1.0, 1e-12)


def test_minimize_analytic_gradient_path():
    def f(x):
        return float(x @ x)

    def g(x):
        return 2.0 * x

    x, values, _ = _minimize(f, np.array([3.0, -4.0]), 100, 1.0, 1e-14, grad=g)
    assert np.max(np.abs(x)) <= 1e-6
    assert values[-1] <= 1e-10


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


def test_transfer_bad_radii_count():
    p = make_puppet(2, 0.1, 0.0, seed=0)
    cfg = puppet_config(p)
    cfg.gmm.radii = np.array([1.0])
    with pytest.raises(ValueError):
        pose_transfer(p.rest_mesh, p.rest_keypoints, p.posed_keypoints, cfg)


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
        {"tree": {"parents": [-1, 0], "names": ["a", "b"]}, "optimizer": {"seed": 5}}
    )
    assert cfg.tree.n_joints == 2
    assert cfg.optimizer.seed == 5


def test_config_missing_tree():
    with pytest.raises(ValueError):
        TransferConfig.from_dict({})
    with pytest.raises(FileNotFoundError):
        TransferConfig.from_dict({"tree": "never_a_tree"})


def test_config_file_round_trip(tmp_path):
    p = make_puppet(2, 0.0, 0.0, seed=0)
    cfg = TransferConfig(tree=p.tree)
    cfg.loss_weights.lambda_edge = 0.125
    cfg.gmm.temperature = 3.5
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    back = TransferConfig.from_file(path)
    assert back.loss_weights.lambda_edge == 0.125
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


@pytest.mark.parametrize("max_iters", [2, 8])
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
    assert len(res.losses) == max_iters + 1  # every step was taken
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
    # each history entry equals edge_loss/pmd recomputed on Mesh objects at
    # the optimizer's accepted iterate
    p = make_puppet(3, 0.5, 0.3, seed=4)
    cfg = puppet_config(p, max_iters=12)
    solves = []  # accepted points of each _minimize call: twists, then refine
    real = transfer._minimize

    def keep_points(*args, **kwargs):
        x, values, points = real(*args, **kwargs)
        solves.append(points)
        return x, values, points

    monkeypatch.setattr(transfer, "_minimize", keep_points)
    res = pose_transfer(
        p.rest_mesh,
        p.rest_keypoints,
        p.posed_keypoints,
        cfg,
        target_mesh=p.posed_mesh,
        weights=p.weights,
    )
    iterates = solves[0]
    assert len(res.losses) == len(iterates) == 13
    for params, got in zip(iterates, res.losses):
        phi = TwistAngles.wrap(params)
        rel = scalable_ik(p.rest_keypoints, p.posed_keypoints, phi, p.tree)
        tf = forward_kinematics(
            p.rest_keypoints, rel, p.tree, root_position=p.posed_keypoints.joints[0]
        )
        coarse = lbs_apply(p.rest_mesh, p.weights, tf)
        want = total_loss(
            cfg.loss_weights,
            self_recon=pmd(coarse, p.posed_mesh),
            edge=edge_loss(p.rest_mesh, coarse),
        )
        assert got == want


def test_objective_bug_is_not_mistaken_for_a_rejected_step(monkeypatch):
    # a shape bug past the first evaluation must surface with its own
    # message, not pass for a rejected step that ends the line search
    p = make_puppet(2, 0.4, 0.3, seed=0)
    real = transfer.scalable_ik
    calls = []

    def buggy_ik(*args):
        calls.append(1)
        rel = real(*args)
        return rel if len(calls) == 1 else rel[:-1]

    monkeypatch.setattr(transfer, "scalable_ik", buggy_ik)
    with pytest.raises(ValueError, match="one 3x3 rotation per bone"):
        pose_transfer(
            p.rest_mesh,
            p.rest_keypoints,
            p.posed_keypoints,
            puppet_config(p),
            target_mesh=p.posed_mesh,
            weights=p.weights,
        )


def test_step_that_collapses_an_edge_is_rejected(monkeypatch):
    p = make_puppet(2, 0.4, 0.5, seed=0)
    limit = 0.1
    seen = {"collapsed": 0}
    real_ik, real_blend = transfer.scalable_ik, transfer.lbs_blend

    def ik(source, target, twists, tree):
        seen["phi"] = twists.phi
        return real_ik(source, target, twists, tree)

    def blend(vertices, weights, transforms):
        out = real_blend(vertices, weights, transforms)
        if np.abs(seen["phi"]).max() > limit:
            # a near-perfect fit with one collapsed edge: accepted unless rejected
            out = p.posed_mesh.vertices.copy()
            out[1] = out[0]
            seen["collapsed"] += 1
        return out

    monkeypatch.setattr(transfer, "scalable_ik", ik)
    monkeypatch.setattr(transfer, "lbs_blend", blend)
    res = pose_transfer(
        p.rest_mesh,
        p.rest_keypoints,
        p.posed_keypoints,
        puppet_config(p, max_iters=3),
        target_mesh=p.posed_mesh,
        weights=p.weights,
    )
    assert seen["collapsed"] > 0
    assert np.abs(res.twists.phi).max() <= limit
    assert len(res.losses) == 4


def test_underflowing_radii_reject_the_step():
    # a huge first trial step drives some log-radii far below zero; exp
    # underflows to 0 there, and the step must be rejected, not raise
    p = make_puppet(2, 0.4, 0.5, seed=0)
    cfg = puppet_config(p, max_iters=3, step_size=1e8)
    cfg.gmm.optimize_radii = True
    with np.errstate(all="ignore"):
        res = pose_transfer(
            p.rest_mesh,
            p.rest_keypoints,
            p.posed_keypoints,
            cfg,
            target_mesh=p.posed_mesh,
        )
    totals = [b.total for b in res.losses]
    assert len(totals) == 4
    assert all(b < a for a, b in zip(totals, totals[1:]))


def test_config_rejects_unknown_block_keys():
    for block in ("optimizer", "refinement", "gmm"):
        with pytest.raises(ValueError, match=rf"unknown {block} keys: \['max_iter'\]"):
            TransferConfig.from_dict({"tree": "smpl_24", block: {"max_iter": 3}})


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [b.split("```", 1)[0] for b in readme.split("```json\n")[1:]]
    (example,) = [b for b in blocks if '"loss_weights"' in b]
    cfg = TransferConfig.from_dict(json.loads(example))
    assert cfg.tree.n_joints == 24
    assert cfg.loss_weights == LossWeights()
    assert cfg.optimizer.max_iters == 300
    assert cfg.refinement.ridge == 1.0
