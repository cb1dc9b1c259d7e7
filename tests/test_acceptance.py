"""End-to-end acceptance suite.

One test per criterion; each prints a single pass/fail line (run with -s to
see them alongside the pytest dots) and asserts both the property and its
runtime budget.
"""

import json
import time

import numpy as np

from posekit import (
    BoneTransformSet,
    GmmParams,
    KeypointSet,
    LossWeights,
    SkinningMatrix,
    TransferConfig,
    bone_centers,
    bundled_tree,
    compose_relative,
    cycle_reconstruct,
    default_radii,
    edge_discrepancy,
    edge_discrepancy_gradient,
    edge_loss,
    forward_kinematics,
    gmm_weights,
    lbs_apply,
    make_puppet,
    numerical_gradient,
    pmd,
    pose_transfer,
    save_result,
    scalable_ik,
    self_reconstruct,
    swing_rotation,
    total_loss,
    twist_rotation,
    TwistAngles,
)
from test_kinematics import _random_pose, random_rotation


def _report(num, label, ok, detail):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({label}): {detail}"


def _rotation_defects(R):
    ortho = np.max(np.abs(R.T @ R - np.eye(3)))
    det = abs(np.linalg.det(R) - 1.0)
    return max(ortho, det)


def _unit(v):
    return v / np.linalg.norm(v)


def test_criterion_1_rotation_validity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_defect = 0.0
    worst_map = 0.0

    def check(s, t, phi):
        nonlocal worst_defect, worst_map
        sw = swing_rotation(s, t)
        tw = twist_rotation(s, phi)
        comp = compose_relative(sw, tw)
        for R in (sw, tw, comp):
            worst_defect = max(worst_defect, _rotation_defects(R))
        worst_map = max(worst_map, np.max(np.abs(sw @ _unit(s) - _unit(t))))

    for _ in range(9800):
        check(rng.normal(size=3), rng.normal(size=3), rng.uniform(-np.pi, np.pi))

    # near-(anti)parallel pairs built from an exact angle decomposition,
    # sampled away from the internal axis-usability threshold
    def aligned_pair(sign, sin_theta):
        u = _unit(rng.normal(size=3))
        p = rng.normal(size=3)
        p = _unit(p - (p @ u) * u)
        cos_theta = np.sqrt(1.0 - sin_theta**2)
        t = sign * cos_theta * u + sin_theta * p
        return u * rng.uniform(0.5, 2.0), t * rng.uniform(0.5, 2.0)

    for sign in (1.0, -1.0):
        for _ in range(50):
            s, t = aligned_pair(sign, rng.uniform(1e-12, 1e-9))
            check(s, t, rng.uniform(-np.pi, np.pi))
        for _ in range(50):
            s, t = aligned_pair(sign, rng.uniform(1e-7, 1e-5))
            check(s, t, rng.uniform(-np.pi, np.pi))

    elapsed = time.perf_counter() - t0
    ok = worst_defect <= 1e-9 and worst_map <= 1e-9 and elapsed < 5.0
    _report(
        1,
        "rotation validity",
        ok,
        f"10000 pairs, defect {worst_defect:.2e}, map {worst_map:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_ik_fk_round_trip():
    t0 = time.perf_counter()
    tree = bundled_tree("smpl_24")
    rng = np.random.default_rng(7)
    zeros = TwistAngles.zeros(tree.n_bones)
    worst_dot_gap = 0.0
    worst_joint = 0.0

    for i in range(1000):
        src = _random_pose(tree, rng)
        equal_lengths = i % 2 == 0
        if equal_lengths:
            rel_true = np.stack([random_rotation(rng) for _ in range(tree.n_bones)])
            tgt = KeypointSet(forward_kinematics(src, rel_true, tree).posed_joints)
        else:
            tgt = _random_pose(tree, rng, scale=rng.uniform(0.3, 3.0))
        rel = scalable_ik(src, tgt, zeros, tree)
        posed = forward_kinematics(src, rel, tree).posed_joints
        pk = KeypointSet(posed)
        bp = pk.bone_vectors(tree)
        bt = tgt.bone_vectors(tree)
        dots = np.einsum("ij,ij->i", bp, bt) / (
            np.linalg.norm(bp, axis=1) * np.linalg.norm(bt, axis=1)
        )
        worst_dot_gap = max(worst_dot_gap, float((1.0 - dots).max()))
        if equal_lengths:
            aligned = posed - posed[0] + tgt.joints[0]
            worst_joint = max(worst_joint, float(np.max(np.abs(aligned - tgt.joints))))

    elapsed = time.perf_counter() - t0
    ok = worst_dot_gap <= 1e-9 and worst_joint <= 1e-6 and elapsed < 10.0
    _report(
        2,
        "ik/fk round trip",
        ok,
        f"1000 pairs, dot gap {worst_dot_gap:.2e}, joint {worst_joint:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_scale_invariance():
    t0 = time.perf_counter()
    tree = bundled_tree("smpl_24")
    rng = np.random.default_rng(11)
    zeros = TwistAngles.zeros(tree.n_bones)
    worst_rot = 0.0
    for _ in range(25):
        src = _random_pose(tree, rng)
        tgt = _random_pose(tree, rng)
        base = scalable_ik(src, tgt, zeros, tree)
        for c in (0.5, 2.0, 10.0):
            scaled = KeypointSet(tgt.joints[0] + c * (tgt.joints - tgt.joints[0]))
            rel = scalable_ik(src, scaled, zeros, tree)
            worst_rot = max(worst_rot, float(np.max(np.abs(rel - base))))

    p = make_puppet(2, np.pi / 3, np.pi / 5, seed=0)
    cfg = TransferConfig(tree=p.tree)
    base_out = pose_transfer(
        p.rest_mesh, p.rest_keypoints, p.posed_keypoints, cfg
    ).refined.vertices
    worst_mesh = 0.0
    for c in (0.5, 2.0, 10.0):
        scaled_kp = KeypointSet(
            p.posed_keypoints.joints[0]
            + c * (p.posed_keypoints.joints - p.posed_keypoints.joints[0])
        )
        out = pose_transfer(
            p.rest_mesh, p.rest_keypoints, scaled_kp, cfg
        ).refined.vertices
        worst_mesh = max(worst_mesh, float(np.max(np.abs(out - base_out))))

    elapsed = time.perf_counter() - t0
    ok = worst_rot <= 1e-9 and worst_mesh <= 1e-9 and elapsed < 5.0
    _report(
        3,
        "scale invariance",
        ok,
        f"rot {worst_rot:.2e}, mesh {worst_mesh:.2e}, {elapsed:.2f}s",
    )


def test_criterion_4_twist_neutrality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst_joint = 0.0
    min_surface = np.inf
    p = make_puppet(3, np.pi / 6, 0.0, seed=1)
    tree = p.tree
    zeros = TwistAngles.zeros(tree.n_bones)
    for _ in range(50):
        mags = rng.uniform(0.3, np.pi, size=tree.n_bones)
        signs = rng.choice([-1.0, 1.0], size=tree.n_bones)
        twists = TwistAngles(mags * signs)
        plain_rel = scalable_ik(p.rest_keypoints, p.posed_keypoints, zeros, tree)
        spun_rel = scalable_ik(p.rest_keypoints, p.posed_keypoints, twists, tree)
        plain = forward_kinematics(p.rest_keypoints, plain_rel, tree)
        spun = forward_kinematics(p.rest_keypoints, spun_rel, tree)
        worst_joint = max(
            worst_joint, float(np.max(np.abs(plain.posed_joints - spun.posed_joints)))
        )
        a = lbs_apply(p.rest_mesh, p.weights, plain)
        b = lbs_apply(p.rest_mesh, p.weights, spun)
        moved = float(np.max(np.linalg.norm(a.vertices - b.vertices, axis=1)))
        min_surface = min(min_surface, moved)
    elapsed = time.perf_counter() - t0
    ok = worst_joint <= 1e-9 and min_surface >= 1e-3 and elapsed < 5.0
    _report(
        4,
        "twist neutrality",
        ok,
        f"joint {worst_joint:.2e}, surface {min_surface:.2e}, {elapsed:.2f}s",
    )


def test_criterion_5_lbs_gmm_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)

    # row-stochasticity across construction paths
    row_dev = 0.0
    for _ in range(20):
        k = int(rng.integers(2, 6))
        params = GmmParams(
            rng.normal(size=(k, 3)), rng.uniform(0.3, 2.0, size=k),
            temperature=float(rng.uniform(0.5, 8.0)),
        )
        w = gmm_weights(rng.normal(size=(50, 3)), params).weights
        row_dev = max(row_dev, float(np.max(np.abs(w.sum(axis=1) - 1.0))))
    p = make_puppet(3, 0.4, 0.2, seed=3)
    row_dev = max(
        row_dev, float(np.max(np.abs(p.weights.weights.sum(axis=1) - 1.0)))
    )

    # identity transforms reproduce the source exactly
    ident = BoneTransformSet.identity(p.rest_keypoints, p.tree)
    out = lbs_apply(p.rest_mesh, p.weights, ident)
    identity_pmd = pmd(out, p.rest_mesh)

    # one shared rigid map, arbitrary weights
    rigid_err = 0.0
    for _ in range(10):
        R = random_rotation(rng)
        t = rng.normal(size=3)
        k = 3
        tf = BoneTransformSet(
            np.tile(R, (k, 1, 1)),
            np.tile(R, (k, 1, 1)),
            np.tile(t, (k, 1)),
            np.zeros((k + 1, 3)),
        )
        raw = rng.uniform(0.05, 1.0, size=(p.rest_mesh.n_vertices, k))
        w = SkinningMatrix(raw / raw.sum(axis=1, keepdims=True))
        moved = lbs_apply(p.rest_mesh, w, tf)
        expect = p.rest_mesh.vertices @ R.T + t
        rigid_err = max(rigid_err, float(np.max(np.abs(moved.vertices - expect))))

    # hard assignment at very high temperature, off the midplanes
    centers = bone_centers(p.rest_keypoints, p.tree)
    radii = default_radii(p.rest_keypoints, p.tree)
    hard = GmmParams(centers, radii, temperature=1e4)
    pts = []
    while len(pts) < 200:
        v = rng.normal(size=3) * 1.5
        d = np.linalg.norm(v - centers, axis=1) / radii
        best, second = np.sort(d)[:2]
        if second - best > 1e-2:  # skip near-ties, where softness is correct
            pts.append(v)
    wh = gmm_weights(np.array(pts), hard).weights
    min_peak = float(wh.max(axis=1).min())

    elapsed = time.perf_counter() - t0
    ok = (
        row_dev <= 1e-9
        and identity_pmd == 0.0
        and rigid_err <= 1e-9
        and min_peak >= 1.0 - 1e-6
        and elapsed < 5.0
    )
    _report(
        5,
        "lbs/gmm suite",
        ok,
        f"rows {row_dev:.2e}, identity pmd {identity_pmd:.1e}, rigid {rigid_err:.2e}, "
        f"peak {min_peak:.8f}, {elapsed:.2f}s",
    )


def test_criterion_6_loss_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)

    p = make_puppet(2, 0.0, 0.0, seed=2)
    worst_edge = 0.0
    for _ in range(100):
        R = random_rotation(rng)
        t = rng.normal(size=3)
        moved = p.rest_mesh.with_vertices(p.rest_mesh.vertices @ R.T + t)
        worst_edge = max(worst_edge, edge_loss(p.rest_mesh, moved))

    exact = total_loss(LossWeights(), cycle=1.0, self_recon=1.0).total
    exact_ok = exact == 2.0

    s = np.array([[0.0, 0, 0], [1.0, 0, 0], [1.0, 1, 0]])
    d = np.array([[0.05, -0.1, 0.2], [1.3, 0.25, -0.15], [0.8, 1.7, 0.1]])
    e = np.array([[0, 1], [1, 2]])
    hand = np.zeros_like(d)
    for (i, j) in e:
        ls = np.linalg.norm(s[i] - s[j])
        dv = d[i] - d[j]
        ld = np.linalg.norm(dv)
        coef = 2.0 * (ld - ls) / (ld * len(e))
        hand[i] += coef * dv
        hand[j] -= coef * dv
    fd = numerical_gradient(
        lambda x: edge_discrepancy(s, x.reshape(3, 3), e), d.ravel()
    ).reshape(3, 3)
    rel_err = float(np.max(np.abs(fd - hand)) / np.max(np.abs(hand)))
    analytic_err = float(np.max(np.abs(edge_discrepancy_gradient(s, d, e) - hand)))

    elapsed = time.perf_counter() - t0
    ok = (
        worst_edge <= 1e-12
        and exact_ok
        and rel_err <= 1e-4
        and analytic_err <= 1e-12
        and elapsed < 5.0
    )
    _report(
        6,
        "loss suite",
        ok,
        f"rigid edge {worst_edge:.2e}, total {exact!r}, fd rel {rel_err:.2e}, "
        f"{elapsed:.2f}s",
    )


def _puppet_trio():
    bend, twist = np.pi / 3, np.pi / 4
    pa = make_puppet(2, bend, twist, seed=0, radius=0.25)
    pb_target = make_puppet(2, bend, twist, seed=7, radius=0.3)
    pb_third = make_puppet(2, np.pi / 6, 0.0, seed=7, radius=0.3)
    return pa, pb_target, pb_third


def test_criterion_7_puppet_end_to_end():
    t0 = time.perf_counter()
    pa, pb_target, pb_third = _puppet_trio()
    cfg = TransferConfig(tree=pa.tree)

    res = pose_transfer(
        pa.rest_mesh,
        pa.rest_keypoints,
        pa.posed_keypoints,
        cfg,
        target_mesh=pa.posed_mesh,
    )
    twist_err = abs(res.twists.phi[1] - np.pi / 4)
    final_pmd = pmd(res.refined, pa.posed_mesh)
    totals = [b.total for b in res.losses]
    monotone = all(b <= a for a, b in zip(totals, totals[1:]))

    self_err = self_reconstruct(
        pa.rest_mesh, pa.rest_keypoints, pa.posed_mesh, pa.posed_keypoints, cfg
    )
    cycle_err = cycle_reconstruct(
        pa.rest_mesh,
        pa.rest_keypoints,
        pb_target.posed_mesh,
        pb_target.posed_keypoints,
        pb_third.posed_mesh,
        pb_third.posed_keypoints,
        cfg,
    )

    elapsed = time.perf_counter() - t0
    ok = (
        twist_err <= np.deg2rad(1.0)
        and final_pmd <= 1e-3
        and self_err <= 1e-3
        and cycle_err <= 5e-3
        and monotone
        and elapsed < 60.0
    )
    _report(
        7,
        "puppet end to end",
        ok,
        f"twist err {np.rad2deg(twist_err):.4f} deg, pmd {final_pmd:.2e}, "
        f"self {self_err:.2e}, cycle {cycle_err:.2e}, monotone {monotone}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_8_identity_transfer():
    t0 = time.perf_counter()
    worst = 0.0
    for seed, segments, radius in ((0, 2, 0.25), (5, 3, 0.4)):
        p = make_puppet(segments, np.pi / 4, np.pi / 6, seed=seed, radius=radius)
        for enabled in (True, False):
            cfg = TransferConfig(tree=p.tree)
            cfg.refinement.enabled = enabled
            res = pose_transfer(p.rest_mesh, p.rest_keypoints, p.rest_keypoints, cfg)
            worst = max(worst, pmd(res.refined, p.rest_mesh))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 2.0
    _report(8, "identity transfer", ok, f"pmd {worst:.2e}, {elapsed:.2f}s")


def test_criterion_9_determinism(tmp_path):
    pa, pb_target, pb_third = _puppet_trio()

    def full_run(out_dir):
        cfg = TransferConfig(tree=pa.tree)
        res = pose_transfer(
            pa.rest_mesh,
            pa.rest_keypoints,
            pa.posed_keypoints,
            cfg,
            target_mesh=pa.posed_mesh,
        )
        extra = {
            "self": self_reconstruct(
                pa.rest_mesh, pa.rest_keypoints, pa.posed_mesh, pa.posed_keypoints, cfg
            ),
            "cycle": cycle_reconstruct(
                pa.rest_mesh,
                pa.rest_keypoints,
                pb_target.posed_mesh,
                pb_target.posed_keypoints,
                pb_third.posed_mesh,
                pb_third.posed_keypoints,
                cfg,
            ),
        }
        return save_result(res, out_dir, extra=extra)

    s1 = full_run(tmp_path / "run1")
    s2 = full_run(tmp_path / "run2")
    same = s1 == s2
    files = ["coarse.obj", "refined.obj", "twists.json", "losses.jsonl", "weights.csv", "summary.json"]
    diffs = []
    for name in files:
        b1 = (tmp_path / "run1" / name).read_bytes()
        b2 = (tmp_path / "run2" / name).read_bytes()
        if b1 != b2:
            diffs.append(name)
    ok = same and not diffs
    detail = "all outputs bit-identical" if ok else f"differs: {diffs}"
    _report(9, "determinism", ok, detail)
    assert json.loads((tmp_path / "run1" / "summary.json").read_text()) == s1
