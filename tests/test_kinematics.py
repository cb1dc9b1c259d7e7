import re

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from posekit import (
    EPS_PARALLEL,
    BoneTransformSet,
    JointRegressor,
    KeypointSet,
    KinematicTree,
    TwistAngles,
    bundled_tree,
    compose_relative,
    forward_kinematics,
    keypoint_loss,
    load_regressor,
    load_tree,
    load_weights,
    regress_keypoints,
    root_orientation,
    save_tree,
    scalable_ik,
    skew,
    swing_rotation,
    twist_rotation,
)
from posekit.transfer import _poser


def rodrigues(axis, angle):
    """Independent axis-angle reference (no shared code with the package)."""
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    K = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1 - np.cos(angle)) * (K @ K)


def random_rotation(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def chain_tree(n):
    return KinematicTree([-1] + list(range(n - 1)))


def no_twist(tree):
    return TwistAngles.zeros(tree.n_bones)


def assert_rotation(R, tol=1e-9):
    assert np.max(np.abs(R.T @ R - np.eye(3))) <= tol
    assert abs(np.linalg.det(R) - 1.0) <= tol


def _random_pose(tree, rng, scale=1.0):
    """Random keypoints with every bone nondegenerate."""
    pts = np.zeros((tree.n_joints, 3))
    for j in range(1, tree.n_joints):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        pts[j] = pts[tree.parents[j]] + d * scale * rng.uniform(0.5, 1.5)
    return KeypointSet(pts)


# -- tree --


def test_tree_basic():
    t = KinematicTree([-1, 0, 0, 1])
    assert t.n_joints == 4
    assert t.n_bones == 3
    assert t.children(0) == [1, 2]
    assert t.children(1) == [3]
    assert t.children(3) == []


def test_tree_rejects_bad_parents():
    with pytest.raises(ValueError):
        KinematicTree([0, 0])  # root must be -1
    with pytest.raises(ValueError):
        KinematicTree([-1, 2, 1])  # parent must precede child
    with pytest.raises(ValueError):
        KinematicTree([-1, -1])  # single root only
    with pytest.raises(ValueError):
        KinematicTree([])


def test_tree_names_default_and_explicit():
    t = KinematicTree([-1, 0])
    assert t.names == ["joint_0", "joint_1"]
    t2 = KinematicTree([-1, 0], ["hip", "knee"])
    assert t2.names == ["hip", "knee"]
    with pytest.raises(ValueError):
        KinematicTree([-1, 0], ["hip"])


def test_tree_round_trip(tmp_path):
    t = KinematicTree([-1, 0, 1, 1], ["a", "b", "c", "d"])
    p = tmp_path / "t.json"
    save_tree(t, p)
    back = load_tree(p)
    assert list(back.parents) == list(t.parents)
    assert back.names == t.names


def test_bundled_trees():
    smpl = bundled_tree("smpl_24")
    assert smpl.n_joints == 24
    assert smpl.parents[0] == -1
    assert "pelvis" in smpl.names[0]
    quad = bundled_tree("smal_33")
    assert quad.n_joints == 33
    with pytest.raises(ValueError):
        bundled_tree("nope_99")


# -- keypoints --


def test_keypoints_validate():
    t = chain_tree(3)
    kp = KeypointSet(np.array([[0.0, 0, 0], [0, 1, 0], [0, 2, 0]]))
    kp.validate_for(t)
    with pytest.raises(ValueError):
        KeypointSet(np.zeros((2, 3))).validate_for(t)
    bad = KeypointSet(np.array([[0.0, 0, 0], [0, 0, 0], [0, 1, 0]]))
    with pytest.raises(ValueError, match="degenerate"):
        bad.validate_for(t)


def test_keypoints_reject_nonfinite():
    with pytest.raises(ValueError):
        KeypointSet(np.array([[0.0, 0, np.inf], [0, 1, 0]]))


def test_bone_vectors():
    t = KinematicTree([-1, 0, 0])
    kp = KeypointSet(np.array([[0.0, 0, 0], [1, 0, 0], [0, 2, 0]]))
    assert np.allclose(kp.bone_vectors(t), [[1, 0, 0], [0, 2, 0]])


# -- regressor --


def test_regressor_validation():
    JointRegressor(np.array([[0.5, 0.5, 0.0], [0.0, 0.25, 0.75]]))
    with pytest.raises(ValueError):
        JointRegressor(np.array([[1.0, -0.1, 0.1], [0, 1, 0]]))
    with pytest.raises(ValueError):
        JointRegressor(np.array([[0.0, 0, 0], [0, 1, 0]]))
    with pytest.raises(ValueError):
        JointRegressor(np.array([[0.6, 0.6, 0], [0, 1, 0]]))


def test_regress_keypoints_hand_value():
    verts = np.array([[0.0, 0, 0], [2, 0, 0], [0, 4, 0]])
    r = JointRegressor(np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]))
    kp = regress_keypoints(verts, r)
    assert np.allclose(kp.joints, [[1, 0, 0], [0, 4, 0]])


def test_regress_keypoints_count_mismatch():
    r = JointRegressor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        regress_keypoints(np.zeros((3, 3)), r)


def test_load_regressor_dense(tmp_path):
    w = np.array([[1.0, 0.0], [0.25, 0.75]])
    p = tmp_path / "r.csv"
    np.savetxt(p, w, delimiter=",")
    r = load_regressor(p)
    assert np.allclose(r.matrix, w)


def test_load_regressor_sparse(tmp_path):
    p = tmp_path / "r.csv"
    p.write_text("row,col,weight\n0,0,1.0\n1,0,0.25\n1,1,0.75\n")
    r = load_regressor(p, shape=(2, 2))
    assert np.allclose(r.matrix, [[1.0, 0.0], [0.25, 0.75]])
    # shape inferred from the largest indices when not given
    r2 = load_regressor(p)
    assert r2.matrix.shape == (2, 2)


@pytest.mark.parametrize(
    "text, accepted",
    [
        ("0.5,0.5\n1,0\n", True),
        ("0.5, 0.5\n\n1 ,0\n\n", True),  # spaces around a number, blank lines
        ('"0.5","0.5"\n1,0\n', True),  # quoted numbers
        ("5e-1,0.5\n1,0", True),  # no final newline
        ("# weights\n0.5,0.5\n1,0\n", False),  # a comment line
        ("0.5 0.5\n1 0\n", False),  # spaces as separators
        ("0.5,0.5,\n1,0,\n", False),  # a trailing comma
        ("0.5,0.5\n1\n", False),  # ragged rows
        ("a,b\n1,0\n", False),
        ("", False),
        ("\n\n", False),
    ],
)
def test_weights_and_dense_regressors_share_one_grid_syntax(tmp_path, text, accepted):
    # a grid that both contracts hold (rows of nonnegative numbers summing
    # to 1) loads as weights exactly when it loads as a dense regressor
    path = tmp_path / "grid.csv"
    path.write_text(text)
    loaded = []
    for read, kind in ((load_weights, "weight"), (load_regressor, "regressor")):
        if accepted:
            loaded.append(read(path))
        else:
            with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {kind} parse fail"):
                read(path)
    if accepted:
        weights, regressor = loaded
        assert np.array_equal(weights.weights, [[0.5, 0.5], [1.0, 0.0]])
        assert np.array_equal(regressor.matrix, weights.weights)


def test_load_regressor_sparse_rejects_negative_indices(tmp_path):
    # numpy would wrap -1 around to the last column and load the pair below
    # as a weight of 1.0 on column 5
    p = tmp_path / "r.csv"
    for text in ("row,col,weight\n0,5,0.5\n0,-1,0.5\n", "row,col,weight\n0,0,0.5\n-1,0,0.5\n"):
        p.write_text(text)
        for shape in (None, (1, 6)):
            with pytest.raises(ValueError, match=rf"^{re.escape(str(p))}: .*nonnegative"):
                load_regressor(p, shape)


def test_load_regressor_sparse_too_large_to_allocate_is_a_parse_failure(tmp_path):
    # 2**58 columns of float64 are 2 EiB, more than any address space maps
    p = tmp_path / "r.csv"
    p.write_text(f"row,col,weight\n0,{2**58},1.0\n")
    with pytest.raises(ValueError, match=r"regressor parse failure: Unable to allocate"):
        load_regressor(p)


# -- losses on keypoints --


def test_keypoint_loss_hand_value():
    # per-joint offsets (3,4,0) and (0,0,2): norms 5 and 2, summed = 7
    a = KeypointSet(np.array([[0.0, 0, 0], [1, 1, 1]]))
    b = KeypointSet(np.array([[3.0, 4, 0], [1, 1, 3]]))
    assert keypoint_loss(a, b) == pytest.approx(7.0, abs=1e-12)


def test_keypoint_loss_zero():
    pts = np.random.default_rng(0).normal(size=(5, 3))
    assert keypoint_loss(KeypointSet(pts), KeypointSet(pts.copy())) == 0.0


# -- rotation building blocks --


def test_skew():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a, b = rng.normal(size=3), rng.normal(size=3)
        K = skew(a)
        assert np.allclose(K, -K.T)
        assert np.allclose(K @ b, np.cross(a, b))


def test_swing_frozen_case():
    # (1,1,0) -> (0,0,3); axis (1,-1,0)/sqrt(2), quarter turn
    R = swing_rotation(np.array([1.0, 1.0, 0.0]), np.array([0.0, 0.0, 3.0]))
    h = np.sqrt(0.5)
    expect = np.array([[0.5, -0.5, -h], [-0.5, 0.5, -h], [h, h, 0.0]])
    assert np.max(np.abs(R - expect)) <= 1e-15


def test_swing_matches_rodrigues_reference():
    rng = np.random.default_rng(2)
    for _ in range(50):
        s, t = rng.normal(size=3), rng.normal(size=3)
        sh, th = s / np.linalg.norm(s), t / np.linalg.norm(t)
        c = np.cross(sh, th)
        if np.linalg.norm(c) < 1e-6:
            continue
        expect = rodrigues(c, np.arccos(np.clip(sh @ th, -1, 1)))
        assert np.max(np.abs(swing_rotation(s, t) - expect)) <= 1e-12


def test_swing_maps_direction_and_scale_free():
    rng = np.random.default_rng(3)
    for _ in range(50):
        s, t = rng.normal(size=3), rng.normal(size=3)
        R = swing_rotation(s, t)
        assert_rotation(R)
        sh, th = s / np.linalg.norm(s), t / np.linalg.norm(t)
        assert np.allclose(R @ sh, th, atol=1e-9)
        # invariant to input magnitudes
        assert np.allclose(R, swing_rotation(3.7 * s, 0.01 * t), atol=1e-12)


def test_swing_parallel_is_identity():
    s = np.array([0.2, -1.4, 0.7])
    assert np.array_equal(swing_rotation(s, 2.5 * s), np.eye(3))
    # tiny perpendicular component below threshold also snaps to identity
    t = s + 1e-12 * np.array([s[1], -s[0], 0.0])
    assert np.max(np.abs(swing_rotation(s, t) - np.eye(3))) <= 1e-9


def test_swing_antiparallel_half_turn():
    rng = np.random.default_rng(4)
    for _ in range(20):
        s = rng.normal(size=3)
        R = swing_rotation(s, -s)
        assert_rotation(R)
        sh = s / np.linalg.norm(s)
        assert np.allclose(R @ sh, -sh, atol=1e-9)


def test_swing_maps_directions_inside_the_parallel_threshold():
    # 5e-9 rad off parallel or antiparallel, inside swing_rotation's 1e-8
    # threshold: the rotation still lands on t, not 5e-9 rad short of it
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = rng.normal(size=3)
        sh = s / np.linalg.norm(s)
        perp = np.cross(sh, rng.normal(size=3))
        perp /= np.linalg.norm(perp)
        for sign in (1.0, -1.0):
            t = sign * np.cos(5e-9) * sh + np.sin(5e-9) * perp
            R = swing_rotation(s, t)
            assert_rotation(R)
            assert np.max(np.abs(R @ sh - t)) <= 1e-12


def test_one_swing_stack_equals_its_single_calls():
    # generic rows, parallel rows exactly and 1e-10 rad off, antiparallel rows
    # exactly and 1e-7 rad off, mixed in one stack: each row is its own single
    # call, bit for bit, whatever branch its neighbours take
    rng = np.random.default_rng(16)
    kinds = ["generic", "parallel", "near parallel", "antiparallel", "near antiparallel"] * 4
    rows = []
    for kind in rng.permutation(kinds):
        s = rng.normal(size=3)
        sh = s / np.linalg.norm(s)
        perp = np.cross(sh, rng.normal(size=3))
        perp /= np.linalg.norm(perp)
        t = {
            "generic": rng.normal(size=3),
            "parallel": sh,
            "near parallel": np.cos(1e-10) * sh + np.sin(1e-10) * perp,
            "antiparallel": -sh,
            "near antiparallel": -np.cos(1e-7) * sh + np.sin(1e-7) * perp,
        }[kind]
        rows.append((s, t * rng.uniform(0.5, 2.0)))
    s, t = (np.array(v) for v in zip(*rows))
    stacked = swing_rotation(s, t)
    for R, a, b in zip(stacked, s, t):
        assert np.array_equal(R, swing_rotation(a, b))
        assert_rotation(R)
        assert np.max(np.abs(R @ (a / np.linalg.norm(a)) - b / np.linalg.norm(b))) <= 1e-9


def test_swing_rejects_zero_vector():
    with pytest.raises(ValueError):
        swing_rotation(np.zeros(3), np.array([1.0, 0, 0]))


def test_twist_frozen_case():
    R = twist_rotation(np.array([0.0, 0.0, 5.0]), np.pi / 4)
    h = np.sqrt(0.5)
    expect = np.array([[h, -h, 0.0], [h, h, 0.0], [0.0, 0.0, 1.0]])
    assert np.max(np.abs(R - expect)) <= 1e-15


def test_twist_properties():
    rng = np.random.default_rng(5)
    for _ in range(30):
        axis = rng.normal(size=3)
        phi = rng.uniform(-np.pi, np.pi)
        R = twist_rotation(axis, phi)
        assert_rotation(R)
        assert np.allclose(R @ axis, axis, atol=1e-9)  # own axis is fixed
        assert np.allclose(R, rodrigues(axis, phi), atol=1e-12)
    assert np.array_equal(twist_rotation(np.array([1.0, 0, 0]), 0.0), np.eye(3))


def test_compose_relative_order():
    s = np.array([1.0, 0.3, -0.2])
    sw = swing_rotation(s, np.array([0.1, 1.0, 0.4]))
    tw = twist_rotation(s, 0.9)
    assert np.array_equal(compose_relative(sw, tw), sw @ tw)


def test_twist_angles_wrap():
    w = TwistAngles.wrap([0.0, np.pi, -np.pi, np.pi + 0.1, -3 * np.pi])
    assert w.phi[0] == 0.0
    assert w.phi[1] == pytest.approx(np.pi)
    assert w.phi[2] == pytest.approx(np.pi)  # -pi maps to +pi, interval (-pi, pi]
    assert w.phi[3] == pytest.approx(-np.pi + 0.1)
    # -3*pi is pi up to float roundoff in sin; either sign of pi is the same angle
    assert abs(w.phi[4]) == pytest.approx(np.pi)
    assert -np.pi < w.phi[4] <= np.pi
    assert np.array_equal(TwistAngles.zeros(5).phi, np.zeros(5))


def test_twist_angles_constructor_rejects_out_of_range():
    with pytest.raises(ValueError):
        TwistAngles(np.array([4.0]))
    with pytest.raises(ValueError):
        TwistAngles(np.array([-np.pi]))


# -- IK / FK --


def test_fk_straight_chain_single_bend():
    t = chain_tree(3)
    rest = KeypointSet([[0, 0, 0], [0, 1, 0], [0, 2, 0]])
    rel = np.stack([rodrigues([1, 0, 0], np.pi / 2), np.eye(3)])
    out = forward_kinematics(rest, rel, t)
    assert np.allclose(out.posed_joints, [[0, 0, 0], [0, 0, 1], [0, 0, 2]], atol=1e-12)


def test_fk_two_bends_compose():
    t = chain_tree(3)
    rest = KeypointSet([[0, 0, 0], [0, 1, 0], [0, 2, 0]])
    rel = np.stack([rodrigues([1, 0, 0], np.pi / 2), rodrigues([0, 0, 1], np.pi / 2)])
    out = forward_kinematics(rest, rel, t)
    # second bone direction: Rx90 @ Rz90 @ +y = Rx90 @ -x = -x
    assert np.allclose(out.posed_joints[2], [-1, 0, 1], atol=1e-12)


def test_fk_preserves_bone_lengths():
    tree = bundled_tree("smpl_24")
    rng = np.random.default_rng(15)
    rest = _random_pose(tree, rng)
    rel = np.stack([random_rotation(rng) for _ in range(tree.n_bones)])
    out = forward_kinematics(rest, rel, tree)
    posed = KeypointSet(out.posed_joints)
    ls = np.linalg.norm(rest.bone_vectors(tree), axis=1)
    lp = np.linalg.norm(posed.bone_vectors(tree), axis=1)
    assert np.max(np.abs(ls - lp)) <= 1e-12


def test_fk_identity_transforms():
    tree = bundled_tree("smpl_24")
    rng = np.random.default_rng(6)
    rest = _random_pose(tree, rng)
    out = forward_kinematics(rest, np.tile(np.eye(3), (tree.n_bones, 1, 1)), tree)
    assert np.max(np.abs(out.posed_joints - rest.joints)) == 0.0


def test_transform_set_identity_and_validate():
    tree = chain_tree(3)
    rest = KeypointSet([[0, 0, 0], [0, 1, 0], [0, 2, 0]])
    tf = BoneTransformSet.identity(rest, tree)
    assert np.array_equal(tf.posed_joints, rest.joints)
    assert np.array_equal(tf.translations, np.zeros((2, 3)))
    tf.validate()
    bad = BoneTransformSet(
        np.stack([np.eye(3) * 1.01]),
        np.stack([np.eye(3) * 1.01]),
        np.zeros((1, 3)),
        np.zeros((2, 3)),
    )
    with pytest.raises(ValueError):
        bad.validate()


def test_transform_apply_carries_rest_joint_to_posed_joint():
    tree = bundled_tree("smpl_24")
    rng = np.random.default_rng(14)
    src = _random_pose(tree, rng)
    tgt = _random_pose(tree, rng)
    rel = scalable_ik(src, tgt, no_twist(tree), tree)
    tf = forward_kinematics(src, rel, tree)
    for k in range(1, tree.n_joints):
        got = tf.apply(k, src.joints[k])
        assert np.allclose(got, tf.posed_joints[k], atol=1e-9)
        # and the parent rest joint maps to the posed parent
        p = int(tree.parents[k])
        assert np.allclose(tf.apply(k, src.joints[p]), tf.posed_joints[p], atol=1e-9)


def test_ik_identity_when_target_equals_source():
    tree = bundled_tree("smpl_24")
    rng = np.random.default_rng(7)
    kp = _random_pose(tree, rng)
    rel = scalable_ik(kp, kp, no_twist(tree), tree)
    assert np.max(np.abs(rel - np.eye(3))) <= 1e-9


def test_ik_fk_round_trip_directions():
    tree = bundled_tree("smpl_24")
    rng = np.random.default_rng(8)
    for _ in range(10):
        src = _random_pose(tree, rng)
        tgt = _random_pose(tree, rng, scale=rng.uniform(0.3, 3.0))
        rel = scalable_ik(src, tgt, no_twist(tree), tree)
        posed = KeypointSet(forward_kinematics(src, rel, tree).posed_joints)
        for bp, bt in zip(posed.bone_vectors(tree), tgt.bone_vectors(tree)):
            dot = bp @ bt / (np.linalg.norm(bp) * np.linalg.norm(bt))
            assert dot >= 1.0 - 1e-9


def test_ik_equal_lengths_exact_match():
    tree = bundled_tree("smpl_24")
    rng = np.random.default_rng(9)
    src = _random_pose(tree, rng)
    # target with identical bone lengths: pose the source under random rotations
    rel_true = np.stack([random_rotation(rng) for _ in range(tree.n_bones)])
    tgt = KeypointSet(forward_kinematics(src, rel_true, tree).posed_joints)
    rel = scalable_ik(src, tgt, no_twist(tree), tree)
    posed = forward_kinematics(src, rel, tree).posed_joints
    aligned = posed - posed[0] + tgt.joints[0]
    assert np.max(np.abs(aligned - tgt.joints)) <= 1e-6


def test_ik_scale_invariance():
    tree = bundled_tree("smpl_24")
    rng = np.random.default_rng(10)
    src = _random_pose(tree, rng)
    tgt = _random_pose(tree, rng)
    base = scalable_ik(src, tgt, no_twist(tree), tree)
    for c in (0.5, 2.0, 10.0):
        scaled = KeypointSet(tgt.joints[0] + c * (tgt.joints - tgt.joints[0]))
        got = scalable_ik(src, scaled, no_twist(tree), tree)
        assert np.max(np.abs(got - base)) <= 1e-9


def test_ik_rotations_orthonormal():
    tree = bundled_tree("smpl_24")
    rng = np.random.default_rng(11)
    for _ in range(5):
        rel = scalable_ik(
            _random_pose(tree, rng), _random_pose(tree, rng), no_twist(tree), tree
        )
        for R in rel:
            assert_rotation(R)


def test_twist_neutrality_on_joints():
    # spinning any bone about its own axis must not move any joint
    tree = bundled_tree("smpl_24")
    rng = np.random.default_rng(12)
    src = _random_pose(tree, rng)
    tgt = _random_pose(tree, rng)
    twists = TwistAngles.wrap(rng.uniform(-np.pi, np.pi, size=tree.n_bones))
    plain = forward_kinematics(src, scalable_ik(src, tgt, no_twist(tree), tree), tree)
    spun = forward_kinematics(src, scalable_ik(src, tgt, twists, tree), tree)
    assert np.max(np.abs(plain.posed_joints - spun.posed_joints)) <= 1e-9


def test_twist_neutrality_on_chains_folded_near_their_parents():
    # straight rest chains of 33 joints whose targets zigzag: every aim lies
    # 1e-7 to 1e-5 rad off antiparallel from its bone's current direction,
    # its parent's aim, at any twist, so every swing but the root bone's is
    # a near fold, and the posed joints must not move with the twists
    n = 33
    tree = chain_tree(n)
    rng = np.random.default_rng(17)
    for _ in range(5):
        rest = KeypointSet(np.outer(np.arange(n), unit(rng.normal(size=3))))
        aim, joints = unit(rng.normal(size=3)), [rng.normal(size=3)]
        for _ in range(n - 1):
            joints.append(joints[-1] + aim * rng.uniform(0.5, 2.0))
            off = 10.0 ** rng.uniform(-7.0, -5.0)
            perp = unit(np.cross(aim, rng.normal(size=3)))
            aim = -np.cos(off) * aim + np.sin(off) * perp
        target = KeypointSet(np.array(joints))
        plain = forward_kinematics(rest, scalable_ik(rest, target, no_twist(tree), tree), tree)
        for _ in range(5):
            twists = TwistAngles.wrap(rng.uniform(-np.pi, np.pi, tree.n_bones))
            spun = forward_kinematics(rest, scalable_ik(rest, target, twists, tree), tree)
            assert np.max(np.abs(spun.posed_joints - plain.posed_joints)) <= 1e-9


def test_ik_twist_count_mismatch():
    tree = chain_tree(3)
    kp = KeypointSet([[0, 0, 0], [0, 1, 0], [0, 2, 0]])
    with pytest.raises(ValueError):
        scalable_ik(kp, kp, TwistAngles.zeros(5), tree)


def test_root_orientation_aligns_frames():
    tree = KinematicTree([-1, 0, 0])
    rng = np.random.default_rng(13)
    src = KeypointSet(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]]))
    R = random_rotation(rng)
    tgt = KeypointSet(src.joints @ R.T)
    R0 = root_orientation(src, tgt, tree)
    assert np.max(np.abs(R0 - R)) <= 1e-9


def test_root_orientation_fallback_single_valid_bone():
    # collinear child bones leave the frame rank-deficient; falls back to swing
    tree = KinematicTree([-1, 0, 0])
    src = KeypointSet(np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]]))
    tgt = KeypointSet(np.array([[0.0, 0, 0], [0, 1, 0], [0, 2, 0]]))
    R0 = root_orientation(src, tgt, tree)
    assert_rotation(R0)
    assert np.allclose(R0 @ [1, 0, 0], [0, 1, 0], atol=1e-9)


def test_eps_parallel_exported():
    assert 0 < EPS_PARALLEL < 1e-3


# -- IK/FK properties over random trees --


def unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


@st.composite
def skeleton_pairs(draw):
    """A random tree of 2-33 joints, source and target keypoints, twists.

    Bone lengths differ between the two poses. About half the target bones
    keep their source direction, the rest point anywhere; up to four are
    folded back against their source direction, exactly or off by 1e-6 or
    1e-3 rad, far from swing_rotation's parallel threshold on both sides.
    Optionally the root's first two child bones are collinear in both poses.
    """
    n = draw(st.integers(2, 33))
    parents = [-1] + [draw(st.integers(0, j - 1)) for j in range(1, n)]
    collinear = n >= 3 and draw(st.booleans())
    if collinear:
        parents[1] = parents[2] = 0
    tree = KinematicTree(parents)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    src_dirs = unit(rng.normal(size=(n, 3)))
    tgt_dirs = np.where(rng.random((n, 1)) < 0.5, src_dirs, unit(rng.normal(size=(n, 3))))
    off = draw(st.sampled_from([0.0, 1e-6, 1e-3]))
    for j in draw(st.lists(st.integers(1, n - 1), max_size=4)):
        perp = unit(np.cross(src_dirs[j], rng.normal(size=3)))
        tgt_dirs[j] = unit(-src_dirs[j] + off * perp)
    if collinear:
        sign = draw(st.sampled_from([-1.0, 1.0]))
        src_dirs[2] = sign * src_dirs[1]
        tgt_dirs[2] = sign * tgt_dirs[1]
    poses = []
    for dirs, (lo, hi) in ((src_dirs, (0.5, 1.5)), (tgt_dirs, (0.3, 3.0))):
        pts = np.empty((n, 3))
        pts[0] = rng.normal(size=3)
        for j in range(1, n):
            pts[j] = pts[parents[j]] + dirs[j] * rng.uniform(lo, hi)
        poses.append(KeypointSet(pts))
    twists = TwistAngles.wrap(rng.uniform(-np.pi, np.pi, n - 1))
    return tree, poses[0], poses[1], twists


PROPERTY = settings(max_examples=60, deadline=None)


@PROPERTY
@given(skeleton_pairs())
def test_fk_of_ik_reproduces_target_directions_on_random_trees(pair):
    tree, src, tgt, twists = pair
    rel = scalable_ik(src, tgt, twists, tree)
    posed = KeypointSet(forward_kinematics(src, rel, tree).posed_joints)
    got = unit(posed.bone_vectors(tree))
    assert np.max(np.abs(got - unit(tgt.bone_vectors(tree)))) <= 1e-9


@PROPERTY
@given(skeleton_pairs(), st.floats(0.05, 20.0))
def test_ik_scale_invariance_on_random_trees(pair, c):
    tree, src, tgt, twists = pair
    scaled = KeypointSet(tgt.joints[0] + c * (tgt.joints - tgt.joints[0]))
    base = scalable_ik(src, tgt, twists, tree)
    # a swing 1e-6 rad short of a half turn takes its axis from a cross
    # product of length 1e-6, which scales the directions' rounding by 1e6;
    # the largest difference seen over 6000 draws is 5e-9
    assert np.max(np.abs(scalable_ik(src, scaled, twists, tree) - base)) <= 1e-7


@PROPERTY
@given(skeleton_pairs())
def test_stacked_ik_and_fk_rows_equal_single_calls(pair):
    tree, src, tgt, twists = pair
    leaf, parent = tree.n_joints - 1, int(tree.parents[-1])
    # folding the leaf back changes the root frame itself when the leaf is
    # the root's second child, and no swing is antiparallel
    assume(parent != 0 or tree.children(0).index(leaf) != 1)
    folded = src.joints.copy()
    folded[leaf] = 2.0 * src.joints[parent] - src.joints[leaf]
    # at zero twist, every swing onto the source itself is parallel, and the
    # swing of the folded leaf bone is antiparallel
    targets = np.stack([tgt.joints, src.joints, folded, tgt.joints])
    zero = np.zeros_like(twists.phi)
    rows = TwistAngles(np.stack([twists.phi, zero, zero, TwistAngles.wrap(-twists.phi).phi]))
    stacked = scalable_ik(src, KeypointSet(targets), rows, tree)
    assert np.max(np.abs(stacked[1] - np.eye(3))) <= 1e-9
    assert np.trace(stacked[2][leaf - 1]) == pytest.approx(-1.0, abs=1e-9)
    for target in (targets, tgt.joints, src.joints, folded):
        rel = scalable_ik(src, KeypointSet(target), rows, tree)
        tf = forward_kinematics(src, rel, tree, root_position=target[..., 0, :])
        for b in range(4):
            one = KeypointSet(target if target.ndim == 2 else target[b])
            want = scalable_ik(src, one, TwistAngles(rows.phi[b]), tree)
            assert np.max(np.abs(rel[b] - want)) <= 1e-12
            single = forward_kinematics(src, rel[b], tree, root_position=one.joints[0])
            for name in ("relative", "rotations", "translations", "posed_joints"):
                assert np.max(np.abs(getattr(tf[b], name) - getattr(single, name))) <= 1e-12


def assert_poser_is_fk_of_ik(tree, src, targets, rows):
    """``_poser``, built once, equals FK of ``scalable_ik`` bit for bit on
    each of several calls, for raw twists that it wraps itself."""
    target = KeypointSet(targets)
    pose = _poser(src, target, tree)
    for phi in (rows, -2.0 * rows, rows[..., ::-1]):
        rel = scalable_ik(src, target, TwistAngles.wrap(phi), tree)
        want = forward_kinematics(src, rel, tree, root_position=targets[..., 0, :])
        got = pose(phi)
        for name in ("relative", "rotations", "translations", "posed_joints"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


@PROPERTY
@given(skeleton_pairs())
def test_poser_equals_fk_of_ik_on_random_trees(pair):
    tree, src, tgt, twists = pair
    leaf, parent = tree.n_joints - 1, int(tree.parents[-1])
    folded = src.joints.copy()  # the leaf bone folded back: an antiparallel swing
    folded[leaf] = 2.0 * src.joints[parent] - src.joints[leaf]
    targets = np.stack([tgt.joints, src.joints, folded])
    rows = np.stack([twists.phi, np.zeros_like(twists.phi), 3.0 * twists.phi])
    assert_poser_is_fk_of_ik(tree, src, tgt.joints, twists.phi)  # one row, one target
    assert_poser_is_fk_of_ik(tree, src, tgt.joints, rows)  # stacked twist rows
    assert_poser_is_fk_of_ik(tree, src, targets, twists.phi)  # stacked targets
    assert_poser_is_fk_of_ik(tree, src, targets, rows)  # both, row b on target b


@pytest.mark.parametrize("name", ["smpl_24", "smal_33"])
def test_poser_equals_fk_of_ik_on_bundled_trees(name):
    tree = bundled_tree(name)
    rng = np.random.default_rng(4)
    src = _random_pose(tree, rng)
    targets = np.stack([_random_pose(tree, rng, scale=2.0).joints for _ in range(3)])
    rows = rng.uniform(-4.0, 4.0, (3, tree.n_bones))
    assert_poser_is_fk_of_ik(tree, src, targets[0], rows[0])
    assert_poser_is_fk_of_ik(tree, src, targets[0], rows)
    assert_poser_is_fk_of_ik(tree, src, targets, rows)


def test_poser_rejects_a_degenerate_target_bone_when_built():
    tree = bundled_tree("smpl_24")
    rng = np.random.default_rng(5)
    src = _random_pose(tree, rng)
    bad = src.joints.copy()
    bad[7] = bad[tree.parents[7]]
    for target in (bad, np.stack([src.joints, bad])):
        with pytest.raises(ValueError, match="degenerate bone"):
            _poser(src, KeypointSet(target), tree)


@PROPERTY
@given(skeleton_pairs())
def test_twists_leave_posed_joints_on_random_trees(pair):
    tree, src, tgt, twists = pair
    plain = forward_kinematics(src, scalable_ik(src, tgt, no_twist(tree), tree), tree)
    spun = forward_kinematics(src, scalable_ik(src, tgt, twists, tree), tree)
    assert np.max(np.abs(spun.posed_joints - plain.posed_joints)) <= 1e-9
