from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posekit import (
    BoneTransformSet,
    GmmParams,
    KeypointSet,
    KinematicTree,
    Mesh,
    SkinningMatrix,
    bone_centers,
    default_radii,
    gmm_weights,
    lbs_apply,
    load_weights,
    make_puppet,
    pseudo_weights,
    save_weights,
    skinning_loss,
)
from posekit.skinning import _weights_csv
from test_kinematics import random_rotation
from test_mesh import io_floats


def square_mesh():
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    f = np.array([[0, 1, 2], [1, 3, 2]])
    return Mesh(v, f)


def test_gmm_params_validation():
    GmmParams(np.zeros((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        GmmParams(np.zeros((2, 3)), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        GmmParams(np.zeros((2, 3)), np.ones(3))
    with pytest.raises(ValueError):
        GmmParams(np.zeros((2, 3)), np.ones(2), temperature=0.0)
    for radii in ([0.5, np.nan], [0.5, np.inf], [0.5, -1.0]):
        with pytest.raises(ValueError, match="radii must be finite and positive"):
            GmmParams(np.zeros((2, 3)), np.array(radii))
    for temperature in (np.nan, np.inf):
        with pytest.raises(ValueError, match="temperature must be finite"):
            GmmParams(np.zeros((2, 3)), np.ones(2), temperature=temperature)


def test_skinning_matrix_validation():
    SkinningMatrix(np.array([[0.25, 0.75], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        SkinningMatrix(np.array([[1.2, -0.2]]))
    with pytest.raises(ValueError):
        SkinningMatrix(np.array([[0.5, 0.6]]))
    # a NaN row has a NaN sum, which no tolerance comparison rejects
    for row in ([np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="weights must be finite"):
            SkinningMatrix(np.array([[1.0, 0.0], row]))


def test_pseudo_weights_equal_the_explicit_gmm_build():
    p = make_puppet(3, 0.4, 0.2, seed=0)
    v, kp, tree = p.rest_mesh.vertices, p.rest_keypoints, p.tree
    centers = bone_centers(kp, tree)
    explicit = gmm_weights(v, GmmParams(centers, default_radii(kp, tree), 2.5))
    assert np.array_equal(pseudo_weights(v, kp, tree, 2.5).weights, explicit.weights)
    radii = np.array([0.3, 0.7, 0.5])
    explicit = gmm_weights(v, GmmParams(centers, radii, 1.5))
    assert np.array_equal(
        pseudo_weights(v, kp, tree, 1.5, radii).weights, explicit.weights
    )


def test_weights_round_trip(tmp_path):
    w = SkinningMatrix(np.array([[0.25, 0.75], [0.1, 0.9], [1.0, 0.0]]))
    p = tmp_path / "w.csv"
    save_weights(w, p)
    back = load_weights(p)
    assert np.array_equal(back.weights, w.weights)


def test_weights_golden_bytes(tmp_path):
    w = SkinningMatrix(
        np.array(
            [[-0.0, 1.0], [5e-324, 1.0], [0.1, 0.9], [1e-16, 0.9999999999999999],
             [0.7, 0.30000000000000004]]
        )
    )
    save_weights(w, tmp_path / "w.csv")
    assert (tmp_path / "w.csv").read_bytes() == (
        b"-0.0,1.0\n5e-324,1.0\n0.1,0.9\n1e-16,0.9999999999999999\n"
        b"0.7,0.30000000000000004\n"
    )
    assert load_weights(tmp_path / "w.csv").weights.tobytes() == w.weights.tobytes()


@st.composite
def float_grids(draw):
    """Up to 20 rows of 0-6 drawn floats."""
    k = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(io_floats, min_size=k, max_size=k), max_size=20))
    return np.array(rows, dtype=np.float64).reshape(len(rows), k)


@settings(max_examples=200, deadline=None)
@given(float_grids())
def test_weights_csv_is_the_per_row_text(w):
    # the format reads only .weights, not the weight contract, so any finite
    # values and shapes test it
    expected = "\n".join(",".join(map(repr, row)) for row in w.tolist()) + "\n"
    assert _weights_csv(SimpleNamespace(weights=w)) == expected


def test_bone_centers_and_radii():
    tree = KinematicTree([-1, 0, 1])
    kp = KeypointSet([[0, 0, 0], [0, 2, 0], [0, 2, 3]])
    assert np.allclose(bone_centers(kp, tree), [[0, 1, 0], [0, 2, 1.5]])
    assert np.allclose(default_radii(kp, tree), [1.0, 1.5])


def test_gmm_equal_logits_split_evenly():
    # distances and radii chosen so both logits coincide
    params = GmmParams(np.array([[1.0, 0, 0], [0, 2.0, 0]]), np.array([1.0, 2.0]))
    w = gmm_weights(np.zeros((1, 3)), params).weights
    assert np.allclose(w, [[0.5, 0.5]], atol=1e-15)


def test_gmm_direct_evaluation_oracle():
    # plain exp-ratio computed by hand, no max subtraction
    params = GmmParams(np.array([[1.0, 0, 0], [0, 2.0, 0]]), np.array([1.0, 1.0]))
    w = gmm_weights(np.zeros((1, 3)), params).weights
    e1, e2 = np.exp(-2.0 * 1.0), np.exp(-2.0 * 4.0)
    assert w[0, 0] == pytest.approx(e1 / (e1 + e2), rel=1e-14)
    assert w[0, 1] == pytest.approx(e2 / (e1 + e2), rel=1e-14)


def test_gmm_rows_sum_to_one_and_positive():
    rng = np.random.default_rng(0)
    params = GmmParams(rng.normal(size=(5, 3)), rng.uniform(0.5, 2.0, size=5))
    w = gmm_weights(rng.normal(size=(100, 3)), params).weights
    assert np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-12
    assert (w > 0).all()


def test_gmm_single_bone_all_ones():
    params = GmmParams(np.array([[0.0, 0, 0]]), np.array([1.0]))
    w = gmm_weights(np.random.default_rng(1).normal(size=(7, 3)), params).weights
    assert np.array_equal(w, np.ones((7, 1)))


def test_gmm_high_temperature_hardens():
    params = GmmParams(
        np.array([[0.0, 0, 0], [3.0, 0, 0]]), np.array([1.0, 1.0]), temperature=100.0
    )
    w = gmm_weights(np.array([[0.1, 0, 0], [2.9, 0, 0]]), params).weights
    assert w[0, 0] >= 1.0 - 1e-6
    assert w[1, 1] >= 1.0 - 1e-6


def test_gmm_translation_invariance():
    rng = np.random.default_rng(2)
    centers = rng.normal(size=(4, 3))
    radii = rng.uniform(0.5, 1.5, size=4)
    verts = rng.normal(size=(30, 3))
    shift = np.array([5.0, -3.0, 11.0])
    a = gmm_weights(verts, GmmParams(centers, radii)).weights
    b = gmm_weights(verts + shift, GmmParams(centers + shift, radii)).weights
    assert np.max(np.abs(a - b)) <= 1e-12


def test_gmm_far_vertex_stays_finite():
    params = GmmParams(np.array([[0.0, 0, 0], [1.0, 0, 0]]), np.array([1.0, 1.0]))
    w = gmm_weights(np.array([[1e6, 0, 0]]), params).weights
    assert np.isfinite(w).all()
    assert w[0, 1] > w[0, 0]


def test_skinning_loss_hand_value():
    # every entry differs by 0.1: mean of squares is 0.01
    a = SkinningMatrix(np.array([[0.6, 0.4], [0.4, 0.6]]))
    b = SkinningMatrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert skinning_loss(a, b) == pytest.approx(0.01, abs=1e-15)
    assert skinning_loss(a, a) == 0.0
    with pytest.raises(ValueError):
        skinning_loss(a, SkinningMatrix(np.array([[1.0]])))


def test_lbs_identity_is_exact():
    tree = KinematicTree([-1, 0])
    rest = KeypointSet([[0, 0, 0], [0, 0, 1]])
    m = square_mesh()
    w = SkinningMatrix(np.ones((4, 1)))
    out = lbs_apply(m, w, BoneTransformSet.identity(rest, tree))
    assert np.array_equal(out.vertices, m.vertices)
    assert np.array_equal(out.faces, m.faces)


def test_lbs_apply_carries_edges_over_and_revalidates():
    tree = KinematicTree([-1, 0])
    rest = KeypointSet([[0, 0, 0], [0, 0, 1]])
    m = square_mesh()
    w = SkinningMatrix(np.ones((4, 1)))
    tf = BoneTransformSet.identity(rest, tree)
    tf.translations[:] = [[0.5, -1.0, 2.0]]
    out = lbs_apply(m, w, tf)
    assert np.array_equal(out.edges, Mesh(out.vertices.copy(), out.faces.copy()).edges)
    for a in (out.vertices, out.faces, out.edges):
        for b in (m.vertices, m.faces, m.edges):
            assert not np.shares_memory(a, b)
    tf.rotations[:] = 0.0  # every vertex lands on the translation
    with pytest.raises(ValueError, match="zero-length edge"):
        lbs_apply(m, w, tf)
    tf.rotations[:] = np.eye(3)
    tf.translations[0, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        lbs_apply(m, w, tf)


def test_lbs_single_rigid_motion_any_weights():
    # all bones share one rigid map: output must follow it for any weights
    rng = np.random.default_rng(3)
    m = square_mesh()
    R = random_rotation(rng)
    t = rng.normal(size=3)
    k = 3
    tf = BoneTransformSet(
        np.tile(R, (k, 1, 1)), np.tile(R, (k, 1, 1)), np.tile(t, (k, 1)), np.zeros((k + 1, 3))
    )
    raw = rng.uniform(0.05, 1.0, size=(4, k))
    w = SkinningMatrix(raw / raw.sum(axis=1, keepdims=True))
    out = lbs_apply(m, w, tf)
    assert np.max(np.abs(out.vertices - (m.vertices @ R.T + t))) <= 1e-9


def test_lbs_one_hot_picks_single_bone():
    rng = np.random.default_rng(4)
    m = square_mesh()
    k = 2
    rots = np.stack([random_rotation(rng) for _ in range(k)])
    trans = rng.normal(size=(k, 3))
    tf = BoneTransformSet(rots, rots, trans, np.zeros((k + 1, 3)))
    w = np.zeros((4, k))
    w[:2, 0] = 1.0
    w[2:, 1] = 1.0
    out = lbs_apply(m, SkinningMatrix(w), tf)
    for i in range(4):
        b = 0 if i < 2 else 1
        expect = rots[b] @ m.vertices[i] + trans[b]
        assert np.allclose(out.vertices[i], expect, atol=1e-12)


def test_lbs_count_mismatches():
    m = square_mesh()
    tree = KinematicTree([-1, 0])
    rest = KeypointSet([[0, 0, 0], [0, 0, 1]])
    tf = BoneTransformSet.identity(rest, tree)
    with pytest.raises(ValueError):
        lbs_apply(m, SkinningMatrix(np.ones((3, 1))), tf)
    with pytest.raises(ValueError):
        lbs_apply(m, SkinningMatrix(np.full((4, 2), 0.5)), tf)
