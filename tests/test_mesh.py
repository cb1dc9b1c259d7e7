import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posekit import Mesh, MetricReport, chamfer, edge_lengths, load_mesh, pmd, save_mesh
from posekit.mesh import _face_edges


def brute_chamfer(a, b):
    """Quadratic-time reference: 0.5 * (mean min dist^2 both ways)."""
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
    return 0.5 * (d2.min(axis=1).mean() + d2.min(axis=0).mean())


def tet():
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
    f = np.array([[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
    return Mesh(v, f)


def test_mesh_basic_shapes():
    m = tet()
    assert m.vertices.shape == (4, 3)
    assert m.vertices.dtype == np.float64
    assert m.faces.shape == (4, 3)
    assert m.faces.dtype == np.int64


def test_edges_unique_sorted():
    m = tet()
    # tetrahedron has 6 undirected edges, each listed once, low index first
    assert m.edges.shape == (6, 2)
    assert np.all(m.edges[:, 0] < m.edges[:, 1])
    seen = {tuple(e) for e in m.edges}
    assert seen == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}


def test_edges_shared_face_edge_counted_once():
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    f = np.array([[0, 1, 2], [1, 3, 2]])  # shares edge (1, 2)
    m = Mesh(v, f)
    assert m.edges.shape[0] == 5


def test_validate_rejects_nan():
    m = tet()
    m.vertices[2, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        m.validate()


def test_validate_rejects_bad_index():
    v = np.zeros((3, 3))
    v[1, 0] = 1.0
    v[2, 1] = 1.0
    with pytest.raises(ValueError):
        Mesh(v, np.array([[0, 1, 3]])).validate()
    with pytest.raises(ValueError):
        Mesh(v, np.array([[0, 1, -1]])).validate()


def test_validate_rejects_repeated_vertex_in_face():
    v = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    with pytest.raises(ValueError, match="repeat"):
        Mesh(v, np.array([[0, 1, 1]])).validate()


def test_validate_rejects_zero_length_edge():
    v = np.array([[0, 0, 0], [0, 0, 0], [0, 1, 0]], dtype=float)
    with pytest.raises(ValueError):
        Mesh(v, np.array([[0, 1, 2]])).validate()


def test_with_vertices_keeps_faces_shares_nothing():
    m = tet()
    m2 = m.with_vertices(m.vertices + 1.0)
    assert np.array_equal(m.faces, m2.faces)
    m2.vertices[0, 0] = 99.0
    assert m.vertices[0, 0] == 0.0


def shares_memory(a: Mesh, b: Mesh) -> bool:
    return any(
        np.shares_memory(x, y)
        for x in (a.vertices, a.faces, a.edges)
        for y in (b.vertices, b.faces, b.edges)
    )


@st.composite
def face_arrays(draw):
    """Up to 30 random triangles over up to a million vertices, plus one
    triangle that uses the highest vertex index."""
    n = draw(st.integers(3, 10**6))
    triangle = st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
    faces = draw(st.lists(triangle, max_size=30))
    top = draw(st.lists(st.integers(0, n - 2), min_size=2, max_size=2, unique=True))
    faces.append(draw(st.permutations([n - 1, *top])))
    return np.array(faces, dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(face_arrays())
@example(np.array([[0, 1, 2]]))  # one face
@example(np.array([[0, 1, 2], [2, 1, 3], [3, 1, 0]]))  # every edge shared
@example(np.array([[5, 0, 9], [9, 8, 5]]))  # highest index in both faces
def test_face_edges_equal_unique_rows_of_sorted_pairs(faces):
    pairs = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [0, 2]]])
    expected = np.unique(np.sort(pairs, axis=1), axis=0)
    got = _face_edges(faces)
    assert got.dtype == np.int64 and got.shape == expected.shape
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("derive", ["with_vertices", "copy"])
def test_carried_edges_equal_a_fresh_build_and_share_nothing(derive):
    m = tet()
    m2 = m.with_vertices(m.vertices * 2.0 + 1.0) if derive == "with_vertices" else m.copy()
    assert np.array_equal(m2.edges, Mesh(m2.vertices.copy(), m2.faces.copy()).edges)
    assert np.array_equal(m2.faces, m.faces)
    assert not shares_memory(m, m2)


def test_with_vertices_and_copy_revalidate():
    m = tet()
    bad = m.vertices.copy()
    bad[3, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        m.with_vertices(bad)
    with pytest.raises(ValueError, match="out of range"):
        m.with_vertices(m.vertices[:3])  # faces use vertex 3
    bad = m.vertices.copy()
    bad[1] = bad[0]
    with pytest.raises(ValueError, match="zero-length edge"):
        m.with_vertices(bad)
    m.vertices[0, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        m.copy()


def test_same_connectivity():
    m = tet()
    assert m.same_connectivity(m.copy())
    other = Mesh(m.vertices.copy(), m.faces[:3].copy())
    assert not m.same_connectivity(other)


# -- OBJ i/o --


def test_obj_round_trip(tmp_path):
    m = tet()
    m.vertices[:] = np.random.default_rng(3).normal(size=(4, 3))
    p = tmp_path / "t.obj"
    save_mesh(m, p)
    back = load_mesh(p)
    assert np.array_equal(back.vertices, m.vertices)  # repr round-trips float64
    assert np.array_equal(back.faces, m.faces)


def test_obj_golden_bytes(tmp_path):
    # awkward floats keep their shortest repr: signed zero, the smallest
    # subnormal, exponent notation from 1e16 on
    v = np.array([[-0.0, 5e-324, 1e16], [0.1, 1.0, 123456789.123], [1.0, -0.0, 0.1]])
    save_mesh(Mesh(v, np.array([[0, 1, 2]])), tmp_path / "g.obj")
    assert (tmp_path / "g.obj").read_bytes() == (
        b"v -0.0 5e-324 1e+16\nv 0.1 1.0 123456789.123\nv 1.0 -0.0 0.1\nf 1 2 3\n"
    )
    back = load_mesh(tmp_path / "g.obj")
    assert back.vertices.tobytes() == v.tobytes()  # -0.0 included


def test_obj_ignores_comments_and_slash_refs(tmp_path):
    p = tmp_path / "t.obj"
    p.write_text(
        "# header\n"
        "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
        "vn 0 0 1\n"
        "f 1/1/1 2/2/1 3/3/1\n"
    )
    m = load_mesh(p)
    assert m.vertices.shape == (3, 3)
    assert np.array_equal(m.faces, [[0, 1, 2]])


def test_obj_rejects_quad(tmp_path):
    p = tmp_path / "q.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(ValueError, match=r":5:"):
        load_mesh(p)


def test_obj_rejects_out_of_range_and_zero_index(tmp_path):
    p = tmp_path / "bad.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4\n")
    with pytest.raises(ValueError, match=r":4:"):
        load_mesh(p)
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n")
    with pytest.raises(ValueError):
        load_mesh(p)


def test_obj_rejects_malformed_vertex(tmp_path):
    p = tmp_path / "bad.obj"
    p.write_text("v 0 0\nf 1 1 1\n")
    with pytest.raises(ValueError, match=r":1:"):
        load_mesh(p)


def test_obj_missing_file():
    with pytest.raises(OSError):
        load_mesh("/nonexistent/nope.obj")


# -- metrics --


def test_pmd_hand_value():
    # offsets (1,0,0) and (0,2,0): mean of squared norms = (1 + 4) / 2 = 2.5
    a = np.array([[0.0, 0, 0], [1, 1, 1]])
    b = np.array([[1.0, 0, 0], [1, 3, 1]])
    assert pmd(a, b) == pytest.approx(2.5, abs=1e-15)


def test_pmd_zero_on_identical():
    v = np.random.default_rng(0).normal(size=(50, 3))
    assert pmd(v, v.copy()) == 0.0


def test_pmd_accepts_meshes():
    m = tet()
    m2 = m.with_vertices(m.vertices + [0.0, 0.0, 3.0])
    assert pmd(m, m2) == pytest.approx(9.0)


def test_pmd_count_mismatch():
    with pytest.raises(ValueError):
        pmd(np.zeros((3, 3)), np.zeros((4, 3)))


def test_chamfer_hand_value():
    # each a-point is 1 away from its nearest b and vice versa: 0.5*(1+1) = 1.0
    a = np.array([[0.0, 0, 0], [10.0, 0, 0]])
    b = np.array([[1.0, 0, 0], [11.0, 0, 0]])
    assert chamfer(a, b) == pytest.approx(1.0, abs=1e-15)


def test_chamfer_matches_brute_force():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = rng.normal(size=(rng.integers(2, 40), 3))
        b = rng.normal(size=(rng.integers(2, 40), 3))
        assert chamfer(a, b) == pytest.approx(brute_chamfer(a, b), rel=1e-12)


def test_chamfer_asymmetric_counts():
    a = np.zeros((1, 3))
    b = np.array([[0.0, 0, 0], [0, 0, 2.0]])
    # a->b min is 0; b->a mins are 0 and 4
    assert chamfer(a, b) == pytest.approx(0.5 * (0.0 + 2.0))


def test_edge_lengths():
    m = tet()
    ls = edge_lengths(m)
    assert ls.shape == (6,)
    by_edge = dict(zip(map(tuple, m.edges), ls))
    assert by_edge[(0, 1)] == pytest.approx(1.0)
    assert by_edge[(1, 2)] == pytest.approx(np.sqrt(2.0))


def test_metric_report_json():
    r = MetricReport(pmd=2.5, chamfer=1.0, edge_loss=None)
    d = json.loads(r.to_json())
    assert d["pmd"] == 2.5
    assert d["chamfer"] == 1.0
    assert d["edge_loss"] is None
    assert r.to_dict() == d
