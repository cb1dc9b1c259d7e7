"""Triangle mesh container, Wavefront OBJ io and vertex-set metrics."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .kinematics import _from_file


@dataclass
class Mesh:
    """Triangle mesh with float64 vertices and integer face indices.

    Faces may be empty (a bare point cloud). The undirected edge set is
    derived from the faces once, deduplicated and kept in lexicographic
    order so that edge-indexed quantities are reproducible. ``edges`` is
    given only by ``with_vertices``, which carries over a mesh's own.
    """

    vertices: np.ndarray
    faces: np.ndarray
    edges: np.ndarray | None = field(default=None, repr=False, kw_only=True)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64)
        self.faces = np.asarray(self.faces, dtype=np.int64)
        if self.faces.size == 0:
            self.faces = self.faces.reshape(0, 3)
        if self.edges is None:
            self.edges = _face_edges(self.faces)
        self.validate()

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    def validate(self):
        """Raise ValueError if the mesh violates its structural contract."""
        v, f = self.vertices, self.faces
        if v.ndim != 2 or v.shape[1] != 3 or v.shape[0] == 0:
            raise ValueError("vertices must be a nonempty (N, 3) array")
        if not np.isfinite(v).all():
            raise ValueError("vertex coordinates must be finite")
        if f.ndim != 2 or f.shape[1] != 3:
            raise ValueError("faces must be an (F, 3) array")
        if f.size:
            if f.min() < 0 or f.max() >= v.shape[0]:
                raise ValueError("face index out of range")
            degen = (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 0] == f[:, 2])
            if degen.any():
                raise ValueError("face repeats a vertex")
        if self.edges.size:
            lengths = np.linalg.norm(
                v[self.edges[:, 0]] - v[self.edges[:, 1]], axis=1
            )
            if (lengths == 0.0).any():
                raise ValueError("zero-length edge")

    def copy(self) -> "Mesh":
        return self.with_vertices(self.vertices.copy())

    def with_vertices(self, vertices: np.ndarray) -> "Mesh":
        """Same connectivity, new vertex positions. Faces and edges carry over
        as copies, not derived again; the new vertices are re-validated."""
        return Mesh(vertices, self.faces.copy(), edges=self.edges.copy())

    def same_connectivity(self, other: "Mesh") -> bool:
        return (
            self.n_vertices == other.n_vertices
            and self.faces.shape == other.faces.shape
            and bool(np.array_equal(self.faces, other.faces))
        )


def _face_edges(faces: np.ndarray) -> np.ndarray:
    n = int(faces.max(initial=-1)) + 1
    ring = np.roll(faces, -1, axis=1)
    keys = np.unique(np.minimum(faces, ring) * n + np.maximum(faces, ring))
    return np.stack(np.divmod(keys, n), axis=1)


def load_mesh(path) -> Mesh:
    """Read a triangle mesh from a Wavefront OBJ file.

    Args:
        path: OBJ file. Only ``v`` and ``f`` records are interpreted; any
            other record type is ignored. Face indices are 1-based and may
            carry ``/``-separated texture/normal refs, which are dropped.

    Returns:
        Mesh with vertices in file order.

    Raises:
        FileNotFoundError: missing file.
        ValueError: undecodable byte, malformed record, non-triangular
            face, an index outside ``[1, N]`` (0 and negative indices are
            rejected), or a mesh that breaks the ``Mesh`` contract; the
            message names the file.
    """
    path = Path(path)
    return _from_file(path, "mesh", lambda text: Mesh(*_parse_obj(text, path)))


def _parse_obj(text: str, path: Path) -> tuple[np.ndarray, np.ndarray]:
    # All coordinates and all face indices are converted at once. Only a
    # failure reads the lines again, to report the first bad one: a malformed
    # ``v`` record or a face that is not a triangle, in line order; then a bad
    # index, in face order. Returning arrays, not a Mesh, frees the tokens first.
    lines = [raw.split() for raw in text.splitlines()]
    kinds = [t[0] for t in lines if t]
    n = kinds.count("v")
    try:
        coords = [c for t in lines if t and t[0] == "v" for c in t[1:4]]
        refs = [r for t in lines if t and t[0] == "f" and len(t) == 4 for r in t[1:]]
        xyz = np.fromiter(map(float, coords), np.float64, len(coords))
        heads = (r.split("/")[0] for r in refs)
        idx = np.fromiter(map(int, heads), np.int64, len(refs)).reshape(-1, 3)
        ok = xyz.size == 3 * n and len(idx) == kinds.count("f")
        ok = ok and ((idx >= 1) & (idx <= n)).all()
    except (ValueError, OverflowError):  # OverflowError: an index past int64
        ok = False
    if not ok:
        for lineno, tokens in enumerate(lines, start=1):
            try:
                if tokens[:1] == ["v"]:
                    x, y, z = map(float, tokens[1:4])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed vertex record") from None
            if tokens[:1] == ["f"] and len(tokens) != 4:
                raise ValueError(f"{path}:{lineno}: face is not a triangle")
        for lineno, tokens in enumerate(lines, start=1):
            for ref in tokens[1:] if tokens[:1] == ["f"] else ():
                try:
                    i = int(ref.split("/")[0])
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: malformed face record") from None
                if i < 1 or i > n:
                    raise ValueError(f"{path}:{lineno}: face index {i} out of range")
    if not n:
        raise ValueError("no vertices")
    return xyz.reshape(-1, 3), idx - 1


def save_mesh(mesh: Mesh, path) -> None:
    """Write a mesh as OBJ. Vertices round-trip exactly (repr precision)."""
    mesh.validate()
    v, f = mesh.vertices, mesh.faces + 1
    text = "v %r %r %r\n" * len(v) % tuple(v.ravel().tolist())
    Path(path).write_text(text + "f %d %d %d\n" * len(f) % tuple(f.ravel().tolist()))


def _as_points(x) -> np.ndarray:
    if isinstance(x, Mesh):
        return x.vertices
    pts = np.asarray(x, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected (n, 3) points, got shape {pts.shape}")
    return pts


def pmd(a, b) -> float:
    """Mean per-vertex squared distance between two corresponded vertex sets.

    Accepts meshes or bare (n, 3) arrays.
    """
    pa, pb = _as_points(a), _as_points(b)
    if pa.shape[0] != pb.shape[0]:
        raise ValueError(
            f"pmd needs equal vertex counts, got {pa.shape[0]} and {pb.shape[0]}"
        )
    d = pa - pb
    return float(np.mean(np.einsum("ij,ij->i", d, d)))


def chamfer(a, b) -> float:
    """Symmetric chamfer distance, squared nearest-neighbour averages.

    Half the mean squared distance from each vertex of ``a`` to its nearest
    vertex of ``b``, plus the same with the roles swapped. Correspondence
    free, so vertex counts may differ. Accepts meshes or bare (n, 3) arrays.
    """
    from scipy.spatial import cKDTree  # here, so only chamfer pays for loading scipy

    pa, pb = _as_points(a), _as_points(b)
    if pa.shape[0] == 0 or pb.shape[0] == 0:
        raise ValueError("chamfer needs nonempty vertex sets")
    da, _ = cKDTree(pb).query(pa)
    db, _ = cKDTree(pa).query(pb)
    return float(0.5 * np.mean(da**2) + 0.5 * np.mean(db**2))


def edge_lengths(mesh: Mesh) -> np.ndarray:
    """Lengths of the undirected edges, in the mesh's canonical edge order."""
    if mesh.edges.size == 0:
        return np.zeros(0, dtype=np.float64)
    return np.linalg.norm(
        mesh.vertices[mesh.edges[:, 0]] - mesh.vertices[mesh.edges[:, 1]], axis=1
    )


@dataclass
class MetricReport:
    """Flat evaluation summary. Fields are None when undefined for the pair."""

    pmd: float | None = None
    chamfer: float | None = None
    edge_loss: float | None = None

    def to_dict(self) -> dict:
        return {"pmd": self.pmd, "chamfer": self.chamfer, "edge_loss": self.edge_loss}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)
