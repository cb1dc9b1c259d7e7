"""Gaussian-mixture pseudo skinning weights and linear blend skinning."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .kinematics import BoneTransformSet, KeypointSet, KinematicTree, _from_file, _read_csv
from .mesh import Mesh


@dataclass
class GmmParams:
    """Isotropic Gaussian per bone: a center, a radius, one shared temperature."""

    centers: np.ndarray
    radii: np.ndarray
    temperature: float = 2.0

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.float64)
        self.radii = np.asarray(self.radii, dtype=np.float64)
        if self.centers.ndim != 2 or self.centers.shape[1] != 3:
            raise ValueError("centers must be a (K, 3) array")
        if self.radii.shape != (self.centers.shape[0],):
            raise ValueError("one radius per center required")
        if not (np.isfinite(self.radii).all() and (self.radii > 0).all()):
            raise ValueError("radii must be finite and positive")
        if not (np.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError("temperature must be finite and positive")

    @property
    def n_bones(self) -> int:
        return int(self.centers.shape[0])


@dataclass
class SkinningMatrix:
    """(N, K) vertex-to-bone weights, nonnegative rows summing to 1."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        w = self.weights
        if w.ndim != 2:
            raise ValueError("weights must be an (N, K) matrix")
        if not np.isfinite(w).all():
            raise ValueError("weights must be finite")
        if (w < 0).any():
            raise ValueError("weights must be nonnegative")
        err = np.abs(w.sum(axis=1) - 1.0).max() if w.size else 0.0
        if err > 1e-9:
            raise ValueError(f"weight rows must sum to 1 (off by {err:.3e})")

    @property
    def n_vertices(self) -> int:
        return int(self.weights.shape[0])

    @property
    def n_bones(self) -> int:
        return int(self.weights.shape[1])


def save_weights(weights: SkinningMatrix, path) -> None:
    """Dense CSV, one row per vertex. Full float precision."""
    Path(path).write_text(_weights_csv(weights))


def _weights_csv(weights: SkinningMatrix) -> str:
    w = weights.weights  # a matrix with no rows is still written as one "\n"
    return (",".join(["%r"] * w.shape[1]) + "\n") * len(w) % tuple(w.ravel().tolist()) or "\n"


def load_weights(path) -> SkinningMatrix:
    """Read a dense CSV grid, one row per vertex, as a regressor grid is read."""
    return _from_file(path, "weight", lambda text: SkinningMatrix(_read_csv(text, "weight")))


def bone_centers(keypoints: KeypointSet, tree: KinematicTree) -> np.ndarray:
    """Bone midpoints, (K, 3)."""
    keypoints.validate_for(tree)
    j = keypoints.joints
    return 0.5 * (j[1:] + j[tree.parents[1:]])


def default_radii(keypoints: KeypointSet, tree: KinematicTree) -> np.ndarray:
    """Half of each bone's length."""
    return 0.5 * np.linalg.norm(keypoints.bone_vectors(tree), axis=1)


def gmm_weights(vertices: np.ndarray, params: GmmParams) -> SkinningMatrix:
    """Soft assignment of vertices to bones.

    The logit of vertex i for bone k is -T * |v_i - C_k|^2 / r_k^2 and each
    row is passed through a softmax, so every weight is strictly positive
    and rows sum to one. Large temperatures approach a hard nearest-center
    assignment.
    """
    v = np.asarray(vertices, dtype=np.float64)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ValueError("vertices must be an (N, 3) array")
    d = v[:, None, :] - params.centers[None, :, :]
    d2 = np.einsum("nkj,nkj->nk", d, d)
    logits = -params.temperature * d2 / params.radii**2
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    w = e / e.sum(axis=1, keepdims=True)
    return SkinningMatrix(w)


def pseudo_weights(
    vertices: np.ndarray,
    keypoints: KeypointSet,
    tree: KinematicTree,
    temperature: float,
    radii: np.ndarray | None = None,
) -> SkinningMatrix:
    """Pseudo skinning weights of a canonical-pose mesh from its keypoints.

    ``gmm_weights`` over the bone midpoints of ``keypoints``; ``radii``
    defaults to half of each bone's length.
    """
    centers = bone_centers(keypoints, tree)
    if radii is None:
        radii = default_radii(keypoints, tree)
    return gmm_weights(vertices, GmmParams(centers, radii, temperature))


def skinning_loss(predicted: SkinningMatrix, pseudo: SkinningMatrix) -> float:
    """Mean squared per-entry discrepancy between two weight matrices."""
    if predicted.weights.shape != pseudo.weights.shape:
        raise ValueError("weight matrices differ in shape")
    d = predicted.weights - pseudo.weights
    return float(np.mean(d * d))


def lbs_blend(
    vertices: np.ndarray, weights: SkinningMatrix, transforms: BoneTransformSet
) -> np.ndarray:
    """Blend per-bone affine maps over an (N, 3) vertex array.

    Each vertex gets the weight-blended affine G_i = sum_k w_ik A_k applied
    to it. Returns the posed (N, 3) array.
    """
    if weights.n_vertices != vertices.shape[0]:
        raise ValueError(
            f"weights cover {weights.n_vertices} vertices, "
            f"mesh has {vertices.shape[0]}"
        )
    if weights.n_bones != transforms.n_bones:
        raise ValueError(
            f"weights cover {weights.n_bones} bones, "
            f"transforms have {transforms.n_bones}"
        )
    w = weights.weights
    rot = np.einsum("nk,kij->nij", w, transforms.rotations)
    t = w @ transforms.translations
    return np.einsum("nij,nj->ni", rot, vertices) + t


def lbs_apply(
    source: Mesh, weights: SkinningMatrix, transforms: BoneTransformSet
) -> Mesh:
    """Deform a mesh by ``lbs_blend``. Faces and edges carry over from
    ``source`` as copies (``with_vertices``); the posed vertices are re-validated."""
    return source.with_vertices(lbs_blend(source.vertices, weights, transforms))
