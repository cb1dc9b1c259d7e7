"""Kinematic trees, keypoints, and the swing/twist rotation machinery.

Bone k connects joint ``parents[k]`` to joint k, for k = 1..J-1, so a tree
with J joints has K = J-1 bones and bone arrays are indexed by k-1.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

EPS_LENGTH = 1e-9
EPS_PARALLEL = 1e-8
_EPS_ROUNDING = 1e-12  # a swing angle this small is rounding of parallel directions
_EYE = np.eye(3)
_TREES = Path(__file__).with_name("trees")  # the bundled trees, one JSON file each


@dataclass
class KinematicTree:
    """Joint hierarchy given as a parent index per joint.

    ``parents[0] == -1`` (the single root) and ``parents[j] < j`` for every
    other joint, so any prefix order is a valid traversal order.
    """

    parents: np.ndarray
    names: list[str] | None = None

    def __post_init__(self):
        self.parents = np.asarray(self.parents, dtype=np.int64)
        if self.names is None:
            self.names = [f"joint_{i}" for i in range(self.parents.shape[0])]
        self.names = list(self.names)
        self.validate()

    def validate(self):
        p = self.parents
        if p.ndim != 1 or p.shape[0] < 2:
            raise ValueError("tree needs at least two joints")
        if p[0] != -1:
            raise ValueError("joint 0 must be the root (parent -1)")
        rest = p[1:]
        if (rest < 0).any():
            raise ValueError("tree has more than one root")
        if (rest >= np.arange(1, p.shape[0])).any():
            raise ValueError("parents must precede children (parents[j] < j)")
        if len(self.names) != p.shape[0]:
            raise ValueError("one name per joint required")

    @property
    def n_joints(self) -> int:
        return int(self.parents.shape[0])

    @property
    def n_bones(self) -> int:
        return self.n_joints - 1

    def children(self, joint: int) -> list[int]:
        return [int(j) for j in np.nonzero(self.parents == joint)[0]]

    def to_dict(self) -> dict:
        return {"parents": [int(p) for p in self.parents], "names": self.names}

    @classmethod
    def from_dict(cls, data: dict) -> "KinematicTree":
        """A tree from its JSON object: ``parents``, a list of integers, and
        ``names``, a list of strings. Any other layout is a ValueError."""
        if not (isinstance(data, dict) and "parents" in data and "names" in data):
            raise ValueError("tree must be a JSON object with 'parents' and 'names'")
        parents, names = data["parents"], data["names"]
        if not (isinstance(parents, list) and all(map(_is_int, parents))):
            raise ValueError("tree 'parents' must be a list of integers")
        if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
            raise ValueError("tree 'names' must be a list of strings")
        return cls(parents, names)


# Input rules: every input file, JSON number and config block is read here.


def _is_number(x) -> bool:
    """An int or float, not a bool, that float64 holds: NaN, infinities and
    larger integers fail, without being converted."""
    number = isinstance(x, (int, float)) and not isinstance(x, bool)
    return number and abs(x) <= sys.float_info.max


def _is_int(x) -> bool:
    """An int, not a bool, that int64 holds."""
    return isinstance(x, int) and not isinstance(x, bool) and -(2**63) <= x < 2**63


# (test, wanted) of a config value, by the type of its field's default
_RULES = {
    bool: (lambda x: isinstance(x, bool), "true or false"),
    int: (_is_int, "an integer"),
    float: (_is_number, "a finite number"),
    type(None): (lambda x: x is None or isinstance(x, list), "a list of numbers or null"),
}
_WEIGHT = (lambda x: _is_number(x) and x >= 0, "a finite nonnegative number")


def _settings(cls, block: str, data):
    """A config block's dataclass from its JSON object; any other block is a
    ValueError.

    Each value must pass the rule of its field's default type, a list's
    elements (``gmm.radii``) must be positive numbers, and a number is stored
    as float in a float field. A class with ``aliases`` for its field names
    (``LossWeights``) holds weights: every value must be a number of at
    least 0. ``max_iters``, ``tolerance`` and ``ridge`` must be at least 0,
    ``step_size`` above 0.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{block} must be a JSON object, not {data!r}")
    defaults = {f.name: f.default for f in fields(cls)}
    aliases = getattr(cls, "aliases", {})
    bad = set(data) - set(defaults) - set(aliases)
    if bad:
        raise ValueError(f"unknown {block} keys: {sorted(bad)}")
    kwargs = {}
    for key, value in data.items():
        name = aliases.get(key, key)
        if name in kwargs:
            raise ValueError(f"{block}.{name} given twice")
        test, wanted = _WEIGHT if aliases else _RULES[type(defaults[name])]
        if not test(value):
            raise ValueError(f"{block}.{key} must be {wanted}, not {value!r}")
        if isinstance(value, list):
            if not all(_is_number(r) and r > 0 for r in value):
                raise ValueError(f"{block}.{key} must be finite and positive, not {value!r}")
            value = [float(r) for r in value]
        kwargs[name] = float(value) if isinstance(defaults[name], float) else value
    for key in ("max_iters", "tolerance", "ridge"):
        if kwargs.get(key, 0) < 0:
            raise ValueError(f"{block}.{key} must be nonnegative")
    if not kwargs.get("step_size", 1.0) > 0:
        raise ValueError(f"{block}.step_size must be positive")
    return cls(**kwargs)


def _from_file(path, kind: str, parse):
    """``parse`` of the text of a ``kind`` file: every input file is read here.

    A missing file is a FileNotFoundError; an undecodable byte, or a
    ValueError or RecursionError of ``parse``, is a ValueError that names the
    file once (a message that starts with ``<path>:`` is kept as it is).
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such {kind} file: {path}")
    try:
        return parse(path.read_text())
    except (ValueError, RecursionError) as exc:
        message = str(exc)
        if not message.startswith(f"{path}:"):
            message = f"{path}: {message}"
        raise ValueError(message) from None


def load_tree(path) -> KinematicTree:
    return _from_file(path, "tree", lambda text: KinematicTree.from_dict(json.loads(text)))


def save_tree(tree: KinematicTree, path) -> None:
    Path(path).write_text(json.dumps(tree.to_dict(), sort_keys=True) + "\n")


def bundled_tree(name: str) -> KinematicTree:
    """Load one of the trees shipped with the package ('smpl_24', 'smal_33')."""
    path = _TREES / f"{name}.json"
    if not path.is_file():
        raise ValueError(f"no bundled tree named {name!r}")
    return load_tree(path)


@dataclass
class KeypointSet:
    """Joint positions, one 3D point per joint of some tree: a (J, 3) array,
    or a (B, J, 3) stack of B such sets (``scalable_ik`` targets)."""

    joints: np.ndarray

    def __post_init__(self):
        self.joints = np.asarray(self.joints, dtype=np.float64)
        if self.joints.ndim not in (2, 3) or self.joints.shape[-1] != 3:
            raise ValueError("joints must be a (J, 3) array or a (B, J, 3) stack")
        if not np.isfinite(self.joints).all():
            raise ValueError("joint coordinates must be finite")

    @property
    def n_joints(self) -> int:
        return int(self.joints.shape[-2])

    def validate_for(self, tree: KinematicTree):
        if self.n_joints != tree.n_joints:
            raise ValueError(
                f"keypoint count {self.n_joints} does not match tree "
                f"({tree.n_joints} joints)"
            )
        vecs = self.bone_vectors(tree)
        if (np.linalg.norm(vecs, axis=-1) < EPS_LENGTH).any():
            raise ValueError("degenerate bone (zero-length bone vector)")

    def bone_vectors(self, tree: KinematicTree) -> np.ndarray:
        """(K, 3) array, bone k-1 runs from joint parents[k] to joint k."""
        return self.joints[..., 1:, :] - self.joints[..., tree.parents[1:], :]

    def to_dict(self) -> dict:
        return {"joints": [[float(c) for c in row] for row in self.joints]}

    @classmethod
    def from_dict(cls, data: dict) -> "KeypointSet":
        """Keypoints from their JSON object, whose ``joints`` is a list of
        ``[x, y, z]`` number triples. Any other layout is a ValueError."""
        joints = data.get("joints") if isinstance(data, dict) else None
        if not isinstance(joints, list) or not all(
            isinstance(row, list) and len(row) == 3 and all(map(_is_number, row))
            for row in joints
        ):
            raise ValueError(
                "keypoints must be a JSON object whose 'joints' is a list of "
                "[x, y, z] number triples"
            )
        return cls(joints)


def load_keypoints(path) -> KeypointSet:
    return _from_file(path, "keypoint", lambda text: KeypointSet.from_dict(json.loads(text)))


def save_keypoints(kp: KeypointSet, path) -> None:
    Path(path).write_text(json.dumps(kp.to_dict(), sort_keys=True) + "\n")


@dataclass
class JointRegressor:
    """Row-stochastic (J, N) matrix mapping mesh vertices to joints."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        m = self.matrix
        if m.ndim != 2:
            raise ValueError("regressor must be a (J, N) matrix")
        if not (np.isfinite(m).all() and (m >= 0).all()):
            raise ValueError("regressor entries must be finite and nonnegative")
        sums = m.sum(axis=1)
        if (sums == 0).any():
            raise ValueError("regressor has a zero row")
        if np.abs(sums - 1.0).max() > 1e-6:
            raise ValueError("regressor rows must sum to 1")

    @property
    def n_joints(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def n_vertices(self) -> int:
        return int(self.matrix.shape[1])


def load_regressor(path, shape: tuple[int, int] | None = None) -> JointRegressor:
    """Read a joint regressor from CSV.

    Two layouts are accepted: a dense J x N numeric grid, or a sparse
    triplet file whose first line is the header ``row,col,weight``, with
    nonnegative integer ``row`` and ``col``. When ``shape`` is given, a
    dense grid of another shape or a sparse index outside it is a parse
    failure; otherwise a sparse matrix is sized by its largest indices.
    """
    return _from_file(path, "regressor", lambda text: _parse_regressor(text, shape))


def _parse_regressor(text: str, shape) -> JointRegressor:
    try:
        rows = [r for r in csv.reader(text.split("\n")) if r and any(c.strip() for c in r)]
        if not rows:
            raise ValueError("empty regressor file")
        header = [c.strip().lower() for c in rows[0]]
        if header == ["row", "col", "weight"]:
            triplets = [(int(r[0]), int(r[1]), float(r[2])) for r in rows[1:]]
            if not triplets:
                raise ValueError("no triplets")
            if min(min(t[:2]) for t in triplets) < 0:
                raise ValueError("row and col must be nonnegative")
            if shape is None:
                shape = (
                    max(t[0] for t in triplets) + 1,
                    max(t[1] for t in triplets) + 1,
                )
            m = np.zeros(shape, dtype=np.float64)
            for r, c, w in triplets:
                m[r, c] += w
        else:
            m = np.array([[float(c) for c in r] for r in rows], dtype=np.float64)
    except (ValueError, IndexError, csv.Error, MemoryError) as exc:
        raise ValueError(f"regressor parse failure: {exc}") from exc
    regressor = JointRegressor(m)
    if shape is not None and m.shape != tuple(shape):  # a dense grid of another shape
        raise ValueError(f"regressor parse failure: dense matrix is {m.shape}, not {shape}")
    return regressor


@dataclass
class TwistAngles:
    """One twist angle per bone, wrapped to (-pi, pi]: a (K,) array, or a
    (B, K) stack of twist rows."""

    phi: np.ndarray

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=np.float64)
        if self.phi.ndim not in (1, 2):
            raise ValueError("phi must be a flat array of bone angles or a stack of them")
        if not np.isfinite(self.phi).all():
            raise ValueError("twist angles must be finite")
        if (self.phi <= -np.pi).any() or (self.phi > np.pi).any():
            raise ValueError("twist angles must lie in (-pi, pi]")

    @classmethod
    def zeros(cls, n_bones: int) -> "TwistAngles":
        return cls(np.zeros(n_bones, dtype=np.float64))

    @classmethod
    def wrap(cls, values) -> "TwistAngles":
        v = np.asarray(values, dtype=np.float64)
        w = np.arctan2(np.sin(v), np.cos(v))
        w[w <= -np.pi] = np.pi
        return cls(w)


@dataclass
class BoneTransformSet:
    """Per-bone relative rotations plus the global affine maps of a pose.

    ``rotations[k-1] @ x + translations[k-1]`` carries rest-pose points
    rigidly attached to bone k into the posed configuration; it maps the
    rest position of the bone's parent joint to its posed position, and the
    rest position of joint k to ``posed_joints[k]``. A stack of B sets has
    a leading B axis on every array, and ``tf[b]`` is set b.
    """

    relative: np.ndarray
    rotations: np.ndarray
    translations: np.ndarray
    posed_joints: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            setattr(self, f.name, np.asarray(getattr(self, f.name), dtype=np.float64))

    @property
    def n_bones(self) -> int:
        return int(self.rotations.shape[-3])

    def __getitem__(self, index) -> "BoneTransformSet":
        return BoneTransformSet(*(getattr(self, f.name)[index] for f in fields(self)))

    def validate(self, tol: float = 1e-9):
        for name in ("relative", "rotations"):
            mats = getattr(self, name)
            err = np.abs(np.einsum("...ij,...il->...jl", mats, mats) - _EYE).max()
            if err > tol:
                raise ValueError(f"{name} rotations are not orthonormal ({err:.3e})")

    def apply(self, k: int, points: np.ndarray) -> np.ndarray:
        """Apply bone k's affine map (k is 1-based over joints)."""
        return points @ self.rotations[k - 1].T + self.translations[k - 1]

    @classmethod
    def identity(cls, rest: KeypointSet, tree: KinematicTree) -> "BoneTransformSet":
        eye = np.tile(_EYE, (tree.n_bones, 1, 1))
        return cls(eye, eye.copy(), np.zeros((tree.n_bones, 3)), rest.joints.copy())


def regress_keypoints(mesh, regressor: JointRegressor) -> KeypointSet:
    """Joints as convex combinations of mesh vertices.

    ``mesh`` may be a Mesh, a bare (N, 3) vertex array, or a (B, N, 3)
    stack of them, which gives a stack of keypoint sets.
    """
    verts = getattr(mesh, "vertices", None)
    if verts is None:
        verts = np.asarray(mesh, dtype=np.float64)
    if regressor.n_vertices != verts.shape[-2]:
        raise ValueError(
            f"regressor expects {regressor.n_vertices} vertices, "
            f"mesh has {verts.shape[-2]}"
        )
    return KeypointSet(regressor.matrix @ verts)


def keypoint_loss(pred: KeypointSet, gt: KeypointSet) -> float:
    """Sum over joints of Euclidean distance between prediction and truth."""
    if pred.n_joints != gt.n_joints:
        raise ValueError("keypoint sets differ in joint count")
    return float(np.linalg.norm(pred.joints - gt.joints, axis=1).sum())


# skew(v) picks v[_SKEW_INDEX] and signs it by _SKEW_SIGN; a x b picks
# a[_NEXT] * b[_LAST] - a[_LAST] * b[_NEXT]
_SKEW_INDEX = np.array([[0, 2, 1], [2, 0, 0], [1, 0, 0]])
_SKEW_SIGN = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
_NEXT, _LAST = np.array([1, 2, 0]), np.array([2, 0, 1])


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix of a 3-vector; (..., 3, 3) of a (..., 3) stack."""
    return np.asarray(v, dtype=np.float64)[..., _SKEW_INDEX] * _SKEW_SIGN


# Per-row products of (..., 3) stacks: a matmul rounds as np.dot of one row
# does, and np.cross costs more per call than its arithmetic.
def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a[..., _NEXT] * b[..., _LAST] - a[..., _LAST] * b[..., _NEXT]


def _unit(v, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    norm = np.sqrt(_dot(v, v))[..., None]
    if (norm < EPS_LENGTH).any():
        raise ValueError(f"{what}: degenerate input vector")
    return v / norm


def _rodrigues(axis: np.ndarray, sin, cos) -> np.ndarray:
    """Rotations about unit axes by the angles of ``sin`` and ``cos``:
    I + sin a + (1 - cos) a @ a with a = skew(axis), for stacks too."""
    a = skew(axis)
    sin, cos = (np.asarray(c)[..., None, None] for c in (sin, cos))
    return _EYE + sin * a + (1.0 - cos) * (a @ a)


def swing_rotation(s, t) -> np.ndarray:
    """Minimal rotation carrying direction s onto direction t.

    Parameters
    ----------
    s, t : array_like, shape (3,) or stacks (..., 3) that broadcast
        Bone vectors; only their directions matter. Norms below 1e-9 are
        rejected.

    Returns
    -------
    (3, 3) rotation matrix R with R @ (s/|s|) == t/|t|; one per row of
    stacked inputs, (..., 3, 3).

    Rodrigues form about the normalized cross product n = (s x t)/|s x t|.
    When |s x t|/(|s||t|) < 1e-8 that axis cannot carry a half turn: s is
    first turned by 0 (parallel side) or pi (antiparallel side) about a
    deterministic axis perpendicular to s, then swung by the remaining
    angle, below 1e-8 rad, onto t; a remainder below 1e-12 rad is
    rounding and is dropped.
    """
    return _swing(_unit(s, "swing_rotation"), _unit(t, "swing_rotation"))


def _swing(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``swing_rotation`` of unit directions u and w."""
    c = _cross(u, w)
    sin_a = np.sqrt(_dot(c, c))
    cos_a = _dot(u, w)
    fold = sin_a < EPS_PARALLEL
    if not fold.any():
        return _rodrigues(c / sin_a[..., None], sin_a, cos_a)
    # a fold first turns by 0 (parallel) or pi (antiparallel) about u crossed
    # with the basis vector it is least aligned with, first index wins ties;
    # the rest, under 1e-8 rad, swings that image of u onto w: the short cross
    # product's axis is rough, but so small an angle makes its error harmless
    perpendicular = _unit(_cross(u, _EYE[np.argmin(np.abs(u), axis=-1)]), "swing_rotation")
    flip = fold & (cos_a < 0.0)
    keep = sin_a >= _EPS_ROUNDING
    axis = np.where(flip[..., None], -c, c) / np.where(keep, sin_a, 1.0)[..., None]
    rest_cos = np.where(keep, np.where(flip, -cos_a, cos_a), 1.0)
    rest = _rodrigues(axis, np.where(keep, sin_a, 0.0), rest_cos)
    return rest @ _rodrigues(perpendicular, 0.0, np.where(flip, -1.0, 1.0))


def twist_rotation(s, phi) -> np.ndarray:
    """Rotation by angle phi about the bone direction s.

    Parameters
    ----------
    s : array_like, shape (3,) or a stack (..., 3)
        Rotation axis; normalized internally, norm below 1e-9 rejected.
    phi : float, or an array that broadcasts with the rows of ``s``
        Signed angle in radians.

    Returns
    -------
    (3, 3) rotation matrix fixing s: R @ s == s; one per row of stacked
    inputs, (..., 3, 3).
    """
    return _rodrigues(_unit(s, "twist_rotation"), np.sin(phi), np.cos(phi))


def compose_relative(swing: np.ndarray, twist: np.ndarray) -> np.ndarray:
    """Relative bone rotation: twist about the bone axis, then swing."""
    return swing @ twist


def _orthonormal_frame(b1: np.ndarray, b2: np.ndarray):
    """Frames (..., 3, 3) of stacked bone pairs, and whether each is usable."""
    u1 = b1 / np.sqrt(_dot(b1, b1))[..., None]
    w = b2 - _dot(b2, u1)[..., None] * u1
    nw = np.sqrt(_dot(w, w))
    ok = ~(nw < EPS_PARALLEL * np.sqrt(_dot(b2, b2)))
    u2 = w / np.where(ok, nw, 1.0)[..., None]
    return np.stack([u1, u2, _cross(u1, u2)], axis=-1), ok


def root_orientation(
    source: KeypointSet, target: KeypointSet, tree: KinematicTree
) -> np.ndarray:
    """Rotation aligning the source root frame to the target root frame;
    (B, 3, 3), one per target, for a stack of targets.

    The frame is built by orthonormalizing the root's first two child-bone
    directions. With fewer than two children, or with near-collinear child
    bones on either side, it degrades to the minimal swing of the first
    child bone.
    """
    kids = [k - 1 for k in tree.children(0)[:2]]  # bone k - 1 runs from the root to k
    s, t = source.bone_vectors(tree)[kids], target.bone_vectors(tree)[..., kids, :]
    if len(kids) < 2:
        return swing_rotation(s[0], t[..., 0, :])
    fs, ok_s = _orthonormal_frame(s[0], s[1])
    ft, ok_t = _orthonormal_frame(t[..., 0, :], t[..., 1, :])
    ok, aligned = (ok_s & ok_t)[..., None, None], ft @ fs.T
    return aligned if ok.all() else np.where(ok, aligned, swing_rotation(s[0], t[..., 0, :]))


def scalable_ik(
    source: KeypointSet,
    target: KeypointSet,
    twists: TwistAngles,
    tree: KinematicTree,
) -> np.ndarray:
    """Per-bone relative rotations posing the source skeleton onto the target.

    Bones are visited parents-first. For each bone the swing is computed
    between the source bone direction as already rotated by its ancestors
    and the target bone direction, so only target directions matter and the
    result is invariant to uniform scaling of the target about its root.
    The per-bone twist rotates about the bone's current axis and leaves all
    joint positions untouched.

    Returns a (K, 3, 3) array in the convention of ``forward_kinematics``:
    the root orientation is folded into the rotations of bones hanging off
    the root, so FK starting from identity reproduces the pose. Stacked
    twists, (B, K), or a stack of targets, (B, J, 3) joints, give a
    (B, K, 3, 3) stack whose row b is the call on twist row b and target b;
    a single twist row or target serves every row.
    """
    source.validate_for(tree)
    target.validate_for(tree)
    n = tree.n_joints
    phi = twists.phi
    if phi.shape[-1] != tree.n_bones:
        raise ValueError("twist count does not match bone count")
    world = np.empty(np.broadcast_shapes(phi.shape[:-1], target.joints.shape[:-2]) + (n, 3, 3))
    world[..., 0, :, :] = root_orientation(source, target, tree)
    # each direction is normalized once, and the swing and twist share it
    bones, aims = source.bone_vectors(tree), _unit(target.bone_vectors(tree), "scalable_ik")
    for j in range(1, n):
        p = int(tree.parents[j])
        cur = _unit(world[..., p, :, :] @ bones[j - 1], "scalable_ik")
        twist = _rodrigues(cur, np.sin(phi[..., j - 1]), np.cos(phi[..., j - 1]))
        update = compose_relative(_swing(cur, aims[..., j - 1, :]), twist)
        world[..., j, :, :] = update @ world[..., p, :, :]
    # the root's own orientation stays folded into the bones off the root
    base = world[..., tree.parents[1:], :, :]
    base[..., tree.parents[1:] == 0, :, :] = _EYE
    return base.swapaxes(-1, -2) @ world[..., 1:, :, :]


def forward_kinematics(
    rest: KeypointSet,
    rotations: np.ndarray,
    tree: KinematicTree,
    root_position: np.ndarray | None = None,
) -> BoneTransformSet:
    """Pose the rest skeleton with per-bone relative rotations.

    Global rotation of bone k is the parent bone's global rotation times
    ``rotations[k-1]`` (identity above the root), and each posed joint is
    its posed parent plus the rotated rest offset. Bone lengths are
    preserved by construction. The posed root sits at ``root_position``
    when given, else at the rest root. A (B, K, 3, 3) stack of rotations,
    with one root position or one per row, (B, 3), gives a stack of B
    transform sets.
    """
    rest.validate_for(tree)
    rotations = np.asarray(rotations, dtype=np.float64)
    n = tree.n_joints
    if rotations.shape[-3:] != (n - 1, 3, 3):
        raise ValueError("need one 3x3 rotation per bone")
    batch = rotations.shape[:-3]
    glob = np.empty(batch + (n, 3, 3))
    glob[..., 0, :, :] = _EYE
    posed = np.empty(batch + (n, 3))
    posed[..., 0, :] = rest.joints[0] if root_position is None else root_position
    trans = np.empty(batch + (n - 1, 3))
    bones = rest.bone_vectors(tree)
    for j in range(1, n):
        p = int(tree.parents[j])
        glob[..., j, :, :] = glob[..., p, :, :] @ rotations[..., j - 1, :, :]
        posed[..., j, :] = posed[..., p, :] + glob[..., j, :, :] @ bones[j - 1]
        trans[..., j - 1, :] = posed[..., p, :] - glob[..., j, :, :] @ rest.joints[p]
    return BoneTransformSet(rotations.copy(), glob[..., 1:, :, :].copy(), trans, posed)
