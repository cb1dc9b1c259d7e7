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


# JSON input rules: every JSON file, number and config block is read here.


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


def _from_json_file(path, kind: str, from_dict=lambda data: data):
    """``from_dict`` of the JSON value of a ``kind`` file.

    A missing file is a FileNotFoundError; a decode error, or a ValueError
    of ``from_dict``, is a ValueError that names the file.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such {kind} file: {path}")
    try:
        return from_dict(json.loads(path.read_text()))
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_tree(path) -> KinematicTree:
    return _from_json_file(path, "tree", KinematicTree.from_dict)


def save_tree(tree: KinematicTree, path) -> None:
    Path(path).write_text(json.dumps(tree.to_dict(), sort_keys=True) + "\n")


def bundled_tree(name: str) -> KinematicTree:
    """Load one of the trees shipped with the package ('smpl_24', 'smal_33')."""
    path = Path(__file__).with_name("trees") / f"{name}.json"
    if not path.is_file():
        raise ValueError(f"no bundled tree named {name!r}")
    return load_tree(path)


@dataclass
class KeypointSet:
    """Joint positions, one 3D point per joint of some tree."""

    joints: np.ndarray

    def __post_init__(self):
        self.joints = np.asarray(self.joints, dtype=np.float64)
        if self.joints.ndim != 2 or self.joints.shape[1] != 3:
            raise ValueError("joints must be a (J, 3) array")
        if not np.isfinite(self.joints).all():
            raise ValueError("joint coordinates must be finite")

    @property
    def n_joints(self) -> int:
        return int(self.joints.shape[0])

    def validate_for(self, tree: KinematicTree):
        if self.n_joints != tree.n_joints:
            raise ValueError(
                f"keypoint count {self.n_joints} does not match tree "
                f"({tree.n_joints} joints)"
            )
        vecs = self.bone_vectors(tree)
        if (np.linalg.norm(vecs, axis=1) < EPS_LENGTH).any():
            raise ValueError("degenerate bone (zero-length bone vector)")

    def bone_vectors(self, tree: KinematicTree) -> np.ndarray:
        """(K, 3) array, bone k-1 runs from joint parents[k] to joint k."""
        return self.joints[1:] - self.joints[tree.parents[1:]]

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
    return _from_json_file(path, "keypoint", KeypointSet.from_dict)


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
        if (m < 0).any():
            raise ValueError("regressor entries must be nonnegative")
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
    nonnegative integer ``row`` and ``col``. For the sparse layout the
    matrix shape is taken from ``shape`` when given, otherwise from the
    largest indices present.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such regressor file: {path}")
    with path.open(newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and any(c.strip() for c in r)]
    if not rows:
        raise ValueError(f"{path}: empty regressor file")
    header = [c.strip().lower() for c in rows[0]]
    try:
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
    except (ValueError, IndexError) as exc:
        raise ValueError(f"{path}: regressor parse failure: {exc}") from None
    return JointRegressor(m)


@dataclass
class TwistAngles:
    """One twist angle per bone, wrapped to (-pi, pi]."""

    phi: np.ndarray

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=np.float64)
        if self.phi.ndim != 1:
            raise ValueError("phi must be a flat array of bone angles")
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
    rest position of joint k to ``posed_joints[k]``.
    """

    relative: np.ndarray
    rotations: np.ndarray
    translations: np.ndarray
    posed_joints: np.ndarray

    def __post_init__(self):
        self.relative = np.asarray(self.relative, dtype=np.float64)
        self.rotations = np.asarray(self.rotations, dtype=np.float64)
        self.translations = np.asarray(self.translations, dtype=np.float64)
        self.posed_joints = np.asarray(self.posed_joints, dtype=np.float64)

    @property
    def n_bones(self) -> int:
        return int(self.rotations.shape[0])

    def validate(self, tol: float = 1e-9):
        for name in ("relative", "rotations"):
            mats = getattr(self, name)
            err = np.abs(
                np.einsum("kij,kil->kjl", mats, mats) - np.eye(3)
            ).max()
            if err > tol:
                raise ValueError(f"{name} rotations are not orthonormal ({err:.3e})")

    def apply(self, k: int, points: np.ndarray) -> np.ndarray:
        """Apply bone k's affine map (k is 1-based over joints)."""
        return points @ self.rotations[k - 1].T + self.translations[k - 1]

    @classmethod
    def identity(cls, rest: KeypointSet, tree: KinematicTree) -> "BoneTransformSet":
        k = tree.n_bones
        return cls(
            np.tile(np.eye(3), (k, 1, 1)),
            np.tile(np.eye(3), (k, 1, 1)),
            np.zeros((k, 3)),
            rest.joints.copy(),
        )


def regress_keypoints(mesh, regressor: JointRegressor) -> KeypointSet:
    """Joints as convex combinations of mesh vertices.

    ``mesh`` may be a Mesh or a bare (N, 3) vertex array.
    """
    verts = getattr(mesh, "vertices", None)
    if verts is None:
        verts = np.asarray(mesh, dtype=np.float64)
    if regressor.n_vertices != verts.shape[0]:
        raise ValueError(
            f"regressor expects {regressor.n_vertices} vertices, "
            f"mesh has {verts.shape[0]}"
        )
    return KeypointSet(regressor.matrix @ verts)


def keypoint_loss(pred: KeypointSet, gt: KeypointSet) -> float:
    """Sum over joints of Euclidean distance between prediction and truth."""
    if pred.n_joints != gt.n_joints:
        raise ValueError("keypoint sets differ in joint count")
    return float(np.linalg.norm(pred.joints - gt.joints, axis=1).sum())


def skew(v: np.ndarray) -> np.ndarray:
    """Cross-product matrix of a 3-vector."""
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def _fallback_axis(u: np.ndarray) -> np.ndarray:
    # Perpendicular axis for the antiparallel case: cross u with the basis
    # vector it is least aligned with, first index wins ties.
    idx = int(np.argmin(np.abs(u)))
    e = np.zeros(3)
    e[idx] = 1.0
    axis = np.cross(u, e)
    return axis / np.linalg.norm(axis)


def swing_rotation(s, t) -> np.ndarray:
    """Minimal rotation carrying direction s onto direction t.

    Parameters
    ----------
    s, t : array_like, shape (3,)
        Bone vectors; only their directions matter. Norms below 1e-9 are
        rejected.

    Returns
    -------
    (3, 3) rotation matrix R with R @ (s/|s|) == t/|t|.

    Rodrigues form about the normalized cross product n = (s x t)/|s x t|.
    When |s x t|/(|s||t|) < 1e-8 the axis is unusable: the identity is
    returned for the parallel side, and for the antiparallel side a half
    turn about a deterministic axis perpendicular to s.
    """
    s = np.asarray(s, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    ns = np.linalg.norm(s)
    nt = np.linalg.norm(t)
    if ns < EPS_LENGTH or nt < EPS_LENGTH:
        raise ValueError("swing_rotation: degenerate input vector")
    u = s / ns
    w = t / nt
    c = np.cross(u, w)
    sin_a = np.linalg.norm(c)
    cos_a = float(np.dot(u, w))
    if sin_a < EPS_PARALLEL:
        if cos_a > 0.0:
            return np.eye(3)
        a = skew(_fallback_axis(u))
        return np.eye(3) + 2.0 * (a @ a)
    n = c / sin_a
    a = skew(n)
    return np.eye(3) + sin_a * a + (1.0 - cos_a) * (a @ a)


def twist_rotation(s, phi: float) -> np.ndarray:
    """Rotation by angle phi about the bone direction s.

    Parameters
    ----------
    s : array_like, shape (3,)
        Rotation axis; normalized internally, norm below 1e-9 rejected.
    phi : float
        Signed angle in radians.

    Returns
    -------
    (3, 3) rotation matrix fixing s: R @ s == s.
    """
    s = np.asarray(s, dtype=np.float64)
    ns = np.linalg.norm(s)
    if ns < EPS_LENGTH:
        raise ValueError("twist_rotation: degenerate axis")
    a = skew(s / ns)
    return np.eye(3) + np.sin(phi) * a + (1.0 - np.cos(phi)) * (a @ a)


def compose_relative(swing: np.ndarray, twist: np.ndarray) -> np.ndarray:
    """Relative bone rotation: twist about the bone axis, then swing."""
    return swing @ twist


def _orthonormal_frame(b1: np.ndarray, b2: np.ndarray) -> np.ndarray | None:
    u1 = b1 / np.linalg.norm(b1)
    w = b2 - np.dot(b2, u1) * u1
    nw = np.linalg.norm(w)
    if nw < EPS_PARALLEL * np.linalg.norm(b2):
        return None
    u2 = w / nw
    return np.column_stack([u1, u2, np.cross(u1, u2)])


def root_orientation(
    source: KeypointSet, target: KeypointSet, tree: KinematicTree
) -> np.ndarray:
    """Rotation aligning the source root frame to the target root frame.

    The frame is built by orthonormalizing the root's first two child-bone
    directions. With fewer than two children, or with near-collinear child
    bones on either side, it degrades to the minimal swing of the first
    child bone.
    """
    kids = tree.children(0)
    if len(kids) >= 2:
        fs = _orthonormal_frame(
            source.joints[kids[0]] - source.joints[0],
            source.joints[kids[1]] - source.joints[0],
        )
        ft = _orthonormal_frame(
            target.joints[kids[0]] - target.joints[0],
            target.joints[kids[1]] - target.joints[0],
        )
        if fs is not None and ft is not None:
            return ft @ fs.T
    j = kids[0]
    return swing_rotation(
        source.joints[j] - source.joints[0], target.joints[j] - target.joints[0]
    )


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
    the root, so FK starting from identity reproduces the pose.
    """
    source.validate_for(tree)
    target.validate_for(tree)
    n = tree.n_joints
    phi = twists.phi
    if phi.shape[0] != tree.n_bones:
        raise ValueError("twist count does not match bone count")
    world = np.empty((n, 3, 3))
    world[0] = root_orientation(source, target, tree)
    eye = np.eye(3)
    relative = np.empty((n - 1, 3, 3))
    for j in range(1, n):
        p = int(tree.parents[j])
        s = source.joints[j] - source.joints[p]
        t = target.joints[j] - target.joints[p]
        cur = world[p] @ s
        update = compose_relative(swing_rotation(cur, t), twist_rotation(cur, phi[j - 1]))
        world[j] = update @ world[p]
        base = eye if p == 0 else world[p]
        relative[j - 1] = base.T @ world[j]
    return relative


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
    when given, else at the rest root.
    """
    rest.validate_for(tree)
    rotations = np.asarray(rotations, dtype=np.float64)
    n = tree.n_joints
    if rotations.shape != (n - 1, 3, 3):
        raise ValueError("need one 3x3 rotation per bone")
    glob = np.empty((n, 3, 3))
    glob[0] = np.eye(3)
    posed = np.empty((n, 3))
    posed[0] = rest.joints[0] if root_position is None else root_position
    trans = np.empty((n - 1, 3))
    for j in range(1, n):
        p = int(tree.parents[j])
        glob[j] = glob[p] @ rotations[j - 1]
        posed[j] = posed[p] + glob[j] @ (rest.joints[j] - rest.joints[p])
        trans[j - 1] = posed[p] - glob[j] @ rest.joints[p]
    return BoneTransformSet(
        relative=rotations.copy(),
        rotations=glob[1:].copy(),
        translations=trans,
        posed_joints=posed,
    )
