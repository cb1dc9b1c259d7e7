"""Keypoint-driven pose transfer with twist optimization and refinement."""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .kinematics import (
    JointRegressor,
    KeypointSet,
    KinematicTree,
    TwistAngles,
    BoneTransformSet,
    forward_kinematics,
    load_keypoints,
    load_tree,
    bundled_tree,
    regress_keypoints,
    scalable_ik,
)
from .mesh import Mesh, edge_lengths, load_mesh, pmd, save_mesh
from .objectives import (
    LossBreakdown,
    LossWeights,
    edge_discrepancy,
    edge_discrepancy_gradient,
    edge_term,
    numerical_gradient,
    total_loss,
)
from .skinning import (
    GmmParams,
    SkinningMatrix,
    bone_centers,
    default_radii,
    gmm_weights,
    lbs_apply,
    lbs_blend,
    save_weights,
)


class DivergenceError(RuntimeError):
    """The optimizer met a non-finite objective where it cannot recover."""


@dataclass
class OptimizerSettings:
    max_iters: int = 300
    step_size: float = 1.0
    tolerance: float = 1e-12
    seed: int = 0


@dataclass
class RefinementSettings:
    enabled: bool = True
    ridge: float = 1.0
    max_iters: int = 100
    step_size: float = 1.0


@dataclass
class GmmSettings:
    temperature: float = 2.0
    radii: np.ndarray | None = None
    optimize_radii: bool = False


def _settings(cls, block: str, data: dict, **extra):
    """Build a settings dataclass from a config block, rejecting unknown keys."""
    bad = set(data) - set(cls.__dataclass_fields__)
    if bad:
        raise ValueError(f"unknown {block} keys: {sorted(bad)}")
    return cls(**data, **extra)


@dataclass
class TransferConfig:
    """Everything a transfer run needs besides the meshes and keypoints."""

    tree: KinematicTree
    loss_weights: LossWeights = field(default_factory=LossWeights)
    gmm: GmmSettings = field(default_factory=GmmSettings)
    optimizer: OptimizerSettings = field(default_factory=OptimizerSettings)
    refinement: RefinementSettings = field(default_factory=RefinementSettings)

    @classmethod
    def from_dict(cls, data: dict, base_dir=None) -> "TransferConfig":
        base = Path(base_dir) if base_dir is not None else Path(".")
        tree_spec = data.get("tree")
        if tree_spec is None:
            raise ValueError("config needs a 'tree' entry (path, dict or bundled name)")
        if isinstance(tree_spec, dict):
            tree = KinematicTree.from_dict(tree_spec)
        else:
            candidate = base / str(tree_spec)
            if candidate.is_file():
                tree = load_tree(candidate)
            else:
                try:
                    tree = bundled_tree(str(tree_spec))
                except ValueError:
                    raise FileNotFoundError(f"no such tree file: {candidate}") from None
        cfg = cls(tree=tree)
        if "loss_weights" in data:
            cfg.loss_weights = LossWeights.from_dict(data["loss_weights"])
        if "gmm" in data:
            g = dict(data["gmm"])
            radii = g.pop("radii", None)
            cfg.gmm = _settings(
                GmmSettings,
                "gmm",
                g,
                radii=None if radii is None else np.asarray(radii, dtype=np.float64),
            )
        if "optimizer" in data:
            cfg.optimizer = _settings(OptimizerSettings, "optimizer", data["optimizer"])
        if "refinement" in data:
            cfg.refinement = _settings(RefinementSettings, "refinement", data["refinement"])
        return cfg

    @classmethod
    def from_file(cls, path) -> "TransferConfig":
        path = Path(path)
        if not path.is_file():
            raise FileNotFoundError(f"no such config file: {path}")
        return cls.from_dict(json.loads(path.read_text()), base_dir=path.parent)

    def to_dict(self) -> dict:
        return {
            "tree": self.tree.to_dict(),
            "loss_weights": self.loss_weights.to_dict(),
            "gmm": {
                "temperature": self.gmm.temperature,
                "radii": None
                if self.gmm.radii is None
                else [float(r) for r in self.gmm.radii],
                "optimize_radii": self.gmm.optimize_radii,
            },
            "optimizer": {
                "max_iters": self.optimizer.max_iters,
                "step_size": self.optimizer.step_size,
                "tolerance": self.optimizer.tolerance,
                "seed": self.optimizer.seed,
            },
            "refinement": {
                "enabled": self.refinement.enabled,
                "ridge": self.refinement.ridge,
                "max_iters": self.refinement.max_iters,
                "step_size": self.refinement.step_size,
            },
        }


@dataclass
class TransferResult:
    coarse: Mesh
    refined: Mesh
    rotations: BoneTransformSet
    twists: TwistAngles
    weights: SkinningMatrix
    losses: list[LossBreakdown]


def _minimize(f, x0, max_iters, step_size, tolerance, grad=None, on_accept=None):
    """Gradient descent with Armijo backtracking.

    Returns the final point, the accepted objective values and the accepted
    iterates (starting point included). The value sequence never increases:
    a step is only taken when it strictly decreases the objective. The
    trial step doubles after an accepted step and halves on rejection, so
    no problem-specific step tuning is needed.

    ``f`` returns ``inf`` (or any non-finite value) to reject a point; a
    line-search trial is then halved, while a finite-difference probe or a
    start point raises DivergenceError. Exceptions raised by ``f`` or
    ``grad`` propagate unchanged.

    ``on_accept()``, when given, is called right after the evaluation of
    ``f`` at each accepted point (the start included), before any other
    evaluation, so a caller can keep what that evaluation computed.
    """

    def probe(p):
        v = float(f(p))
        if not np.isfinite(v):
            raise DivergenceError("non-finite objective at a probe point")
        return v

    x = np.asarray(x0, dtype=np.float64).copy()
    fx = float(f(x))
    if not np.isfinite(fx):
        raise DivergenceError("objective is not finite at the starting point")
    if on_accept is not None:
        on_accept()
    values = [fx]
    points = [x.copy()]
    trial = float(step_size)
    for _ in range(int(max_iters)):
        g = grad(x) if grad is not None else numerical_gradient(probe, x)
        g2 = float(np.dot(g, g))
        if g2 == 0.0:
            break
        t = trial
        accepted = False
        while t > 1e-20:
            xn = x - t * g
            fn = float(f(xn))
            if np.isfinite(fn) and fn <= fx - 1e-4 * t * g2:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        if on_accept is not None:
            on_accept()
        drop = fx - fn
        x, fx = xn, fn
        values.append(fx)
        points.append(x.copy())
        trial = min(t * 2.0, float(step_size) * 1024.0)
        if drop <= tolerance * max(1.0, abs(fx)):
            break
    return x, values, points


def pose_transfer(
    source: Mesh,
    source_kp: KeypointSet,
    target_kp: KeypointSet,
    config: TransferConfig,
    *,
    target_mesh: Mesh | None = None,
    weights: SkinningMatrix | None = None,
    canonical_mesh: Mesh | None = None,
    canonical_kp: KeypointSet | None = None,
) -> TransferResult:
    """Deform a source mesh so its skeleton takes the target keypoint pose.

    Pipeline: pseudo skinning weights from the canonical pose (the source
    itself unless an identity-level canonical pair is supplied), relative
    bone rotations from scalable IK, forward kinematics, linear blend
    skinning, then gradient descent over the per-bone twist angles (and the
    Gaussian radii when ``config.gmm.optimize_radii`` is set) minimizing
    the weighted edge term plus, when ``target_mesh`` is given (a
    same-connectivity mesh of the source identity in the target pose), the
    weighted self-reconstruction error against it. Twist is invisible to
    keypoints, so without a supervising mesh the twists stay where the edge
    term puts them. Refinement runs once on the optimized coarse mesh when
    enabled.

    Returns a TransferResult; ``losses`` is the accepted-step history of
    the optimizer, which is non-increasing in ``total``.
    """
    tree = config.tree
    source_kp.validate_for(tree)
    target_kp.validate_for(tree)
    if target_mesh is not None and not source.same_connectivity(target_mesh):
        raise ValueError("target_mesh must share the source mesh connectivity")
    c_mesh = source if canonical_mesh is None else canonical_mesh
    c_kp = source_kp if canonical_kp is None else canonical_kp
    c_kp.validate_for(tree)
    if c_mesh.n_vertices != source.n_vertices:
        raise ValueError("canonical mesh must share the source vertex count")

    centers = bone_centers(c_kp, tree)
    base_radii = (
        default_radii(c_kp, tree) if config.gmm.radii is None else config.gmm.radii
    )
    if np.shape(base_radii) != (tree.n_bones,):
        raise ValueError("need one radius per bone")
    temperature = config.gmm.temperature
    optimize_radii = bool(config.gmm.optimize_radii)
    if weights is None and not optimize_radii:
        weights = gmm_weights(
            c_mesh.vertices, GmmParams(centers, base_radii, temperature)
        )

    n_bones = tree.n_bones
    lw = config.loss_weights
    edges = source.edges
    rest_lengths = edge_lengths(source)

    def build(params):
        """Weights, bone transforms and twists; None if the radii underflow."""
        phi = TwistAngles.wrap(params[:n_bones])
        if optimize_radii:
            radii = np.exp(params[n_bones:])
            if not (radii > 0).all():
                return None
            w = gmm_weights(c_mesh.vertices, GmmParams(centers, radii, temperature))
        else:
            w = weights
        rel = scalable_ik(source_kp, target_kp, phi, tree)
        tf = forward_kinematics(
            source_kp, rel, tree, root_position=target_kp.joints[0]
        )
        return w, tf, phi

    history = []
    latest = None  # breakdown of the last evaluation past the rejection checks

    def objective(params):
        nonlocal latest
        built = build(params)
        if built is None:
            return np.inf
        w, tf, _ = built
        posed = lbs_blend(source.vertices, w, tf)
        e, lengths = edge_term(posed, edges, rest_lengths)
        if (lengths == 0.0).any():
            return np.inf
        sr = pmd(posed, target_mesh.vertices) if target_mesh is not None else 0.0
        latest = total_loss(lw, self_recon=sr, edge=e)
        return latest.total

    x0 = np.zeros(n_bones, dtype=np.float64)
    if optimize_radii:
        x0 = np.concatenate([x0, np.log(base_radii)])
    x, _, _ = _minimize(
        objective,
        x0,
        config.optimizer.max_iters,
        config.optimizer.step_size,
        config.optimizer.tolerance,
        on_accept=lambda: history.append(latest),
    )
    w, tf, phi = build(x)
    coarse = lbs_apply(source, w, tf)
    refined = refine(coarse, source, config) if config.refinement.enabled else coarse
    return TransferResult(
        coarse=coarse,
        refined=refined,
        rotations=tf,
        twists=phi,
        weights=w,
        losses=history,
    )


def refine(coarse: Mesh, source: Mesh, config: TransferConfig) -> Mesh:
    """Vertex-level cleanup of a skinned mesh.

    Solves for a displacement field dV minimizing
    edge_loss(source, coarse + dV) + ridge * |dV|^2 by gradient descent
    with an analytic gradient. Starting from zero displacement, the edge
    loss of the result can only drop below the coarse mesh's, and a large
    ridge pins the result to the coarse mesh.
    """
    if not source.same_connectivity(coarse):
        raise ValueError("refine requires identical connectivity")
    ridge = config.refinement.ridge
    if not ridge >= 0:
        raise ValueError("ridge must be nonnegative")
    edges = source.edges
    sv = source.vertices
    cv = coarse.vertices
    n = sv.shape[0]

    def f(dv):
        d = cv + dv.reshape(n, 3)
        return edge_discrepancy(sv, d, edges) + ridge * float(np.dot(dv, dv))

    def g(dv):
        d = cv + dv.reshape(n, 3)
        return edge_discrepancy_gradient(sv, d, edges).ravel() + 2.0 * ridge * dv

    x, _, _ = _minimize(
        f,
        np.zeros(3 * n, dtype=np.float64),
        config.refinement.max_iters,
        config.refinement.step_size,
        config.optimizer.tolerance,
        grad=g,
    )
    return coarse.with_vertices(cv + x.reshape(n, 3))


def self_reconstruct(
    source: Mesh,
    source_kp: KeypointSet,
    target: Mesh,
    target_kp: KeypointSet,
    config: TransferConfig,
) -> float:
    """Reconstruction error against a known same-identity target pose.

    Transfers the source onto the target pose with the target mesh itself
    supervising the twists, and returns the PMD between the transfer output
    and the target.
    """
    if not source.same_connectivity(target):
        raise ValueError("self reconstruction needs a same-identity target")
    result = pose_transfer(
        source, source_kp, target_kp, config, target_mesh=target
    )
    return pmd(result.refined, target)


def cycle_reconstruct(
    source: Mesh,
    source_kp: KeypointSet,
    target: Mesh,
    target_kp: KeypointSet,
    third: Mesh,
    third_kp: KeypointSet,
    config: TransferConfig,
    *,
    intermediate_regressor: JointRegressor | None = None,
) -> float:
    """Two-hop reconstruction error through an intermediate identity.

    The source (identity A) is posed to the target keypoints, then the
    third mesh (identity B, same identity as the target but a different
    pose) is posed onto the intermediate result, and the second output is
    compared to the target (identity B in the target pose). Twists of both
    hops are optimized jointly under the weighted cycle and edge terms.

    Intermediate keypoints are the first hop's posed joints; passing a
    regressor re-reads them from the intermediate surface instead.
    """
    tree = config.tree
    source_kp.validate_for(tree)
    target_kp.validate_for(tree)
    third_kp.validate_for(tree)
    if not third.same_connectivity(target):
        raise ValueError("third mesh must share the target identity connectivity")
    lw = config.loss_weights
    n_bones = tree.n_bones

    w1 = gmm_weights(
        source.vertices,
        GmmParams(
            bone_centers(source_kp, tree),
            default_radii(source_kp, tree) if config.gmm.radii is None else config.gmm.radii,
            config.gmm.temperature,
        ),
    )
    w2 = gmm_weights(
        third.vertices,
        GmmParams(
            bone_centers(third_kp, tree),
            default_radii(third_kp, tree) if config.gmm.radii is None else config.gmm.radii,
            config.gmm.temperature,
        ),
    )

    def build(params):
        tw1 = TwistAngles.wrap(params[:n_bones])
        tw2 = TwistAngles.wrap(params[n_bones:])
        rel1 = scalable_ik(source_kp, target_kp, tw1, tree)
        tf1 = forward_kinematics(
            source_kp, rel1, tree, root_position=target_kp.joints[0]
        )
        inter = lbs_blend(source.vertices, w1, tf1)
        if intermediate_regressor is not None:
            inter_kp = regress_keypoints(inter, intermediate_regressor)
        else:
            inter_kp = KeypointSet(tf1.posed_joints)
        rel2 = scalable_ik(third_kp, inter_kp, tw2, tree)
        tf2 = forward_kinematics(
            third_kp, rel2, tree, root_position=inter_kp.joints[0]
        )
        out = lbs_blend(third.vertices, w2, tf2)
        return inter, out

    source_edges, source_rest = source.edges, edge_lengths(source)
    third_edges, third_rest = third.edges, edge_lengths(third)

    def objective(params):
        inter, out = build(params)
        e1, l1 = edge_term(inter, source_edges, source_rest)
        e2, l2 = edge_term(out, third_edges, third_rest)
        if (l1 == 0.0).any() or (l2 == 0.0).any():
            return np.inf
        return total_loss(lw, cycle=pmd(out, target.vertices), edge=e1 + e2).total

    x, _, _ = _minimize(
        objective,
        np.zeros(2 * n_bones, dtype=np.float64),
        config.optimizer.max_iters,
        config.optimizer.step_size,
        config.optimizer.tolerance,
    )
    _, out = build(x)
    out = third.with_vertices(out)
    if config.refinement.enabled:
        out = refine(out, third, config)
    return pmd(out, target)


@dataclass
class Puppet:
    """A generated test figure: rest and posed states sharing connectivity."""

    rest_mesh: Mesh
    rest_keypoints: KeypointSet
    posed_mesh: Mesh
    posed_keypoints: KeypointSet
    tree: KinematicTree
    weights: SkinningMatrix
    rotations: np.ndarray


def _rot_x(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def make_puppet(
    segments: int,
    bend: float,
    twist: float,
    seed: int,
    *,
    radius: float = 0.25,
    sides: int = 16,
    rings_per_segment: int = 8,
    blend_temperature: float = 2.0,
    jitter: float = 0.03,
) -> Puppet:
    """Capped cylinder with known skinning, posed by exact blend skinning.

    The cylinder runs along +z, one unit-length bone per segment, joints at
    integer heights. Skinning is one-hot inside each segment with a
    logistic blend across every interior joint whose sharpness matches the
    Gaussian soft assignment at ``blend_temperature`` for half-length
    radii, so the two-segment puppet's weights agree with ``gmm_weights``
    to float precision. The posed state applies ``bend`` radians about x at
    every interior joint and ``twist`` radians about the bone axis on the
    distal segment (on the only segment when there is just one). ``seed``
    jitters the ring radii so the surface has no exact rotational symmetry.

    The generator carries its own four-line kinematics and per-bone LBS so
    its output is independent of the package's transform stack.
    """
    if segments < 1:
        raise ValueError("need at least one segment")
    rng = np.random.default_rng(seed)
    n_rings = segments * rings_per_segment + 1
    zs = np.linspace(0.0, float(segments), n_rings)

    verts = []
    for z in zs:
        for a in range(sides):
            th = 2.0 * np.pi * a / sides
            rho = radius * (1.0 + jitter * rng.uniform(-1.0, 1.0))
            verts.append([rho * np.cos(th), rho * np.sin(th), z])
    bottom = len(verts)
    verts.append([0.0, 0.0, 0.0])
    top = len(verts)
    verts.append([0.0, 0.0, float(segments)])
    v = np.array(verts, dtype=np.float64)

    def ring(r, a):
        return r * sides + (a % sides)

    faces = []
    for r in range(n_rings - 1):
        for a in range(sides):
            faces.append([ring(r, a), ring(r + 1, a), ring(r + 1, a + 1)])
            faces.append([ring(r, a), ring(r + 1, a + 1), ring(r, a + 1)])
    for a in range(sides):
        faces.append([bottom, ring(0, a + 1), ring(0, a)])
        faces.append([top, ring(n_rings - 1, a), ring(n_rings - 1, a + 1)])
    faces = np.array(faces, dtype=np.int64)

    n = v.shape[0]
    k = segments
    w = np.zeros((n, k))
    z = v[:, 2]
    if k == 1:
        w[:, 0] = 1.0
    else:
        sharp = 8.0 * blend_temperature
        m = np.clip(np.round(z), 1, k - 1).astype(int)
        distal = 1.0 / (1.0 + np.exp(-sharp * (z - m)))
        w[np.arange(n), m] = distal
        w[np.arange(n), m - 1] = 1.0 - distal

    rel = np.tile(np.eye(3), (k, 1, 1))
    if k == 1:
        rel[0] = _rot_z(twist)
    else:
        for b in range(2, k + 1):
            rel[b - 1] = _rot_x(bend) @ _rot_z(twist if b == k else 0.0)

    joints = np.zeros((k + 1, 3))
    joints[:, 2] = np.arange(k + 1, dtype=np.float64)
    glob = np.empty((k, 3, 3))
    posed_joints = np.empty((k + 1, 3))
    posed_joints[0] = joints[0]
    acc = np.eye(3)
    for b in range(1, k + 1):
        acc = acc @ rel[b - 1]
        glob[b - 1] = acc
        posed_joints[b] = posed_joints[b - 1] + acc @ (joints[b] - joints[b - 1])

    posed_v = np.zeros_like(v)
    for b in range(1, k + 1):
        mapped = (v - joints[b - 1]) @ glob[b - 1].T + posed_joints[b - 1]
        posed_v += w[:, b - 1 : b] * mapped

    tree = KinematicTree(
        np.concatenate([[-1], np.arange(k)]),
        [f"joint_{i}" for i in range(k + 1)],
    )
    return Puppet(
        rest_mesh=Mesh(v, faces),
        rest_keypoints=KeypointSet(joints),
        posed_mesh=Mesh(posed_v, faces.copy()),
        posed_keypoints=KeypointSet(posed_joints),
        tree=tree,
        weights=SkinningMatrix(w),
        rotations=rel,
    )


def save_result(result: TransferResult, out_dir, extra: dict | None = None) -> dict:
    """Persist a TransferResult; returns the summary that was written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_mesh(result.coarse, out / "coarse.obj")
    save_mesh(result.refined, out / "refined.obj")
    (out / "twists.json").write_text(
        json.dumps({"phi": [float(p) for p in result.twists.phi]}, sort_keys=True)
        + "\n"
    )
    (out / "losses.jsonl").write_text(
        "".join(json.dumps(b.to_dict(), sort_keys=True) + "\n" for b in result.losses)
    )
    save_weights(result.weights, out / "weights.csv")
    summary = {
        "iterations": len(result.losses) - 1,
        "final": result.losses[-1].to_dict() if result.losses else None,
        "twists": [float(p) for p in result.twists.phi],
    }
    if extra:
        summary.update(extra)
    (out / "summary.json").write_text(json.dumps(summary, sort_keys=True) + "\n")
    return summary


def load_manifest(path) -> dict:
    """Read a transfer run manifest.

    Layout::

        {
          "identities": {
            "ident": {
              "canonical": "rest",
              "poses": {"rest": {"mesh": "rest.obj", "keypoints": "rest.json"}}
            }
          },
          "pairs": [
            {"name": "a_to_b", "source": ["a", "rest"], "target": ["b", "bent"]}
          ]
        }

    Paths are resolved relative to the manifest file and must exist.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such manifest: {path}")
    data = json.loads(path.read_text())
    base = path.parent
    identities = data.get("identities")
    pairs = data.get("pairs")
    if not isinstance(identities, dict) or not isinstance(pairs, list):
        raise ValueError(f"{path}: manifest needs 'identities' and 'pairs'")
    resolved: dict = {"identities": {}, "pairs": []}
    for name, ident in identities.items():
        poses = ident.get("poses", {})
        if not poses:
            raise ValueError(f"{path}: identity {name!r} lists no poses")
        canonical = ident.get("canonical", next(iter(poses)))
        if canonical not in poses:
            raise ValueError(
                f"{path}: identity {name!r} canonical pose {canonical!r} missing"
            )
        entry = {"canonical": canonical, "poses": {}}
        for pose_name, files in poses.items():
            mesh_path = base / files["mesh"]
            kp_path = base / files["keypoints"]
            for p in (mesh_path, kp_path):
                if not p.is_file():
                    raise FileNotFoundError(f"{path}: referenced file missing: {p}")
            entry["poses"][pose_name] = {"mesh": mesh_path, "keypoints": kp_path}
        resolved["identities"][name] = entry
    for pair in pairs:
        src = pair["source"]
        tgt = pair["target"]
        for ident, pose in (src, tgt):
            if ident not in resolved["identities"]:
                raise ValueError(f"{path}: unknown identity {ident!r}")
            if pose not in resolved["identities"][ident]["poses"]:
                raise ValueError(f"{path}: unknown pose {pose!r} of {ident!r}")
        resolved["pairs"].append(
            {
                "name": pair.get("name", f"{src[0]}_{src[1]}__to__{tgt[0]}_{tgt[1]}"),
                "source": tuple(src),
                "target": tuple(tgt),
            }
        )
    return resolved


def run_manifest(manifest_path, config: TransferConfig, out_dir, jobs: int = 1) -> list:
    """Run every pair of a manifest, one output directory per pair.

    Pseudo skinning weights are computed once per source identity from its
    canonical pose and reused for every pair drawing on that identity, so
    repeated poses of one identity skin with bit-identical weights. Pairs
    are independent; ``jobs`` > 1 fans them out over a thread pool without
    changing any output.
    """
    manifest = load_manifest(manifest_path)
    tree = config.tree
    mesh_cache: dict = {}
    kp_cache: dict = {}

    def fetch(ident, pose):
        key = (ident, pose)
        if key not in mesh_cache:
            files = manifest["identities"][ident]["poses"][pose]
            mesh_cache[key] = load_mesh(files["mesh"])
            kp_cache[key] = load_keypoints(files["keypoints"])
        return mesh_cache[key], kp_cache[key]

    weight_bank: dict = {}

    def identity_weights(ident):
        if ident not in weight_bank:
            canonical = manifest["identities"][ident]["canonical"]
            c_mesh, c_kp = fetch(ident, canonical)
            c_kp.validate_for(tree)
            radii = (
                default_radii(c_kp, tree)
                if config.gmm.radii is None
                else config.gmm.radii
            )
            weight_bank[ident] = gmm_weights(
                c_mesh.vertices,
                GmmParams(bone_centers(c_kp, tree), radii, config.gmm.temperature),
            )
        return weight_bank[ident]

    # Hydrate caches serially; the parallel section then only computes.
    for pair in manifest["pairs"]:
        fetch(*pair["source"])
        fetch(*pair["target"])
        if not config.gmm.optimize_radii:
            identity_weights(pair["source"][0])

    def run_pair(pair):
        s_mesh, s_kp = fetch(*pair["source"])
        _, t_kp = fetch(*pair["target"])
        ident = pair["source"][0]
        canonical = manifest["identities"][ident]["canonical"]
        c_mesh, c_kp = fetch(ident, canonical)
        weights = None if config.gmm.optimize_radii else identity_weights(ident)
        result = pose_transfer(
            s_mesh,
            s_kp,
            t_kp,
            config,
            weights=weights,
            canonical_mesh=c_mesh,
            canonical_kp=c_kp,
        )
        summary = save_result(result, Path(out_dir) / pair["name"])
        return pair["name"], summary

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_pair, manifest["pairs"]))
    else:
        results = [run_pair(p) for p in manifest["pairs"]]
    return results
