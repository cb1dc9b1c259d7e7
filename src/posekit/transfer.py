"""Keypoint-driven pose transfer with twist optimization and refinement."""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
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
    total_loss,
)
from .skinning import (
    SkinningMatrix,
    default_radii,
    lbs_apply,
    lbs_blend,
    pseudo_weights,
    save_weights,
)


class DivergenceError(RuntimeError):
    """The optimizer met a non-finite objective where it cannot recover."""


@dataclass
class OptimizerSettings:
    max_iters: int = 300
    step_size: float = 1.0
    tolerance: float = 1e-12


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

    def __post_init__(self):
        if self.radii is not None:
            self.radii = np.asarray(self.radii, dtype=np.float64)


_JSON_TYPES = {
    "bool": ((bool,), "true or false"),
    "int": ((int,), "an integer"),
    "float": ((int, float), "a finite number"),
    "np.ndarray | None": ((list, type(None)), "a list of numbers or null"),
}


def _settings(cls, block: str, data: dict):
    """Build a settings dataclass from a config block.

    Rejects unknown keys, a value of another JSON type than its field's
    (``"false"`` for a bool, ``1.5`` for an int, a non-finite float), a
    negative ``max_iters`` and a ``step_size`` that is not positive.
    """
    fields = cls.__dataclass_fields__
    bad = set(data) - set(fields)
    if bad:
        raise ValueError(f"unknown {block} keys: {sorted(bad)}")
    for key, value in data.items():
        types, wanted = _JSON_TYPES[fields[key].type]
        got = type(value)
        if got not in types or (got is float and not np.isfinite(value)):
            raise ValueError(f"{block}.{key} must be {wanted}, not {value!r}")
    if data.get("max_iters", 0) < 0:
        raise ValueError(f"{block}.max_iters must be nonnegative")
    if not data.get("step_size", 1.0) > 0:
        raise ValueError(f"{block}.step_size must be positive")
    return cls(**data)


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
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, not a {type(data).__name__}")
        for block in ("loss_weights", "gmm", "optimizer", "refinement"):
            if not isinstance(data.get(block, {}), dict):
                raise ValueError(f"{block} must be a JSON object, not {data[block]!r}")
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
        for block, kind in (
            ("gmm", GmmSettings),
            ("optimizer", OptimizerSettings),
            ("refinement", RefinementSettings),
        ):
            if block in data:
                setattr(cfg, block, _settings(kind, block, data[block]))
        return cfg

    @classmethod
    def from_file(cls, path) -> "TransferConfig":
        path = Path(path)
        if not path.is_file():
            raise FileNotFoundError(f"no such config file: {path}")
        return cls.from_dict(json.loads(path.read_text()), base_dir=path.parent)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["tree"] = self.tree.to_dict()
        if self.gmm.radii is not None:
            d["gmm"]["radii"] = [float(r) for r in self.gmm.radii]
        return d


@dataclass
class TransferResult:
    coarse: Mesh
    refined: Mesh
    rotations: BoneTransformSet
    twists: TwistAngles
    weights: SkinningMatrix
    losses: list[LossBreakdown]
    stop_reason: str  # see _minimize


def _minimize(f, x0, max_iters, step_size, tolerance, on_accept=None):
    """Levenberg-Marquardt on a sum of squares.

    ``f(x)`` returns None to reject ``x``, else ``(value, r, jacobian)``: the
    objective value, equal to ``r @ r`` up to rounding, the residual vector,
    and a callable that returns the Jacobian dr/dx at ``x``. Each step solves
    ``(2 J'J + mu I) d = -2 J'r``. The damping mu starts at ``1 / step_size``,
    so where the Gauss-Newton curvature is negligible against mu the first
    step is the gradient step of length ``step_size``. A trial is accepted
    only when its value is finite and strictly below the current one, so the
    accepted values decrease; mu then follows the gain-ratio rule of Madsen,
    Nielsen & Tingleff (2004), and it grows on every rejected trial.

    Returns ``(x, values, points, stop_reason)``: the final point, the
    accepted values and iterates (starting point included), and why the
    solve ended:

    - ``zero_gradient``: the gradient 2 J'r is exactly zero;
    - ``converged``: a step damped by at least ``1 / step_size`` is
      predicted to lower the value by at most ``tolerance * max(1, value)``.
      Damping the test keeps a near-flat valley, along which undamped steps
      each gain a little, from running the solve to ``max_iters``;
    - ``no_decrease``: trials were rejected until the predicted decrease of
      the damped step fell to that bound;
    - ``max_iters``: ``max_iters`` steps were accepted.

    A rejected starting point or a non-finite Jacobian raises
    DivergenceError; exceptions raised by ``f`` propagate unchanged.
    ``on_accept()``, when given, is called right after the evaluation of
    ``f`` at each accepted point (the start included), before any other
    evaluation, so a caller can keep what that evaluation computed.
    """

    def evaluate(p):
        out = f(p)
        return None if out is None or not np.isfinite(out[0]) else out

    x = np.asarray(x0, dtype=np.float64).copy()
    current = evaluate(x)
    if current is None:
        raise DivergenceError("objective is not finite at the starting point")
    if on_accept is not None:
        on_accept()
    values = [float(current[0])]
    points = [x.copy()]
    mu0 = 1.0 / float(step_size)
    mu, nu = mu0, 2.0
    eye = np.eye(x.shape[0])
    stop_reason = "max_iters"
    for _ in range(int(max_iters)):
        fx, r, jacobian = current
        jac = jacobian()
        if not np.isfinite(jac).all():
            raise DivergenceError("non-finite Jacobian")
        g = 2.0 * (jac.T @ r)
        if not g.any():
            stop_reason = "zero_gradient"
            break
        hessian = 2.0 * (jac.T @ jac)

        def model_step(damping):
            d = np.linalg.solve(hessian + damping * eye, -g)
            return d, 0.5 * float(d @ (damping * d - g))

        small = tolerance * max(1.0, fx)
        if not model_step(max(mu, mu0))[1] > small:
            stop_reason = "converged"
            break
        while True:
            d, predicted = model_step(mu)
            if not predicted > small:
                break
            trial = evaluate(x + d)
            if trial is not None and trial[0] < fx:
                break
            mu *= nu
            nu *= 2.0
        if not predicted > small:
            stop_reason = "no_decrease"
            break
        if on_accept is not None:
            on_accept()
        gain = (fx - float(trial[0])) / predicted
        mu *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
        nu = 2.0
        x = x + d
        current = trial
        values.append(float(trial[0]))
        points.append(x.copy())
    return x, values, points, stop_reason


def _descend(f, grad, x0, max_iters, step_size, tolerance):
    """Gradient descent with Armijo backtracking; returns the final point.

    A step is only taken when it strictly decreases ``f``. The trial step
    doubles after an accepted step and halves on rejection, so no
    problem-specific step tuning is needed.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    fx = float(f(x))
    trial = float(step_size)
    for _ in range(int(max_iters)):
        g = grad(x)
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
        drop = fx - fn
        x, fx = xn, fn
        trial = min(t * 2.0, float(step_size) * 1024.0)
        if drop <= tolerance * max(1.0, abs(fx)):
            break
    return x


def _probe(fn, x, j):
    """``fn`` at ``x`` moved by -h and +h along coordinate j, and 2h.

    h = 1e-5 * (1 + |x_j|), the step ``numerical_gradient`` takes.
    """
    h = 1e-5 * (1.0 + abs(float(x[j])))
    step = np.zeros_like(x)
    step[j] = h
    return fn(x - step), fn(x + step), 2.0 * h


def _tangents(pose, x) -> list:
    """Central differences of ``pose(x)``, a tuple of BoneTransformSets, per
    coordinate of ``x``.

    LBS is linear in the bone transforms, so ``lbs_blend`` of a tangent set
    is the derivative of the blended vertices along that coordinate.
    """
    names = ("relative", "rotations", "translations", "posed_joints")
    out = []
    for j in range(x.shape[0]):
        minus, plus, width = _probe(pose, x, j)
        slopes = []
        for a, b in zip(minus, plus):
            fields = ((getattr(b, n) - getattr(a, n)) / width for n in names)
            slopes.append(BoneTransformSet(*fields))
        out.append(tuple(slopes))
    return out


def _edge_directions(posed, edges, lengths):
    """Unit vectors along the edges of ``posed``."""
    return (posed[edges[:, 0]] - posed[edges[:, 1]]) / lengths[:, None]


def _length_rates(directions, edges, d_posed):
    """Rates of the edge lengths along the vertex motion ``d_posed``."""
    return np.einsum(
        "ij,ij->i", directions, d_posed[edges[:, 0]] - d_posed[edges[:, 1]]
    )


def _pose_bones(rest_kp, target_kp, twists, tree) -> BoneTransformSet:
    """Bone transforms posing ``rest_kp`` onto ``target_kp``, rooted at its root."""
    rel = scalable_ik(rest_kp, target_kp, twists, tree)
    return forward_kinematics(rest_kp, rel, tree, root_position=target_kp.joints[0])


def _rest_edges(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Edges and rest lengths of a mesh; DivergenceError if a length is not
    finite (a NaN vertex, or squares that overflow), as no edge term can be."""
    lengths = edge_lengths(mesh)
    if not np.isfinite(lengths).all():
        raise DivergenceError("rest edge lengths are not finite")
    return mesh.edges, lengths


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
    skinning, then a Levenberg-Marquardt solve (``_minimize``) over the
    per-bone twist angles (and the log Gaussian radii when
    ``config.gmm.optimize_radii`` is set, which ignores any supplied
    ``weights``). The objective is the weighted edge term plus, when
    ``target_mesh`` is given (a same-connectivity mesh of the source
    identity in the target pose), the weighted self-reconstruction error
    against it, both as sums of squared residuals. Twist is invisible to
    keypoints, so without a supervising mesh the twists stay where the edge
    term puts them. Refinement runs once on the optimized coarse mesh when
    enabled.

    The Jacobian's kinematic part, the bone transforms' derivatives in the
    twists, comes from central differences of the IK/FK chain alone, whose
    cost does not depend on the vertex count; its vertex part is exact, as
    LBS is linear in the transforms. Radii columns are central differences
    of the residuals.

    Returns a TransferResult; ``losses`` is the accepted-step history of
    the optimizer, which is decreasing in ``total``, and ``stop_reason``
    says why the solve ended.
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

    edges, rest_lengths = _rest_edges(source)
    gmm = config.gmm
    if weights is None or gmm.optimize_radii:
        # under optimize_radii this validates the starting radii
        weights = pseudo_weights(
            c_mesh.vertices, c_kp, tree, gmm.temperature, gmm.radii
        )

    n_bones = tree.n_bones
    lw = config.loss_weights
    vertices = source.vertices
    # r @ r is the weighted total: lambda * mean of squares over each term
    self_scale = np.sqrt(lw.lambda_self / vertices.shape[0])
    edge_scale = np.sqrt(lw.lambda_edge / max(edges.shape[0], 1))

    def pose(twists):
        return (_pose_bones(source_kp, target_kp, TwistAngles.wrap(twists), tree),)

    def skinning(params):
        """Skinning weights; None if the radii under- or overflow."""
        if not gmm.optimize_radii:
            return weights
        radii = np.exp(params[n_bones:])
        if not ((radii > 0) & (radii < np.inf)).all():
            return None
        return pseudo_weights(c_mesh.vertices, c_kp, tree, gmm.temperature, radii)

    def residuals(params):
        """Loss breakdown, residuals and what the Jacobian reuses; None to reject."""
        w = skinning(params)
        if w is None:
            return None
        (tf,) = pose(params[:n_bones])
        posed = lbs_blend(vertices, w, tf)
        e, lengths = edge_term(posed, edges, rest_lengths)
        if (lengths == 0.0).any():
            return None
        r = edge_scale * (lengths - rest_lengths)
        sr = 0.0
        if target_mesh is not None:
            sr = pmd(posed, target_mesh.vertices)
            r = np.concatenate([self_scale * (posed - target_mesh.vertices).ravel(), r])
        return total_loss(lw, self_recon=sr, edge=e), r, w, posed, lengths

    history = []
    latest = None  # breakdown of the last evaluation past the rejection checks

    def objective(params):
        nonlocal latest
        out = residuals(params)
        if out is None:
            return None
        latest, r, w, posed, lengths = out

        def jacobian():
            jac = np.empty((r.shape[0], params.shape[0]))
            directions = _edge_directions(posed, edges, lengths)
            for m, (tangent,) in enumerate(_tangents(pose, params[:n_bones])):
                d_posed = lbs_blend(vertices, w, tangent)
                column = edge_scale * _length_rates(directions, edges, d_posed)
                if target_mesh is not None:
                    column = np.concatenate([self_scale * d_posed.ravel(), column])
                jac[:, m] = column
            for m in range(n_bones, params.shape[0]):
                lo, hi, width = _probe(residuals, params, m)
                if lo is None or hi is None:
                    raise DivergenceError("objective is not finite at a probe point")
                jac[:, m] = (hi[1] - lo[1]) / width
            return jac

        return latest.total, r, jacobian

    x0 = np.zeros(n_bones, dtype=np.float64)
    if gmm.optimize_radii:
        start = default_radii(c_kp, tree) if gmm.radii is None else gmm.radii
        x0 = np.concatenate([x0, np.log(start)])
    x, _, _, stop_reason = _minimize(
        objective,
        x0,
        config.optimizer.max_iters,
        config.optimizer.step_size,
        config.optimizer.tolerance,
        on_accept=lambda: history.append(latest),
    )
    w = skinning(x)
    (tf,) = pose(x[:n_bones])
    coarse = lbs_apply(source, w, tf)
    refined = refine(coarse, source, config) if config.refinement.enabled else coarse
    return TransferResult(
        coarse=coarse,
        refined=refined,
        rotations=tf,
        twists=TwistAngles.wrap(x[:n_bones]),
        weights=w,
        losses=history,
        stop_reason=stop_reason,
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

    x = _descend(
        f,
        g,
        np.zeros(3 * n, dtype=np.float64),
        config.refinement.max_iters,
        config.refinement.step_size,
        config.optimizer.tolerance,
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
    hops are solved jointly by Levenberg-Marquardt (``_minimize``) under the
    weighted cycle and edge terms, as sums of squared residuals.

    Intermediate keypoints are the first hop's posed joints; passing a
    regressor re-reads them from the intermediate surface instead. The
    Jacobian differences the two-hop map from twists to both hops' bone
    transforms (which includes the first hop's blend when a regressor reads
    the intermediate keypoints) and is exact in the vertices.
    """
    tree = config.tree
    source_kp.validate_for(tree)
    target_kp.validate_for(tree)
    third_kp.validate_for(tree)
    if not third.same_connectivity(target):
        raise ValueError("third mesh must share the target identity connectivity")
    lw = config.loss_weights
    n_bones = tree.n_bones

    source_edges, source_rest = _rest_edges(source)
    third_edges, third_rest = _rest_edges(third)
    gmm = config.gmm
    w1 = pseudo_weights(source.vertices, source_kp, tree, gmm.temperature, gmm.radii)
    w2 = pseudo_weights(third.vertices, third_kp, tree, gmm.temperature, gmm.radii)
    cycle_scale = np.sqrt(lw.lambda_cycle / third.n_vertices)
    source_scale = np.sqrt(lw.lambda_edge / max(source_edges.shape[0], 1))
    third_scale = np.sqrt(lw.lambda_edge / max(third_edges.shape[0], 1))

    def pose(params):
        """Bone transforms of both hops."""
        tf1 = _pose_bones(source_kp, target_kp, TwistAngles.wrap(params[:n_bones]), tree)
        if intermediate_regressor is not None:
            inter = lbs_blend(source.vertices, w1, tf1)
            inter_kp = regress_keypoints(inter, intermediate_regressor)
        else:
            inter_kp = KeypointSet(tf1.posed_joints)
        tf2 = _pose_bones(third_kp, inter_kp, TwistAngles.wrap(params[n_bones:]), tree)
        return tf1, tf2

    def objective(params):
        tf1, tf2 = pose(params)
        inter = lbs_blend(source.vertices, w1, tf1)
        out = lbs_blend(third.vertices, w2, tf2)
        e1, l1 = edge_term(inter, source_edges, source_rest)
        e2, l2 = edge_term(out, third_edges, third_rest)
        if (l1 == 0.0).any() or (l2 == 0.0).any():
            return None
        r = np.concatenate(
            [
                cycle_scale * (out - target.vertices).ravel(),
                source_scale * (l1 - source_rest),
                third_scale * (l2 - third_rest),
            ]
        )

        def jacobian():
            jac = np.empty((r.shape[0], params.shape[0]))
            inter_dirs = _edge_directions(inter, source_edges, l1)
            out_dirs = _edge_directions(out, third_edges, l2)
            for m, (t1, t2) in enumerate(_tangents(pose, params)):
                d_inter = lbs_blend(source.vertices, w1, t1)
                d_out = lbs_blend(third.vertices, w2, t2)
                jac[:, m] = np.concatenate(
                    [
                        cycle_scale * d_out.ravel(),
                        source_scale * _length_rates(inter_dirs, source_edges, d_inter),
                        third_scale * _length_rates(out_dirs, third_edges, d_out),
                    ]
                )
            return jac

        total = total_loss(lw, cycle=pmd(out, target.vertices), edge=e1 + e2).total
        return total, r, jacobian

    x, _, _, _ = _minimize(
        objective,
        np.zeros(2 * n_bones, dtype=np.float64),
        config.optimizer.max_iters,
        config.optimizer.step_size,
        config.optimizer.tolerance,
    )
    _, tf2 = pose(x)
    out = third.with_vertices(lbs_blend(third.vertices, w2, tf2))
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
        "stop_reason": result.stop_reason,
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
    if jobs < 1:
        raise ValueError(f"jobs must be a positive integer, not {jobs}")
    manifest = load_manifest(manifest_path)
    tree = config.tree
    poses: dict = {}

    def fetch(ident, pose):
        if (ident, pose) not in poses:
            files = manifest["identities"][ident]["poses"][pose]
            mesh, kp = load_mesh(files["mesh"]), load_keypoints(files["keypoints"])
            poses[ident, pose] = mesh, kp
        return poses[ident, pose]

    canonicals: dict = {}

    def canonical(ident):
        """Canonical mesh, keypoints and pseudo weights of an identity."""
        if ident not in canonicals:
            c_mesh, c_kp = fetch(ident, manifest["identities"][ident]["canonical"])
            weights = pseudo_weights(
                c_mesh.vertices, c_kp, tree, config.gmm.temperature, config.gmm.radii
            )
            canonicals[ident] = c_mesh, c_kp, weights
        return canonicals[ident]

    # Hydrate caches serially; the parallel section then only computes.
    for pair in manifest["pairs"]:
        fetch(*pair["source"])
        fetch(*pair["target"])
        canonical(pair["source"][0])

    def run_pair(pair):
        s_mesh, s_kp = fetch(*pair["source"])
        _, t_kp = fetch(*pair["target"])
        c_mesh, c_kp, weights = canonical(pair["source"][0])
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
