"""Keypoint-driven pose transfer with twist optimization and refinement."""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .kinematics import (
    EPS_PARALLEL,
    JointRegressor,
    KeypointSet,
    KinematicTree,
    TwistAngles,
    BoneTransformSet,
    _TREES,
    _fk,
    _from_file,
    _ik_setup,
    _ik_twists,
    _settings,
    _unit,
    _wrap,
    load_keypoints,
    load_tree,
    regress_keypoints,
    skew,
)
from .mesh import Mesh, edge_lengths, load_mesh, pmd, save_mesh
from .objectives import (
    LossBreakdown,
    LossWeights,
    _edge_term_gradient,
    edge_term,
    total_loss,
)
from .skinning import (
    SkinningMatrix,
    _weights_csv,
    default_radii,
    lbs_apply,
    lbs_blend,
    pseudo_weights,
)

_DAMPING_START = 1e-3  # _minimize's first mu over the largest curvature: MNT's tau


class DivergenceError(RuntimeError):
    """The optimizer met a non-finite objective where it cannot recover."""


@dataclass
class OptimizerSettings:
    max_iters: int = 300
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
    radii: list[float] | np.ndarray | None = None
    optimize_radii: bool = False


@dataclass
class TransferConfig:
    """Everything a transfer run needs besides the meshes and keypoints."""

    tree: KinematicTree
    loss_weights: LossWeights = field(default_factory=LossWeights)
    gmm: GmmSettings = field(default_factory=GmmSettings)
    optimizer: OptimizerSettings = field(default_factory=OptimizerSettings)
    refinement: RefinementSettings = field(default_factory=RefinementSettings)

    @classmethod
    def from_dict(cls, data: dict, base_dir=None, tree=None) -> "TransferConfig":
        """The config of JSON ``data``; a given ``tree`` stands in for its
        ``tree`` entry, which is then not read, before any rule is checked."""
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, not a {type(data).__name__}")
        if unknown := set(data) - {f.name for f in fields(cls)}:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        tree_spec = data.get("tree")
        if tree is None and tree_spec is None:
            raise ValueError("config needs a 'tree' entry (path, dict or bundled name)")
        if tree is None and isinstance(tree_spec, dict):
            tree = KinematicTree.from_dict(tree_spec)
        elif tree is None:
            # a file beside the config, else a bundled tree, else a missing file
            base = Path(base_dir) if base_dir is not None else Path(".")
            candidate, bundled = base / str(tree_spec), _TREES / f"{tree_spec}.json"
            tree = load_tree(bundled if bundled.is_file() and not candidate.is_file() else candidate)
        blocks = {
            f.name: _settings(f.default_factory, f.name, data[f.name])
            for f in fields(cls)
            if f.name != "tree" and f.name in data
        }
        radii = blocks["gmm"].radii if "gmm" in blocks else None
        if radii is not None and len(radii) != tree.n_bones:
            raise ValueError(
                f"gmm.radii must hold one radius per bone ({tree.n_bones}), not {len(radii)}"
            )
        return cls(tree, **blocks)

    @classmethod
    def from_file(cls, path, tree=None) -> "TransferConfig":
        data = _from_file(path, "config", json.loads)
        return cls.from_dict(data, base_dir=Path(path).parent, tree=tree)

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


def _minimize(f, x0, max_iters, tolerance, on_accept=None):
    """Levenberg-Marquardt on a sum of squares.

    ``f(x)`` returns None to reject ``x``, else ``(value, r, jacobian)``: the
    objective value, equal to ``r @ r`` up to rounding, the residual vector,
    and a callable that returns the Jacobian dr/dx at ``x``. Each step solves
    ``(2 J'J + mu I) d = -2 J'r``. The damping mu starts at ``1e-3 * top``,
    ``top`` the largest diagonal entry of the first 2 J'J, so scaling ``r``
    changes no step (Madsen, Nielsen & Tingleff 2004, 3.2). A trial is
    accepted only when its value is finite and strictly below the current
    one, so the accepted values decrease; mu then follows their gain-ratio
    rule, and it grows on every rejected trial.

    Returns ``(x, values, stop_reason)``: the final point, the accepted
    values (the starting point's included), and why the solve ended:

    - ``zero_gradient``: the gradient 2 J'r is exactly zero. An all-zero
      (or empty) residual vector stops here before the Jacobian is asked
      for, since 2 J'r is then zero whatever J is;
    - ``converged``: a step damped by at least ``top`` is predicted to
      lower the value by at most ``tolerance * max(1, value)``. Damping
      the test keeps a near-flat valley, along which undamped steps each
      gain a little, from running the solve to ``max_iters``;
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
    mu0, nu = None, 2.0
    eye = np.eye(x.shape[0])
    stop_reason = "max_iters"
    for _ in range(int(max_iters)):
        fx, r, jacobian = current
        if not r.any():
            stop_reason = "zero_gradient"
            break
        jac = jacobian()
        if not np.isfinite(jac).all():
            raise DivergenceError("non-finite Jacobian")
        g = 2.0 * (jac.T @ r)
        if not g.any():
            stop_reason = "zero_gradient"
            break
        hessian = 2.0 * (jac.T @ jac)
        if mu0 is None:  # top = mu0 > 0, as J is not 0 where 2 J'r is not
            mu = _DAMPING_START * (mu0 := float(hessian.diagonal().max()))

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
    return x, values, stop_reason


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


def _twist_derivatives(rest_kp: KeypointSet, tf: BoneTransformSet, tree):
    """d rotations / d phi_m and d translations / d phi_m of ``tf``, one
    posing by ``_poser``, in closed form: (K, K, 3, 3) and (K, K, 3), row m.

    Twist m turns bone m's frame about its unit aim a_m at unit rate; a child
    whose parent frame turns about a_p at rate kappa turns about its aim a_c
    at rate ``kappa a_p.(u_c + a_c) / (1 + u_c.a_c)``, u_c being its
    direction before its swing. That rate is 0 off the root and where
    ``_swing`` folds a bone back (antiparallel), which leaves it undefined.
    No joint moves: dt = -dR times the parent joint's rest position.
    """
    dirs = _unit(rest_kp.bone_vectors(tree), "twist rate")[:, :, None]
    glob, up = tf.rotations, tree.parents[1:] - 1  # up: each bone's parent bone; -1 off the root
    aims = (glob @ dirs)[..., 0]
    s = (glob[up] @ dirs)[..., 0] + aims  # u + a: |s|^2 = 2 (1 + u.a); |s| = |u x a| at a fold
    sq = np.einsum("ki,ki->k", s, s)
    turns = (up >= 0) & (sq >= EPS_PARALLEL**2)
    rate = 2.0 * np.einsum("ki,ki->k", aims[up], s) / np.where(turns, sq, 1.0)
    kappa = np.eye(len(up))  # kappa[j, m]: bone j's rate along twist m
    for j in np.flatnonzero(turns):
        kappa[j] += rate[j] * kappa[up[j]]
    rotations = kappa.T[:, :, None, None] * (skew(aims) @ glob)
    return rotations, -(rotations @ rest_kp.joints[tree.parents[1:], :, None])[..., 0]


def _poser(rest_kp, target_kp, tree):
    """The map from twists (wrapped here; stacks too) to the bone transforms
    posing ``rest_kp`` onto ``target_kp`` (or a stack), rooted at its root. IK's
    twist-free setup and its checks run once, here: a call runs only
    ``_ik_twists`` and FK, which check nothing again."""
    setup, root = _ik_setup(rest_kp, target_kp, tree), target_kp.joints[..., 0, :]

    def pose(twists):
        return _fk(rest_kp, _ik_twists(setup, _wrap(twists), tree), tree, root)

    return pose


def _check_finite(mesh: Mesh) -> None:
    """DivergenceError if an edge length is not finite (a NaN vertex, or
    squares that overflow), as no skinned offset can be; run before any
    weights are built, which would call it bad input instead."""
    if not np.isfinite(edge_lengths(mesh)).all():
        raise DivergenceError("rest edge lengths are not finite")


def _solve_twists(
    vertices, target, rest_kp, pose, skinning, x0, config: TransferConfig, fit: str, n_posed: int
):
    """Levenberg-Marquardt (``_minimize``) from ``x0`` over one skinned surface.

    ``vertices`` and ``rest_kp`` are the surface's rest state, and ``target``
    the vertices its posed state is fit to, or None. The parameters start
    with the surface's own twists, one per bone of ``config.tree``:
    ``pose(params[:n_posed])`` gives its transforms, one ``_poser`` call on
    those twists, and ``skinning(params)`` its SkinningMatrix, or None to reject
    ``params``. The residuals are ``sqrt(lambda / N)`` times the posed minus
    the target vertices, so that ``r @ r`` is the ``total_loss`` total under
    ``config.loss_weights`` with the target PMD as its ``fit`` term
    ("self_recon" or "cycle"). Without a target there are none: ``_minimize``
    stops at ``x0`` before any Jacobian. ``config.optimizer`` runs the solve.

    Each evaluation poses its point, one twist row. The Jacobian's own-twist
    columns are exact and pose nothing: LBS is linear in the transforms, so
    they are one product of its design matrix, built again only when the
    weights change, with the ``[R | t]`` of ``_twist_derivatives``. Other
    parameters (log radii, a regressor cycle's first-hop twists) get central
    differences of the full residuals; a probe of a parameter past ``n_posed``
    keeps the evaluation's transforms.

    Returns ``(x, stop_reason, losses, transforms, skin)``: the final point,
    why the solve ended, the breakdowns of the accepted evaluations, and
    the transforms and skinning weights of the last.
    """
    lw = config.loss_weights
    fit_weight = {"self_recon": lw.lambda_self, "cycle": lw.lambda_cycle}[fit]
    n_twists = config.tree.n_bones
    # r @ r is the weighted total: lambda * mean of squares
    scale = np.sqrt(fit_weight / vertices.shape[0])
    homogeneous = np.concatenate([vertices, np.ones((len(vertices), 1))], axis=1)

    def residuals(params, transforms=None):
        """Breakdown, residuals, transforms and skinning weights; None to reject."""
        transforms = pose(params[:n_posed]) if transforms is None else transforms
        skin = skinning(params)
        if skin is None:
            return None
        if target is None:
            return total_loss(lw), np.empty(0), transforms, skin
        posed = lbs_blend(vertices, skin, transforms)
        r = scale * (posed - target).ravel()
        return total_loss(lw, **{fit: pmd(posed, target)}), r, transforms, skin

    latest = accepted = design = designed = None  # designed: the weights of design
    history = []

    def objective(params):
        nonlocal latest
        latest = residuals(params)
        if latest is None:
            return None
        breakdown, r, transforms, skin = latest

        def jacobian():
            nonlocal design, designed
            jac = np.empty((r.shape[0], params.shape[0]))
            if skin is not designed:  # LBS maps the [R | t] rows by w_ik [v_i, 1]
                design = np.einsum("nk,nj->nkj", skin.weights, homogeneous)
                design, designed = design.reshape(len(vertices), -1), skin
            rotations, translations = _twist_derivatives(rest_kp, transforms, config.tree)
            maps = np.concatenate([rotations, translations[..., None]], -1)
            maps = maps.transpose(1, 3, 2, 0).reshape(design.shape[1], 3 * n_twists)
            jac[:, :n_twists] = scale * (design @ maps).reshape(r.shape[0], n_twists)
            steps = np.diag(1e-5 * (1.0 + np.abs(params)))  # numerical_gradient's steps
            for m in range(n_twists, params.shape[0]):
                kept = transforms if m >= n_posed else None
                lo, hi = residuals(params - steps[m], kept), residuals(params + steps[m], kept)
                if lo is None or hi is None:
                    raise DivergenceError("objective is not finite at a probe point")
                jac[:, m] = (hi[1] - lo[1]) / (2.0 * steps[m, m])
            return jac

        return breakdown.total, r, jacobian

    def accept():
        nonlocal accepted
        accepted = latest
        history.append(latest[0])

    opt = config.optimizer
    x, _, stop_reason = _minimize(objective, x0, opt.max_iters, opt.tolerance, on_accept=accept)
    return x, stop_reason, history, *accepted[2:]


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
    skinning, then a Levenberg-Marquardt solve (``_solve_twists``) over the
    per-bone twist angles (and the log Gaussian radii when
    ``config.gmm.optimize_radii`` is set, which ignores any supplied
    ``weights``). The solve fits one surface, the source, and only what
    it can see: the weighted self-reconstruction error against
    ``target_mesh`` (a same-connectivity mesh of the source identity in
    the target pose), as a sum of squared residuals. Twist is invisible to
    keypoints, so without a supervising mesh there are no residuals: the
    solve stops ``zero_gradient`` at its first evaluation, with zero twist
    and the starting radii. Refinement runs once on the optimized coarse
    mesh when enabled.

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

    _check_finite(source)
    gmm = config.gmm
    if weights is None or gmm.optimize_radii:
        # under optimize_radii this validates the starting radii
        weights = pseudo_weights(c_mesh.vertices, c_kp, tree, gmm.temperature, gmm.radii)
    n_bones = tree.n_bones

    pose = _poser(source_kp, target_kp, tree)

    def skinning(params):
        """Skinning weights; None if the radii under- or overflow."""
        if not gmm.optimize_radii:
            return weights
        radii = np.exp(params[n_bones:])
        if not ((radii > 0) & (radii < np.inf)).all():
            return None
        return pseudo_weights(c_mesh.vertices, c_kp, tree, gmm.temperature, radii)

    x0 = np.zeros(n_bones, dtype=np.float64)
    if gmm.optimize_radii:
        start = default_radii(c_kp, tree) if gmm.radii is None else gmm.radii
        x0 = np.concatenate([x0, np.log(start)])
    fit_to = None if target_mesh is None else target_mesh.vertices
    x, stop_reason, history, tf, w = _solve_twists(
        source.vertices, fit_to, source_kp, pose, skinning, x0, config, "self_recon", n_bones
    )
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
    rest = edge_lengths(source)
    cv = coarse.vertices
    n = cv.shape[0]

    def f(dv):
        d = cv + dv.reshape(n, 3)
        return edge_term(d, edges, rest) + ridge * float(np.dot(dv, dv))

    def g(dv):
        d = cv + dv.reshape(n, 3)
        return _edge_term_gradient(d, edges, rest).ravel() + 2.0 * ridge * dv

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
    compared to the target (identity B in the target pose). ``_solve_twists``
    fits that output surface alone to the target by the weighted cycle
    error as a sum of squared residuals; hop 1 is posed only for hop 2's
    targets. Weights use ``gmm.radii`` as given: ``gmm.optimize_radii`` is
    read only by ``pose_transfer``.

    Without a regressor, the intermediate keypoints are hop 1's posed
    joints, which have the target keypoints' bone directions and root at any
    twist. IK reads nothing else, so the third mesh is posed onto
    ``target_kp`` and hop 1 is never posed. The solve is over hop 2's K
    twists, a supervised self-reconstruction of the target identity that
    cannot see hop-1 twist, and the error depends on neither the source mesh
    nor its keypoints, which are only checked. An ``intermediate_regressor``
    (tree joints x source vertices) reads them from hop 1's blended vertices
    instead, and the solve is over hop 2's K twists, then hop 1's, whose
    Jacobian columns are central differences of the two-hop residuals.
    """
    tree = config.tree
    source_kp.validate_for(tree)
    target_kp.validate_for(tree)
    third_kp.validate_for(tree)
    if not third.same_connectivity(target):
        raise ValueError("third mesh must share the target identity connectivity")
    regressor = intermediate_regressor
    if regressor is not None and regressor.matrix.shape != (tree.n_joints, source.n_vertices):
        raise ValueError(
            f"intermediate_regressor must be {tree.n_joints} x {source.n_vertices} "
            f"(tree joints x source vertices), not {regressor.n_joints} x {regressor.n_vertices}"
        )
    _check_finite(source)
    _check_finite(third)
    gmm = config.gmm
    w2 = pseudo_weights(third.vertices, third_kp, tree, gmm.temperature, gmm.radii)
    n_bones = tree.n_bones

    if regressor is None:
        pose = _poser(third_kp, target_kp, tree)
    else:
        hop1 = _poser(source_kp, target_kp, tree)
        w1 = pseudo_weights(source.vertices, source_kp, tree, gmm.temperature, gmm.radii)

        def pose(params):
            """Hop 2's transforms at hop-2 then hop-1 twists, set up anew."""
            blend = lbs_blend(source.vertices, w1, hop1(params[n_bones:]))
            return _poser(third_kp, regress_keypoints(blend, regressor), tree)(params[:n_bones])

    x0 = np.zeros(n_bones * (1 if regressor is None else 2))
    *_, tf2, _ = _solve_twists(
        third.vertices, target.vertices, third_kp, pose, lambda params: w2,
        x0, config, "cycle", len(x0),
    )
    out = lbs_apply(third, w2, tf2)
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


def save_result(
    result: TransferResult, out_dir, extra: dict | None = None, weights_csv: str | None = None
) -> dict:
    """Persist a TransferResult, with ``weights_csv`` as the text of
    ``weights.csv`` when given; returns the summary that was written."""
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
    (out / "weights.csv").write_text(
        _weights_csv(result.weights) if weights_csv is None else weights_csv
    )
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

    Paths are resolved relative to the manifest file and must exist. A
    pair's name, by default ``<ident>_<pose>__to__<ident>_<pose>``, names
    its output directory, so it must be unique and one path component (not
    empty, ``.`` or ``..``). Any other layout is a ValueError.
    """
    path = Path(path)
    return _from_file(path, "manifest", lambda text: _resolve_manifest(json.loads(text), path))


def _resolve_manifest(data, path: Path) -> dict:
    """``load_manifest``'s checks of the JSON value of the manifest at ``path``."""
    base = path.parent

    def check(ok, what):
        if not ok:
            raise ValueError(what)

    check(isinstance(data, dict), "manifest must be a JSON object")
    identities = data.get("identities")
    pairs = data.get("pairs")
    check(
        isinstance(identities, dict) and isinstance(pairs, list),
        "manifest needs 'identities' and 'pairs'",
    )
    resolved: dict = {"identities": {}, "pairs": []}
    for name, ident in identities.items():
        check(isinstance(ident, dict), f"identity {name!r} must be a JSON object")
        poses = ident.get("poses", {})
        check(isinstance(poses, dict), f"identity {name!r} poses must be a JSON object")
        check(poses, f"identity {name!r} lists no poses")
        canonical = ident.get("canonical", next(iter(poses)))
        check(
            isinstance(canonical, str) and canonical in poses,
            f"identity {name!r} canonical pose {canonical!r} missing",
        )
        entry = {"canonical": canonical, "poses": {}}
        for pose_name, files in poses.items():
            check(
                isinstance(files, dict)
                and all(isinstance(files.get(k), str) for k in ("mesh", "keypoints")),
                f"pose {pose_name!r} of {name!r} must be "
                '{"mesh": <path>, "keypoints": <path>}',
            )
            entry["poses"][pose_name] = {k: base / files[k] for k in ("mesh", "keypoints")}
            for p in entry["poses"][pose_name].values():
                if not p.is_file():
                    raise FileNotFoundError(f"{path}: referenced file missing: {p}")
        resolved["identities"][name] = entry
    names = set()
    for pair in pairs:
        check(isinstance(pair, dict), f"pair {pair!r} must be a JSON object")
        src, tgt = pair.get("source"), pair.get("target")
        for ref in (src, tgt):
            check(
                isinstance(ref, list)
                and len(ref) == 2
                and all(isinstance(x, str) for x in ref),
                f"pair source and target must be [identity, pose], not {ref!r}",
            )
            ident, pose = ref
            check(ident in resolved["identities"], f"unknown identity {ident!r}")
            check(
                pose in resolved["identities"][ident]["poses"],
                f"unknown pose {pose!r} of {ident!r}",
            )
        name = pair.get("name", f"{src[0]}_{src[1]}__to__{tgt[0]}_{tgt[1]}")
        check(
            isinstance(name, str)
            and name not in ("", ".", "..")
            and Path(name).name == name,
            f"pair name {name!r} must be one path component, not '.' or '..'",
        )
        check(name not in names, f"pair name {name!r} is used twice")
        names.add(name)
        resolved["pairs"].append({"name": name, "source": tuple(src), "target": tuple(tgt)})
    return resolved


def run_manifest(manifest_path, config: TransferConfig, out_dir, jobs: int = 1) -> list:
    """Run every pair of a manifest, one output directory per pair.

    Every named file must exist. Before any pair runs, each source or
    canonical pose's mesh and keypoints and each target pose's keypoints are
    read once, in manifest order (a target-only pose's mesh is not read), and
    each source identity's pseudo weights are built, and formatted for
    ``weights.csv`` unless ``optimize_radii`` varies them, once from its
    canonical pose. All pairs then run on one pool of ``jobs`` threads; once
    all have run, the first failing pair in manifest order raises its error.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be a positive integer, not {jobs}")
    manifest = load_manifest(manifest_path)
    identities = manifest["identities"]
    parsed: dict = {}  # (kind, resolved path) -> the file's contents
    canonicals: dict = {}
    runs = []

    def read(pose, kind):
        path = identities[pose[0]]["poses"][pose[1]][kind]
        key = kind, path.resolve()
        if key not in parsed:
            parsed[key] = (load_mesh if kind == "mesh" else load_keypoints)(path)
        return parsed[key]

    for pair in manifest["pairs"]:
        source, ident = pair["source"], pair["source"][0]
        s_mesh, s_kp = read(source, "mesh"), read(source, "keypoints")
        t_kp = read(pair["target"], "keypoints")
        if ident not in canonicals:
            canonical = (ident, identities[ident]["canonical"])
            c_mesh, c_kp = read(canonical, "mesh"), read(canonical, "keypoints")
            weights = pseudo_weights(
                c_mesh.vertices, c_kp, config.tree, config.gmm.temperature, config.gmm.radii
            )
            csv = None if config.gmm.optimize_radii else _weights_csv(weights)
            canonicals[ident] = c_mesh, c_kp, weights, csv
        runs.append((pair["name"], s_mesh, s_kp, t_kp, *canonicals[ident]))

    def run_pair(name, s_mesh, s_kp, t_kp, c_mesh, c_kp, weights, csv):
        result = pose_transfer(
            s_mesh,
            s_kp,
            t_kp,
            config,
            weights=weights,
            canonical_mesh=c_mesh,
            canonical_kp=c_kp,
        )
        return name, save_result(result, Path(out_dir) / name, None, csv)

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(run_pair, *run) for run in runs]
    return [future.result() for future in futures]
