"""Command line front end.

Exit codes: 0 on success, 1 on validation failures (bad arguments, missing
or malformed inputs), 2 when the optimizer meets a non-finite objective.
"""

from __future__ import annotations

import argparse
import json
import sys

from .kinematics import (
    TwistAngles,
    forward_kinematics,
    KeypointSet,
    keypoint_loss,
    load_keypoints,
    load_regressor,
    regress_keypoints,
    scalable_ik,
)
from .mesh import MetricReport, chamfer, load_mesh, pmd
from .objectives import edge_loss
from .skinning import load_weights, pseudo_weights, save_weights, skinning_loss
from .transfer import (
    DivergenceError,
    TransferConfig,
    pose_transfer,
    run_manifest,
    save_result,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_DIVERGED = 2


class _Parser(argparse.ArgumentParser):
    """Raises argument errors as ValueError, so they exit 1 like other bad input."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="posekit", description="Keypoint-driven pose transfer for meshes"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transfer", help="pose a source mesh onto target keypoints")
    p.add_argument("--source", required=True, help="source mesh OBJ")
    p.add_argument("--source-kp", required=True, help="source keypoints JSON")
    p.add_argument("--target-kp", help="target keypoints JSON")
    p.add_argument("--target", help="target mesh OBJ (keypoints via --regressor)")
    p.add_argument("--regressor", help="joint regressor CSV")
    p.add_argument("--tree", help="kinematic tree JSON or bundled name")
    p.add_argument("--config", help="config JSON")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("eval", help="compare two meshes")
    p.add_argument("reference", help="reference mesh OBJ")
    p.add_argument("candidate", help="candidate mesh OBJ")
    p.add_argument(
        "--pmd",
        action="store_true",
        help="require the corresponded metric (fails on vertex-count mismatch)",
    )

    p = sub.add_parser("ik-check", help="round-trip a keypoint pair through IK/FK")
    p.add_argument("--source-kp", required=True)
    p.add_argument("--target-kp", required=True)
    p.add_argument("--tree", required=True, help="kinematic tree JSON or bundled name")

    p = sub.add_parser("weights", help="export pseudo skinning weights")
    p.add_argument("--mesh", required=True)
    p.add_argument("--kp", required=True, help="canonical-pose keypoints JSON")
    p.add_argument("--tree", required=True)
    p.add_argument("--out", required=True, help="weight CSV to write")
    p.add_argument("--temperature", type=float, default=2.0)
    p.add_argument("--compare", help="ground-truth weight CSV to score against")

    p = sub.add_parser("batch", help="run every pair of a transfer manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1, help="pairs run at once (>= 1)")
    return parser


def _load_tree_arg(spec: str):
    """A tree JSON file or a bundled name, resolved as a config's ``tree``."""
    return TransferConfig.from_dict({"tree": spec}).tree


def _resolve_config(args) -> TransferConfig:
    if args.config:
        config = TransferConfig.from_file(args.config)
        if getattr(args, "tree", None):
            config.tree = _load_tree_arg(args.tree)
    elif getattr(args, "tree", None):
        config = TransferConfig(tree=_load_tree_arg(args.tree))
    else:
        raise ValueError("either --config or --tree is required")
    return config


def _cmd_transfer(args) -> int:
    config = _resolve_config(args)
    source = load_mesh(args.source)
    source_kp = load_keypoints(args.source_kp)
    if not (args.target_kp or args.target and args.regressor):
        raise ValueError("need --target-kp, or --target together with --regressor")
    # the regressor reads the target mesh when that supplies the keypoints
    read = source if args.target_kp else load_mesh(args.target)
    shape = (config.tree.n_joints, read.n_vertices)
    regressor = load_regressor(args.regressor, shape) if args.regressor else None
    if args.target_kp:
        target_kp = load_keypoints(args.target_kp)
    else:
        target_kp = regress_keypoints(read, regressor)
    result = pose_transfer(source, source_kp, target_kp, config)
    extra = {"refined_edge_loss": edge_loss(source, result.refined)}
    if regressor is not None and regressor.n_vertices == source.n_vertices:
        extra["keypoint_diagnostic"] = keypoint_loss(
            regress_keypoints(source, regressor), source_kp
        )
    summary = save_result(result, args.out, extra)
    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def _scaled(value):
    return None if value is None else value * 1e4


def _cmd_eval(args) -> int:
    ref = load_mesh(args.reference)
    cand = load_mesh(args.candidate)
    report = MetricReport()
    if ref.n_vertices == cand.n_vertices:
        report.pmd = pmd(ref, cand)
    elif args.pmd:
        raise ValueError(
            f"--pmd needs equal vertex counts, got {ref.n_vertices} "
            f"and {cand.n_vertices}"
        )
    report.chamfer = chamfer(ref, cand)
    if ref.same_connectivity(cand):
        report.edge_loss = edge_loss(ref, cand)
    payload = report.to_dict()
    payload["pmd_1e4"] = _scaled(report.pmd)
    payload["chamfer_1e4"] = _scaled(report.chamfer)
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def _cmd_ik_check(args) -> int:
    tree = _load_tree_arg(args.tree)
    source = load_keypoints(args.source_kp)
    target = load_keypoints(args.target_kp)
    # one stacked IK call: the target, and the target scaled by 2 about its root
    root = target.joints[0]
    targets = KeypointSet([target.joints, root + 2.0 * (target.joints - root)])
    rel = scalable_ik(source, targets, TwistAngles.zeros(tree.n_bones), tree)
    posed = KeypointSet(forward_kinematics(source, rel[0], tree).posed_joints)
    d_posed, d_target = posed.bone_vectors(tree), target.bone_vectors(tree)
    num = (d_posed * d_target).sum(axis=1)
    den = (d_posed**2).sum(axis=1) ** 0.5 * (d_target**2).sum(axis=1) ** 0.5
    dots = num / den
    payload = {
        "unit_dot_min": float(dots.min()),
        "max_direction_error": float((1.0 - dots).max()),
        "scale_invariance_delta": float(abs(rel[0] - rel[1]).max()),
    }
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def _cmd_weights(args) -> int:
    tree = _load_tree_arg(args.tree)
    kp = load_keypoints(args.kp)
    weights = pseudo_weights(load_mesh(args.mesh).vertices, kp, tree, args.temperature)
    save_weights(weights, args.out)
    payload = {"vertices": weights.n_vertices, "bones": weights.n_bones}
    if args.compare:
        truth = load_weights(args.compare)
        payload["skinning_loss"] = skinning_loss(weights, truth)
        diff = abs(weights.weights - truth.weights)
        payload["max_abs_diff"] = float(diff.max())
        payload["mean_abs_diff"] = float(diff.mean())
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def _cmd_batch(args) -> int:
    config = _resolve_config(args)
    results = run_manifest(args.manifest, config, args.out, jobs=args.jobs)
    print(json.dumps({name: summary for name, summary in results}, sort_keys=True))
    return EXIT_OK


_COMMANDS = {
    "transfer": _cmd_transfer,
    "eval": _cmd_eval,
    "ik-check": _cmd_ik_check,
    "weights": _cmd_weights,
    "batch": _cmd_batch,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
