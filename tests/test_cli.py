import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import posekit
from posekit import (
    TransferConfig,
    make_puppet,
    save_keypoints,
    save_mesh,
    save_tree,
    save_weights,
)
from posekit.cli import main
from test_kinematics import _random_pose
from test_transfer import manifest_fixture


@pytest.fixture
def puppet_files(tmp_path):
    p = make_puppet(2, np.pi / 6, 0.0, seed=0)
    save_mesh(p.rest_mesh, tmp_path / "rest.obj")
    save_mesh(p.posed_mesh, tmp_path / "posed.obj")
    save_keypoints(p.rest_keypoints, tmp_path / "rest_kp.json")
    save_keypoints(p.posed_keypoints, tmp_path / "posed_kp.json")
    save_tree(p.tree, tmp_path / "tree.json")
    return tmp_path, p


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_transfer_command(puppet_files, capsys):
    d, p = puppet_files
    code, payload = run_cli(
        capsys,
        "transfer",
        "--source", str(d / "rest.obj"),
        "--source-kp", str(d / "rest_kp.json"),
        "--target-kp", str(d / "posed_kp.json"),
        "--tree", str(d / "tree.json"),
        "--out", str(d / "out"),
    )
    assert code == 0
    assert (d / "out" / "refined.obj").is_file()
    assert (d / "out" / "summary.json").is_file()
    assert "refined_edge_loss" in payload
    assert payload["iterations"] >= 0


def test_transfer_via_target_mesh_and_regressor(puppet_files, capsys):
    d, p = puppet_files
    n = p.rest_mesh.n_vertices
    # one-hot regressor reading three well-separated surface vertices
    rows = np.zeros((3, n))
    picks = [n - 2, n // 2, n - 1]  # bottom cap, mid ring, top cap
    for j, v in enumerate(picks):
        rows[j, v] = 1.0
    np.savetxt(d / "regressor.csv", rows, delimiter=",")
    code, payload = run_cli(
        capsys,
        "transfer",
        "--source", str(d / "rest.obj"),
        "--source-kp", str(d / "rest_kp.json"),
        "--target", str(d / "posed.obj"),
        "--regressor", str(d / "regressor.csv"),
        "--tree", str(d / "tree.json"),
        "--out", str(d / "out2"),
    )
    assert code == 0
    assert "keypoint_diagnostic" in payload


def test_transfer_requires_some_target(puppet_files, capsys):
    d, _ = puppet_files
    code, _ = run_cli(
        capsys,
        "transfer",
        "--source", str(d / "rest.obj"),
        "--source-kp", str(d / "rest_kp.json"),
        "--tree", str(d / "tree.json"),
        "--out", str(d / "out"),
    )
    assert code == 1


def test_transfer_missing_source_exits_1(puppet_files, capsys):
    d, _ = puppet_files
    code, _ = run_cli(
        capsys,
        "transfer",
        "--source", str(d / "nope.obj"),
        "--source-kp", str(d / "rest_kp.json"),
        "--target-kp", str(d / "posed_kp.json"),
        "--tree", str(d / "tree.json"),
        "--out", str(d / "out"),
    )
    assert code == 1


def test_transfer_nan_source_exits_1(puppet_files, capsys):
    # a non-finite OBJ is bad input, rejected before any optimization
    d, _ = puppet_files
    text = (d / "rest.obj").read_text().splitlines()
    text[0] = "v nan 0 0"
    (d / "bad.obj").write_text("\n".join(text) + "\n")
    code, _ = run_cli(
        capsys,
        "transfer",
        "--source", str(d / "bad.obj"),
        "--source-kp", str(d / "rest_kp.json"),
        "--target-kp", str(d / "posed_kp.json"),
        "--tree", str(d / "tree.json"),
        "--out", str(d / "out"),
    )
    assert code == 1


def test_transfer_overflowing_source_exits_2(puppet_files, capsys):
    # finite but absurd coordinates overflow the squared edge lengths, the
    # objective turns non-finite and the run reports divergence, not bad input
    d, p = puppet_files
    with np.errstate(over="ignore", invalid="ignore"):
        save_mesh(
            p.rest_mesh.with_vertices(p.rest_mesh.vertices * 1e200), d / "huge.obj"
        )
    save_keypoints(
        type(p.rest_keypoints)(p.rest_keypoints.joints * 1e200), d / "huge_kp.json"
    )
    with np.errstate(over="ignore", invalid="ignore"):
        code, _ = run_cli(
            capsys,
            "transfer",
            "--source", str(d / "huge.obj"),
            "--source-kp", str(d / "huge_kp.json"),
            "--target-kp", str(d / "posed_kp.json"),
            "--tree", str(d / "tree.json"),
            "--out", str(d / "out"),
        )
    assert code == 2


def test_transfer_config_typo_exits_1(puppet_files, capsys):
    d, _ = puppet_files
    config = {"tree": "tree.json", "optimizer": {"max_iter": 3}}
    (d / "config.json").write_text(json.dumps(config))
    code = main([
        "transfer",
        "--source", str(d / "rest.obj"),
        "--source-kp", str(d / "rest_kp.json"),
        "--target-kp", str(d / "posed_kp.json"),
        "--config", str(d / "config.json"),
        "--out", str(d / "out"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown optimizer keys: ['max_iter']")


def test_eval_same_connectivity(puppet_files, capsys):
    d, _ = puppet_files
    code, payload = run_cli(
        capsys, "eval", str(d / "posed.obj"), str(d / "rest.obj")
    )
    assert code == 0
    assert payload["pmd"] is not None
    assert payload["edge_loss"] is not None
    assert payload["chamfer"] >= 0
    assert payload["pmd_1e4"] == pytest.approx(payload["pmd"] * 1e4)


def test_eval_identical_mesh_zero(puppet_files, capsys):
    d, _ = puppet_files
    code, payload = run_cli(capsys, "eval", str(d / "rest.obj"), str(d / "rest.obj"))
    assert code == 0
    assert payload["pmd"] == 0.0
    assert payload["chamfer"] == 0.0
    assert payload["edge_loss"] == 0.0


def test_eval_count_mismatch(tmp_path, capsys):
    a = make_puppet(2, 0.0, 0.0, seed=0)
    b = make_puppet(3, 0.0, 0.0, seed=0)
    save_mesh(a.rest_mesh, tmp_path / "a.obj")
    save_mesh(b.rest_mesh, tmp_path / "b.obj")
    code, payload = run_cli(capsys, "eval", str(tmp_path / "a.obj"), str(tmp_path / "b.obj"))
    assert code == 0
    assert payload["pmd"] is None
    assert payload["chamfer"] is not None
    code, _ = run_cli(
        capsys, "eval", str(tmp_path / "a.obj"), str(tmp_path / "b.obj"), "--pmd"
    )
    assert code == 1


def test_ik_check(tmp_path, capsys):
    from posekit import bundled_tree

    tree = bundled_tree("smpl_24")
    rng = np.random.default_rng(0)
    save_keypoints(_random_pose(tree, rng), tmp_path / "src.json")
    save_keypoints(_random_pose(tree, rng), tmp_path / "tgt.json")
    code, payload = run_cli(
        capsys,
        "ik-check",
        "--source-kp", str(tmp_path / "src.json"),
        "--target-kp", str(tmp_path / "tgt.json"),
        "--tree", "smpl_24",
    )
    assert code == 0
    assert payload["unit_dot_min"] >= 1.0 - 1e-9
    assert payload["max_direction_error"] <= 1e-9
    assert payload["scale_invariance_delta"] <= 1e-9


def test_ik_check_unknown_tree_exits_1(tmp_path, capsys):
    save_keypoints(
        _random_pose(__import__("posekit").bundled_tree("smpl_24"), np.random.default_rng(1)),
        tmp_path / "kp.json",
    )
    code, _ = run_cli(
        capsys,
        "ik-check",
        "--source-kp", str(tmp_path / "kp.json"),
        "--target-kp", str(tmp_path / "kp.json"),
        "--tree", "no_such_tree",
    )
    assert code == 1


def test_weights_export_and_compare(puppet_files, capsys):
    d, p = puppet_files
    save_weights(p.weights, d / "truth.csv")
    code, payload = run_cli(
        capsys,
        "weights",
        "--mesh", str(d / "rest.obj"),
        "--kp", str(d / "rest_kp.json"),
        "--tree", str(d / "tree.json"),
        "--out", str(d / "w.csv"),
        "--compare", str(d / "truth.csv"),
    )
    assert code == 0
    assert payload["vertices"] == p.rest_mesh.n_vertices
    assert payload["bones"] == 2
    # generator weights equal the Gaussian soft assignment on this figure
    assert payload["max_abs_diff"] <= 1e-12
    assert 0.0 <= payload["mean_abs_diff"] <= payload["max_abs_diff"]
    assert payload["skinning_loss"] <= 1e-24
    assert (d / "w.csv").is_file()


def test_batch_command(tmp_path, capsys):
    path, a = manifest_fixture(tmp_path)
    cfg = TransferConfig(tree=a.tree)
    cfg.optimizer.max_iters = 3
    (tmp_path / "cfg.json").write_text(json.dumps(cfg.to_dict()))
    code, payload = run_cli(
        capsys,
        "batch",
        "--manifest", str(path),
        "--config", str(tmp_path / "cfg.json"),
        "--out", str(tmp_path / "runs"),
        "--jobs", "2",
    )
    assert code == 0
    assert set(payload) == {"a_to_b", "a_self"}
    for name in payload:
        assert (tmp_path / "runs" / name / "refined.obj").is_file()


def test_seed_env_override(puppet_files, capsys, monkeypatch):
    d, _ = puppet_files
    monkeypatch.setenv("POSEKIT_SEED", "definitely-not-int")
    code, _ = run_cli(
        capsys,
        "transfer",
        "--source", str(d / "rest.obj"),
        "--source-kp", str(d / "rest_kp.json"),
        "--target-kp", str(d / "posed_kp.json"),
        "--tree", str(d / "tree.json"),
        "--out", str(d / "out"),
    )
    assert code == 1
    monkeypatch.setenv("POSEKIT_SEED", "7")
    code, _ = run_cli(
        capsys,
        "transfer",
        "--source", str(d / "rest.obj"),
        "--source-kp", str(d / "rest_kp.json"),
        "--target-kp", str(d / "posed_kp.json"),
        "--tree", str(d / "tree.json"),
        "--out", str(d / "out"),
    )
    assert code == 0


def test_console_script_runs(puppet_files):
    d, _ = puppet_files
    # the child interpreter imports the same posekit as this test run,
    # which pytest may have put on sys.path without an install
    package_root = str(Path(posekit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "posekit.cli", "eval", str(d / "rest.obj"), str(d / "rest.obj")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pmd"] == 0.0
