import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import posekit
from posekit import (
    KinematicTree,
    TransferConfig,
    make_puppet,
    save_keypoints,
    save_mesh,
    save_tree,
    save_weights,
)
from posekit.cli import main
from test_kinematics import _random_pose
from test_transfer import HUGE_INT, manifest_fixture


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
    # no target mesh, so no residuals: the solve stops at its first evaluation
    assert payload["stop_reason"] == "zero_gradient"


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


def test_transfer_via_sparse_regressor_leaves_unnamed_vertices_unweighted(puppet_files, capsys):
    # the file names vertices 0, 5 and 10 only, so its own largest index
    # would size it 11 wide against the 274 of the target mesh
    d, p = puppet_files
    lines = [f"{j},{v},1.0" for j, v in enumerate([0, 5, 10])]
    (d / "regressor.csv").write_text("row,col,weight\n" + "\n".join(lines) + "\n")
    code, payload = run_cli(
        capsys,
        "transfer",
        "--source", str(d / "rest.obj"),
        "--source-kp", str(d / "rest_kp.json"),
        "--target", str(d / "posed.obj"),
        "--regressor", str(d / "regressor.csv"),
        "--tree", str(d / "tree.json"),
        "--out", str(d / "out"),
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


def test_transfer_target_mesh_beside_target_keypoints_exits_1(puppet_files, capsys):
    # the keypoints would make the mesh unread, so even a missing one is an error
    d, _ = puppet_files
    code = main([
        "transfer",
        "--source", str(d / "rest.obj"),
        "--source-kp", str(d / "rest_kp.json"),
        "--target-kp", str(d / "posed_kp.json"),
        "--target", str(d / "nope.obj"),
        "--tree", str(d / "tree.json"),
        "--out", str(d / "out"),
    ])
    assert code == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == (
        "error: posekit transfer: argument --target: not allowed with argument --target-kp"
    )
    assert not (d / "out").exists()


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


def test_transfer_config_with_the_deleted_optimizer_step_size_exits_1(puppet_files, capsys):
    # the twist solve's damping starts from the problem's curvature, so the
    # key that set it is gone, and a config that still sets it says so
    d, _ = puppet_files
    config = {"tree": "tree.json", "optimizer": {"max_iters": 3, "step_size": 1.0}}
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
    out = capsys.readouterr()
    assert out.err.splitlines() == ["error: unknown optimizer keys: ['step_size']"]
    assert "Traceback" not in out.err + out.out
    assert not (d / "out").exists()


@pytest.mark.parametrize(
    "block, message",
    [
        ({"optimizer": {"seed": 0}}, "unknown optimizer keys: ['seed']"),
        ({"refinement": {"enabled": "false"}}, "refinement.enabled must be true or false"),
        ({"gmm": {"optimize_radii": "no"}}, "gmm.optimize_radii must be true or false"),
        ({"refinement": {"step_size": 0}}, "refinement.step_size must be positive"),
        ({"gmm": {"radii": [0.5, float("nan")]}}, "radii must be finite and positive"),
        (
            {"gmm": {"radii": [0.5, -0.5], "optimize_radii": True}},
            "radii must be finite and positive",
        ),
        ({"loss_weights": {"cycle": "x"}}, "loss_weights.cycle must be a finite nonnegative"),
        ({"loss_weights": {"self": -1.0}}, "loss_weights.self must be a finite nonnegative"),
        ({"optimizer": 5}, "optimizer must be a JSON object, not 5"),
        ({"loss_weights": 5}, "loss_weights must be a JSON object, not 5"),
        ({"optimizer": {"tolerance": -1.0}}, "optimizer.tolerance must be nonnegative"),
        ({"refinement": {"ridge": -1.0}}, "refinement.ridge must be nonnegative"),
        ({"optimizer": {"tolerance": HUGE_INT}}, "optimizer.tolerance must be a finite number"),
        ({"refinement": {"step_size": HUGE_INT}}, "refinement.step_size must be a finite number"),
        ({"refinement": {"ridge": HUGE_INT}}, "refinement.ridge must be a finite number"),
        ({"loss_weights": {"cycle": HUGE_INT}}, "loss_weights.cycle must be a finite nonnegative"),
        ({"gmm": {"temperature": HUGE_INT}}, "gmm.temperature must be a finite number"),
        ({"gmm": {"radii": ["0.5", 0.5]}}, "gmm.radii must be finite and positive"),
        ({"gmm": {"radii": [True, 0.5]}}, "gmm.radii must be finite and positive"),
        ({"gmm": {"radii": [HUGE_INT, 0.5]}}, "gmm.radii must be finite and positive"),
        ({"optimiser": {"max_iters": 3}}, "unknown config keys: ['optimiser']"),
        ({"seed": 0, "refine": {}}, "unknown config keys: ['refine', 'seed']"),
        ({"loss_weights": {"keypoint": 2.0}}, "unknown loss_weights keys: ['keypoint']"),
        ({"gmm": {"temperature": 0}}, "gmm.temperature must be positive"),
        ({"gmm": {"radii": [0.5]}}, "gmm.radii must hold one radius per bone (2), not 1"),
        ({"loss_weights": {"edge": 0.0005}}, "unknown loss_weights keys: ['edge']"),
    ],
)
def test_transfer_bad_config_value_exits_1(puppet_files, capsys, block, message):
    d, _ = puppet_files
    (d / "config.json").write_text(json.dumps({"tree": "tree.json", **block}))
    code = main([
        "transfer",
        "--source", str(d / "rest.obj"),
        "--source-kp", str(d / "rest_kp.json"),
        "--target-kp", str(d / "posed_kp.json"),
        "--config", str(d / "config.json"),
        "--out", str(d / "out"),
    ])
    assert code == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and message in line


@pytest.mark.parametrize(
    "config_tree, tree_option, error",
    [
        ("smpl_24", "{d}/tree.json", None),  # radii sized for the 2-bone --tree tree
        ("tree.json", "smpl_24", "error: gmm.radii must hold one radius per bone (23), not 2"),
    ],
)
def test_transfer_checks_config_radii_against_the_tree_option(
    puppet_files, capsys, config_tree, tree_option, error
):
    # --tree replaces the config's tree before the radii count is checked
    d, _ = puppet_files
    config = {"tree": config_tree, "gmm": {"radii": [0.5, 0.5]}}
    (d / "config.json").write_text(json.dumps(config))
    code = main([
        "transfer",
        "--source", str(d / "rest.obj"),
        "--source-kp", str(d / "rest_kp.json"),
        "--target-kp", str(d / "posed_kp.json"),
        "--config", str(d / "config.json"),
        "--tree", tree_option.format(d=d),
        "--out", str(d / "out"),
    ])
    err = capsys.readouterr().err
    if error is None:
        assert code == 0 and (d / "out" / "refined.obj").is_file()
    else:
        assert code == 1 and err.splitlines() == [error]


def test_transfer_config_that_is_not_an_object_exits_1(puppet_files, capsys):
    d, _ = puppet_files
    (d / "config.json").write_text(json.dumps([{"tree": "tree.json"}]))
    code = main([
        "transfer",
        "--source", str(d / "rest.obj"),
        "--source-kp", str(d / "rest_kp.json"),
        "--target-kp", str(d / "posed_kp.json"),
        "--config", str(d / "config.json"),
        "--out", str(d / "out"),
    ])
    assert code == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "error: config must be a JSON object, not a list"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["transfer", "--source", "s.obj", "--source-kp", "s.json"], "required: --out"),
        (["transfer", "--source", "s.obj", "--source-kp", "s.json", "--out", "o",
          "--seed", "3"], "unrecognized arguments: --seed 3"),
        (["batch", "--manifest", "m.json", "--config", "c.json", "--out", "o",
          "--seed", "0"], "unrecognized arguments: --seed 0"),
        (["batch", "--manifest", "m.json", "--config", "c.json", "--out", "o",
          "--jobs", "two"], "argument --jobs: invalid int value: 'two'"),
        (["weights", "--mesh", "m.obj"], "required: --kp, --tree, --out"),
        (["no-such-command"], "invalid choice: 'no-such-command'"),
        ([], "required: command"),
    ],
)
def test_argument_errors_exit_1(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and message in line


def test_batch_jobs_below_one_exits_1(tmp_path, capsys):
    path, a = manifest_fixture(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"tree": a.tree.to_dict()}))
    code = main([
        "batch",
        "--manifest", str(path),
        "--config", str(tmp_path / "cfg.json"),
        "--out", str(tmp_path / "runs"),
        "--jobs", "0",
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: jobs must be a positive integer, not 0\n"
    assert not (tmp_path / "runs").exists()


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("v nan 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n", "vertex coordinates must be finite"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 1 2\n", "face repeats a vertex"),
        ("v 0 0 0\nv 0 0 0\nv 0 1 0\nf 1 2 3\n", "zero-length edge"),
        (
            "v 0 0 0\n# \xff\n",
            "'utf-8' codec can't decode byte 0xff in position 10: invalid start byte",
        ),
    ],
    ids=["nan_coordinate", "repeated_vertex", "zero_length_edge", "non_utf8"],
)
def test_eval_mesh_that_breaks_the_mesh_contract_exits_1(puppet_files, capsys, text, message):
    # in a run over many files the error line must say which one is bad
    d, _ = puppet_files
    # latin-1 writes each character as one byte, so a row can hold one that is not UTF-8
    (d / "bad.obj").write_bytes(text.encode("latin-1"))
    assert main(["eval", str(d / "rest.obj"), str(d / "bad.obj")]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"error: {d / 'bad.obj'}: {message}"


@pytest.mark.parametrize(
    "option, text, message",
    [
        ("--compare", "nan,0.5\n0.5,0.5\n", "weights must be finite"),
        ("--compare", "0.6,0.5\n0.5,0.5\n", "weight rows must sum to 1 (off by 1.000e-01)"),
        ("--regressor", "1,0,0\n0,0,0\n", "regressor has a zero row"),
        ("--regressor", "1,0,0\nnan,1,0\n", "regressor entries must be finite and nonnegative"),
        # sized to the 3 joints and 274 vertices of the target mesh, not to the index
        (
            "--regressor",
            "row,col,weight\n0,1000000000000,1.0\n",
            "regressor parse failure: index 1000000000000 is out of bounds for axis 1 with size 274",
        ),
        (
            "--regressor",
            "1," + "0" * 200000 + "\n",
            "regressor parse failure: field larger than field limit (131072)",
        ),
        # a dense grid must have the shape a sparse file is sized to
        (
            "--regressor",
            "1,0,0,0,0\n0,1,0,0,0\n0,0,1,0,0\n",
            "regressor parse failure: dense matrix is (3, 5), not (3, 274)",
        ),
    ],
    ids=[
        "nan_weight",
        "weight_row_sum",
        "zero_regressor_row",
        "nan_regressor_entry",
        "huge_sparse_index",
        "overlong_field",
        "dense_shape_mismatch",
    ],
)
def test_matrix_file_that_breaks_its_contract_exits_1(puppet_files, capsys, option, text, message):
    d, _ = puppet_files
    (d / "bad.csv").write_text(text)
    if option == "--compare":
        argv = ["weights", "--mesh", str(d / "rest.obj"), "--kp", str(d / "rest_kp.json"),
                "--out", str(d / "w.csv")]
    else:
        argv = ["transfer", "--source", str(d / "rest.obj"), "--source-kp",
                str(d / "rest_kp.json"), "--target", str(d / "posed.obj"), "--out", str(d / "out")]
    assert main(argv + ["--tree", str(d / "tree.json"), option, str(d / "bad.csv")]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"error: {d / 'bad.csv'}: {message}"


def test_dense_regressor_of_another_shape_beside_target_keypoints_exits_1(puppet_files, capsys):
    # the regressor only scores the source here, so a wrong shape must still exit 1
    d, _ = puppet_files
    (d / "r.csv").write_text("1,0,0,0,0\n0,1,0,0,0\n0,0,1,0,0\n")
    argv = ["transfer", "--source", str(d / "rest.obj"), "--source-kp", str(d / "rest_kp.json"),
            "--target-kp", str(d / "posed_kp.json"), "--tree", str(d / "tree.json"),
            "--regressor", str(d / "r.csv"), "--out", str(d / "out")]
    assert main(argv) == 1
    (line,) = capsys.readouterr().err.splitlines()
    message = "regressor parse failure: dense matrix is (3, 5), not (3, 274)"
    assert line == f"error: {d / 'r.csv'}: {message}"
    assert not (d / "out").exists()


def test_a_key_error_inside_a_command_propagates(monkeypatch):
    # no bad input raises KeyError, so one is a bug and must not exit 1
    def broken(args):
        raise KeyError("missing entry")

    monkeypatch.setitem(posekit.cli._COMMANDS, "eval", broken)
    with pytest.raises(KeyError, match="missing entry"):
        main(["eval", "a.obj", "b.obj"])


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


def test_transfer_keypoints_that_are_not_an_object_exit_1(puppet_files, capsys):
    d, _ = puppet_files
    (d / "bad_kp.json").write_text("[1, 2]")
    code = main([
        "transfer",
        "--source", str(d / "rest.obj"),
        "--source-kp", str(d / "bad_kp.json"),
        "--target-kp", str(d / "posed_kp.json"),
        "--tree", str(d / "tree.json"),
        "--out", str(d / "out"),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line == (
        f"error: {d / 'bad_kp.json'}: keypoints must be a JSON object whose "
        "'joints' is a list of [x, y, z] number triples"
    )
    assert not (d / "out").exists()


@pytest.mark.parametrize(
    "tree, message",
    [
        ([1, 2], "tree must be a JSON object with 'parents' and 'names'"),
        ({"parents": [-1, 0, 1], "names": 5}, "tree 'names' must be a list of strings"),
        (
            {"parents": [-1, 0.5, 1], "names": ["a", "b", "c"]},
            "tree 'parents' must be a list of integers",
        ),
        ({"parents": [-1, 0, 1]}, "tree must be a JSON object with 'parents' and 'names'"),
        (
            {"parents": [-1, 0, HUGE_INT], "names": ["a", "b", "c"]},
            "tree 'parents' must be a list of integers",
        ),
    ],
    ids=["not_an_object", "names_not_a_list", "fractional_parent", "no_names", "huge_parent"],
)
def test_ik_check_malformed_tree_exits_1(tmp_path, capsys, tree, message):
    kp = _random_pose(KinematicTree([-1, 0, 1]), np.random.default_rng(2))
    save_keypoints(kp, tmp_path / "kp.json")
    (tmp_path / "tree.json").write_text(json.dumps(tree))
    code = main([
        "ik-check",
        "--source-kp", str(tmp_path / "kp.json"),
        "--target-kp", str(tmp_path / "kp.json"),
        "--tree", str(tmp_path / "tree.json"),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line == f"error: {tmp_path / 'tree.json'}: {message}"


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


def test_batch_failing_pair_leaves_the_same_outputs_at_any_jobs(tmp_path, capsys):
    # identity c skins from a's rest pose but its "thin" pose has fewer
    # vertices, so the first pair fails inside pose_transfer
    path, a = manifest_fixture(tmp_path)
    thin = make_puppet(2, np.pi / 6, 0.0, seed=0, sides=12)
    save_mesh(thin.rest_mesh, tmp_path / "c_thin.obj")
    save_keypoints(thin.rest_keypoints, tmp_path / "c_thin.json")
    data = json.loads(path.read_text())
    data["identities"]["c"] = {
        "canonical": "rest",
        "poses": {
            "rest": data["identities"]["a"]["poses"]["rest"],
            "thin": {"mesh": "c_thin.obj", "keypoints": "c_thin.json"},
        },
    }
    data["pairs"].insert(0, {"name": "c_to_b", "source": ["c", "thin"], "target": ["b", "bent"]})
    path.write_text(json.dumps(data))
    cfg = TransferConfig(tree=a.tree)
    cfg.optimizer.max_iters = 3
    (tmp_path / "cfg.json").write_text(json.dumps(cfg.to_dict()))
    runs = {}
    for jobs in (1, 2, 3):
        out = tmp_path / f"runs{jobs}"
        code = main([
            "batch",
            "--manifest", str(path),
            "--config", str(tmp_path / "cfg.json"),
            "--out", str(out),
            "--jobs", str(jobs),
        ])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: canonical mesh must share the source vertex count\n"
        assert sorted(d.name for d in out.iterdir()) == ["a_self", "a_to_b"]
        runs[jobs] = {
            f.relative_to(out): f.read_bytes() for f in sorted(out.rglob("*")) if f.is_file()
        }
    assert runs[1] == runs[2] == runs[3]


@pytest.mark.parametrize(
    "pairs, reads",
    [
        ([("a", "rest", "b", "bent"), ("b", "rest", "a", "bent")], 2),
        ([("a", "rest", "b", "bent"), ("b", "rest", "a", "bent"), ("a", "bent", "a", "bent"),
          ("b", "bent", "b", "bent"), ("a", "rest", "a", "bent"), ("b", "rest", "b", "bent")], 4),
    ],
    ids=["2_pairs", "6_pairs"],
)
def test_batch_derives_edges_once_per_mesh_file(tmp_path, capsys, monkeypatch, pairs, reads):
    # the manifest names 4 mesh files, but only source and canonical meshes
    # are read (2_pairs: the two rest poses); every pair's coarse and refined
    # mesh carries its source's edges over instead of deriving them again
    path, a = manifest_fixture(tmp_path)
    data = json.loads(path.read_text())
    data["pairs"] = [
        {"name": f"p{i}", "source": [si, sp], "target": [ti, tp]}
        for i, (si, sp, ti, tp) in enumerate(pairs)
    ]
    path.write_text(json.dumps(data))
    cfg = TransferConfig(tree=a.tree)
    cfg.optimizer.max_iters = 3
    (tmp_path / "cfg.json").write_text(json.dumps(cfg.to_dict()))
    derived = []
    face_edges = posekit.mesh._face_edges

    def counted(faces):
        derived.append(1)
        return face_edges(faces)

    monkeypatch.setattr(posekit.mesh, "_face_edges", counted)
    code, payload = run_cli(
        capsys,
        "batch",
        "--manifest", str(path),
        "--config", str(tmp_path / "cfg.json"),
        "--out", str(tmp_path / "runs"),
    )
    assert code == 0 and len(payload) == len(pairs)
    assert len(derived) == reads


def _batch_files(tmp_path, path, a, out):
    # run `batch` on the manifest at `path`; return its exit code and every
    # output file's bytes, by path relative to `out`
    cfg = TransferConfig(tree=a.tree)
    cfg.optimizer.max_iters = 3
    (tmp_path / "cfg.json").write_text(json.dumps(cfg.to_dict()))
    code = main([
        "batch",
        "--manifest", str(path),
        "--config", str(tmp_path / "cfg.json"),
        "--out", str(out),
    ])
    files = sorted(out.rglob("*")) if out.exists() else []
    return code, {f.relative_to(out): f.read_bytes() for f in files if f.is_file()}


def test_batch_reads_no_target_only_mesh(tmp_path, capsys):
    # b's bent pose is only ever a target, so its mesh must exist but is not parsed
    path, a = manifest_fixture(tmp_path)
    valid = _batch_files(tmp_path, path, a, tmp_path / "valid")
    (tmp_path / "b_bent.obj").write_text("v 1 2\n")
    assert _batch_files(tmp_path, path, a, tmp_path / "runs") == valid
    assert valid[0] == 0 and capsys.readouterr().err == ""


@pytest.mark.parametrize("role", ["source", "canonical"])
def test_batch_malformed_source_or_canonical_mesh_exits_1(tmp_path, capsys, role):
    path, a = manifest_fixture(tmp_path)
    (tmp_path / "b_bent.obj").write_text("v 1 2\n")
    data = json.loads(path.read_text())
    if role == "canonical":
        data["identities"]["b"]["canonical"] = "bent"
    source = ["b", "bent" if role == "source" else "rest"]
    data["pairs"].append({"name": "b_to_a", "source": source, "target": ["a", "bent"]})
    path.write_text(json.dumps(data))
    code, files = _batch_files(tmp_path, path, a, tmp_path / "runs")
    captured = capsys.readouterr()
    assert code == 1 and files == {} and captured.out == ""
    assert captured.err == f"error: {tmp_path / 'b_bent.obj'}:1: malformed vertex record\n"


def test_batch_parses_a_mesh_named_by_two_identities_once(tmp_path, capsys, monkeypatch):
    # identity c names a's rest files by another spelling of the same path
    path, a = manifest_fixture(tmp_path)
    (tmp_path / "c").mkdir()
    data = json.loads(path.read_text())
    rest = {k: f"c/../{v}" for k, v in data["identities"]["a"]["poses"]["rest"].items()}
    data["identities"]["c"] = {"canonical": "rest", "poses": {"rest": rest}}
    data["pairs"].append({"name": "c_to_b", "source": ["c", "rest"], "target": ["b", "bent"]})
    path.write_text(json.dumps(data))
    parsed = []
    parse_obj = posekit.mesh._parse_obj

    def counted(text, obj_path):
        parsed.append(obj_path)
        return parse_obj(text, obj_path)

    monkeypatch.setattr(posekit.mesh, "_parse_obj", counted)
    code, files = _batch_files(tmp_path, path, a, tmp_path / "runs")
    assert code == 0 and parsed == [tmp_path / "a_rest.obj"]
    for name in ("coarse.obj", "refined.obj", "weights.csv", "summary.json"):
        assert files[Path("c_to_b", name)] == files[Path("a_to_b", name)]


@pytest.mark.parametrize(
    "where, value, message",
    [
        (("pairs", 0, "source"), [["a"], "rest"], "must be [identity, pose]"),
        (("identities", "a"), 5, "identity 'a' must be a JSON object"),
        (("identities", "a", "poses", "rest"), "a.obj", "pose 'rest' of 'a' must be"),
        (("pairs",), ["x"], "pair 'x' must be a JSON object"),
        (("pairs", 1, "name"), "a_to_b", "pair name 'a_to_b' is used twice"),
        (("pairs", 1, "name"), "../../esc", "'../../esc' must be one path component"),
        (("pairs", 1, "name"), "..", "pair name '..' must be one path component"),
    ],
)
def test_batch_malformed_manifest_exits_1(tmp_path, capsys, where, value, message):
    path, a = manifest_fixture(tmp_path)
    data = json.loads(path.read_text())
    parent = data
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    path.write_text(json.dumps(data))
    (tmp_path / "cfg.json").write_text(json.dumps({"tree": a.tree.to_dict()}))
    out = tmp_path / "deep" / "er" / "runs"
    code = main([
        "batch",
        "--manifest", str(path),
        "--config", str(tmp_path / "cfg.json"),
        "--out", str(out),
        "--jobs", "2",
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and message in line
    assert not (tmp_path / "deep").exists() and not (tmp_path / "esc").exists()


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("cfg.json", '{"tree": {"parents": [-1, 0, 1]', "Expecting ',' delimiter"),
        ("manifest.json", '{"identities": {"a": ', "Expecting value"),
        (
            "a_rest.json",
            f'{{"joints": [[0, 0, {HUGE_INT}], [0, 1, 0], [0, 2, 0]]}}',
            "keypoints must be a JSON object whose 'joints' is a list of",
        ),
        ("cfg.json", "[" * 100_000, "maximum recursion depth exceeded"),
    ],
    ids=["truncated_config", "truncated_manifest", "huge_keypoint_coordinate", "deep_config"],
)
def test_batch_malformed_json_file_exits_1(tmp_path, capsys, name, text, message):
    path, a = manifest_fixture(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"tree": a.tree.to_dict()}))
    (tmp_path / name).write_text(text)
    code = main([
        "batch",
        "--manifest", str(path),
        "--config", str(tmp_path / "cfg.json"),
        "--out", str(tmp_path / "runs"),
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: {tmp_path / name}: {message}")
    assert not (tmp_path / "runs").exists()


def _child_env():
    # the child interpreter imports the same posekit as this test run,
    # which pytest may have put on sys.path without an install
    package_root = str(Path(posekit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return env


def test_cli_import_leaves_scipy_unloaded():
    # only chamfer (``eval``) uses scipy.spatial, so no other command loads it
    code = "import sys, posekit.cli; print('scipy.spatial' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_child_env()
    )
    assert proc.returncode == 0 and proc.stdout == "False\n"


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
