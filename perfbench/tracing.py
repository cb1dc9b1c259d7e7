"""Per-layer spans around posekit's public functions, applied from outside.

Nothing in ``src/posekit`` is changed. A traced function is replaced at
every module attribute that refers to it, its lookup sites: ``transfer.py``
and ``cli.py`` import names directly, so patching only the defining module
would miss the calls that matter. ``Mesh`` constructions are counted by
wrapping ``Mesh.__post_init__``, which runs edge extraction and
validation. A name that no longer exists is reported as absent and counts
zero calls.

Spans are kept in memory. Each holds a name, start, end, parent span, op
id and thread; parents are tracked per thread, so spans from the
``run_manifest`` pool threads nest within their own thread.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict

MODULES = (
    "posekit",
    "posekit.kinematics",
    "posekit.mesh",
    "posekit.skinning",
    "posekit.objectives",
    "posekit.transfer",
    "posekit.cli",
)

# (span name, defining module, attribute, index of a file path argument
# whose size in bytes is recorded, or None)
TRACED = (
    ("kinematics.scalable_ik", "posekit.kinematics", "scalable_ik", None),
    ("kinematics.forward_kinematics", "posekit.kinematics", "forward_kinematics", None),
    ("mesh.pmd", "posekit.mesh", "pmd", None),
    ("mesh.load_mesh", "posekit.mesh", "load_mesh", 0),
    ("mesh.save_mesh", "posekit.mesh", "save_mesh", 1),
    ("skinning.lbs_apply", "posekit.skinning", "lbs_apply", None),
    ("skinning.gmm_weights", "posekit.skinning", "gmm_weights", None),
    ("skinning.save_weights", "posekit.skinning", "save_weights", 1),
    ("objectives.edge_loss", "posekit.objectives", "edge_loss", None),
    ("objectives.numerical_gradient", "posekit.objectives", "numerical_gradient", None),
    (
        "objectives.edge_discrepancy_gradient",
        "posekit.objectives",
        "edge_discrepancy_gradient",
        None,
    ),
    ("transfer.pose_transfer", "posekit.transfer", "pose_transfer", None),
    ("transfer.cycle_reconstruct", "posekit.transfer", "cycle_reconstruct", None),
    ("transfer.refine", "posekit.transfer", "refine", None),
    ("transfer.save_result", "posekit.transfer", "save_result", None),
    ("transfer.run_manifest", "posekit.transfer", "run_manifest", None),
    ("cli.main", "posekit.cli", "main", None),
)
MESH_SPAN = "mesh.Mesh"

# Per-layer metrics as (name, unit). ``calls``, ``self_s`` and ``bytes`` are
# per traced op; ``self_s`` is span time minus the time its child spans
# cover.
LAYER_METRICS = (
    ("mesh.Mesh.calls", "count"),
    ("mesh.Mesh.self_s", "s"),
    ("mesh.pmd.calls", "count"),
    ("mesh.pmd.self_s", "s"),
    ("mesh.load_mesh.calls", "count"),
    ("mesh.load_mesh.self_s", "s"),
    ("mesh.load_mesh.bytes", "B"),
    ("mesh.save_mesh.calls", "count"),
    ("mesh.save_mesh.self_s", "s"),
    ("mesh.save_mesh.bytes", "B"),
    ("kinematics.scalable_ik.calls", "count"),
    ("kinematics.scalable_ik.self_s", "s"),
    ("kinematics.forward_kinematics.calls", "count"),
    ("kinematics.forward_kinematics.self_s", "s"),
    ("skinning.lbs_apply.calls", "count"),
    ("skinning.lbs_apply.self_s", "s"),
    ("skinning.gmm_weights.calls", "count"),
    ("skinning.gmm_weights.self_s", "s"),
    ("skinning.save_weights.calls", "count"),
    ("skinning.save_weights.self_s", "s"),
    ("skinning.save_weights.bytes", "B"),
    ("objectives.edge_loss.calls", "count"),
    ("objectives.edge_loss.self_s", "s"),
    ("objectives.numerical_gradient.calls", "count"),
    ("objectives.numerical_gradient.self_s", "s"),
    ("objectives.edge_discrepancy_gradient.calls", "count"),
    ("objectives.edge_discrepancy_gradient.self_s", "s"),
    ("transfer.pose_transfer.self_s", "s"),
    ("transfer.cycle_reconstruct.self_s", "s"),
    ("transfer.refine.calls", "count"),
    ("transfer.refine.self_s", "s"),
    ("transfer.save_result.self_s", "s"),
    ("transfer.evals_per_op", "count"),
    ("transfer.steps_per_op", "count"),
    ("transfer.useful_eval_ratio", "ratio"),
    ("transfer.run_manifest.busy_ratio", "ratio"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_pct", "%"),
)


class Tracer:
    """Records spans while installed; ``op`` tags every span with an op id."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent, op, thread, nbytes)
        self.steps = []  # (op, accepted steps) of twist solves, refine excluded
        self.absent = []
        self.op = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, fn, path_arg):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1][0] if stack else None
            sid = next(self._ids)
            stack.append((sid, name))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                nbytes = 0
                if path_arg is not None and len(args) > path_arg:
                    try:
                        nbytes = os.path.getsize(args[path_arg])
                    except OSError:
                        pass
                self.spans.append(
                    (sid, name, start, end, parent, self.op, threading.get_ident(), nbytes)
                )

        return traced

    def _count_steps(self, fn):
        # The optimizer's accepted-step count is only visible in its return
        # value when the caller (cycle_reconstruct) returns a bare float.
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            stack = self._stack()
            if not (stack and stack[-1][1] == "transfer.refine"):
                self.steps.append((self.op, len(result[1]) - 1))
            return result

        return counted

    def _patch_everywhere(self, modules, original, replacement):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        modules = [importlib.import_module(m) for m in MODULES]
        self.absent = []
        for name, modname, attr, path_arg in TRACED:
            original = getattr(importlib.import_module(modname), attr, None)
            if original is None:
                self.absent.append(name)
                continue
            self._patch_everywhere(modules, original, self._span(name, original, path_arg))
        mesh_cls = getattr(importlib.import_module("posekit.mesh"), "Mesh", None)
        post_init = None if mesh_cls is None else mesh_cls.__dict__.get("__post_init__")
        if post_init is None:
            self.absent.append(MESH_SPAN)
        else:
            self._patches.append((mesh_cls, "__post_init__", post_init))
            mesh_cls.__post_init__ = self._span(MESH_SPAN, post_init, None)
        transfer = importlib.import_module("posekit.transfer")
        minimize = getattr(transfer, "_minimize", None)
        if minimize is None:
            self.absent.append("transfer._minimize")
        else:
            self._patch_everywhere([transfer], minimize, self._count_steps(minimize))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_totals(self) -> dict:
        """Per span name: calls, self_s, wall_s and bytes summed over all ops."""
        covered = defaultdict(float)
        for _, _, start, end, parent, _, _, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "wall_s": 0.0, "bytes": 0})
        for sid, name, start, end, _, _, _, nbytes in self.spans:
            t = totals[name]
            t["calls"] += 1
            t["wall_s"] += end - start
            t["self_s"] += end - start - covered[sid]
            t["bytes"] += nbytes
        return totals

    def write(self, path):
        """Write every span as one JSON line: id, name, start, end, parent, op, thread, bytes."""
        keys = ("id", "name", "start", "end", "parent", "op", "thread", "bytes")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(tracer, ops: int, hops: int, jobs: int, steps: int, overhead_pct: float) -> dict:
    """Per-op layer metrics from the spans of ``ops`` traced ops.

    ``hops`` is the number of ``scalable_ik`` calls per objective
    evaluation; ``steps`` the accepted optimizer steps over those ops;
    ``jobs`` the pool width that ``busy_ratio`` is measured against.
    """
    totals = tracer.layer_totals()
    values = {}
    for name, _ in LAYER_METRICS:
        layer, _, field = name.rpartition(".")
        if field in ("calls", "self_s", "bytes"):
            values[name] = totals[layer][field] / ops
    evals = totals["kinematics.scalable_ik"]["calls"] / hops
    values["transfer.evals_per_op"] = evals / ops
    values["transfer.steps_per_op"] = steps / ops
    values["transfer.useful_eval_ratio"] = steps / evals if evals else 0.0
    manifest_wall = totals["transfer.run_manifest"]["wall_s"]
    pair_wall = totals["transfer.pose_transfer"]["wall_s"] + totals["transfer.save_result"]["wall_s"]
    values["transfer.run_manifest.busy_ratio"] = (
        pair_wall / (manifest_wall * jobs) if manifest_wall else 0.0
    )
    values["trace.overhead_pct"] = overhead_pct
    units = dict(LAYER_METRICS)
    return {name: {"value": values[name], "unit": units[name]} for name, _ in LAYER_METRICS}
