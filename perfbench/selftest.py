"""The benchmark's own tests, at tiny sizes.

    python3 perfbench/selftest.py

- every metric named in BENCHMARK.json appears for every workload, with
  0 failed ops;
- ``posekit batch`` writes byte-identical outputs at ``--jobs 1`` and
  ``--jobs 2``, as the README promises;
- a traced name that does not exist is reported absent, and uninstalling
  the tracer restores every patched attribute;
- in a directory that holds only BENCHMARK.json and the benchmark, the run
  fails without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from posekit import cli  # noqa: E402

SCRATCH = run.STATE / "selftest"


def check_every_metric_appears():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", "1", "--seconds", "1", "--tiny"],
        capture_output=True,
        text=True,
        timeout=run.CHILD_TIMEOUT_S,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for workload in (w["name"] for w in spec["workloads"]):
        for name in names:
            metric = result["metrics"].get(f"{workload}.{name}")
            assert metric is not None, f"{workload}: {name} missing"
            assert isinstance(metric["value"], (int, float)), f"{workload}: {name} not a number"


def check_jobs_byte_identical():
    wl = workloads.Batch("tiny", jobs=2)
    x = wl.inputs(np.random.default_rng([1, 0]), workloads.even_draws(1, 0), SCRATCH / "jobs")
    try:
        outputs = {}
        for jobs in (1, 2):
            x.out = SCRATCH / "jobs" / f"out{jobs}"
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(wl.argv(x, jobs))
            assert code == 0, f"--jobs {jobs} exited {code}"
            outputs[jobs] = {
                p.relative_to(x.out): p.read_bytes() for p in sorted(x.out.rglob("*")) if p.is_file()
            }
            outputs[jobs]["stdout"] = stdout.getvalue()
        assert outputs[1].keys() == outputs[2].keys(), "different output files"
        differ = [str(p) for p in outputs[1] if outputs[1][p] != outputs[2][p]]
        assert not differ, f"--jobs 1 and --jobs 2 differ in {differ}"
    finally:
        wl.cleanup(x)


def check_tracer_absent_and_restore():
    import posekit.transfer

    before = dict(vars(posekit.transfer))
    saved = tracing.TRACED
    tracing.TRACED = saved + (("objectives.gone", "posekit.objectives", "no_such_function", None),)
    try:
        tracer = tracing.Tracer()
        tracer.install()
        assert "objectives.gone" in tracer.absent, tracer.absent
        assert posekit.transfer.lbs_apply is not before["lbs_apply"], "lookup site not wrapped"
        tracer.uninstall()
    finally:
        tracing.TRACED = saved
    changed = [k for k, v in vars(posekit.transfer).items() if before.get(k) is not v]
    assert not changed, f"not restored: {changed}"


def check_bare_directory_fails():
    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        child = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "supervised", "--seed", "1", "--seconds", "1"],
            capture_output=True,
            text=True,
            timeout=180,
            cwd=bare,
        )
        assert child.returncode != 0, "run succeeded without sources"
        assert '"correct"' not in child.stdout, "run printed a result without sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    SCRATCH.mkdir(parents=True, exist_ok=True)
    failures = 0
    for check in (
        check_tracer_absent_and_restore,
        check_jobs_byte_identical,
        check_bare_directory_fails,
        check_every_metric_appears,
    ):
        try:
            check()
            print(f"PASS {check.__name__}")
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {check.__name__}: {exc}")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
