"""posekit benchmark: one workload timed end to end, or traced per layer.

    python3 perfbench/run.py --workload supervised --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each workload is a closed loop with one client in this process: the next op
starts when the previous one has returned, for about ``--seconds`` (at
least one op). An op is one user-facing call: one ``pose_transfer``, one
``cycle_reconstruct`` or one ``posekit batch`` command. Input generation and
correctness checks run between ops and are not timed.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
fresh interpreters of importing posekit and building the config),
``op_p50_s``, ``ops_per_s`` (ops per second of time spent inside ops) and
``peak_rss_mb``. ``--trace 1`` runs every op's inputs twice, untraced and
traced in alternating order, reports the per-layer metrics of the traced
ops, and the tracing overhead as the drop in ops per second between the
two. Every op's outputs are hashed; a digest that differs from an earlier
run of the same code on the same inputs fails the op.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--workload all`` runs every
workload in both modes in child processes and prints every metric.
State (digest ledger, run records, spans) goes to ``.perfbench/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
WORKLOADS = ("supervised", "batch", "cycle")
BATCH_JOBS = 2
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 600

SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import posekit.cli
posekit.TransferConfig.from_dict({"tree": json.loads(sys.argv[2])})
print(time.perf_counter() - t0)
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    return parser.parse_args(argv)


def pin_blas(workload: str) -> int:
    """Caller threads x BLAS threads <= nproc. Must run before numpy loads."""
    callers = BATCH_JOBS if workload == "batch" else 1
    threads = max(1, len(os.sched_getaffinity(0)) // callers)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def blas_threads_in_use():
    """Thread count reported by numpy's bundled scipy-openblas, if present."""
    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            return int(get())
    return None


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads_in_use": blas_threads_in_use(),
    }


def code_fingerprint() -> str:
    """sha256 of the package and benchmark sources: 'the same code'."""
    h = hashlib.sha256()
    files = sorted(SRC.joinpath("posekit").rglob("*.py")) + sorted(SRC.joinpath("posekit").rglob("*.json"))
    for path in files + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def setup_times(tree: dict) -> list:
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(tree)],
            capture_output=True,
            text=True,
            timeout=60,
            cwd=ROOT,
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up child failed: {child.stderr.strip()}")
        times.append(float(child.stdout.split()[-1]))
    return times


class Ledger:
    """Op digests by (workload, size, seed, op index) for one code fingerprint."""

    def __init__(self, path: Path, fingerprint: str):
        self.path = path
        self.fingerprint = fingerprint
        self.digests = {}
        if path.is_file():
            data = json.loads(path.read_text())
            if data.get("fingerprint") == fingerprint:
                self.digests = data["digests"]

    def agrees(self, key: str, digest: str) -> bool:
        return self.digests.setdefault(key, digest) == digest

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"fingerprint": self.fingerprint, "digests": self.digests}))
        os.replace(tmp, self.path)


def execute(wl, x, tracer, op):
    """Run and gate one op. Returns (outcome or None if it raised, seconds)."""
    if tracer is not None:
        tracer.op = op
        tracer.install()
    start = time.perf_counter()
    try:
        out = wl.run(x)
        elapsed = time.perf_counter() - start
    except Exception:
        traceback.print_exc()
        return None, time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    try:
        return wl.check(x, out), elapsed
    except Exception:
        traceback.print_exc()
        return None, elapsed


def tail_percentile(times: list):
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for q in (99, 95, 90, 75):
        if len(times) * (100 - q) / 100 >= 10:
            return q, statistics.quantiles(times, n=100)[q - 1]
    return None


def run_workload(args) -> int:
    blas = pin_blas(args.workload)
    if not (SRC / "posekit" / "__init__.py").is_file():
        print(f"error: no posekit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import posekit

    if Path(posekit.__file__).resolve().parent != (SRC / "posekit").resolve():
        print(f"error: posekit imported from {posekit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    size = "tiny" if args.tiny else "full"
    wl = workloads.make(args.workload, size, BATCH_JOBS)
    STATE.mkdir(exist_ok=True)
    ledger = Ledger(STATE / "digests.json", code_fingerprint())
    setup = [] if args.trace else setup_times(wl.tree)
    tracer = tracing.Tracer() if args.trace else None

    times = {False: [], True: []}  # op seconds, by traced
    steps = []
    attempted = failed = 0
    digests = []
    workdir = STATE / "work" / str(os.getpid())
    start = time.perf_counter()
    op = 0
    try:
        # Another op starts only while it should end less than half an op
        # past --seconds, so a run lasts about --seconds whatever the op length.
        while op == 0 or (time.perf_counter() - start) * (1.0 + 0.5 / op) < args.seconds:
            rng = np.random.default_rng([args.seed, op])
            x = wl.inputs(rng, workloads.even_draws(args.seed, op), workdir / str(op))
            modes = ((False, True) if op % 2 == 0 else (True, False)) if args.trace else (False,)
            try:
                for traced in modes:
                    attempted += 1
                    outcome, elapsed = execute(wl, x, tracer if traced else None, op)
                    times[traced].append(elapsed)
                    key = f"{args.workload}/{size}/{args.seed}/{op}"
                    if outcome is None:
                        failed += 1
                        continue
                    agrees = ledger.agrees(key, outcome.digest)
                    if not (outcome.ok and agrees):
                        failed += 1
                        print(f"op {op} failed: {outcome.detail}, digest agrees {agrees}")
                    digests.append(outcome.digest)
                    if traced:
                        steps.append(outcome.steps)
            finally:
                wl.cleanup(x)
            op += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ledger.save()

    info = machine()
    run_digest = hashlib.sha256("".join(digests).encode()).hexdigest()
    untraced = times[False]
    if args.trace:
        traced_ops = len(times[True])
        if None in steps:  # the op's outputs do not show steps: use the optimizer's count
            n_steps = sum(s for _, s in tracer.steps)
        else:
            n_steps = sum(steps)
        overhead = 100.0 * (1.0 - sum(untraced) / sum(times[True]))
        metrics = tracing.layer_metrics(tracer, traced_ops, wl.hops, BATCH_JOBS, n_steps, overhead)
        tracer.write(STATE / f"spans-{args.workload}.jsonl")
        if tracer.absent:
            print(f"absent (counted as zero): {', '.join(tracer.absent)}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "op_p50_s": {"value": statistics.median(untraced), "unit": "s"},
            "ops_per_s": {"value": len(untraced) / sum(untraced), "unit": "1/s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
        tail = tail_percentile(untraced)
        print(
            f"ops {len(untraced)}; "
            + (f"op_p{tail[0]}_s {tail[1]:.6g}" if tail else "too few ops for a tail percentile")
        )
    print(f"machine: {json.dumps(info, sort_keys=True)}")
    print(f"blas threads pinned: {blas}; output digest: {run_digest}")
    for name, m in metrics.items():
        print(f"{args.workload:<11} {name:<44} {m['value']:>14.6g} {m['unit']}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": size,
        "machine": info,
        "digest": run_digest,
        "op_digests": digests,
        "op_times": times[bool(args.trace)],
        "metrics": metrics,
    }
    with open(STATE / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced and traced, each in its own interpreter."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
            argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            if args.tiny:
                argv.append("--tiny")
            child = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
            if child.returncode != 0:
                print(child.stdout + child.stderr, file=sys.stderr)
                return child.returncode
            result = json.loads(child.stdout.splitlines()[-1])
            print(f"{workload} trace={trace}: failed {result['failed']} of {result['attempted']} ops")
            for name, m in result["metrics"].items():
                print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
                merged["metrics"][f"{workload}.{name}"] = m
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
