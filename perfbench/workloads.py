"""The benchmark's workloads: seeded inputs, one timed op, a correctness gate.

Op ``i`` of a run draws its inputs from ``numpy.random.default_rng([seed,
i])`` and ``even_draws(seed, i)``, so the inputs depend only on the seed
and the op's position. Every op is called through the module attribute
(``transfer.pose_transfer``, ``cli.main``) at call time, so the tracer's
wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import posekit
from posekit import cli, mesh, transfer

PMD_BOUND = 1e-3
CYCLE_BOUND = 5e-3
TWIST_BOUND = np.deg2rad(1.0)
PAIR_FILES = (
    "coarse.obj",
    "refined.obj",
    "twists.json",
    "losses.jsonl",
    "weights.csv",
    "summary.json",
)

# Puppet sizes. "full" is what the benchmark measures; "tiny" keeps the
# same shapes small enough for the smoke test.
SIZES = {
    "full": {
        "supervised": {"segments": 4, "sides": 16, "rings_per_segment": 8},
        "cycle": {"segments": 2, "sides": 16, "rings_per_segment": 8},
        "batch": {"identities": 3, "segments": 8, "sides": 32, "rings_per_segment": 16},
    },
    "tiny": {
        "supervised": {"segments": 2, "sides": 8, "rings_per_segment": 4},
        "cycle": {"segments": 2, "sides": 8, "rings_per_segment": 4},
        "batch": {"identities": 2, "segments": 2, "sides": 8, "rings_per_segment": 4},
    },
}


@dataclass
class Outcome:
    ok: bool
    digest: str
    steps: int | None  # accepted twist steps, when the op's outputs show them
    detail: str


def chain_tree(segments: int) -> dict:
    """The puppet's kinematic tree as a config ``tree`` entry."""
    return {
        "parents": [-1] + list(range(segments)),
        "names": [f"joint_{i}" for i in range(segments + 1)],
    }


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


# Additive recurrence of the R2 low-discrepancy sequence (1/p, 1/p**2 for
# the plastic number p).
R2 = np.array([0.7548776662466927, 0.5698402909980532])


def even_draws(seed: int, op: int) -> np.ndarray:
    """Two uniforms in [0, 1) for op ``op``: the R2 sequence shifted by the seed.

    Solver work varies a lot with bend and twist. Spreading a run's ops
    evenly over the input ranges, instead of drawing them independently,
    makes a run's median depend much less on its seed.
    """
    shift = np.random.default_rng(seed).random(2)
    return (shift + (op + 1) * R2) % 1.0


def _scaled(u, lo, hi) -> float:
    return float(lo + (hi - lo) * u)


def _signed(u, lo, hi) -> float:
    """Map u in [0, 1) onto -[lo, hi) for u < 1/2 and +[lo, hi) above."""
    v = 2.0 * u - 1.0
    return float(np.copysign(_scaled(abs(v), lo, hi), v))


class Supervised:
    """``pose_transfer`` with a supervising target mesh, as in the README."""

    hops = 1  # scalable_ik calls per objective evaluation

    def __init__(self, size: str):
        self.size = SIZES[size]["supervised"]
        self.tree = chain_tree(self.size["segments"])

    def inputs(self, rng, even, workdir):
        bend = _scaled(even[0], 0.3, 0.8)
        twist = _signed(even[1], 0.2, 0.6)
        jitter_seed = int(rng.integers(2**31))
        s = self.size
        p = posekit.make_puppet(
            s["segments"],
            bend,
            twist,
            jitter_seed,
            sides=s["sides"],
            rings_per_segment=s["rings_per_segment"],
        )
        return SimpleNamespace(puppet=p, twist=twist, config=posekit.TransferConfig(tree=p.tree))

    def run(self, x):
        p = x.puppet
        return transfer.pose_transfer(
            p.rest_mesh,
            p.rest_keypoints,
            p.posed_keypoints,
            x.config,
            target_mesh=p.posed_mesh,
            weights=p.weights,
        )

    def check(self, x, result) -> Outcome:
        twist_err = abs(float(result.twists.phi[-1]) - x.twist)
        refined_pmd = mesh.pmd(result.refined, x.puppet.posed_mesh)
        totals = [b.total for b in result.losses]
        monotone = all(b <= a for a, b in zip(totals, totals[1:]))
        ok = twist_err <= TWIST_BOUND and refined_pmd <= PMD_BOUND and monotone
        digest = _sha(
            result.coarse.vertices, result.refined.vertices, result.twists.phi, totals
        )
        detail = (
            f"twist err {np.rad2deg(twist_err):.2e} deg, pmd {refined_pmd:.2e}, "
            f"monotone {monotone}"
        )
        return Outcome(ok, digest, len(result.losses) - 1, detail)

    def cleanup(self, x):
        pass


class Cycle:
    """``cycle_reconstruct`` on the acceptance suite's puppet trio shape."""

    hops = 2

    def __init__(self, size: str):
        self.size = SIZES[size]["cycle"]
        self.tree = chain_tree(self.size["segments"])

    def inputs(self, rng, even, workdir):
        bend = _scaled(even[0], np.pi / 6, np.pi / 3)
        twist = _signed(even[1], 0.2, 0.8)
        s = self.size

        def puppet(bend, twist, seed, radius):
            return posekit.make_puppet(
                s["segments"],
                bend,
                twist,
                seed,
                radius=radius,
                sides=s["sides"],
                rings_per_segment=s["rings_per_segment"],
            )

        a = puppet(bend, twist, 0, 0.25)
        return SimpleNamespace(
            source=a,
            target=puppet(bend, twist, 7, 0.3),
            third=puppet(bend / 2, 0.0, 7, 0.3),
            config=posekit.TransferConfig(tree=a.tree),
        )

    def run(self, x):
        return transfer.cycle_reconstruct(
            x.source.rest_mesh,
            x.source.rest_keypoints,
            x.target.posed_mesh,
            x.target.posed_keypoints,
            x.third.posed_mesh,
            x.third.posed_keypoints,
            x.config,
        )

    def check(self, x, error) -> Outcome:
        ok = bool(error <= CYCLE_BOUND)
        return Outcome(ok, _sha([error]), None, f"cycle error {error:.2e}")

    def cleanup(self, x):
        pass


class Batch:
    """One ``posekit batch`` command over a manifest written to disk."""

    hops = 1

    def __init__(self, size: str, jobs: int):
        self.size = SIZES[size]["batch"]
        self.tree = chain_tree(self.size["segments"])
        self.jobs = jobs

    def inputs(self, rng, even, workdir):
        """Identities with distinct radius and jitter; rest plus two bend-only poses.

        Twist cannot be seen from keypoints, so bend-only poses give every
        same-identity pair a known answer: the target mesh itself.
        """
        s = self.size
        workdir = Path(workdir)
        src = workdir / "in"
        src.mkdir(parents=True)
        identities, targets = {}, {}
        bent = ("bend1", "bend2")
        for i in range(s["identities"]):
            ident = f"id{i}"
            radius = float(rng.uniform(0.2, 0.25)) + 0.05 * i
            jitter_seed = int(rng.integers(2**31))
            poses = {}
            bends = {"rest": 0.0, **{b: float(rng.uniform(0.2, 0.6)) for b in bent}}
            for pose, bend in bends.items():
                p = posekit.make_puppet(
                    s["segments"],
                    bend,
                    0.0,
                    jitter_seed,
                    radius=radius,
                    sides=s["sides"],
                    rings_per_segment=s["rings_per_segment"],
                )
                stem = f"{ident}_{pose}"
                posekit.save_mesh(p.posed_mesh, src / f"{stem}.obj")
                posekit.save_keypoints(p.posed_keypoints, src / f"{stem}.json")
                poses[pose] = {"mesh": f"{stem}.obj", "keypoints": f"{stem}.json"}
                targets[(ident, pose)] = p.posed_mesh
            identities[ident] = {"canonical": "rest", "poses": poses}
        pairs = [
            {"name": f"{a}_to_{b}_{pose}", "source": [a, "rest"], "target": [b, pose]}
            for a in identities
            for b in identities
            for pose in bent
        ]
        (src / "manifest.json").write_text(json.dumps({"identities": identities, "pairs": pairs}))
        (src / "config.json").write_text(json.dumps({"tree": self.tree}))
        return SimpleNamespace(dir=workdir, src=src, out=workdir / "out", pairs=pairs, targets=targets)

    def argv(self, x, jobs: int) -> list:
        return [
            "batch",
            "--manifest",
            str(x.src / "manifest.json"),
            "--config",
            str(x.src / "config.json"),
            "--out",
            str(x.out),
            "--jobs",
            str(jobs),
        ]

    def run(self, x):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(self.argv(x, self.jobs))
        return code, stdout.getvalue()

    def check(self, x, outputs) -> Outcome:
        """Gate one batch command, then remove its output directory."""
        code, stdout = outputs
        try:
            digest = output_digest(x.out, stdout)
            if code != 0:
                return Outcome(False, digest, None, f"exit code {code}")
            summaries = json.loads(stdout)
            missing = [
                f"{pair['name']}/{f}"
                for pair in x.pairs
                for f in PAIR_FILES
                if not (x.out / pair["name"] / f).is_file()
            ]
            if missing:
                return Outcome(False, digest, None, f"missing outputs: {missing[:3]}")
            worst = max(
                mesh.pmd(
                    mesh.load_mesh(x.out / pair["name"] / "refined.obj"),
                    x.targets[tuple(pair["target"])],
                )
                for pair in x.pairs
                if pair["source"][0] == pair["target"][0]
            )
            steps = sum(summaries[pair["name"]]["iterations"] for pair in x.pairs)
            return Outcome(worst <= PMD_BOUND, digest, steps, f"worst same-identity pmd {worst:.2e}")
        finally:
            shutil.rmtree(x.out, ignore_errors=True)

    def cleanup(self, x):
        shutil.rmtree(x.dir, ignore_errors=True)


def output_digest(out_dir: Path, stdout: str) -> str:
    """sha256 over every output file (relative path and bytes) and the stdout."""
    h = hashlib.sha256(stdout.encode())
    for path in sorted(p for p in Path(out_dir).rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def make(name: str, size: str, jobs: int):
    if name == "supervised":
        return Supervised(size)
    if name == "cycle":
        return Cycle(size)
    if name == "batch":
        return Batch(size, jobs)
    raise ValueError(f"unknown workload {name!r}")
