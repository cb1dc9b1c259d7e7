"""Loss terms, their weighting, and plain numerical differentiation."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .kinematics import _settings
from .mesh import Mesh, _lengths, edge_lengths


@dataclass
class LossWeights:
    """Scalar weights of the total objective."""

    lambda_cycle: float = 1.0
    lambda_self: float = 1.0
    lambda_edge: float = 0.0005
    # the loss names, keys of LossBreakdown.to_dict, that from_dict also reads
    aliases = {
        "cycle": "lambda_cycle",
        "self": "lambda_self",
        "edge": "lambda_edge",
    }

    @classmethod
    def from_dict(cls, data: dict) -> "LossWeights":
        """Read field names (``lambda_cycle``, ...) or loss names (``cycle``, ...).

        The loss names are the keys of ``LossBreakdown.to_dict``. Each value
        must be a finite, nonnegative number (not a bool): the solver weighs
        each term's residuals by the square root of its weight.
        """
        return _settings(cls, "loss_weights", data)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class LossBreakdown:
    """Unweighted loss components plus their weighted total.

    The self-reconstruction component is stored as ``self_recon`` (an
    attribute cannot be called ``self``); its JSON key is "self".
    """

    cycle: float = 0.0
    self_recon: float = 0.0
    edge: float = 0.0
    total: float = 0.0

    def to_dict(self) -> dict:
        d = asdict(self)
        d["self"] = d.pop("self_recon")
        return d


def total_loss(
    weights: LossWeights,
    *,
    cycle: float = 0.0,
    self_recon: float = 0.0,
    edge: float = 0.0,
) -> LossBreakdown:
    """Weighted sum of the loss components, in fixed term order."""
    total = (
        weights.lambda_cycle * cycle
        + weights.lambda_self * self_recon
        + weights.lambda_edge * edge
    )
    return LossBreakdown(
        cycle=float(cycle),
        self_recon=float(self_recon),
        edge=float(edge),
        total=float(total),
    )


def edge_term(
    deformed_vertices: np.ndarray, edges: np.ndarray, rest_lengths: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean squared edge-length difference against precomputed rest lengths.

    ``rest_lengths`` holds one length per row of ``edges``, so a caller that
    evaluates many deformations of one mesh measures its rest edges once.
    Returns the value and the deformed edge lengths, which lets the caller
    reject a collapsed edge without measuring the edges again.
    """
    d = np.asarray(deformed_vertices, dtype=np.float64)
    ld = _lengths(d, edges)
    if edges.shape[0] == 0:
        return 0.0, ld
    diff = ld - rest_lengths
    return float(np.mean(diff * diff)), ld


def edge_discrepancy(
    source_vertices: np.ndarray, deformed_vertices: np.ndarray, edges: np.ndarray
) -> float:
    """Mean squared edge-length difference over an explicit edge list."""
    s = np.asarray(source_vertices, dtype=np.float64)
    return edge_term(deformed_vertices, edges, _lengths(s, edges))[0]


def edge_loss(source: Mesh, deformed: Mesh) -> float:
    """Edge-length preservation loss between a mesh and its deformation.

    Each undirected edge contributes once and the sum is divided by the
    edge count, so values are comparable across mesh resolutions.
    """
    if not source.same_connectivity(deformed):
        raise ValueError("edge_loss requires identical connectivity")
    return edge_term(deformed.vertices, source.edges, edge_lengths(source))[0]


def edge_discrepancy_gradient(
    source_vertices: np.ndarray, deformed_vertices: np.ndarray, edges: np.ndarray
) -> np.ndarray:
    """Gradient of ``edge_discrepancy`` in the deformed vertex positions."""
    s = np.asarray(source_vertices, dtype=np.float64)
    return _edge_term_gradient(deformed_vertices, edges, _lengths(s, edges))


def _edge_term_gradient(
    deformed_vertices: np.ndarray, edges: np.ndarray, rest_lengths: np.ndarray
) -> np.ndarray:
    """Gradient of ``edge_term``'s value in the deformed vertex positions."""
    d = np.asarray(deformed_vertices, dtype=np.float64)
    if edges.shape[0] == 0:
        return np.zeros_like(d)
    i, j = edges[:, 0], edges[:, 1]
    dv = d[i] - d[j]
    ld = np.linalg.norm(dv, axis=1)
    # A collapsed deformed edge has no defined direction; its subgradient 0
    # is used so the descent step stays finite.
    safe = np.where(ld > 0, ld, 1.0)
    coef = np.where(ld > 0, 2.0 * (ld - rest_lengths) / (edges.shape[0] * safe), 0.0)
    contrib = coef[:, None] * dv
    # bincount adds in array order: each vertex sums its i-end terms, then its j-end terms
    ends = np.concatenate([i, j])
    sums = [np.bincount(ends, np.concatenate([c, -c]), d.shape[0]) for c in contrib.T]
    return np.stack(sums, axis=1)


def numerical_gradient(
    f: Callable[[np.ndarray], float], x: np.ndarray, step: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient with per-component relative stepping.

    Component j is probed at x_j +/- h_j with h_j = step * (1 + |x_j|).
    Every probe must produce a finite value. No solver calls it; it is the
    reference that analytic derivatives are tested against.
    """
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for j in range(x.shape[0]):
        h = step * (1.0 + abs(float(x[j])))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        fp = float(f(xp))
        fm = float(f(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError("non-finite objective at a probe point")
        grad[j] = (fp - fm) / (2.0 * h)
    return grad
