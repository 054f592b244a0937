"""Birkhoff-von-Neumann schedule synthesis.

Any doubly stochastic bandwidth-target matrix decomposes into a convex
combination of permutation matrices (Birkhoff 1946); each permutation is a
matching the OCS layer can realize, and the weights become slot shares.
This is the general machinery behind the paper's "Expressivity" discussion
(section 5): gravity models, non-uniform clique sizes, or anti-affinity
patterns all reduce to a target matrix handed to this decomposition.

:func:`sinkhorn_scale` projects an arbitrary positive demand matrix to the
doubly stochastic polytope first; :func:`schedule_from_decomposition`
quantizes the weights into an integral slot schedule with evenly spread
occurrences.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import DecompositionError, ControlPlaneError
from ..schedules.matching import Matching
from ..schedules.schedule import ExplicitSchedule
from ..util import check_positive_int

__all__ = ["birkhoff_von_neumann", "schedule_from_decomposition", "sinkhorn_scale"]


def sinkhorn_scale(
    matrix: np.ndarray, iterations: int = 500, tol: float = 1e-9
) -> np.ndarray:
    """Project a matrix with positive row/column sums to doubly stochastic
    form by Sinkhorn-Knopp alternating normalization.

    The zero pattern is preserved (a zero diagonal stays zero), so the
    result is still OCS-realizable without self-loops — provided the
    support admits a doubly stochastic scaling (it does for the dense
    off-diagonal demand matrices the control plane produces).
    """
    m = np.array(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ControlPlaneError("matrix must be square")
    if (m < 0).any():
        raise ControlPlaneError("matrix entries must be non-negative")
    if (m.sum(axis=1) == 0).any() or (m.sum(axis=0) == 0).any():
        raise ControlPlaneError("every row and column needs positive mass")
    for _ in range(iterations):
        m /= m.sum(axis=1, keepdims=True)
        m /= m.sum(axis=0, keepdims=True)
        row_err = np.abs(m.sum(axis=1) - 1.0).max()
        if row_err < tol:
            break
    return m


def _find_positive_matching(support: np.ndarray) -> Optional[np.ndarray]:
    """Perfect matching on the bipartite support graph, or None.

    Returns a permutation array ``perm`` with ``support[i, perm[i]]`` True
    for all i.  Solved as a min-cost assignment (off-support entries cost
    1): the assignment is perfect on the support iff the optimum costs 0.
    The solver is a deterministic C routine, so the decomposition — and
    every schedule synthesized from it — is identical across processes
    (a graph-search tie-break that iterated hash-ordered node sets here
    would leak ``PYTHONHASHSEED`` into schedules, goldens, and the
    content-addressed sweep cache).
    """
    # Imported here so ``import repro`` does not pay for scipy.
    from scipy.optimize import linear_sum_assignment

    cost = np.where(support, 0.0, 1.0)
    rows, cols = linear_sum_assignment(cost)
    if cost[rows, cols].sum() > 0:
        return None
    perm = np.empty(support.shape[0], dtype=np.int64)
    perm[rows] = cols
    return perm


def birkhoff_von_neumann(
    matrix: np.ndarray,
    max_terms: Optional[int] = None,
    tol: float = 1e-9,
) -> List[Tuple[float, Matching]]:
    """Decompose a doubly stochastic zero-diagonal matrix into matchings.

    Returns ``(weight, matching)`` terms with weights summing to ~1.  The
    classic greedy algorithm: find a perfect matching on the positive
    support, peel off the minimum entry along it, repeat.  Terminates in
    at most ``(n-1)^2 + 1`` terms (Marcus-Ree); ``max_terms`` defaults to
    that bound.

    Raises :class:`DecompositionError` (with the unexpressed residual) if
    no perfect matching exists on the remaining support — i.e. the input
    was not (close enough to) doubly stochastic.
    """
    residual = np.array(matrix, dtype=float)
    n = residual.shape[0]
    if residual.shape != (n, n) or n < 2:
        raise ControlPlaneError("matrix must be square, at least 2x2")
    if (residual < -tol).any():
        raise ControlPlaneError("matrix entries must be non-negative")
    if np.abs(np.diagonal(residual)).max() > tol:
        raise ControlPlaneError("matrix diagonal must be zero (no self-circuits)")
    row_sums = residual.sum(axis=1)
    col_sums = residual.sum(axis=0)
    scale = row_sums.mean()
    if scale <= tol:
        raise ControlPlaneError("matrix is (numerically) zero")
    if np.abs(row_sums - scale).max() > 1e-6 * scale or np.abs(
        col_sums - scale
    ).max() > 1e-6 * scale:
        raise ControlPlaneError(
            "matrix must have equal row and column sums; apply sinkhorn_scale first"
        )
    residual /= scale

    if max_terms is None:
        max_terms = (n - 1) ** 2 + 1
    max_terms = check_positive_int(max_terms, "max_terms")

    # Numerical slack: greedy peeling accumulates float error of order
    # n * eps per term, so termination uses a looser threshold than the
    # per-entry support tolerance.  Both the in-loop and post-loop checks
    # are *relative* to the peeled mass (the matrix is normalized to unit
    # row sums, so peeled mass approaches 1): sub-tolerance dust entries
    # must not burn the term budget, and exhausting it with only dust
    # left is convergence, not failure.
    done_threshold = max(100 * tol, 1e-7)
    terms: List[Tuple[float, Matching]] = []
    peeled = 0.0
    while True:
        remaining = float(residual.sum()) / n
        if remaining < done_threshold * max(peeled, 1.0):
            break
        if len(terms) >= max_terms:
            raise DecompositionError(
                f"did not converge in {max_terms} terms; residual {remaining:.3g}",
                residual=remaining,
            )
        perm = _find_positive_matching(residual > tol)
        if perm is None:
            if remaining < 1e-6:
                break  # leftover is numerical dust, not real demand
            raise DecompositionError(
                f"support lost perfect matchings with residual mass "
                f"{remaining:.3g} per node",
                residual=remaining,
            )
        weight = float(residual[np.arange(n), perm].min())
        if weight <= tol:
            raise DecompositionError(
                "degenerate matching weight; input likely not doubly stochastic",
                residual=remaining,
            )
        residual[np.arange(n), perm] -= weight
        np.clip(residual, 0.0, None, out=residual)
        if weight < done_threshold * max(peeled, 1.0):
            # Dust peel: the matching's bottleneck entry is negligible
            # relative to the mass already expressed, i.e. float noise
            # from earlier subtractions, not real demand.  Discard it
            # without spending a term — emitting it would pollute the
            # decomposition and, under a caller-capped budget, make the
            # final residual check fail on noise.  Each peel still zeroes
            # at least one support entry, so the loop stays bounded.
            continue
        terms.append((weight, Matching(perm)))
        peeled += weight
    return terms


def schedule_from_decomposition(
    terms: Sequence[Tuple[float, Matching]],
    period: int,
) -> ExplicitSchedule:
    """Quantize BvN weights into an integral slot schedule.

    Slot counts are apportioned by largest remainder (every term with
    positive weight that rounds to zero is dropped); each matching's slots
    are spread across the period round-robin so realized worst-case gaps
    stay close to the fluid ideal.
    """
    period = check_positive_int(period, "period")
    if not terms:
        raise ControlPlaneError("empty decomposition")
    weights = np.array([w for w, _ in terms], dtype=float)
    if (weights <= 0).any():
        raise ControlPlaneError("weights must be positive")
    shares = weights / weights.sum() * period
    counts = np.floor(shares).astype(int)
    remainder = period - int(counts.sum())
    order = np.argsort(shares - counts)[::-1]
    for idx in order[:remainder]:
        counts[idx] += 1
    if counts.sum() != period:
        raise ControlPlaneError("slot apportionment failed")

    # Interleave: repeatedly emit the matching with the largest remaining
    # fractional backlog (a Bresenham-style spread).
    credits = np.zeros(len(terms), dtype=float)
    remaining = counts.astype(float).copy()
    rates = counts / period
    slots: List[Matching] = []
    for _ in range(period):
        credits += rates
        eligible = np.where(remaining > 0, credits, -np.inf)
        pick = int(np.argmax(eligible))
        if not np.isfinite(eligible[pick]):
            raise ControlPlaneError("ran out of slots to emit")
        credits[pick] -= 1.0
        remaining[pick] -= 1
        slots.append(terms[pick][1])
    return ExplicitSchedule(slots)
