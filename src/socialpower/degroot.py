"""Opinion-pooling oracle for the power update.

Builds the full influence matrix W = X + (I - X)C, iterates opinions to
consensus, and solves for the consensus weight vector zeta, the
stationary vector of W.  Setting the next self-weights to zeta must
reproduce the reduced map exactly; zeta is solved from W alone and never
reads the eigenvector of C, which makes this module an independent check
on `dynamics`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Vertex
from .errors import NoConvergence, ValidationError
from .topology import RelativeInteractionMatrix, stationary_vector

DEFAULT_OPINION_TOL = 1e-12
MAX_OPINION_ITERS = 1_000_000


@dataclass(frozen=True)
class ConsensusResult:
    zeta: np.ndarray
    consensus_value: float
    iterations: int


def build_w(x: np.ndarray, C: RelativeInteractionMatrix) -> np.ndarray:
    """Influence matrix X + (I - X)C; row-stochastic with diagonal x."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x >= 1):
        raise ValidationError("self-weights must satisfy 0 <= x_i < 1")
    entries = C.entries if isinstance(C, RelativeInteractionMatrix) else np.asarray(C)
    return np.diag(x) + (1.0 - x)[:, None] * entries


def opinion_consensus(
    W: np.ndarray,
    y0: np.ndarray,
    tol: float = DEFAULT_OPINION_TOL,
    max_iters: int = MAX_OPINION_ITERS,
) -> ConsensusResult:
    """Iterate y <- Wy until the opinion spread closes, and extract zeta.

    zeta is the stationary vector of W from a direct solve
    (`stationary_vector`) rather than from the opinion limit; the opinion
    iteration is kept as a semantic cross-check of
    consensus_value = zeta . y0.  A periodic W (e.g. x = 0 on a
    permutation-like matrix) never mixes and is reported as an error.
    """
    W = np.asarray(W, dtype=float)
    y = np.asarray(y0, dtype=float).copy()
    for it in range(1, max_iters + 1):
        y = W @ y
        if y.max() - y.min() <= tol:
            break
    else:
        raise NoConvergence(
            "opinions did not reach consensus; W is not aperiodic", max_iters
        )
    zeta = stationary_vector(W)
    value = float(y.mean())
    expected = float(zeta @ np.asarray(y0, dtype=float))
    if abs(value - expected) > 10 * tol * max(1.0, abs(expected)):
        raise NoConvergence(
            f"consensus value {value} disagrees with zeta . y0 = {expected}"
        )
    return ConsensusResult(zeta, value, it)


def appraisal_step_via_zeta(x, C: RelativeInteractionMatrix):
    """Next power vector via the consensus weights of W(x).

    Must agree with the reduced map evaluated at the dominant left
    eigenvector of C; any discrepancy beyond 1e-10 is a defect in one of
    the two paths.
    """
    if isinstance(x, Vertex):
        return x
    return stationary_vector(build_w(x, C))
