"""Opinion-pooling oracle for the power update.

Builds the full influence matrix W = X + (I - X)C of the opinion
process and solves for its consensus weight vector zeta, the stationary
vector of W: opinions y <- Wy reach the consensus value zeta . y0.
Setting the next self-weights to zeta must reproduce the reduced map
exactly; zeta is solved from W alone and never reads the eigenvector of
C, which makes this module an independent check on `dynamics`.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .topology import RelativeInteractionMatrix, stationary_vector


def build_w(x: np.ndarray, C: RelativeInteractionMatrix) -> np.ndarray:
    """Influence matrix X + (I - X)C; row-stochastic with diagonal x.

    A stack of self-weight vectors, shape (..., n), gives a stack of
    influence matrices, shape (..., n, n).
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x >= 1):
        raise ValidationError("self-weights must satisfy 0 <= x_i < 1")
    entries = C.entries if isinstance(C, RelativeInteractionMatrix) else np.asarray(C)
    w = (1.0 - x)[..., :, None] * entries
    diag = np.arange(x.shape[-1])
    w[..., diag, diag] += x
    return w


def appraisal_step_via_zeta(x, C: RelativeInteractionMatrix):
    """Next power vector via the consensus weights of W(x).

    Must agree with the reduced map evaluated at the dominant left
    eigenvector of C; any discrepancy beyond `Tolerances.oracle_gap` is a
    defect in one of the two paths.  A stack of states, shape (..., n),
    is solved as one stack of influence matrices.
    """
    return stationary_vector(build_w(x, C))
