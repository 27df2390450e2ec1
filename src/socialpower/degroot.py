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


def build_w(x: np.ndarray, C: RelativeInteractionMatrix | np.ndarray) -> np.ndarray:
    """Influence matrix X + (I - X)C; row-stochastic with diagonal x.

    A stack of self-weight vectors, shape (..., n), gives a stack of
    influence matrices, shape (..., n, n).  `C` is a
    RelativeInteractionMatrix, or a stack of their entries whose leading
    axes broadcast against those of x: entries (K, 1, n, n) pair
    matrix k with the rows x[k] of a (K, S, n) stack, and are not copied
    per row.
    """
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0) & (x < 1)):  # a NaN entry fails too
        raise ValidationError("self-weights must satisfy 0 <= x_i < 1")
    entries = C.entries if isinstance(C, RelativeInteractionMatrix) else C
    w = (1.0 - x)[..., :, None] * entries
    diag = np.arange(x.shape[-1])
    w[..., diag, diag] += x
    return w


def appraisal_step_via_zeta(x, C: RelativeInteractionMatrix | np.ndarray):
    """Next power vector via the consensus weights of W(x).

    Must agree with the reduced map evaluated at the dominant left
    eigenvector of C; any discrepancy beyond `Tolerances.oracle_gap` is a
    defect in one of the two paths.  A stack of states, shape (..., n),
    is solved as one stack of influence matrices; `C` is as in `build_w`.
    """
    return stationary_vector(build_w(x, C))
