"""Why the dynamics converge: a certificate you can check numerically.

The derivative of the issue-to-issue map, evaluated after one update,
factors through H = Theta Phi, a positive diagonal scaling Theta times
a symmetric Laplacian Phi. H has trace 1, real eigenvalues in [0, 1)
and induced 1-norm below 1. That norm bound is the contraction
certificate; this script computes it at random states, as
1 - contraction_margin (the closed form of 1 - ||H||_1), and runs the
packaged invariant suite.

"Real eigenvalues in [0, 1)" needs no eigensolve. Phi is symmetric,
has zero row sums and a nonpositive off-diagonal, so it is PSD by
Gershgorin. H is similar to the PSD matrix Theta^(1/2) Phi Theta^(1/2),
so its eigenvalues are real and >= 0, and each is at most ||H||_1 < 1.
"""

from pathlib import Path

import numpy as np

from socialpower import contraction_margin, df_map, jacobian, load_program
from socialpower.topology import dominant_left_eigenvector
from socialpower.verification import run_suite, sample_interior

EXPERIMENTS = Path(__file__).resolve().parents[1] / "experiments"

matrix = load_program(EXPERIMENTS / "group6_random.json").matrices[2]
gamma = dominant_left_eigenvector(matrix)
rng = np.random.default_rng(0)

worst = 1.0 - contraction_margin(df_map(sample_interior(6, rng, 500), gamma)).min()
print(f"worst ||H||_1 over 500 sampled post-update states: {worst:.6f}  (< 1)")

x = np.array([0.3, 0.1, 0.15, 0.2, 0.05, 0.2])
J = jacobian(x, df_map(x, gamma))
print("derivative column sums (zero: the map fixes the total):",
      np.round(J.sum(axis=0), 12))

print("\npackaged invariant suite:")
for res in run_suite(matrix, samples=200, seed=0):
    print(f"  {res.name}: {'pass' if res.passed else 'FAIL'}"
          f" (worst margin {res.worst_margin:.3e})")
