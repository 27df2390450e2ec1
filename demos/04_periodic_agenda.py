"""A committee that alternates between two meeting formats.

With a periodic topology schedule the power vector does not settle on a
single point: it settles on a short cycle, one point per phase.  Each
point is the fixed point of the corresponding composite map, and the
points are chained to each other by the single-issue maps.
"""

import numpy as np

from socialpower import Periodic, TopologyProgram, simulate, validate
from socialpower.fixtures import interaction_set_6
from socialpower.periodic import periodic_fixed_points, verify_periodic_limit

matrices = tuple(validate(m) for m in interaction_set_6()[1:3])
program = TopologyProgram(matrices, Periodic((0, 1)))

limit = periodic_fixed_points(program)
for p, y in enumerate(limit.fixed_points):
    print(f"phase {p + 1} fixed point:", np.round(y, 4))
print("chain residuals (each point maps to the next):",
      [f"{r:.1e}" for r in limit.chain_residuals])

traj = simulate(program, np.array([0.9, 0.02, 0.02, 0.02, 0.02, 0.02]), issues=120)
ok, worst = verify_periodic_limit(traj, limit, burn_in=40)
print(f"simulation matches the alternating limit: {ok} (worst deviation {worst:.2e})")

# the last few states visibly alternate between the two points
for s in range(116, 121):
    print(f"state at issue {s}:", np.round(traj.states[s], 4))
