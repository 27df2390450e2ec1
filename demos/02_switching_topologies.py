"""Topology changes from issue to issue, drawn at random.

The group does not keep one communication pattern: each issue uses one
of five matrices, picked uniformly at random.  Two things survive the
switching: the trajectory forgets its initial condition exponentially
fast, and an entrywise bound built from the worst-case eigenvector
profile still holds after the transient.
"""

from pathlib import Path

import numpy as np

from socialpower import (
    equilibrium_upper_bound,
    limit_gap,
    load_program,
    max_gamma_profile,
    simulate,
)

EXPERIMENTS = Path(__file__).resolve().parents[1] / "experiments"

# the five matrices under uniform random switching, seed 20170825
program = load_program(EXPERIMENTS / "group6_random.json")
profile = max_gamma_profile(program)
bound = equilibrium_upper_bound(profile)
print("entrywise worst-case eigenvector profile:", np.round(profile, 4))
print("power bound along any switching limit:  ", np.round(bound, 4))

# the seeded signal is realized identically on every call, so both runs
# see the same random topology sequence and can be compared
hat = simulate(program, np.array([0.95, 0.95, 0.95, 0.0, 0.0, 0.0]), 200)
tilde = simulate(program, np.array([0.05, 0.05, 0.05, 0.9, 0.05, 0.9]), 200)

gap = limit_gap(hat, tilde)
for s in (0, 5, 10, 20, 50):
    print(f"gap between the two runs at issue {s:3d}: {gap[s]:.3e}")

late = hat.states[21:]
print("worst bound excess after issue 20:", float((late - bound).max()))
