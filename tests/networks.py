"""Networks the tests share: the paper's six-person group, read from the
one copy in `experiments/`, and small constructors for stars, cycles and
mixes of cyclic shifts."""

from pathlib import Path

import numpy as np

from socialpower.topology import RandomUniform, TopologyProgram, load_program

EXPERIMENTS = Path(__file__).resolve().parents[1] / "experiments"
GROUP6 = EXPERIMENTS / "group6_random.json"


def interaction_set_6() -> list[np.ndarray]:
    """The five 6-node interaction matrices of the switching experiment,
    as writable float arrays."""
    return [m.entries.copy() for m in load_program(GROUP6).matrices]


def switching_program_6(seed: int = 20170825) -> TopologyProgram:
    """The five-matrix set under seeded uniform random switching."""
    return TopologyProgram(load_program(GROUP6).matrices, RandomUniform(seed))


def star_matrix(n: int, center: int = 0) -> np.ndarray:
    """Star network: the centre trusts everyone equally, all trust the centre."""
    c = np.zeros((n, n))
    others = [i for i in range(n) if i != center]
    c[center, others] = 1.0 / (n - 1)
    c[others, center] = 1.0
    return c


def near_star3(leak: float) -> np.ndarray:
    """A 3-node star whose leaves send `leak` to each other: gamma_1 =
    (1 - leak)/(2 - leak), about leak/4 below 1/2."""
    return np.array([[0.0, 0.5, 0.5], [1.0 - leak, 0.0, leak], [1.0 - leak, leak, 0.0]])


def cycle_matrix(n: int) -> np.ndarray:
    """Directed n-cycle permutation matrix (doubly stochastic)."""
    return np.roll(np.eye(n), 1, axis=1)


def shift_mix_matrix(n: int, shifts, weights) -> np.ndarray:
    """Convex combination of cyclic shift permutations; doubly stochastic,
    with zero diagonal as long as no shift is 0 mod n."""
    c = np.zeros((n, n))
    for shift, w in zip(shifts, weights):
        c += w * np.roll(np.eye(n), shift, axis=1)
    return c
