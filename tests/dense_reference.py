"""Dense statevector over the 4**n path basis states: the test reference.

The search samples each round from the exact two-amplitude closed form
(`qmaze.measure_amplified`) and never builds a state. This module keeps
the dense simulation it is checked against: the uniform superposition
(built in closed form; identical to applying paired Hadamards to the
all-zeros register, in O(4**n) instead of O(n * 4**n)), a threshold phase
oracle that negates the amplitude of every path whose fitness strictly
exceeds a cutoff, and the standard diffusion reflection about the uniform
state. All three are data-parallel maps/reductions over the amplitude
array.
"""

import dataclasses
from functools import cached_property

import numpy as np

from qmaze import DEFAULT_N_CAP, FitnessTable


@dataclasses.dataclass
class StateVector:
    n: int
    amplitudes: np.ndarray  # complex128, length 4**n

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        a = self.amplitudes
        return a.real**2 + a.imag**2

    def copy(self) -> "StateVector":
        return StateVector(self.n, self.amplitudes.copy())


@dataclasses.dataclass(eq=False)
class OracleSpec:
    """A fitness table plus a cutoff; marked states are those with
    fitness strictly above the cutoff."""

    table: FitnessTable
    cutoff: int

    @cached_property
    def marked(self) -> np.ndarray:
        return self.table.values > self.cutoff


def uniform_superposition(n: int, cap: int = DEFAULT_N_CAP) -> StateVector:
    """Equal amplitude 1/2**n on every path basis state."""
    if n < 0:
        raise ValueError("register length must be non-negative")
    if n > cap:
        raise ValueError(f"register length {n} exceeds the cap {cap}")
    amps = np.full(4**n, 0.5**n, dtype=np.complex128)
    return StateVector(n, amps)


def apply_oracle(state: StateVector, oracle: OracleSpec) -> StateVector:
    """Negate the amplitude of every marked state; a pure phase flip."""
    if state.n != oracle.table.n:
        raise ValueError("state and oracle register lengths differ")
    return StateVector(state.n, np.where(oracle.marked, -state.amplitudes,
                                         state.amplitudes))


def apply_diffusion(state: StateVector) -> StateVector:
    """Reflect about the uniform state: a_k -> 2*mean(a) - a_k."""
    mean = state.amplitudes.mean()
    return StateVector(state.n, 2.0 * mean - state.amplitudes)


def grover_iterate(state: StateVector, oracle: OracleSpec, r: int) -> StateVector:
    """Apply (diffusion o oracle) r times.

    Runs in place on a private copy so long runs do not churn allocations.
    """
    if r < 0:
        raise ValueError("iteration count must be non-negative")
    if state.n != oracle.table.n:
        raise ValueError("state and oracle register lengths differ")
    a = state.amplitudes.copy()
    marked = oracle.marked
    for _ in range(r):
        np.negative(a, out=a, where=marked)
        mean = a.mean()
        np.negative(a, out=a)
        a += 2.0 * mean
    return StateVector(state.n, a)


def measure(state: StateVector, rng: np.random.Generator) -> int:
    """Sample one basis-state index with probability |amplitude|^2.

    The state object is left untouched; collapse is modeled by the caller
    discarding it.
    """
    p = state.probabilities()
    cdf = np.cumsum(p)
    u = rng.random() * cdf[-1]
    idx = int(np.searchsorted(cdf, u, side="right"))
    return min(idx, p.shape[0] - 1)


def marked_probability(state: StateVector, oracle: OracleSpec) -> float:
    """Total measurement probability of the oracle's marked set."""
    return float(state.probabilities()[oracle.marked].sum())
