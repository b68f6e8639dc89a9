"""Dense statevector over the 4**n path basis states.

Three primitives drive the search: the uniform superposition (built in
closed form; identical to applying paired Hadamards to the all-zeros
register, in O(4**n) instead of O(n * 4**n)), a threshold phase oracle
that negates the amplitude of every path whose fitness strictly exceeds
a cutoff, and the standard diffusion reflection about the uniform state.
All three are data-parallel maps/reductions over the amplitude array.

The search itself never builds a dense state. From the uniform state,
oracle and diffusion only rotate the plane spanned by the marked and the
unmarked uniform states, so after r calls every marked amplitude is
sin((2r+1)t)/sqrt(l) and every unmarked one cos((2r+1)t)/sqrt(N-l), with
sin(t)**2 = l/N (Boyer, Brassard, Hoyer, Tapp, quant-ph/9605034).
`measure_amplified` samples that distribution exactly in one pass over
the marked mask, whatever r is. The dense primitives stay as the
reference it is tested against.
"""

import dataclasses
import math
from functools import cached_property

import numpy as np

from .fitness import FitnessTable
from .paths import DEFAULT_N_CAP


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

    @property
    def marked_count(self) -> int:
        return int(np.count_nonzero(self.marked))


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


def measure_amplified(marked: np.ndarray, r: int,
                      rng: np.random.Generator) -> tuple[int, float]:
    """Measure the state r Grover calls leave the uniform state in.

    `marked` is the oracle's boolean mask. Returns the measured index and
    p = sin^2((2r+1)t), the marked-set probability that was sampled from.
    The outcome is marked with probability p, and uniform within its level
    set, as the two-amplitude closed form gives; no state is allocated.
    """
    if r < 0:
        raise ValueError("iteration count must be non-negative")
    num_states = marked.shape[0]
    l = int(np.count_nonzero(marked))
    if l in (0, num_states):
        p = float(l != 0)  # exact: the oracle is the identity or a global phase
    else:
        p = math.sin((2 * r + 1) * math.asin(math.sqrt(l / num_states))) ** 2
    hit = rng.random() < p
    size = l if hit else num_states - l
    if 2 * size >= num_states:
        # Rejection: a uniform index lands in the level set w.p. >= 1/2, and
        # the first one that does is uniform over it.
        while True:
            idx = int(rng.integers(num_states))
            if marked[idx] == hit:
                return idx, p
    level = np.flatnonzero(marked if hit else ~marked)
    return int(level[rng.integers(size)]), p


def marked_count(table: FitnessTable, cutoff: int) -> int:
    """How many path indices score strictly above the cutoff."""
    return int(np.count_nonzero(table.values > cutoff))


def marked_probability(state: StateVector, oracle: OracleSpec) -> float:
    """Total measurement probability of the oracle's marked set."""
    return float(state.probabilities()[oracle.marked].sum())
