"""Iterative threshold search for the maximum-fitness path.

Each round marks every path whose fitness strictly exceeds the current
cutoff, amplifies the marked set with Grover iterations on a fresh uniform
state, and measures once. From the uniform state, oracle and diffusion
only rotate the plane spanned by the marked and the unmarked uniform
states, so after r calls every marked amplitude is sin((2r+1)t)/sqrt(l)
and every unmarked one cos((2r+1)t)/sqrt(N-l), with sin(t)**2 = l/N
(Boyer, Brassard, Hoyer, Tapp, quant-ph/9605034). `measure_amplified`
samples that distribution exactly, so a round costs one pass over the
table whatever its iteration count and no state is allocated.

A measurement that beats the cutoff is accepted and becomes the new
cutoff, so accepted cutoffs increase strictly. The run stops when the
round budget is used up, or early once no state is marked: an empty marked
set certifies the cutoff is the global maximum. The certificate uses the
simulator's access to the full table, so it can be switched off to model a
setting where only oracle queries are available.

`round_iterations` holds the whole per-round choice of the iteration
count r, under one of two policies:

* ``known_count`` reads the exact marked count l from the table (again a
  simulator privilege) and uses floor(pi / (4t)) with sin(t)**2 = l/N, the
  fewest calls that bring (2r+1)t nearest to pi/2; it never exceeds
  pi/4 * sqrt(N). It is 0 once l/N >= 1/2: the unamplified state already
  succeeds with probability l/N, and one call could drop that to
  sin^2(3t), which is 0 at l/N = 3/4. It is also 0 when l = 0, which only
  the certificate-free search reaches: there is nothing to amplify.
* ``unknown_count`` needs no count: r is drawn uniformly from a window
  (the classic schedule for amplifying an unknown number of solutions).
  The loop keeps the window for both policies: it grows by a factor of
  6/5 after every failed round, clamped to sqrt(N), and is reset to 1 once
  a round is accepted. known_count never reads it.
"""

import dataclasses
import math

import numpy as np

from .fitness import FitnessTable

KNOWN_COUNT = "known_count"
UNKNOWN_COUNT = "unknown_count"
_MODES = (KNOWN_COUNT, UNKNOWN_COUNT)


@dataclasses.dataclass
class SearchConfig:
    """Knobs for one search run. max_rounds=None uses the fitness register
    bit width (minimum 1)."""

    max_rounds: int | None = None
    mode: str = KNOWN_COUNT
    rng_seed: int = 0
    certificate_exit: bool = True

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.max_rounds is not None and self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be non-negative")

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class IterationRecord:
    round: int
    cutoff_before: int
    marked: int
    grover_r: int
    measured_index: int
    measured_fitness: int
    accepted: bool
    p_success: float  # marked-set probability the round sampled; reported only

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class SearchResult:
    best_index: int
    best_fitness: int
    initial_index: int
    initial_cutoff: int
    history: tuple[IterationRecord, ...]
    oracle_calls_total: int
    optimal: bool

    @property
    def rounds_used(self) -> int:
        return len(self.history)

    @property
    def accepted_cutoffs(self) -> tuple[int, ...]:
        return tuple(rec.measured_fitness for rec in self.history if rec.accepted)

    def as_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["rounds"] = list(doc.pop("history"))
        return doc


def round_iterations(l: int, num_states: int, mode: str, window: float = 1.0,
                     rng: np.random.Generator | None = None) -> int:
    """Grover iteration count for a round with l of num_states marked.

    known_count uses floor(pi / (4 * asin(sqrt(l/N)))), and 0 when l = 0
    (nothing to amplify); unknown_count draws uniformly from
    [0, max(1, ceil(window))) and never reads l.
    """
    if not 0 <= l <= num_states:
        raise ValueError(f"marked count {l} outside [0, {num_states}]")
    if mode == KNOWN_COUNT:
        if l == 0:
            return 0
        theta = math.asin(math.sqrt(l / num_states))
        return math.floor(math.pi / (4 * theta))
    if mode == UNKNOWN_COUNT:
        if rng is None:
            raise ValueError("unknown_count mode needs an rng")
        return int(rng.integers(max(1, math.ceil(window))))
    raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")


def measure_amplified(marked: np.ndarray, l: int, r: int,
                      rng: np.random.Generator) -> tuple[int, float]:
    """Measure the state r Grover calls leave the uniform state in.

    `marked` is the oracle's boolean mask and `l` its number of True
    entries, which the caller has already counted. Returns the measured
    index and p = sin^2((2r+1)t), the marked-set probability that was
    sampled from. The outcome is marked with probability p, and uniform
    within its level set, as the two-amplitude closed form gives.
    """
    if r < 0:
        raise ValueError("iteration count must be non-negative")
    num_states = marked.shape[0]
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


def search_table(table: FitnessTable, config: SearchConfig | None = None) -> SearchResult:
    """Run the iterative threshold search against a prebuilt fitness table."""
    config = config or SearchConfig()
    rng = np.random.default_rng(config.rng_seed)
    values = table.values
    num_states = values.shape[0]
    rounds = (config.max_rounds if config.max_rounds is not None
              else max(1, table.d_max.bit_length()))

    init_idx = int(rng.integers(num_states))
    init_fit = cutoff = int(values[init_idx])
    best_idx = init_idx
    history: list[IterationRecord] = []
    optimal = False
    window = 1.0  # unknown_count's; grows 6/5 per failed round up to sqrt(N)
    sqrt_n = math.sqrt(num_states)

    for rnd in range(rounds):
        marked = values > cutoff
        l = int(np.count_nonzero(marked))
        if l == 0 and config.certificate_exit:
            optimal = True
            break
        r = round_iterations(l, num_states, config.mode, window, rng)
        idx, p = measure_amplified(marked, l, r, rng)
        fit = int(values[idx])
        accepted = fit > cutoff
        history.append(IterationRecord(rnd, cutoff, l, r, idx, fit, accepted, p))
        if accepted:
            cutoff, best_idx = fit, idx
        window = 1.0 if accepted else min(window * 6 / 5, sqrt_n)

    return SearchResult(best_index=best_idx, best_fitness=cutoff,
                        initial_index=init_idx, initial_cutoff=init_fit,
                        history=tuple(history),
                        oracle_calls_total=sum(rec.grover_r for rec in history),
                        optimal=optimal)
