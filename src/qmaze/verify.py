"""Classical ground truth and the empirical benchmark harness.

Everything here is plain deterministic computation used to check the
search: BFS shortest paths through the maze, the exhaustive table maximum,
the "a short enough solution really is in the table at full score" check,
and a multi-trial benchmark that measures success rate and oracle cost.
"""

import dataclasses
import math
from collections import deque
from typing import NamedTuple

import numpy as np

from .directions import DIRECTIONS, Direction
from .fitness import FitnessTable, build_fitness_table, fitness_ceiling
from .maze import Maze, RoomCoord, _endpoints_in_grid, is_open
from .paths import DEFAULT_N_CAP, path_to_index
from .search import SearchConfig, search_table


class BfsResult(NamedTuple):
    distance: int
    path: tuple[Direction, ...]


def bfs_shortest_path(maze: Maze, start, end) -> BfsResult:
    """Shortest open-door route between two rooms; always exists in a
    perfect maze."""
    start, end = _endpoints_in_grid(maze.size, start, end)
    if start == end:
        return BfsResult(0, ())
    prev: dict[RoomCoord, tuple[RoomCoord, Direction]] = {}
    seen = {start}
    queue = deque([start])
    while queue:
        room = queue.popleft()
        if room == end:
            break
        for d in DIRECTIONS:
            if not is_open(maze, room, d):
                continue
            dr, dc = d.delta
            nxt = RoomCoord(room.row + dr, room.col + dc)
            if nxt not in seen:
                seen.add(nxt)
                prev[nxt] = (room, d)
                queue.append(nxt)
    if end not in seen:
        raise ValueError("end room not reachable; maze is not perfect")
    steps: list[Direction] = []
    cur = end
    while cur != start:
        cur, d = prev[cur]
        steps.append(d)
    steps.reverse()
    return BfsResult(len(steps), tuple(steps))


def exhaustive_max(table: FitnessTable) -> tuple[int, int]:
    """(index, value) of the table maximum; lowest index wins ties.

    Reads the trie factors, never the dense array: the lowest index lies
    under the first prefix whose row reaches the maximum, at that row's
    first column that does."""
    rows, prefix_rows = table.rows, table.prefix_rows
    p = int(np.argmax(rows.max(axis=1)[prefix_rows]))
    row = rows[prefix_rows[p]]
    j = int(np.argmax(row))
    return p * rows.shape[1] + j, int(row[j])


def bfs_consistency_check(maze: Maze, start, end, n: int,
                          table: FitnessTable) -> bool:
    """If the BFS route fits in n steps, the table must score full marks at
    the route's index padded with inert trailing steps. Vacuously true when
    the route is longer than n."""
    res = bfs_shortest_path(maze, start, end)
    if res.distance > n:
        return True
    steps = res.path + (Direction.N,) * (n - res.distance)
    idx = path_to_index(steps, n)
    return table.value_at(idx) == fitness_ceiling(maze.size)


@dataclasses.dataclass
class TrialRecord:
    seed: int
    best_fitness: int
    optimal: bool
    rounds: int
    oracle_calls: int
    success: bool
    accepted_cutoffs: tuple[int, ...]

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class BenchReport:
    trials: int
    n: int
    num_states: int
    best_possible: int
    success_rate: float
    mean_rounds: float
    mean_oracle_calls: float
    sqrt_cost_factor: float  # mean_oracle_calls / sqrt(num_states)
    records: tuple[TrialRecord, ...]

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def run_benchmark(maze: Maze, start, end, n: int, config: SearchConfig,
                  trials: int, cap: int = DEFAULT_N_CAP) -> BenchReport:
    """Run `trials` independent searches (seeds config.rng_seed, +1, +2, ...)
    against one shared table and aggregate success rate and cost."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    table = build_fitness_table(maze, start, end, n, cap=cap)
    _, best = exhaustive_max(table)
    records = []
    for t in range(trials):
        cfg = dataclasses.replace(config, rng_seed=config.rng_seed + t)
        res = search_table(table, cfg)
        records.append(TrialRecord(
            seed=cfg.rng_seed,
            best_fitness=res.best_fitness,
            optimal=res.optimal,
            rounds=res.rounds_used,
            oracle_calls=res.oracle_calls_total,
            success=res.best_fitness == best,
            accepted_cutoffs=res.accepted_cutoffs,
        ))
    num_states = 4**n
    mean_calls = sum(r.oracle_calls for r in records) / trials
    return BenchReport(
        trials=trials,
        n=n,
        num_states=num_states,
        best_possible=best,
        success_rate=sum(r.success for r in records) / trials,
        mean_rounds=sum(r.rounds for r in records) / trials,
        mean_oracle_calls=mean_calls,
        sqrt_cost_factor=mean_calls / math.sqrt(num_states),
        records=tuple(records),
    )
