import tracemalloc

import numpy as np
import pytest

from qmaze import (Direction, FitnessTable, Maze, RoomCoord, SearchConfig,
                   bfs_consistency_check, bfs_shortest_path,
                   build_fitness_table, exhaustive_max, fitness_ceiling,
                   generate_maze, is_open, run_benchmark, walk)

from oracles import dijkstra_distance

N, E, S, W = Direction.N, Direction.E, Direction.S, Direction.W

# hand-built 2x2 corridor (0,0)-(0,1)-(1,1)-(1,0): a single snaking hallway
CORRIDOR = Maze(size=2, seed=0, rooms=((2, 12), (2, 9)))


def test_bfs_start_equals_end(maze3):
    assert bfs_shortest_path(maze3, (1, 1), (1, 1)) == (0, ())


def test_bfs_single_room():
    maze = generate_maze(1, 5)
    assert bfs_shortest_path(maze, (0, 0), (0, 0)).distance == 0


def test_bfs_matches_dijkstra():
    rng = np.random.default_rng(2)
    for m in (2, 3, 4, 6):
        for seed in range(8):
            maze = generate_maze(m, seed)
            pairs = [((0, 0), (m - 1, m - 1))]
            pairs += [tuple(map(tuple, rng.integers(0, m, size=(2, 2)))) for _ in range(3)]
            for start, end in pairs:
                got = bfs_shortest_path(maze, start, end)
                assert got.distance == dijkstra_distance(maze, start, end)


def test_bfs_path_replays_to_end(maze4):
    res = bfs_shortest_path(maze4, (0, 0), (3, 3))
    rooms = [RoomCoord(0, 0)]
    for d in res.path:
        assert is_open(maze4, rooms[-1], d)
        dr, dc = d.delta
        rooms.append(RoomCoord(rooms[-1].row + dr, rooms[-1].col + dc))
    assert len(rooms) == res.distance + 1
    assert rooms[-1] == (3, 3)
    w = walk(maze4, (0, 0), (3, 3), res.path)
    assert w.reached_end and w.steps_taken == res.distance


def test_bfs_unreachable_raises():
    sealed = Maze(size=2, seed=0, rooms=((0, 0), (0, 0)))
    with pytest.raises(ValueError):
        bfs_shortest_path(sealed, (0, 0), (1, 1))


def test_bfs_rejects_out_of_bounds(maze3):
    with pytest.raises(ValueError):
        bfs_shortest_path(maze3, (0, 0), (3, 0))


def test_exhaustive_max_single_entry(maze2):
    t = build_fitness_table(maze2, (0, 0), (0, 0), 0)
    assert exhaustive_max(t) == (0, 2)


def test_exhaustive_max_tie_breaks_low():
    t = FitnessTable.from_values(np.full(16, 9, dtype=np.int32))
    assert exhaustive_max(t) == (0, 9)


def test_exhaustive_max_tie_under_shared_row():
    # prefixes 1 and 2 share row 2, whose maximum 3 is also row 0's; row 0
    # holds it at a lower column but under the last prefix
    rows = np.array([[3, 3, 0, 0], [0, 1, 0, 1], [0, 0, 0, 3]], dtype=np.uint8)
    table = FitnessTable(n=2, rows=rows, prefix_rows=np.array([1, 2, 2, 0]),
                         max_fitness=3, d_max=3)
    assert table.values.tolist() == [0, 1, 0, 1, 0, 0, 0, 3, 0, 0, 0, 3, 3, 3, 0, 0]
    assert exhaustive_max(table) == (7, 3)


def test_verify_never_forms_the_dense_table():
    # 8x8 seed 7 has (1, 5) 12 steps from (0, 0): the check reads one entry
    maze = generate_maze(8, 7)
    start, end, n = (0, 0), (1, 5), 12
    assert bfs_shortest_path(maze, start, end).distance == n
    tracemalloc.start()
    try:
        table = build_fitness_table(maze, start, end, n)
        best = exhaustive_max(table)
        consistent = bfs_consistency_check(maze, start, end, n, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert best[1] == fitness_ceiling(8)
    assert consistent
    assert peak < 2 * 2**20  # the dense uint8 table alone is 16 MiB
    assert "values" not in vars(table)


def test_exhaustive_max_matches_reverse_scan(table2_n4):
    idx, val = exhaustive_max(table2_n4)
    best = max(int(v) for v in table2_n4.values[::-1])
    assert val == best == table2_n4.max_fitness
    assert all(int(v) < val for v in table2_n4.values[:idx])


def test_consistency_trivial_start_end(maze2):
    t = build_fitness_table(maze2, (0, 0), (0, 0), 0)
    assert bfs_consistency_check(maze2, (0, 0), (0, 0), 0, t)


def test_consistency_corridor_fixture():
    from qmaze import validate_perfect
    assert validate_perfect(CORRIDOR)
    d = bfs_shortest_path(CORRIDOR, (0, 0), (1, 0)).distance
    assert d == 3
    n = 2 * d
    t = build_fitness_table(CORRIDOR, (0, 0), (1, 0), n)
    assert bfs_consistency_check(CORRIDOR, (0, 0), (1, 0), n, t)


def test_consistency_vacuous_when_route_too_long(maze3):
    t = build_fitness_table(maze3, (0, 0), (2, 2), 1)
    assert bfs_shortest_path(maze3, (0, 0), (2, 2)).distance > 1
    assert bfs_consistency_check(maze3, (0, 0), (2, 2), 1, t)


def test_consistency_sweep_small_mazes():
    checked = 0
    for i in range(40):
        m = 2 + (i % 3)
        maze = generate_maze(m, 100 + i)
        res = bfs_shortest_path(maze, (0, 0), (m - 1, m - 1))
        if res.distance > 7:
            continue
        n = res.distance + (i % 3)
        t = build_fitness_table(maze, (0, 0), (m - 1, m - 1), n)
        assert bfs_consistency_check(maze, (0, 0), (m - 1, m - 1), n, t)
        assert t.max_fitness == fitness_ceiling(m)
        checked += 1
    assert checked >= 10


def test_benchmark_single_trial_echo(maze2):
    rep = run_benchmark(maze2, (0, 0), (1, 1), 4, SearchConfig(rng_seed=6), 1)
    assert rep.trials == 1 and len(rep.records) == 1
    rec = rep.records[0]
    assert rep.success_rate == float(rec.success)
    assert rep.mean_oracle_calls == rec.oracle_calls
    assert rep.mean_rounds == rec.rounds
    assert rep.num_states == 256


def test_benchmark_aggregates(maze2):
    rep = run_benchmark(maze2, (0, 0), (1, 1), 4,
                        SearchConfig(rng_seed=0, max_rounds=12), 10)
    assert rep.success_rate >= 0.8
    assert rep.sqrt_cost_factor == pytest.approx(rep.mean_oracle_calls / 16)
    assert {rec.seed for rec in rep.records} == set(range(10))
    for rec in rep.records:
        assert list(rec.accepted_cutoffs) == sorted(set(rec.accepted_cutoffs))


def test_benchmark_100_trials_n4(maze2):
    rep = run_benchmark(maze2, (0, 0), (1, 1), 4,
                        SearchConfig(rng_seed=0, max_rounds=12), 100)
    assert rep.success_rate >= 0.9
    assert rep.mean_oracle_calls <= 10 * 16


def test_benchmark_rejects_no_trials(maze2):
    with pytest.raises(ValueError):
        run_benchmark(maze2, (0, 0), (1, 1), 4, SearchConfig(), 0)
