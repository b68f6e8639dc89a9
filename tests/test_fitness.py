import hashlib
import struct

import numpy as np
import pytest

from qmaze import (DEFAULT_N_CAP, Direction, FitnessTable, Maze, RoomCoord,
                   SearchConfig, TableFormatError, WalkResult,
                   build_fitness_table, exhaustive_max, fitness_ceiling,
                   generate_maze, generate_maze_with_log, index_to_path,
                   load_table, save_table, search_table, walk)

from oracles import (dijkstra_distance, open_pairs_from_events, replay_walk,
                     score)

N, E, S, W = Direction.N, Direction.E, Direction.S, Direction.W


def test_ceiling_and_width():
    assert fitness_ceiling(1) == 0
    assert fitness_ceiling(2) == 2
    assert fitness_ceiling(3) == 8
    # the fitness register width is the default round budget (at least 1)
    no_exit = SearchConfig(certificate_exit=False)
    for m, width in ((3, 4), (1, 1)):
        table = build_fitness_table(generate_maze(m, 1), (0, 0), (0, 0), 1)
        assert search_table(table, no_exit).rounds_used == width


def test_walk_start_equals_end(maze2):
    res = walk(maze2, (1, 1), (1, 1), [N, E, S, W])
    assert res == WalkResult(RoomCoord(1, 1), 0, True)


def test_walk_blocked_first_step():
    from qmaze import is_open
    maze = generate_maze(2, 42)
    for d in Direction:
        if not is_open(maze, (0, 0), d):
            res = walk(maze, (0, 0), (1, 1), [d, d, d])
            assert res == WalkResult(RoomCoord(0, 0), 0, False)
            break
    else:
        pytest.fail("no closed door at (0,0)")


def test_walk_exhaustive_matches_log_oracle():
    # 2x2 to the far corner; 5x5 from a corner to every room, start included
    cases = [(2, 42, (0, 0), (1, 1))]
    cases += [(5, 9, (0, 0), (r, c)) for r in range(5) for c in range(5)]
    for m, seed, start, end in cases:
        maze, events = generate_maze_with_log(m, seed)
        pairs = open_pairs_from_events(events)
        for idx in range(4**4):
            steps = index_to_path(idx, 4)
            got = walk(maze, start, end, steps)
            final, taken, reached = replay_walk(pairs, start, end, steps)
            assert tuple(got.final_room) == final
            assert got.steps_taken == taken
            assert got.reached_end == reached


def test_walk_stops_on_arrival(maze3):
    from qmaze import bfs_shortest_path
    bfs = bfs_shortest_path(maze3, (0, 0), (2, 2))
    padded = bfs.path + (S, S, N, W)
    res = walk(maze3, (0, 0), (2, 2), padded)
    assert res.reached_end
    assert res.steps_taken == bfs.distance
    assert res.final_room == RoomCoord(2, 2)


def _score_of(maze, room, end):
    """The fitness of standing in `room`: an n=0 table scores its start."""
    return int(build_fitness_table(maze, room, end, 0).values[0])


def test_fitness_at_end_room(maze3):
    assert _score_of(maze3, (2, 2), (2, 2)) == score((2, 2), (2, 2), 3) == 8


def test_fitness_far_corner(maze3):
    assert _score_of(maze3, (0, 0), (2, 2)) == score((0, 0), (2, 2), 3) == 0


def test_fitness_part_way(maze3):
    assert _score_of(maze3, (2, 0), (2, 2)) == score((2, 0), (2, 2), 3) == 4


def test_fitness_strictly_monotone_in_distance(maze4):
    m, end = 4, (3, 3)
    by_dist = {}
    for r in range(m):
        for c in range(m):
            d2 = (3 - r) ** 2 + (3 - c) ** 2
            by_dist[d2] = _score_of(maze4, (r, c), end)
            assert by_dist[d2] == score((r, c), end, m)
    dists = sorted(by_dist)
    fits = [by_dist[d] for d in dists]
    assert all(a > b for a, b in zip(fits, fits[1:]))


def _endpoint_grid(sizes, lengths):
    for m in sizes:
        c = m // 2
        ends = {"corners": ((0, 0), (m - 1, m - 1)),
                "same": ((c, c), (c, c)),
                "border": ((m - 1, c), (0, m - 1))}
        for n in lengths:
            for name, (start, end) in ends.items():
                yield pytest.param(m, start, end, n, id=f"m{m}-n{n}-{name}")


# corners are 8 or more steps apart from m = 5 on, out of reach at n <= 6
@pytest.mark.parametrize("m,start,end,n",
                         _endpoint_grid((1, 2, 3, 5, 12), (0, 1, 4, 6)))
def test_table_matches_independent_oracle(m, start, end, n):
    maze, events = generate_maze_with_log(m, 42)
    pairs = open_pairs_from_events(events)
    table = build_fitness_table(maze, start, end, n)
    finals = [replay_walk(pairs, start, end, index_to_path(idx, n))[0]
              for idx in range(4**n)]
    expected = [score(final, end, m) for final in finals]
    assert table.values.tolist() == expected
    assert table.values.dtype == np.min_scalar_type(fitness_ceiling(m))
    assert table.max_fitness == max(expected)
    reachable = dijkstra_distance(maze, start, end) <= n
    assert (table.max_fitness == fitness_ceiling(m)) == reachable


@pytest.mark.parametrize("m,start,end,n",
                         _endpoint_grid((1, 2, 3, 5, 8), (0, 1, 2, 5, 7)))
def test_factors_match_the_dense_table(m, start, end, n):
    table = build_fitness_table(generate_maze(m, 42), start, end, n)
    assert table.rows.shape[1] == 4 ** (n // 2)
    assert table.prefix_rows.shape == (4 ** (n - n // 2),)
    # every row is some prefix's, so no score outside the table is stored
    assert sorted(set(table.prefix_rows.tolist())) == list(range(len(table.rows)))
    best = exhaustive_max(table)
    assert "values" not in vars(table)
    values = table.values
    assert best == (int(np.argmax(values)), int(values.max()))
    assert values.dtype == table.rows.dtype == np.min_scalar_type(table.d_max)
    if n <= 5:
        assert [table.value_at(i) for i in range(4**n)] == values.tolist()


def test_one_row_tables_share_the_array(tmp_path, table2_n4):
    wrapped = FitnessTable.from_values(np.arange(16))
    assert wrapped.rows.shape == (1, 16)
    assert np.shares_memory(wrapped.values, wrapped.rows)
    assert [wrapped.value_at(i) for i in range(16)] == list(range(16))
    path = tmp_path / "table.bin"
    save_table(table2_n4, path, *_REQUEST2)
    loaded = load_table(path, *_REQUEST2, 4)
    assert loaded.rows.shape == (1, 4**4)
    assert loaded.prefix_rows.tolist() == [0]
    assert [loaded.value_at(i) for i in range(4**4)] == table2_n4.values.tolist()


def test_off_grid_door_bits_stay_closed():
    # a hand-built maze may set door bits that point off the grid
    maze = Maze(size=2, seed=0, rooms=((15, 15), (15, 15)))
    table = build_fitness_table(maze, (0, 0), (1, 1), 1)
    assert table.values.tolist() == [0, 1, 1, 0]  # N and W halt at (0, 0)
    halted = walk(maze, (0, 0), (1, 1), [W, E])
    assert halted == WalkResult(RoomCoord(0, 0), 0, False)
    arrived = walk(maze, (0, 0), (1, 1), [E, S, S])
    assert arrived == WalkResult(RoomCoord(1, 1), 2, True)


def test_table_matches_scalar_walk(maze3, table3_n6):
    rng = np.random.default_rng(7)
    for idx in map(int, rng.integers(0, 4**6, size=400)):
        res = walk(maze3, (0, 0), (2, 2), index_to_path(idx, 6))
        assert int(table3_n6.values[idx]) == score(res.final_room, (2, 2), 3)


def test_table_n0(maze2):
    t = build_fitness_table(maze2, (0, 0), (0, 0), 0)
    assert t.values.shape == (1,)
    assert int(t.values[0]) == t.d_max == 2
    t2 = build_fitness_table(maze2, (0, 0), (1, 1), 0)
    assert int(t2.values[0]) == 0  # standing at (0,0), distance 2 from (1,1)


def test_table_bit_exact_purity(maze3):
    a = build_fitness_table(maze3, (0, 0), (2, 2), 5)
    b = build_fitness_table(maze3, (0, 0), (2, 2), 5)
    assert np.array_equal(a.values, b.values)


def test_table_range_and_max(maze2, table2_n4):
    vals = table2_n4.values
    assert vals.min() >= 0
    assert vals.max() <= table2_n4.d_max
    assert table2_n4.max_fitness == int(vals.max())
    reached = any(
        walk(maze2, (0, 0), (1, 1), index_to_path(i, 4)).reached_end
        for i in range(4**4)
    )
    assert (table2_n4.max_fitness == table2_n4.d_max) == reached


def test_prefix_property(maze3):
    # paths that agree up to where the walk halts score identically
    rng = np.random.default_rng(5)
    for _ in range(200):
        steps = tuple(Direction(int(d)) for d in rng.integers(0, 4, size=6))
        res = walk(maze3, (0, 0), (2, 2), steps)
        keep = res.steps_taken if res.reached_end else res.steps_taken + 1
        keep = min(keep, 6)  # a full-length walk has no inert suffix
        tail = tuple(Direction(int(d)) for d in rng.integers(0, 4, size=6 - keep))
        variant = steps[:keep] + tail
        other = walk(maze3, (0, 0), (2, 2), variant)
        assert score(other.final_room, (2, 2), 3) == score(res.final_room, (2, 2), 3)


def test_cap_enforced(maze2):
    with pytest.raises(ValueError):
        build_fitness_table(maze2, (0, 0), (1, 1), 15)
    with pytest.raises(ValueError):
        build_fitness_table(maze2, (0, 0), (1, 1), 3, cap=2)
    # explicit override allows more
    build_fitness_table(maze2, (0, 0), (1, 1), 3, cap=3)


def test_table_rejects_bad_rooms(maze2):
    with pytest.raises(ValueError):
        build_fitness_table(maze2, (0, 2), (1, 1), 2)
    with pytest.raises(ValueError):
        build_fitness_table(maze2, (0, 0), (-1, 0), 2)


def test_from_values_rejects_bad_length():
    with pytest.raises(ValueError):
        FitnessTable.from_values([1, 2, 3])


def test_table_dtype_is_smallest_unsigned(maze2, maze3):
    assert build_fitness_table(maze3, (0, 0), (2, 2), 3).values.dtype == np.uint8
    assert build_fitness_table(generate_maze(12, 1), (0, 0), (11, 11), 2
                               ).values.dtype == np.uint8  # d_max 242
    big = build_fitness_table(generate_maze(16, 1), (0, 0), (15, 15), 3)
    assert big.values.dtype == np.uint16  # d_max 450
    assert FitnessTable.from_values([1, 2, 3, 4]).values.dtype == np.int32


# the request table2_n4 was built for, less its length n = 4
_REQUEST2 = (generate_maze(2, 42), (0, 0), (1, 1))
_HEADER = 40  # '<4sI32s': magic, format version, key


def _saved(tmp_path, maze, start, end, n):
    table = build_fitness_table(maze, start, end, n)
    path = tmp_path / "table.bin"
    save_table(table, path, maze, start, end)
    return table, path


def test_save_load_roundtrip(tmp_path):
    for m, start, end, n, dtype in (
        (2, (0, 0), (1, 1), 4, np.uint8),
        (3, (1, 1), (1, 1), 0, np.uint8),      # n = 0 and start == end
        (16, (0, 0), (15, 15), 3, np.uint16),
    ):
        maze = generate_maze(m, 1)
        table, path = _saved(tmp_path, maze, start, end, n)
        assert len(path.read_bytes()) == _HEADER + np.dtype(dtype).itemsize * 4**n
        loaded = load_table(path, maze, start, end, n)
        assert loaded.n == table.n == n
        assert loaded.d_max == table.d_max == fitness_ceiling(m)
        assert loaded.values.dtype == table.values.dtype == dtype
        assert np.array_equal(loaded.values, table.values)


# a request that differs from (4x4 seed 1, (0, 0) -> (3, 3), n = 2) in one input
@pytest.mark.parametrize("other", [
    {"m": 5},
    {"seed": 2},
    {"start": (1, 0)},
    {"end": (3, 2)},
    {"n": 3},
], ids=["size", "maze", "start", "end", "n"])
def test_load_refuses_a_table_built_for_another_request(tmp_path, other):
    request = {"m": 4, "seed": 1, "start": (0, 0), "end": (3, 3), "n": 2}
    _, path = _saved(tmp_path, generate_maze(4, 1), (0, 0), (3, 3), 2)
    request |= other
    with pytest.raises(ValueError, match="different") as refused:
        load_table(path, generate_maze(request["m"], request["seed"]),
                   request["start"], request["end"], request["n"])
    assert not isinstance(refused.value, TableFormatError)


def test_load_rejects_truncated(tmp_path, table2_n4):
    path = tmp_path / "table.bin"
    save_table(table2_n4, path, *_REQUEST2)
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    with pytest.raises(TableFormatError):
        load_table(path, *_REQUEST2, 4)


@pytest.mark.parametrize("m,cut", [(2, -1), (2, 1), (16, -1), (16, 1)])
def test_load_rejects_a_body_one_byte_off(tmp_path, m, cut):
    maze = generate_maze(m, 1)
    _, path = _saved(tmp_path, maze, (0, 0), (1, 1), 2)
    data = path.read_bytes()
    path.write_bytes(data[:cut] if cut < 0 else data + b"\0" * cut)
    with pytest.raises(TableFormatError, match="value bytes"):
        load_table(path, maze, (0, 0), (1, 1), 2)


def test_load_keeps_dtype_and_maze_digest(tmp_path, maze3, table3_n6):
    path = tmp_path / "table.bin"
    save_table(table3_n6, path, maze3, (0, 0), (2, 2))
    assert len(path.read_bytes()) == _HEADER + 4**6  # one uint8 per value
    loaded = load_table(path, maze3, (0, 0), (2, 2), 6)
    assert loaded.values.dtype == table3_n6.values.dtype
    # the key digests the door masks: the same size, seed and flags with
    # the door between (0, 0) and (0, 1) toggled is another maze
    rooms = [list(row) for row in maze3.rooms]
    rooms[0][0] ^= 0b0010  # E
    rooms[0][1] ^= 0b1000  # W
    other = Maze(size=3, seed=maze3.seed, rooms=tuple(map(tuple, rooms)))
    with pytest.raises(ValueError, match="different"):
        load_table(path, other, (0, 0), (2, 2), 6)


def test_maze_digest_tells_mazes_apart(tmp_path):
    _, path = _saved(tmp_path, generate_maze(4, 1), (0, 0), (3, 3), 2)
    assert load_table(path, generate_maze(4, 1), (0, 0), (3, 3), 2).n == 2
    with pytest.raises(ValueError, match="different"):
        load_table(path, generate_maze(4, 2), (0, 0), (3, 3), 2)


def _patched(tmp_path, table, magic=None, version=None, cut=None):
    path = tmp_path / "table.bin"
    save_table(table, path, *_REQUEST2)
    data = bytearray(path.read_bytes())
    if magic is not None:
        data[:4] = magic
    if version is not None:
        struct.pack_into("<I", data, 4, version)
    path.write_bytes(bytes(data[:cut]))
    return path


@pytest.mark.parametrize("fields", [
    {"version": 1},               # the <i4 body of format 1 is not read
    {"version": 2},               # format 2 held the request field by field
    {"version": 4},
    {"version": 0},
    {"magic": b"XXXX"},
    {"magic": b"qmft"},
    {"cut": _HEADER - 1},         # one byte short of a header
    {"cut": 4},
    {"cut": 0},
])
def test_load_rejects_bad_header(tmp_path, table2_n4, fields):
    path = _patched(tmp_path, table2_n4, **fields)
    with pytest.raises(TableFormatError):
        load_table(path, *_REQUEST2, 4)


def test_load_refuses_a_format_2_file(tmp_path, table2_n4):
    # the previous layout: '<4s8I32s' (magic, version 2, n, m, start row and
    # column, end row and column, d_max, maze digest), then the body
    maze = _REQUEST2[0]
    masks = bytes(mask for row in maze.rooms for mask in row)
    header = struct.pack("<4s8I32s", b"QMFT", 2, 4, 2, 0, 0, 1, 1, 2,
                         hashlib.sha256(masks).digest())
    path = tmp_path / "table.bin"
    path.write_bytes(header + table2_n4.values.astype("<u1").tobytes())
    with pytest.raises(TableFormatError, match="version 2"):
        load_table(path, *_REQUEST2, 4)


def test_load_rejects_n_above_a_lowered_cap(tmp_path, table2_n4):
    path = _patched(tmp_path, table2_n4)
    with pytest.raises(ValueError, match="cap") as refused:
        load_table(path, *_REQUEST2, 4, cap=3)
    assert not isinstance(refused.value, TableFormatError)
    assert load_table(path, *_REQUEST2, 4, cap=4).n == 4


@pytest.mark.parametrize("n,start", [
    (DEFAULT_N_CAP + 1, (0, 0)),
    (-1, (0, 0)),
    (4, (0, 2)),                  # outside the 2x2 grid
    (4, (-1, 0)),
])
def test_load_checks_the_request_before_the_file(tmp_path, n, start):
    # the path does not exist: an OSError would mean the file was opened
    with pytest.raises(ValueError) as refused:
        load_table(tmp_path / "missing.bin", _REQUEST2[0], start, (1, 1), n)
    assert not isinstance(refused.value, TableFormatError)


def test_load_rejects_bad_magic_and_short_files(tmp_path, table2_n4):
    path = _patched(tmp_path, table2_n4)
    data = path.read_bytes()
    path.write_bytes(b"XXXX" + data[4:])
    with pytest.raises(TableFormatError):
        load_table(path, *_REQUEST2, 4)
    path.write_bytes(data[:20])
    with pytest.raises(TableFormatError):
        load_table(path, *_REQUEST2, 4)
    path.write_bytes(data + b"\0\0\0\0")
    with pytest.raises(TableFormatError):
        load_table(path, *_REQUEST2, 4)


def _assert_value_refused(path, request, fmt, bad):
    data = bytearray(path.read_bytes())
    struct.pack_into(fmt, data, _HEADER + struct.calcsize(fmt) * 5, bad)
    path.write_bytes(bytes(data))
    with pytest.raises(TableFormatError, match="outside"):
        load_table(path, *request)


@pytest.mark.parametrize("bad", [3, 255])
def test_load_rejects_values_out_of_range(tmp_path, table2_n4, bad):
    # the body is uint8; every value must lie in [0, d_max = 2]
    _assert_value_refused(_patched(tmp_path, table2_n4), (*_REQUEST2, 4), "<B", bad)


@pytest.mark.parametrize("bad", [451, 65535])
def test_load_rejects_uint16_values_out_of_range(tmp_path, bad):
    # a 16x16 table's body is little-endian uint16, d_max = 450
    request = (generate_maze(16, 1), (0, 0), (15, 15), 3)
    table, path = _saved(tmp_path, *request)
    assert len(path.read_bytes()) == _HEADER + 2 * 4**3
    loaded = load_table(path, *request)
    assert loaded.values.dtype == np.uint16
    assert np.array_equal(loaded.values, table.values)
    _assert_value_refused(path, request, "<H", bad)
