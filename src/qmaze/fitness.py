"""Walk-based path scoring and the dense per-index fitness table.

A path is scored by replaying it through the maze: starting at `start`,
each direction is consumed in order; the walk moves through open doors,
halts permanently at the first closed or off-grid move, and stops early
when it reaches `end`. The score is the grid's maximum squared Euclidean
distance minus the squared distance from the final room to `end`, so it
lives in [0, D_max] and hits D_max exactly when the walk reached the end.

`build_fitness_table` evaluates every one of the 4**n paths at once with
vectorized, chunked array arithmetic; the resulting table is the classical
image of the path-index -> fitness labeling and is what the phase oracle
and the search consume. Its values use the smallest unsigned dtype that
holds D_max (uint8 up to m = 12).
"""

import dataclasses
import hashlib
import struct
from typing import NamedTuple

import numpy as np

from .directions import Direction
from .maze import Maze, RoomCoord, is_open
from .paths import DEFAULT_N_CAP

_CHUNK = 1 << 20
_DUMP_MAGIC = b"QMFT"
_DUMP_VERSION = 1
# magic, version, n, m, start row/col, end row/col, d_max, maze digest
_DUMP_HEADER = struct.Struct("<4s8I32s")


class TableFormatError(ValueError):
    """A fitness-table file that is not a well-formed save_table dump."""


class WalkResult(NamedTuple):
    final_room: RoomCoord
    steps_taken: int
    reached_end: bool


def fitness_ceiling(m: int) -> int:
    """Largest possible fitness on an m x m grid: 2*(m-1)**2. Attained iff the
    walk ends on the end room."""
    return 2 * (m - 1) ** 2


def fitness_bits(m: int) -> int:
    """Register width needed for any fitness value on an m x m grid."""
    return fitness_ceiling(m).bit_length()


def walk(maze: Maze, start, end, steps) -> WalkResult:
    """Replay one direction sequence through the maze.

    Consumes directions in order; moves only through open doors; halts at the
    first blocked move (the rest of the sequence is ignored) or as soon as the
    current room equals `end`.
    """
    cur = RoomCoord(*start)
    end = RoomCoord(*end)
    if cur == end:
        return WalkResult(cur, 0, True)
    taken = 0
    for d in steps:
        if not is_open(maze, cur, d):
            break
        dr, dc = Direction(d).delta
        cur = RoomCoord(cur.row + dr, cur.col + dc)
        taken += 1
        if cur == end:
            return WalkResult(cur, taken, True)
    return WalkResult(cur, taken, False)


def fitness_of(result: WalkResult, end, m: int) -> int:
    """Score a walk: fitness_ceiling(m) minus squared distance to `end`."""
    er, ec = end
    dr = er - result.final_room.row
    dc = ec - result.final_room.col
    return fitness_ceiling(m) - (dr * dr + dc * dc)


def maze_digest(maze: Maze) -> bytes:
    """SHA-256 of the maze's door masks, row by row: which maze a table
    was built from."""
    return hashlib.sha256(bytes(mask for row in maze.rooms for mask in row)).digest()


class TableParams(NamedTuple):
    maze_size: int
    maze_seed: int | None
    start: RoomCoord
    end: RoomCoord
    maze_digest: bytes | None = None


@dataclasses.dataclass
class FitnessTable:
    """Fitness of every path index in [0, 4**n), plus its provenance.

    d_max is the grid's fitness ceiling; max_fitness is the best value that
    actually occurs in this table. Built and loaded tables store values as
    np.min_scalar_type(d_max); from_values keeps int32.
    """

    n: int
    values: np.ndarray
    max_fitness: int
    d_max: int
    params: TableParams | None = None

    @classmethod
    def from_values(cls, values, d_max: int | None = None, params=None) -> "FitnessTable":
        """Wrap a raw value array (mostly for synthetic tables in experiments)."""
        arr = np.ascontiguousarray(values, dtype=np.int32)
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise ValueError("values must be a non-empty 1-D array")
        n = (arr.shape[0].bit_length() - 1) // 2
        if 4**n != arr.shape[0]:
            raise ValueError(f"length {arr.shape[0]} is not a power of 4")
        top = int(arr.max())
        return cls(n=n, values=arr, max_fitness=top,
                   d_max=top if d_max is None else d_max, params=params)


def _open_lookup(maze: Maze) -> np.ndarray:
    """(m, m, 4) bool array of open doors; off-grid directions are closed."""
    m = maze.size
    table = np.zeros((m, m, 4), dtype=bool)
    for r in range(m):
        for c in range(m):
            for d in range(4):
                table[r, c, d] = is_open(maze, (r, c), d)
    return table


def _fitness_chunk(open_table, start, end, n, lo, hi, bound):
    drow = np.array([-1, 0, 1, 0], dtype=np.int32)
    dcol = np.array([0, 1, 0, -1], dtype=np.int32)
    idx = np.arange(lo, hi, dtype=np.int64)
    rows = np.full(idx.shape, start.row, dtype=np.int32)
    cols = np.full(idx.shape, start.col, dtype=np.int32)
    # alive = still walking: not halted at a closed door, not arrived
    alive = np.full(idx.shape, start != end, dtype=bool)
    for k in range(n):
        if not alive.any():
            break
        d = (idx >> (2 * (n - 1 - k))) & 3
        ok = alive & open_table[rows, cols, d]
        moved = d[ok]
        rows[ok] += drow[moved]
        cols[ok] += dcol[moved]
        alive = ok & ~((rows == end.row) & (cols == end.col))
    dr = end.row - rows
    dc = end.col - cols
    return bound - (dr * dr + dc * dc)


def build_fitness_table(maze: Maze, start, end, n: int,
                        cap: int = DEFAULT_N_CAP) -> FitnessTable:
    """Score all 4**n paths. Work is a data-parallel sweep over the index
    range, processed in fixed-size chunks to bound peak memory."""
    if n < 0:
        raise ValueError("path length must be non-negative")
    if n > cap:
        raise ValueError(
            f"path length {n} exceeds the cap {cap} (4**{n} table entries);"
            " raise the cap explicitly if you really want this"
        )
    m = maze.size
    start = RoomCoord(*start)
    end = RoomCoord(*end)
    for name, room in (("start", start), ("end", end)):
        if not (0 <= room.row < m and 0 <= room.col < m):
            raise ValueError(f"{name} room {tuple(room)} outside {m}x{m} grid")
    open_table = _open_lookup(maze)
    bound = fitness_ceiling(m)
    size = 4**n
    values = np.empty(size, dtype=np.min_scalar_type(bound))
    for lo in range(0, size, _CHUNK):
        hi = min(lo + _CHUNK, size)
        values[lo:hi] = _fitness_chunk(open_table, start, end, n, lo, hi, bound)
    return FitnessTable(n=n, values=values, max_fitness=int(values.max()),
                        d_max=bound,
                        params=TableParams(m, maze.seed, start, end,
                                           maze_digest(maze)))


def save_table(table: FitnessTable, path) -> None:
    """Binary dump: a '<4s8I32s' header (magic, format version, n, m, start
    row/col, end row/col, d_max, maze digest) followed by the values as
    little-endian int32."""
    p = table.params
    if p is None or p.maze_digest is None:
        raise ValueError("cannot save a table without maze parameters")
    header = _DUMP_HEADER.pack(_DUMP_MAGIC, _DUMP_VERSION, table.n, p.maze_size,
                               p.start.row, p.start.col, p.end.row, p.end.col,
                               table.d_max, p.maze_digest)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(table.values, dtype="<i4").tobytes())


def load_table(path, cap: int = DEFAULT_N_CAP) -> FitnessTable:
    """Read a save_table dump, checking the header before sizing anything
    from it. Raises TableFormatError on a malformed file. The maze seed is
    not part of the format, so the loaded params carry maze_seed=None."""
    with open(path, "rb") as fh:
        head = fh.read(_DUMP_HEADER.size)
        if len(head) < _DUMP_HEADER.size:
            raise TableFormatError("fitness table file too short for its header")
        magic, version, n, m, sr, sc, er, ec, d_max, digest = _DUMP_HEADER.unpack(head)
        if magic != _DUMP_MAGIC:
            raise TableFormatError("not a qmaze fitness table (bad magic)")
        if version != _DUMP_VERSION:
            raise TableFormatError(f"fitness table format version {version},"
                                   f" expected {_DUMP_VERSION}")
        if n > cap:
            raise TableFormatError(f"path length {n} exceeds the cap {cap}")
        for name, row, col in (("start", sr, sc), ("end", er, ec)):
            if not (row < m and col < m):
                raise TableFormatError(f"{name} room {(row, col)} outside {m}x{m} grid")
        if d_max != fitness_ceiling(m):
            raise TableFormatError(f"d_max {d_max} is not the ceiling"
                                   f" {fitness_ceiling(m)} of a {m}x{m} grid")
        expected = 4 * 4**n
        body = fh.read(expected + 1)
    if len(body) != expected:
        got = "more" if len(body) > expected else len(body)
        raise TableFormatError(f"expected {expected} value bytes, got {got}")
    raw = np.frombuffer(body, dtype="<i4")
    if raw.min() < 0 or raw.max() > d_max:
        raise TableFormatError(f"values outside [0, {d_max}]")
    values = raw.astype(np.min_scalar_type(d_max))
    return FitnessTable(n=n, values=values, max_fitness=int(values.max()),
                        d_max=d_max,
                        params=TableParams(m, None, RoomCoord(sr, sc),
                                           RoomCoord(er, ec), digest))
