"""Walk-based path scoring and the per-index fitness table.

A path is scored by replaying it through the maze: starting at `start`,
each direction is consumed in order; the walk moves through open doors,
halts permanently at the first closed or off-grid move, and stops early
when it reaches `end`. The score is the grid's maximum squared Euclidean
distance minus the squared distance from the final room to `end`, so it
lives in [0, D_max] and hits D_max exactly when the walk reached the end.

These rules live in one transition table over the 2*m*m walk states
(room, still walking): a stopped state absorbs every move. Both `walk` and
`build_fitness_table` step through it. The path index is a MSB-first
prefix trie, so the builder expands the top half of the levels once, then
expands the bottom half only from the distinct states reached there. The
table keeps exactly those factors: one row of bottom-half scores per
distinct top state, and the row each top prefix ends in. It is the
classical image of the path-index -> fitness labeling; the dense 4**n
array the search consumes is gathered from the factors on first use, and
the exhaustive maximum is read from them without it. Scores use the
smallest unsigned dtype that holds D_max (uint8 up to m = 12).

A table carries no record of the request it was built for. Only the file
cache (`save_table`, `load_table`) knows one: its header holds a SHA-256
key over the request, and a load sizes the body from the request alone.
"""

import dataclasses
import functools
import hashlib
import struct
from typing import NamedTuple

import numpy as np

from .directions import Direction
from .maze import Maze, RoomCoord, _endpoints_in_grid
from .paths import DEFAULT_N_CAP

_DUMP_MAGIC = b"QMFT"
_DUMP_VERSION = 3
# magic, version, key (see _table_key)
_DUMP_HEADER = struct.Struct("<4sI32s")


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


def _transitions(maze: Maze, start, end):
    """The walk rules as a finite automaton over 2*m*m states.

    State `cell` (= row*m + col) means the walk has stopped in that room;
    state `m*m + cell` means it is still walking there. Returns (T, score,
    s0): T[s, d] is the state after stepping d from s, score[s] the fitness
    of a walk that ends in s, and s0 the state before the first step.
    Stopped states absorb; a closed or off-grid door stops the walk where it
    is; moving into `end` stops it there; start == end starts stopped.
    """
    m = maze.size
    start, end = _endpoints_in_grid(m, start, end)
    cells = m * m
    here = np.arange(cells)
    rows, cols = np.divmod(here, m)
    masks = np.array(maze.rooms, dtype=np.int64).reshape(cells)
    delta = np.array([d.delta for d in Direction])
    next_rows = rows[:, None] + delta[:, 0]
    next_cols = cols[:, None] + delta[:, 1]
    door = ((masks[:, None] >> np.arange(4) & 1).astype(bool)
            & (0 <= next_rows) & (next_rows < m) & (0 <= next_cols) & (next_cols < m))
    dest = next_rows * m + next_cols
    end_cell = end.row * m + end.col
    walking = np.where(door, dest + cells * (dest != end_cell), here[:, None])
    stopped = np.repeat(here[:, None], 4, axis=1)
    T = np.concatenate([stopped, walking]).astype(np.min_scalar_type(2 * cells - 1))
    bound = fitness_ceiling(m)
    fit = bound - ((rows - end.row) ** 2 + (cols - end.col) ** 2)
    score = np.tile(fit, 2).astype(np.min_scalar_type(bound))
    s0 = start.row * m + start.col + (cells if start != end else 0)
    return T, score, s0


def walk(maze: Maze, start, end, steps) -> WalkResult:
    """Replay one direction sequence through the maze.

    Consumes directions in order; moves only through open doors; halts at the
    first blocked move (the rest of the sequence is ignored) or as soon as the
    current room equals `end`.
    """
    T, _, state = _transitions(maze, start, end)
    cells = maze.size ** 2
    taken = 0
    for d in steps:
        if state < cells:
            break
        nxt = int(T[state, int(d)])
        taken += nxt % cells != state % cells
        state = nxt
    room = RoomCoord(*divmod(state % cells, maze.size))
    return WalkResult(room, taken, room == RoomCoord(*end))


@dataclasses.dataclass
class FitnessTable:
    """Fitness of every path index in [0, 4**n).

    The scores are kept as prefix-trie factors: index p*W + j, where W is
    rows.shape[1], scores rows[prefix_rows[p], j]. A built table has one
    row of 4**(n//2) scores per distinct walk state after the top
    n - n//2 steps, and 4**(n - n//2) prefixes; a wrapped or loaded array
    is one row under a single prefix. `values` is the dense array, gathered
    on first use.

    d_max is the grid's fitness ceiling; max_fitness is the best value that
    actually occurs in this table. Built and loaded tables store scores as
    np.min_scalar_type(d_max); from_values keeps int32. A table records
    nothing of the maze or endpoints it was built from; the file cache
    keys its files by the request instead.
    """

    n: int
    rows: np.ndarray
    prefix_rows: np.ndarray
    max_fitness: int
    d_max: int

    @functools.cached_property
    def values(self) -> np.ndarray:
        """The dense 4**n score array; a view of the row when there is only
        one prefix."""
        if self.prefix_rows.shape[0] == 1:
            return self.rows[self.prefix_rows[0]]
        return self.rows[self.prefix_rows].reshape(-1)

    def value_at(self, idx: int) -> int:
        """The score of one path index, read from the factors."""
        p, j = divmod(idx, self.rows.shape[1])
        return int(self.rows[self.prefix_rows[p], j])

    @classmethod
    def _one_row(cls, n, values, d_max) -> "FitnessTable":
        return cls(n=n, rows=values[None, :], prefix_rows=np.zeros(1, dtype=np.intp),
                   max_fitness=int(values.max()), d_max=d_max)

    @classmethod
    def from_values(cls, values, d_max: int | None = None) -> "FitnessTable":
        """Wrap a raw value array (mostly for synthetic tables in experiments)."""
        arr = np.ascontiguousarray(values, dtype=np.int32)
        if arr.ndim != 1 or arr.shape[0] < 1:
            raise ValueError("values must be a non-empty 1-D array")
        n = (arr.shape[0].bit_length() - 1) // 2
        if 4**n != arr.shape[0]:
            raise ValueError(f"length {arr.shape[0]} is not a power of 4")
        return cls._one_row(n, arr, int(arr.max()) if d_max is None else d_max)


def _check_length(n: int, cap: int) -> None:
    """The length rule shared by the builder and the cache loader."""
    if n < 0:
        raise ValueError("path length must be non-negative")
    if n > cap:
        raise ValueError(
            f"path length {n} exceeds the cap {cap} (4**{n} table entries);"
            " raise the cap explicitly if you really want this"
        )


def build_fitness_table(maze: Maze, start, end, n: int,
                        cap: int = DEFAULT_N_CAP) -> FitnessTable:
    """Score all 4**n paths over the MSB-first prefix trie: expand the walk
    states of the top n - n//2 levels once, expand the bottom n//2 levels
    only from each distinct state reached there, and keep each distinct
    state's row of scores with the row index of every top prefix."""
    _check_length(n, cap)
    T, score, s0 = _transitions(maze, start, end)
    states = np.array([s0], dtype=T.dtype)
    for _ in range(n - n // 2):
        states = T[states].reshape(-1)
    tops, prefix_top = np.unique(states, return_inverse=True)
    tails = tops[:, None]
    for _ in range(n // 2):
        tails = T[tails].reshape(len(tops), -1)
    rows = score[tails]
    return FitnessTable(n=n, rows=rows, prefix_rows=prefix_top,
                        max_fitness=int(rows.max()), d_max=fitness_ceiling(maze.size))


def _body_dtype(d_max: int) -> np.dtype:
    """The dump body's dtype: little-endian np.min_scalar_type(d_max)."""
    return np.min_scalar_type(d_max).newbyteorder("<")


def _table_key(maze: Maze, start, end, n: int) -> bytes:
    """SHA-256 over everything a table is built from: the grid size, the
    endpoints, the path length and every room's door mask."""
    request = ",".join(str(int(v)) for v in (maze.size, *start, *end, n))
    masks = bytes(mask for row in maze.rooms for mask in row)
    return hashlib.sha256(request.encode() + b";" + masks).digest()


def save_table(table: FitnessTable, path, maze: Maze, start, end) -> None:
    """Binary dump: a '<4sI32s' header (magic, format version, the key of
    the request the table was built for) followed by the values as
    little-endian np.min_scalar_type(d_max) (one byte each up to m = 12)."""
    header = _DUMP_HEADER.pack(_DUMP_MAGIC, _DUMP_VERSION,
                               _table_key(maze, start, end, table.n))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(table.values, dtype=_body_dtype(table.d_max))
                 .tobytes())


def load_table(path, maze: Maze, start, end, n: int,
               cap: int = DEFAULT_N_CAP) -> FitnessTable:
    """Read the save_table dump of the table for (maze, start, end, n).

    The request is checked before the file is opened, and the body is sized
    from the request, never from the file. A file built for another request
    raises ValueError; a malformed one raises TableFormatError."""
    _check_length(n, cap)
    _endpoints_in_grid(maze.size, start, end)
    d_max = fitness_ceiling(maze.size)
    stored = _body_dtype(d_max)
    expected = stored.itemsize * 4**n
    with open(path, "rb") as fh:
        head = fh.read(_DUMP_HEADER.size)
        if len(head) < _DUMP_HEADER.size:
            raise TableFormatError("fitness table file too short for its header")
        magic, version, key = _DUMP_HEADER.unpack(head)
        if magic != _DUMP_MAGIC:
            raise TableFormatError("not a qmaze fitness table (bad magic)")
        if version != _DUMP_VERSION:
            raise TableFormatError(f"fitness table format version {version},"
                                   f" expected {_DUMP_VERSION}")
        if key != _table_key(maze, start, end, n):
            raise ValueError(f"cached table {path} was built for different"
                             " parameters; delete it or change the flags")
        body = fh.read(expected + 1)
    if len(body) != expected:
        got = "more" if len(body) > expected else len(body)
        raise TableFormatError(f"expected {expected} value bytes, got {got}")
    raw = np.frombuffer(body, dtype=stored)
    if raw.max() > d_max:
        raise TableFormatError(f"values outside [0, {d_max}]")
    return FitnessTable._one_row(n, raw.astype(np.min_scalar_type(d_max)), d_max)
