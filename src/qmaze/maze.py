"""Perfect square mazes: generation, validation, text format, ASCII rendering.

A maze is an m x m grid of rooms. Each room stores a 4-bit mask of open
doors, bit k meaning Direction(k) is open. Open doors always come in
symmetric pairs, never point off the grid, and form a spanning tree over
the rooms (connected, m^2 - 1 door pairs, no loops).

Generation is an iterative randomized depth-first carve driven by an
explicit stack, so there is no recursion-depth limit. Randomness comes
from a self-contained splitmix64 generator, which keeps mazes bit-identical
for a given (size, seed) on every platform and Python version.
"""

import dataclasses
from typing import NamedTuple

from .directions import Direction

_MASK64 = (1 << 64) - 1
_ROW_DELTA = (-1, 0, 1, 0)
_COL_DELTA = (0, 1, 0, -1)


class RoomCoord(NamedTuple):
    row: int
    col: int


class MazeFormatError(ValueError):
    """Maze text that cannot be parsed or breaks a structural invariant."""


class _SplitMix64:
    """splitmix64; tiny, fast, and identical on every platform."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, k: int) -> int:
        # rejection sampling keeps the draw exactly uniform
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % k)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % k


def _endpoints_in_grid(m: int, start, end) -> tuple[RoomCoord, RoomCoord]:
    """start and end as RoomCoords; ValueError if either lies off the m x m grid."""
    start, end = RoomCoord(*start), RoomCoord(*end)
    for name, room in (("start", start), ("end", end)):
        if not (0 <= room.row < m and 0 <= room.col < m):
            raise ValueError(f"{name} room {tuple(room)} outside {m}x{m} grid")
    return start, end


@dataclasses.dataclass(frozen=True)
class Maze:
    """Immutable maze: size, the seed it was built from, and per-room door masks."""

    size: int
    seed: int
    rooms: tuple[tuple[int, ...], ...]

    def open_door_count(self) -> int:
        """Number of open door *pairs*."""
        return sum(bin(m).count("1") for row in self.rooms for m in row) // 2


def _carve(m: int, seed: int):
    """Randomized DFS carve. Returns (rooms, events); events is the ordered
    list of (cell, direction code) door openings, cell = row * m + col, one
    per spanning-tree edge."""
    if m < 1:
        raise ValueError(f"maze size must be >= 1, got {m}")
    if not 0 <= seed <= _MASK64:
        raise ValueError("seed must fit in 64 unsigned bits")
    rng = _SplitMix64(seed)
    masks = bytearray(m * m)
    visited = bytearray(m * m)
    events: list[tuple[int, int]] = []

    cell = rng.below(m) * m + rng.below(m)
    visited[cell] = 1
    stack = [cell]
    while stack:
        cell = stack[-1]
        r, c = divmod(cell, m)
        nbrs = []
        if r > 0 and not visited[cell - m]:
            nbrs.append((0, cell - m))
        if c < m - 1 and not visited[cell + 1]:
            nbrs.append((1, cell + 1))
        if r < m - 1 and not visited[cell + m]:
            nbrs.append((2, cell + m))
        if c > 0 and not visited[cell - 1]:
            nbrs.append((3, cell - 1))
        if nbrs:
            d, nxt = nbrs[0] if len(nbrs) == 1 else nbrs[rng.below(len(nbrs))]
            masks[cell] |= 1 << d
            masks[nxt] |= 1 << ((d + 2) & 3)
            visited[nxt] = 1
            events.append((cell, d))
            stack.append(nxt)
        else:
            stack.pop()

    rooms = tuple(tuple(masks[i * m : (i + 1) * m]) for i in range(m))
    return rooms, events


def generate_maze(m: int, seed: int) -> Maze:
    """Generate a perfect m x m maze, deterministically for a given (m, seed)."""
    rooms, _ = _carve(m, seed)
    return Maze(size=m, seed=seed, rooms=rooms)


def generate_maze_with_log(m: int, seed: int):
    """Like generate_maze, but also return the ordered door-opening log.

    The log is what the generator actually did, so independent checks can
    rebuild the maze from it and compare.
    """
    rooms, events = _carve(m, seed)
    log = tuple((RoomCoord(*divmod(cell, m)), Direction(d)) for cell, d in events)
    return Maze(size=m, seed=seed, rooms=rooms), log


def is_open(maze: Maze, room, direction) -> bool:
    """True iff the door from `room` in `direction` is open.

    Directions pointing off the grid edge are closed by definition; this
    never raises for in-bounds rooms.
    """
    r, c = room
    d = int(direction)
    if not maze.rooms[r][c] >> d & 1:
        return False
    nr = r + _ROW_DELTA[d]
    nc = c + _COL_DELTA[d]
    return 0 <= nr < maze.size and 0 <= nc < maze.size


def _structural_defect(maze: Maze) -> str | None:
    """First door-symmetry / boundary / mask-range violation, or None."""
    m = maze.size
    for r in range(m):
        for c in range(m):
            mask = maze.rooms[r][c]
            if mask & ~0xF:
                return f"room ({r},{c}) has mask {mask} outside 0..15"
            for d in range(4):
                if not mask >> d & 1:
                    continue
                nr = r + _ROW_DELTA[d]
                nc = c + _COL_DELTA[d]
                if not (0 <= nr < m and 0 <= nc < m):
                    return f"room ({r},{c}) opens {Direction(d).name} off the grid"
                if not maze.rooms[nr][nc] >> ((d + 2) & 3) & 1:
                    return (
                        f"one-sided door: ({r},{c}) {Direction(d).name} open but"
                        f" ({nr},{nc}) {Direction(d).opposite.name} closed"
                    )
    return None


def validate_perfect(maze: Maze) -> bool:
    """True iff doors are symmetric, the maze is connected, and the open-door
    pair count is exactly size^2 - 1 (spanning tree, hence no loops)."""
    if _structural_defect(maze) is not None:
        return False
    m = maze.size
    total_bits = sum(bin(mask).count("1") for row in maze.rooms for mask in row)
    if total_bits != 2 * (m * m - 1):
        return False
    seen = bytearray(m * m)
    seen[0] = 1
    stack = [0]
    count = 1
    while stack:
        cell = stack.pop()
        r, c = divmod(cell, m)
        mask = maze.rooms[r][c]
        for d in range(4):
            if mask >> d & 1:
                nxt = (r + _ROW_DELTA[d]) * m + (c + _COL_DELTA[d])
                if not seen[nxt]:
                    seen[nxt] = 1
                    count += 1
                    stack.append(nxt)
    return count == m * m


def serialize(maze: Maze) -> str:
    """Maze text format: `size seed` header, then one hex-digit row per line."""
    lines = [f"{maze.size} {maze.seed}"]
    lines.extend("".join(format(mask, "x") for mask in row) for row in maze.rooms)
    return "\n".join(lines) + "\n"


def deserialize(text: str) -> Maze:
    """Parse the maze text format; rejects malformed input and asymmetric doors."""
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise MazeFormatError("empty maze text")
    head = lines[0].split()
    if len(head) != 2:
        raise MazeFormatError("header must be two integers: size seed")
    try:
        m = int(head[0])
        seed = int(head[1])
    except ValueError:
        raise MazeFormatError("header must be two integers: size seed") from None
    if m < 1:
        raise MazeFormatError(f"maze size must be >= 1, got {m}")
    if not 0 <= seed <= _MASK64:
        raise MazeFormatError("seed must fit in 64 unsigned bits")
    if len(lines) - 1 != m:
        raise MazeFormatError(f"expected {m} rows, got {len(lines) - 1}")
    rooms = []
    for i, line in enumerate(lines[1:]):
        row = line.strip()
        if len(row) != m:
            raise MazeFormatError(f"row {i}: expected {m} hex digits, got {len(row)}")
        try:
            rooms.append(tuple(int(ch, 16) for ch in row))
        except ValueError:
            raise MazeFormatError(f"row {i}: invalid hex digit in {row!r}") from None
    maze = Maze(size=m, seed=seed, rooms=tuple(rooms))
    defect = _structural_defect(maze)
    if defect is not None:
        raise MazeFormatError(defect)
    return maze


def render_ascii(maze: Maze, marks: dict | None = None) -> str:
    """Draw the maze with +, -, | walls; `marks` maps (row, col) to a 1-char label."""
    marks = marks or {}
    m = maze.size
    out = []
    for r in range(m):
        top = ["+"]
        mid = []
        for c in range(m):
            top.append("   +" if is_open(maze, (r, c), Direction.N) else "---+")
            wall = " " if is_open(maze, (r, c), Direction.W) else "|"
            mid.append(f"{wall} {str(marks.get((r, c), ' '))[:1]} ")
        mid.append("|")
        out.append("".join(top))
        out.append("".join(mid))
    out.append("+" + "---+" * m)
    return "\n".join(out)
