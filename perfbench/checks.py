"""Ground truth for the benchmark, written without importing qmaze.

Only the documented data formats are shared with the program: a maze is
a tuple of rows of 4-bit door masks (bit k open means direction k, with
N=0, E=1, S=2, W=3 and row 0 at the top), and a path index packs the
2-bit step codes with the first step in the most significant position.
Everything else -- BFS, the step walker, the fitness formula, the
perfect-maze test -- is re-derived here so that a wrong answer from the
program cannot also be the benchmark's expected answer.
"""

from collections import deque

ROW_DELTA = (-1, 0, 1, 0)
COL_DELTA = (0, 1, 0, -1)
LETTER_CODE = {"N": 0, "E": 1, "S": 2, "W": 3}


def d_max(m):
    """Best possible score on an m x m grid: the squared grid diagonal."""
    return 2 * (m - 1) ** 2


def bfs_distances(rooms, start):
    """Open-door distance from `start` to every reachable room."""
    m = len(rooms)
    dist = {tuple(start): 0}
    queue = deque([tuple(start)])
    while queue:
        r, c = queue.popleft()
        mask = rooms[r][c]
        for d in range(4):
            if not mask >> d & 1:
                continue
            nxt = (r + ROW_DELTA[d], c + COL_DELTA[d])
            if 0 <= nxt[0] < m and 0 <= nxt[1] < m and nxt not in dist:
                dist[nxt] = dist[(r, c)] + 1
                queue.append(nxt)
    return dist


def is_perfect(rooms):
    """Square grid, symmetric doors, none off the grid, m*m - 1 door pairs,
    every room reachable: a spanning tree of the rooms."""
    m = len(rooms)
    if any(len(row) != m for row in rooms):
        return False
    ends = 0
    for r in range(m):
        for c in range(m):
            for d in range(4):
                if not rooms[r][c] >> d & 1:
                    continue
                nr, nc = r + ROW_DELTA[d], c + COL_DELTA[d]
                if not (0 <= nr < m and 0 <= nc < m):
                    return False
                if not rooms[nr][nc] >> ((d + 2) % 4) & 1:
                    return False
                ends += 1
    return ends == 2 * (m * m - 1) and len(bfs_distances(rooms, (0, 0))) == m * m


def index_codes(index, n):
    """The n step codes of a path index, first step first."""
    return [index >> 2 * (n - 1 - k) & 3 for k in range(n)]


def walk(rooms, start, end, codes):
    """Replay step codes from `start`: halt at the first closed door, stop
    on reaching `end`. Returns (final room, reached end)."""
    r, c = start
    end = tuple(end)
    if (r, c) == end:
        return (r, c), True
    for d in codes:
        if not rooms[r][c] >> d & 1:
            break
        r, c = r + ROW_DELTA[d], c + COL_DELTA[d]
        if (r, c) == end:
            return (r, c), True
    return (r, c), False


def fitness(m, end, room):
    """d_max minus the squared distance from `room` to `end`."""
    return d_max(m) - (end[0] - room[0]) ** 2 - (end[1] - room[1]) ** 2


def index_fitness(rooms, start, end, n, index):
    room, _ = walk(rooms, start, end, index_codes(index, n))
    return fitness(len(rooms), end, room)
