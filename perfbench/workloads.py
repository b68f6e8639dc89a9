"""The benchmark's workloads: amplify, verify and solve_cli.

Each workload draws its instances from the workload seed, prepares them
in setup(), and runs task j with task(j, tracer), which returns the time
spent in the program and the result of the benchmark's own correctness
checks. Tasks are deterministic in (seed, j): a traced run repeats each
task with the wrappers installed and gets the same work.
"""

import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

import checks

KNOWN = "known_count"
UNKNOWN = "unknown_count"


class Outcome(NamedTuple):
    seconds: float          # wall time inside the program
    success: bool           # the answer reaches the end room (scores D_max)
    cost: float | None      # oracle calls / sqrt(N), None if not applicable
    error: str | None       # first failed check; None when the output is right


class Instance(NamedTuple):
    m: int
    seed: int
    start: tuple
    end: tuple
    distance: int           # BFS distance start -> end, never above n
    rooms: tuple            # door masks of the generated maze

    def describe(self):
        return {"m": self.m, "seed": self.seed, "start": list(self.start),
                "end": list(self.end), "bfs": self.distance}


def draw(q, rng, m, lo, hi):
    """A maze of size m and endpoints at BFS distance in [lo, hi]. The
    distance comes from the benchmark's own BFS, so the expected answer,
    D_max, is known without trusting the program."""
    while True:
        seed = rng.randrange(1 << 32)
        rooms = q.maze.generate_maze(m, seed).rooms
        for _ in range(8):
            start = (rng.randrange(m), rng.randrange(m))
            dist = checks.bfs_distances(rooms, start)
            ends = sorted(room for room, d in dist.items() if lo <= d <= hi)
            if ends:
                end = rng.choice(ends)
                return Instance(m, seed, start, end, dist[end], rooms)


def task_seed(seed, j):
    """Search RNG seed of task j, independent of the order tasks run in."""
    return random.Random(f"{seed}/{j}").randrange(1 << 31)


def self_peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Amplify:
    """search_table on prebuilt tables; known_count and unknown_count alternate."""

    name = "amplify"
    why = ("8x8 mazes, n=7, end exactly n steps away (one path scores D_max);"
           " known_count stresses the dense Grover kernel, unknown_count the"
           " per-round overhead (marked count, state copy, measure)")
    M = 8
    N = 7
    POOL = 128
    ROUNDS = {KNOWN: 32, UNKNOWN: 160}

    def __init__(self, q, seed, root):
        self.q = q
        self.seed = seed
        self.instances = []
        self.tables = []

    def setup(self):
        rng = random.Random(self.seed)
        self.instances = [draw(self.q, rng, self.M, self.N, self.N)
                          for _ in range(self.POOL)]
        self.tables = []
        for inst in self.instances:
            maze = self.q.maze.generate_maze(inst.m, inst.seed)
            self.tables.append(self.q.fitness.build_fitness_table(
                maze, inst.start, inst.end, self.N))

    def check_setup(self):
        """Each table's ceiling and maximum, plus 256 entries re-walked."""
        errors = []
        rng = random.Random(self.seed)
        dm = checks.d_max(self.M)
        for inst, table in zip(self.instances, self.tables):
            if not checks.is_perfect(inst.rooms):
                errors.append(f"maze {inst.seed} is not perfect")
            if (table.d_max, table.max_fitness) != (dm, dm):
                errors.append(f"table {inst.seed}: d_max/max {table.d_max}/"
                              f"{table.max_fitness}, expected {dm}/{dm}")
            for idx in (rng.randrange(4 ** self.N) for _ in range(256)):
                want = checks.index_fitness(inst.rooms, inst.start, inst.end,
                                            self.N, idx)
                if int(table.values[idx]) != want:
                    errors.append(f"table {inst.seed}[{idx}] = "
                                  f"{int(table.values[idx])}, expected {want}")
                    break
        return len(self.instances), errors

    def task(self, j, tracer):
        k = (j // 2) % self.POOL
        inst, table = self.instances[k], self.tables[k]
        mode = KNOWN if j % 2 == 0 else UNKNOWN
        config = self.q.search.SearchConfig(max_rounds=self.ROUNDS[mode], mode=mode,
                                            rng_seed=task_seed(self.seed, j))
        t0 = time.perf_counter()
        result = self.q.search.search_table(table, config)
        seconds = time.perf_counter() - t0
        return Outcome(seconds, result.best_fitness == checks.d_max(self.M),
                       result.oracle_calls_total / 2 ** self.N,
                       check_search(inst, self.N, result))

    def peak_rss_mb(self):
        return self_peak_rss_mb()


def check_search(inst, n, result):
    """The reported best path re-walks to the reported fitness, and a
    certificate of optimality is never given below D_max."""
    got = checks.index_fitness(inst.rooms, inst.start, inst.end, n, result.best_index)
    if got != result.best_fitness:
        return f"best index {result.best_index} walks to {got}, reported {result.best_fitness}"
    if result.optimal and result.best_fitness != checks.d_max(inst.m):
        return f"certificate at {result.best_fitness} < D_max {checks.d_max(inst.m)}"
    return None


class Verify:
    """The verify pipeline in-process, table build at n=12."""

    name = "verify"
    why = ("n=12 on m in {8,16,32}, end exactly n steps away: generate,"
           " validate, build the 4**12 table, exhaustive max, BFS check; table"
           " build dominates and the statevector is never touched")
    SIZES = (8, 16, 32)
    N = 12
    POOL = 24

    def __init__(self, q, seed, root):
        self.q = q
        self.seed = seed
        self.instances = []

    def setup(self):
        rng = random.Random(self.seed)
        self.instances = [draw(self.q, rng, self.SIZES[i % len(self.SIZES)],
                               self.N, self.N) for i in range(self.POOL)]

    def check_setup(self):
        return 0, []

    def task(self, j, tracer):
        inst = self.instances[j % self.POOL]
        q = self.q
        t0 = time.perf_counter()
        maze = q.maze.generate_maze(inst.m, inst.seed)
        perfect = q.maze.validate_perfect(maze)
        table = q.fitness.build_fitness_table(maze, inst.start, inst.end, self.N)
        idx, val = q.verify.exhaustive_max(table)
        consistent = q.verify.bfs_consistency_check(maze, inst.start, inst.end,
                                                    self.N, table)
        seconds = time.perf_counter() - t0
        del table
        dm = checks.d_max(inst.m)
        error = None
        if maze.rooms != inst.rooms:
            error = f"maze {inst.m}/{inst.seed} differs between generations"
        elif perfect != checks.is_perfect(inst.rooms):
            error = f"validate_perfect says {perfect} for maze {inst.seed}"
        elif val != dm:
            error = f"exhaustive max {val}, expected D_max {dm}"
        elif checks.index_fitness(inst.rooms, inst.start, inst.end, self.N, idx) != val:
            error = f"argmax {idx} does not walk to {val}"
        elif consistent is not True:
            error = "bfs_consistency_check failed on a route of length <= n"
        # The exhaustive scan reads every one of the N entries once.
        return Outcome(seconds, val == dm, 2.0 ** self.N, error)

    def peak_rss_mb(self):
        return self_peak_rss_mb()


class SolveCli:
    """Cold `python -m qmaze solve --format json` processes, one at a time."""

    name = "solve_cli"
    why = ("m 3-6, n 5-8 (end exactly n steps away); each instance solved"
           " twice with one --fitness-table file (build+write, then load),"
           " so interpreter start-up and import dominate")
    SIZES = (3, 4, 5, 6)
    LENGTHS = (5, 8)
    POOL = 128
    ROUNDS = 32
    TIMEOUT = 60

    def __init__(self, q, seed, root):
        self.q = q
        self.seed = seed
        self.root = root
        self.instances = []
        self.first = {}
        self.env = dict(os.environ)
        # Time the CLI as an installed package runs: from bytecode caches.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
        self.boot = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_boot.py")

    def setup(self):
        rng = random.Random(self.seed)
        self.instances = [draw(self.q, rng, self.SIZES[i % len(self.SIZES)],
                               *self.LENGTHS) for i in range(self.POOL)]
        # A cold interpreter importing the CLI; the first one also writes
        # the bytecode caches that every timed process then reads.
        subprocess.run([sys.executable, "-c", "import qmaze.cli"], cwd=self.root,
                       env=self.env, check=True, timeout=self.TIMEOUT)

    def check_setup(self):
        return 0, []

    def task(self, j, tracer):
        pair = j // 2
        inst = self.instances[pair % self.POOL]
        n = inst.distance
        traced = tracer is not None
        table_file = os.path.join(self.tmp, f"table-{pair}-{int(traced)}.bin")
        argv = ["solve", "--size", str(inst.m), "--seed", str(inst.seed),
                "--start", "%d,%d" % inst.start, "--end", "%d,%d" % inst.end,
                "--length", str(n), "--rounds", str(self.ROUNDS),
                "--rng-seed", str(task_seed(self.seed, pair)),
                "--fitness-table", table_file, "--format", "json"]
        spans_file = os.path.join(self.tmp, "spans.json")
        if traced:
            cmd = [sys.executable, self.boot, spans_file] + argv
        else:
            cmd = [sys.executable, "-m", "qmaze"] + argv
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True,
                              text=True, timeout=self.TIMEOUT)
        t1 = time.perf_counter()
        if j % 2 == 1:
            os.remove(table_file)
        if proc.returncode != 0:
            return Outcome(t1 - t0, False, None,
                           f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if traced:
            with open(spans_file, encoding="utf-8") as fh:
                tracer.merge(json.load(fh), tracer.add_span("cli.process", t0, t1))
            os.remove(spans_file)
        doc = json.loads(proc.stdout)
        result = doc["result"]
        error = self._check(inst, n, doc)
        if j % 2 == 0:
            self.first[(pair, traced)] = result
            if error is None and not os.path.exists(table_file):
                error = f"--fitness-table {table_file} was not written"
        elif error is None and result != self.first.pop((pair, traced), None):
            error = "the loaded table gave another search result than the built one"
        return Outcome(t1 - t0, result["best_fitness"] == checks.d_max(inst.m),
                       result["oracle_calls_total"] / 2 ** n, error)

    @staticmethod
    def _check(inst, n, doc):
        """Every echoed field matches the request, and the printed best
        path re-walks to the printed final room and fitness."""
        dm = checks.d_max(inst.m)
        result = doc["result"]
        expected = {"maze": {"size": inst.m, "seed": inst.seed},
                    "start": list(inst.start), "end": list(inst.end), "n": n,
                    "num_states": 4 ** n, "d_max": dm}
        for key, want in expected.items():
            if doc.get(key) != want:
                return f"{key} = {doc.get(key)!r}, expected {want!r}"
        codes = [checks.LETTER_CODE[ch] for ch in doc["best_path"]]
        index = sum(code << 2 * (n - 1 - k) for k, code in enumerate(codes))
        if len(codes) != n or index != result["best_index"]:
            return f"best_path {doc['best_path']} is not index {result['best_index']}"
        room, reached = checks.walk(inst.rooms, inst.start, inst.end, codes)
        if doc["final_room"] != list(room) or doc["reached_end"] != reached:
            return f"best_path ends at {room} (reached {reached}), reported " \
                   f"{doc['final_room']} ({doc['reached_end']})"
        if checks.fitness(inst.m, inst.end, room) != result["best_fitness"]:
            return f"best_path scores {checks.fitness(inst.m, inst.end, room)}," \
                   f" reported {result['best_fitness']}"
        if result["optimal"] and result["best_fitness"] != dm:
            return f"certificate at {result['best_fitness']} < D_max {dm}"
        return None

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Amplify, Verify, SolveCli)}
