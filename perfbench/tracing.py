"""Layer spans recorded from outside the program.

A Tracer rebinds qmaze's public functions with wrappers that record one
span per call: name, start, end, the enclosing span and the benchmark
task it belongs to. Every module of the package that imported a wrapped
function gets the wrapper too (``qmaze.search`` calls ``grover_iterate``
through its own import, ``qmaze.cli`` calls ``build_fitness_table``
through its own, and so on), so the spans sit exactly at the layer
boundaries. Spans stay in memory until the run ends. A function that the
program no longer has is reported as absent and never fails the run.
"""

import functools
import importlib
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module that defines the public name, the name, span name)
TARGETS = (
    ("qmaze.maze", "generate_maze", "maze.generate"),
    ("qmaze.maze", "validate_perfect", "maze.validate"),
    ("qmaze.fitness", "build_fitness_table", "fitness.build"),
    ("qmaze.fitness", "save_table", "fitness.cache_save"),
    ("qmaze.fitness", "load_table", "fitness.cache_load"),
    ("qmaze.fitness", "walk", "fitness.walk"),
    ("qmaze.statevector", "uniform_superposition", "statevector.uniform"),
    ("qmaze.statevector", "grover_iterate", "statevector.grover"),
    ("qmaze.statevector", "measure", "statevector.measure"),
    ("qmaze.search", "search_table", "search"),
    ("qmaze.verify", "exhaustive_max", "verify.exhaustive_max"),
    ("qmaze.verify", "bfs_consistency_check", "verify.bfs"),
)

# name, unit; "s" metrics are mean seconds per call, "/task" metrics are
# per timed task.
LAYER_METRICS = (
    ("statevector.grover_s", "s"),
    ("statevector.grover_calls", "calls/task"),
    ("statevector.oracle_calls", "calls/task"),
    ("statevector.s_per_oracle_call", "s"),
    ("statevector.state_bytes", "bytes"),
    ("statevector.measure_s", "s"),
    ("statevector.measure_calls", "calls/task"),
    ("statevector.uniform_s", "s"),
    ("statevector.amp_z", "z"),
    ("statevector.p_pred_mean", "ratio"),
    ("statevector.p_obs_mean", "ratio"),
    ("search.s", "s"),
    ("search.self_s", "s"),
    ("search.self_s_per_round", "s"),
    ("search.rounds", "rounds/task"),
    ("search.accept_ratio", "ratio"),
    ("search.certificate_frac", "ratio"),
    ("fitness.build_s", "s"),
    ("fitness.build_calls", "calls/task"),
    ("fitness.entries_per_s", "1/s"),
    ("fitness.cache_save_s", "s"),
    ("fitness.cache_load_s", "s"),
    ("fitness.walk_s", "s"),
    ("maze.generate_s", "s"),
    ("maze.validate_s", "s"),
    ("verify.exhaustive_max_s", "s"),
    ("verify.bfs_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main_s", "s"),
    ("cli.process_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

# Each metric is computed from the spans (or search records) named here.
_SOURCE = {
    "statevector.grover_s": "statevector.grover",
    "statevector.grover_calls": "statevector.grover",
    "statevector.oracle_calls": "statevector.grover",
    "statevector.s_per_oracle_call": "statevector.grover",
    "statevector.state_bytes": "statevector.grover",
    "statevector.measure_s": "statevector.measure",
    "statevector.measure_calls": "statevector.measure",
    "statevector.uniform_s": "statevector.uniform",
    "fitness.build_s": "fitness.build",
    "fitness.build_calls": "fitness.build",
    "fitness.entries_per_s": "fitness.build",
    "fitness.cache_save_s": "fitness.cache_save",
    "fitness.cache_load_s": "fitness.cache_load",
    "fitness.walk_s": "fitness.walk",
    "maze.generate_s": "maze.generate",
    "maze.validate_s": "maze.validate",
    "verify.exhaustive_max_s": "verify.exhaustive_max",
    "verify.bfs_s": "verify.bfs",
    "cli.import_s": "cli.import",
    "cli.main_s": "cli.main",
    "cli.process_s": "cli.process",
}
for _name in ("statevector.amp_z", "statevector.p_pred_mean",
              "statevector.p_obs_mean", "search.s", "search.self_s",
              "search.self_s_per_round", "search.rounds",
              "search.accept_ratio", "search.certificate_frac"):
    _SOURCE[_name] = "search"

_T1, _WORK = 2, 5  # fields of a span


def _grover_work(args, kwargs, result):
    """Oracle calls made: the iteration count argument."""
    r = args[2] if len(args) > 2 else kwargs.get("r")
    return r if isinstance(r, int) else None


def _build_work(args, kwargs, result):
    """Table entries scored."""
    values = getattr(result, "values", None)
    return None if values is None else len(values)


_WORK_OF = {"statevector.grover": _grover_work, "fitness.build": _build_work}


class Tracer:
    """Collects spans at qmaze's layer boundaries while installed."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent, task, work]
        self.searches = []    # (num_states, optimal, [(marked, r, hit)])
        self.state_bytes = None
        self.absent = []      # public names the program does not have
        self.task = -1        # -1: set-up, otherwise the timed task's number
        self._stack = []
        self._rebinds = []    # (module, attribute, original, wrapper)

    # -- wiring -----------------------------------------------------------

    def plan(self):
        """Resolve TARGETS in the loaded qmaze modules. Call once, after
        qmaze is imported."""
        package = [mod for name, mod in list(sys.modules.items())
                   if name == "qmaze" or name.startswith("qmaze.")]
        for modname, attr, span in TARGETS:
            try:
                original = getattr(importlib.import_module(modname), attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{modname}.{attr}")
                continue
            wrapper = self._wrap(original, span)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebinds.append((mod, key, original, wrapper))

    def install(self):
        for mod, key, _, wrapper in self._rebinds:
            setattr(mod, key, wrapper)

    def uninstall(self):
        for mod, key, original, _ in self._rebinds:
            setattr(mod, key, original)

    @contextmanager
    def active(self, task):
        """Wrappers installed, spans attributed to `task`."""
        self.task = task
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def _wrap(self, fn, span):
        work_of = _WORK_OF.get(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if work_of is not None:
                self.spans[idx][_WORK] = work_of(args, kwargs, result)
            if span == "statevector.grover":
                amps = getattr(result, "amplitudes", None)
                if amps is not None:
                    self.state_bytes = amps.size * amps.itemsize
            elif span == "search":
                self._record_search(args[0], result)
            return result

        return traced

    # -- recording --------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.task, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][_T1] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def add_span(self, name, start, end):
        """Record a span timed by the caller; returns its index."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.task, None])
        return len(self.spans) - 1

    def _record_search(self, table, result):
        history = getattr(result, "history", None)
        n = getattr(table, "n", None)
        if history is None or n is None:
            return
        try:
            rounds = [(rec.marked, rec.grover_r, bool(rec.accepted)) for rec in history]
        except AttributeError:
            if "IterationRecord.marked/grover_r/accepted" not in self.absent:
                self.absent.append("IterationRecord.marked/grover_r/accepted")
            return
        self.searches.append((4 ** n, bool(getattr(result, "optimal", False)), rounds))

    # -- moving spans between processes -----------------------------------

    def dump(self):
        return {"spans": self.spans, "searches": self.searches,
                "state_bytes": self.state_bytes, "absent": self.absent}

    def merge(self, dump, parent):
        """Adopt a child process's spans under span `parent` of this one."""
        offset = len(self.spans)
        for name, t0, t1, par, _, work in dump["spans"]:
            self.spans.append([name, t0, t1, par + offset if par >= 0 else parent,
                               self.task, work])
        self.searches.extend(dump["searches"])
        if dump["state_bytes"] is not None:
            self.state_bytes = dump["state_bytes"]
        self.absent.extend(a for a in dump["absent"] if a not in self.absent)


def layer_metrics(tracer, tasks, task_time, overhead_frac):
    """Per-layer metrics of a traced run whose `tasks` traced tasks spent
    `task_time` seconds in the program.

    Returns (metrics, not_seen, shares): metrics maps every LAYER_METRICS
    name to (value, unit); a metric whose layer never ran reads 0 and is
    listed in not_seen; shares gives each layer's part of traced task time.
    """
    spans = tracer.spans
    calls = defaultdict(list)           # span name -> durations
    in_tasks = defaultdict(int)         # span name -> calls inside tasks
    work = defaultdict(int)             # span name -> summed work
    child = defaultdict(float)          # span index -> direct children's time
    for name, t0, t1, parent, task, w in spans:
        calls[name].append(t1 - t0)
        if parent >= 0:
            child[parent] += t1 - t0
        if task >= 0:
            in_tasks[name] += 1
        if w is not None:
            work[name] += w
    search_self = {i: t1 - t0 - child[i] for i, (name, t0, t1, *_) in enumerate(spans)
                   if name == "search"}

    def mean(name):
        return sum(calls[name]) / len(calls[name]) if calls[name] else 0.0

    def per_task(count):
        return count / tasks if tasks else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    rounds = [rec for _, _, recs in tracer.searches for rec in recs]
    p_pred = []
    for num_states, _, recs in tracer.searches:
        for marked, r, _ in recs:
            theta = math.asin(math.sqrt(min(1.0, marked / num_states)))
            p_pred.append(math.sin((2 * r + 1) * theta) ** 2)
    hits = [hit for _, _, hit in rounds]
    var = sum(p * (1 - p) for p in p_pred)
    grover_s = sum(calls["statevector.grover"])
    build_s = sum(calls["fitness.build"])

    values = {
        "statevector.grover_s": mean("statevector.grover"),
        "statevector.grover_calls": per_task(in_tasks["statevector.grover"]),
        "statevector.oracle_calls": per_task(work["statevector.grover"]),
        "statevector.s_per_oracle_call": ratio(grover_s, work["statevector.grover"]),
        "statevector.state_bytes": float(tracer.state_bytes or 0),
        "statevector.measure_s": mean("statevector.measure"),
        "statevector.measure_calls": per_task(in_tasks["statevector.measure"]),
        "statevector.uniform_s": mean("statevector.uniform"),
        "statevector.amp_z": ratio(sum(hits) - sum(p_pred), math.sqrt(var)),
        "statevector.p_pred_mean": ratio(sum(p_pred), len(p_pred)),
        "statevector.p_obs_mean": ratio(sum(hits), len(hits)),
        "search.s": mean("search"),
        "search.self_s": ratio(sum(search_self.values()), len(search_self)),
        "search.self_s_per_round": ratio(sum(search_self.values()), len(rounds)),
        "search.rounds": per_task(len(rounds)),
        "search.accept_ratio": ratio(sum(hits), len(hits)),
        "search.certificate_frac": ratio(sum(opt for _, opt, _ in tracer.searches),
                                         len(tracer.searches)),
        "fitness.build_s": mean("fitness.build"),
        "fitness.build_calls": per_task(in_tasks["fitness.build"]),
        "fitness.entries_per_s": ratio(work["fitness.build"], build_s),
        "fitness.cache_save_s": mean("fitness.cache_save"),
        "fitness.cache_load_s": mean("fitness.cache_load"),
        "fitness.walk_s": mean("fitness.walk"),
        "maze.generate_s": mean("maze.generate"),
        "maze.validate_s": mean("maze.validate"),
        "verify.exhaustive_max_s": mean("verify.exhaustive_max"),
        "verify.bfs_s": mean("verify.bfs"),
        "cli.import_s": mean("cli.import"),
        "cli.main_s": mean("cli.main"),
        "cli.process_s": mean("cli.process"),
        "trace.overhead_frac": overhead_frac,
    }
    searched = bool(tracer.searches)
    not_seen = [name for name, _ in LAYER_METRICS if name in _SOURCE and
                not (searched if _SOURCE[name] == "search" else calls[_SOURCE[name]])]
    if tracer.state_bytes is None and "statevector.state_bytes" not in not_seen:
        not_seen.append("statevector.state_bytes")
    metrics = {name: (values[name], unit) for name, unit in LAYER_METRICS}

    # Part of traced task time spent inside each layer; nested layers overlap.
    busy = defaultdict(float)
    for i, (name, t0, t1, _, task, _) in enumerate(spans):
        if task >= 0:
            busy[name] += t1 - t0
            if i in search_self:
                busy["search.self"] += search_self[i]
    shares = {name: ratio(b, task_time) for name, b in busy.items()}
    return metrics, not_seen, shares
