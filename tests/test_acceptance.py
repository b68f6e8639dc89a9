"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines as they complete.
"""

import math
import time

import numpy as np
import pytest
import scipy.stats

from qmaze import (KNOWN_COUNT, UNKNOWN_COUNT, FitnessTable, SearchConfig,
                   bfs_consistency_check, bfs_shortest_path,
                   build_fitness_table, exhaustive_max, generate_maze,
                   path_length, run_benchmark, search_table, validate_perfect)

from dense_reference import (OracleSpec, apply_diffusion, apply_oracle,
                             grover_iterate, marked_probability, measure,
                             uniform_superposition)
from oracles import grover_success_probability


def _report(num, name, ok):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_maze_invariants():
    ok = False
    try:
        t0 = time.monotonic()
        for i in range(1000):
            m = 2 + (i % 31)
            assert validate_perfect(generate_maze(m, i)), f"maze m={m} seed={i}"
        elapsed = time.monotonic() - t0
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        ok = True
    finally:
        _report(1, "1000 mazes m in 2..32 all perfect, < 5 s", ok)


def test_criterion_2_normalization_drift(maze4):
    ok = False
    try:
        table = build_fitness_table(maze4, (0, 0), (3, 3), 6)
        rng = np.random.default_rng(20240601)
        state = uniform_superposition(6)
        for _ in range(10_000):
            if rng.random() < 0.5:
                cutoff = int(rng.integers(0, table.d_max + 1))
                state = apply_oracle(state, OracleSpec(table, cutoff))
            else:
                state = apply_diffusion(state)
            assert abs(state.norm() - 1.0) < 1e-12
        ok = True
    finally:
        _report(2, "norm within 1e-12 across 10^4 oracle/diffusion ops at n=6", ok)


def test_criterion_3_grover_closed_form():
    ok = False
    try:
        rng = np.random.default_rng(7)
        worst = 0.0
        cases = 0
        for n in range(7):
            num = 4**n
            for l in sorted({1, 2, 5, num // 4}):
                if not 1 <= l <= num:
                    continue
                values = np.zeros(num, dtype=np.int32)
                values[rng.choice(num, size=l, replace=False)] = 1
                oracle = OracleSpec(FitnessTable.from_values(values), 0)
                r_max = 2 * math.floor(math.pi / 4 * math.sqrt(num / l))
                state = uniform_superposition(n)
                for r in range(r_max + 1):
                    got = marked_probability(state, oracle)
                    want = grover_success_probability(num, l, r)
                    worst = max(worst, abs(got - want))
                    assert abs(got - want) < 1e-9, (n, l, r)
                    state = grover_iterate(state, oracle, 1)
                cases += 1
        assert cases >= 20
        print(f"  ({cases} (N,l) cases, worst |error| = {worst:.2e})")
        ok = True
    finally:
        _report(3, "marked probability matches sin^2((2r+1)*theta) within 1e-9", ok)


def test_criterion_4_oracle_flip_sets(maze4):
    ok = False
    try:
        table = build_fitness_table(maze4, (0, 0), (3, 3), 6)
        rng = np.random.default_rng(99)
        amps = rng.normal(size=4**6) + 1j * rng.normal(size=4**6)
        amps /= np.linalg.norm(amps)
        assert (amps != 0).all()
        state = uniform_superposition(6)
        state.amplitudes = amps
        for _ in range(50):
            cutoff = int(rng.integers(-1, table.d_max + 1))
            out = apply_oracle(state, OracleSpec(table, cutoff))
            flipped = np.flatnonzero(out.amplitudes == -state.amplitudes)
            scanned = np.flatnonzero(table.values > cutoff)
            assert np.array_equal(flipped, scanned), f"cutoff={cutoff}"
        ok = True
    finally:
        _report(4, "50 random cutoffs: flipped set == scanned set, bit-exact", ok)


def test_criterion_5_end_to_end_search():
    ok = False
    try:
        maze = generate_maze(3, 11)
        n = 8
        assert path_length((0, 0), (2, 2)) == n
        config = SearchConfig(mode=KNOWN_COUNT, rng_seed=0, max_rounds=16)
        t0 = time.monotonic()
        report = run_benchmark(maze, (0, 0), (2, 2), n, config, trials=100)
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"took {elapsed:.2f}s"
        assert report.success_rate >= 0.90, report.success_rate
        for rec in report.records:
            seq = list(rec.accepted_cutoffs)
            assert seq == sorted(set(seq)), f"seed {rec.seed}: {seq}"
        bound = 10 * math.sqrt(4**n)
        assert report.mean_oracle_calls <= bound, report.mean_oracle_calls
        print(f"  (success {report.success_rate:.0%}, mean oracle calls"
              f" {report.mean_oracle_calls:.1f} <= {bound:.0f}, {elapsed:.2f}s)")
        ok = True
    finally:
        _report(5, "3x3/seed 11, n=8, 100 seeds: >=90% optimal, cutoffs"
                   " increase, calls <= 10*sqrt(N), < 10 s", ok)


def test_criterion_6_certificate_soundness():
    ok = False
    try:
        rng = np.random.default_rng(4242)
        certified = 0
        for trial in range(500):
            m = int(rng.integers(2, 6))
            maze = generate_maze(m, int(rng.integers(0, 2**32)))
            start = (int(rng.integers(m)), int(rng.integers(m)))
            end = (int(rng.integers(m)), int(rng.integers(m)))
            n = int(rng.integers(1, 7))
            mode = KNOWN_COUNT if trial % 2 == 0 else UNKNOWN_COUNT
            cfg = SearchConfig(mode=mode, rng_seed=trial, max_rounds=8)
            table = build_fitness_table(maze, start, end, n)
            res = search_table(table, cfg)
            if res.optimal:
                certified += 1
                assert res.best_fitness == exhaustive_max(table)[1], \
                    (m, maze.seed, start, end, n, mode)
        assert certified >= 200, f"only {certified} runs certified"
        print(f"  ({certified}/500 runs reached the certificate)")
        ok = True
    finally:
        _report(6, "optimal=true implies exhaustive maximum in 500 runs", ok)


def test_criterion_7_bfs_consistency():
    ok = False
    try:
        checked = 0
        seed = 0
        while checked < 200:
            m = 2 + (checked % 4)
            maze = generate_maze(m, 1000 + seed)
            seed += 1
            best = None
            for r in range(m):
                for c in range(m):
                    d = bfs_shortest_path(maze, (0, 0), (r, c)).distance
                    if 1 <= d <= 6 and (best is None or d > best[0]):
                        best = (d, (r, c))
            if best is None:
                continue
            dist, end = best
            n = dist + (checked % 3)
            table = build_fitness_table(maze, (0, 0), end, n)
            assert dist <= n
            assert bfs_consistency_check(maze, (0, 0), end, n, table), \
                (m, maze.seed, end, n)
            checked += 1
        ok = True
    finally:
        _report(7, "200 mazes m<=5: padded shortest route scores the ceiling", ok)


def test_criterion_8_measurement_uniformity():
    ok = False
    try:
        state = uniform_superposition(2)
        rng = np.random.default_rng(2024)
        counts = np.zeros(16, dtype=int)
        for _ in range(40_000):
            counts[measure(state, rng)] += 1
        p = scipy.stats.chisquare(counts).pvalue
        assert p > 0.001, f"p={p}"
        print(f"  (chi-square p = {p:.3f})")
        ok = True
    finally:
        _report(8, "40000 uniform n=2 samples pass chi-square at 0.001", ok)
