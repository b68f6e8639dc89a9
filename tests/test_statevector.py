"""The dense reference state, and the search's closed-form round sampler
checked against it."""

import math

import numpy as np
import pytest
import scipy.stats

from qmaze import FitnessTable, build_fitness_table, measure_amplified

from dense_reference import (OracleSpec, apply_diffusion, apply_oracle,
                             grover_iterate, marked_probability, measure,
                             uniform_superposition)
from oracles import grover_success_probability


def synthetic_table(num_marked, n):
    values = np.zeros(4**n, dtype=np.int32)
    values[:num_marked] = 1
    return FitnessTable.from_values(values)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=4**n) + 1j * rng.normal(size=4**n)
    amps /= np.linalg.norm(amps)
    state = uniform_superposition(n)
    state.amplitudes = amps
    return state


def test_uniform_amplitudes():
    s1 = uniform_superposition(1)
    assert s1.amplitudes.shape == (4,)
    assert np.allclose(s1.amplitudes, 0.5)
    s2 = uniform_superposition(2)
    assert s2.amplitudes.shape == (16,)
    assert np.allclose(s2.amplitudes, 0.25)


@pytest.mark.parametrize("n", range(11))
def test_uniform_norm(n):
    assert abs(uniform_superposition(n).norm() - 1.0) < 1e-12


def test_uniform_rejects_above_cap():
    with pytest.raises(ValueError):
        uniform_superposition(15)
    with pytest.raises(ValueError):
        uniform_superposition(-1)


def test_oracle_no_marked_is_identity(table2_n4):
    state = uniform_superposition(4)
    out = apply_oracle(state, OracleSpec(table2_n4, table2_n4.max_fitness))
    assert np.array_equal(out.amplitudes, state.amplitudes)


def test_oracle_all_marked_is_global_phase(table2_n4):
    state = random_state(4, seed=1)
    out = apply_oracle(state, OracleSpec(table2_n4, -1))
    assert np.array_equal(out.amplitudes, -state.amplitudes)


def test_oracle_flip_set_matches_scan(table4_n6):
    state = random_state(6, seed=2)
    cutoff = int(np.median(table4_n6.values))
    out = apply_oracle(state, OracleSpec(table4_n6, cutoff))
    flipped = {i for i in range(4**6)
               if out.amplitudes[i] == -state.amplitudes[i]
               and state.amplitudes[i] != 0}
    expected = {i for i, v in enumerate(table4_n6.values) if v > cutoff}
    assert flipped == expected


def test_oracle_involution_bit_exact(table2_n4):
    state = random_state(4, seed=3)
    oracle = OracleSpec(table2_n4, 1)
    twice = apply_oracle(apply_oracle(state, oracle), oracle)
    assert np.array_equal(twice.amplitudes, state.amplitudes)


def test_oracle_rejects_register_mismatch(table2_n4):
    with pytest.raises(ValueError):
        apply_oracle(uniform_superposition(3), OracleSpec(table2_n4, 0))


def test_diffusion_fixes_uniform():
    state = uniform_superposition(3)
    out = apply_diffusion(state)
    assert np.allclose(out.amplitudes, state.amplitudes, atol=1e-15)


def test_diffusion_involution():
    state = random_state(4, seed=4)
    twice = apply_diffusion(apply_diffusion(state))
    assert np.allclose(twice.amplitudes, state.amplitudes, atol=1e-12)


def test_single_iteration_amplitudes_closed_form():
    n, l = 3, 5
    num = 4**n
    table = synthetic_table(l, n)
    oracle = OracleSpec(table, 0)
    state = grover_iterate(uniform_superposition(n), oracle, 1)
    theta = math.asin(math.sqrt(l / num))
    marked_amp = math.sin(3 * theta) / math.sqrt(l)
    rest_amp = math.cos(3 * theta) / math.sqrt(num - l)
    assert np.allclose(state.amplitudes[:l].real, marked_amp, atol=1e-12)
    assert np.allclose(state.amplitudes[l:].real, rest_amp, atol=1e-12)


def test_grover_zero_iterations_identity(table2_n4):
    state = random_state(4, seed=5)
    out = grover_iterate(state, OracleSpec(table2_n4, 0), 0)
    assert np.array_equal(out.amplitudes, state.amplitudes)


def test_grover_single_marked_of_four_certain():
    table = synthetic_table(1, 1)
    state = grover_iterate(uniform_superposition(1), OracleSpec(table, 0), 1)
    p = marked_probability(state, OracleSpec(table, 0))
    assert abs(p - 1.0) < 1e-12  # sin^2(3*pi/6) = 1


def test_grover_n4_matches_closed_form():
    n, l = 4, 1
    table = synthetic_table(l, n)
    oracle = OracleSpec(table, 0)
    r = 12  # floor(pi/4 * sqrt(256))
    state = grover_iterate(uniform_superposition(n), oracle, r)
    expected = grover_success_probability(4**n, l, r)
    assert expected == pytest.approx(math.sin(25 * math.asin(1 / 16)) ** 2)
    assert abs(marked_probability(state, oracle) - expected) < 1e-9


def test_grover_rejects_negative_r(table2_n4):
    with pytest.raises(ValueError):
        grover_iterate(uniform_superposition(4), OracleSpec(table2_n4, 0), -1)


def test_norm_preserved_over_random_sequence(table2_n4):
    rng = np.random.default_rng(11)
    state = uniform_superposition(4)
    for _ in range(500):
        if rng.random() < 0.5:
            cutoff = int(rng.integers(0, table2_n4.d_max + 1))
            state = apply_oracle(state, OracleSpec(table2_n4, cutoff))
        else:
            state = apply_diffusion(state)
        assert abs(state.norm() - 1.0) < 1e-12


def test_measure_point_mass():
    state = uniform_superposition(2)
    state.amplitudes[:] = 0
    state.amplitudes[5] = 1.0
    rng = np.random.default_rng(0)
    assert all(measure(state, rng) == 5 for _ in range(50))


def test_measure_does_not_mutate():
    state = uniform_superposition(2)
    before = state.amplitudes.copy()
    measure(state, np.random.default_rng(1))
    assert np.array_equal(state.amplitudes, before)


def test_measure_uniform_chi_square():
    state = uniform_superposition(2)
    rng = np.random.default_rng(12345)
    counts = np.zeros(16, dtype=int)
    for _ in range(10_000):
        counts[measure(state, rng)] += 1
    assert scipy.stats.chisquare(counts).pvalue > 0.001


def test_measure_marked_frequency_within_5_sigma():
    n, l, r = 4, 1, 3
    table = synthetic_table(l, n)
    oracle = OracleSpec(table, 0)
    state = grover_iterate(uniform_superposition(n), oracle, r)
    p = marked_probability(state, oracle)
    rng = np.random.default_rng(99)
    trials = 10_000
    hits = sum(bool(oracle.marked[measure(state, rng)]) for _ in range(trials))
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) <= 5 * sigma


def _dense_reference(table, cutoff, r):
    oracle = OracleSpec(table, cutoff)
    return oracle, grover_iterate(uniform_superposition(table.n), oracle, r)


@pytest.mark.parametrize("r", [0, 1, 2, 5])
def test_measure_amplified_probability_matches_dense(table2_n4, table3_n6, r):
    for table in (table2_n4, table3_n6, synthetic_table(1, 3)):
        num = 4**table.n
        levels = sorted({int(v) for v in np.unique(table.values)})
        # -1 marks everything (l = N); the maximum marks nothing (l = 0)
        for cutoff in [-1] + levels:
            oracle, state = _dense_reference(table, cutoff, r)
            l = int(np.count_nonzero(oracle.marked))
            _, p = measure_amplified(oracle.marked, l, r, np.random.default_rng(0))
            assert abs(p - marked_probability(state, oracle)) < 1e-9
            assert abs(p - grover_success_probability(num, l, r)) < 1e-9


def test_measure_amplified_edge_level_sets(table2_n4):
    rng = np.random.default_rng(4)
    nothing = OracleSpec(table2_n4, table2_n4.max_fitness).marked
    everything = OracleSpec(table2_n4, -1).marked
    for r in (0, 1, 7):
        idx, p = measure_amplified(nothing, 0, r, rng)
        assert p == 0.0 and 0 <= idx < 4**4
        idx, p = measure_amplified(everything, 4**4, r, rng)
        assert p == 1.0 and 0 <= idx < 4**4
    with pytest.raises(ValueError):
        measure_amplified(nothing, 0, -1, rng)


@pytest.mark.parametrize("case", ["few marked", "most marked", "maze"])
def test_measure_amplified_chi_square_against_dense(maze3, case):
    # the level-set draw switches method at half of N; the synthetic cases
    # put the marked set on either side of it
    if case == "maze":
        table, cutoff, r = build_fitness_table(maze3, (0, 0), (2, 2), 3), 5, 2
    else:
        table, cutoff, r = synthetic_table(5 if case == "few marked" else 40, 3), 0, 1
    oracle, state = _dense_reference(table, cutoff, r)
    l = int(np.count_nonzero(oracle.marked))
    assert 0 < l < 4**3
    probs = state.probabilities()
    draws = 20_000
    assert probs.min() * draws >= 5  # every bin large enough for chi-square
    rng = np.random.default_rng(31)
    counts = np.zeros(4**3, dtype=int)
    for _ in range(draws):
        counts[measure_amplified(oracle.marked, l, r, rng)[0]] += 1
    assert scipy.stats.chisquare(counts, probs * draws).pvalue > 0.001
