import math

import numpy as np
import pytest
import scipy.stats

from qmaze import (KNOWN_COUNT, UNKNOWN_COUNT, FitnessTable, SearchConfig,
                   build_fitness_table, exhaustive_max, round_iterations,
                   search_table)

from dense_reference import (OracleSpec, grover_iterate, marked_probability,
                             uniform_superposition)
from oracles import grover_success_probability


def test_known_count_small():
    rng = np.random.default_rng(0)
    assert round_iterations(1, 4, KNOWN_COUNT, rng=rng) == 1


def test_known_count_n8_single_marked():
    assert round_iterations(1, 65536, KNOWN_COUNT) == 201


def test_known_count_everything_marked_needs_no_iteration():
    # r = 0 and r = 1 both measure a marked state with probability 1
    assert round_iterations(64, 64, KNOWN_COUNT) == 0


def test_known_count_three_quarters_marked_needs_no_iteration():
    # sin^2(3t) = 0 at l/N = 3/4, while r = 0 keeps probability 3/4
    assert round_iterations(48, 64, KNOWN_COUNT) == 0


def test_known_count_three_quarters_marked_search_reaches_maximum():
    # a cutoff of 0 leaves l/N = 3/4 marked on every round that does not
    # measure the single top path; with r = 1 such a search never moves
    values = np.zeros(64, dtype=np.int32)
    values[16:] = 1
    values[63] = 2
    table = FitnessTable.from_values(values)
    started_low = 0
    for seed in range(20):
        res = search_table(table, SearchConfig(rng_seed=seed, max_rounds=16))
        if res.initial_cutoff == 0:
            started_low += 1
            assert res.history[0].marked == 48
            assert res.history[0].grover_r == 0
        assert res.best_fitness == 2
    assert started_low > 0


def test_known_count_stays_within_quarter_pi_sqrt_n():
    # the fewest calls that bring (2r+1)t nearest to pi/2 never exceed
    # (pi/4)*sqrt(N), so no separate cap on r is needed
    for n in range(11):
        num = 4**n
        for l in sorted({1, 2, 3, num // 3, num}):
            if 1 <= l <= num:
                assert round_iterations(l, num, KNOWN_COUNT) <= math.pi / 4 * 2**n


def test_known_count_rejects_bad_marked():
    # l = 0 is no error: only the certificate-free search reaches it, and
    # with nothing to amplify it measures the uniform state
    assert round_iterations(0, 16, KNOWN_COUNT) == 0
    for mode in (KNOWN_COUNT, UNKNOWN_COUNT):
        for l in (-1, 17):
            with pytest.raises(ValueError, match="outside"):
                round_iterations(l, 16, mode, rng=np.random.default_rng(0))


def test_unknown_count_window():
    rng = np.random.default_rng(1)
    assert all(
        round_iterations(3, 256, UNKNOWN_COUNT, window=1.0, rng=rng) == 0
        for _ in range(20)
    )
    draws = {round_iterations(3, 256, UNKNOWN_COUNT, window=4.3, rng=rng)
             for _ in range(300)}
    assert draws == {0, 1, 2, 3, 4}


@pytest.mark.parametrize("max_rounds", [100, 5000])
def test_unknown_count_window_clamps_at_sqrt_n(max_rounds):
    # nothing is ever marked, so every round fails and the window grows
    # until the clamp at sqrt(16) = 4 holds it; 5000 rounds is past the
    # point where (6/5)**failures overflows a float
    table = FitnessTable.from_values(np.full(16, 5, dtype=np.int32))
    cfg = SearchConfig(mode=UNKNOWN_COUNT, rng_seed=0, max_rounds=max_rounds,
                       certificate_exit=False)
    res = search_table(table, cfg)
    assert res.rounds_used == max_rounds
    assert max(rec.grover_r for rec in res.history) == 3


def test_unknown_count_window_resets_on_acceptance():
    table = FitnessTable.from_values(np.arange(64, dtype=np.int32))
    after_growth = 0
    for seed in range(20):
        cfg = SearchConfig(mode=UNKNOWN_COUNT, rng_seed=seed, max_rounds=40)
        history = search_table(table, cfg).history
        for i, (rec, nxt) in enumerate(zip(history, history[1:])):
            if rec.accepted:
                assert nxt.grover_r == 0
                # the window had grown past 1 before this acceptance
                after_growth += i > 0 and not history[i - 1].accepted
    assert after_growth >= 20


def test_unknown_count_needs_rng():
    with pytest.raises(ValueError):
        round_iterations(1, 16, UNKNOWN_COUNT)


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        round_iterations(1, 16, "guess")


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(mode="sideways")
    with pytest.raises(ValueError):
        SearchConfig(max_rounds=0)
    with pytest.raises(ValueError):
        SearchConfig(rng_seed=-1)


def test_initial_cutoff_all_equal():
    table = FitnessTable.from_values(np.full(16, 6, dtype=np.int32))
    assert search_table(table, SearchConfig(rng_seed=0)).initial_cutoff == 6


def test_initial_cutoff_replay(table2_n4):
    config = SearchConfig(rng_seed=77, max_rounds=1)
    a = search_table(table2_n4, config)
    b = search_table(table2_n4, config)
    assert a.initial_cutoff == b.initial_cutoff
    idx = int(np.random.default_rng(77).integers(4**4))
    assert a.initial_index == idx
    assert a.initial_cutoff == int(table2_n4.values[idx])


def test_initial_cutoff_distribution_matches_table(table2_n4):
    draws = 10_000
    observed = {}
    for seed in range(draws):
        config = SearchConfig(rng_seed=seed, max_rounds=1)
        v = search_table(table2_n4, config).initial_cutoff
        observed[v] = observed.get(v, 0) + 1
    levels, counts = np.unique(np.asarray(table2_n4.values), return_counts=True)
    f_obs = np.array([observed.get(int(v), 0) for v in levels], dtype=float)
    f_exp = counts / counts.sum() * draws
    assert scipy.stats.chisquare(f_obs, f_exp).pvalue > 0.001


def test_all_equal_table_certifies_immediately():
    table = FitnessTable.from_values(np.full(64, 5, dtype=np.int32))
    res = search_table(table, SearchConfig(rng_seed=3))
    assert res.optimal
    assert res.best_fitness == 5
    assert res.history == ()
    assert res.oracle_calls_total == 0


def test_search_degenerate_register(maze2):
    table = build_fitness_table(maze2, (0, 0), (0, 0), 0)
    res = search_table(table, SearchConfig(rng_seed=0))
    assert res.optimal
    assert res.best_fitness == 2  # ceiling of a 2x2 grid


def test_certificate_disabled_burns_budget():
    table = FitnessTable.from_values(np.full(64, 5, dtype=np.int32))
    cfg = SearchConfig(rng_seed=3, max_rounds=4, certificate_exit=False)
    res = search_table(table, cfg)
    assert not res.optimal
    assert res.rounds_used == 4
    assert res.oracle_calls_total == 0  # nothing marked, nothing amplified
    assert all(rec.grover_r == 0 and rec.marked == 0 for rec in res.history)


def test_round_success_probability_matches_closed_form(table3_n6):
    # the probability each round measures a marked state is the standard
    # two-dimensional rotation value for the r the policy picked
    num = 4**6
    for cutoff in (0, 2, 5, 7):
        l = int(np.count_nonzero(table3_n6.values > cutoff))
        assert l > 0
        r = round_iterations(l, num, KNOWN_COUNT)
        oracle = OracleSpec(table3_n6, cutoff)
        state = grover_iterate(uniform_superposition(6), oracle, r)
        expected = grover_success_probability(num, l, r)
        assert abs(marked_probability(state, oracle) - expected) < 1e-9


def _check_result_invariants(res, table):
    accepted = [rec for rec in res.history if rec.accepted]
    cutoffs = [rec.measured_fitness for rec in accepted]
    assert cutoffs == sorted(set(cutoffs))  # strictly increasing
    assert res.best_fitness >= res.initial_cutoff
    assert res.oracle_calls_total == sum(rec.grover_r for rec in res.history)
    for rec in res.history:
        assert rec.accepted == (rec.measured_fitness > rec.cutoff_before)
        assert rec.marked == np.count_nonzero(table.values > rec.cutoff_before)
    if accepted:
        assert res.best_fitness == max(cutoffs)
    if res.optimal:
        assert res.best_fitness == exhaustive_max(table)[1]


def test_known_count_end_to_end(maze3, table3_n6):
    _, best = exhaustive_max(table3_n6)
    hits = 0
    for seed in range(20):
        res = search_table(table3_n6, SearchConfig(rng_seed=seed, max_rounds=16))
        _check_result_invariants(res, table3_n6)
        hits += res.best_fitness == best
    assert hits >= 16


def test_unknown_count_end_to_end(table2_n4):
    _, best = exhaustive_max(table2_n4)
    hits = 0
    for seed in range(20):
        cfg = SearchConfig(rng_seed=seed, mode=UNKNOWN_COUNT, max_rounds=12)
        res = search_table(table2_n4, cfg)
        _check_result_invariants(res, table2_n4)
        hits += res.best_fitness == best
    assert hits >= 14


def test_search_built_table(maze3):
    table = build_fitness_table(maze3, (0, 0), (2, 2), 6)
    res = search_table(table, SearchConfig(rng_seed=4, max_rounds=16))
    assert 0 <= res.best_index < 4**6
    assert res.best_fitness <= 8


def test_table_to_search_refused_above_cap(maze3):
    with pytest.raises(ValueError, match="cap"):
        build_fitness_table(maze3, (0, 0), (2, 2), 15)


def test_result_dict_roundtrips(table2_n4):
    import json
    res = search_table(table2_n4, SearchConfig(rng_seed=1))
    doc = json.loads(json.dumps(res.as_dict()))
    assert doc["best_fitness"] == res.best_fitness
    assert len(doc["rounds"]) == res.rounds_used


@pytest.mark.parametrize("mode", [KNOWN_COUNT, UNKNOWN_COUNT])
def test_rounds_report_their_success_probability(table3_n6, mode):
    num = 4**6
    for seed in range(5):
        cfg = SearchConfig(rng_seed=seed, mode=mode, max_rounds=12)
        res = search_table(table3_n6, cfg)
        for rec in res.history:
            expected = grover_success_probability(num, rec.marked, rec.grover_r)
            assert abs(rec.p_success - expected) < 1e-9
            assert rec.as_dict()["p_success"] == rec.p_success
