"""Battery chain: clamp-shift transitions, steady state, summary metrics."""
import tracemalloc

import numpy as np
import pytest

from ehcr.analysis import analyze_su
from ehcr.battery import (ChainNotErgodicError, TransitionBuilder, avg_energy,
                          battery_outage, spend_caps)
from ehcr.model import (NetworkModel, PolicyParams, SuProfile, SystemConfig,
                        harvest_pmf)
from ehcr.policy import level_skeleton, transmit_row
from ehcr.probing import GainDistribution
from ehcr.sensing import joint_sensing_stats

MIX = GainDistribution(weights=(0.9, 0.1), means=(2.0, 1.0))


def _brute_force_matrix(moves, law, idle_prob, busy_prob, harvest, cells,
                        reserve):
    """O(K^3) reference built straight from the slot dynamics.

    ``law[m]`` is the chance that level ``moves[0][m]`` spends
    ``moves[1][m]`` data cells in a sensed-idle frame.
    """
    phi = np.zeros((cells + 1, cells + 1))
    for j in range(cells + 1):
        for h, p_h in enumerate(harvest):
            # sensed busy: harvest only
            phi[min(j + h, cells), j] += busy_prob * p_h
    for j, s, p_s in zip(*moves, law):
        for h, p_h in enumerate(harvest):
            # sensed idle: burn reserve plus spend, clamp at empty and full
            nxt = min(max(j - reserve - s + h, 0), cells)
            phi[nxt, j] += idle_prob * p_s * p_h
    return phi


def _random_legal_law(rng, cells, reserve):
    """Random spend law over every move a policy may make.

    Level j may spend 0..max(j - reserve, 0) cells; the masses of each
    level sum to one.
    """
    caps = np.maximum(np.arange(cells + 1) - reserve, 0)
    state = np.repeat(np.arange(cells + 1), caps + 1)
    units = np.concatenate([np.arange(cap + 1) for cap in caps])
    law = rng.random(state.size)
    law /= np.bincount(state, weights=law)[state]
    return (state, units), law


def test_transition_matrix_matches_direct_construction():
    cells, reserve = 9, 2
    harvest = harvest_pmf(2.5, cells)
    pmf = transmit_row(0.8, [0.15], reserve, cells, MIX)
    sensing = joint_sensing_stats(0.7, 0.1, 0.85)
    got = TransitionBuilder(harvest, cells, reserve).matrix(
        pmf.idle_law, sensing.pi_hat_idle, sensing.pi_hat_busy, pmf.moves)[0]
    want = _brute_force_matrix(pmf.moves, pmf.idle_law[0],
                               sensing.pi_hat_idle, sensing.pi_hat_busy,
                               harvest, cells, reserve)
    np.testing.assert_allclose(got, want, atol=1e-14)
    np.testing.assert_allclose(got.sum(axis=0), 1.0, atol=1e-12)


def test_moves_below_the_reserve_shift_are_rejected():
    cells, reserve = 6, 1
    harvest = harvest_pmf(1.2, cells)
    builder = TransitionBuilder(harvest, cells, reserve)
    state = np.array([0, 1, 2, 2, 3, 4, 5, 6])
    # level 2 spending its whole charge sits on the lowest shift, -reserve
    units = np.array([0, 0, 0, 2, 0, 0, 0, 0])
    law = np.array([1.0, 1.0, 0.5, 0.5, 1.0, 1.0, 1.0, 1.0])
    got = builder.matrix(law, 0.6, 0.4, (state, units))
    want = _brute_force_matrix((state, units), law, 0.6, 0.4, harvest, cells,
                               reserve)
    np.testing.assert_allclose(got, want, atol=1e-14)
    # one cell more would fall below the table
    units[3] = 3
    with pytest.raises(ValueError):
        builder.matrix(law, 0.6, 0.4, (state, units))


def test_column_stochastic_over_random_inputs():
    rng = np.random.default_rng(13)
    for _ in range(25):
        cells = int(rng.integers(2, 30))
        reserve = int(rng.integers(0, cells))
        harvest = harvest_pmf(float(rng.uniform(0.1, 40.0)), cells)
        pmf = transmit_row(float(rng.uniform(0, 1)),
                           [float(rng.uniform(0.01, 2.0))], reserve, cells,
                           MIX)
        idle = float(rng.uniform(0.05, 0.95))
        phi = TransitionBuilder(harvest, cells, reserve).matrix(
            pmf.idle_law, idle, 1.0 - idle, pmf.moves)[0]
        assert np.all(phi >= 0.0)
        np.testing.assert_allclose(phi.sum(axis=0), 1.0, atol=1e-12)


def _always_busy_matrix(cells, harvest):
    pmf = transmit_row(0.9, [0.1], 1, cells, MIX)
    sensing = joint_sensing_stats(0.5, 1.0, 1.0)
    return TransitionBuilder(harvest, cells, 1).matrix(
        pmf.idle_law, sensing.pi_hat_idle, sensing.pi_hat_busy, pmf.moves)[0]


def test_always_busy_reduces_to_pure_harvesting():
    cells = 8
    harvest = harvest_pmf(3.0, cells)
    phi = _always_busy_matrix(cells, harvest)
    expected = np.zeros_like(phi)
    for j in range(cells + 1):
        for h, p_h in enumerate(harvest):
            expected[min(j + h, cells), j] += p_h
    np.testing.assert_allclose(phi, expected, atol=1e-15)


def test_no_harvest_always_busy_freezes_the_chain():
    cells = 5
    phi = _always_busy_matrix(cells, harvest_pmf(1e-12, cells))
    np.testing.assert_allclose(phi, np.eye(cells + 1), atol=1e-11)


def test_two_level_chain_has_the_closed_form_steady_state():
    # levels 0 and 1: up-rate p, down-rate q, steady state (q, p) / (p + q)
    builder = TransitionBuilder(harvest_pmf(0.7, 1), 1, 0)
    pmf = transmit_row(1.0, [0.1], 0, 1, MIX)
    phi = builder.matrix(pmf.idle_law, 0.6, 0.4, pmf.moves)[0]
    p, q = phi[1, 0], phi[0, 1]
    zeta = builder.steady_state(pmf.idle_law, 0.6, 0.4, pmf.moves)[0]
    np.testing.assert_allclose(zeta, [q / (p + q), p / (p + q)], rtol=1e-15)


def test_steady_state_rejects_reducible_chains():
    # busy frames that cannot raise a level are rejected where the chain
    # is built: a harvest law whose 1 - harvest[0] rounds to 0, or no
    # busy frame at all
    cells = 6
    for harvest in (harvest_pmf(1e-17, cells), np.eye(cells + 1)[0]):
        assert harvest[0] == 1.0
        with pytest.raises(ChainNotErgodicError):
            TransitionBuilder(harvest, cells, 1)
    builder = TransitionBuilder(harvest_pmf(2.0, cells), cells, 1)
    pmf = transmit_row(0.5, [0.1], 1, cells, MIX)
    for method in (builder.matrix, builder.steady_state):
        with pytest.raises(ChainNotErgodicError):
            method(pmf.idle_law, 1.0, 0.0, pmf.moves)


def test_a_zero_exit_mass_is_rejected():
    """Busy frames of the least positive chance, 5e-324, are a legal chain
    whose every exit mass rounds to 0: the chance of rising stays below
    1/2, and half the least double rounds to 0."""
    cells = 6
    harvest = harvest_pmf(0.2, cells)
    builder = TransitionBuilder(harvest, cells, 1)
    pmf = transmit_row(0.5, [0.1], 1, cells, MIX)
    busy = float(np.nextafter(0.0, 1.0))
    assert busy > 0.0 and 1.0 - harvest[0] < 0.5
    with pytest.raises(ChainNotErgodicError, match="exit mass"):
        builder.steady_state(pmf.idle_law, 0.0, busy, pmf.moves)


def test_chain_summary_metrics():
    assert avg_energy(np.array([0.0, 0.0, 0.0, 1.0])) == 3.0
    uniform = np.full(9, 1.0 / 9)
    assert avg_energy(uniform) == pytest.approx(4.0)
    assert battery_outage(uniform, probe_cells=1) == pytest.approx(2.0 / 9)
    assert battery_outage(uniform, probe_cells=8) == pytest.approx(1.0)


def test_chain_build_bundles_consistent_pieces():
    cells = 12
    model = NetworkModel(config=SystemConfig(battery_cells=cells),
                         profiles=(SuProfile(harvest_rate=4.0),))
    chain = analyze_su(model, 0, PolicyParams(0.6, 0.1)).chain
    np.testing.assert_allclose(chain.matrix @ chain.steady_state,
                               chain.steady_state, atol=1e-9)
    assert chain.avg_energy == avg_energy(chain.steady_state)
    assert chain.outage == battery_outage(chain.steady_state, 1)
    assert 0.0 <= chain.avg_energy <= cells


def test_avg_energy_monotone_in_harvest_rate():
    cells = 40
    pmf = transmit_row(0.35, [0.2], 1, cells, MIX)
    sensing = joint_sensing_stats(0.7, 0.1, 0.85)
    means = []
    for rho in [0.5, 2.0, 5.0, 10.0, 20.0]:
        zeta = TransitionBuilder(harvest_pmf(rho, cells), cells,
                                 1).steady_state(
            pmf.idle_law, sensing.pi_hat_idle, sensing.pi_hat_busy,
            pmf.moves)
        means.append(float(avg_energy(zeta)[0]))
    assert all(b >= a - 1e-9 for a, b in zip(means, means[1:]))


def test_transition_matrix_matches_brute_force_over_random_settings():
    rng = np.random.default_rng(17)
    for trial in range(25):
        cells = int(rng.integers(1, 25))
        reserve = int(rng.integers(0, cells))
        # low rates put mass on the columns below the reserve, where a
        # deficit eats into the harvest
        harvest = harvest_pmf(float(rng.uniform(0.05, 8.0)), cells)
        if trial % 2:
            # random law over every legal move, not only a policy's
            moves, law = _random_legal_law(rng, cells, reserve)
        else:
            pmf = transmit_row(float(rng.uniform(0, 1)),
                               [float(rng.uniform(0.01, 2.0))], reserve,
                               cells, MIX)
            moves, law = pmf.moves, pmf.idle_law[0]
        idle = float(rng.uniform(0.05, 0.95))
        got = TransitionBuilder(harvest, cells, reserve).matrix(
            law, idle, 1.0 - idle, moves)
        want = _brute_force_matrix(moves, law, idle, 1.0 - idle, harvest,
                                   cells, reserve)
        np.testing.assert_allclose(got, want, atol=1e-14)


def test_transition_matrix_memory_at_large_battery():
    cells = 400
    builder = TransitionBuilder(harvest_pmf(4.0, cells), cells, 1)
    pmf = transmit_row(0.5, [0.2], 1, cells, MIX)
    law, moves = pmf.idle_law, pmf.moves
    tracemalloc.start()
    try:
        builder.matrix(law, 0.7, 0.3, moves)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_steady_state_zero_on_transient_states():
    """Without a reserve, a level spends less than half its charge at
    omega = 0.5 (the derating stays below 1), so nothing returns to
    levels 0 and 1; at omega = 0 nothing ever falls, and every level
    below K is transient."""
    cells = 40
    builder = TransitionBuilder(harvest_pmf(3.0, cells), cells, 0)
    for omega, transient in ((0.5, 2), (0.0, cells)):
        pmf = transmit_row(omega, [0.1, 0.5], 0, cells, MIX)
        zeta = builder.steady_state(pmf.idle_law, 0.7, 0.3, pmf.moves)
        assert (zeta[:, :transient] == 0.0).all()
        assert (zeta[:, transient:] > 0.0).all()
        for law, z in zip(pmf.idle_law, zeta):
            phi = builder.matrix(law, 0.7, 0.3, pmf.moves)
            assert np.abs(phi @ z - z).max() < 1e-15


def _reaches_top(chain):
    """Whether every state reaches the last one along positive entries."""
    n = chain.shape[-1]
    reached = np.zeros(n, dtype=bool)
    reached[-1] = True
    frontier = np.array([n - 1])
    while frontier.size:
        # column j steps to row m when chain[m, j] > 0
        behind = (chain[frontier] > 0.0).any(axis=0) & ~reached
        reached |= behind
        frontier = np.flatnonzero(behind)
    return bool(reached.all())


def test_steady_state_rejects_classes_sharing_a_transient_state():
    # state 0 feeds both closed classes {1, 2} and {3, 4}; the balance
    # system solves without error to a stationary mixture with no
    # residual, so only the chain's structure can rule it out
    shared = np.array([[0.2, 0.0, 0.0, 0.0, 0.0],
                       [0.4, 0.5, 0.5, 0.0, 0.0],
                       [0.0, 0.5, 0.5, 0.0, 0.0],
                       [0.4, 0.0, 0.0, 0.1, 0.9],
                       [0.0, 0.0, 0.0, 0.9, 0.1]])
    assert not _reaches_top(shared)
    # every chain the builder makes lets every level reach K, so it has
    # one closed class and its steady state is a fixed point: random legal
    # laws, reserves down to 0 (levels that stay put in idle frames) and
    # harvest laws with gaps
    rng = np.random.default_rng(43)
    for trial in range(40):
        cells = int(rng.integers(1, 30))
        reserve = int(rng.integers(0, cells))
        if trial % 2:
            harvest = np.zeros(cells + 1)
            harvest[0] = float(rng.uniform(0.0, 0.999))
            harvest[int(rng.integers(1, cells + 1))] = 1.0 - harvest[0]
        else:
            harvest = harvest_pmf(float(10.0 ** rng.uniform(-2, 1.5)), cells)
        moves, law = _random_legal_law(rng, cells, reserve)
        busy = float(rng.uniform(1e-3, 0.95))
        builder = TransitionBuilder(harvest, cells, reserve)
        phi = builder.matrix(law, 1.0 - busy, busy, moves)
        assert _reaches_top(phi)
        z = builder.steady_state(law, 1.0 - busy, busy, moves)
        assert (z >= 0.0).all() and z.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(phi @ z - z)) < 1e-13


def test_stacked_chains_are_solved_and_checked_one_by_one():
    cells, reserve = 80, 1
    builder = TransitionBuilder(harvest_pmf(15.0, cells), cells, reserve)
    skeleton = level_skeleton(0.45, reserve, cells)
    row = transmit_row(0.45, (0.02, 0.2, 0.8), reserve, cells, MIX, skeleton)
    stacked = builder.steady_state(row.idle_law, 0.7, 0.3, row.moves,
                                   skeleton.scatter, skeleton.caps)
    for law, z in zip(row.idle_law, stacked):
        alone = builder.steady_state(law[None], 0.7, 0.3, row.moves)[0]
        assert alone.tobytes() == z.tobytes()
    # a NaN mass of a level below K anywhere in the stack is rejected: the
    # zero spend of level 3
    for position in range(3):
        law = row.idle_law.copy()
        law[position, -(cells + 1) + 3] = np.nan
        with pytest.raises(ChainNotErgodicError):
            builder.steady_state(law, 0.7, 0.3, row.moves)


def test_stacked_spend_laws_give_one_matrix_each():
    cells, reserve = 15, 2
    harvest = harvest_pmf(3.0, cells)
    builder = TransitionBuilder(harvest, cells, reserve)
    thetas = (0.01, 0.2, 1.5)
    row = transmit_row(0.6, thetas, reserve, cells, MIX)
    stacked = builder.matrix(row.idle_law, 0.7, 0.3, row.moves)
    for theta, law, phi in zip(thetas, row.idle_law, stacked):
        one = transmit_row(0.6, [theta], reserve, cells, MIX)
        np.testing.assert_array_equal(
            phi, builder.matrix(one.idle_law, 0.7, 0.3, one.moves)[0])
        want = _brute_force_matrix(row.moves, law, 0.7, 0.3, harvest, cells,
                                   reserve)
        np.testing.assert_allclose(phi, want, atol=1e-15)


def test_band_covers_moves_whose_lowest_row_falls():
    """Moves need not come from a policy: where a level spends less than a
    lower one, ``spend_caps`` raises the caps until j - cap never falls,
    so the censoring's fill reaches every level that can fall into a
    block."""
    rng = np.random.default_rng(29)
    raised = 0
    for _ in range(20):
        cells = int(rng.integers(4, 30))
        reserve = int(rng.integers(0, 4))
        moves, law = _random_legal_law(rng, cells, reserve)
        # a random subset of every legal move, each level keeping its zero
        # spend, renormalised level by level
        kept = (moves[1] == 0) | (rng.random(law.size) < 0.3)
        moves = (moves[0][kept], moves[1][kept])
        law = law[kept] / np.bincount(moves[0], weights=law[kept])[moves[0]]
        caps = spend_caps(moves, cells)
        assert (np.diff(np.arange(cells + 1) - caps) >= 0).all()
        # each level's largest spend, every level having a move
        largest = np.maximum.reduceat(
            moves[1], np.flatnonzero(np.diff(moves[0], prepend=-1)))
        assert (caps >= largest).all()
        raised += int((caps > largest).any())
        harvest = harvest_pmf(float(rng.uniform(0.1, 5.0)), cells)
        zeta = TransitionBuilder(harvest, cells, reserve).steady_state(
            law, 0.6, 0.4, moves)
        phi = _brute_force_matrix(moves, law, 0.6, 0.4, harvest, cells,
                                  reserve)
        assert np.max(np.abs(phi @ zeta - zeta)) < 1e-13
    assert raised
