"""Photon-count simulation: noise model, seeding, setting layout."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cell_count_rows
from timetomo.counts import MAX_SEED, _poisson_table, _uniforms, count_rows, overlaps
from timetomo.dynamics import DynamicsParams
from timetomo.measurement import IC_POVM_INSTANTS, jittered_matrices, setting_operators
from timetomo.states import bell_states, qubit_states, sample_bell_states, sample_mixed_qubits

PARAMS = DynamicsParams()

# one setting whose operator is the identity: a count is the photon number itself
IDENTITY = np.eye(2, dtype=complex)[None]
H_STATE = np.diag([1.0, 0.0]).astype(complex)


def _philox_uniform(key, counter):
    """numpy's own Philox4x64-10 double for one (key, counter) pair.

    numpy steps the counter before it computes its first block, so the
    reference starts one below ``counter``.  The state takes ``uint64``
    arrays: list entries of 2^53 and more would pass through floats.
    """
    previous = (sum(word << (64 * i) for i, word in enumerate(counter)) - 1) % 2**256
    bits = np.random.Philox()
    state = bits.state
    state["state"] = {
        "counter": np.array([(previous >> (64 * i)) & MAX_SEED for i in range(4)], dtype=np.uint64),
        "key": np.array(key, dtype=np.uint64),
    }
    bits.state = state
    return np.random.Generator(bits).random()


def _poisson_pmf(n, mean):
    return math.exp(n * math.log(mean) - mean - math.lgamma(n + 1))


def _photons(seed, state_index, setting_index, mean_photons):
    """The photon number of one setting: the smallest n whose Poisson CDF exceeds
    the Philox uniform of key (seed, 0) and counter (state, setting, 0, 0)."""
    uniform = _philox_uniform((seed, 0), (state_index, setting_index, 0, 0))
    cdf = 0.0
    for n in range(int(10 * mean_photons) + 100):
        cdf += _poisson_pmf(n, mean_photons)
        if cdf > uniform:
            return float(n)
    raise AssertionError("uniform beyond the summed CDF")


def _rows(rho, sigma, n, seed=0, state_index=0):
    """Settings, expected and measured counts of one state over the six-instant schedule.

    The expected count is the one ``--dump-counts`` writes: ``n`` times the
    overlap with the sharp operator.
    """
    settings, sharp, smeared = setting_operators(PARAMS, [sigma], IC_POVM_INSTANTS, len(rho))
    measured = count_rows(rho[None], smeared, [n], seed, state_index)[0, 0]
    return settings, n * overlaps(rho[None], sharp)[0], measured[0]


def _noiseless_rows(rho, sigma, n):
    """Settings and the noiseless sharp and smeared counts of one state, ``n`` times its overlaps."""
    settings, sharp, (smeared,) = setting_operators(PARAMS, [sigma], IC_POVM_INSTANTS, len(rho))
    return settings, *(n * overlaps(rho[None], stack)[0] for stack in (sharp, smeared))


def test_uniforms_match_numpy_philox():
    rng = np.random.default_rng(17)
    for _ in range(100):
        key = [int(word) for word in rng.integers(0, 2**64, 2, dtype=np.uint64)]
        counters = rng.integers(0, 2**64, (4, 5), dtype=np.uint64)
        # a zero low word makes the reference borrow from the next word
        counters[0, 0] = 0
        counters[:, 1] = [0, 0, 0, 0]
        want = [_philox_uniform(key, [int(word) for word in counter]) for counter in counters.T]
        assert _uniforms(key, counters).tolist() == want


@pytest.mark.parametrize("mean", [0.5, 10.0, 1000.0])
def test_poisson_photon_numbers_fit_their_distribution(mean):
    # 20000 photon numbers through identity operators, where a count is the photon number
    identities = np.repeat(IDENTITY, 5, axis=0)
    states = np.repeat(H_STATE[None], 4000, axis=0)
    draws = count_rows(states, identities[None], [mean], 2024).ravel()
    size = draws.size
    assert np.array_equal(draws, np.round(draws))
    assert abs(draws.mean() - mean) < 4.0 * math.sqrt(mean / size)
    assert abs(draws.var(ddof=1) - mean) < 4.0 * math.sqrt((mean + 2.0 * mean * mean) / size)
    # chi-square over bins holding at least 5 expected draws, tails pooled
    numbers = np.arange(int(mean + 12.0 * math.sqrt(mean) + 20))
    expected = size * np.array([_poisson_pmf(int(n), mean) for n in numbers])
    kept = numbers[expected >= 5.0]
    low, high = kept[0], kept[-1]
    inner = (numbers > low) & (numbers < high)
    observed = [np.sum(draws <= low), *(np.sum(draws == n) for n in numbers[inner]), np.sum(draws >= high)]
    below = expected[numbers <= low].sum()
    wanted = [below, *expected[inner], size - below - expected[inner].sum()]
    statistic = sum((o - e) ** 2 / e for o, e in zip(observed, wanted))
    dof = len(wanted) - 1
    # Wilson-Hilferty 99.9% quantile of chi-square with dof degrees of freedom
    quantile = dof * (1.0 - 2.0 / (9.0 * dof) + 3.09 * math.sqrt(2.0 / (9.0 * dof))) ** 3
    assert statistic < quantile, (statistic, quantile, dof)


@pytest.mark.parametrize("mean", [1e-3, 1.0, 1e3, 1e6])
def test_poisson_window_leaves_out_less_than_the_uniform_spacing(mean):
    lowest, cdf = _poisson_table(mean)
    highest = lowest + len(cdf) - 1
    assert cdf[-1] == 1.0 and np.all(np.diff(cdf) >= 0.0)
    assert len(cdf) <= 40.0 * math.sqrt(mean) + 60
    # the tails summed outward from the window until what is left is negligible
    excluded = 0.0
    for numbers in (range(lowest - 1, -1, -1), range(highest + 1, highest + 10**6)):
        for n in numbers:
            term = _poisson_pmf(n, mean)
            excluded += term
            if term < 2.0**-53 * 1e-6:
                break
    assert excluded < 2.0**-53
    # and inside the window the table is the Poisson CDF, up to the reference's
    # own error: its log pmf carries a few ulp of n ln n
    reference = np.cumsum([_poisson_pmf(n, mean) for n in range(lowest, highest + 1)])
    assert np.abs(cdf - reference).max() < 1e-12 + 2.0**-50 * mean * max(1.0, math.log(mean))


_SAMPLES = {2: sample_mixed_qubits(3, 2, 2)[0], 4: sample_bell_states(12)[0]}


@pytest.mark.parametrize("states", _SAMPLES.values(), ids=["qubit", "pair"])
def test_count_rows_do_not_depend_on_the_split(states):
    _, sharp, smeared = setting_operators(PARAMS, [0.1], IC_POVM_INSTANTS, states.shape[1])
    whole = count_rows(states, smeared, [100.0], 5, first_index=7)
    for size in (1, 2, 3, 5):
        parts = [
            count_rows(states[lo:lo + size], smeared, [100.0], 5, 7 + lo) for lo in range(0, len(states), size)
        ]
        assert np.concatenate(parts, axis=2).tobytes() == whole.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from([2, 4]),
    sigmas=st.lists(st.sampled_from([0.0, 0.05, 0.1, 0.3]), min_size=1, max_size=3),
    photons=st.lists(st.sampled_from([0.5, 10.0, 100.0, 1000.0, 1e6]), min_size=1, max_size=3),
    seed=st.integers(0, MAX_SEED),
    first_index=st.integers(0, 2**62),
    cut=st.integers(0, 12),
)
def test_chunk_counts_match_the_per_cell_draw(dim, sigmas, photons, seed, first_index, cut):
    # one draw for every (sigma, N) cell of a chunk gives each cell's counts
    # bit for bit as a draw of that cell alone, whole and in two parts
    states = _SAMPLES[dim]
    _, sharp, smeared = setting_operators(PARAMS, sigmas, IC_POVM_INSTANTS, dim)
    whole = count_rows(states, smeared, photons, seed, first_index)
    assert whole.shape == (len(sigmas), len(photons), len(states), smeared.shape[1])
    for s, stack in enumerate(smeared):
        for p, n in enumerate(photons):
            assert whole[s, p].tobytes() == cell_count_rows(states, sharp, stack, n, seed, first_index)[1].tobytes()
    cut = min(cut, len(states))
    parts = [count_rows(states[:cut], smeared, photons, seed, first_index)]
    parts.append(count_rows(states[cut:], smeared, photons, seed, first_index + cut))
    assert np.concatenate(parts, axis=2).tobytes() == whole.tobytes()


def test_photon_numbers_do_not_depend_on_sigma():
    # cells that differ only in jitter width share their photon numbers,
    # so a sigma comparison is paired; a count over its noiseless value is the
    # photon number over N wherever the overlap is not near zero
    states, _ = sample_mixed_qubits(2, 3, 3)
    photons, kept = [], True
    for sigma in (0.0, 0.1, 0.3):
        _, sharp, smeared = setting_operators(PARAMS, [sigma], IC_POVM_INSTANTS, 2)
        measured = count_rows(states, smeared, [1000.0], 8)[0, 0]
        noiseless = 1000.0 * overlaps(states, smeared[0])
        kept = kept & (noiseless > 1.0)
        photons.append(1000.0 * measured / np.maximum(noiseless, 1.0))
    photons = np.array(photons)[:, kept]
    assert np.abs(photons - np.round(photons)).max() < 1e-9
    assert np.array_equal(np.round(photons[0]), np.round(photons[1]))
    assert np.array_equal(np.round(photons[0]), np.round(photons[2]))
    assert kept.sum() > 0.8 * kept.size and len(np.unique(np.round(photons[0]))) > 10


def test_counting_rng_streams_are_independent_and_stable():
    stack = np.repeat(IDENTITY, 4, axis=0)
    a = count_rows(H_STATE[None], stack[None], [100.0], 0, first_index=3)[0, 0, 0]
    b = count_rows(H_STATE[None], stack[None], [100.0], 0, first_index=3)[0, 0, 0]
    assert np.array_equal(a, b)
    assert a.tolist() == [_photons(0, 3, k, 100.0) for k in range(4)]
    assert len(set(a.tolist())) > 1


def test_expected_count_is_intensity_times_overlap():
    # the dumped expected column is N tr(M rho) with the sharp operator, whatever
    # photon number the setting drew; t = 0 and t = 0.25 give overlaps 1 and 1/2
    rho = qubit_states(1.0, 0.0, 0.0)[0]
    settings, expected, _ = _rows(rho, 0.0, 500.0, seed=1)
    assert settings[0] == (0.0,) and settings[1] == (0.25,)
    assert expected[0] == pytest.approx(500.0)
    assert expected[1] == pytest.approx(250.0)
    # overlaps that are exactly zero for Bell states at sigma 0 come out
    # of the contraction as -3e-17 and are clipped, so no count is negative
    _, sharp, smeared = setting_operators(PARAMS, [0.0], IC_POVM_INSTANTS, 4)
    states = sample_bell_states(50)[0]
    assert overlaps(states, sharp).min() >= 0.0
    assert count_rows(states, smeared, [1000.0], 3).min() >= 0.0


def test_measured_count_uses_fresh_photon_number():
    # setting 0 (t = 0) has overlap 1 with H, so its count is the photon
    # number drawn from that setting's own stream
    rho = qubit_states(1.0, 0.0, 0.0)[0]
    _, _, measured = _rows(rho, 0.0, 1000.0, seed=3, state_index=4)
    assert measured[0] == _photons(3, 4, 0, 1000.0)


def test_qubit_set_noiseless_matches_closed_form():
    # sharp detector, no Poisson spread: counts are N (1 + cos 2 pi t) / 2
    rho = qubit_states(1.0, 0.0, 0.0)[0]
    settings, expected, measured = _noiseless_rows(rho, 0.0, 1000.0)
    assert len(settings) == 6
    for (t,), e, m in zip(settings, expected, measured):
        want = 1000.0 * 0.5 * (1.0 + math.cos(2.0 * math.pi * t))
        assert m == pytest.approx(want, abs=1e-9)
        assert e == pytest.approx(want, abs=1e-9)


def test_qubit_set_expected_column_ignores_jitter():
    # the expected column always reflects the sharp detector; both widths draw
    # the same photon numbers, so the measured columns differ by the smearing alone
    rho = qubit_states(1.0, 0.6, 1.1)[0]
    _, sharp_expected, sharp_measured = _rows(rho, 0.0, 1000.0)
    _, blurred_expected, blurred_measured = _rows(rho, 0.2, 1000.0)
    assert blurred_expected == pytest.approx(sharp_expected)
    assert np.abs(sharp_measured - blurred_measured).max() > 1.0


def test_qubit_set_is_deterministic_per_seed_and_state():
    rho = qubit_states(0.7, 1.0, 2.0)[0]
    first = _rows(rho, 0.1, 100.0, seed=42, state_index=5)[2]
    second = _rows(rho, 0.1, 100.0, seed=42, state_index=5)[2]
    other = _rows(rho, 0.1, 100.0, seed=42, state_index=6)[2]
    assert first.tolist() == second.tolist()
    assert first.tolist() != other.tolist()


def test_qubit_set_settings_draw_independent_photon_numbers():
    rho = qubit_states(0.0, 0.0, 0.0)[0]  # flat overlap 1/2 everywhere
    _, _, measured = _rows(rho, 0.0, 1000.0)
    photons = {round(2.0 * m) for m in measured}
    assert len(photons) > 1


def test_qubit_set_accepts_precomputed_stacks():
    # a sweep counts a whole batch; state b of a batch starting at sample
    # index 5 is state 5 + b counted on its own
    states = qubit_states([0.9, 0.2], [0.4, 2.0], [5.0, 1.0])
    _, sharp, smeared = setting_operators(PARAMS, [0.15], IC_POVM_INSTANTS, 2)
    expected = 200.0 * overlaps(states, sharp)
    measured = count_rows(states, smeared, [200.0], 9, 5)[0, 0]
    for b, rho in enumerate(states):
        _, direct_expected, direct_measured = _rows(rho, 0.15, 200.0, seed=9, state_index=5 + b)
        assert direct_measured.tolist() == measured[b].tolist()
        assert direct_expected.tolist() == expected[b].tolist()


def test_coincidence_set_layout_and_normalization():
    rho = bell_states(0.0)[0]
    settings, _, measured = _noiseless_rows(rho, 0.0, 1000.0)
    assert len(settings) == 36
    instants = IC_POVM_INSTANTS
    assert settings[0] == (instants[0], instants[0])
    assert settings[1] == (instants[0], instants[1])
    assert settings[6] == (instants[1], instants[0])
    # schedule resolves identity on each arm: total over 36 settings is 9 N
    assert measured.sum() == pytest.approx(9.0 * 1000.0, rel=1e-12)


def test_coincidence_correlations_follow_the_pair_phase():
    # phase 0: perfectly correlated in the first basis, and the cross-basis
    # coincidence at (0.25, 1.25) is N (1 + sin alpha) / 4 by direct algebra
    settings, _, measured = _noiseless_rows(bell_states(0.0)[0], 0.0, 1000.0)
    by_times = dict(zip(settings, measured))
    assert by_times[(0.0, 0.0)] == pytest.approx(500.0)
    assert by_times[(0.5, 0.5)] == pytest.approx(500.0)
    assert by_times[(0.0, 0.5)] == pytest.approx(0.0, abs=1e-9)
    assert by_times[(0.25, 1.25)] == pytest.approx(250.0)
    settings, _, measured = _noiseless_rows(bell_states(1.5 * math.pi)[0], 0.0, 1000.0)
    quarter = dict(zip(settings, measured))
    assert quarter[(0.25, 1.25)] == pytest.approx(0.0, abs=1e-9)


def test_coincidence_setting_streams_match_flat_index():
    rho = bell_states(1.0)[0]
    settings, expected, measured = _rows(rho, 0.1, 500.0, seed=7, state_index=2)
    # rebuild every setting by hand, each from its own rng stream
    times = np.asarray(IC_POVM_INSTANTS)
    smeared = jittered_matrices("H", PARAMS, 0.1, times)
    ideal = jittered_matrices("H", PARAMS, 0.0, times)
    for k in range(len(settings)):
        i, j = divmod(k, 6)
        photons = _photons(7, 2, k, 500.0)
        overlap = np.real(np.trace(np.kron(smeared[i], smeared[j]) @ rho))
        want = 500.0 * np.real(np.trace(np.kron(ideal[i], ideal[j]) @ rho))
        assert settings[k] == (times[i], times[j])
        assert measured[k] == pytest.approx(photons * float(overlap), rel=1e-12, abs=1e-12)
        assert expected[k] == pytest.approx(float(want), rel=1e-12, abs=1e-12)
