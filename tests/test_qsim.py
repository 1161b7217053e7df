"""Dense simulator: states, transform, noise, sampling, order finding."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from shorcompile.cli import EXIT_USAGE, entrypoint
from shorcompile.numtheory import prime_factors
from shorcompile.qsim import (
    DensityMatrix,
    NoiseParams,
    ProbDist,
    StateVector,
    _order_finding_probabilities,
    _register_sizes,
    apply_period_map,
    depolarize,
    estimate_epsilon,
    input_probabilities,
    noisy_separability,
    order_finding_run,
    qft_input,
    reduce_to_input,
    sample,
    separability_index,
    uniform_input_state,
)

RNG = np.random.default_rng(31337)


def _period_state(m: int, k: int, p: int):
    return apply_period_map(uniform_input_state(m, k), p)


def test_uniform_input_state_layout():
    st = uniform_input_state(2, 3)
    grid = st.grid()
    assert grid.shape == (4, 8)
    assert np.allclose(grid[:, 0], 0.5)
    assert np.allclose(grid[:, 1:], 0.0)


def test_state_norm_checked():
    with pytest.raises(ValueError):
        from shorcompile.qsim import StateVector

        StateVector(1, 1, np.array([1.0, 1.0, 0.0, 0.0], dtype=complex))


@pytest.mark.parametrize("excess, ok", [(5e-13, True), (-5e-13, True), (2e-12, False), (-2e-12, False)])
def test_state_norm_bound_is_1e_12(excess, ok):
    amps = np.array([math.sqrt(1.0 + excess)], dtype=complex)
    if ok:
        StateVector(0, 0, amps)
    else:
        with pytest.raises(ValueError, match="state norm"):
            StateVector(0, 0, amps)


# one value inside and one outside each bound: min >= -1e-15, max <= 1 + 1e-12, |sum - 1| <= 1e-12
@pytest.mark.parametrize(
    "probs, message",
    [
        ([-5e-16, 1.0], None),
        ([-2e-15, 1.0], "lie in"),
        ([1.0 + 5e-13], None),
        ([1.0 + 2e-12], "lie in"),
        ([0.5, 0.5 - 5e-13], None),
        ([0.5, 0.5 - 2e-12], "sum to 1"),
    ],
)
def test_probability_bounds(probs, message):
    if message is None:
        ProbDist(np.array(probs))
    else:
        with pytest.raises(ValueError, match=message):
            ProbDist(np.array(probs))


def test_apply_period_map_writes_x_mod_p():
    st = _period_state(3, 3, 3)
    grid = st.grid()
    for x in range(8):
        for y in range(8):
            want = 1 / math.sqrt(8) if y == x % 3 else 0.0
            assert abs(grid[x, y] - want) < 1e-12


def test_apply_period_map_validates():
    st = uniform_input_state(2, 1)
    with pytest.raises(ValueError):
        apply_period_map(st, 3)  # p - 1 needs 2 output bits
    with pytest.raises(ValueError):
        apply_period_map(st, 0)
    moved = apply_period_map(uniform_input_state(2, 2), 2)
    with pytest.raises(ValueError):
        apply_period_map(moved, 2)  # output register no longer |0>


def test_qft_preserves_norm_and_inverts():
    for p in (1, 3, 5, 8):
        st = _period_state(3, 3, p)
        fw = qft_input(st)
        assert abs(np.linalg.norm(fw.amplitudes) - 1.0) < 1e-12
        back = np.fft.fft(fw.grid(), axis=0, norm="ortho")
        assert np.allclose(back, st.grid(), atol=1e-12)


def test_qft_known_amplitudes_period_3():
    # closed-form checks for the p=3 state after the transform
    grid = qft_input(_period_state(3, 3, 3)).grid()
    assert abs(grid[0, 0] - 3 / 8) < 1e-12
    want = (1 / 8) * (1 - 1 / math.sqrt(2)) * (1 - 1j)
    assert abs(grid[1, 0] - want) < 1e-12


def test_input_probabilities_from_state_and_density():
    st = qft_input(_period_state(3, 3, 3))
    p_state = input_probabilities(st).probabilities
    p_rho = np.real(np.diag(reduce_to_input(st).entries))
    assert np.allclose(p_state, p_rho, atol=1e-12)
    assert abs(float(np.sum(p_state)) - 1.0) < 1e-12


def test_reduced_density_is_physical():
    for p in (1, 2, 3, 5, 7):
        rho = reduce_to_input(qft_input(_period_state(3, 3, p)))
        ent = rho.entries
        assert np.allclose(ent, ent.conj().T, atol=1e-12)
        assert abs(np.trace(ent).real - 1.0) < 1e-12
        assert np.min(rho.spectrum()) > -1e-10


def test_density_spectrum_invariant_under_transform():
    # the transform acts unitarily on the input register alone, so the
    # reduced spectrum cannot change
    for p in (2, 3, 6):
        st = _period_state(3, 3, p)
        before = reduce_to_input(st).spectrum()
        after = reduce_to_input(qft_input(st)).spectrum()
        assert np.allclose(before, after, atol=1e-10)


def test_density_matrix_validation():
    bad = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        DensityMatrix(2, bad)  # trace 2
    notherm = np.array([[0.5, 1j], [1j, 0.5]])
    with pytest.raises(ValueError):
        DensityMatrix(2, notherm)


def test_separability_index_is_sum_of_squares():
    for _ in range(50):
        raw = RNG.random(8)
        probs = raw / raw.sum()
        dist = ProbDist(probs)
        assert abs(separability_index(dist) - float(np.sum(probs**2))) < 1e-14


def test_depolarize_mixes_toward_uniform():
    dist = input_probabilities(qft_input(_period_state(3, 3, 2)))
    noisy = depolarize(dist, NoiseParams(0.5))
    assert abs(float(noisy.probabilities[0]) - 0.3125) < 1e-12
    same = depolarize(dist, NoiseParams(1.0))
    assert np.allclose(same.probabilities, dist.probabilities)
    flat = depolarize(dist, NoiseParams(0.0))
    assert np.allclose(flat.probabilities, 1 / 8)


def test_noisy_separability_closed_form_matches_direct():
    # the closed form must equal recomputing S on the depolarized entries
    for _ in range(100):
        raw = RNG.random(8)
        probs = raw / raw.sum()
        eps = float(RNG.random())
        dist = ProbDist(probs)
        s = separability_index(dist)
        direct = separability_index(depolarize(dist, NoiseParams(eps)))
        closed = noisy_separability(s, NoiseParams(eps), 3)
        assert abs(direct - closed) < 1e-12
    assert noisy_separability(0.5, NoiseParams(0.5), 3) == pytest.approx(0.21875, abs=1e-15)


def test_noisy_separability_fully_mixed_limit():
    # at eps = 0 the register is uniform: S must be exactly 1/2**m
    assert noisy_separability(0.238281, NoiseParams(0.0), 3) == pytest.approx(1 / 8)
    assert noisy_separability(1.0, NoiseParams(0.0), 4) == pytest.approx(1 / 16)


def test_estimate_epsilon_inverts_noisy_separability():
    for _ in range(100):
        s = float(RNG.uniform(0.126, 1.0))
        eps = float(RNG.uniform(0.0, 1.0))
        observed = noisy_separability(s, NoiseParams(eps), 3)
        assert abs(estimate_epsilon(s, observed, 3) - eps) < 1e-10


def test_estimate_epsilon_guards():
    with pytest.raises(ValueError):
        estimate_epsilon(1 / 8, 0.2, 3)  # theory already at the floor
    with pytest.warns(UserWarning):
        assert estimate_epsilon(0.25, 0.30, 3) == 1.0  # above theory: clamp
    with pytest.warns(UserWarning):
        assert estimate_epsilon(0.25, 0.10, 3) == 0.0  # below floor: clamp


def test_estimate_epsilon_clamps_rounding_silently_and_warns_beyond_it():
    s = 1 - 9e-16  # S_theory the closed form gives at p = 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert estimate_epsilon(s, 1.0, 3) == 1.0
        assert estimate_epsilon(s, 1 / 8 - 1e-15, 3) == 0.0
    with pytest.warns(UserWarning, match="outside"):
        assert estimate_epsilon(s, s + 1e-9, 3) == 1.0
    with pytest.warns(UserWarning, match="outside"):
        assert estimate_epsilon(s, 1 / 8 - 1e-9, 3) == 0.0


def test_noiseless_simulate_writes_nothing_to_stderr(capsys):
    # every shot lands on one outcome, so the observed S is exactly 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = entrypoint(["simulate", "--p", "1", "--shots", "500", "--seed", "1", "--rho", "--format", "json"])
    assert code == 0
    assert capsys.readouterr().err == ""


def test_sample_reproducible_and_converges():
    dist = input_probabilities(qft_input(_period_state(3, 3, 4)))
    a = sample(dist, 5000, seed=12)
    b = sample(dist, 5000, seed=12)
    assert np.allclose(a.probabilities, b.probabilities)
    c = sample(dist, 5000, seed=13)
    assert not np.allclose(a.probabilities, c.probabilities)
    assert np.max(np.abs(a.probabilities - dist.probabilities)) < 0.03


def test_sample_validates_shots():
    dist = ProbDist(np.full(4, 0.25))
    with pytest.raises(ValueError):
        sample(dist, 0, seed=1)


def test_order_finding_known_pairs():
    for a, n, want in [(2, 15, 4), (4, 15, 2), (7, 15, 4), (4, 21, 3), (2, 21, 6), (4, 33, 5), (5, 33, 10)]:
        res = order_finding_run(a, n, shots=300, seed=5)
        assert res.recovered_order == want, (a, n)
        assert len(res.samples) == 300  # every shot is drawn before recovery starts
        assert pow(a, res.recovered_order, n) == 1


def test_order_finding_register_sizes():
    # M is the least power of two at or above N**2
    assert order_finding_run(2, 15, 10, seed=0).m == 8
    assert order_finding_run(2, 21, 10, seed=0).m == 9
    assert order_finding_run(2, 33, 10, seed=0).m == 11


def test_order_finding_deterministic_per_seed():
    r1 = order_finding_run(2, 15, 50, seed=42)
    r2 = order_finding_run(2, 15, 50, seed=42)
    assert r1.samples == r2.samples
    assert r1.recovered_order == r2.recovered_order


def test_order_finding_rejects_shared_factor():
    with pytest.raises(ValueError):
        order_finding_run(6, 15, 10, seed=0)


@pytest.mark.parametrize("shots", [0, -3])
def test_order_finding_validates_shots(capsys, shots):
    with pytest.raises(ValueError, match="shots must be at least 1"):
        order_finding_run(2, 15, shots, seed=0)
    assert entrypoint(["factor", "--N", "15", "--a", "2", "--shots", str(shots)]) == EXIT_USAGE
    assert "shots must be at least 1" in capsys.readouterr().err


def test_order_finding_refuses_too_many_shots_before_drawing(monkeypatch, capsys):
    def no_draw(*_):
        raise AssertionError("drew shots past the bound")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ValueError, match=r"shots must be at most 2\*\*20"):
        order_finding_run(7, 15, (1 << 20) + 1, seed=0)
    for extra in ((), ("--a", "7")):
        code = entrypoint(["factor", "--N", "15", "--shots", "1000000000000", *extra])
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "error: shots must be at most 2**20, got 1000000000000\n"


def test_order_finding_accepts_the_shot_bound():
    assert len(order_finding_run(7, 15, 1 << 20, seed=0).samples) == 1 << 20


def _dense_order_finding(a: int, n: int) -> np.ndarray:
    """Dense oracle: superpose, write a**x mod n to the output register, QFT, marginal."""
    m, k = _register_sizes(n)
    state = uniform_input_state(m, k)
    xs = np.arange(1 << m)
    residues = np.array([pow(a, int(x), n) for x in xs])
    amps = np.zeros_like(state.amplitudes)
    amps[(xs << k) + residues] = state.grid()[:, 0]
    return input_probabilities(qft_input(StateVector(m, k, amps))).probabilities


def _coprime_pairs(max_n: int) -> list[tuple[int, int]]:
    return [(a, n) for n in range(3, max_n + 1) for a in range(2, n) if math.gcd(a, n) == 1]


@pytest.mark.parametrize("pairs", [_coprime_pairs(35), [(2, 77)]], ids=["n<=35", "a2_n77"])
def test_order_finding_distribution_matches_dense_path(pairs):
    for a, n in pairs:
        m, probs = _order_finding_probabilities(a, n)
        assert m == _register_sizes(n)[0]
        assert np.max(np.abs(probs - _dense_order_finding(a, n))) <= 1e-15, (a, n)


def test_order_finding_samples_equal_dense_draws():
    for a, n, seed in [(2, 15, 0), (7, 15, 3), (4, 21, 1), (5, 33, 9), (2, 35, 4)]:
        dense = _dense_order_finding(a, n)
        want = np.random.default_rng(seed).choice(len(dense), size=200, p=dense)
        assert order_finding_run(a, n, 200, seed).samples == tuple(want.tolist()), (a, n)


# sha256 over the exit code and stdout of `factor --N n --a a --seed seed
# --shots 128 --format json`, for every coprime (a, N), N an odd semiprime
# below 90 (455 pairs). Like PINNED_CIRCUITS in test_synth, it must not change.
PINNED_FACTOR_OUTPUTS = {
    0: "674c2cefe54dc37b4ad68db431df51f81d0f985731c45a67e30c27004bf0a63a",
    2013: "4e11dbc8fe99380c44e1650d4122da113c43a6afb9fbafa0e956323af85a4a98",
}


@pytest.mark.parametrize("seed", sorted(PINNED_FACTOR_OUTPUTS))
def test_factor_outputs_are_pinned(capsys, seed):
    digest = hashlib.sha256()
    pairs = 0
    for n in range(15, 90, 2):
        if list(prime_factors(n).values()) != [1, 1]:
            continue
        for a in range(2, n):
            if math.gcd(a, n) != 1:
                continue
            argv = ["factor", "--N", str(n), "--a", str(a), "--seed", str(seed),
                    "--shots", "128", "--format", "json"]
            code = entrypoint(argv)
            digest.update(f"{code}\n{capsys.readouterr().out}".encode())
            pairs += 1
    assert pairs == 455
    assert digest.hexdigest() == PINNED_FACTOR_OUTPUTS[seed]


def test_order_finding_keeps_the_qubit_cap(capsys):
    assert sum(_register_sizes(91)) == 21
    with pytest.raises(ValueError, match="20-qubit"):
        order_finding_run(2, 91, 10, seed=0)
    assert entrypoint(["factor", "--N", "91", "--a", "2", "--shots", "10"]) == EXIT_USAGE
    assert "20-qubit" in capsys.readouterr().err
