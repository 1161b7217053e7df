"""Dense simulator: states, transform, noise, sampling, order finding."""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from sweep import sweep_pairs as _sweep_pairs

from shorcompile import cli, qsim
from shorcompile.circuit import cost
from shorcompile.cli import EXIT_OK, EXIT_USAGE, entrypoint
from shorcompile.modexp import compile_modexp, full_compile
from shorcompile.numtheory import multiplicative_order, prime_factors
from shorcompile.qsim import (
    DensityMatrix,
    NoiseParams,
    ProbDist,
    StateVector,
    _register_sizes,
    apply_period_map,
    depolarize,
    estimate_epsilon,
    input_probabilities,
    noisy_separability,
    order_finding_run,
    period_distribution,
    qft_input,
    reduce_to_input,
    sample,
    separability_index,
    uniform_input_state,
)
from shorcompile.synth import synthesize

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


@pytest.mark.parametrize(
    "excess, ok", [(5e-13, True), (-5e-13, True), (2e-12, False), (-2e-12, False), (math.nan, False)]
)
def test_state_norm_bound_is_1e_12(excess, ok):
    amps = np.array([math.sqrt(1.0 + excess)], dtype=complex)
    if ok:
        StateVector(0, 0, amps)
    else:
        with pytest.raises(ValueError, match="state norm"):
            StateVector(0, 0, amps)


# one value inside and one outside each bound: min >= -1e-15, max <= 1 + 1e-12, |sum - 1| <= 1e-12;
# NaN lies outside every bound
@pytest.mark.parametrize(
    "probs, message",
    [
        ([-5e-16, 1.0], None),
        ([-2e-15, 1.0], "lie in"),
        ([1.0 + 5e-13], None),
        ([1.0 + 2e-12], "lie in"),
        ([0.5, 0.5 - 5e-13], None),
        ([0.5, 0.5 - 2e-12], "sum to 1"),
        ([math.nan, 0.5], "lie in"),
        ([0.5, math.nan], "lie in"),
        ([math.nan], "lie in"),
        ([[0.5, 0.5]], "one dimensional"),
    ],
)
def test_probability_bounds(probs, message):
    if message is None:
        ProbDist(np.array(probs))
    else:
        with pytest.raises(ValueError, match=message):
            ProbDist(np.array(probs))


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: StateVector(1, 1, np.array([1.0, 0.0, 0.0], dtype=complex)), r"length must be 2\*\*\(m\+k\)"),
        (lambda: DensityMatrix(2, np.eye(3) / 3), r"shape must be \(dim, dim\)"),
        # trace 1 and Hermitian, but with a negative eigenvalue
        (lambda: DensityMatrix(2, np.diag([1.5, -0.5])), "must be positive semidefinite"),
        (lambda: noisy_separability(2.0, NoiseParams(1.0), 3), r"S=2.0 outside \[1/2\*\*m, 1\]"),
        (lambda: order_finding_run(2, 1, 8, 0), "modulus must be at least 2"),
    ],
    ids=("state-length", "density-shape", "density-psd", "separability-range", "order-finding-modulus"),
)
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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
    # a stack is checked at both ends of its range of periods
    with pytest.raises(ValueError, match="period 3 does not fit the 1-bit output register"):
        qsim.period_map_stack(st, range(1, 4))
    with pytest.raises(ValueError, match=r"period 0 outside 1..2\*\*m"):
        qsim.period_map_stack(st, range(0, 2))


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


def _table_registers() -> list[tuple[int, int]]:
    """Every (m, k) whose min(2**m, 2**k) states of 2**(m+k) amplitudes the tables accept."""
    return [
        (m, k)
        for m in range(qsim._MAX_QUBITS + 1)
        for k in range(qsim._MAX_QUBITS + 1 - m)
        if min(1 << m, 1 << k) << (m + k) <= cli._MAX_TABLE_AMPLITUDES
    ]


def test_stacked_periods_equal_one_period_at_a_time_bit_for_bit():
    """The tables build every period in one stack; each stacked state and
    distribution has the bytes of the one-period functions, on the numpy at hand."""
    registers = _table_registers()
    assert len(registers) == 133 and (6, 6) in registers and (18, 0) in registers
    for m, k in registers:
        start = uniform_input_state(m, k)
        dists = cli._distributions(m, k)
        assert [p for p, _, _ in dists] == list(range(1, min(1 << m, 1 << k) + 1))
        for p, state, dist in dists:
            want = qft_input(apply_period_map(start, p))
            assert state.amplitudes.tobytes() == want.amplitudes.tobytes(), (m, k, p)
            assert dist.probabilities.tobytes() == input_probabilities(want).probabilities.tobytes(), (m, k, p)


def test_largest_probability_table_is_pinned(capsys):
    """sha256 of `tables probabilities --m 6 --k 6 --format csv`, the bound's
    64 stacked states, so that every numpy the package supports checks it."""
    assert entrypoint(["tables", "probabilities", "--m", "6", "--k", "6", "--format", "csv"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "83664f212bccf4b238b39833b991e4f9cd3dccad396bdec75556862f3ec5ae0d"


def test_reduced_density_is_physical():
    for p in (1, 2, 3, 5, 7):
        rho = reduce_to_input(qft_input(_period_state(3, 3, p)))
        ent = rho.entries
        assert np.allclose(ent, ent.conj().T, atol=1e-12)
        assert abs(np.trace(ent).real - 1.0) < 1e-12
        assert np.min(rho.spectrum()) > -1e-10


def test_reduce_to_input_refuses_a_wide_input_register_before_the_product(monkeypatch):
    # at m = 11 the 2**11 x 2**11 complex product alone would take 64 MiB
    state = uniform_input_state(11, 0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^reduce_to_input supports at most m=10 input qubits, got m=11$"):
            reduce_to_input(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the widest register it takes, with DensityMatrix's checks (a 1024 x 1024 eigensolve) left out:
    # every entry of the uniform input's rho is 1/2**10
    monkeypatch.setattr(qsim, "DensityMatrix", lambda dim, entries: (dim, entries))
    dim, entries = reduce_to_input(uniform_input_state(10, 0))
    assert dim == 1024 and np.allclose(entries, 1 / 1024)


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


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_density_matrix_refuses_non_finite_entries(value):
    # allclose counts inf as close to inf, and a NaN eigenvalue is not below -1e-10
    entries = np.array([[0.5, value], [value, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="density matrix entries must be finite"):
        DensityMatrix(2, entries)


@pytest.mark.parametrize("delta", [0.0, 1e-6, 2.4e-6, 2.6e-6, 1e-5, 1e-13, 1.5e-12])
@pytest.mark.parametrize("scale", [0.25, 0.0])
def test_density_matrix_hermiticity_tolerance_is_allclose(delta, scale):
    """|E - E^H| <= 1e-12 + 1e-5 |E^H| entrywise: np.allclose's test at atol=1e-12."""
    entries = np.array([[0.5, scale + delta], [scale, 0.5]], dtype=complex)
    hermitian = np.allclose(entries, entries.conj().T, atol=1e-12)
    assert hermitian == (delta <= 1e-12 + 1e-5 * scale)
    if hermitian:
        DensityMatrix(2, entries)
    else:
        with pytest.raises(ValueError, match="density matrix must be Hermitian"):
            DensityMatrix(2, entries)


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


def test_sampling_refuses_a_negative_seed_by_name():
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        sample(ProbDist(np.full(4, 0.25)), 5, seed=-1)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -3"):
        order_finding_run(2, 15, 5, seed=-3)


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


def test_register_sizes_match_the_doubling_loop():
    """m is the least m >= 1 with 2**m >= n**2; the doubling loop below is the reference."""

    def doubling(n: int) -> int:
        m = 1
        while (1 << m) < n * n:
            m += 1
        return m

    for n in [*range(4097), 2**20 - 1]:
        assert _register_sizes(n) == doubling(n), n


def test_order_finding_deterministic_per_seed():
    r1 = order_finding_run(2, 15, 50, seed=42)
    r2 = order_finding_run(2, 15, 50, seed=42)
    assert r1.samples == r2.samples
    assert r1.recovered_order == r2.recovered_order


def test_order_finding_restarts_the_lcm_when_junk_candidates_blow_it_up(monkeypatch):
    """Under a uniform distribution most shots give junk candidates. Their lcm
    passes N**2, so the run restarts from the latest one: the multiple it
    verifies stays within N**2 (956916991800 without the restart), and it
    still recovers r."""
    monkeypatch.setattr(qsim, "period_distribution", lambda m, p: ProbDist(np.full(1 << m, 1.0 / (1 << m))))
    verified = []
    reduce = qsim._reduce_to_exact_order
    monkeypatch.setattr(qsim, "_reduce_to_exact_order", lambda a, n, big: verified.append(big) or reduce(a, n, big))
    assert order_finding_run(2, 85, 128, seed=0).recovered_order == 8
    assert verified == [5016]  # 8 * 627, within 85**2 = 7225


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
    m, k = _register_sizes(n), (n - 1).bit_length()
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
        probs = period_distribution(_register_sizes(n), multiplicative_order(a, n)).probabilities
        assert np.max(np.abs(probs - _dense_order_finding(a, n))) <= 1e-15, (a, n)


@pytest.mark.parametrize("a, n", [(5, 51), (3, 85)])
def test_order_finding_distribution_matches_dense_path_when_16_divides_r(a, n):
    # r = 16: the kernel's transform is M / 16 long and its period is tiled 16 times
    assert multiplicative_order(a, n) == 16
    m = _register_sizes(n)
    assert m >= 12
    probs = period_distribution(m, 16).probabilities
    assert np.max(np.abs(probs - _dense_order_finding(a, n))) <= 1e-15


def _two_comb_probabilities(m: int, r: int) -> np.ndarray:
    """Reference closed form, one real FFT per comb of period r:
    P = (s |fft(comb_(q+1))|**2 + (r - s) |fft(comb_q)|**2) / M**2, q, s = divmod(M, r)."""
    size = 1 << m
    q, s = divmod(size, r)
    comb = np.zeros(size)
    comb[: q * r : r] = 1.0
    power = (r - s) * np.abs(np.fft.rfft(comb)) ** 2
    if s:
        comb[q * r] = 1.0
        power += s * np.abs(np.fft.rfft(comb)) ** 2
    return np.clip(np.concatenate([power, power[-2:0:-1]]) / size**2, 0.0, None)


def test_order_finding_kernel_matches_the_two_comb_form():
    # every (m, r) of the sweep, plus r = 1 (a = 1), which the sweep never reaches
    cases = {(_register_sizes(n), multiplicative_order(a, n)) for a, n in _sweep_pairs()}
    cases |= {(_register_sizes(n), 1) for n in (15, 85)}
    rs = {r for _, r in cases}
    assert {1, 2, 4, 8, 16} <= rs and {3, 5, 15} <= rs  # r = 1, powers of two and odd r
    for m, r in sorted(cases):
        probs = period_distribution(m, r).probabilities
        assert np.max(np.abs(probs - _two_comb_probabilities(m, r))) <= 1e-15, (m, r)


def test_sweep_tables_with_r_equal_to_2_to_the_n_in_validate_one_qubit_wider():
    """Of the 341 sweep tables that synthesize, those with r = 2**n_in map the
    inputs one to one, so their target at m = n_in is exactly uniform, as a
    fully depolarized device's is. One more input qubit costs nothing: r
    divides 2**n_in, so the n_in + 1 table repeats the n_in one and
    synthesizes, under the same g family, to the same qcost."""
    power_of_two, moduli, other_moduli = 0, set(), set()
    for a, n in _sweep_pairs():
        compiled = full_compile(a, n)
        table, r = compiled.table, compiled.period
        if max(table.n_in, table.n_out) > 6:
            continue
        if r != 1 << table.n_in:
            other_moduli.add(n)
            continue
        power_of_two += 1
        moduli.add(n)
        size = 1 << table.n_in
        assert np.array_equal(period_distribution(table.n_in, r).probabilities, np.full(size, 1.0 / size)), (a, n)
        wider = compile_modexp(a, n, table.n_in + 1, compiled.g.kind).table
        assert cost(synthesize(wider)).quantum_cost == cost(synthesize(table)).quantum_cost, (a, n)
    assert power_of_two == 123
    # the moduli whose every synthesizing table has r = 2**n_in
    assert sorted(moduli - other_moduli) == [15, 51, 85]


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


# sha256 over repr(order_finding_run(a, n, 512, seed)) for seeds 0-4 (outer loop) and the
# 455 sweep pairs (inner loop): the draws themselves, before any output formatting.
PINNED_ORDER_FINDING_SAMPLES = "f6442ba6bce00689b7ede593e355f501144e0f2b38119aa2b597dae7f9fff54b"


def test_order_finding_samples_are_pinned():
    pairs = _sweep_pairs()
    assert len(pairs) == 455
    digest = hashlib.sha256()
    for seed in range(5):
        for a, n in pairs:
            digest.update(repr(order_finding_run(a, n, 512, seed)).encode())
    assert digest.hexdigest() == PINNED_ORDER_FINDING_SAMPLES


def test_period_distribution_checks_its_registers_and_period():
    with pytest.raises(ValueError, match=r"register sizes 21\+0 out of range"):
        period_distribution(21, 3)
    with pytest.raises(ValueError, match=r"register sizes -1\+0 out of range"):
        period_distribution(-1, 1)
    for m, p in [(3, 0), (3, 9), (0, 2)]:
        with pytest.raises(ValueError, match=rf"period {p} outside 1\.\.2\*\*m"):
            period_distribution(m, p)
    # p = M gives every input its own value: the transform spreads it evenly
    assert period_distribution(3, 8) == ProbDist(np.full(8, 1 / 8))
    assert period_distribution(0, 1) == ProbDist(np.ones(1))


def test_period_distribution_matches_the_dense_tables_for_every_period():
    """The closed form against the dense stacked path of ``tables``, for every
    period p <= min(2**m, 2**k) at every (m, k) with 1 <= m <= 6 and 0 <= k <= 6."""
    checked = 0
    for m in range(1, 7):
        for k in range(7):
            for p, _, dense in cli._distributions(m, k):
                got = period_distribution(m, p).probabilities
                assert np.max(np.abs(got - dense.probabilities)) <= 1e-15, (m, k, p)
                checked += 1
    assert checked == 360


def test_factor_runs_order_finding_past_the_old_qubit_cap(capsys):
    # the least N with m + k > 20: m = 14, and order finding builds no k-qubit output register
    assert entrypoint(["factor", "--N", "91", "--a", "2"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "factors: 7 13"


def test_factor_runs_order_finding_at_the_register_bound(capsys):
    # 1023**2 > 2**19: M = 2**20, the most entries check_registers allows
    assert entrypoint(["factor", "--N", "1023", "--a", "2", "--shots", "64"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "M=1048576 " in out
    assert out.splitlines()[-1] == "factors: 31 33"


def test_factor_refuses_registers_past_the_bound_before_building_an_array(capsys):
    # 1025**2 > 2**20: M = 2**21 float entries would be 16 MiB
    tracemalloc.start()
    try:
        code = entrypoint(["factor", "--N", "1025", "--a", "2"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == EXIT_USAGE and out == ""
    assert err == "error: register sizes 21+0 out of range\n"
    assert peak < 1 << 20


def test_factor_refuses_registers_past_the_bound_before_walking_the_order(monkeypatch, capsys):
    # the walk takes up to N steps: 80388 for --N 1046523 --a 2, which m = 40 refuses anyway
    def refuse(*_):
        raise AssertionError("walked the order")

    monkeypatch.setattr(qsim, "multiplicative_order", refuse)
    assert entrypoint(["factor", "--N", "1025", "--a", "2"]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: register sizes 21+0 out of range\n")
