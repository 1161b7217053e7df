"""Simulation of the order-finding pipeline.

Registers: m input qubits and k output qubits; basis index of |x>|y> is
x * 2**k + y. The QFT acts on the input register only. The dense
statevector path (state preparation, the period map, transform,
probabilities, reduced density matrices, depolarizing noise, the
separability index) serves ``simulate``, ``tables probabilities`` and
``tables separability``, and the m = 3 figures. The period map writes
x mod p into the output register directly; compiled circuits are checked
classically by ``circuit.verify``, so this module does not use the circuit
IR. Its three array steps, the period map, the transform and the
probabilities, take a stack of (input value, output value) grids with a
leading period axis, so the tables build every period in one pass; the
one-state functions are their one-period case. Order finding samples the
input register's distribution from ``period_distribution(m, r)``, its
closed form in the order r and M = 2**m, without the statevector, then
recovers the multiplicative order from the seeded measurements.

Sampling uses numpy's default PCG64 generator; all sampling entry points
take an explicit seed and are bit-reproducible.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from ._checked import checked_record
from .numtheory import continued_fraction_order, multiplicative_order, prime_factors

_MAX_QUBITS = 20
# order_finding_run draws every shot up front: 8 bytes each, plus a Python int per sample.
# sample takes the same bound; its multinomial count must also fit in an int64.
_MAX_SHOTS = 1 << 20
# estimate_epsilon clamps an observed S this far outside its interval without a warning.
_S_TOLERANCE = 1e-12


def check_registers(m: int, k: int) -> None:
    """The register sizes every state accepts, checked before 2**(m+k) is evaluated."""
    if m < 0 or k < 0 or m + k > _MAX_QUBITS:
        raise ValueError(f"register sizes {m}+{k} out of range")


class _ArrayRecord:
    """Same type and every field np.array_equal: a tuple's own == refuses two distinct arrays."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and all(map(np.array_equal, self, other))

    def __ne__(self, other: object) -> bool:
        return not self == other


class StateVector(_ArrayRecord, checked_record("StateVector", "m k amplitudes")):
    __slots__ = ()

    def __new__(cls, m: int, k: int, amplitudes: np.ndarray) -> StateVector:  # complex128, length 2**(m+k)
        check_registers(m, k)
        if amplitudes.shape != (1 << (m + k),):
            raise ValueError("amplitude array length must be 2**(m+k)")
        norm = float(np.vdot(amplitudes, amplitudes).real)  # the sum of abs(amplitude)**2
        if not abs(norm - 1.0) <= 1e-12:  # written so that a NaN norm fails
            raise ValueError(f"state norm {norm} deviates from 1")
        return tuple.__new__(cls, (m, k, amplitudes))

    def grid(self) -> np.ndarray:
        """Amplitudes reshaped to (input value, output value)."""
        return self.amplitudes.reshape(1 << self.m, 1 << self.k)


class DensityMatrix(_ArrayRecord, checked_record("DensityMatrix", "dim entries")):
    __slots__ = ()

    def __new__(cls, dim: int, entries: np.ndarray) -> DensityMatrix:
        if entries.shape != (dim, dim):
            raise ValueError("entry matrix shape must be (dim, dim)")
        if not np.isfinite(entries).all():
            raise ValueError("density matrix entries must be finite")
        # np.allclose(entries, adjoint, atol=1e-12) written out, without its per-call overhead
        adjoint = entries.conj().T
        if not (np.abs(entries - adjoint) <= 1e-12 + 1e-5 * np.abs(adjoint)).all():
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(entries).real - 1.0) > 1e-12:
            raise ValueError("density matrix trace must be 1")
        if np.min(np.linalg.eigvalsh(entries)) < -1e-10:
            raise ValueError("density matrix must be positive semidefinite")
        return tuple.__new__(cls, (dim, entries))

    def spectrum(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.entries)


class ProbDist(_ArrayRecord, checked_record("ProbDist", "probabilities")):
    __slots__ = ()

    def __new__(cls, probabilities: np.ndarray) -> ProbDist:
        p = probabilities
        if p.ndim != 1:
            raise ValueError("probability array must be one dimensional")
        # each check is written not (within bounds), so that NaN fails it
        if not (-1e-15 <= p.min() and p.max() <= 1 + 1e-12):
            raise ValueError("probabilities must lie in [0, 1]")
        if not abs(float(p.sum()) - 1.0) <= 1e-12:
            raise ValueError("probabilities must sum to 1")
        return tuple.__new__(cls, (p,))


class NoiseParams(checked_record("NoiseParams", "epsilon")):
    """epsilon = 1 leaves the state untouched; 0 is maximally mixed."""

    __slots__ = ()

    def __new__(cls, epsilon: float) -> NoiseParams:
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        return tuple.__new__(cls, (epsilon,))


def uniform_input_state(m: int, k: int) -> StateVector:
    """Every input value in equal superposition, output register at |0>."""
    check_registers(m, k)  # before allocating 2**(m+k) amplitudes
    amps = np.zeros(1 << (m + k), dtype=np.complex128)
    amps[np.arange(1 << m) << k] = 1.0 / math.sqrt(1 << m)
    return StateVector(m, k, amps)


def period_map_stack(state: StateVector, periods: range) -> np.ndarray:
    """|j>|0>  ->  |j>|j mod p> for each p in ``periods``, a nonempty range.

    Returns the mapped grids as one (len(periods), 2**m, 2**k) stack.
    """
    m, k = state.m, state.k
    for p in (periods[0], periods[-1]):  # a range's ends bound every period in it
        if not 1 <= p <= 1 << m:
            raise ValueError(f"period {p} outside 1..2**m")
        if p - 1 >= 1 << k:
            raise ValueError(f"period {p} does not fit the {k}-bit output register")
    grid = state.grid()
    if k and np.max(np.abs(grid[:, 1:])) > 1e-12:
        raise ValueError("output register must start in |0>")
    xs = np.arange(1 << m)
    grids = np.zeros((len(periods), 1 << m, 1 << k), dtype=np.complex128)
    grids[np.arange(len(periods))[:, None], xs, xs % np.array(periods)[:, None]] = grid[:, 0]
    return grids


def qft_input_stack(grids: np.ndarray) -> np.ndarray:
    """QFT on the input register of each grid in a (..., 2**m, 2**k) stack,
    in place: |j> -> sum_k omega^(jk) |k> / sqrt(2**m), omega = exp(+2 pi i / 2**m)."""
    return np.fft.ifft(grids, axis=-2, norm="ortho", out=grids)


def input_probability_stack(grids: np.ndarray) -> np.ndarray:
    """Measurement distribution of the input register of each grid in a (..., 2**m, 2**k) stack."""
    weights = np.abs(grids)
    np.square(weights, out=weights)  # in place: a stack at the table bound takes one 2 MiB temporary, not two
    probs = np.sum(weights, axis=-1)
    return np.clip(probs, 0.0, None, out=probs)


def apply_period_map(state: StateVector, p: int) -> StateVector:
    """|j>|0>  ->  |j>|j mod p>."""
    return StateVector(state.m, state.k, period_map_stack(state, range(p, p + 1))[0].reshape(-1))


def qft_input(state: StateVector) -> StateVector:
    """QFT on the input register (``qft_input_stack``), into a new state."""
    return StateVector(state.m, state.k, qft_input_stack(state.grid().copy()).reshape(-1))


def reduce_to_input(state: StateVector) -> DensityMatrix:
    """Partial trace over the output register."""
    grid = state.grid()
    rho = grid @ grid.conj().T
    return DensityMatrix(1 << state.m, rho)


def input_probabilities(state: StateVector) -> ProbDist:
    """Measurement distribution of the input register."""
    return ProbDist(input_probability_stack(state.grid()))


def depolarize(dist: ProbDist, noise: NoiseParams) -> ProbDist:
    """Entrywise mix with the uniform distribution."""
    d = len(dist.probabilities)
    eps = noise.epsilon
    return ProbDist((1.0 - eps) / d + eps * dist.probabilities)


def separability_index(dist: ProbDist) -> float:
    """Sum of squared probabilities; 1 - S is a coarse entanglement proxy."""
    return float(np.sum(dist.probabilities**2))


def noisy_separability(s: float, noise: NoiseParams, m: int) -> float:
    """Closed form of separability_index(depolarize(dist)).

    Expanding sum((1-e)/d + e p_k)^2 with sum p_k = 1 and sum p_k^2 = S
    gives e^2 S + (1 - e^2) / d, d = 2**m. At e=0 this is 1/d, the fully
    mixed value.
    """
    d = 1 << m
    if not 1.0 / d - 1e-12 <= s <= 1.0 + 1e-12:
        raise ValueError(f"S={s} outside [1/2**m, 1]")
    eps = noise.epsilon
    return eps * eps * s + (1.0 - eps * eps) / d


def estimate_epsilon(s_theory: float, s_observed: float, m: int) -> float:
    """Invert noisy_separability for epsilon.

    A flat theoretical distribution carries no signal and is rejected.
    Observations outside [1/2**m, s_theory] are clamped: silently within
    _S_TOLERANCE (1e-12) of the interval, which absorbs float rounding in
    s_theory (a noiseless run can observe S = 1 against s_theory =
    1 - 1e-15), and with a warning beyond it.
    """
    d = 1 << m
    floor = 1.0 / d
    if s_theory <= floor + 1e-12:
        raise ValueError("S_theory at the uniform floor gives no epsilon signal")
    if not floor - _S_TOLERANCE <= s_observed <= s_theory + _S_TOLERANCE:
        warnings.warn(
            f"observed S={s_observed} outside [{floor}, {s_theory}], clamping",
            stacklevel=2,
        )
    ratio = (s_observed - floor) / (s_theory - floor)
    return math.sqrt(min(max(ratio, 0.0), 1.0))


def check_seed(seed: int) -> None:
    # numpy's own refusal does not say which argument it refused
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def check_draw(shots: int, seed: int) -> None:
    """The shot count and seed that sample and order_finding_run accept."""
    if shots < 1:
        raise ValueError("shots must be at least 1")
    if shots > _MAX_SHOTS:
        raise ValueError(f"shots must be at most 2**20, got {shots}")
    check_seed(seed)


def sample(dist: ProbDist, shots: int, seed: int) -> ProbDist:
    """Empirical distribution of a seeded multinomial draw."""
    check_draw(shots, seed)
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, dist.probabilities)
    return ProbDist(counts / shots)


class OrderFindingResult(NamedTuple):
    """One seeded run; ``samples`` holds every drawn shot, including those
    after the shot that verified the order."""

    samples: tuple[int, ...]
    recovered_order: int | None
    m: int  # input-register qubits; M = 2**m


def _register_sizes(n: int) -> int:
    return max(1, (n * n - 1).bit_length())  # the least m >= 1 with 2**m >= n**2


def period_distribution(m: int, p: int) -> ProbDist:
    """Measurement distribution of the m-qubit input register for a map of period p.

    Closed form of superpose, exponentiate, QFT and trace out the output
    register (Shor 1997; Nielsen & Chuang 5.3.1). With q, s = divmod(M, p),
    M = 2**m, the inputs x0 + j*p sharing the value at x0 form s combs of
    q + 1 teeth and p - s combs of q teeth, and P sums the combs' |QFT|**2.
    Summed over the combs, that is the DFT of their autocorrelation:
    M**2 P[k] = sum over |j| <= q of w_j cos(2 pi k j p / M), with lag weight
    w_j = s (q + 1 - |j|) + (p - s) (q - |j|) = M - p |j|. Every lag j*p is a
    multiple of 2**t, where p = 2**t p' with p' odd, so P has period
    sub = M / 2**t: the weights go at lags +-j*p' mod sub, one real FFT of
    length sub gives P[0..sub/2], the mirror P[sub - k] = P[k] gives one
    period, and the period is tiled 2**t times. The weights and the FFT are
    at most M long, and ``check_registers(m, 0)`` bounds M.
    """
    check_registers(m, 0)  # before 1 << m is evaluated
    size = 1 << m
    if not 1 <= p <= size:
        raise ValueError(f"period {p} outside 1..2**m")
    t = (p & -p).bit_length() - 1
    odd, sub = p >> t, size >> t
    lags = -(-size // p)  # lags 0..q, less lag q when its weight s is 0
    weights = np.arange(size, size - lags * p, -p, dtype=float)
    acf = np.zeros(sub)
    acf[: lags * odd : odd] = weights
    acf[sub - (lags - 1) * odd : sub : odd] += weights[:0:-1]  # overlaps lags 0..q-1 only when p' = 1
    probs = np.empty(size)
    period = probs[:sub]
    period[: sub // 2 + 1] = np.fft.rfft(acf).real
    period[sub // 2 + 1 :] = period[sub // 2 - 1 : 0 : -1]
    period /= size**2
    probs.reshape(-1, sub)[1:] = period
    return ProbDist(np.clip(probs, 0.0, None, out=probs))


def _reduce_to_exact_order(a: int, n: int, multiple: int) -> int:
    """Shrink a verified multiple of the order to the order itself.

    One pass per distinct prime suffices: a prime's multiplicity can only
    drop during its own pass, and the pass only stops once it has reached
    the multiplicity the true order requires. order_finding_run's restart
    rule keeps the multiple at most n**2, within prime_factors' bound.
    """
    r = multiple
    for p in prime_factors(multiple):
        while r % p == 0 and pow(a, r // p, n) == 1:
            r //= p
    return r


def order_finding_run(a: int, n: int, shots: int, seed: int) -> OrderFindingResult:
    """Simulated order finding: superpose, exponentiate, QFT, sample, recover.

    All shots, at most 2**20, are drawn first by a binary search of the CDF
    of ``period_distribution(m, r)``, built as ``Generator.choice`` builds
    it (cumsum, then divide by the last entry), so they equal
    ``rng.choice(M, size=shots, p=P)``. Each sampled k then feeds the
    continued-fraction extractor; candidates are lcm-combined until
    a**L = 1 (mod n) verifies, then L is reduced to the exact order by
    dividing out primes while the congruence still holds.
    """
    if math.gcd(a, n) != 1:
        raise ValueError("a must be coprime to n")
    check_draw(shots, seed)
    if n < 2:
        raise ValueError("modulus must be at least 2")
    m = _register_sizes(n)
    check_registers(m, 0)  # before the order walk, up to n steps, not after it in period_distribution
    r = 1 if a % n == 1 else multiplicative_order(a % n, n)
    cdf = period_distribution(m, r).probabilities
    np.cumsum(cdf, out=cdf)
    cdf /= cdf[-1]
    ks = cdf.searchsorted(np.random.default_rng(seed).random(shots), side="right")
    samples = tuple(ks.tolist())
    big = 1
    recovered = None
    for k in samples:
        d = continued_fraction_order(k, 1 << m, n)
        if d is None:
            continue
        big = math.lcm(big, d)
        if big > n * n:
            big = d  # junk candidates blew the combination up; restart from d
        if pow(a, big, n) == 1:
            recovered = _reduce_to_exact_order(a, n, big)
            break
    return OrderFindingResult(samples, recovered, m)
