"""Independent correctness oracle for the benchmark.

Nothing here imports shorcompile. Circuits are evaluated bit by bit from
their JSON form, tables are checked against brute-force powers, orders and
factors against brute-force arithmetic, and the simulated distributions
against closed forms written out with ``cmath``. Every check raises
``OracleError`` on the first disagreement.
"""

from __future__ import annotations

import cmath
import json
import math

_CONTROLS = {"not": 0, "cnot": 1, "toffoli": 2}
_TOL = 1e-9
# A sampled frequency further than this many standard deviations from its
# probability is rejected; with the benchmark's op counts a correct sampler
# trips it with odds far below one in a million per run.
_SAMPLE_SIGMAS = 7.0


class OracleError(AssertionError):
    """An output the program delivered is wrong."""


def _fail(message: str) -> None:
    raise OracleError(message)


def json_document(stdout: str) -> dict:
    """The JSON object in a command's output, skipping text lines around it."""
    try:
        doc, _ = json.JSONDecoder().raw_decode(stdout[stdout.index("{"):])
    except ValueError as exc:
        raise OracleError(f"no JSON document in output {stdout[:200]!r}") from exc
    return doc


# ---------------------------------------------------------------- circuits


def qcost(doc: dict) -> int:
    """6 per Toffoli, 1 per CNOT or NOT, counted from the gate list."""
    weights = {"not": 1, "cnot": 1, "toffoli": 6}
    return sum(weights[g["kind"]] for g in doc["gates"])


def check_circuit(doc: dict, n_in: int, n_out: int, rows: list[int]) -> None:
    """The circuit computes ``rows`` on its outputs and restores its inputs."""
    width = doc["width"]
    ins, outs = doc["input_lines"], doc["output_lines"]
    if len(ins) != n_in or len(outs) != n_out:
        _fail(f"register shape {len(ins)}/{len(outs)}, table {n_in}/{n_out}")
    if len(set(ins + outs)) != n_in + n_out or not all(0 <= ln < width for ln in ins + outs):
        _fail("register lines overlap or lie outside the circuit")
    gates = []
    for g in doc["gates"]:
        kind = g["kind"]
        ctrl = [(c["line"], bool(c["neg"])) for c in g["controls"]]
        lines = [line for line, _ in ctrl] + [g["target"]]
        if _CONTROLS.get(kind) != len(ctrl) or len(set(lines)) != len(lines):
            _fail(f"malformed gate {g}")
        if not all(0 <= ln < width for ln in lines):
            _fail(f"gate {g} uses a line outside width {width}")
        gates.append((ctrl, g["target"]))
    for x, want in enumerate(rows):
        bits = [0] * width
        for i, line in enumerate(ins):
            bits[line] = (x >> (n_in - 1 - i)) & 1
        for ctrl, target in gates:
            if all(bits[line] != neg for line, neg in ctrl):
                bits[target] ^= 1
        y = 0
        for line in outs:
            y = (y << 1) | bits[line]
        x_after = 0
        for line in ins:
            x_after = (x_after << 1) | bits[line]
        if y != want or x_after != x:
            _fail(f"circuit gives y={y}, input {x_after} at x={x}; table says {want}")


# ---------------------------------------------------------------- tables


def brute_order(a: int, n: int) -> int:
    """Smallest r >= 1 with a**r = 1 mod n, by repeated multiplication."""
    v, r = a % n, 1
    while v != 1:
        v, r = v * a % n, r + 1
    return r


def check_modexp_table(table: dict, a: int, n: int) -> None:
    """A fully compiled table of a**x mod n: one period, injective within it."""
    r = brute_order(a, n)
    n_in, n_out, rows = table["n_in"], table["n_out"], table["rows"]
    if n_in != max(1, (r - 1).bit_length()) or len(rows) != 1 << n_in:
        _fail(f"table of {a}**x mod {n} has n_in={n_in}, order is {r}")
    if any(not 0 <= y < 1 << n_out for y in rows):
        _fail(f"table of {a}**x mod {n} has rows outside {n_out} bits")
    if any(rows[x] != rows[x % r] for x in range(len(rows))):
        _fail(f"table of {a}**x mod {n} is not periodic with period {r}")
    if len(set(rows[:r])) != r:
        _fail(f"table of {a}**x mod {n} is not injective within one period")


# ---------------------------------------------------------------- factoring


def expected_outcome(n: int, a: int) -> tuple[int, str, list[int] | None]:
    """(order, status, factors) that order finding plus post-processing must give."""
    r = brute_order(a, n)
    if r % 2 == 0:
        s = pow(a, r // 2, n)
    else:
        root = math.isqrt(a)
        if root * root != a:
            return r, "odd-order-no-square-root", None
        s = pow(root, r, n)
    if s == n - 1:
        return r, "minus-one-congruence", None
    f1, f2 = math.gcd(s + 1, n), math.gcd(s - 1, n)
    if f1 in (1, n) or f2 in (1, n):
        return r, "trivial-factor", None
    return r, "factors", sorted((f1, f2))


def check_factor(doc: dict, rc: int, n: int, a: int) -> str:
    """Check one single-base ``factor`` document; return its status."""
    (attempt,) = doc["attempts"]
    status = attempt["status"]
    if attempt["a"] != a:
        _fail(f"factor N={n}: attempt reports base {attempt['a']}, asked for {a}")
    order, want_status, want_factors = expected_outcome(n, a)
    if status == "order-not-recovered":
        if attempt["recovered_order"] is not None or rc != 1:
            _fail(f"factor N={n} a={a}: unrecovered order reported inconsistently")
        return status
    if attempt["recovered_order"] != order:
        _fail(f"factor N={n} a={a}: recovered order {attempt['recovered_order']}, true order {order}")
    if status != want_status:
        _fail(f"factor N={n} a={a}: status {status}, expected {want_status}")
    if status == "factors":
        got = attempt["factors"]
        if got != want_factors or got[0] * got[1] != n or doc["factors"] != got:
            _fail(f"factor N={n} a={a}: factors {got}, expected {want_factors}")
    if rc != (0 if status == "factors" else 1):
        _fail(f"factor N={n} a={a}: exit code {rc} for status {status}")
    return status


# ---------------------------------------------------------------- figures


def _period_amplitudes(m: int, p: int) -> list[list[complex]]:
    """amp[k][y] after QFT of sum_j |j>|j mod p> / sqrt(2**m)."""
    size = 1 << m
    amp = [[0j] * p for _ in range(size)]
    for k in range(size):
        for j in range(size):
            amp[k][j % p] += cmath.exp(2j * math.pi * j * k / size) / size
    return amp


def check_simulate(doc: dict, m: int, p: int, epsilon: float, shots: int) -> None:
    """Distributions, separability, sampling and the density matrix of ``simulate``."""
    size = 1 << m
    amp = _period_amplitudes(m, p)
    clean = [sum(abs(v) ** 2 for v in row) for row in amp]
    noisy = [(1 - epsilon) / size + epsilon * q for q in clean]
    s_theory = sum(q * q for q in clean)
    scalars = {
        "s_theory": s_theory,
        "s_noisy_predicted": epsilon**2 * s_theory + (1 - epsilon**2) / size,
        "epsilon": epsilon,
    }
    for key, want in scalars.items():
        if abs(doc[key] - want) > _TOL:
            _fail(f"simulate p={p}: {key}={doc[key]}, expected {want}")
    for key, want in (("theoretical", clean), ("noisy", noisy)):
        if len(doc[key]) != size or any(abs(g - w) > _TOL for g, w in zip(doc[key], want)):
            _fail(f"simulate p={p}: {key} distribution differs")

    emp = doc["empirical"]
    counts = [f * shots for f in emp]
    if any(abs(c - round(c)) > 1e-6 for c in counts) or round(sum(counts)) != shots:
        _fail(f"simulate p={p}: empirical frequencies are not counts out of {shots}")
    for f, q in zip(emp, noisy):
        if abs(f - q) > _SAMPLE_SIGMAS * math.sqrt(q * (1 - q) / shots) + 1.0 / shots:
            _fail(f"simulate p={p}: sampled frequency {f} far from probability {q}")
    s_obs = sum(f * f for f in emp)
    if abs(doc["s_observed"] - s_obs) > _TOL:
        _fail(f"simulate p={p}: s_observed={doc['s_observed']}, expected {s_obs}")
    floor = 1.0 / size
    if s_theory > floor + 1e-12:
        ratio = min(max((s_obs - floor) / (s_theory - floor), 0.0), 1.0)
        want = math.sqrt(ratio)
        if doc["epsilon_estimate"] is None or abs(doc["epsilon_estimate"] - want) > 1e-7:
            _fail(f"simulate p={p}: epsilon estimate {doc['epsilon_estimate']}, expected {want}")
    elif doc["epsilon_estimate"] is not None:
        _fail(f"simulate p={p}: epsilon estimate given at the separability floor")

    rho = doc["rho"]
    if rho["dim"] != size:
        _fail(f"simulate p={p}: density matrix dimension {rho['dim']}")
    for i in range(size):
        for j in range(size):
            want = sum(amp[i][y] * amp[j][y].conjugate() for y in range(p))
            re, im = rho["entries"][i][j]
            if abs(re - want.real) > _TOL or abs(im - want.imag) > _TOL:
                _fail(f"simulate p={p}: rho[{i},{j}] = {re}{im:+}j, expected {want}")


def check_diff_golden(rc: int, stdout: str) -> None:
    lines = [ln for ln in stdout.splitlines() if ln and not ln.startswith(" ")]
    if rc != 0 or len(lines) != 7 or not all(ln.endswith(": ok") for ln in lines):
        _fail(f"diff-golden exit {rc}: {stdout.strip()!r}")
