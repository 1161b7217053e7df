"""Command line front end.

Subcommands
-----------
tables       emit the classical tables (orders, allowed periods,
             measurement probabilities, separability) as text, CSV or JSON
circuit      show, verify or cost a bundled or user-supplied circuit
synth        build a truth table for a**x mod N and synthesize a circuit
simulate     dense simulation of the period-map register pair
factor       end-to-end order finding plus classical post-processing
diff-golden  recompute every bundled table and circuit and compare

Exit codes: 0 success, 1 verification or diff failure, 2 invalid input,
3 a synthesized circuit failed its own verification (a program fault).
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import sys
import warnings
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import __version__
from .circuit import (
    Circuit,
    CostReport,
    circuit_from_json,
    circuit_to_json,
    cost,
    render_gates,
    verify,
)
from .library import FIGURE_IDS, find_entry, library_entry
from .modexp import GKind, TruthTable, compile_modexp, full_compile
from .numtheory import (
    PostProcessStatus,
    TrivialFactorError,
    coprime_order_table,
    factor_semiprime,
    is_prime_power,
    shor_postprocess,
)
from .qsim import (
    NoiseParams,
    ProbDist,
    StateVector,
    apply_period_map,
    check_draw,
    check_registers,
    check_seed,
    depolarize,
    estimate_epsilon,
    input_probabilities,
    input_probability_stack,
    noisy_separability,
    order_finding_run,
    period_map_stack,
    qft_input,
    qft_input_stack,
    reduce_to_input,
    sample,
    separability_index,
    uniform_input_state,
)
from .synth import SynthesisError, synthesize

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_SYNTHESIS = 3

# guard against float dust right at a golden tolerance boundary
_TOL_SLACK = 1e-9
# ``simulate --rho`` builds a 2**m x 2**m complex matrix: 16 MiB at this bound
_MAX_RHO_QUBITS = 10
# ``tables`` refuses work past these bounds before it computes a row (the README
# states the time taken at each): the orders of every base coprime to --N,
_MAX_ORDERS_N = 8192
# one semiprime test per odd n up to --max-N,
_MAX_ALLOWED_N = 16384
# and one 2**(m+k)-amplitude state per period, for min(2**m, 2**k) periods
_MAX_TABLE_AMPLITUDES = 1 << 18


def _object(members: dict[str, str]) -> str:
    """A JSON object from its members' encoded values, as ``json.dumps`` joins them.

    A key is encoded by the function that ``json.dumps`` calls for a str.
    """
    return "{" + ", ".join(f"{encode_basestring_ascii(key)}: {value}" for key, value in members.items()) + "}"


def _json_floats(values: np.ndarray) -> str:
    """``json.dumps(values.tolist())`` for an array of finite float64s.

    Each distinct value is formatted once, by the shortest round-trip
    ``float.__repr__`` that ``json.dumps`` writes. Values are told apart by
    bit pattern, so 0.0 and -0.0 keep their own text. The texts fill a
    template nested by the array's shape.
    """
    flat = values.ravel()
    bits = flat.view(np.int64).tolist()
    texts = dict(zip(bits, flat.tolist()))
    texts = dict(zip(texts, map(float.__repr__, texts.values())))
    template = "%s"
    for size in reversed(values.shape):
        template = "[" + ", ".join([template] * size) + "]"
    return template % tuple(map(texts.__getitem__, bits))


def _json_scalar(value: int | float | None) -> str:
    """``json.dumps(value)`` for an int, a finite float or None, without the encoder's per-call set-up."""
    return "null" if value is None else repr(value)


def _document(
    command: str, params: dict, seed: int | None, checksum: str, hashed: str, members: dict[str, str]
) -> str:
    """A command's one-line JSON document: the manifest, then ``members``, each already encoded.

    The manifest's one checksum, named ``checksum``, is the sha256 of ``hashed``.
    """
    checksums = {checksum: hashlib.sha256(hashed.encode("utf-8")).hexdigest()}
    manifest = {"command": command, "params": params, "seed": seed, "version": __version__, "checksums": checksums}
    return _object({"manifest": json.dumps(manifest), **members}) + "\n"


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _text_table(header: tuple[str, ...], rows: list[list]) -> str:
    widths = [max(len(str(c)) for c in column) for column in zip(header, *rows)]
    return "\n".join("  ".join(str(c).rjust(w) for c, w in zip(row, widths)) for row in (header, *rows))


def _cost_line(report: CostReport) -> str:
    line = f"N_T={report.n_toffoli} N_CN={report.n_cnot}"
    if report.n_not:
        line += f" N_NOT={report.n_not}"
    return line + f" qcost={report.quantum_cost}"


# ---------------------------------------------------------------- tables


_Dists = Callable[[int, int], list[tuple[int, StateVector, ProbDist]]]


class Table(NamedTuple):
    """A table that ``tables`` emits or ``diff-golden`` checks.

    Its bundled golden, if any, is ``golden/<stem>.csv``: the header's
    columns plus a per-row ``tolerance``. The first ``key`` columns
    identify a row. ``rows(dists)`` returns raw values; floats are
    unformatted. A table of post-transform states or distributions reads
    them as ``dists(m, k)``: ``_distributions``, or a cache of it that the
    tables of one command share.
    """

    stem: str
    header: tuple[str, ...]
    key: int
    rows: Callable[[_Dists], list[tuple]]


def _at_most(option: str, value: int, bound: int) -> None:
    if value > bound:
        raise ValueError(f"{option} must be at most {bound}, got {value}")


def _distributions(m: int, k: int) -> list[tuple[int, StateVector, ProbDist]]:
    """The post-transform state and its input distribution for every period p the registers allow."""
    check_registers(m, k)  # before 1 << m is evaluated
    periods = range(1, min(1 << m, 1 << k) + 1)
    _at_most("the amplitudes of min(2**m, 2**k) states of 2**(m+k)", len(periods) << (m + k), _MAX_TABLE_AMPLITUDES)
    # every period's state in one stack: one index write, one in-place transform, one probability pass
    grids = qft_input_stack(period_map_stack(uniform_input_state(m, k), periods))
    probs = input_probability_stack(grids)
    return [(p, StateVector(m, k, g.reshape(-1)), ProbDist(q)) for p, g, q in zip(periods, grids, probs)]


def _order_rows(n: int) -> list[tuple]:
    _at_most("--N", n, _MAX_ORDERS_N)
    # factor_semiprime(n).n is n, once n is known to be an odd distinct-prime semiprime
    return [(rec.a, rec.r) for rec in coprime_order_table(factor_semiprime(n).n)]


def _allowed_rows(max_n: int) -> list[tuple]:
    _at_most("--max-N", max_n, _MAX_ALLOWED_N)
    rows = []
    for n in range(15, max_n + 1, 2):
        try:
            sp = factor_semiprime(n)  # the one validation of n
        except ValueError:
            continue
        periods = ";".join(str(d) for d in sp.allowed_periods())
        rows.append((n, sp.p, sp.q, sp.carmichael(), periods))
    return rows


def _rho_rows(dists: _Dists) -> list[tuple]:
    _, state, _ = dists(3, 3)[3 - 1]  # periods count from 1
    rho = reduce_to_input(state)
    return [(r, c, z.real, z.imag) for r, row in enumerate(rho.entries.tolist()) for c, z in enumerate(row)]


# One description per ``tables`` kind, called with the kind's own options.
_KINDS: dict[str, Callable[..., Table]] = {
    "orders": lambda N: Table(f"orders_n{N}", ("a", "r"), 1, lambda _: _order_rows(N)),
    "allowed-periods": lambda max_N: Table(
        f"allowed_periods_max{max_N}", ("N", "p", "q", "lambda", "periods"), 1, lambda _: _allowed_rows(max_N)
    ),
    "probabilities": lambda m, k: Table(
        f"probabilities_m{m}k{k}", ("p", "k", "probability"), 2,
        lambda dists: [(p, i, v) for p, _, d in dists(m, k) for i, v in enumerate(d.probabilities.tolist())],
    ),
    "separability": lambda m, k: Table(
        f"separability_m{m}k{k}", ("p", "S"), 1,
        lambda dists: [(p, separability_index(d)) for p, _, d in dists(m, k)],
    ),
}

# Every bundled golden, with its ``diff-golden`` label.
_GOLDENS: tuple[tuple[str, Table], ...] = (
    ("orders N=21", _KINDS["orders"](21)),
    ("orders N=33", _KINDS["orders"](33)),
    ("allowed periods", _KINDS["allowed-periods"](90)),
    ("probabilities m=3 k=3", _KINDS["probabilities"](3, 3)),
    ("separability m=3 k=3", _KINDS["separability"](3, 3)),
    ("reduced density p=3", Table("rho_p3", ("row", "col", "re", "im"), 2, _rho_rows)),
)

_GOLDEN_DIR = Path(__file__).with_name("golden")


class _Golden(NamedTuple):
    """A golden CSV file, parsed once: row i is ``keys[i]``, ``values[i]``, ``tolerances[i]``.

    A key cell is an int when it is the canonical decimal of one, so it
    matches a computed int key, and its text otherwise, which matches none:
    ``02`` and `` 2`` are not ``2``. A value cell is a float when it reads
    as one and its text otherwise. A tolerance is a float, or None when its
    cell does not read as one. ``rows[i]`` is the row's cells as parsed, for
    a report to quote. ``malformed`` has one problem line for a missing header,
    or one per row whose cell count is not the header's, at the line the row
    starts on: such a file is reported by them alone.
    """

    header: list[str]
    malformed: tuple[str, ...]
    rows: list[list[str]]
    keys: tuple[tuple[int | str, ...], ...]
    values: tuple[tuple[float | str, ...], ...]
    tolerances: tuple[float | None, ...]


def _key_cell(cell: str) -> int | str:
    try:
        number = int(cell)
    except ValueError:
        return cell
    return number if str(number) == cell else cell


def _number(cell: str) -> float | None:
    """The cell as a finite float, or None: a nan value would match anything, an inf tolerance accept it."""
    try:
        number = float(cell)
    except ValueError:
        return None
    return number if math.isfinite(number) else None


@functools.cache
def _golden(directory, stem: str, key: int) -> _Golden:
    """``<directory>/<stem>.csv``, read and parsed once per process; a row's first ``key`` cells are its key.

    Golden files do not change while a process runs. Only the parsed golden
    outlives a call: every table is recomputed and compared on each call.
    """
    try:
        text = directory.joinpath(stem + ".csv").read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValueError(f"no bundled golden table {stem}") from None
    reader = csv.reader(io.StringIO(text, newline=""))  # the CSV line rule, which str.splitlines is not
    header = next(reader, [])
    # a quoted cell may span lines, so a row starts on the line after the one the row before it ends on
    rows, ends = [], [reader.line_num]
    for row in reader:
        rows.append(row)
        ends.append(reader.line_num)
    malformed = tuple(
        f"{stem} line {end + 1}: {len(row)} cells, header has {len(header)}"
        for end, row in zip(ends, rows)
        if len(row) != len(header)
    ) if header else (f"{stem} line 1: no header",)
    # each distinct value or tolerance text is read once, into one float that every row holding it shares
    numbers = {cell: _number(cell) for cell in {c for row in rows for c in row[key:-1] + row[-1:]}}
    return _Golden(
        header,
        malformed,
        rows,
        keys=tuple(tuple(map(_key_cell, row[:key])) for row in rows),
        values=tuple(tuple(c if numbers[c] is None else numbers[c] for c in row[key:-1]) for row in rows),
        tolerances=tuple(numbers[row[-1]] if row else None for row in rows),
    )


def _cell(value: object) -> object:
    return f"{value:.6f}" if isinstance(value, float) else value


def _named(names: tuple[str, ...], cells: Iterable[object]) -> str:
    # an unprintable text cell (a line break, say) is shown by its repr: a report stays one line
    return " ".join(
        f"{name}={c!r}" if isinstance(c, str) and not c.isprintable() else f"{name}={_cell(c)}"
        for name, c in zip(names, cells)
    )


def _diff(table: Table, dists: _Dists) -> list[str]:
    """Compare ``table`` with its golden, matching rows on their key columns.

    String cells must be equal and numeric cells agree within the row's
    tolerance. Reports golden rows that disagree or are missing, golden
    cells that should be numbers and are not, and extra computed rows.
    """
    key, names, stem = table.key, table.header, table.stem
    golden = _golden(_GOLDEN_DIR, stem, key)
    if golden.malformed:
        return list(golden.malformed)
    if golden.header != [*names, "tolerance"]:
        return [f"{stem}: golden columns {','.join(golden.header)}, expected {','.join(names)},tolerance"]
    computed = {tuple(row[:key]): row[key:] for row in table.rows(dists)}
    problems = []
    for name, want, tol, cells in zip(golden.keys, golden.values, golden.tolerances, golden.rows):
        got = computed.pop(name, None)
        if got is None:
            problems.append(f"{stem} {_named(names, name)}: golden row missing")
            continue
        if tol is None:
            problems.append(f"{stem} {_named(names, name)}: golden tolerance {cells[-1]!r} is not a number")
            continue
        tol += _TOL_SLACK
        for column, (w, g) in enumerate(zip(want, got), key):
            if isinstance(g, str):  # a text cell, compared as written
                bad = g != (w if isinstance(w, str) else cells[column])
            elif isinstance(w, str):
                problems.append(f"{stem} {_named(names, name)}: golden {names[column]} {w!r} is not a number")
                break
            else:
                bad = abs(g - w) > tol
            if bad:
                problems.append(
                    f"{stem} {_named(names, name)}: "
                    f"golden {_named(names[key:], cells[key:-1])}, computed {_named(names[key:], got)}"
                )
                break
    problems.extend(f"{stem} {_named(names, name)}: extra computed row" for name in computed)
    return problems


def _report(label: str, problems: list[str]) -> bool:
    print(f"{label}: {'ok' if not problems else 'FAIL'}")
    for msg in problems:
        print(f"  {msg}")
    return not problems


def _check_circuits() -> list[str]:
    problems = []
    for name in FIGURE_IDS:
        entry = library_entry(name)
        bad = verify(entry.circuit, entry.table)
        if bad:
            problems.append(f"{name}: {len(bad)} mismatching rows, first at x={bad[0].x}")
        report = cost(entry.circuit)
        if (report.n_toffoli, report.n_cnot) != (entry.caption_toffoli, entry.caption_cnot):
            problems.append(
                f"{name}: counts T={report.n_toffoli} CN={report.n_cnot}, "
                f"caption T={entry.caption_toffoli} CN={entry.caption_cnot}"
            )
    return problems


# Options every ``tables`` kind shares; the rest are the kind's parameters.
_TABLE_OPTIONS = ("command", "kind", "func", "format", "out")


def cmd_tables(args: argparse.Namespace) -> int:
    kind = args.kind
    params = {name: value for name, value in vars(args).items() if name not in _TABLE_OPTIONS}
    table = _KINDS[kind](**params)
    rows = [list(map(_cell, row)) for row in table.rows(_distributions)]
    if not args.out and args.format == "text":
        sys.stdout.write(_text_table(table.header, rows) + "\n")
        return EXIT_OK
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([table.header, *rows])
    texts = {"csv": buf.getvalue()}
    if args.out or args.format == "json":
        members = {"header": json.dumps(table.header), "rows": json.dumps(rows)}
        texts["json"] = _document("tables", {"kind": kind, **params}, None, "csv", texts["csv"], members)
    if not args.out:
        sys.stdout.write(texts[args.format])
        return EXIT_OK
    os.makedirs(args.out, exist_ok=True)
    for ext in ("csv", "json"):
        path = os.path.join(args.out, f"{table.stem}.{ext}")
        _write(path, texts[ext])
        print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------- circuit


def _load_circuit(args: argparse.Namespace) -> tuple[Circuit, TruthTable | None, str]:
    if args.id and args.file:
        raise ValueError("pass either --id or --file, not both")
    if args.id:
        entry = library_entry(args.id)
        circ, table, label = entry.circuit, entry.table, entry.name
    elif args.file:
        with open(args.file, encoding="utf-8") as fh:
            circ = circuit_from_json(fh.read())
        table, label = None, args.file
    else:
        raise ValueError("one of --id or --file is required")
    if args.table:
        with open(args.table, encoding="utf-8") as fh:
            table = TruthTable.from_json(fh.read())
    return circ, table, label


def cmd_circuit(args: argparse.Namespace) -> int:
    circ, table, label = _load_circuit(args)
    if args.action != "verify":
        if args.action == "show":
            print(f"{label}: width={circ.width} inputs={list(circ.input_lines)} outputs={list(circ.output_lines)}")
            print(render_gates(circ))
        print(_cost_line(cost(circ)))
        return EXIT_OK
    # verify
    if table is None:
        raise ValueError("verify needs a truth table; pass --id or --table")
    mismatches = verify(circ, table)
    if not mismatches:
        print(f"ok: {label} matches its table on all {len(table.rows)} rows")
        return EXIT_OK
    for mm in mismatches[:16]:
        print(f"mismatch at x={mm.x}: expected {mm.expected}, got {mm.got} (input after: {mm.input_after})")
    if len(mismatches) > 16:
        print(f"... {len(mismatches) - 16} more")
    print(f"FAIL: {len(mismatches)} of {len(table.rows)} rows differ")
    return EXIT_MISMATCH


# ---------------------------------------------------------------- synth


def cmd_synth(args: argparse.Namespace) -> int:
    a, n, strategy, n_in = args.a, args.n, args.compile, args.n_in
    if strategy == "full" and n_in is not None:
        raise ValueError("--n-in does not apply to --compile full, which picks its own input width")
    entry = find_entry(a, n, strategy)
    if n_in is None and entry is not None:
        n_in = entry.circuit.n_in
    compiled = full_compile(a, n) if strategy == "full" else compile_modexp(a, n, n_in, GKind(strategy))
    table = compiled.table

    circ = synthesize(table, allow_negative_controls=not args.no_negative_controls)
    report = cost(circ)

    comparison = None
    if entry is not None:
        library_qcost = cost(entry.circuit).quantum_cost
        comparison = {
            "library": entry.name,
            "library_qcost": library_qcost,
            "delta": report.quantum_cost - library_qcost,
        }

    if args.out or args.format == "json":
        # the circuit is encoded once: checksums.circuit hashes the very bytes printed
        circ_text = circuit_to_json(circ)
        members = {
            "level": json.dumps(compiled.level.value),
            "g": json.dumps(compiled.g.kind.value),
            "table": table.to_json(),
            "circuit": circ_text,
            "cost": json.dumps(report._asdict()),
        }
        if comparison:
            members["comparison"] = json.dumps(comparison)
        params = {"a": a, "N": n, "compile": strategy, "n_in": table.n_in}
        text = _document("synth", params, None, "circuit", circ_text, members)
        if not args.out:
            sys.stdout.write(text)
            return EXIT_OK
        _write(args.out, text)

    print(f"f(x) = {a}**x mod {n}, r={compiled.period}, level={compiled.level.value}, g={compiled.g.kind.value}")
    print(f"table: n_in={table.n_in} n_out={table.n_out} rows={list(table.rows)}")
    print(render_gates(circ))
    print(_cost_line(report))
    if comparison:
        if entry.table != table:
            print(f"note: bundled {comparison['library']} realizes a different table for this triple")
        print(
            f"library {comparison['library']}: qcost={comparison['library_qcost']} "
            f"delta={comparison['delta']:+d}"
        )
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------- simulate


def cmd_simulate(args: argparse.Namespace) -> int:
    m, k, p = args.m, args.k, args.p
    check_seed(args.seed)  # the manifest records it even when nothing is drawn
    if args.rho and m > _MAX_RHO_QUBITS:
        raise ValueError(f"--rho supports at most m={_MAX_RHO_QUBITS} input qubits, got m={m}")
    noise = NoiseParams(args.epsilon)
    state = qft_input(apply_period_map(uniform_input_state(m, k), p))
    clean = input_probabilities(state)
    s_theory = separability_index(clean)
    noisy = depolarize(clean, noise)
    s_pred = noisy_separability(s_theory, noise, m)
    floor = 1.0 / (1 << m)

    # the distributions stay arrays: JSON mode writes them with _json_floats, text mode with _cell;
    # every other member is an int, a finite float or None
    payload: dict = {
        "p": p,
        "m": m,
        "k": k,
        "epsilon": noise.epsilon,
        "theoretical": clean.probabilities,
        "noisy": noisy.probabilities,
        "s_theory": s_theory,
        "s_noisy_predicted": s_pred,
    }
    if args.shots:
        empirical = sample(noisy, args.shots, args.seed)
        s_obs = separability_index(empirical)
        payload["shots"] = args.shots
        payload["empirical"] = empirical.probabilities
        payload["s_observed"] = s_obs
        payload["epsilon_estimate"] = None
        if s_theory > floor + 1e-12:
            # a clamping warning becomes one plain stderr line on every call
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                payload["epsilon_estimate"] = estimate_epsilon(s_theory, s_obs, m)
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)
    rho = reduce_to_input(state) if args.rho else None

    if args.format == "json":
        # Each member is encoded once. Joined in sorted key order, the encodings
        # are json.dumps(payload, sort_keys=True), the bytes the checksum has
        # always hashed: rho, the one nested object, has its keys in sorted order.
        encoded = {
            key: _json_floats(value) if isinstance(value, np.ndarray) else _json_scalar(value)
            for key, value in payload.items()
        }
        if rho is not None:
            # each entry as its [re, im] pair
            entries = _json_floats(rho.entries.view(float).reshape(rho.dim, rho.dim, 2))
            encoded["rho"] = _object({"dim": _json_scalar(rho.dim), "entries": entries})
        params = {"p": p, "m": m, "k": k, "epsilon": noise.epsilon, "shots": args.shots}
        hashed = _object({key: encoded[key] for key in sorted(encoded)})
        sys.stdout.write(_document("simulate", params, args.seed, "payload", hashed, encoded))
        return EXIT_OK

    # text lines are formatted only here, so JSON mode never builds them
    lines = [f"p={p} m={m} k={k} epsilon={noise.epsilon}"]
    lines.append("theoretical: " + " ".join(map(_cell, clean.probabilities.tolist())))
    if noise.epsilon < 1.0:
        lines.append("noisy:       " + " ".join(map(_cell, noisy.probabilities.tolist())))
    lines.append(f"S_theory={s_theory:.6f} S_noisy_predicted={s_pred:.6f}")
    if args.shots:
        drawn = " ".join(map(_cell, empirical.probabilities.tolist()))
        lines.append(f"empirical:   {drawn}  (shots={args.shots} seed={args.seed})")
        lines.append(f"S_observed={s_obs:.6f}")
        est = payload["epsilon_estimate"]
        if est is None:
            lines.append("epsilon_estimate: n/a (separability already at the 1/2^m floor)")
        else:
            lines.append(f"epsilon_estimate={est:.6f}")
    if rho is not None:
        lines.append("reduced input density matrix:")
        for row in rho.entries.tolist():
            lines.append("  " + " ".join(f"{z.real:+.4f}{z.imag:+.4f}j" for z in row))
    print("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------- factor


def _factor_attempt(n: int, a: int, shots: int, seed: int) -> dict:
    run = order_finding_run(a, n, shots, seed)
    attempt: dict = {"a": a, "recovered_order": run.recovered_order, "m": run.m}
    if run.recovered_order is None:
        attempt["status"] = "order-not-recovered"
        return attempt
    try:
        outcome = shor_postprocess(n, a, run.recovered_order)
    except TrivialFactorError:
        attempt["status"] = "trivial-factor"
        return attempt
    attempt["status"] = outcome.status.value
    if outcome.status is PostProcessStatus.FACTORS:
        attempt["factors"] = list(outcome.factors)
    return attempt


def cmd_factor(args: argparse.Namespace) -> int:
    n = args.n
    text = args.format == "text"
    if n < 3 or n % 2 == 0:
        raise ValueError("N must be an odd integer >= 3")
    power = is_prime_power(n)
    if power and power[1] == 1:
        raise ValueError(f"N={n} is prime")
    if power:
        raise ValueError(f"N={n} is a prime power: {power[0]}**{power[1]}")
    check_draw(args.shots, args.seed)  # before the gcd shortcut, which draws nothing

    attempts = []
    factors = None
    if args.a is not None:
        if not 1 < args.a < n:
            raise ValueError(f"a={args.a} is outside the range 1 < a < N={n}")
        g = math.gcd(args.a, n)
        if g == 1:
            bases = [args.a]
        else:
            bases, factors = [], [g, n // g]
            if text:
                print(f"gcd({args.a}, {n}) = {g} already factors N")
    else:
        bases = (a for a in range(2, n - 1) if math.gcd(a, n) == 1)

    for idx, a in enumerate(bases):
        attempt = _factor_attempt(n, a, args.shots, args.seed + idx)
        attempts.append(attempt)
        order = attempt["recovered_order"]
        status = attempt["status"]
        if text:
            print(f"a={a}: shots={args.shots} M={1 << attempt['m']} recovered_order={order} status={status}")
        if status == PostProcessStatus.FACTORS.value:
            factors = attempt["factors"]
            break

    if not text:
        params = {"N": n, "a": args.a, "shots": args.shots}
        members = {"attempts": json.dumps(attempts), "factors": json.dumps(factors)}
        hashed = json.dumps(attempts, sort_keys=True)
        sys.stdout.write(_document("factor", params, args.seed, "payload", hashed, members))
    elif factors:
        print(f"factors: {factors[0]} {factors[1]}")
    else:
        print("no factors recovered")
    return EXIT_OK if factors else EXIT_MISMATCH


# ---------------------------------------------------------------- diff-golden


def cmd_diff_golden(args: argparse.Namespace) -> int:
    # The m=3 states are built once per call and shared by the probability,
    # separability and p=3 density checks; like every computed row they are
    # never kept across calls. Only the parsed golden files are, in _golden.
    dists = functools.cache(_distributions)
    passed = [_report(label, _diff(table, dists)) for label, table in _GOLDENS]
    passed.append(_report("figure circuits", _check_circuits()))
    return EXIT_OK if all(passed) else EXIT_MISMATCH


# ---------------------------------------------------------------- parser


class _Leaf(NamedTuple):
    """A leaf parser: its non-help actions in declared order, the same keyed by option string, its ``func``."""

    actions: tuple[argparse.Action, ...]
    options: dict[str, argparse.Action]
    func: Callable[[argparse.Namespace], int]


# The argv words that name each leaf, ``("synth",)`` or ``("tables", "orders")``; filled by build_parser.
_LEAVES: dict[tuple[str, ...], _Leaf] = {}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built below at import and shared by every call.

    Parsing reads it and never changes it; callers must not change it either.
    It also fills ``_LEAVES``, off which ``entrypoint`` reads a command's
    options; the whole parser reads argv only for help, the version and
    usage errors (see ``_parse``).
    """
    parser = argparse.ArgumentParser(prog="shorcompile", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    tables = sub.add_parser("tables", help="emit classical tables")
    tsub = tables.add_subparsers(dest="kind", required=True)
    t_orders = tsub.add_parser("orders", help="multiplicative orders of every coprime base")
    t_orders.add_argument("--N", type=int, required=True)
    t_allowed = tsub.add_parser("allowed-periods", help="divisor spectrum of lambda(N) per semiprime")
    t_allowed.add_argument("--max-N", type=int, default=90)
    t_prob = tsub.add_parser("probabilities", help="post-transform measurement distributions per period")
    t_sep = tsub.add_parser("separability", help="separability index per period")
    for t in (t_prob, t_sep):
        t.add_argument("--m", type=int, default=3)
        t.add_argument("--k", type=int, default=3)
    for t in (t_orders, t_allowed, t_prob, t_sep):
        t.add_argument("--format", choices=("text", "csv", "json"), default="text")
        t.add_argument("--out", help="directory to write <table>.csv and <table>.json into")
        t.set_defaults(func=cmd_tables)

    circ = sub.add_parser("circuit", help="inspect or check a reversible circuit")
    circ.add_argument("action", choices=("show", "verify", "cost"))
    circ.add_argument("--id", help="bundled circuit id, e.g. f4_21")
    circ.add_argument("--file", help="circuit JSON file")
    circ.add_argument("--table", help="truth table JSON file to verify against")
    circ.set_defaults(func=cmd_circuit)

    synth = sub.add_parser("synth", help="synthesize a circuit for a**x mod N")
    synth.add_argument("--a", type=int, required=True)
    synth.add_argument("--N", dest="n", type=int, required=True)
    synth.add_argument("--compile", choices=("none", "log", "affine", "rank", "full"), default="full")
    synth.add_argument(
        "--n-in", dest="n_in", type=int, help="input register width (defaults per strategy; not for --compile full)"
    )
    synth.add_argument("--no-negative-controls", action="store_true")
    synth.add_argument("--out", help="write the result document to this JSON file")
    synth.add_argument("--format", choices=("text", "json"), default="text")
    synth.set_defaults(func=cmd_synth)

    sim = sub.add_parser("simulate", help="simulate the two-register period-map state")
    sim.add_argument("--p", type=int, required=True, help="period of the wrapped map")
    sim.add_argument("--m", type=int, default=3)
    sim.add_argument("--k", type=int, default=3)
    sim.add_argument("--epsilon", type=float, default=1.0, help="coherent fraction; 1 = noiseless")
    sim.add_argument("--shots", type=int, default=0, help="0 reports the theoretical distribution only")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--rho", action="store_true", help="include the reduced input density matrix")
    sim.add_argument("--format", choices=("text", "json"), default="text")
    sim.set_defaults(func=cmd_simulate)

    fac = sub.add_parser("factor", help="factor an odd non-prime-power N by order finding")
    fac.add_argument("--N", dest="n", type=int, required=True)
    fac.add_argument("--a", type=int, help="base; omitted = scan all coprime bases")
    fac.add_argument("--shots", type=int, default=128)
    fac.add_argument("--seed", type=int, default=0)
    fac.add_argument("--format", choices=("text", "json"), default="text")
    fac.set_defaults(func=cmd_factor)

    diff = sub.add_parser("diff-golden", help="recompute all bundled tables and circuits and compare")
    diff.set_defaults(func=cmd_diff_golden)

    leaves = [((name,), leaf) for name, leaf in sub.choices.items() if leaf is not tables]
    for words, leaf in leaves + [(("tables", kind), leaf) for kind, leaf in tsub.choices.items()]:
        actions = tuple(action for action in leaf._actions if action.default is not argparse.SUPPRESS)
        options = {option: action for action in actions for option in action.option_strings}
        _LEAVES[words] = _Leaf(actions, options, leaf.get_default("func"))
    return parser


# Built at import so that it is allocated before the first command runs,
# not inside the first call's time or memory.
build_parser()


def _read(leaf: _Leaf, tokens: list[str]) -> dict | None:
    """``{dest: value or default}`` in ``leaf``'s declared order, read from ``tokens``, or None.

    An exact option string takes the next token, which must not start with
    ``-``, or for a flag (``nargs`` 0) sets its ``const``; a bare token fills
    the next positional. A value must convert with its action's ``type`` and
    be one of its ``choices``, and every required action must be seen. Any
    other token or outcome returns None.
    """
    positionals = [action for action in leaf.actions if not action.option_strings]
    values = {}
    tokens = iter(tokens)
    for token in tokens:
        action = leaf.options.get(token)
        if action is not None and action.nargs == 0:
            values[action.dest] = action.const
            continue
        if action is None and positionals and not token.startswith("-"):
            action, text = positionals.pop(0), token
        else:
            text = next(tokens, "-")  # a missing value reads as a refused one
        if action is None or text.startswith("-"):
            return None
        try:
            value = action.type(text) if action.type else text
        except (TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if any(action.required and action.dest not in values for action in leaf.actions):
        return None
    return {action.dest: values.get(action.dest, action.default) for action in leaf.actions}


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, read straight off ``_LEAVES`` where it can.

    argv's first word, or its first two for a ``tables`` kind, name a leaf,
    and ``_read`` reads the rest off that leaf's actions. The Namespace is
    the one the whole parser builds, in its order: ``command``, ``kind``,
    the leaf's values, ``func``. What ``_read`` does not read (an
    abbreviation, ``--opt=value``, ``--``, ``-h``, a value that starts with
    ``-``, an unknown option, a failed conversion or choice, a missing
    required option, a stray token), and argv that names no leaf, go to the
    whole parser, so help, the version and every usage error print what
    ``build_parser().parse_args(argv)`` prints.
    """
    words = tuple(argv[:1]) if tuple(argv[:1]) in _LEAVES else tuple(argv[:2])
    if (leaf := _LEAVES.get(words)) is not None and (values := _read(leaf, argv[len(words):])) is not None:
        args = argparse.Namespace(**dict(zip(("command", "kind"), words)))
        vars(args).update(values, func=leaf.func)  # one update, not a setattr per value
        return args
    return build_parser().parse_args(argv)


def entrypoint(argv: list[str] | None = None) -> int:
    """Run the command argv (by default ``sys.argv[1:]``) names and return its exit code.

    A command's options are read straight off its leaf's actions (see
    ``_parse``); argv in any other form goes to the whole parser, which
    prints help, the version and every usage error exactly as
    ``build_parser().parse_args(argv)`` does.
    """
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except SynthesisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SYNTHESIS
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(entrypoint())
