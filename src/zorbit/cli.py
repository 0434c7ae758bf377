"""Command-line surface: orbits, condition checks, censuses, verifiers, sweeps.

Every invocation emits one output document on stdout (or to --out for
sweeps): a JSON envelope, a CSV flattening, or a human-readable text
rendering.  Output bytes are deterministic for identical arguments; the
optional --timestamps flag adds a wall clock outside the payload.

Each setting comes from its flag, else the --config file (ZORBIT_MAX_STEPS
for the step budget), else its default, always through the flag's own
parser.  Error messages on stderr clip long echoed input.

Exit codes: 0 pass (or Theorem 2's classification), 1 verification
failure, 2 usage/IO error or out of memory, 3 precondition (hypothesis
condition) failure, 130 interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

from .dynamics import (
    CycleCensus,
    SweepRow,
    THEOREM1_ERROR,
    THEOREM1_FAIL,
    classify_cycle,
    cycle_census,
    sweep,
    verify_theorem1,
    verify_theorem2,
)
from .errors import (
    BudgetExceededError,
    ParameterDomainError,
    PreconditionError,
    ZorbitError,
)
from .hypothesis import HypothesisReport, check_all
from .kadic import _join_blocks, to_digits
from .transform import DEFAULT_MAX_STEPS, OrbitTrace, Params, digit_step, orbit

SCHEMA_VERSION = "1"
ENV_MAX_STEPS = "ZORBIT_MAX_STEPS"
DEFAULT_N_MAX = 10_000
DEFAULT_FORMAT = "json"
_FORMATS = ("json", "csv", "text")
_FORMAT_CHOICES = "{" + ",".join(_FORMATS) + "}"

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3
EXIT_INTERRUPTED = 130  # the shell's 128 + SIGINT

STATUS_OK = "ok"
STATUS_VERIFICATION_FAILED = "verification_failed"
STATUS_PRECONDITION_FAILED = "precondition_failed"

CONFIG_KEYS = ("k", "p", "n_max", "format")


class UsageError(Exception):
    """Bad arguments, bad config, or an unwritable output destination."""


# ---------------------------------------------------------------------------
# argument plumbing


_CLIP = 200  # an ordinary path (about 150 characters) is echoed whole


def _clip(message: str) -> str:
    """Cut each run of over _CLIP non-blank characters to its head, then the
    message to 3 * _CLIP UTF-8 bytes (long input made of short runs)."""
    head = _CLIP // 4
    message = re.sub(
        rf"\S{{{_CLIP + 1},}}", lambda run: f"{run[0][:head]}...({len(run[0])} characters)", message
    )
    if len(message.encode()) <= 3 * _CLIP:
        return message
    return message.encode()[: 3 * _CLIP].decode(errors="ignore") + "..."


class _Parser(argparse.ArgumentParser):
    """Clips what argparse echoes of a bad argument; subparsers inherit it."""

    def error(self, message: str):
        super().error(_clip(message))


# A plain decimal text: ASCII digits, an optional sign, ASCII blanks around.
_PLAIN_DECIMAL = re.compile(r"\s*([+-]?)(\d+)\s*", re.ASCII)
_BLOCK_DIGITS = 300  # below the leaf size, where int() is still fast


def _int(text: str) -> int:
    """``int(text)``, with a plain ASCII decimal text read in blocks.

    ``int()`` of a decimal text is quadratic on CPython 3.11 (6-9 s at 10**6
    digits on x86-64); blocks of ``_BLOCK_DIGITS`` digits joined pairwise
    take about 1 s there.  Any other text, and every error, is ``int()``'s
    own; an orbit start in such a text is written back by ``str()``.
    """
    plain = _PLAIN_DECIMAL.fullmatch(text)
    if plain is None:
        try:
            return int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    sign, digits = plain.groups()
    ends = range(len(digits), 0, -_BLOCK_DIGITS)
    blocks = [int(digits[max(0, end - _BLOCK_DIGITS) : end]) for end in ends]
    value = _join_blocks(blocks, 10**_BLOCK_DIGITS)
    return -value if sign == "-" else value


def _int_at_least(text: str, low: int, requirement: str) -> int:
    value = _int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"{requirement}, got {text!r}")
    return value


def _start(text: str) -> tuple[int, str]:
    """A nonnegative orbit start and its echoed text: a plain decimal's own
    digits without blanks, sign or leading zeros, else ``str()`` of the value
    (quadratic, but through the shell such a text has at most 131 071 characters)."""
    value = _int_at_least(text, 0, "must be nonnegative")
    plain = _PLAIN_DECIMAL.fullmatch(text)
    return value, (plain[2].lstrip("0") or "0") if plain else str(value)


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1, "must be >= 1")


def _format(text: str) -> str:
    if text not in _FORMATS:
        raise argparse.ArgumentTypeError(f"expected one of {_FORMAT_CHOICES}, got {text!r}")
    return text


def _int_range(text: str) -> tuple[int, int]:
    lo_text, sep, hi_text = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    lo, hi = _int(lo_text), _int(hi_text)
    if lo > hi:
        raise argparse.ArgumentTypeError(f"range must satisfy LO <= HI, got {text!r}")
    return lo, hi


def _load_config(path: str) -> dict[str, str]:
    """Parse a flat key = value file (# comments, optional quotes, optional BOM)."""
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key = key.strip().lower().replace("-", "_")
        if key not in CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip().strip("\"'")
    return values


def _setting(args: argparse.Namespace, source, key: str, parse, default):
    """The flag whose dest is ``key`` if given, else ``source[key]``, else ``default``.

    ``source`` is the config file, or the environment for ``ENV_MAX_STEPS``
    (the dest of --max-steps); its text goes through the flag's type ``parse``.
    """
    value = getattr(args, key)
    if value is None and key in source:
        try:
            value = parse(source[key])
        except argparse.ArgumentTypeError as exc:
            where = f"config key {key}" if key in CONFIG_KEYS else key
            raise UsageError(f"{where}: {exc}") from None
    return default if value is None else value


def _params_from(args: argparse.Namespace, config: dict[str, str]) -> Params:
    k = _setting(args, config, "k", _int, None)
    p = _setting(args, config, "p", _int, None)
    if k is None or p is None:
        raise UsageError("--k and --p are required (directly or via --config)")
    return Params(k, p)


# ---------------------------------------------------------------------------
# one result per command, rendered once


_STATUS_BY_EXIT = {
    EXIT_OK: STATUS_OK,
    EXIT_VERIFICATION_FAILED: STATUS_VERIFICATION_FAILED,
    EXIT_PRECONDITION: STATUS_PRECONDITION_FAILED,
}


@dataclass
class _Result:
    """Everything a command found, ready for any of the three formats.

    ``payload`` goes into the JSON envelope, ``columns``/``rows`` form the
    CSV table (led by ``schema_version, command, status`` unless
    ``csv_prefix`` is off; rows are read from ``payload`` and each cell is
    spelled by ``_cell``), and ``lines`` are the text rendering.
    """

    code: int
    command: str
    params: dict
    payload: dict
    columns: list[str]
    rows: list[list]
    lines: list[str]
    csv_prefix: bool = True

    @property
    def status(self) -> str:
        return _STATUS_BY_EXIT[self.code]


def _render(result: _Result, fmt: str, timestamps: bool) -> str:
    if fmt == "json":
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "command": result.command,
            "params": result.params,
            "status": result.status,
            "payload": result.payload,
        }
        if timestamps:
            envelope["timestamp"] = datetime.now(timezone.utc).isoformat()
        return json.dumps(envelope, indent=2) + "\n"
    if fmt == "text":
        return "\n".join(result.lines) + "\n"
    columns, rows = result.columns, result.rows
    if result.csv_prefix:
        columns = ["schema_version", "command", "status", *columns]
        rows = [[SCHEMA_VERSION, result.command, result.status, *row] for row in rows]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_cell(value) for value in row] for row in rows)
    return buffer.getvalue()


def _cell(value) -> str:
    """The one spelling of a CSV cell (and of a boolean in text): ``true`` or
    ``false``, empty for None, a dict by its values, a list or tuple
    comma-joined, or semicolon-joined when its items are lists or dicts."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        nested = any(isinstance(item, (list, tuple, dict)) for item in value)
        return (";" if nested else ",").join(map(_cell, value))
    return str(value)


def _joined(values, sep: str) -> str:
    """A text rendering's cycle (or digit list), spelled ``a -> b`` or ``a, b``."""
    return sep.join(str(v) for v in values)


def _braced(values) -> str:
    """A cycle spelled as the set ``{a, b}``."""
    return "{" + _joined(values, ", ") + "}"


def _probe_output(out_path: str | None) -> None:
    """Fail before any work if ``out_path`` cannot be opened for writing.

    Appending changes no existing file, and a file the probe creates is removed.
    """
    if not out_path:
        return
    existed = os.path.lexists(out_path)
    try:
        open(out_path, "a", encoding="utf-8").close()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise UsageError(f"cannot write {out_path}: {exc}") from exc
    if not existed:
        os.remove(out_path)


def _write_output(doc: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="") as handle:
                handle.write(doc)
        except OSError as exc:
            raise UsageError(f"cannot write {out_path}: {exc}") from exc
    else:
        try:  # flushed here, so a full disk or closed pipe fails now, not at exit
            sys.stdout.write(doc)
            sys.stdout.flush()
        except OSError as exc:
            _discard_stdout()
            raise UsageError(f"cannot write stdout: {exc}") from exc


def _discard_stdout() -> None:
    """Point stdout's descriptor at devnull, so the bytes a failed write left
    in its buffer are not written again, and do not fail again, at exit."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # a stdout with no descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _hypothesis_payload(report: HypothesisReport) -> dict:
    return {
        "a_holds": report.a_holds,
        "b_holds": report.b_holds,
        "b_violations": list(report.b_violations),
        "c_holds": report.c_holds,
        "c_violations": [{"q": q, "clause": clause} for q, clause in report.c_violations],
        "satisfied": report.satisfied,
    }


def _orbit_payload(values, params: Params, trace: OrbitTrace | None, start=None) -> dict:
    """The steps through ``values`` and the cycle facts of ``trace``, each None
    when there is no trace (the step budget ran out).  Step 0's value is the
    start's own text ``start`` if given; every later value, at most
    m*(t+1)*(t+2) for an m-digit start, is cheap to write by ``str()``."""
    steps = []
    for index, value in enumerate(values):
        digits = list(to_digits(value, params.k))
        f_of = {d: digit_step(d, params.p) for d in set(digits)}  # at most k distinct digits
        steps.append(
            {
                "step": index,
                "value": str(value) if index or start is None else start,
                "digits": digits,
                "f_values": [f_of[d] for d in digits],
            }
        )
    return {
        "trace": steps,
        "preperiod_length": None if trace is None else trace.preperiod_length,
        "cycle_length": None if trace is None else trace.cycle_length,
        "cycle": None if trace is None else [str(v) for v in trace.cycle],
    }


def _cycles_payload(cycles) -> list[dict]:
    return [
        {
            "values": [str(v) for v in cycle.values],
            "length": cycle.length,
            "basin_size": cycle.basin_size,
            "degenerate": cycle.degenerate,
        }
        for cycle in cycles
    ]


def _census_payload(census: CycleCensus) -> dict:
    return {
        "absorbing_bound": str(census.absorbing_bound),
        "scanned_range": [str(census.scanned_range[0]), str(census.scanned_range[1])],
        "cycles": _cycles_payload(census.cycles),
    }


def _params_echo(params: Params) -> dict:
    return {"k": params.k, "p": params.p, "t": params.t, "s": params.s}


# ---------------------------------------------------------------------------
# orbit


def _cmd_orbit(args: argparse.Namespace, config: dict[str, str]) -> _Result:
    params = _params_from(args, config)
    max_steps = _setting(args, os.environ, ENV_MAX_STEPS, _positive_int, DEFAULT_MAX_STEPS)
    n, start = args.n
    try:
        trace = orbit(n, params, max_steps=max_steps)
    except BudgetExceededError as exc:
        payload = _orbit_payload(exc.partial, params, None, start)
    else:
        payload = _orbit_payload(trace.values, params, trace, start)
    steps, cycle = payload["trace"], payload["cycle"]
    echo = _params_echo(params)
    echo.update({"n": steps[0]["value"], "max_steps": max_steps})  # step 0 is n
    preperiod, cycle_len = payload["preperiod_length"], payload["cycle_length"]
    lines = [f"orbit n={steps[0]['value']} (k={params.k}, p={params.p})"]
    for step in steps:
        digits = "[" + _joined(step["digits"], ", ") + "]"
        f_values = "[" + _joined(step["f_values"], ", ") + "]"
        lines.append(f"  step {step['step']}: {step['value']}  digits={digits}  f={f_values}")
    if cycle is None:
        code = EXIT_VERIFICATION_FAILED
        payload["error"] = "budget_exceeded"
        lines.append(f"status: {STATUS_VERIFICATION_FAILED} (no repeat within budget)")
    else:
        code = EXIT_OK
        lines.append(f"preperiod length: {preperiod}")
        lines.append(f"cycle length: {cycle_len}")
        lines.append("cycle: " + _joined(cycle, " -> "))
        lines.append(f"status: {STATUS_OK}")
    rows = [[*step.values(), preperiod, cycle_len] for step in steps]
    columns = ["step", "value", "digits", "f_values", "preperiod_length", "cycle_length"]
    return _Result(code, "orbit", echo, payload, columns, rows, lines)


# ---------------------------------------------------------------------------
# check


def _cmd_check(args: argparse.Namespace, config: dict[str, str]) -> _Result:
    params = _params_from(args, config)
    report = check_all(params)
    payload = _hypothesis_payload(report)
    verdict = "satisfied" if report.satisfied else "not satisfied"
    b_wit = _joined(report.b_violations, ", ") or "-"
    c_wit = "; ".join(f"q={q} ({clause})" for q, clause in report.c_violations) or "-"
    lines = [
        f"check k={params.k} p={params.p}: {verdict}",
        f"  (a) holds: {_cell(report.a_holds)}",
        f"  (b) holds: {_cell(report.b_holds)}  violations: {b_wit}",
        f"  (c) holds: {_cell(report.c_holds)}  violations: {c_wit}",
    ]
    code = EXIT_OK if report.satisfied else EXIT_VERIFICATION_FAILED
    row = [params.k, params.p, *payload.values()]
    return _Result(code, "check", _params_echo(params), payload, ["k", "p", *payload], [row], lines)


# ---------------------------------------------------------------------------
# census


def _cmd_census(args: argparse.Namespace, config: dict[str, str]) -> _Result:
    params = _params_from(args, config)
    n_max = _setting(args, config, "n_max", _positive_int, None)
    census = cycle_census(params, extra_range=n_max)
    echo = _params_echo(params)
    echo["n_max"] = None if n_max is None else str(n_max)
    payload = _census_payload(census)
    lo, hi = payload["scanned_range"]
    columns = ["k", "p", "absorbing_bound", "scanned_lo", "scanned_hi"]
    columns += ["cycle", "length", "basin_size", "degenerate"]
    lead = [params.k, params.p, payload["absorbing_bound"], lo, hi]
    rows = [[*lead, *cycle.values()] for cycle in payload["cycles"]]
    lines = [
        f"census k={params.k} p={params.p}",
        f"  absorbing bound: {census.absorbing_bound}",
        f"  scanned range: [{lo}, {hi}]",
    ]
    for cycle in census.cycles:
        tag = "  (degenerate zero)" if cycle.degenerate else ""
        lines.append(
            f"  cycle length={cycle.length} basin={cycle.basin_size}: "
            f"{_joined(cycle.values, ' -> ')}{tag}"
        )
    return _Result(EXIT_OK, "census", echo, payload, columns, rows, lines)


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args: argparse.Namespace, config: dict[str, str]) -> _Result:
    params = _params_from(args, config)
    n_max = _setting(args, config, "n_max", _positive_int, DEFAULT_N_MAX)
    theorem = args.theorem
    echo = _params_echo(params)
    echo["theorem"] = theorem
    try:
        report = (verify_theorem1 if theorem == 1 else verify_theorem2)(params, n_max)
    except PreconditionError as exc:
        payload = {"failed_conditions": list(exc.failed), "detail": str(exc)}
        lines = [
            f"verify theorem {theorem} k={params.k} p={params.p}: precondition failed",
            f"  failed conditions: {', '.join(f'({c})' for c in exc.failed)}",
        ]
        columns = ["theorem", "k", "p", "failed_conditions"]
        rows = [[theorem, params.k, params.p, payload["failed_conditions"]]]
        return _Result(EXIT_PRECONDITION, "verify", echo, payload, columns, rows, lines)
    echo["n_max"] = str(n_max)
    payload = {"theorem": theorem, "n_max": str(n_max)}
    columns = ["theorem", "k", "p", "n_max"]
    lead = [theorem, params.k, params.p, payload["n_max"]]
    header = f"verify theorem {theorem} k={params.k} p={params.p} n_max={n_max}"
    if theorem == 1:
        trace = report.counterexample
        counter = None
        if trace is not None:
            counter = {"start": str(trace.values[0]), **_orbit_payload(trace.values, params, trace)}
        code = EXIT_OK if report.passed else EXIT_VERIFICATION_FAILED
        lines = [header + (": pass" if report.passed else ": FAIL")]
        payload["passed"] = report.passed
        payload["census"] = _census_payload(report.census)
        payload["counterexample"] = counter
        columns += ["passed", "counterexample_start"]
        rows = [[*lead, payload["passed"], None if counter is None else counter["start"]]]
        lines.append(
            "  positive cycles found: "
            + "; ".join(_braced(c.values) for c in report.census.cycles if not c.degenerate)
        )
        if counter is not None:
            lines.append(f"  counterexample start: {counter['start']}")
    else:  # a classification, no verdict: exit 0 as census does
        code = EXIT_OK
        lines = [header]
        payload["census"] = _census_payload(report.census)
        payload["classification"] = [
            {
                "cycle": [str(v) for v in cycle.values],
                "label": classify_cycle(cycle),
                "basin_size": cycle.basin_size,
            }
            for cycle in report.census.cycles
        ]
        columns += ["cycle", "label", "basin_size"]
        rows = [[*lead, *entry.values()] for entry in payload["classification"]]
        for entry in payload["classification"]:
            values = _joined(entry["cycle"], " -> ")
            lines.append(f"  {entry['label']}: {values} (basin {entry['basin_size']})")
    return _Result(code, "verify", echo, payload, columns, rows, lines)


# ---------------------------------------------------------------------------
# sweep

SWEEP_CSV_COLUMNS = [
    "k",
    "p",
    "hyp_a",
    "hyp_b",
    "hyp_c",
    "absorbing_bound",
    "num_cycles",
    "cycles",
    "theorem1_status",
    "max_transient",
]


def _sweep_row_payload(row: SweepRow) -> dict:
    return {
        "k": row.k,
        "p": row.p,
        "skip_reason": row.skip_reason,
        "hypothesis": None if row.hypothesis is None else _hypothesis_payload(row.hypothesis),
        "absorbing_bound": None if row.absorbing_bound is None else str(row.absorbing_bound),
        "num_cycles": None if row.skip_reason or row.error else row.num_cycles,
        "cycles": None if row.skip_reason or row.error else _cycles_payload(row.cycles),
        "theorem1_status": row.theorem1_status,
        "max_transient": row.max_transient,
        "error": row.error,
    }


def _cmd_sweep(args: argparse.Namespace, config: dict[str, str]) -> _Result:
    n_max = _setting(args, config, "n_max", _positive_int, DEFAULT_N_MAX)
    rows = sweep(args.k_range, args.p_range, n_max, jobs=args.jobs)
    # a cell that errored is as unverified as one that failed
    all_pass = not any(row.theorem1_status in (THEOREM1_FAIL, THEOREM1_ERROR) for row in rows)
    echo = {
        "k_range": f"{args.k_range[0]}:{args.k_range[1]}",
        "p_range": f"{args.p_range[0]}:{args.p_range[1]}",
        "n_max": str(n_max),
        "jobs": args.jobs,
    }
    payload = {"rows": [_sweep_row_payload(row) for row in rows]}
    table, lines = [], []
    for cell in payload["rows"]:
        hyp = cell["hypothesis"] or {}
        cycles = cell["cycles"]
        flat = {
            **cell,
            "hyp_a": hyp.get("a_holds"),
            "hyp_b": hyp.get("b_holds"),
            "hyp_c": hyp.get("c_holds"),
            "cycles": None if cycles is None else [cycle["values"] for cycle in cycles],
        }
        table.append([flat[column] for column in SWEEP_CSV_COLUMNS])
        head = f"k={cell['k']} p={cell['p']}: "
        skip, error = cell["skip_reason"], cell["error"]
        if skip or error:
            lines.append(head + (f"skipped ({skip})" if skip else f"error ({error})"))
            continue
        lines.append(
            f"{head}hyp(a={_cell(flat['hyp_a'])} b={_cell(flat['hyp_b'])} "
            f"c={_cell(flat['hyp_c'])}) bound={cell['absorbing_bound']} "
            f"cycles=[{'; '.join(map(_braced, flat['cycles']))}] "
            f"theorem1={cell['theorem1_status']} max_transient={cell['max_transient']}"
        )
    code = EXIT_OK if all_pass else EXIT_VERIFICATION_FAILED
    return _Result(code, "sweep", echo, payload, SWEEP_CSV_COLUMNS, table, lines, csv_prefix=False)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zorbit",
        description="Base-k digit-sum dynamics: orbits, cycle censuses, "
        "parameter condition checks, and exhaustive verification.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", metavar="FILE", help="key = value defaults for k, p, n-max, format"
    )
    common.add_argument(
        "--format",
        type=_format,
        metavar=_FORMAT_CHOICES,
        help=f"output format (default {DEFAULT_FORMAT})",
    )
    common.add_argument(
        "--timestamps", action="store_true", help="add a wall-clock timestamp outside the payload"
    )
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--k", type=_int, help="digit base (k >= 3)")
    pair.add_argument("--p", type=_int, help="digit modulus (p >= 2)")

    sub = parser.add_subparsers(metavar="COMMAND")
    commands = {}
    for name, handler, parents, summary in (
        ("orbit", _cmd_orbit, [common, pair], "trace the orbit of one value to its first repeat"),
        ("check", _cmd_check, [common, pair], "evaluate parameter conditions (a), (b), (c)"),
        ("census", _cmd_census, [common, pair], "enumerate all cycles with basin sizes"),
        ("verify", _cmd_verify, [common, pair], "decide Theorem 1; Theorem 2 classifies cycles"),
        ("sweep", _cmd_sweep, [common], "evaluate a grid of (k, p) cells"),
    ):
        commands[name] = sub.add_parser(name, parents=parents, help=summary)
        commands[name].set_defaults(handler=handler)

    commands["orbit"].add_argument(
        "n",
        type=_start,
        help="starting value (nonnegative decimal, up to 131 071 characters on Linux)",
    )
    commands["orbit"].add_argument(
        "--max-steps",
        dest=ENV_MAX_STEPS,
        metavar="MAX_STEPS",
        type=_positive_int,
        help=f"iteration budget (default {DEFAULT_MAX_STEPS}; env {ENV_MAX_STEPS})",
    )
    commands["verify"].add_argument(
        "--theorem", type=_int, choices=(1, 2), required=True, help="which verifier to run"
    )
    sweep_parser = commands["sweep"]
    sweep_parser.add_argument("--k-range", type=_int_range, required=True, metavar="LO:HI")
    sweep_parser.add_argument("--p-range", type=_int_range, required=True, metavar="LO:HI")
    for name, n_max_help in (
        ("census", "widen basin attribution to [0, n-max]"),
        ("verify", f"widen basin counts to [0, n-max] (default {DEFAULT_N_MAX})"),
        ("sweep", f"starting range per cell (default {DEFAULT_N_MAX})"),
    ):
        commands[name].add_argument("--n-max", type=_positive_int, help=n_max_help)

    sweep_parser.add_argument("--out", metavar="FILE", help="write the output document to FILE")
    sweep_parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="parallel worker count (CSV/text bytes do not depend on it; JSON echoes it)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.

    Starts of any size are accepted, so the interpreter's cap on the digits
    of int/str conversions is lifted for the call and restored after it.
    """
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(saved)


def _main(argv: list[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        config = _load_config(args.config) if args.config else {}
        fmt = _setting(args, config, "format", _format, DEFAULT_FORMAT)
        out_path = getattr(args, "out", None)
        _probe_output(out_path)
        result = args.handler(args, config)
        _write_output(_render(result, fmt, args.timestamps), out_path)
        return result.code
    except (UsageError, ParameterDomainError) as exc:
        code, message = EXIT_USAGE, f"error: {exc}"
    except ZorbitError as exc:
        code, message = EXIT_VERIFICATION_FAILED, f"error: {exc}"
    except MemoryError:
        code, message = EXIT_USAGE, "error: out of memory"
    except KeyboardInterrupt:
        code, message = EXIT_INTERRUPTED, "interrupted"
    print(_clip(f"zorbit: {message}"), file=sys.stderr)
    return code


def run() -> None:
    """Entry point of the ``zorbit`` console script and ``python -m zorbit``."""
    sys.exit(main())
