"""Golden bytes: every command in every format, compared byte for byte.

Each case runs ``zorbit.cli.main`` in-process with stdout captured and
checks the exit code against ``tests/golden/<case>.exit`` and the output
against ``tests/golden/<case>.<json|csv|txt>``.  The ``-h`` output of
``zorbit`` and of each command, rendered at ``COLUMNS=80``, is pinned in
``tests/golden/help_<command>.txt``.  Regenerate the files after
an intended output change with ``PYTHONPATH=src python tests/test_cli_golden.py``
and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import os
from pathlib import Path

import pytest

from zorbit.cli import main

GOLDEN = Path(__file__).with_name("golden")

CASES = {
    "orbit_worked": ("orbit", "123789", "--k", "137", "--p", "11"),
    "orbit_budget": ("orbit", "123789", "--k", "137", "--p", "11", "--max-steps", "2"),
    "orbit_zero": ("orbit", "0", "--k", "10", "--p", "5"),
    "check_k137_p11": ("check", "--k", "137", "--p", "11"),
    "check_k5_p3": ("check", "--k", "5", "--p", "3"),
    "check_k12_p5": ("check", "--k", "12", "--p", "5"),
    "census_k10_p5": ("census", "--k", "10", "--p", "5"),
    "census_k5_p3_n450": ("census", "--k", "5", "--p", "3", "--n-max", "450"),
    "verify1_pass": ("verify", "--theorem", "1", "--k", "137", "--p", "11", "--n-max", "500"),
    "verify1_counterexample": ("verify", "--theorem", "1", "--k", "9", "--p", "5", "--n-max", "100"),
    "verify1_precondition": ("verify", "--theorem", "1", "--k", "5", "--p", "3"),
    "verify2_k10_p5": ("verify", "--theorem", "2", "--k", "10", "--p", "5", "--n-max", "500"),
    "verify2_precondition": ("verify", "--theorem", "2", "--k", "4", "--p", "3"),
    "sweep_skipped": ("sweep", "--k-range", "2:9", "--p-range", "1:5", "--n-max", "200"),
    "sweep_error": (
        "sweep", "--k-range", "5:5", "--p-range", "4294967297:4294967297", "--n-max", "10"
    ),
}
FORMATS = {"json": "json", "csv": "csv", "text": "txt"}
HELP = {
    "help_zorbit": ("-h",),
    **{f"help_{cmd}": (cmd, "-h") for cmd in ("orbit", "check", "census", "verify", "sweep")},
}


def run_main(argv: list[str]) -> tuple[int, bytes]:
    with contextlib.redirect_stdout(io.StringIO()) as captured:
        try:
            code = main(argv)
        except SystemExit as exc:  # -h exits from inside argparse
            code = exc.code
    return code, captured.getvalue().encode()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", CASES)
def test_cli_golden_bytes(case, fmt, monkeypatch):
    monkeypatch.delenv("ZORBIT_MAX_STEPS", raising=False)
    code, out = run_main([*CASES[case], "--format", fmt])
    assert code == int((GOLDEN / f"{case}.exit").read_text())
    assert out == (GOLDEN / f"{case}.{FORMATS[fmt]}").read_bytes()


@pytest.mark.parametrize("case", HELP)
def test_cli_help_bytes(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out = run_main(list(HELP[case]))
    assert code == 0
    assert out == (GOLDEN / f"{case}.txt").read_bytes()


if __name__ == "__main__":
    os.environ.pop("ZORBIT_MAX_STEPS", None)
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in CASES.items():
        codes = set()
        for fmt, suffix in FORMATS.items():
            code, out = run_main([*argv, "--format", fmt])
            codes.add(code)
            (GOLDEN / f"{case}.{suffix}").write_bytes(out)
        (code,) = codes
        (GOLDEN / f"{case}.exit").write_text(f"{code}\n")
    os.environ["COLUMNS"] = "80"
    for case, argv in HELP.items():
        (GOLDEN / f"{case}.txt").write_bytes(run_main(list(argv))[1])
