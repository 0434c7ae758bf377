"""End-to-end CLI contract: exit codes, formats, determinism, config, env."""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import random
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zorbit import cli

from oracles import z_by_digit_sum


def run_cli(*argv: str, env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    merged = os.environ.copy()
    merged.pop("ZORBIT_MAX_STEPS", None)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "zorbit", *argv],
        capture_output=True,
        text=True,
        env=merged,
    )


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


# -- orbit -------------------------------------------------------------------


def test_orbit_json_worked_example():
    result = run_cli("orbit", "123789", "--k", "137", "--p", "11", "--format", "json")
    assert result.returncode == 0
    envelope = json.loads(result.stdout)
    assert envelope["schema_version"] == "1"
    assert envelope["command"] == "orbit"
    assert envelope["status"] == "ok"
    payload = envelope["payload"]
    assert [step["value"] for step in payload["trace"]] == ["123789", "81", "8", "1", "2", "1"]
    assert payload["trace"][0]["digits"] == [78, 81, 6]
    assert payload["trace"][0]["f_values"] == [72, 8, 1]
    assert payload["preperiod_length"] == 3
    assert payload["cycle_length"] == 2
    assert payload["cycle"] == ["1", "2"]


def test_orbit_text_renders_descent():
    result = run_cli("orbit", "123789", "--k", "137", "--p", "11", "--format", "text")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0].startswith("orbit n=123789")
    assert sum(1 for line in lines if line.startswith("  step ")) == 6
    assert "preperiod length: 3" in result.stdout
    assert "cycle length: 2" in result.stdout


def test_orbit_zero_fixed_value():
    result = run_cli("orbit", "0", "--k", "10", "--p", "5")
    assert result.returncode == 0
    payload = json.loads(result.stdout)["payload"]
    assert [step["value"] for step in payload["trace"]] == ["0", "0"]
    assert payload["cycle_length"] == 1


def test_orbit_terminates_in_census_cycle_example2():
    result = run_cli("orbit", "9827", "--k", "5", "--p", "3", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)["payload"]
    assert payload["cycle"] == ["4", "6"]


def test_orbit_budget_exceeded_exit_1_with_partial_trace():
    result = run_cli("orbit", "123789", "--k", "137", "--p", "11", "--max-steps", "2")
    assert result.returncode == 1
    envelope = json.loads(result.stdout)
    assert envelope["status"] == "verification_failed"
    payload = envelope["payload"]
    assert payload["error"] == "budget_exceeded"
    assert [step["value"] for step in payload["trace"]] == ["123789", "81", "8"]
    assert payload["preperiod_length"] is None


def test_orbit_env_budget_and_flag_override():
    failing = run_cli(
        "orbit", "123789", "--k", "137", "--p", "11", env={"ZORBIT_MAX_STEPS": "1"}
    )
    assert failing.returncode == 1
    overridden = run_cli(
        "orbit",
        "123789",
        "--k",
        "137",
        "--p",
        "11",
        "--max-steps",
        "100",
        env={"ZORBIT_MAX_STEPS": "1"},
    )
    assert overridden.returncode == 0
    bad_env = run_cli("orbit", "5", "--k", "5", "--p", "3", env={"ZORBIT_MAX_STEPS": "nope"})
    assert bad_env.returncode == 2


def test_orbit_csv_matches_json_facts():
    json_run = run_cli("orbit", "9827", "--k", "5", "--p", "3", "--format", "json")
    csv_run = run_cli("orbit", "9827", "--k", "5", "--p", "3", "--format", "csv")
    payload = json.loads(json_run.stdout)["payload"]
    rows = parse_csv(csv_run.stdout)
    assert len(rows) == len(payload["trace"])
    for row, step in zip(rows, payload["trace"]):
        assert row["schema_version"] == "1"
        assert row["command"] == "orbit"
        assert row["status"] == "ok"
        assert row["value"] == step["value"]
        digits = [int(x) for x in row["digits"].split(",")] if row["digits"] else []
        assert digits == step["digits"]
        f_values = [int(x) for x in row["f_values"].split(",")] if row["f_values"] else []
        assert f_values == step["f_values"]
        assert int(row["preperiod_length"]) == payload["preperiod_length"]
        assert int(row["cycle_length"]) == payload["cycle_length"]


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_orbit_huge_start_every_format(fmt):
    # 10**4 decimal digits is past the interpreter's default int/str limit
    start = "7" * 10_000
    result = run_cli("orbit", start, "--k", "137", "--p", "11", "--format", fmt)
    assert result.returncode == 0, result.stderr[:300]
    if fmt == "json":
        payload = json.loads(result.stdout)["payload"]
        assert payload["trace"][0]["value"] == start
        assert payload["cycle"] == ["1", "2"]
    elif fmt == "csv":
        rows = parse_csv(result.stdout)
        assert rows[0]["value"] == start
        assert rows[-1]["value"] in ("1", "2")
    else:
        assert result.stdout.startswith(f"orbit n={start} (k=137, p=11)\n")
        assert "\ncycle: 1 -> 2\n" in result.stdout


def test_orbit_hundred_thousand_digit_start_json():
    rng = random.Random(100_000)
    body = [rng.choice("0123456789") for _ in range(99_999)]
    body[40_000:45_000] = "0" * 5_000  # a long zero run inside the start
    start = "7" + "".join(body)
    result = run_cli("orbit", start, "--k", "10", "--p", "5", "--format", "json")
    assert result.returncode == 0, result.stderr[:300]
    trace = json.loads(result.stdout)["payload"]["trace"]
    assert trace[0]["value"] == start
    assert trace[0]["digits"] == [int(c) for c in reversed(start)]
    # The digit 0 maps to 0, so z is the sum of the oracle over single digits.
    assert trace[1]["value"] == str(sum(z_by_digit_sum(int(c), 10, 5) for c in start))


# Blocks of the parse hold 300 digits.
TEXT_LENGTHS = [1, 255, 256, 257, 299, 300, 301, 308, 309, 310, 511, 512, 513]
TEXT_LENGTHS += [599, 600, 601, 767, 768, 769, 1023, 1024, 1025, 2048, 2049, 4096, 4300]


@st.composite
def decimal_texts(draw) -> str:
    """Digit texts without a sign: random, mostly zeros, or 10**e + {-1, 0, 1}."""
    length = draw(st.sampled_from(TEXT_LENGTHS))
    kind = draw(st.sampled_from(["random", "zero runs", "near power"]))
    if kind == "near power":
        return str(max(0, 10 ** (length - 1) + draw(st.sampled_from([-1, 0, 1]))))
    if kind == "random":
        rng = random.Random(draw(st.integers(0, 2**32)))
        return "".join(rng.choices("0123456789", k=length))
    digits = ["0"] * length  # whole blocks of zeros between few nonzero digits
    for place in draw(st.lists(st.integers(0, length - 1), max_size=3)):
        digits[place] = draw(st.sampled_from("123456789"))
    return "".join(digits)


@given(
    decimal_texts(),
    st.sampled_from(["", "+", "-"]),
    st.sampled_from(["", " ", "\t\n", "\f \r\v"]),
    st.sampled_from(["", " ", "\n"]),
)
@example("0" * 4_300, "-", "", "")
@example("0" * 299 + "1", "+", " ", " ")
@settings(max_examples=300, deadline=None)
def test_long_decimal_text_is_read_as_int_reads_it(text, sign, before, after):
    text = before + sign + text + after
    assert cli._int(text) == int(text)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("1_000_" * 200 + "1", id="underscores"),
        pytest.param("\u0661\u0662\u0663" * 200, id="arabic-indic-digits"),
        pytest.param("\uff17" * 400, id="full-width-digits"),
        pytest.param("\u2003" + "7" * 400 + "\u00a0", id="non-ascii-blanks"),
        pytest.param("  -" + "0" * 350 + "42\n", id="leading-zeros"),
        pytest.param("7" * 300, id="one-block"),
    ],
)
def test_other_integer_texts_keep_the_value_of_int(text):
    assert cli._int(text) == int(text)


@pytest.mark.parametrize(
    "text",
    [
        *["", "12a", "1__0", "-", "+-1", " "],
        pytest.param("7" * 400 + "a", id="long-then-letter"),
        pytest.param("1" * 400 + "_", id="long-then-underscore"),
        pytest.param("--" + "7" * 400, id="long-two-signs"),
    ],
)
def test_texts_int_rejects_keep_their_error(text, capsys):
    with pytest.raises(ValueError):
        int(text)
    with pytest.raises(argparse.ArgumentTypeError) as caught:
        cli._int(text)
    assert str(caught.value) == f"expected an integer, got {text!r}"
    with pytest.raises(SystemExit) as stopped:
        cli.main(["orbit", "--k", "10", "--p", "5", "--", text])
    assert stopped.value.code == 2
    message = cli._clip(f"argument n: expected an integer, got {text!r}")
    assert f"zorbit orbit: error: {message}\n" in capsys.readouterr().err


def test_main_in_process_accepts_long_start_and_restores_digit_limit():
    # main itself lifts the int/str digit cap, not only the console script
    start = "7" * 5_000
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4_300)
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = cli.main(["orbit", start, "--k", "10", "--p", "5", "--format", "json"])
            except SystemExit as exc:  # argparse rejects the start when the cap holds
                code = exc.code
        assert sys.get_int_max_str_digits() == 4_300
    finally:
        sys.set_int_max_str_digits(saved)
    assert code == 0
    assert json.loads(stdout.getvalue())["payload"]["trace"][0]["value"] == start


@pytest.mark.parametrize(
    "start, extra, echoed",
    [
        (" +000123789 ", [], "123789"),
        ("-0", [], "0"),
        ("1_000", [], "1000"),
        ("99", ["--max-steps", "1"], "99"),  # the trace that ran out of budget
    ],
)
def test_orbit_echoes_the_start_as_its_decimal_digits(capsys, start, extra, echoed):
    argv = ["orbit", start, "--k", "137", "--p", "11", *extra]
    code = cli.main([*argv, "--format", "json"])
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["params"]["n"] == envelope["payload"]["trace"][0]["value"] == echoed
    assert cli.main([*argv, "--format", "text"]) == code
    header, step0 = capsys.readouterr().out.splitlines()[:2]
    assert header == f"orbit n={echoed} (k=137, p=11)"
    assert step0.startswith(f"  step 0: {echoed}  digits=")


# -- check -------------------------------------------------------------------


def test_check_pass_exit_0():
    result = run_cli("check", "--k", "137", "--p", "11")
    assert result.returncode == 0
    payload = json.loads(result.stdout)["payload"]
    assert payload["satisfied"] is True


def test_check_fail_b_exit_1():
    result = run_cli("check", "--k", "5", "--p", "3")
    assert result.returncode == 1
    envelope = json.loads(result.stdout)
    assert envelope["status"] == "verification_failed"
    assert envelope["payload"]["b_violations"] == [0]


def test_check_fail_c_exit_1():
    result = run_cli("check", "--k", "10", "--p", "5")
    assert result.returncode == 1
    payload = json.loads(result.stdout)["payload"]
    assert payload["c_violations"] == [{"q": 3, "clause": "congruence"}]


def test_check_csv_matches_json_facts():
    json_run = run_cli("check", "--k", "5", "--p", "3", "--format", "json")
    csv_run = run_cli("check", "--k", "5", "--p", "3", "--format", "csv")
    payload = json.loads(json_run.stdout)["payload"]
    (row,) = parse_csv(csv_run.stdout)
    assert row["status"] == "verification_failed"
    assert (row["a_holds"] == "true") == payload["a_holds"]
    assert (row["b_holds"] == "true") == payload["b_holds"]
    assert (row["c_holds"] == "true") == payload["c_holds"]
    assert [int(q) for q in row["b_violations"].split(",") if q] == payload["b_violations"]
    pairs = [item.split(",") for item in row["c_violations"].split(";") if item]
    assert [{"q": int(q), "clause": clause} for q, clause in pairs] == payload["c_violations"]


# -- census ------------------------------------------------------------------


def test_census_k10_p5_payload():
    result = run_cli("census", "--k", "10", "--p", "5")
    assert result.returncode == 0
    payload = json.loads(result.stdout)["payload"]
    assert payload["absorbing_bound"] == "12"
    values = [cycle["values"] for cycle in payload["cycles"]]
    assert values == [["0"], ["1", "2"], ["6"]]
    assert payload["cycles"][0]["degenerate"] is True


def test_census_k5_p3_payload():
    result = run_cli("census", "--k", "5", "--p", "3")
    payload = json.loads(result.stdout)["payload"]
    assert [cycle["values"] for cycle in payload["cycles"]] == [["0"], ["1", "2"], ["4", "6"]]


def test_census_k137_p11_payload():
    result = run_cli("census", "--k", "137", "--p", "11")
    payload = json.loads(result.stdout)["payload"]
    assert [cycle["values"] for cycle in payload["cycles"]] == [["0"], ["1", "2"]]


def test_census_csv_matches_json_facts():
    json_run = run_cli("census", "--k", "5", "--p", "3", "--format", "json")
    csv_run = run_cli("census", "--k", "5", "--p", "3", "--format", "csv")
    payload = json.loads(json_run.stdout)["payload"]
    rows = parse_csv(csv_run.stdout)
    assert len(rows) == len(payload["cycles"])
    for row, cycle in zip(rows, payload["cycles"]):
        assert row["absorbing_bound"] == payload["absorbing_bound"]
        assert row["cycle"].split(",") == cycle["values"]
        assert int(row["length"]) == cycle["length"]
        assert int(row["basin_size"]) == cycle["basin_size"]
        assert (row["degenerate"] == "true") == cycle["degenerate"]


# -- verify ------------------------------------------------------------------


def test_verify_theorem1_pass_exit_0():
    result = run_cli("verify", "--theorem", "1", "--k", "137", "--p", "11", "--n-max", "20000")
    assert result.returncode == 0
    payload = json.loads(result.stdout)["payload"]
    assert payload["passed"] is True
    assert payload["counterexample"] is None


def test_verify_theorem1_precondition_exit_3():
    result = run_cli("verify", "--theorem", "1", "--k", "5", "--p", "3")
    assert result.returncode == 3
    envelope = json.loads(result.stdout)
    assert envelope["status"] == "precondition_failed"
    assert "b" in envelope["payload"]["failed_conditions"]


def test_verify_theorem2_classification_exit_0():
    result = run_cli("verify", "--theorem", "2", "--k", "10", "--p", "5", "--n-max", "8512")
    assert result.returncode == 0
    envelope = json.loads(result.stdout)
    assert envelope["status"] == "ok"
    payload = envelope["payload"]
    assert set(payload) == {"theorem", "n_max", "census", "classification"}
    labels = {tuple(entry["cycle"]): entry["label"] for entry in payload["classification"]}
    assert labels[("1", "2")] == "universal_2cycle"
    assert labels[("6",)] == "fixed_point"


def test_verify_theorem2_precondition_exit_3():
    result = run_cli("verify", "--theorem", "2", "--k", "100", "--p", "3")
    assert result.returncode == 3
    envelope = json.loads(result.stdout)
    assert envelope["payload"]["failed_conditions"] == ["a"]


def test_verify_theorem1_genuine_failure_exit_1():
    # k=9, p=5 passes all three conditions yet hosts the fixed point 6
    # (the digit 6 = 1*5 + 1 maps to 2*3 = 6), so verification honestly fails
    result = run_cli("verify", "--theorem", "1", "--k", "9", "--p", "5", "--n-max", "1000")
    assert result.returncode == 1
    envelope = json.loads(result.stdout)
    assert envelope["status"] == "verification_failed"
    counter = envelope["payload"]["counterexample"]
    assert counter["start"] == "6"
    assert counter["cycle"] == ["6"]


# theorem, k, p and the status each run must end with
VERIFY_RUNS = {
    "theorem 1 pass": ("1", "137", "11", "ok"),
    "theorem 1 counterexample": ("1", "9", "5", "verification_failed"),
    "theorem 2": ("2", "10", "5", "ok"),
    "precondition failure": ("1", "5", "3", "precondition_failed"),
}


@pytest.mark.parametrize("run", sorted(VERIFY_RUNS))
def test_verify_csv_matches_json_facts(run):
    theorem, k, p, status = VERIFY_RUNS[run]
    argv = ["verify", "--theorem", theorem, "--k", k, "--p", p, "--n-max", "300"]
    envelope = json.loads(run_cli(*argv).stdout)
    rows = parse_csv(run_cli(*argv, "--format", "csv").stdout)
    assert envelope["status"] == status
    payload = envelope["payload"]
    lead = {"schema_version": "1", "command": "verify", "status": status}
    lead.update(theorem=theorem, k=k, p=p)
    if status == "precondition_failed":
        expected = [{**lead, "failed_conditions": ",".join(payload["failed_conditions"])}]
    elif theorem == "1":
        counter = payload["counterexample"]
        expected = [
            {
                **lead,
                "n_max": payload["n_max"],
                "passed": "true" if payload["passed"] else "false",
                "counterexample_start": "" if counter is None else counter["start"],
            }
        ]
    else:
        expected = [
            {
                **lead,
                "n_max": payload["n_max"],
                "cycle": ",".join(entry["cycle"]),
                "label": entry["label"],
                "basin_size": str(entry["basin_size"]),
            }
            for entry in payload["classification"]
        ]
    assert [list(row.items()) for row in rows] == [list(row.items()) for row in expected]


# -- sweep -------------------------------------------------------------------


def test_sweep_csv_pinned_columns_and_content():
    result = run_cli(
        "sweep", "--k-range", "5:12", "--p-range", "3:5", "--n-max", "10000", "--format", "csv"
    )
    rows = parse_csv(result.stdout)
    assert list(rows[0].keys()) == [
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
    assert len(rows) == 8 * 3
    by_cell = {(int(r["k"]), int(r["p"])): r for r in rows}
    assert by_cell[(5, 3)]["cycles"] == "0;1,2;4,6"
    assert by_cell[(10, 5)]["cycles"] == "0;1,2;6"
    assert by_cell[(10, 5)]["theorem1_status"] == "not_checked"


def test_sweep_single_cell_reproduces_check_and_census():
    sweep_run = run_cli(
        "sweep", "--k-range", "137:137", "--p-range", "11:11", "--format", "json"
    )
    assert sweep_run.returncode == 0
    row = json.loads(sweep_run.stdout)["payload"]["rows"][0]
    assert row["theorem1_status"] == "pass"

    check_payload = json.loads(run_cli("check", "--k", "137", "--p", "11").stdout)["payload"]
    assert row["hypothesis"] == check_payload

    census_payload = json.loads(
        run_cli("census", "--k", "137", "--p", "11", "--n-max", "10000").stdout
    )["payload"]
    assert row["absorbing_bound"] == census_payload["absorbing_bound"]
    assert row["cycles"] == census_payload["cycles"]


def test_sweep_exit_codes_follow_theorem1_verdicts():
    # no hypothesis-satisfying cell at all: exit 0
    clean = run_cli("sweep", "--k-range", "5:5", "--p-range", "3:3")
    assert clean.returncode == 0
    # (9, 5) satisfies the conditions but hosts the fixed point 6: exit 1
    failing = run_cli("sweep", "--k-range", "9:9", "--p-range", "5:5", "--n-max", "100")
    assert failing.returncode == 1
    row = json.loads(failing.stdout)["payload"]["rows"][0]
    assert row["hypothesis"]["satisfied"] is True
    assert row["theorem1_status"] == "fail"
    assert ["6"] in [c["values"] for c in row["cycles"]]
    # a cell that cannot be evaluated at all (p beyond 32 bits) is a failure too
    errored = run_cli(
        "sweep", "--k-range", "5:5", "--p-range", "4294967297:4294967297", "--n-max", "10"
    )
    assert errored.returncode == 1
    envelope = json.loads(errored.stdout)
    assert envelope["status"] == "verification_failed"
    assert envelope["payload"]["rows"][0]["theorem1_status"] == "error"


@pytest.mark.parametrize("fmt", ["csv", "text", "json"])
def test_sweep_bytes_identical_across_jobs(tmp_path, fmt):
    outputs = []
    for jobs in ("1", "8"):
        out = tmp_path / f"jobs{jobs}.{fmt}"
        result = run_cli(
            "sweep",
            "--k-range",
            "5:12",
            "--p-range",
            "3:5",
            "--n-max",
            "2000",
            "--format",
            fmt,
            "--jobs",
            jobs,
            "--out",
            str(out),
        )
        # the range contains genuinely failing cells, so the exit code reports 1;
        # determinism is about the bytes and the verdicts matching across jobs
        assert result.returncode == 1
        outputs.append(out.read_bytes())
    if fmt == "json":
        # the envelope echoes --jobs in params; everything else must match
        doc = json.loads(outputs[1])
        assert doc["params"]["jobs"] == 8
        doc["params"]["jobs"] = 1
        outputs[1] = (json.dumps(doc, indent=2) + "\n").encode()
    assert outputs[0] == outputs[1]


def test_sweep_json_csv_fact_projection():
    json_rows = json.loads(
        run_cli("sweep", "--k-range", "2:6", "--p-range", "1:3", "--n-max", "200").stdout
    )["payload"]["rows"]
    csv_rows = parse_csv(
        run_cli(
            "sweep", "--k-range", "2:6", "--p-range", "1:3", "--n-max", "200", "--format", "csv"
        ).stdout
    )
    assert len(json_rows) == len(csv_rows)
    for js, cs in zip(json_rows, csv_rows):
        assert int(cs["k"]) == js["k"] and int(cs["p"]) == js["p"]
        assert cs["theorem1_status"] == js["theorem1_status"]
        if js["skip_reason"] is not None:
            assert cs["hyp_a"] == "" and cs["cycles"] == ""
            assert cs["theorem1_status"] == "skipped"
            continue
        hyp = js["hypothesis"]
        assert (cs["hyp_a"] == "true") == hyp["a_holds"]
        assert (cs["hyp_b"] == "true") == hyp["b_holds"]
        assert (cs["hyp_c"] == "true") == hyp["c_holds"]
        assert cs["absorbing_bound"] == js["absorbing_bound"]
        assert int(cs["num_cycles"]) == js["num_cycles"]
        expected_cycles = ";".join(",".join(c["values"]) for c in js["cycles"])
        assert cs["cycles"] == expected_cycles
        assert int(cs["max_transient"]) == js["max_transient"]


def test_sweep_unwritable_out_exit_2(tmp_path):
    # an ordinary path of about 150 characters is echoed whole
    missing = tmp_path / "missing_dir"
    out = str(missing / ("r" * max(8, 149 - len(str(missing)))))
    result = run_cli("sweep", "--k-range", "5:5", "--p-range", "3:3", "--out", out)
    assert result.returncode == 2
    assert f"cannot write {out}:" in result.stderr


@pytest.mark.parametrize("where", ["missing-dir", "directory", "below-a-file", "nul-byte"])
def test_sweep_unwritable_out_fails_before_any_cell(tmp_path, monkeypatch, capsys, where):
    def never(*_, **__):
        raise AssertionError("the sweep ran before --out was checked")

    monkeypatch.setattr("zorbit.cli.sweep", never)
    (tmp_path / "file").write_text("kept\n")
    out = {
        "missing-dir": tmp_path / "missing" / "x.json",
        "directory": tmp_path,
        "below-a-file": tmp_path / "file" / "x.json",
        "nul-byte": tmp_path / "x\0.json",  # open raises ValueError, not OSError
    }[where]
    argv = ["sweep", "--k-range", "5:40", "--p-range", "3:8", "--n-max", "10000"]
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"zorbit: error: cannot write {tmp_path}")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["file"]
    assert (tmp_path / "file").read_text() == "kept\n"


def test_sweep_out_that_fails_after_its_probe_exits_2(tmp_path, monkeypatch, capsys):
    # the path becomes a directory while the cells run: the probe passed, the
    # write fails, and the error names the path
    out = tmp_path / "x.json"
    real_sweep = cli.sweep

    def sweep_then_take_the_path(*args, **kwargs):
        out.mkdir()
        return real_sweep(*args, **kwargs)

    monkeypatch.setattr("zorbit.cli.sweep", sweep_then_take_the_path)
    argv = ["sweep", "--k-range", "5:5", "--p-range", "3:3", "--out", str(out)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the errno and its text are the platform's
    assert captured.err.startswith(f"zorbit: error: cannot write {out}: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_unwritable_stdout_exits_2_with_one_line(capsys, monkeypatch, failing):
    # a full disk, seen by the write itself or only by the flush
    class FullStdout:
        def write(self, text):
            if failing == "write":
                raise OSError(28, "No space left on device")
            return len(text)

        def flush(self):
            if failing == "flush":
                raise OSError(28, "No space left on device")

    monkeypatch.setattr(sys, "stdout", FullStdout())
    assert cli.main(["check", "--k", "5", "--p", "3", "--format", "text"]) == 2
    expected = "zorbit: error: cannot write stdout: [Errno 28] No space left on device\n"
    assert capsys.readouterr().err == expected


def run_check_into(stdout, unbuffered: bool) -> subprocess.CompletedProcess:
    # buffered, the failed flush leaves its bytes in stdout's buffer, which
    # the interpreter would flush again, and fail again, at exit
    env = os.environ.copy()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "zorbit", "check", "--k", "5", "--p", "3", "--format", "text"]
    return subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, text=True, env=env)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="/dev/full is Linux's")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_stdout_on_a_full_device_exits_2_with_one_line(unbuffered):
    with open("/dev/full", "w") as full:
        result = run_check_into(full, unbuffered)
    assert result.returncode == 2
    expected = "zorbit: error: cannot write stdout: [Errno 28] No space left on device\n"
    assert result.stderr == expected


@pytest.mark.skipif(sys.platform == "win32", reason="EPIPE on a pipe with no reader is POSIX's")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_stdout_on_a_closed_pipe_exits_2_with_one_line(unbuffered):
    # the reader is gone before the process starts
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = run_check_into(write_end, unbuffered)
    finally:
        os.close(write_end)
    assert result.returncode == 2
    assert result.stderr == "zorbit: error: cannot write stdout: [Errno 32] Broken pipe\n"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS as Linux enforces it")
def test_census_past_the_address_space_limit_exits_2_with_one_line():
    # ulimit -v 1048576: the box of (100000, 3), B = 2.2e9 one-byte nodes, is
    # under the memory rule of a machine with more than about 2.2 GB, and its
    # first table allocation fails under the 1 GiB limit; on a smaller machine
    # the rule refuses it first, with the same line
    import resource

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    argv = [sys.executable, "-m", "zorbit", "census", "--k", "100000", "--p", "3"]
    result = subprocess.run(argv, capture_output=True, text=True, preexec_fn=limit_address_space)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "zorbit: error: out of memory\n"


# -- usage errors ------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("orbit", "5"),  # missing k and p
        ("orbit", "-5", "--k", "10", "--p", "5"),  # negative start
        ("orbit", "xyz", "--k", "10", "--p", "5"),  # non-numeric start
        ("check", "--k", "2", "--p", "5"),  # base below domain
        ("check", "--k", "10", "--p", "1"),  # modulus below domain
        ("check", "--k", "10", "--p", "5", "--format", "xml"),
        ("verify", "--k", "10", "--p", "5"),  # missing --theorem
        ("verify", "--theorem", "3", "--k", "10", "--p", "5"),
        ("sweep", "--k-range", "5", "--p-range", "3:3"),  # malformed range
        ("sweep", "--k-range", "9:5", "--p-range", "3:3"),  # inverted range
        ("sweep", "--p-range", "3:3"),  # missing k-range
        ("census", "--k", "10", "--p", "5", "--n-max", "0"),
        (),  # no command
    ],
)
def test_usage_errors_exit_2(argv):
    result = run_cli(*argv)
    assert result.returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("orbit", "x" * 6_000, "--k", "10", "--p", "5"),
        ("orbit", "-" + "7" * 6_000, "--k", "10", "--p", "5"),
        ("census", "--k", "10", "--p", "5", "--n-max", "-" + "7" * 6_000),
        ("sweep", "--k-range", "5" * 6_000, "--p-range", "3:3"),
        ("check", "--k", "x" * 6_000, "--p", "3"),
        ("check", "--k", "10", "--p", "x" * 6_000),
        ("orbit", "5", "--k", "5", "--p", "3", "--max-steps", "x" * 6_000),
        ("verify", "--theorem", "x" * 6_000, "--k", "10", "--p", "5"),
        ("check", "--k", "7" * 6_000, "--p", "3"),
        ("check", "--k", "10", "--p", "7" * 6_000),
        ("orbit", "5", "--k", "5", "--p", "3", "--max-steps", "-" + "7" * 6_000),
        ("verify", "--theorem", "7" * 6_000, "--k", "10", "--p", "5"),
        ("check", "--k", "5", "--p", "3", "--format", "x" * 6_000),
        ("check", "--k", "5", "--p", "3", "--config", "/tmp/" + "x" * 6_000),
    ],
)
def test_long_bad_arguments_are_clipped_in_errors(argv):
    result = run_cli(*argv)
    assert result.returncode == 2
    assert len(result.stderr.encode()) < 1_024, result.stderr[:300]


def test_long_bad_config_and_env_values_are_clipped_in_errors(tmp_path):
    long_value = tmp_path / "value.cfg"
    long_value.write_text("k = " + "x" * 6_000 + "\np = 3\n")
    long_key = tmp_path / "key.cfg"
    long_key.write_text("x" * 6_000 + " = 4\n")
    runs = [
        run_cli("check", "--config", str(long_value)),
        run_cli("check", "--k", "5", "--p", "3", "--config", str(long_key)),
        run_cli("orbit", "5", "--k", "5", "--p", "3", env={"ZORBIT_MAX_STEPS": "x" * 6_000}),
    ]
    for result in runs:
        assert result.returncode == 2
        assert len(result.stderr.encode()) < 1_024, result.stderr[:300]


def test_short_bad_arguments_are_echoed_whole():
    result = run_cli("orbit", "xyz", "--k", "10", "--p", "5")
    assert result.returncode == 2
    assert "expected an integer, got 'xyz'" in result.stderr


ARBITRARY_VALUE_ARGV = {
    "check --k": lambda text: ["check", "--k", text, "--p", "3"],
    "check --p": lambda text: ["check", "--k", "5", "--p", text],
    "check --format": lambda text: ["check", "--k", "5", "--p", "3", "--format", text],
    "orbit --max-steps": lambda text: ["orbit", "5", "--k", "5", "--p", "3", "--max-steps", text],
}


# Hypothesis rarely draws long text; repeating a short piece reaches the bound
ARBITRARY_TEXT = st.text(max_size=8_000) | st.builds(
    lambda piece, times: (piece * times)[:8_000],
    st.text(min_size=1, max_size=30),
    st.integers(1, 8_000),
)


@settings(max_examples=200, deadline=None)
@given(slot=st.sampled_from(sorted(ARBITRARY_VALUE_ARGV)), text=ARBITRARY_TEXT)
def test_arbitrary_values_answer_without_traceback(slot, text):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(ARBITRARY_VALUE_ARGV[slot](text))
        except SystemExit as exc:  # argparse exits on usage errors and -h
            code = exc.code
    assert code in (0, 1, 2)
    assert len(stderr.getvalue().encode()) < 1_024, stderr.getvalue()[:300]
    assert "Traceback" not in stderr.getvalue()


@settings(max_examples=200, deadline=None)
@given(content=st.binary(max_size=2_000))
@example(content=b"k = 10\n\xff = 5\n")  # not UTF-8
def test_arbitrary_config_bytes_answer_without_traceback(content):
    # one file per example: Hypothesis rejects the function-scoped tmp_path
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "zorbit.cfg")
        with open(path, "wb") as handle:
            handle.write(content)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(["check", "--config", path])
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2)
    assert len(stderr.getvalue().encode()) < 1_024, stderr.getvalue()[:300]
    assert "Traceback" not in stderr.getvalue()


@pytest.mark.parametrize(
    "raised, code, message",
    [
        (MemoryError, 2, "zorbit: error: out of memory\n"),
        (KeyboardInterrupt, 130, "zorbit: interrupted\n"),
    ],
    ids=["memory", "interrupt"],
)
def test_memory_error_and_interrupt_exit_codes(monkeypatch, capsys, raised, code, message):
    # in-process, with a handler that raises: no memory is really exhausted
    def handler(args, config):
        raise raised()

    monkeypatch.setattr(cli, "_cmd_check", handler)
    assert cli.main(["check", "--k", "5", "--p", "3"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_engine_fault_exits_1(monkeypatch, capsys):
    # a bound that is not absorbing: the census finds a step out of the box
    monkeypatch.setattr("zorbit.dynamics.absorbing_bound", lambda params: 100)
    assert cli.main(["census", "--k", "137", "--p", "11"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "zorbit: error: step left the certified box [0, 100] from 100\n"


@pytest.mark.parametrize("p", ["3", "2", "4294967296"])
def test_census_past_the_address_space_exits_2_at_once(monkeypatch, capsys, p):
    # B ~ 4.1e18 at p = 3, and B = 2**63 + 2**32, past PY_SSIZE_T_MAX, at
    # p = 2; at p = k, B = k - 1, so a 2**32-entry table and box, about
    # 107.4 GB, over an 8 GiB machine: the memory check fails before any
    # digit is mapped
    def never(*_):
        raise AssertionError("digit table built past the memory check")

    monkeypatch.setattr("zorbit.dynamics._MEMORY", 8 * 2**30)
    monkeypatch.setattr("zorbit.dynamics._digit_table", never)
    assert cli.main(["census", "--k", "4294967296", "--p", p]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "zorbit: error: out of memory\n"


# -- config file -------------------------------------------------------------


def test_config_supplies_defaults(tmp_path):
    config = tmp_path / "defaults.cfg"
    config.write_text("# defaults\nk = 137\np = 11\nformat = json\n")
    result = run_cli("check", "--config", str(config))
    assert result.returncode == 0
    envelope = json.loads(result.stdout)
    assert envelope["params"]["k"] == 137


def test_flags_override_config(tmp_path):
    config = tmp_path / "defaults.cfg"
    config.write_text("k = 137\np = 11\n")
    result = run_cli("check", "--config", str(config), "--k", "5", "--p", "3")
    assert result.returncode == 1
    assert json.loads(result.stdout)["params"]["k"] == 5


def test_config_n_max_applies(tmp_path):
    config = tmp_path / "defaults.cfg"
    config.write_text("n-max = 450\n")
    result = run_cli("census", "--k", "10", "--p", "5", "--config", str(config))
    payload = json.loads(result.stdout)["payload"]
    assert payload["scanned_range"] == ["0", "450"]


@pytest.mark.parametrize(
    "argv, config_text, env, name",
    [
        (("census", "--k", "10", "--p", "5"), "n-max = 0\n", {}, "config key n_max"),
        (("check", "--k", "5", "--p", "3"), "format = xml\n", {}, "config key format"),
        (("check",), "k = 1.5\np = 3\n", {}, "config key k"),
        (("orbit", "5", "--k", "5", "--p", "3"), None, {cli.ENV_MAX_STEPS: "0"}, cli.ENV_MAX_STEPS),
    ],
    ids=["n-max", "format", "k", "env-max-steps"],
)
def test_config_and_env_values_get_their_flags_check(tmp_path, argv, config_text, env, name):
    if config_text is not None:
        config = tmp_path / "defaults.cfg"
        config.write_text(config_text)
        argv = (*argv, "--config", str(config))
    result = run_cli(*argv, env=env)
    assert result.returncode == 2
    (line,) = result.stderr.splitlines()
    assert line.startswith("zorbit: error: ")
    assert name in line


def test_config_with_a_utf8_byte_order_mark(tmp_path):
    config = tmp_path / "bom.cfg"
    config.write_bytes(b"\xef\xbb\xbfk = 10\np = 5\n")
    result = run_cli("census", "--config", str(config))
    assert result.returncode == 0, result.stderr
    assert result.stdout == run_cli("census", "--k", "10", "--p", "5").stdout


def test_config_errors_exit_2(tmp_path):
    missing = run_cli("check", "--k", "5", "--p", "3", "--config", str(tmp_path / "nope.cfg"))
    assert missing.returncode == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 4\n")
    unknown = run_cli("check", "--k", "5", "--p", "3", "--config", str(bad))
    assert unknown.returncode == 2


# -- determinism and timestamps ----------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ("orbit", "123789", "--k", "137", "--p", "11"),
        ("check", "--k", "10", "--p", "5"),
        ("census", "--k", "5", "--p", "3", "--format", "csv"),
        ("verify", "--theorem", "2", "--k", "10", "--p", "5", "--n-max", "500"),
    ],
)
def test_repeated_invocations_are_byte_identical(argv):
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first.stdout == second.stdout


def test_timestamps_flag_stays_outside_payload():
    result = run_cli("check", "--k", "137", "--p", "11", "--timestamps")
    envelope = json.loads(result.stdout)
    assert "timestamp" in envelope
    assert "timestamp" not in envelope["payload"]
