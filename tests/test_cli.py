"""Command-line interface: byte-exact outputs, exit codes, config injection."""

import json
import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from qflab.acceptance import SUITES
from qflab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- happy paths


def test_density_closed_form(capsys):
    code, out, err = run(capsys, "density", "--p", "3", "--T", "d:1,1,1,1")
    assert (code, out, err) == (0, "640/729\n", "")


def test_density_vanishing(capsys):
    code, out, _ = run(capsys, "density", "--p", "3", "--T", "d:1,1,1,3")
    assert (code, out) == (0, "0/1\n")


def _readme_examples():
    """(argv, output) of each README command line whose comment is a single value."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    value = r"-?\d+(/\d+)?|true|false|\{.*\}|\[.*\]"
    out = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.splitlines():
            command, _, comment = line.partition("#")
            if command.startswith("qflab ") and re.fullmatch(value, comment.strip()):
                out.append((shlex.split(command)[1:], comment.strip()))
    return out


README_EXAMPLES = _readme_examples()


def test_readme_has_exact_examples():
    assert len(README_EXAMPLES) >= 8
    assert any("--closed" in argv for argv, _ in README_EXAMPLES)


@pytest.mark.parametrize("argv, expected", README_EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in README_EXAMPLES])
def test_readme_example_output(capsys, argv, expected):
    assert run(capsys, *argv) == (0, expected + "\n", "")


def test_density_closed_refuses_without_closed_form(capsys):
    # no represented 1 at 3: the closed form does not apply, and --closed says so
    code, out, err = run(capsys, "density", "--p", "3", "--T", "d:2,6,3,9", "--closed")
    assert (code, out) == (2, "")
    assert err == "error: T must represent 1 over Z_3\n"


def test_oracle_inline(capsys):
    code, out, err = run(
        capsys, "oracle", "--s", "1,1,-1,1,-1", "--T", "d:1", "--p", "3", "--t", "2"
    )
    assert (code, out, err) == (0, "10/9\n", "")


def test_oracle_job_file(tmp_path, capsys):
    from qflab import CountJob, SymMat

    job = CountJob((1, 1, -1, 1, -1), SymMat.diag(1), 3, 2)
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job.to_json()))
    code, out, _ = run(capsys, "oracle", "--job", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "10/9"
    assert data["raw_count"] == 7290
    assert data["t"] == 2


def test_kitaoka_value(capsys):
    code, out, _ = run(
        capsys, "kitaoka", "--p", "3", "--a", "0,0,0", "--eps", "1,1,1", "--at", "1"
    )
    assert (code, out) == (0, "64/81\n")


def test_kitaoka_polynomial_json(capsys):
    code, out, _ = run(capsys, "kitaoka", "--p", "3", "--a", "0,0,0", "--eps", "1,1,1")
    data = json.loads(out)
    assert code == 0
    assert data == {"coeffs": ["1/1", "-1/9", "-1/9", "1/81"]}


def test_negative_flag_values(tmp_path, capsys):
    code, out, err = run(capsys, "kitaoka", "--p", "3", "--a", "0,1,2",
                         "--eps", "-1,1,1", "--at", "1")
    assert (code, out, err) == (0, "128/81\n", "")
    code, out, _ = run(capsys, "kitaoka", "--p", "3", "--a", "0,0,0", "--at", "-1/3")
    assert (code, out) == (0, "2240/2187\n")
    assert run(capsys, "kitaoka", "--p", "3", "--a", "0,0,0", "--at=-1/3")[1] == out
    cfg = tmp_path / "kitaoka.cfg"
    cfg.write_text("eps=-1,1,1\n")
    code, out, _ = run(capsys, "kitaoka", "--config", str(cfg), "--p", "3", "--a", "0,1,2",
                       "--at", "1")
    assert (code, out) == (0, "128/81\n")


def test_gk_value(capsys):
    code, out, _ = run(capsys, "gk", "--a", "0,1,1", "--p", "3")
    assert (code, out) == (0, "2\n")


def test_gk_half_integral_value(capsys):
    code, out, _ = run(capsys, "gk", "--a", "0,0,0", "--p", "3")
    assert (code, out) == (0, "1/2\n")


def test_gk_table(capsys):
    code, out, _ = run(capsys, "gk", "--table", "--max-a", "1", "--p", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a1,a2,a3,p,e"
    assert "0,0,1,3,1" in lines


def test_ratio_report(capsys):
    code, out, _ = run(capsys, "ratio", "--p", "3", "--T", "d:1,1,1,3")
    assert code == 0
    data = json.loads(out)
    assert data["lhs_coeff"] == "10/1"
    assert data["rhs"] == "10/1"
    assert data["equal"] is True
    assert data["e_p"] == 1
    assert data["diff"] == [3]


def test_inline_json_rows(capsys):
    rows = run(capsys, "ratio", "--p", "3", "--T",
               "[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,3]]")
    assert rows == run(capsys, "ratio", "--p", "3", "--T", "d:1,1,1,3")
    assert rows[0] == 0


def test_diff_split(capsys):
    code, out, _ = run(capsys, "diff", "--T", "d:1,1,1,1", "--disc", "1")
    data = json.loads(out)
    assert code == 0
    assert data["diff"] == [2]
    assert data["odd"] is True
    assert "note" not in data


def test_diff_signature_note(capsys):
    code, out, _ = run(capsys, "diff", "--T", "d:1,1,-1,-1", "--disc", "1")
    data = json.loads(out)
    assert code == 0
    assert "note" in data


def test_diff_quaternion_collection(capsys):
    code, out, _ = run(capsys, "diff", "--T", "d:1,1,1,3", "--disc", "6")
    data = json.loads(out)
    assert code == 0
    assert data["disc"] == 6
    assert data["odd"] is True


def test_isolated(capsys):
    code, out, _ = run(capsys, "isolated", "--T", "d:1,1,1,3", "--p", "3")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "isolated", "--T", "d:2,6,3,9", "--p", "3")
    assert (code, out) == (0, "false\n")


def test_classify(capsys):
    code, out, _ = run(
        capsys, "classify", "--rank", "0", "--dim", "0", "--p", "3"
    )
    data = json.loads(out)
    assert code == 0
    assert data["label"] == "p_plus_one_lines"
    assert "case" in data


def test_matrix_inline_json(capsys):
    inline = json.dumps({"n": 1, "entries": [["1"]]})
    code, out, _ = run(capsys, "density", "--p", "3", "--T", inline, "--oracle")
    assert (code, out) == (0, "10/9\n")


def test_matrix_from_file(tmp_path, capsys):
    from qflab import SymMat

    path = tmp_path / "T.json"
    path.write_text(json.dumps(SymMat.diag(1, 1, 1, 1).to_json()))
    code, out, _ = run(capsys, "density", "--p", "3", "--T", str(path))
    assert (code, out) == (0, "640/729\n")


def test_matrix_file_decimals_read_exactly(tmp_path, capsys):
    # JSON numbers with a decimal point are read as exact fractions, never floats
    path = tmp_path / "T.json"
    path.write_text('{"n": 1, "entries": [[0.5]]}')
    code, out, _ = run(capsys, "density", "--p", "3", "--T", str(path), "--oracle")
    assert code == 0
    from qflab import SymMat
    from qflab.cli import parse_matrix

    assert parse_matrix(str(path)) == SymMat.diag(Fraction(1, 2))


def test_output_is_deterministic(capsys):
    first = run(capsys, "ratio", "--p", "3", "--T", "d:1,1,1,3")
    second = run(capsys, "ratio", "--p", "3", "--T", "d:1,1,1,3")
    assert first == second


# ---------------------------------------------------------------- sweeps


def test_sweep_all_passes(capsys):
    code, out, err = run(capsys, "sweep", "--suite", "all")
    assert (code, err) == (0, ""), out
    assert [line.split(":")[0] for line in out.splitlines()] == [f"PASS {s}" for s in SUITES]


def test_sweep_has_no_fast_mode(tmp_path, capsys):
    code, out, _ = run(capsys, "sweep", "--suite", "unary", "--fast")
    assert (code, out) == (2, "")
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("suite=unary\nfast=1\n")
    assert run(capsys, "sweep", "--config", str(cfg)) == (
        2, "", "error: config key 'fast' is not a flag of sweep\n")


# ---------------------------------------------------------------- config file


def test_config_injection(tmp_path, capsys):
    cfg = tmp_path / "ratio.cfg"
    cfg.write_text("p=3\nT=d:1,1,1,3\n")
    code, out, _ = run(capsys, "ratio", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_config_explicit_flags_win(tmp_path, capsys):
    cfg = tmp_path / "gk.cfg"
    cfg.write_text("a=0,0,1\np=3\n")
    code, out, _ = run(capsys, "gk", "--config", str(cfg), "--a", "0,1,1")
    assert (code, out) == (0, "2\n")


def test_config_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "ratio.cfg"
    cfg.write_text("p=3\nTT=d:1,1,1,3\n")
    code, _, err = run(capsys, "ratio", "--config", str(cfg), "--T", "d:1,1,1,1")
    assert code == 2
    assert "'TT'" in err


@pytest.mark.parametrize("value", ["maybe", "on", "2", ""])
def test_config_bad_switch_value_exits_2(tmp_path, capsys, value):
    cfg = tmp_path / "gk.cfg"
    cfg.write_text(f"p=3\ntable={value}\n")
    code, out, err = run(capsys, "gk", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == (f"error: config key 'table' has value {value!r}; "
                   "expected one of 1, true, yes, 0, false, no\n")


@pytest.mark.parametrize("value, table", [("yes", True), ("TRUE", True), ("1", True),
                                          ("no", False), ("False", False), ("0", False)])
def test_config_switch_values(tmp_path, monkeypatch, capsys, value, table):
    import qflab.cli

    seen = []
    monkeypatch.setattr(qflab.cli, "gk_table_csv", lambda p, a: seen.append((p, a)) or "csv\n")
    cfg = tmp_path / "gk.cfg"
    cfg.write_text(f"p=3\na=0,0,1\ntable={value}\n")
    out = "csv\n" if table else "1\n"
    assert run(capsys, "gk", "--config", str(cfg)) == (0, out, "")
    assert seen == ([(3, 4)] if table else [])


# ---------------------------------------------------------------- failure paths


def test_unknown_subcommand_exits_2(capsys):
    assert main(["no-such-command"]) == 2


def test_usage_error_exits_2(capsys):
    assert main(["gk", "--bogus"]) == 2


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0


def test_density_non_integral_answers_as_the_library(capsys):
    inline = json.dumps(
        {"n": 4, "entries": [["1/3", "0", "0", "0"], ["0", "1", "0", "0"],
                             ["0", "0", "1", "0"], ["0", "0", "0", "1"]]}
    )
    # whittaker_value gives 0 for a target that is not p-integral
    assert run(capsys, "density", "--p", "3", "--T", inline) == (0, "0/1\n", "")
    # the closed form and the oracle refuse it, in the library's words
    for mode in ("--closed", "--oracle"):
        code, out, err = run(capsys, "density", "--p", "3", "--T", inline, mode)
        assert (code, out, err) == (2, "", "error: Jordan form requires p-integral entries\n")


def test_density_rank0_target_exits_2(capsys):
    code, out, err = run(capsys, "density", "--p", "3", "--T", "[]")
    assert (code, out, err) == (2, "", "error: expected a target T of rank >= 1, got rank 0\n")


@pytest.mark.parametrize("mode", [[], ["--oracle"], ["--closed"]])
def test_density_negative_r_exits_2(capsys, mode):
    target = "d:1,1,1,3" if mode == ["--closed"] else "d:3,3"  # the closed form takes rank 4
    code, out, err = run(capsys, "density", "--p", "3", "--T", target, "--r", "-1", *mode)
    assert (code, out) == (2, "")
    assert err == "error: expected an integer r >= 0, got -1\n"


@pytest.mark.parametrize("mode, message", [
    ([], "Whittaker value requires a nonsingular target"),
    (["--closed"], "Jordan form requires nonsingular input"),
    (["--oracle"], "density oracle requires a nonsingular target"),
])
def test_density_singular_target_exits_2(capsys, mode, message):
    # the library refuses a singular T in each mode
    code, out, err = run(capsys, "density", "--p", "3", "--T", "d:1,1,1,0", *mode)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_ratio_on_represented_target_exits_2(capsys):
    code, _, err = run(capsys, "ratio", "--p", "3", "--T", "d:1,1,1,1")
    assert code == 2
    assert "Diff" in err


def test_inline_json_not_rows_exits_2(capsys):
    for text in ("[1,2]", "[[null]]"):
        code, _, err = run(capsys, "diff", "--T", text)
        assert code == 2
        assert "list of rows" in err


def test_non_number_json_entry_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "density", "--p", "3", "--T", '{"n":1,"entries":[[{}]]}')
    assert code == 2
    assert err.startswith("error:")
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"s": [1, {}], "T": {"n": 1, "entries": [["1"]]}, "p": 3, "t": 1}))
    code, _, err = run(capsys, "oracle", "--job", str(path))
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("key", ["n", "entries"])
def test_matrix_json_missing_field_exits_2(capsys, key):
    text = json.dumps({k: v for k, v in {"n": 1, "entries": [[1]]}.items() if k != key})
    assert run(capsys, "density", "--p", "3", "--T", text) == (
        2, "", f"error: matrix JSON is missing the field {key!r}\n")


@pytest.mark.parametrize("key", ["s", "T", "p", "t"])
def test_oracle_job_missing_field_exits_2(tmp_path, capsys, key):
    path = tmp_path / "job.json"
    job = {"s": [1, -1], "T": {"n": 1, "entries": [["1"]]}, "p": 3, "t": 1}
    path.write_text(json.dumps({k: v for k, v in job.items() if k != key}))
    assert run(capsys, "oracle", "--job", str(path)) == (
        2, "", f"error: job JSON is missing the field {key!r}\n")


def test_oracle_job_non_integral_field_exits_2(tmp_path, capsys):
    path = tmp_path / "job.json"
    base = {"s": [1, 1, -1, 1, -1], "T": {"n": 1, "entries": [["1"]]}, "p": 3, "t": 2}
    for field, value in (("p", 3.5), ("t", 1.9)):
        path.write_text(json.dumps({**base, field: value}))
        code, out, err = run(capsys, "oracle", "--job", str(path))
        assert (code, out) == (2, "")
        assert f"job field '{field}' must be an integer" in err
    path.write_text(json.dumps({**base, "p": 3.0, "t": 2.0}))  # integral floats are fine
    code, out, _ = run(capsys, "oracle", "--job", str(path))
    assert code == 0
    assert json.loads(out)["value"] == "10/9"


def test_oracle_inline_reports_job_error(capsys):
    code, _, err = run(capsys, "oracle", "--s", "1,-1", "--T", "d:1", "--p", "3", "--t", "0")
    assert code == 2
    assert err == "error: expected an integer modulus exponent t >= 1, got 0\n"


@pytest.mark.parametrize("raw", ["abc", "-5"])
def test_oracle_bad_state_budget_exits_2(monkeypatch, capsys, raw):
    monkeypatch.setenv("QFLAB_STATE_BUDGET", raw)
    code, out, err = run(capsys, "oracle", "--s", "1,-1", "--T", "d:1", "--p", "3", "--t", "1")
    assert (code, out) == (2, "")
    assert "QFLAB_STATE_BUDGET" in err


def test_failed_check_exits_1(capsys, monkeypatch):
    import dataclasses

    import qflab.cli

    real = qflab.cli.verify_ratio_identity
    monkeypatch.setattr(qflab.cli, "verify_ratio_identity",
                        lambda T, p: dataclasses.replace(real(T, p), equal=False))
    code, out, _ = run(capsys, "ratio", "--p", "3", "--T", "d:1,1,1,3")
    assert code == 1
    assert json.loads(out)["equal"] is False


def test_appendix_sweep_checks_discriminant(capsys, monkeypatch):
    import qflab.acceptance

    monkeypatch.setattr(qflab.acceptance, "discriminant", lambda B: 5)
    code, out, _ = run(capsys, "sweep", "--suite", "appendix")
    assert code == 1
    assert out.startswith("FAIL appendix:")
    assert "ramification" in out


def test_failed_sweep_names_every_failed_assertion(capsys, monkeypatch):
    import qflab.acceptance

    monkeypatch.setattr(qflab.acceptance, "twisted_density", lambda T, p: Fraction(128, 9))
    code, out, _ = run(capsys, "sweep", "--suite", "twisted")
    assert code == 1
    assert out == ("FAIL twisted: "
                   "twisted_density(SymMat.diag(1,1,1,3)): got 128/9, expected 64/9; "
                   "twisted_density(SymMat.diag(1,1,1,1)): got 128/9, expected 0\n")
    assert "matches" not in out


def test_classify_inconsistent_exits_2(capsys):
    code, _, err = run(
        capsys, "classify", "--rank", "2", "--dim", "1", "--p", "3"
    )
    assert code == 2
    assert "inconsistent case" in err


def test_gk_missing_arguments_exits_2(capsys):
    code, _, err = run(capsys, "gk", "--p", "3")
    assert code == 2
    assert err
