import json

import pytest

from dhbox import __version__, cli
from dhbox.cli import build_parser, main


def test_no_command_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_command_exit_1(capsys):
    assert main(["frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err and "error" in err


def test_unknown_flag_exit_1(capsys):
    assert main(["secret", "--p", "7", "--frob"]) == 1
    assert main(["adversary", "--p", "5", "--t", "7"]) == 1  # no --t flag any more
    # each command refuses the shared options its handler does not read
    ddh = ["ddh", "--p", "5", "--secret", "2", "--g", "1,0", "--h", "0,1", "--k", "0,1", "--l", "4,0"]
    assert main(["secret", "--p", "7", "--trials", "3"]) == 1
    assert main(ddh + ["--out", "ddh.txt"]) == 1
    assert main(["lift", "--p", "7", "--format", "json"]) == 1
    assert main(["embed", "--p", "11", "--q", "23", "--trials", "3"]) == 1
    assert main(["adversary", "--p", "5", "--seed", "3"]) == 1
    assert main(["grover", "--p", "101", "--trials", "3"]) == 1


def test_bad_input_exit_1(capsys):
    assert main(["secret", "--p", "9"]) == 1  # composite modulus
    assert "error" in capsys.readouterr().err


def test_help_exit_0(capsys):
    assert main(["--help"]) == 0
    assert "command" in capsys.readouterr().out


def test_parser_is_reused_across_calls(capsys):
    # main parses every call with one parser; a usage error, --help and
    # --version in between leave nothing on it that changes a later call.
    first = ["adversary", "--p", "31", "--force"]
    rc = main(first)
    before = capsys.readouterr()
    assert rc == 0 and before.out and before.err == ""
    assert main(["adversary", "--p", "5", "--t", "7"]) == 1
    assert "--t" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert "command" in capsys.readouterr().out
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == f"dhbox {__version__}\n"
    assert main(first) == rc
    assert capsys.readouterr() == before
    assert cli._main_parser() is cli._main_parser()
    assert build_parser() is not build_parser()


def test_secret_subcommand(capsys):
    for algo in ("dlog", "cdh", "dlog-random", "cdh-random", "brute", "brute-random"):
        assert main(["secret", "--p", "101", "--seed", "7", "--algo", algo]) == 0
        out = capsys.readouterr().out
        assert "correct=true" in out


def test_ddh_subcommand_yes_and_no(capsys):
    args = ["ddh", "--p", "5", "--secret", "2", "--g", "1,0", "--h", "0,1", "--k", "0,1"]
    assert main(args + ["--l", "4,0"]) == 0
    assert "DH-quadruple: yes" in capsys.readouterr().out
    assert main(args + ["--l", "3,0"]) == 0
    assert "DH-quadruple: no" in capsys.readouterr().out


def test_lift_subcommand(capsys):
    assert main(["lift", "--p", "7", "--seed", "3", "--trials", "10"]) == 0
    assert "lift agreement: 10/10" in capsys.readouterr().out


def test_embed_subcommand(capsys):
    assert main(["embed", "--p", "11", "--q", "23", "--a", "3", "--b", "4", "--c", "1"]) == 0
    out = capsys.readouterr().out
    assert "DDH via embedded oracle: yes" in out
    assert "DDH via exponents:       yes" in out
    assert main(["embed", "--p", "11", "--q", "23", "--seed", "5"]) == 0


@pytest.mark.parametrize("given", [["--a", "1"], ["--b", "2"], ["--a", "1", "--c", "5"]])
def test_embed_refuses_a_partial_exponent_set(given, capsys):
    # A partial set would be dropped and all three exponents drawn.
    assert main(["embed", "--p", "11", "--q", "23", "--seed", "0", *given]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--a, --b and --c" in captured.err


def test_adversary_subcommand(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["adversary", "--p", "5", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["count_positive"] == 4
    assert payload["worst_ratio_randomized_exact"] == "2"
    # guard honored through the CLI
    assert main(["adversary", "--p", "37"]) == 1


def test_grover_subcommand(tmp_path, capsys):
    out = tmp_path / "run.json"
    assert main(["grover", "--p", "101", "--seed", "1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["p"] == 101
    assert payload["oracle_queries"] == payload["iterations"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["grover", "--p", "101", "--seed", "1", "--iterations", "-3"], "iterations must be non-negative"),
        (["scaling", "--p", "11", "--trials", "0"], "trials must be at least 1"),
        (["reductions", "--p", "11", "--trials", "0"], "trials must be at least 1"),
        (["level2-counts", "--p", "11", "--trials", "0"], "trials must be at least 1"),
        (["lift", "--p", "7", "--trials", "-1"], "trials must be at least 1"),
        (["scaling", "--p", ","], "at least one prime"),
    ],
)
def test_empty_runs_exit_1(argv, message, capsys):
    # Each used to divide by zero, print an empty or negative run, or exit 0.
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "division by zero" not in captured.err


def test_repeated_prime_exit_1(capsys):
    # It used to print two identical rows and exit 0.
    assert main(["scaling", "--p", "3,3", "--trials", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must not repeat a prime" in captured.err


def test_scaling_subcommand_csv(tmp_path):
    out = tmp_path / "scaling.csv"
    rc = main(["scaling", "--p", "11,13", "--trials", "100", "--seed", "2", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("p,trials,mean_queries")
    assert len(lines) == 3


def test_reductions_subcommand(tmp_path):
    out = tmp_path / "red.json"
    rc = main(
        ["reductions", "--p", "31", "--trials", "300", "--seed", "2",
         "--out", str(out), "--format", "json"]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert {row["algorithm"] for row in payload} == {"dlog-random", "cdh-random"}


def test_level2_subcommand(tmp_path):
    out = tmp_path / "l2.json"
    rc = main(
        ["level2-counts", "--p", "13", "--trials", "100", "--seed", "2",
         "--out", str(out), "--format", "json"]
    )
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["trials"] == 100
    assert payload["within_threshold"] is True


def test_level2_subcommand_smallest_prime(capsys):
    assert main(["level2-counts", "--p", "5", "--trials", "50", "--seed", "9"]) == 0
    assert json.loads(capsys.readouterr().out)["bound"] == 1.0


def test_level2_subcommand_force(capsys):
    assert main(["level2-counts", "--p", "37", "--trials", "20"]) == 1
    assert "exceeds the enumeration guard 31" in capsys.readouterr().err
    assert main(["level2-counts", "--p", "61", "--trials", "20", "--seed", "1", "--force"]) == 0
    assert json.loads(capsys.readouterr().out)["p"] == 61


def test_byte_identical_reruns(tmp_path):
    for cmd, fname in (
        (["scaling", "--p", "11,13", "--trials", "150", "--seed", "6"], "a.csv"),
        (["reductions", "--p", "13", "--trials", "150", "--seed", "6"], "b.csv"),
        (["adversary", "--p", "7"], "c.json"),
        (["grover", "--p", "101", "--seed", "6"], "d.json"),
        (["level2-counts", "--p", "11", "--trials", "100", "--seed", "6", "--format", "json"], "e.json"),
    ):
        out1 = tmp_path / ("x_" + fname)
        out2 = tmp_path / ("y_" + fname)
        assert main(cmd + ["--out", str(out1)]) == 0
        assert main(cmd + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
