"""The command-line front end, driven through main(argv)."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import gpaths.cli as cli
import gpaths.verification as verification
from gpaths.errors import SizeLimitExceeded
from gpaths.stats import StatTable
from gpaths.verification import SCHRODER_NUMBERS, SUITES, CheckResult


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_is_deterministic(capsys):
    code, out, _ = run(capsys, ["enumerate", "--avoid", "uvu", "--length", "2"])
    assert code == 0
    assert out.splitlines() == ["uuvv", "uhv", "uvh", "ud", "huv", "hh"]


def test_enumerate_prints_empty_marker(capsys):
    code, out, _ = run(capsys, ["enumerate", "--family", "dyck", "--length", "0"])
    assert code == 0
    assert out == "(empty)\n"


def test_count_polynomial_text(capsys):
    code, out, _ = run(capsys, ["count", "--avoid", "uvu", "--length", "2"])
    assert code == 0
    assert out == "a^2 + 3*a*b + b^2 + c\n"


def test_count_nmax_with_rational_weights(capsys):
    code, out, _ = run(
        capsys, ["count", "--family", "schroder", "--nmax", "5", "--weights", "1,1"]
    )
    assert code == 0
    assert out.splitlines() == ["0\t1", "1\t0", "2\t2", "3\t0", "4\t6", "5\t0"]


def test_count_unweighted(capsys):
    code, out, _ = run(
        capsys, ["count", "--family", "hstring", "--length", "3", "--unweighted"]
    )
    assert code == 0
    assert out == "8\n"


def test_map_takes_paths_past_the_recursion_limit(capsys):
    code, out, err = run(capsys, ["map", "--bijection", "sigma", "--input", "h" * 1500])
    assert (code, out, err) == (0, "H" * 1500 + "\n", "")


def test_map_text_and_json(capsys):
    code, out, _ = run(capsys, ["map", "--bijection", "sigma", "--input", "uv"])
    assert (code, out) == (0, "ud\n")
    code, out, _ = run(
        capsys,
        ["map", "--bijection", "sigma", "--direction", "inv", "--input", "uudd"],
    )
    assert (code, out) == (0, "ud\n")
    code, out, _ = run(
        capsys,
        ["map", "--bijection", "sigma", "--input", "uv", "--format", "json"],
    )
    assert code == 0
    assert json.loads(out) == {"input": "uv", "output": "ud", "trace": []}
    code, out, _ = run(
        capsys,
        [
            "map", "--bijection", "sigma", "--input", "uv",
            "--format", "json", "--trace",
        ],
    )
    assert json.loads(out) == {"input": "uv", "output": "ud", "trace": ["base"]}


def test_series_coefficients(capsys):
    code, out, _ = run(capsys, ["series", "--name", "C", "--order", "4"])
    assert code == 0
    assert out.splitlines() == ["0\t1", "1\t1", "2\t2", "3\t5", "4\t14"]


def test_riordan_csv_and_json(capsys):
    argv = ["riordan", "--d", "S^3*one_over_1px", "--h", "x*S^2", "--nmax", "2"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out.splitlines() == ["1", "5,1", "25,9,1"]
    code, out, _ = run(capsys, argv + ["--format", "json"])
    payload = json.loads(out)
    assert payload == {
        "d": "S^3*one_over_1px",
        "h": "x*S^2",
        "rows": [[1], [5, 1], [25, 9, 1]],
    }


def test_table_all_methods_agree(capsys):
    code, out, _ = run(capsys, ["table", "--stat", "U", "--nmax", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# brute"
    assert lines.count("1") == 3
    assert lines[-1] == "agree"
    assert "# riordan" in lines and "# formula" in lines


def test_table_single_method_json(capsys):
    code, out, _ = run(
        capsys,
        ["table", "--stat", "V", "--method", "riordan", "--nmax", "2",
         "--format", "json"],
    )
    assert code == 0
    assert json.loads(out) == {
        "stat": "V",
        "method": "riordan",
        "rows": [[1], [4, 1], [20, 8, 1]],
    }


def test_table_disagreement_exits_nonzero(capsys, monkeypatch):
    tables = {"brute": ((1,),), "riordan": ((2,),), "formula": ((1,),)}
    monkeypatch.setattr(
        cli, "stat_table", lambda stat, m, nmax: StatTable(stat, m, nmax, tables[m])
    )
    code, out, _ = run(capsys, ["table", "--stat", "U", "--nmax", "0"])
    assert code == 1
    assert out.splitlines()[-1] == "DISAGREE"


def test_verify_small_suite_passes(capsys):
    code, out, _ = run(capsys, ["verify", "--suite", "identities", "--nmax", "3"])
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].startswith("PASS (") and lines[-1].endswith(" checks)")


def test_verify_reports_failures(capsys, monkeypatch):
    fake = [CheckResult("good", True, ""), CheckResult("bad", False, "boom")]
    monkeypatch.setattr(cli, "run_suite", lambda suite, nmax: fake)
    code, out, _ = run(capsys, ["verify", "--suite", "counts"])
    assert code == 1
    assert out.splitlines() == [
        "PASS good",
        "FAIL bad: boom",
        "FAIL (1 of 2 checks failed)",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--avoid", "udu", "--length", "2"],
        ["count", "--family", "dyck", "--avoid", "uu", "--length", "2"],
        ["count", "--length", "2", "--weighting", "narayana"],
        ["count", "--family", "schroder", "--length", "2", "--weighting", "motzkin_ab"],
        ["count", "--length", "1", "--weights", "1"],
        ["map", "--bijection", "sigma", "--input", "uvu"],
        ["riordan", "--d", "T^2", "--h", "x*S^2"],
        ["table", "--stat", "U", "--method", "all", "--nmax", "-1"],
        ["riordan", "--d", "S", "--h", "x*S^2", "--nmax", "-1"],
        ["enumerate", "--length", "-1"],
        ["count", "--length", "-1"],
        ["count", "--nmax", "-1"],
        ["verify", "--suite", "identities", "--nmax", "-1"],
        ["verify", "--suite", "counts", "--nmax", "11"],
        ["verify", "--suite", "stats", "--nmax", "9"],
        ["verify", "--suite", "identities", "--nmax", "11"],
        ["count", "--family", "dyck", "--weighting", "motzkin_ab", "--length", "4"],
        ["enumerate", "--length", "2", "--max-n-override", "-1"],
        ["count", "--length", "2", "--max-n-override", "-1"],
        ["riordan", "--d", "S^", "--h", "x*S^2"],
        ["count", "--weights", "", "--length", "2"],
        ["count", "--family", "dyck", "--length", "4", "--weights", "1/0,1"],
        ["count", "--nmax", "2", "--weights", "1,1", "--unweighted"],
        # one value per variable of the weighting: gmotzkin_abc weighs d by c,
        # schroder_ab has no c
        ["count", "--family", "gmotzkin", "--length", "3", "--weights", "1,2"],
        ["count", "--family", "schroder", "--length", "4", "--weights", "1,2,5"],
        ["count", "--length", "2", "--unweighted", "--weighting", "gmotzkin_abc"],
        ["series", "--name", "C", "--order", "-1"],
        # refused before rows 0..24, which are under the cap, are printed
        ["count", "--family", "dyck", "--nmax", "26", "--unweighted"],
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_a_reader_that_closes_the_pipe_ends_the_command_quietly():
    # 2.9 MB of paths, far past what a pipe buffers: the writer is still
    # writing when the reader closes after one line
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))
    )}
    argv = ["enumerate", "--avoid", "uvu", "--length", "9"]
    with subprocess.Popen(
        [sys.executable, "-m", "gpaths.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert proc.stdout.readline() == b"uuuuuuuuuvvvvvvvvv\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (141, b"")


def test_unknown_weighting_lists_the_choices(capsys):
    code, out, err = run(capsys, ["count", "--length", "2", "--weighting", "narayana"])
    assert (code, out) == (2, "")
    assert err == (
        "error: unknown weighting 'narayana'; choose from bicolored_motzkin_ab, "
        "dyck_peak_ab, gmotzkin_ab_bsq, gmotzkin_abc, hstring_ab, motzkin_ab, "
        "psi_image_ab, schroder_ab\n"
    )


def test_zero_denominator_in_weights_names_the_value(capsys):
    argv = ["count", "--family", "dyck", "--length", "4", "--weights", "1/0,1"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: --weights: zero denominator in '1/0'\n"


def test_weights_take_one_value_per_variable_of_the_weighting(capsys):
    for family, weights, message in (
        ("gmotzkin", "1,2", "gmotzkin_abc takes a,b,c; got 2 values"),
        ("schroder", "1,2,5", "schroder_ab takes a,b; got 3 values"),
        ("dyck", "1", "dyck_peak_ab takes a,b; got 1 value"),
    ):
        argv = ["count", "--family", family, "--length", "4", "--weights", weights]
        assert run(capsys, argv) == (2, "", f"error: --weights: weighting {message}\n")


def test_verify_suite_choices_are_the_suites():
    (command,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    verify = command.choices["verify"]
    (suite,) = [a for a in verify._actions if a.dest == "suite"]
    assert suite.choices == ("all", *SUITES)


def test_series_name_choices_are_the_named_series_in_order():
    (command,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    series = command.choices["series"]
    (name,) = [a for a in series._actions if a.dest == "name"]
    assert name.choices == ("C", "S", "s", "one_over_1px", "guvu", "gfull")


def test_negative_series_order_names_its_flag(capsys):
    code, out, err = run(capsys, ["series", "--name", "C", "--order", "-1"])
    assert (code, out) == (2, "")
    assert err == "error: --order must be nonnegative; got -1\n"


@pytest.mark.parametrize("command", ["enumerate", "count"])
def test_negative_size_override_is_rejected_as_such(capsys, command):
    argv = [command, "--length", "0", "--max-n-override", "-1"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "error: --max-n-override must be nonnegative; got -1\n"


@pytest.mark.parametrize("value", ["x", "-3", "1_0"])
def test_malformed_size_cap_in_the_environment_is_a_usage_error(
    capsys, monkeypatch, value
):
    monkeypatch.setenv("GPATHS_MAX_N", value)
    for argv in (["count", "--length", "2"], ["count", "--length", "0"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == (
            "error: GPATHS_MAX_N must be a nonnegative integer in ASCII digits; "
            f"got {value!r}\n"
        )


def test_count_reaches_past_the_generation_cap(capsys):
    # Schroder paths of x-length 14 cannot be enumerated by default, but
    # the counting DP has its own cap, 24
    argv = ["count", "--family", "schroder", "--length", "14", "--unweighted"]
    assert run(capsys, argv) == (0, f"{SCHRODER_NUMBERS[7]}\n", "")
    code, out, _ = run(capsys, argv[:-1])
    assert code == 0 and out.count("\n") == 1
    code, out, err = run(capsys, ["count", "--family", "schroder", "--length", "25"])
    assert (code, out) == (2, "")
    assert err == (
        "error: x-length 25 exceeds the counting cap 24 for family 'schroder'; "
        "raise GPATHS_MAX_N or pass an explicit override\n"
    )


@pytest.mark.parametrize(
    "argv, advice",
    [
        (["table", "--stat", "H", "--method", "brute", "--nmax", "6"],
         "raise GPATHS_MAX_N"),
        (["verify"], "raise GPATHS_MAX_N"),
        (["count", "--length", "5"], "raise GPATHS_MAX_N or pass an explicit override"),
        (["enumerate", "--length", "5"],
         "raise GPATHS_MAX_N or pass an explicit override"),
        (["count", "--length", "5", "--max-n-override", "4"], None),
    ],
)
def test_a_size_refusal_suggests_an_override_only_where_one_can_be_passed(
    capsys, monkeypatch, argv, advice
):
    monkeypatch.setenv("GPATHS_MAX_N", "3")
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: x-length ") and err.count("\n") == 1
    # under an override the cap is the one just passed: no advice
    assert err.endswith("\n" if advice is None else f"; {advice}\n")
    assert (";" in err) == (advice is not None)


@pytest.mark.parametrize("cap", ["3", "7"])
def test_verify_refuses_the_stats_suite_past_the_cap_before_any_suite_runs(
    capsys, monkeypatch, cap
):
    monkeypatch.setenv("GPATHS_MAX_N", cap)
    # the refusal the stats suite raises when it reaches its rows itself
    with pytest.raises(SizeLimitExceeded) as info:
        verification._stats_suite(None)

    def fail(*args, **kwargs):
        raise AssertionError("the bijection suite ran before the refusal")

    monkeypatch.setattr(verification, "check_bijections", fail)
    for argv in (["verify"], ["verify", "--suite", "stats"]):
        assert run(capsys, argv) == (2, "", f"error: {info.value}\n")


@pytest.mark.parametrize("suite", ["counts", "identities"])
def test_verify_suites_under_the_fixed_cap_ignore_a_low_size_cap(
    capsys, monkeypatch, suite
):
    # these suites size their enumerations under verification._CAP
    monkeypatch.setenv("GPATHS_MAX_N", "3")
    code, out, err = run(capsys, ["verify", "--suite", suite])
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].startswith("PASS (")


@pytest.mark.parametrize("method", ["brute", "all"])
def test_table_past_the_brute_cap_is_a_usage_error(capsys, monkeypatch, method):
    monkeypatch.setenv("GPATHS_MAX_N", "9")
    argv = ["table", "--stat", "U", "--method", method, "--nmax", "9"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: x-length 10 exceeds") and err.count("\n") == 1


@pytest.mark.parametrize("suite", ["bijections", "all"])
def test_verify_bijections_below_smallest_nmax_is_a_usage_error(capsys, suite):
    code, out, err = run(capsys, ["verify", "--suite", suite, "--nmax", "0"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "smallest supported --nmax is 1" in err


@pytest.mark.parametrize(
    "suite, nmax, limit",
    [
        ("counts", 11, 10),
        ("stats", 7, 6),
        ("identities", 11, 10),
        ("all", 7, 6),
        ("bijections", 13, 12),
    ],
)
def test_verify_past_the_frozen_data_names_the_limit(capsys, suite, nmax, limit):
    code, out, err = run(capsys, ["verify", "--suite", suite, "--nmax", str(nmax)])
    assert (code, out) == (2, "")
    assert f"the largest supported --nmax is {limit}" in err
    assert err.count("\n") == 1
    # the bijections are checked against enumeration, not frozen data
    assert ("frozen" in err) == (suite != "bijections")


def test_unknown_subcommand_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["transmogrify"])
    assert exc.value.code == 2


def _readme_examples():
    """(command, printed lines) of each `$ gpaths ...` line in README's code
    blocks; its printed lines run to the next `$` line or the block's end."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    examples = []
    for block in readme.split("```")[1::2]:
        printed = None
        for line in block.splitlines():
            if line.startswith("$ "):
                printed = []
                examples.append((line[2:], printed))
            elif printed is not None:
                printed.append(line)
    return examples


README_EXAMPLES = _readme_examples()


def test_readme_lists_every_cli_example():
    assert len(README_EXAMPLES) == 11


@pytest.mark.parametrize(
    "command, lines", README_EXAMPLES, ids=[c for c, _ in README_EXAMPLES]
)
def test_readme_cli_example_prints_its_lines(capsys, command, lines):
    command, tail, _ = command.partition(" | tail -1")
    argv = shlex.split(command)
    assert argv[0] == "gpaths"
    code, out, err = run(capsys, argv[1:])
    assert (code, err) == (0, "")
    printed = out.splitlines()
    assert (printed[-1:] if tail else printed) == lines
