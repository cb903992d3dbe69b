import argparse
import csv
import io
import json
import runpy
import subprocess
import sys

import pytest

from hookcomb.cli import (
    EXIT_CLOSED_PIPE,
    build_parser,
    main,
    parse_class_spec,
    parse_eval_spec,
    parse_range,
)
from hookcomb import identities
from hookcomb.identities import CHECKS
from hookcomb.counting import enumerate_by_perimeter
from hookcomb.partitions import DISTINCT, UNRESTRICTED, d_distinct, g_class, make_partition
from hookcomb.profile import from_profile


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# argument parsing


def test_parse_class_spec():
    assert parse_class_spec("any") == UNRESTRICTED
    assert parse_class_spec("distinct") == DISTINCT
    assert parse_class_spec("ddistinct:2") == d_distinct(2)
    assert parse_class_spec("gclass:5") == g_class(5)
    for bad in ("ddistinct", "ddistinct:0", "gclass:-1", "prime", "distinct:2"):
        with pytest.raises(ValueError):
            parse_class_spec(bad)


def test_parse_class_spec_reads_back_every_class_name():
    for c in identities._all_classes():
        assert parse_class_spec(str(c)) == c


@pytest.mark.parametrize(
    "argv, named",
    [
        (["count", "--perimeter", "5..2"], "'5..2'"),
        (["count", "--perimeter", "3", "--class", "prime"], "'prime'"),
        (["enumerate", "--perimeter", "3", "--class", "ddistinct:0"], "'ddistinct:0'"),
        (["enumerate", "--perimeter", "3", "--class", "ddistinct"], "needs a parameter d, as in 'ddistinct:2'"),
        (["count", "--perimeter", "3", "--class", "gclass"], "needs a parameter d, as in 'gclass:2'"),
        (["gf", "--eval", "z=1"], "'z=1'"),
        (["gf", "--qbound", "2", "--eval", "x=1,x=2"], "'x=2'"),
    ],
)
def test_bad_arguments_are_named_on_stderr(capsys, argv, named):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert named in err and "invalid" not in err, err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["count", "--perimeter", "3", "--class", "ddistinct:²"],
            "argument --class: bad class spec 'ddistinct:²': the parameter must be a positive integer, got '²'",
        ),
        (["count", "--perimeter", "²"], "argument --perimeter: bad perimeter range '²'"),
    ],
    ids=["class-parameter", "perimeter"],
)
def test_a_superscript_digit_is_not_a_number(capsys, argv, message):
    # str.isdigit accepts a superscript two that int() refuses
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"hookcomb count: error: {message}"


def test_parse_range():
    assert parse_range("7") == (7, 7)
    assert parse_range("1..10") == (1, 10)
    for bad in ("0", "5..2", "a..b", ".."):
        with pytest.raises(ValueError):
            parse_range(bad)


def test_parse_eval_spec():
    assert parse_eval_spec("x=1,y=-1") == {"x": 1, "y": -1}
    for bad in ("z=1", "x=one", "x=1,x=2"):
        with pytest.raises(ValueError):
            parse_eval_spec(bad)


# ---------------------------------------------------------------------------
# enumerate


def test_enumerate_ddistinct(capsys):
    code, out, _ = run(capsys, "enumerate", "--perimeter", "7", "--class", "ddistinct:2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[-1] == "5,3,1"


def test_enumerate_trivial(capsys):
    code, out, _ = run(capsys, "enumerate", "--perimeter", "1", "--class", "any")
    assert code == 0
    assert out == "1\n"


def test_enumerate_with_parts_filter(capsys):
    code, out, _ = run(capsys, "enumerate", "--perimeter", "9", "--class", "distinct", "--parts", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert lines[0] == "6,5,4,3"
    assert lines[-1] == "6,3,2,1"


def test_enumerate_json_roundtrip(capsys):
    code, out, _ = run(capsys, "enumerate", "--perimeter", "8", "--class", "odd", "--format", "json")
    assert code == 0
    parsed = [make_partition(entry) for entry in json.loads(out)]
    code2, text_out, _ = run(capsys, "enumerate", "--perimeter", "8", "--class", "odd")
    assert [",".join(map(str, p.parts)) for p in parsed] == text_out.splitlines()


def reference_listing(fmt, perimeter, spec, parts=None, largest=None, rank=None):
    """The listing rendered whole, from the filtered list, as the
    streaming writer must reproduce it byte for byte."""
    listed = [
        p
        for p in enumerate_by_perimeter(perimeter, parse_class_spec(spec))
        if (parts is None or p.length == parts)
        and (largest is None or p.parts[0] == largest)
        and (rank is None or p.parts[0] - p.length == rank)
    ]
    if fmt == "json":
        return json.dumps([list(p.parts) for p in listed]) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([["parts"]] + [[",".join(map(str, p))] for p in listed])
        return buf.getvalue()
    return "".join(",".join(map(str, p)) + "\n" for p in listed)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize(
    "perimeter,spec,filters",
    [
        (1, "any", {}),
        (11, "any", {}),
        (12, "gclass:2", {}),
        (10, "any", {"parts": 4}),
        (10, "any", {"largest": 5, "rank": 1}),
        (12, "distinct", {"rank": 2}),
        (9, "odd", {"parts": 99}),  # nothing passes the filter
    ],
)
def test_enumerate_streams_the_whole_listing_byte_for_byte(capsys, fmt, perimeter, spec, filters):
    argv = ["enumerate", "--perimeter", str(perimeter), "--class", spec, "--format", fmt]
    for name, value in filters.items():
        argv += [f"--{name}", str(value)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == reference_listing(fmt, perimeter, spec, **filters)


@pytest.mark.parametrize(
    "fmt,head", [("text", "3,1\n2,2\n"), ("csv", 'parts\n"3,1"\n"2,2"\n'), ("json", "[[3, 1], [2, 2]")]
)
def test_enumerate_writes_each_output_before_the_next_is_built(capsys, monkeypatch, fmt, head):
    from hookcomb import cli

    def two_then_fail(n, c):
        yield make_partition([3, 1])
        yield make_partition([2, 2])
        raise ValueError("walk stopped")

    monkeypatch.setattr(cli, "enumerate_by_perimeter", two_then_fail)
    code, out, err = run(capsys, "enumerate", "--perimeter", "4", "--parts", "2", "--format", fmt)
    assert code == 2 and "walk stopped" in err
    assert out == head


def test_enumerate_into_a_closed_pipe_exits_quietly():
    from conftest import subprocess_env

    proc = subprocess.Popen(
        [sys.executable, "-m", "hookcomb", "enumerate", "--perimeter", "16"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=subprocess_env(),
    )
    assert [proc.stdout.readline() for _ in range(2)] == [b"16\n", b"15,15\n"]
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == EXIT_CLOSED_PIPE
    assert err == b""


def test_enumerate_usage_error(capsys):
    code, _, err = run(capsys, "enumerate", "--perimeter", "0")
    assert code == 2
    assert "perimeter" in err


def test_enumerate_refuses_output_over_the_bound(capsys):
    # 2^39 partitions: refused before anything is listed
    code, out, err = run(capsys, "enumerate", "--perimeter", "40", "--class", "any")
    assert code == 2
    assert out == ""
    assert "549755813888" in err


def test_enumerate_output_bound_is_inclusive(capsys, monkeypatch):
    from hookcomb import cli

    monkeypatch.setattr(cli, "ENUMERATE_OUTPUT_LIMIT", 144)  # F(12)
    code, out, _ = run(capsys, "enumerate", "--perimeter", "12", "--class", "distinct")
    assert code == 0
    assert len(out.splitlines()) == 144
    code, out, _ = run(capsys, "enumerate", "--perimeter", "13", "--class", "distinct")
    assert code == 2
    assert out == ""


def test_bad_class_spec_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--perimeter", "3", "--class", "prime"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# count


def test_count_fibonacci_column(capsys):
    code, out, _ = run(capsys, "count", "--perimeter", "1..10", "--class", "distinct")
    assert code == 0
    counts = [int(line.split()[1]) for line in out.splitlines()]
    assert counts == [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


def test_count_single(capsys):
    code, out, _ = run(capsys, "count", "--perimeter", "3", "--class", "any")
    assert code == 0
    assert out == "3 4\n"


def test_count_split_parity(capsys):
    code, out, _ = run(capsys, "count", "--perimeter", "1..6", "--class", "distinct", "--split-parity")
    assert code == 0
    e_column = [int(line.split()[4]) for line in out.splitlines()]
    assert e_column == [-1, -1, 0, 1, 1, 0]


def test_count_split_parity_e_is_even_minus_odd_of_the_split(capsys, monkeypatch):
    from hookcomb import cli

    monkeypatch.setattr(cli, "count_parity_split", lambda n: (10 * n, n))
    code, out, _ = run(capsys, "count", "--perimeter", "1..3", "--class", "distinct", "--split-parity")
    assert code == 0
    assert out == "1 11 10 1 9\n2 22 20 2 18\n3 33 30 3 27\n"


def test_count_split_parity_needs_distinct(capsys):
    argv = ("count", "--perimeter", "1..3", "--class", "odd", "--split-parity")
    assert run(capsys, *argv) == (2, "", "error: --split-parity applies only to --class distinct\n")


def test_count_split_parity_takes_distinct_by_any_name(capsys):
    # ddistinct:1 is the same class as distinct, spelled as its gap family
    argv = ("count", "--perimeter", "1..6", "--split-parity", "--class")
    distinct = run(capsys, *argv, "distinct")
    assert distinct[0] == 0
    assert run(capsys, *argv, "ddistinct:1") == distinct


def test_count_beyond_int_str_digit_limit(capsys):
    # 2^29999 has 9,031 digits, past Python's default 4,300-digit limit
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "count", "--perimeter", "30000", "--class", "any")
    assert code == 0
    n, digits = out.split()
    assert n == "30000" and digits.isdigit() and len(digits) > 4300
    prime = (1 << 61) - 1
    residue = 0
    for ch in digits:  # int(digits) itself would hit the limit
        residue = (residue * 10 + ord(ch) - ord("0")) % prime
    assert residue == pow(2, 29999, prime)
    assert sys.get_int_max_str_digits() == limit


def test_count_csv_header(capsys):
    code, out, _ = run(capsys, "count", "--perimeter", "2..3", "--class", "any", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "perimeter,count"


# ---------------------------------------------------------------------------
# gf


def test_gf_distinct(capsys):
    code, out, _ = run(capsys, "gf", "--class", "distinct", "--qbound", "3")
    assert code == 0
    assert out == "x*y*q + x^2*y*q^2 + x^2*y^2*q^3 + x^3*y*q^3\n"


def test_gf_eval_counts(capsys):
    code, out, _ = run(capsys, "gf", "--class", "any", "--qbound", "4", "--eval", "x=1,y=1")
    assert code == 0
    assert out == "q + 2*q^2 + 4*q^3 + 8*q^4\n"


def test_gf_eval_signed(capsys):
    code, out, _ = run(capsys, "gf", "--class", "distinct", "--qbound", "6", "--eval", "x=1,y=-1")
    assert code == 0
    assert out == "-q - q^2 + q^4 + q^5\n"


def test_gf_env_default(capsys, monkeypatch):
    # the default q-truncation is DEFAULT_QBOUND; the environment does not change it
    plain = run(capsys, "gf", "--class", "distinct", "--eval", "x=1,y=1")
    monkeypatch.setenv("HOOKCOMB_QBOUND_DEFAULT", "2")
    assert run(capsys, "gf", "--class", "distinct", "--eval", "x=1,y=1") == plain
    assert plain[0] == 0 and plain[1].rstrip().endswith("610*q^15")


def test_gf_json(capsys):
    code, out, _ = run(capsys, "gf", "--class", "distinct", "--qbound", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["qbound"] == 2
    assert data["terms"][0] == {"coeff": 1, "exponents": {"x": 1, "y": 1, "q": 1}}


# ---------------------------------------------------------------------------
# verify


def test_verify_single_check(capsys):
    code, out, _ = run(capsys, "verify", "pentagonal-analogue", "--max-n", "30")
    assert code == 0
    assert out.startswith("[PASS] pentagonal-analogue")


def test_verify_unknown_check(capsys):
    code, _, err = run(capsys, "verify", "no-such-check")
    assert code == 2
    assert err.startswith("error: unknown check 'no-such-check' (known: all, andrews-identity, ")


def test_verify_all_reduced_depth(capsys):
    # each flag reaches only the checks that take it: --d only d-chain
    code, out, _ = run(
        capsys, "verify", "all", "--max-n", "8", "--qbound", "6", "--max-size", "12", "--enum-limit", "8", "--d", "2"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) >= 10
    assert all(line.startswith("[PASS]") for line in lines)
    assert lines == sorted(lines, key=lambda s: s.split()[1])  # ordered by check id
    assert [line for line in lines if " d-chain " in line] == ["[PASS] d-chain (d=2 max_n=8)"]
    assert "[PASS] franklin (max_size=12)" in lines


@pytest.mark.parametrize(
    "argv",
    [("verify", "all", "--max-n", "0"), ("verify", "rogers-fine", "--qbound", "-3")],
    ids=["all-max-n-0", "rogers-fine-qbound-neg"],
)
def test_verify_empty_range_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "PASS" not in out
    assert "must be at least" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("verify", "franklin", "--max-n", "3"), "max_n"),
        (("verify", "fibonacci", "--max-n", "3"), "max_n"),
        (("verify", "gf-coefficients", "--d", "2"), "d"),
        (("verify", "d-chain", "--d", "2", "--qbound", "5", "--max-size", "4"), "max_size, qbound"),
    ],
    ids=["franklin-max-n", "fibonacci-max-n", "gf-coefficients-d", "d-chain-two-flags"],
)
def test_verify_named_check_refuses_a_flag_it_does_not_take(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {argv[1]} does not take {flag}\n")


def test_verify_takes_both_fibonacci_ranges(capsys):
    code, out, err = run(capsys, "verify", "fibonacci", "--max-add", "3", "--max-div", "1")
    assert (code, out, err) == (0, "[PASS] fibonacci (max_add=3 max_div=1)\n", "")


def verify_flags() -> dict:
    """dest -> argparse action, for each option of the verify subcommand."""
    (subcommands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {action.dest: action for action in subcommands.choices["verify"]._actions}


def test_verify_has_a_flag_for_every_check_parameter():
    flags = verify_flags()
    missing = sorted({name for check in CHECKS.values() for name in check.params} - set(flags))
    assert missing == []
    assert flags["max_add"].option_strings == ["--max-add"] and flags["max_div"].option_strings == ["--max-div"]


def test_verify_flag_help_names_each_check_that_takes_it_and_its_default():
    flags = verify_flags()
    for cid, check in CHECKS.items():
        for name, (default, _) in check.params.items():
            shown = ", ".join(map(str, default)) if isinstance(default, tuple) else str(default)
            assert f"{cid} (default {shown}" in flags[name].help, (cid, name, flags[name].help)


def test_verify_all_reports_the_first_error_in_report_order(capsys):
    code, out, err = run(capsys, "verify", "all", "--max-n", "0")
    assert (code, out, err) == (2, "", "error: max_n must be at least 6, got 0\n")


def test_main_module_runs_nothing_when_imported_by_a_worker(capsys):
    # spawn and forkserver workers import the parent's main module under
    # this name; the CLI must not run there
    runpy.run_module("hookcomb.__main__", run_name="__mp_main__")
    assert capsys.readouterr() == ("", "")


def test_verify_failure_sets_exit_code(capsys, monkeypatch):
    def failing_scan():
        yield {"n": 1}

    monkeypatch.setitem(CHECKS, "always-fails", identities._Check(failing_scan, {}))
    code, out, _ = run(capsys, "verify", "always-fails")
    assert code == 1
    assert out.startswith("[FAIL] always-fails")
    assert "counterexample" in out


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "fibonacci", "--format", "json")
    assert code == 0
    (report,) = json.loads(out)
    assert report["check_id"] == "fibonacci"
    assert report["status"] == "pass"
    assert "elapsed_ms" in report


def test_verify_deterministic_text(capsys):
    a = run(capsys, "verify", "powers-of-two")
    b = run(capsys, "verify", "powers-of-two")
    assert a == b


# ---------------------------------------------------------------------------
# table


def test_table_1(capsys):
    code, out, _ = run(capsys, "table", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10
    assert lines[0] == "6,5,4,3 | 7,7,7"


def test_table_3(capsys):
    code, out, _ = run(capsys, "table", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[-1] == "5,2,1 | 5,1,1"


def test_table_4_grouped(capsys):
    code, out, _ = run(capsys, "table", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 18
    assert lines[0] == "1 | 1 | 1"
    assert lines[-1] == "5,3,1 | 7 | 6,4"


def test_table_bad_id(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "9"])
    assert exc.value.code == 2


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "3", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert rows[0] == {"perimeter": 7, "columns": [[5, 4, 3], [5, 5, 5]]}


# ---------------------------------------------------------------------------
# word


def test_word_decode(capsys):
    code, out, _ = run(capsys, "word", "ENENN")
    assert code == 0
    assert out == "2,2,1\n"


def test_word_encode(capsys):
    code, out, _ = run(capsys, "word", "--encode", "2,2,1")
    assert code == 0
    assert out == "ENENN\n"


@pytest.mark.parametrize(
    "word, message",
    [
        ("", "a profile word needs at least one letter"),
        ("N", "a profile word must start with E"),
        ("E", "a profile word must end with N"),
        ("NEN", "a profile word must start with E"),
        ("ENE", "a profile word must end with N"),
        ("EXN", "letter at index 1 is 'X', expected 'E' or 'N'"),
        ("eN", "letter at index 0 is 'e', expected 'E' or 'N'"),
    ],
    ids=["empty", "N", "E", "NEN", "ENE", "EXN", "eN"],
)
def test_malformed_word_is_refused(capsys, word, message):
    with pytest.raises(ValueError) as exc:
        from_profile(word)
    assert type(exc.value) is ValueError and str(exc.value) == message
    assert run(capsys, "word", word) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "parts, message, cli_message",
    [
        ([], "a partition must have at least one part", None),
        ([0], "part at index 0 is 0, expected a positive integer", None),
        ([1, 2], "part at index 1 (2) exceeds the previous part (1)", None),
        # the CLI reads digits as ints and passes any other piece on as text
        (
            [2, True],
            "part at index 1 is True, expected a positive integer",
            "part at index 1 is 'True', expected a positive integer",
        ),
    ],
    ids=["empty", "zero", "increasing", "bool"],
)
def test_malformed_partition_is_refused(capsys, parts, message, cli_message):
    with pytest.raises(ValueError) as exc:
        make_partition(parts)
    assert type(exc.value) is ValueError and str(exc.value) == message
    argv = ("word", "--encode", ",".join(map(str, parts)))
    assert run(capsys, *argv) == (2, "", f"error: {cli_message or message}\n")

