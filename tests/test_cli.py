import json
import sys

import pytest

from hookcomb.cli import (
    main,
    parse_class_spec,
    parse_eval_spec,
    parse_range,
    partitions_from_json,
)
from hookcomb.identities import CHECKS, TheoremReport
from hookcomb.partitions import DISTINCT, UNRESTRICTED, d_distinct, g_class


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


def test_parse_range():
    assert parse_range("7") == (7, 7)
    assert parse_range("1..10") == (1, 10)
    for bad in ("0", "5..2", "a..b", ".."):
        with pytest.raises(ValueError):
            parse_range(bad)


def test_parse_eval_spec():
    assert parse_eval_spec("x=1,y=-1") == {"x": 1, "y": -1}
    with pytest.raises(ValueError):
        parse_eval_spec("z=1")
    with pytest.raises(ValueError):
        parse_eval_spec("x=one")


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
    parsed = partitions_from_json(out)
    code2, text_out, _ = run(capsys, "enumerate", "--perimeter", "8", "--class", "odd")
    assert [",".join(map(str, p.parts)) for p in parsed] == text_out.splitlines()


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


def test_count_split_parity_needs_distinct(capsys):
    code, _, err = run(capsys, "count", "--perimeter", "1..3", "--class", "odd", "--split-parity")
    assert code == 2
    assert "split-parity" in err


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
    monkeypatch.setenv("HOOKCOMB_QBOUND_DEFAULT", "2")
    code, out, _ = run(capsys, "gf", "--class", "distinct")
    assert code == 0
    assert out == "x*y*q + x^2*y*q^2\n"


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
    assert "unknown check" in err


def test_verify_all_reduced_depth(capsys):
    code, out, _ = run(
        capsys, "verify", "all", "--max-n", "8", "--qbound", "6", "--max-size", "12", "--enum-limit", "8"
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) >= 10
    assert all(line.startswith("[PASS]") for line in lines)
    assert lines == sorted(lines, key=lambda s: s.split()[1])  # ordered by check id


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


def test_verify_failure_sets_exit_code(capsys, monkeypatch):
    def failing_check():
        return TheoremReport("always-fails", {}, "fail", counterexample={"n": 1})

    monkeypatch.setitem(CHECKS, "always-fails", failing_check)
    code, out, _ = run(capsys, "verify", "always-fails")
    assert code == 1
    assert out.startswith("[FAIL] always-fails")
    assert "counterexample" in out


def test_verify_rejects_bad_env_qbound(capsys, monkeypatch):
    monkeypatch.setenv("HOOKCOMB_QBOUND_DEFAULT", "abc")
    code, out, err = run(capsys, "verify", "rogers-fine")
    assert code == 2
    assert out == ""
    assert "HOOKCOMB_QBOUND_DEFAULT" in err


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


def test_table_columns_that_disagree_raise(monkeypatch):
    from hookcomb import cli

    real = cli.enumerate_by_perimeter

    def without_6321(n, c):
        return [p for p in real(n, c) if p.parts != (6, 3, 2, 1)]

    monkeypatch.setattr(cli, "enumerate_by_perimeter", without_6321)
    with pytest.raises(cli.TableColumnsDisagree):
        cli._table_rows(1)


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


def test_word_bad_input(capsys):
    code, _, err = run(capsys, "word", "NEN")
    assert code == 2
    assert err.startswith("error:")
