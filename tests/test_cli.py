"""End-to-end command-line behavior via direct main() calls.

Exit-code contract: 0 success, 1 domain error, 2 usage error.
"""

import contextlib
import csv
import io
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    corpus_records,
    make_synthetic_corpus,
    read_whole_text_lines,
    write_jsonl,
)
import maiclass
from maiclass import cli, corpus as corpus_module
from maiclass.cli import main
from maiclass.errors import IoError, MaiclassError
from maiclass.report import default_scores_path

# The reports `maiclass reproduce` prints for the packaged score grid, kept
# byte for byte so that no refactor of report.py can move them.
DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_passes(capsys, corpus_jsonl_path):
    code, out, err = run(capsys, "validate", corpus_jsonl_path)
    assert code == 0
    assert "PASS" in out
    assert err == ""


def test_validate_fails_on_unbalanced(capsys, tmp_path, synthetic_corpus):
    records = list(corpus_records(synthetic_corpus))[1:]  # drop one football
    path = write_jsonl(tmp_path / "unbalanced.jsonl", records)
    code, out, _ = run(capsys, "validate", path)
    assert code == 1
    assert "FAIL" in out


def test_validate_prints_line_breaks_in_labels_and_ids_escaped(
        capsys, tmp_path, synthetic_corpus):
    records = [dict(r, label={"football": "rock\nmetal",
                              "rock": "cr\rlf"}.get(r["label"], r["label"]))
               for r in corpus_records(synthetic_corpus)]
    records.append(dict(records[-1], id="empty\npage", text="#tag"))
    path = write_jsonl(tmp_path / "breaks.jsonl", records)
    code, out, _ = run(capsys, "validate", path)
    assert code == 1
    lines = out.splitlines()
    assert "  rock\\nmetal: 30" in lines
    assert "  cr\\rlf: 30" in lines
    assert "documents normalizing to no tokens: empty\\npage" in lines
    assert lines[-1] == "result: FAIL"


def test_validate_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "validate", str(tmp_path / "absent.jsonl"))
    assert code == 1
    assert err.startswith("error: IoError")


def test_validate_malformed_corpus(capsys, tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"id": "a"}\n', encoding="utf-8")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1
    assert err.startswith("error: ParseError")


@pytest.mark.parametrize("command", ["validate", "eval"])
def test_deeply_nested_corpus_line_is_parse_error(capsys, tmp_path,
                                                  synthetic_corpus, command):
    lines = [json.dumps(r) for r in corpus_records(synthetic_corpus)]
    lines[4] = "{\"a\": " * 100_000 + "1" + "}" * 100_000
    path = tmp_path / "deep.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(capsys, command, str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ParseError")
    assert "line 5" in err


@pytest.mark.skipif(not sys.get_int_max_str_digits(),
                    reason="integer string conversion has no digit limit")
def test_oversized_integer_corpus_line_is_parse_error(capsys, tmp_path):
    path = tmp_path / "long.jsonl"
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    path.write_text('{"id": ' + digits + "}\n", encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ParseError: line 1: ")
    assert "Traceback" not in err


def test_validate_tells_a_backslash_from_a_line_break(capsys, tmp_path,
                                                      synthetic_corpus):
    # "a\nb" holds a line feed, "a\\nb" a backslash and an n: printed, a
    # backslash is doubled so the two cannot look alike.
    renamed = {"football": "a\nb", "rock": "a\\nb"}
    records = [dict(r, label=renamed.get(r["label"], r["label"]))
               for r in corpus_records(synthetic_corpus)]
    path = write_jsonl(tmp_path / "backslash.jsonl", records)
    code, out, _ = run(capsys, "validate", path)
    assert code == 0
    lines = out.splitlines()
    assert "  a\\nb: 30" in lines
    assert "  a\\\\nb: 30" in lines


def test_eval_markdown_tells_a_backslash_from_a_line_break(capsys, tmp_path,
                                                           synthetic_corpus):
    renamed = {"football": "a\nb", "rock": "a\\nb"}
    records = [dict(r, label=renamed.get(r["label"], r["label"]))
               for r in corpus_records(synthetic_corpus)]
    path = write_jsonl(tmp_path / "backslash.jsonl", records)
    code, out, _ = run(capsys, "eval", path, "--model", "plain", "--algo",
                       "knn", "--runs", "1", "--format", "markdown")
    assert code == 0
    cells = [line.split(" | ")[2] for line in out.splitlines()[2:]]
    assert cells == ["a\\nb", "a\\\\nb", "vegetarianism"]


def test_eval_deterministic(capsys, corpus_jsonl_path):
    argv = ("eval", corpus_jsonl_path, "--model", "bernoulli",
            "--algo", "nb_multinomial", "--runs", "2", "--seed", "7")
    code_a, out_a, _ = run(capsys, *argv)
    code_b, out_b, _ = run(capsys, *argv)
    assert code_a == code_b == 0
    assert out_a == out_b
    assert out_a.startswith("algorithm,vector_model,class,")


def test_eval_markdown_format(capsys, corpus_jsonl_path):
    code, out, _ = run(capsys, "eval", corpus_jsonl_path,
                       "--model", "plain", "--algo", "knn",
                       "--runs", "1", "--format", "markdown")
    assert code == 0
    assert out.splitlines()[0] == "| algorithm | vector model | class | mean F1 |"
    assert "| knn | plain_freq |" in out


def test_eval_outputs_parse_back_labels_with_separators(capsys, tmp_path,
                                                        synthetic_corpus):
    renamed = {"football": "rock, metal", "rock": 'say "hi" | bye',
               "vegetarianism": "rock\nmetal"}
    records = [dict(r, label=renamed.get(r["label"], r["label"]))
               for r in corpus_records(synthetic_corpus)]
    path = write_jsonl(tmp_path / "labels.jsonl", records)
    labels = ["rock, metal", 'say "hi" | bye', "rock\nmetal"]
    argv = ("eval", path, "--model", "plain", "--algo", "knn", "--runs", "1")

    code, out, _ = run(capsys, *argv)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["algorithm", "vector_model", "class", "run_1",
                       "mean_f1"]
    assert all(len(row) == 5 for row in rows)
    assert [row[2] for row in rows[1:]] == labels

    code, out, _ = run(capsys, *argv, "--format", "markdown")
    assert code == 0
    # One table row per line; cells split on unescaped pipes, and the
    # outer pipes leave empty ends.
    table = [[cell.strip().replace("\\|", "|").replace("\\n", "\n")
              for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
             for line in out.splitlines()]
    assert all(len(row) == 4 for row in table)
    assert [row[2] for row in table[2:]] == labels


def test_eval_out_file(capsys, tmp_path, corpus_jsonl_path):
    target = tmp_path / "results.csv"
    code, out, _ = run(capsys, "eval", corpus_jsonl_path,
                       "--model", "norm", "--algo", "nb_gaussian",
                       "--runs", "1", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8").startswith(
        "algorithm,vector_model,class,")


def test_eval_bad_model_flag(capsys, corpus_jsonl_path):
    code, _, err = run(capsys, "eval", corpus_jsonl_path,
                       "--model", "bogus")
    assert code == 2
    assert "invalid choice" in err


# int() reads "1_0" as 10, an Arabic-Indic three as 3 and a fullwidth
# five as 5; none of them is an ASCII integer.
@pytest.mark.parametrize("flag, value", [("--runs", "0"), ("--runs", "-1"),
                                         ("--runs", "1_0"),
                                         ("--runs", "\u0663"),
                                         ("--runs", "\uff15"),
                                         ("--runs", "2.0"),
                                         ("--vocab", "0"),
                                         ("--vocab", "1_000"),
                                         ("--per-class", "0"),
                                         ("--per-class", "\uff13\uff10")])
def test_bad_count_is_usage_error(capsys, corpus_jsonl_path, flag, value):
    command = "validate" if flag == "--per-class" else "eval"
    code, out, err = run(capsys, command, corpus_jsonl_path, flag, value)
    assert code == 2
    assert out == ""
    assert "positive integer" in err


@pytest.mark.parametrize("value", ["-1", "1_0", "\u0663", "\uff15", ""])
def test_bad_seed_is_usage_error(capsys, corpus_jsonl_path, value):
    code, out, err = run(capsys, "eval", corpus_jsonl_path, "--seed", value)
    assert code == 2
    assert out == ""
    assert "non-negative integer" in err


def test_count_options_take_ascii_integers_as_int_reads_them():
    parse = cli._int_option(1)
    assert [parse(text) for text in ("7", " 7", "+7", "007")] == [7] * 4
    assert cli._int_option(0)("0") == 0


@pytest.mark.parametrize("command", ["validate", "eval", "utest", "agreement",
                                     "reproduce"])
def test_non_utf8_input_is_io_error(capsys, tmp_path, command):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"\xff1 2 3\n")
    good = tmp_path / "good.txt"
    good.write_text("4 5 6\n", encoding="utf-8")
    argv = {"validate": ["validate", str(bad)],
            "eval": ["eval", str(bad)],
            "utest": ["utest", str(good), str(bad)],
            "agreement": ["agreement", str(bad)],
            "reproduce": ["reproduce", "--fixture", str(bad)]}[command]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: IoError")


@pytest.mark.parametrize("command", ["validate", "utest", "agreement",
                                     "reproduce"])
def test_byte_order_mark_is_dropped(capsys, tmp_path, synthetic_corpus,
                                    command):
    # Spreadsheet exports often start with a UTF-8 byte-order mark.
    if command == "validate":
        write_jsonl(tmp_path / "plain.txt", corpus_records(synthetic_corpus))
        text = (tmp_path / "plain.txt").read_text(encoding="utf-8")
    else:
        text = {"utest": "1 2 3\n",
                "agreement": "rock,football\n1,1\n0,1\n",
                "reproduce": default_scores_path().read_text(
                    encoding="utf-8")}[command]
    outputs = []
    for name, prefix in (("plain.txt", b""), ("bom.txt", b"\xef\xbb\xbf")):
        path = tmp_path / name
        path.write_bytes(prefix + text.encode("utf-8"))
        argv = {"validate": ["validate", str(path)],
                "utest": ["utest", str(path), str(path)],
                "agreement": ["agreement", str(path)],
                "reproduce": ["reproduce", "--fixture", str(path)]}[command]
        outputs.append(run(capsys, *argv))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0


@pytest.mark.parametrize("command, to_file", [("validate", False),
                                              ("eval", False),
                                              ("eval", True)])
def test_lone_surrogate_label_is_parse_error(capsys, tmp_path,
                                             synthetic_corpus, command,
                                             to_file):
    # A label that cannot be encoded would end as a traceback when printed.
    records = list(corpus_records(synthetic_corpus))
    records[2]["label"] = "\ud800x"
    path = tmp_path / "surrogate.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records),
                    encoding="utf-8")
    target = tmp_path / "results.csv"
    argv = [command, str(path)] + (["--out", str(target)] if to_file else [])
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ParseError: line 3: ")
    assert not target.exists()


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 2
    assert err != ""


def test_no_arguments(capsys):
    assert run(capsys, *[])[0] == 2


def test_utest_output(capsys, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("1, 2 3\n4\n", encoding="utf-8")
    b.write_text("5\n6\n7\n8\n", encoding="utf-8")
    code, out, _ = run(capsys, "utest", str(a), str(b))
    assert code == 0
    assert out.startswith("U1=0.0 U2=16.0 ")
    assert "method=exact" in out
    assert "n1=4, n2=4" in out


def test_utest_exact_z_matches_its_continuity_off(capsys, tmp_path):
    # U1 = U2, so with no continuity correction on the exact path z is 0.
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("inf -inf\n", encoding="utf-8")
    b.write_text("1 2 3\n", encoding="utf-8")
    code, out, _ = run(capsys, "utest", str(a), str(b))
    assert code == 0
    assert out.startswith("U1=3.0 U2=3.0 z=0.0000 p=1 ")
    assert "method=exact, continuity=off" in out


def test_utest_forced_normal(capsys, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("1 2 3 4\n", encoding="utf-8")
    b.write_text("5 6 7 8\n", encoding="utf-8")
    code, out, _ = run(capsys, "utest", str(a), str(b),
                       "--method", "normal", "--no-continuity")
    assert code == 0
    assert "method=normal" in out
    assert "continuity=off" in out


def test_utest_exact_on_tied_samples_is_domain_error(capsys, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("1 2 2\n", encoding="utf-8")
    b.write_text("3 4\n", encoding="utf-8")
    code, out, err = run(capsys, "utest", str(a), str(b), "--method", "exact")
    assert code == 1
    assert out == ""
    assert err.startswith("error: Unsupported")


def test_utest_nan_is_domain_error(capsys, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("1 2 3\n", encoding="utf-8")
    b.write_text("nan 1\n", encoding="utf-8")
    code, out, err = run(capsys, "utest", str(a), str(b))
    assert code == 1
    assert out == ""
    assert err.startswith("error: NumericalFailure")


def test_utest_exact_above_size_limit_is_domain_error(capsys, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text(" ".join(str(v) for v in range(100)), encoding="utf-8")
    b.write_text(" ".join(str(v + 0.5) for v in range(100)),
                 encoding="utf-8")
    code, out, err = run(capsys, "utest", str(a), str(b), "--method", "exact")
    assert code == 1
    assert out == ""
    assert err.startswith("error: Unsupported")


def test_utest_empty_sample(capsys, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("", encoding="utf-8")
    b.write_text("1 2\n", encoding="utf-8")
    code, _, err = run(capsys, "utest", str(a), str(b))
    assert code == 1
    assert err.startswith("error: EmptySample")


def test_utest_bad_number(capsys, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("1 two\n", encoding="utf-8")
    b.write_text("3\n", encoding="utf-8")
    code, _, err = run(capsys, "utest", str(a), str(b))
    assert code == 1
    assert err.startswith("error: ParseError")


@pytest.mark.parametrize("token", ["1_0", "\u0663", "\uff11"])
def test_utest_rejects_python_only_number_spellings(capsys, tmp_path, token):
    # float() reads "1_0" as 10, an Arabic-Indic or fullwidth digit as its
    # value; a sample file means none of them.
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text(f"1\n{token} 2\n", encoding="utf-8")
    b.write_text("3 4\n", encoding="utf-8")
    code, out, err = run(capsys, "utest", str(a), str(b))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ParseError: line 2: not a number:")


def test_utest_names_the_line_a_line_separator_sits_on(capsys, tmp_path):
    # U+2028 separates numbers as any whitespace does, but it does not end
    # a line: the bad token is on line 1 of a one-line file.
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("1 2\u20283 x", encoding="utf-8")
    b.write_text("3 4\n", encoding="utf-8")
    code, out, err = run(capsys, "utest", str(a), str(b))
    assert code == 1
    assert out == ""
    assert err == "error: ParseError: line 1: not a number: 'x'\n"


def test_utest_reads_nan_and_inf_spellings(capsys, tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("1e0 -inf +2.5\n", encoding="utf-8")
    b.write_text("Infinity 4\n", encoding="utf-8")
    code, out, _ = run(capsys, "utest", str(a), str(b))
    assert code == 0
    assert out.startswith("U1=0.0 U2=6.0 ")


def test_agreement_default_table(capsys):
    code, out, _ = run(capsys, "agreement")
    assert code == 0
    assert out.splitlines() == ["rock,50", "reenactment,100",
                                "football,100", "vegetarianism,100",
                                "control,90"]


def test_agreement_names_the_file_line_past_blank_lines(capsys, tmp_path):
    table = tmp_path / "votes.csv"
    table.write_text("a,b\n\n1,0\n\f\n1,2\n", encoding="utf-8")
    code, out, err = run(capsys, "agreement", str(table))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ParseError: line 5: votes must be 0 or 1")


def test_agreement_custom_table(capsys, tmp_path):
    table = tmp_path / "votes.csv"
    table.write_text("a,b\n1,0\n1,1\n", encoding="utf-8")
    code, out, _ = run(capsys, "agreement", str(table))
    assert code == 0
    assert out.splitlines() == ["a,100", "b,50"]


def test_reproduce_markdown(capsys):
    code, out, _ = run(capsys, "reproduce")
    assert code == 0
    assert out.startswith("# Reference reproduction")
    assert "U=2562.0" in out


def test_reproduce_csv(capsys):
    code, out, _ = run(capsys, "reproduce", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "section,label,computed,reference,status"


@pytest.mark.parametrize("argv, golden", [
    ((), "reproduce.md"),
    (("--format", "csv"), "reproduce.csv"),
])
def test_reproduce_matches_golden_report(capsys, argv, golden):
    code, out, _ = run(capsys, "reproduce", *argv)
    assert code == 0
    assert out == (DATA / golden).read_text(encoding="utf-8")


def test_reproduce_out_file(capsys, tmp_path):
    target = tmp_path / "report.md"
    code, out, _ = run(capsys, "reproduce", "--out", str(target))
    assert code == 0
    assert out == ""
    assert "U=2562.0" in target.read_text(encoding="utf-8")


def test_reproduce_missing_fixture(capsys, tmp_path):
    code, _, err = run(capsys, "reproduce", "--fixture",
                       str(tmp_path / "no.tsv"))
    assert code == 1
    assert err.startswith("error: IoError")


@pytest.mark.parametrize("token", ["1_0", "\u0663", "\uff11"])
def test_reproduce_rejects_python_only_number_spellings(capsys, tmp_path,
                                                        token):
    lines = default_scores_path().read_text(encoding="utf-8").splitlines()
    lines[5] = lines[5].rsplit("\t", 1)[0] + "\t" + token
    fixture = tmp_path / "scores.tsv"
    fixture.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "reproduce", "--fixture", str(fixture))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ParseError: line 6: bad score")


def test_reproduce_fixture_header_ending_in_vertical_tab(capsys, tmp_path):
    # A vertical tab does not end the header line; the header is then not
    # the expected one, on line 1.
    lines = default_scores_path().read_text(encoding="utf-8").split("\n")
    lines[0] += "\x0b"
    fixture = tmp_path / "scores.tsv"
    fixture.write_text("\n".join(lines), encoding="utf-8")
    code, out, err = run(capsys, "reproduce", "--fixture", str(fixture))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ParseError: line 1: expected header")


def test_reproduce_knn_variant(capsys):
    # The reproduction is fixed: no flag moves it off the published numbers.
    for flags in (("--knn", "normalized"), ("--continuity",)):
        code, out, err = run(capsys, "reproduce", *flags)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err


def test_small_corpus_eval_reports_domain_error(capsys, tmp_path):
    corpus = make_synthetic_corpus(docs_per_class=1)
    path = write_jsonl(tmp_path / "tiny.jsonl", corpus_records(corpus))
    code, _, err = run(capsys, "eval", str(path), "--model", "bernoulli",
                       "--algo", "knn", "--runs", "1")
    assert code == 1
    assert err.startswith("error: RunFailure")
    assert "ClassTooSmall" in err


def test_eval_failure_names_the_failing_cell(capsys, tmp_path):
    # With one keyword, carried the same number of times by every document,
    # every row is the same under every vector model. The first cell scored,
    # (plain_freq, svm_linear), sees a constant kernel matrix; alone,
    # Gaussian NB sees a constant feature.
    corpus = make_synthetic_corpus(docs_per_class=6)
    records = [dict(record, text=record["text"] + " common" * 12)
               for record in corpus_records(corpus)]
    path = write_jsonl(tmp_path / "common.jsonl", records)
    for algo, cell in (("all", "svm_linear"), ("nb_gaussian", "nb_gaussian")):
        code, out, err = run(capsys, "eval", str(path), "--vocab", "1",
                             "--runs", "1", "--algo", algo)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: RunFailure: run 0 (plain_freq, {cell}):"
                              f" NumericalFailure: {cell}: ")


def test_exit_codes_are_ints(capsys, corpus_jsonl_path):
    for argv in (["agreement"], ["validate", corpus_jsonl_path]):
        code = main(argv)
        capsys.readouterr()
        assert isinstance(code, int)


# Fuzzing the three text inputs read by commands other than validate/eval:
# whatever the bytes, each command must end with exit 0, 1 or 2 inside five
# seconds, and never with an uncaught exception (a traceback), a NaN in its
# output or a NumPy warning, which pyproject.toml turns into an error. The
# agreement table is exempt from the NaN check only because its column names
# are printed as given. Half the inputs are drawn well formed, so that they
# reach the statistics; the rest are any text or any bytes.
_FUZZ = settings(max_examples=60, deadline=None)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _fuzz_run(argv, names_printed=False):
    def expire(signum, frame):
        raise TimeoutError(f"maiclass {argv} ran for over 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if not names_printed:
        assert not re.search(r"\bnan\b", out.getvalue(), re.IGNORECASE)
    return code


def _or_any(text):
    """``text`` encoded in half the draws; any text or any bytes otherwise."""
    encoded = text.map(str.encode)
    return st.one_of(encoded, encoded, st.text().map(str.encode), st.binary())


_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
_NUMBER = st.one_of(
    st.integers(-3, 3).map(str), st.integers(-3, 3).map(str),
    st.floats().map(repr),
    st.sampled_from(["1e999", "-1e999", "1e-320", "-0", "1_0", "\u0663",
                     "0x1", ".", "\ufeff"]))
_SAMPLE = st.lists(st.tuples(_NUMBER, st.sampled_from(
    [" ", ",", ", ", "\t", "\n", "\r\n", "\u00a0", "\u2028"])),
    min_size=1, max_size=30).map(
        lambda pairs: "".join(a + b for a, b in pairs))


@_FUZZ
@given(a=_or_any(_SAMPLE), b=_or_any(_SAMPLE),
       method=st.sampled_from(["auto", "normal", "exact"]),
       continuity=st.booleans())
def test_fuzzed_utest_samples_end_cleanly(fuzz_dir, a, b, method,
                                          continuity):
    (fuzz_dir / "a.txt").write_bytes(a)
    (fuzz_dir / "b.txt").write_bytes(b)
    argv = ["utest", str(fuzz_dir / "a.txt"), str(fuzz_dir / "b.txt"),
            "--method", method]
    _fuzz_run(argv if continuity else argv + ["--no-continuity"])


@st.composite
def _vote_table(draw):
    width = draw(st.integers(1, 4))
    header = draw(st.lists(st.text(max_size=4), min_size=width,
                           max_size=width))
    rows = draw(st.lists(st.lists(
        st.sampled_from(["0", "1", " 1", "0 ", "2", "", "\u00b9"]),
        min_size=width, max_size=width), min_size=1, max_size=5))
    end = draw(_LINE_ENDS)
    return "".join(",".join(cells) + end for cells in [header] + rows)


@_FUZZ
@given(table=_or_any(_vote_table()))
def test_fuzzed_agreement_table_ends_cleanly(fuzz_dir, table):
    (fuzz_dir / "votes.csv").write_bytes(table)
    _fuzz_run(["agreement", str(fuzz_dir / "votes.csv")], names_printed=True)


@st.composite
def _score_fixture(draw):
    """The packaged score grid with scores redrawn and a few fields edited.

    Scores redrawn inside [0, 1] reach the statistics, ties and all.
    """
    lines = default_scores_path().read_text(encoding="utf-8").splitlines()
    scores = draw(st.lists(st.sampled_from(["0", "0.5", "1", "1e-320"]),
                           max_size=len(lines) - 1))
    for row, score in enumerate(scores, start=1):
        lines[row] = lines[row].rsplit("\t", 1)[0] + "\t" + score
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        row = draw(st.integers(0, len(lines) - 1))
        fields = lines[row].split("\t")
        fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(
            ["", " ", "0.5 ", "1.0000001", "nan", "inf", "x", "\t", "knn",
             "t_en", "rock", "\u00bd"]))
        lines[row] = "\t".join(fields)
    return draw(_LINE_ENDS).join(lines)


@_FUZZ
@given(fixture=_or_any(_score_fixture()),
       fmt=st.sampled_from(["markdown", "csv"]))
def test_fuzzed_score_fixture_ends_cleanly(fuzz_dir, fixture, fmt):
    (fuzz_dir / "scores.tsv").write_bytes(fixture)
    _fuzz_run(["reproduce", "--fixture", str(fuzz_dir / "scores.tsv"),
               "--format", fmt])


# Corpus files: records whose strings hold a raw U+2028 or U+0085 (neither
# ends a record), records cut short, blank and other lines, LF, CRLF or
# lone-CR line ends, an optional BOM and final line end, and an optional
# invalid UTF-8 sequence anywhere. Each must load as the whole-file read
# loaded it. validate prints labels and ids as given, so NaN is allowed.
_CORPUS_STRING = st.text(st.sampled_from(
    list("ab Жя#!,\t\"\\") + ["\U0001F3B8", "\u2028", "\u0085", "\r", "\n"]),
    max_size=8)


@st.composite
def _corpus_bytes(draw):
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["record"] * 4 + ["cut", "blank",
                                                      "other"]))
        if kind in ("record", "cut"):
            record = {
                "id": draw(st.sampled_from(["p1", "p2", "p3", "p4", "p5",
                                            "p6", ""])),
                "network": draw(st.sampled_from(["twitter", "vkontakte",
                                                 "twitter", "x"])),
                "language": draw(st.sampled_from(["en", "ru"])),
                "label": draw(st.sampled_from(["a", "b", "a\u2028b"])),
                "text": draw(_CORPUS_STRING),
            }
            line = json.dumps(record, ensure_ascii=draw(st.booleans()))
            if kind == "cut":
                line = line[:draw(st.integers(0, len(line) - 1))]
            lines.append(line)
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "\u2028"])))
        else:
            lines.append(draw(st.text(max_size=10)))
    text = "".join(line + draw(_LINE_ENDS) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    data = text.encode("utf-8")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(data)))
        bad = draw(st.sampled_from([b"\xff", b"\x80", b"\xc3",
                                    b"\xed\xa0\x80"]))
        data = data[:at] + bad + data[at:]
    return data


def _load_outcome(path):
    """The corpus, or the error's type and message; an IoError message
    quotes a decoder position that depends on how the file was read."""
    try:
        return corpus_module.load_corpus(path)
    except MaiclassError as exc:
        return type(exc), "" if isinstance(exc, IoError) else str(exc)


@_FUZZ
@given(data=st.one_of(_corpus_bytes(), _corpus_bytes(), st.binary()))
def test_fuzzed_corpus_reads_as_whole_text_and_ends_cleanly(fuzz_dir, data):
    path = fuzz_dir / "corpus.jsonl"
    path.write_bytes(data)
    outcome = _load_outcome(str(path))
    with mock.patch.object(corpus_module, "_read_lines",
                           read_whole_text_lines):
        assert outcome == _load_outcome(str(path))
    for argv in (["validate", str(path), "--per-class", "1"],
                 ["eval", str(path), "--model", "bernoulli", "--algo",
                  "nb_multinomial", "--runs", "1", "--vocab", "5"]):
        assert _fuzz_run(argv, names_printed=True) in (0, 1)


# A ParseError's line number counts lines ended by LF, CRLF or a lone CR
# only. The other characters str.splitlines() ends a line at sit inside
# lines here, as separators between numbers and as whitespace-only lines.
# No line is empty, so a lone CR never meets the LF of the next line.
_INLINE_SPACE = st.sampled_from([" ", "\t", "\u2028", "\u2029", "\x0b",
                                 "\x0c", "\x1c", "\x1e", "\x85"])
_BLANK = st.lists(_INLINE_SPACE, min_size=1, max_size=3).map("".join)


def _file_lines(draw, lines):
    """``lines`` joined by drawn line ends, with or without a final one."""
    ends = draw(st.lists(_LINE_ENDS, min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text[:-len(ends[-1])]


def _insert_blanks(draw, lines, start):
    """Whitespace-only lines put between ``lines[start:]``."""
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(start, len(lines))), draw(_BLANK))


@st.composite
def _sample_with_bad_token(draw):
    lines = [draw(_INLINE_SPACE).join(draw(st.lists(
        st.sampled_from(["1", "-2", "3.5", "nan"]), min_size=1, max_size=3)))
        for _ in range(draw(st.integers(0, 4)))]
    _insert_blanks(draw, lines, 0)
    at = draw(st.integers(0, len(lines)))
    lines.insert(at, "1" + draw(_INLINE_SPACE) + "x")
    return _file_lines(draw, lines), at + 1


@st.composite
def _votes_with_bad_cell(draw):
    lines = ["a,b"] + draw(st.lists(st.sampled_from(["0,1", "1,1", "1,0"]),
                                    min_size=1, max_size=4))
    _insert_blanks(draw, lines, 1)
    at = draw(st.integers(1, len(lines)))
    lines.insert(at, "1,2")
    return _file_lines(draw, lines), at + 1


@st.composite
def _scores_with_bad_score(draw):
    lines = default_scores_path().read_text(encoding="utf-8").split("\n")
    lines = [line for line in lines if line]
    row = draw(st.integers(1, len(lines) - 1))
    lines[row] = lines[row].rsplit("\t", 1)[0] + "\tx"
    _insert_blanks(draw, lines, 1)
    return _file_lines(draw, lines), lines.index(
        next(line for line in lines if line.endswith("\tx"))) + 1


def _error_of(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=40, deadline=None)
@given(case=st.one_of(
    _sample_with_bad_token().map(lambda c: ("utest", "'x'") + c),
    _votes_with_bad_cell().map(lambda c: ("agreement", "'2'") + c),
    _scores_with_bad_score().map(lambda c: ("reproduce", "'x'") + c)))
def test_parse_error_names_the_line_holding_the_bad_token(fuzz_dir, case):
    command, token, text, line = case
    path = fuzz_dir / "input.txt"
    path.write_bytes(text.encode("utf-8"))
    (fuzz_dir / "other.txt").write_text("3 4\n", encoding="utf-8")
    argv = {"utest": ["utest", str(path), str(fuzz_dir / "other.txt")],
            "agreement": ["agreement", str(path)],
            "reproduce": ["reproduce", "--fixture", str(path)]}[command]
    code, err = _error_of(argv)
    assert code == 1
    assert err.startswith(f"error: ParseError: line {line}: ")
    assert err.rstrip("\n").endswith(token)
    assert token.strip("'") in re.split(r"\r\n|\r|\n", text)[line - 1]


# Every module `import maiclass.cli` loads: the import set the CLI's startup
# time pays for. A new import, or a module deleted, must change this list.
CLI_IMPORTS = [
    "maiclass", "maiclass._core", "maiclass.classifiers",
    "maiclass.classifiers.kernels", "maiclass.classifiers.linear",
    "maiclass.classifiers.mlp", "maiclass.classifiers.naive_bayes",
    "maiclass.classifiers.neighbors", "maiclass.classifiers.svm",
    "maiclass.classifiers.tree", "maiclass.cli", "maiclass.corpus",
    "maiclass.errors", "maiclass.evaluate", "maiclass.features",
    "maiclass.optim", "maiclass.report", "maiclass.stats",
]


def test_cli_import_loads_a_fixed_set_of_modules():
    code = ("import maiclass.cli, sys; print(*sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'maiclass'))")
    src = str(Path(maiclass.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, encoding="utf-8").stdout
    assert out.split() == CLI_IMPORTS
