"""End-to-end command-line behavior via direct main() calls.

Exit-code contract: 0 success, 1 domain error, 2 usage error.
"""

import csv
import io
import json
import re
from pathlib import Path

import pytest

from conftest import corpus_records, make_synthetic_corpus, write_jsonl
from maiclass.classifiers import (
    ClassifierSpec,
    load_model,
    model_to_dict,
    save_model,
    train,
)
from maiclass.cli import main
from maiclass.errors import IoError
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


@pytest.mark.parametrize("flag, value", [("--runs", "0"), ("--runs", "-1"),
                                         ("--vocab", "0"),
                                         ("--per-class", "0")])
def test_eval_non_positive_count_is_usage_error(capsys, corpus_jsonl_path,
                                                flag, value):
    command = "validate" if flag == "--per-class" else "eval"
    code, _, err = run(capsys, command, corpus_jsonl_path, flag, value)
    assert code == 2
    assert "positive integer" in err


def test_eval_negative_seed_is_usage_error(capsys, corpus_jsonl_path):
    code, _, err = run(capsys, "eval", corpus_jsonl_path, "--seed", "-1")
    assert code == 2
    assert "non-negative integer" in err


@pytest.mark.parametrize("command", ["validate", "eval", "utest", "agreement",
                                     "reproduce", "load_model"])
def test_non_utf8_input_is_io_error(capsys, tmp_path, command):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"\xff1 2 3\n")
    good = tmp_path / "good.txt"
    good.write_text("4 5 6\n", encoding="utf-8")
    if command == "load_model":
        with pytest.raises(IoError):
            load_model(str(bad))
        return
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
                                     "reproduce", "load_model"])
def test_byte_order_mark_is_dropped(capsys, tmp_path, synthetic_corpus,
                                    command):
    # Spreadsheet exports often start with a UTF-8 byte-order mark.
    if command == "validate":
        write_jsonl(tmp_path / "plain.txt", corpus_records(synthetic_corpus))
        text = (tmp_path / "plain.txt").read_text(encoding="utf-8")
    elif command == "load_model":
        model = train(ClassifierSpec(algorithm="nb_bernoulli"),
                      ([[1.0, 0.0], [0.0, 1.0]], ["rock", "football"]))
        save_model(model, tmp_path / "plain.txt")
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
        if command == "load_model":
            outputs.append(model_to_dict(load_model(str(path))))
            continue
        argv = {"validate": ["validate", str(path)],
                "utest": ["utest", str(path), str(path)],
                "agreement": ["agreement", str(path)],
                "reproduce": ["reproduce", "--fixture", str(path)]}[command]
        outputs.append(run(capsys, *argv))
    assert outputs[0] == outputs[1]
    if command != "load_model":
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


def test_agreement_default_table(capsys):
    code, out, _ = run(capsys, "agreement")
    assert code == 0
    assert out.splitlines() == ["rock,50", "reenactment,100",
                                "football,100", "vegetarianism,100",
                                "control,90"]


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


def test_exit_codes_are_ints(capsys, corpus_jsonl_path):
    for argv in (["agreement"], ["validate", corpus_jsonl_path]):
        code = main(argv)
        capsys.readouterr()
        assert isinstance(code, int)
