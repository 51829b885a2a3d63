"""End-to-end command-line behavior via direct main() calls.

Exit-code contract: 0 success, 1 domain error, 2 usage error.
"""

import pytest

from conftest import corpus_records, make_synthetic_corpus, write_jsonl
from maiclass.cli import main


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
                                         ("--vocab", "0")])
def test_eval_non_positive_count_is_usage_error(capsys, corpus_jsonl_path,
                                                flag, value):
    code, _, err = run(capsys, "eval", corpus_jsonl_path, flag, value)
    assert code == 2
    assert "positive integer" in err


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
    code, out, _ = run(capsys, "reproduce", "--knn", "normalized")
    assert code == 0
    assert "U=" in out


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
