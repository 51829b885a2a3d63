"""Score-grid loading, selection rules, and the reproduction report."""

import math

import pytest

from maiclass.errors import (
    IncompleteRule,
    IoError,
    MissingCell,
    ParseError,
    RangeError,
)
from maiclass.classifiers import ALGORITHMS
from maiclass.features import VECTOR_MODELS
from maiclass.report import (
    CORPORA,
    MAIS,
    MATCH_TOL,
    REFERENCE_BLOCK_MEANS,
    REFERENCE_MEDIANS,
    REFERENCE_PERFECT_COUNTS,
    REFERENCE_ROW_SUMS,
    REFERENCE_SUMMARIES,
    ScoreTable,
    default_scores_path,
    default_selection_rule,
    flat_scores,
    fmt3,
    load_agreement,
    load_scores,
    render_report,
    reproduce_stats,
    select_scores,
    summarize_mai,
    SelectionRule,
)
from maiclass.stats import describe, percent_agreement


@pytest.fixture(scope="module")
def table():
    return load_scores()


@pytest.fixture(scope="module")
def selected(table):
    return select_scores(table)


def tampered_fixture(tmp_path, mutate):
    """Copy the packaged grid through ``mutate(lines) -> lines``."""
    lines = default_scores_path().read_text(encoding="utf-8").splitlines()
    out = tmp_path / "scores.tsv"
    out.write_text("\n".join(mutate(lines)) + "\n", encoding="utf-8")
    return out


FIRST_DATA = "bernoulli\tsvm_linear\tvk_ru\tfootball\t"


def test_full_grid_loads(table):
    assert len(table.cells) == 3 * 12 * 3 * 3 == 324
    assert table.value("bernoulli", "svm_linear", "vk_ru",
                       "football") == 0.958


def test_missing_cell_error(table):
    with pytest.raises(MissingCell) as err:
        table.value("bernoulli", "svm_linear", "vk_ru", "chess")
    assert err.value.key == ("bernoulli", "svm_linear", "vk_ru", "chess")


def test_blank_score_surfaces_as_missing_cell(tmp_path):
    def blank(lines):
        lines[1] = FIRST_DATA
        return lines

    with pytest.raises(MissingCell) as err:
        load_scores(tampered_fixture(tmp_path, blank))
    assert err.value.key == ("bernoulli", "svm_linear", "vk_ru", "football")


def test_out_of_range_score(tmp_path):
    with pytest.raises(RangeError):
        load_scores(tampered_fixture(
            tmp_path, lambda ls: [ls[0], FIRST_DATA + "1.2"] + ls[2:]))


def test_duplicate_cell(tmp_path):
    with pytest.raises(ParseError) as err:
        load_scores(tampered_fixture(tmp_path, lambda ls: ls + [ls[1]]))
    assert err.value.line == 326


def test_bad_header(tmp_path):
    with pytest.raises(ParseError) as err:
        load_scores(tampered_fixture(
            tmp_path, lambda ls: [ls[0].replace("\t", ",")] + ls[1:]))
    assert err.value.line == 1


def test_unknown_enum_value(tmp_path):
    with pytest.raises(ParseError):
        load_scores(tampered_fixture(
            tmp_path,
            lambda ls: [ls[0], ls[1].replace("bernoulli", "tfidf")] + ls[2:]))


def test_wrong_field_count(tmp_path):
    with pytest.raises(ParseError):
        load_scores(tampered_fixture(
            tmp_path, lambda ls: [ls[0], ls[1].rsplit("\t", 1)[0]] + ls[2:]))


def test_unparseable_score(tmp_path):
    with pytest.raises(ParseError):
        load_scores(tampered_fixture(
            tmp_path, lambda ls: [ls[0], FIRST_DATA + "high"] + ls[2:]))


def test_missing_file(tmp_path):
    with pytest.raises(IoError):
        load_scores(str(tmp_path / "absent.tsv"))


def test_reference_row_sums(table):
    for model, clf, ref in REFERENCE_ROW_SUMS:
        assert fmt3(table.row_sum(model, clf)) == fmt3(ref)


def test_perfect_counts(table):
    for model in VECTOR_MODELS:
        recount = sum(1 for key, v in table.cells.items()
                      if key[0] == model and v == 1.0)
        assert table.perfect_count(model) == recount \
            == REFERENCE_PERFECT_COUNTS[model]


def test_block_means(table):
    for model in VECTOR_MODELS:
        vals = table.block_values(model)
        assert len(vals) == 108
        assert abs(table.block_mean(model)
                   - REFERENCE_BLOCK_MEANS[model]) <= 0.001
        assert table.block_mean(model) \
            == pytest.approx(math.fsum(vals) / 108)


def test_selection_shapes(selected):
    for mai in MAIS:
        assert len(flat_scores(selected, mai)) == 72
        for corpus in CORPORA:
            assert len(selected[mai][corpus]) == 24


def test_either_assignments_are_interchangeable(table):
    base = dict(default_selection_rule().assignments)
    as_plain = dict(base, nb_multinomial="plain", nb_gaussian="plain")
    as_norm = dict(base, nb_multinomial="normalized",
                   nb_gaussian="normalized")
    sel_a = select_scores(table, SelectionRule(assignments=as_plain))
    sel_b = select_scores(table, SelectionRule(assignments=as_norm))
    assert sel_a == sel_b


def test_incomplete_rule_errors():
    with pytest.raises(IncompleteRule):
        SelectionRule(assignments={})
    short = dict(default_selection_rule().assignments)
    del short["knn"]
    with pytest.raises(IncompleteRule):
        SelectionRule(assignments=short)
    bad = dict(default_selection_rule().assignments, knn="sometimes")
    with pytest.raises(IncompleteRule):
        SelectionRule(assignments=bad)
    extra = dict(default_selection_rule().assignments, random_forest="plain")
    with pytest.raises(IncompleteRule):
        SelectionRule(assignments=extra)


def test_default_rule_knn_flag(table):
    plain = default_selection_rule()
    assert plain.variant_model("knn") == "plain_freq"
    flipped = default_selection_rule(knn="normalized")
    assert flipped.variant_model("knn") == "norm_freq"
    assert select_scores(table, plain) != select_scores(table, flipped)
    with pytest.raises(ValueError):
        default_selection_rule(knn="either")


def test_variant_model_mapping():
    rule = default_selection_rule()
    assert rule.variant_model("svm_linear") == "plain_freq"
    assert rule.variant_model("svm_rbf") == "norm_freq"
    assert rule.variant_model("nb_multinomial") == "plain_freq"  # "either"


def test_football_summary(selected):
    s = summarize_mai(selected, "football")
    assert fmt3(s.total) == "67.040"
    assert fmt3(s.corpus_sums["vk_ru"]) == "20.570"
    assert fmt3(s.corpus_sums["t_ru"]) == "22.816"
    assert fmt3(s.corpus_sums["t_en"]) == "23.654"
    assert fmt3(s.vk_mean) == "0.857"
    assert fmt3(s.twitter_mean) == "0.968"
    assert fmt3(s.russian_mean) == "0.904"
    assert fmt3(s.english_mean) == "0.986"


def test_rock_and_vegetarianism_totals(selected):
    assert fmt3(summarize_mai(selected, "rock").total) == "66.700"
    assert fmt3(summarize_mai(selected, "vegetarianism").total) == "66.810"


def test_mean_identities(selected):
    for mai in MAIS:
        s = summarize_mai(selected, mai)
        vk = s.corpus_sums["vk_ru"]
        tru = s.corpus_sums["t_ru"]
        ten = s.corpus_sums["t_en"]
        assert s.vk_mean == pytest.approx(vk / 24.0)
        assert s.twitter_mean == pytest.approx((tru + ten) / 48.0)
        assert s.russian_mean == pytest.approx((vk + tru) / 48.0)
        assert s.english_mean == pytest.approx(ten / 24.0)


def test_medians(selected):
    for mai in MAIS:
        med = describe(flat_scores(selected, mai)).median
        assert fmt3(med) == fmt3(REFERENCE_MEDIANS[mai])


def test_fmt3_half_up():
    assert fmt3(21.732 / 24) == "0.906"
    assert fmt3(0.9685) == "0.969"
    assert fmt3(0.9055) == "0.906"
    assert fmt3(1.0) == "1.000"
    assert fmt3(0.0005) == "0.001"


def test_reproduce_report_matches():
    report = reproduce_stats()
    assert all(c.matched for c in report.row_sums)
    assert all(c.matched for c in report.perfect_counts)
    assert all(c.matched for c in report.block_means)
    assert all(c.matched for c in report.medians)
    for u in report.utests:
        assert u.u_matched, u.label
        assert u.p_matched, u.label


def test_reproduce_documents_single_discrepancy():
    report = reproduce_stats()
    off = [c.label for c in report.summary_checks if not c.matched]
    assert off == ["vegetarianism english mean"]
    assert not report.all_matched
    assert len(report.notes) == 1
    assert "vegetarianism english mean" in report.notes[0]
    assert "0.966" in report.notes[0]


def test_reproduce_u_values_survive_continuity(table):
    report = reproduce_stats(table, continuity=True)
    assert all(u.u_matched for u in report.utests)
    assert all(u.result.continuity_applied for u in report.utests)


def test_utest_sample_sizes(table):
    report = reproduce_stats(table)
    overall = report.utests[0].result
    assert (overall.n1, overall.n2) == (72, 72)
    per_corpus = report.utests[3].result
    assert (per_corpus.n1, per_corpus.n2) == (24, 24)


def test_render_markdown(table):
    report = reproduce_stats(table)
    text = render_report(report)
    assert text == render_report(report)
    assert "U=2562.0" in text
    assert "## Notes" in text
    assert text.count("DIFFERS") == 1


def test_render_csv(table):
    report = reproduce_stats(table)
    text = render_report(report, fmt="csv")
    lines = text.splitlines()
    assert lines[0] == "section,label,computed,reference,status"
    assert any(line.startswith("utest,") and "U=2562.0" in line
               for line in lines)
    assert text.count("DIFFERS") == 1
    assert text == render_report(report, fmt="csv")


def test_render_unknown_format(table):
    with pytest.raises(ValueError):
        render_report(reproduce_stats(table), fmt="html")


def test_packaged_agreement_table():
    rows = load_agreement()
    assert len(rows) == 10
    assert percent_agreement(rows) == [50.0, 100.0, 100.0, 100.0, 90.0]


def test_classifier_roster_is_fixed():
    assert len(ALGORITHMS) == 12
    assert ALGORITHMS[0] == "svm_linear"
    assert ALGORITHMS[-1] == "knn"
    assert VECTOR_MODELS == ("bernoulli", "plain_freq", "norm_freq")
    assert CORPORA == ("vk_ru", "t_ru", "t_en")


def test_score_table_is_read_only(table):
    with pytest.raises(TypeError):
        table.cells[("bernoulli", "svm_linear", "vk_ru", "football")] = 0.5
    assert isinstance(table, ScoreTable)
    assert MATCH_TOL < 0.001


def test_summary_reference_table_shape():
    for mai in MAIS:
        assert len(REFERENCE_SUMMARIES[mai]) == 8
