"""CSV ingestion: bundled fixtures, validation diagnostics, round-trips."""

import hashlib

import pytest

from metaaudit import (
    CsvFormatError,
    EmptyInputError,
    Ingested,
    InputFileError,
    ingest_counts,
    ingest_effects,
)
from metaaudit.reproduce import fixture_path

EFFECT_HEADER = "study_label,subgroup_label,odds_ratio,ci_low,ci_high,ci_level\n"
COUNT_HEADER = "paper_label,region,block_label,outcomes,predictors,covariates\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_bundled_effect_fixtures_load():
    asthma = ingest_effects(fixture_path("asthma_effects.csv"))
    wheeze = ingest_effects(fixture_path("wheeze_effects.csv"))
    assert len(asthma) == 13
    assert len(wheeze) == 27
    first = asthma[0]
    assert first.study_label == "Melia 1977"
    assert first.subgroup_label == "boys"
    assert (first.odds_ratio, first.ci_low, first.ci_high) == (1.48, 0.90, 2.43)
    assert first.ci_level == 0.95
    # File order is preserved.
    assert [e.display_label() for e in asthma[:3]] == [
        "Melia 1977 (boys)",
        "Melia 1977 (girls)",
        "Dekker 1991",
    ]


def test_bundled_count_fixture_loads():
    studies = ingest_counts(fixture_path("hypothesis_counts.csv"))
    assert len(studies) == 14
    assert studies[0].paper_label == "Carlsten 2011"
    by_label = {s.paper_label: s for s in studies}
    # A quoted region containing a comma must survive the csv layer.
    assert by_label["Wong 2004"].region == "Hong Kong, mainland China"


def test_multi_block_grouping():
    studies = ingest_counts(fixture_path("lungfunction_blocks.csv"))
    assert len(studies) == 1
    study = studies[0]
    assert len(study.blocks) == 2
    assert [b.block_label for b in study.blocks] == ["basic models", "adjusted model"]
    assert study.search_space == 461440


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        ingest_effects(tmp_path / "nope.csv")


def test_empty_file(tmp_path):
    path = _write(tmp_path, "empty.csv", "")
    with pytest.raises(EmptyInputError, match="file is empty"):
        ingest_effects(path)


def test_header_only_file(tmp_path):
    path = _write(tmp_path, "bare.csv", EFFECT_HEADER)
    with pytest.raises(EmptyInputError, match="no data rows"):
        ingest_effects(path)


def test_blank_lines_skipped(tmp_path):
    path = _write(
        tmp_path,
        "gaps.csv",
        EFFECT_HEADER + "\nA 2001,,1.5,1.1,2.0,\n\n,,,,,\nB 2002,,0.8,0.5,1.2,\n",
    )
    effects = ingest_effects(path)
    assert [e.study_label for e in effects] == ["A 2001", "B 2002"]


def test_missing_column_reported_at_line_one(tmp_path):
    path = _write(tmp_path, "short.csv", "study_label,odds_ratio\nA,1.5\n")
    with pytest.raises(CsvFormatError) as info:
        ingest_effects(path)
    assert "short.csv:1:ci_low: required column is missing" in str(info.value)
    assert (1, "ci_low", "required column is missing") in info.value.diagnostics


@pytest.mark.parametrize(
    "reader, header, row, column",
    [
        (
            ingest_effects,
            "study_label,subgroup_label,odds_ratio,ci_low,ci_high,odds_ratio",
            "A,,1.2,1.0,1.5,9",
            "odds_ratio",
        ),
        (
            ingest_effects,
            "study_label,subgroup_label,odds_ratio,ci_low,ci_high,ci_level,ci_level",
            "A,,1.2,1.0,1.5,0.95,0.9",
            "ci_level",
        ),
        (
            ingest_counts,
            COUNT_HEADER.strip() + ",covariates",
            "P1,Europe,models,1,1,2,3",
            "covariates",
        ),
    ],
)
def test_duplicate_read_column_rejected_at_line_one(tmp_path, reader, header, row, column):
    path = _write(tmp_path, "dup.csv", f"{header}\n{row}\n")
    with pytest.raises(CsvFormatError) as info:
        reader(path)
    assert str(info.value) == f"dup.csv:1:{column}: duplicate column"


def test_utf8_byte_order_mark_skipped(tmp_path):
    path = tmp_path / "excel.csv"
    path.write_bytes(b"\xef\xbb\xbf" + (EFFECT_HEADER + "A 2001,,1.5,1.1,2.0,\n").encode())
    effects = ingest_effects(path)
    assert effects[0].study_label == "A 2001"
    # The digest hashes the bytes as read, mark included.
    assert effects.digest["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("data", [b"", bytes(range(256)) * 4097], ids=["empty", "over-1MB"])
def test_digest_is_hashlib_sha256(data):
    assert Ingested([], "x", data).digest["sha256"] == hashlib.sha256(data).hexdigest()


def test_non_utf8_line_counted_after_byte_order_mark(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"\xef\xbb\xbf" + EFFECT_HEADER.encode() + b"A\xff,,1.5,1.1,2.0,\n")
    with pytest.raises(InputFileError, match=r"^bad\.csv:2: not UTF-8 text"):
        ingest_effects(path)


def test_cell_diagnostics_carry_file_line_column(tmp_path):
    text = (
        EFFECT_HEADER
        + "A 2001,,1.5,1.1,2.0,\n"
        + "B 2002,,oops,1.1,2.0,\n"
        + "C 2003,,1.5,xx,2.0,\n"
    )
    path = _write(tmp_path, "bad_cells.csv", text)
    with pytest.raises(CsvFormatError) as info:
        ingest_effects(path)
    message = str(info.value)
    assert "bad_cells.csv:3:odds_ratio:" in message
    assert "bad_cells.csv:4:ci_low:" in message
    # All problems are collected before raising, not just the first.
    assert len(info.value.diagnostics) == 2


def test_semantic_errors_reported_per_row(tmp_path):
    text = EFFECT_HEADER + "A 2001,,1.5,2.0,1.0,\n"
    path = _write(tmp_path, "inverted.csv", text)
    with pytest.raises(CsvFormatError, match="inverted.csv:2"):
        ingest_effects(path)


@pytest.mark.parametrize(
    "row, column",
    [
        ("A 2001,,1.5,2.0,1.0,", "ci_high"),
        ("A 2001,,1.5,-1.0,2.0,", "ci_low"),
        ("A 2001,,0.0,1.0,2.0,", "odds_ratio"),
        ("A 2001,,1.5,1.0,2.0,95", "ci_level"),
        ("A 2001,,inf,1.0,2.0,", "odds_ratio"),
        # Zero width under one reading only: natural, then log.
        ("D,,1,5e-324,1e-323,", "ci_high"),
        ("D,,1e300,1e300,1.0000000000000002e300,", "ci_high"),
    ],
)
def test_semantic_errors_name_the_faulty_column(tmp_path, row, column):
    path = _write(tmp_path, "bad.csv", EFFECT_HEADER + row + "\n")
    with pytest.raises(CsvFormatError) as info:
        ingest_effects(path)
    assert [(line, col) for line, col, _ in info.value.diagnostics] == [(2, column)]
    assert f"bad.csv:2:{column}:" in str(info.value)


def test_row_warnings_are_located_at_the_row(tmp_path):
    text = EFFECT_HEADER + "A 2001,,1.5,1.1,2.0,\nB 2002,,3.0,1.0,2.0,\n"
    path = _write(tmp_path, "outside.csv", text)
    with pytest.warns(UserWarning, match="B 2002: odds ratio 3.0 lies outside") as caught:
        effects = ingest_effects(path)
    assert len(effects) == 2
    assert [(w.filename, w.lineno) for w in caught] == [(str(path), 3)]


def test_ci_level_defaults_and_overrides(tmp_path):
    text = EFFECT_HEADER + "A 2001,,1.5,1.1,2.0,\nB 2002,,1.5,1.1,2.0,0.90\n"
    path = _write(tmp_path, "levels.csv", text)
    defaulted, overridden = ingest_effects(path)
    assert defaulted.ci_level == 0.95
    assert overridden.ci_level == 0.90


def test_crlf_and_column_order_tolerated(tmp_path):
    text = (
        "ci_high,study_label,ci_low,odds_ratio,subgroup_label\r\n"
        "2.0,A 2001,1.1,1.5,boys\r\n"
    )
    path = _write(tmp_path, "crlf.csv", text)
    effects = ingest_effects(path)
    assert effects[0].display_label() == "A 2001 (boys)"
    assert effects[0].ci_high == 2.0


def test_extra_columns_ignored(tmp_path):
    # An unread column may even repeat; only the columns read must be unique.
    text = (
        "study_label,subgroup_label,odds_ratio,ci_low,ci_high,ci_level,p_value,note,note\n"
        "A 2001,,1.5,1.1,2.0,0.95,0.01,x,y\n"
    )
    path = _write(tmp_path, "extra.csv", text)
    effects = ingest_effects(path)
    assert effects[0].odds_ratio == 1.5


def test_count_region_conflict(tmp_path):
    text = (
        COUNT_HEADER
        + "P1,Europe,models,2,1,3\n"
        + "P1,Asia,more models,2,1,3\n"
    )
    path = _write(tmp_path, "regions.csv", text)
    with pytest.raises(CsvFormatError, match="regions.csv:3:region"):
        ingest_counts(path)


def test_count_bad_integers(tmp_path):
    text = COUNT_HEADER + "P1,Europe,models,2.5,1,3\n"
    path = _write(tmp_path, "floats.csv", text)
    with pytest.raises(CsvFormatError, match="floats.csv:2:outcomes"):
        ingest_counts(path)


@pytest.mark.parametrize(
    "counts, column",
    [
        ("0,1,3", "outcomes"),
        ("2,0,3", "predictors"),
        ("2,1,-1", "covariates"),
    ],
)
def test_count_errors_name_the_faulty_column(tmp_path, counts, column):
    path = _write(tmp_path, "counts.csv", COUNT_HEADER + f"P1,Europe,models,{counts}\n")
    with pytest.raises(CsvFormatError) as info:
        ingest_counts(path)
    assert [(line, col) for line, col, _ in info.value.diagnostics] == [(2, column)]


def test_count_covariate_guard(tmp_path):
    text = COUNT_HEADER + "P1,Europe,models,2,1,500\n"
    path = _write(tmp_path, "huge.csv", text)
    with pytest.raises(CsvFormatError, match="huge.csv:2:covariates"):
        ingest_counts(path)


def test_convert_output_reingests(tmp_path):
    # The convert subcommand emits the input columns plus p_value; that
    # output must load again with identical effect fields.
    import subprocess
    import sys

    source = fixture_path("asthma_effects.csv")
    out = tmp_path / "converted.csv"
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "metaaudit.cli",
            "convert",
            str(source),
            "--method",
            "natural",
            "--output",
            str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    original = ingest_effects(source)
    round_tripped = ingest_effects(out)
    assert round_tripped == original


def test_long_bad_cells_are_echoed_cut_short(tmp_path):
    cell = "1.5x" + "7" * 200
    path = _write(tmp_path, "long.csv", EFFECT_HEADER + f"A,,{cell},1.1,2.0,\n")
    with pytest.raises(CsvFormatError) as info:
        ingest_effects(path)
    message = str(info.value)
    assert message == f"long.csv:2:odds_ratio: {cell[:40]!r}... (204 characters) is not a number"


def test_mixed_ledger_reports_every_row_then_paper_sums(tmp_path):
    # Diagnostics run row by row; a paper's block-sum failure comes last, at its last row.
    text = COUNT_HEADER + (
        "P1,Europe,m,2,1,3\n"
        f"P4,x,m1,{10 ** 308},1,0\n"
        "P1,Asia,m2,2,1,3\n"
        "P2,x,m,2.5,1,3\n"
        "P3,x,m,2,1,200\n"
        f"P4,x,m2,{10 ** 308},1,0\n"
        "P5,x,m,abc,0,-1\n"
        "P1,Europe,m3,4,5,6\n"
    )
    path = _write(tmp_path, "ledger.csv", text)
    with pytest.raises(CsvFormatError) as info:
        ingest_counts(path)
    assert str(info.value) == (
        "ledger.csv:4:region: conflicts with earlier region 'Europe'; "
        "ledger.csv:5:outcomes: '2.5' is not an integer; "
        "ledger.csv:6:covariates: covariates = 200 exceeds the guarded maximum of 128; "
        "ledger.csv:8:outcomes: 'abc' is not an integer; "
        "ledger.csv:7:paper_label: P4: search space summed over blocks exceeds the float range "
        "(1.8e308)"
    )


def test_mixed_effect_table_reports_every_bad_cell(tmp_path):
    text = EFFECT_HEADER + (
        "A,,1.5,1.1,2.0,\n"
        ",,x,1.1,2.0,\n"
        "B,,1.5,2.0,1.0,\n"
        "C,g,3.0,1.0,2.0,0.9\n"
        "D,,1.5,1.1,2.0,abc\n"
        "E,,0,1,2,\n"
        "F,,1.5,1.1,2.0,95\n"
        " ,,y,z,,w\n"
    )
    path = _write(tmp_path, "effects.csv", text)
    with pytest.warns(UserWarning) as caught, pytest.raises(CsvFormatError) as info:
        ingest_effects(path)
    assert str(info.value) == (
        "effects.csv:3:study_label: must not be empty; "
        "effects.csv:3:odds_ratio: 'x' is not a number; "
        "effects.csv:4:ci_high: interval is inverted or empty: (2.0, 1.0); "
        "effects.csv:6:ci_level: 'abc' is not a number; "
        "effects.csv:7:odds_ratio: odds_ratio must be positive, got 0.0; "
        "effects.csv:8:ci_level: ci_level must be inside (0, 1), got 95.0; "
        "effects.csv:9:study_label: must not be empty; "
        "effects.csv:9:odds_ratio: 'y' is not a number; "
        "effects.csv:9:ci_low: 'z' is not a number; "
        "effects.csv:9:ci_high: '' is not a number; "
        "effects.csv:9:ci_level: 'w' is not a number"
    )
    assert [(str(w.message), w.lineno) for w in caught] == [
        ("C (g): odds ratio 3.0 lies outside its interval (1.0, 2.0)", 5)
    ]


def test_blank_paper_label_does_not_hide_the_other_bad_cells(tmp_path):
    path = _write(tmp_path, "f.csv", COUNT_HEADER + ",x,m,abc,1,200\n")
    with pytest.raises(CsvFormatError) as info:
        ingest_counts(path)
    assert str(info.value) == (
        "f.csv:2:paper_label: must not be empty; f.csv:2:outcomes: 'abc' is not an integer"
    )
