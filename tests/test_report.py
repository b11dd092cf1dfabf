"""Canonical JSON serialization and report assembly."""

import json
import math

import pytest

from metaaudit import (
    ConversionMethod,
    DomainError,
    PlotConfig,
    canonical_json,
    classify_plot,
    conversion_rows,
    ingest_effects,
    plot_from_effects,
    pool_dersimonian_laird,
    pool_fixed,
)
from metaaudit.report import audit_report
from metaaudit.reproduce import fixture_path, run_reproduction


def test_canonical_json_shape():
    text = canonical_json({"b": 1, "a": {"z": True, "y": None}})
    assert text == '{\n  "a": {\n    "y": null,\n    "z": true\n  },\n  "b": 1\n}\n'


def test_floats_squash_to_six_significant_digits():
    payload = json.loads(canonical_json({"x": 0.123456789, "y": 1234567.89}))
    assert payload["x"] == 0.123457
    assert payload["y"] == 1234570.0


def test_ints_and_bools_pass_untouched():
    payload = json.loads(canonical_json({"space": 1 << 128, "flag": True, "n": 304128}))
    assert payload["space"] == 1 << 128
    assert payload["flag"] is True
    assert payload["n"] == 304128


def test_non_finite_rejected():
    with pytest.raises(DomainError):
        canonical_json({"x": math.nan})
    with pytest.raises(DomainError):
        canonical_json([math.inf])
    with pytest.raises(DomainError):
        canonical_json({"x": object()})


def test_dataclasses_and_enums_serialize_as_fields_and_values():
    pooled = pool_fixed(ingest_effects(fixture_path("region_pair.csv")))
    payload = json.loads(canonical_json({"result": pooled, "method": ConversionMethod.LOG}))
    assert payload["method"] == "log"
    assert payload["result"]["method"] == "fixed"
    assert set(payload["result"]) == {
        "k", "pooled_log_or", "pooled_se", "pooled_or", "ci_low", "ci_high",
        "p_value", "q_statistic", "tau_squared", "i_squared", "method", "ci_level",
    }


def test_serialization_is_deterministic():
    payload = {"values": [0.1, 0.2, 0.30000000001], "k": 27}
    assert canonical_json(payload) == canonical_json(payload)
    assert canonical_json(payload).endswith("\n")


def test_file_digest_is_stable():
    path = fixture_path("region_pair.csv")
    first = ingest_effects(path).digest
    second = ingest_effects(path).digest
    assert first == second
    assert first["file"] == "region_pair.csv"
    assert first["rows"] == 2
    assert len(first["sha256"]) == 64


def test_conversion_rows_carry_both_conventions():
    effects = ingest_effects(fixture_path("asthma_effects.csv"))
    rows = conversion_rows(effects)
    assert len(rows) == 13
    for row in rows:
        assert 0.0 <= row["p_natural"] <= 1.0
        assert 0.0 <= row["p_log"] <= 1.0
    # The two readings disagree on real data; both must be present.
    assert any(abs(r["p_natural"] - r["p_log"]) > 0.01 for r in rows)


def test_audit_report_structure():
    effects = ingest_effects(fixture_path("asthma_effects.csv"))
    config = PlotConfig()
    plot = plot_from_effects(effects, ConversionMethod.NATURAL)
    classification = classify_plot(plot, config)
    pooled = {
        "fixed": pool_fixed(effects),
        "dersimonian_laird": pool_dersimonian_laird(effects),
    }
    report = audit_report(
        effects.digest,
        effects,
        pooled,
        plot,
        classification,
        config,
        ConversionMethod.NATURAL,
    )
    assert set(report) == {
        "version",
        "input",
        "method",
        "config",
        "conversions",
        "pooled",
        "plot",
        "classification",
    }
    assert report["method"] == "natural"
    assert len(report["conversions"]) == 13
    # The whole report must serialize canonically.
    text = canonical_json(report)
    assert json.loads(text)["plot"]["n"] == 13


def test_reproduction_diff_serializes():
    diff = run_reproduction()
    text = canonical_json(diff)
    parsed = json.loads(text)
    assert parsed["summary"]["gated"] == 75
    assert parsed["summary"]["all_gated_pass"] is True
    names = [c["name"] for c in parsed["checks"]]
    assert len(names) == len(set(names)), "check names must be unique"
