"""Canonical JSON serialization and report assembly."""

import copy
import dataclasses
import json
import math
import os
import pickle
import subprocess
import sys
from enum import Enum, IntEnum
from pathlib import Path
from typing import Any, NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

import metaaudit
from metaaudit import (
    ConversionMethod,
    DomainError,
    PlotConfig,
    Scenario,
    SimulationConfig,
    canonical_json,
    classify_plot,
    ingest_counts,
    ingest_effects,
    pool_fixed,
    run_simulation,
    summarize_ledger,
)
from metaaudit.figure import audit_report
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


@dataclasses.dataclass(frozen=True)
class _Dataclass:
    value: float


def test_non_finite_rejected():
    with pytest.raises(DomainError):
        canonical_json({"x": math.nan})
    with pytest.raises(DomainError):
        canonical_json([math.inf])
    with pytest.raises(DomainError):
        canonical_json({"x": object()})
    # Records are NamedTuples; a dataclass is not one of the serialized types.
    with pytest.raises(DomainError, match="cannot serialize _Dataclass"):
        canonical_json({"x": _Dataclass(0.5)})


def test_keys_that_collide_as_strings_are_rejected():
    # Both keys write as "1"; the dict alone would keep only one value.
    with pytest.raises(DomainError, match="two keys that both read '1'"):
        canonical_json({"a": {1: 0.5, "1": 0.25}})
    with pytest.raises(DomainError, match="two keys that both read 'None'"):
        canonical_json([{"b": 1, None: 2, "None": 3}])


def _two_passes(payload: Any) -> str:
    """The reference canonical_json must match: a copy of the payload with
    its floats rounded, written by json.dumps."""

    def value(v):
        if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
            return v
        if isinstance(v, float):
            return float(f"{v:.6g}")
        if isinstance(v, tuple) and hasattr(v, "_asdict"):
            v = v._asdict()
        if isinstance(v, dict):
            return {str(k): value(item) for k, item in v.items()}
        if isinstance(v, (list, tuple)):
            return [value(item) for item in v]
        return value(v.value)

    return json.dumps(value(payload), sort_keys=True, indent=2) + "\n"


class _Text(Enum):
    QUOTED = 'say "\u00e9"\\'
    ASTRAL = "\U0001f600"


class _Float(Enum):
    SMALL = 5e-324
    LONG = 0.123456789


class _Tuple(Enum):
    PAIR = (1, "\u2028", -0.0)


class _Int(IntEnum):
    BIG = 2**70


class _Pair(NamedTuple):
    left: Any
    right: Any


# Quotes, backslashes, control and non-ASCII characters, astral ones and
# lone surrogates, which only the escaper sees.
_STRINGS = st.text(st.characters(exclude_categories=()) | st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001f600", "\ud800", "\udfff"]))
_SCALARS = (
    _STRINGS
    | st.integers()
    | st.integers(min_value=2**64).flatmap(lambda n: st.sampled_from([n, -n]))
    | st.booleans()
    | st.none()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, sys.float_info.max,
                       -sys.float_info.max])
    | st.sampled_from([*_Text, *_Float, *_Tuple, *_Int])
)
_KEYS = _STRINGS | st.integers() | st.floats(allow_nan=False) | st.booleans() | st.none()
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.builds(_Pair, children, children)
        # Keys of mixed types that stay distinct once made strings.
        | st.dictionaries(_KEYS, children, max_size=4).filter(
            lambda d: len({str(k) for k in d}) == len(d))
    ),
    max_leaves=20,
)


@settings(deadline=None, max_examples=500, derandomize=True)
@given(_PAYLOADS)
def test_canonical_json_writes_what_json_dumps_writes(payload):
    assert canonical_json(payload) == _two_passes(payload)


WITHOUT_JSON_ACCELERATOR = """
import sys
sys.modules["_json"] = None
from metaaudit.report import canonical_json
from metaaudit.reproduce import run_reproduction
print("json.encoder" in sys.modules)
sys.stdout.write(canonical_json(run_reproduction()))
"""


def test_a_build_without_the_json_accelerator_writes_the_same_bytes():
    package_root = Path(metaaudit.__file__).parent.parent
    result = subprocess.run(
        [sys.executable, "-c", WITHOUT_JSON_ACCELERATOR],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert result.returncode == 0, result.stderr
    loaded, _, text = result.stdout.partition("\n")
    assert loaded == "True"
    assert text == canonical_json(run_reproduction())


def test_records_and_enums_serialize_as_fields_and_values():
    pooled = pool_fixed(ingest_effects(fixture_path("region_pair.csv")))
    payload = json.loads(canonical_json({"result": pooled, "method": ConversionMethod.LOG}))
    assert payload["method"] == "log"
    assert payload["result"]["method"] == "fixed"
    assert set(payload["result"]) == {
        "k", "pooled_log_or", "pooled_se", "pooled_or", "ci_low", "ci_high",
        "p_value", "q_statistic", "tau_squared", "i_squared", "method", "ci_level",
    }


def _every_record():
    """One instance of each of the package's record types."""
    effects = ingest_effects(fixture_path("asthma_effects.csv"))
    plot = audit_report(effects, ConversionMethod.NATURAL)["plot"]
    ranked = plot.ranked
    classification = classify_plot(ranked, PlotConfig())
    studies = ingest_counts(fixture_path("lungfunction_blocks.csv"))
    config = SimulationConfig(Scenario.NULL, k=13, trials=2, seed=1)
    return [
        effects[0], pool_fixed(effects), PlotConfig(), plot.points[0], plot, ranked,
        classification.trace.checks[0], classification.trace,
        classification, studies[0].blocks[0], studies[0],
        summarize_ledger(studies), config, run_simulation(config),
    ]


RECORDS = _every_record()


def test_every_exported_record_type_is_covered():
    exported = (getattr(metaaudit, name) for name in metaaudit.__all__[1:])
    records = {t for t in exported if isinstance(t, type) and issubclass(t, tuple)}
    assert {type(record) for record in RECORDS} == records
    assert len(records) == 14


@pytest.mark.parametrize("record", RECORDS, ids=lambda record: type(record).__name__)
def test_every_record_copies_and_pickles(record):
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record)
        assert clone == record
        assert repr(clone) == repr(record)
        assert canonical_json(clone) == canonical_json(record)
    assert json.loads(canonical_json(record)).keys() == record._asdict().keys()


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


def _asthma_audit():
    effects = ingest_effects(fixture_path("asthma_effects.csv"))
    return audit_report(effects, ConversionMethod.NATURAL)


def test_conversion_rows_carry_both_conventions():
    rows = _asthma_audit()["conversions"]
    assert len(rows) == 13
    for row in rows:
        assert 0.0 <= row["p_natural"] <= 1.0
        assert 0.0 <= row["p_log"] <= 1.0
    # The two readings disagree on real data; both must be present.
    assert any(abs(r["p_natural"] - r["p_log"]) > 0.01 for r in rows)


def test_audit_plot_takes_its_p_values_from_the_conversions():
    effects = ingest_effects(fixture_path("wheeze_effects.csv"))
    for method in ConversionMethod:
        report = audit_report(effects, method)
        column = f"p_{method.value}"
        rows = sorted(
            (e.display_label(), row[column].hex(), e.odds_ratio < 1.0)
            for e, row in zip(effects, report["conversions"])
        )
        points = sorted(
            (point.label, point.p_value.hex(), point.negative_effect)
            for point in report["plot"].points
        )
        assert points == rows, method


def test_audit_report_structure():
    report = _asthma_audit()
    assert set(report) == {
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
