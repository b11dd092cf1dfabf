"""Command line behavior: outputs, exit codes, error reporting."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import metaaudit
from metaaudit.cli import build_parser, main
from metaaudit.effects import ConversionMethod
from metaaudit.figure import audit_report
from metaaudit.ingest import ingest_counts, ingest_effects
from metaaudit.reproduce import fixture_path, run_reproduction
from metaaudit.search_space import cohort_report, count_report

GOLDEN_DIR = Path(__file__).parent / "golden"
SIM_NULL = {"scenario": "null", "k": 27, "trials": 20, "seed": 2027}
SIM_MIXTURE = {
    "scenario": "mixture",
    "k": 200,
    "trials": 30,
    "seed": 2027,
    "log_or": 0.5,
    "effect_fraction": 0.3,
}


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "metaaudit 0.1.0" in capsys.readouterr().out


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


_HELP = (("-h", "--help"), "help", "==SUPPRESS==", None, None, False,
         "show this help message and exit")
_EFFECTS = ((), "input", None, None, None, True, "effect CSV path")
_METHOD = (("--method",), "method", "log", None, ["natural", "log"], False,
           "interval reading used to recover the standard error")
_OUTPUT = (("--output",), "output", None, None, None, False, "output path (default stdout)")
# Every action of every parser: option strings, dest, default, type name,
# choices, required and help; then each subcommand's help and handler.
PARSER_PIN = {
    "": [
        _HELP,
        (("--version",), "version", "==SUPPRESS==", None, None, False,
         "show program's version number and exit"),
        ((), "command", None, None,
         ["convert", "pool", "plot", "count", "cohort", "simulate", "reproduce"], True, None),
    ],
    "convert": [_HELP, _EFFECTS, _METHOD, _OUTPUT],
    "pool": [
        _HELP,
        _EFFECTS,
        (("--model",), "model", None, None, ["fixed", "dl"], True,
         "fixed effect or DerSimonian-Laird random effects"),
        (("--level",), "level", 0.95, "float", None, False, "confidence level (default 0.95)"),
        _OUTPUT,
    ],
    "plot": [
        _HELP,
        _EFFECTS,
        _METHOD,
        (("--alpha",), "alpha", 0.05, "float", None, False, "significance threshold"),
        (("--outdir",), "outdir", ".", None, None, False, "directory for the artifacts"),
    ],
    "count": [
        _HELP,
        ((), "input", None, None, None, True, "model-count CSV path"),
        (("--alpha",), "alpha", 0.05, "float", None, False, "false-positive rate per test"),
        _OUTPUT,
    ],
    "cohort": [
        _HELP,
        (("--publications",), "publications", None, "int", None, True,
         "number of publications in the cohort"),
        (("--median-nh",), "median_nh", None, "int", None, True,
         "median per-publication search space"),
        (("--alpha",), "alpha", 0.05, "float", None, False, "false-positive rate per test"),
        _OUTPUT,
    ],
    "simulate": [
        _HELP,
        (("--config",), "config", None, None, None, True,
         "JSON config: scenario, k, trials, seed, se_range, log_or, effect_fraction"),
        _OUTPUT,
    ],
    "reproduce": [
        _HELP,
        (("--outdir",), "outdir", ".", None, None, False,
         "directory for reproduction.json and figures"),
    ],
}
SUBCOMMAND_PIN = {
    "convert": ("convert OR/CI rows to two-sided p-values (CSV out)", "_cmd_convert"),
    "pool": ("pool a study set with inverse-variance weights (JSON out)", "_cmd_pool"),
    "plot": ("build, classify and render a p-value plot (SVG + CSV + JSON)", "_cmd_plot"),
    "count": ("per-paper multiple-testing search spaces (JSON out)", "_cmd_count"),
    "cohort": ("expected false positives across a publication cohort", "_cmd_cohort"),
    "simulate": ("seeded Monte Carlo calibration of the plot classifier", "_cmd_simulate"),
    "reproduce": ("recompute the bundled datasets' reference numbers and diff them",
                  "_cmd_reproduce"),
}


def _actions(parser):
    return [
        (
            tuple(action.option_strings),
            action.dest,
            action.default,
            getattr(action.type, "__name__", action.type),
            None if action.choices is None else list(action.choices),
            action.required,
            action.help,
        )
        for action in parser._actions
    ]


def test_parser_matches_pin():
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    described = {"": _actions(parser)}
    described.update((name, _actions(sub)) for name, sub in subparsers.choices.items())
    assert described == PARSER_PIN
    helps = {action.dest: action.help for action in subparsers._choices_actions}
    assert {
        name: (helps[name], sub.get_default("func").__name__)
        for name, sub in subparsers.choices.items()
    } == SUBCOMMAND_PIN


def _parse_outcome(parse, argv):
    """The exit code, stdout and stderr of parse(argv), which must exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as info:
        parse(argv)
    return info.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["--version"],
        ["frobnicate"],
        ["simulate", "-h"],
        ["simulate"],
        ["simulate", "--config", "c", "--bogus", "x"],
        ["pool", "t.csv"],
        ["convert", "t.csv", "--method", "bad"],
        ["plot", "t.csv", "--alpha", "x"],
    ],
    ids=" ".join,
)
def test_cli_text_matches_the_full_parser(argv):
    # main builds only the subparser that argv[0] names; the full parser is
    # the reference for every help, usage and error byte.
    want = _parse_outcome(build_parser().parse_args, argv)
    assert want[1] or want[2]
    assert _parse_outcome(main, argv) == want


def test_convert_null_or_yields_p_one(tmp_path, capsys):
    source = _write(
        tmp_path,
        "one.csv",
        "study_label,subgroup_label,odds_ratio,ci_low,ci_high\nNull 2000,,1.0,0.5,2.0\n",
    )
    assert main(["convert", source, "--method", "log"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == (
        "study_label,subgroup_label,odds_ratio,ci_low,ci_high,ci_level,p_value"
    )
    assert lines[1] == "Null 2000,,1.0,0.5,2.0,0.95,1.0"
    assert "\r" not in out


def test_convert_warns_on_stderr_at_the_csv_row(tmp_path):
    source = _write(
        tmp_path,
        "outside.csv",
        "study_label,subgroup_label,odds_ratio,ci_low,ci_high\nA 2001,,3.0,1.0,2.0\n",
    )
    package_root = Path(metaaudit.__file__).parent.parent
    result = subprocess.run(
        [sys.executable, "-m", "metaaudit.cli", "convert", source],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root), "PYTHONWARNINGS": "default"},
        check=True,
    )
    assert result.stderr.startswith(
        f"{source}:2: UserWarning: A 2001: odds ratio 3.0 lies outside its interval"
    )


def test_convert_to_file_and_method_default(tmp_path, capsys):
    out_path = tmp_path / "out.csv"
    code = main(
        ["convert", str(fixture_path("asthma_effects.csv")), "--output", str(out_path)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 14


def test_convert_malformed_csv_exits_2(tmp_path, capsys):
    source = _write(
        tmp_path,
        "broken.csv",
        "study_label,subgroup_label,odds_ratio,ci_low,ci_high\nA 2001,,bad,1.0,2.0\n",
    )
    assert main(["convert", source]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "broken.csv:2:odds_ratio" in err
    assert "\x1b" not in err


def _unreadable(tmp_path, case):
    """An input path that cannot be read, and the line its message names."""
    path = tmp_path / "input.csv"
    # Every column that effect and count files require, so the header passes.
    header = b"study_label,subgroup_label,odds_ratio,ci_low,ci_high,paper_label,region,"
    header += b"block_label,outcomes,predictors,covariates\n"
    if case == "directory":
        path.mkdir()
    elif case == "not-utf8":
        path.write_bytes(header + b"A,,1.5,1,2,P,R,B,1,1,1\n\xff,,2,1,3,P,R,B,1,1,1\n")
        return path, 3
    elif case == "field-limit":
        path.write_bytes(header + b"x" * 200_000 + b",,2,1,3,P,R,B,1,1,1\n")
        return path, 2
    return path, None


_READERS = {
    "convert": ["convert", "{path}"],
    "pool": ["pool", "{path}", "--model", "fixed"],
    "plot": ["plot", "{path}", "--outdir", "{out}"],
    "count": ["count", "{path}"],
    "simulate": ["simulate", "--config", "{path}"],
}


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8", "field-limit"])
@pytest.mark.parametrize("command", list(_READERS))
def test_unreadable_input_exits_2(tmp_path, capsys, command, case):
    path, line = _unreadable(tmp_path, case)
    argv = [arg.format(path=path, out=tmp_path / "out") for arg in _READERS[command]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    if command == "simulate":
        # A config is named by the path given; JSON errors carry their own line.
        assert err.startswith(f"error: {path}: ")
    else:
        located = f"{path.name}:{line}: " if line else f"{path.name}: cannot read: "
        assert err.startswith(f"error: {located}")


_WRITERS = {
    "convert": ["convert", "{effects}", "--output", "{out}/out.txt"],
    "pool": ["pool", "{effects}", "--model", "fixed", "--output", "{out}/out.txt"],
    "plot": ["plot", "{effects}", "--outdir", "{out}"],
    "count": ["count", "{counts}", "--output", "{out}/out.txt"],
    "simulate": ["simulate", "--config", "{config}", "--output", "{out}/out.txt"],
    "reproduce": ["reproduce", "--outdir", "{out}"],
}
# The first file an --outdir command writes.
_FIRST_ARTIFACT = {"plot": "asthma_effects_plot.svg", "reproduce": "reproduction.json"}


@pytest.mark.parametrize("case", ["parent-is-a-file", "target-is-a-directory"])
@pytest.mark.parametrize("command", list(_WRITERS))
def test_unwritable_output_exits_2(tmp_path, capsys, command, case):
    config = _write(tmp_path, "sim.json", json.dumps({**SIM_NULL, "trials": 2}))
    out = tmp_path / "out"
    target = out / _FIRST_ARTIFACT.get(command, "out.txt")
    if case == "parent-is-a-file":
        out.write_text("", encoding="utf-8")
        # An --outdir that cannot be made is named itself.
        failed = out if command in _FIRST_ARTIFACT else target
    else:
        target.mkdir(parents=True)
        failed = target
    argv = [
        arg.format(
            effects=fixture_path("asthma_effects.csv"),
            counts=fixture_path("hypothesis_counts.csv"),
            config=config,
            out=out,
        )
        for arg in _WRITERS[command]
    ]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {failed}: cannot write: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [None, "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["simulate", "plot"])
def test_unwritable_stdout_exits_2(tmp_path, command, unbuffered):
    # The interpreter's own flush at exit must not report the failure again
    # (exit 120), and the write must not escape as an OSError (exit 1).
    config = _write(tmp_path, "sim.json", json.dumps({**SIM_NULL, "trials": 2}))
    argv = {"simulate": ["simulate", "--config", config],
            "plot": ["plot", str(fixture_path("asthma_effects.csv")), "--outdir", str(tmp_path)]}
    env = {**os.environ, "PYTHONPATH": str(Path(metaaudit.__file__).parent.parent)}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    with open("/dev/full", "w") as full:
        result = subprocess.run([sys.executable, "-m", "metaaudit.cli", *argv[command]],
                                stdout=full, stderr=subprocess.PIPE, text=True, env=env)
    assert (result.returncode, result.stderr) == (
        2, "error: <stdout>: cannot write: No space left on device\n")


COHORT = ["cohort", "--publications", "107", "--median-nh", "13824"]


@pytest.mark.parametrize(
    "argv, code",
    [
        (COHORT, 0),
        (["cohort", "--publications", "0", "--median-nh", "13824"], 2),
        (["simulate"], None),  # argparse exits: --config is required.
    ],
    ids=["success", "bad-input", "usage-error"],
)
def test_main_with_an_argv_leaves_the_collector_as_it_was(capsys, argv, code):
    import gc

    before = (gc.get_freeze_count(), gc.isenabled())
    if code is None:
        with pytest.raises(SystemExit):
            main(argv)
    else:
        assert main(argv) == code
    assert (gc.get_freeze_count(), gc.isenabled()) == before


FROZEN_AT_EXIT = """
import atexit, gc, sys
atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))
from metaaudit.cli import main
sys.exit(main())
"""


def test_main_as_the_process_entry_freezes_start_up_objects(capsysbinary):
    assert main(COHORT) == 0
    expected = capsysbinary.readouterr().out
    result = subprocess.run(
        [sys.executable, "-c", FROZEN_AT_EXIT, *COHORT],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(Path(metaaudit.__file__).parent.parent)},
    )
    assert (result.returncode, result.stdout) == (0, expected), result.stderr
    assert int(result.stderr) > 0


@pytest.mark.parametrize(
    "code",
    [
        "import metaaudit",
        "import metaaudit.cli",
        "from metaaudit.cli import main\n"
        "assert main(['simulate', '--config', sys.argv[1], '--output', sys.argv[2]]) == 0",
    ],
    ids=["import", "import-cli", "simulate"],
)
def test_numpy_is_never_imported(tmp_path, code):
    config = _write(tmp_path, "sim.json", json.dumps(SIM_NULL))
    report = tmp_path / "report.json"
    package_root = Path(metaaudit.__file__).parent.parent
    result = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\nprint('numpy' in sys.modules)",
         config, str(report)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
        check=True,
    )
    assert result.stdout == "False\n"


NO_OPENSSL = """
import contextlib, io, sys
import metaaudit.cli

def loaded():
    return sorted({"hashlib", "_hashlib", "json"} & set(sys.modules))

print(loaded())
# Each argument is one command, its words separated by tabs.
for command in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert metaaudit.cli.main(command.split("\\t")) == 0
    print(loaded())
"""


def test_no_command_loads_openssl(tmp_path):
    # Each command in turn; convert goes first, as json is loaded by the rest.
    asthma, ledger = fixture_path("asthma_effects.csv"), fixture_path("hypothesis_counts.csv")
    config, out = _write(tmp_path, "sim.json", json.dumps(SIM_NULL)), tmp_path / "out"
    commands = [
        ["convert", asthma],
        ["pool", asthma, "--model", "dl"],
        ["plot", asthma, "--outdir", out],
        ["count", ledger],
        ["cohort", "--publications", "107", "--median-nh", "13824"],
        ["simulate", "--config", config],
        ["reproduce", "--outdir", out],
    ]
    package_root = Path(metaaudit.__file__).parent.parent
    result = subprocess.run(
        [sys.executable, "-c", NO_OPENSSL, *("\t".join(map(str, c)) for c in commands)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "[]"] + ["['json']"] * 6


HASHLIB_FALLBACK = """
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from metaaudit.ingest import ingest_effects
print("hashlib" in sys.modules)
print(ingest_effects(sys.argv[1]).digest["sha256"])
"""


def test_digest_falls_back_to_hashlib_without_builtin_sha256():
    table = fixture_path("asthma_effects.csv")
    package_root = Path(metaaudit.__file__).parent.parent
    result = subprocess.run(
        [sys.executable, "-c", HASHLIB_FALLBACK, str(table)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert result.returncode == 0, result.stderr
    digest = hashlib.sha256(table.read_bytes()).hexdigest()
    assert result.stdout.splitlines() == ["True", digest]


STARTUP_MODULES = """
import sys
import metaaudit.cli
print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
assert metaaudit.cli.main(["simulate", "--config", sys.argv[1], "--output", sys.argv[2]]) == 0
print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""


def test_startup_and_simulate_load_neither_dataclasses_nor_inspect(tmp_path):
    config = _write(tmp_path, "sim.json", json.dumps(SIM_NULL))
    report = tmp_path / "report.json"
    package_root = Path(metaaudit.__file__).parent.parent
    result = subprocess.run(
        [sys.executable, "-c", STARTUP_MODULES, config, str(report)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert (result.returncode, result.stdout) == (0, "[]\n[]\n"), result.stderr


EXECUTED_MODULES = """
import contextlib, io, sys, types
import metaaudit.cli

def executed():
    # A registered but unread submodule keeps LazyLoader's class until first use.
    return sorted(name.removeprefix("metaaudit.") for name, module in list(sys.modules.items())
                  if name.startswith("metaaudit") and type(module) is types.ModuleType)

print(executed(), "csv" in sys.modules)
if len(sys.argv) > 1:
    with contextlib.redirect_stdout(io.StringIO()):
        assert metaaudit.cli.main(sys.argv[1:]) == 0
    print(executed(), "csv" in sys.modules)
"""
_AT_IMPORT = {"metaaudit", "cli", "errors"}
# ingest imports csv; reading an effects file executes effects (and so normal).
_INGEST = {"ingest", "effects", "normal"}
_ALL_MODULES = _AT_IMPORT | _INGEST | {"figure", "pcg64", "pooling", "pvplot", "report",
                                       "reproduce", "search_space", "simulate"}
# A simulate run draws no figure; only an effect study executes normal.
_SIMULATE = _AT_IMPORT | {"pcg64", "pvplot", "report", "simulate"}


@pytest.mark.parametrize(
    "command, modules, loads_csv",
    [
        ([], _AT_IMPORT, False),
        (["convert", "{asthma}"], _AT_IMPORT | _INGEST, True),
        (["pool", "{asthma}", "--model", "dl"], _AT_IMPORT | _INGEST | {"pooling", "report"},
         True),
        (["count", "{ledger}"], _AT_IMPORT | {"ingest", "search_space", "report"}, True),
        (["cohort", "--publications", "107", "--median-nh", "13824"],
         _AT_IMPORT | {"report", "search_space"}, False),
        (["simulate", "--config", "{config}"], _SIMULATE, False),
        (["simulate", "--config", "{mixture}"], _SIMULATE | {"normal"}, False),
        (["plot", "{asthma}", "--outdir", "{out}"],
         _ALL_MODULES - {"pcg64", "search_space", "simulate", "reproduce"}, True),
        (["reproduce", "--outdir", "{out}"], _ALL_MODULES - {"pcg64", "simulate"}, True),
    ],
    ids=["import", "convert", "pool", "count", "cohort", "simulate", "simulate-mixture", "plot",
         "reproduce"],
)
def test_each_command_executes_only_the_modules_it_uses(tmp_path, command, modules, loads_csv):
    paths = {
        "asthma": fixture_path("asthma_effects.csv"),
        "ledger": fixture_path("hypothesis_counts.csv"),
        "config": _write(tmp_path, "sim.json", json.dumps(SIM_NULL)),
        "mixture": _write(tmp_path, "mix.json", json.dumps(SIM_MIXTURE)),
        "out": tmp_path / "out",
    }
    package_root = Path(metaaudit.__file__).parent.parent
    result = subprocess.run(
        [sys.executable, "-c", EXECUTED_MODULES, *(arg.format(**paths) for arg in command)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert (lines[0], lines[-1]) == (f"{sorted(_AT_IMPORT)} False",
                                     f"{sorted(modules)} {loads_csv}")


PATCHED_ON_ITS_MODULE = """
import sys
from unittest import mock
import metaaudit.cli
from metaaudit import effects, ingest, simulate
table, config, output = sys.argv[1:]
with mock.patch.object(ingest, "ingest_effects", wraps=ingest.ingest_effects) as spy:
    assert metaaudit.cli.main(["pool", table, "--model", "fixed", "--output", output]) == 0
    print(spy.call_count)
with mock.patch.object(simulate, "run_simulation", wraps=simulate.run_simulation) as spy:
    assert metaaudit.cli.main(["simulate", "--config", config, "--output", output]) == 0
    print(spy.call_count)
with mock.patch.object(effects, "p_from_effect", wraps=effects.p_from_effect) as spy:
    assert metaaudit.cli.main(["convert", table, "--output", output]) == 0
    print(spy.call_count)
"""


def test_cli_calls_a_function_patched_on_its_module_after_import(tmp_path):
    # perfbench's tracer and unittest.mock.patch replace the module attribute.
    config = _write(tmp_path, "sim.json", json.dumps(SIM_NULL))
    table = fixture_path("asthma_effects.csv")
    package_root = Path(metaaudit.__file__).parent.parent
    result = subprocess.run(
        [sys.executable, "-c", PATCHED_ON_ITS_MODULE, str(table), config,
         str(tmp_path / "out.json")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    # convert converts each of the table's 13 rows once.
    assert (result.returncode, result.stdout) == (0, "1\n1\n13\n"), result.stderr


PACKAGE_CONTRACT = """
import sys
import metaaudit
loaded = sorted(name for name in sys.modules if name.startswith("metaaudit"))
assert loaded == ["metaaudit"], loaded
assert len(set(metaaudit.__all__)) == len(metaaudit.__all__)
for name in metaaudit.__all__[1:]:
    value = getattr(metaaudit, name)
    assert getattr(sys.modules[value.__module__], name) is value, name
namespace = {}
exec("from metaaudit import *", namespace)
assert sorted(set(namespace) - {"__builtins__"}) == sorted(metaaudit.__all__)
assert set(metaaudit.__all__) <= set(dir(metaaudit))
try:
    metaaudit.no_such_name
except AttributeError:
    print("ok")
"""


def test_package_exports_load_on_first_use():
    package_root = Path(metaaudit.__file__).parent.parent
    result = subprocess.run(
        [sys.executable, "-c", PACKAGE_CONTRACT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    assert (result.returncode, result.stdout) == (0, "ok\n"), result.stderr


def test_convert_of_a_z_beyond_float_range_gives_p_zero(tmp_path, capsys):
    source = _write(
        tmp_path,
        "tiny.csv",
        "study_label,subgroup_label,odds_ratio,ci_low,ci_high\nC,,2,1e-320,1e-319\n",
    )
    with pytest.warns(UserWarning, match="outside its interval"):
        assert main(["convert", source, "--method", "natural"]) == 0
    assert capsys.readouterr().out.splitlines()[1].endswith(",0.0")


def _run_quietly(argv):
    """Exit code and stderr of one in-process run; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(argv)
    return code, err.getvalue()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=6,
)
# Configs of the right JSON types, whose numbers still run to every extreme.
_SIM_TYPED = st.fixed_dictionaries(
    {
        "scenario": st.sampled_from(["null", "fixed_effect", "mixture"]),
        "k": st.integers(min_value=1, max_value=6),
        "trials": st.integers(min_value=1, max_value=6),
        "seed": st.integers(min_value=0),
    },
    optional={
        "se_range": st.lists(st.floats(min_value=0.0, exclude_min=True), min_size=2, max_size=2)
        .map(sorted),
        "log_or": st.integers() | st.floats(),
        "effect_fraction": st.floats(min_value=0.0, max_value=1.0),
    },
)
# Any JSON value under any key; k and trials stay small when they are ints,
# so that every config that validates runs fast.
_SMALL = st.integers(min_value=-2, max_value=6) | _JSON.filter(lambda v: type(v) is not int)
_SIM_ANY = st.tuples(
    st.fixed_dictionaries(
        {},
        optional={
            **{key: _JSON for key in ("scenario", "seed", "se_range", "log_or", "effect_fraction")},
            "k": _SMALL,
            "trials": _SMALL,
        },
    ),
    st.dictionaries(st.text(max_size=5), _JSON, max_size=1),
).map(lambda parts: {**parts[0], **parts[1]})


@settings(deadline=None, max_examples=200)
@given(_SIM_TYPED | _SIM_ANY)
def test_any_simulate_config_exits_0_or_2_naming_the_file(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sim.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        code, err = _run_quietly(["simulate", "--config", str(path)])
    assert code in (0, 2)
    if code == 2:
        assert err.startswith(f"error: {path}")


@pytest.mark.parametrize("k", [56_001, 10**20])
def test_a_k_beyond_the_fit_bound_exits_2_naming_the_file(tmp_path, capsys, k):
    # 10**20 studies would otherwise run for ever instead of failing.
    config = _write(tmp_path, "sim.json", json.dumps({**SIM_NULL, "trials": 1, "k": k}))
    assert main(["simulate", "--config", config]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {config}: k must be at most 56000, got {k}\n"


_EFFECT_HEADER = b"study_label,subgroup_label,odds_ratio,ci_low,ci_high,ci_level\n"


@settings(deadline=None, max_examples=200)
@given(
    st.binary() | st.binary().map(lambda body: _EFFECT_HEADER + body),
    st.sampled_from(["natural", "log"]),
)
def test_any_effect_csv_bytes_convert_exits_0_or_2_naming_the_file(data, method):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "effects.csv"
        path.write_bytes(data)
        code, err = _run_quietly(["convert", str(path), "--method", method])
    assert code in (0, 2)
    if code == 2:
        assert err.startswith(f"error: {path.name}")


# Finite positive floats from the smallest subnormal up, and levels blank,
# near 0, near 1 or anywhere inside (0, 1).
_POSITIVE = st.floats(min_value=5e-324, max_value=1.7e308)
_LEVEL = st.just("") | st.one_of(
    st.floats(min_value=5e-324, max_value=1e-15),
    st.floats(min_value=1.0 - 1e-15, max_value=1.0, exclude_max=True),
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
).map(repr)
_ROW = st.tuples(_POSITIVE, st.lists(_POSITIVE, min_size=2, max_size=2).map(sorted), _LEVEL)


@settings(deadline=None, max_examples=80, derandomize=True)
@given(st.lists(_ROW, min_size=1, max_size=3))
def test_any_effect_rows_exit_0_or_2_at_a_named_column(rows):
    body = "".join(
        f"S{i},,{odds_ratio!r},{low!r},{high!r},{level}\n"
        for i, (odds_ratio, (low, high), level) in enumerate(rows)
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "effects.csv"
        path.write_bytes(_EFFECT_HEADER + body.encode())
        for argv in (
            ["convert", str(path), "--method", "natural"],
            ["convert", str(path), "--method", "log"],
            ["pool", str(path), "--model", "fixed"],
            ["pool", str(path), "--model", "dl"],
            ["plot", str(path), "--outdir", tmp],
        ):
            code, err = _run_quietly(argv)
            assert code in (0, 2), (argv, err)
            assert ":None:" not in err, (argv, err)


_FLOAT_VALUES = ["nan", "inf", "-inf", "-0.0", "0", "1", "5e-324", "1e-17",
                 "0.9999999999999999", "1e309", "x"]
_INT_VALUES = ["0", "-1", str(10 ** 308), str(10 ** 309), str(10 ** 400), "1e3", "9" * 5000]
# Each numeric flag: a command line that lacks only it, and its values.
_FLAG_CASES = {
    "plot --alpha": (["plot", "{fixtures}/asthma_effects.csv", "--outdir", "{out}"],
                     _FLOAT_VALUES),
    "count --alpha": (["count", "{fixtures}/hypothesis_counts.csv"], _FLOAT_VALUES),
    "cohort --alpha": (["cohort", "--publications", "107", "--median-nh", "13824"],
                       _FLOAT_VALUES),
    "pool --level": (["pool", "{fixtures}/asthma_effects.csv", "--model", "fixed"],
                     _FLOAT_VALUES),
    "pool-dl --level": (["pool", "{fixtures}/asthma_effects.csv", "--model", "dl"],
                        _FLOAT_VALUES),
    "cohort --publications": (["cohort", "--median-nh", "13824"], _INT_VALUES),
    "cohort --median-nh": (["cohort", "--publications", "107"], _INT_VALUES),
}


@pytest.mark.parametrize(
    "command, value",
    [(command, value) for command, (_, values) in _FLAG_CASES.items() for value in values],
    ids=lambda item: item if len(item) < 30 else f"{len(item)}-digits",
)
def test_every_numeric_flag_exits_0_or_2_naming_the_flag(tmp_path, capsys, command, value):
    fixtures = fixture_path("asthma_effects.csv").parent
    flag = command.split()[1]
    argv = [arg.format(fixtures=fixtures, out=tmp_path) for arg in _FLAG_CASES[command][0]]
    try:
        code = main([*argv, f"{flag}={value}"])
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    err = capsys.readouterr().err
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith(f"error: {flag}:") or f"argument {flag}:" in err, err


@pytest.mark.parametrize("level", ["1e-17", "0.9999999999999999"])
def test_a_level_without_a_multiplier_exits_2(tmp_path, capsys, level):
    source = _write(tmp_path, "level.csv", f"{_EFFECT_HEADER.decode()}A,,1.5,1.1,2.0,{level}\n")
    message = f"ci_level {level} is too near 0 or 1\n"
    for argv in (
        ["convert", source],
        ["plot", source, "--outdir", str(tmp_path)],
        ["pool", source, "--model", "fixed"],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: level.csv:2:ci_level: {message}"
    for model in ("fixed", "dl"):
        argv = ["pool", str(fixture_path("region_pair.csv")), "--model", model, "--level", level]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: --level: {message}"


def test_pooled_upper_limit_beyond_float_range_exits_2(tmp_path, capsys):
    source = _write(tmp_path, "big.csv", f"{_EFFECT_HEADER.decode()}A,,1e300,1e290,1e308,\n")
    for argv in (
        ["pool", source, "--model", "fixed"],
        ["pool", source, "--model", "dl"],
        ["plot", source, "--outdir", str(tmp_path)],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: pooled upper limit exp(711.499) exceeds the float range\n"
        )


def test_no_color_env_respected(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("NO_COLOR", "1")
    source = _write(
        tmp_path,
        "bad.csv",
        "study_label,subgroup_label,odds_ratio,ci_low,ci_high\nA,,x,1,2\n",
    )
    assert main(["convert", source]) == 2
    assert "\x1b" not in capsys.readouterr().err


def test_pool_fixed_json(capsys):
    assert main(["pool", str(fixture_path("region_pair.csv")), "--model", "fixed"]) == 0
    payload = json.loads(capsys.readouterr().out)
    result = payload["result"]
    assert result["method"] == "fixed"
    assert result["k"] == 2
    assert math.isclose(result["pooled_or"], 1.34, abs_tol=0.02)
    assert payload["input"]["rows"] == 2


def test_pool_dl_json(capsys):
    assert main(["pool", str(fixture_path("wheeze_effects.csv")), "--model", "dl"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["method"] == "dersimonian_laird"
    assert result["tau_squared"] >= 0.0


def test_pool_requires_model(capsys):
    with pytest.raises(SystemExit) as info:
        main(["pool", str(fixture_path("region_pair.csv"))])
    assert info.value.code == 2


def test_plot_writes_three_artifacts(tmp_path, capsys):
    code = main(
        [
            "plot",
            str(fixture_path("asthma_effects.csv")),
            "--method",
            "natural",
            "--outdir",
            str(tmp_path),
        ]
    )
    assert code == 0
    svg = (tmp_path / "asthma_effects_plot.svg").read_text(encoding="utf-8")
    table = (tmp_path / "asthma_effects_plot.csv").read_text(encoding="utf-8")
    audit = json.loads((tmp_path / "asthma_effects_audit.json").read_text(encoding="utf-8"))
    assert svg.startswith("<svg")
    assert "asthma_effects" in svg
    assert table.splitlines()[0] == "rank,label,p_value,below_alpha,negative_effect"
    assert audit["method"] == "natural"
    assert audit["plot"]["n"] == 13
    assert audit["plot"]["n_below_alpha"] == 1
    assert audit["classification"]["verdict"] == "uniform45"
    assert {"fixed", "dersimonian_laird"} == set(audit["pooled"])
    out = capsys.readouterr().out
    assert "verdict uniform45" in out


@pytest.mark.parametrize(
    "method, artifact, sha256",
    [
        ("natural", "asthma_effects_plot.svg",
         "3b226056df5313215c428c2b764f2b7bb94ee18b6fd8bf712c07d3879b9d7787"),
        ("natural", "asthma_effects_plot.csv",
         "008c01555b8267bb78b9ba80bd43ae34305561e82ae8a1fb7e7846452c08817b"),
        ("log", "asthma_effects_plot.svg",
         "3e995f74629dd1d07a1f33bfa93894790bb36719c396044c2a87b87295f2137f"),
        ("log", "asthma_effects_plot.csv",
         "094e51dc99867ebcd33fe5e2848a7a7024fddba5f5b304837706e555ff082aa7"),
        ("natural", "asthma_effects_audit.json",
         "f32f8733b4daed8471e7cce741ce1b8684ce107a9afec57a2e5b5c102ef972a3"),
        ("log", "asthma_effects_audit.json",
         "977f63e52882c58a62a04219f46139cf71ea26fd90d09eb37a0ee536fd1423b2"),
        # Wheeze has 6 rows below alpha, and the two readings pick different ones.
        ("natural", "wheeze_effects_plot.svg",
         "e172ab0812ca87046014d5160836b56ff2c12fbdc5667b2e2741769a5fc8ec1a"),
        ("natural", "wheeze_effects_plot.csv",
         "9b01fc68c279a34a24955a2126fe186bace45a44e7ca99889d8d1bbb8f996f2c"),
        ("log", "wheeze_effects_plot.svg",
         "b2d59ab5c6892142e737a9bd5b236f3e670afa3b600e0e466670b3bc2e2384ce"),
        ("log", "wheeze_effects_plot.csv",
         "d00ab578ca8a0db7b2369b086c17edd7a1a8a2f504dd1357099ec0337ef5c650"),
        ("natural", "wheeze_effects_audit.json",
         "c2bbc79d3daec3f24bc16d519590916048ccc49669c5d1ddf5baac863863de40"),
        ("log", "wheeze_effects_audit.json",
         "cf065bc638cfbd6944bcea207b7c8be9713f7b9ce89baad3c86176dd88bbb940"),
    ],
)
def test_plot_artifact_pins(tmp_path, capsys, method, artifact, sha256):
    table = artifact.partition("_")[0]
    argv = ["plot", str(fixture_path(f"{table}_effects.csv")), "--method", method]
    assert main([*argv, "--outdir", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest() == sha256


def test_count_summary(capsys):
    assert main(["count", str(fixture_path("hypothesis_counts.csv"))]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["median"] == 15360.0
    assert payload["summary"]["median_expected_false_positives"] == 768.0
    spaces = {s["paper_label"]: s["search_space"] for s in payload["studies"]}
    assert spaces["Diette 2007"] == 320
    assert spaces["Lin 2013b"] == 304128


def test_count_median_false_positives_use_the_interpolated_median(tmp_path, capsys):
    # Two papers, spaces 8 and 17: the median is 12.5, not an integer.
    ledger = _write(
        tmp_path,
        "pair.csv",
        "paper_label,region,block_label,outcomes,predictors,covariates\n"
        "A,x,models,8,1,0\n"
        "B,x,models,17,1,0\n",
    )
    assert main(["count", ledger, "--alpha", "0.05"]) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert summary["median"] == 12.5
    assert summary["median_expected_false_positives"] == 0.05 * 12.5 == 0.625


def test_pool_reads_a_pipe_once(tmp_path):
    source = fixture_path("asthma_effects.csv")
    package_root = Path(metaaudit.__file__).parent.parent
    # input= hands the bytes over through a pipe, which can be read only once.
    result = subprocess.run(
        [sys.executable, "-m", "metaaudit.cli", "pool", "/dev/stdin", "--model", "fixed"],
        input=source.read_bytes(),
        capture_output=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
        check=True,
    )
    digest = json.loads(result.stdout)["input"]
    assert digest["rows"] == 13
    assert digest["sha256"] == hashlib.sha256(source.read_bytes()).hexdigest()


_LEDGER_HEADER = "paper_label,region,block_label,outcomes,predictors,covariates\n"


@settings(deadline=None, max_examples=200)
@given(st.binary() | st.binary().map(lambda body: _LEDGER_HEADER.encode() + body))
def test_any_ledger_csv_bytes_count_exits_0_or_2_naming_the_file(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ledger.csv"
        path.write_bytes(data)
        code, err = _run_quietly(["count", str(path)])
    assert code in (0, 2)
    if code == 2:
        assert err.startswith(f"error: {path.name}")


# Valid blocks under shared labels, so that regions conflict and paper
# sums overflow, mixed with rows whose labels may be blank or all-space and
# whose counts run to the guards' edges (C = 128 and 129, N near and beyond
# float range, an integer past the digit limit) or are not integers at all.
_VALID_BLOCK = st.sampled_from([("2", "1", "3"), ("1_000", "2", "128"), (str(10 ** 308), "1", "0")])
_COUNT = st.sampled_from(
    ["1", "0", "-1", "128", "129", str(10 ** 308), str(10 ** 400), "9" * 5000, "1_000",
     "abc", "2.5", ""]
)
_LEDGER_ROW = st.tuples(
    st.sampled_from(["P0", "P1"]), st.sampled_from(["x", "y"]), _VALID_BLOCK
) | st.tuples(
    st.sampled_from(["P0", "P1", "", "   "]), st.sampled_from(["x", "y"]),
    st.tuples(_COUNT, _COUNT, _COUNT),
)


@settings(deadline=None, max_examples=80, derandomize=True)
@given(st.lists(_LEDGER_ROW, min_size=1, max_size=4))
def test_any_ledger_rows_exit_0_or_2_at_a_named_column(rows):
    body = "".join(f"{label},{region},m,{','.join(counts)}\n" for label, region, counts in rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ledger.csv"
        path.write_bytes((_LEDGER_HEADER + body).encode())
        code, err = _run_quietly(["count", str(path)])
    assert code in (0, 2), err
    assert ":None:" not in err, err
    if code == 2:
        assert err.startswith("error: ledger.csv:"), err


@pytest.mark.parametrize(
    "rows, located",
    [
        # One block whose O * P * 2^C is beyond float range.
        (f"A,x,models,{10 ** 400},1,0\nB,x,models,3,1,0\n", "huge.csv:2:outcomes:"),
        (f"A,x,models,3,1,0\nB,x,models,{10 ** 150},{10 ** 200},0\n", "huge.csv:3:predictors:"),
        # Blocks within float range whose sum for one paper is not.
        (f"A,x,m1,{10 ** 308},1,0\nB,x,m,3,1,0\nA,x,m2,{10 ** 308},1,0\n", "huge.csv:4:paper_label:"),
    ],
    ids=["block-outcomes", "block-predictors", "paper-sum"],
)
def test_count_search_space_beyond_float_range_exits_2(tmp_path, capsys, rows, located):
    ledger = _write(tmp_path, "huge.csv", _LEDGER_HEADER + rows)
    assert main(["count", ledger]) == 2
    err = capsys.readouterr().err
    assert located in err
    assert "exceeds the float range" in err


def test_count_integer_beyond_the_digit_limit_exits_2(tmp_path, capsys):
    digits = "9" * 5001
    ledger = _write(
        tmp_path,
        "long.csv",
        _LEDGER_HEADER + f"A,x,models,{digits},1,0\nB,x,models,3,x{digits},0\n",
    )
    assert main(["count", ledger]) == 2
    err = capsys.readouterr().err
    assert "long.csv:2:outcomes: an integer of 5001 digits is too long to read" in err
    # A cell that is not an integer is echoed cut short, with its length.
    assert f"long.csv:3:predictors: 'x{digits[:39]}'... (5002 characters) is not an integer" in err
    assert len(err) < 300


@pytest.mark.parametrize(
    "publications, median_nh, named",
    [
        ("107", str(10 ** 400), "--median-nh"),
        (str(10 ** 400), "13824", "--publications"),
        # A product beyond float range names the larger factor's flag.
        (str(10 ** 200), str(10 ** 200), "--publications: alpha * n_publications * median_space"),
        (str(10 ** 308), "13824", "--publications: alpha * n_publications * median_space"),
        ("107", str(10 ** 308), "--median-nh: alpha * n_publications * median_space"),
    ],
    ids=["median", "publications", "product", "product-publications", "product-median-nh"],
)
def test_cohort_beyond_float_range_exits_2(capsys, publications, median_nh, named):
    argv = ["cohort", "--publications", publications, "--median-nh", median_nh]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}")
    assert "exceeds the float range" in err


def test_cohort_output(capsys):
    assert main(["cohort", "--publications", "107", "--median-nh", "13824"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["expected_false_positives_rounded"] == 73958
    assert math.isclose(payload["expected_false_positives"], 73958.4, abs_tol=1e-6)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["pool", "{fixtures}/asthma_effects.csv", "--model", "fixed", "--level", "1.5"],
         "--level: ci_level must be inside (0, 1), got 1.5"),
        (["pool", "{fixtures}/asthma_effects.csv", "--model", "dl", "--level", "0"],
         "--level: ci_level must be inside (0, 1), got 0.0"),
        (["plot", "{fixtures}/asthma_effects.csv", "--alpha", "2", "--outdir", "{out}"],
         "--alpha: alpha must be inside (0, 1), got 2.0"),
        (["count", "{fixtures}/hypothesis_counts.csv", "--alpha", "2"],
         "--alpha: alpha must be inside (0, 1), got 2.0"),
        (["cohort", "--publications", "107", "--median-nh", "13824", "--alpha", "2"],
         "--alpha: alpha must be inside (0, 1), got 2.0"),
        (["cohort", "--publications", "0", "--median-nh", "13824"],
         "--publications: n_publications must be an integer >= 1, got 0"),
        (["cohort", "--publications", "107", "--median-nh", "-1"],
         "--median-nh: median_space must be an integer >= 0, got -1"),
    ],
    ids=["pool-level", "pool-dl-level", "plot-alpha", "count-alpha", "cohort-alpha",
         "cohort-publications", "cohort-median-nh"],
)
def test_flag_errors_name_the_flag(tmp_path, capsys, argv, message):
    fixtures = fixture_path("asthma_effects.csv").parent
    argv = [arg.format(fixtures=fixtures, out=tmp_path) for arg in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_simulate_smoke(tmp_path, capsys):
    config = _write(
        tmp_path,
        "sim.json",
        json.dumps(
            {
                "scenario": "fixed_effect",
                "k": 10,
                "trials": 25,
                "seed": 3,
                "log_or": 0.7,
                "se_range": [0.1, 0.3],
            }
        ),
    )
    assert main(["simulate", "--config", config]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert sum(payload["verdict_counts"].values()) == 25
    assert payload["config"]["scenario"] == "fixed_effect"


def test_simulate_rejects_unknown_keys(tmp_path, capsys):
    config = _write(
        tmp_path,
        "sim.json",
        json.dumps({"scenario": "null", "k": 10, "trials": 5, "seed": 3, "oops": 1}),
    )
    assert main(["simulate", "--config", config]) == 2
    assert "unknown config keys: oops" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("se_range", ["a", 1], "se_range must be a finite number, got 'a'"),
        ("se_range", [0.1, True], "se_range must be a finite number, got True"),
        ("log_or", None, "log_or must be a finite number, got None"),
        ("log_or", 10 ** 400, "log_or must be a finite number"),
        ("effect_fraction", "half", "effect_fraction must be a finite number, got 'half'"),
        ("k", "27", "k must be an integer >= 1, got '27'"),
        ("seed", 1.5, "seed must be an integer >= 0, got 1.5"),
        ("k", "5", "k must be an integer >= 1, got '5'"),
        ("seed", 1e3, "seed must be an integer >= 0, got 1000.0"),
    ],
    ids=["se_range-text", "se_range-bool", "log_or-null", "log_or-overflow",
         "effect_fraction-text", "k-text", "seed-float", "k-text-5", "seed-float-1e3"],
)
def test_simulate_rejects_mistyped_numbers(tmp_path, capsys, key, value, message):
    config = _write(tmp_path, "sim.json", json.dumps({**SIM_NULL, key: value}))
    assert main(["simulate", "--config", config]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ")
    assert message in err


def test_simulate_rejects_a_key_given_twice(tmp_path, capsys):
    # json.loads alone keeps the last copy, which would run 3 trials.
    config = _write(tmp_path, "sim.json", json.dumps(SIM_NULL)[:-1] + ', "trials": 3}')
    assert main(["simulate", "--config", config]) == 2
    assert capsys.readouterr().err == f"error: {config}: duplicate config key: trials\n"


def test_simulate_reads_a_config_with_a_byte_order_mark(tmp_path, capsys):
    # As effect and ledger CSVs do: editors on Windows may write one.
    plain = _write(tmp_path, "plain.json", json.dumps(SIM_NULL))
    marked = _write(tmp_path, "marked.json", "\ufeff" + json.dumps(SIM_NULL))
    assert main(["simulate", "--config", plain]) == 0
    expected = capsys.readouterr().out
    assert main(["simulate", "--config", marked]) == 0
    assert capsys.readouterr().out == expected


def test_simulate_rejects_bad_json(tmp_path, capsys):
    config = _write(tmp_path, "sim.json", "{not json")
    assert main(["simulate", "--config", config]) == 2
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[]", "1", '"x"'], ids=["list", "number", "string"])
def test_simulate_rejects_json_that_is_not_an_object(tmp_path, capsys, text):
    config = _write(tmp_path, "sim.json", text)
    assert main(["simulate", "--config", config]) == 2
    assert capsys.readouterr().err == f"error: {config}: simulation config must be a JSON object\n"


def test_reproduce_passes_and_is_deterministic(tmp_path, capsys):
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main(["reproduce", "--outdir", str(first)]) == 0
    assert main(["reproduce", "--outdir", str(second)]) == 0
    out = capsys.readouterr().out
    assert "75/75 passed" in out
    names = ["reproduction.json", "asthma_plot.svg", "wheeze_plot.svg"]
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()
    report = json.loads((first / "reproduction.json").read_text(encoding="utf-8"))
    assert report["summary"]["all_gated_pass"] is True
    assert report["summary"]["informational"] == 6


def test_reproduce_exits_1_and_names_each_failing_gated_check(tmp_path, capsys, monkeypatch):
    from metaaudit import reproduce

    monkeypatch.setattr(reproduce, "EXPECTED_LUNGFUNCTION_TOTAL", 461000)
    monkeypatch.setattr(reproduce, "EXPECTED_COHORT_FP_ROUNDED", 73900)
    assert main(["reproduce", "--outdir", str(tmp_path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == [
        "gated checks: 73/75 passed, 6 informational",
        "  FAIL lungfunction_total: computed 461440, expected 461000 (|delta| 440 > 0)",
        "  FAIL cohort_fp_rounded: computed 73958, expected 73900 (|delta| 58 > 0)",
    ]


def _written_documents(tmp_path):
    """Each JSON document the commands write from the fixtures, by name."""
    (tmp_path / "sim.json").write_text(json.dumps(SIM_NULL), encoding="utf-8")
    fixtures = fixture_path("asthma_effects.csv").parent
    runs = {
        "pool.json": ["pool", f"{fixtures}/asthma_effects.csv", "--model", "dl"],
        "count.json": ["count", f"{fixtures}/hypothesis_counts.csv"],
        "count_lung.json": ["count", f"{fixtures}/lungfunction_blocks.csv"],
        "cohort.json": ["cohort", "--publications", "107", "--median-nh", "13824"],
        "simulate.json": ["simulate", "--config", f"{tmp_path}/sim.json"],
    }
    for name, argv in runs.items():
        assert main([*argv, "--output", str(tmp_path / name)]) == 0
    for dataset in ("asthma", "wheeze"):
        argv = ["plot", f"{fixtures}/{dataset}_effects.csv", "--method", "natural"]
        assert main([*argv, "--outdir", str(tmp_path)]) == 0
    assert main(["reproduce", "--outdir", str(tmp_path)]) == 0
    names = [*runs, "asthma_effects_audit.json", "wheeze_effects_audit.json", "reproduction.json"]
    return {name: json.loads((tmp_path / name).read_text(encoding="utf-8")) for name in names}


def test_version_is_stamped_once_when_a_document_is_written(tmp_path, capsys):
    for name, document in _written_documents(tmp_path).items():
        assert document["version"] == metaaudit.__version__, name
    built = [
        audit_report(ingest_effects(fixture_path("asthma_effects.csv")), ConversionMethod.NATURAL),
        count_report(ingest_counts(fixture_path("hypothesis_counts.csv")), 0.05),
        cohort_report(107, 13824, 0.05),
        run_reproduction(),
    ]
    for payload in built:
        assert "version" not in payload


def test_reproduce_checks_what_the_commands_write(tmp_path, capsys):
    documents = _written_documents(tmp_path)
    reproduction = documents["reproduction.json"]
    computed = {c["name"]: c["computed"] for c in reproduction["checks"]}
    written = {}
    count = documents["count.json"]
    for study in count["studies"]:
        written[f"nh[{study['paper_label']}]"] = study["search_space"]
    for field in ("lower_quartile", "median", "upper_quartile", "maximum", "mean_rounded"):
        written[f"ledger_{field}"] = count["summary"][field]
    written["median_expected_fp"] = count["summary"]["median_expected_false_positives"]
    lung = documents["count_lung.json"]["studies"][0]
    written["lungfunction_total"] = lung["search_space"]
    written["lungfunction_expected_fp"] = lung["expected_false_positives"]
    written["cohort_fp_rounded"] = documents["cohort.json"]["expected_false_positives_rounded"]
    for dataset in ("asthma", "wheeze"):
        audit = documents[f"{dataset}_effects_audit.json"]
        for point in audit["plot"]["points"]:
            written[f"p_{dataset}[{point['label']}]"] = point["p_value"]
        pooled = audit["pooled"]["dersimonian_laird"]
        for name, field in (("or", "pooled_or"), ("ci_low", "ci_low"), ("ci_high", "ci_high")):
            written[f"{dataset}_dl_{name}"] = pooled[field]
    # 14 papers, 5 summary fields, 1 median FP, 2 lung-function, 1 cohort,
    # 13 + 27 p-values and 6 DL bounds.
    assert len(written) == 69
    assert {name: computed[name] for name in written} == written
    for name in ("count.json", "count_lung.json", "asthma_effects_audit.json",
                 "wheeze_effects_audit.json"):
        digest = documents[name]["input"]
        assert reproduction["fixtures"][digest["file"]] == digest


@pytest.mark.parametrize(
    "golden, argv, artifact",
    [
        (
            "asthma_effects_audit.json",
            ["plot", "{fixtures}/asthma_effects.csv", "--method", "natural", "--outdir", "{out}"],
            "asthma_effects_audit.json",
        ),
        (
            "hypothesis_counts_count.json",
            ["count", "{fixtures}/hypothesis_counts.csv", "--output", "{out}/count.json"],
            "count.json",
        ),
        (
            "asthma_effects_pool_dl.json",
            ["pool", "{fixtures}/asthma_effects.csv", "--model", "dl", "--output", "{out}/pool.json"],
            "pool.json",
        ),
        (
            "wheeze_effects_pool_dl.json",
            ["pool", "{fixtures}/wheeze_effects.csv", "--model", "dl", "--output", "{out}/pool.json"],
            "pool.json",
        ),
        (
            "simulate_null.json",
            ["simulate", "--config", "{out}/sim.json", "--output", "{out}/simulate.json"],
            "simulate.json",
        ),
        ("reproduction.json", ["reproduce", "--outdir", "{out}"], "reproduction.json"),
        (
            "simulate_mixture.json",
            ["simulate", "--config", "{out}/mix.json", "--output", "{out}/mixture.json"],
            "mixture.json",
        ),
        (
            "wheeze_effects_convert_log.csv",
            ["convert", "{fixtures}/wheeze_effects.csv", "--method", "log", "--output", "{out}/convert.csv"],
            "convert.csv",
        ),
        (
            "cohort.json",
            ["cohort", "--publications", "107", "--median-nh", "13824", "--output", "{out}/cohort.json"],
            "cohort.json",
        ),
        (
            "lungfunction_blocks_count_alpha_0.01.json",
            ["count", "{fixtures}/lungfunction_blocks.csv", "--alpha", "0.01", "--output", "{out}/count.json"],
            "count.json",
        ),
    ],
)
def test_artifact_matches_golden(tmp_path, capsys, golden, argv, artifact):
    (tmp_path / "sim.json").write_text(json.dumps(SIM_NULL), encoding="utf-8")
    (tmp_path / "mix.json").write_text(json.dumps(SIM_MIXTURE), encoding="utf-8")
    fixtures = fixture_path("asthma_effects.csv").parent
    argv = [arg.format(fixtures=fixtures, out=tmp_path) for arg in argv]
    assert main(argv) == 0
    assert (tmp_path / artifact).read_bytes() == (GOLDEN_DIR / golden).read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["convert", "{fixtures}/wheeze_effects.csv", "--method", "natural"],
        ["pool", "{fixtures}/asthma_effects.csv", "--model", "dl", "--level", "0.9"],
        ["count", "{fixtures}/hypothesis_counts.csv", "--alpha", "0.01"],
        ["cohort", "--publications", "107", "--median-nh", "13824"],
        ["simulate", "--config", "{out}/sim.json"],
    ],
    ids=["convert", "pool", "count", "cohort", "simulate"],
)
def test_stdout_dash_and_file_outputs_are_the_same_bytes(tmp_path, capsysbinary, argv):
    (tmp_path / "sim.json").write_text(json.dumps(SIM_NULL), encoding="utf-8")
    fixtures = fixture_path("asthma_effects.csv").parent
    argv = [arg.format(fixtures=fixtures, out=tmp_path) for arg in argv]
    assert main(argv) == 0
    omitted = capsysbinary.readouterr().out
    assert main([*argv, "--output", "-"]) == 0
    assert capsysbinary.readouterr().out == omitted
    assert main([*argv, "--output", str(tmp_path / "out")]) == 0
    assert capsysbinary.readouterr().out == b""
    assert (tmp_path / "out").read_bytes() == omitted
    assert omitted
