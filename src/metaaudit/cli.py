"""Command line interface.

Usage examples:

    metaaudit convert studies.csv --method natural
    metaaudit pool studies.csv --model fixed --output pooled.json
    metaaudit plot studies.csv --method natural --outdir out
    metaaudit count ledger.csv --alpha 0.05
    metaaudit cohort --publications 107 --median-nh 13824
    metaaudit simulate --config sim.json --output report.json
    metaaudit reproduce --outdir out

Exit codes: 0 success, 1 unexpected failure or reproduction mismatch,
2 bad input (unreadable files, CSV format problems, domain errors, usage
errors) or an output that cannot be written, stdout included
(`<stdout>: cannot write`).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from importlib import util
from pathlib import Path
from typing import Any

from . import __version__
from .errors import AuditError, OutputFileError

# perfbench's tracer wraps functions only in the modules that sys.modules
# lists just after `import metaaudit.cli`. So each module holding one of its
# targets is registered here, as an import would register it, to execute on
# its first attribute access; a function's `from . import` finds it here.
for _name in ("effects", "ingest", "normal", "pooling", "pvplot", "report", "reproduce",
              "search_space", "simulate"):
    if f"{__package__}.{_name}" not in sys.modules:
        _spec = util.find_spec(f"{__package__}.{_name}")
        _spec.loader = util.LazyLoader(_spec.loader)
        sys.modules[_spec.name] = _module = util.module_from_spec(_spec)
        _spec.loader.exec_module(_module)
        setattr(sys.modules[__package__], _name, _module)


def _print_error(message: str) -> None:
    prefix = "error:"
    if not os.environ.get("NO_COLOR") and sys.stderr.isatty():
        prefix = "\x1b[31merror:\x1b[0m"
    print(f"{prefix} {message}", file=sys.stderr)


def _write_text(output: str | None, text: str) -> None:
    if output is None or output == "-":
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            # Point the descriptor at devnull, so that the interpreter's flush
            # at exit neither prints a traceback nor turns exit 2 into 120.
            with contextlib.suppress(OSError):  # A stream with no descriptor keeps nothing.
                fd = sys.stdout.fileno()
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, fd)
                os.close(devnull)
            raise OutputFileError(f"<stdout>: cannot write: {exc.strerror}") from None
    else:
        from . import report

        report.write_text(Path(output), text)


def _emit(output: str | None, payload: dict[str, Any]) -> int:
    """Write payload as a version-stamped document."""
    from . import report

    _write_text(output, report.document_json(payload))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    import csv  # Only convert writes CSV here; simulate and cohort never load it.

    from . import effects, ingest

    rows = ingest.ingest_effects(args.input)
    method = effects.ConversionMethod(args.method)
    buffer = io.StringIO()
    writer = csv.DictWriter(
        buffer, (*ingest.EFFECT_COLUMNS, "ci_level", "p_value"), lineterminator="\n"
    )
    writer.writeheader()
    for row in rows:
        writer.writerow({**row._asdict(), "p_value": effects.p_from_effect(row, method)})
    _write_text(args.output, buffer.getvalue())
    return 0


def _cmd_pool(args: argparse.Namespace) -> int:
    from . import ingest, pooling

    rows = ingest.ingest_effects(args.input)
    pool = pooling.pool_fixed if args.model == "fixed" else pooling.pool_dersimonian_laird
    result = pool(rows, ci_level=args.level)
    return _emit(args.output, {"input": rows.digest, "result": result})


def _cmd_plot(args: argparse.Namespace) -> int:
    from . import effects, figure, ingest, pvplot, report

    path = Path(args.input)
    audit = figure.audit_report(ingest.ingest_effects(path),
                                effects.ConversionMethod(args.method), args.alpha)
    plot, classification = audit["plot"], audit["classification"]
    outdir = Path(args.outdir)
    written = {
        f"{path.stem}_plot.svg": pvplot.render_plot(plot, classification, path.stem, "svg"),
        f"{path.stem}_plot.csv": pvplot.render_plot(plot, classification, path.stem, "csv"),
        f"{path.stem}_audit.json": report.document_json(audit),
    }
    report.write_artifacts(outdir, written)
    _write_text(None, "".join([
        f"{path.stem}: {plot.n} p-values, {plot.n_below_alpha} below alpha, "
        f"verdict {classification.verdict.value}\n",
        *(f"wrote {outdir / name}\n" for name in written),
    ]))
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    from . import ingest, search_space

    counts = ingest.ingest_counts(args.input)
    return _emit(args.output, search_space.count_report(counts, args.alpha))


def _cmd_cohort(args: argparse.Namespace) -> int:
    from . import search_space

    document = search_space.cohort_report(args.publications, args.median_nh, args.alpha)
    return _emit(args.output, document)


def _cmd_simulate(args: argparse.Namespace) -> int:
    from . import simulate

    result = simulate.run_simulation(simulate.load_config(args.config))
    return _emit(args.output, result._asdict())


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from . import reproduce

    diff = reproduce.run_reproduction(args.outdir)
    summary = diff["summary"]
    outdir = Path(args.outdir)
    failed = [check for check in diff["checks"] if check["gated"] and not check["pass"]]
    _write_text(None, "".join([
        f"wrote {outdir / 'reproduction.json'} and {len(reproduce.FIGURE_FILES)} figure SVGs\n",
        f"gated checks: {summary['gated_passed']}/{summary['gated']} passed, "
        f"{summary['informational']} informational\n",
        *(f"  FAIL {check['name']}: computed {check['computed']!r}, "
          f"expected {check['expected']!r} "
          f"(|delta| {check['abs_delta']:.6g} > {check['tolerance']:.6g})\n" for check in failed),
    ]))
    return 0 if summary["all_gated_pass"] else 1


def _method_options() -> dict[str, Any]:
    """--method's options, read from effects only when a parser takes the flag."""
    from . import effects

    methods = effects.ConversionMethod
    return dict(choices=[m.value for m in methods], default=methods.LOG.value,
                help="interval reading used to recover the standard error")


_EFFECTS = {"input": dict(help="effect CSV path")}
_METHOD = {"--method": _method_options}
_OUTPUT = {"--output": dict(help="output path (default stdout)")}
_FP_RATE = {"--alpha": dict(type=float, default=0.05, help="false-positive rate per test")}

# Each subcommand: its handler, its help, and the add_argument options of
# each of its arguments (or a function that returns them), by name, in usage
# order. Library functions stay out of this table: a handler imports the
# modules it calls when it runs and reads each function from its module, so
# only that command's modules execute, and a function patched on its module
# (perfbench's tracer, unittest.mock.patch) is the one called.
_COMMANDS = {
    "convert": (_cmd_convert, "convert OR/CI rows to two-sided p-values (CSV out)",
                {**_EFFECTS, **_METHOD, **_OUTPUT}),
    "pool": (_cmd_pool, "pool a study set with inverse-variance weights (JSON out)", {
        **_EFFECTS,
        "--model": dict(choices=["fixed", "dl"], required=True,
                        help="fixed effect or DerSimonian-Laird random effects"),
        "--level": dict(type=float, default=0.95, help="confidence level (default 0.95)"),
        **_OUTPUT,
    }),
    "plot": (_cmd_plot, "build, classify and render a p-value plot (SVG + CSV + JSON)", {
        **_EFFECTS,
        **_METHOD,
        "--alpha": dict(type=float, default=0.05, help="significance threshold"),
        "--outdir": dict(default=".", help="directory for the artifacts"),
    }),
    "count": (_cmd_count, "per-paper multiple-testing search spaces (JSON out)", {
        "input": dict(help="model-count CSV path"),
        **_FP_RATE,
        **_OUTPUT,
    }),
    "cohort": (_cmd_cohort, "expected false positives across a publication cohort", {
        "--publications": dict(type=int, required=True,
                               help="number of publications in the cohort"),
        "--median-nh": dict(type=int, required=True, help="median per-publication search space"),
        **_FP_RATE,
        **_OUTPUT,
    }),
    "simulate": (_cmd_simulate, "seeded Monte Carlo calibration of the plot classifier", {
        "--config": dict(
            required=True,
            help="JSON config: scenario, k, trials, seed, se_range, log_or, effect_fraction",
        ),
        **_OUTPUT,
    }),
    "reproduce": (
        _cmd_reproduce, "recompute the bundled datasets' reference numbers and diff them",
        {"--outdir": dict(default=".", help="directory for reproduction.json and figures")},
    ),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser; with a known command, it holds only that subcommand.

    A one-command parser parses that command's argv with the same help,
    usage and error text as the full one: the metavar keeps every command
    in the top-level usage line. Any other argv (none, -h, --version, an
    unknown command) needs the full parser, which build_parser() returns.
    """
    parser = argparse.ArgumentParser(
        prog="metaaudit",
        description="Reliability audit toolkit for odds-ratio meta-analyses.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    single = command in _COMMANDS
    subparsers = parser.add_subparsers(
        dest="command", required=True,
        # The full parser lists every command from its choices; a metavar
        # there would rename "command" in its missing-argument error.
        metavar="{" + ",".join(_COMMANDS) + "}" if single else None,
    )
    for name in [command] if single else _COMMANDS:
        handler, help_text, arguments = _COMMANDS[name]
        subparser = subparsers.add_parser(name, help=help_text)
        for argument, options in arguments.items():
            subparser.add_argument(argument, **(options() if callable(options) else options))
        subparser.set_defaults(func=handler)
    return parser


# The library fields that receive a flag's value, and the flag an error names.
_FLAGS = {
    "alpha": "--alpha",
    "ci_level": "--level",
    "n_publications": "--publications",
    "median_space": "--median-nh",
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        import gc

        # As the process entry, freeze start-up's objects so the exit collection skips them.
        gc.freeze()
        argv = sys.argv[1:]
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args)
    except AuditError as exc:
        flag = _FLAGS.get(exc.field)
        _print_error(f"{flag}: {exc}" if flag else str(exc))
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        _print_error(f"{type(exc).__name__}: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
