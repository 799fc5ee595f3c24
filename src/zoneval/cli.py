"""Command-line front end.

Each command takes only the shared flags it reads:

  fit                 --input --output --spec --alpha --format
  describe            --input --output --spec --format
  whatif              --input --output --spec --format (default csv)
  hypothesis          --input --output --format
  synth               --output --seed
  reproduction-check  --output --format

A shared flag can also come from its environment variable with the
ZONEVAL_ prefix (ZONEVAL_INPUT, ZONEVAL_ALPHA, ...); an explicit flag
wins and an empty variable counts as unset.  A command refuses a flag
it does not take, and a set variable for one.  A command reads --spec,
fit checks --alpha and describe --corr-threshold, before it loads
--input, so a bad spec file, alpha or threshold fails before a large
load.  Every command is deterministic given its configuration (fit,
hypothesis and describe print the same bytes under one BLAS thread and
under two), exits 0 on success, and prints a single-line diagnostic to
stderr on failure, usage errors included.

Building the parser imports no analysis module, and each command
imports the functions it calls when it runs.  So ``--help``, a usage
error and ``reproduction-check`` do not load numpy, and every other
command loads numpy only: zoneval does not use scipy.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import DEFAULT_ALPHA, DEFAULT_NOISE_SIGMA, HIGH_CORRELATION_THRESHOLD, ZONES, render

if TYPE_CHECKING:
    from .design import ModelSpec

ENV_PREFIX = "ZONEVAL_"
SHARED_FLAGS = ("input", "output", "spec", "alpha", "seed", "format")


def _env(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name.upper())


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so ``main`` reports them like any other."""

    def error(self, message):
        raise ValueError(message)


def _add_shared(parser: argparse.ArgumentParser, *names: str, format_default: str = "text") -> None:
    """Declare the shared flags ``names``.  All six variables are read,
    so a bad value is an error whichever command runs."""
    env_input = _env_value("input", str, None, "a path")
    flags = {
        "input": dict(default=env_input, required=env_input is None, help="parcel CSV path"),
        "output": dict(
            default=_env_value("output", str, None, "a path"),
            help="write the report here instead of stdout",
        ),
        "spec": dict(
            default=_env_value("spec", str, None, "a path"),
            help="model spec file (default: built-in model)",
        ),
        "alpha": dict(
            type=float,
            default=_env_value("alpha", float, DEFAULT_ALPHA, "a number"),
            help="significance level (default %(default)s)",
        ),
        "seed": dict(
            type=int,
            default=_env_value("seed", int, 0, "an integer"),
            help="seed of the synthetic market (default %(default)s)",
        ),
        "format": dict(
            choices=render.FORMATS,
            default=_env_value(
                "format", _format_name, format_default, "one of " + ", ".join(render.FORMATS)
            ),
            help="report format (default %(default)s)",
        ),
    }
    for name in names:
        parser.add_argument("--" + name, **flags[name])


def _env_value(name: str, convert, default, valid: str):
    """A flag's default: its ZONEVAL_ variable converted, or ``default``
    when the variable is unset or empty.  A bad value is an error naming
    the variable; argparse would not check a default against ``choices``."""
    raw = _env(name)
    if not raw:
        return default
    try:
        return convert(raw)
    except ValueError:
        raise ValueError(f"{ENV_PREFIX}{name.upper()}={raw!r} is not {valid}") from None


def _format_name(value: str) -> str:
    if value not in render.FORMATS:
        raise ValueError(value)
    return value


def _load_spec(args) -> ModelSpec:
    from .design import default_model_spec, read_model_spec

    return read_model_spec(args.spec) if args.spec else default_model_spec()


def _load_clean_table(args):
    from .parcels import clean, load_parcels

    table = load_parcels(args.input)
    return clean(table)


def _emit(text: str, args) -> None:
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_fit(args) -> int:
    from .inference import check_alpha, fit_table

    check_alpha(args.alpha)
    spec = _load_spec(args)
    cleaned, report = _load_clean_table(args)
    _, _, inference = fit_table(cleaned, spec, args.alpha)
    text = render.render_fit(inference, args.format)
    if args.format == "text":
        text = (
            f"Input: {args.input} ({report.rows_in} rows, {report.rows_dropped} dropped in cleaning)\n"
            + text
        )
    _emit(text, args)
    return 0


def cmd_describe(args) -> int:
    from .diagnostics import check_correlation_threshold, describe

    check_correlation_threshold(args.corr_threshold)
    spec = _load_spec(args)
    cleaned, _report = _load_clean_table(args)
    _emit(render.render_describe(describe(cleaned, spec, args.corr_threshold), args.format), args)
    return 0


def cmd_whatif(args) -> int:
    from .option_value import FittedModel, rezone_counterfactual

    spec = _load_spec(args)
    cleaned, report = _load_clean_table(args)
    model = FittedModel.fit(cleaned, spec)
    if args.pins is not None:
        wanted = [pin.strip() for pin in args.pins.split(",") if pin.strip()]
        if not wanted:
            raise ValueError(f"--pins names no pin: {args.pins!r}")
        row_of = dict(zip(cleaned.pins, range(len(cleaned))))
        absent = [pin for pin in wanted if pin not in row_of]
        if absent:
            dropped = set(report.dropped_pins)
            gone = [pin for pin in absent if pin in dropped]
            unknown = [pin for pin in absent if pin not in dropped]
            kinds = (("pins dropped in cleaning", gone), ("unknown pins", unknown))
            raise ValueError("; ".join(f"{kind}: {', '.join(pins)}" for kind, pins in kinds if pins))
        parcels = [cleaned.row(row_of[pin]) for pin in wanted]
    else:
        parcels = cleaned
    reports = [rezone_counterfactual(model, p, args.to_zone) for p in parcels]
    _emit(render.render_whatif(reports, args.format), args)
    return 0


def cmd_hypothesis(args) -> int:
    from .diagnostics import zoning_variance_share

    cleaned, _report = _load_clean_table(args)
    share = zoning_variance_share(cleaned)
    _emit(render.render_hypothesis(share, args.format), args)
    return 0


def cmd_synth(args) -> int:
    from .parcels import write_parcels
    from .synth import (
        calibrated_noise_sigma,
        default_true_model,
        generate_parcels,
        write_generation_log,
    )

    log_path = args.log_output or (str(args.output) + ".log.json")
    if Path(log_path).resolve() == Path(args.output).resolve():
        raise ValueError(f"--log-output {log_path} is the --output file; the log would overwrite the parcels")
    truth = default_true_model(seed=args.seed, noise_sigma=args.noise_sigma)
    if args.target_r2 is not None:
        # probe at the same (seed, n) so the emitted sample itself
        # carries the requested explained-variance share
        sigma = calibrated_noise_sigma(truth, args.target_r2, probe_n=args.n)
        truth = default_true_model(seed=args.seed, noise_sigma=sigma)
    table, log = generate_parcels(truth, args.n)
    write_parcels(table, args.output)
    try:
        write_generation_log(log, log_path)
    except OSError:  # a failed run leaves no parcels behind
        Path(args.output).unlink()
        raise
    sys.stdout.write(
        f"wrote {len(table)} parcels to {args.output} (seed {truth.seed}, "
        f"noise sigma {truth.noise_sigma:.6f}); log: {log_path}\n"
    )
    return 0


def cmd_reproduction_check(args) -> int:
    from .reference import consistency_check

    report = consistency_check()
    _emit(render.render_consistency(report, args.format), args)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="zoneval",
        description="Hedonic property-valuation toolkit with zoning counterfactuals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit the log-value model and print the coefficient table")
    _add_shared(p_fit, "input", "output", "spec", "alpha", "format")
    p_fit.set_defaults(func=cmd_fit)

    p_desc = sub.add_parser("describe", help="descriptive statistics and correlation blocks")
    _add_shared(p_desc, "input", "output", "spec", "format")
    p_desc.add_argument(
        "--corr-threshold",
        type=float,
        default=HIGH_CORRELATION_THRESHOLD,
        help="|r| at or above this is flagged (default %(default)s)",
    )
    p_desc.set_defaults(func=cmd_describe)

    p_what = sub.add_parser("whatif", help="rezoning counterfactual (option value) rows")
    _add_shared(p_what, "input", "output", "spec", "format", format_default="csv")
    p_what.add_argument("--to-zone", required=True, choices=ZONES, help="target zone")
    p_what.add_argument("--pins", help="comma-separated pins (default: all parcels)")
    p_what.set_defaults(func=cmd_whatif)

    p_hyp = sub.add_parser("hypothesis", help="zoning variance-share decomposition")
    _add_shared(p_hyp, "input", "output", "format")
    p_hyp.set_defaults(func=cmd_hypothesis)

    p_syn = sub.add_parser("synth", help="generate a synthetic parcel CSV with a known truth")
    _add_shared(p_syn, "seed")
    env_output = _env_value("output", str, None, "a path")
    p_syn.add_argument(
        "--output",
        default=env_output,
        required=env_output is None,
        help="path of the generated parcel CSV",
    )
    p_syn.add_argument("--n", type=int, required=True, help="number of parcels")
    # the calibration sets the noise, so a given noise would go unused
    noise = p_syn.add_mutually_exclusive_group()
    noise.add_argument(
        "--noise-sigma",
        type=float,
        default=DEFAULT_NOISE_SIGMA,
        help="log-value noise std dev (default %(default)s)",
    )
    noise.add_argument("--target-r2", type=float, default=None, help="calibrate noise to this population R-square")
    p_syn.add_argument("--log-output", default=None, help="sidecar log path (default <output>.log.json)")
    p_syn.set_defaults(func=cmd_synth)

    p_rep = sub.add_parser(
        "reproduction-check",
        help="verify the published coefficient table is internally consistent",
    )
    _add_shared(p_rep, "output", "format")
    p_rep.set_defaults(func=cmd_reproduction_check)

    return parser


def main(argv=None) -> int:
    try:
        # building the parser reads the ZONEVAL_ variables
        args = build_parser().parse_args(argv)
        for name in SHARED_FLAGS:
            if _env(name) and not hasattr(args, name):
                raise ValueError(f"{args.command} does not take --{name} (or {ENV_PREFIX}{name.upper()})")
        return args.func(args)
    except (ValueError, OSError, ImportError) as exc:  # ImportError: numpy is not installed
        message = " ".join(str(exc).split())
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
