"""Command-line entry point.

Subcommands: enumerate (exact branch walk plus CSV dump), mc (seeded
sampling of the enumerated distribution), table (correction-table derivation
and audit), metrics (closed-form sweeps and the comparison table), and
verify (the full acceptance suite).  Configuration comes from an optional
`key = value` file with `#` comments; command-line flags override file
values.  Every command is a pure function of config, flags, and seed, so
re-running reproduces byte-identical output.

Exit codes: 0 success, 1 invalid configuration or arguments, 2 verification
failure, 3 I/O failure.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass

from .protocol import SQRT_HALF, ChannelPair, TargetState, check_controller_count
from .engine import enumerate_branches, monte_carlo, write_branch_csv
from .oracle import compare_with_published, derive_correction_table
from .metrics import (
    comparison_table,
    entropy_curve,
    render_comparison_text,
    tsp_formula,
    tsp_sweep,
    write_comparison_csv,
    write_entropy_csv,
    write_tsp_sweep_csv,
)
from . import acceptance

__all__ = [
    "RunConfig",
    "parse_config_text",
    "cmd_enumerate",
    "cmd_mc",
    "cmd_table",
    "cmd_metrics",
    "cmd_verify",
    "main",
    "run",
]

_SOURCES = ("oracle", "paper")

_FLOAT_KEYS = ("alpha", "beta", "gamma", "delta", "phi0", "phi1", "phi2",
               "a0", "a1", "b0", "b1", "tolerance")
_INT_KEYS = ("n_controllers", "m_controllers", "seed", "trials", "resolution")
_STR_KEYS = ("source", "out")


@dataclass(frozen=True)
class RunConfig:
    """All run parameters; defaults give the canonical cluster target over
    maximally entangled channels with one controller per channel."""

    alpha: float = 0.5
    beta: float = 0.5
    gamma: float = 0.5
    delta: float = 0.5
    phi0: float = 0.0
    phi1: float = 0.0
    phi2: float = math.pi
    a0: float = SQRT_HALF
    a1: float = SQRT_HALF
    b0: float = SQRT_HALF
    b1: float = SQRT_HALF
    n_controllers: int = 1
    m_controllers: int = 1
    seed: int = 42
    trials: int = 10000
    source: str = "oracle"
    tolerance: float = 1e-9
    out: str = None
    resolution: int = 50

    def __post_init__(self):
        if self.source not in _SOURCES:
            raise ValueError(
                f"source must be one of {_SOURCES}, got {self.source!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if self.resolution < 2:
            raise ValueError(
                f"resolution must be at least 2, got {self.resolution}")
        if not (math.isfinite(self.tolerance) and self.tolerance >= 0.0):
            raise ValueError(
                f"tolerance must be a nonnegative number, got {self.tolerance!r}")

    def target(self) -> TargetState:
        return TargetState(self.alpha, self.beta, self.gamma, self.delta,
                           self.phi0, self.phi1, self.phi2)

    def channels(self) -> ChannelPair:
        return ChannelPair(self.a0, self.a1, self.b0, self.b1,
                           self.n_controllers, self.m_controllers)


def parse_config_text(text: str) -> dict:
    """Parse `key = value` lines into typed values; rejects unknown keys."""
    values = {}
    for num, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ValueError(
                f"config line {num}: expected 'key = value', got {raw.strip()!r}")
        try:
            if key in _FLOAT_KEYS:
                values[key] = float(value)
            elif key in _INT_KEYS:
                values[key] = int(value)
            elif key in _STR_KEYS:
                values[key] = value
            else:
                raise KeyError
        except KeyError:
            raise ValueError(f"config line {num}: unknown key {key!r}") from None
        except ValueError:
            raise ValueError(
                f"config line {num}: {key} needs a numeric value, "
                f"got {value!r}") from None
    return values


def _config_from(args) -> RunConfig:
    values = {}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as fh:
            values = parse_config_text(fh.read())
    for flag in ("seed", "trials", "source", "out", "resolution"):
        flag_value = getattr(args, flag, None)
        if flag_value is not None:
            values[flag] = flag_value
    return RunConfig(**values)


def _out_dir(config: RunConfig) -> str:
    path = config.out or "."
    os.makedirs(path, exist_ok=True)
    return path


def cmd_enumerate(config: RunConfig) -> int:
    """Exact enumeration: branch CSV plus a summary, verified against the
    closed-form success probability."""
    target = config.target()
    channels = config.channels()
    # Refuse an oversized run before opening the output, so an existing
    # file survives it; open the output before the walk, so an unwritable
    # path fails fast.
    check_controller_count(channels)
    out = config.out or "branches.csv"
    with open(out, "w", encoding="ascii", newline="") as fh:
        report = enumerate_branches(target, channels, config.source)
        rows = write_branch_csv(report, fh)
    fid = report.min_success_fidelity()
    print(f"wrote {out}")
    print(f"branches={rows}")
    print(f"ccc={report.ccc}")
    print(f"tsp={report.tsp:.12f}")
    print("min_success_fidelity="
          + (f"{fid:.12f}" if fid is not None else "none"))
    expected = tsp_formula(channels.a1, channels.b1)
    if abs(report.tsp - expected) > config.tolerance:
        print(f"error: tsp {report.tsp:.12g} deviates from 4(a1 b1)^2 = "
              f"{expected:.12g} beyond tolerance {config.tolerance:g}",
              file=sys.stderr)
        return 2
    return 0


def cmd_mc(config: RunConfig) -> int:
    """Seeded sampling of the enumerated distribution, checked against the
    exact success probability."""
    result = monte_carlo(config.target(), config.channels(), config.source,
                         config.trials, config.seed)
    print(f"trials={result.trials}")
    print(f"seed={result.seed}")
    print(f"tsp_estimate={result.estimate:.12f}")
    print(f"std_error={result.std_error:.12f}")
    # Binomial error at the exact value; the printed one is 0 at estimates 0 and 1.
    sigma = math.sqrt(max(0.0, result.exact * (1.0 - result.exact)) / result.trials)
    if abs(result.estimate - result.exact) > 4.0 * sigma + config.tolerance:
        print(f"error: estimate {result.estimate:.12g} is more than four "
              f"standard errors from the exact value {result.exact:.12g}",
              file=sys.stderr)
        return 2
    return 0


def cmd_table(config: RunConfig) -> int:
    """Derive the correction table at fixed generic parameters and audit the
    published table against it."""
    out = _out_dir(config)
    derived = derive_correction_table()
    diff = compare_with_published(derived)
    table_path = os.path.join(out, "derived_corrections.txt")
    diff_path = os.path.join(out, "table_diff.csv")
    derived.to_file(table_path)
    with open(diff_path, "w", encoding="ascii", newline="") as fh:
        diff.to_csv(fh)
    print(f"wrote {table_path}")
    print(f"wrote {diff_path}")
    print(f"mismatches={len(diff.entries)}")
    return 0


def cmd_metrics(config: RunConfig) -> int:
    """Write the success-probability sweep, entropy curve, and comparison
    table; print the comparison as aligned text."""
    # The sweep refuses an oversized grid before any output is touched.
    sweep = tsp_sweep(config.resolution)
    out = _out_dir(config)
    sweep_path = os.path.join(out, "tsp_sweep.csv")
    curve_path = os.path.join(out, "entropy_curve.csv")
    comparison_path = os.path.join(out, "comparison.csv")
    with open(sweep_path, "w", encoding="ascii", newline="") as fh:
        write_tsp_sweep_csv(sweep, fh)
    with open(curve_path, "w", encoding="ascii", newline="") as fh:
        write_entropy_csv(entropy_curve(config.resolution), fh)
    rows = comparison_table()
    with open(comparison_path, "w", encoding="ascii", newline="") as fh:
        write_comparison_csv(rows, fh)
    print(f"wrote {sweep_path}")
    print(f"wrote {curve_path}")
    print(f"wrote {comparison_path}")
    print(render_comparison_text(rows), end="")
    return 0


def cmd_verify(config: RunConfig) -> int:
    """Run the full acceptance suite; any failing criterion fails the run."""
    results = acceptance.run_all(print)
    return 0 if all(r.passed for r in results) else 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad arguments, which this package reserves
    # for verification failures; remap to the validation exit code.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="key = value configuration file")
    common.add_argument("--seed", type=int, help="sampling seed")
    common.add_argument("--trials", type=int, help="sampling trial count")
    common.add_argument("--source", choices=_SOURCES,
                        help="correction table to apply")
    common.add_argument("--out", metavar="PATH",
                        help="output file (enumerate) or directory (table, metrics)")
    common.add_argument("--resolution", type=int, help="sweep grid size")
    parser = _Parser(prog="mcrsp",
                     description="Simulate and verify the controlled "
                                 "remote-preparation protocol.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for name, func, text in (
            ("enumerate", cmd_enumerate, "walk every measurement branch exactly"),
            ("mc", cmd_mc, "sample runs from the enumerated distribution"),
            ("table", cmd_table, "derive the correction table and audit the published one"),
            ("metrics", cmd_metrics, "write sweeps and the scheme comparison"),
            ("verify", cmd_verify, "run the acceptance suite")):
        cmd = sub.add_parser(name, parents=[common], help=text)
        cmd.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    try:
        config = _config_from(args)
        return args.func(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
