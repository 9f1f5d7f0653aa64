"""Command-line interface: run, sweep, report, validate."""

import argparse
import json
import sys

from .dynamics import IntegrationBlowupError
from .experiments import ExperimentConfig, report, run, sweep


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} is not strict JSON")


def _load_config(path, seed=None):
    """The config file's JSON object, with ``seed`` set when given; ValueError
    for a file that cannot be read or parsed or holds no JSON object, and,
    with a seed, for a ``statistics`` that is neither null nor a mapping."""
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from exc
    if not isinstance(raw, dict):
        raise ValueError(f"{path} holds a JSON {type(raw).__name__}, not an object")
    if seed is not None:
        stats = raw.get("statistics")
        if stats is None:  # as validate reads it
            stats = raw["statistics"] = {}
        if not isinstance(stats, dict):
            raise ValueError(f"statistics: expected a mapping, got {type(stats).__name__}")
        stats["seed"] = seed
    return raw


def _parse_values(text):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            out.append(json.loads(tok))
        except json.JSONDecodeError:
            out.append(tok)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sns2d",
        description="Spectral toolkit for the 2D stochastic Navier-Stokes "
        "equation: noise checks, convergence sweeps, minimum-action paths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one experiment config")
    p_run.add_argument("-c", "--config", required=True)
    p_run.add_argument("-o", "--outdir", default="runs")
    p_run.add_argument("--seed", type=int, default=None, help="override statistics.seed")

    p_sweep = sub.add_parser("sweep", help="run one config along a parameter axis")
    p_sweep.add_argument("-c", "--config", required=True)
    p_sweep.add_argument("-o", "--outdir", default="runs")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--axis", required=True, help="dotted path, e.g. noise.epsilon")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--workers", type=int, default=1)

    p_report = sub.add_parser("report", help="merge finished runs of one kind")
    p_report.add_argument("run_dirs", nargs="+")
    p_report.add_argument("-o", "--out", default=None, help="merged CSV path")

    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("-c", "--config", required=True)

    args = parser.parse_args(argv)

    if args.command == "validate":
        try:
            cfg = ExperimentConfig.from_dict(_load_config(args.config))
        except (ValueError, KeyError) as exc:
            print(f"invalid config: {exc}", file=sys.stderr)
            return 2
        print(f"ok: kind={cfg.kind} hash={cfg.config_hash()[:12]}")
        return 0

    if args.command == "run":
        try:
            cfg = ExperimentConfig.from_dict(_load_config(args.config, args.seed))
        except (ValueError, KeyError) as exc:
            print(f"invalid config: {exc}", file=sys.stderr)
            return 2
        try:
            record = run(cfg, args.outdir)
        except (IntegrationBlowupError, ValueError, OSError) as exc:
            print(f"run failed: {exc}", file=sys.stderr)
            return 1
        print(f"run dir: {record.run_dir}")
        print(f"passed:  {record.passed}")
        return 0 if record.passed else 1

    if args.command == "sweep":
        try:
            raw = _load_config(args.config, args.seed)
        except ValueError as exc:
            print(f"invalid config: {exc}", file=sys.stderr)
            return 2
        records, errors = sweep(
            raw, args.axis, _parse_values(args.values), args.outdir, args.workers
        )
        for rec in records:
            print(f"{rec.run_dir}: passed={rec.passed}")
        for value, msg in errors:
            print(f"{args.axis}={value}: FAILED ({msg})", file=sys.stderr)
        ok = not errors and all(r.passed for r in records)
        return 0 if ok else 1

    if args.command == "report":
        try:
            text, all_passed = report(args.run_dirs, args.out)
        except (ValueError, OSError) as exc:
            print(f"report failed: {exc}", file=sys.stderr)
            return 2
        print(text)
        return 0 if all_passed else 1

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
