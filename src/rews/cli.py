"""Command-line interface.

Subcommands:

* ``simulate --scenario <file.json> [--k1 K1 --k2 K2] [--require-certified]
  --out <dir>`` -- run one scenario and certify its estimator
* ``case-studies --out <dir>`` -- run the six standard case studies
* ``stability --gamma G --beta B --delay T [--k1 K1 --k2 K2]
  [--require-certified] --out <dir>``
* ``margins --gamma G (--delay T | --beta B) [--k1 K1 --k2 K2]``

Exit code 2 signals a NotCertified verdict when ``--require-certified``
is set; exit code 1 signals an error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness, stability
from .exceptions import ConfigError, CurveError, EnvelopeError, GridCoverageError


def _circle_args(parser):
    parser.add_argument("--k1", type=float, default=harness.CASE_STUDY_K1,
                        help="lower sector slope (default: case-study value)")
    parser.add_argument("--k2", type=float, default=harness.CASE_STUDY_K2,
                        help="upper sector slope (default: case-study value)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rews",
        description="Rotor-effective wind speed estimation and "
                    "convergence certification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a scenario file")
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--require-certified", action="store_true",
                   help="exit 2 unless the distance criterion certifies")
    _circle_args(p)

    p = sub.add_parser("case-studies", help="run the standard case studies")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("stability", help="distance-criterion verdict")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--delay", type=float, default=0.0)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--require-certified", action="store_true")
    _circle_args(p)

    p = sub.add_parser("margins", help="closed-form first-crossing gain/delay margin")
    p.add_argument("--gamma", type=float, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--delay", type=float,
                       help="fixed delay; search the integral gain")
    group.add_argument("--beta", type=float,
                       help="fixed integral gain; search the delay")
    _circle_args(p)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigError, CurveError, EnvelopeError, GridCoverageError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "case-studies":
        report = harness.run_case_studies(out_dir=args.out)
        for row in report["cases"] + report["gain_comparison"]:
            print(f"{row['name']}: certified={row['certified']} "
                  f"min_distance={row['min_distance']:.3f} "
                  f"sim={row['sim_label']}")
        print(f"beta margin (gamma=40, delay=0.3): "
              f"{report['beta_margin']['value']:.3f}")
        print(f"delay margin (gamma=40, beta=10): "
              f"{report['delay_margin']['value']:.3f}")
        return 0

    circle = stability.circle_from_gains(args.k1, args.k2)  # refuses bad slopes first
    if args.command == "margins":
        if args.delay is not None:
            value = stability.max_stable_beta(args.gamma, args.delay, circle)
            print(f"largest certified beta at gamma={args.gamma}, "
                  f"delay={args.delay}: {value:.3f}")
        else:
            value = stability.max_stable_delay(args.gamma, args.beta, circle)
            print(f"largest certified delay at gamma={args.gamma}, "
                  f"beta={args.beta}: {value:.3f}")
        return 0

    if args.command == "simulate":
        try:
            with open(args.scenario, encoding="utf-8") as fh:
                spec = json.load(fh)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, deep nesting
            raise ConfigError(f"{args.scenario}: not a JSON scenario file: {exc}") from exc
        scn = harness.scenario_from_json(spec)
        cfg = scn.estimator
        verdict = stability.certify(cfg.gamma, cfg.beta, cfg.delay_T, circle)
        trace = harness.run_scenario(scn)
        harness.emit([(args.out, trace, verdict)])
        print(f"simulation: {harness.classify_trace(trace)}; criterion: "
              f"{verdict.label} (min distance {verdict.min_distance:.3f})")
    else:  # stability
        verdict = stability.certify(args.gamma, args.beta, args.delay, circle)
        harness.emit([(args.out, None, verdict)])
        print(verdict.label, f"min_distance={verdict.min_distance:.4f}",
              f"argmin_omega={verdict.argmin_omega:.4g}")
    return 2 if args.require_certified and not verdict.certified else 0


if __name__ == "__main__":
    raise SystemExit(main())
