"""Command-line interface.

Subcommands mirror the library layers: ``catalog`` and ``analyze`` inspect
codes, ``transform`` applies group mixing or constellation rotation,
``mindet`` / ``divprod`` / ``sweep-theta`` / ``search-t8`` run the coding
gain machinery, ``simulate`` produces BER curves, and ``verify`` runs the
cross-module invariant checks of :mod:`qostbc.checks`.

Exit codes: 0 success, 1 usage error (unknown flags, codes or modulations),
2 verification failure, 3 infeasible enumeration budget. Angles are degrees
on the command line; JSON artifacts carry both degrees and radians. Every
subcommand is deterministic given its arguments and seed. Output files are
written whole after the computation finishes, so failures leave no partial
artifacts behind.
"""

import argparse
import functools
import json
import math
import os
import sys

from . import (analysis, catalog, checks, decoder, gain, modem, simulate,
               transforms)
from .simulate import MAX_WORKERS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_BUDGET = 3

#: most points an SNR grid may have (one Monte Carlo point each)
MAX_SNR_POINTS = 10_000

#: most multi-start runs ``search-t8 --starts`` may ask for
MAX_STARTS = 10_000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route to exit code 1
        raise UsageError(f"{self.prog}: {message}")


def _angles_block(radians) -> dict:
    rad = [float(a) for a in radians]
    return {"deg": [math.degrees(a) for a in rad], "rad": rad}


def _write_artifact(path, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except BaseException:
        if os.path.exists(path):
            os.unlink(path)
        raise


def _count(name: str, cap: int):
    """argparse type for an integer option that must lie in [1, cap]."""
    def parse(text: str) -> int:
        value = int(text)
        if not 1 <= value <= cap:
            raise argparse.ArgumentTypeError(
                f"{name} must be between 1 and {cap}, got {value}"
            )
        return value
    return parse


def _angle(text: str) -> float:
    """argparse type for a finite angle in degrees, returned in radians."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"angle {text} is not finite")
    return math.radians(value)


def _parse_snr(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"snr grid {text!r} is not start:step:stop")
    start, step, stop = (float(p) for p in parts)
    if not all(math.isfinite(v) for v in (start, step, stop)):
        raise UsageError(f"snr grid {text!r} is not finite")
    if step <= 0 or stop < start:
        raise UsageError(f"snr grid {text!r} is not increasing")
    if (stop + 1e-9 - start) / step >= MAX_SNR_POINTS:
        raise UsageError(
            f"snr grid {text!r} has more than {MAX_SNR_POINTS} points"
        )
    grid = []
    value = start
    while value <= stop + 1e-9:
        grid.append(round(value, 10))
        value += step
    return tuple(grid)


def _parse_curves(code_arg: str, default_mod: str):
    """Parse ``--code`` entries of the form NAME or NAME:MOD."""
    curves = []
    for token in code_arg.split(","):
        token = token.strip()
        if not token:
            continue
        name, _, mod = token.partition(":")
        if name not in catalog.CODE_NAMES:
            raise UsageError(
                f"unknown code {name!r}; valid: {', '.join(catalog.CODE_NAMES)}"
            )
        try:
            constellation = modem.parse_modulation(mod or default_mod)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        curves.append((name, constellation))
    if not curves:
        raise UsageError("no codes given")
    return curves


def _get_code(name: str) -> catalog.CodeDefinition:
    try:
        return catalog.build(name)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _get_modulation(name: str) -> modem.Constellation:
    try:
        return modem.parse_modulation(name)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


# --------------------------------------------------------------------------
# subcommands

def _cmd_catalog(args) -> int:
    if args.all:
        payload = [catalog.code_to_dict(catalog.build(n))
                   for n in catalog.CODE_NAMES]
    else:
        payload = catalog.code_to_dict(_get_code(args.code))
    _write_artifact(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    code = _get_code(args.code)
    table = analysis.qo_table(code)
    payload = {
        "code": code.name,
        "T": code.T,
        "Nt": code.nt,
        "K": code.K,
        "rate": f"{code.rate.numerator}/{code.rate.denominator}",
        "grouping": [list(g) for g in code.grouping],
        "qo_table": table.tolist(),
        "symbols_per_group": analysis.joint_detection_size(code),
    }
    _write_artifact(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _cmd_transform(args) -> int:
    code = _get_code(args.code)
    chosen = [v is not None for v in (args.gclt_theta, args.gclt_givens,
                                      args.cr_angle)]
    if sum(chosen) != 1:
        raise UsageError(
            "choose exactly one of --gclt-theta, --gclt-givens, --cr-angle"
        )
    if args.gclt_theta is not None:
        spec = transforms.GcltSpec.rotations_2d(code.grouping, args.gclt_theta)
        out = transforms.apply_gclt(code, spec)
        meta = {"type": "gclt", "theta": _angles_block([args.gclt_theta])}
    elif args.gclt_givens is not None:
        spec = transforms.GcltSpec.givens_4d_spec(code.grouping,
                                                  args.gclt_givens)
        out = transforms.apply_gclt(code, spec)
        meta = {"type": "gclt-givens",
                "angles": _angles_block(args.gclt_givens)}
    else:
        if not args.cr_symbols:
            raise UsageError("--cr-angle requires --cr-symbols")
        symbols = [int(v) for v in args.cr_symbols.split(",")]
        spec = transforms.CrSpec.uniform(symbols, args.cr_angle)
        out = transforms.apply_cr(code, spec)
        meta = {
            "type": "cr",
            "symbols": symbols,
            "angle": _angles_block([args.cr_angle]),
        }
    payload = catalog.code_to_dict(out)
    payload["transform"] = meta
    _write_artifact(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _cmd_mindet(args) -> int:
    code = _get_code(args.code)
    constellation = _get_modulation(args.mod)
    report = gain.min_det_search(code, constellation, scope=args.scope)
    payload = {
        "code": code.name,
        "mod": args.mod,
        "scope": report.scope,
        "min_det": report.min_det,
        "argmin_deltas": list(report.argmin),
        "per_group": [
            {"group": list(g.group), "min_det": g.min_det,
             "argmin_deltas": list(g.argmin)}
            for g in report.per_group
        ],
    }
    _write_artifact(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _cmd_divprod(args) -> int:
    code = _get_code(args.code)
    constellation = _get_modulation(args.mod)
    report = gain.diversity_product(code, constellation)
    payload = {
        "code": code.name,
        "mod": args.mod,
        "zeta": report.zeta,
        "full_diversity": report.full_diversity,
        "min_det": report.min_det,
    }
    _write_artifact(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _cmd_sweep_theta(args) -> int:
    constellation = _get_modulation(args.mod)
    rows = gain.case_sweep_rows(constellation, step_deg=args.step)
    top = constellation.levels_per_rail - 1
    pairs = [(m, n) for m in range(1, top + 1) for n in range(1, top + 1)]
    header = ["theta_deg", "min_det"] + [f"det_m{m}_n{n}" for m, n in pairs]
    lines = [f"# qostbc sweep-theta mod={args.mod} step={args.step}",
             ",".join(header)]
    lines += [",".join(map(str, [deg, overall, *cases.values()]))
              for deg, overall, cases in rows]
    _write_artifact(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_search_t8(args) -> int:
    result = gain.search_t8_angles(
        starts=args.starts, seed=args.seed, workers=args.workers
    )
    payload = {
        "starts": args.starts,
        "seed": args.seed,
        "angles": _angles_block(result.angles),
        "zeta": result.zeta,
    }
    _write_artifact(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    curve_specs = _parse_curves(args.code, args.mod)
    curves = []
    for name, constellation in curve_specs:
        config = simulate.SimConfig(
            code=name,
            modulation=constellation.order,
            nr=args.nr,
            snr_db=_parse_snr(args.snr),
            min_bit_errors=args.min_errors,
            max_channel_uses=args.max_uses,
            seed=args.seed,
            workers=args.workers,
        )
        curves.append(simulate.run_ber(config))
    _write_artifact(args.out, simulate.curve_csv(curves))
    try:
        if args.svg:
            _write_artifact(args.svg, simulate.curve_svg(curves))
    except BaseException:  # a failed plot leaves no CSV behind either
        if args.out not in (None, "-") and os.path.exists(args.out):
            os.unlink(args.out)
        raise
    return EXIT_OK


def _verify_checks(ber: bool, workers: int):
    yield checks.power_traces()
    yield checks.groupings()
    yield checks.joint_detection_sizes()
    yield checks.gram_block_diagonality(seed=101, draws=25)
    yield checks.group_mixing(seed=202, draws=10)
    yield checks.diversity_products(checks.ZETA_TARGETS, checks.PLAIN_CODES)
    yield checks.grouped_vs_exhaustive(("Q4", "Q4_CR", "Q4_LT", "G4C"),
                                       trials=40, seed=303, rho=10.0)
    yield checks.modem_round_trip()
    if ber:
        yield from checks.ber_relationships(workers)


def _cmd_verify(args) -> int:
    failures = 0
    for name, ok, detail in _verify_checks(args.ber, args.workers):
        print(f"[{'pass' if ok else 'FAIL'}] {name}: {detail}")
        failures += 0 if ok else 1
    if failures:
        print(f"{failures} verification check(s) failed")
        return EXIT_VERIFY
    print("all verification checks passed")
    return EXIT_OK


# --------------------------------------------------------------------------

@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process; parsing leaves it
    unchanged."""
    parser = _Parser(prog="qostbc", description=__doc__.split("\n")[0])
    workers = {"type": _count("workers", MAX_WORKERS),
               "default": min(os.cpu_count() or 1, MAX_WORKERS)}
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="dump a code (or all) as JSON")
    p.add_argument("--code", default="Q4")
    p.add_argument("--all", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("analyze", help="grouping and pair-check table")
    p.add_argument("--code", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("transform", help="apply group mixing or rotation")
    p.add_argument("--code", required=True)
    p.add_argument("--gclt-theta", type=_angle, default=None,
                   help="pair mixing angle in degrees")
    p.add_argument("--gclt-givens", type=_angle, nargs=6, default=None,
                   metavar="DEG",
                   help="six plane angles in degrees for four-rail groups")
    p.add_argument("--cr-angle", type=_angle, default=None,
                   help="rotation angle in degrees")
    p.add_argument("--cr-symbols", default=None,
                   help="comma-separated complex symbol indices to rotate")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("mindet", help="minimum distance determinant")
    p.add_argument("--code", required=True)
    p.add_argument("--mod", default="4qam")
    p.add_argument("--scope", choices=("within_group", "full"),
                   default="within_group")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_mindet)

    p = sub.add_parser("divprod", help="diversity product")
    p.add_argument("--code", required=True)
    p.add_argument("--mod", default="4qam")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_divprod)

    p = sub.add_parser("sweep-theta", help="min-det vs mixing angle CSV")
    p.add_argument("--mod", default="16qam")
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sweep_theta)

    p = sub.add_parser("search-t8", help="search the six 4-D mixing angles")
    p.add_argument("--starts", type=_count("starts", MAX_STARTS), default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", **workers)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_search_t8)

    p = sub.add_parser("simulate", help="Monte Carlo BER curves (CSV/SVG)")
    p.add_argument("--code", required=True,
                   help="comma list of codes, each optionally NAME:MOD")
    p.add_argument("--mod", default="4qam")
    p.add_argument("--nr", type=int, default=1)
    p.add_argument("--snr", required=True,
                   help="grid as start:step:stop dB, stop inclusive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-errors", type=int, default=200)
    p.add_argument("--max-uses", type=int, default=2_000_000)
    p.add_argument("--workers", **workers)
    p.add_argument("--out", default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="run the cross-module invariant suite")
    p.add_argument("--ber", action="store_true",
                   help="also run the Monte Carlo relationship checks "
                        "(under a minute)")
    p.add_argument("--workers", **workers)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        print("run 'qostbc --help' for usage", file=sys.stderr)
        return EXIT_USAGE
    except (gain.PatternBudgetError, decoder.CandidateBudgetError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
