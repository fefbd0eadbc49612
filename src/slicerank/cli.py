"""Command line front end.

Regenerates the structured-family tables with embedded golden values,
verifies the CW exponent floor, computes the t_112 value, and runs the
generic bound pipeline on user-supplied tensor/partition files.

Exit codes: 0 all checks pass, 1 golden mismatch or failed verification,
2 optimizer convergence failure, 3 parse error (of a file or of the command
line), 4 inapplicable input.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import bound_engines as be
from . import degeneration, formats
from .formats import ParseError

# Golden values at printed precision; comparisons use |computed - golden|
# <= tol (default 1e-4), which covers the truncation of the printed digits.
CW_SLICE = {1: 2.7551, 2: 3.57165, 3: 4.34413, 4: 5.07744,
            5: 5.77629, 6: 6.44493, 7: 7.08706, 8: 7.70581}
CW_OMEGA = {1: 2.16805, 2: 2.17794, 3: 2.19146, 4: 2.20550,
            5: 2.21912, 6: 2.23200, 7: 2.24404, 8: 2.25525}
CW_SMALL_OMEGA = {1: 2.17795, 2: 2.0, 3: 2.02538, 4: 2.06244,
                  5: 2.09627, 6: 2.12549, 7: 2.15064}
TQ_SLICE = {2: 1.88988, 3: 2.75510, 4: 3.61071, 5: 4.46157}
TQ_OMEGA = {2: 2.17795, 3: 2.16805, 4: 2.15949, 5: 2.15237}
FLOOR_GOLDEN = {"v_8": 0.017732422, "f_v8": 2.07389, "relaxed_at_9": 2.18562}

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_CONVERGENCE = 2
EXIT_PARSE = 3
EXIT_INAPPLICABLE = 4


def _cw_small_closed_form(q: int) -> float:
    return 3.0 * q ** (2.0 / 3.0) / 2.0 ** (2.0 / 3.0)


def _emit(args, columns):
    if args.format == "tsv":
        print("\t".join(str(c) for c in columns))
    else:
        print("  ".join(f"{c:<10}" if not isinstance(c, float) else f"{c:<10.5f}"
                        for c in columns))


def cmd_table(args) -> int:
    tables = {
        "cw": (be.cw_table, CW_SLICE, CW_OMEGA),
        "cw-small": (be.cw_small_table, None, CW_SMALL_OMEGA),
        "tq-lower": (be.tq_lower_table, TQ_SLICE, TQ_OMEGA),
    }
    builder, golden_slice, golden_omega = tables[args.family]
    failed = False
    for row in builder(args.qmax):
        if row.omega is None:     # the solve's residual exceeds be.KKT_LIMIT
            resid = row.slice_report.certificate["kkt_residual"]
            print(f"convergence failure at q={row.q}: kkt residual {resid}",
                  file=sys.stderr)
            return EXIT_CONVERGENCE
        checks = []
        if golden_slice is not None and row.q in golden_slice:
            checks.append(abs(row.slice_rank - golden_slice[row.q]) <= args.tol)
        if args.family == "cw-small":
            checks.append(abs(row.slice_rank - _cw_small_closed_form(row.q))
                          <= args.tol)
        if row.q in golden_omega:
            checks.append(abs(row.omega - golden_omega[row.q]) <= args.tol)
        if checks:
            status = "PASS" if all(checks) else "FAIL"
            failed = failed or not all(checks)
        else:
            status = "--"
        _emit(args, [row.q, row.slice_rank, row.omega, status])
    return EXIT_MISMATCH if failed else EXIT_OK


def cmd_t112(args) -> int:
    rep = be.t112_value(args.q)
    c = rep.certificate
    ok = c["cube_simplex_relative_error"] <= 1e-6
    print(f"q={args.q}  argmax_v={c['argmax_v']:.9f}  "
          f"rotation_product_optimum={c['cube_simplex_optimum']:.6f}  "
          f"closed_form={c['cube_closed_form']:.6f}")
    print(f"V_2/3 = {rep.value:.6f}  {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_appendix(args) -> int:
    rep = be.cw_family_floor(args.qmax)
    c = rep.certificate
    ok = True
    for key, want in FLOOR_GOLDEN.items():
        tol = 1e-8 if key == "v_8" else args.tol
        good = abs(c[key] - want) <= tol
        ok = ok and good
        print(f"{key} = {c[key]:.9f}  ({'PASS' if good else 'FAIL'})")
    ok = ok and c["v_nonincreasing"] and c["relaxed_increasing"] \
        and c["relaxed_above_floor"]
    print(f"relaxed bound increasing on q=9..{args.qmax}: "
          f"{'PASS' if c['relaxed_increasing'] else 'FAIL'}")
    floor_ok = rep.value >= be.FLOOR_TARGET
    ok = ok and floor_ok
    print(f"floor over q<={args.qmax} = {rep.value:.6f} "
          f">= {be.FLOOR_TARGET} {'PASS' if floor_ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_bound(args) -> int:
    t = formats.load(args.tensor, formats.parse_tensor)
    p = formats.load(args.partition, lambda s: formats.parse_partition(s, t.shape))
    solved = None  # the report whose optimizer residual is checked
    if args.mode == "partition":
        solved = be.partition_bound(t, p)
        line = solved.to_line()
    elif args.mode == "mu-sum":
        line = be.block_measures_bound(t, p).to_line()
    elif args.mode == "remove-x":
        try:
            split, solved = be.remove_x_bound(t, p)
        except be.TrivialSplit as exc:
            print(exc, file=sys.stderr)
            return EXIT_INAPPLICABLE
        line = split.to_line()
    else:
        try:
            solved = be.laser_lower_bound(t, p)
        except be.NotLaserReady as exc:
            for failure in exc.readiness.failures:
                print(f"not laser-ready: {failure}", file=sys.stderr)
            return EXIT_INAPPLICABLE
        line = f"S~ = Q~ = {solved.value:.5f} (tight)"
    if solved is not None and solved.certificate["kkt_residual"] > be.KKT_LIMIT:
        print("convergence failure", file=sys.stderr)
        return EXIT_CONVERGENCE
    print(line)
    return EXIT_OK


def cmd_verify_degeneration(args) -> int:
    t1 = formats.load(args.source, formats.parse_tensor)
    t2 = formats.load(args.target, formats.parse_tensor)
    dmap = formats.load(args.map, formats.parse_degeneration_map)
    result = degeneration.verify_degeneration(t1, t2, dmap)
    if result.ok:
        print(f"OK order h={dmap.order}")
        return EXIT_OK
    print(f"FAIL: {result.detail}")
    return EXIT_MISMATCH


def _tolerance(text: str) -> float:
    """A --tol value: a finite number >= 0.  NaN or a negative value would
    fail every golden check and inf would pass every one."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"not a finite number >= 0: {text!r}")
    return value


class UsageError(Exception):
    """A command line that argparse rejects; `main` reports it as exit 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # subparsers share this class, so they raise too
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="slicerank",
        description="slice rank bounds for structured tensors and the "
                    "matrix multiplication exponent limits they imply")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="reproduce a family table")
    p_table.add_argument("family", choices=["cw", "cw-small", "tq-lower"])
    p_table.add_argument("--qmax", type=int, default=8)
    p_table.add_argument("--tol", type=_tolerance, default=1e-4)
    p_table.add_argument("--format", choices=["plain", "tsv"], default="plain")
    p_table.set_defaults(func=cmd_table)

    p_t112 = sub.add_parser("t112", help="tight 2/3-value of t_112")
    p_t112.add_argument("q", type=int)
    p_t112.set_defaults(func=cmd_t112)

    p_app = sub.add_parser(
        "appendix", help="verify the uniform CW-family exponent floor")
    p_app.add_argument("--qmax", type=int, default=1000)
    p_app.add_argument("--tol", type=_tolerance, default=1e-4)
    p_app.set_defaults(func=cmd_appendix)

    p_bound = sub.add_parser("bound", help="run a bound on tensor/partition files")
    p_bound.add_argument("--mode", required=True,
                         choices=["partition", "mu-sum", "remove-x", "laser"])
    p_bound.add_argument("tensor")
    p_bound.add_argument("partition")
    p_bound.set_defaults(func=cmd_bound)

    p_ver = sub.add_parser("verify-degeneration",
                           help="check a degeneration map between tensor files")
    p_ver.add_argument("source")
    p_ver.add_argument("target")
    p_ver.add_argument("map")
    p_ver.set_defaults(func=cmd_verify_degeneration)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use rather than at import;
    `parse_args` leaves it unchanged, so every command line may reuse it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (UsageError, ParseError, OSError) as exc:  # ParseError is a ValueError
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, be.Inapplicable) as exc:
        print(f"inapplicable input: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE


if __name__ == "__main__":
    sys.exit(main())
