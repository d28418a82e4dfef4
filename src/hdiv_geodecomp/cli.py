"""Command-line driver: run check suites and write machine-readable reports.

Exit codes: 0 when every non-skipped check passes, 1 on check failures,
2 on bad arguments, 3 on internal errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from .checks import FAIL, SKIPPED
from .dofs import resolve_continuity_order
from .mesh import Mesh, MeshError, resolve_mesh
from .report import (
    DIV_UNITS,
    MESH_UNITS,
    CaseParams,
    build_report,
    exit_code,
    expand_all,
    render_csv,
    render_json,
    run_units,
    write_atomic,
)
from .tensors import FAMILY_ALIASES, Family

SUBCOMMANDS = (
    "decompose",
    "unisolvence",
    "bubbles",
    "div-image",
    "assemble",
    "conformity",
    "infsup",
    "dims",
    "all",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hdiv-geodecomp",
        description="Exact construction and verification of geometric "
        "decompositions, DoF systems, and assembled spaces.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--family",
        required=True,
        choices=[f.value for f in Family] + list(FAMILY_ALIASES),
        help="value space of the element family (vector is an alias of face)",
    )
    common.add_argument("--dim", type=int, help="ambient simplex dimension")
    common.add_argument("--degree", type=int, required=True, help="polynomial degree")
    common.add_argument(
        "--k",
        type=int,
        default=None,
        help="continuity order; default -1 (face) or 0 (matrix families)",
    )
    common.add_argument("--mesh", help="builtin mesh name or JSON path")
    common.add_argument("--out", help="report path; stdout when omitted")
    common.add_argument("--format", default="json", choices=["json", "csv"])
    common.add_argument(
        "--seed", type=int, default=0, help="seed for random rational sample points"
    )
    common.add_argument(
        "--jobs",
        type=int,
        default=1,
        choices=[1],
        help="accepted for compatibility; units always run serially",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        subs.add_parser(name, parents=[common])
    return parser


def _resolve_case(parser: argparse.ArgumentParser, args) -> tuple[CaseParams, Mesh | None]:
    """Validated parameters, plus the resolved mesh for the run to reuse."""
    family = Family(args.family)
    if args.out and os.path.isdir(args.out):
        parser.error(f"--out: {args.out} is a directory")
    if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
        parser.error(f"--out: the directory of {args.out} does not exist")
    mesh = None
    if args.mesh is not None:
        try:
            mesh = resolve_mesh(args.mesh)
        except MeshError as exc:
            parser.error(f"--mesh: {exc}")
    if args.subcommand in MESH_UNITS and mesh is None:
        parser.error(f"{args.subcommand} requires --mesh")
    if args.subcommand in DIV_UNITS and family is Family.LAGRANGE:
        parser.error(f"{args.subcommand} applies to the vector/matrix families")
    if mesh is not None:
        if args.dim is not None and args.dim != mesh.dim:
            parser.error(f"--dim {args.dim} contradicts mesh dimension {mesh.dim}")
        dim = mesh.dim
    elif args.dim is not None:
        dim = args.dim
    else:
        parser.error("--dim is required without --mesh")
    if dim < 1:
        parser.error("--dim must be at least 1")
    try:
        k = resolve_continuity_order(family, dim, args.degree, args.k)
    except ValueError as exc:
        parser.error(str(exc))
    params = CaseParams(
        family=family,
        dim=dim,
        degree=args.degree,
        continuity_order=k,
        mesh=args.mesh,
        seed=args.seed,
    )
    return params, mesh


def run(argv=None) -> int:
    # One BLAS thread, whatever the caller set: the last digits of beta
    # depend on the thread count, and a report may not.  OpenBLAS reads
    # this when numpy is first imported: in the inf-sup worker that
    # run_units starts, which inherits it since it is set here, before the
    # fork, or in this process when no worker starts (another thread is
    # alive, or os.fork is missing or fails).
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        params, mesh = _resolve_case(parser, args)
    except SystemExit as exc:
        return 2 if exc.code is None else int(exc.code)
    names = expand_all(params) if args.subcommand == "all" else [args.subcommand]
    try:
        checks, timings = run_units(names, params, mesh)
        seen = [c.name for c in checks]
        if len(set(seen)) != len(seen):
            raise RuntimeError(f"duplicate check names in suite: {sorted(seen)}")
        report = build_report(args.subcommand, params, checks, timings)
        text = render_json(report) if args.format == "json" else render_csv(report)
        if args.out:
            write_atomic(text, args.out)
            failed = sum(c.status == FAIL for c in checks)
            skipped = sum(c.status == SKIPPED for c in checks)
            passed = len(checks) - failed - skipped
            print(
                f"{args.out}: {passed} pass, {failed} fail, {skipped} skipped"
            )
        else:
            sys.stdout.write(text)
    except Exception:
        import traceback

        traceback.print_exc()
        return 3
    return exit_code(checks)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
