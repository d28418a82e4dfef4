"""Check suites plus deterministic report serialization.

Every suite unit maps one parameter set to a list of check results.  The
units of one run execute serially, in sorted name order, on one shared
RunContext; only the float step of the inf-sup unit may run in a worker
process forked when the run starts.  A report is one JSON object, built
by build_report and read by render_json and render_csv; the JSON
rendering is byte-stable for fixed inputs and seed (sorted keys,
rationals as "p/q" strings, floats at 17 significant digits), so reports
can be diffed in CI.  Wall-clock timings are the one volatile field;
consumers comparing runs should drop the timings object first.
"""

from __future__ import annotations

import io
import json
import os
import sys
import tempfile
import time
from collections import Counter, namedtuple
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from . import bernstein as bn
from .assembly import (
    GlobalSpace,
    InfsupWorker,
    assemble,
    check_conformity,
    check_dims,
    check_div_onto,
    infsup_constant,
)
from .checks import FAIL, PASS, CheckResult
from .dofs import certify_unisolvence
from .mesh import Mesh, resolve_mesh
from .records import Record
from .simplex import reference_simplex
from .spaces import decompose, verify_bubble_characterization, verify_div_image
from .tensors import Family, traceless_gradient_basis

SCHEMA_VERSION = "1"
# The name of the one tangent-normal frame convention (simplex.build_frame),
# kept in every report's params.
FRAME_NAME = "edge_tangents_face_normals"
# Random rational points per interior facet for the sampled conformity guard.
CONFORMITY_SAMPLES = 2


class CaseParams(NamedTuple):
    """One parameter set, as the CLI resolved it."""

    family: Family
    dim: int
    degree: int
    continuity_order: int | None
    mesh: str | None
    seed: int


class RunContext(Record, namedtuple("RunContext", "params mesh worker", defaults=(None, None))):
    """What the units of one run share: the mesh, resolved and validated
    once, and one assembled space, so each cell DoF matrix is built and
    inverted once.  params is the CaseParams; without a mesh the context
    resolves params.mesh itself.  worker is the run's InfsupWorker, or None
    to compute the inf-sup constant in this process; with a worker, the
    first unit that needs the cell duals builds them through
    stream_float_records."""

    @cached_property
    def space(self) -> GlobalSpace:
        p = self.params
        mesh = self.mesh if self.mesh is not None else resolve_mesh(p.mesh)
        return assemble(mesh, p.family, p.degree, p.continuity_order)

    def stream_float_records(self) -> None:
        """With a worker, build the cell duals and div rows in cell order
        and send each cell's float record as soon as its dual exists, once
        per run, so the worker reduces while this process runs the exact
        units; without one, do nothing."""
        if self.worker is not None:
            self.worker.stream(self.space)


# ---------------------------------------------------------------------------
# suite units


def unit_decompose(run: RunContext) -> list[CheckResult]:
    p = run.params
    basis = decompose(p.family, reference_simplex(p.dim), p.degree)
    expected = p.family.constrained_dim(p.dim) * bn.space_dim(p.dim, p.degree)
    by_site_dim: dict[str, int] = {}
    for m in basis.members:
        label = f"dim_{m.provenance.sub_simplex.dim}"
        by_site_dim[label] = by_site_dim.get(label, 0) + 1
    ok = len(basis.members) == expected
    return [
        CheckResult(
            name=f"decompose[{p.family.value} n={p.dim} r={p.degree}]",
            status=PASS if ok else FAIL,
            witness={
                "members": len(basis.members),
                "expected": expected,
                "members_by_site_dim": by_site_dim,
            },
        )
    ]


def unit_unisolvence(run: RunContext) -> list[CheckResult]:
    p = run.params
    return [certify_unisolvence(p.family, p.dim, p.degree, p.continuity_order)]


def unit_bubbles(run: RunContext) -> list[CheckResult]:
    p = run.params
    return [verify_bubble_characterization(p.family, reference_simplex(p.dim), p.degree)]


def unit_div_image(run: RunContext) -> list[CheckResult]:
    p = run.params
    return [verify_div_image(p.family, reference_simplex(p.dim), p.degree)]


def unit_dual_basis(run: RunContext) -> list[CheckResult]:
    p = run.params
    frames = traceless_gradient_basis(reference_simplex(p.dim))
    size = len(frames.basis)
    expected = p.dim * p.dim - 1
    identity = all(
        frames.pairing[i][j] == Fraction(int(i == j))
        for i in range(size)
        for j in range(size)
    )
    ok = identity and size == expected
    return [
        CheckResult(
            name=f"traceless_dual_basis[n={p.dim}]",
            status=PASS if ok else FAIL,
            witness={"size": size, "expected": expected, "kronecker": identity},
        )
    ]


def unit_assemble(run: RunContext) -> list[CheckResult]:
    p, space = run.params, run.space
    return [
        CheckResult(
            name=f"assemble[{p.family.value} n={space.mesh.dim} r={p.degree} "
            f"k={space.continuity_order} mesh={p.mesh}]",
            status=PASS,
            witness={"dim": space.dim, "dofs_by_scope": dict(Counter(space.scopes))},
        )
    ]


def unit_dims(run: RunContext) -> list[CheckResult]:
    return [check_dims(run.space)]


def unit_conformity(run: RunContext) -> list[CheckResult]:
    p = run.params
    run.stream_float_records()
    return [check_conformity(run.space, samples=CONFORMITY_SAMPLES, seed=p.seed)]


def unit_infsup(run: RunContext) -> list[CheckResult]:
    run.stream_float_records()
    # The exact rank runs while the worker finishes the float step.
    div_onto = check_div_onto(run.space)
    return [infsup_constant(run.space, run.worker), div_onto]


UNITS = {
    "decompose": unit_decompose,
    "unisolvence": unit_unisolvence,
    "bubbles": unit_bubbles,
    "div-image": unit_div_image,
    "dual-basis": unit_dual_basis,
    "assemble": unit_assemble,
    "dims": unit_dims,
    "conformity": unit_conformity,
    "infsup": unit_infsup,
}

MESH_UNITS = ("assemble", "dims", "conformity", "infsup")
DIV_UNITS = ("bubbles", "div-image", "infsup")


def expand_all(p: CaseParams) -> list[str]:
    """The unit names 'all' covers for one parameter set."""
    names = ["decompose", "unisolvence"]
    if p.family is not Family.LAGRANGE:
        names += ["bubbles", "div-image"]
    if p.family is Family.TRACELESS:
        names.append("dual-basis")
    if p.mesh is not None:
        names += ["assemble", "dims", "conformity"]
        if p.family is not Family.LAGRANGE:
            names.append("infsup")
    return names


def run_units(names: list[str], p: CaseParams, mesh: Mesh | None = None) -> tuple[list[CheckResult], dict]:
    """Run units serially in sorted name order on one RunContext.

    Shared work is charged to the first unit that needs it.  Each unit is
    looked up in UNITS when it runs, so a wrapper put there is called.
    When the units include infsup and numpy is not loaded yet, an
    InfsupWorker is forked before the first unit, so that numpy loads in
    it while the exact units run here.  The first of conformity and infsup
    streams it the cell records as it builds the duals, and it reduces them
    while the later units run; it is reaped on every path.
    """
    checks: list[CheckResult] = []
    timings: dict[str, int] = {}
    names = sorted(set(names))
    t0 = time.perf_counter()
    fork = "infsup" in names and "numpy" not in sys.modules and hasattr(os, "fork")
    worker = InfsupWorker() if fork else None
    try:
        run = RunContext(p, mesh, worker)
        for name in names:
            start = time.perf_counter()
            checks.extend(UNITS[name](run))
            timings[name] = int(round((time.perf_counter() - start) * 1000))
        # Free the assembled space and its dual caches inside the timed total.
        del run
    finally:
        if worker is not None:
            worker.close()
    timings["total"] = int(round((time.perf_counter() - t0) * 1000))
    return checks, timings


def build_report(subcommand: str, p: CaseParams, checks: list[CheckResult], timings: dict) -> dict:
    """The report as the JSON object that render_json and render_csv read."""
    params = {
        "subcommand": subcommand,
        "family": p.family.value,
        "dim": p.dim,
        "degree": p.degree,
        "k": p.continuity_order,
        "mesh": p.mesh,
        "frame": FRAME_NAME,
        "seed": p.seed,
        "samples": CONFORMITY_SAMPLES,
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "params": params,
        "checks": [{"name": c.name, "status": c.status, "witness": c.witness} for c in checks],
        "timings": timings,
    }


# ---------------------------------------------------------------------------
# canonical serialization


def canonical_json(value, indent: int = 0, pretty: bool = True) -> str:
    """Deterministic JSON: sorted keys, "p/q" rationals, 17-digit floats."""
    pad = "  " * (indent + 1) if pretty else ""
    close_pad = "  " * indent if pretty else ""
    sep = ",\n" if pretty else ", "
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        return json.dumps(f"{value.numerator}/{value.denominator}")
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return json.dumps(repr(value))
        return format(value, ".17g")
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [canonical_json(v, indent + 1, pretty) for v in value]
        if pretty:
            return "[\n" + sep.join(pad + it for it in items) + "\n" + close_pad + "]"
        return "[" + sep.join(items) + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"non-string report key: {key!r}")
            items.append(
                json.dumps(key) + ": " + canonical_json(value[key], indent + 1, pretty)
            )
        if pretty:
            return "{\n" + sep.join(pad + it for it in items) + "\n" + close_pad + "}"
        return "{" + sep.join(items) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__} in a report")


def render_json(report: dict) -> str:
    return canonical_json(report) + "\n"


def render_csv(report: dict) -> str:
    """Flat projection: one row per check, context columns repeated.  csv
    is imported here, so JSON runs never load it."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    context = ["family", "dim", "degree", "k", "mesh", "frame", "seed"]
    writer.writerow(context + ["name", "status", "witness"])
    base = [_csv_cell(report["params"].get(c)) for c in context]
    for c in report["checks"]:
        writer.writerow(
            base + [c["name"], c["status"], canonical_json(c["witness"], pretty=False)]
        )
    return buf.getvalue()


def _csv_cell(value) -> str:
    return "" if value is None else str(value)


def write_atomic(text: str, path: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    handle = tempfile.NamedTemporaryFile(
        "w", dir=directory, suffix=".part", delete=False
    )
    try:
        with handle:
            handle.write(text)
        os.replace(handle.name, path)
    except BaseException:
        if os.path.exists(handle.name):
            os.unlink(handle.name)
        raise


def exit_code(checks: list[CheckResult]) -> int:
    return 1 if any(c.status == FAIL for c in checks) else 0
