"""Check suites plus deterministic report serialization.

Every suite unit maps one parameter set to a list of check results.  The
units of one run execute serially, in sorted name order, on one shared
RunContext.  Two pieces of their work may run in forked children, both
started by assembly._Child.start: the float step of the inf-sup unit, in
a worker that run_units starts when the run starts, and the cell duals of
the classes of congruent cells that this process does not reach first,
in a helper that assembly._build_cell_duals starts to build them from the
other end of the class list.  Where a child cannot be started, its work
runs in this process with the same result.  A report is one JSON
object, built by build_report and read by render_json and render_csv;
the JSON rendering is byte-stable for fixed inputs and seed (sorted
keys, rationals as "p/q" strings, floats at 17 significant digits), so
reports can be diffed in CI.  Wall-clock timings are the one volatile
field; consumers comparing runs should drop the timings object first.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
from collections import Counter, namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import NamedTuple

from . import bernstein as bn
from .assembly import (
    CONFORMITY_SAMPLES,
    GlobalSpace,
    _Child,
    _float_inputs,
    _serve,
    assemble,
    check_conformity,
    check_dims,
    check_div_onto,
    infsup_constant,
)
from .checks import FAIL, PASS, CheckResult
from .dofs import certify_unisolvence
from .mesh import Mesh
from .records import Record
from .simplex import reference_simplex
from .spaces import decompose, verify_bubble_characterization, verify_div_image
from .tensors import Family, traceless_gradient_basis

SCHEMA_VERSION = "1"
# The name of the one tangent-normal frame convention (simplex.build_frame),
# kept in every report's params.
FRAME_NAME = "edge_tangents_face_normals"


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
    once by the CLI, and one assembled space on it, so the DoF matrix of
    each class of congruent cells is built and inverted once, by this
    process or by the helper that assembly._build_cell_duals starts to
    build classes from the back of the list while this process builds
    them from the front.  params is the CaseParams.  worker is the run's
    inf-sup worker, or None, as when the fork failed, to compute the
    inf-sup constant in this process; with a worker, the first of
    conformity and infsup to run hands it the float records, one per
    class (hand_off)."""

    @cached_property
    def space(self) -> GlobalSpace:
        p = self.params
        return assemble(self.mesh, p.family, p.degree, p.continuity_order)

    def hand_off(self) -> None:
        """With a worker, build every cell entry and send it the records of
        assembly._float_inputs in class order, so it reduces while this
        process runs the later exact units.  Only the first call of a run
        does so; later calls, and runs without a worker, do nothing."""
        if self.worker is None or "sent" in vars(self):
            return
        vars(self)["sent"] = True  # the instance __dict__, which cached_property writes too
        layout, cells = _float_inputs(self.space)
        self.worker.send(chain((layout,), cells))


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
    run.hand_off()
    return [check_conformity(run.space, seed=p.seed)]


def unit_infsup(run: RunContext) -> list[CheckResult]:
    run.hand_off()
    # The exact rank runs while the worker finishes the float step.
    div_onto = check_div_onto(run.space)
    (reply,) = run.worker.result() if run.worker is not None else (None,)
    return [infsup_constant(run.space, reply), div_onto]


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
    """The unit names 'all' covers for one parameter set: every unit but
    the mesh units without a mesh, the div units for the Lagrange family
    and dual-basis outside the traceless family."""
    return [
        name
        for name in UNITS
        if (p.mesh is not None or name not in MESH_UNITS)
        and (p.family is not Family.LAGRANGE or name not in DIV_UNITS)
        and (name != "dual-basis" or p.family is Family.TRACELESS)
    ]


def run_units(names: list[str], p: CaseParams, mesh: Mesh | None = None) -> tuple[list[CheckResult], dict]:
    """Run units serially in sorted name order on one RunContext; a mesh
    unit needs the mesh.

    Shared work is charged to the first unit that needs it.  Each unit is
    looked up in UNITS when it runs, so a wrapper put there is called.
    When the units include infsup and numpy is not loaded, the inf-sup
    worker (assembly._serve) is started before the first unit, so that
    numpy loads in it while the exact units run here.  The first of
    conformity and infsup sends it the class records once every cell
    entry is built, and infsup reads its reply after the exact div rank.  It is
    reaped on every path.  Where no worker starts, as when the fork fails,
    infsup computes the constant in this process.
    """
    checks: list[CheckResult] = []
    timings: dict[str, int] = {}
    names = sorted(set(names))
    t0 = time.perf_counter()
    worker = _Child.start("inf-sup worker", _serve) if "infsup" in names and "numpy" not in sys.modules else None
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
    """Write text to path through a uniquely named part file in the same
    directory, renamed over path once complete.  The part file is created
    with mode 0666, so the report's permissions follow the umask."""
    directory = os.path.dirname(os.path.abspath(path))
    while True:
        part = os.path.join(directory, f"tmp{os.urandom(6).hex()}.part")
        try:
            fd = os.open(part, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            pass
    try:
        with open(fd, "w") as handle:
            handle.write(text)
        os.replace(part, path)
    except BaseException:
        if os.path.exists(part):
            os.unlink(part)
        raise


def exit_code(checks: list[CheckResult]) -> int:
    return 1 if any(c.status == FAIL for c in checks) else 0
