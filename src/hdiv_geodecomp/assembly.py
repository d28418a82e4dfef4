"""Mesh-level assembly of the decomposed element spaces.

Every cell builds its DoF set with mesh-shared frame vectors, so a
functional attached to a shared site comes out literally identical from
each incident cell and global identification reduces to exact key matching,
with no sign or scaling bookkeeping.  Basis functions are recovered cellwise
from the exact inverse of the local DoF matrix, which re-certifies local
unisolvence as a side effect.  Continuity across interior facets is a
statement about Bernstein coefficients and is checked exactly; discrete
inf-sup constants are the one place floating point enters.
"""

from __future__ import annotations

import contextlib
import io
import marshal
import os
import random
import signal
import sys
from collections import namedtuple
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import chain, repeat
from math import comb, lcm, prod, sqrt
from operator import add, mul

from . import bernstein as bn
from . import linalg, tensors
from .checks import FAIL, PASS, SKIPPED, CheckResult
from .dofs import (
    FACEWISE,
    GLOBAL,
    INTERIOR,
    DoFTerm,
    SiteBlockError,
    build_dofs,
    dof_matrix,
    site_blocks,
)
from .mesh import Mesh
from .records import Record
from .spaces import decompose, div_rows, site_rows
from .tensors import Family

# Eigenvalues of the inf-sup pencil below this are counted as kernel modes.
KERNEL_THRESHOLD = 1e-10
# infsup_sweep fails when beta moves by this fraction of its largest value.
SWEEP_DRIFT_TOLERANCE = 0.2
# Random rational points per interior facet for the sampled conformity guard.
CONFORMITY_SAMPLES = 2


class AssemblyError(ValueError):
    """Raised when a mesh and a DoF family cannot be stitched together."""


class GlobalSpace(Record, namedtuple("GlobalSpace", "mesh family degree continuity_order cell_dofs local_to_global keys")):
    """An assembled space: per-cell DoF sets plus the identification table.

    keys[g] is the hashable identity of global DoF g; local_to_global[c][i]
    is the global index of cell c's i-th functional; cell_dofs[c] is cell
    c's DoFSet.  The exact cell work is done once per class (classes), on
    its first cell: cell_basis decomposes the first cell of its congruence
    class, and its dual basis and div rows are built together on demand
    and kept per instance, outside the fields, as one entry of _dual_cache
    under the first cell: the pair (dual_coefficients, div_rows).  An
    entry planted there stands for the whole class.
    """

    @property
    def dim(self) -> int:
        return len(self.keys)

    @cached_property
    def _dual_cache(self) -> dict:
        return {}

    @cached_property
    def classes(self) -> tuple[int, ...]:
        """Per cell, the first cell of its class: its congruence class
        (Mesh.cell_class), less the cells whose DoF set carries another
        functionals tuple than its own.  assemble gives class-mates one
        functionals tuple, so a cell whose functionals were replaced, as
        flip_facet_orientation does, is a class of its own, and its mates
        elect the first of the rest."""
        first: dict[tuple[int, int], int] = {}
        return tuple(
            first.setdefault((c, id(dofs.functionals)), ci)
            for ci, (c, dofs) in enumerate(zip(self.mesh.cell_class, self.cell_dofs))
        )

    @cached_property
    def scopes(self) -> tuple[str, ...]:
        """The scope of each global DoF: "interior" (private to one cell),
        "facewise" (a moment on one facet) or "shared" (a global moment on a
        site and every cell around it)."""
        labels = {INTERIOR: "interior", FACEWISE: "facewise", GLOBAL: "shared"}
        return tuple(labels[key[0]] for key in self.keys)

    @cached_property
    def interior_split(self) -> tuple[tuple[list[int], list[int]], ...]:
        """Per cell, the local indices of its interior DoFs and of the rest,
        which it may share with its neighbours, each in local order."""
        interior = [scope == "interior" for scope in self.scopes]
        return tuple(
            ([i for i, g in enumerate(l2g) if interior[g]], [i for i, g in enumerate(l2g) if not interior[g]])
            for l2g in self.local_to_global
        )

    @cached_property
    def dim_q(self) -> int:
        """Dimension of the discontinuous div target: the degree r-1 lattice
        of every cell, one copy per component of a divergence."""
        n = self.mesh.dim
        return self.family.div_width(n) * bn.space_dim(n, self.degree - 1) * len(self.mesh.cells)

    @property
    def label(self) -> str:
        """The space as check names spell it."""
        return (
            f"{self.family.value} n={self.mesh.dim} r={self.degree} "
            f"k={self.continuity_order} cells={len(self.mesh.cells)}"
        )

    def cell_basis(self, cell_index: int):
        """The decomposition of the first cell of the cell's congruence
        class (Mesh.cell_class), which equals the cell's own: it depends on
        geometry alone, so one decompose per congruence class, even where
        classes splits one."""
        return decompose(self.family, self.mesh.cell_simplices[self.mesh.cell_class[cell_index]], self.degree)

    def dual_coefficients(self, cell_index: int) -> tuple[list[list[int]], int]:
        """Exact inverse of the cell DoF matrix as an integer matrix N over
        the least positive denominator d: column i of N / d is the i-th dual
        basis function expanded over the cell's decomposition members.

        The matrix is block lower-triangular over its site blocks, so the
        inverse is one small inverse per site plus block forward substitution.
        A miss builds it on the first cell of the cell's class, with that
        cell's div rows, and keeps both in one entry under that cell.
        """
        first = self.classes[cell_index]
        hit = self._dual_cache.get(first)
        if hit is not None:
            return hit[0]
        dofs = self.cell_dofs[first]
        basis = self.cell_basis(first)
        mat = dof_matrix(dofs, basis)
        cell = self.mesh.cells[first]
        try:
            blocks = site_blocks(dofs, basis, mat)
        except SiteBlockError as exc:
            raise AssemblyError(f"cell {cell}: {exc}") from exc
        try:
            inv = linalg.invert_block_lower(mat, blocks)
        except linalg.SingularMatrixError as exc:
            raise AssemblyError(f"cell {cell} has a singular DoF matrix: {exc}") from exc
        self._dual_cache[first] = inv, div_rows(basis, self.mesh.cell_simplices[first])
        return inv

    def div_rows(self, cell_index: int) -> tuple[list[list[int]], int]:
        """Per member of the cell basis, its div over the degree r-1 lattice,
        component fastest: integer rows over one denominator, from the entry
        of the cell's class."""
        first = self.classes[cell_index]
        if first not in self._dual_cache:
            self.dual_coefficients(first)
        return self._dual_cache[first][1]


def _weight_alpha(functional) -> tuple[int, ...]:
    (term,) = functional.terms
    items = list(term.weight.coeffs.items())
    if len(items) != 1 or items[0][1] != 1:
        raise AssemblyError("shared functionals must carry plain monomial weights")
    return items[0][0]


def assemble(mesh: Mesh, family: Family | str, degree: int, continuity_order: int | None = None) -> GlobalSpace:
    """Build per-cell DoF sets with shared directions and identify them.

    Functionals of global scope are merged across every cell containing
    their site; facewise functionals across the one or two cells containing
    their facet; interior moments stay cell-private.  The multiplicity of
    every merged DoF is checked against the incidence tables.

    build_dofs runs once per congruence class (Mesh.cell_class), on the
    class's first cell: the mesh frames read edge vectors only, so every
    class-mate would build equal functionals.  Class-mates share that one
    functionals tuple; each DoFSet keeps its own cell's simplex.
    """
    family = Family(family)
    key_index: dict[tuple, int] = {}
    expected_copies: list[int] = []
    seen_copies: list[int] = []
    cell_dofs = []
    tables = []
    for ci, first in enumerate(mesh.cell_class):
        if first == ci:
            dofs = build_dofs(
                family,
                mesh.cell_simplices[ci],
                degree,
                continuity_order,
                frames=partial(mesh.global_frame, ci),
            )
        else:
            dofs = cell_dofs[first]._replace(simplex=mesh.cell_simplices[ci])
        l2g = []
        interior_seq = 0
        for nf in dofs.functionals:
            if nf.scope == INTERIOR:
                key = (INTERIOR, ci, interior_seq)
                interior_seq += 1
                copies = 1
            else:
                gsite = mesh.global_site(ci, nf.site)
                gface = mesh.global_site(ci, nf.face) if nf.face is not None else None
                key = (nf.scope, gsite, gface, _weight_alpha(nf), nf.terms[0].direction)
                owner = gface if gface is not None else gsite
                copies = len(mesh.cells_containing(owner))
            idx = key_index.get(key)
            if idx is None:
                idx = len(key_index)
                key_index[key] = idx
                expected_copies.append(copies)
                seen_copies.append(0)
            seen_copies[idx] += 1
            l2g.append(idx)
        if len(set(l2g)) != len(l2g):
            raise AssemblyError(f"cell {mesh.cells[ci]} repeats a global DoF key")
        cell_dofs.append(dofs)
        tables.append(tuple(l2g))
    bad = [i for i, (e, s) in enumerate(zip(expected_copies, seen_copies)) if e != s]
    if bad:
        raise AssemblyError(
            f"{len(bad)} global DoFs missing copies from incident cells; first: "
            f"{list(key_index)[bad[0]]}"
        )
    return GlobalSpace(
        mesh,
        family,
        degree,
        continuity_order,
        tuple(cell_dofs),
        tuple(tables),
        tuple(key_index),
    )


def lagrange_dim_formula(mesh: Mesh, degree: int) -> int:
    """Scalar continuous space: one lattice block per site of every dimension."""
    return sum(
        len(mesh.sub_simplices(ell)) * comb(degree - 1, ell)
        for ell in range(mesh.dim + 1)
    )


def face_dim_formula(mesh: Mesh, degree: int, continuity_order: int) -> int:
    """Normal-continuity vector space: shared low-dimensional normal moments,
    one facewise block per facet, and the div-bubble block per cell."""
    n, r, k = mesh.dim, degree, continuity_order
    shared = sum(
        len(mesh.sub_simplices(ell)) * (n - ell) * comb(r - 1, ell)
        for ell in range(0, k + 1)
    )
    per_facet = sum(comb(n, ell + 1) * comb(r - 1, ell) for ell in range(k + 1, n))
    per_cell = sum(comb(n + 1, ell + 1) * ell * comb(r - 1, ell) for ell in range(1, n + 1))
    return (
        shared
        + len(mesh.sub_simplices(n - 1)) * per_facet
        + len(mesh.cells) * per_cell
    )


def check_dims(space: GlobalSpace) -> CheckResult:
    """Compare the assembled dimension with the closed-form count, where one
    exists (scalar and vector families)."""
    family = space.family
    formula: int | None = None
    if family is Family.LAGRANGE:
        formula = lagrange_dim_formula(space.mesh, space.degree)
    elif family is Family.FACE:
        formula = face_dim_formula(space.mesh, space.degree, space.continuity_order)
    ok = formula is None or formula == space.dim
    return CheckResult(
        name=f"dims[{space.label}]",
        status=PASS if ok else FAIL,
        witness={"assembled": space.dim, "formula": formula},
    )


# ---------------------------------------------------------------------------
# child processes and the cell duals on two CPUs


def _this_cpu() -> int | None:
    """The CPU this process last ran on, where /proc reports it."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            fields = stat.read()
    except OSError:
        return None
    # Field 39 of proc(5), counted after the parenthesized command name.
    return int(fields[fields.rindex(b")") + 2:].split()[36])


def _start_elsewhere(parent_cpu: int | None) -> None:
    """Move this process off parent_cpu, then allow it every CPU it had.

    A kernel that does not balance load between CPUs, as in a cpuset with
    sched_load_balance off, keeps a forked child on its parent's CPU, where
    the two would take turns.  Allowed every CPU again, the child stays
    where it was moved until the kernel moves it."""
    if parent_cpu is None or not hasattr(os, "sched_setaffinity"):
        return
    allowed = os.sched_getaffinity(0)
    if parent_cpu in allowed and len(allowed) > 1:
        os.sched_setaffinity(0, allowed - {parent_cpu})
        os.sched_setaffinity(0, allowed)


# Bytes each pipe of a _Child holds, 1 MiB (Linux's pipe-max-size).  The
# inputs carry every inf-sup record, one per class, of traceless r=2 on
# refine(two_tets) (439 KB), refine(cube_freudenthal) (275 KB) and its
# refinement (392 KB).  The worker reads a record when _cell_pencils
# reaches it (9-13 ms for the 10 of refine(two_tets) in process), so at the
# default 64 KiB send waits for it: 12-18 ms against 2-3 ms widened, the
# worker idle on the other of two Xeon vCPUs.  The replies carry the cell
# dual helper's entries, each written as soon as it is built, while this
# process reads them only between its own builds.  Widened, the pipe holds
# two of the largest entry measured, 523 KB for symmetric r=4 on
# cube_freudenthal, and 26 of traceless r=2 on refine(two_tets) (39 KB),
# so the helper does not wait for a read.
_PIPE_BYTES = 1 << 20


def _write_value(file, value) -> None:
    """Write value to file in _Child's wire format and flush it."""
    data = marshal.dumps(value)
    file.write(len(data).to_bytes(8, "little"))
    file.write(data)
    file.flush()


def _read_value(file) -> bytes:
    """The marshal bytes of the next value on file, in _Child's wire
    format; EOFError when the file ends before the value does."""
    header = file.read(8)
    if len(header) == 8:
        size = int.from_bytes(header, "little")
        data = file.read(size)
        if len(data) == size:
            return data
    raise EOFError("the stream ended before the value did")


class _Child:
    """A forked child that runs the generator body(values, *args) and sends
    back each value it yields as soon as it yields it.

    start is the one way the package starts a child process.  Both pipes
    carry one wire format: a value is the 8-byte little-endian length of
    its marshal.dumps, then those bytes, so the reader takes each value in
    one read of known size.  values is an endless iterator of the values
    send writes, each decoded when the body reads it; reading past the last
    one raises EOFError.  replies returns the values the body has yielded so
    far without waiting; result waits for the child to end and returns the
    rest.  Both pipes are widened to _PIPE_BYTES where fcntl.F_SETPIPE_SZ
    allows.  The child starts on another CPU than this process's
    (_start_elsewhere).  It ends in os._exit, so none of the parent's
    cleanup runs twice: with status 0 when the body returns or reads past
    its last value (an EOFError, after which nothing more is sent back),
    else 1 after printing the traceback of what it raised.  The parent
    calls close on every path.
    """

    def __init__(self, name: str, pid: int, inputs: int, reply: int):
        self.name = name
        self.pid = pid
        self.status: int | None = None
        self._inputs = open(inputs, "wb")
        self._reply = open(reply, "rb", buffering=0)
        self._buffer = bytearray()

    @classmethod
    def start(cls, name: str, body, *args) -> _Child | None:
        """A child running body, or None, for the caller to do the work in
        process, when this process may not fork: os.fork is missing,
        another thread is alive (by the kernel's count where /proc has it,
        else by the threading module's), since a child forked beside a
        thread can deadlock, or os.pipe or os.fork raises OSError, as when
        no process can be made; the pipe ends opened by then are closed."""
        if not hasattr(os, "fork"):
            return None
        try:
            threads = len(os.listdir("/proc/self/task"))
        except OSError:
            import threading

            threads = threading.active_count()
        if threads != 1:
            return None
        fds = []
        pid = None
        try:
            fds += os.pipe()
            fds += os.pipe()
            with contextlib.suppress(ImportError, AttributeError, OSError):
                import fcntl

                for fd in fds[1::2]:
                    fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
            cpu = _this_cpu()
            pid = os.fork()
        except OSError:
            return None
        finally:
            if pid is None:
                for fd in fds:
                    os.close(fd)
        inputs_r, inputs_w, reply_r, reply_w = fds
        if pid == 0:
            code = 1
            try:
                _start_elsewhere(cpu)
                os.close(inputs_w)
                os.close(reply_r)
                with open(inputs_r, "rb") as inputs, open(reply_w, "wb") as out:
                    # _read_value never returns None: an endless iterator
                    # that raises EOFError past the last value.
                    for reply in body(map(marshal.loads, iter(partial(_read_value, inputs), None)), *args):
                        _write_value(out, reply)
                code = 0
            except EOFError:
                code = 0
            except BaseException:  # whatever is raised, the child ends in os._exit
                import traceback

                traceback.print_exc()
                sys.stderr.flush()
            finally:
                os._exit(code)
        os.close(inputs_r)
        os.close(reply_w)
        return cls(name, pid, inputs_w, reply_r)

    def send(self, values) -> None:
        """Write each of values to the child, then close the inputs, so a
        body short of values reads EOFError.  Values the child no longer
        reads are dropped; result reports its status."""
        try:
            for value in values:
                _write_value(self._inputs, value)
        except BrokenPipeError:
            pass
        finally:
            self._close_inputs()

    def replies(self) -> list:
        """The values the child has sent since the last call, in order,
        read without waiting: [] while none has arrived whole."""
        import select

        while not self._reply.closed and select.select([self._reply], [], [], 0)[0]:
            data = self._reply.read(_PIPE_BYTES)
            if data:
                self._buffer += data
            else:
                self._reply.close()
        return self._take()

    def result(self) -> list:
        """Every value the child sends that replies has not returned, once
        the child is reaped.  A child that exits with a status other than 0,
        or sends nothing more, raises RuntimeError."""
        self._close_inputs()
        if not self._reply.closed:
            self._buffer += self._reply.readall()
        self._wait()
        values = self._take()
        if self.status != 0 or not values:
            raise RuntimeError(f"the {self.name} exited with status {self.status} and no result")
        return values

    def close(self) -> None:
        """Kill and reap the child, unless result has reaped it."""
        if self.status is None:
            os.kill(self.pid, signal.SIGKILL)
            self._wait()

    def _take(self) -> list:
        """The values whole in the reply buffer, in order; a part of the
        next one stays there."""
        stream, values, used = io.BytesIO(self._buffer), [], 0
        with contextlib.suppress(EOFError):
            while True:
                values.append(marshal.loads(_read_value(stream)))
                used = stream.tell()
        del self._buffer[:used]
        return values

    def _close_inputs(self) -> None:
        with contextlib.suppress(BrokenPipeError):
            self._inputs.close()

    def _wait(self) -> None:
        self._close_inputs()
        self._reply.close()
        self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])


def _helper_entries(values, space: GlobalSpace, cells):
    """The body of _build_cell_duals' child: from the last of cells down to
    the second, each cell's entry as soon as it is built.  It only ever
    yields entries: at a cell that raises AssemblyError it returns, and the
    parent, which then never receives that class, builds it and raises."""
    for ci in reversed(cells[1:]):
        try:
            space.dual_coefficients(ci)
        except AssemblyError:
            return
        yield space._dual_cache[ci]


def _build_cell_duals(space: GlobalSpace) -> None:
    """Fill the entry, dual and div rows, of every class (GlobalSpace.classes)
    that lacks one, on two CPUs when the process may use them.

    Each cell's DoF system is unisolvent by itself, so its entry is an
    exact computation that depends on no other cell, and the cells of one
    class have equal entries: one is built per class, on its first cell.
    The classes are split by demand: this process builds them from the
    front, one at a time, while a _Child forked here builds them from the
    back and sends each entry as soon as it is built (_helper_entries).
    After each of its own builds, this process keeps the entries that have
    arrived, without waiting for more.  The two stop where they meet: the
    helper is then killed and reaped, and the entries it built past that
    point, during this process's last build, are dropped.  The first class
    is always built here, before any entry is read.  Entries already
    cached, planted ones included, are kept.  Only this process raises:
    the helper sends nothing more from a class whose build raises
    AssemblyError, as a singular DoF matrix does, so this process reaches
    that class itself and raises the error there, and of several, the
    first class's.  The helper is forked when the process may run on at
    least two CPUs and at least two classes are to be filled; otherwise,
    or when _Child.start returns None, the same loop builds every class
    here.
    """
    cells = sorted(set(space.classes) - space._dual_cache.keys())
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    helper = _Child.start("cell dual helper", _helper_entries, space, cells) if len(cells) > 1 and cpus > 1 else None
    front, back = 0, len(cells)
    try:
        while front < back:
            space.dual_coefficients(cells[front])
            front += 1
            for entry in helper.replies() if helper is not None else ():
                if back == front:
                    break
                back -= 1
                space._dual_cache[cells[back]] = entry
    finally:
        if helper is not None:
            helper.close()


# ---------------------------------------------------------------------------
# assembled rows and conformity


def cell_rows(space: GlobalSpace, cell_index: int, member_rows: dict[int, list[int]], den: int) -> tuple[list[list[int]], int]:
    """Rows of the cell's assembled basis functions from rows of its members.

    member_rows maps a member index j to its integer row, read over den;
    members left out have a zero row.  Row i is sum_j dual[j][i] *
    member_rows[j], returned as integer rows over one positive denominator,
    the dual's times den.  Only members with a nonzero row enter the sum.
    """
    dual, d_dual = space.dual_coefficients(cell_index)
    support = [j for j, row in member_rows.items() if any(row)]
    if not support:
        width = max(map(len, member_rows.values()))
        return [[0] * width for _ in space.local_to_global[cell_index]], 1
    coeffs = list(zip(*(dual[j] for j in support)))
    return linalg._int_matmul(coeffs, [member_rows[j] for j in support]), d_dual * den


def _contract_normal_normal(coeff, left, right) -> tuple:
    return (tensors.dot(left, tensors.mat_vec(coeff, right)),)


def _normal_normal_contraction(left, right) -> tensors.Contraction:
    """The normal-normal component left·C·right, read on integers."""
    lints, lden = linalg.integer_form(left)
    rints, rden = linalg.integer_form(right)
    return tensors.Contraction(partial(_contract_normal_normal, left=lints, right=rints), lden * rden)


def _statements(space: GlobalSpace) -> list[tuple[str, tuple[int, ...], tensors.Contraction]]:
    """Every continuity claim as (kind, global site, contraction), in report
    order: the trace on each interior facet (the value, for the scalar
    family), then with a nonnegative continuity order the whole value at
    shared vertices, normal components on shared sites up to the order, and
    for symmetric values the normal-normal component on shared sites above it.
    Equal normals share one contraction object, on which check_conformity
    keys the rows it keeps.
    """
    mesh = space.mesh
    family = space.family
    normal_contraction = cache(tensors.normal_contraction)
    normal_normal_contraction = cache(_normal_normal_contraction)
    out = []
    for facet in mesh.interior_facets:
        if family is Family.LAGRANGE:
            out.append(("normal_trace", facet, tensors.FLATTEN))
        else:
            (normal,) = mesh.frame_vectors(facet)[1]
            out.append(("normal_trace", facet, normal_contraction(normal)))
    k = space.continuity_order if space.continuity_order is not None else -1
    if family is Family.LAGRANGE or k < 0:
        return out
    nn_top = mesh.dim - 1 if family is Family.SYMMETRIC else -1
    for ell in range(0, max(k, nn_top) + 1):
        for gsite in mesh.sub_simplices(ell):
            if len(mesh.cells_containing(gsite)) < 2:
                continue
            _, normals = mesh.frame_vectors(gsite)
            if ell == 0:
                out.append(("value_at_vertex", gsite, tensors.FLATTEN))
            elif ell <= k:
                out.extend(
                    ("normal_component", gsite, normal_contraction(nrm))
                    for nrm in normals
                )
            elif family is Family.SYMMETRIC:
                out.extend(
                    ("normal_normal", gsite, normal_normal_contraction(normals[a], normals[b]))
                    for a in range(len(normals))
                    for b in range(a, len(normals))
                )
    return out


def _shared_site_rows(space: GlobalSpace, site: tuple[int, ...], contraction: tensors.Contraction, kept: dict):
    """Per cell sharing a site, the contracted restrictions of its basis
    functions to it: a map from global DoF to integer row, holding the
    nonzero rows only, and one denominator.

    A cell's rows depend on its class (GlobalSpace.classes), its local
    labels of the site and the contraction only, and are built on the
    class's first cell.  kept, a dict that one check_conformity holds while
    its statements are alive, keeps them under the key (first cell, local
    site, contraction), so the cells of one class build them once per local
    site and contraction."""
    mesh = space.mesh
    per_cell = []
    for c in mesh.cells_containing(site):
        local = mesh.local_site(c, site)
        first = space.classes[c]
        key = (first, local.indices, id(contraction))
        rows = kept.get(key)
        if rows is None:
            member_rows, member_den = site_rows(space.cell_basis(first), local, contraction)
            ints, den = cell_rows(space, first, member_rows, member_den)
            rows = kept[key] = [(i, row) for i, row in enumerate(ints) if any(row)], den
        nonzero, den = rows
        l2g = space.local_to_global[c]
        per_cell.append(({l2g[i]: row for i, row in nonzero}, den))
    return per_cell


def _scaled(row: list[int], factor: int) -> list[int]:
    return row if factor == 1 else [x * factor for x in row]


def _jumps(per_cell):
    """(global DoF, first differing entry, difference) of each cell's rows
    against the first cell's, in global DoF order; a DoF missing from a
    cell's map has a zero row there.  Rows on both sides are brought over
    the lcm of their denominators and compared as lists; a row that
    differs is searched by cross-multiplication."""
    (rows_a, d_a), *others = per_cell
    for rows_b, d_b in others:
        common = lcm(d_a, d_b)
        f_a, f_b = common // d_a, common // d_b
        for g in sorted(rows_a.keys() | rows_b.keys()):
            a, b = rows_a.get(g), rows_b.get(g)
            if a is not None and b is not None and _scaled(a, f_a) == _scaled(b, f_b):
                continue
            for entry, (x, y) in enumerate(zip(a or repeat(0), b or repeat(0))):
                if x * d_b != y * d_a:
                    yield g, entry, Fraction(x, d_a) - Fraction(y, d_b)
                    break


def _evaluate(row: list[int], monomials: list[int]) -> list[int]:
    """Sum over the site lattice of a (lattice x component) row, weighted."""
    width = len(row) // len(monomials)
    return [sum(map(mul, row[w::width], monomials)) for w in range(width)]


def check_conformity(space: GlobalSpace, samples: int = CONFORMITY_SAMPLES, seed: int = 0) -> CheckResult:
    """Exact continuity of every assembled basis function.

    Each continuity statement restricts the basis functions of every cell
    sharing its site, contracts them, and compares Bernstein coefficients
    exactly against the first such cell.  On interior facets random rational
    points provide a redundant sampled guard.
    """
    mesh = space.mesh
    _build_cell_duals(space)
    rng = random.Random(seed)
    violations: list[dict] = []
    facets_checked = 0
    traces_compared = 0
    points_checked = 0
    extra_sites: set[tuple[int, ...]] = set()

    def record(kind, site, g, entry, delta):
        violations.append(
            {
                "check": kind,
                "site": list(site),
                "global_index": g,
                "coefficient": entry,
                "delta": str(delta),
            }
        )

    kept: dict = {}
    for kind, site, contraction in _statements(space):
        per_cell = _shared_site_rows(space, site, contraction, kept)
        for g, entry, delta in _jumps(per_cell):
            record(kind, site, g, entry, delta)
        if kind != "normal_trace":
            extra_sites.add(site)
            continue
        facets_checked += 1
        # Every global DoF of the two cells counts, zero rows included.
        traces_compared += len(set().union(*(space.local_to_global[c] for c in mesh.cells_containing(site))))
        # At weights w the point is w / sum(w), so every lattice monomial
        # carries the same factor sum(w)^degree, which equality ignores.
        lattice_keys = bn.lattice(len(site), space.degree)
        (rows_a, d_a), (rows_b, d_b) = per_cell
        # A DoF whose rows are zero on both sides evaluates to zero on both.
        zero = [0] * max(map(len, chain(rows_a.values(), rows_b.values())), default=0)
        live = [(g, rows_a.get(g, zero), rows_b.get(g, zero)) for g in sorted(rows_a.keys() | rows_b.keys())]
        for _ in range(samples):
            weights = [rng.randint(1, 997) for _ in site]
            monomials = [prod(w**e for w, e in zip(weights, alpha)) for alpha in lattice_keys]
            points_checked += 1
            for g, a, b in live:
                va = _evaluate(a, monomials)
                vb = _evaluate(b, monomials)
                if any(x * d_b != y * d_a for x, y in zip(va, vb)):
                    record("normal_trace_sample", site, g, -1, "point mismatch")

    status = PASS if not violations else FAIL
    return CheckResult(
        name=f"conformity[{space.label}]",
        status=status,
        witness={
            "interior_facets": facets_checked,
            "traces_compared": traces_compared,
            "sample_points": points_checked,
            "extra_sites": len(extra_sites),
            "violations": violations,
        },
    )


def _negate_direction(direction):
    if direction and isinstance(direction[0], tuple):
        return tuple(tuple(-x for x in row) for row in direction)
    return tuple(-x for x in direction)


def flip_facet_orientation(space: GlobalSpace, facet: tuple[int, ...] | None = None) -> GlobalSpace:
    """A deliberately broken copy for the negative control.

    One cell keeps the identification table but builds its facewise
    functionals on one interior facet against the opposite normal, so its
    dual basis no longer matches the neighbor across that facet and the
    conformity check must flag it.
    """
    if space.family is Family.LAGRANGE:
        raise ValueError("the scalar family has no facet-oriented functionals")
    mesh = space.mesh
    if facet is None:
        if not mesh.interior_facets:
            raise ValueError("mesh has no interior facet to corrupt")
        facet = mesh.interior_facets[0]
    victim = max(mesh.facet_cells[tuple(facet)])
    f_loc = mesh.local_site(victim, tuple(facet))
    flipped = []
    hits = 0
    for nf in space.cell_dofs[victim].functionals:
        if nf.scope == FACEWISE and nf.face == f_loc:
            (term,) = nf.terms
            flipped.append(
                nf._replace(terms=(DoFTerm(term.weight, _negate_direction(term.direction)),))
            )
            hits += 1
        else:
            flipped.append(nf)
    if hits == 0:
        raise ValueError(f"no facewise functionals live on facet {facet}")
    new_dofs = list(space.cell_dofs)
    new_dofs[victim] = space.cell_dofs[victim]._replace(functionals=tuple(flipped))
    return space._replace(cell_dofs=tuple(new_dofs))


# ---------------------------------------------------------------------------
# div image and inf-sup


def _div_onto_rank(space: GlobalSpace) -> int:
    """Exact rank of the global div map D: one row per global basis
    function, its div over the degree r-1 lattice of every cell, one
    column block q_T per cell.

    Interior basis functions live on one cell, so their rows I_T are zero
    outside block T.  Let K_T be a basis of the right kernel of I_T (all of
    q_T when T has no interior DoF) and C_T a complement.  In the column
    basis [C_T | K_T] of block T, I_T has full column rank r_T = q_T -
    dim K_T on C_T and is zero on K_T, so the interior rows clear C_T from
    every other row without touching K_T.  Hence rank D = sum_T r_T +
    rank M, where M holds each shared basis function's block segments
    projected on K_T (s_T K_T), and M is eliminated sparse.  The global
    rows are never formed.  r_T, K_T and the segments depend on the entry
    and the interior split of the cell's class only, so they are computed
    once per class (GlobalSpace.classes), on its first cell, after the
    entries are built (_build_cell_duals).
    """
    _build_cell_duals(space)
    interior_rank = 0
    shared: dict[int, dict[int, int]] = {}
    offset = 0
    blocks: dict[int, tuple[int, int, list]] = {}
    for ci, (first, l2g) in enumerate(zip(space.classes, space.local_to_global)):
        if first == ci:
            # Column block ci keeps the cell's own denominators: scaling a
            # block of columns by a nonzero constant leaves the rank unchanged.
            member_rows, _ = space.div_rows(ci)
            # Row i: the coefficients of basis function i over the members.
            coeffs = list(zip(*space.dual_coefficients(ci)[0]))
            inner, outer = space.interior_split[ci]
            q_cell = len(member_rows[0])
            interior = linalg._int_matmul([coeffs[i] for i in inner], member_rows)
            kernel = linalg.nullspace(interior, cols=q_cell)
            segments = []
            if kernel:
                projected = linalg._int_matmul(member_rows, [list(col) for col in zip(*kernel)])
                segments = [
                    (i, [(j, x) for j, x in enumerate(segment) if x])
                    for i, segment in zip(outer, linalg._int_matmul([coeffs[i] for i in outer], projected))
                ]
            blocks[ci] = q_cell - len(kernel), len(kernel), segments
        rank, width, segments = blocks[first]
        interior_rank += rank
        for i, segment in segments:
            row = shared.setdefault(l2g[i], {})
            for j, x in segment:
                row[offset + j] = x
        offset += width
    return interior_rank + linalg.sparse_rank(shared.values())


def check_div_onto(space: GlobalSpace) -> CheckResult:
    """Exact rank of the global div map against the discontinuous target,
    cell by cell through each cell's interior kernel (_div_onto_rank).

    Below the family's degree threshold the result is recorded but flagged
    as skipped rather than failed: the surjectivity claim is only made from
    the threshold up.
    """
    threshold = space.family.div_onto_min_degree(space.mesh.dim, space.continuity_order)
    rank = _div_onto_rank(space)
    deficit = space.dim_q - rank
    if space.degree < threshold:
        status = SKIPPED
    else:
        status = PASS if deficit == 0 else FAIL
    return CheckResult(
        name=f"div_onto[{space.label}]",
        status=status,
        witness={
            "rank": rank,
            "dim_q": space.dim_q,
            "deficit": deficit,
            "degree_threshold": threshold,
        },
    )


@cache
def _moment_gram(labels: int, degree: int, dim: int) -> tuple[tuple[float, ...], ...]:
    """Normalized pairwise integrals of the monomial lattice on a dim-simplex."""
    keys = bn.lattice(labels, degree)
    return tuple(tuple(float(bn.moment(tuple(map(add, a, b)), dim)) for b in keys) for a in keys)


def _float_rows(ints, den):
    """Integer rows over den as floats: int / int is correctly rounded, as
    float(Fraction(x, den)) is, and unlike a float array of the integers it
    cannot overflow."""
    import numpy as np

    return np.array([[x / den for x in row] for row in ints])


def _coeff_pair_matrix(coefficients):
    arr = _float_rows(*coefficients)
    return arr @ arr.T


def _float_inputs(space: GlobalSpace):
    """The exact inputs of the float inf-sup step as builtins that marshal
    writes: a layout record and an iterator of one record per class
    (GlobalSpace.classes), so each class's record is built and sent once.

    The layout is (n, r, div width, per cell the index of its class among
    the classes in order of their first cells, per class the interior split
    of its first cell, and per cell the global indices of its other DoFs).
    A class's record is (its first cell's volume as (numerator,
    denominator), its members' exponents β, their flattened coefficients
    (the basis's integer coefficients, each member's by its id), its div
    rows and its dual coefficients), the last three as integer rows over
    one denominator.  Class-mates are translates, so the volume is each
    cell's own.  The class entries are built first (_build_cell_duals);
    each class's record is collected when the iterator reaches it.
    """
    _build_cell_duals(space)
    classes = space.classes
    firsts = sorted(set(classes))
    index = {ci: i for i, ci in enumerate(firsts)}
    mesh = space.mesh
    n = mesh.dim
    splits = space.interior_split
    shared = [[l2g[i] for i in outer] for l2g, (_, outer) in zip(space.local_to_global, splits)]

    def records():
        for ci in firsts:
            vol = mesh.cell_simplices[ci].volume()
            basis = space.cell_basis(ci)
            values, ids, den = basis.coefficients
            yield (
                (vol.numerator, vol.denominator),
                [m.beta for m in basis.members],
                ([list(tensors.flatten(values[i])) for i in ids], den),
                space.div_rows(ci),
                space.dual_coefficients(ci),
            )

    layout = (n, space.degree, space.family.div_width(n), [index[ci] for ci in classes], [splits[ci] for ci in firsts], shared)
    return layout, records()


def _cell_pencils(layout, records):
    """Per cell, the graph-norm mass V_T and the scaled div coupling C_T on
    the cell's own DoFs, interior DoFs first (the layout's interior split),
    stored in one (ncells, ndofs, ndofs) and one (ncells, q, ndofs) array,
    from the records of _float_inputs: one pencil per class, copied to
    each cell of the class.

    V_T is the value plus div Gram matrix of the cell's basis functions and
    C_T = sqrt(|T|) (L^T ⊗ I) times their div rows, with W = L L^T the
    lattice Gram matrix of degree r-1, so that C_T^T C_T is their div Gram
    matrix and the target mass drops out of the pencil.  Each product is
    formed in local order and then indexed into interior-first order, so
    every entry is the one the local order gives, bit for bit.
    """
    import numpy as np

    n, r, width, of_class, splits, _ = layout
    qlat = bn.space_dim(n, r - 1)
    w_val = np.array(_moment_gram(n + 1, r, n))
    chol_t = np.linalg.cholesky(np.array(_moment_gram(n + 1, r - 1, n))).T
    positions = bn.lattice_position(n + 1, r)
    orders = [inner + outer for inner, outer in splits]
    cells: list[list[int]] = [[] for _ in orders]
    for ci, k in enumerate(of_class):
        cells[k].append(ci)
    ndofs = len(orders[0])
    masses = np.empty((len(of_class), ndofs, ndofs))
    couplings = np.empty((len(of_class), width * qlat, ndofs))
    for mates, order, record in zip(cells, orders, records, strict=True):
        (num, den), betas, coefficients, div, dual = record
        vol = num / den
        # Every member scalar is λ^β, so the scalar Gram matrix is the
        # lattice Gram matrix at the β's.
        at = [positions[beta] for beta in betas]
        gram_val = _coeff_pair_matrix(coefficients) * w_val[np.ix_(at, at)]
        ndiv = _float_rows(*div).reshape(len(betas), qlat, width)
        b_cell = np.empty((width * qlat, len(betas)))
        for comp in range(width):
            b_cell[comp::width, :] = chol_t @ ndiv[:, :, comp].T
        dual = _float_rows(*dual)
        mass = dual.T @ (vol * (gram_val + b_cell.T @ b_cell)) @ dual
        masses[mates] = mass[np.ix_(order, order)]
        couplings[mates] = (sqrt(vol) * (b_cell @ dual))[:, order]
    return masses, couplings


def _reverse_cuthill_mckee(cell_dofs, n: int) -> list[int]:
    """The n DoFs in reverse Cuthill-McKee order, two DoFs adjacent when a
    cell holds both, neighbours taken by increasing cell count (George and
    Liu, Computer Solution of Large Sparse Positive Definite Systems, §4.3).

    Each component starts from a pseudo-peripheral DoF: the last DoF reached
    from its previous start, while that lengthens the search.
    """
    cells_of: list[list[int]] = [[] for _ in range(n)]
    for c, dofs in enumerate(cell_dofs):
        for g in dofs:
            cells_of[g].append(c)
    degree = [len(cs) for cs in cells_of]

    def cuthill_mckee(root):
        order, levels = [root], [0]
        seen = {root}
        expanded = set()
        for g, level in zip(order, levels):
            fresh = []
            for c in cells_of[g]:
                if c not in expanded:
                    expanded.add(c)
                    for h in cell_dofs[c]:
                        if h not in seen:
                            seen.add(h)
                            fresh.append(h)
            fresh.sort(key=degree.__getitem__)
            order.extend(fresh)
            levels.extend([level + 1] * len(fresh))
        return order, levels[-1]

    out: list[int] = []
    placed = [False] * n
    for start in sorted(range(n), key=degree.__getitem__):
        if placed[start]:
            continue
        order, depth = cuthill_mckee(start)
        while True:
            far, far_depth = cuthill_mckee(order[-1])
            if far_depth <= depth:
                break
            order, depth = far, far_depth
        for g in order:
            placed[g] = True
        out.extend(order)
    return out[::-1]


_BAND_BLOCK = 128  # rows per block of the envelope Cholesky
_SCHUR_PANEL = 512  # rows of S per product while accumulating Y^T Y


def _condense_cells(layout, records):
    """Eliminate every cell's interior DoFs from its pencil (static
    condensation, Guyan, AIAA J. 3, 1965), batched over the cells, from the
    records of _float_inputs.

    With i the cell's interior DoFs, b the rest and V_ii = R R^T, returns
    rows[c] (cell c's other DoFs, numbered 0..n_b-1 over the mesh in reverse
    Cuthill-McKee order), the cellwise Schur complements V_bb - V_bi V_ii^-1
    V_ib, the condensed couplings C_b - C_i V_ii^-1 V_ib and the diagonal
    blocks C_i V_ii^-1 C_i^T, all from W_b = R^-1 V_ib and W_c = R^-1 C_i^T.
    """
    import numpy as np

    # Each cell's pencil comes interior first; its other DoFs are numbered
    # over the mesh.
    v, c = _cell_pencils(layout, records)
    compact: dict[int, int] = {}
    cell_b = [[compact.setdefault(g, len(compact)) for g in shared] for shared in layout[5]]
    rank_of = np.empty(len(compact), dtype=np.int64)
    rank_of[_reverse_cuthill_mckee(cell_b, len(compact))] = np.arange(len(compact))
    rows = rank_of[np.array(cell_b, dtype=np.int64)]
    ni = v.shape[1] - rows.shape[1]
    lower = np.linalg.cholesky(v[:, :ni, :ni])
    w_b = np.linalg.solve(lower, v[:, :ni, ni:])
    w_c = np.linalg.solve(lower, c[:, :, :ni].transpose(0, 2, 1))
    sigma = v[:, ni:, ni:] - w_b.transpose(0, 2, 1) @ w_b
    c_hat = c[:, :, ni:] - w_c.transpose(0, 2, 1) @ w_b
    return rows, sigma, c_hat, w_c.transpose(0, 2, 1) @ w_c


def _envelope_cholesky_solve(rows, cell_mats, rhs, top) -> None:
    """Factor Σ = L L^T, assembled from cell_mats[c] on the indices rows[c],
    and overwrite rhs with L^-1 rhs; top[q] is the first nonzero row of
    column q of rhs, nondecreasing in q (George and Liu, Computer Solution
    of Large Sparse Positive Definite Systems, 1981, ch. 4).

    Σ's lower triangle is kept by blocks of rows: block I holds rows r0..r1
    and columns c0[I]..r1, c0[I] a block boundary at or before the first
    nonzero column of its rows.  Cholesky fill stays in that envelope, and
    each block row costs matrix products against the blocks it reaches:
    L_IJ = (Σ_IJ - L_I,<J L_J,<J^T) L_JJ^-T, then L_II from Σ_II - L_I,<I
    L_I,<I^T.  Rows r0..r1 of L^-1 rhs are nonzero only in the columns whose
    top lies above r1.  numpy's Cholesky raises LinAlgError on a diagonal
    block that is not positive definite.
    """
    import numpy as np

    n = rhs.shape[0]
    nb = _BAND_BLOCK
    nblocks = -(-n // nb)
    first = np.full(n, n, dtype=np.int64)
    np.minimum.at(first, rows.ravel(), np.repeat(rows.min(axis=1), rows.shape[1]))
    bounds = [min(I * nb, n) for I in range(nblocks + 1)]
    c0 = np.array([first[bounds[I]:bounds[I + 1]].min() // nb * nb for I in range(nblocks)], dtype=np.int64)
    widths = np.array(bounds[1:]) - c0
    offsets = np.concatenate([[0], np.cumsum(widths * np.diff(bounds))])
    p = np.broadcast_to(rows[:, :, None], cell_mats.shape)
    q = np.broadcast_to(rows[:, None, :], cell_mats.shape)
    lower = p >= q
    p, q = p[lower], q[lower]
    blk = p // nb
    pos = offsets[blk] + (p - blk * nb) * widths[blk] + q - c0[blk]
    envelope = np.bincount(pos, weights=cell_mats[lower], minlength=int(offsets[-1]))
    # Free the dead index arrays before the block loop, where the worker peaks.
    del p, q, lower, blk, pos

    def block(I):
        return envelope[offsets[I]:offsets[I + 1]].reshape(bounds[I + 1] - bounds[I], widths[I])

    inv_diag = []
    for I in range(nblocks):
        r0, r1, base = bounds[I], bounds[I + 1], int(c0[I])
        row = block(I)
        for J in range(base // nb, I):
            j0, j1 = bounds[J] - base, bounds[J + 1] - base
            lo = max(base, int(c0[J]))
            if lo < bounds[J]:
                row[:, j0:j1] -= row[:, lo - base:j0] @ block(J)[:, lo - c0[J]:bounds[J] - c0[J]].T
            row[:, j0:j1] = row[:, j0:j1] @ inv_diag[J].T
        left = row[:, :r0 - base]
        inv_diag.append(np.linalg.inv(np.linalg.cholesky(row[:, r0 - base:] - left @ left.T)))
        m = np.searchsorted(top, r1)
        rhs[r0:r1, :m] = inv_diag[I] @ (rhs[r0:r1, :m] - left @ rhs[base:r0, :m])


def _condensed_schur(layout, records):
    """S = C V^-1 C^T of the inf-sup pencil, without forming V, from the
    records of _float_inputs.

    Interior DoFs couple only inside their cell, so eliminating them cell by
    cell gives S = C_i V_ii^-1 C_i^T + Ĉ Σ^-1 Ĉ^T: the first term is block
    diagonal over the cells, Σ = V_bb - V_bi V_ii^-1 V_ib is assembled from
    the cellwise Schur complements and Ĉ = C_b - C_i V_ii^-1 V_ib keeps the
    sparsity of C_b.  With Σ = L L^T from the envelope Cholesky, the second
    term is Y^T Y, Y = L^-1 Ĉ^T.

    The rows of S come by cell, in the order of each cell's first row in
    Σ: a symmetric permutation, so the spectrum is unchanged, under which
    the columns of Ĉ^T have nondecreasing first nonzero rows.  Only the lower
    triangle of S is filled, which is all eigvalsh reads.
    """
    import numpy as np

    rows, sigma, c_hat, diag_blocks = _condense_cells(layout, records)
    ncells, qdim = c_hat.shape[:2]
    dim_q = qdim * ncells
    cell_first = rows.min(axis=1)
    by_first = np.argsort(cell_first, kind="stable")
    slot = np.empty(ncells, dtype=np.int64)
    slot[by_first] = np.arange(ncells)
    columns = slot[:, None] * qdim + np.arange(qdim)
    top = np.repeat(cell_first[by_first], qdim)
    y = np.zeros((int(rows.max()) + 1, dim_q))
    y[rows[:, :, None], columns[:, None, :]] = c_hat.transpose(0, 2, 1)
    _envelope_cholesky_solve(rows, sigma, y, top)
    schur = np.zeros((dim_q, dim_q))
    schur[columns[:, :, None], columns[:, None, :]] = diag_blocks
    # Lower triangle of Y^T Y by panels of rows of S; rows of Y above the
    # panel's first top contribute nothing.
    for p0 in range(0, dim_q, _SCHUR_PANEL):
        p1 = min(p0 + _SCHUR_PANEL, dim_q)
        schur[p0:p1, :p1] += y[top[p0]:, p0:p1].T @ y[top[p0]:, :p1]
    return schur


def _float_infsup(layout, records) -> tuple:
    """The numpy step of infsup_constant, on the records of _float_inputs:
    (beta, discarded eigenvalues, None), or (None, None, the text of
    numpy's LinAlgError) when a mass matrix is not positive definite."""
    import numpy as np

    try:
        eigs = np.linalg.eigvalsh(_condensed_schur(layout, records))
    except np.linalg.LinAlgError as exc:
        return None, None, str(exc)
    kept = eigs[eigs > KERNEL_THRESHOLD]
    beta = sqrt(float(kept.min())) if kept.size else 0.0
    return beta, int(eigs.size - kept.size), None


def _serve(values):
    """The body of the inf-sup worker that report.run_units starts: import
    numpy, read the layout and then one record per class of its interior
    splits, each decoded when _cell_pencils reaches it, and yield
    _float_infsup of them, its one reply.  The parent sends the records
    once it has built every cell entry; the worker condenses and solves
    after the last one while the parent runs its later exact units."""
    import numpy  # noqa: F401  (loaded while the parent runs the exact units)

    layout = next(values)
    yield _float_infsup(layout, (next(values) for _ in layout[4]))


def infsup_constant(space: GlobalSpace, reply: tuple | None = None) -> CheckResult:
    """Discrete inf-sup constant of the div pairing, floating point.

    beta^2 is the smallest eigenvalue of the pencil (C V^-1 C^T, Q), with V
    the graph-norm mass (value plus div), C the div coupling and Q the
    discontinuous target mass, |T| (W ⊗ I) on cell T.  With W = L L^T the
    pencil reduces to a plain symmetric matrix whose coupling rows on T are
    sqrt(|T|) (L^T ⊗ I) times the div rows (Golub and Van Loan, Matrix
    Computations, §8.7); their Gram matrix is the cell's div Gram matrix.
    C V^-1 C^T is built by static condensation and an envelope Cholesky, never
    as a dense dim_v x dim_v solve (see _condensed_schur).
    Eigenvalues under KERNEL_THRESHOLD are discarded and counted, since
    none are expected at or above the degree threshold.  The exact inputs
    are collected without numpy (_float_inputs).  reply is the triple
    (beta, discarded, error) of the float step (_float_infsup) as the
    inf-sup worker computed it on those records; without one, as when no
    worker could be forked, the step runs here, where numpy is imported on
    its first use.
    """
    name = f"infsup[{space.label}]"
    threshold = space.family.div_onto_min_degree(space.mesh.dim, space.continuity_order)
    beta, discarded, error = reply if reply is not None else _float_infsup(*_float_inputs(space))
    if error is not None:
        return CheckResult(name, FAIL, {"error": f"singular mass matrix: {error}"})
    if space.degree < threshold:
        status = SKIPPED
    else:
        status = PASS if beta > 0 and discarded == 0 else FAIL
    return CheckResult(
        name=name,
        status=status,
        witness={
            "beta": beta,
            "dim_v": space.dim,
            "dim_q": space.dim_q,
            "discarded_modes": discarded,
            "kernel_threshold": KERNEL_THRESHOLD,
            "degree_threshold": threshold,
        },
    )


def infsup_sweep(meshes, family: Family | str, degree: int, continuity_order: int) -> CheckResult:
    """Inf-sup constants over a refinement sequence plus a drift bound.

    The stability claim is h-uniformity; at desk scale the proxy is that the
    constant stays positive and moves by less than SWEEP_DRIFT_TOLERANCE of
    its largest value across the levels.
    """
    results = []
    for mesh in meshes:
        space = assemble(mesh, family, degree, continuity_order)
        results.append(infsup_constant(space))
    betas = [res.witness.get("beta", 0.0) for res in results]
    drift = (max(betas) - min(betas)) / max(betas) if betas and max(betas) > 0 else 1.0
    all_pass = all(res.status == PASS for res in results)
    skipped = any(res.status == SKIPPED for res in results)
    if skipped:
        status = SKIPPED
    else:
        status = PASS if all_pass and drift < SWEEP_DRIFT_TOLERANCE else FAIL
    return CheckResult(
        name=f"infsup_sweep[{Family(family).value} r={degree} k={continuity_order} levels={len(betas)}]",
        status=status,
        witness={
            "betas": betas,
            "drift": drift,
            "drift_tolerance": SWEEP_DRIFT_TOLERANCE,
            "levels": [len(m.cells) for m in meshes],
            "per_level": [res.witness for res in results],
        },
    )
