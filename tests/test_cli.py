"""CLI subcommands, exit codes, report schema, and determinism."""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import subprocess
import sys
from collections import Counter
from math import comb
from pathlib import Path

import pytest

from hdiv_geodecomp import assembly, cli, dofs, mesh, report, spaces
from hdiv_geodecomp.checks import FAIL, CheckResult
from hdiv_geodecomp.mesh import builtin_mesh, save_mesh
from hdiv_geodecomp.report import CaseParams, canonical_json
from hdiv_geodecomp.spaces import Family


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------- examples


def test_unisolvence_subcommand_reports_certificate(capsys):
    code, data = run_json(
        capsys, ["unisolvence", "--family", "face", "--dim", "3", "--degree", "2", "--k", "-1"]
    )
    assert code == 0
    assert data["schema_version"] == "1"
    (check,) = data["checks"]
    assert check["status"] == "pass"
    assert check["witness"]["size"] == 30
    assert check["witness"]["method"] == "site_blocks"
    assert re.fullmatch(r"[0-9a-f]{64}", check["witness"]["pivot_hash"])


def test_dims_subcommand_reports_global_dimension(capsys):
    code, data = run_json(
        capsys,
        ["dims", "--family", "face", "--dim", "2", "--degree", "2", "--mesh", "two_triangles"],
    )
    assert code == 0
    (check,) = data["checks"]
    assert check["witness"] == {"assembled": 21, "formula": 21}


def test_all_suite_traceless_includes_dual_basis(capsys):
    code, data = run_json(
        capsys, ["all", "--family", "traceless", "--dim", "2", "--degree", "2", "--k", "0"]
    )
    assert code == 0
    names = [c["name"] for c in data["checks"]]
    assert any(n.startswith("traceless_dual_basis") for n in names)
    assert all(c["status"] == "pass" for c in data["checks"])
    assert len(names) == len(set(names))
    assert set(data["timings"]) == {
        "bubbles", "decompose", "div-image", "dual-basis", "unisolvence", "total",
    }


@pytest.mark.parametrize("defect", ["perturbed pairing", "dropped element"])
def test_dual_basis_unit_fails_on_a_broken_basis(monkeypatch, defect):
    """Negative control: a pairing that is not the identity, or a basis one
    element short of n² − 1 (its pairing still the identity), fails."""
    original = report.traceless_gradient_basis

    def broken(simplex):
        frames = original(simplex)
        if defect == "perturbed pairing":
            pairing = [list(row) for row in frames.pairing]
            pairing[0][1] += 1
            return frames._replace(pairing=tuple(map(tuple, pairing)))
        return frames._replace(
            index_pairs=frames.index_pairs[:-1],
            basis=frames.basis[:-1],
            dual=frames.dual[:-1],
            pairing=tuple(row[:-1] for row in frames.pairing[:-1]),
        )

    monkeypatch.setattr(report, "traceless_gradient_basis", broken)
    params = CaseParams(
        family=Family.TRACELESS, dim=2, degree=2, continuity_order=0,
        mesh=None, seed=0,
    )
    (check,), _ = report.run_units(["dual-basis"], params)
    assert check.status == FAIL
    if defect == "perturbed pairing":
        assert check.witness == {"size": 3, "expected": 3, "kronecker": False}
    else:
        assert check.witness == {"size": 2, "expected": 3, "kronecker": True}


def test_all_suite_with_mesh_adds_assembly_units(capsys):
    code, data = run_json(
        capsys,
        [
            "all", "--family", "face", "--dim", "2", "--degree", "2",
            "--k", "-1", "--mesh", "two_triangles",
        ],
    )
    assert code == 0
    prefixes = {c["name"].split("[")[0] for c in data["checks"]}
    assert {"assemble", "dims", "conformity", "infsup", "div_onto"} <= prefixes


def test_skipped_checks_do_not_fail_the_run(capsys):
    code, data = run_json(
        capsys,
        [
            "infsup", "--family", "symmetric", "--degree", "2",
            "--k", "0", "--mesh", "two_triangles",
        ],
    )
    assert code == 0
    statuses = {c["name"].split("[")[0]: c["status"] for c in data["checks"]}
    assert statuses["infsup"] == "skipped_below_threshold"
    assert statuses["div_onto"] == "skipped_below_threshold"


# ---------------------------------------------------------------- exit codes

# The matrix families have no continuity order in dimension 1; the message
# must say so rather than name an empty range of orders.
DIMENSION_ONE = [
    ["all", "--family", "traceless", "--dim", "1", "--degree", "2"],
    ["all", "--family", "symmetric", "--dim", "1", "--degree", "2"],
    ["all", "--family", "traceless", "--degree", "2", "--mesh", "unit_interval_3"],
]


@pytest.mark.parametrize(
    "argv",
    [
        ["dims", "--family", "face", "--degree", "2"],  # mesh missing
        ["bubbles", "--family", "lagrange", "--dim", "2", "--degree", "2"],
        ["decompose", "--family", "face", "--degree", "2"],  # no dim, no mesh
        ["unisolvence", "--family", "symmetric", "--dim", "2", "--degree", "2", "--k", "1"],
        ["unisolvence", "--family", "lagrange", "--dim", "2", "--degree", "2", "--k", "0"],
        ["conformity", "--family", "face", "--dim", "3", "--degree", "2", "--mesh", "two_triangles"],
        ["dims", "--family", "face", "--degree", "2", "--mesh", "/no/such/mesh.json"],
        ["unknown-subcommand", "--family", "face", "--dim", "2", "--degree", "2"],
        ["unisolvence", "--family", "face", "--dim", "2", "--degree", "0"],
        # the one frame convention is not an option
        ["unisolvence", "--family", "face", "--dim", "2", "--degree", "2",
         "--frame", "edge_tangents_face_normals"],
        # report paths that cannot be written: caught before any unit runs
        ["dims", "--family", "face", "--degree", "2", "--mesh", "two_triangles",
         "--out", "/no/such/dir/r.json"],
        ["dims", "--family", "face", "--degree", "2", "--mesh", "two_triangles",
         "--out", "."],
        *DIMENSION_ONE,
    ],
)
def test_bad_arguments_exit_two(capsys, argv):
    assert cli.run(argv) == 2
    if argv in DIMENSION_ONE:
        family = argv[argv.index("--family") + 1]
        assert f"{family} elements need dimension >= 2, got 1" in capsys.readouterr().err


# Every option of every subcommand; adding one means adding it here.
CLI_OPTIONS = {"--help", "--family", "--dim", "--degree", "--k", "--mesh", "--out", "--format", "--seed", "--jobs"}


def test_every_subcommand_takes_exactly_the_listed_options():
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(subparsers.choices) == list(cli.SUBCOMMANDS)
    for name, sub in subparsers.choices.items():
        options = {s for action in sub._actions for s in action.option_strings if s.startswith("--")}
        assert options == CLI_OPTIONS, name


def test_folded_mesh_file_exits_two(tmp_path, capsys):
    # Written by hand: a folded Mesh cannot be constructed, so save_mesh
    # cannot write one.  Both cells lie above their shared edge (0, 1).
    path = tmp_path / "folded.json"
    folded = {
        "dim": 2,
        "vertices": [[[0, 1], [0, 1]], [[1, 1], [0, 1]], [[0, 1], [1, 1]], [[1, 2], [2, 1]]],
        "cells": [[0, 1, 2], [0, 1, 3]],
    }
    path.write_text(json.dumps(folded))
    code = cli.run(["dims", "--family", "face", "--degree", "2", "--mesh", str(path)])
    assert code == 2
    assert "folded mesh" in capsys.readouterr().err


# kind -> (edit of the saved two_triangles file, text the message must name)
NOT_INTEGER_EDITS = {
    "float_numerator": (lambda d: d["vertices"][3][0].__setitem__(0, 1.9), "numerator 1.9"),
    "float_denominator": (lambda d: d["vertices"][3][0].__setitem__(1, 1.0), "denominator 1.0"),
    "float_cell_index": (lambda d: d["cells"][1].__setitem__(2, 3.7), "cell index 3.7"),
    "bool_cell_index": (lambda d: d["cells"][1].__setitem__(0, True), "cell index true"),
    "float_dim": (lambda d: d.__setitem__("dim", 2.9), "dim 2.9"),
}


@pytest.mark.parametrize("kind", ["zero_denominator", "directory", *NOT_INTEGER_EDITS])
def test_unreadable_mesh_file_exits_two(tmp_path, capsys, kind):
    path = tmp_path / "mesh.json"
    named = ""
    if kind == "directory":
        path.mkdir()
    else:
        save_mesh(builtin_mesh("two_triangles"), path)
        data = json.loads(path.read_text())
        if kind == "zero_denominator":
            data["vertices"][0][0] = [0, 0]
        else:
            edit, named = NOT_INTEGER_EDITS[kind]
            edit(data)
        path.write_text(json.dumps(data))
    code = cli.run(["dims", "--family", "face", "--degree", "1", "--mesh", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--mesh:" in err
    if named:
        assert f"{named} is not an integer" in err


def test_vector_is_an_input_alias_of_face(capsys):
    assert Family("vector") is Family.FACE
    assert [f.value for f in Family] == ["lagrange", "face", "traceless", "symmetric"]
    argv = ["dims", "--degree", "2", "--mesh", "two_triangles", "--family"]
    code_alias, via_alias = run_json(capsys, argv + ["vector"])
    code_face, direct = run_json(capsys, argv + ["face"])
    assert code_alias == code_face == 0
    assert via_alias["checks"] == direct["checks"]
    assert via_alias["params"] == direct["params"]
    assert direct["params"]["family"] == "face"


def test_check_failure_exits_one(capsys, monkeypatch):
    def failing_unit(p):
        return [CheckResult("forced", FAIL, {"why": "injected"})]

    monkeypatch.setitem(report.UNITS, "dims", failing_unit)
    code, data = run_json(
        capsys,
        ["dims", "--family", "face", "--dim", "2", "--degree", "2", "--mesh", "two_triangles"],
    )
    assert code == 1
    assert data["checks"][0]["status"] == "fail"
    assert data["checks"][0]["witness"] == {"why": "injected"}


def test_internal_error_exits_three(capsys, monkeypatch):
    def broken_unit(p):
        raise RuntimeError("boom")

    monkeypatch.setitem(report.UNITS, "dims", broken_unit)
    code = cli.run(
        ["dims", "--family", "face", "--dim", "2", "--degree", "2", "--mesh", "two_triangles"]
    )
    assert code == 3


# ---------------------------------------------------------------- reports


def _strip_timings(text: str) -> str:
    return re.sub(r'"timings": \{[^}]*\}', '"timings": {}', text, flags=re.S)


def test_reports_are_byte_identical_for_fixed_seed(tmp_path):
    argv = [
        "conformity", "--family", "face", "--dim", "2", "--degree", "2",
        "--mesh", "two_triangles", "--seed", "11",
    ]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert cli.run(argv + ["--out", str(first)]) == 0
    assert cli.run(argv + ["--out", str(second)]) == 0
    a = _strip_timings(first.read_text())
    b = _strip_timings(second.read_text())
    assert a == b
    assert not list(tmp_path.glob("*.part"))


@pytest.mark.parametrize(
    "argv",
    [
        ["all", "--family", "face", "--dim", "2", "--degree", "2",
         "--k", "-1", "--mesh", "two_triangles"],
        ["all", "--family", "traceless", "--degree", "2",
         "--k", "0", "--mesh", "two_triangles"],
    ],
    ids=["face", "traceless"],
)
def test_jobs_flag_takes_only_one_worker(tmp_path, argv):
    plain = tmp_path / "plain.json"
    one = tmp_path / "one.json"
    assert cli.run(argv + ["--out", str(plain)]) == 0
    # "--jobs 1" is how existing scripts spell the serial run.
    assert cli.run(argv + ["--out", str(one), "--jobs", "1"]) == 0
    assert _strip_timings(plain.read_text()) == _strip_timings(one.read_text())
    assert cli.run(argv + ["--out", str(tmp_path / "two.json"), "--jobs", "2"]) == 2
    assert not (tmp_path / "two.json").exists()


def _counting(log: Path, name: str, fn, cell=lambda *args: ""):
    """fn, appending to log on each call its name, the pid of the process
    that makes it, which may be a child that a run forks to build cell
    duals, and cell(*args), the cell the call works on."""

    def wrapper(*args, **kwargs):
        with open(log, "a") as out:
            out.write(f"{name};{os.getpid()};{cell(*args)}\n")
        return fn(*args, **kwargs)

    return wrapper


def _logged(log: Path) -> list[list[str]]:
    return [line.split(";", 2) for line in log.read_text().splitlines()] if log.exists() else []


def _calls(log: Path) -> Counter:
    return Counter(name for name, _, _ in _logged(log))


def _calls_per_process(log: Path, name: str) -> Counter:
    """The calls of name per (pid, cell).  Each call made for a cell comes
    from this process or from one child, and no process makes two for
    one cell; the two processes may both make one."""
    calls = Counter((int(pid), cell) for called, pid, cell in _logged(log) if called == name)
    assert set(calls.values()) <= {1}, calls
    assert len({pid for pid, _ in calls} - {os.getpid()}) <= 1, calls
    return calls


def _vertices(simplex) -> str:
    return str(simplex.vertices)


def test_all_suite_shares_mesh_space_and_cell_duals(tmp_path, capsys, monkeypatch):
    path = tmp_path / "criss_cross.json"
    criss_cross = builtin_mesh("criss_cross")
    save_mesh(criss_cross, path)
    log = tmp_path / "calls.log"
    cells = {_vertices(s) for s in criss_cross.cell_simplices}

    def counted(name, fn, cell=lambda *args: ""):
        return _counting(log, name, fn, cell)

    def run() -> Counter:
        log.unlink(missing_ok=True)
        code, _ = run_json(
            capsys, ["all", "--family", "face", "--degree", "2", "--mesh", str(path)]
        )
        assert code == 0
        calls = _calls(log)
        assert calls["assemble"] == 1
        # once, when loading the file builds the Mesh
        assert calls["validate_mesh"] == 1
        return calls

    monkeypatch.setattr(report, "assemble", counted("assemble", report.assemble))
    for module in (dofs, assembly):
        monkeypatch.setattr(module, "dof_matrix", counted("dof_matrix", module.dof_matrix, lambda d, b: _vertices(d.simplex)))
    monkeypatch.setattr(mesh, "validate_mesh", counted("validate_mesh", mesh.validate_mesh))
    # On the machine's CPUs: each of the four cells is its own class, and
    # its DoF matrix is built in this process, in the cell dual helper, or
    # in each when both began it, plus the reference cell of the
    # unisolvence unit.  No process builds one twice, later units included.
    run()
    built = {cell for _, cell in _calls_per_process(log, "dof_matrix")}
    assert cells < built and len(built) == len(cells) + 1, built
    # On one CPU, no helper: one DoF matrix per cell, plus the reference cell.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert run()["dof_matrix"] == len(criss_cross.cells) + 1


def test_infsup_builds_cell_div_rows_once_per_cell(tmp_path, capsys, monkeypatch):
    log = tmp_path / "calls.log"
    criss_cross = builtin_mesh("criss_cross")
    cells = {_vertices(s) for s in criss_cross.cell_simplices}
    monkeypatch.setattr(assembly, "div_rows", _counting(log, "div_rows", assembly.div_rows, lambda b, s: _vertices(s)))
    monkeypatch.setattr(spaces, "div_row", _counting(log, "div_row", spaces.div_row))
    members = Family.TRACELESS.constrained_dim(2) * comb(2 + 2, 2)

    def run() -> Counter:
        log.unlink(missing_ok=True)
        code, _ = run_json(
            capsys, ["infsup", "--family", "traceless", "--degree", "2", "--mesh", "criss_cross"]
        )
        assert code == 0
        return _calls(log)

    # inf-sup and div-onto share the (rows, denominator) of each cell.  On
    # the machine's CPUs each process builds a cell's rows at most once,
    # together every cell's, one div_row per member of each.
    run()
    rows = _calls_per_process(log, "div_rows")
    assert {cell for _, cell in rows} == cells, rows
    per_row = Counter(int(pid) for called, pid, _ in _logged(log) if called == "div_row")
    assert per_row == Counter({pid: n * members for pid, n in Counter(pid for pid, _ in rows).items()}), per_row
    # On one CPU, in this process alone: one build per cell.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    calls = run()
    assert calls["div_rows"] == len(cells)
    assert calls["div_row"] == len(cells) * members


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["one_cpu", "two_cpus"])
def test_cell_entries_are_asked_for_by_first_cells_only(tmp_path, capsys, monkeypatch, cpus):
    # Each class's entry is kept under its first cell, and the package asks
    # for it by that cell: a traced run counts a call for any other cell as
    # a cache miss.  On two CPUs the cell dual helper's calls are logged
    # too, from its own pid.
    log = tmp_path / "calls.log"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    for name in ("dual_coefficients", "div_rows"):
        original = getattr(assembly.GlobalSpace, name)
        wrapper = _counting(log, name, original, lambda space, ci: f"{ci};{space.classes[ci]}")
        monkeypatch.setattr(assembly.GlobalSpace, name, wrapper)
    argv = ["all", "--family", "traceless", "--degree", "2", "--k", "0", "--mesh", "refine(two_tets)"]
    code, _ = run_json(capsys, argv)
    assert code == 0
    calls = [(name, int(pid), *map(int, cell.split(";"))) for name, pid, cell in _logged(log)]
    assert {name for name, *_ in calls} == {"dual_coefficients", "div_rows"}
    assert all(ci == first for _, _, ci, first in calls), calls
    firsts = {ci for _, pid, ci, _ in calls if pid == os.getpid()}
    # This process reads the entry of every class, of which there are 10.
    assert firsts == set(mesh.resolve_mesh("refine(two_tets)").cell_class) and len(firsts) == 10, firsts


def _run_script(script: str, flags: tuple[str, ...] = (), **env: str) -> subprocess.CompletedProcess:
    """Run a Python script in a child with the package on its path, the
    given interpreter flags and the given variables set;
    OPENBLAS_NUM_THREADS is unset unless given.  A child that hangs, say
    on a worker it never reaps, fails the test after two minutes."""
    src = Path(cli.__file__).resolve().parents[1]
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run(
        [sys.executable, *flags, "-c", script],
        env={**child_env, "PYTHONPATH": str(src), **env},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_infsup_runs_without_importing_scipy():
    script = (
        "import sys\n"
        "from hdiv_geodecomp import cli\n"
        "assert cli.run(['infsup', '--family', 'face', '--degree', '2', '--mesh', 'two_triangles']) == 0\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    proc = _run_script(script)
    assert proc.returncode == 0, proc.stderr


def test_cli_process_never_imports_numpy(tmp_path):
    # The float inf-sup step runs in a forked worker; the report still
    # equals the in-process result.
    script = (
        "import json, os, sys\n"
        "from hdiv_geodecomp import cli\n"
        "from hdiv_geodecomp.assembly import assemble, infsup_constant\n"
        "from hdiv_geodecomp.mesh import resolve_mesh\n"
        "argv = ['all', '--family', 'traceless', '--dim', '3', '--degree', '3', '--k', '0']\n"
        f"assert cli.run(argv + ['--out', {str(tmp_path / 'element.json')!r}]) == 0\n"
        "assert 'numpy' not in sys.modules, 'an element run imported numpy'\n"
        "assert os.environ['OPENBLAS_NUM_THREADS'] == '1', 'set only after numpy loaded'\n"
        "argv = ['infsup', '--family', 'face', '--degree', '2', '--mesh', 'two_triangles']\n"
        f"assert cli.run(argv + ['--out', {str(tmp_path / 'infsup.json')!r}]) == 0\n"
        "assert 'numpy' not in sys.modules, 'the CLI process imported numpy'\n"
        "expected = infsup_constant(assemble(resolve_mesh('two_triangles'), 'face', 2, -1))\n"
        "assert 'numpy' in sys.modules, 'the in-process inf-sup ran without numpy'\n"
        f"checks = json.load(open({str(tmp_path / 'infsup.json')!r}))['checks']\n"
        "(check,) = [c for c in checks if c['name'] == expected.name]\n"
        "assert check == expected._asdict(), (check, expected)\n"
    )
    proc = _run_script(script)
    assert proc.returncode == 0, proc.stderr


# Run with -W error: forking a process that has threads warns (Python 3.12).
STRICT = ("-W", "error")


def test_infsup_worker_and_in_process_results_are_equal(tmp_path):
    out = tmp_path / "all.json"
    script = (
        "import json, sys\n"
        "from itertools import chain\n"
        "from hdiv_geodecomp import assembly, cli, report\n"
        "from hdiv_geodecomp.assembly import assemble, infsup_constant\n"
        "from hdiv_geodecomp.mesh import resolve_mesh\n"
        "def refined():\n"
        "    return assemble(resolve_mesh('refine(two_tets)'), 'traceless', 2, 0)\n"
        "def singular():\n"
        "    return assemble(resolve_mesh('two_triangles'), 'face', 2, -1)\n"
        "def cut():\n"
        "    space = assemble(resolve_mesh('two_tets'), 'traceless', 2, 0)\n"
        "    rows, den = space.div_rows(0)\n"
        "    space._dual_cache[0] = space.dual_coefficients(0), ([[0] + row[1:] for row in rows], den)\n"
        "    return space\n"
        "true_pairs = assembly._coeff_pair_matrix\n"
        "calls = []\n"
        "def zeroed(coefficients):\n"
        "    # cell 0 without its value Gram matrix: V is singular\n"
        "    calls.append(None)\n"
        "    pairs = true_pairs(coefficients)\n"
        "    return pairs * 0 if len(calls) == 1 else pairs\n"
        "cases = {'refined': refined, 'singular': singular, 'cut': cut}\n"
        "def compute(name, forked):\n"
        "    calls.clear()\n"
        "    assembly._coeff_pair_matrix = zeroed if name == 'singular' else true_pairs\n"
        "    if not forked:\n"
        "        return infsup_constant(cases[name]())\n"
        "    space = cases[name]()\n"
        "    worker = assembly._Child.start('inf-sup worker', assembly._serve)\n"
        "    try:\n"
        "        layout, cells = assembly._float_inputs(space)\n"
        "        worker.send(chain((layout,), cells))\n"
        "        (reply,) = worker.result()\n"
        "        return infsup_constant(space, reply)\n"
        "    finally:\n"
        "        worker.close()\n"
        "forked = {name: compute(name, True) for name in cases}\n"
        "# The CLI's own worker on 'all': conformity sends the records.\n"
        "conformity = report.UNITS['conformity']\n"
        "def sending_conformity(run):\n"
        "    checks = conformity(run)\n"
        "    assert run.worker._inputs.closed, 'conformity left records unsent'\n"
        "    return checks\n"
        "report.UNITS['conformity'] = sending_conformity\n"
        "argv = ['all', '--family', 'traceless', '--degree', '2', '--k', '0', '--mesh', 'refine(two_tets)']\n"
        f"assert cli.run(argv + ['--out', {str(out)!r}]) == 0\n"
        "assert 'numpy' not in sys.modules\n"
        "for name in cases:\n"
        "    assert compute(name, False) == forked[name], (name, forked[name])\n"
        f"(sent,) = [c for c in json.load(open({str(out)!r}))['checks'] if c['name'].startswith('infsup[')]\n"
        "assert sent == forked['refined']._asdict(), (sent, forked['refined'])\n"
        "assert forked['refined'].status == 'pass', forked['refined']\n"
        "assert forked['singular'].witness['error'].startswith('singular mass matrix')\n"
        "assert forked['cut'].witness['discarded_modes'] == 1, forked['cut']\n"
    )
    # One BLAS thread on every side, as cli.run sets before any numpy
    # import, so the in-process solves round as the workers' do.
    proc = _run_script(script, STRICT, OPENBLAS_NUM_THREADS="1")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("cut", ["after_layout", "inside_second_cell"])
def test_worker_exits_quietly_on_a_cut_stream(cut):
    # The parent stopped before every record arrived: the child exits 0
    # and writes no reply.
    script = (
        "import io\n"
        "from hdiv_geodecomp import assembly\n"
        "from hdiv_geodecomp.mesh import resolve_mesh\n"
        "space = assembly.assemble(resolve_mesh('criss_cross'), 'face', 2, -1)\n"
        "layout, cells = assembly._float_inputs(space)\n"
        "stream = io.BytesIO()\n"
        "assembly._write_value(stream, layout)\n"
        "data = stream.getvalue()\n"
        f"if {cut!r} == 'inside_second_cell':\n"
        "    assembly._write_value(stream, next(cells))\n"
        "    assembly._write_value(stream, next(cells))\n"
        "    data = stream.getvalue()[:-5]\n"
        "worker = assembly._Child.start('inf-sup worker', assembly._serve)\n"
        "try:\n"
        "    worker._inputs.write(data)\n"
        "    worker.result()\n"
        "except RuntimeError as exc:\n"
        "    message = str(exc)\n"
        "finally:\n"
        "    worker.close()\n"
        "assert len(layout[3]) > 2\n"
        "assert worker.status == 0, worker.status\n"
        "assert message == 'the inf-sup worker exited with status 0 and no result', message\n"
    )
    proc = _run_script(script, STRICT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


# Helpers of the scripts below.  on_cpus sets the CPUs that
# assembly._build_cell_duals sees; it forks a child to build cell duals
# from the back of its class list when it sees two.  builders() returns,
# and forgets, the pid and the cell's vertices of every DoF matrix build
# since its last call.  repeat_interior gives one cell two equal interior
# functionals, so its DoF matrix is singular.
SPLIT_PRELUDE = """
import atexit, marshal, os, tempfile, time
from hdiv_geodecomp import assembly, report
from hdiv_geodecomp.mesh import resolve_mesh
def on_cpus(*cpus):
    os.sched_getaffinity = lambda pid: set(cpus)
fd, BUILDERS = tempfile.mkstemp()
os.close(fd)
atexit.register(os.remove, BUILDERS)
dof_matrix = assembly.dof_matrix
def logged_dof_matrix(dofs, basis):
    with open(BUILDERS, 'a') as log:
        log.write(f'{os.getpid()};{dofs.simplex.vertices}\\n')
    return dof_matrix(dofs, basis)
assembly.dof_matrix = logged_dof_matrix
def builders():
    with open(BUILDERS, 'r+') as log:
        builds = [line.rstrip('\\n').split(';') for line in log]
        log.truncate(0)
    return [(int(pid), vertices) for pid, vertices in builds]
def repeat_interior(space, victim):
    functionals = space.cell_dofs[victim].functionals
    dofs = list(space.cell_dofs)
    dofs[victim] = dofs[victim]._replace(functionals=functionals[:-1] + functionals[-2:-1])
    return space._replace(cell_dofs=tuple(dofs))
def no_child_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise AssertionError('a child process is left')
"""

# A cell dual helper that sleeps past _run_script's timeout.
SLEEPING_HELPER = "assembly._helper_entries = lambda *args: time.sleep(150)"


@pytest.mark.parametrize(
    "case",
    [("refine(two_tets)", "traceless", 2, 0), ("criss_cross", "symmetric", 3, 0), ("refine(criss_cross)", "face", 2, -1)],
    ids=["traceless_refine_two_tets", "symmetric_criss_cross", "face_refine_criss_cross"],
)
def test_cell_duals_built_on_two_cpus_equal_the_in_process_ones(case):
    script = SPLIT_PRELUDE + (
        f"mesh, family, degree, k = {case!r}\n"
        "def filled(*cpus):\n"
        "    on_cpus(*cpus)\n"
        "    space = assembly.assemble(resolve_mesh(mesh), family, degree, k)\n"
        "    assembly._build_cell_duals(space)\n"
        "    # One entry per class, under its first cell.\n"
        "    assert sorted(space._dual_cache) == sorted(set(space.classes))\n"
        "    layout, cells = assembly._float_inputs(space)\n"
        "    return space, [marshal.dumps(record) for record in (layout, *cells)]\n"
        "alone, alone_records = filled(0)\n"
        "assert {pid for pid, _ in builders()} == {os.getpid()}\n"
        "split, split_records = filled(0, 1)\n"
        "cell_of = {str(s.vertices): ci for ci, s in enumerate(split.mesh.cell_simplices)}\n"
        "built = {}\n"
        "builds = builders()\n"
        "for pid, vertices in builds:\n"
        "    built.setdefault(cell_of[vertices], set()).add(pid)\n"
        "# Each class's DoF matrix is built on its first cell, by this process\n"
        "# or by the child, or by both when both began it before they met.\n"
        "# This process builds the first class.\n"
        "firsts = sorted(set(split.classes))\n"
        "assert sorted(built) == firsts, built\n"
        "assert os.getpid() in built[firsts[0]], built\n"
        "assert len(set().union(*built.values())) <= 2, built\n"
        "# Neither process builds a class twice, _float_inputs included.\n"
        "assert len(builds) == sum(map(len, built.values())), builds\n"
        "assert split._dual_cache == alone._dual_cache\n"
        "# The inf-sup worker's records, byte for byte.\n"
        "assert split_records == alone_records\n"
        "no_child_left()\n"
    )
    proc = _run_script(script, STRICT)
    assert proc.returncode == 0, proc.stderr


def test_cell_duals_built_on_two_cpus_keep_planted_entries():
    # As the 'cut' control does: a cached entry is never built again.
    script = SPLIT_PRELUDE + (
        "on_cpus(0, 1)\n"
        "alone = assembly.assemble(resolve_mesh('criss_cross'), 'face', 2, -1)\n"
        "space = alone._replace()\n"
        "entry0, entry3 = (([[2]], 3), ([[1]], 1)), (([[5]], 7), ([[4]], 1))\n"
        "space._dual_cache[0] = entry0\n"
        "space._dual_cache[3] = entry3\n"
        "assembly._build_cell_duals(space)\n"
        "assert space._dual_cache[0] is entry0 and space._dual_cache[3] is entry3\n"
        "# Cell 1 is built in this process, cell 2 in this one, the child or\n"
        "# both; no process builds a cell twice.\n"
        "cell_of = {str(s.vertices): ci for ci, s in enumerate(space.mesh.cell_simplices)}\n"
        "builds = [(pid, cell_of[vertices]) for pid, vertices in builders()]\n"
        "assert len(builds) == len(set(builds)), builds\n"
        "assert {ci for _, ci in builds} == {1, 2}, builds\n"
        "assert {pid for pid, ci in builds if ci == 1} == {os.getpid()}, builds\n"
        "assert len({pid for pid, _ in builds}) <= 2, builds\n"
        "on_cpus(0)\n"
        "assembly._build_cell_duals(alone)\n"
        "assert {**alone._dual_cache, 0: entry0, 3: entry3} == space._dual_cache\n"
    )
    proc = _run_script(script, STRICT)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "mesh, victims, helper",
    [("criss_cross", (3,), ""), ("criss_cross", (0,), SLEEPING_HELPER), ("refine(criss_cross)", (1, 14), "")],
    ids=["last_class", "first_class", "near_both_ends"],
)
def test_cell_duals_on_two_cpus_raise_the_in_process_error(mesh, victims, helper):
    # The four cells of criss_cross are four classes: this process builds
    # class 0 first, the child class 3 first.  With class 0 singular the
    # child sleeps past _run_script's timeout, so only a kill ends it in
    # time.  On refine(criss_cross) the victims' classes are the second and
    # the last of six.  The child sends nothing from its first singular
    # class on, so this process builds the first singular class itself and
    # raises the error of the in-process run, on every run.
    script = SPLIT_PRELUDE + (
        f"mesh, victims = {mesh!r}, {victims!r}\n"
        "def message(*cpus):\n"
        "    on_cpus(*cpus)\n"
        "    space = assembly.assemble(resolve_mesh(mesh), 'face', 2, -1)\n"
        "    for victim in victims:\n"
        "        space = repeat_interior(space, victim)\n"
        "    singular = str(space.mesh.cell_simplices[min(victims)].vertices)\n"
        "    try:\n"
        "        assembly._build_cell_duals(space)\n"
        "    except assembly.AssemblyError as exc:\n"
        "        builds = builders()\n"
        "        assert (os.getpid(), singular) in builds, builds\n"
        "        return str(exc)\n"
        "    raise AssertionError('no error')\n"
        "expected = message(0)\n"
        "assert expected.startswith('cell (') and 'has a singular DoF matrix' in expected, expected\n"
        f"{helper}\n"
        "for _ in range(5):\n"
        "    assert message(0, 1) == expected\n"
        "    no_child_left()\n"
    )
    proc = _run_script(script, STRICT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_a_stalled_helper_leaves_every_class_to_this_process():
    # The child sleeps past _run_script's timeout and sends nothing: this
    # process builds every class without waiting for it, then kills it.
    script = SPLIT_PRELUDE + (
        "on_cpus(0, 1)\n"
        f"{SLEEPING_HELPER}\n"
        "space = assembly.assemble(resolve_mesh('refine(two_tets)'), 'traceless', 2, 0)\n"
        "start = time.monotonic()\n"
        "assembly._build_cell_duals(space)\n"
        "elapsed = time.monotonic() - start\n"
        "assert elapsed < 30, elapsed\n"
        "pids = [pid for pid, _ in builders()]\n"
        "assert pids == [os.getpid()] * len(set(space.classes)), pids\n"
        "assert sorted(space._dual_cache) == sorted(set(space.classes))\n"
        "no_child_left()\n"
    )
    proc = _run_script(script, STRICT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_a_forked_child_moves_off_its_parents_cpu_once(monkeypatch):
    moves = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: moves.append(set(cpus)), raising=False)
    assembly._start_elsewhere(1)
    # Moved off CPU 1, then allowed every CPU again.
    assert moves == [{0, 2}, {0, 1, 2}]
    moves.clear()
    assembly._start_elsewhere(None)
    assembly._start_elsewhere(3)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1}, raising=False)
    assembly._start_elsewhere(1)
    assert moves == []
    monkeypatch.undo()
    if os.path.exists("/proc/self/stat"):
        assert assembly._this_cpu() in os.sched_getaffinity(0)


# Each case runs assembly._Child directly and expects what the child's
# stderr should hold: a raising body prints its traceback there.
CHILD_CASES = {
    "result_over_one_mebibyte": ("""
def counted(values, step):
    yield list(range(0, next(values), step))
child = assembly._Child.start('counter', counted, 1)
try:
    child.send([300_000])
    (result,) = child.result()
finally:
    child.close()
assert len(marshal.dumps(result)) > 1 << 20
assert result == list(range(300_000)) and child.status == 0
""", ""),
    "raising_body": ("""
def raises(values):
    raise ValueError('planted')
child = assembly._Child.start('raiser', raises)
try:
    child.result()
except RuntimeError as exc:
    assert str(exc) == 'the raiser exited with status 1 and no result', exc
else:
    raise AssertionError('no error')
finally:
    child.close()
""", "ValueError: planted"),
    "close_kills_a_sleeping_child": ("""
child = assembly._Child.start('sleeper', lambda values: time.sleep(150))
start = time.monotonic()
child.close()
assert child.status == -signal.SIGKILL and time.monotonic() - start < 60, child.status
""", ""),
    "close_after_result_does_nothing": ("""
def adder(values, a, b):
    yield a + b
child = assembly._Child.start('adder', adder, 2, 3)
try:
    assert child.result() == [5]
finally:
    child.close()
assert child.status == 0
child.close()
assert child.status == 0
""", ""),
    "inputs_cut_short": ("""
def pair(values):
    yield [next(values) for _ in range(2)]
child = assembly._Child.start('reader', pair)
try:
    child.send([1])
    child.result()
except RuntimeError as exc:
    assert str(exc) == 'the reader exited with status 0 and no result', exc
else:
    raise AssertionError('no error')
finally:
    child.close()
""", ""),
    "replies_arrive_in_order": ("""
def three(values):
    next(values)
    yield 1
    yield [2, 2]
    yield 'three'
child = assembly._Child.start('streamer', three)
try:
    assert child.replies() == []
    child.send([None])
    os.waitid(os.P_PID, child.pid, os.WEXITED | os.WNOWAIT)
    assert child.replies() == [1, [2, 2], 'three']
    assert child.replies() == []
finally:
    child.close()
assert child.status == 0, child.status
""", ""),
    "killed_mid_stream": ("""
def stream(values):
    yield 'first'
    yield list(range(300_000))
    time.sleep(150)
child = assembly._Child.start('streamer', stream)
try:
    got = []
    deadline = time.monotonic() + 60
    while len(got) < 2 and time.monotonic() < deadline:
        got += child.replies()
        time.sleep(0.001)
    # The second value is larger than the pipe holds: it arrives in parts.
    assert got == ['first', list(range(300_000))], got[:1]
finally:
    child.close()
assert child.status == -signal.SIGKILL, child.status
""", ""),
}


@pytest.mark.parametrize("case", list(CHILD_CASES))
def test_forked_child(case):
    body, stderr = CHILD_CASES[case]
    script = SPLIT_PRELUDE + "import signal\n" + body + "no_child_left()\n"
    proc = _run_script(script, STRICT)
    assert proc.returncode == 0, proc.stderr
    if stderr:
        assert stderr in proc.stderr, proc.stderr
    else:
        assert proc.stderr == ""


def test_a_failed_fork_closes_the_childs_pipes(monkeypatch):
    # os.fork raises BlockingIOError when no process can be made, and
    # os.pipe raises OSError when the process has no file descriptor left:
    # _Child.start returns None, to run the work in process, and closes the
    # pipe ends it made.
    made = []
    pipe = os.pipe

    def recorded_pipe():
        ends = pipe()
        made.extend(ends)
        return ends

    def no_fork():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "pipe", recorded_pipe)
    monkeypatch.setattr(os, "fork", no_fork)
    # BLAS threads, alive once a test has loaded numpy in this process,
    # would stop start before it makes its pipes.
    monkeypatch.setattr(os, "listdir", lambda path: ["one thread"])
    for _ in range(3):
        assert assembly._Child.start("inf-sup worker", assembly._serve) is None
    assert len(made) == 12

    def second_pipe_fails():
        if len(made) % 4 == 2:
            raise OSError(errno.EMFILE, "Too many open files")
        return recorded_pipe()

    monkeypatch.setattr(os, "pipe", second_pipe_fails)
    assert assembly._Child.start("inf-sup worker", assembly._serve) is None
    monkeypatch.undo()
    assert len(made) == 14
    for fd in set(made):
        with pytest.raises(OSError):
            os.fstat(fd)


# Each case makes os.fork or os.pipe fail as when no process or file
# descriptor can be made, after the run has forked once for the reference.
FAILED_FORKS = {
    "fork_raises": "def no_fork():\n    raise BlockingIOError(errno.EAGAIN, 'Resource temporarily unavailable')\nos.fork = no_fork\n",
    "pipe_raises": "def no_pipe():\n    raise OSError(errno.EMFILE, 'Too many open files')\nos.pipe = no_pipe\n",
}


@pytest.mark.parametrize("case", list(FAILED_FORKS))
def test_a_failed_fork_runs_the_work_in_process(tmp_path, case):
    # Neither the inf-sup worker nor the cell dual helper starts: numpy
    # loads here, and the report's checks are the forked run's.
    script = (
        "import errno, json, os, sys\n"
        "from hdiv_geodecomp import cli\n"
        "argv = ['all', '--family', 'face', '--degree', '2', '--mesh', 'criss_cross']\n"
        "def checks(name):\n"
        f"    out = os.path.join({str(tmp_path)!r}, name)\n"
        "    assert cli.run(argv + ['--out', out]) == 0\n"
        "    with open(out) as report:\n"
        "        return json.load(report)['checks']\n"
        "forked = checks('forked.json')\n"
        "assert 'numpy' not in sys.modules\n"
        + FAILED_FORKS[case]
        + "alone = checks('alone.json')\n"
        "assert 'numpy' in sys.modules, 'the float step ran in a child'\n"
        "assert alone == forked, (alone, forked)\n"
    )
    proc = _run_script(script, STRICT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_one_all_run_sends_the_float_inputs_once(tmp_path):
    # conformity builds and sends the records; infsup reads the reply.
    script = (
        "from hdiv_geodecomp import assembly, cli, report\n"
        "calls = []\n"
        "float_inputs = assembly._float_inputs\n"
        "def counted_float_inputs(space):\n"
        "    calls.append('_float_inputs')\n"
        "    return float_inputs(space)\n"
        "assembly._float_inputs = report._float_inputs = counted_float_inputs\n"
        "send = assembly._Child.send\n"
        "def counted_send(child, values):\n"
        "    calls.append(child.name)\n"
        "    return send(child, values)\n"
        "assembly._Child.send = counted_send\n"
        "argv = ['all', '--family', 'traceless', '--degree', '2', '--k', '0', '--mesh', 'refine(two_tets)']\n"
        f"assert cli.run(argv + ['--out', {str(tmp_path / 'all.json')!r}]) == 0\n"
        "assert sorted(calls) == ['_float_inputs', 'inf-sup worker'], calls\n"
    )
    proc = _run_script(script, STRICT)
    assert proc.returncode == 0, proc.stderr


def test_a_live_thread_keeps_every_step_in_process(tmp_path):
    # Forking a process that has threads can deadlock the child: with a
    # second thread alive neither the inf-sup worker nor the cell dual
    # helper is forked, numpy loads here, and the report is the forked one.
    script = (
        "import json, os, sys, threading\n"
        "from hdiv_geodecomp import cli\n"
        "argv = ['infsup', '--family', 'face', '--degree', '2', '--mesh', 'criss_cross']\n"
        "def checks(name):\n"
        f"    out = os.path.join({str(tmp_path)!r}, name)\n"
        "    assert cli.run(argv + ['--out', out]) == 0\n"
        "    with open(out) as report:\n"
        "        return json.load(report)['checks']\n"
        "forked = checks('forked.json')\n"
        "assert 'numpy' not in sys.modules\n"
        "forks = []\n"
        "fork = os.fork\n"
        "def counted_fork():\n"
        "    forks.append(None)\n"
        "    return fork()\n"
        "os.fork = counted_fork\n"
        "stop = threading.Event()\n"
        "thread = threading.Thread(target=stop.wait)\n"
        "thread.start()\n"
        "try:\n"
        "    alone = checks('alone.json')\n"
        "finally:\n"
        "    stop.set()\n"
        "    thread.join()\n"
        "assert not forks, f'forked {len(forks)} children with a live thread'\n"
        "assert 'numpy' in sys.modules, 'the float step ran in a child'\n"
        "assert alone == forked, (alone, forked)\n"
    )
    proc = _run_script(script, STRICT)
    assert proc.returncode == 0, proc.stderr


def _no_child_left_script(out, setup: str, code: int) -> str:
    return (
        "import os, sys\n"
        "from hdiv_geodecomp import assembly, cli, report\n"
        f"{setup}\n"
        "argv = ['all', '--family', 'face', '--degree', '2', '--mesh', 'criss_cross']\n"
        f"assert cli.run(argv + ['--out', {str(out)!r}]) == {code}\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('a child process is left')\n"
        "assert 'numpy' not in sys.modules\n"
    )


# A unit sorted after conformity raises once every record has gone to the
# worker, which is computing or done.
RAISES_AFTER_STREAM = """
def broken(run):
    assert run.worker._inputs.closed, 'records left unsent'
    raise RuntimeError('planted')
report.UNITS['dims'] = broken
"""

# The worker exits on the first cell record while the parent waits, before
# it reads the second record's div rows, so the parent's next write meets a
# closed pipe and the stream stops there; the run then fails at infsup.
DIES_MID_STREAM = """
assembly._coeff_pair_matrix = lambda coefficients: os._exit(5)
div_rows = assembly.GlobalSpace.div_rows
built = []
def second_after_exit(space, cell_index):
    built.append(None)
    if len(built) == 2:
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
    return div_rows(space, cell_index)
assembly.GlobalSpace.div_rows = second_after_exit
conformity = report.UNITS['conformity']
def cut_conformity(run):
    checks = conformity(run)
    assert len(built) == 2, built
    return checks
report.UNITS['conformity'] = cut_conformity
"""


def _singular_cell(victim: int, helper: str = "") -> str:
    """Set-up of a run whose space has a singular DoF matrix in cell victim,
    built on two CPUs."""
    return SPLIT_PRELUDE + (
        "on_cpus(0, 1)\n"
        "assemble = report.assemble\n"
        f"report.assemble = lambda *args: repeat_interior(assemble(*args), {victim})\n"
        f"{helper}\n"
    )


@pytest.mark.parametrize(
    "setup,code,message",
    [
        ("", 0, None),
        # A unit sorted before infsup raises: the worker never gets its inputs.
        ("def broken(run):\n    raise RuntimeError('planted')\nreport.UNITS['conformity'] = broken", 3, "planted"),
        (RAISES_AFTER_STREAM, 3, "planted"),
        # The worker dies without a reply: the run fails instead of
        # computing the constant again in-process.
        ("assembly._float_infsup = lambda *records: os._exit(5)", 3, "inf-sup worker exited with status 5"),
        (DIES_MID_STREAM, 3, "inf-sup worker exited with status 5"),
        # The last class is singular: the helper stops there, and this
        # process builds it and raises.  The first class is: the helper,
        # which sleeps past the timeout, is killed and reaped.
        (_singular_cell(3), 3, "cell (2, 3, 4) has a singular DoF matrix"),
        (_singular_cell(0, SLEEPING_HELPER), 3, "cell (0, 1, 4) has a singular DoF matrix"),
    ],
    ids=[
        "passing",
        "unit_raises",
        "unit_raises_after_stream",
        "worker_crashes",
        "worker_dies_mid_stream",
        "singular_last_class",
        "singular_first_class",
    ],
)
def test_cli_leaves_no_child_process(tmp_path, setup, code, message):
    proc = _run_script(_no_child_left_script(tmp_path / "r.json", setup, code), STRICT)
    assert proc.returncode == 0, proc.stderr
    if message is not None:
        assert message in proc.stderr, proc.stderr


def _openblas_threads_around_infsup(out, **env: str) -> list[str]:
    """OPENBLAS_NUM_THREADS before and after an infsup run in a child."""
    script = (
        "import os\n"
        "from hdiv_geodecomp import cli\n"
        "before = os.environ.get('OPENBLAS_NUM_THREADS')\n"
        "argv = ['infsup', '--family', 'face', '--degree', '2', '--mesh', 'two_triangles']\n"
        f"assert cli.run(argv + ['--out', {str(out)!r}]) == 0\n"
        "print(before, os.environ['OPENBLAS_NUM_THREADS'])\n"
    )
    proc = _run_script(script, **env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_cli_gives_openblas_one_thread_by_default(tmp_path):
    assert _openblas_threads_around_infsup(tmp_path / "r.json") == ["None", "1"]


def test_cli_overrides_a_preset_openblas_thread_count(tmp_path):
    threads = _openblas_threads_around_infsup(tmp_path / "r.json", OPENBLAS_NUM_THREADS="2")
    assert threads == ["2", "1"]


def test_reports_do_not_depend_on_a_preset_openblas_thread_count(tmp_path):
    # Were the caller's value kept, beta would read 0.9817784938905213 with
    # two threads against 0.98177849389052119 with one.
    argv = ["infsup", "--family", "traceless", "--dim", "3", "--degree", "2", "--k", "0", "--mesh", "refine(cube_freudenthal)"]
    reports = []
    for name, env in (("unset", {}), ("two", {"OPENBLAS_NUM_THREADS": "2"})):
        out = tmp_path / f"{name}.json"
        script = f"import sys\nfrom hdiv_geodecomp import cli\nsys.exit(cli.run({argv + ['--out', str(out)]!r}))\n"
        proc = _run_script(script, **env)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        del report["timings"]
        reports.append(canonical_json(report))
    assert reports[0] == reports[1]


def test_serial_runs_do_not_load_the_process_pool(tmp_path):
    script = (
        "import sys\n"
        "from hdiv_geodecomp import cli\n"
        "pool = ('concurrent.futures.process', 'multiprocessing')\n"
        "assert not [m for m in pool if m in sys.modules], 'importing the CLI loaded the process pool'\n"
        "argv = ['unisolvence', '--family', 'traceless', '--dim', '3', '--degree', '2', '--k', '0']\n"
        f"assert cli.run(argv + ['--out', {str(tmp_path / 'element.json')!r}]) == 0\n"
        "assert not [m for m in pool if m in sys.modules], 'a serial run loaded the process pool'\n"
    )
    proc = _run_script(script)
    assert proc.returncode == 0, proc.stderr


def test_runs_load_neither_openssl_nor_csv(tmp_path):
    # The digests use CPython's builtin SHA-256 and csv is read only by the
    # CSV rendering; a CSV run at the end shows the check can see csv.
    script = (
        "import sys\n"
        "held = [m for m in ('_hashlib', 'csv') if m in sys.modules]\n"
        "if held:\n"
        "    print('preloaded', *held)\n"
        "    sys.exit()\n"
        "from hdiv_geodecomp import cli\n"
        "for argv in (['unisolvence', '--family', 'traceless', '--dim', '3', '--degree', '3', '--k', '0'],\n"
        "             ['all', '--family', 'traceless', '--dim', '3', '--degree', '2', '--k', '0', '--mesh', 'two_tets']):\n"
        f"    assert cli.run(argv + ['--out', {str(tmp_path / 'r.json')!r}]) == 0\n"
        "    loaded = [m for m in ('_hashlib', 'csv') if m in sys.modules]\n"
        "    assert not loaded, f'{argv[0]} loaded {loaded}'\n"
        "argv = ['unisolvence', '--family', 'face', '--dim', '2', '--degree', '2', '--format', 'csv']\n"
        f"assert cli.run(argv + ['--out', {str(tmp_path / 'r.csv')!r}]) == 0\n"
        "assert 'csv' in sys.modules, 'a CSV run did not load csv'\n"
    )
    proc = _run_script(script)
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.startswith("preloaded"):
        pytest.skip(f"the interpreter loaded {proc.stdout.split()[1:]} before the package")


def test_cli_loads_no_dataclasses_or_inspect(tmp_path):
    # Records are named tuples or small classes; dataclasses would pull in
    # inspect, ast and dis on every start.
    script = (
        "import sys\n"
        "heavy = ('dataclasses', 'inspect', 'ast', 'dis')\n"
        "held = [m for m in heavy if m in sys.modules]\n"
        "if held:\n"
        "    print('preloaded', *held)\n"
        "    sys.exit()\n"
        "from hdiv_geodecomp import cli\n"
        "loaded = [m for m in heavy if m in sys.modules]\n"
        "assert not loaded, f'importing the CLI loaded {loaded}'\n"
        "argv = ['unisolvence', '--family', 'traceless', '--dim', '2', '--degree', '2', '--k', '0']\n"
        f"assert cli.run(argv + ['--out', {str(tmp_path / 'r.json')!r}]) == 0\n"
        "loaded = [m for m in heavy if m in sys.modules]\n"
        "assert not loaded, f'a unisolvence run loaded {loaded}'\n"
    )
    proc = _run_script(script)
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.startswith("preloaded"):
        pytest.skip(f"the interpreter loaded {proc.stdout.split()[1:]} before the package")


def test_csv_projection_is_flat(capsys):
    code = cli.run(
        [
            "infsup", "--family", "face", "--dim", "2", "--degree", "2",
            "--mesh", "criss_cross", "--format", "csv",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "family,dim,degree,k,mesh,frame,seed,name,status,witness"
    assert len(lines) == 3
    assert all(line.startswith("face,2,2,-1,criss_cross") for line in lines[1:])


def test_custom_mesh_path_roundtrip(tmp_path, capsys):
    path = tmp_path / "pair.json"
    save_mesh(builtin_mesh("two_triangles"), path)
    code, data = run_json(
        capsys,
        ["dims", "--family", "face", "--degree", "2", "--mesh", str(path)],
    )
    assert code == 0
    assert data["checks"][0]["witness"]["assembled"] == 21
    assert data["params"]["dim"] == 2


# ---------------------------------------------------------------- serialization


def test_canonical_json_rendering_rules():
    from fractions import Fraction

    value = {
        "b": Fraction(3, 7),
        "a": [Fraction(2, 1), 0.1, True, None, "x"],
        "c": {},
    }
    compact = canonical_json(value, pretty=False)
    assert compact == (
        '{"a": ["2/1", 0.10000000000000001, true, null, "x"], "b": "3/7", "c": {}}'
    )
    parsed = json.loads(canonical_json(value))
    assert parsed["b"] == "3/7"


def test_canonical_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        canonical_json({"x": object()})
    with pytest.raises(TypeError):
        canonical_json({1: "non-string key"})


def test_run_units_merges_sorted_by_unit_name():
    params = CaseParams(
        family=Family.TRACELESS, dim=2, degree=2, continuity_order=0,
        mesh=None, seed=0,
    )
    names = report.expand_all(params)
    checks, timings = report.run_units(names, params)
    order = [c.name.split("[")[0] for c in checks]
    assert order == [
        "bubble_characterization",
        "decompose",
        "div_image",
        "traceless_dual_basis",
        "unisolvence",
    ]
    assert timings["total"] >= 0
