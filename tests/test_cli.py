"""CLI subcommands, exit codes, report schema, and determinism."""

from __future__ import annotations

import argparse
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


def _counting(calls: Counter, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_all_suite_shares_mesh_space_and_cell_duals(tmp_path, capsys, monkeypatch):
    path = tmp_path / "criss_cross.json"
    criss_cross = builtin_mesh("criss_cross")
    save_mesh(criss_cross, path)
    calls: Counter = Counter()

    def counted(name, fn):
        return _counting(calls, name, fn)

    monkeypatch.setattr(report, "assemble", counted("assemble", report.assemble))
    for module, fn in [(dofs, "dof_matrix"), (assembly, "dof_matrix"), (mesh, "validate_mesh")]:
        monkeypatch.setattr(module, fn, counted(fn, getattr(module, fn)))
    code, _ = run_json(
        capsys, ["all", "--family", "face", "--degree", "2", "--mesh", str(path)]
    )
    assert code == 0
    assert calls["assemble"] == 1
    # one DoF matrix per cell, plus the reference cell of the unisolvence unit
    assert calls["dof_matrix"] == len(criss_cross.cells) + 1
    # once, when loading the file builds the Mesh
    assert calls["validate_mesh"] == 1


def test_infsup_builds_cell_div_rows_once_per_cell(capsys, monkeypatch):
    calls: Counter = Counter()
    monkeypatch.setattr(assembly, "div_rows", _counting(calls, "div_rows", assembly.div_rows))
    monkeypatch.setattr(spaces, "div_row", _counting(calls, "div_row", spaces.div_row))
    code, _ = run_json(
        capsys, ["infsup", "--family", "traceless", "--degree", "2", "--mesh", "criss_cross"]
    )
    assert code == 0
    cells = len(builtin_mesh("criss_cross").cells)
    # inf-sup and div-onto share the (rows, denominator) of each cell
    assert calls["div_rows"] == cells
    members = Family.TRACELESS.constrained_dim(2) * comb(2 + 2, 2)
    assert calls["div_row"] == cells * members


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
        "from hdiv_geodecomp import assembly, cli, report\n"
        "from hdiv_geodecomp.assembly import InfsupWorker, assemble, infsup_constant\n"
        "from hdiv_geodecomp.mesh import resolve_mesh\n"
        "def refined():\n"
        "    return assemble(resolve_mesh('refine(two_tets)'), 'traceless', 2, 0)\n"
        "def singular():\n"
        "    return assemble(resolve_mesh('two_triangles'), 'face', 2, -1)\n"
        "def cut():\n"
        "    space = assemble(resolve_mesh('two_tets'), 'traceless', 2, 0)\n"
        "    rows, den = space.div_rows(0)\n"
        "    space._div_cache[0] = ([[0] + row[1:] for row in rows], den)\n"
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
        "    worker = InfsupWorker()\n"
        "    try:\n"
        "        return infsup_constant(cases[name](), worker)\n"
        "    finally:\n"
        "        worker.close()\n"
        "forked = {name: compute(name, True) for name in cases}\n"
        "# The CLI's own worker on 'all': conformity streams the records.\n"
        "conformity = report.UNITS['conformity']\n"
        "def streaming_conformity(run):\n"
        "    checks = conformity(run)\n"
        "    assert run.worker._inputs.closed, 'conformity left records unsent'\n"
        "    return checks\n"
        "report.UNITS['conformity'] = streaming_conformity\n"
        "argv = ['all', '--family', 'traceless', '--degree', '2', '--k', '0', '--mesh', 'refine(two_tets)']\n"
        f"assert cli.run(argv + ['--out', {str(out)!r}]) == 0\n"
        "assert 'numpy' not in sys.modules\n"
        "for name in cases:\n"
        "    assert compute(name, False) == forked[name], (name, forked[name])\n"
        f"(streamed,) = [c for c in json.load(open({str(out)!r}))['checks'] if c['name'].startswith('infsup[')]\n"
        "assert streamed == forked['refined']._asdict(), (streamed, forked['refined'])\n"
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
        "import marshal, os\n"
        "from hdiv_geodecomp import assembly\n"
        "from hdiv_geodecomp.mesh import resolve_mesh\n"
        "space = assembly.assemble(resolve_mesh('criss_cross'), 'face', 2, -1)\n"
        "layout, cells = assembly._float_inputs(space)\n"
        "data = marshal.dumps(marshal.dumps(layout))\n"
        f"if {cut!r} == 'inside_second_cell':\n"
        "    first, second = next(cells), next(cells)\n"
        "    data += marshal.dumps(marshal.dumps(first)) + marshal.dumps(marshal.dumps(second))[:-5]\n"
        "inputs_r, inputs_w = os.pipe()\n"
        "reply_r, reply_w = os.pipe()\n"
        "pid = os.fork()\n"
        "if pid == 0:\n"
        "    os.close(inputs_w)\n"
        "    os.close(reply_r)\n"
        "    assembly._serve(inputs_r, reply_w)\n"
        "os.close(inputs_r)\n"
        "os.close(reply_w)\n"
        "with open(inputs_w, 'wb') as out:\n"
        "    out.write(data)\n"
        "with open(reply_r, 'rb') as replies:\n"
        "    reply = replies.read()\n"
        "status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])\n"
        "assert len(layout[3]) > 2\n"
        "assert (status, reply) == (0, b''), (status, reply)\n"
    )
    proc = _run_script(script, STRICT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


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
# it builds the second one, so the parent's next write meets a closed pipe
# and the stream stops there; the run then fails at infsup.
DIES_MID_STREAM = """
assembly._coeff_pair_matrix = lambda coefficients: os._exit(5)
member_coefficients = assembly._member_coefficients
built = []
def second_after_exit(members):
    built.append(None)
    if len(built) == 2:
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
    return member_coefficients(members)
assembly._member_coefficients = second_after_exit
conformity = report.UNITS['conformity']
def cut_conformity(run):
    checks = conformity(run)
    assert len(built) == 2, built
    return checks
report.UNITS['conformity'] = cut_conformity
"""


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
    ],
    ids=["passing", "unit_raises", "unit_raises_after_stream", "worker_crashes", "worker_dies_mid_stream"],
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


def test_cli_keeps_a_preset_openblas_thread_count(tmp_path):
    threads = _openblas_threads_around_infsup(tmp_path / "r.json", OPENBLAS_NUM_THREADS="2")
    assert threads == ["2", "2"]


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
