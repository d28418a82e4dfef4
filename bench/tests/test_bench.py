"""Tests of the benchmark's own code.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import meshgen  # noqa: E402
import tracer  # noqa: E402


def test_generator_is_deterministic_per_seed():
    text = meshgen.mesh_json(*meshgen.perturbed_mesh(2, 5))
    assert meshgen.mesh_json(*meshgen.perturbed_mesh(2, 5)) == text
    assert meshgen.mesh_json(*meshgen.perturbed_mesh(2, 6)) != text


# The first draw for seed 279 leaves two of the 64 cells translates of each other.
@pytest.mark.parametrize("refinements, cells, seed", [(1, 16, 3), (2, 64, 3), (2, 64, 279)])
def test_generator_moves_only_interior_vertices_by_at_most_h_over_8(refinements, cells, seed):
    base, base_cells = meshgen.structured_mesh(refinements)
    moved, moved_cells = meshgen.perturbed_mesh(refinements, seed)
    assert moved_cells == base_cells and len(base_cells) == cells
    h = Fraction(1, 2 ** (refinements + 1))
    fixed = meshgen.boundary_vertices(base_cells)
    for vi, (a, b) in enumerate(zip(base, moved)):
        shift = max(abs(x - y) for x, y in zip(a, b))
        assert shift == 0 if vi in fixed else 0 < shift <= h / 8
    props = meshgen.mesh_properties(moved, moved_cells)
    assert props["distinct_shapes"] == cells


def test_fold_guard_rejects_the_folded_pair():
    cells = [(0, 1, 2), (0, 1, 3)]
    unfolded = [(0, 0), (1, 0), (0, 1), (Fraction(1, 2), -2)]
    folded = unfolded[:3] + [(Fraction(1, 2), 2)]
    meshgen.check_no_folds(unfolded, unfolded, cells)
    with pytest.raises(meshgen.FoldError):
        meshgen.check_no_folds(unfolded, folded, cells)


def test_self_times_on_a_nested_span_tree():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["d", 5.0, 9.0, 0],
        ["d", 6.0, 7.0, 3],
        ["e", 12.0, 13.0, -1],
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 3.0, 1.0, 1.0]
    assert tracer.self_total(spans, "d") == 4.0
    # a span nested in one of the same name is counted once
    assert tracer.outer_total(spans, "d") == 4.0
    assert tracer.outer_total(spans, "c") == 1.0
    assert tracer.top_level_total(spans) == 11.0


def _reference() -> dict:
    return checker.load_references("suite_3d_traceless")["reports"]["traceless_r2_two_tets"]


def _check(report: dict, name_prefix: str) -> dict:
    return next(c for c in report["checks"] if c["name"].startswith(name_prefix))


def test_checker_accepts_the_reference_itself():
    ref = _reference()
    assert checker.differences(copy.deepcopy(ref), ref, same_geometry=True) == []


def test_checker_fails_a_flipped_status():
    ref = _reference()
    report = copy.deepcopy(ref)
    _check(report, "conformity")["status"] = "fail"
    assert checker.differences(report, ref, same_geometry=True)
    assert checker.differences(report, ref, same_geometry=False)


def test_checker_fails_an_altered_exact_witness():
    ref = _reference()
    report = copy.deepcopy(ref)
    _check(report, "div_onto")["witness"]["rank"] -= 1
    assert checker.differences(report, ref, same_geometry=True)
    assert checker.differences(report, ref, same_geometry=False)


def test_checker_compares_beta_by_tolerance_or_sign():
    ref = _reference()
    beta = _check(ref, "infsup")["witness"]["beta"]
    close, moved, negative = (copy.deepcopy(ref) for _ in range(3))
    _check(close, "infsup")["witness"]["beta"] = beta * (1 + checker.FLOAT_RTOL / 10)
    _check(moved, "infsup")["witness"]["beta"] = beta * 0.9
    _check(negative, "infsup")["witness"]["beta"] = -beta
    assert checker.differences(close, ref, same_geometry=True) == []
    assert checker.differences(moved, ref, same_geometry=True)
    assert checker.differences(moved, ref, same_geometry=False) == []
    assert checker.differences(negative, ref, same_geometry=False)


def test_normalize_drops_timings_mesh_path_and_seed():
    report = {
        "schema_version": "1",
        "params": {"mesh": "x/m.json", "seed": 4, "family": "face"},
        "checks": [{"name": "assemble[mesh=x/m.json]", "status": "pass", "witness": {}}],
        "timings": {"total": 5},
    }
    assert checker.normalize(report) == {
        "schema_version": "1",
        "params": {"family": "face"},
        "checks": [{"name": "assemble[mesh=<mesh>]", "status": "pass", "witness": {}}],
    }


def _traced_counts(tmp_path, *argv) -> dict:
    spans = tmp_path / "spans.json"
    cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans), "0", "--", *argv,
           "--out", str(tmp_path / "report.json")]
    subprocess.run(cmd, check=True, capture_output=True, timeout=120)
    return json.loads(spans.read_text())["counts"]


def test_tracer_rebinds_names_imported_into_other_modules(tmp_path):
    counts = _traced_counts(tmp_path, "all", "--family", "face", "--degree", "1",
                            "--mesh", "two_triangles", "--jobs", "1")
    # report imports assemble by name; four units assemble the space
    assert counts["assembly.assemble"] == 4
    # assembly imports build_dofs by name: one build per cell and assembly
    assert counts["dofs.build_dofs"] == 4 * 2
    assert counts["mesh.validate"] > 0
    assert counts["cli.resolve"] == counts["report.render"] == 1


def test_tracer_counts_no_assembly_builds_without_a_mesh(tmp_path):
    counts = _traced_counts(tmp_path, "unisolvence", "--family", "face", "--dim", "2", "--degree", "2")
    assert counts["dofs.certify"] == 1
    assert "dofs.build_dofs" not in counts and "mesh.validate" not in counts
