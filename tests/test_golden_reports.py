"""Whole `all` reports against golden files recorded from an earlier version.

A report matches its golden file once `timings` is dropped: floats (the
inf-sup beta, the one floating point result) agree to FLOAT_RTOL, the
tolerance bench/checker.py uses, and every other value matches exactly,
type included.  A CSV report is compared row by row, with its witness
column parsed as JSON.

Run as a script, the module compares one report file with one golden file
and exits 1 on any difference:

    python tests/test_golden_reports.py REPORT GOLDEN

tests/golden/traceless_r2_k0_refine_cube_freudenthal.json is the 48-cell
`all --family traceless --dim 3 --degree 2 --k 0 --mesh
'refine(cube_freudenthal)'` report, compared this way by CI.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

import pytest

from hdiv_geodecomp import cli

FLOAT_RTOL = 1e-9
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "face_r2_km1_criss_cross.json": ["--family", "face", "--degree", "2", "--k", "-1", "--mesh", "criss_cross"],
    "lagrange_r2_two_tets.json": ["--family", "lagrange", "--degree", "2", "--mesh", "two_tets"],
    "symmetric_r3_k0_criss_cross.json": ["--family", "symmetric", "--degree", "3", "--k", "0", "--mesh", "criss_cross"],
    "face_r2_k1_two_tets.json": ["--family", "face", "--degree", "2", "--k", "1", "--mesh", "two_tets"],
    "traceless_r2_k0_two_tets_orthogonalized.json": [
        "--family", "traceless", "--degree", "2", "--k", "0", "--mesh", "two_tets", "--frame", "orthogonalized",
    ],
    "symmetric_r2_k1_two_tets.csv": [
        "--family", "symmetric", "--degree", "2", "--k", "1", "--mesh", "two_tets", "--format", "csv",
    ],
    "traceless_r2_k0_dim4.json": ["--family", "traceless", "--dim", "4", "--degree", "2", "--k", "0"],
    "traceless_r3_k1_two_tets.json": ["--family", "traceless", "--degree", "3", "--k", "1", "--mesh", "two_tets"],
}


def load(path: Path):
    """A report without its timings: the JSON object, or the CSV rows."""
    text = Path(path).read_text()
    if Path(path).suffix == ".csv":
        header, *rows = csv.reader(io.StringIO(text))
        return [header, *(row[:-1] + [json.loads(row[-1])] for row in rows)]
    report = json.loads(text)
    report.pop("timings", None)
    return report


def differences(got, want, where: str = "report") -> list[str]:
    """Every place where got departs from want; empty if none."""
    if isinstance(want, float):
        if not isinstance(got, float) or abs(got - want) > FLOAT_RTOL * abs(want):
            return [f"{where}: {got!r} != {want!r} within rtol {FLOAT_RTOL}"]
        return []
    if isinstance(want, dict) and isinstance(got, dict):
        if sorted(got) != sorted(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [d for key in want for d in differences(got[key], want[key], f"{where}.{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in differences(g, w, f"{where}[{i}]")]
    if type(got) is not type(want) or got != want:
        return [f"{where}: {got!r} != {want!r}"]
    return []


@pytest.mark.parametrize("golden", list(CASES))
def test_all_report_matches_its_golden_file(golden, tmp_path, capsys):
    out = tmp_path / golden
    assert cli.run(["all", *CASES[golden], "--out", str(out)]) == 0
    assert differences(load(out), load(GOLDEN / golden)) == []


def test_comparison_tolerates_float_noise_only():
    want = load(GOLDEN / "face_r2_km1_criss_cross.json")
    got = load(GOLDEN / "face_r2_km1_criss_cross.json")
    witness = next(c["witness"] for c in got["checks"] if c["name"].startswith("infsup"))
    beta, dim_v = witness["beta"], witness["dim_v"]
    witness["beta"] = beta * (1 + FLOAT_RTOL / 10)
    assert differences(got, want) == []
    witness["beta"] = beta * (1 + 10 * FLOAT_RTOL)
    assert len(differences(got, want)) == 1
    witness["beta"] = beta
    witness["dim_v"] = dim_v + 1
    assert len(differences(got, want)) == 1
    witness["dim_v"] = float(dim_v)
    assert len(differences(got, want)) == 1


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    found = differences(load(Path(argv[0])), load(Path(argv[1])))
    for line in found:
        print(line)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
