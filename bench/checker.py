"""Reference reports and the comparison behind ``fail_ratio``.

A report is compared after dropping what legitimately varies between runs:
``timings``, the mesh path (in ``params`` and inside check names) and the
seed.  Check names, statuses and every exact witness field must match the
reference byte for byte.  Floats (the inf-sup ``beta``, the one floating
point result) match to ``FLOAT_RTOL``.  When the workload's geometry comes
from an unrecorded seed, floats only need to be positive; every exact field
in today's reports (dims, ranks, deficits, ``traces_compared``, block sizes,
pivot hashes) is coordinate-independent, so those are still compared.
"""

from __future__ import annotations

import json
from pathlib import Path

FLOAT_RTOL = 1e-9
REFERENCES = Path(__file__).resolve().parent / "references"
MESH_PLACEHOLDER = "<mesh>"


def normalize(report: dict) -> dict:
    params = dict(report["params"])
    mesh = params.pop("mesh", None)
    params.pop("seed", None)
    checks = []
    for check in report["checks"]:
        name = check["name"]
        if mesh:
            name = name.replace(mesh, MESH_PLACEHOLDER)
        checks.append({"name": name, "status": check["status"], "witness": check["witness"]})
    return {"schema_version": report["schema_version"], "params": params, "checks": checks}


def _compare(got, want, where: str, same_geometry: bool, out: list[str]) -> None:
    if isinstance(want, float):
        if not isinstance(got, float):
            out.append(f"{where}: {got!r} is not a float")
        elif same_geometry and abs(got - want) > FLOAT_RTOL * abs(want):
            out.append(f"{where}: {got!r} != {want!r} within rtol {FLOAT_RTOL}")
        elif not same_geometry and not got > 0:
            out.append(f"{where}: {got!r} is not positive")
    elif isinstance(want, dict) and isinstance(got, dict):
        if sorted(got) != sorted(want):
            out.append(f"{where}: keys {sorted(got)} != {sorted(want)}")
            return
        for key in want:
            _compare(got[key], want[key], f"{where}.{key}", same_geometry, out)
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            out.append(f"{where}: length {len(got)} != {len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{where}[{i}]", same_geometry, out)
    elif json.dumps(got) != json.dumps(want):
        out.append(f"{where}: {json.dumps(got)} != {json.dumps(want)}")


def differences(report: dict, reference: dict, same_geometry: bool) -> list[str]:
    """Every way a normalized report departs from its reference; empty if none."""
    out: list[str] = []
    if report["params"] != reference["params"] or report["schema_version"] != reference["schema_version"]:
        out.append(f"params {report['params']} != {reference['params']}")
    got = [(c["name"], c["status"]) for c in report["checks"]]
    want = [(c["name"], c["status"]) for c in reference["checks"]]
    if got != want:
        out.append(f"checks {got} != {want}")
        return out
    for g, w in zip(report["checks"], reference["checks"]):
        _compare(g["witness"], w["witness"], g["name"], same_geometry, out)
    return out


def reference_path(workload: str) -> Path:
    return REFERENCES / f"{workload}.json"


def load_references(workload: str) -> dict:
    """{"seed": recorded seed, "reports": {invocation name: normalized report}}."""
    return json.loads(reference_path(workload).read_text())


def save_references(workload: str, seed: int, reports: dict) -> None:
    REFERENCES.mkdir(exist_ok=True)
    text = json.dumps({"seed": seed, "reports": reports}, indent=1, sort_keys=True)
    reference_path(workload).write_text(text + "\n")
