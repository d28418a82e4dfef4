"""Out-of-program tracing of hdiv_geodecomp layers, and the traced CLI entry point.

Run as a script, this module is the fresh process of one traced invocation:

    python3 bench/tracer.py SPANS_OUT INVOCATION_ID -- <hdiv-geodecomp argv>

It wraps the public functions of each layer from outside the package, calls
``hdiv_geodecomp.cli.run(argv)``, and writes the spans and counts it kept in
memory to SPANS_OUT as JSON.  The package source is not modified.

Modules import functions by name (``assembly`` imports ``build_dofs``,
``report`` imports ``assemble`` and the checks, ``cli`` imports the report
helpers), so a wrapper is rebound under every module attribute that holds
the original object, not only in the defining module.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "hdiv_geodecomp"

# (module, function, span name, rebind in the defining module too).
# build_dofs is rebound only where it is imported, so its count is the
# per-cell builds of assembly; certify_unisolvence's own build on the
# reference cell stays inside dofs.certify.
SPANS = (
    ("cli", "_resolve_case", "cli.resolve", True),
    ("report", "render_json", "report.render", True),
    ("report", "write_atomic", "report.write", True),
    ("mesh", "resolve_mesh", "mesh.load", True),
    ("mesh", "validate_mesh", "mesh.validate", True),
    ("assembly", "assemble", "assembly.assemble", True),
    ("assembly", "check_conformity", "assembly.conformity", True),
    ("assembly", "check_div_onto", "assembly.div_onto", True),
    ("assembly", "infsup_constant", "assembly.infsup", True),
    ("dofs", "build_dofs", "dofs.build_dofs", False),
    ("dofs", "dof_matrix", "dofs.dof_matrix", True),
    ("dofs", "certify_unisolvence", "dofs.certify", True),
    ("spaces", "decompose", "spaces.decompose", True),
    ("spaces", "verify_bubble_characterization", "spaces.bubbles", True),
    ("spaces", "verify_div_image", "spaces.div_image", True),
    ("linalg", "rank", "linalg.rank", True),
    ("linalg", "invert", "linalg.invert", True),
    ("linalg", "nullspace", "linalg.nullspace", True),
)

# Hot leaves: a call count only, no span, to keep the overhead down.
COUNTS = (
    ("linalg", "solve_many", "linalg.solve_many"),
    ("tensors", "frobenius", "tensors.frobenius"),
    ("tensors", "tn_split", "tensors.tn_split"),
    ("bernstein", "integrate", "bernstein.integrate"),
    ("bernstein", "restrict", "bernstein.restrict"),
    ("bernstein", "multiply", "bernstein.multiply"),
)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _mesh_key(mesh) -> str:
    return _digest((mesh.dim, mesh.vertices, mesh.cells))


def _shape(mat) -> int:
    rows = len(mat)
    return rows * len(mat[0]) if rows else 0


def _entry_bits(rows) -> int:
    return max(
        (max(x.numerator.bit_length(), x.denominator.bit_length()) for row in rows for x in row),
        default=0,
    )


class Tracer:
    """Spans and counts of one invocation, kept in memory until written."""

    def __init__(self, invocation: int):
        self.invocation = invocation
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.largest_matrix = 0
        self.max_entry_bits = 0
        self.meshes: set[str] = set()
        self.spaces: set[str] = set()
        self._cached: dict = {}

    def span(self, name: str, fn, observe=None):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            counts[name] += 1
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def count(self, name: str, fn, observe=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    # observers: structural facts about arguments and results

    def _matrix_in(self, args, result) -> None:
        self.largest_matrix = max(self.largest_matrix, _shape(args[0]))

    def _matrix_io(self, args, result) -> None:
        self._matrix_in(args, result)
        self.max_entry_bits = max(self.max_entry_bits, _entry_bits(result))

    def _mesh_seen(self, args, result) -> None:
        self.meshes.add(_mesh_key(args[0]))

    def _space_seen(self, args, result) -> None:
        mesh, family, degree = args[:3]
        k = args[3] if len(args) > 3 else None
        self.spaces.add(_digest((_mesh_key(mesh), getattr(family, "value", family), degree, k)))

    def _entries(self, args, result) -> None:
        self.counts["dofs.dof_matrix_entries"] += _shape(result)

    def install(self, modules: dict) -> None:
        """Wrap every traced function and rebind it wherever it is bound."""
        # The lru caches themselves, taken before rebinding; read after the run.
        self._cached = {
            "spaces.decompose": modules["spaces"].decompose,
            "simplex.barycentric_gradients": modules["simplex"].barycentric_gradients,
        }
        observers = {
            "mesh.validate": self._mesh_seen,
            "assembly.assemble": self._space_seen,
            "dofs.dof_matrix": self._entries,
            "linalg.rank": self._matrix_in,
            "linalg.nullspace": self._matrix_in,
            "linalg.invert": self._matrix_io,
            "linalg.solve_many": self._matrix_io,
        }
        targets = [(m, f, n, home, self.span) for m, f, n, home in SPANS]
        targets += [(m, f, n, True, self.count) for m, f, n in COUNTS]
        for module, func, name, home, make in targets:
            original = getattr(modules[module], func)
            wrapper = make(name, original, observers.get(name))
            bound = 0
            for mod_name, mod in modules.items():
                if mod_name == module and not home:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        bound += 1
            if bound == 0:
                raise RuntimeError(f"{module}.{func} is bound nowhere; cannot trace {name}")

        units = modules["report"].UNITS
        for unit, fn in list(units.items()):
            units[unit] = self.span(f"report.unit.{unit}", fn)

        space_cls = modules["assembly"].GlobalSpace
        dual = self.span("assembly.dual", space_cls.dual_coefficients)
        counts = self.counts

        def dual_coefficients(space, cell_index):
            hit = cell_index in space._dual_cache
            counts["assembly.dual_hits" if hit else "assembly.dual_misses"] += 1
            return dual(space, cell_index)

        space_cls.dual_coefficients = dual_coefficients

    def dump(self) -> dict:
        caches = {}
        for name, fn in self._cached.items():
            info = fn.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
        return {
            "invocation": self.invocation,
            "spans": self.spans,
            "counts": dict(self.counts),
            "largest_matrix": self.largest_matrix,
            "max_entry_bits": self.max_entry_bits,
            "meshes": sorted(self.meshes),
            "spaces": sorted(self.spaces),
            "caches": caches,
        }


def self_times(spans) -> list[float]:
    """Span duration minus the time its direct children cover.

    Spans are strictly nested (one thread, ``--jobs 1``), so direct
    children are disjoint inside their parent.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (name, start, end, parent) in enumerate(spans)]


def outer_total(spans, name: str) -> float:
    """Total duration of the spans called name that no span of that name encloses."""
    total = 0.0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            total += span[2] - span[1]
    return total


def self_total(spans, name: str) -> float:
    return sum((t for span, t in zip(spans, self_times(spans)) if span[0] == name), 0.0)


def top_level_total(spans) -> float:
    return sum(end - start for name, start, end, parent in spans if parent < 0)


# Per-layer metrics of the traced run, with their units.
LAYER_UNITS = {
    "mesh.validate_s": "s",
    "mesh.validate_calls": "count",
    "mesh.validate_per_mesh": "ratio",
    "mesh.load_s": "s",
    "assembly.assemble_s": "s",
    "assembly.assemble_calls": "count",
    "assembly.assemble_per_space": "ratio",
    "assembly.dual_s": "s",
    "assembly.dual_hits": "count",
    "assembly.dual_misses": "count",
    "assembly.conformity_self_s": "s",
    "assembly.div_onto_self_s": "s",
    "assembly.infsup_float_s": "s",
    "dofs.build_dofs_s": "s",
    "dofs.build_dofs_calls": "count",
    "dofs.dof_matrix_s": "s",
    "dofs.dof_matrix_entries": "count",
    "dofs.certify_s": "s",
    "spaces.decompose_s": "s",
    "spaces.decompose_misses": "count",
    "spaces.decompose_hit_ratio": "ratio",
    "spaces.decompose_cache_size": "count",
    "spaces.bubbles_s": "s",
    "spaces.div_image_s": "s",
    "linalg.rank_s": "s",
    "linalg.rank_calls": "count",
    "linalg.invert_s": "s",
    "linalg.invert_calls": "count",
    "linalg.nullspace_s": "s",
    "linalg.largest_matrix": "entries",
    "linalg.max_entry_bits": "bits",
    "tensors.frobenius_calls": "count",
    "tensors.tn_split_calls": "count",
    "bernstein.integrate_calls": "count",
    "bernstein.restrict_calls": "count",
    "bernstein.multiply_calls": "count",
    "simplex.gradients_misses": "count",
    "report.units": "count",
    "report.render_s": "s",
    "cli.resolve_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
}

# metric -> span name whose outermost durations it sums
_OUTER = {
    "mesh.validate_s": "mesh.validate",
    "mesh.load_s": "mesh.load",
    "assembly.assemble_s": "assembly.assemble",
    "assembly.dual_s": "assembly.dual",
    "dofs.build_dofs_s": "dofs.build_dofs",
    "dofs.dof_matrix_s": "dofs.dof_matrix",
    "dofs.certify_s": "dofs.certify",
    "spaces.decompose_s": "spaces.decompose",
    "spaces.bubbles_s": "spaces.bubbles",
    "spaces.div_image_s": "spaces.div_image",
    "linalg.rank_s": "linalg.rank",
    "linalg.invert_s": "linalg.invert",
    "linalg.nullspace_s": "linalg.nullspace",
    "report.render_s": "report.render",
    "cli.resolve_s": "cli.resolve",
}
# metric -> span name whose self times it sums
_SELF = {
    "assembly.conformity_self_s": "assembly.conformity",
    "assembly.div_onto_self_s": "assembly.div_onto",
    "assembly.infsup_float_s": "assembly.infsup",
}
# metric -> count name
_COUNT = {
    "mesh.validate_calls": "mesh.validate",
    "assembly.assemble_calls": "assembly.assemble",
    "assembly.dual_hits": "assembly.dual_hits",
    "assembly.dual_misses": "assembly.dual_misses",
    "dofs.build_dofs_calls": "dofs.build_dofs",
    "dofs.dof_matrix_entries": "dofs.dof_matrix_entries",
    "linalg.rank_calls": "linalg.rank",
    "linalg.invert_calls": "linalg.invert",
    "tensors.frobenius_calls": "tensors.frobenius",
    "tensors.tn_split_calls": "tensors.tn_split",
    "bernstein.integrate_calls": "bernstein.integrate",
    "bernstein.restrict_calls": "bernstein.restrict",
    "bernstein.multiply_calls": "bernstein.multiply",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(dumps: list[dict], traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics summed over the invocations of one traced iteration.

    traced_wall and untraced_wall are the process walls of the traced and
    the plain iteration; their ratio is the tracing overhead.
    """
    out = {}
    for metric, name in _OUTER.items():
        out[metric] = sum((outer_total(d["spans"], name) for d in dumps), 0.0)
    for metric, name in _SELF.items():
        out[metric] = sum((self_total(d["spans"], name) for d in dumps), 0.0)
    for metric, name in _COUNT.items():
        out[metric] = sum(d["counts"].get(name, 0) for d in dumps)
    meshes = {m for d in dumps for m in d["meshes"]}
    spaces = {s for d in dumps for s in d["spaces"]}
    out["mesh.validate_per_mesh"] = _ratio(out["mesh.validate_calls"], len(meshes))
    out["assembly.assemble_per_space"] = _ratio(out["assembly.assemble_calls"], len(spaces))
    decompose = [d["caches"]["spaces.decompose"] for d in dumps]
    hits = sum(c["hits"] for c in decompose)
    out["spaces.decompose_misses"] = sum(c["misses"] for c in decompose)
    out["spaces.decompose_hit_ratio"] = _ratio(hits, hits + out["spaces.decompose_misses"])
    out["spaces.decompose_cache_size"] = max(c["size"] for c in decompose)
    out["simplex.gradients_misses"] = sum(d["caches"]["simplex.barycentric_gradients"]["misses"] for d in dumps)
    out["linalg.largest_matrix"] = max(d["largest_matrix"] for d in dumps)
    out["linalg.max_entry_bits"] = max(d["max_entry_bits"] for d in dumps)
    out["report.units"] = sum(n for d in dumps for name, n in d["counts"].items() if name.startswith("report.unit."))
    out["trace.overhead_ratio"] = _ratio(traced_wall, untraced_wall)
    out["trace.coverage"] = _ratio(sum(top_level_total(d["spans"]) for d in dumps), traced_wall)
    return out


def _load_package() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import importlib

    cli = importlib.import_module(f"{PACKAGE}.cli")
    source = Path(cli.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        raise RuntimeError(f"{PACKAGE} imported from {source}, not from this checkout")
    names = ("cli", "report", "mesh", "assembly", "dofs", "spaces", "linalg", "tensors", "bernstein", "simplex")
    return {name: importlib.import_module(f"{PACKAGE}.{name}") for name in names}


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py SPANS_OUT INVOCATION_ID -- <hdiv-geodecomp argv>", file=sys.stderr)
        return 2
    out, invocation, cli_argv = argv[0], int(argv[1]), argv[3:]
    modules = _load_package()
    tracer = Tracer(invocation)
    tracer.install(modules)
    code = modules["cli"].run(cli_argv)
    Path(out).write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
