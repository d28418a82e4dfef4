"""Acceptance gate: one test per claimed guarantee, stated tolerances only.

Every numbered test prints a single summary line; exact checks use rational
arithmetic with zero tolerance, and the floating-point inf-sup sweeps
assert the drift tolerance their witness states.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import comb

from hdiv_geodecomp import bernstein as bn
from hdiv_geodecomp import linalg, tensors
from hdiv_geodecomp.assembly import (
    assemble,
    check_conformity,
    check_dims,
    check_div_onto,
    face_dim_formula,
    flip_facet_orientation,
    infsup_sweep,
    lagrange_dim_formula,
)
from hdiv_geodecomp.checks import FAIL, PASS, SKIPPED
from hdiv_geodecomp.dofs import MOD_P0, MOD_P1, certify_unisolvence, quotient_face_space
from hdiv_geodecomp.mesh import builtin_mesh, refine
from hdiv_geodecomp.simplex import (
    SubSimplexId,
    build_frame,
    enumerate_subsimplices,
    reference_simplex,
)
from hdiv_geodecomp.spaces import (
    Family,
    decompose,
    site_rows,
    verify_bubble_characterization,
    verify_div_image,
)
from hdiv_geodecomp.tensors import traceless_gradient_basis

import random

from conftest import random_simplex
from polynomial_reference import lattice_basis, trace_div


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number} [pass]: {text}")


def test_criterion_1_scalar_decomposition_and_nodal_unisolvence():
    start = time.perf_counter()
    for n in (1, 2, 3):
        simplex = reference_simplex(n)
        for r in (1, 2, 3, 4):
            basis = decompose(Family.LAGRANGE, simplex, r)
            expected = bn.space_dim(n, r)
            assert len(basis.members) == expected
            flat, _ = site_rows(basis, bn.full_domain(n), tensors.FLATTEN)
            assert len(flat) == expected
            assert linalg.rank(list(flat.values())) == expected
            for ell in range(n + 1):
                for f in enumerate_subsimplices(n, ell):
                    at_f = [m for m in basis.members if m.provenance.sub_simplex == f]
                    assert len(at_f) == comb(r - 1, ell)
            cert = certify_unisolvence(Family.LAGRANGE, n, r, None)
            assert cert.status == PASS
            assert cert.witness["method"] == "site_blocks"
            assert cert.witness["size"] == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(1, f"scalar decompositions n=1..3 r=1..4 exact, block-triangular nodal "
               f"systems invertible ({elapsed:.1f}s < 60s)")


def _normal_trace_kernel_dim(family: Family, n: int, degree: int) -> int:
    simplex = reference_simplex(n)
    basis = lattice_basis(family, simplex, degree)
    facets = enumerate_subsimplices(n, n - 1)
    rows = []
    for m in basis.members:
        out = []
        for facet in facets:
            traced = trace_div(m, facet, build_frame(simplex, facet).normals[0])
            polys = traced if isinstance(traced, tuple) else (traced,)
            for p in polys:
                out.extend(bn.coeff_vector(p, degree))
        rows.append(out)
    return len(basis.members) - linalg.rank(rows)


def test_criterion_2_vector_bubbles_and_trace_bijection():
    start = time.perf_counter()
    for n in (2, 3):
        for r in (2, 3, 4):
            res = verify_bubble_characterization(Family.FACE, reference_simplex(n), r)
            assert res.status == PASS, res.witness
        for r in (0, 1):
            assert _normal_trace_kernel_dim(Family.FACE, n, r) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(2, f"vector trace kernels equal bubble spaces for n=2,3 r=2..4 and are "
               f"trivial at r=0,1 ({elapsed:.1f}s < 120s)")


def test_criterion_3_unisolvence_certificates_all_families():
    cases = []
    for n in (2, 3):
        for r in (1, 2, 3, 4):
            cases.append((Family.FACE, n, r, -1))
            for k in range(0, n - 1):
                cases.append((Family.FACE, n, r, k))
        for r in (2, 3, 4):
            cases.append((Family.TRACELESS, n, r, 0))
            for k in sorted({0, n - 2}):
                cases.append((Family.SYMMETRIC, n, r, k))
    for family, n, r, k in cases:
        cert = certify_unisolvence(family, n, r, k)
        assert cert.status == PASS, (family, n, r, k, cert.witness)
        assert cert.witness["size"] == family.constrained_dim(n) * bn.space_dim(n, r)
    _report(3, f"{len(cases)} exact determinant certificates (face k=-1, vector "
               f"k=0..n-2, traceless k=0, symmetric k=0 and k=n-2) all invertible")


def test_criterion_4_traceless_dual_basis_identity():
    rng = random.Random(4)
    for n in (2, 3, 4):
        for simplex in (reference_simplex(n), random_simplex(rng, n)):
            frames = traceless_gradient_basis(simplex)
            size = len(frames.basis)
            assert size == n * n - 1
            for i in range(size):
                for j in range(size):
                    assert frames.pairing[i][j] == Fraction(int(i == j))
    _report(4, "traceless gradient bases of size n^2-1 pair to exact Kronecker "
               "deltas for n=2,3,4 on reference and random simplices")


def test_criterion_5_div_image_codimensions():
    checked = 0
    for n in (2, 3):
        simplex = reference_simplex(n)
        for r in (2, 3, 4):
            for family in (Family.FACE, Family.TRACELESS, Family.SYMMETRIC):
                res = verify_div_image(family, simplex, r)
                if family is Family.SYMMETRIC and r < n + 1:
                    # below the family's stated degree range: recorded, not claimed
                    assert res.status in (SKIPPED, PASS)
                    continue
                assert res.status == PASS, (family, n, r, res.witness)
                checked += 1
    _report(5, f"{checked} exact div-image ranks: codim 1 (vector), n+1 "
               f"(traceless), n(n+1)/2 (symmetric) at the stated degrees")


def test_criterion_6_facet_quotient_moment_systems():
    F = SubSimplexId((0, 1, 2), 3)  # facet of a tetrahedron
    cases = []
    for mode in (MOD_P0, MOD_P1):
        for k in (0, 1):
            base = k + 3 if (mode == MOD_P1 and k == F.dim - 1) else k + 2
            for r in (base, base + 1):
                cases.append((mode, k, r))
    for mode, k, r in cases:
        q = quotient_face_space(F, r, k, mode)  # certifies unisolvence exactly
        fixed = 1 if mode == MOD_P0 else F.dim + 1
        assert len(q.fixed_part) == fixed
        low_moments = sum(
            comb(F.dim + 1, ell + 1) * bn.space_dim(ell, r - ell - 1)
            for ell in range(k + 1)
        )
        assert len(q.full_basis) == bn.space_dim(F.dim, r) - low_moments
    _report(6, f"{len(cases)} facet quotient systems (mod constants and mod "
               f"affine) unisolvent at thresholds and thresholds+1, n=3, k=0,1")


def _criterion_7_cases(n: int) -> list[tuple[str, int, int | None]]:
    sym_degree = 3 if n == 2 else 2
    return [
        ("lagrange", 2, None),
        ("face", 2, -1),
        ("traceless", 2, 0),
        ("symmetric", sym_degree, 0),
    ]


def test_criterion_7_global_dims_conformity_and_negative_control():
    base_names = ["two_triangles", "criss_cross", "two_tets", "cube_freudenthal"]
    meshes = []
    for name in base_names:
        m = builtin_mesh(name)
        meshes += [m, refine(m)]
    dims_checked = 0
    for m in meshes:
        for r in (1, 2, 3):
            assert assemble(m, Family.LAGRANGE, r).dim == lagrange_dim_formula(m, r)
            dims_checked += 1
        for r in (2, 3):
            for k in (-1, 0):
                space = assemble(m, Family.FACE, r, k)
                assert space.dim == face_dim_formula(m, r, k)
                assert check_dims(space).status == PASS
                dims_checked += 1
    jumps_checked = 0
    for m in meshes:
        for family, r, k in _criterion_7_cases(m.dim):
            res = check_conformity(assemble(m, family, r, k), samples=1)
            assert res.status == PASS, (family, m.dim, len(m.cells), res.witness)
            jumps_checked += res.witness["traces_compared"]
    for name, family, r, k in [
        ("two_triangles", "face", 2, -1),
        ("two_triangles", "traceless", 2, 0),
        ("two_triangles", "symmetric", 3, 0),
        ("two_tets", "face", 2, -1),
    ]:
        broken = flip_facet_orientation(assemble(builtin_mesh(name), family, r, k))
        assert check_conformity(broken, samples=1).status == FAIL
    _report(7, f"{dims_checked} assembled dimension formulas exact on 4 mesh "
               f"families + refinements; {jumps_checked} facet traces jump-free; "
               f"4 flipped-normal controls detected")


def test_criterion_8_infsup_sweeps_and_div_onto():
    start = time.perf_counter()
    two_dee = [builtin_mesh("two_triangles")]
    while len(two_dee) < 3:
        two_dee.append(refine(two_dee[-1]))
    three_dee = [builtin_mesh("two_tets")]
    three_dee.append(refine(three_dee[-1]))

    sweeps = [
        (two_dee, "face", 2, -1),
        (two_dee, "face", 2, 0),
        (two_dee, "traceless", 2, 0),
        (two_dee, "symmetric", 3, 0),
        (three_dee, "face", 2, -1),
        (three_dee, "face", 2, 0),
        (three_dee, "traceless", 2, 0),
    ]
    drifts = []
    for meshes, family, r, k in sweeps:
        res = infsup_sweep(meshes, family, r, k)
        assert res.status == PASS, (family, r, k, res.witness)
        assert res.witness["drift_tolerance"] == 0.2
        assert all(b > 0 for b in res.witness["betas"])
        drifts.append(res.witness["drift"])

    onto_cases = [
        ("two_triangles", "face", 2, -1),
        ("two_triangles", "face", 2, 0),
        ("two_tets", "face", 2, -1),
        ("two_triangles", "traceless", 2, 0),
        ("two_tets", "traceless", 2, 0),
        ("two_triangles", "symmetric", 3, 0),
        ("criss_cross", "symmetric", 3, 0),
    ]
    for name, family, r, k in onto_cases:
        res = check_div_onto(assemble(builtin_mesh(name), family, r, k))
        assert res.status == PASS, (name, family, res.witness)
        assert res.witness["deficit"] == 0

    control = check_div_onto(assemble(builtin_mesh("criss_cross"), "symmetric", 2, 0))
    assert control.status == SKIPPED
    assert {"rank", "dim_q", "deficit"} <= set(control.witness)

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _report(8, f"{len(sweeps)} inf-sup sweeps stable (max drift "
               f"{max(drifts):.4f} < 0.2), {len(onto_cases)} exact div-onto ranks, "
               f"below-threshold symmetric control recorded ({elapsed:.1f}s < 600s)")
