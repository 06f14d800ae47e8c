"""Torus geometry, exact contraction, twists, ground projectors."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest

import gpeps as gp
from gpeps.errors import DimensionMismatch, DimensionOverflow, NonCommutingTwist, ZeroState
from gpeps import lattice
from gpeps.lattice import (
    LEG_B,
    LEG_L,
    LEG_R,
    LEG_T,
    PROJECTOR_RANK_TOL,
    BoundaryTwist,
    projector_from_columns,
    validate_twist,
)
from gpeps.tensors import _eq2_matrix

from conftest import stack_columns
from dense_oracle import apply_site, decompress_state


@pytest.mark.parametrize("w,h", [(1, 1), (2, 2), (3, 2), (1, 3)])
def test_torus_geometry(w, h):
    lat = gp.TorusLattice.build(w, h)
    assert lat.n_vertices == w * h
    assert len(lat.edges) == 2 * w * h
    used = set()
    for e in lat.edges:
        assert e.plain_leg in (LEG_R, LEG_B)
        assert e.conj_leg in (LEG_L, LEG_T)
        for site, leg in [(e.plain_site, e.plain_leg), (e.conj_site, e.conj_leg)]:
            assert (site, leg) not in used
            used.add((site, leg))
    assert len(used) == 4 * lat.n_vertices


def test_noncommuting_twist_rejected():
    s3 = gp.build_group("S3")
    bad = [
        (a, b)
        for a in range(6)
        for b in range(6)
        if not s3.commutes(a, b)
    ]
    assert bad
    with pytest.raises(NonCommutingTwist):
        validate_twist(s3, BoundaryTwist(*bad[0]))
    with pytest.raises(NonCommutingTwist):
        validate_twist(gp.build_group("Z2"), BoundaryTwist(0, 5))  # out of range


def _product_of_pairs_oracle(lat, bond_dim):
    """Independent construction of the entangled-pair background state."""
    n_legs = 4 * lat.n_vertices
    amp = np.zeros((bond_dim,) * n_legs, dtype=complex)
    for assignment in itertools.product(range(bond_dim), repeat=len(lat.edges)):
        idx = [0] * n_legs
        for e, val in zip(lat.edges, assignment):
            idx[4 * e.plain_site + e.plain_leg] = val
            idx[4 * e.conj_site + e.conj_leg] = val
        amp[tuple(idx)] = 1.0
    vec = amp.reshape(-1)
    return vec / np.linalg.norm(vec)


def test_trivial_group_state_is_product_of_pairs(lat22):
    rep = gp.semi_regular_rep(gp.build_group("trivial"), {"trivial": 2})
    tensor = gp.build_site_tensor(rep)
    state = gp.contract_isometric_state(lat22, tensor)
    ambient = decompress_state(state, tensor)
    oracle = _product_of_pairs_oracle(lat22, 2)
    assert abs(np.vdot(oracle, ambient)) ** 2 > 1.0 - 1e-12


def test_identity_twist_is_no_twist(z2, lat22):
    _, _, tensor = z2
    plain = gp.contract_isometric_state(lat22, tensor)
    twisted = gp.contract_isometric_state(
        lat22, tensor, BoundaryTwist(0, 0, cut_col=1, cut_row=1)
    )
    assert np.abs(plain.amplitudes - twisted.amplitudes).max() < 1e-14


def test_states_are_normalized(z2_twisted):
    for amplitudes in z2_twisted:
        assert abs(np.linalg.norm(amplitudes) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# quantum-double oracle (Z2 regular representation)
#
# In the irrep-diagonal basis the nontrivial element acts as Z = diag(1,-1),
# so the double's stabilizers on the 16 half-edge qubits are Z^x4 at each
# vertex, ZZ across each bond, and X^x8 around each plaquette.


def _apply_x(arr, q):
    return np.flip(arr, axis=q)


def _apply_z(arr, q):
    out = arr.copy()
    sl = [slice(None)] * arr.ndim
    sl[q] = 1
    out[tuple(sl)] *= -1.0
    return out


def _z2_stabilizer_expectations(lat, vec):
    arr = vec.reshape((2,) * (4 * lat.n_vertices))
    values = []
    for v in range(lat.n_vertices):
        cur = arr
        for leg in range(4):
            cur = _apply_z(cur, 4 * v + leg)
        values.append(np.vdot(arr, cur).real)
    for e in lat.edges:
        cur = _apply_z(arr, 4 * e.plain_site + e.plain_leg)
        cur = _apply_z(cur, 4 * e.conj_site + e.conj_leg)
        values.append(np.vdot(arr, cur).real)
    hmap = {divmod(e.plain_site, lat.width): e for e in lat.edges if e.orientation == "h"}
    vmap = {divmod(e.plain_site, lat.width): e for e in lat.edges if e.orientation == "v"}
    for r in range(lat.height):
        for c in range(lat.width):
            cur = arr
            for e in [
                hmap[(r, c)],
                hmap[((r + 1) % lat.height, c)],
                vmap[(r, c)],
                vmap[(r, (c + 1) % lat.width)],
            ]:
                cur = _apply_x(cur, 4 * e.plain_site + e.plain_leg)
                cur = _apply_x(cur, 4 * e.conj_site + e.conj_leg)
            values.append(np.vdot(arr, cur).real)
    return np.array(values)


def test_z2_twisted_states_are_quantum_double_ground_states(z2, lat22, z2_twisted):
    group, _, tensor = z2
    for (g, h), amplitudes in zip(group.commuting_pairs(), z2_twisted):
        state = gp.StateVector(lattice=lat22, site_dim=8, amplitudes=amplitudes)
        ambient = decompress_state(state, tensor)
        evs = _z2_stabilizer_expectations(lat22, ambient)
        assert evs.min() > 1.0 - 1e-12, ((g, h), evs.min())


def test_z2_ground_rank_four(z2, lat22, z2_twisted):
    _, _, tensor = z2
    ident = [gp.identity_deformation(tensor, site=v) for v in range(4)]
    proj = gp.ground_projector(lat22, z2_twisted, ident, 0)
    assert proj.rank == 4
    # independent rank count on the raw column stack
    cols = z2_twisted.T
    assert np.linalg.matrix_rank(cols, tol=1e-8) == 4


def test_trivial_group_rank_one(lat22):
    rep = gp.semi_regular_rep(gp.build_group("trivial"), {"trivial": 2})
    tensor = gp.build_site_tensor(rep)
    twisted = gp.twisted_states(lat22, tensor)
    proj = gp.ground_projector(lat22, twisted, [gp.identity_deformation(tensor)] * 4, 0)
    assert proj.rank == 1


def test_z3_ground_rank_nine(z3, lat22, z3_twisted):
    _, _, tensor = z3
    ident = [gp.identity_deformation(tensor, site=v) for v in range(4)]
    proj = gp.ground_projector(lat22, z3_twisted, ident, 0)
    assert proj.rank == 9


@pytest.mark.parametrize("name", ["z2", "z3"])
def test_untwisted_row_is_the_plain_contraction(name, lat22, request):
    # dense oracles start from the plain contraction; the prepared protocol
    # reads its entering coordinates from this row, bit for bit the same
    _, _, tensor = request.getfixturevalue(name)
    twisted = request.getfixturevalue(f"{name}_twisted")
    e = tensor.rep.group.identity
    row = tensor.rep.group.commuting_pairs().index((e, e))
    assert np.array_equal(twisted[row], gp.contract_isometric_state(lat22, tensor).amplitudes)


def _state(lattice, amplitudes):
    return gp.StateVector(lattice=lattice, site_dim=8, amplitudes=amplitudes)


def test_identity_deformations_leave_state_fixed(z2, lat22, z2_twisted):
    _, _, tensor = z2
    ident = [gp.identity_deformation(tensor, site=v) for v in range(4)]
    base = _state(lat22, z2_twisted[0])
    for t in [0, 2, 4]:
        state = gp.partial_peps_state(base, ident, t=t)
        assert np.abs(state.amplitudes - base.amplitudes).max() < 1e-12


def test_fully_deformed_twisted_states_independent(z2, lat22, z2_twisted):
    _, _, tensor = z2
    defs = [gp.random_deformation(tensor, 3.0, seed=40 + v, site=v) for v in range(4)]
    states = [gp.partial_peps_state(_state(lat22, row), defs, t=4) for row in z2_twisted]
    cols = stack_columns(states)
    gram = cols.conj().T @ cols
    assert np.linalg.matrix_rank(gram, tol=1e-10) == 4


def test_zero_state_raised(z2, lat22, z2_twisted):
    zero = gp.Deformation(site=0, matrix=np.zeros((8, 8), dtype=complex), kappa_sym=np.inf)
    with pytest.raises(ZeroState):
        gp.partial_peps_state(_state(lat22, z2_twisted[0]), [zero], t=1)
    with pytest.raises(ZeroState):
        gp.ground_projector(lat22, z2_twisted, [zero], 1)


@pytest.mark.parametrize("name", ["Z2", "Z3"])
def test_twist_gauge_rank_one_abelian(name, lat22):
    group = gp.build_group(name)
    rep = gp.regular_rep(group)
    tensor = gp.build_site_tensor(rep)
    for g in range(group.order):
        for h in range(group.order):
            states = [
                gp.contract_isometric_state(
                    lat22, tensor, BoundaryTwist(g, h, cut_col=cc, cut_row=cr)
                )
                for cc in range(2)
                for cr in range(2)
            ]
            s = np.linalg.svd(stack_columns(states), compute_uv=False)
            assert int((s > 1e-10 * s[0]).sum()) == 1, (name, g, h)


def test_ground_space_nesting(z2, lat22, z2_twisted):
    # applying the next deformation maps range(P_t) into range(P_{t+1})
    _, _, tensor = z2
    defs = [gp.random_deformation(tensor, 2.0, seed=60 + v, site=v) for v in range(4)]
    for t in range(4):
        p_t = gp.ground_projector(lat22, z2_twisted, defs, t)
        p_next = gp.ground_projector(lat22, z2_twisted, defs, t + 1)
        for k in range(p_t.rank):
            moved = lattice._apply_site(p_t.basis[:, k], lat22.n_vertices, t, defs[t].matrix)
            moved /= np.linalg.norm(moved)
            outside = moved - p_next.basis @ p_next.coefficients(moved)
            assert np.linalg.norm(outside) < 1e-10


def test_projector_columns_site_symmetric(z2, lat22, z2_twisted):
    # at an untouched vertex, the ambient site symmetrizer fixes every column
    _, _, tensor = z2
    defs = [gp.random_deformation(tensor, 2.0, seed=80 + v, site=v) for v in range(4)]
    proj = gp.ground_projector(lat22, z2_twisted, defs, 1)
    sym = _eq2_matrix(tensor.rep, gp.delta_map(tensor.rep))  # ambient-space projector
    for k in range(proj.rank):
        state = gp.StateVector(lattice=lat22, site_dim=8, amplitudes=proj.basis[:, k])
        ambient = decompress_state(state, tensor)
        arr = ambient.reshape((16,) * 4)
        for untouched in [1, 2, 3]:
            moved = np.moveaxis(
                np.tensordot(sym, arr, axes=([1], [untouched])), 0, untouched
            )
            assert np.abs(moved - arr).max() < 1e-10


def test_contraction_dimension_overflow(z3):
    _, _, tensor = z3
    big = gp.TorusLattice.build(3, 3)
    with pytest.raises(DimensionOverflow):
        gp.contract_isometric_state(big, tensor)


def test_state_export_roundtrip(tmp_path, z2, lat22, z2_twisted):
    group, rep, tensor = z2
    state = _state(lat22, z2_twisted[group.commuting_pairs().index((1, 0))])
    base = str(tmp_path / "state")
    defs = [gp.identity_deformation(tensor, site=v) for v in range(4)]
    gp.save_state(state, base, rep=rep, twist=BoundaryTwist(1, 0), deformations=defs)
    back = gp.load_state(base)
    assert np.abs(back.amplitudes - state.amplitudes).max() == 0.0
    sidecar = json.loads((tmp_path / "state.json").read_text())
    assert sidecar["twist"] == {"g": 1, "h": 0, "cut_col": 0, "cut_row": 0}
    assert sidecar["rep"]["group"] == "Z2"
    assert "deformation_hash" in sidecar


def test_load_state_rejects_truncated_or_mismatched_file(tmp_path, lat22, z2_twisted):
    base = str(tmp_path / "state")
    gp.save_state(_state(lat22, z2_twisted[0]), base)
    with open(base + ".bin", "r+b") as fh:
        fh.truncate(80)
    with pytest.raises(DimensionMismatch):
        gp.load_state(base)
    gp.save_state(_state(lat22, z2_twisted[0]), base)
    sidecar = json.loads((tmp_path / "state.json").read_text())
    sidecar["site_dim"] = 4
    (tmp_path / "state.json").write_text(json.dumps(sidecar))
    with pytest.raises(DimensionMismatch):
        gp.load_state(base)


def _site_chain(lat, row, defs, t):
    """The unnormalized ``_apply_site`` chain of one twisted state."""
    for v in range(t):
        row = lattice._apply_site(row, lat.n_vertices, v, defs[v].matrix)
    return row


def _relative_error(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


@pytest.mark.parametrize("n_sites,d", [(3, 5), (4, 4)])
def test_apply_site_matches_tensordot_oracle(n_sites, d):
    # on every site, into a fresh vector or in place, bit for bit between the two
    rng = np.random.default_rng(n_sites)
    matrix = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    x = rng.normal(size=d**n_sites) + 1j * rng.normal(size=d**n_sites)
    for site in range(n_sites):
        moved = lattice._apply_site(x, n_sites, site, matrix)
        assert _relative_error(moved, apply_site(x, n_sites, site, matrix)) <= 1e-13
        in_place = x.copy()
        assert lattice._apply_site(in_place, n_sites, site, matrix, in_place) is in_place
        assert np.array_equal(in_place, moved)


@pytest.mark.parametrize("name,width,height", [("Z2", 3, 2), ("Z3", 2, 2), ("S3", 2, 1)])
def test_apply_site_matches_tensordot_oracle_on_twisted_rows(name, width, height):
    tensor = gp.build_site_tensor(gp.regular_rep(gp.build_group(name)))
    lat = gp.TorusLattice.build(width, height)
    rows = gp.twisted_states(lat, tensor)
    n = lat.n_vertices
    for v in range(n):
        matrix = gp.random_deformation(tensor, 2.0, seed=30 + v, site=v).matrix
        for row in (rows[0], rows[-1]):  # the untwisted row and the last twist
            moved = lattice._apply_site(row, n, v, matrix)
            assert _relative_error(moved, apply_site(row, n, v, matrix)) <= 1e-13, v
            in_place = row.copy()
            lattice._apply_site(in_place, n, v, matrix, in_place)
            assert np.array_equal(in_place, moved)


def test_apply_site_rejects_an_out_it_cannot_view():
    # a column-major out reshapes only into a copy, which would be written instead
    x = np.arange(27.0).reshape(3, 9)
    out = np.empty((3, 9), order="F")
    with pytest.raises(ValueError, match="contiguous"):
        lattice._apply_site(x, 3, 2, np.eye(3), out)


def test_twisted_stacks_in_place_equals_spare(z2, lat22, z2_twisted):
    _, _, tensor = z2
    defs = [gp.random_deformation(tensor, 3.0, seed=90 + v, site=v) for v in range(4)]
    in_place = [s.copy() for s in lattice.twisted_stacks(lat22, z2_twisted.copy(), defs, 4)]
    spare = lattice.twisted_stacks(lat22, z2_twisted.copy(), defs, 4, np.empty_like(z2_twisted))
    for a, b in itertools.zip_longest(in_place, spare):
        assert np.array_equal(a, b)


def test_one_pass_projectors_match_from_scratch_bit_for_bit(z2, lat22, z2_twisted):
    # the incremental pass must reproduce the from-scratch columns exactly,
    # so that traces replay bit for bit; partial_peps_state is the same
    # chain, normalized
    _, _, tensor = z2
    defs = [gp.random_deformation(tensor, 3.0, seed=90 + v, site=v) for v in range(4)]
    one_pass = gp.ground_projectors(lat22, z2_twisted.copy(), defs, range(5))
    for t, projector in enumerate(one_pass):
        chains = [_site_chain(lat22, row, defs, t) for row in z2_twisted]
        for row, chain in zip(z2_twisted, chains):
            state = gp.partial_peps_state(_state(lat22, row), defs, t=t)
            assert np.array_equal(state.amplitudes, chain * (1.0 / np.linalg.norm(chain)))
        scratch = gp.projector_from_columns(np.array(chains).T, step=t)
        alone = gp.ground_projector(lat22, z2_twisted, defs, t)
        assert projector.step == t
        assert np.array_equal(projector.basis, scratch.basis)
        assert np.array_equal(projector.basis, alone.basis)


def test_ground_projectors_rejects_steps_out_of_range(z2, lat22, z2_twisted):
    ident = [gp.identity_deformation(z2[2], site=v) for v in range(4)]
    for steps in [(-1, 0), (4, 5)]:
        with pytest.raises(ValueError):
            list(gp.ground_projectors(lat22, z2_twisted.copy(), ident, steps))


# ---------------------------------------------------------------------------
# the Gram build against a full SVD


def _svd_oracle(columns):
    """Basis and kept singular values of a full SVD, with the same rank rule
    on the squared singular values: ``s² > tol · s_0²``."""
    u, s, _ = np.linalg.svd(columns, full_matrices=False)
    keep = s**2 > PROJECTOR_RANK_TOL * s[0] ** 2
    return u[:, keep], s[keep]


def _assert_matches_svd_oracle(columns):
    projector = projector_from_columns(columns)
    oracle, s = _svd_oracle(columns)
    assert projector.rank == projector.basis.shape[1] == oracle.shape[1]
    assert projector.column_coordinates.shape == (projector.rank, columns.shape[1])
    # the kept rows of S V^H have the singular values as their norms
    singular = np.linalg.norm(projector.column_coordinates, axis=1)
    assert np.abs(singular - s).max() <= 1e-13 * s[0]
    cos2 = np.linalg.svd(projector.basis.conj().T @ oracle, compute_uv=False) ** 2
    assert np.abs(cos2 - 1.0).max() < 1e-12
    gram = projector.basis.conj().T @ projector.basis
    assert np.abs(gram - np.eye(projector.rank)).max() < 1e-13
    assert np.abs(projector.basis @ projector.column_coordinates - columns).max() < 1e-12


# (dim, m, zero column): the shapes that the former blocked QR split into
# row blocks, a stack with fewer rows than columns, and a zero column
TSQR_SHAPES = {
    "dim-not-multiple-of-block": (1000, 6, None),
    "last-block-thinner-than-m": (3 * 64 + 3, 6, None),
    "dim-below-m": (4, 7, None),
    "default-blocks": (5000, 4, None),
    "zero-column": (300, 5, 2),
}


@pytest.mark.parametrize("dim,m,zero", TSQR_SHAPES.values(), ids=list(TSQR_SHAPES))
def test_projector_from_columns_matches_svd(dim, m, zero):
    rng = np.random.default_rng(dim + m)
    columns = rng.normal(size=(dim, m)) + 1j * rng.normal(size=(dim, m))
    columns /= np.linalg.norm(columns, axis=0)
    if zero is None:
        _assert_matches_svd_oracle(columns)
        return
    # a zero column has no normalized direction: the pass reports it
    columns[:, zero] = 0.0
    with pytest.raises(ZeroState, match=f"column {zero}"):
        projector_from_columns(columns)


def test_projector_from_columns_normalizes_inside_the_gram():
    # unequal column norms give the basis and coordinates of the normalized stack
    rng = np.random.default_rng(12)
    columns = rng.normal(size=(700, 5)) + 1j * rng.normal(size=(700, 5))
    columns[:, 3] = columns[:, 0] + columns[:, 1]  # rank 4
    scaled = columns * np.array([1e-6, 3.0, 1.0, 250.0, 1e4])
    normalized = columns / np.linalg.norm(columns, axis=0)
    projector = projector_from_columns(scaled)
    assert projector.rank == 4
    _assert_matches_svd_oracle(normalized)
    assert np.abs(projector.basis @ projector.column_coordinates - normalized).max() < 1e-12


@pytest.mark.parametrize("m", [1, 4, 9, 18])
def test_gram_sums_row_blocks(m):
    # row counts on, around and far past a block boundary of the first stack
    rng = np.random.default_rng(m)
    block = lattice.GRAM_BLOCK_BYTES // (16 * m)
    for dim in [1, block - 1, block, block + 1, 3 * block + 7]:
        a = rng.normal(size=(dim, m)) + 1j * rng.normal(size=(dim, m))
        b = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
        for other in (a, b, np.asfortranarray(b)):
            got = lattice.gram(a, other)
            assert got.shape == (m, other.shape[1])
            assert np.allclose(got, a.conj().T @ other, rtol=0.0, atol=1e-12 * dim), dim


def test_projector_from_columns_matches_svd_on_s3_stack():
    # S3 2x1: 18 twisted columns spanning the 8 anyon sectors
    tensor = gp.build_site_tensor(gp.regular_rep(gp.build_group("S3")))
    columns = gp.twisted_states(gp.TorusLattice.build(2, 1), tensor).T
    assert columns.shape[1] == 18
    assert _svd_oracle(columns)[0].shape[1] == 8
    _assert_matches_svd_oracle(columns)


# quantum-double anyon counts (arXiv:1001.3807): the ranks of every ground space
QUANTUM_DOUBLE_RANKS = {"Z2": (2, 2, 4), "Z3": (2, 2, 9), "S3": (2, 1, 8)}


@pytest.mark.parametrize("name", list(QUANTUM_DOUBLE_RANKS))
def test_rank_cut_has_a_wide_gap_at_every_step(name):
    # the relative eigenvalue cut at 1e-10 sits far inside the gap of every
    # normalized Gram along the pass, at kappa 8
    width, height, anyons = QUANTUM_DOUBLE_RANKS[name]
    tensor = gp.build_site_tensor(gp.regular_rep(gp.build_group(name)))
    lat = gp.TorusLattice.build(width, height)
    defs = [gp.random_deformation(tensor, 8.0, seed=70 + v, site=v) for v in range(lat.n_vertices)]
    columns = gp.twisted_states(lat, tensor)
    for t in range(lat.n_vertices + 1):
        if t:
            for k in range(len(columns)):
                columns[k] = lattice._apply_site(columns[k], lat.n_vertices, t - 1, defs[t - 1].matrix)
        normalized = (columns / np.linalg.norm(columns, axis=1, keepdims=True)).T
        eigenvalues = np.linalg.eigvalsh(lattice.gram(normalized, normalized))[::-1]
        relative = eigenvalues / eigenvalues[0]
        assert relative[anyons - 1] >= 0.3, (t, relative)
        assert np.abs(relative[anyons:]).max(initial=0.0) <= 1e-12, (t, relative)
        assert projector_from_columns(normalized, step=t).rank == anyons


def _peak_allocation(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_projector_build_allocates_no_basis():
    # one (200000, 9) stack as the pass hands it over, transposed into a
    # column-major view: the build and the decomposition allocate only
    # m x m matrices and one Gram row block, never a basis
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(9, 200_000)) + 1j * rng.normal(size=(9, 200_000))
    assert _peak_allocation(projector_from_columns, rows.T) < 2**20
    p = projector_from_columns(rows.T)
    q = projector_from_columns(rows[::-1].T)
    assert p.columns.base is rows  # held, not copied
    assert _peak_allocation(gp.jordan_decompose, p, q) < 2**20


def test_prepare_protocol_allocates_two_stacks():
    # Z2 3x2: the twisted stack and the pass's spare (16 MiB each); every
    # row step writes into the spare row, so no row-sized temporary, no
    # basis and no third stack
    tensor = gp.build_site_tensor(gp.regular_rep(gp.build_group("Z2")))
    lat = gp.TorusLattice.build(3, 2)
    defs = tuple(gp.random_deformation(tensor, 8.0, seed=40 + v, site=v) for v in range(6))
    config = gp.ProtocolConfig(lattice=lat, tensor=tensor, deformations=defs, epsilon=0.1)
    stack = len(tensor.rep.group.commuting_pairs()) * 16 * tensor.sym_dim**lat.n_vertices
    assert stack == 16 * 2**20
    assert _peak_allocation(gp.prepare_protocol, config) <= 2 * stack + 2**20
    # afterwards only P_N holds a stack, for failed-trial readouts
    held = [p.columns is not None for p in gp.prepare_protocol(config).projectors]
    assert held == [False] * 6 + [True]


def test_pass_releases_each_stack_before_overwriting_it(z2, lat22, z2_twisted):
    # after the pass only the last two projectors hold stacks, and those
    # stacks still hold their own steps' columns bit for bit
    _, _, tensor = z2
    defs = [gp.random_deformation(tensor, 3.0, seed=90 + v, site=v) for v in range(4)]
    projectors = list(gp.ground_projectors(lat22, z2_twisted.copy(), defs, range(5)))
    assert [p.columns is None for p in projectors] == [True, True, True, False, False]
    for projector in projectors[3:]:
        chains = [_site_chain(lat22, row, defs, projector.step) for row in z2_twisted]
        assert np.array_equal(projector.columns, np.array(chains).T)
    with pytest.raises(RuntimeError, match="released"):
        projectors[0].basis
