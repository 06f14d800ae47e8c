"""Site tensors, deformations and the regrouping equivalence."""

import tracemalloc

import numpy as np
import pytest

import gpeps as gp
from gpeps import tensors
from gpeps.caps import ENV_VAR
from gpeps.errors import (
    BoundViolation, DimensionMismatch, DimensionOverflow, InvalidKappa, SingularOnSymmetric,
)
from gpeps.tensors import (
    RANK_TOL, _eq2_matrix, _weighted_unitaries, deformation_from_dict, deformation_to_dict,
)


def _symmetrizer_oracle(rep):
    """Independent brute-force group symmetrizer on the four legs."""
    D = rep.total_dim
    acc = np.zeros((D**4, D**4), dtype=complex)
    for g in range(rep.group.order):
        u = rep.matrices[g]
        w = np.kron(np.kron(np.kron(u.conj(), u.conj()), u), u)
        acc += w
    return acc / rep.group.order


def _site_matrix(st):
    """Oracle: the dense site map ``A`` the tensor was compressed from."""
    return _eq2_matrix(st.rep, gp.delta_map(st.rep))


def test_trivial_group_tensor_is_scaled_identity():
    rep = gp.semi_regular_rep(gp.build_group("trivial"), {"trivial": 2})
    st = gp.build_site_tensor(rep)
    # single-element sum; the re-weighting carries the 1/D normalization
    assert _site_matrix(st).dtype == np.float64  # a real representation
    assert np.abs(_site_matrix(st) - np.eye(16) / 2.0).max() < 1e-14
    assert st.sym_dim == 16


@pytest.mark.parametrize("name,want", [("Z2", 8), ("Z3", 27)])
def test_regular_sym_dim_is_group_order_cubed(name, want, request):
    rep = gp.regular_rep(gp.build_group(name))
    st = gp.build_site_tensor(rep)
    assert st.sym_dim == want == rep.group.order**3
    oracle = _symmetrizer_oracle(rep)
    assert np.linalg.matrix_rank(oracle, tol=1e-10) == want
    # for the regular representation the tensor is that projector
    assert np.abs(_site_matrix(st) - oracle).max() < 1e-12


@pytest.mark.parametrize("name", ["Z2", "Z3"])
def test_regular_tensor_projector_properties(name):
    st = gp.build_site_tensor(gp.regular_rep(gp.build_group(name)))
    a = _site_matrix(st)
    assert np.abs(a - a.conj().T).max() < 1e-10
    assert np.abs(a @ a - a).max() < 1e-10


@pytest.mark.parametrize(
    "name,mults",
    [("Z2", None), ("Z3", None), ("Z2", {"trivial": 2, "sign": 1})],
)
def test_sym_basis_isometry_and_eigenrelation(name, mults):
    group = gp.build_group(name)
    rep = gp.regular_rep(group) if mults is None else gp.semi_regular_rep(group, mults)
    st = gp.build_site_tensor(rep)
    b = st.sym_basis
    a = _site_matrix(st)
    assert np.abs(b.conj().T @ b - np.eye(st.sym_dim)).max() < 1e-12
    # columns are eigenvectors: A b = b diag(lambda)
    lam = np.diag(b.conj().T @ a @ b)
    assert np.abs(a @ b - b * lam).max() < 1e-10
    assert np.all(lam.real > 0)
    assert np.abs(st.compressed_map - b.conj().T @ a).max() < 1e-12


@pytest.mark.parametrize(
    "name,mults",
    [("Z2", None), ("Z3", None), ("Z2", {"trivial": 2, "sign": 1})],
)
def test_tensor_group_invariance(name, mults):
    # A * (Ubar x Ubar x U x U) = A for every group element
    group = gp.build_group(name)
    rep = gp.regular_rep(group) if mults is None else gp.semi_regular_rep(group, mults)
    a = _site_matrix(gp.build_site_tensor(rep))
    for g in range(group.order):
        u = rep.matrices[g]
        w = np.kron(np.kron(np.kron(u.conj(), u.conj()), u), u)
        assert np.abs(a @ w - a).max() < 1e-10


def test_site_tensor_dimension_overflow(monkeypatch):
    rep = gp.regular_rep(gp.build_group("Z3"))
    monkeypatch.setenv(ENV_VAR, "1000")
    with pytest.raises(DimensionOverflow):
        gp.build_site_tensor(rep)


@pytest.mark.parametrize(
    "name,mults",
    [
        ("Z2", None),
        ("Z2", {"chi0": 2, "chi1": 1}),
        ("Z3", None),
        ("Z3", {"chi0": 2, "chi1": 1, "chi2": 1}),
        ("Z4", None),
        ("Z4", {"chi0": 1, "chi1": 2, "chi2": 1, "chi3": 1}),
        ("S3", None),
        ("S3", {"A1": 1, "A2": 2, "E": 1}),
    ],
)
def test_sym_dim_is_character_count(name, mults):
    # dim S_G = |G|^-1 sum_g |chi(g)|^4, chi summed over the irrep blocks
    group = gp.build_group(name)
    rep = gp.regular_rep(group) if mults is None else gp.semi_regular_rep(group, mults)
    chi = sum(r * irrep.characters for irrep, r in rep.blocks)
    count = np.mean(np.abs(chi) ** 4)
    st = gp.build_site_tensor(rep)
    assert st.sym_dim == pytest.approx(count, abs=1e-9)
    oracle = _eq2_matrix(rep, gp.delta_map(rep))
    assert np.linalg.matrix_rank(oracle, tol=1e-10 * np.abs(oracle).max()) == st.sym_dim


def test_sym_dim_off_character_count_raises(monkeypatch):
    # a rank cut that keeps nothing disagrees with the character count
    monkeypatch.setattr("gpeps.tensors.RANK_TOL", 2.0)
    with pytest.raises(BoundViolation, match="character count"):
        gp.build_site_tensor(gp.regular_rep(gp.build_group("Z2")))


# ---------------------------------------------------------------------------
# real arithmetic for real representations


def _rep(name, mults):
    group = gp.build_group(name)
    return gp.regular_rep(group) if mults is None else gp.semi_regular_rep(group, mults)


def _complex_build_oracle(rep):
    """The complex build every representation took before real ones were
    built in real arithmetic: complex ``A``, Hermitian clean-up, complex
    ``eigh`` and rank cut.  Returns ``(A, sym_basis, compressed_map)``."""
    du = gp.delta_map(rep).weights[None, :, None] * rep.matrices
    D = rep.total_dim
    a = np.zeros((D**4, D**4), dtype=complex)
    for g in range(rep.group.order):
        a += np.kron(np.kron(np.kron(du[g].conj(), du[g].conj()), du[g]), du[g])
    a /= rep.group.order
    a = (a + a.conj().T) / 2.0
    evals, evecs = np.linalg.eigh(a)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    keep = evals > RANK_TOL * max(evals[0], 0.0)
    basis = np.ascontiguousarray(evecs[:, keep])
    return a, basis, basis.conj().T @ a


def _principal_cos2(a, b):
    """Squared cosines of the principal angles between two orthonormal bases."""
    return np.linalg.svd(a.conj().T @ b, compute_uv=False) ** 2


@pytest.mark.parametrize(
    "name,mults",
    [
        ("Z2", None),
        ("Z2", {"chi0": 2, "chi1": 1}),
        ("Z3", None),
        ("Z3", {"chi0": 2, "chi1": 1, "chi2": 1}),
        ("Z4", None),
        ("Z4", {"chi0": 1, "chi1": 2, "chi2": 1, "chi3": 1}),
    ],
)
def test_complex_reps_build_bit_for_bit_as_oracle(name, mults, monkeypatch):
    # Z2's -1 carries a 1e-16 imaginary part, so Z2 stays complex like Z3 and
    # Z4; their bases pin the tier-1 and benchmark digests.  Their cleaned-up
    # A has no imaginary part, so the eigh dtype is checked too: a real eigh
    # would make the pins depend on LAPACK returning the same vectors.
    rep = _rep(name, mults)
    assert _eq2_matrix(rep, gp.delta_map(rep)).dtype == np.complex128
    eigh, seen = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda m: seen.append(m.dtype) or eigh(m))
    st = gp.build_site_tensor(rep)
    monkeypatch.undo()
    assert seen == [np.complex128]
    _, basis, compressed = _complex_build_oracle(rep)
    assert np.array_equal(st.sym_basis, basis)
    assert np.array_equal(st.compressed_map, compressed)


@pytest.mark.parametrize(
    "group,multiplicities",
    [("S3", None), ("Z3", {"trivial": 2, "chi1": 2, "chi2": 2})],
    ids=["s3-regular-real", "z3-semi-regular-complex"],
)
def test_site_tensor_peak_is_within_its_count(monkeypatch, group, multiplicities):
    # everything numpy allocates during the build fits in the amplitudes
    # counted against the cap (16 bytes each); the S3 map alone is 12.8 MiB
    rep = gp.semi_regular_rep(gp.build_group(group), multiplicities)
    counted = []
    monkeypatch.setattr(tensors, "check_amplitudes", lambda count, what: counted.append(count))
    tracemalloc.start()
    try:
        gp.build_site_tensor(rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.total_dim == 6 and len(counted) == 1
    assert peak <= 16 * counted[0]


def test_d4_weighted_unitaries_are_real():
    # D4 takes the real build; its D^4 x D^4 matrix is too dear to build here
    rep = gp.regular_rep(gp.build_group("D4"))
    du = _weighted_unitaries(rep, gp.delta_map(rep))
    assert du.shape == (8, 8, 8) and not du.imag.any()


@pytest.fixture(scope="module", params=[None, {"A1": 1, "A2": 2, "E": 1}], ids=["regular", "semi"])
def s3_gauges(request):
    """S3 site tensor of the real build, with the complex oracle build."""
    rep = _rep("S3", request.param)
    return gp.build_site_tensor(rep), _complex_build_oracle(rep)


def test_s3_real_build_spans_oracle_range(s3_gauges):
    st, (a, basis, _) = s3_gauges
    assert _eq2_matrix(st.rep, gp.delta_map(st.rep)).dtype == np.float64
    assert st.sym_basis.dtype == st.compressed_map.dtype == np.complex128
    assert st.sym_basis.flags.c_contiguous
    assert st.sym_dim == basis.shape[1]
    b = st.sym_basis
    assert np.abs(b.conj().T @ b - np.eye(st.sym_dim)).max() < 1e-13
    assert np.abs(_principal_cos2(b, basis) - 1.0).max() < 1e-12
    assert np.abs(st.compressed_map - b.conj().T @ a).max() < 1e-12


def test_s3_gauges_give_same_ranks_and_overlaps(s3_gauges):
    # the same ambient deformations, compressed in either gauge, give the
    # same ground spaces: equal projector ranks and Jordan overlaps d_k
    st, (_, basis, compressed) = s3_gauges
    oracle = gp.SiteTensor(
        rep=st.rep, sym_basis=basis, sym_dim=basis.shape[1], compressed_map=compressed
    )
    tensors = (st, oracle)
    lattice = gp.TorusLattice.build(2, 1)
    amb = basis.shape[0]
    rng = np.random.default_rng(2012)
    compressed_defs = ([], [])
    for site in range(lattice.n_vertices):
        x = rng.normal(size=(amb, 40)) + 1j * rng.normal(size=(amb, 40))
        ambient = (x @ x.conj().T) / 40.0
        ambient[np.diag_indices(amb)] += 0.5  # positive definite
        restricted = [t.sym_basis.conj().T @ ambient @ t.sym_basis for t in tensors]
        kappas = [
            gp.condition_number_on_symmetric(gp.Deformation(site, r, 0.0), t)
            for r, t in zip(restricted, tensors)
        ]
        assert kappas[0] == pytest.approx(kappas[1], rel=1e-12)
        for r, defs in zip(restricted, compressed_defs):
            defs.append(gp.Deformation(site, r, kappas[0]))
        del ambient
    prepared = [
        gp.prepare_protocol(
            gp.ProtocolConfig(lattice=lattice, tensor=t, deformations=tuple(defs), epsilon=0.1)
        )
        for t, defs in zip(tensors, compressed_defs)
    ]
    ranks = [[p.rank for p in prep.projectors] for prep in prepared]
    assert ranks[0] == ranks[1]
    if st.rep.total_dim == st.rep.group.order:
        assert ranks[0] == [8] * (lattice.n_vertices + 1)  # the S3 quantum-double count
    for new, old in zip(prepared[0].spectra, prepared[1].spectra):
        assert np.abs(new.overlaps - old.overlaps).max() < 1e-12


def _s3_complex_e_document():
    """S3 as a user group document whose E irrep is conjugated by a fixed
    complex unitary ``v``, so its matrices are not real."""
    group = gp.build_group("S3")
    c, s = np.cos(0.3), np.sin(0.3)
    v = np.array([[c, -np.exp(-0.7j) * s], [np.exp(0.7j) * s, c]])
    entries = []
    for irrep in gp.irreps(group):
        mats = v @ irrep.matrices @ v.conj().T if irrep.label == "E" else irrep.matrices
        entries.append({"label": irrep.label, "dim": irrep.dim,
                        "matrices_re": mats.real.tolist(), "matrices_im": mats.imag.tolist()})
    return {"name": "S3c", "order": 6, "mult_table": group.mult.tolist(), "irreps": entries}, v


def test_s3_complex_basis_takes_complex_build():
    doc, v = _s3_complex_e_document()
    rep = gp.regular_rep(*gp.load_group_document(doc))
    assert _eq2_matrix(rep, gp.delta_map(rep)).dtype == np.complex128
    st = gp.build_site_tensor(rep)
    assert st.sym_dim == 216
    # U'_g = W U_g W^dag with W = 1 + 1 + (v x 1_2), so the symmetric subspace
    # is the real build's mapped by Wbar x Wbar x W x W
    real = gp.build_site_tensor(gp.regular_rep(gp.build_group("S3")))
    w = np.eye(6, dtype=complex)
    w[2:, 2:] = np.kron(v, np.eye(2))
    legs = real.sym_basis.reshape(6, 6, 6, 6, -1)
    mapped = np.einsum("ai,bj,ck,dl,ijklx->abcdx", w.conj(), w.conj(), w, w, legs, optimize=True)
    assert np.abs(_principal_cos2(st.sym_basis, mapped.reshape(6**4, -1)) - 1.0).max() < 1e-12


def test_identity_deformation_kappa_one(z2):
    _, _, tensor = z2
    d = gp.identity_deformation(tensor)
    assert d.kappa_sym == 1.0
    assert gp.condition_number_on_symmetric(d, tensor) == 1.0


def test_random_deformation_kappa_one_is_identity(z2):
    _, _, tensor = z2
    d = gp.random_deformation(tensor, 1.0, seed=3)
    assert np.abs(d.matrix - np.eye(tensor.sym_dim)).max() < 1e-12
    assert abs(d.kappa_sym - 1.0) < 1e-12


def test_random_deformation_hits_kappa_target(z2):
    _, _, tensor = z2
    d = gp.random_deformation(tensor, 4.0, seed=7)
    assert 3.96 <= d.kappa_sym <= 4.04
    evals = np.linalg.eigvalsh(d.matrix)
    assert evals.min() > 0
    assert np.abs(d.matrix - d.matrix.conj().T).max() < 1e-14


def test_random_deformation_deterministic(z2):
    _, _, tensor = z2
    a = gp.random_deformation(tensor, 3.0, seed=11)
    b = gp.random_deformation(tensor, 3.0, seed=11)
    assert np.array_equal(a.matrix, b.matrix)


def test_random_deformation_invalid_kappa(z2):
    _, _, tensor = z2
    with pytest.raises(InvalidKappa):
        gp.random_deformation(tensor, 0.5, seed=0)


def test_condition_number_diagonal_spectrum(z2):
    _, _, tensor = z2
    diag = np.ones(tensor.sym_dim)
    diag[1] = 0.5
    d = gp.Deformation(site=0, matrix=np.diag(diag).astype(complex), kappa_sym=2.0)
    assert abs(gp.condition_number_on_symmetric(d, tensor) - 2.0) < 1e-14


def test_condition_number_matches_target(z2):
    _, _, tensor = z2
    d = gp.random_deformation(tensor, 10.0, seed=5)
    assert abs(gp.condition_number_on_symmetric(d, tensor) - 10.0) < 0.1


def test_condition_number_ambient_restriction(z2):
    # ambient operator: spectrum {1..} on S_G, garbage on the complement;
    # its compression through sym_basis carries the kappa, and the ambient
    # matrix itself is not a deformation
    _, _, tensor = z2
    dim = tensor.sym_basis.shape[0]
    b = tensor.sym_basis
    spec = np.linspace(1.0, 0.25, tensor.sym_dim)
    ambient = b @ np.diag(spec).astype(complex) @ b.conj().T
    ambient += 7.0 * (np.eye(dim) - b @ b.conj().T)
    d = gp.Deformation(site=0, matrix=b.conj().T @ ambient @ b, kappa_sym=4.0)
    assert abs(gp.condition_number_on_symmetric(d, tensor) - 4.0) < 1e-10
    with pytest.raises(DimensionMismatch):
        gp.condition_number_on_symmetric(gp.Deformation(0, ambient, 4.0), tensor)


def test_condition_number_singular_rejected(z2):
    _, _, tensor = z2
    m = np.eye(tensor.sym_dim, dtype=complex)
    m[0, 0] = 0.0
    d = gp.Deformation(site=0, matrix=m, kappa_sym=np.inf)
    with pytest.raises(SingularOnSymmetric):
        gp.condition_number_on_symmetric(d, tensor)


# ---------------------------------------------------------------------------
# regrouping equivalence


@pytest.mark.parametrize(
    "name,mults",
    [
        ("Z2", None),
        ("Z3", None),
        ("Z2", {"trivial": 2, "sign": 1}),
        ("S3", None),
    ],
)
def test_regroup_equivalence(name, mults):
    group = gp.build_group(name)
    rep = gp.regular_rep(group) if mults is None else gp.semi_regular_rep(group, mults)
    report = gp.verify_regroup_equivalence(rep)
    assert report.entry_check
    assert report.entry_deviation < 1e-10
    assert report.gram_deviation < 1e-10
    assert report.b_decomposition_deviation < 1e-12
    if report.explicit_gram_deviation is not None:
        assert report.explicit_gram_deviation < 1e-12


def _regroup_oracle(rep):
    """The regroup check as it was built before real arithmetic: every
    array complex and full-size Gram leg temporaries.  Returns the report
    fields ``(gram, entry, b_decomposition, explicit_gram)`` deviations."""
    from gpeps.tensors import _right_translation_pattern, _tuple_components

    group, n, D = rep.group, rep.group.order, rep.total_dim
    weights = gp.delta_map(rep).weights
    du = weights[None, :, None] * rep.matrices
    site = np.zeros((D**4, D**4), dtype=complex)
    for g in range(n):
        site += np.kron(np.kron(np.kron(du[g].conj(), du[g].conj()), du[g]), du[g])
    site /= n
    half_conj = np.einsum("gij,gkl->gikjl", du.conj(), du.conj()).reshape(n, D**2, D**2)
    half_plain = np.einsum("gij,gkl->gikjl", du, du).reshape(n, D**2, D**2)
    refactored = np.einsum("gij,gkl->ikjl", half_conj, half_plain).reshape(D**4, D**4) / n
    b_dev = float(np.abs(site - refactored).max())
    d2u = (weights**2)[None, :, None] * rep.matrices
    hs = np.einsum("uij,vij->uv", d2u.conj(), d2u)
    ratio = group.mult[:, group.inverse]
    g1, g2, g3, g4 = _tuple_components(n)
    legs = [ratio[g1, g2], ratio[g2, g3], ratio[g4, g3], ratio[g1, g4]]
    gram = np.ones((n**4, n**4), dtype=complex)
    for a in legs:
        gram *= hs[a[:, None], a[None, :]]
    gram /= float(n) ** 4
    entry_dev = float(np.abs(gram - _right_translation_pattern(rep)).max())
    explicit_dev = None
    if D**8 * n**4 <= 1 << 26:
        c_cols = np.empty((D**8, n**4), dtype=complex)
        for col in range(n**4):
            vec = np.array([1.0], dtype=complex)
            for a in legs:
                vec = np.kron(vec, d2u[a[col]].reshape(-1))
            c_cols[:, col] = vec
        c_cols /= float(n) ** 2
        explicit_dev = float(np.abs(c_cols.conj().T @ c_cols - gram).max())
    return entry_dev / n, entry_dev, b_dev, explicit_dev


def _report_fields(report):
    return (report.gram_deviation, report.entry_deviation,
            report.b_decomposition_deviation, report.explicit_gram_deviation)


@pytest.mark.parametrize(
    "name,mults", [("Z2", None), ("Z3", None), ("Z4", None), ("Z2", {"trivial": 2, "sign": 1})]
)
def test_regroup_complex_reps_bit_for_bit_as_oracle(name, mults):
    rep = _rep(name, mults)
    assert _weighted_unitaries(rep, gp.delta_map(rep), power=2).dtype == np.complex128
    assert _report_fields(gp.verify_regroup_equivalence(rep)) == _regroup_oracle(rep)


def test_regroup_s3_real_arithmetic_keeps_report():
    # S3 is real: the check runs in float64 and reads what the complex
    # check read, 1.46e-32, 8.77e-32 and 1.11e-16, within 1e-15
    rep = _rep("S3", None)
    assert _weighted_unitaries(rep, gp.delta_map(rep), power=2).dtype == np.float64
    fields = _report_fields(gp.verify_regroup_equivalence(rep))
    assert fields[3] is None  # the explicit C is over the amplitude budget
    oracle = _regroup_oracle(rep)
    pinned = (1.4608535281870588e-32, 8.765121169122353e-32, 1.1102230246251565e-16)
    for new, old, pin in zip(fields, oracle, pinned):
        assert abs(new - old) <= 1e-15 and abs(new - pin) <= 1e-15


def test_regroup_trivial_group_rank_one():
    rep = gp.regular_rep(gp.build_group("trivial"))
    report = gp.verify_regroup_equivalence(rep)
    assert report.entry_check
    assert report.gram_deviation == 0.0


def test_regroup_gram_pattern_counts(z3):
    # Gram entries are exactly the 0/1 right-translation pattern
    _, rep, _ = z3
    from gpeps.tensors import _right_translation_pattern

    pattern = _right_translation_pattern(rep)
    n = rep.group.order
    assert pattern.shape == (n**4, n**4)
    assert pattern.max() == 1
    assert pattern.sum() == n**4 * n  # each column meets |G| rows


def test_regroup_dimension_overflow(z3, monkeypatch):
    _, rep, _ = z3
    monkeypatch.setenv(ENV_VAR, "100")
    with pytest.raises(DimensionOverflow):
        gp.verify_regroup_equivalence(rep)


def test_deformation_serialization_roundtrip(z2):
    _, _, tensor = z2
    d = gp.random_deformation(tensor, 2.5, seed=13, site=2)
    doc = deformation_to_dict(d)
    back = deformation_from_dict(doc)
    assert back.site == 2
    assert np.abs(back.matrix - d.matrix).max() < 1e-15
    assert back.kappa_sym == d.kappa_sym
