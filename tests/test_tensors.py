"""Site tensors, deformations and the regrouping equivalence."""

import numpy as np
import pytest

import gpeps as gp
from gpeps.caps import ENV_VAR
from gpeps.errors import BoundViolation, DimensionOverflow, InvalidKappa, SingularOnSymmetric
from gpeps.tensors import _eq2_matrix, deformation_from_dict, deformation_to_dict


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
    # ambient operator: spectrum {1..} on S_G, garbage on the complement
    _, _, tensor = z2
    dim = tensor.sym_basis.shape[0]
    b = tensor.sym_basis
    spec = np.linspace(1.0, 0.25, tensor.sym_dim)
    ambient = b @ np.diag(spec).astype(complex) @ b.conj().T
    ambient += 7.0 * (np.eye(dim) - b @ b.conj().T)
    d = gp.Deformation(site=0, matrix=ambient, kappa_sym=4.0)
    assert abs(gp.condition_number_on_symmetric(d, tensor) - 4.0) < 1e-10


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
