"""Principal-overlap decomposition and Born-rule measurement."""

import numpy as np
import pytest
import scipy.linalg

import gpeps as gp
from gpeps.errors import BoundViolation, DimensionMismatch
from gpeps.lattice import StateVector, projector_from_columns
from gpeps.protocol import measurement_stream
from gpeps.spectral import jordan_decompose, spectrum_csv_rows


def _random_projector(rng, dim, rank, step=0):
    cols = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    return projector_from_columns(cols, step=step)


def _state(lat, vec):
    return StateVector(lattice=lat, site_dim=vec.size, amplitudes=vec / np.linalg.norm(vec))


@pytest.fixture
def line():
    # 1x1 "lattice" so StateVector wraps arbitrary vectors in the tests
    return gp.TorusLattice.build(1, 1)


def test_identical_projectors_full_overlap():
    rng = np.random.default_rng(0)
    p = _random_projector(rng, 30, 4)
    spec = jordan_decompose(p, p)
    assert np.abs(spec.overlaps - 1.0).max() < 1e-12
    assert spec.d_min == pytest.approx(1.0)
    assert spec.n_zero_overlaps == 0


def test_orthogonal_ranges_give_zero():
    basis = np.eye(10, dtype=complex)
    p = projector_from_columns(basis[:, :3])
    q = projector_from_columns(basis[:, 3:6], step=1)
    spec = jordan_decompose(p, q)
    assert spec.d_min == 0.0
    assert spec.n_zero_overlaps == 3


def test_rank_one_pair_at_45_degrees():
    v1 = np.array([1.0, 0.0], dtype=complex)
    v2 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    p = projector_from_columns(v1.reshape(-1, 1))
    q = projector_from_columns(v2.reshape(-1, 1))
    spec = jordan_decompose(p, q)
    assert spec.overlaps[0] == pytest.approx(0.5, abs=1e-12)  # cos^2(45 deg)


def test_dimension_mismatch():
    p = projector_from_columns(np.eye(4, dtype=complex)[:, :1])
    q = projector_from_columns(np.eye(5, dtype=complex)[:, :1])
    with pytest.raises(DimensionMismatch):
        jordan_decompose(p, q)


def test_jordan_relations_random_subspaces():
    rng = np.random.default_rng(7)
    p = _random_projector(rng, 40, 5)
    q = _random_projector(rng, 40, 7)
    spec = jordan_decompose(p, q)
    assert np.all(spec.overlaps >= -1e-12) and np.all(spec.overlaps <= 1 + 1e-12)
    k = spec.overlaps.size
    assert spec.p_rotation.shape == (5, k) and spec.q_rotation.shape == (7, k)
    r_vectors = p.basis @ spec.p_rotation
    q_vectors = q.basis @ spec.q_rotation
    # paired vectors reproduce the overlaps and are cross-orthogonal
    cross = r_vectors.conj().T @ q_vectors
    assert np.abs(np.abs(np.diag(cross)) ** 2 - spec.overlaps).max() < 1e-10
    off = cross - np.diag(np.diag(cross))
    assert np.abs(off).max() < 1e-10
    # simultaneous block structure: Q maps r_k into span{r_k, q_k}
    for j in range(k):
        r_j = r_vectors[:, j]
        q_img = q.project(r_j)
        block = projector_from_columns(np.stack([r_j, q_vectors[:, j]], axis=1))
        assert np.linalg.norm(q_img - block.project(q_img)) < 1e-10
        p_img = p.project(q_vectors[:, j])
        assert np.linalg.norm(p_img - block.project(p_img)) < 1e-10
    # block weights in coordinates are the dense |<r_k|x>|^2
    x = rng.normal(size=40) + 1j * rng.normal(size=40)
    dense = np.abs(r_vectors.conj().T @ x) ** 2
    assert np.abs(spec.block_weights(p.coefficients(x)) - dense).max() < 1e-12


def test_jordan_symmetric_in_arguments():
    rng = np.random.default_rng(21)
    p = _random_projector(rng, 35, 6)
    q = _random_projector(rng, 35, 6)
    a = np.sort(jordan_decompose(p, q).overlaps)
    b = np.sort(jordan_decompose(q, p).overlaps)
    assert np.abs(a - b).max() < 1e-10


def test_overlaps_match_scipy_subspace_angles():
    rng = np.random.default_rng(5)
    p = _random_projector(rng, 50, 4)
    q = _random_projector(rng, 50, 6)
    spec = jordan_decompose(p, q)
    angles = scipy.linalg.subspace_angles(p.basis, q.basis)
    oracle = np.sort(np.cos(angles) ** 2)
    assert np.abs(np.sort(spec.overlaps) - oracle).max() < 1e-10


def test_sandwiched_operators_commute():
    # Q0 R_s Q0 with R_s in {P, 1-P} commute: the nontrivial pair reduces to
    # [A, Q0 - A] with A = Q0 R1 Q0, which vanishes identically
    rng = np.random.default_rng(3)
    dim = 60
    p = _random_projector(rng, dim, 9)
    q = _random_projector(rng, dim, 9)
    eye = np.eye(dim)
    pm = p.basis @ p.basis.conj().T
    q0 = eye - q.basis @ q.basis.conj().T
    ops = [q0 @ pm @ q0, q0 @ (eye - pm) @ q0]
    comm = ops[0] @ ops[1] - ops[1] @ ops[0]
    assert np.abs(comm).max() < 1e-10


def test_verify_overlap_bound_pass_and_fail():
    rng = np.random.default_rng(9)
    p = _random_projector(rng, 30, 3)
    spec = jordan_decompose(p, p)
    report = gp.verify_overlap_bound(spec, kappa_sym=2.0)
    assert report.passed and report.margin > 0
    fake = gp.JordanSpectrum(
        overlaps=np.array([0.9, 0.1]),
        p_rotation=np.eye(2, dtype=complex),
        q_rotation=np.eye(2, dtype=complex),
        rank_p=2,
        rank_q=2,
    )
    with pytest.raises(BoundViolation):
        gp.verify_overlap_bound(fake, kappa_sym=2.0)  # 0.1 < 0.25


def test_spectrum_csv_rows():
    fake = gp.JordanSpectrum(
        overlaps=np.array([1.0, 0.5]),
        p_rotation=np.eye(2, dtype=complex),
        q_rotation=np.eye(2, dtype=complex),
        rank_p=2,
        rank_q=2,
    )
    rows = spectrum_csv_rows(fake, kappa_sym=2.0)
    assert rows[1] == {"block": 1, "d_k": 0.5, "margin": 0.25}


# ---------------------------------------------------------------------------
# Born measurement


def test_born_state_in_range(line):
    basis = np.eye(4, dtype=complex)[:, :2]
    proj = projector_from_columns(basis)
    state = _state(line, basis[:, 0])
    rng = measurement_stream(0)
    out = gp.born_measure(state, proj, rng)
    assert out.inside and out.probability == pytest.approx(1.0)
    assert np.abs(out.state.amplitudes - state.amplitudes).max() < 1e-12


def test_born_state_orthogonal(line):
    basis = np.eye(4, dtype=complex)[:, :2]
    proj = projector_from_columns(basis)
    state = _state(line, np.eye(4, dtype=complex)[:, 3])
    out = gp.born_measure(state, proj, measurement_stream(0))
    assert not out.inside and out.probability == pytest.approx(1.0)


def test_born_45_degree_statistics(line):
    basis = np.array([[1.0], [0.0]], dtype=complex)
    proj = projector_from_columns(basis)
    state = _state(line, np.array([1.0, 1.0], dtype=complex))
    rng = measurement_stream(123)
    trials = 10_000
    inside = sum(gp.born_measure(state, proj, rng).inside for _ in range(trials))
    sigma = np.sqrt(0.25 / trials)
    assert abs(inside / trials - 0.5) < 3 * sigma


def test_born_post_state_in_outcome_subspace(line):
    rng_build = np.random.default_rng(2)
    cols = rng_build.normal(size=(12, 3)) + 1j * rng_build.normal(size=(12, 3))
    proj = projector_from_columns(cols)
    vec = rng_build.normal(size=12) + 1j * rng_build.normal(size=12)
    state = _state(line, vec)
    rng = measurement_stream(4)
    out = gp.born_measure(state, proj, rng)
    assert abs(np.linalg.norm(out.state.amplitudes) - 1.0) < 1e-12
    inside_weight = proj.weight(out.state)
    assert inside_weight == pytest.approx(1.0 if out.inside else 0.0, abs=1e-10)
    # sum rule: the two outcome probabilities add to one
    p_in = proj.weight(state)
    assert out.probability == pytest.approx(p_in if out.inside else 1.0 - p_in, abs=1e-12)


def test_born_idempotent(line):
    rng_build = np.random.default_rng(8)
    cols = rng_build.normal(size=(10, 2)) + 1j * rng_build.normal(size=(10, 2))
    proj = projector_from_columns(cols)
    state = _state(line, rng_build.normal(size=10) + 1j * rng_build.normal(size=10))
    rng = measurement_stream(99)
    first = gp.born_measure(state, proj, rng)
    second = gp.born_measure(first.state, proj, rng)
    assert second.inside == first.inside
    assert second.probability == pytest.approx(1.0)


def test_born_consumes_one_draw_per_call(line):
    # replay alignment: deterministic outcomes still consume the stream
    basis = np.eye(4, dtype=complex)[:, :1]
    proj = projector_from_columns(basis)
    state = _state(line, basis[:, 0])
    rng_a = measurement_stream(7)
    gp.born_measure(state, proj, rng_a)  # probability exactly 1
    rng_b = measurement_stream(7)
    rng_b.random()
    assert rng_a.random() == rng_b.random()


def test_born_leaves_input_state_unchanged(line):
    # the collapse happens in a fresh buffer on both outcomes; a write into
    # the read-only input would raise
    rng_build = np.random.default_rng(3)
    cols = rng_build.normal(size=(12, 3)) + 1j * rng_build.normal(size=(12, 3))
    proj = projector_from_columns(cols)
    state = _state(line, rng_build.normal(size=12) + 1j * rng_build.normal(size=12))
    state.amplitudes.setflags(write=False)
    before = state.amplitudes.copy()
    rng = measurement_stream(5)
    outcomes = set()
    for _ in range(40):
        out = gp.born_measure(state, proj, rng)
        outcomes.add(out.inside)
        assert np.array_equal(state.amplitudes, before)
        assert not np.shares_memory(out.state.amplitudes, state.amplitudes)
    assert outcomes == {True, False}


def test_born_dimension_mismatch(line):
    proj = projector_from_columns(np.eye(4, dtype=complex)[:, :1])
    state = _state(line, np.ones(5, dtype=complex))
    with pytest.raises(DimensionMismatch):
        gp.born_measure(state, proj, measurement_stream(0))
