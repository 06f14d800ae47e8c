"""Principal-overlap decomposition and Born-rule measurement."""

import numpy as np
import pytest
import scipy.linalg

import gpeps as gp
from gpeps.errors import BoundViolation, DimensionMismatch
from gpeps.lattice import projector_from_columns
from gpeps.protocol import measurement_stream
from gpeps.spectral import jordan_decompose, spectrum_csv_rows


def _random_projector(rng, dim, rank, step=0):
    cols = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    return projector_from_columns(cols, step=step)


def _project(projector, vector):
    return projector.basis @ projector.coefficients(vector)


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
        q_img = _project(q, r_j)
        block = projector_from_columns(np.stack([r_j, q_vectors[:, j]], axis=1))
        assert np.linalg.norm(q_img - _project(block, q_img)) < 1e-10
        p_img = _project(p, q_vectors[:, j])
        assert np.linalg.norm(p_img - _project(block, p_img)) < 1e-10
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
# Born measurement in Jordan-block coordinates


def _spectrum(overlaps):
    k = len(overlaps)
    return gp.JordanSpectrum(
        overlaps=np.asarray(overlaps, dtype=float),
        p_rotation=np.eye(k, dtype=complex),
        q_rotation=np.eye(k, dtype=complex),
        rank_p=k,
        rank_q=k,
    )


def _block_state(vec):
    vec = np.asarray(vec, dtype=complex)
    return vec / np.linalg.norm(vec)


def _random_block_state(rng, k):
    return _block_state(rng.normal(size=(2, k)) + 1j * rng.normal(size=(2, k)))


def _weight_along(axis, state):
    return float(np.sum(np.abs(np.sum(axis * state, axis=0)) ** 2))


def test_axes_are_unit_block_vectors():
    spec = _spectrum([1.0, 0.7, 0.25, 0.0])
    assert np.array_equal(spec.p_axis, [[1, 1, 1, 1], [0, 0, 0, 0]])
    assert np.abs(np.sum(spec.q_axis**2, axis=0) - 1.0).max() < 1e-15
    assert np.abs(spec.q_axis[0] ** 2 - spec.overlaps).max() < 1e-15


def test_born_state_in_range():
    rng_build = np.random.default_rng(1)
    state = _block_state(np.stack([rng_build.normal(size=3) + 1j, np.zeros(3)]))
    inside, post, probability = gp.born_measure(state, _spectrum([0.3, 0.6, 0.9]).p_axis,
                                                measurement_stream(0))
    assert inside and probability == pytest.approx(1.0)
    assert np.abs(post - state).max() < 1e-12


def test_born_state_orthogonal():
    state = _block_state([[0.0, 0.0], [1.0, 2.0j]])
    inside, post, probability = gp.born_measure(state, _spectrum([0.3, 0.6]).p_axis,
                                                measurement_stream(0))
    assert not inside and probability == pytest.approx(1.0)
    assert np.abs(post - state).max() < 1e-12


def test_born_45_degree_statistics():
    axis = _spectrum([0.5]).q_axis  # q at 45 degrees to r
    state = _block_state([[1.0], [0.0]])
    rng = measurement_stream(123)
    trials = 10_000
    inside = sum(gp.born_measure(state, axis, rng)[0] for _ in range(trials))
    sigma = np.sqrt(0.25 / trials)
    assert abs(inside / trials - 0.5) < 3 * sigma


def test_born_post_state_in_outcome_subspace():
    rng_build = np.random.default_rng(2)
    rng = measurement_stream(4)
    for _ in range(6):
        spec = _spectrum(rng_build.uniform(size=3))
        state = _random_block_state(rng_build, 3)
        for axis in (spec.p_axis, spec.q_axis):
            inside, post, probability = gp.born_measure(state, axis, rng)
            assert abs(np.linalg.norm(post) - 1.0) < 1e-12
            assert _weight_along(axis, post) == pytest.approx(float(inside), abs=1e-12)
            # sum rule: the two outcome probabilities add to one
            p_in = _weight_along(axis, state)
            assert probability == pytest.approx(p_in if inside else 1.0 - p_in, abs=1e-12)


def test_born_matches_dense_projectors():
    # the block coordinates of span{r_k, e_k}: the same probabilities and
    # post-states as the dense projectors of P and Q
    rng = np.random.default_rng(17)
    p = _random_projector(rng, 40, 5)
    q = _random_projector(rng, 40, 5, step=1)
    spec = jordan_decompose(p, q)
    r_vectors = p.basis @ spec.p_rotation
    q_vectors = q.basis @ spec.q_rotation
    s, c = spec.q_axis
    e_vectors = (q_vectors - s * r_vectors) / c
    state = _random_block_state(rng, 5)
    dense = r_vectors @ state[0] + e_vectors @ state[1]
    for axis, proj in ((spec.p_axis, p), (spec.q_axis, q)):
        for seed in range(8):
            inside, post, probability = gp.born_measure(state, axis, measurement_stream(seed))
            inside_part = _project(proj, dense)
            p_in = np.vdot(inside_part, inside_part).real
            assert probability == pytest.approx(p_in if inside else 1.0 - p_in, abs=1e-12)
            part = inside_part if inside else dense - inside_part
            rebuilt = r_vectors @ post[0] + e_vectors @ post[1]
            assert np.abs(rebuilt - part / np.sqrt(probability)).max() < 1e-12


def test_born_idempotent():
    rng_build = np.random.default_rng(8)
    spec = _spectrum(rng_build.uniform(size=2))
    state = _random_block_state(rng_build, 2)
    rng = measurement_stream(99)
    for axis in (spec.p_axis, spec.q_axis):
        first = gp.born_measure(state, axis, rng)
        second = gp.born_measure(first[1], axis, rng)
        assert second[0] == first[0]
        assert second[2] == pytest.approx(1.0)


def test_born_consumes_one_draw_per_call():
    # replay alignment: deterministic outcomes still consume the stream
    state = _block_state([[1.0], [0.0]])
    rng_a = measurement_stream(7)
    gp.born_measure(state, _spectrum([0.5]).p_axis, rng_a)  # probability exactly 1
    rng_b = measurement_stream(7)
    rng_b.random()
    assert rng_a.random() == rng_b.random()


class _FixedDraw:
    def __init__(self, value):
        self.value, self.calls = value, 0

    def random(self):
        self.calls += 1
        return self.value


def test_born_forces_outcomes_within_exact_tolerance():
    # probabilities within PROB_EXACT_TOL of 1 or 0 ignore the draw
    from gpeps.spectral import PROB_EXACT_TOL

    axis = _spectrum([0.5]).p_axis
    tiny = 0.5 * PROB_EXACT_TOL
    near_one = _block_state([[np.sqrt(1.0 - tiny)], [np.sqrt(tiny)]])
    rng = _FixedDraw(np.nextafter(1.0, 0.0))
    assert gp.born_measure(near_one, axis, rng)[0]
    near_zero = _block_state([[np.sqrt(tiny)], [np.sqrt(1.0 - tiny)]])
    rng = _FixedDraw(0.0)
    assert not gp.born_measure(near_zero, axis, rng)[0]
    assert rng.calls == 1


def test_born_leaves_input_state_unchanged():
    # the collapse happens in a fresh buffer on both outcomes; a write into
    # the read-only input would raise
    rng_build = np.random.default_rng(3)
    state = _random_block_state(rng_build, 3)
    axis = _spectrum(rng_build.uniform(size=3)).q_axis
    state.setflags(write=False)
    before = state.copy()
    rng = measurement_stream(5)
    outcomes = set()
    for _ in range(40):
        inside, post, _ = gp.born_measure(state, axis, rng)
        outcomes.add(inside)
        assert np.array_equal(state, before)
        assert not np.shares_memory(post, state)
    assert outcomes == {True, False}


def test_born_dimension_mismatch():
    state = _block_state(np.ones((2, 5)))
    with pytest.raises(DimensionMismatch):
        gp.born_measure(state, _spectrum([0.5] * 4).q_axis, measurement_stream(0))


def test_born_block_with_full_overlap():
    # d_k = 1 (c_k = 0): q_k = r_k, the block is one-dimensional and
    # beta_k never leaves 0
    spec = _spectrum([1.0, 0.5])
    assert np.array_equal(spec.q_axis[:, 0], [1.0, 0.0])
    alone = _block_state([[1.0, 0.0], [0.0, 0.0]])
    inside, post, probability = gp.born_measure(alone, spec.q_axis, measurement_stream(0))
    assert inside and probability == 1.0
    assert np.array_equal(post, alone)
    rng = measurement_stream(2)
    state = _block_state([[1.0, 1.0j], [0.0, 0.0]])
    outcomes = set()
    for _ in range(30):
        inside, post, _ = gp.born_measure(state, spec.q_axis, rng)
        outcomes.add(inside)
        assert post[1, 0] == 0.0
        if not inside:
            assert post[0, 0] == 0.0  # the failure leaves the d = 1 block empty
    assert outcomes == {True, False}


def test_born_block_with_zero_overlap():
    # d_k = 0 (s_k = 0): q_k = e_k is orthogonal to range(P)
    spec = _spectrum([0.0, 0.5])
    assert np.array_equal(spec.q_axis[:, 0], [0.0, 1.0])
    alone = _block_state([[1.0, 0.0], [0.0, 0.0]])
    inside, post, probability = gp.born_measure(alone, spec.q_axis, measurement_stream(0))
    assert not inside and probability == 1.0
    assert np.array_equal(post, alone)
    rng = measurement_stream(3)
    state = _block_state([[1.0, 1.0j], [0.0, 0.0]])
    outcomes = set()
    for _ in range(30):
        inside, post, _ = gp.born_measure(state, spec.q_axis, rng)
        outcomes.add(inside)
        if inside:
            assert post[0, 0] == 0.0 and post[1, 0] == 0.0
        else:
            assert post[1, 0] == 0.0 and abs(post[0, 0]) > 0.5
    assert outcomes == {True, False}
