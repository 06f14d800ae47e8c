"""Measure/rewind protocol, failure law, repetition rule."""

import numpy as np
import pytest

import gpeps as gp
from gpeps.errors import (
    BoundViolation,
    InvalidEpsilon,
    StateOutsideProjector,
    UnnormalizedWeights,
)
from gpeps.lattice import projector_from_columns
from gpeps.protocol import (
    aggregate_step_stats,
    analytic_pfail,
    curve_from_spectrum,
    estimate_repetitions,
    pfail_bound,
    prepare_protocol,
    run_protocol,
    trace_to_dict,
)
from gpeps.spectral import jordan_decompose

from dense_oracle import empirical_step_failures


@pytest.fixture(scope="module")
def z2_protocol(z2, lat22):
    _, _, tensor = z2
    defs = tuple(gp.random_deformation(tensor, 2.0, seed=100 + v, site=v) for v in range(4))
    config = gp.ProtocolConfig(
        lattice=lat22, tensor=tensor, deformations=defs, epsilon=0.1, m_policy="auto", seed=11
    )
    return prepare_protocol(config)


def _dense_entering(prepared, t):
    """Oracle: the canonical entering state of step ``t``, rebuilt densely."""
    config = prepared.config
    initial = gp.contract_isometric_state(config.lattice, config.tensor)
    return gp.partial_peps_state(initial, config.deformations, t=t)


def test_estimate_repetitions_frozen_values():
    assert estimate_repetitions(4, 1.0, 0.1) == 20
    assert estimate_repetitions(1, 1.0, 0.5) == 1
    assert estimate_repetitions(4, 2.0, 0.1) == 80


def test_estimate_repetitions_invalid_epsilon():
    for eps in [0.0, 1.0, -0.2, 1.5]:
        with pytest.raises(InvalidEpsilon):
            estimate_repetitions(4, 1.0, eps)


def test_analytic_pfail_closed_form():
    assert analytic_pfail([1.0], [1.0], 5) == 0.0
    assert analytic_pfail([0.5], [1.0], 1) == pytest.approx(0.25)  # (1-d)(1-2d(1-d))
    with pytest.raises(UnnormalizedWeights):
        analytic_pfail([0.5, 0.5], [0.7, 0.7], 1)


@pytest.mark.parametrize("seed", range(8))
def test_pfail_below_bound_property(seed):
    # property: the closed form never exceeds 1/(2 d_min m)
    rng = np.random.default_rng(seed)
    k = rng.integers(1, 6)
    d = rng.uniform(0.01, 1.0, size=k)
    w = rng.dirichlet(np.ones(k))
    d_min = d.min()
    for m in range(1, 101):
        assert analytic_pfail(d, w, m) <= pfail_bound(d_min, m) + 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_pfail_monotone_in_m(seed):
    rng = np.random.default_rng(100 + seed)
    d = rng.uniform(0.0, 1.0, size=4)
    w = rng.dirichlet(np.ones(4))
    values = [analytic_pfail(d, w, m) for m in range(1, 60)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_pfail_bound_zero_dmin():
    assert pfail_bound(0.0, 10) == np.inf


def _trials(prepared, count):
    return [run_protocol(prepared, trial=k) for k in range(count)]


def test_identity_protocol_first_try(z2, lat22):
    _, _, tensor = z2
    ident = tuple(gp.identity_deformation(tensor, site=v) for v in range(4))
    config = gp.ProtocolConfig(
        lattice=lat22, tensor=tensor, deformations=ident, epsilon=0.5, m_policy="auto", seed=1
    )
    trace = run_protocol(prepare_protocol(config))
    assert trace.success
    assert trace.total_measurements == 4  # one forward success per vertex
    assert all(record.bits == (1,) for record in trace.steps)
    assert trace.final_fidelity > 1.0 - 1e-12


def test_protocol_success_and_fidelity(z2_protocol):
    traces = _trials(z2_protocol, 200)
    frac = np.mean([t.success for t in traces])
    assert frac >= 1.0 - z2_protocol.config.epsilon - 3 * np.sqrt(0.1 * 0.9 / 200)
    for t in traces:
        if t.success:
            assert t.final_fidelity >= 1.0 - 1e-8
            assert len(t.steps) == 4
        assert sum(w for w in t.final_block_weights) <= 1.0 + 1e-9
        for record in t.steps:
            # alternation: first forward, then (rewind, forward) pairs
            assert len(record.bits) % 2 == 1
            assert record.bits[-1] == int(record.success)
            assert record.forward_count == (len(record.bits) + 1) // 2


def test_protocol_replay_deterministic(z2_protocol):
    a = run_protocol(z2_protocol, trial=17)
    b = run_protocol(z2_protocol, trial=17)
    assert trace_to_dict(a) == trace_to_dict(b)
    c = run_protocol(z2_protocol, trial=18)
    assert trace_to_dict(c) != trace_to_dict(a)


def test_trials_leave_initial_state_unchanged_in_any_order(z2_protocol):
    def snapshot():
        return [y.copy() for y in z2_protocol.entering] + [
            p.basis.copy() for p in z2_protocol.projectors
        ]

    before = snapshot()
    forward = [trace_to_dict(tr) for tr in _trials(z2_protocol, 30)]
    assert any(tr["steps"][0]["bits"][0] == 0 for tr in forward)  # both outcomes on it
    assert all(map(np.array_equal, snapshot(), before))
    backward = [trace_to_dict(run_protocol(z2_protocol, trial=k)) for k in reversed(range(30))]
    assert backward[::-1] == forward
    assert all(map(np.array_equal, snapshot(), before))


def test_step_exhaustion_recorded(z2, lat22):
    _, _, tensor = z2
    defs = tuple(gp.random_deformation(tensor, 8.0, seed=300 + v, site=v) for v in range(4))
    config = gp.ProtocolConfig(
        lattice=lat22, tensor=tensor, deformations=defs, epsilon=0.1, m_policy=1, seed=2
    )
    prepared = prepare_protocol(config)
    failing = None
    for trial in range(200):
        trace = run_protocol(prepared, trial=trial)
        if not trace.success:
            failing = trial
            assert trace.failed_step == len(trace.steps)
            assert trace.steps[-1].bits == (0,)  # single forward attempt, failed
            break
    assert failing is not None, "expected at least one failure with m = 1"


def test_invariant_monitor_clean(z2_protocol):
    config = gp.ProtocolConfig(
        lattice=z2_protocol.config.lattice,
        tensor=z2_protocol.config.tensor,
        deformations=z2_protocol.config.deformations,
        epsilon=0.1,
        m_policy=4,
        seed=77,
        check_invariants=True,
    )
    prepared = prepare_protocol(config)
    for trial in range(50):
        run_protocol(prepared, trial=trial)  # BoundViolation would propagate


def test_invariant_check_flags_each_violation():
    from gpeps.protocol import _enter, _invariant_check

    spectrum = gp.JordanSpectrum(
        overlaps=np.array([0.9, 0.5]), p_rotation=np.eye(2, dtype=complex),
        q_rotation=np.eye(2, dtype=complex), rank_p=2, rank_q=2,
    )
    entering = _enter(spectrum, np.array([1.0, 0.0]))  # block 1 unoccupied
    check = _invariant_check(spectrum, entering)
    check(entering, True)  # forward probability 0.9, the occupied d_min
    leaked = np.array([[1.0, 1e-3], [0.0, 0.0]]) / np.sqrt(1.0 + 1e-6)
    with pytest.raises(BoundViolation, match="unoccupied"):
        check(leaked, False)
    with pytest.raises(BoundViolation, match="norm"):
        check(1.001 * entering, False)
    orthogonal_to_q = np.array([[np.sqrt(0.1), 0.0], [-np.sqrt(0.9), 0.0]])
    check(orthogonal_to_q, False)
    with pytest.raises(BoundViolation, match="forward probability"):
        check(orthogonal_to_q, True)


def test_protocol_epsilon_validation(z2, lat22):
    _, _, tensor = z2
    ident = tuple(gp.identity_deformation(tensor, site=v) for v in range(4))
    with pytest.raises(InvalidEpsilon):
        prepare_protocol(
            gp.ProtocolConfig(lattice=lat22, tensor=tensor, deformations=ident, epsilon=1.5)
        )


def test_failure_curve_identity_is_zero(z2, lat22):
    _, _, tensor = z2
    ident = tuple(gp.identity_deformation(tensor, site=v) for v in range(4))
    prepared = prepare_protocol(
        gp.ProtocolConfig(lattice=lat22, tensor=tensor, deformations=ident, epsilon=0.1)
    )
    curve = curve_from_spectrum(prepared.spectra[0], prepared.entering[0], m_max=20)
    assert np.abs(curve.pfail).max() < 1e-12
    assert curve.d_min == pytest.approx(1.0)


def test_failure_curve_requires_state_in_ground_space(z2_protocol):
    rng = np.random.default_rng(1)
    dim = z2_protocol.projectors[0].dim
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    random_state = gp.StateVector(
        lattice=z2_protocol.config.lattice, site_dim=8, amplitudes=vec / np.linalg.norm(vec)
    )
    p_0 = z2_protocol.projectors[0]
    with pytest.raises(StateOutsideProjector):
        curve_from_spectrum(z2_protocol.spectra[0], p_0.coefficients(random_state.amplitudes))
    # the canonical entering state of a later step lies outside P_0 too
    later = _dense_entering(z2_protocol, 2)
    with pytest.raises(StateOutsideProjector):
        curve_from_spectrum(z2_protocol.spectra[0], p_0.coefficients(later.amplitudes))


def test_failure_curve_rejects_rank_drop(z2_protocol):
    # range(P_0) is only partly covered by the principal directions when the
    # next ground space has a smaller rank: a rank error, not an outside state
    p_0 = z2_protocol.projectors[0]
    smaller = projector_from_columns(p_0.basis[:, :1], step=1)
    spectrum = jordan_decompose(p_0, smaller)
    assert (spectrum.rank_p, spectrum.rank_q) == (4, 1)
    with pytest.raises(BoundViolation, match="rank"):
        curve_from_spectrum(spectrum, z2_protocol.entering[0])


def test_failure_curve_below_bound(z2_protocol):
    for t in range(4):
        curve = curve_from_spectrum(z2_protocol.spectra[t], z2_protocol.entering[t], m_max=100)
        assert np.all(curve.pfail <= curve.bound + 1e-12)
        assert np.all(np.diff(curve.pfail) <= 1e-15)


def test_empirical_step_failures_match_curve(z2_protocol):
    trials = 600
    entering = _dense_entering(z2_protocol, 1)
    curve = curve_from_spectrum(z2_protocol.spectra[1], z2_protocol.entering[1], m_max=3)
    for m in [1, 3]:
        fails = empirical_step_failures(z2_protocol, 1, m, trials, entering)
        p = curve.pfail[m - 1]
        sigma = np.sqrt(max(p * (1 - p), 1e-9) / trials)
        assert abs(fails / trials - p) <= 3 * sigma


def test_empirical_step_failures_rejects_state_outside(z2_protocol):
    later = _dense_entering(z2_protocol, 2)  # outside P_0
    with pytest.raises(StateOutsideProjector):
        empirical_step_failures(z2_protocol, 0, 1, 10, later)


def test_aggregate_step_stats(z2_protocol):
    traces = _trials(z2_protocol, 50)
    rows = aggregate_step_stats(z2_protocol, traces)
    assert [row["step"] for row in rows] == [1, 2, 3, 4]
    for row in rows:
        assert row["m"] == z2_protocol.m
        assert 0.0 <= row["empirical_fail"] <= 1.0
        assert row["analytic_fail"] <= row["bound"] + 1e-12
        assert row["kappa"] == pytest.approx(2.0, rel=0.01)


@pytest.fixture(scope="module")
def z3_protocol(z3, lat22):
    _, _, tensor = z3
    defs = tuple(gp.random_deformation(tensor, 2.0, seed=40 + v, site=v) for v in range(4))
    config = gp.ProtocolConfig(
        lattice=lat22, tensor=tensor, deformations=defs, epsilon=0.1, m_policy=80, seed=1,
        check_invariants=True,
    )
    return prepare_protocol(config)


@pytest.mark.parametrize("name", ["z2_protocol", "z3_protocol"])
def test_entering_coordinates_match_dense_oracle(name, request):
    prepared = request.getfixturevalue(name)
    assert len(prepared.entering) == prepared.n_steps
    for t, coordinates in enumerate(prepared.entering):
        p_t = prepared.projectors[t]
        oracle = p_t.coefficients(_dense_entering(prepared, t).amplitudes)
        assert coordinates.shape == (p_t.rank,)
        assert np.abs(coordinates - oracle).max() < 1e-12, t
        spectrum = prepared.spectra[t]
        assert spectrum.p_rotation.shape[0] == p_t.rank
        assert spectrum.q_rotation.shape[0] == prepared.projectors[t + 1].rank


@pytest.mark.parametrize("name", ["z2_protocol", "z3_protocol"])
def test_analytic_fail_matches_dense_law(name, request):
    # the law from coordinates against |<r_k|x>|^2 with dense principal vectors
    prepared = request.getfixturevalue(name)
    rows = aggregate_step_stats(prepared, [])
    for t, row in enumerate(rows):
        r_vectors = prepared.projectors[t].basis @ prepared.spectra[t].p_rotation
        entering = _dense_entering(prepared, t).amplitudes
        weights = np.abs(r_vectors.conj().T @ entering) ** 2
        dense = analytic_pfail(prepared.spectra[t].overlaps, weights, prepared.m)
        assert row["analytic_fail"] == pytest.approx(dense, rel=1e-12, abs=0.0), t


def test_invariant_monitor_clean_z3(z3_protocol):
    for trial in range(3):
        trace = run_protocol(z3_protocol, trial=trial)  # BoundViolation would propagate
        assert trace.success


def test_trivial_group_runs_injective_protocol(lat22):
    # injective PEPS = trivial-group case: rank-1 ground spaces throughout,
    # starting from the plain product of entangled pairs
    rep = gp.semi_regular_rep(gp.build_group("trivial"), {"trivial": 2})
    tensor = gp.build_site_tensor(rep)
    defs = tuple(gp.random_deformation(tensor, 2.0, seed=700 + v, site=v) for v in range(4))
    config = gp.ProtocolConfig(
        lattice=lat22, tensor=tensor, deformations=defs, epsilon=0.25, m_policy="auto", seed=8
    )
    prepared = prepare_protocol(config)
    assert all(p.rank == 1 for p in prepared.projectors)
    traces = _trials(prepared, 60)
    frac = np.mean([t.success for t in traces])
    assert frac >= 0.75 - 3 * np.sqrt(0.25 * 0.75 / 60)
    assert all(t.final_fidelity >= 1.0 - 1e-8 for t in traces if t.success)


def test_deformation_count_validated(z2, lat22):
    _, _, tensor = z2
    with pytest.raises(ValueError):
        prepare_protocol(
            gp.ProtocolConfig(
                lattice=lat22,
                tensor=tensor,
                deformations=(gp.identity_deformation(tensor),),
                epsilon=0.1,
            )
        )


def test_singular_deformation_rejected(z2, lat22):
    from gpeps.errors import SingularOnSymmetric

    _, _, tensor = z2
    singular = np.eye(tensor.sym_dim, dtype=complex)
    singular[0, 0] = 0.0
    defs = [gp.identity_deformation(tensor, site=v) for v in range(4)]
    defs[2] = gp.Deformation(site=2, matrix=singular, kappa_sym=np.inf)
    with pytest.raises(SingularOnSymmetric):
        prepare_protocol(
            gp.ProtocolConfig(lattice=lat22, tensor=tensor, deformations=tuple(defs), epsilon=0.1)
        )
