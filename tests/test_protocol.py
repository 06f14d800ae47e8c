"""Measure/rewind protocol, failure law, repetition rule."""

import itertools

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
from gpeps import protocol
from gpeps.protocol import (
    _enter,
    _run_step,
    aggregate_step_stats,
    analytic_pfail,
    curve_from_spectrum,
    estimate_repetitions,
    pfail_bound,
    prepare_protocol,
    run_protocol,
    trace_to_dict,
)
from gpeps.spectral import JordanSpectrum, born_measure, jordan_decompose

from dense_oracle import coefficients, dense_bases, empirical_step_failures


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
    assert analytic_pfail([0.5], [1.0], 1) == pytest.approx(0.5)  # 1 - d: one forward attempt
    with pytest.raises(UnnormalizedWeights):
        analytic_pfail([0.5, 0.5], [0.7, 0.7], 1)


@pytest.mark.parametrize("overlap", [-0.1, 1.5])
def test_analytic_pfail_overlap_out_of_range_is_a_bound_violation(overlap):
    # overlaps are clamped squared singular values, so only a bug gives these
    with pytest.raises(BoundViolation, match=r"\[0, 1\]"):
        analytic_pfail([overlap], [1.0], 1)


class _ScriptedDraws:
    """Draws that ask each measurement to fire (0.0) or not (just below 1)."""

    def __init__(self, fire):
        self._draws = iter([0.0 if bit else np.nextafter(1.0, 0.0) for bit in fire])

    def random(self):
        return next(self._draws)


def _enumerated_pfail(overlaps, weights, m, monkeypatch):
    """Failure probability of ``_run_step`` from its whole outcome tree: every
    branch is forced by scripted draws, and weighted by the probabilities
    that ``born_measure`` returns along it."""
    k = len(overlaps)
    spectrum = JordanSpectrum(
        overlaps=np.asarray(overlaps), p_rotation=np.eye(k), q_rotation=np.eye(k),
        rank_p=k, rank_q=k,
    )
    entering = _enter(spectrum, np.sqrt(np.asarray(weights)).astype(complex))
    probabilities = []

    def recording(state, axis, rng):
        inside, post, probability = born_measure(state, axis, rng)
        probabilities.append(probability)
        return inside, post, probability

    monkeypatch.setattr(protocol, "born_measure", recording)
    branches = {}
    for fire in itertools.product([0, 1], repeat=2 * m - 1):
        probabilities.clear()
        success, bits, _, _ = _run_step(entering, spectrum, m, _ScriptedDraws(fire))
        branches[tuple(bits)] = (success, float(np.prod(probabilities)))
    assert sum(p for _, p in branches.values()) == pytest.approx(1.0, abs=1e-12)
    return sum(p for success, p in branches.values() if not success)


@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_analytic_pfail_matches_the_outcome_tree(blocks, monkeypatch):
    rng = np.random.default_rng(blocks)
    overlaps = [0.5] if blocks == 1 else rng.uniform(0.05, 0.95, size=blocks)
    weights = [1.0] if blocks == 1 else rng.dirichlet(np.ones(blocks))
    for m in range(1, 5):
        enumerated = _enumerated_pfail(overlaps, weights, m, monkeypatch)
        assert abs(enumerated - analytic_pfail(overlaps, weights, m)) <= 1e-12, m
        if blocks == 1:
            assert enumerated == pytest.approx(0.5**m, abs=1e-12)


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
        final = z2_protocol.projectors[-1].columns.copy()
        return [y.copy() for y in z2_protocol.entering] + [
            p.transform.copy() for p in z2_protocol.projectors
        ] + [final]

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
    p_0 = dense_bases(z2_protocol.config)[0]
    with pytest.raises(StateOutsideProjector):
        curve_from_spectrum(z2_protocol.spectra[0], coefficients(p_0, vec / np.linalg.norm(vec)))
    # the canonical entering state of a later step lies outside P_0 too
    later = _dense_entering(z2_protocol, 2)
    with pytest.raises(StateOutsideProjector):
        curve_from_spectrum(z2_protocol.spectra[0], coefficients(p_0, later.amplitudes))


def test_failure_curve_rejects_rank_drop(z2_protocol):
    # range(P_0) is only partly covered by the principal directions when the
    # next ground space has a smaller rank: a rank error, not an outside state
    p_0 = projector_from_columns(dense_bases(z2_protocol.config)[0], step=0)
    smaller = projector_from_columns(p_0.basis[:, :1], step=1)
    spectrum = jordan_decompose(p_0, smaller)
    assert (spectrum.rank_p, spectrum.rank_q) == (4, 1)
    with pytest.raises(BoundViolation, match="rank"):
        curve_from_spectrum(spectrum, z2_protocol.entering[0])


def test_readout_pass_runs_once_after_the_first_failure(z2, lat22, z2_protocol, monkeypatch):
    # the cross-Grams of failed readouts come from one more pass, which
    # re-contracts the twisted states: never while every trial succeeds,
    # then once per prepared protocol, at its first failed trial
    contractions = []
    contract = protocol.twisted_states
    monkeypatch.setattr(protocol, "twisted_states",
                        lambda *args: contractions.append(args) or contract(*args))
    assert all(trace.success for trace in _trials(z2_protocol, 40))
    assert contractions == []
    _, _, tensor = z2
    defs = tuple(gp.random_deformation(tensor, 8.0, seed=300 + v, site=v) for v in range(4))
    failing = prepare_protocol(gp.ProtocolConfig(
        lattice=lat22, tensor=tensor, deformations=defs, epsilon=0.1, m_policy=2, seed=1,
    ))  # trial 0 succeeds, trial 1 fails
    assert len(contractions) == 1  # the preparation's own contraction
    successes, passes = [], []
    for k in range(40):
        successes.append(run_protocol(failing, trial=k).success)
        passes.append(len(contractions) - 1)  # readout passes so far
    first = successes.index(False)
    assert first > 0
    assert passes == [0] * first + [1] * (40 - first)
    assert successes.count(False) > 1


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
    bases = dense_bases(prepared.config)
    for t, coordinates in enumerate(prepared.entering):
        p_t = prepared.projectors[t]
        oracle = coefficients(bases[t], _dense_entering(prepared, t).amplitudes)
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
        r_vectors = dense_bases(prepared.config)[t] @ prepared.spectra[t].p_rotation
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
