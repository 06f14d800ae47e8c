"""Dense trial path, kept as the test oracle of the block-coordinate trials.

Every measurement here reads a ``(dim, rank)`` ground-space basis and
collapses a full ``sym_dim**N`` state vector.  The package never builds
these bases; :func:`dense_bases` builds them here, one
:func:`gpeps.lattice.ground_projector` per step, in the gauge of the
prepared protocol's transforms.  :func:`block_monitor` builds the dense
principal vectors and checks that the state never leaves the principal
blocks occupied on entry.  The package runs the same trials in
Jordan-block coordinates; these functions give the reference bits,
measurement counts, fidelities and block weights they must reproduce.

Two helpers that only tests need live here too: :func:`decompress_state`
embeds a compressed state into the ambient virtual-leg space, and
:func:`empirical_step_failures` runs Monte Carlo chains of one isolated
step.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from gpeps.caps import check_amplitudes
from gpeps.errors import BoundViolation, StateOutsideProjector
from gpeps.lattice import (
    StateVector,
    contract_isometric_state,
    ground_projector,
    projector_from_columns,
    twisted_states,
)
from gpeps.protocol import (
    CONTAINMENT_TOL,
    OCCUPATION_TOL,
    SUCCESS_FIDELITY_TOL,
    PreparedProtocol,
    ProtocolConfig,
    ProtocolTrace,
    StepRecord,
    _enter,
    _run_step,
    measurement_stream,
)
from gpeps.spectral import PROB_EXACT_TOL
from gpeps.tensors import SiteTensor

STEP_STREAM_OFFSET = 1_000_000  # isolated-step chains use trial streams from here on


@dataclass(frozen=True, eq=False)
class MeasurementOutcome:
    """Result of one binary projective measurement."""

    inside: bool
    state: StateVector
    probability: float


@functools.lru_cache(maxsize=4)
def initial_state(config: ProtocolConfig) -> StateVector:
    """The contracted untwisted state every dense trial of ``config`` starts
    from: the row of the twisted states that the prepared protocol reads its
    entering coordinates from."""
    return contract_isometric_state(config.lattice, config.tensor)


def dense_bases(config: ProtocolConfig) -> list[np.ndarray]:
    """The orthonormal bases of ``P_0 .. P_N`` for ``config``'s instance,
    each from its own :func:`ground_projector`: the same stack bits and so
    the same transform as the prepared protocol's pass."""
    return _dense_bases(config.lattice, config.tensor, config.deformations)


@functools.lru_cache(maxsize=1)  # one instance's bases: 383 MB on Z3 2x2
def _dense_bases(lattice, tensor, deformations) -> list[np.ndarray]:
    twisted = twisted_states(lattice, tensor)
    return [
        ground_projector(lattice, twisted, deformations, t).basis
        for t in range(lattice.n_vertices + 1)
    ]


def coefficients(basis: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """``basis^H vector``, conjugating the vector instead of the basis."""
    return (vector.conj() @ basis).conj()


def born_measure(
    state: StateVector, basis: np.ndarray, rng: np.random.Generator
) -> MeasurementOutcome:
    """Measure {P, 1-P} on a normalized dense state, for P with ``basis``.

    One uniform draw per call, the same ``PROB_EXACT_TOL`` forcing and the
    same reciprocal-norm scaling as the block-coordinate measurement; the
    input state is never written.
    """
    coeff = coefficients(basis, state.amplitudes)
    post = basis @ coeff
    p_inside = min(float(np.linalg.norm(coeff) ** 2), 1.0)
    draw = rng.random()
    if p_inside >= 1.0 - PROB_EXACT_TOL:
        inside = True
    elif p_inside <= PROB_EXACT_TOL:
        inside = False
    else:
        inside = draw < p_inside
    if inside:
        post *= 1.0 / np.sqrt(p_inside)
        probability = p_inside
    else:
        np.subtract(state.amplitudes, post, out=post)
        post *= 1.0 / np.linalg.norm(post)
        probability = 1.0 - p_inside
    new_state = StateVector(lattice=state.lattice, site_dim=state.site_dim, amplitudes=post)
    return MeasurementOutcome(inside=inside, state=new_state, probability=probability)


def block_monitor(prepared: PreparedProtocol, t: int, entering: StateVector):
    """Dense invariant checks: the state never leaves the principal blocks
    occupied by the entering state, and after a successful rewind its
    forward-success probability is at least the minimum occupied overlap."""
    previous, target = dense_bases(prepared.config)[t : t + 2]
    spectrum = prepared.spectra[t]
    weights = spectrum.block_weights(coefficients(previous, entering.amplitudes))
    occupied = weights > OCCUPATION_TOL
    r_vectors = previous @ spectrum.p_rotation[:, occupied]
    q_vectors = target @ spectrum.q_rotation[:, occupied]
    # rank-revealing: d_k = 1 blocks are 1-dim
    blocks = projector_from_columns(np.concatenate([r_vectors, q_vectors], axis=1)).basis
    d_min_occ = spectrum.d_min_occupied(weights)

    def check(state: StateVector, forward_probability: float | None) -> None:
        inside = blocks @ coefficients(blocks, state.amplitudes)
        leak = float(np.linalg.norm(state.amplitudes - inside))
        if leak > CONTAINMENT_TOL:
            raise BoundViolation(f"state left its principal blocks (leak {leak:.3e})")
        if forward_probability is not None and forward_probability < d_min_occ - 1e-9:
            raise BoundViolation(
                f"forward probability {forward_probability:.6e} fell below "
                f"occupied d_min {d_min_occ:.6e}"
            )

    return check


def _weight(basis: np.ndarray, state: StateVector) -> float:
    """Squared norm of the component of ``state`` inside the span of ``basis``."""
    return float(np.linalg.norm(coefficients(basis, state.amplitudes)) ** 2)


def run_step(
    state: StateVector,
    previous: np.ndarray,
    target: np.ndarray,
    m: int,
    rng: np.random.Generator,
    monitor=None,
) -> tuple[bool, list[int], int, StateVector]:
    """One dense growth step between the spans of two bases: forward
    attempt, then rewind/forward pairs."""
    bits: list[int] = []
    outcome = born_measure(state, target, rng)
    bits.append(int(outcome.inside))
    state = outcome.state
    if monitor is not None:
        monitor(state, None)
    forward_used = 1
    while not outcome.inside and forward_used < m:
        rewind = born_measure(state, previous, rng)
        bits.append(int(rewind.inside))
        state = rewind.state
        if monitor is not None:
            monitor(state, _weight(target, state) if rewind.inside else None)
        outcome = born_measure(state, target, rng)
        bits.append(int(outcome.inside))
        state = outcome.state
        if monitor is not None:
            monitor(state, None)
        forward_used += 1
    return outcome.inside, bits, forward_used, state


def run_protocol(prepared: PreparedProtocol, trial: int = 0) -> ProtocolTrace:
    """One dense trial from the contracted untwisted state; the dense
    monitor runs when the configuration checks invariants."""
    config = prepared.config
    bases = dense_bases(config)
    rng = measurement_stream(config.seed, trial)
    state = initial_state(config)
    steps: list[StepRecord] = []
    total = 0
    failed_step: int | None = None
    for t in range(prepared.n_steps):
        monitor = block_monitor(prepared, t, state) if config.check_invariants else None
        success, bits, used, state = run_step(
            state, *bases[t : t + 2], prepared.m, rng, monitor=monitor
        )
        total += len(bits)
        steps.append(StepRecord(step=t + 1, bits=tuple(bits), forward_count=used, success=success))
        if not success:
            failed_step = t + 1
            break
    final = coefficients(bases[prepared.n_steps], state.amplitudes)
    fidelity = float(np.linalg.norm(final) ** 2)
    success = failed_step is None
    if success and fidelity < 1.0 - SUCCESS_FIDELITY_TOL:
        raise BoundViolation(f"successful run ended outside the target space ({fidelity!r})")
    return ProtocolTrace(
        seed=config.seed,
        trial=trial,
        m=prepared.m,
        steps=tuple(steps),
        total_measurements=total,
        success=success,
        failed_step=failed_step,
        final_fidelity=fidelity,
        final_block_weights=tuple(float(x) for x in np.abs(final) ** 2),
    )


def decompress_state(state: StateVector, tensor: SiteTensor) -> np.ndarray:
    """Embed a compressed state back into the ambient virtual-leg space.

    Applies the symmetric-subspace isometry at every vertex; the result has
    ``(D**4)**N`` amplitudes.
    """
    n_sites = state.lattice.n_vertices
    ambient = tensor.sym_basis.shape[0]
    check_amplitudes(ambient**n_sites, "ambient embedding")
    arr = state.amplitudes
    dims = [state.site_dim] * n_sites
    for v in range(n_sites):
        shaped = arr.reshape(dims)
        arr = np.moveaxis(
            np.tensordot(tensor.sym_basis, shaped, axes=([1], [v])), 0, v
        ).reshape(-1)
        dims[v] = ambient
    return arr


def empirical_step_failures(
    prepared: PreparedProtocol,
    step_index: int,
    m: int,
    trials: int,
    entering_state: StateVector,
) -> int:
    """Monte Carlo failures of one isolated step from a fixed entering state.

    Returns the number of failed chains out of ``trials``.  The entering
    state must lie in the step's first ground space; it is mapped to block
    coordinates once, and chain ``k`` draws from trial stream
    ``STEP_STREAM_OFFSET + k``.
    """
    spectrum = prepared.spectra[step_index]
    basis = dense_bases(prepared.config)[step_index]
    coordinates = coefficients(basis, entering_state.amplitudes)
    inside = float(np.vdot(coordinates, coordinates).real)
    if inside < 1.0 - 1e-10:
        raise StateOutsideProjector(
            f"entering state has weight {inside!r} in the step's first ground space"
        )
    entering = _enter(spectrum, coordinates)
    failures = 0
    for k in range(trials):
        rng = measurement_stream(prepared.config.seed, STEP_STREAM_OFFSET + k)
        success, _, _, _ = _run_step(entering, spectrum, m, rng)
        failures += 0 if success else 1
    return failures
