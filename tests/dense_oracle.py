"""Dense trial path, kept as the test oracle of the block-coordinate trials.

Every measurement here reads a ``(dim, rank)`` ground-space basis and
collapses a full ``sym_dim**N`` state vector; :func:`block_monitor`
builds the dense principal vectors and checks that the state never leaves
the principal blocks occupied on entry.  The package runs the same trials
in Jordan-block coordinates; these functions give the reference bits,
measurement counts, fidelities and block weights they must reproduce.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from gpeps.errors import BoundViolation, DimensionMismatch
from gpeps.lattice import (
    GroundProjector,
    StateVector,
    contract_isometric_state,
    projector_from_columns,
)
from gpeps.protocol import (
    CONTAINMENT_TOL,
    OCCUPATION_TOL,
    SUCCESS_FIDELITY_TOL,
    PreparedProtocol,
    ProtocolConfig,
    ProtocolTrace,
    StepRecord,
    measurement_stream,
)
from gpeps.spectral import PROB_EXACT_TOL


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


def born_measure(
    state: StateVector, projector: GroundProjector, rng: np.random.Generator
) -> MeasurementOutcome:
    """Measure {P, 1-P} on a normalized dense state.

    One uniform draw per call, the same ``PROB_EXACT_TOL`` forcing and the
    same reciprocal-norm scaling as the block-coordinate measurement; the
    input state is never written.
    """
    if projector.dim != state.dim:
        raise DimensionMismatch(f"projector dim {projector.dim} vs state dim {state.dim}")
    coeff = projector.coefficients(state.amplitudes)
    post = projector.basis @ coeff
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
    previous, target = prepared.projectors[t : t + 2]
    spectrum = prepared.spectra[t]
    weights = spectrum.block_weights(previous.coefficients(entering.amplitudes))
    occupied = weights > OCCUPATION_TOL
    r_vectors = previous.basis @ spectrum.p_rotation[:, occupied]
    q_vectors = target.basis @ spectrum.q_rotation[:, occupied]
    # rank-revealing: d_k = 1 blocks are 1-dim
    blocks = projector_from_columns(np.concatenate([r_vectors, q_vectors], axis=1))
    d_min_occ = spectrum.d_min_occupied(weights)

    def check(state: StateVector, forward_probability: float | None) -> None:
        inside = blocks.basis @ blocks.coefficients(state.amplitudes)
        leak = float(np.linalg.norm(state.amplitudes - inside))
        if leak > CONTAINMENT_TOL:
            raise BoundViolation(f"state left its principal blocks (leak {leak:.3e})")
        if forward_probability is not None and forward_probability < d_min_occ - 1e-9:
            raise BoundViolation(
                f"forward probability {forward_probability:.6e} fell below "
                f"occupied d_min {d_min_occ:.6e}"
            )

    return check


def _weight(projector: GroundProjector, state: StateVector) -> float:
    """Squared norm of the component of ``state`` inside the projector."""
    return float(np.linalg.norm(projector.coefficients(state.amplitudes)) ** 2)


def run_step(
    state: StateVector,
    previous: GroundProjector,
    target: GroundProjector,
    m: int,
    rng: np.random.Generator,
    monitor=None,
) -> tuple[bool, list[int], int, StateVector]:
    """One dense growth step: forward attempt, then rewind/forward pairs."""
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
    rng = measurement_stream(config.seed, trial)
    state = initial_state(config)
    steps: list[StepRecord] = []
    total = 0
    failed_step: int | None = None
    for t in range(prepared.n_steps):
        monitor = block_monitor(prepared, t, state) if config.check_invariants else None
        success, bits, used, state = run_step(
            state, *prepared.projectors[t : t + 2], prepared.m, rng, monitor=monitor
        )
        total += len(bits)
        steps.append(StepRecord(step=t + 1, bits=tuple(bits), forward_count=used, success=success))
        if not success:
            failed_step = t + 1
            break
    coefficients = prepared.projectors[prepared.n_steps].coefficients(state.amplitudes)
    fidelity = float(np.linalg.norm(coefficients) ** 2)
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
        final_block_weights=tuple(float(x) for x in np.abs(coefficients) ** 2),
    )
