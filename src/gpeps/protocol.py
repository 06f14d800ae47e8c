"""Vertex-by-vertex measure/rewind preparation of deformed symmetric PEPS.

Starting from the exactly contracted symmetric (undeformed) state, the
protocol grows one vertex per step: it measures the next ground-space
projector, and on failure alternates rewind measurements of the previous
projector with fresh forward attempts, up to ``m`` forward attempts per
step.  The per-step failure probability after ``m`` attempts obeys the
exact closed form

    p_fail(m) = sum_k |c_k|^2 (1 - d_k) (1 - 2 d_k (1 - d_k))**(m - 1)

over the principal-overlap blocks occupied by the entering state: the
first forward attempt fails with probability ``1 - d_k``, and each of the
``m - 1`` rewind/forward pairs after it fails with ``1 - 2 d_k (1 - d_k)``.
It is bounded by ``1 / (2 d_min m)``.  Choosing ``m = ceil(N kappa^2 / 2 eps)``
makes the full run succeed with probability at least ``1 - eps``.  The law
is evaluated in the coordinates of each step's ground-space basis.

Trials run in Jordan-block coordinates (see :mod:`gpeps.spectral`): a
step never leaves the blocks of its two projectors, so one measurement
costs O(r) for ground-space rank r, whatever the size of the lattice.  No
dense basis or state is ever built: the preparation keeps only the final
stack ``X_N``, and a failed trial reads its final coordinates through the
``r x r`` cross-Grams of the final basis with every step's basis, which
the first failed trial computes in one more pass.  The dense trial loop is
kept as a test oracle, not here.

Monte Carlo trials use independent counter-based random streams derived
from the configured seed, so traces replay bit-identically.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BoundViolation, InvalidEpsilon, StateOutsideProjector, UnnormalizedWeights
from .lattice import (
    GroundProjector,
    TorusLattice,
    gram,
    ground_projectors,
    twisted_stacks,
    twisted_states,
)
from .spectral import (
    OCCUPATION_TOL,
    ZERO_OVERLAP_TOL,
    JordanSpectrum,
    born_measure,
    jordan_decompose,
)
from .tensors import Deformation, SiteTensor, condition_number_on_symmetric

WEIGHT_SUM_TOL = 1e-10
SUCCESS_FIDELITY_TOL = 1e-8
CONTAINMENT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ProtocolConfig:
    """Everything needed to replay a protocol run.

    The deformation matrices are written in ``tensor.sym_basis``.
    """

    lattice: TorusLattice
    tensor: SiteTensor
    deformations: tuple[Deformation, ...]
    epsilon: float
    m_policy: int | str = "auto"  # explicit per-step cap, or the repetition rule
    seed: int = 0
    check_invariants: bool = False


@dataclass(frozen=True)
class StepRecord:
    """One grown vertex: outcome bits in measurement order.

    ``bits[0]`` is the first forward attempt; afterwards bits alternate
    (rewind, forward).  1 means the measured projector fired.
    """

    step: int
    bits: tuple[int, ...]
    forward_count: int
    success: bool


@dataclass(frozen=True, eq=False)
class ProtocolTrace:
    seed: int
    trial: int
    m: int
    steps: tuple[StepRecord, ...]
    total_measurements: int
    success: bool
    failed_step: int | None
    final_fidelity: float
    final_block_weights: tuple[float, ...]


@dataclass(frozen=True, eq=False)
class FailureCurve:
    """Exact per-step failure law for one entering state."""

    overlaps: np.ndarray
    weights: np.ndarray
    m_values: np.ndarray
    pfail: np.ndarray
    bound: np.ndarray
    d_min: float


@dataclass(eq=False)
class PreparedProtocol:
    """Projectors, spectra and entering coordinates shared by all trials.

    Only the final projector holds its stack; the others keep their
    ``m x r`` transforms.
    """

    config: ProtocolConfig
    projectors: list[GroundProjector]
    spectra: list[JordanSpectrum]
    entering: list[np.ndarray]  # untwisted state entering step t, in P_t's basis
    m: int
    kappa_max: float
    kappas: list[float]

    @property
    def n_steps(self) -> int:
        return self.config.lattice.n_vertices

    @functools.cached_property
    def final_grams(self) -> list[np.ndarray]:
        """``B_N^H B_t`` for t = 0..N: the cross-Grams of the final basis
        with every step's basis, from one more pass over freshly contracted
        twisted states, advanced in place next to the final stack ``X_N``.
        Only failed trials read them, so the first one runs the pass."""
        config = self.config
        final = self.projectors[-1]
        columns = twisted_states(config.lattice, config.tensor)
        stacks = twisted_stacks(config.lattice, columns, config.deformations, self.n_steps)
        return [
            final.transform.conj().T @ gram(final.columns, stack.T) @ projector.transform
            for projector, stack in zip(self.projectors, stacks)
        ]


def estimate_repetitions(n_vertices: int, kappa: float, epsilon: float) -> int:
    """Per-step forward-measurement budget: ceil(N kappa^2 / (2 eps))."""
    if not 0.0 < epsilon < 1.0:
        raise InvalidEpsilon(f"epsilon must be in (0, 1), got {epsilon}")
    if n_vertices < 1:
        raise ValueError("vertex count must be >= 1")
    if kappa < 1.0:
        raise ValueError("condition number must be >= 1")
    raw = n_vertices * kappa**2 / (2.0 * epsilon)
    # absorb float roundoff so exact integer targets are not bumped up
    return max(1, math.ceil(raw - 1e-12 * max(raw, 1.0)))


def analytic_pfail(overlaps: Sequence[float], weights: Sequence[float], m: int) -> float:
    """Exact probability that m forward attempts of one step all fail:
    the first attempt, then ``m - 1`` rewind/forward pairs."""
    d = np.asarray(overlaps, dtype=float)
    w = np.asarray(weights, dtype=float)
    if d.shape != w.shape:
        raise ValueError("overlaps and weights must have matching shapes")
    if np.any(d < -1e-12) or np.any(d > 1.0 + 1e-12):
        # overlaps are clamped squared singular values: only a bug gets here
        raise BoundViolation(f"overlaps must lie in [0, 1], got range [{d.min()}, {d.max()}]")
    total = float(w.sum())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise UnnormalizedWeights(f"weights sum to {total!r}, expected 1")
    d = np.clip(d, 0.0, 1.0)
    return float(np.sum(w * (1.0 - d) * (1.0 - 2.0 * d * (1.0 - d)) ** (m - 1)))


def pfail_bound(d_min: float, m: int) -> float:
    """Lemma-style upper bound 1 / (2 d_min m); infinite when d_min == 0."""
    if d_min <= 0.0:
        return math.inf
    return 1.0 / (2.0 * d_min * m)


@functools.lru_cache(maxsize=8)
def _philox(seed: int) -> np.random.Philox:
    return np.random.Philox(seed)  # seeding hashes; jumped() leaves it as it is


def measurement_stream(seed: int, trial: int = 0) -> np.random.Generator:
    """Independent counter-based stream for one trial (replayable)."""
    return np.random.Generator(_philox(seed).jumped(trial))


# ---------------------------------------------------------------------------
# preparation (shared across trials)


def _check_rank(spectrum: JordanSpectrum) -> None:
    if spectrum.rank_p > spectrum.rank_q:
        # invertible deformations keep the rank; a drop is a bug signal
        raise BoundViolation(
            f"ground-space rank falls from {spectrum.rank_p} to {spectrum.rank_q}"
        )


def prepare_protocol(config: ProtocolConfig) -> PreparedProtocol:
    """Validate the configuration and precompute projectors and spectra."""
    if not 0.0 < config.epsilon < 1.0:
        raise InvalidEpsilon(f"epsilon must be in (0, 1), got {config.epsilon}")
    lattice = config.lattice
    n = lattice.n_vertices
    if len(config.deformations) != n:
        raise ValueError(
            f"need one deformation per vertex ({n}), got {len(config.deformations)}"
        )
    tensor = config.tensor
    kappas = [
        condition_number_on_symmetric(deformation, tensor)
        for deformation in config.deformations
    ]
    kappa_max = max(kappas)

    twisted = twisted_states(lattice, tensor)
    e = tensor.rep.group.identity
    untwisted = tensor.rep.group.commuting_pairs().index((e, e))
    projectors: list[GroundProjector] = []
    spectra: list[JordanSpectrum] = []
    for projector in ground_projectors(lattice, twisted, config.deformations, range(n + 1)):
        if projectors:  # P_t and P_{t+1} both hold their stacks here
            spectra.append(jordan_decompose(projectors[-1], projector))
            _check_rank(spectra[-1])  # trials assume square P rotations
        projectors.append(projector)
    del twisted  # spent by the pass
    projectors[-2].columns = None  # only X_N stays, for failed-trial readouts

    if config.m_policy == "auto":
        m = estimate_repetitions(n, kappa_max, config.epsilon)
    else:
        m = int(config.m_policy)
        if m < 1:
            raise ValueError(f"per-step cap must be >= 1, got {m}")

    return PreparedProtocol(
        config=config,
        projectors=projectors,
        spectra=spectra,
        entering=[p.column_coordinates[:, untwisted] for p in projectors[:n]],
        m=m,
        kappa_max=kappa_max,
        kappas=kappas,
    )


# ---------------------------------------------------------------------------
# running


def _enter(spectrum: JordanSpectrum, coordinates: np.ndarray) -> np.ndarray:
    """Block coordinates ``(U^H y, 0)`` of the vector with coordinates ``y``
    in the basis of the step's first projector."""
    state = np.zeros((2, spectrum.overlaps.size), dtype=complex)
    state[0] = spectrum.p_rotation.conj().T @ coordinates
    return state


def _final_coordinates(prepared: PreparedProtocol, t: int, state: np.ndarray) -> np.ndarray:
    """Coordinates in the basis of ``P_N`` of the state
    ``sum_k alpha_k r_k + beta_k e_k`` in the blocks of step ``t``: with its
    coordinates ``p`` and ``q`` in the bases of ``P_t`` and ``P_{t+1}``,
    they are ``B_N^H B_t p + B_N^H B_{t+1} q``."""
    spectrum = prepared.spectra[t]
    s, c = spectrum.q_axis
    # beta_k e_k = (beta_k / c_k) (q_k - s_k r_k); beta_k is 0 where c_k is
    along_q = np.divide(state[1], c, out=np.zeros_like(state[1]), where=c > 0.0)
    p_coordinates = spectrum.p_rotation @ (state[0] - s * along_q)
    q_coordinates = spectrum.q_rotation @ along_q
    grams = prepared.final_grams
    return grams[t] @ p_coordinates + grams[t + 1] @ q_coordinates


def _invariant_check(spectrum: JordanSpectrum, entering: np.ndarray):
    """Invariant checks for ``check_invariants`` runs, in block coordinates.

    A block unoccupied by the entering state stays unoccupied, the norm
    stays 1, and whenever the state is back inside the previous ground
    space its forward-success probability is at least the minimum occupied
    overlap.
    """
    weights = np.abs(entering[0]) ** 2
    unoccupied = weights <= OCCUPATION_TOL
    d_min_occ = spectrum.d_min_occupied(weights)

    def check(state: np.ndarray, rewound: bool) -> None:
        block_weights = (np.abs(state) ** 2).sum(axis=0)
        drift = abs(float(block_weights.sum()) - 1.0)
        if drift > CONTAINMENT_TOL:
            raise BoundViolation(f"state norm drifted by {drift:.3e}")
        leak = float(block_weights[unoccupied].max(initial=0.0))
        if leak > OCCUPATION_TOL:
            raise BoundViolation(f"state entered an unoccupied block (weight {leak:.3e})")
        if rewound:
            coeff = (spectrum.q_axis * state).sum(axis=0)
            forward_probability = float(np.vdot(coeff, coeff).real)
            if forward_probability < d_min_occ - 1e-9:
                raise BoundViolation(
                    f"forward probability {forward_probability:.6e} fell below "
                    f"occupied d_min {d_min_occ:.6e}"
                )

    return check


def _run_step(
    state: np.ndarray,
    spectrum: JordanSpectrum,
    m: int,
    rng: np.random.Generator,
    check=None,
) -> tuple[bool, list[int], int, np.ndarray]:
    """One growth step in block coordinates: forward attempt, then
    rewind/forward pairs.

    Returns (success, outcome bits with one per measurement, forward
    attempts used, final block state).
    """
    inside, state, _ = born_measure(state, spectrum.q_axis, rng)
    bits = [int(inside)]
    if check is not None:
        check(state, False)
    forward_used = 1
    while not inside and forward_used < m:
        rewound, state, _ = born_measure(state, spectrum.p_axis, rng)
        bits.append(int(rewound))
        if check is not None:
            check(state, rewound)
        inside, state, _ = born_measure(state, spectrum.q_axis, rng)
        bits.append(int(inside))
        if check is not None:
            check(state, False)
        forward_used += 1
    return inside, bits, forward_used, state


def run_protocol(prepared: PreparedProtocol, trial: int = 0) -> ProtocolTrace:
    """Run one full preparation trial in Jordan-block coordinates.

    Each step enters in the blocks of its two projectors at ``(U^H y, 0)``
    and a success leaves at ``y' = V q``, with ``y`` and ``y'`` the state's
    coordinates in the bases of ``P_t`` and ``P_{t+1}``.  Per-step
    exhaustion marks the trace as failed, and a failed trial reads its
    final coordinates through :attr:`PreparedProtocol.final_grams`.
    Successful runs are verified to end inside the final ground space.
    """
    config = prepared.config
    rng = measurement_stream(config.seed, trial)
    coordinates = prepared.entering[0]
    steps: list[StepRecord] = []
    total = 0
    failed_step: int | None = None
    for t, spectrum in enumerate(prepared.spectra):
        state = _enter(spectrum, coordinates)
        check = _invariant_check(spectrum, state) if config.check_invariants else None
        success, bits, used, state = _run_step(state, spectrum, prepared.m, rng, check)
        total += len(bits)
        steps.append(
            StepRecord(step=t + 1, bits=tuple(bits), forward_count=used, success=success)
        )
        if not success:
            failed_step = t + 1
            break
        coordinates = spectrum.q_rotation @ (spectrum.q_axis * state).sum(axis=0)
    if failed_step is not None:
        coordinates = _final_coordinates(prepared, failed_step - 1, state)
    fidelity = float(np.linalg.norm(coordinates) ** 2)
    success = failed_step is None
    if success and fidelity < 1.0 - SUCCESS_FIDELITY_TOL:
        raise BoundViolation(
            f"successful run ended outside the target space (fidelity {fidelity!r})"
        )
    block_weights = tuple(float(x) for x in np.abs(coordinates) ** 2)
    return ProtocolTrace(
        seed=config.seed,
        trial=trial,
        m=prepared.m,
        steps=tuple(steps),
        total_measurements=total,
        success=success,
        failed_step=failed_step,
        final_fidelity=fidelity,
        final_block_weights=block_weights,
    )


# ---------------------------------------------------------------------------
# failure statistics


def curve_from_spectrum(
    spectrum: JordanSpectrum, coordinates: np.ndarray, m_max: int = 100
) -> FailureCurve:
    """Exact failure law for one step entered from the normalized state
    with ``coordinates`` in the basis of the step's first projector.

    The state must lie in that projector's range; its decomposition over the
    principal directions supplies the block weights.  Those directions span
    that range only when its rank does not exceed the second projector's,
    so a larger first rank is reported on its own.
    """
    _check_rank(spectrum)
    weights = spectrum.block_weights(coordinates)
    inside = float(weights.sum())
    if inside < 1.0 - 1e-10:
        raise StateOutsideProjector(
            f"initial state has weight {inside!r} in the step's first ground space"
        )
    occupied = weights > OCCUPATION_TOL
    if np.any(spectrum.overlaps[occupied] <= ZERO_OVERLAP_TOL):
        # cannot happen for invertible deformations started from the
        # symmetric state; an orthogonal occupied sector is a bug signal
        raise BoundViolation("occupied principal block with zero overlap")
    d_min = spectrum.d_min_occupied(weights)
    m_values = np.arange(1, m_max + 1)
    pfail = np.array(
        [analytic_pfail(spectrum.overlaps, weights, int(m)) for m in m_values]
    )
    bound = np.array([pfail_bound(d_min, int(m)) for m in m_values])
    return FailureCurve(
        overlaps=spectrum.overlaps.copy(),
        weights=weights,
        m_values=m_values,
        pfail=pfail,
        bound=bound,
        d_min=d_min,
    )


def aggregate_step_stats(prepared: PreparedProtocol, traces: Sequence[ProtocolTrace]) -> list[dict]:
    """Per-step summary rows for the aggregate CSV.

    ``empirical_fail`` is the fraction of trials that reached the step and
    exhausted it; ``analytic_fail`` is the exact failure law evaluated for
    the canonical entering state.
    """
    rows = []
    for t in range(prepared.n_steps):
        reached = [tr for tr in traces if len(tr.steps) > t]
        failed = [tr for tr in reached if tr.failed_step == t + 1]
        curve = curve_from_spectrum(prepared.spectra[t], prepared.entering[t], m_max=1)
        analytic = analytic_pfail(curve.overlaps, curve.weights, prepared.m)
        d_min_all = prepared.spectra[t].d_min
        rows.append(
            {
                "step": t + 1,
                "m": prepared.m,
                "empirical_fail": len(failed) / len(reached) if reached else 0.0,
                "analytic_fail": analytic,
                "bound": pfail_bound(d_min_all, prepared.m),
                "d_min": d_min_all,
                "kappa": prepared.kappas[t],
                "trials_reached": len(reached),
            }
        )
    return rows


def trace_to_dict(trace: ProtocolTrace) -> dict:
    return {
        "seed": trace.seed,
        "trial": trace.trial,
        "m": trace.m,
        "success": trace.success,
        "failed_step": trace.failed_step,
        "total_measurements": trace.total_measurements,
        "final_fidelity": trace.final_fidelity,
        "final_block_weights": list(trace.final_block_weights),
        "steps": [
            {
                "step": s.step,
                "bits": list(s.bits),
                "forward_count": s.forward_count,
                "success": s.success,
            }
            for s in trace.steps
        ],
    }
