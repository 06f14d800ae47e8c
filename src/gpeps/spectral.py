"""Simultaneous two-projector analysis and Born-rule projective measurement.

Two orthogonal projectors decompose simultaneously into one- and
two-dimensional blocks; the squared cosines of the principal angles between
their ranges are the block overlaps ``d_k``.  They are computed here as the
squared singular values of the cross-Gram matrix of the orthonormal bases,
clamped to [0, 1].  Neither basis is built: with ``B = X W`` for each
projector's stack ``X`` and transform ``W``, the cross-Gram is
``W_P^H (X_P^H X_Q) W_Q``, and ``X_P^H X_Q`` is an ``m x m`` matrix from
:func:`gpeps.lattice.gram`.  The spectrum keeps only the SVD rotations of
that cross-Gram: the principal vectors of P are ``B_P @ spectrum.p_rotation``.

Block ``k`` is spanned by the principal vector ``r_k`` of P and the unit
vector ``e_k`` along ``q_k - s_k r_k``, with ``s_k = sqrt(d_k)`` and
``c_k = sqrt(1 - d_k)``, so ``q_k = s_k r_k + c_k e_k``.  A state inside
the blocks is held as its ``(2, k)`` block coordinates, and
:func:`born_measure` measures P or Q on them in O(k) operations, with no
pass over a basis (Jordan's lemma; Marriott and Watrous, arXiv:cs/0506068).

Overlaps at or below ``ZERO_OVERLAP_TOL`` correspond to orthogonal
sectors; they are excluded from ``d_min`` and surfaced through
``n_zero_overlaps`` so callers can flag them instead of silently reporting
0.  A block is occupied by a state when its weight exceeds
``OCCUPATION_TOL``.  Both thresholds are module constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BoundViolation, DimensionMismatch
from .lattice import GroundProjector, gram

ZERO_OVERLAP_TOL = 1e-12
OCCUPATION_TOL = 1e-12
BOUND_SLACK = 1e-9
PROB_EXACT_TOL = 1e-14


@dataclass(frozen=True, eq=False)
class JordanSpectrum:
    """Principal overlaps between two projector ranges, in basis coordinates.

    ``p_rotation[:, k]`` holds the coordinates, in the basis of P, of the
    k-th principal direction ``r_k`` inside range(P); ``q_rotation[:, k]``
    those of the matching direction ``q_k`` in the basis of Q; and
    ``overlaps[k] = |<r_k|q_k>|**2``, sorted descending.
    """

    overlaps: np.ndarray
    p_rotation: np.ndarray  # (rank_p, k)
    q_rotation: np.ndarray  # (rank_q, k)
    rank_p: int
    rank_q: int

    @property
    def d_min(self) -> float:
        """Minimum overlap over blocks with nonzero overlap (0.0 if none)."""
        nonzero = self.overlaps[self.overlaps > ZERO_OVERLAP_TOL]
        return float(nonzero.min()) if nonzero.size else 0.0

    @property
    def n_zero_overlaps(self) -> int:
        """Orthogonal blocks, counting the rank mismatch as structural zeros."""
        return abs(self.rank_p - self.rank_q) + int(
            np.count_nonzero(self.overlaps <= ZERO_OVERLAP_TOL)
        )

    def block_weights(self, coordinates: np.ndarray) -> np.ndarray:
        """``|<r_k|x>|**2`` for a vector with ``coordinates`` in the basis of P."""
        return np.abs(self.p_rotation.conj().T @ coordinates) ** 2

    def d_min_occupied(self, weights: np.ndarray) -> float:
        """Minimum overlap over the blocks whose weight exceeds ``OCCUPATION_TOL``."""
        occupied = np.asarray(weights) > OCCUPATION_TOL
        if not occupied.any():
            return 0.0
        return float(self.overlaps[occupied].min())

    @cached_property
    def p_axis(self) -> np.ndarray:
        """``(2, k)`` block coordinates of ``r_k``: range(P) in each block."""
        return np.stack([np.ones_like(self.overlaps), np.zeros_like(self.overlaps)])

    @cached_property
    def q_axis(self) -> np.ndarray:
        """``(2, k)`` block coordinates ``(s_k, c_k)`` of ``q_k``: range(Q)
        in each block."""
        return np.stack([np.sqrt(self.overlaps), np.sqrt(1.0 - self.overlaps)])


@dataclass(frozen=True)
class OverlapBoundReport:
    d_min: float
    kappa: float
    bound: float
    margin: float
    passed: bool


def jordan_decompose(p: GroundProjector, q: GroundProjector) -> JordanSpectrum:
    """Principal overlaps of two projectors that hold their stacks, with the
    SVD rotations of the cross-Gram of their bases,
    ``p.transform^H gram(p.columns, q.columns) q.transform``, as the paired
    principal directions.  Only ``m x m`` matrices are allocated."""
    if p.dim != q.dim:
        raise DimensionMismatch(f"ambient dimensions differ: {p.dim} vs {q.dim}")
    cross = p.transform.conj().T @ gram(p.columns, q.columns) @ q.transform
    u, s, vh = np.linalg.svd(cross)
    k = min(p.rank, q.rank)
    return JordanSpectrum(
        overlaps=np.clip(s[:k] ** 2, 0.0, 1.0),
        p_rotation=u[:, :k],
        q_rotation=vh.conj().T[:, :k],
        rank_p=p.rank,
        rank_q=q.rank,
    )


def verify_overlap_bound(spectrum: JordanSpectrum, kappa_sym: float) -> OverlapBoundReport:
    """Check d_min >= kappa**-2 (within slack); a violation is a bug signal."""
    bound = kappa_sym**-2
    d_min = spectrum.d_min
    margin = d_min - bound
    report = OverlapBoundReport(
        d_min=d_min,
        kappa=float(kappa_sym),
        bound=bound,
        margin=margin,
        passed=margin >= -BOUND_SLACK,
    )
    if not report.passed:
        raise BoundViolation(
            f"overlap bound violated: d_min = {d_min:.6e} < kappa^-2 = {bound:.6e}"
        )
    return report


def born_measure(
    state: np.ndarray, axis: np.ndarray, rng: np.random.Generator
) -> tuple[bool, np.ndarray, float]:
    """Measure {P, 1-P} on a normalized state in Jordan-block coordinates.

    ``state[:, k]`` holds the state's coordinates in block ``k`` and
    ``axis[:, k]`` the real unit vector that spans the range of P there
    (``spectrum.p_axis`` or ``spectrum.q_axis``).  Returns the outcome, the
    post-measurement state and the outcome's probability, in O(k).

    Consumes exactly one uniform draw per call (also in the deterministic
    cases, to keep replay streams aligned); outcomes with probability
    within ``PROB_EXACT_TOL`` of 0 or 1 are forced exactly.  The input
    state is never written.
    """
    if state.shape != axis.shape:
        raise DimensionMismatch(f"state shape {state.shape} vs axis shape {axis.shape}")
    coeff = (axis * state).sum(axis=0)  # coordinate along the axis, per block
    p_inside = min(float(np.vdot(coeff, coeff).real), 1.0)
    draw = rng.random()
    if p_inside >= 1.0 - PROB_EXACT_TOL:
        inside = True
    elif p_inside <= PROB_EXACT_TOL:
        inside = False
    else:
        inside = draw < p_inside
    # numpy divides a complex array by a real scalar as a product with its
    # reciprocal, so scaling by the reciprocal gives the same bits, faster
    if inside:
        post = axis * coeff
        post *= 1.0 / np.sqrt(p_inside)
        return True, post, p_inside
    post = state - axis * coeff
    post *= 1.0 / np.sqrt(np.vdot(post, post).real)
    return False, post, 1.0 - p_inside


def spectrum_csv_rows(spectrum: JordanSpectrum, kappa_sym: float) -> list[dict]:
    """Per-block rows for the spectrum CSV dump: index, d_k, margin vs kappa^-2."""
    bound = kappa_sym**-2
    return [
        {"block": k, "d_k": float(d), "margin": float(d - bound)}
        for k, d in enumerate(spectrum.overlaps)
    ]
