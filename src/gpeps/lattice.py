"""Square torus lattices and exact contraction of (partial) PEPS into
dense state vectors.

Vertices are indexed row-major; each carries virtual legs ``(l, t, r, b)``.
Every edge joins the plain-representation leg of one vertex (``r`` or ``b``)
to the conjugated-representation leg of its neighbour (``l`` or ``t``), with
a maximally entangled pair of bond dimension ``D`` across it.  A boundary
twist ``K = (g, h)`` inserts ``U_g`` on every horizontal bond crossing one
vertical cut and ``U_h`` on every vertical bond crossing one horizontal cut;
the twist unitary acts on the conjugated-side half of the bond.

Physical indices are stored in the compressed symmetric-subspace basis of
the site tensor (dimension ``sym_dim`` per vertex), so a state on an
``N``-vertex lattice has ``sym_dim**N`` amplitudes, site-major.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .caps import check_amplitudes
from .errors import DimensionMismatch, NonCommutingTwist, ZeroState
from .groups import GroupTable, SemiRegularRep
from .tensors import Deformation, SiteTensor, deformation_to_dict

LEG_L, LEG_T, LEG_R, LEG_B = range(4)

ZERO_STATE_TOL = 1e-14
PROJECTOR_RANK_TOL = 1e-10


@dataclass(frozen=True)
class Edge:
    """One bond: plain-side (site, leg) to conjugated-side (site, leg)."""

    plain_site: int
    plain_leg: int
    conj_site: int
    conj_leg: int
    orientation: str  # "h" or "v"
    position: int     # column (h) / row (v) the bond crosses into


@dataclass(frozen=True, eq=False)
class TorusLattice:
    width: int
    height: int
    edges: tuple[Edge, ...]

    @classmethod
    def build(cls, width: int, height: int) -> "TorusLattice":
        if width < 1 or height < 1:
            raise ValueError("lattice dimensions must be >= 1")
        edges = []
        for row in range(height):
            for col in range(width):
                v = row * width + col
                right = row * width + (col + 1) % width
                below = ((row + 1) % height) * width + col
                edges.append(Edge(v, LEG_R, right, LEG_L, "h", (col + 1) % width))
                edges.append(Edge(v, LEG_B, below, LEG_T, "v", (row + 1) % height))
        return cls(width=width, height=height, edges=tuple(edges))

    @property
    def n_vertices(self) -> int:
        return self.width * self.height


@dataclass(frozen=True)
class BoundaryTwist:
    """Commuting pair (g, h) with the cut coordinates of both strips."""

    g: int
    h: int
    cut_col: int = 0
    cut_row: int = 0


def validate_twist(group: GroupTable, twist: BoundaryTwist) -> None:
    if not (0 <= twist.g < group.order and 0 <= twist.h < group.order):
        raise NonCommutingTwist(f"twist elements out of range: {twist}")
    if not group.commutes(twist.g, twist.h):
        raise NonCommutingTwist(
            f"twist requires a commuting pair, got ({twist.g}, {twist.h})"
        )


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized dense state over the lattice physical space."""

    lattice: TorusLattice
    site_dim: int
    amplitudes: np.ndarray

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True, eq=False)
class GroundProjector:
    """Orthonormal-basis representation of a ground-space projector."""

    step: int
    basis: np.ndarray  # (dim, rank), orthonormal columns
    rank: int
    column_coordinates: np.ndarray  # (rank, m): basis^H times the m input columns

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def coefficients(self, vector: np.ndarray) -> np.ndarray:
        """``basis^H vector``, conjugating the vector instead of the basis
        so that the basis is read once and never copied."""
        return (vector.conj() @ self.basis).conj()


def gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a^H b`` for two column stacks, one ``np.vdot`` per pair of columns,
    so that neither stack is conjugated or copied (a column-major stack
    hands ``np.vdot`` contiguous vectors)."""
    return np.array([[np.vdot(x, y) for y in b.T] for x in a.T]).reshape(a.shape[1], b.shape[1])


def _self_gram(x: np.ndarray) -> np.ndarray:
    """``x^H x`` from the ``np.vdot`` of each pair ``i >= j``: the lower
    triangle, the half ``np.linalg.eigh`` reads, equals :func:`gram`'s bit
    for bit, and the upper triangle is its conjugate mirror."""
    m = x.shape[1]
    out = np.empty((m, m), dtype=np.result_type(x.dtype, float))
    for i, xi in enumerate(x.T):
        for j in range(i + 1):
            out[i, j] = np.vdot(xi, x[:, j])
    upper = np.triu_indices(m, 1)
    out[upper] = out.T[upper].conj()
    return out


def projector_from_columns(columns: np.ndarray, step: int = 0) -> GroundProjector:
    """Rank-revealing orthonormalization of a (dim, m) column stack.

    The eigendecomposition ``X^H X = V S² V^H`` of the ``m x m`` Gram
    matrix reveals the rank: eigenvalues above ``PROJECTOR_RANK_TOL`` times
    the largest are kept, a relative cut on ``S²``.  The basis is
    ``X V S^-1`` on the kept eigenvectors, stored column-major so that every
    basis vector is contiguous, and the kept rows of ``S V^H`` are the
    columns' coordinates.
    """
    eigenvalues, v = np.linalg.eigh(_self_gram(columns))
    eigenvalues, v = eigenvalues[::-1], v[:, ::-1]  # descending, like singular values
    keep = eigenvalues > PROJECTOR_RANK_TOL * (eigenvalues[0] if eigenvalues.size else 0.0)
    s, v = np.sqrt(eigenvalues[keep]), v[:, keep]
    basis = np.empty((columns.shape[0], s.size), dtype=np.result_type(columns, v), order="F")
    np.matmul((v / s).T, columns.T, out=basis.T)  # row-major basis^T = (V S^-1)^T X^T
    return GroundProjector(
        step=step, basis=basis, rank=s.size, column_coordinates=s[:, None] * v.conj().T
    )


# ---------------------------------------------------------------------------
# contraction


def _state_dim(lattice: TorusLattice, tensor: SiteTensor) -> int:
    dim = tensor.sym_dim**lattice.n_vertices
    check_amplitudes(dim, "state")
    return dim


def contract_isometric_state(
    lattice: TorusLattice,
    tensor: SiteTensor,
    twist: BoundaryTwist | None = None,
) -> StateVector:
    """Exact contraction of the group-symmetric PEPS with a boundary twist.

    Places maximally entangled bond pairs on every edge, inserts the twist
    unitaries on the bonds crossing the cuts, applies the compressed site
    map at every vertex and contracts the whole network in one einsum.
    Deterministic for a fixed lattice, site tensor and twist.
    """
    rep = tensor.rep
    if twist is None:
        e = rep.group.identity
        twist = BoundaryTwist(g=e, h=e)
    validate_twist(rep.group, twist)
    n_sites = lattice.n_vertices
    _state_dim(lattice, tensor)

    leg_tensor = tensor.leg_tensor()
    site_labels: list[list[int | None]] = [
        [v, None, None, None, None] for v in range(n_sites)
    ]
    extra_ops: list[tuple[np.ndarray, list[int]]] = []
    next_label = n_sites
    identity_el = rep.group.identity
    for edge in lattice.edges:
        if edge.orientation == "h":
            element = twist.g
            twisted = edge.position == twist.cut_col % lattice.width
        else:
            element = twist.h
            twisted = edge.position == twist.cut_row % lattice.height
        if twisted and element != identity_el:
            plain_label, conj_label = next_label, next_label + 1
            next_label += 2
            extra_ops.append((rep.matrices[element], [conj_label, plain_label]))
        else:
            plain_label = conj_label = next_label
            next_label += 1
        site_labels[edge.plain_site][1 + edge.plain_leg] = plain_label
        site_labels[edge.conj_site][1 + edge.conj_leg] = conj_label

    operands: list = []
    for v in range(n_sites):
        operands.extend((leg_tensor, site_labels[v]))
    for op, labels in extra_ops:
        operands.extend((op, labels))
    amplitudes = np.einsum(*operands, list(range(n_sites)), optimize="greedy").reshape(-1)
    return StateVector(
        lattice=lattice, site_dim=tensor.sym_dim, amplitudes=_normalized(amplitudes, 0)
    )


def twisted_states(lattice: TorusLattice, tensor: SiteTensor) -> np.ndarray:
    """Isometric states for every commuting twist, each contracted once.

    Row ``k`` holds the amplitudes for the twist
    ``tensor.rep.group.commuting_pairs()[k]``.  These rows are the twisted
    columns that :func:`ground_projectors` advances.
    """
    pairs = tensor.rep.group.commuting_pairs()
    dim = _state_dim(lattice, tensor)
    check_amplitudes(len(pairs) * dim, f"stack of {len(pairs)} twisted states")
    columns = np.empty((len(pairs), dim), dtype=complex)
    for k, (g, h) in enumerate(pairs):
        columns[k] = contract_isometric_state(lattice, tensor, BoundaryTwist(g=g, h=h)).amplitudes
    return columns


def _apply_site(arr: np.ndarray, n_sites: int, site: int, matrix: np.ndarray) -> np.ndarray:
    """The per-column step: ``matrix`` on one site of a site-major vector."""
    shaped = arr.reshape((matrix.shape[1],) * n_sites)
    out = np.tensordot(matrix, shaped, axes=([1], [site]))
    return np.moveaxis(out, 0, site).reshape(-1)


def _normalized(arr: np.ndarray, t: int, out: np.ndarray | None = None) -> np.ndarray:
    norm = np.linalg.norm(arr)
    if norm <= ZERO_STATE_TOL:
        raise ZeroState(f"partial PEPS with t = {t} deformations is the zero vector")
    # the same bits as np.divide on complex arrays, without the complex division
    return np.multiply(arr, 1.0 / norm, out=out)


def partial_peps_state(
    base_state: StateVector,
    deformations: Sequence[Deformation],
    t: int | None = None,
) -> StateVector:
    """Twisted PEPS with deformations applied on vertices ``0 .. t-1``.

    ``base_state`` is the contracted isometric state of the twist.  Vertex
    order is row-major from the top-left; the list position of a
    deformation is its vertex.
    """
    lattice = base_state.lattice
    if t is None:
        t = len(deformations)
    if not 0 <= t <= lattice.n_vertices:
        raise ValueError(f"t = {t} outside [0, {lattice.n_vertices}]")
    arr = base_state.amplitudes
    for v in range(t):
        arr = _apply_site(arr, lattice.n_vertices, v, deformations[v].matrix)
    return StateVector(
        lattice=lattice, site_dim=base_state.site_dim, amplitudes=_normalized(arr, t)
    )


def ground_projectors(
    lattice: TorusLattice,
    columns: np.ndarray,
    deformations: Sequence[Deformation],
    steps: Sequence[int],
) -> list[GroundProjector]:
    """Ground projectors ``P_t`` for the ascending ``steps``, from one pass.

    ``P_t`` spans the twisted partial PEPS with deformations on vertices
    ``0 .. t-1``.  Row ``k`` of ``columns`` starts as the ``k``-th state of
    :func:`twisted_states`, and step ``t`` advances every row by one vertex
    in place (``X_{t+1} = M_t X_t``).  The rows advance unnormalized and
    are normalized only for the orthonormalization, so every column equals
    its :func:`partial_peps_state` amplitudes bit for bit.  The last step
    normalizes the rows in place, which spends ``columns``.

    Linear dependence among the twisted states ("over-spanning") is
    expected and absorbed by the rank-revealing orthogonalization.

    The amplitude cap counts the rows, their normalized copy (made unless
    the last step is the only one) and one basis of at most ``len(columns)``
    vectors per step, before any of them is allocated.
    """
    n_sites = lattice.n_vertices
    last = steps[-1]
    if steps[0] < 0 or last > n_sites:
        raise ValueError(f"steps must lie in [0, {n_sites}], got {list(steps)}")
    stacks = 1 + (len(steps) > 1) + len(steps)
    check_amplitudes(stacks * columns.size, f"{len(steps)} ground projectors")
    projectors = []
    for t in range(last + 1):
        if t:
            matrix = deformations[t - 1].matrix
            for k in range(len(columns)):
                columns[k] = _apply_site(columns[k], n_sites, t - 1, matrix)
        if t in steps:
            normalized = columns if t == last else np.empty_like(columns)
            for k in range(len(columns)):
                _normalized(columns[k], t, out=normalized[k])
            projectors.append(projector_from_columns(normalized.T, step=t))
    return projectors


def ground_projector(
    lattice: TorusLattice,
    twisted: np.ndarray,
    deformations: Sequence[Deformation],
    t: int,
) -> GroundProjector:
    """``P_t`` alone: :func:`ground_projectors` on a copy of ``twisted``."""
    return ground_projectors(lattice, twisted.copy(), deformations, [t])[0]


# ---------------------------------------------------------------------------
# state export


def save_state(
    state: StateVector,
    base_path: str,
    rep: SemiRegularRep | None = None,
    twist: BoundaryTwist | None = None,
    deformations: Sequence[Deformation] | None = None,
) -> None:
    """Write amplitudes as little-endian interleaved re/im doubles plus a
    JSON sidecar describing how the state was produced."""
    data = np.ascontiguousarray(state.amplitudes, dtype="<c16")
    data.view("<f8").tofile(base_path + ".bin")
    sidecar: dict = {
        "format": "interleaved-float64-little-endian",
        "dim": state.dim,
        "site_dim": state.site_dim,
        "lattice": {"width": state.lattice.width, "height": state.lattice.height},
    }
    if rep is not None:
        sidecar["rep"] = {
            "group": rep.group.name,
            "multiplicities": rep.multiplicities(),
        }
    if twist is not None:
        sidecar["twist"] = {
            "g": twist.g, "h": twist.h,
            "cut_col": twist.cut_col, "cut_row": twist.cut_row,
        }
    if deformations is not None:
        blob = json.dumps(
            [deformation_to_dict(d) for d in deformations], sort_keys=True
        ).encode()
        sidecar["deformation_hash"] = hashlib.sha256(blob).hexdigest()
    with open(base_path + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)


def load_state(base_path: str) -> StateVector:
    """Read a state written by :func:`save_state`.

    Raises :class:`DimensionMismatch` when the sidecar ``dim`` disagrees
    with ``site_dim`` and the lattice, or with the size of the ``.bin``.
    """
    with open(base_path + ".json", encoding="utf-8") as fh:
        sidecar = json.load(fh)
    lattice = TorusLattice.build(sidecar["lattice"]["width"], sidecar["lattice"]["height"])
    site_dim, dim = int(sidecar["site_dim"]), int(sidecar["dim"])
    if dim != site_dim**lattice.n_vertices:
        raise DimensionMismatch(
            f"sidecar dim {dim} != site_dim**N = {site_dim**lattice.n_vertices}"
        )
    size = os.path.getsize(base_path + ".bin")
    if size != 16 * dim:
        raise DimensionMismatch(f"{base_path}.bin holds {size} bytes, expected {16 * dim}")
    raw = np.fromfile(base_path + ".bin", dtype="<f8").view("<c16")
    return StateVector(lattice=lattice, site_dim=site_dim, amplitudes=raw.astype(complex))
