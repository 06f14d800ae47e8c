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
from typing import Iterator, Sequence

import numpy as np

from .caps import check_amplitudes
from .errors import DimensionMismatch, NonCommutingTwist, ZeroState
from .groups import GroupTable, SemiRegularRep
from .tensors import Deformation, SiteTensor, deformation_to_dict

LEG_L, LEG_T, LEG_R, LEG_B = range(4)

ZERO_STATE_TOL = 1e-14
PROJECTOR_RANK_TOL = 1e-10
GRAM_BLOCK_BYTES = 1 << 19  # one row block of gram's first stack: 512 KiB


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


@dataclass(eq=False)
class GroundProjector:
    """A ground space in the coordinates of the stack ``X`` that spans it:
    its orthonormal basis is ``X W`` for the ``(m, rank)`` ``transform``
    ``W``, and is never stored.  ``columns`` holds ``X`` until the pass
    that built it needs the buffer back and sets it to None.
    """

    step: int
    rank: int
    dim: int
    transform: np.ndarray  # (m, rank): N^-1 V S^-1, so that basis = columns @ transform
    column_coordinates: np.ndarray  # (rank, m): basis^H times the m normalized columns
    columns: np.ndarray | None  # (dim, m) stack X, while held

    @property
    def basis(self) -> np.ndarray:
        """The ``(dim, rank)`` orthonormal basis ``X W``, built column-major
        on every read; only tests and the dense oracle read it."""
        if self.columns is None:
            raise RuntimeError(f"P_{self.step} has released its stack")
        basis = np.empty(
            (self.dim, self.rank), dtype=np.result_type(self.columns, self.transform), order="F"
        )
        # row-major basis^T = W^T X^T
        np.matmul(self.transform.T, self.columns.T, out=basis.T)
        return basis

    def coefficients(self, vector: np.ndarray) -> np.ndarray:
        """``basis^H vector``, conjugating the vector instead of the basis
        so that the basis is read once and never copied."""
        return (vector.conj() @ self.basis).conj()


def gram(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a^H b`` for two column stacks of equal length, summed over row
    blocks of about ``GRAM_BLOCK_BYTES`` of ``a``: only one block of ``a``
    is ever conjugated, and neither stack is copied."""
    rows = max(1, GRAM_BLOCK_BYTES // (a.itemsize * max(1, a.shape[1])))
    out = np.zeros((a.shape[1], b.shape[1]), dtype=np.result_type(a, b))
    for i in range(0, a.shape[0], rows):
        out += a[i : i + rows].conj().T @ b[i : i + rows]
    return out


def projector_from_columns(columns: np.ndarray, step: int = 0) -> GroundProjector:
    """Rank-revealing orthonormalization of the normalized columns of a
    (dim, m) stack ``X``, which is held, never normalized or copied.

    With ``G = X^H X`` and the column norms ``n = sqrt(diag G)``, the
    normalized Gram ``G / (n n^T) = V S² V^H`` reveals the rank: eigenvalues
    above ``PROJECTOR_RANK_TOL`` times the largest are kept, a relative cut
    on ``S²``.  A column with ``n_k <= ZERO_STATE_TOL`` raises
    :class:`ZeroState`.  The basis is ``X W`` with ``W = N^-1 V S^-1``, and
    the kept rows of ``S V^H`` are the coordinates of the normalized
    columns; nothing of the size of ``X`` is allocated.
    """
    g = gram(columns, columns)
    norms = np.sqrt(g.diagonal().real)
    zero = np.flatnonzero(norms <= ZERO_STATE_TOL)
    if zero.size:
        raise ZeroState(
            f"partial PEPS with t = {step} deformations is the zero vector (column {zero[0]})"
        )
    eigenvalues, v = np.linalg.eigh(g / np.outer(norms, norms))
    eigenvalues, v = eigenvalues[::-1], v[:, ::-1]  # descending, like singular values
    keep = eigenvalues > PROJECTOR_RANK_TOL * (eigenvalues[0] if eigenvalues.size else 0.0)
    s, v = np.sqrt(eigenvalues[keep]), v[:, keep]
    return GroundProjector(
        step=step,
        rank=s.size,
        dim=columns.shape[0],
        transform=v / np.outer(norms, s),
        column_coordinates=s[:, None] * v.conj().T,
        columns=columns,
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


def _apply_site(
    x: np.ndarray, n_sites: int, site: int, matrix: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """The per-column step: ``matrix`` on one site of a site-major vector, one
    matmul over its ``(left, d, right)`` view into ``out`` (allocated when None;
    if ``out`` is ``x``, numpy buffers that row).  ``out`` must be contiguous."""
    d = matrix.shape[1]
    out = np.empty(x.shape, np.result_type(matrix, x)) if out is None else out
    target = out.reshape(d**site, d, d ** (n_sites - 1 - site))
    if not np.shares_memory(target, out):  # a reshape copy would take the product
        raise ValueError("_apply_site needs a contiguous out")
    np.matmul(matrix, x.reshape(target.shape), out=target)
    return out


def _normalized(arr: np.ndarray, t: int) -> np.ndarray:
    norm = np.linalg.norm(arr)
    if norm <= ZERO_STATE_TOL:
        raise ZeroState(f"partial PEPS with t = {t} deformations is the zero vector")
    # the same bits as np.divide on complex arrays, without the complex division
    return arr * (1.0 / norm)


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
    arr = base_state.amplitudes.copy()
    for v in range(t):
        _apply_site(arr, lattice.n_vertices, v, deformations[v].matrix, arr)
    return StateVector(
        lattice=lattice, site_dim=base_state.site_dim, amplitudes=_normalized(arr, t)
    )


def twisted_stacks(
    lattice: TorusLattice,
    columns: np.ndarray,
    deformations: Sequence[Deformation],
    last: int,
    spare: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """Yield ``X_0 = columns`` (rows of :func:`twisted_states`) and then
    ``X_{t+1} = M_t X_t`` up to ``X_last``, one ``_apply_site`` matmul per
    row: in place (numpy buffers one row), or with ``spare`` straight into
    the buffer of ``X_{t-1}``, so that ``X_t`` stays valid next to
    ``X_{t+1}``.  Each row equals the unnormalized ``_apply_site`` chain of
    its twisted state bit for bit (:func:`partial_peps_state`, normalized).
    """
    target = columns if spare is None else spare
    for t in range(last + 1):
        if t:
            matrix = deformations[t - 1].matrix
            for k in range(len(columns)):
                _apply_site(columns[k], lattice.n_vertices, t - 1, matrix, target[k])
            columns, target = target, columns
        yield columns


def ground_projectors(
    lattice: TorusLattice,
    columns: np.ndarray,
    deformations: Sequence[Deformation],
    steps: Sequence[int],
) -> Iterator[GroundProjector]:
    """Yield ``P_t`` for the ascending ``steps`` from one pass of
    :func:`twisted_stacks` over ``columns`` (spent) and one spare stack,
    which the amplitude cap counts first.

    ``P_t`` spans the twisted partial PEPS with deformations on vertices
    ``0 .. t-1`` and holds ``X_t``.  When ``P_t`` is yielded, ``P_{t-1}``
    still holds its stack, so the two can be compared
    (:func:`gpeps.spectral.jordan_decompose`); it is released before
    ``X_{t+1}`` overwrites it.  Linear dependence among the twisted states
    is absorbed by the rank-revealing orthonormalization.
    """
    n_sites = lattice.n_vertices
    if steps[0] < 0 or steps[-1] > n_sites:
        raise ValueError(f"steps must lie in [0, {n_sites}], got {list(steps)}")
    check_amplitudes(2 * columns.size, "ground-projector pass (two stacks)")
    stacks = twisted_stacks(lattice, columns, deformations, steps[-1], np.empty_like(columns))
    previous = None  # the projector on the buffer that X_{t+1} takes
    for t, stack in enumerate(stacks):
        current = projector_from_columns(stack.T, step=t) if t in steps else None
        if current is not None:
            yield current
        if previous is not None and t < steps[-1]:
            previous.columns = None
        previous = current


def ground_projector(
    lattice: TorusLattice,
    twisted: np.ndarray,
    deformations: Sequence[Deformation],
    t: int,
) -> GroundProjector:
    """``P_t`` alone, on a copy of ``twisted`` advanced in place (numpy
    buffers one row per step); the projector holds the copy, which the
    amplitude cap counts."""
    if not 0 <= t <= lattice.n_vertices:
        raise ValueError(f"t = {t} outside [0, {lattice.n_vertices}]")
    check_amplitudes(twisted.size, "ground projector (a copy of the twisted stack)")
    *_, stack = twisted_stacks(lattice, twisted.copy(), deformations, t)
    return projector_from_columns(stack.T, step=t)


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
