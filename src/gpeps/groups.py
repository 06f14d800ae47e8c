"""Finite groups as explicit multiplication tables, plus their unitary
representation theory.

Elements are integer indices ``0 .. n-1`` with ``0`` the identity (built-ins;
user tables may place the identity elsewhere).  Built-in groups: cyclic ``Zn``
for any ``n >= 1`` (``"trivial"`` is an alias for ``Z1``), the symmetric group
``S3`` and the dihedral group ``D4``.  Irreps for the built-ins are hardcoded
(characters for the abelian groups, explicit 2x2 matrix forms for S3/D4);
user groups must supply their own irrep matrices, which are validated
numerically.

A semi-regular representation is a block-diagonal unitary
``U_g = oplus_a V_g^a (x) 1_{r_a}`` containing every irrep at least once.
Its re-weighting map is the diagonal positive operator with weight
``(d_a / r_a)**(1/4)`` on the block of irrep ``a``; it commutes with every
``U_g`` and satisfies ``tr(Delta^4 U_g) = |G| delta_{g,e}``.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    IncompleteIrrepSet,
    InvalidRepresentation,
    MissingIdentity,
    MissingInverse,
    NonAssociative,
    ZeroMultiplicity,
)

# Default tolerances; reports quote these values.
HOMOMORPHISM_TOL = 1e-12
UNITARITY_TOL = 1e-12
CHARACTER_TOL = 1e-10
TRACE_IDENTITY_TOL = 1e-10
REGULAR_WEIGHT_TOL = 1e-12

_ZN_RE = re.compile(r"^Z(\d+)$")


@dataclass(frozen=True, eq=False)
class GroupTable:
    """A finite group given by its multiplication table.

    ``mult[a, b]`` is the index of the product ``a * b``; ``inverse[a]`` the
    index of ``a**-1``.
    """

    name: str
    order: int
    mult: np.ndarray
    inverse: np.ndarray
    identity: int = 0

    def multiply(self, a: int, b: int) -> int:
        return int(self.mult[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def commutes(self, a: int, b: int) -> bool:
        return self.mult[a, b] == self.mult[b, a]

    @property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mult, self.mult.T))

    def elements(self) -> range:
        return range(self.order)

    def commuting_pairs(self) -> list[tuple[int, int]]:
        """All ordered pairs (g, h) with g*h == h*g, identity pair first."""
        return [
            (g, h)
            for g in self.elements()
            for h in self.elements()
            if self.commutes(g, h)
        ]


@dataclass(frozen=True, eq=False)
class Irrep:
    """A unitary irreducible representation as explicit matrices per element."""

    label: str
    dim: int
    matrices: np.ndarray  # (n, dim, dim) complex

    @property
    def characters(self) -> np.ndarray:
        return np.trace(self.matrices, axis1=1, axis2=2)


@dataclass(frozen=True, eq=False)
class SemiRegularRep:
    """Block-diagonal unitary representation containing every irrep.

    ``blocks`` lists ``(irrep, multiplicity)`` in the canonical order
    (sorted by ``(dim, label)``); ``matrices[g]`` is the D x D unitary
    ``U_g = oplus_a V_g^a (x) 1_{r_a}``.
    """

    group: GroupTable
    blocks: tuple[tuple[Irrep, int], ...]
    total_dim: int
    matrices: np.ndarray  # (n, D, D) complex

    @property
    def is_regular(self) -> bool:
        return all(r == irrep.dim for irrep, r in self.blocks)

    def block_slices(self) -> list[tuple[Irrep, int, slice]]:
        """(irrep, multiplicity, index range) for each diagonal block."""
        out = []
        offset = 0
        for irrep, r in self.blocks:
            size = irrep.dim * r
            out.append((irrep, r, slice(offset, offset + size)))
            offset += size
        return out

    def multiplicities(self) -> dict[str, int]:
        return {irrep.label: r for irrep, r in self.blocks}


@dataclass(frozen=True, eq=False)
class DeltaMap:
    """Diagonal re-weighting map of a semi-regular representation."""

    rep: SemiRegularRep
    weights: np.ndarray  # (D,) real positive

    @property
    def weights4(self) -> np.ndarray:
        return self.weights**4

    @property
    def is_identity(self) -> bool:
        return bool(np.all(np.abs(self.weights - 1.0) <= REGULAR_WEIGHT_TOL))


# ---------------------------------------------------------------------------
# group construction and validation


def _validate_table(name: str, mult: np.ndarray) -> GroupTable:
    n = mult.shape[0]
    if mult.shape != (n, n):
        raise ValueError(f"multiplication table must be square, got {mult.shape}")
    if mult.min() < 0 or mult.max() >= n:
        raise ValueError("multiplication table entries out of range (closure)")

    # identity: a two-sided neutral element
    identity = None
    rng = np.arange(n)
    for e in range(n):
        if np.array_equal(mult[e], rng) and np.array_equal(mult[:, e], rng):
            identity = e
            break
    if identity is None:
        raise MissingIdentity(f"group {name!r}: no two-sided identity element")

    # associativity: (ab)c == a(bc) for all triples, checked by table lookup
    left = mult[mult, :]          # (a, b, c) -> mult[mult[a,b], c]
    right = mult[:, mult]         # (a, b, c) -> mult[a, mult[b,c]]
    if not np.array_equal(left, right):
        a, b, c = np.argwhere(left != right)[0]
        raise NonAssociative(
            f"group {name!r}: ({a}*{b})*{c} != {a}*({b}*{c})"
        )

    inverse = np.full(n, -1, dtype=int)
    for a in range(n):
        hits = np.nonzero(mult[a] == identity)[0]
        for b in hits:
            if mult[b, a] == identity:
                inverse[a] = b
                break
        if inverse[a] < 0:
            raise MissingInverse(f"group {name!r}: element {a} has no inverse")

    mult = np.ascontiguousarray(mult, dtype=int)
    mult.setflags(write=False)
    inverse.setflags(write=False)
    return GroupTable(name=name, order=n, mult=mult, inverse=inverse, identity=identity)


def _cyclic_table(n: int) -> np.ndarray:
    a = np.arange(n)
    return (a[:, None] + a[None, :]) % n


def _s3_permutations() -> list[tuple[int, ...]]:
    # lexicographic order puts the identity first
    return sorted(itertools.permutations(range(3)))


def _s3_table() -> np.ndarray:
    perms = _s3_permutations()
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    mult = np.zeros((n, n), dtype=int)
    for a, p in enumerate(perms):
        for b, q in enumerate(perms):
            mult[a, b] = index[tuple(p[q[i]] for i in range(3))]
    return mult


def _d4_table() -> np.ndarray:
    # element k + 4*j is r^k s^j;  s r = r^-1 s
    n = 8
    mult = np.zeros((n, n), dtype=int)
    for k1, j1, k2, j2 in itertools.product(range(4), range(2), range(4), range(2)):
        k = (k1 + (k2 if j1 == 0 else -k2)) % 4
        mult[k1 + 4 * j1, k2 + 4 * j2] = k + 4 * (j1 ^ j2)
    return mult


def build_group(spec: str | Mapping | GroupTable) -> GroupTable:
    """Build and validate a group from a built-in name or an explicit table.

    Built-ins: ``"trivial"``/``"Zn"`` (any n >= 1), ``"S3"``, ``"D4"``.
    Explicit tables are mappings ``{"name", "order", "mult_table"}``; all
    group axioms are checked eagerly and violations raise
    :class:`NonAssociative`, :class:`MissingIdentity` or
    :class:`MissingInverse`.
    """
    if isinstance(spec, GroupTable):
        return spec
    if isinstance(spec, str):
        name = "Z1" if spec == "trivial" else spec
        m = _ZN_RE.match(name)
        if m:
            n = int(m.group(1))
            if n < 1:
                raise ValueError("cyclic group order must be >= 1")
            return _validate_table(name, _cyclic_table(n))
        if name == "S3":
            return _validate_table("S3", _s3_table())
        if name == "D4":
            return _validate_table("D4", _d4_table())
        raise ValueError(f"unknown built-in group {spec!r}")
    if "mult_table" not in spec:
        raise ValueError("group document lacks a 'mult_table'")
    try:
        mult = np.asarray(spec["mult_table"], dtype=int)
        order = int(spec["order"]) if "order" in spec else None
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"table and order must be integers: {exc}") from exc
    if mult.ndim != 2:
        raise ValueError(f"multiplication table must be square, got shape {mult.shape}")
    name = str(spec.get("name", f"user{mult.shape[0]}"))
    if order is not None and order != mult.shape[0]:
        raise ValueError("declared order does not match table size")
    return _validate_table(name, mult)


# ---------------------------------------------------------------------------
# irreps


def _cyclic_irreps(n: int) -> list[Irrep]:
    irreps = []
    for k in range(n):
        phases = np.exp(2j * np.pi * k * np.arange(n) / n)
        irreps.append(Irrep(f"chi{k}", 1, phases.reshape(n, 1, 1)))
    return irreps


def _s3_irreps() -> list[Irrep]:
    perms = _s3_permutations()
    n = len(perms)

    def parity(p):
        sign = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if p[i] > p[j]:
                    sign = -sign
        return sign

    trivial = np.ones((n, 1, 1), dtype=complex)
    sign = np.array([parity(p) for p in perms], dtype=complex).reshape(n, 1, 1)

    # standard 2-dim irrep: permutation action restricted to the sum-zero plane
    basis = np.array(
        [
            [1 / np.sqrt(2), 1 / np.sqrt(6)],
            [-1 / np.sqrt(2), 1 / np.sqrt(6)],
            [0.0, -2 / np.sqrt(6)],
        ]
    )
    standard = np.zeros((n, 2, 2), dtype=complex)
    for i, p in enumerate(perms):
        perm_matrix = np.zeros((3, 3))
        for j in range(3):
            perm_matrix[p[j], j] = 1.0
        standard[i] = basis.T @ perm_matrix @ basis
    return [
        Irrep("A1", 1, trivial),
        Irrep("A2", 1, sign),
        Irrep("E", 2, standard),
    ]


def _d4_irreps() -> list[Irrep]:
    n = 8
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    refl = np.array([[1.0, 0.0], [0.0, -1.0]])
    one_dim = {
        "A1": lambda k, j: 1.0,
        "A2": lambda k, j: (-1.0) ** j,
        "B1": lambda k, j: (-1.0) ** k,
        "B2": lambda k, j: (-1.0) ** (k + j),
    }
    irreps = []
    for label, chi in one_dim.items():
        mats = np.array(
            [chi(k, j) for j in range(2) for k in range(4)], dtype=complex
        ).reshape(n, 1, 1)
        irreps.append(Irrep(label, 1, mats))
    e_mats = np.zeros((n, 2, 2), dtype=complex)
    for j in range(2):
        for k in range(4):
            e_mats[k + 4 * j] = np.linalg.matrix_power(rot, k) @ (
                refl if j else np.eye(2)
            )
    irreps.append(Irrep("E", 2, e_mats))
    return irreps


def rep_deviations(group: GroupTable, matrices: np.ndarray) -> tuple[float, float]:
    """Homomorphism and unitarity deviations of ``g -> matrices[g]``:
    ``max |U_a U_b - U_ab|`` and ``max |U_g^dag U_g - 1|``."""
    products = np.einsum("aij,bjk->abik", matrices, matrices)
    hom = float(np.abs(products - matrices[group.mult]).max())
    eye = np.eye(matrices.shape[1])
    uni = float(max(np.abs(m.conj().T @ m - eye).max() for m in matrices))
    return hom, uni


def _require_unitary_rep(name: str, group: GroupTable, matrices: np.ndarray) -> None:
    hom, uni = rep_deviations(group, matrices)
    if hom > HOMOMORPHISM_TOL:
        raise InvalidRepresentation(f"{name}: homomorphism deviation {hom:.3e}")
    if uni > UNITARITY_TOL:
        raise InvalidRepresentation(f"{name}: unitarity deviation {uni:.3e}")


def validate_irrep(group: GroupTable, irrep: Irrep) -> None:
    """Check homomorphism, unitarity and irreducibility; raise on failure."""
    mats = irrep.matrices
    n = group.order
    if mats.shape != (n, irrep.dim, irrep.dim):
        raise InvalidRepresentation(
            f"irrep {irrep.label!r}: matrices shaped {mats.shape}, "
            f"expected ({n}, {irrep.dim}, {irrep.dim})"
        )
    _require_unitary_rep(f"irrep {irrep.label!r}", group, mats)
    char_norm = float(np.sum(np.abs(irrep.characters) ** 2))
    if abs(char_norm - n) > CHARACTER_TOL:
        raise InvalidRepresentation(
            f"irrep {irrep.label!r}: character norm {char_norm:.6f} != {n} "
            "(not irreducible)"
        )


def irreps(group: GroupTable, supplied: Sequence[Irrep] | None = None) -> list[Irrep]:
    """Complete list of irreps, sorted by (dim, label) and fully validated.

    Built-in groups construct their own irreps; other groups must supply
    matrices.  Raises :class:`IncompleteIrrepSet` when sum(d^2) != |G|.
    """
    if supplied is None:
        m = _ZN_RE.match(group.name)
        if m:
            out = _cyclic_irreps(int(m.group(1)))
        elif group.name == "S3":
            out = _s3_irreps()
        elif group.name == "D4":
            out = _d4_irreps()
        else:
            raise IncompleteIrrepSet(
                f"group {group.name!r} is not built-in; supply irrep matrices"
            )
        canonical = build_group(group.name)
        if not np.array_equal(canonical.mult, group.mult):
            raise IncompleteIrrepSet(
                f"table named {group.name!r} differs from the built-in; "
                "supply irrep matrices explicitly"
            )
    else:
        out = list(supplied)
        labels = [ir.label for ir in out]
        if len(set(labels)) != len(labels):
            raise IncompleteIrrepSet("duplicate irrep labels in supplied list")
    out.sort(key=lambda ir: (ir.dim, ir.label))
    total = sum(ir.dim**2 for ir in out)
    if total != group.order:
        raise IncompleteIrrepSet(
            f"sum of squared irrep dims is {total}, expected |G| = {group.order}"
        )
    for ir in out:
        validate_irrep(group, ir)
    return out


_ALIASES = {"trivial": "chi0", "sign": "chi1"}  # cyclic groups
_ALIASES_NONABELIAN = {"trivial": "A1", "sign": "A2", "standard": "E"}


def _resolve_label(group: GroupTable, label: str, known: set[str]) -> str:
    if label in known:
        return label
    alias = (_ALIASES if _ZN_RE.match(group.name) else _ALIASES_NONABELIAN).get(label)
    if alias in known:
        return alias
    raise ValueError(f"unknown irrep label {label!r} for group {group.name}")


# ---------------------------------------------------------------------------
# semi-regular representations and the re-weighting map


def semi_regular_rep(
    group: GroupTable,
    multiplicities: Mapping[str, int] | None = None,
    irrep_list: Sequence[Irrep] | None = None,
) -> SemiRegularRep:
    """Assemble ``U_g = oplus_a V_g^a (x) 1_{r_a}`` with every irrep present.

    ``multiplicities`` maps irrep labels (aliases ``"trivial"``/``"sign"``
    accepted) to ``r_a >= 1``; omitted labels raise
    :class:`ZeroMultiplicity`.  ``None`` means the regular representation.
    """
    irs = irreps(group, irrep_list)
    if multiplicities is None:
        mults = [ir.dim for ir in irs]
    else:
        known = {ir.label for ir in irs}
        resolved: dict[str, int] = {}
        for label, r in multiplicities.items():
            resolved[_resolve_label(group, label, known)] = int(r)
        mults = []
        for ir in irs:
            r = resolved.get(ir.label, 0)
            if r < 1:
                raise ZeroMultiplicity(
                    f"irrep {ir.label!r} needs multiplicity >= 1, got {r}"
                )
            mults.append(r)

    blocks = tuple((ir, r) for ir, r in zip(irs, mults))
    total = sum(ir.dim * r for ir, r in blocks)
    n = group.order
    matrices = np.zeros((n, total, total), dtype=complex)
    offset = 0
    for ir, r in blocks:
        size = ir.dim * r
        matrices[:, offset : offset + size, offset : offset + size] = np.kron(
            ir.matrices, np.eye(r)
        ).reshape(n, size, size)
        offset += size
    matrices.setflags(write=False)
    _require_unitary_rep("U_g", group, matrices)
    return SemiRegularRep(group=group, blocks=blocks, total_dim=total, matrices=matrices)


def regular_rep(group: GroupTable, irrep_list: Sequence[Irrep] | None = None) -> SemiRegularRep:
    """The regular representation: every irrep with multiplicity d_a."""
    rep = semi_regular_rep(group, None, irrep_list)
    # regular <=> characters |G| * delta_{g,e}
    chars = np.trace(rep.matrices, axis1=1, axis2=2)
    expected = np.zeros(group.order)
    expected[group.identity] = group.order
    dev = np.abs(chars - expected).max()
    if rep.total_dim != group.order or dev > CHARACTER_TOL:
        raise InvalidRepresentation(
            f"regular representation check failed (char deviation {dev:.3e})"
        )
    return rep


def delta_map(rep: SemiRegularRep) -> DeltaMap:
    """Re-weighting map: weight (d_a / r_a)^(1/4) on the block of irrep a."""
    weights = np.empty(rep.total_dim)
    for irrep, r, sl in rep.block_slices():
        weights[sl] = (irrep.dim / r) ** 0.25
    weights.setflags(write=False)
    dm = DeltaMap(rep=rep, weights=weights)
    dev = trace_identity_deviation(dm)
    if dev > TRACE_IDENTITY_TOL:
        raise InvalidRepresentation(
            f"re-weighting map trace identity deviation {dev:.3e}"
        )
    return dm


def trace_identity_deviation(delta: DeltaMap) -> float:
    """max_g | tr(Delta^4 U_g) - |G| delta_{g,e} |."""
    rep = delta.rep
    traces = np.einsum("i,gii->g", delta.weights4, rep.matrices)
    expected = np.zeros(rep.group.order, dtype=complex)
    expected[rep.group.identity] = rep.group.order
    return float(np.abs(traces - expected).max())


def commutation_deviation(delta: DeltaMap) -> float:
    """max_g || Delta U_g - U_g Delta ||_max."""
    w = delta.weights
    mats = delta.rep.matrices
    return float(np.abs(w[None, :, None] * mats - mats * w[None, None, :]).max())


def load_group_document(doc: Mapping) -> tuple[GroupTable, list[Irrep]]:
    """Parse a user group JSON document.

    Expected shape::

        {"name": str, "order": int, "mult_table": [[...]],
         "irreps": [{"label": str, "dim": int,
                     "matrices_re": [...], "matrices_im": [...]}]}
    """
    group = build_group(doc)
    raw = doc.get("irreps")
    if raw is None:
        raise IncompleteIrrepSet("user group document lacks an 'irreps' list")
    supplied = []
    try:
        for k, entry in enumerate(raw):
            re_part = np.asarray(entry["matrices_re"], dtype=float)
            im_part = np.asarray(entry.get("matrices_im", np.zeros_like(re_part)), dtype=float)
            mats = re_part + 1j * im_part
            supplied.append(Irrep(str(entry.get("label", f"irrep{k}")), int(entry["dim"]), mats))
    except (KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed 'irreps' list: {exc}") from exc
    return group, irreps(group, supplied)
