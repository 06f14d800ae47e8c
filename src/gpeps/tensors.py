"""Group-symmetric site tensors, invertible deformations, and the
regrouping equivalence between semi-regular and regular constructions.

The site tensor on the four virtual legs ``(l, t, r, b)`` is

    A = (1/|G|) sum_g  (D Ubar_g) (x) (D Ubar_g) (x) (D U_g) (x) (D U_g)

with ``D`` the re-weighting map and conjugated factors on the left/top
legs.  ``A`` is Hermitian positive-semidefinite; its range is the
G-symmetric subspace ``S_G`` and the PEPS physical space is stored in the
compressed orthonormal basis of that range.  Its dimension is the
character count ``|G|^-1 sum_g |chi(g)|^4`` (``|G|**3`` for the regular
representation), which every build checks.  The dense ``A`` is built to
find that basis and is not kept.  It is built and diagonalized in the
arithmetic of the representation: real ``float64`` when every ``D U_g`` is
exactly real (the built-in trivial, S3 and D4 representations), complex
otherwise; the basis and the compressed map are ``complex128`` either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .caps import check_amplitudes, max_amplitudes
from .errors import BoundViolation, DimensionMismatch, InvalidKappa, SingularOnSymmetric
from .groups import DeltaMap, SemiRegularRep, delta_map

RANK_TOL = 1e-10          # relative singular-value threshold for S_G
SINGULAR_TOL = 1e-12      # absolute sigma_min threshold for G-injectivity
REGROUP_TOL = 1e-10       # regrouped Gram against the right-translation pattern


@dataclass(frozen=True, eq=False)
class SiteTensor:
    """Group-symmetrized site tensor with its compressed physical basis.

    ``sym_basis`` (shape ``D^4 x d``) orthonormally spans the range of the
    dense map ``A`` on the virtual space ``(C^D)^{x4}``, and
    ``compressed_map = sym_basis^dag @ A`` sends virtual legs to the
    compressed physical space ``C^d``.
    """

    rep: SemiRegularRep
    sym_basis: np.ndarray
    sym_dim: int
    compressed_map: np.ndarray

    @property
    def bond_dim(self) -> int:
        return self.rep.total_dim

    def leg_tensor(self) -> np.ndarray:
        """Compressed map reshaped to axes (physical, l, t, r, b)."""
        D = self.bond_dim
        return self.compressed_map.reshape(self.sym_dim, D, D, D, D)


@dataclass(frozen=True, eq=False)
class Deformation:
    """Positive operator on the compressed physical space of one vertex."""

    site: int
    matrix: np.ndarray  # (d, d) positive-semidefinite
    kappa_sym: float
    kappa_target: float | None = None
    seed: int | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class RegroupReport:
    """Numerical record of the regrouping equivalence checks."""

    rep: SemiRegularRep
    gram_deviation: float
    entry_check: bool
    entry_deviation: float
    b_decomposition_deviation: float
    explicit_gram_deviation: float | None  # None when C is too large to build


def _weighted_unitaries(rep: SemiRegularRep, delta: DeltaMap, power: int = 1) -> np.ndarray:
    """Stack of ``Delta**power @ U_g`` (row scaling, Delta is diagonal),
    real ``float64`` when every entry is exactly real, ``complex128`` otherwise."""
    w = delta.weights**power
    stack = w[None, :, None] * rep.matrices
    return stack if stack.imag.any() else stack.real


def _eq2_matrix(rep: SemiRegularRep, delta: DeltaMap) -> np.ndarray:
    """Dense site map ``A`` in the arithmetic of :func:`_weighted_unitaries`.

    Each term is the Kronecker product ``Ubar x Ubar x U x U`` with the
    products taken in the same order, added through an axis view of the
    accumulator, so that only the accumulator and one term are live."""
    du = _weighted_unitaries(rep, delta)
    duc = du.conj()
    D = rep.total_dim
    outer = np.multiply.outer
    acc = np.zeros((D**4, D**4), dtype=du.dtype)
    by_leg = acc.reshape((D,) * 8)  # row legs (i, k, m, p), then column legs (j, l, n, q)
    rows_first = (0, 2, 4, 6, 1, 3, 5, 7)  # from the outer product's (i, j, k, l, m, n, p, q)
    for g in range(rep.group.order):
        by_leg += outer(outer(outer(duc[g], duc[g]), du[g]), du[g]).transpose(rows_first)
    acc /= rep.group.order
    return acc


def build_site_tensor(rep: SemiRegularRep) -> SiteTensor:
    """Assemble the site tensor and extract the symmetric-subspace basis.

    The clean-up, ``eigh``, rank cut and compression run in the dtype
    :func:`_eq2_matrix` chose from the representation; nothing after it
    looks at the values of ``A`` to choose again.  The amplitude cap counts
    three dense ``D^4 x D^4`` matrices: ``A`` with one Kronecker term or
    its conjugate while it is built, and during ``eigh`` ``A``, the
    eigenvectors and LAPACK's copy of ``A`` (not its workspace).  Raises
    :class:`DimensionOverflow` when they would exceed the cap, and
    :class:`BoundViolation` when the rank cut disagrees with the character
    count of ``S_G``.
    """
    check_amplitudes(3 * (rep.total_dim**4) ** 2, "dense site map (three live copies)")
    matrix = _eq2_matrix(rep, delta_map(rep))
    matrix += matrix.conj().T  # clean Hermiticity at roundoff level, in place
    matrix /= 2.0
    evals, evecs = np.linalg.eigh(matrix)
    evals = evals[::-1]
    evecs = evecs[:, ::-1]
    keep = evals > RANK_TOL * max(evals[0], 0.0)
    sym_dim = int(keep.sum())
    # Delta is invertible and commutes with every U_g, so A has the rank of
    # the group average of Ubar x Ubar x U x U: |G|^-1 sum_g |chi(g)|^4
    count = round(float(np.mean(np.abs(np.trace(rep.matrices, axis1=1, axis2=2)) ** 4)))
    if sym_dim != count:
        raise BoundViolation(f"symmetric subspace has rank {sym_dim}, character count {count}")
    sym_basis = np.ascontiguousarray(evecs[:, keep])
    del evecs  # a dense map: free it before the compression
    return SiteTensor(
        rep=rep,
        sym_basis=sym_basis.astype(complex, copy=False),
        sym_dim=sym_dim,
        compressed_map=(sym_basis.conj().T @ matrix).astype(complex, copy=False),
    )


def identity_deformation(tensor: SiteTensor, site: int = 0) -> Deformation:
    return Deformation(
        site=site,
        matrix=np.eye(tensor.sym_dim, dtype=complex),
        kappa_sym=1.0,
        kappa_target=1.0,
    )


def random_deformation(
    tensor: SiteTensor,
    kappa_target: float,
    seed: int,
    site: int = 0,
) -> Deformation:
    """Random positive-definite deformation with a pinned condition number.

    Spectrum is log-uniform on ``[1/kappa, 1]`` in a Haar-random eigenbasis,
    with the extreme eigenvalues pinned to the interval endpoints so the
    realized condition number matches the target.
    """
    if kappa_target < 1.0:
        raise InvalidKappa(f"kappa_target must be >= 1, got {kappa_target}")
    d = tensor.sym_dim
    if d == 1 and kappa_target != 1.0:
        raise InvalidKappa("cannot realize kappa > 1 on a one-dimensional space")
    rng = np.random.Generator(np.random.Philox(seed))
    ginibre = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(ginibre)
    q = q * (np.diag(r) / np.abs(np.diag(r)))  # phase fix: Haar-distributed q
    spectrum = np.exp(rng.uniform(np.log(1.0 / kappa_target), 0.0, size=d))
    spectrum[0] = 1.0
    if d > 1:
        spectrum[1] = 1.0 / kappa_target
    matrix = (q * spectrum) @ q.conj().T
    matrix = (matrix + matrix.conj().T) / 2.0
    sing = np.linalg.svd(matrix, compute_uv=False)
    return Deformation(
        site=site,
        matrix=matrix,
        kappa_sym=float(sing[0] / sing[-1]),
        kappa_target=float(kappa_target),
        seed=int(seed),
    )


def condition_number_on_symmetric(deformation: Deformation, tensor: SiteTensor) -> float:
    """sigma_max / sigma_min of the deformation on ``S_G``, where it is
    written in the compressed basis (``d x d``) like every deformation."""
    d = tensor.sym_dim
    if deformation.matrix.shape != (d, d):
        raise DimensionMismatch(
            f"deformation shaped {deformation.matrix.shape}; expected ({d}, {d})"
        )
    sing = np.linalg.svd(deformation.matrix, compute_uv=False)
    if sing[-1] <= SINGULAR_TOL:
        raise SingularOnSymmetric(
            f"sigma_min = {sing[-1]:.3e} on the symmetric subspace"
        )
    return float(sing[0] / sing[-1])


# ---------------------------------------------------------------------------
# regrouping equivalence


def _tuple_components(n: int) -> np.ndarray:
    """(4, n^4) array of the components of all 4-tuples in row-major order."""
    return np.indices((n, n, n, n)).reshape(4, -1)


def _right_translation_pattern(rep: SemiRegularRep) -> np.ndarray:
    """Count matrix: entry [(g'), (g)] = #{k : g_i k = g'_i for all i}."""
    group = rep.group
    n = group.order
    g1, g2, g3, g4 = _tuple_components(n)
    cols = np.arange(n**4)
    counts = np.zeros((n**4, n**4), dtype=np.int8)
    for k in range(n):
        m1 = group.mult[g1, k]
        m2 = group.mult[g2, k]
        m3 = group.mult[g3, k]
        m4 = group.mult[g4, k]
        rows = ((m1 * n + m2) * n + m3) * n + m4
        counts[rows, cols] += 1
    return counts


def verify_regroup_equivalence(rep: SemiRegularRep) -> RegroupReport:
    """Check that regrouping reduces any semi-regular construction to the
    regular one.

    Builds the four-leg tensor from the representation, verifies its
    factorization into two three-leg pieces, forms the regrouped tensor's
    Gram matrix leg-by-leg from Hilbert-Schmidt inner products of the
    ``Delta^2 U`` leg operators, and compares it against the exact
    right-translation pattern: entries are 1 exactly when the two group
     4-tuples differ by a common right factor.  ``gram_deviation`` compares
    the isometrically normalized Gram against ``|G|^{-1} sum_g R_g^{x4}``.
    """
    group = rep.group
    n = group.order
    D = rep.total_dim
    check_amplitudes((n**4) ** 2, "regroup Gram")
    check_amplitudes((D**4) ** 2, "dense site map")
    delta = delta_map(rep)
    du = _weighted_unitaries(rep, delta)

    # factorization of the site tensor into conjugated/plain halves, in the
    # arithmetic of the representation; differences are formed in place
    site = _eq2_matrix(rep, delta)
    half_conj = np.einsum("gij,gkl->gikjl", du.conj(), du.conj()).reshape(n, D**2, D**2)
    half_plain = np.einsum("gij,gkl->gikjl", du, du).reshape(n, D**2, D**2)
    refactored = np.einsum("gij,gkl->ikjl", half_conj, half_plain).reshape(D**4, D**4)
    refactored /= n
    site -= refactored
    del refactored
    b_dev = float(np.abs(site).max())
    del site

    # Gram matrix of the regrouped tensor, leg by leg:
    # each leg carries Delta^2 U_{a_r} with a_1 = g1 g2^-1, a_2 = g2 g3^-1,
    # a_3 = g4 g3^-1, a_4 = g1 g4^-1, and the raw prefactor 1/|G|^2.
    # Row i is the product over legs of hs[a[i], a], formed row by row.
    d2u = _weighted_unitaries(rep, delta, power=2)
    hs = np.einsum("uij,vij->uv", d2u.conj(), d2u)
    ratio = group.mult[:, group.inverse]  # ratio[a, b] = a * b^-1
    g1, g2, g3, g4 = _tuple_components(n)
    legs = [ratio[g1, g2], ratio[g2, g3], ratio[g4, g3], ratio[g1, g4]]
    leg_rows = [hs[:, a] for a in legs]  # leg_rows[r][u] = hs[u, a_r]
    gram = np.empty((n**4, n**4), dtype=hs.dtype)
    for i, row in enumerate(gram):
        np.multiply(leg_rows[0][legs[0][i]], leg_rows[1][legs[1][i]], out=row)
        row *= leg_rows[2][legs[2][i]]
        row *= leg_rows[3][legs[3][i]]
    gram /= float(n) ** 4

    explicit_dev = None
    if (D**8) * (n**4) <= max_amplitudes():
        c_cols = np.empty((D**8, n**4), dtype=complex)
        for col in range(n**4):
            vec = np.array([1.0], dtype=complex)
            for a in legs:
                vec = np.kron(vec, d2u[a[col]].reshape(-1))
            c_cols[:, col] = vec
        c_cols /= float(n) ** 2
        explicit = c_cols.conj().T @ c_cols
        explicit -= gram
        explicit_dev = float(np.abs(explicit).max())

    pattern = _right_translation_pattern(rep)
    if pattern.max() > 1:
        raise AssertionError("right-translation solutions are not unique")
    gram -= pattern
    entry_dev = float(np.abs(gram).max())
    # Normalizing C isometrically (C / sqrt|G|) turns the 0/1 pattern into
    # the group average of right translations; same deviation up to 1/|G|.
    gram_dev = entry_dev / n

    return RegroupReport(
        rep=rep,
        gram_deviation=gram_dev,
        entry_check=entry_dev <= REGROUP_TOL,
        entry_deviation=entry_dev,
        b_decomposition_deviation=b_dev,
        explicit_gram_deviation=explicit_dev,
    )


# ---------------------------------------------------------------------------
# serialization (reproducible protocol runs)


def deformation_to_dict(deformation: Deformation) -> dict:
    return {
        "site": deformation.site,
        "kappa_sym": deformation.kappa_sym,
        "kappa_target": deformation.kappa_target,
        "seed": deformation.seed,
        "matrix_re": deformation.matrix.real.tolist(),
        "matrix_im": deformation.matrix.imag.tolist(),
    }


def deformation_from_dict(doc: dict) -> Deformation:
    matrix = np.asarray(doc["matrix_re"], dtype=float) + 1j * np.asarray(
        doc["matrix_im"], dtype=float
    )
    return Deformation(
        site=int(doc["site"]),
        matrix=matrix,
        kappa_sym=float(doc["kappa_sym"]),
        kappa_target=doc.get("kappa_target"),
        seed=doc.get("seed"),
    )
