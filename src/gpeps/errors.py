"""Exception types shared across the package.

Every error raised by the library derives from :class:`GPepsError`, so
callers (in particular the CLI) can distinguish validation failures,
resource limits, and theorem-bound violations by class.
"""

from __future__ import annotations


class GPepsError(Exception):
    """Base class for all library errors."""


# ---- group / representation construction -------------------------------

class NonAssociative(GPepsError):
    """Multiplication table violates associativity."""


class MissingIdentity(GPepsError):
    """No element acts as a two-sided identity."""


class MissingInverse(GPepsError):
    """Some element has no inverse."""


class IncompleteIrrepSet(GPepsError):
    """Supplied irreps do not satisfy sum(d_a^2) == |G|."""


class InvalidRepresentation(GPepsError):
    """Representation matrices fail homomorphism/unitarity/irreducibility."""


class ZeroMultiplicity(GPepsError):
    """A semi-regular representation must contain every irrep at least once."""


# ---- tensors / lattice --------------------------------------------------

class DimensionOverflow(GPepsError):
    """Requested dense object exceeds the configured memory cap."""


class InvalidKappa(GPepsError):
    """Condition-number target must be >= 1."""


class SingularOnSymmetric(GPepsError):
    """Deformation is not invertible on the group-symmetric subspace."""


class NonCommutingTwist(GPepsError):
    """Boundary twist (g, h) requires a commuting pair."""


class ZeroState(GPepsError):
    """A contraction produced the zero vector (non-injective deformation)."""


# ---- spectral / protocol -------------------------------------------------

class DimensionMismatch(GPepsError):
    """Operands live in different ambient spaces."""


class BoundViolation(GPepsError):
    """A proven bound failed numerically; signals an implementation bug."""


class InvalidEpsilon(GPepsError):
    """Target failure probability must lie in (0, 1)."""


class UnnormalizedWeights(GPepsError):
    """Block weights must sum to one."""


class StateOutsideProjector(GPepsError):
    """Initial state does not lie in the required ground space."""


class ConfigError(GPepsError):
    """Malformed experiment configuration."""
