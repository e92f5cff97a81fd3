"""Exception types shared across the kernel."""


class KernelError(Exception):
    """Base class for every error raised by this package."""


class NotAUnit(KernelError):
    """Inversion was requested for an element that is zero mod p."""


class NotDivisible(KernelError):
    """An exact division by a power of p (or by E(u)) left a remainder."""


class PrecisionExhausted(KernelError):
    """An operation needs more p-adic precision than the value carries."""


class DegreeOverflow(KernelError):
    """An index outside an accessor or a table: a coefficient or gamma
    index past a truncation, a negative power or shift, a factorial past
    its table, or more gamma-coefficients than N_gamma."""


class NotInvertible(KernelError):
    """Matrix is singular over the residue field."""


class SingularMatrix(KernelError):
    """Determinant vanishes identically at the working precision."""


class MalformedJumps(KernelError):
    """Filtration jumps are out of range or not sorted."""


class NotStrong(KernelError):
    """The module fails the strongness condition needed by this operation."""


class NotDirectSummand(KernelError):
    """A filtration step is not a direct summand."""


class NonConvergent(KernelError):
    """The section iteration failed to stabilise within its step budget."""


class A0NotScaledIntegral(KernelError):
    """p^r times the inverse of the constant Frobenius matrix is not integral."""


class NotCris(KernelError):
    """Monodromy matrix does not land in u times the module."""


class SchemaMismatch(KernelError):
    """A JSON document does not match the expected schema."""


class PrecisionMismatch(KernelError):
    """Serialized precision exceeds what the ambient parameters allow."""
