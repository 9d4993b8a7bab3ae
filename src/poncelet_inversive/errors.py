"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for all geometric/numeric failures raised here."""


class DegenerateInput(GeometryError):
    """Input point set is rank-deficient (collinear, duplicated, ...)."""


class SingularMap(GeometryError):
    """Projective map is singular within tolerance."""


class DegenerateConicError(GeometryError):
    """Operation requires a nondegenerate conic."""


class RootToleranceExceeded(GeometryError):
    """Unit-circle vertices from the phase inversion do not solve the
    family cubic (cubic-residual guard)."""


class FamilyError(GeometryError):
    """Invalid Poncelet family parameters."""


class NotNested(FamilyError):
    """Recovered foci fall outside the unit disk."""


class CayleyViolation(FamilyError):
    """Inner circle does not admit a Poncelet triangle family."""


class CenterSingularity(GeometryError):
    """Point to invert coincides with the inversion center."""


class CollinearVertices(GeometryError):
    """Triangle vertices are collinear; no circumcircle exists."""


class OnCircumcircle(GeometryError):
    """Inversion center lies on the circumcircle; locus point at infinity."""


class DegenerateConfiguration(GeometryError):
    """Points coincide where a ratio or direction is required."""


class DegenerateDenominator(GeometryError):
    """Closed-form denominator vanished."""
