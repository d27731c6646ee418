"""Exception types raised across the package.

Every phasefront-specific failure derives from :class:`PhasefrontError` so
callers (and the CLI) can distinguish numerical/experiment failures from
programming errors.
"""


class PhasefrontError(Exception):
    """Base class for all package-specific failures."""


class ConfigError(PhasefrontError):
    """Malformed config file, unknown field, or invalid parameter combination."""


# -- model conditions ---------------------------------------------------------

class NonBistable(PhasefrontError):
    """Reaction term violates the bistable root/sign structure."""


class NotElliptic(PhasefrontError):
    """Sampled diffusivity quadratic form is not positive definite."""


class EquipotentialViolated(PhasefrontError):
    """A well-balance integral of a diffusivity entry against f is nonzero."""


class NotUnit(PhasefrontError):
    """Direction vector is not on the unit sphere."""


class QuadratureFailure(PhasefrontError):
    """Adaptive quadrature failed to meet its tolerance."""


class NegativeW(PhasefrontError):
    """Well potential went negative inside the open root interval."""


# -- standing wave / linearized problem --------------------------------------

class ToleranceFailure(PhasefrontError):
    """Computed profile violates its pointwise residual tolerance."""


class NotSolvable(PhasefrontError):
    """Linearized problem's solvability integral is not (numerically) zero."""


class InnerSingularity(PhasefrontError):
    """Denominator of the linearized-solution formula underflowed too early."""


class SingularEndpoint(PhasefrontError):
    """Endpoint singularity of a mobility integrand is not integrable."""


class NotTangential(PhasefrontError):
    """Test vector is not orthogonal to the direction vector."""


# -- grid solver --------------------------------------------------------------

class Blowup(PhasefrontError):
    """A solution value became non-finite."""


class CFLViolated(PhasefrontError):
    """Requested time step exceeds the stability bound."""


class NoContour(PhasefrontError):
    """The requested level is not crossed by the field."""


class WorkerLost(PhasefrontError):
    """A row-block worker process of the stepper exited during a run."""


# -- front tracking / level set ----------------------------------------------

class DegenerateCurve(PhasefrontError):
    """Curve is too short, self-intersecting, or otherwise unusable."""


class SelfIntersection(PhasefrontError):
    """Evolving front crossed itself (topology change; unsupported)."""


class Extinction(PhasefrontError):
    """Front shrank below the minimal resolvable area (terminal event)."""


class GradientDegeneracy(PhasefrontError):
    """|grad d| collapsed inside the narrow band of the level-set solver."""


# -- experiments ---------------------------------------------------------------

class CeilingExceeded(PhasefrontError):
    """No threshold constant below the configured ceiling works."""


class ExtinctionBeforeEnd(PhasefrontError):
    """Reference flow went extinct before the requested end time."""
