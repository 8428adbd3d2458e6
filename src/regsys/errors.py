"""Exception types shared across the package."""


class RegsysError(Exception):
    """Base class for errors raised by this package."""


class ShapeError(RegsysError):
    """Matrix or signal dimensions are inconsistent with the declared sizes."""


class SpectrumError(RegsysError):
    """A frequency-domain evaluation was requested at (or too close to) an
    eigenvalue of the generator."""


class AdmissibilityError(RegsysError):
    """A feedback loop cannot be closed: its loop matrix (I - D gamma,
    I - D_bar, I - G11(lam), I - Kbar) or a boundary block T_b fails the one
    rcond gate of the solves, or the grid admissibility verdict is negative."""


class ControllabilityError(RegsysError):
    """An operation requiring exact controllability/observability was applied
    to a system whose Gramian verdict is negative."""


class GridError(RegsysError):
    """A time value is not aligned with the grid, or grid parameters are
    invalid."""
