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
    I - D_bar, I - F on the grid, I - G11(lam), I - Kbar) or a boundary
    block T_b fails the one rcond gate of the solves."""


class ControllabilityError(RegsysError):
    """An operation requiring exact controllability/observability met a map
    that fails the one exactness verdict (`node._exactness`: not onto, or
    not bounded below, with sigma_min <= 1e-8 max(sigma_max, 1)), or a
    minimum-norm control whose residual exceeds 1e-8 of its target."""


class GridError(RegsysError):
    """A time value is not aligned with the grid, or grid parameters are
    invalid."""
