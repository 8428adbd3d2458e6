"""Seeded random instances for the verification suites.

Every generator takes a numpy Generator so experiment scripts can pin the
stream. Systems are drawn stable with spectral abscissa -0.5, and the
observation pair (C, D) is rescaled so the input-output matrix on the
reference grid has a requested norm; keeping that norm below one makes the
identity-feedback loop well conditioned by construction.
"""

from __future__ import annotations

import numpy as np

from .errors import ControllabilityError
from .gramian import control_operator, observation_operator
from .grids import TimeGrid
from .node import Realization, _exactness, _markov, _spectral_norm, lifted_quadruple


def random_realization(
    rng: np.random.Generator,
    n: int,
    m: int,
    p: int,
    *,
    io_scale: float | None = 0.5,
    grid: TimeGrid | None = None,
) -> Realization:
    """Random stable system with spectral abscissa pinned at -0.5.

    When io_scale is given, C and D are jointly rescaled so the
    input-output matrix on `grid` (default: 48 steps to t=1.5) has spectral
    norm io_scale; the map is linear in (C, D) so one norm evaluation, of
    its Markov blocks, suffices.
    """
    a = rng.standard_normal((n, n)) / np.sqrt(n)
    a = a + (-0.5 - np.max(np.linalg.eigvals(a).real)) * np.eye(n)
    b = rng.standard_normal((n, m))
    c = rng.standard_normal((p, n))
    d = 0.2 * rng.standard_normal((p, m))
    r = Realization(a, b, c, d)
    if io_scale is None:
        return r
    g = grid if grid is not None else TimeGrid(1.5, 48)
    norm = _spectral_norm(_markov(lifted_quadruple(r, g.dt), slice(None), slice(None), g.n_steps))
    if norm == 0.0:
        return r
    s = io_scale / norm
    return Realization(a, b, s * c, s * d)


# the loop systems of the composition instances: n = 4 states, io-map norm
# 0.4 on the instance grid; every companion adds 2 channels
_N, _IO_SCALE, _EXTRA = 4, 0.4, 2


def across_instance(rng: np.random.Generator, g: TimeGrid, *, m: int = 2) -> tuple[Realization, Realization]:
    """Square loop system plus an input-side companion sharing (A, C).

    The companion (A, DB, C, P) has 2 input channels; it is redrawn (up to
    50 draws) until its input map on g is onto by the package's one
    exactness rule (`node._exactness`).
    """
    main = random_realization(rng, _N, m, m, io_scale=_IO_SCALE, grid=g)
    for _ in range(50):
        db = rng.standard_normal((_N, _EXTRA))
        p_ft = 0.1 * rng.standard_normal((m, _EXTRA))
        pert = Realization(main.A, db, main.C, p_ft)
        if _exactness(control_operator(pert, g).matrix, True)[2]:
            return main, pert
    raise ControllabilityError("could not draw a companion with surjective input map")


def cross_instance(rng: np.random.Generator, g: TimeGrid) -> tuple[Realization, Realization]:
    """Square loop system (2 channels) plus an output-side companion sharing
    (A, B).

    The companion (A, B, DC, P) has 2 output channels; it is redrawn (up
    to 50 draws) until its output map on g is bounded below by the
    package's one exactness rule (`node._exactness`).
    """
    main = random_realization(rng, _N, 2, 2, io_scale=_IO_SCALE, grid=g)
    for _ in range(50):
        dc = rng.standard_normal((_EXTRA, _N))
        p_ft = 0.1 * rng.standard_normal((_EXTRA, 2))
        pert = Realization(main.A, main.B, dc, p_ft)
        if _exactness(observation_operator(pert, g).matrix, False)[2]:
            return main, pert
    raise ControllabilityError("could not draw a companion with bounded-below output map")


def double_instance(
    rng: np.random.Generator, g: TimeGrid
) -> tuple[Realization, Realization, Realization, Realization]:
    """Loop system (2 channels) plus the three feedthrough-free companions
    for the two-sided composition, 2 channels each: (A, DB, C, 0),
    (A, B, DC, 0), (A, DB, DC, 0)."""
    main = random_realization(rng, _N, 2, 2, io_scale=_IO_SCALE, grid=g)
    db = rng.standard_normal((_N, _EXTRA))
    dc = rng.standard_normal((_EXTRA, _N))
    pert_b = Realization(main.A, db, main.C, np.zeros((main.p, _EXTRA)))
    pert_c = Realization(main.A, main.B, dc, np.zeros((_EXTRA, 2)))
    pert_bc = Realization(main.A, db, dc, np.zeros((_EXTRA, _EXTRA)))
    return main, pert_b, pert_c, pert_bc
