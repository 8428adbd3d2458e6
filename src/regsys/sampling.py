"""Seeded random instances for the verification suites.

Every generator takes a numpy Generator so experiment scripts can pin the
stream. Systems are drawn stable with a prescribed spectral abscissa, and
the observation pair (C, D) is rescaled so the input-output matrix on the
reference grid has a requested norm; keeping that norm below one makes the
identity-feedback loop well conditioned by construction.
"""

from __future__ import annotations

import numpy as np

from .errors import ControllabilityError
from .gramian import control_operator, observability_constant, surjectivity_radius
from .grids import TimeGrid
from .node import Realization, _markov, _spectral_norm, lifted_quadruple


def _stable_a(rng: np.random.Generator, n: int, abscissa: float) -> np.ndarray:
    a = rng.standard_normal((n, n)) / np.sqrt(n)
    return a + (abscissa - np.max(np.linalg.eigvals(a).real)) * np.eye(n)


def random_realization(
    rng: np.random.Generator,
    n: int,
    m: int,
    p: int,
    *,
    abscissa: float = -0.5,
    io_scale: float | None = 0.5,
    grid: TimeGrid | None = None,
) -> Realization:
    """Random stable system with spectral abscissa pinned at `abscissa`.

    When io_scale is given, C and D are jointly rescaled so the
    input-output matrix on `grid` (default: 48 steps to t=1.5) has spectral
    norm io_scale; the map is linear in (C, D) so one norm evaluation, of
    its Markov blocks, suffices.
    """
    a = _stable_a(rng, n, abscissa)
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


def across_instance(
    rng: np.random.Generator,
    g: TimeGrid,
    *,
    n: int = 4,
    m: int = 2,
    q: int = 2,
    io_scale: float = 0.4,
    min_radius: float = 1e-8,
) -> tuple[Realization, Realization]:
    """Square loop system plus an input-side companion sharing (A, C).

    The companion (A, DB, C, P) has q input channels; its input map is
    resampled (up to 50 draws) until its smallest singular value clears
    min_radius, so the radius of surjectivity is meaningfully positive.
    """
    main = random_realization(rng, n, m, m, io_scale=io_scale, grid=g)
    for _ in range(50):
        db = rng.standard_normal((n, q))
        p_ft = 0.1 * rng.standard_normal((m, q))
        pert = Realization(main.A, db, main.C, p_ft)
        if g.n_steps * q >= n and surjectivity_radius(control_operator(pert, g).matrix) > min_radius:
            return main, pert
    raise ControllabilityError("could not draw a companion with surjective input map")


def cross_instance(
    rng: np.random.Generator,
    g: TimeGrid,
    *,
    n: int = 4,
    m: int = 2,
    r_out: int = 2,
    io_scale: float = 0.4,
    min_constant: float = 1e-8,
) -> tuple[Realization, Realization]:
    """Square loop system plus an output-side companion sharing (A, B).

    The companion (A, B, DC, P) has r_out output channels; resampled until
    its output map is bounded below by min_constant.
    """
    main = random_realization(rng, n, m, m, io_scale=io_scale, grid=g)
    for _ in range(50):
        dc = rng.standard_normal((r_out, n))
        p_ft = 0.1 * rng.standard_normal((r_out, m))
        pert = Realization(main.A, main.B, dc, p_ft)
        if observability_constant(pert, g) > min_constant:
            return main, pert
    raise ControllabilityError("could not draw a companion with bounded-below output map")


def double_instance(
    rng: np.random.Generator,
    g: TimeGrid,
    *,
    n: int = 4,
    m: int = 2,
    q: int = 2,
    r_out: int = 2,
    io_scale: float = 0.4,
) -> tuple[Realization, Realization, Realization, Realization]:
    """Loop system plus the three feedthrough-free companions for the
    two-sided composition: (A, DB, C, 0), (A, B, DC, 0), (A, DB, DC, 0)."""
    main = random_realization(rng, n, m, m, io_scale=io_scale, grid=g)
    db = rng.standard_normal((n, q))
    dc = rng.standard_normal((r_out, n))
    pert_b = Realization(main.A, db, main.C, np.zeros((main.p, q)))
    pert_c = Realization(main.A, main.B, dc, np.zeros((r_out, m)))
    pert_bc = Realization(main.A, db, dc, np.zeros((r_out, q)))
    return main, pert_b, pert_c, pert_bc
