"""Multistatic fusion: target position and velocity from bistatic observations.

Position comes from nonlinear least squares on bistatic ranges
(Malanowski & Kulpa, IEEE TAES 48(1), 2012). A bounded coarse-to-fine grid
search (at most _AXIS_CELLS cells per axis, so work and memory do not grow
with the scene or with dim=3) seeds a damped Gauss-Newton refinement,
guarding against the multimodal ellipse-intersection cost. Velocity follows
from the linear system f_D,l = -(1/λ_l)(û_tx,l + û_rx,l)·v solved by
least squares, with rank/conditioning diagnostics that expose
Doppler-blind subspaces explicitly. Each observation carries its link's
two node poses, so no call takes a node map; _link_nodes stacks them, as it
does geometry_condition's pose pairs, and _hops gives every link's unit
vectors and bistatic range at once for all of these.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .geometry import C0, NodePose, as_vec3

_RANK_TOL = 1e-10
_EPS_NODE = 1e-12       # closer than this a point sits on a node (m)
_GRID_CELL = 1.0        # finest grid spacing (m), and the distance within which two solutions are one
_AXIS_CELLS = 64        # grid cells per axis, coarse grid and re-grid windows alike
_REGRID = 4             # best solutions re-gridded at _GRID_CELL spacing
_MAX_SEEDS = 64         # Gauss-Newton seeds from the coarse grid, and from all windows
_BLOCK_ELEMENTS = 2**14  # (cells x links) scored at once
_MAX_ITER = 100         # Gauss-Newton iterations per seed
_STEP_TOL = 1e-9        # a Gauss-Newton step shorter than this (m) has converged


@dataclass(eq=False)
class BistaticObservation:
    """One link's measurement, excess delay (s) and bistatic Doppler (Hz), with the
    poses of the link's Tx and Rx nodes at the time of the measurement."""

    tx: NodePose
    rx: NodePose
    excess_delay: float
    doppler: float
    wavelength: float

    def __post_init__(self):
        if self.excess_delay < 0:
            raise ConfigError("excess delay must be >= 0")
        if self.wavelength <= 0:
            raise ConfigError("wavelength must be positive")


@dataclass(eq=False)
class StateEstimate:
    """Fused target state with residuals and geometry diagnostics."""

    position: np.ndarray | None = None
    velocity: np.ndarray | None = None
    position_residual_rms: float = 0.0
    velocity_residual_rms: float = 0.0
    range_condition: float = np.inf
    doppler_condition: float = np.inf
    doppler_rank: int = 0
    blind_directions: np.ndarray | None = None
    ambiguous: bool = False
    alternates: list[np.ndarray] = field(default_factory=list)
    converged: bool = True


def _link_nodes(pairs) -> np.ndarray:
    """(L, 4, 3): Tx position, Rx position, Tx velocity, Rx velocity of each
    (Tx, Rx) pose pair."""
    return np.array([[tx.position, rx.position, tx.velocity, rx.velocity] for tx, rx in pairs])


def _hops(points, tx, rx, strict: bool = False):
    """Unit vectors û_tx, û_rx (..., L, 3) and bistatic ranges (..., L) of
    points (..., 3) over L links with node positions tx, rx (L, 3).

    Hop vectors run from the antenna to the point, as in geometry.two_hop.
    A point on a node gets its distance clamped to _EPS_NODE (a zero unit
    vector), so grid cells and solver iterates may land there; strict
    raises ConfigError instead.
    """
    u_tx = points[..., None, :] - tx
    u_rx = points[..., None, :] - rx
    d_tx = np.linalg.norm(u_tx, axis=-1)
    d_rx = np.linalg.norm(u_rx, axis=-1)
    if min(d_tx.min(), d_rx.min()) < _EPS_NODE:
        if strict:
            raise ConfigError("position coincides with a node")
        d_tx, d_rx = np.maximum(d_tx, _EPS_NODE), np.maximum(d_rx, _EPS_NODE)
    u_tx /= d_tx[..., None]
    u_rx /= d_rx[..., None]
    return u_tx, u_rx, d_tx + d_rx


def _condition(sv: np.ndarray, n_axes: int) -> float:
    """Condition number sv[0] / sv[-1] of a matrix from its descending singular values sv;
    inf when it has fewer than n_axes of them or is rank-deficient (a blind geometry)."""
    if sv.size < n_axes or not sv[-1] > _RANK_TOL * sv[0]:
        return np.inf
    return float(sv[0] / sv[-1])


def _embed(p: np.ndarray, dim: int) -> np.ndarray:
    return np.array([p[0], p[1], 0.0]) if dim == 2 else p


def _range_residuals(p3, links, targets):
    u_tx, u_rx, ranges = _hops(p3, links[:, 0], links[:, 1])
    return ranges - targets, u_tx + u_rx


def _gauss_newton(p0, links, targets, dim):
    """Levenberg-damped Gauss-Newton on the range cost from a seed point."""
    p = _embed(np.asarray(p0, dtype=float), dim)
    lam = 1e-6
    res, rows = _range_residuals(p, links, targets)
    cost = float(res @ res)
    converged = False
    for _ in range(_MAX_ITER):
        jac = rows[:, :dim]
        jtj = jac.T @ jac
        jtr = jac.T @ res
        try:
            step = np.linalg.solve(jtj + lam * np.eye(dim), -jtr)
        except np.linalg.LinAlgError:
            break
        cand = p.copy()
        cand[:dim] += step
        new_res, new_rows = _range_residuals(cand, links, targets)
        new_cost = float(new_res @ new_res)
        if new_cost <= cost:
            p, res, rows, cost = cand, new_res, new_rows, new_cost
            lam = max(lam / 10.0, 1e-15)
            if np.linalg.norm(step) < _STEP_TOL:
                converged = True
                break
        else:
            lam *= 10.0
            if lam > 1e12:
                break
    return p, np.sqrt(cost / len(targets)), converged


def _scene_box(links, targets, dim: int):
    """Center and half-widths of the box covering every link's iso-range
    ellipse, 1.5x expanded.

    The node bounding box alone can miss the solution (e.g. collinear
    nodes), so each link's box is grown by its semi-major axis R_b/2,
    which bounds the ellipse in every direction.
    """
    a = targets[:, None] / 2.0
    lo = (np.minimum(links[:, 0], links[:, 1]) - a).min(axis=0)
    hi = (np.maximum(links[:, 0], links[:, 1]) + a).max(axis=0)
    half = np.maximum((hi - lo) / 2.0, _GRID_CELL) * 1.5
    return ((lo + hi) / 2.0)[:dim], half[:dim]


def _box_axes(center, half) -> list[np.ndarray]:
    """Axes over center ± half at spacing _GRID_CELL, coarsened to at most _AXIS_CELLS."""
    counts = np.clip(np.ceil(2 * half / _GRID_CELL).astype(int) + 1, 3, _AXIS_CELLS)
    return [np.linspace(c - h, c + h, n) for c, h, n in zip(center, half, counts)]


def _cell_points(axes, flat_idx) -> np.ndarray:
    """(n, 3) positions of flat grid indices (z = 0 on a 2-D grid)."""
    pts = np.zeros((len(flat_idx), 3))
    for a, (ax, i) in enumerate(zip(axes, np.unravel_index(flat_idx, [len(x) for x in axes]))):
        pts[:, a] = ax[i]
    return pts


def _grid_cost(axes, links, targets) -> np.ndarray:
    """Range misfit on the grid spanned by axes, scored in blocks of cells."""
    shape = tuple(len(ax) for ax in axes)
    cost = np.empty(int(np.prod(shape)))
    block = max(1, _BLOCK_ELEMENTS // len(targets))
    for start in range(0, cost.size, block):
        at = np.arange(start, min(start + block, cost.size))
        _, _, ranges = _hops(_cell_points(axes, at), links[:, 0], links[:, 1])
        cost[at] = ((ranges - targets) ** 2).sum(axis=1)
    return cost.reshape(shape)


def _grid_minima(axes, cost, limit: int) -> np.ndarray:
    """Points of the grid's best `limit` local minima (edges count as +inf)."""
    minima = np.ones(cost.shape, dtype=bool)
    for axis in range(cost.ndim):
        upper = tuple(slice(1, None) if a == axis else slice(None) for a in range(cost.ndim))
        lower = tuple(slice(None, -1) if a == axis else slice(None) for a in range(cost.ndim))
        minima[upper] &= cost[upper] <= cost[lower]
        minima[lower] &= cost[lower] <= cost[upper]
    idx = np.union1d(np.flatnonzero(minima), [np.argmin(cost)])
    return _cell_points(axes, idx[np.lexsort((idx, cost.ravel()[idx]))][:limit])


def localize(obs: Sequence[BistaticObservation], dim: int = 2) -> StateEstimate:
    """Position estimate minimizing the bistatic-range misfit.

    A coarse grid over the 1.5x-expanded box of every link's ellipse, at
    most _AXIS_CELLS cells per axis and never finer than _GRID_CELL, seeds the
    solver from its local minima. When the cap made it coarser than
    _GRID_CELL, the box of two coarse cells either side of each of the best
    _REGRID solutions is re-gridded once at _GRID_CELL spacing (same cap), and
    its local minima seed the solver too; so minima closer together than a
    coarse cell, such as near twin ellipse intersections, are both found.
    With fewer observations than dim (or several near-equal minima) every
    refined minimum close to the best is reported and the ambiguity flag is
    set.
    """
    if dim not in (2, 3):
        raise ConfigError("dim must be 2 or 3")
    if not obs:
        raise ConfigError("need at least one observation")
    links = _link_nodes((o.tx, o.rx) for o in obs)
    targets = (C0 * np.array([o.excess_delay for o in obs])
               + np.linalg.norm(links[:, 1] - links[:, 0], axis=1))
    axes = _box_axes(*_scene_box(links, targets, dim))
    solutions = []

    def refine(seeds):
        for seed in seeds:
            p, rms, converged = _gauss_newton(seed, links, targets, dim)
            if not any(np.linalg.norm(p - q) < _GRID_CELL for q, *_ in solutions):
                solutions.append((p, rms, converged))
        solutions.sort(key=lambda s: s[1])

    refine(_grid_minima(axes, _grid_cost(axes, links, targets), _MAX_SEEDS))
    steps = np.array([ax[1] - ax[0] for ax in axes])
    if steps.max() > _GRID_CELL:  # the cap coarsened the grid
        for p, *_ in solutions[:_REGRID]:
            window = _box_axes(p[:dim], 2 * steps)
            refine(_grid_minima(window, _grid_cost(window, links, targets), _MAX_SEEDS // _REGRID))
    best_p, best_rms, best_conv = solutions[0]

    scale = max(float(np.max(targets)), 1.0)
    close = [s for s in solutions if s[1] <= max(10.0 * best_rms, 1e-9 * scale)]
    ambiguous = len(obs) < dim or len(close) > 1

    _, rows = _range_residuals(best_p, links, targets)
    return StateEstimate(
        position=best_p,
        position_residual_rms=float(best_rms),
        range_condition=_condition(np.linalg.svd(rows[:, :dim], compute_uv=False), dim),
        ambiguous=bool(ambiguous),
        alternates=[p for p, *_ in close[1:]],
        converged=bool(best_conv),
    )


def _doppler_matrix(obs, links, position, dim):
    """Rows -(1/λ)(û_tx + û_rx)ᵀ and RHS with node motion moved across."""
    p3 = _embed(np.asarray(position, dtype=float), dim)
    u_tx, u_rx, _ = _hops(p3, links[:, 0], links[:, 1], strict=True)
    lam = np.array([o.wavelength for o in obs])
    rows = (-(u_tx + u_rx) / lam[:, None])[:, :dim]
    node_rate = (u_tx * links[:, 2]).sum(axis=1) + (u_rx * links[:, 3]).sum(axis=1)
    return rows, np.array([o.doppler for o in obs]) - node_rate / lam


def estimate_velocity(obs: Sequence[BistaticObservation], position,
                      dim: int = 2) -> StateEstimate:
    """Velocity vector from measured Dopplers at a known target position.

    Least squares on the stacked Doppler rows. When the row space
    does not span dim directions only the observable component is returned
    (minimum-norm solution) and the blind subspace is reported as the null
    space basis of the coefficient matrix.
    """
    if not obs:
        raise ConfigError("need at least one observation")
    if dim not in (2, 3):
        raise ConfigError("dim must be 2 or 3")
    a, b = _doppler_matrix(obs, _link_nodes((o.tx, o.rx) for o in obs), position, dim)
    u, s, vt = np.linalg.svd(a, full_matrices=True)
    n_axes = a.shape[1]
    rank = int(np.sum(s > _RANK_TOL * (s[0] if s.size else 1.0)))
    ub = u.T @ b
    coeffs = np.zeros(n_axes)
    coeffs[:rank] = ub[:rank] / s[:rank]
    v = vt.T @ coeffs
    blind = vt[rank:].T if rank < n_axes else None
    residual = a @ v - b
    return StateEstimate(
        position=_embed(np.asarray(position, dtype=float), dim),
        velocity=_embed(v, dim),
        velocity_residual_rms=float(np.sqrt(np.mean(residual**2))),
        doppler_condition=_condition(s, n_axes),
        doppler_rank=rank,
        blind_directions=blind,
    )


def fuse(obs: Sequence[BistaticObservation], dim: int = 2) -> StateEstimate:
    """localize + estimate_velocity in one pass, merged into one estimate."""
    pos_est = localize(obs, dim)
    vel_est = estimate_velocity(obs, pos_est.position, dim)
    return replace(vel_est, position=pos_est.position, position_residual_rms=pos_est.position_residual_rms,
                   range_condition=pos_est.range_condition, ambiguous=pos_est.ambiguous,
                   alternates=pos_est.alternates, converged=pos_est.converged)


def geometry_condition(links: Sequence[tuple[NodePose, NodePose]], position,
                       dim: int = 2, wavelengths: Sequence[float] | None = None) -> dict:
    """Conditioning of the range Jacobian and Doppler matrix at a position.

    Returns {"position_gdop", "velocity_condition"}; infinity flags a
    rank-deficient (blind or degenerate) geometry.
    """
    if not links:
        raise ConfigError("need at least one link")
    if dim not in (2, 3):
        raise ConfigError("dim must be 2 or 3")
    position = as_vec3(_embed(np.asarray(position, dtype=float), dim))
    lams = np.asarray(wavelengths if wavelengths is not None else np.ones(len(links)), dtype=float)
    if lams.shape != (len(links),):
        raise ConfigError(f"need one wavelength per link, got {lams.size} for {len(links)}")
    nodes = _link_nodes(links)
    u_tx, u_rx, _ = _hops(position, nodes[:, 0], nodes[:, 1], strict=True)
    rows_r = (u_tx + u_rx)[:, :dim]
    rows_d = -rows_r / lams[:, None]
    return {"position_gdop": _condition(np.linalg.svd(rows_r, compute_uv=False), dim),
            "velocity_condition": _condition(np.linalg.svd(rows_d, compute_uv=False), dim)}
