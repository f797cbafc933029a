"""Scene assembly: nodes, targets, and clutter composed into per-link paths.

A scene is the geometric ground truth, and it passes objects, not ids: a
link is a pair of SceneNodes (links()), and every path function takes the
two antenna poses at t. link_paths() turns the scene into the path table
the channel synthesizer consumes, one call per link and block of symbol
times: the direct Tx-Rx line-of-sight, one path per clutter scatterer (a
PointScatterer at rest at its world-frame position), and one path per
sample of targets.states(target, t), the one body-to-world map
pose(t) + rotation(t)·body, whatever the kind of target. Every node
answers pose(t) with an anonymous NodePose: (3,) for a static node, whose
paths are then evaluated once per call and broadcast over its times,
t.shape + (3,) on a trajectory; names live on SceneNode.node_id and a
target's name. illumination_paths() builds the one-way Tx-to-point channel
(direct plus single bounces off clutter) used for transmit predistortion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import PathTable, join_paths
from .errors import ConfigError, GeometryError
from .geometry import C0, NodePose, Trajectory, pose_at
from .geometry import bistatic_doppler  # noqa: F401  unused; bench/tracing.py counts calls made through it
from .targets import FOUR_PI, PointScatterer, RigidTarget, Rotor, ScattererStates, bounce_paths, target_paths


@dataclass(eq=False)
class SceneNode:
    """A radio node: a pose at rest or a trajectory, whose slopes both synthesis modes
    follow, plus its unique id. A static pose with a velocity raises ConfigError."""

    node_id: str
    motion: NodePose | Trajectory

    def __post_init__(self):
        if isinstance(self.motion, NodePose):
            if np.any(self.motion.velocity != 0):
                raise ConfigError(f"node {self.node_id!r}: a static node is at rest; give it a trajectory to move")

    def pose(self, t) -> NodePose:
        """Pose at time(s) t; a static node gives its stored (3,) pose."""
        if isinstance(self.motion, Trajectory):
            return pose_at(self.motion, t)
        return self.motion


@dataclass(eq=False)
class SceneConfig:
    """Scene of Tx/Rx nodes, moving targets, and static clutter scatterers."""

    tx_nodes: list[SceneNode]
    rx_nodes: list[SceneNode]
    targets: list[RigidTarget | Rotor] = field(default_factory=list)
    clutter: list[PointScatterer] = field(default_factory=list)
    wavelength: float = C0 / 3.7e9
    include_los: bool = True

    def __post_init__(self):
        if not self.tx_nodes or not self.rx_nodes:
            raise ConfigError("scene needs at least one Tx and one Rx node")
        if self.wavelength <= 0:
            raise ConfigError("wavelength must be positive")
        seen = set()
        for node in [*self.tx_nodes, *self.rx_nodes]:
            if node.node_id in seen:
                raise ConfigError(f"duplicate node id {node.node_id!r}")
            seen.add(node.node_id)

    def target(self, name: str | None = None):
        """The target called name, or the first target when name is None."""
        if not self.targets:
            raise ConfigError("scene has no targets")
        if name is None:
            return self.targets[0]
        for t in self.targets:
            if t.name == name:
                return t
        raise ConfigError(f"scene has no target named {name!r}")

    def links(self) -> list[tuple[SceneNode, SceneNode]]:
        return [(tx, rx) for tx in self.tx_nodes for rx in self.rx_nodes]


def los_paths(tx: NodePose, rx: NodePose, lam: float, doppler: bool = False) -> PathTable:
    """Direct path between two nodes with free-space (Friis) amplitude λ/(4πd)."""
    sep = rx.position - tx.position
    with np.errstate(over="ignore"):   # an overflow is reported below
        d = np.linalg.norm(sep, axis=-1, keepdims=True)
    if np.any(d < 1e-9):
        raise GeometryError("path endpoints coincide; no direct path")
    if not np.all(d < np.inf):
        raise GeometryError("direct path length is not finite: node coordinates too large")
    gain = lam / (FOUR_PI * d) * np.exp(-1j * (2 * np.pi * d / lam))
    table = PathTable(d / C0, gain)
    if doppler:
        table.doppler = -np.sum(sep / d * (rx.velocity - tx.velocity), axis=-1, keepdims=True) / lam
    return table


def clutter_paths(clutter: list[PointScatterer], tx: NodePose, rx: NodePose, lam: float,
                  doppler: bool = False) -> PathTable:
    """Single-bounce paths via the static environment scatterers."""
    return bounce_paths(ScattererStates.stack(clutter), tx, rx, lam, doppler)


def link_paths(scene: SceneConfig, tx: NodePose, rx: NodePose, t, doppler: bool = False) -> PathTable:
    """All paths of one sensing link at time(s) t: LoS + clutter + targets.

    tx and rx are the two antenna poses at t. Returns a PathTable of shape
    t.shape + (P,). Geometric synthesis passes a block of symbol times
    (through link_callback); fixed mode passes one time, the link's poses
    at t0, and doppler=True.
    """
    tables = []
    if scene.include_los:
        tables.append(los_paths(tx, rx, scene.wavelength, doppler))
    if scene.clutter:
        tables.append(clutter_paths(scene.clutter, tx, rx, scene.wavelength, doppler))
    for target in scene.targets:
        tables.append(target_paths(target, tx, rx, t, scene.wavelength, doppler))
    return join_paths(tables, np.shape(t))


def link_callback(scene: SceneConfig, tx_node: SceneNode, rx_node: SceneNode):
    """Geometric-mode block callback: times -> link_paths at the nodes' poses at those times."""
    return lambda times: link_paths(scene, tx_node.pose(times), rx_node.pose(times), times)


def illumination_paths(scene: SceneConfig, tx: NodePose, end: NodePose) -> PathTable:
    """One-way Tx-to-point channel: direct ray plus single bounces via clutter.

    This is the illumination channel a transmitter can pre-distort against;
    tx is the Tx pose and end the receive point's pose (a target's), both
    at one instant. Returns a (P,) table, direct ray first, whose doppler
    array is filled: a moving point gives each path its own Doppler via the
    path's final leg, which is what makes per-path Doppler matching
    meaningful.
    """
    tables = [los_paths(tx, end, scene.wavelength, doppler=True)]
    if scene.clutter:
        tables.append(clutter_paths(scene.clutter, tx, end, scene.wavelength, doppler=True))
    return join_paths(tables, ())
