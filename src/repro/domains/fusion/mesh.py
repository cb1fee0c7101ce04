"""Unstructured-mesh interpolation: the IMAS/XGC1 mesh problem.

Section 3.2: fusion assimilation workflows need "regridding or
interpolation across incompatible meshes (as in IMAS and XGC1)."
Gyrokinetic codes like XGC1 compute on unstructured triangular meshes of
the poloidal plane; integrated-modelling suites (IMAS) and ML pipelines
want fields on regular (R, Z) grids — and vice versa.  This module
implements both directions from scratch:

* :class:`TriangularMesh` — nodes + triangles with validity checks,
  point location by barycentric coordinates, and a synthetic
  tokamak-cross-section mesh generator (denser near the plasma edge,
  like real XGC meshes);
* :func:`mesh_to_grid` — barycentric (P1 finite-element) interpolation
  of node fields onto a regular grid, with an outside-domain mask;
* :func:`grid_to_mesh` — bilinear sampling of grid fields at mesh nodes.

A round-trip property (mesh → grid → mesh recovers smooth fields) is
exercised in the tests; flux-surface-like fields make the checks
physically meaningful.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "MeshError",
    "TriangularMesh",
    "tokamak_mesh",
    "mesh_to_grid",
    "grid_to_mesh",
]


class MeshError(ValueError):
    """Degenerate triangles, shape mismatches, or empty meshes."""


@dataclasses.dataclass
class TriangularMesh:
    """An unstructured 2-D triangular mesh.

    Attributes
    ----------
    nodes:
        ``(n_nodes, 2)`` coordinates (R, Z).
    triangles:
        ``(n_triangles, 3)`` integer node indices, counter-clockwise.
    """

    nodes: np.ndarray
    triangles: np.ndarray

    def __post_init__(self) -> None:
        self.nodes = np.asarray(self.nodes, dtype=np.float64)
        self.triangles = np.asarray(self.triangles, dtype=np.int64)
        if self.nodes.ndim != 2 or self.nodes.shape[1] != 2:
            raise MeshError("nodes must have shape (n, 2)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must have shape (m, 3)")
        if self.triangles.size:
            if self.triangles.min() < 0 or self.triangles.max() >= len(self.nodes):
                raise MeshError("triangle indices out of node range")
            if np.any(np.abs(self._signed_areas()) < 1e-14):
                raise MeshError("mesh contains degenerate (zero-area) triangles")

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def _signed_areas(self) -> np.ndarray:
        a = self.nodes[self.triangles[:, 0]]
        b = self.nodes[self.triangles[:, 1]]
        c = self.nodes[self.triangles[:, 2]]
        return 0.5 * (
            (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
            - (c[:, 0] - a[:, 0]) * (b[:, 1] - a[:, 1])
        )

    def bounds(self) -> Tuple[float, float, float, float]:
        """(r_min, r_max, z_min, z_max)."""
        return (
            float(self.nodes[:, 0].min()),
            float(self.nodes[:, 0].max()),
            float(self.nodes[:, 1].min()),
            float(self.nodes[:, 1].max()),
        )

    # -- point location ---------------------------------------------------------
    def barycentric(
        self, points: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Locate *points*: returns ``(triangle_index, weights)``.

        ``triangle_index`` is -1 (weights zero) for points outside the
        mesh.  Vectorized over all points x all triangles — fine for the
        mesh sizes of the reproduction; a real XGC1 coupler would add a
        spatial index on top of the same math.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 2:
            raise MeshError("points must have shape (k, 2)")
        a = self.nodes[self.triangles[:, 0]]  # (m, 2)
        b = self.nodes[self.triangles[:, 1]]
        c = self.nodes[self.triangles[:, 2]]
        v0 = b - a
        v1 = c - a
        denominator = v0[:, 0] * v1[:, 1] - v1[:, 0] * v0[:, 1]  # (m,)
        # (k, m, 2): vector from each triangle's vertex a to each point
        v2 = points[:, None, :] - a[None, :, :]
        w1 = (v2[:, :, 0] * v1[None, :, 1] - v1[None, :, 0] * v2[:, :, 1]) / denominator
        w2 = (v0[None, :, 0] * v2[:, :, 1] - v2[:, :, 0] * v0[None, :, 1]) / denominator
        w0 = 1.0 - w1 - w2
        eps = 1e-10
        inside = (w0 >= -eps) & (w1 >= -eps) & (w2 >= -eps)
        triangle_index = np.full(points.shape[0], -1, dtype=np.int64)
        weights = np.zeros((points.shape[0], 3))
        any_inside = inside.any(axis=1)
        first = np.argmax(inside, axis=1)
        rows = np.flatnonzero(any_inside)
        triangle_index[rows] = first[rows]
        weights[rows, 0] = w0[rows, first[rows]]
        weights[rows, 1] = w1[rows, first[rows]]
        weights[rows, 2] = w2[rows, first[rows]]
        np.clip(weights, 0.0, 1.0, out=weights)
        norm = weights.sum(axis=1, keepdims=True)
        norm[norm == 0] = 1.0
        weights /= norm
        return triangle_index, weights


#: the cross-section's geometry: axis and minor radius (m), vertical elongation
MAJOR_RADIUS = 1.7
MINOR_RADIUS = 0.6
ELONGATION = 1.6
#: radial spacing packs nodes toward the edge, as transport codes do
EDGE_PACKING = 1.5


def tokamak_mesh(
    n_radial: int = 12,
    n_poloidal: int = 32,
    *,
    seed: Optional[int] = None,
) -> TriangularMesh:
    """A synthetic XGC-like mesh of an elongated tokamak cross-section.

    Nodes lie on nested flux-surface-like ellipses; radial spacing is
    packed toward the edge (:data:`EDGE_PACKING`), as transport codes do.
    A small seeded jitter makes the mesh genuinely unstructured.
    """
    if n_radial < 2 or n_poloidal < 3:
        raise MeshError("need n_radial >= 2 and n_poloidal >= 3")
    rng = np.random.default_rng(seed)
    nodes = [np.asarray([MAJOR_RADIUS, 0.0])]
    rings: list = [[0]]
    for i in range(1, n_radial + 1):
        rho = (i / n_radial) ** (1.0 / EDGE_PACKING)
        ring = []
        n_theta = max(6, int(n_poloidal * rho))
        for j in range(n_theta):
            theta = 2 * np.pi * j / n_theta
            jitter = (
                rng.normal(0, 0.003) if seed is not None and 0 < i < n_radial else 0.0
            )
            r = MAJOR_RADIUS + (MINOR_RADIUS * rho + jitter) * np.cos(theta)
            z = ELONGATION * (MINOR_RADIUS * rho + jitter) * np.sin(theta)
            ring.append(len(nodes))
            nodes.append(np.asarray([r, z]))
        rings.append(ring)
    node_array = np.stack(nodes)
    # triangulate ring-to-ring with a fan from the magnetic axis
    triangles = []
    axis = 0
    first_ring = rings[1]
    for j in range(len(first_ring)):
        triangles.append(
            [axis, first_ring[j], first_ring[(j + 1) % len(first_ring)]]
        )
    for inner, outer in zip(rings[1:-1], rings[2:]):
        n_in, n_out = len(inner), len(outer)
        # walk both rings by angle, stitching quads into triangles
        i_in = i_out = 0
        while i_in < n_in or i_out < n_out:
            frac_in = (i_in + 1) / n_in
            frac_out = (i_out + 1) / n_out
            a = inner[i_in % n_in]
            b = outer[i_out % n_out]
            if frac_out <= frac_in and i_out < n_out:
                c = outer[(i_out + 1) % n_out]
                triangles.append([a, b, c])
                i_out += 1
            elif i_in < n_in:
                c = inner[(i_in + 1) % n_in]
                triangles.append([a, b, c])
                i_in += 1
            else:
                break
    triangle_array = np.asarray(triangles, dtype=np.int64)
    # enforce counter-clockwise orientation
    mesh_nodes = node_array
    a = mesh_nodes[triangle_array[:, 0]]
    b = mesh_nodes[triangle_array[:, 1]]
    c = mesh_nodes[triangle_array[:, 2]]
    signed = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (c[:, 0] - a[:, 0]) * (
        b[:, 1] - a[:, 1]
    )
    flip = signed < 0
    triangle_array[flip] = triangle_array[flip][:, [0, 2, 1]]
    # drop any degenerate stitches
    keep = np.abs(signed) > 1e-14
    return TriangularMesh(nodes=node_array, triangles=triangle_array[keep])


def mesh_to_grid(
    mesh: TriangularMesh,
    node_values: np.ndarray,
    r_axis: np.ndarray,
    z_axis: np.ndarray,
    *,
    fill_value: float = np.nan,
) -> Tuple[np.ndarray, np.ndarray]:
    """Interpolate a node field onto a regular (Z, R) grid.

    Returns ``(grid_values, inside_mask)`` with ``grid_values`` of shape
    ``(len(z_axis), len(r_axis))``; points outside the mesh get
    *fill_value* and ``inside_mask`` False.
    """
    node_values = np.asarray(node_values, dtype=np.float64)
    if node_values.shape != (mesh.n_nodes,):
        raise MeshError(
            f"node_values must have shape ({mesh.n_nodes},), got {node_values.shape}"
        )
    r_axis = np.asarray(r_axis, dtype=np.float64)
    z_axis = np.asarray(z_axis, dtype=np.float64)
    rr, zz = np.meshgrid(r_axis, z_axis)
    points = np.column_stack([rr.ravel(), zz.ravel()])
    triangle_index, weights = mesh.barycentric(points)
    values = np.full(points.shape[0], fill_value, dtype=np.float64)
    inside = triangle_index >= 0
    vertex_ids = mesh.triangles[triangle_index[inside]]
    values[inside] = (node_values[vertex_ids] * weights[inside]).sum(axis=1)
    return values.reshape(zz.shape), inside.reshape(zz.shape)


def grid_to_mesh(
    grid_values: np.ndarray,
    r_axis: np.ndarray,
    z_axis: np.ndarray,
    mesh: TriangularMesh,
) -> np.ndarray:
    """Bilinearly sample a regular (Z, R) grid field at mesh nodes."""
    grid_values = np.asarray(grid_values, dtype=np.float64)
    r_axis = np.asarray(r_axis, dtype=np.float64)
    z_axis = np.asarray(z_axis, dtype=np.float64)
    if grid_values.shape != (z_axis.size, r_axis.size):
        raise MeshError(
            f"grid shape {grid_values.shape} != (len(z)={z_axis.size}, "
            f"len(r)={r_axis.size})"
        )
    r = np.clip(mesh.nodes[:, 0], r_axis[0], r_axis[-1])
    z = np.clip(mesh.nodes[:, 1], z_axis[0], z_axis[-1])
    i = np.clip(np.searchsorted(r_axis, r) - 1, 0, r_axis.size - 2)
    j = np.clip(np.searchsorted(z_axis, z) - 1, 0, z_axis.size - 2)
    tr = (r - r_axis[i]) / (r_axis[i + 1] - r_axis[i])
    tz = (z - z_axis[j]) / (z_axis[j + 1] - z_axis[j])
    v00 = grid_values[j, i]
    v01 = grid_values[j, i + 1]
    v10 = grid_values[j + 1, i]
    v11 = grid_values[j + 1, i + 1]
    return (
        v00 * (1 - tr) * (1 - tz)
        + v01 * tr * (1 - tz)
        + v10 * (1 - tr) * tz
        + v11 * tr * tz
    )
