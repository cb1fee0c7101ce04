"""Unstructured-mesh interpolation (the IMAS/XGC1 substrate)."""

import numpy as np
import pytest

from repro.domains.fusion.mesh import (
    MeshError,
    TriangularMesh,
    grid_to_mesh,
    mesh_to_grid,
    tokamak_mesh,
)


@pytest.fixture(scope="module")
def mesh():
    return tokamak_mesh(n_radial=10, n_poloidal=28, seed=1)


def flux_like(r, z, r0=1.7, a=0.6, kappa=1.6):
    """A flux-surface-like smooth field: 1 at the axis, 0 at the edge."""
    rho2 = ((r - r0) / a) ** 2 + (z / (kappa * a)) ** 2
    return np.maximum(0.0, 1.0 - rho2)


class TestMeshModel:
    def test_tokamak_mesh_well_formed(self, mesh):
        assert mesh.n_nodes > 100
        assert mesh.n_triangles > 150

    def test_edge_packing_densifies_outer_rings(self):
        mesh = tokamak_mesh(n_radial=10, n_poloidal=24)
        radii = np.sqrt(
            ((mesh.nodes[:, 0] - 1.7) / 0.6) ** 2 + (mesh.nodes[:, 1] / (1.6 * 0.6)) ** 2
        )
        # more than half the nodes sit in the outer half of the radius
        assert (radii > 0.5).mean() > 0.5

    def test_degenerate_triangles_rejected(self):
        nodes = np.asarray([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(MeshError, match="degenerate"):
            TriangularMesh(nodes=nodes, triangles=np.asarray([[0, 1, 2]]))

    def test_bad_indices_rejected(self):
        nodes = np.asarray([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(MeshError, match="out of node range"):
            TriangularMesh(nodes=nodes, triangles=np.asarray([[0, 1, 5]]))

    def test_mesh_parameters_validated(self):
        with pytest.raises(MeshError):
            tokamak_mesh(n_radial=1)


class TestPointLocation:
    def test_axis_point_located(self, mesh):
        index, weights = mesh.barycentric(np.asarray([[1.7, 0.0]]))
        assert index[0] >= 0
        assert weights[0].sum() == pytest.approx(1.0)

    def test_outside_point_flagged(self, mesh):
        index, weights = mesh.barycentric(np.asarray([[5.0, 5.0]]))
        assert index[0] == -1
        assert np.allclose(weights[0], 0.0)

    def test_node_points_recover_unit_weight(self, mesh):
        some_nodes = mesh.nodes[::17]
        index, weights = mesh.barycentric(some_nodes)
        assert (index >= 0).all()
        assert np.allclose(weights.max(axis=1), 1.0, atol=1e-6)


class TestInterpolation:
    def test_mesh_to_grid_accuracy(self, mesh):
        node_values = flux_like(mesh.nodes[:, 0], mesh.nodes[:, 1])
        r_axis = np.linspace(1.15, 2.25, 40)
        z_axis = np.linspace(-0.9, 0.9, 40)
        grid, inside = mesh_to_grid(mesh, node_values, r_axis, z_axis)
        rr, zz = np.meshgrid(r_axis, z_axis)
        truth = flux_like(rr, zz)
        error = np.abs(grid[inside] - truth[inside])
        assert error.max() < 0.08  # P1 interpolation of a smooth field
        assert np.isnan(grid[~inside]).all()

    def test_inside_mask_matches_domain(self, mesh):
        node_values = np.ones(mesh.n_nodes)
        r_axis = np.linspace(0.5, 3.0, 50)
        z_axis = np.linspace(-2.0, 2.0, 50)
        _, inside = mesh_to_grid(mesh, node_values, r_axis, z_axis)
        # the mesh covers an ellipse: some grid points in, some out
        assert 0.05 < inside.mean() < 0.95

    def test_grid_to_mesh_accuracy(self, mesh):
        r_axis = np.linspace(1.0, 2.4, 80)
        z_axis = np.linspace(-1.1, 1.1, 80)
        rr, zz = np.meshgrid(r_axis, z_axis)
        grid = flux_like(rr, zz)
        sampled = grid_to_mesh(grid, r_axis, z_axis, mesh)
        truth = flux_like(mesh.nodes[:, 0], mesh.nodes[:, 1])
        assert np.abs(sampled - truth).max() < 0.02

    def test_round_trip_mesh_grid_mesh(self, mesh):
        """The IMAS assimilation loop: XGC mesh -> IMAS grid -> back."""
        node_values = flux_like(mesh.nodes[:, 0], mesh.nodes[:, 1])
        r_axis = np.linspace(1.05, 2.35, 90)
        z_axis = np.linspace(-1.0, 1.0, 90)
        grid, inside = mesh_to_grid(mesh, node_values, r_axis, z_axis,
                                    fill_value=0.0)
        back = grid_to_mesh(grid, r_axis, z_axis, mesh)
        # interior nodes round-trip closely (edge nodes touch fill values)
        rho = np.sqrt(
            ((mesh.nodes[:, 0] - 1.7) / 0.6) ** 2
            + (mesh.nodes[:, 1] / (1.6 * 0.6)) ** 2
        )
        interior = rho < 0.8
        assert np.abs(back[interior] - node_values[interior]).max() < 0.05

    def test_constant_field_preserved(self, mesh):
        node_values = np.full(mesh.n_nodes, 3.5)
        r_axis = np.linspace(1.2, 2.2, 30)
        z_axis = np.linspace(-0.8, 0.8, 30)
        grid, inside = mesh_to_grid(mesh, node_values, r_axis, z_axis)
        assert np.allclose(grid[inside], 3.5)

    def test_shape_validation(self, mesh):
        with pytest.raises(MeshError, match="node_values"):
            mesh_to_grid(mesh, np.zeros(3), np.linspace(1, 2, 4), np.linspace(-1, 1, 4))
        with pytest.raises(MeshError, match="grid shape"):
            grid_to_mesh(np.zeros((3, 3)), np.linspace(1, 2, 4),
                         np.linspace(-1, 1, 4), mesh)
