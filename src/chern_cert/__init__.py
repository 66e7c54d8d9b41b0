"""Exact mod-p verification of total Chern classes of exceptional-group
representations restricted to order-p cyclic subgroups of a maximal torus,
with exhaustive certificate-producing sweeps over all restriction points."""

__version__ = "0.1.0"
