"""Pose, spacing, and sag of overhead conductor arrays from LiDAR clouds.

The model is a family of catenary curves sharing one yaw and one sag
parameter; fitting minimizes a robust log-quadratic loss over the
point-to-nearest-conductor distances with an analytical gradient, a
bound-constrained quasi-Newton descent, and multi-start perturbation
search to escape clutter-induced local minima.

The submodules are the API (linetrack.geometry, .loss, .solver,
.simulator, .filters, .metrics, .fileio, .cli); importing the package
itself loads none of them.
"""

__version__ = "0.1.0"
