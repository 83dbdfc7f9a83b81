"""Exact counts of rational plane tropical curves, with the books checked.

Modules build bottom-up: linalg (exact matrices), graph (half-edge trees),
plane (types and curves in the plane), moduli_maps (cell matrices of the
evaluation and combined maps), enumeration (fiber engines), kontsevich
(recursion, census, intersections), cli.
"""

__version__ = "0.1.0"

from .enumeration import (
    EV,
    PI,
    FiberSolution,
    GeneralPositionViolation,
    InvarianceViolation,
    PointConfig,
    base_trees,
    curve_multiplicity,
    decompose_reducible,
    fiber,
    find_string,
    invariance_check,
    sampled_fiber,
)
from .kontsevich import (
    Census,
    NonTransverse,
    StructuralViolation,
    recursion_nd,
    reducible_census,
    tropical_intersection,
    wdvv_sides,
)
