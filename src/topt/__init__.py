"""Multi-load, multi-constrained topology optimization via topological
level-sets combined through an augmented Lagrangian."""

from .config import (ConfigError, ProblemConfig, ProblemSpec, build_problem,
                     parse_problem, serialize_problem)
from .fem import Analysis, Material, analyze
from .mesh import (BoundarySpec, DomainSpec, Mesh, Point2, PointLoad, Rect,
                   TopologyState, build_mesh, locate_node)
from .optimizer import OptimizationResult, OptimizerConfig, run
from .outputs import write_outputs
from .problems import BUILTIN_NAMES, builtin_problem, scale_loads
from .sensitivity import ConstraintSpec

__version__ = "0.1.0"

__all__ = [
    "Analysis", "BoundarySpec", "BUILTIN_NAMES", "ConfigError", "ConstraintSpec",
    "DomainSpec", "Material", "Mesh", "OptimizationResult", "OptimizerConfig",
    "Point2", "PointLoad", "ProblemConfig", "ProblemSpec", "Rect", "TopologyState",
    "analyze", "build_mesh", "build_problem", "builtin_problem", "locate_node",
    "parse_problem", "run", "scale_loads", "serialize_problem", "write_outputs",
]
