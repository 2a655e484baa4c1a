"""Core solver drivers: configuration, pipeline, unigrid and AMR solvers."""

from .batch import BatchGrid, BatchSolver
from .config import SolverConfig
from .diagnostics import ConservedTotals, RunSummary
from .distributed import DistributedSolver
from .parallel import ProcessSolver, make_distributed_solver
from .pipeline import HydroPipeline
from .solver import Solver

__all__ = [
    "SolverConfig",
    "Solver",
    "BatchGrid",
    "BatchSolver",
    "DistributedSolver",
    "ProcessSolver",
    "make_distributed_solver",
    "HydroPipeline",
    "ConservedTotals",
    "RunSummary",
]
