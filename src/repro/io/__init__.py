"""Checkpoint/restart and solution output."""

from .checkpoint import load_checkpoint, save_checkpoint
from .output import load_solution, read_curve, save_solution, write_curve

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "save_solution",
    "load_solution",
    "write_curve",
    "read_curve",
]
