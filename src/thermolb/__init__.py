"""Thermal lattice Boltzmann engine with a simulated multi-rank runtime."""

from .geometry import (LatticeGeometry, MacroFields, PopulationField,
                       allocate_field)
from .kernels import (PhysicsParams, apply_shift, bc, collide, equilibrium,
                      moments, propagate, propagate_collide_fused)
from .planner import (BandwidthTable, CostModelInput, Prediction, brent_bound,
                      comm_time_2d, optimal_grid, predict_1d,
                      predict_1d_overlap, predict_2d, predict_2d_overlap,
                      scaling_curve, surface_over_volume)
from .runtime import RankWorker, TileAssignment, decompose, face_plans
from .sim import RunResult, SimConfig, run
from .velocity_set import VelocitySet, build_velocity_set

__all__ = [
    "LatticeGeometry", "MacroFields", "PopulationField", "allocate_field",
    "PhysicsParams", "apply_shift", "bc", "collide", "equilibrium", "moments",
    "propagate", "propagate_collide_fused",
    "BandwidthTable", "CostModelInput", "Prediction", "brent_bound",
    "comm_time_2d", "optimal_grid", "predict_1d", "predict_1d_overlap",
    "predict_2d", "predict_2d_overlap", "scaling_curve", "surface_over_volume",
    "RankWorker", "TileAssignment", "decompose", "face_plans",
    "RunResult", "SimConfig", "run",
    "VelocitySet", "build_velocity_set",
]

__version__ = "0.1.0"
