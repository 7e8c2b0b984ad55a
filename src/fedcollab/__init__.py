"""Conflict-free collaborator selection for federated learning under
competition, with baseline partitions and a desk-scale co-simulator."""

from .fedtrain import (METHODS, ExperimentReport, TrainConfig, TrainingDivergenceError,
                       estimate_benefit, run_experiment)
from .graphs import (Instance, InvalidInstanceError, PathWitness, UsageGraph, conflict_free,
                     conflict_violations, potentials)
from .oracle import OracleSizeError, conflict_free_by_paths, optimal_step
from .partition import Partition, min_clique_cover, scc_coalitions
from .selection import (Selection, SelectionTrace, StepTrace, candidate_collaborators,
                        processing_order, select_collaborators, select_step)
from .synthdata import SyntheticConfig, SyntheticTask, generate_task, preset

__version__ = "0.1.0"

__all__ = [
    "ExperimentReport", "Instance", "InvalidInstanceError", "METHODS",
    "OracleSizeError", "Partition", "PathWitness", "Selection", "SelectionTrace",
    "StepTrace", "SyntheticConfig", "SyntheticTask", "TrainConfig",
    "TrainingDivergenceError", "UsageGraph", "candidate_collaborators",
    "conflict_free", "conflict_free_by_paths", "conflict_violations",
    "estimate_benefit", "generate_task", "min_clique_cover", "optimal_step",
    "potentials", "preset", "processing_order", "run_experiment", "scc_coalitions",
    "select_collaborators", "select_step",
]
