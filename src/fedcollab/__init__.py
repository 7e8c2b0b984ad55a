"""Conflict-free collaborator selection for federated learning under
competition, with baseline partitions and a desk-scale co-simulator."""

from .fedtrain import (METHODS, ExperimentReport, ModelParams, TrainConfig,
                       TrainingDivergenceError, estimate_benefit, run_experiment, train)
from .graphs import (Instance, InvalidInstanceError, PathWitness, UsageGraph,
                     competitor_guards, conflict_free, conflict_violations, potentials)
from .oracle import (OracleSizeError, OracleVerdict, conflict_free_by_paths,
                     optimal_step, simple_paths)
from .partition import Partition, complement, min_clique_cover, scc_coalitions
from .selection import (SelectionTrace, StepTrace, candidate_collaborators, conflict_matrices,
                        processing_order, select_collaborators, select_step)
from .synthdata import (SyntheticConfig, SyntheticTask, generate_task, preset,
                        strong_noniid_config, weak_noniid_config)

__version__ = "0.1.0"

__all__ = [
    "ExperimentReport", "Instance", "InvalidInstanceError", "METHODS",
    "ModelParams", "OracleSizeError", "OracleVerdict", "Partition", "PathWitness",
    "SelectionTrace",
    "StepTrace", "SyntheticConfig", "SyntheticTask", "TrainConfig",
    "TrainingDivergenceError", "UsageGraph", "candidate_collaborators", "competitor_guards",
    "complement", "conflict_free", "conflict_free_by_paths", "conflict_matrices",
    "conflict_violations",
    "estimate_benefit", "generate_task", "min_clique_cover", "optimal_step",
    "potentials", "preset", "processing_order", "run_experiment", "scc_coalitions",
    "select_collaborators", "select_step", "simple_paths", "strong_noniid_config",
    "train", "weak_noniid_config",
]
