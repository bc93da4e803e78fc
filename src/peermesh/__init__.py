"""Deterministic simulator and sizing toolkit for serverless app meshes."""

from .simcore import DEFAULT_SEED, Engine, RandomStream, units_to_ms
from .topology import NeighborhoodMap, NodeRecord, RouterCriteria, form_clusters
from .sync import AttributeEntry, AttributeList, merge_lists, run_round, update_period
from .timing import HopsArrayDims, find_optimum, monte_carlo, simulate_once, sweep
from .queueing import MMOneInputs, mm1_metrics, naive_broadcast_load
from .scenario import load_scenario, parse_scenario, run_scenario

__version__ = "0.1.0"

__all__ = [
    "AttributeEntry",
    "AttributeList",
    "DEFAULT_SEED",
    "Engine",
    "HopsArrayDims",
    "MMOneInputs",
    "NeighborhoodMap",
    "NodeRecord",
    "RandomStream",
    "RouterCriteria",
    "find_optimum",
    "form_clusters",
    "load_scenario",
    "merge_lists",
    "mm1_metrics",
    "monte_carlo",
    "naive_broadcast_load",
    "parse_scenario",
    "run_round",
    "run_scenario",
    "simulate_once",
    "sweep",
    "units_to_ms",
    "update_period",
    "__version__",
]
