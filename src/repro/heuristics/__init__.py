"""Resource-allocation heuristics (paper Section 3 + literature baselines).

Importing this package registers every heuristic with the registry in
:mod:`repro.heuristics.base`; use :func:`get_heuristic` for name-based
construction.
"""

from repro.heuristics.base import (
    Heuristic,
    get_heuristic,
    heuristic_names,
    register_heuristic,
    seeded_heuristic_names,
)
from repro.heuristics.annealing import SimulatedAnnealing
from repro.heuristics.backends import (
    DEFAULT_BACKEND,
    Backend,
    backend_names,
    get_backend,
)
from repro.heuristics.genitor import Genitor
from repro.heuristics.gsa import GeneticSimulatedAnnealing
from repro.heuristics.optimal import BranchAndBound
from repro.heuristics.kpb import KPBStep, KPBTrace, KPercentBest, kpb_subset_size
from repro.heuristics.mct import MCT
from repro.heuristics.met import MET
from repro.heuristics.minmin import Duplex, MaxMin, MinMin, minmin_round_table
from repro.heuristics.olb import OLB
from repro.heuristics.random_baseline import RandomMapper
from repro.heuristics.segmented import SegmentedMinMin
from repro.heuristics.sufferage import (
    Sufferage,
    SufferageDecision,
    SufferagePass,
    SufferageTrace,
)
from repro.heuristics.swa import SwitchingAlgorithm, SWAStep, balance_index
from repro.heuristics.tabu import TabuSearch

__all__ = [
    "Heuristic",
    "register_heuristic",
    "get_heuristic",
    "heuristic_names",
    "seeded_heuristic_names",
    "Backend",
    "get_backend",
    "backend_names",
    "DEFAULT_BACKEND",
    "MET",
    "MCT",
    "OLB",
    "RandomMapper",
    "MinMin",
    "MaxMin",
    "Duplex",
    "minmin_round_table",
    "Sufferage",
    "SufferageDecision",
    "SufferagePass",
    "SufferageTrace",
    "KPercentBest",
    "KPBStep",
    "KPBTrace",
    "kpb_subset_size",
    "SwitchingAlgorithm",
    "SWAStep",
    "balance_index",
    "Genitor",
    "SimulatedAnnealing",
    "GeneticSimulatedAnnealing",
    "TabuSearch",
    "SegmentedMinMin",
    "BranchAndBound",
    "PAPER_HEURISTICS",
]

#: The seven heuristics analysed in the paper, in presentation order.
PAPER_HEURISTICS: tuple[str, ...] = (
    "genitor",
    "min-min",
    "mct",
    "met",
    "switching-algorithm",
    "k-percent-best",
    "sufferage",
)
