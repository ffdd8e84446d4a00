"""Hybrid lattice / stochastic-approximation solver for finite-horizon mean-field games.

The solver discretizes the controlled diffusion into a locally consistent
Markov chain, runs backward dynamic programming with grid-search controls,
fits a small feedforward policy network to the grid control, and refines the
network parameters with a projected Kiefer-Wolfowitz recursion.  The
population law is a table of node weights per time, exact by the chain's
forward equation, updated through a damped fixed-point iteration with a
Wasserstein-2 stopping rule; the models see the law through its mean path.
"""

from .errors import (
    DimensionMismatch,
    EmptyControlGrid,
    InvalidParams,
    LengthMismatch,
    NegativeProbability,
    NonDivisibleDomain,
    NonFiniteEvaluation,
    OutOfHorizon,
)
from .problems import LqParams, MfgProblem, lq_problem, mfg2d_problem
from .lattice import Lattice, StepSizes, build_lattice
from .network import NetworkArchitecture
from .runner import RunConfig, RunReport, run_algorithm1
from .sa import SaSchedule

__all__ = [
    "NetworkArchitecture",
    "RunConfig",
    "RunReport",
    "SaSchedule",
    "run_algorithm1",
    "DimensionMismatch",
    "EmptyControlGrid",
    "InvalidParams",
    "Lattice",
    "LengthMismatch",
    "LqParams",
    "MfgProblem",
    "NegativeProbability",
    "NonDivisibleDomain",
    "NonFiniteEvaluation",
    "OutOfHorizon",
    "StepSizes",
    "build_lattice",
    "lq_problem",
    "mfg2d_problem",
]

__version__ = "0.1.0"
