"""Plug-and-play voltage control for DC microgrids.

Synthesis of decentralized PCC-voltage controllers via linear matrix
inequalities, global stability certification, and time-domain simulation
with online plug-in/unplug of generation units.
"""

from .certify import check_global, check_theorem1
from .model import (DguParams, LineParams, LoadModel, MicrogridTopology,
                    assemble_global, augmented_dgu)
from .simulate import (LoadStep, PlugIn, RefStep, Scenario, Unplug,
                       simulate)
from .sweep import SweepGrid, run_sweep
from .synthesis import (Denied, LocalController, NumericalFailure,
                        SynthesisConfig, synthesize, synthesize_all,
                        synthesize_batch)

__version__ = "0.1.0"

__all__ = [
    "DguParams", "LineParams", "LoadModel", "MicrogridTopology",
    "assemble_global", "augmented_dgu",
    "SynthesisConfig", "LocalController", "Denied", "NumericalFailure",
    "synthesize", "synthesize_all", "synthesize_batch",
    "check_global", "check_theorem1",
    "Scenario", "PlugIn", "Unplug", "LoadStep", "RefStep", "simulate",
    "SweepGrid", "run_sweep",
    "__version__",
]
