"""BoLT — the paper's contribution (§3), as configuration.

:mod:`~repro.core.bolt_engine` holds the option factories that switch
BoLT's techniques on (Fig 12's stages included) and the engine classes
naming the paper's integrations.  :mod:`repro.lsm` implements them.
"""

from .bolt_engine import (
    ABLATION_STAGES,
    BoLTEngine,
    HyperBoLTEngine,
    RocksBoLTEngine,
    bolt_ablation_options,
    bolt_options,
    hyperbolt_options,
    rocksbolt_options,
)

__all__ = [
    "ABLATION_STAGES",
    "BoLTEngine",
    "HyperBoLTEngine",
    "RocksBoLTEngine",
    "bolt_ablation_options",
    "bolt_options",
    "hyperbolt_options",
    "rocksbolt_options",
]
