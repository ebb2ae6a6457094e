"""The engines the paper compares.

Each module holds ``*_options(scale)`` factories returning the paper's
§4.1 configuration for a system, scaled down by ``scale`` (see
:meth:`repro.lsm.Options.scaled`), and an engine class where the system
differs from :class:`~repro.lsm.LSMEngine`, which is stock LevelDB.
"""

from .leveldb import leveldb_64mb_options, leveldb_options
from .hyperleveldb import HyperLevelDBEngine, hyperleveldb_options
from .rocksdb import RocksDBEngine, rocksdb_options
from .pebblesdb import PebblesDBEngine, pebblesdb_options
from .bolt import (ABLATION_STAGES, bolt_ablation_options, bolt_options,
                   hyperbolt_options, rocksbolt_options)

__all__ = [
    "leveldb_options",
    "leveldb_64mb_options",
    "HyperLevelDBEngine",
    "hyperleveldb_options",
    "RocksDBEngine",
    "rocksdb_options",
    "PebblesDBEngine",
    "pebblesdb_options",
    "ABLATION_STAGES",
    "bolt_options",
    "hyperbolt_options",
    "rocksbolt_options",
    "bolt_ablation_options",
]
