"""Multi-user MISO downlink beamforming toolkit.

Classical WMMSE solving with a learned twist: small networks predict the
solver's decomposed state (u, w, mu) from channel features, trained with
first-order meta-learning so they adapt fast, plus a loss-ranked replay
memory for streaming adaptation under distribution shift.
"""

from .channels import ChannelModelSpec, Task
from .errors import (
    CapabilityError,
    ConfigError,
    DataFormatError,
    DegenerateInputError,
    MetabeamError,
    NumericalError,
    SingularMatrixError,
)
from .meta import MetaConfig, TrainLog
from .memory import MemoryEntry, MemorySet
from .nn import PredictorParams
from .objective import SystemConfig
from .wmmse import WmmseResult

__all__ = [
    "CapabilityError",
    "ChannelModelSpec",
    "ConfigError",
    "DataFormatError",
    "DegenerateInputError",
    "MemoryEntry",
    "MemorySet",
    "MetaConfig",
    "MetabeamError",
    "NumericalError",
    "PredictorParams",
    "SingularMatrixError",
    "SystemConfig",
    "Task",
    "TrainLog",
    "WmmseResult",
]

__version__ = "0.1.0"
