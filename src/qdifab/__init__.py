"""qdifab: simulator and configuration compiler for a multi-style
asynchronous FPGA logic block, with side-channel property checks."""

from .encodings import (
    Protocol,
    SignalSpec,
    ValueCode,
    CodeKind,
    decode_4ph,
    send_wire,
    signal_parity,
)
from .plb import LutTable, PlbConfig, PlbState, plb_step, plb_reset, validate_config
from .simulator import DelayModel, Fabric, run, check_single_toggle, check_no_early_evaluation

__version__ = "0.1.0"
