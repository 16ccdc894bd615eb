"""DRAM substrate: addressing, bank/rank/channel timing, refresh, and energy.

The DRAM model is request-level rather than command-cycle-level: every memory
request is expanded into the DDR5 commands it would require (ACT, RD/WR, PRE,
and any mitigative refreshes injected by the RowHammer tracker) and the timing
constraints between those commands are enforced through per-bank, per-rank and
per-channel availability times.  See ``DESIGN.md`` for why this preserves the
behaviour the paper's evaluation depends on.
"""

from repro.dram.address import AddressMapper, BankAddress, DecodedAddress, RowAddress
from repro.dram.bank import Bank
from repro.dram.commands import CommandKind, MitigationScope
from repro.dram.dram_system import DRAMSystem
from repro.dram.energy import EnergyModel, EnergyParameters, EnergyReport

__all__ = [
    "AddressMapper",
    "BankAddress",
    "DecodedAddress",
    "RowAddress",
    "Bank",
    "CommandKind",
    "MitigationScope",
    "DRAMSystem",
    "EnergyModel",
    "EnergyParameters",
    "EnergyReport",
]
