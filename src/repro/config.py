"""System configuration for the DAPPER reproduction.

This module defines the configuration objects shared by every layer of the
simulator: DRAM organization and timing (Table I of the paper), the processor
and cache models, and the RowHammer mitigation parameters (threshold,
blast radius, mitigation command).

All times are expressed in nanoseconds unless the name says otherwise.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum


class MitigationCommand(str, Enum):
    """Mitigative-refresh command used by the memory controller.

    ``VRR``      Victim Row Refresh: refreshes the victim rows adjacent to one
                 aggressor row on a per-bank basis (default in the paper).
    ``DRFM_SB``  Same-Bank Directed Refresh Management: refreshes victims of a
                 captured aggressor but blocks the same bank across all bank
                 groups for 240 ns (JEDEC DDR5).
    ``RFM_SB``   Same-Bank Refresh Management: 190 ns blocking, used by the
                 PrIDE comparison.
    """

    VRR = "VRR"
    DRFM_SB = "DRFMsb"
    RFM_SB = "RFMsb"


@dataclass(frozen=True)
class DRAMTimings:
    """DDR5-6400 timing parameters (Table I).

    The request-level simulator only needs the coarse parameters that govern
    bandwidth and blocking: row-cycle time, activate-to-activate distances,
    column latency, the refresh cadence, and the durations of the mitigation
    commands.
    """

    tck_ns: float = 0.3125          # 3.2 GHz bus clock (6400 MT/s)
    trcd_ns: float = 16.0           # ACT -> column command
    trp_ns: float = 16.0            # PRE -> ACT
    tcl_ns: float = 16.0            # column command -> data
    trc_ns: float = 48.0            # ACT -> ACT, same bank
    trrd_s_ns: float = 2.5          # ACT -> ACT, different bank group
    trrd_l_ns: float = 5.0          # ACT -> ACT, same bank group
    twr_ns: float = 30.0            # write recovery
    tburst_ns: float = 1.25         # 64B burst on the data bus
    trfc_ns: float = 295.0          # all-bank auto refresh cycle
    trefi_ns: float = 3900.0        # auto refresh interval
    trefw_ns: float = 32_000_000.0  # refresh window (32 ms)

    # Mitigation command durations.
    vrr_per_victim_ns: float = 60.0      # per victim row refreshed by VRR
    drfm_sb_ns: float = 240.0            # Same-Bank DRFM (blast radius 2)
    rfm_sb_ns: float = 190.0             # Same-Bank RFM
    # Full-structure reset (CoMeT / ABACUS early reset) refreshes every row of
    # the rank or channel.  The paper reports ~2.4 ms of blocked DRAM per
    # reset; we charge a per-row cost chosen to land in that range for a
    # 64K-row bank.
    reset_refresh_per_row_ns: float = 37.0

    def scaled_refresh_window(self, scale: float) -> "DRAMTimings":
        """Return a copy with ``trefw_ns`` multiplied by ``scale``.

        Short simulation windows (benchmarks) use a scaled refresh window so
        that periodic structure resets and re-keying events still occur a
        meaningful number of times inside the simulated interval.
        """
        if not scale > 0:  # also refuses NaN
            raise ValueError(f"refresh-window scale must be > 0, got {scale}")
        return dataclasses.replace(self, trefw_ns=self.trefw_ns * scale)


@dataclass(frozen=True)
class DRAMOrganization:
    """Physical organization of the DRAM system (Table I)."""

    channels: int = 2
    ranks_per_channel: int = 2
    bank_groups_per_rank: int = 8
    banks_per_group: int = 4
    rows_per_bank: int = 64 * 1024
    row_size_bytes: int = 8 * 1024
    line_size_bytes: int = 64

    @property
    def banks_per_rank(self) -> int:
        return self.bank_groups_per_rank * self.banks_per_group

    @property
    def banks_per_channel(self) -> int:
        return self.banks_per_rank * self.ranks_per_channel

    @property
    def total_banks(self) -> int:
        return self.banks_per_channel * self.channels

    @property
    def rows_per_rank(self) -> int:
        return self.banks_per_rank * self.rows_per_bank

    @property
    def rows_per_channel(self) -> int:
        return self.rows_per_rank * self.ranks_per_channel

    @property
    def total_rows(self) -> int:
        return self.rows_per_channel * self.channels

    @property
    def lines_per_row(self) -> int:
        return self.row_size_bytes // self.line_size_bytes

    @property
    def bytes_per_rank(self) -> int:
        return self.rows_per_rank * self.row_size_bytes

    @property
    def bytes_per_channel(self) -> int:
        return self.bytes_per_rank * self.ranks_per_channel

    @property
    def total_bytes(self) -> int:
        return self.bytes_per_channel * self.channels

    @property
    def rank_row_bits(self) -> int:
        """Bits needed to index a row inside one rank (the DAPPER hash width)."""
        return (self.rows_per_rank - 1).bit_length()


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core abstraction (Table I)."""

    num_cores: int = 4
    freq_ghz: float = 4.0
    issue_width: int = 4
    rob_entries: int = 128
    max_outstanding_misses: int = 8

    @property
    def peak_instructions_per_ns(self) -> float:
        return self.freq_ghz * self.issue_width


@dataclass(frozen=True)
class CacheConfig:
    """Shared last-level cache (Table I)."""

    size_bytes: int = 8 * 1024 * 1024
    ways: int = 16
    line_size_bytes: int = 64
    hit_latency_ns: float = 12.0

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_size_bytes)


@dataclass(frozen=True)
class RowHammerConfig:
    """RowHammer threat and mitigation parameters."""

    nrh: int = 500
    blast_radius: int = 1
    mitigation_command: MitigationCommand = MitigationCommand.VRR

    def __post_init__(self):
        if self.nrh < 1:
            raise ValueError(f"RowHammer threshold must be >= 1, got {self.nrh}")

    @property
    def mitigation_threshold(self) -> int:
        """The tracker mitigation threshold (half of the RowHammer threshold)."""
        return max(1, self.nrh // 2)


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration bundling every subsystem."""

    dram: DRAMOrganization = field(default_factory=DRAMOrganization)
    timings: DRAMTimings = field(default_factory=DRAMTimings)
    cores: CoreConfig = field(default_factory=CoreConfig)
    llc: CacheConfig = field(default_factory=CacheConfig)
    rowhammer: RowHammerConfig = field(default_factory=RowHammerConfig)
    seed: int = 0xDA99E2

    def with_nrh(self, nrh: int) -> "SystemConfig":
        """Return a copy of the configuration with a different RowHammer threshold."""
        return dataclasses.replace(
            self, rowhammer=dataclasses.replace(self.rowhammer, nrh=nrh)
        )

    def with_mitigation(
        self,
        command: MitigationCommand,
        blast_radius: int | None = None,
    ) -> "SystemConfig":
        """Return a copy using a different mitigation command / blast radius."""
        rh = dataclasses.replace(
            self.rowhammer,
            mitigation_command=command,
            blast_radius=self.rowhammer.blast_radius
            if blast_radius is None
            else blast_radius,
        )
        return dataclasses.replace(self, rowhammer=rh)

    def with_refresh_window_scale(self, scale: float) -> "SystemConfig":
        """Return a copy with a scaled refresh window (see ``DRAMTimings``)."""
        return dataclasses.replace(
            self, timings=self.timings.scaled_refresh_window(scale)
        )

    def with_llc_size(self, size_bytes: int) -> "SystemConfig":
        """Return a copy with a different shared LLC capacity."""
        return dataclasses.replace(
            self, llc=dataclasses.replace(self.llc, size_bytes=size_bytes)
        )


def baseline_config(nrh: int = 500, seed: int = 0xDA99E2) -> SystemConfig:
    """The paper's baseline system (Table I).

    Four out-of-order cores, an 8MB 16-way shared LLC, two DDR5-6400 channels
    each with a 32GB dual-rank DIMM, and a default RowHammer threshold of 500.
    """
    return SystemConfig(
        rowhammer=RowHammerConfig(nrh=nrh),
        seed=seed,
    )


def reduced_row_config(
    nrh: int = 500,
    rows_per_bank: int = 4096,
    seed: int = 0xDA99E2,
) -> SystemConfig:
    """A baseline system with fewer rows per bank.

    Attacks that must walk every row of a rank (the mapping-agnostic streaming
    attack of Section V-E) have a cycle proportional to the number of rows;
    this preset shrinks the row space so those experiments complete within a
    tractable simulation window while keeping every other parameter at its
    Table I value.  See EXPERIMENTS.md for where it is used.
    """
    return SystemConfig(
        dram=DRAMOrganization(rows_per_bank=rows_per_bank),
        rowhammer=RowHammerConfig(nrh=nrh),
        seed=seed,
    )


def large_system_config(
    per_core_llc_mb: int = 2,
    nrh: int = 500,
    seed: int = 0xDA99E2,
) -> SystemConfig:
    """The scaled-up system used by Figure 5.

    Eight memory channels with 64GB per channel (512GB total) and a per-core
    LLC size swept from 2MB to 5MB on the four-core processor.
    """
    dram = DRAMOrganization(channels=8, ranks_per_channel=4)
    cores = CoreConfig()
    llc = CacheConfig(size_bytes=per_core_llc_mb * 1024 * 1024 * cores.num_cores)
    return SystemConfig(
        dram=dram,
        cores=cores,
        llc=llc,
        rowhammer=RowHammerConfig(nrh=nrh),
        seed=seed,
    )
