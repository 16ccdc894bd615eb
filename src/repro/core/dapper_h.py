"""DAPPER-H: the full Perf-Attack-resilient tracker (Section VI).

DAPPER-H extends DAPPER-S with three mechanisms:

* **Double hashing.**  Two RGC tables, each with its own cipher, track every
  activation.  Mitigation triggers only when *both* group counters reach the
  mitigation threshold, and only the rows shared by the two groups (usually a
  single row) are refreshed -- defeating the refresh attack that exploited
  DAPPER-S's group-wide refreshes and making Mapping-Capturing attacks
  require guessing both mappings at once.
* **Per-bank bit-vector.**  Each entry of RGC table 1 carries a bank
  bit-vector: the first activation seen from a bank only sets the bank's bit,
  so a streaming attack that touches every row once (spread across banks)
  cannot inflate table 1.
* **Cross-table reset counters.**  After a mitigation the two group counters
  cannot simply be zeroed (other member rows may have pending activations
  tracked by the *other* table), so each group is reset to the maximum count
  its unrefreshed members hold in the opposite table.
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.dram.address import BankAddress, RowAddress
from repro.trackers.base import (
    EMPTY_RESPONSE,
    RowHammerTracker,
    StorageReport,
    TrackerResponse,
)
from repro.core.bitvector import PerBankBitVector
from repro.core.rgc import RowGroupCounterTable


class _RankState:
    """Both RGC tables plus the bit-vector for one rank."""

    def __init__(self, rank_row_bits: int, group_size: int, num_banks: int, seed: int):
        self.table1 = RowGroupCounterTable(rank_row_bits, group_size, seed ^ 0x1111)
        self.table2 = RowGroupCounterTable(rank_row_bits, group_size, seed ^ 0x2222)
        self.bitvector = PerBankBitVector(self.table1.num_groups, num_banks)
        # (group1, group2) -> the mitigation scan's key-epoch-invariant
        # products (see DapperHTracker._pair_products); valid until the next
        # re-keying.
        self.pair_cache: dict[tuple[int, int], tuple] = {}

    def reset_and_rekey(self) -> None:
        self.table1.reset_and_rekey()
        self.table2.reset_and_rekey()
        self.bitvector.reset_all()
        self.pair_cache.clear()


class DapperHTracker(RowHammerTracker):
    """The DAPPER-H tracker (double hashing + bit-vector + reset counters)."""

    name = "dapper-h"

    DEFAULT_GROUP_SIZE = 256

    def __init__(
        self,
        config: SystemConfig,
        group_size: int = DEFAULT_GROUP_SIZE,
        use_bitvector: bool = True,
        use_reset_counters: bool = True,
    ):
        """``use_bitvector`` / ``use_reset_counters`` exist for the ablation
        benchmarks; the real design enables both."""
        super().__init__(config)
        self.group_size = group_size
        self.use_bitvector = use_bitvector
        self.use_reset_counters = use_reset_counters
        self._ranks: dict[tuple[int, int], _RankState] = {}
        self._seed = config.seed ^ 0x44505248  # "DPRH"
        #: Count of mitigations by number of shared rows refreshed, used to
        #: validate the paper's claim that 99.9% of mitigations refresh a
        #: single row.
        self.shared_row_histogram: dict[int, int] = {}

    # ------------------------------------------------------------------ #

    def _rank_state(self, channel: int, rank: int) -> _RankState:
        key = (channel, rank)
        state = self._ranks.get(key)
        if state is None:
            state = _RankState(
                rank_row_bits=self.org.rank_row_bits,
                group_size=self.group_size,
                num_banks=self.org.banks_per_rank,
                seed=self._seed ^ (channel * 0x1_0001 + rank * 0x101),
            )
            self._ranks[key] = state
        return state

    # ------------------------------------------------------------------ #

    def on_activation(self, row: RowAddress, now_ns: float) -> TrackerResponse:
        self.stats.activations_observed += 1
        # Recomputed on every activation rather than memoized per row: most
        # activated rows are new to the run (192,536 of 277,548 activations
        # on the dapper-attack benchmark), so a row memo missed more than it
        # hit and grew with every row.
        bank = row.bank
        state = self._ranks.get((bank.channel, bank.rank))
        if state is None:
            state = self._rank_state(bank.channel, bank.rank)
        org = self.org
        bank_index = bank.bank_group * org.banks_per_group + bank.bank
        rank_row = bank_index * org.rows_per_bank + row.row

        table1 = state.table1
        table2 = state.table2
        group1 = table1.group_of(rank_row)
        group2 = table2.group_of(rank_row)

        # Table 2 is always incremented; table 1 only when the bit-vector
        # confirms repeated activity from the same bank.
        count2 = table2.increment(group2)
        if not self.use_bitvector or state.bitvector.observe(group1, bank_index):
            count1 = table1.increment(group1)
        else:
            count1 = table1.count(group1)

        threshold = self.mitigation_threshold
        if count1 < threshold or count2 < threshold:
            return EMPTY_RESPONSE

        return self._mitigate(state, row, rank_row, group1, group2)

    # ------------------------------------------------------------------ #

    def _mitigate(
        self,
        state: _RankState,
        row: RowAddress,
        rank_row: int,
        group1: int,
        group2: int,
    ) -> TrackerResponse:
        """Refresh the rows shared by ``group1`` and ``group2`` and reset.

        Reset counters: a non-refreshed member of the mitigated group may
        have accumulated up to its counter in the *other* table, so each
        group is reset to the maximum such value rather than to zero
        (Section VI-B step 3/4).  Groups that are themselves at or past the
        mitigation threshold are excluded from this maximum: they are about
        to trigger their own mitigation, and folding their (saturated)
        counts back in would let a synchronised multi-row attack pin every
        counter at the threshold and force a refresh storm.
        """
        cached = state.pair_cache.get((group1, group2))
        if cached is None:
            cached = state.pair_cache[(group1, group2)] = self._pair_products(
                state, row.bank.channel, row.bank.rank, group1, group2
            )
        shared_set, read_groups2, read_groups1, mitigations = cached
        if rank_row not in shared_set:
            # Safeguard only: the activated row is shared by construction.
            mitigations = mitigations + (
                self._to_row_address(row.bank.channel, row.bank.rank, rank_row),
            )
        reset1 = 0
        reset2 = 0
        if self.use_reset_counters:
            threshold = self.mitigation_threshold
            reset1 = max(
                (c for c in state.table2.counts_at(read_groups2) if c < threshold),
                default=0,
            )
            reset2 = max(
                (c for c in state.table1.counts_at(read_groups1) if c < threshold),
                default=0,
            )

        num_shared = len(mitigations)
        self._note_mitigation(num_shared)
        self.shared_row_histogram[num_shared] = (
            self.shared_row_histogram.get(num_shared, 0) + 1
        )

        ceiling = self.mitigation_threshold - 1
        state.table1.set_count(group1, min(ceiling, reset1))
        state.table2.set_count(group2, min(ceiling, reset2))
        state.bitvector.clear_entry(group1)
        return TrackerResponse(mitigations=mitigations)

    def _pair_products(
        self, state: _RankState, channel: int, rank: int, group1: int, group2: int
    ) -> tuple:
        """What a mitigation of ``(group1, group2)`` refreshes and reads.

        Returns the shared rows (as a set, and as :class:`RowAddress` objects
        in table-1 member order) and the other-table groups whose counters
        the reset values scan: the table-2 groups of table-1's unshared
        members, and the table-1 groups of table-2's unshared members.  All
        of it depends only on the key epoch, and mitigation-heavy attacks
        hammer the same pair repeatedly.
        """
        table1 = state.table1
        table2 = state.table2
        shared = []
        read_groups2 = []
        for member in table1.members(group1):
            member_group2 = table2.group_of(member)
            if member_group2 == group2:
                shared.append(member)
            else:
                read_groups2.append(member_group2)
        shared_set = frozenset(shared)
        read_groups1 = [
            table1.group_of(member)
            for member in table2.members(group2)
            if member not in shared_set
        ]
        mitigations = tuple(
            self._to_row_address(channel, rank, member) for member in shared
        )
        return shared_set, read_groups2, read_groups1, mitigations

    def _to_row_address(self, channel: int, rank: int, rank_row: int) -> RowAddress:
        org = self.org
        bank_local = rank_row // org.rows_per_bank
        row_index = rank_row % org.rows_per_bank
        bank_group = bank_local // org.banks_per_group
        bank = bank_local % org.banks_per_group
        return RowAddress(BankAddress(channel, rank, bank_group, bank), row_index)

    # ------------------------------------------------------------------ #

    def on_refresh_window(self, window_index: int, now_ns: float) -> TrackerResponse:
        for state in self._ranks.values():
            state.reset_and_rekey()
        self.stats.periodic_resets += 1
        return EMPTY_RESPONSE

    def storage_report(self) -> StorageReport:
        groups_per_rank = (1 << self.org.rank_row_bits) // self.group_size
        rgc_bytes = 2 * groups_per_rank * self.org.ranks_per_channel
        bitvector_bytes = (
            groups_per_rank * self.org.banks_per_rank // 8
        ) * self.org.ranks_per_channel
        return StorageReport(sram_bytes=rgc_bytes + bitvector_bytes)

    # Introspection helpers ---------------------------------------------

    def single_row_mitigation_fraction(self) -> float:
        """Fraction of mitigations that refreshed exactly one shared row."""
        total = sum(self.shared_row_histogram.values())
        if total == 0:
            return 1.0
        return self.shared_row_histogram.get(1, 0) / total

    def groups_of(self, row: RowAddress) -> tuple[int, int]:
        """Current (table1, table2) group indices of a row."""
        state = self._rank_state(row.bank.channel, row.bank.rank)
        rank_row = row.rank_row_index(self.org)
        return state.table1.group_of(rank_row), state.table2.group_of(rank_row)
