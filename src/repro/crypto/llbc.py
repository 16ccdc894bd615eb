"""Low-Latency Block Cipher (LLBC) used for DAPPER's secure row-group hashing.

DAPPER-S and DAPPER-H randomise the mapping from DRAM rows to row-group
counters with a small keyed block cipher over the row-address space (21 bits
for the 2M rows of one rank in the baseline system), in the spirit of the
four-round low-latency ciphers used by CEASER and CUBE (and of SCARF).

The functional requirements are:

* **bijective** over an arbitrary (possibly odd) bit width ``n``, so that the
  hashed address space is exactly the row address space and every hashed
  address can be decrypted back to the original row for mitigation;
* **keyed**, with a small per-round key that can be refreshed cheaply every
  reset period (12 us analysis point) or refresh window (32 ms);
* **fast**, because it runs on every simulated activation.

We implement a fixed four-round, possibly unbalanced Feistel network with an
xorshift-based round function.  Feistel networks are bijections for any split
of the block, which handles odd widths such as 21 bits naturally.

Within one key epoch each round is a fixed function of a half-block of at
most ``ceil(n / 2)`` bits, so the cipher tabulates every round over its input
half (2,048 and 1,024 entries at 21 bits) and encrypts or decrypts with four
table lookups and XORs instead of recomputing the round function's two 64-bit
multiplies.  The tables are built on the first use after a re-keying, so an
epoch that ends without hashing costs nothing (DAPPER re-keys a rank even when
none of its rows was activated).  With numpy the build is one vector pass over
every input.  Without numpy each table fills on demand, one round-function
call per new input: a pure-Python build of every entry (6,144 calls at 21
bits) costs far more than a short key epoch that hashes a few rows, and this
way no epoch does more round work than the untabulated cipher.
"""

from __future__ import annotations

from repro.crypto.prng import SplitMix64

try:  # numpy builds the round tables in one vector pass; optional.
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

_MASK64 = (1 << 64) - 1

_MULT1 = 0x9E3779B97F4A7C15
_MULT2 = 0xBF58476D1CE4E5B9


def _round_function(value: int, key: int, width: int) -> int:
    """Non-linear keyed mixing of ``value`` (width bits) under ``key``."""
    x = (value ^ key) & _MASK64
    x = (x * _MULT1) & _MASK64
    x ^= x >> 29
    x = (x * _MULT2) & _MASK64
    x ^= x >> 32
    return x & ((1 << width) - 1)


class _LazyRoundTable(dict):
    """``_round_function(v, key, width)`` keyed by ``v``, filled on first use."""

    __slots__ = ("_key", "_width")

    def __init__(self, key: int, width: int):
        super().__init__()
        self._key = key
        self._width = width

    def __missing__(self, value: int) -> int:
        out = self[value] = _round_function(value, self._key, self._width)
        return out


def _round_table(key: int, in_bits: int, out_bits: int) -> list[int] | dict[int, int]:
    """``_round_function(v, key, out_bits)`` indexed by ``in_bits``-bit ``v``."""
    if _np is None:
        return _LazyRoundTable(key, out_bits)
    # uint64 arithmetic wraps mod 2**64, which is exactly the ``& _MASK64``.
    x = _np.arange(1 << in_bits, dtype=_np.uint64) ^ _np.uint64(key)
    x *= _np.uint64(_MULT1)
    x ^= x >> _np.uint64(29)
    x *= _np.uint64(_MULT2)
    x ^= x >> _np.uint64(32)
    return (x & _np.uint64((1 << out_bits) - 1)).tolist()


class LowLatencyBlockCipher:
    """A keyed four-round Feistel permutation over ``block_bits``-bit values.

    The round functions are tabulated per key epoch, lazily: :meth:`rekey`
    only draws keys, and the first :meth:`encrypt`/:meth:`decrypt` after it
    builds the tables (or, without numpy, starts filling them).
    """

    def __init__(self, block_bits: int, seed: int):
        if block_bits < 2:
            raise ValueError("block_bits must be at least 2")
        self.block_bits = block_bits
        self._block_size = 1 << block_bits
        self._left_bits = block_bits // 2
        self._right_bits = block_bits - self._left_bits
        self._right_mask = (1 << self._right_bits) - 1
        self._keys: list[int] = []
        self._tables: tuple[list[int] | dict[int, int], ...] | None = None
        self._key_epoch = 0
        self._seeder = SplitMix64(seed)
        self.rekey()

    # ------------------------------------------------------------------ #
    # Key management
    # ------------------------------------------------------------------ #

    @property
    def key_epoch(self) -> int:
        """Number of times the cipher has been re-keyed."""
        return self._key_epoch

    @property
    def round_keys(self) -> tuple[int, ...]:
        return tuple(self._keys)

    def rekey(self) -> None:
        """Draw a fresh set of round keys (DAPPER re-keys every reset period)."""
        self._keys = [self._seeder.next() for _ in range(4)]
        self._tables = None
        self._key_epoch += 1

    def _build_tables(self) -> tuple[list[int] | dict[int, int], ...]:
        """Tabulate every round of the current key epoch.

        Even rounds map the right half into the left, odd rounds the left
        half into the right.
        """
        left, right = self._left_bits, self._right_bits
        self._tables = tuple(
            _round_table(key, right, left) if index % 2 == 0
            else _round_table(key, left, right)
            for index, key in enumerate(self._keys)
        )
        return self._tables

    # ------------------------------------------------------------------ #
    # Permutation
    # ------------------------------------------------------------------ #

    def encrypt(self, value: int) -> int:
        """Encrypt a ``block_bits``-bit value."""
        if not 0 <= value < self._block_size:
            self._check_range(value)
        f0, f1, f2, f3 = self._tables or self._build_tables()
        shift = self._right_bits
        left = value >> shift
        right = value & self._right_mask
        left ^= f0[right]
        right ^= f1[left]
        left ^= f2[right]
        right ^= f3[left]
        return (left << shift) | right

    def decrypt(self, value: int) -> int:
        """Invert :meth:`encrypt`."""
        if not 0 <= value < self._block_size:
            self._check_range(value)
        f0, f1, f2, f3 = self._tables or self._build_tables()
        shift = self._right_bits
        left = value >> shift
        right = value & self._right_mask
        right ^= f3[left]
        left ^= f2[right]
        right ^= f1[left]
        left ^= f0[right]
        return (left << shift) | right

    def _check_range(self, value: int) -> None:
        """Raise for a value outside the block (the hot paths test inline)."""
        if not 0 <= value < self._block_size:
            raise ValueError(
                f"value {value} out of range for {self.block_bits}-bit block"
            )
