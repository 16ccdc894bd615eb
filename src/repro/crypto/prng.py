"""Deterministic pseudo-random number generators.

The simulator must be fully deterministic (same seed, same result) and must
not depend on Python's global :mod:`random` state, so every component that
needs randomness owns one of these small generators.

``SplitMix64`` is used to derive independent sub-seeds (one per core, one per
tracker, one per key schedule); ``XorShift64`` is the fast per-component
stream generator.
"""

from __future__ import annotations

try:  # numpy accelerates block generation; everything works without it.
    import numpy as _np
except ImportError:  # pragma: no cover - the CI image ships numpy
    _np = None


_MASK64 = (1 << 64) - 1

#: xorshift64* output multiplier.
_XS_MULT = 0x2545F4914F6CDD1D

#: Lane count used by the vectorized block generator.  The GF(2) jump matrix
#: advances every lane by ``_LANES`` steps at once, so one vectorized step
#: yields ``_LANES`` outputs of the *sequential* stream.
_LANES = 8192

#: Seeding the lanes costs ``_LANES`` scalar steps, so a generator without
#: live lanes only seeds them for requests of at least this size; smaller
#: requests use a tight scalar loop, which is itself much faster than
#: per-call next_u64.  Once seeded, the lanes serve requests of any size.
_VECTOR_THRESHOLD = 8192


def _xs_step(x: int) -> int:
    """One xorshift64 state transition (no output multiply)."""
    x ^= x >> 12
    x ^= (x << 25) & _MASK64
    x ^= x >> 27
    return x


def _xs_matmul(a: list[int], b: list[int]) -> list[int]:
    """Compose two GF(2) 64x64 matrices stored column-wise as uint64 rows.

    ``a[i]`` is the image of basis vector ``1 << i``; the product maps
    ``v -> a(b(v))``.
    """
    out = []
    for column in b:
        acc = 0
        bit = 0
        while column:
            if column & 1:
                acc ^= a[bit]
            column >>= 1
            bit += 1
        out.append(acc)
    return out


def _xs_jump_matrix(steps: int) -> list[int]:
    """Matrix of ``steps`` xorshift64 state transitions over GF(2)."""
    single = [_xs_step(1 << i) for i in range(64)]
    result = [1 << i for i in range(64)]  # identity
    power = single
    while steps:
        if steps & 1:
            result = _xs_matmul(power, result)
        power = _xs_matmul(power, power)
        steps >>= 1
    return result


_JUMP_TABLES = None


def _jump_tables():
    """The ``_LANES``-step jump as eight 256-entry numpy byte tables.

    The jump is linear over GF(2), so its image of a state is the XOR of
    its images of the state's eight bytes: ``tables[b][v]`` is the image of
    ``v << 8 * b``.  Built on the first vector generation, then shared.
    """
    global _JUMP_TABLES
    if _JUMP_TABLES is None:
        columns = _np.array(_xs_jump_matrix(_LANES), dtype=_np.uint64)
        values = _np.arange(256, dtype=_np.uint64)
        tables = _np.zeros((8, 256), dtype=_np.uint64)
        for bit in range(64):
            byte, shift = divmod(bit, 8)
            is_set = (values >> _np.uint64(shift)) & _np.uint64(1)
            tables[byte] ^= is_set * columns[bit]
        _JUMP_TABLES = tables
    return _JUMP_TABLES


def _jump(lanes):
    """Advance every lane by ``_LANES`` xorshift64 steps."""
    tables = _jump_tables()
    low_byte = _np.uint64(0xFF)
    advanced = tables[0][lanes & low_byte]
    for byte in range(1, 8):
        advanced ^= tables[byte][(lanes >> _np.uint64(8 * byte)) & low_byte]
    return advanced


class SplitMix64:
    """SplitMix64 generator, mainly used for seeding other generators."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next(self) -> int:
        """Return the next 64-bit value."""
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def derive(self, label: int) -> int:
        """Derive a reproducible sub-seed for component ``label``."""
        fork = SplitMix64((self._state ^ (label * 0xA24BAED4963EE407)) & _MASK64)
        return fork.next()


class XorShift64:
    """xorshift64* generator: fast, deterministic, and good enough for
    address-pattern and sampling decisions inside the simulator.

    The generator exposes two equivalent views of the *same* output stream:

    * the classic scalar calls (:meth:`next_u64` and friends), and
    * block access via :meth:`reserve`/:meth:`consume`/:meth:`take`, which
      pregenerate outputs in bulk (vectorized with numpy when available).

    Pregenerated outputs are buffered and drained by the scalar calls first,
    so interleaving scalar and block consumers never changes the emitted
    sequence -- a block-mode consumer sees exactly the values a scalar loop
    would have seen.  Note that ``_state`` runs *ahead* of the emitted stream
    while buffered outputs remain.

    The vectorized generator keeps its ``_LANES`` lane states between calls
    (``_lanes``).  They are live while the last lane equals ``_state``, i.e.
    until a scalar step advances the state past them; while live, every
    further block costs one jump instead of re-seeding the lanes.
    """

    def __init__(self, seed: int):
        self._state = (seed & _MASK64) or 0x1234_5678_9ABC_DEF1
        self._block = None
        self._block_pos = 0
        self._lanes = None

    def next_u64(self) -> int:
        block = self._block
        if block is not None:
            pos = self._block_pos
            if pos < len(block):
                self._block_pos = pos + 1
                return int(block[pos])
            self._block = None
        x = self._state
        x ^= (x >> 12) & _MASK64
        x ^= (x << 25) & _MASK64
        x ^= (x >> 27) & _MASK64
        self._state = x & _MASK64
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    # -- block access ------------------------------------------------------

    def reserve(self, count: int):
        """Ensure ``count`` outputs are buffered; return ``(block, pos)``.

        ``block[pos:pos + count]`` holds the next ``count`` outputs of the
        stream (a numpy uint64 array when numpy is available, else a list).
        The outputs are *not* consumed; call :meth:`consume` once used.
        """
        block = self._block
        pos = self._block_pos
        remaining = (len(block) - pos) if block is not None else 0
        if remaining >= count:
            return block, pos
        fresh = self._generate(count - remaining)
        if remaining:
            leftover = block[pos:]
            if _np is not None and isinstance(block, _np.ndarray):
                fresh = _np.concatenate([leftover, fresh])
            else:
                fresh = list(leftover) + list(fresh)
        self._block = fresh
        self._block_pos = 0
        return fresh, 0

    def consume(self, count: int) -> None:
        """Mark ``count`` reserved outputs as emitted."""
        block = self._block
        available = (len(block) - self._block_pos) if block is not None else 0
        if count > available:
            raise ValueError(f"consume({count}) exceeds {available} buffered outputs")
        self._block_pos += count

    def take(self, count: int):
        """Return (and consume) the next ``count`` outputs as one block."""
        block, pos = self.reserve(count)
        self._block_pos = pos + count
        return block[pos:pos + count]

    def _generate(self, count: int):
        """Generate the next ``count``-or-more outputs, advancing ``_state``."""
        if _np is None or (count < _VECTOR_THRESHOLD and not self._lanes_live()):
            return self._generate_scalar(count)
        return self._generate_vector(count)

    def _lanes_live(self) -> bool:
        lanes = self._lanes
        return lanes is not None and int(lanes[-1]) == self._state

    def _generate_scalar(self, count: int):
        x = self._state
        out = [0] * count
        for i in range(count):
            x ^= x >> 12
            x = (x ^ (x << 25)) & _MASK64
            x ^= x >> 27
            out[i] = (x * _XS_MULT) & _MASK64
        self._state = x
        if _np is not None:
            return _np.array(out, dtype=_np.uint64)
        return out

    def _generate_vector(self, count: int):
        """The next ``count`` outputs rounded up to whole ``_LANES`` blocks.

        Lane ``i`` holds state ``s_{n+i+1}``, where ``s_n`` is the state
        before the block, so the lanes times the xorshift64* multiplier are
        the next ``_LANES`` outputs of the sequential stream; one jump
        advances every lane by ``_LANES`` steps.  Live lanes already end at
        ``_state``, so the first block is one jump; otherwise the lanes are
        seeded with ``_LANES`` scalar steps from ``_state``.
        """
        steps = -(-count // _LANES)
        mult = _np.uint64(_XS_MULT)
        out = _np.empty(steps * _LANES, dtype=_np.uint64)
        if self._lanes_live():
            lanes = self._lanes
            first = 0
        else:
            x = self._state
            lane_states = [0] * _LANES
            for i in range(_LANES):
                x ^= x >> 12
                x = (x ^ (x << 25)) & _MASK64
                x ^= x >> 27
                lane_states[i] = x
            lanes = _np.array(lane_states, dtype=_np.uint64)
            out[:_LANES] = lanes * mult
            first = 1
        for j in range(first, steps):
            lanes = _jump(lanes)
            out[j * _LANES:(j + 1) * _LANES] = lanes * mult
        self._lanes = lanes
        self._state = int(lanes[-1])
        return out

    def next_float(self) -> float:
        """Uniform float in [0, 1)."""
        return (self.next_u64() >> 11) / float(1 << 53)

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def next_bits(self, bits: int) -> int:
        """Uniform integer with the requested number of bits."""
        if bits <= 0:
            raise ValueError("bits must be positive")
        value = 0
        remaining = bits
        while remaining > 0:
            take = min(remaining, 64)
            value = (value << take) | (self.next_u64() >> (64 - take))
            remaining -= take
        return value
