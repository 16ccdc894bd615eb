"""Tests for the low-latency block cipher and PRNGs."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro.crypto.llbc as llbc
import repro.crypto.prng as prng
from repro.crypto.llbc import LowLatencyBlockCipher, _round_function
from repro.crypto.prng import SplitMix64, XorShift64

_MASK64 = (1 << 64) - 1


def _xorshift64_star(seed, count):
    """The xorshift64* output stream, one step at a time."""
    x = (seed & _MASK64) or 0x1234_5678_9ABC_DEF1
    out = []
    for _ in range(count):
        x ^= x >> 12
        x ^= (x << 25) & _MASK64
        x ^= x >> 27
        out.append((x * 0x2545F4914F6CDD1D) & _MASK64)
    return out


def _reference_feistel(cipher, value, inverse=False):
    """The cipher as a per-round Feistel loop over ``_round_function``.

    This is the untabulated cipher: each round recomputes the round function
    under the current key.  The tabulated ``encrypt``/``decrypt`` must agree
    with it on every input.
    """
    right_bits = cipher.block_bits - cipher.block_bits // 2
    left_bits = cipher.block_bits // 2
    left = value >> right_bits
    right = value & ((1 << right_bits) - 1)
    keys = cipher.round_keys
    order = reversed(range(len(keys))) if inverse else range(len(keys))
    for round_index in order:
        if round_index % 2 == 0:
            left ^= _round_function(right, keys[round_index], left_bits)
        else:
            right ^= _round_function(left, keys[round_index], right_bits)
    return (left << right_bits) | right


class TestLLBC:
    def test_encrypt_decrypt_roundtrip(self):
        cipher = LowLatencyBlockCipher(block_bits=21, seed=7)
        for value in (0, 1, 12345, (1 << 21) - 1):
            assert cipher.decrypt(cipher.encrypt(value)) == value

    def test_is_a_permutation_on_small_domain(self):
        cipher = LowLatencyBlockCipher(block_bits=10, seed=3)
        images = {cipher.encrypt(value) for value in range(1 << 10)}
        assert len(images) == 1 << 10
        assert min(images) == 0 and max(images) == (1 << 10) - 1

    def test_rekey_changes_mapping(self):
        cipher = LowLatencyBlockCipher(block_bits=16, seed=11)
        before = [cipher.encrypt(v) for v in range(64)]
        cipher.rekey()
        after = [cipher.encrypt(v) for v in range(64)]
        assert before != after
        assert cipher.key_epoch == 2

    def test_rekey_preserves_bijectivity(self):
        cipher = LowLatencyBlockCipher(block_bits=9, seed=5)
        cipher.rekey()
        images = {cipher.encrypt(value) for value in range(1 << 9)}
        assert len(images) == 1 << 9

    def test_same_seed_same_mapping(self):
        a = LowLatencyBlockCipher(block_bits=12, seed=42)
        b = LowLatencyBlockCipher(block_bits=12, seed=42)
        assert [a.encrypt(v) for v in range(100)] == [b.encrypt(v) for v in range(100)]

    def test_different_seeds_differ(self):
        a = LowLatencyBlockCipher(block_bits=12, seed=42)
        b = LowLatencyBlockCipher(block_bits=12, seed=43)
        assert [a.encrypt(v) for v in range(100)] != [b.encrypt(v) for v in range(100)]

    def test_out_of_range_rejected(self):
        cipher = LowLatencyBlockCipher(block_bits=8, seed=1)
        with pytest.raises(ValueError):
            cipher.encrypt(256)
        with pytest.raises(ValueError):
            cipher.decrypt(-1)

    def test_odd_width_supported(self):
        cipher = LowLatencyBlockCipher(block_bits=17, seed=9)
        for value in (0, 1, 2 ** 17 - 1, 99_999):
            assert cipher.decrypt(cipher.encrypt(value)) == value

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LowLatencyBlockCipher(block_bits=1, seed=0)

    def test_mixing_moves_values(self):
        cipher = LowLatencyBlockCipher(block_bits=21, seed=99)
        unchanged = sum(1 for v in range(1000) if cipher.encrypt(v) == v)
        assert unchanged < 10

    @settings(max_examples=200, deadline=None)
    @given(value=st.integers(0, (1 << 21) - 1), seed=st.integers(0, 2 ** 32))
    def test_roundtrip_property(self, value, seed):
        cipher = LowLatencyBlockCipher(block_bits=21, seed=seed)
        assert cipher.decrypt(cipher.encrypt(value)) == value


class TestTabulatedRounds:
    """The per-epoch round tables reproduce the per-round Feistel loop."""

    EPOCHS = 3

    @pytest.mark.parametrize("block_bits", [9, 10])
    def test_matches_reference_on_every_input(self, block_bits):
        cipher = LowLatencyBlockCipher(block_bits=block_bits, seed=0xDA99E2)
        for _ in range(self.EPOCHS):
            for value in range(1 << block_bits):
                assert cipher.encrypt(value) == _reference_feistel(cipher, value)
                assert cipher.decrypt(value) == _reference_feistel(
                    cipher, value, inverse=True
                )
            cipher.rekey()

    @pytest.mark.parametrize("block_bits", [17, 21])
    def test_matches_reference_on_sampled_inputs(self, block_bits):
        cipher = LowLatencyBlockCipher(block_bits=block_bits, seed=0x5EED)
        rng = random.Random(block_bits)
        for _ in range(self.EPOCHS):
            for _ in range(10_000):
                value = rng.randrange(1 << block_bits)
                assert cipher.encrypt(value) == _reference_feistel(cipher, value)
                assert cipher.decrypt(value) == _reference_feistel(
                    cipher, value, inverse=True
                )
            cipher.rekey()

    @pytest.mark.skipif(llbc._np is None, reason="needs numpy's table build")
    @pytest.mark.parametrize("block_bits", [2, 9, 17, 21])
    def test_numpy_and_pure_python_tables_are_equal(self, block_bits, monkeypatch):
        cipher = LowLatencyBlockCipher(block_bits=block_bits, seed=11)
        for _ in range(self.EPOCHS):
            numpy_tables = cipher._build_tables()
            with monkeypatch.context() as patch:
                patch.setattr(llbc, "_np", None)
                on_demand = cipher._build_tables()
            for lazy, table in zip(on_demand, numpy_tables):
                assert [lazy[value] for value in range(len(table))] == table
            cipher.rekey()

    def test_pure_python_tables_fill_only_the_inputs_hashed(self, monkeypatch):
        # Without numpy an epoch costs at most the untabulated cipher's round
        # work: one hashed row, however often, is four round-function calls.
        calls = []

        def counted(value, key, width):
            calls.append(value)
            return _round_function(value, key, width)

        monkeypatch.setattr(llbc, "_np", None)
        monkeypatch.setattr(llbc, "_round_function", counted)
        cipher = LowLatencyBlockCipher(block_bits=21, seed=3)
        for _ in range(self.EPOCHS):
            for _ in range(250):
                hashed = cipher.encrypt(12345)
            assert cipher.decrypt(hashed) == 12345
            assert len(calls) == 4
            calls.clear()
            cipher.rekey()

    def test_tables_are_built_lazily_per_epoch(self):
        cipher = LowLatencyBlockCipher(block_bits=12, seed=3)
        assert cipher._tables is None
        cipher.decrypt(5)
        first = cipher._tables
        assert first is not None
        cipher.rekey()
        assert cipher._tables is None
        cipher.encrypt(5)
        assert cipher._tables is not None and cipher._tables != first


class TestPRNG:
    def test_splitmix_deterministic(self):
        assert SplitMix64(1).next() == SplitMix64(1).next()
        assert SplitMix64(1).next() != SplitMix64(2).next()

    def test_splitmix_derive_labels(self):
        base = SplitMix64(123)
        assert base.derive(0) != base.derive(1)

    def test_xorshift_range(self):
        rng = XorShift64(5)
        for _ in range(1000):
            value = rng.next_float()
            assert 0.0 <= value < 1.0

    def test_xorshift_below(self):
        rng = XorShift64(5)
        values = {rng.next_below(10) for _ in range(500)}
        assert values <= set(range(10))
        assert len(values) == 10

    def test_xorshift_bits(self):
        rng = XorShift64(5)
        value = rng.next_bits(80)
        assert 0 <= value < (1 << 80)

    def test_xorshift_zero_seed_is_valid(self):
        rng = XorShift64(0)
        assert rng.next_u64() != 0

    def test_invalid_arguments(self):
        rng = XorShift64(1)
        with pytest.raises(ValueError):
            rng.next_below(0)
        with pytest.raises(ValueError):
            rng.next_bits(0)

    def test_uniformity_rough(self):
        rng = XorShift64(77)
        buckets = [0] * 8
        for _ in range(8000):
            buckets[rng.next_below(8)] += 1
        assert min(buckets) > 800

    @pytest.mark.parametrize("use_numpy", [True, False], ids=["numpy", "pure-python"])
    def test_block_and_scalar_calls_emit_one_stream(self, use_numpy, monkeypatch):
        if not use_numpy:
            monkeypatch.setattr(prng, "_np", None)
        elif prng._np is None:
            pytest.skip("numpy is not installed")
        seed = 0xC0FFEE
        rng = XorShift64(seed)
        emitted = []

        def draw(op, size):
            if op == "next_u64":
                emitted.extend(rng.next_u64() for _ in range(size))
            elif op == "take":
                emitted.extend(int(value) for value in rng.take(size))
            else:  # reserve, then consume only part of the reservation
                block, pos = rng.reserve(size)
                used = (size + 1) // 2
                emitted.extend(int(value) for value in block[pos:pos + used])
                rng.consume(used)

        # Below the vector threshold without lanes: the scalar loop.
        draw("take", 8_191)
        # Seeds the lanes; two blocks, 8,191 outputs stay buffered.
        draw("take", 8_193)
        # The buffer plus a 41-output top-up, served by the live lanes (one
        # more block); half of it is consumed, 12,267 outputs stay buffered.
        draw("reserve", 8_191 + 41)
        assert use_numpy == rng._lanes_live()
        # Drains the buffer, then scalar steps leave the lanes stale.
        draw("next_u64", 12_300)
        assert not rng._lanes_live()
        # Stale lanes below the threshold: the scalar loop again.
        draw("reserve", 100)
        # Re-seeds the lanes.
        draw("take", 20_000)
        order = random.Random(14)
        for _ in range(40):
            op = order.choice(["next_u64", "take", "reserve"])
            high = 3_000 if op == "next_u64" else 20_000
            draw(op, order.choice([1, 8_191, 8_192, 8_193, order.randrange(1, high)]))
        assert emitted == _xorshift64_star(seed, len(emitted))
