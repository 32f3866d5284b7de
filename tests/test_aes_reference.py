"""Tests for the pure-Python AES-128 reference implementation (FIPS-197)."""

import pytest
from hypothesis import given, strategies as st

from repro.aes import reference as aes

states = st.lists(st.integers(0, 255), min_size=16, max_size=16)


class TestSBox:
    def test_known_entries(self):
        # FIPS-197 Figure 7
        assert aes.SBOX[0x00] == 0x63
        assert aes.SBOX[0x01] == 0x7C
        assert aes.SBOX[0x53] == 0xED
        assert aes.SBOX[0xFF] == 0x16

    def test_sbox_is_a_permutation(self):
        assert sorted(aes.SBOX) == list(range(256))

    @given(st.integers(0, 255))
    def test_inverse_sbox(self, byte):
        assert aes.INV_SBOX[aes.SBOX[byte]] == byte


class TestFieldArithmetic:
    def test_xtime_examples(self):
        # FIPS-197 Section 4.2.1
        assert aes.xtime(0x57) == 0xAE
        assert aes.xtime(0xAE) == 0x47
        assert aes.xtime(0x47) == 0x8E
        assert aes.xtime(0x8E) == 0x07

    def test_gf_multiply_example(self):
        assert aes.gf_multiply(0x57, 0x13) == 0xFE

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_gf_multiply_commutative(self, a, b):
        assert aes.gf_multiply(a, b) == aes.gf_multiply(b, a)

    @given(st.integers(0, 255))
    def test_gf_multiply_identity(self, a):
        assert aes.gf_multiply(a, 1) == a
        assert aes.gf_multiply(a, 0) == 0


class TestRoundTransformations:
    @given(states)
    def test_shift_rows_leaves_row_zero_untouched(self, state):
        shifted = aes.shift_rows(state)
        for column in range(4):
            assert shifted[4 * column] == state[4 * column]

    @given(states)
    def test_shift_rows_is_a_permutation_of_the_state(self, state):
        assert sorted(aes.shift_rows(state)) == sorted(state)

    @given(states)
    def test_shift_rows_applied_four_times_is_identity(self, state):
        result = state
        for _ in range(4):
            result = aes.shift_rows(result)
        assert result == state

    def test_mix_single_column_example(self):
        # FIPS-197 Appendix B, round 1 MixColumns, first column
        assert aes.mix_single_column([0xD4, 0xBF, 0x5D, 0x30]) == [
            0x04,
            0x66,
            0x81,
            0xE5,
        ]

    @given(states)
    def test_add_round_key_is_an_involution(self, state):
        key = list(range(16))
        assert aes.add_round_key(aes.add_round_key(state, key), key) == state

    @given(states)
    def test_sub_bytes_invertible(self, state):
        substituted = aes.sub_bytes(state)
        assert [aes.INV_SBOX[b] for b in substituted] == state


class TestKeySchedule:
    KEY = [
        0x2B, 0x7E, 0x15, 0x16, 0x28, 0xAE, 0xD2, 0xA6,
        0xAB, 0xF7, 0x15, 0x88, 0x09, 0xCF, 0x4F, 0x3C,
    ]

    def test_first_round_key_is_the_key(self):
        assert aes.expand_key(self.KEY)[0] == self.KEY

    def test_fips_197_appendix_a_round_keys(self):
        round_keys = aes.expand_key(self.KEY)
        # w[4..7] of the FIPS-197 Appendix A.1 expansion
        assert round_keys[1] == [
            0xA0, 0xFA, 0xFE, 0x17, 0x88, 0x54, 0x2C, 0xB1,
            0x23, 0xA3, 0x39, 0x39, 0x2A, 0x6C, 0x76, 0x05,
        ]
        # the final round key w[40..43]
        assert round_keys[10] == [
            0xD0, 0x14, 0xF9, 0xA8, 0xC9, 0xEE, 0x25, 0x89,
            0xE1, 0x3F, 0x0C, 0xC8, 0xB6, 0x63, 0x0C, 0xA6,
        ]

    def test_wrong_key_length_rejected(self):
        with pytest.raises(ValueError):
            aes.expand_key([0] * 15)


class TestEncryption:
    def test_fips_197_appendix_b(self):
        plaintext = [
            0x32, 0x43, 0xF6, 0xA8, 0x88, 0x5A, 0x30, 0x8D,
            0x31, 0x31, 0x98, 0xA2, 0xE0, 0x37, 0x07, 0x34,
        ]
        key = TestKeySchedule.KEY
        expected = [
            0x39, 0x25, 0x84, 0x1D, 0x02, 0xDC, 0x09, 0xFB,
            0xDC, 0x11, 0x85, 0x97, 0x19, 0x6A, 0x0B, 0x32,
        ]
        assert aes.encrypt_block(plaintext, key) == expected

    def test_fips_197_appendix_c_1(self):
        plaintext = list(bytes.fromhex("00112233445566778899aabbccddeeff"))
        key = list(bytes.fromhex("000102030405060708090a0b0c0d0e0f"))
        expected = list(bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a"))
        assert aes.encrypt_block(plaintext, key) == expected

    def test_wrong_block_length_rejected(self):
        with pytest.raises(ValueError):
            aes.encrypt_block([0] * 8, [0] * 16)


class TestStateConversions:
    @given(states)
    def test_bitstring_roundtrip(self, state):
        assert aes.bitstring_to_state(aes.state_to_bitstring(state)) == state

    def test_bytes_roundtrip(self):
        block = bytes(range(16))
        assert bytes(aes.bytes_to_state(block)) == block

    def test_invalid_lengths_rejected(self):
        with pytest.raises(ValueError):
            aes.bytes_to_state(b"short")
        with pytest.raises(ValueError):
            aes.bitstring_to_state("1" * 64)
