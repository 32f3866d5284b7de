"""Pure-Python reference implementation of AES-128 (FIPS-197).

The state is represented as a list of 16 integers in column-major order, i.e.
``state[4 * c + r]`` is the byte in row ``r`` and column ``c`` — the order in
which the 128-bit input block is consumed.  The implementation favours clarity
over speed; it is the ground truth against which the generated VHDL1
components are simulated, and it backs the FIPS-197 known-answer tests.
"""

from __future__ import annotations

from typing import List, Sequence

State = List[int]
"""Sixteen bytes in column-major order."""


def _build_sbox() -> List[int]:
    """Construct the AES S-box from the finite-field definition."""

    def gf_mul(a: int, b: int) -> int:
        product = 0
        for _ in range(8):
            if b & 1:
                product ^= a
            high = a & 0x80
            a = (a << 1) & 0xFF
            if high:
                a ^= 0x1B
            b >>= 1
        return product

    # multiplicative inverses in GF(2^8)
    inverse = [0] * 256
    for x in range(1, 256):
        for y in range(1, 256):
            if gf_mul(x, y) == 1:
                inverse[x] = y
                break

    sbox = [0] * 256
    for x in range(256):
        b = inverse[x]
        result = 0
        for i in range(8):
            bit = (
                (b >> i)
                ^ (b >> ((i + 4) % 8))
                ^ (b >> ((i + 5) % 8))
                ^ (b >> ((i + 6) % 8))
                ^ (b >> ((i + 7) % 8))
                ^ (0x63 >> i)
            ) & 1
            result |= bit << i
        sbox[x] = result
    return sbox


SBOX: List[int] = _build_sbox()
"""The AES substitution box."""

INV_SBOX: List[int] = [0] * 256
for _index, _value in enumerate(SBOX):
    INV_SBOX[_value] = _index
"""The inverse substitution box."""

RCON: List[int] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]
"""Round constants for the AES-128 key schedule."""


def xtime(byte: int) -> int:
    """Multiplication by ``x`` (i.e. 2) in GF(2^8) with the AES polynomial."""
    byte <<= 1
    if byte & 0x100:
        byte ^= 0x11B
    return byte & 0xFF


def gf_multiply(a: int, b: int) -> int:
    """General multiplication in GF(2^8) (used by MixColumns and tests)."""
    result = 0
    for _ in range(8):
        if b & 1:
            result ^= a
        a = xtime(a)
        b >>= 1
    return result


# ---------------------------------------------------------------------------
# Round transformations
# ---------------------------------------------------------------------------


def sub_bytes(state: Sequence[int]) -> State:
    """Apply the S-box to every byte of the state."""
    return [SBOX[byte] for byte in state]


def shift_rows(state: Sequence[int]) -> State:
    """Cyclically shift row ``r`` left by ``r`` positions.

    Row 0 is unchanged; rows 1, 2 and 3 are rotated by 1, 2 and 3 positions —
    the transformation analysed in the paper's Figure 5.
    """
    result = list(state)
    for row in range(1, 4):
        values = [state[4 * column + row] for column in range(4)]
        rotated = values[row:] + values[:row]
        for column in range(4):
            result[4 * column + row] = rotated[column]
    return result


def mix_single_column(column: Sequence[int]) -> List[int]:
    """MixColumns applied to one 4-byte column."""
    c0, c1, c2, c3 = column
    return [
        xtime(c0) ^ (xtime(c1) ^ c1) ^ c2 ^ c3,
        c0 ^ xtime(c1) ^ (xtime(c2) ^ c2) ^ c3,
        c0 ^ c1 ^ xtime(c2) ^ (xtime(c3) ^ c3),
        (xtime(c0) ^ c0) ^ c1 ^ c2 ^ xtime(c3),
    ]


def mix_columns(state: Sequence[int]) -> State:
    """Apply MixColumns to every column of the state."""
    result = [0] * 16
    for column in range(4):
        mixed = mix_single_column(state[4 * column : 4 * column + 4])
        result[4 * column : 4 * column + 4] = mixed
    return result


def add_round_key(state: Sequence[int], round_key: Sequence[int]) -> State:
    """XOR the state with the round key."""
    return [s ^ k for s, k in zip(state, round_key)]


# ---------------------------------------------------------------------------
# Key schedule and block encryption
# ---------------------------------------------------------------------------


def expand_key(key: Sequence[int]) -> List[List[int]]:
    """Expand a 16-byte key into the 11 round keys of AES-128."""
    if len(key) != 16:
        raise ValueError("AES-128 requires a 16-byte key")
    words: List[List[int]] = [list(key[4 * i : 4 * i + 4]) for i in range(4)]
    for i in range(4, 44):
        previous = list(words[i - 1])
        if i % 4 == 0:
            previous = previous[1:] + previous[:1]          # RotWord
            previous = [SBOX[b] for b in previous]           # SubWord
            previous[0] ^= RCON[i // 4 - 1]                  # Rcon
        words.append([a ^ b for a, b in zip(words[i - 4], previous)])
    round_keys = []
    for round_index in range(11):
        round_key: List[int] = []
        for word in words[4 * round_index : 4 * round_index + 4]:
            round_key.extend(word)
        round_keys.append(round_key)
    return round_keys


def encrypt_block(plaintext: Sequence[int], key: Sequence[int]) -> State:
    """Encrypt one 16-byte block with AES-128."""
    if len(plaintext) != 16:
        raise ValueError("AES-128 encrypts 16-byte blocks")
    round_keys = expand_key(key)
    state = add_round_key(plaintext, round_keys[0])
    for round_index in range(1, 10):
        state = sub_bytes(state)
        state = shift_rows(state)
        state = mix_columns(state)
        state = add_round_key(state, round_keys[round_index])
    state = sub_bytes(state)
    state = shift_rows(state)
    state = add_round_key(state, round_keys[10])
    return state


def bytes_to_state(block: bytes) -> State:
    """Convert a 16-byte ``bytes`` object into the state representation."""
    if len(block) != 16:
        raise ValueError("expected exactly 16 bytes")
    return list(block)


def state_to_bitstring(state: Sequence[int]) -> str:
    """Render a state as the 128-character bit string used by the VHDL ports.

    Byte 0 occupies the most significant bits, matching how the generated
    entities slice their 128-bit ports.
    """
    return "".join(format(byte, "08b") for byte in state)


def bitstring_to_state(bits: str) -> State:
    """Parse a 128-character bit string back into a state."""
    if len(bits) != 128:
        raise ValueError("expected a 128-bit string")
    return [int(bits[8 * i : 8 * i + 8], 2) for i in range(16)]
