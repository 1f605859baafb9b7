"""Unit and property tests for the from-scratch AES-128."""

import pytest
from hypothesis import given, strategies as st

from repro.workloads.aes128 import (
    INV_SBOX,
    SBOX,
    decrypt_block,
    decrypt_ecb,
    encrypt_block,
    encrypt_ecb,
    expand_key,
    pad_pkcs7,
    unpad_pkcs7,
)


def test_fips197_appendix_b_vector():
    """The FIPS-197 Appendix B example."""
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
    ciphertext = encrypt_block(plaintext, expand_key(key))
    assert ciphertext.hex() == "3925841d02dc09fbdc118597196a0b32"


def test_fips197_appendix_c_vector():
    """The FIPS-197 Appendix C.1 known-answer test."""
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
    round_keys = expand_key(key)
    ciphertext = encrypt_block(plaintext, round_keys)
    assert ciphertext.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"
    assert decrypt_block(ciphertext, round_keys) == plaintext


def test_key_expansion_first_and_last_round_keys():
    """FIPS-197 Appendix A.1 expansion of the Appendix B key."""
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    round_keys = expand_key(key)
    assert len(round_keys) == 11
    assert round_keys[0] == key
    assert round_keys[10].hex() == "d014f9a8c9ee2589e13f0cc8b6630ca6"


def test_sbox_known_entries():
    assert SBOX[0x00] == 0x63
    assert SBOX[0x53] == 0xED
    assert SBOX[0xFF] == 0x16


def test_sbox_is_a_permutation_and_inverts():
    assert sorted(SBOX) == list(range(256))
    for value in range(256):
        assert INV_SBOX[SBOX[value]] == value


def test_expand_key_rejects_wrong_length():
    with pytest.raises(ValueError):
        expand_key(b"short")


def test_block_functions_reject_wrong_length():
    round_keys = expand_key(bytes(16))
    with pytest.raises(ValueError):
        encrypt_block(b"tiny", round_keys)
    with pytest.raises(ValueError):
        decrypt_block(b"tiny", round_keys)


def test_pkcs7_roundtrip_and_validation():
    assert unpad_pkcs7(pad_pkcs7(b"abc")) == b"abc"
    assert len(pad_pkcs7(b"x" * 16)) == 32  # always adds a block
    with pytest.raises(ValueError):
        unpad_pkcs7(b"")
    with pytest.raises(ValueError):
        unpad_pkcs7(b"a" * 15 + bytes([0]))
    with pytest.raises(ValueError):
        unpad_pkcs7(b"a" * 14 + bytes([3, 3]))


def test_ecb_roundtrip_multiblock():
    key = bytes(range(16))
    message = b"The quick brown fox jumps over the lazy dog"
    assert decrypt_ecb(encrypt_ecb(message, key), key) == message


@given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
def test_property_block_roundtrip(key, block):
    round_keys = expand_key(key)
    assert decrypt_block(encrypt_block(block, round_keys), round_keys) == block


@given(st.binary(max_size=256), st.binary(min_size=16, max_size=16))
def test_property_ecb_roundtrip(message, key):
    assert decrypt_ecb(encrypt_ecb(message, key), key) == message


@given(st.binary(min_size=16, max_size=16))
def test_property_encryption_changes_the_block(key):
    block = bytes(16)
    assert encrypt_block(block, expand_key(key)) != block
