"""Unit tests for the self-verifying header, quarantine and atomic writes."""

import os

import pytest

from repro.core.ioutil import (
    SelfVerifyingFormatError,
    atomic_write_bytes,
    atomic_write_text,
    decode_self_verifying,
    encode_self_verifying,
    quarantine_file,
)

TAG = b"unit-v1"


class TestSelfVerifying:
    def test_roundtrip(self):
        payload = b"\x00payload\nwith newlines\n"
        assert decode_self_verifying(TAG, encode_self_verifying(TAG, payload)) == payload

    def test_empty_payload_roundtrips(self):
        assert decode_self_verifying(TAG, encode_self_verifying(TAG, b"")) == b""

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"no header line at all", "no header line"),
            (b"unit-v1 12\npayload", "malformed"),
            (b"unit-v1 twelve 00\npayload", "not an integer"),
        ],
    )
    def test_broken_header_is_rejected(self, data, message):
        with pytest.raises(SelfVerifyingFormatError, match=message):
            decode_self_verifying(TAG, data, label="unit file")

    def test_foreign_format_tag_is_rejected(self):
        data = encode_self_verifying(b"other-v9", b"payload")
        with pytest.raises(SelfVerifyingFormatError, match="'other-v9' is not 'unit-v1'"):
            decode_self_verifying(TAG, data)

    def test_truncated_payload_is_rejected(self):
        data = encode_self_verifying(TAG, b"0123456789")
        with pytest.raises(SelfVerifyingFormatError, match="truncated"):
            decode_self_verifying(TAG, data[:-1])

    def test_flipped_byte_is_rejected(self):
        data = bytearray(encode_self_verifying(TAG, b"0123456789"))
        data[-1] ^= 0x01
        with pytest.raises(SelfVerifyingFormatError, match="digest mismatch"):
            decode_self_verifying(TAG, bytes(data))

    def test_error_names_the_artifact(self):
        with pytest.raises(SelfVerifyingFormatError, match="^checkpoint has no header line$"):
            decode_self_verifying(TAG, b"", label="checkpoint")


class TestQuarantine:
    def test_moves_the_file_and_keeps_its_bytes(self, tmp_path):
        victim = tmp_path / "shard.bin"
        victim.write_bytes(b"evidence")
        destination = quarantine_file(str(victim), str(tmp_path / "quarantine"))
        assert not victim.exists()
        assert destination == str(tmp_path / "quarantine" / "shard.bin")
        assert open(destination, "rb").read() == b"evidence"

    def test_repeated_failures_never_overwrite(self, tmp_path):
        quarantine = str(tmp_path / "quarantine")
        destinations = []
        for round_ in range(3):
            victim = tmp_path / "shard.bin"
            victim.write_bytes(b"round %d" % round_)
            destinations.append(quarantine_file(str(victim), quarantine))
        assert [os.path.basename(d) for d in destinations] == [
            "shard.bin", "shard.bin.1", "shard.bin.2",
        ]
        assert [open(d, "rb").read() for d in destinations] == [b"round 0", b"round 1", b"round 2"]


class TestAtomicWrite:
    def test_replaces_existing_file_and_leaves_no_temporary(self, tmp_path):
        target = tmp_path / "report.txt"
        target.write_bytes(b"old")
        atomic_write_bytes(str(target), b"new")
        assert target.read_bytes() == b"new"
        assert os.listdir(tmp_path) == ["report.txt"]

    def test_failed_write_keeps_the_previous_file(self, tmp_path):
        target = tmp_path / "report.txt"
        target.write_bytes(b"previous")
        with pytest.raises(TypeError):
            atomic_write_bytes(str(target), "not bytes")
        assert target.read_bytes() == b"previous"
        assert os.listdir(tmp_path) == ["report.txt"]

    def test_text_is_encoded(self, tmp_path):
        target = tmp_path / "figure.csv"
        atomic_write_text(str(target), "size,share\n1362,0.61 ≤ 3×\n")
        assert target.read_bytes() == "size,share\n1362,0.61 ≤ 3×\n".encode("utf-8")
