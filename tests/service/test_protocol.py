"""Tests for the NDJSON wire protocol helpers."""

import json

import pytest

from repro.service import (
    ProtocolError,
    decode_message,
    encode_message,
    from_wire,
    to_wire,
)


class TestWireConversion:
    def test_bytes_become_b64_keys(self):
        wired = to_wire({"gds": b"\x00\x06", "n": 3})
        assert wired == {"gds_b64": "AAY=", "n": 3}

    def test_roundtrip_nested(self):
        message = {
            "responses": [
                {"ok": True, "result": {"gds": b"\x00\x06\x00\x02", "n": 1}},
                {"ok": False, "error": {"type": "ValueError", "message": "x"}},
            ],
            "meta": {"tags": ["a", "b"]},
        }
        assert from_wire(to_wire(message)) == message

    def test_scalars_pass_through(self):
        for value in (None, True, 1, 1.5, "text"):
            assert to_wire(value) == value
            assert from_wire(value) == value

    def test_bad_base64_raises(self):
        with pytest.raises(ProtocolError, match="base64"):
            from_wire({"gds_b64": "not base64!!!"})

    def test_non_b64_string_key_untouched(self):
        assert from_wire({"name_b64x": "plain"}) == {"name_b64x": "plain"}


class TestMessageFraming:
    def test_encode_is_one_json_line(self):
        line = encode_message({"op": "ping", "id": 1})
        assert line.endswith(b"\n")
        assert b"\n" not in line[:-1]
        assert json.loads(line) == {"op": "ping", "id": 1}

    def test_decode_roundtrip_with_bytes(self):
        line = encode_message({"id": 2, "op": "fill", "gds": b"\x00\x06"})
        assert decode_message(line) == {"id": 2, "op": "fill", "gds": b"\x00\x06"}

    def test_decode_rejects_non_json(self):
        with pytest.raises(ProtocolError, match="JSON"):
            decode_message(b"this is not json\n")

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError, match="objects"):
            decode_message(b"[1, 2, 3]\n")

    def test_decode_rejects_deep_nesting(self):
        # a RecursionError would escape the server's connection thread
        with pytest.raises(ProtocolError, match="nested too deeply"):
            decode_message(b"[" * 200000)
