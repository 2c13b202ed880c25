"""Unit tests for the pure HTTP/1.1 framing helpers."""

import pytest

from repro.server.protocol import (
    MAX_BODY_BYTES,
    MAX_HEAD_BYTES,
    ProtocolError,
    format_response,
    parse_head,
)


def head_bytes(*lines: str) -> bytes:
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


class TestParseHead:
    def test_request_line_and_headers(self):
        head = parse_head(head_bytes(
            "POST /match HTTP/1.1", "Host: example", "Content-Length: 42"
        ))
        assert head.method == "POST"
        assert head.path == "/match"
        assert head.version == "HTTP/1.1"
        assert head.headers["host"] == "example"
        assert head.content_length == 42

    def test_header_names_are_case_insensitive(self):
        head = parse_head(head_bytes(
            "GET /stats HTTP/1.1", "CONTENT-length: 7", "ConneCtion: Close"
        ))
        assert head.content_length == 7
        assert not head.keep_alive

    def test_query_string_is_split_off_the_path(self):
        head = parse_head(head_bytes("GET /stats?verbose=1&x=y HTTP/1.1"))
        assert head.path == "/stats"
        assert head.query == {"verbose": "1", "x": "y"}

    def test_missing_content_length_means_empty_body(self):
        head = parse_head(head_bytes("GET /healthz HTTP/1.1"))
        assert head.content_length == 0

    @pytest.mark.parametrize("line", [
        "GARBAGE",
        "GET /x",
        "GET /x HTTP/2",
        "GET x HTTP/1.1",
        "GET /x HTTP/1.1 extra",
    ])
    def test_malformed_request_line_raises(self, line):
        with pytest.raises(ProtocolError):
            parse_head(head_bytes(line))

    def test_malformed_header_line_raises(self):
        with pytest.raises(ProtocolError):
            parse_head(head_bytes("GET /x HTTP/1.1", "no-colon-here"))

    def test_chunked_request_bodies_are_rejected(self):
        with pytest.raises(ProtocolError):
            parse_head(head_bytes(
                "POST /match HTTP/1.1", "Transfer-Encoding: chunked"
            ))

    def test_bad_content_length_raises(self):
        for value in ("abc", "-1"):
            with pytest.raises(ProtocolError):
                _ = parse_head(head_bytes(
                    "POST /x HTTP/1.1", f"Content-Length: {value}"
                )).content_length

    def test_oversized_body_is_a_413(self):
        head = parse_head(head_bytes(
            "POST /x HTTP/1.1", f"Content-Length: {MAX_BODY_BYTES + 1}"
        ))
        with pytest.raises(ProtocolError) as excinfo:
            _ = head.content_length
        assert excinfo.value.status == 413

    def test_oversized_head_is_a_413(self):
        padding = "X-Pad: " + "a" * MAX_HEAD_BYTES
        with pytest.raises(ProtocolError) as excinfo:
            parse_head(head_bytes("GET /x HTTP/1.1", padding))
        assert excinfo.value.status == 413


class TestKeepAlive:
    def test_http11_defaults_to_persistent(self):
        assert parse_head(head_bytes("GET /x HTTP/1.1")).keep_alive

    def test_http11_close_token_closes(self):
        head = parse_head(head_bytes("GET /x HTTP/1.1", "Connection: close"))
        assert not head.keep_alive

    def test_http10_defaults_to_closing(self):
        assert not parse_head(head_bytes("GET /x HTTP/1.0")).keep_alive

    def test_http10_keep_alive_token_persists(self):
        head = parse_head(head_bytes(
            "GET /x HTTP/1.0", "Connection: keep-alive"
        ))
        assert head.keep_alive


class TestResponseFraming:
    def test_sized_response_carries_content_length(self):
        raw = format_response(200, b'{"a": 1}')
        assert raw.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length: 8\r\n" in raw
        assert raw.endswith(b'\r\n\r\n{"a": 1}')

    def test_close_flag_sets_connection_header(self):
        assert b"Connection: close" in format_response(400, b"{}", close=True)
        assert b"Connection: keep-alive" in format_response(200, b"{}")
