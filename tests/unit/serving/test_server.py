"""The threaded single-process transport at the HTTP boundary."""

import json
import socket

import pytest

from repro.config import ServingConfig
from repro.serving import PredictionServer, save_artifact


@pytest.fixture(scope="module")
def server(small_contender, tmp_path_factory):
    path = tmp_path_factory.mktemp("server") / "model.json"
    save_artifact(small_contender, path)
    config = ServingConfig(port=0, workers=1, batch_window=0.0)
    with PredictionServer.from_artifact(path, config=config) as srv:
        yield srv


def _exchange(host, port, raw):
    """Send *raw*, read until the server closes; a hang fails on timeout."""
    with socket.create_connection((host, port), timeout=10.0) as sock:
        sock.sendall(raw)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


@pytest.mark.parametrize("length", [b"abc", b"-5", b"1e3"])
def test_bad_content_length_is_a_400_and_closes(server, length):
    raw = _exchange(
        server.host,
        server.port,
        b"POST /v1/predict HTTP/1.1\r\nContent-Length: %s\r\n\r\n" % length,
    )
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = {
        name.strip().lower(): value.strip()
        for name, _, value in (line.partition(":") for line in header_lines)
    }
    assert status_line.split()[1] == "400"
    assert headers["connection"] == "close"
    assert json.loads(body)["type"] == "protocol"
