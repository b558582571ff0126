"""The HTTP boundary over raw sockets, in both serving modes.

The in-process :class:`PredictionServer` and the pre-fork
:class:`MultiWorkerServer` run one HTTP parser; every case here runs
against both.
"""

import json
import socket

import pytest

from repro.config import ServingConfig
from repro.serving import (
    MultiWorkerServer,
    PredictionServer,
    multiworker_supported,
    save_artifact,
)

_MULTI = pytest.mark.skipif(
    not multiworker_supported()[0],
    reason=f"multi-worker serving unavailable: {multiworker_supported()[1]}",
)


def _cases(values):
    """``(mode, value)`` params; in-process ids are the bare values."""
    return [
        param
        for value in values
        for param in (
            pytest.param("in_process", value, id=str(value)),
            pytest.param(
                "multi_worker", value, id=f"multi_worker-{value}", marks=_MULTI
            ),
        )
    ]


@pytest.fixture(scope="module")
def artifact(small_contender, tmp_path_factory):
    path = tmp_path_factory.mktemp("server") / "model.json"
    save_artifact(small_contender, path)
    return path


@pytest.fixture(scope="module")
def in_process(artifact):
    config = ServingConfig(port=0, workers=1, batch_window=0.0)
    with PredictionServer.from_artifact(artifact, config=config) as srv:
        yield srv


@pytest.fixture(scope="module")
def multi_worker(artifact):
    config = ServingConfig(
        port=0, workers=1, batch_window=0.0, worker_processes=2
    )
    with MultiWorkerServer(artifact, config) as srv:
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


def _parse(raw):
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = {
        name.strip().lower(): value.strip()
        for name, _, value in (line.partition(":") for line in header_lines)
    }
    return int(status_line.split()[1]), headers, body


@pytest.mark.parametrize("mode, length", _cases(["abc", "-5", "1e3"]))
def test_bad_content_length_is_a_400_and_closes(request, mode, length):
    server = request.getfixturevalue(mode)
    raw = _exchange(
        server.host,
        server.port,
        b"POST /v1/predict HTTP/1.1\r\nContent-Length: %s\r\n\r\n"
        % length.encode(),
    )
    status, headers, body = _parse(raw)
    assert status == 400
    assert headers["connection"] == "close"
    assert json.loads(body)["type"] == "protocol"


_OVERSIZED = {
    "request_line": (
        b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
        414,
    ),
    "header_line": (
        b"GET /v1/health HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n",
        431,
    ),
    "header_count": (
        b"GET /v1/health HTTP/1.1\r\n"
        + b"".join(b"X-Header-%d: v\r\n" % i for i in range(150))
        + b"\r\n",
        431,
    ),
}


@pytest.mark.parametrize("mode, case", _cases(sorted(_OVERSIZED)))
def test_oversized_request_heads_are_refused_and_closed(request, mode, case):
    server = request.getfixturevalue(mode)
    raw, expected = _OVERSIZED[case]
    status, headers, _body = _parse(_exchange(server.host, server.port, raw))
    assert status == expected
    assert headers["connection"] == "close"
    # The refusal cost one connection, not the server.
    health = _exchange(
        server.host,
        server.port,
        b"GET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n",
    )
    assert _parse(health)[0] == 200
