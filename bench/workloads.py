"""The four benchmark workloads: train, serve-hot, serve-cold, sched-replay.

Each workload makes all of its inputs from the run seed, times its
operations with tracing off (``trace=0``) or compares an untraced and a
traced pass over the same inputs (``trace=1``), and checks the
program's outputs.  Why each workload exists, and every metric's exact
definition, are in README.md.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import re
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from bench import layers, loadgen, prepare, stats
from bench.metrics import END_TO_END, PER_LAYER, UNITS
from bench.spans import CLOCK, ThreadRecorders, layer_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("train", "serve-hot", "serve-cold", "sched-replay")

#: Set-ups per ``trace=0`` run; ``setup_s`` is their median.
SETUPS = 3
#: Open-loop rates (req/s) per serving workload: (lo, hi).
RATES = {"serve-hot": (150.0, 450.0), "serve-cold": (150.0, 300.0)}
#: Closed-loop requests slower than this do not count toward the rate.
LATENCY_LIMIT_S = 0.050
HOT_POOL_KEYS = 32
COLD_ITEMS = 32
#: One /v1/observe after every this many predict-batch requests.
OBSERVE_EVERY = 8
#: Every this many-th served prediction is checked against the model.
CHECK_EVERY = 50
PAYLOADS = 6000
WARMUP_S = 1.0
#: Sched-replay traces: bursty arrivals of 4000 queries at 0.005 q/s.
TRACE_COUNT = 4000
TRACE_RATE = 0.005
SCHED_WINDOW = 8
SCHED_MAX_MPL = 5
#: Nominal wall seconds per operation (2-core Xeon), which turn
#: ``--seconds`` into a fixed operation count: one campaign plus fit,
#: one replay.
TRAIN_OP_S = 2.0
SCHED_OP_S = 1.3

_PORT_RE = re.compile(r"on http://([^:\s]+):(\d+)")


class BenchError(RuntimeError):
    """A run that cannot produce its metrics (set-up failed)."""


@dataclass
class Result:
    """What one run attempted, what failed, and what it measured."""

    workload: str
    trace: int
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Printed rows ``(name, value, unit, n)``, gated or not.
    report: List[Tuple[str, float, str, int]] = field(default_factory=list)
    #: Printed rows ``(layer, seconds)`` of the traced self-time table.
    layer_rows: List[Tuple[str, float]] = field(default_factory=list)
    digest: str = ""
    notes: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Count a correctness mismatch as a failed operation."""
        if not ok:
            self.mismatches += 1
            self.failed += 1
            self.notes.append(f"mismatch: {what}")

    def row(self, name: str, value: float, unit: str, n: int) -> None:
        self.report.append((name, value, unit, n))

    def doc(self) -> Dict[str, Any]:
        """The JSON object the run prints as its last line."""
        return {
            "correct": self.mismatches == 0,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": UNITS[name]}
                for name, value in self.metrics.items()
            },
        }


# ----------------------------------------------------------------------
# Helpers shared by the workloads.


def derive(seed: int, label: str, index: int = 0) -> int:
    """A 32-bit seed for one input, derived from the run seed."""
    material = f"{seed}:{label}:{index}".encode()
    return int.from_bytes(hashlib.blake2b(material, digest_size=4).digest(), "big")


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def _prepare(*args: Any) -> float:
    """Run one ``prepare.py`` step in a fresh process; its wall seconds."""
    started = time.perf_counter()
    subprocess.run(
        [sys.executable, str(BENCH / "prepare.py"), *map(str, args)],
        cwd=ROOT,
        env=_env(),
        check=True,
        timeout=120,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - started


def vm_hwm_mb(pid: Any = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {pid}")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _time_rows(result: Result, name: str, seconds: Sequence[float], scale: float, unit: str) -> float:
    """Add median and tail rows for *seconds*; returns the scaled median."""
    if not seconds:
        result.row(f"{name}.p50", 0.0, unit, 0)
        return 0.0
    median = statistics.median(seconds) * scale
    result.row(f"{name}.p50", median, unit, len(seconds))
    tail = stats.tail_percentile(seconds)
    if tail is not None:
        q, value = tail
        result.row(f"{name}.p{q * 100:g}", value * scale, unit, len(seconds))
    return median


# ----------------------------------------------------------------------
# The serving process and its clients.


class Server:
    """A ``repro serve`` process, ready to answer once constructed.

    The server runs with ``python -u`` so its address line is not held
    in a block buffer; readiness waits for that line and then for
    ``/v1/health``, each under :data:`READY_TIMEOUT`.
    """

    READY_TIMEOUT = 60.0

    def __init__(self, argv: Sequence[str], log: Path):
        self.started = time.perf_counter()
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-u", *argv],
            cwd=ROOT,
            env=_env(),
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        try:
            deadline = time.monotonic() + self.READY_TIMEOUT
            self.host, self.port = self._await_address(deadline)
            self._await_health(deadline)
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - self.started

    def _await_address(self, deadline: float) -> Tuple[str, int]:
        fd = self.proc.stdout.fileno()
        buffered = b""
        while time.monotonic() < deadline:
            readable, _, _ = select.select([fd], [], [], 0.2)
            if not readable:
                if self.proc.poll() is not None:
                    break
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            buffered += chunk
            match = _PORT_RE.search(buffered.decode(errors="replace"))
            if match:
                return match.group(1), int(match.group(2))
        raise BenchError(
            f"server printed no address (exit code {self.proc.poll()})"
        )

    def _await_health(self, deadline: float) -> None:
        while time.monotonic() < deadline:
            try:
                self.get("/v1/health")
                return
            except (OSError, http.client.HTTPException, BenchError):
                time.sleep(0.05)
        raise BenchError("server never answered /v1/health")

    def get(self, path: str) -> Dict[str, Any]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=5.0)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
        finally:
            conn.close()
        if response.status != 200:
            raise BenchError(f"GET {path} answered {response.status}")
        return json.loads(body)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self, timeout: float = 10.0) -> Optional[int]:
        """SIGINT, then SIGKILL after *timeout*; waits for the exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout)
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


class Lanes:
    """One keep-alive connection per load-generator lane."""

    _HEADERS = {"Content-Type": "application/json"}

    def __init__(self, host: str, port: int, count: int = 2, timeout: float = 5.0):
        self._host = host
        self._port = port
        self._timeout = timeout
        self._conns: List[Optional[http.client.HTTPConnection]] = [None] * count

    def post(self, lane: int, path: str, body: bytes) -> Optional[bytes]:
        """The body of a 200 answer, or None for any failure."""
        conn = self._conns[lane]
        try:
            if conn is None:
                conn = http.client.HTTPConnection(
                    self._host, self._port, timeout=self._timeout
                )
                conn.connect()
                conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._conns[lane] = conn
            conn.request("POST", path, body=body, headers=self._HEADERS)
            response = conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            if conn is not None:
                conn.close()
            self._conns[lane] = None
            return None
        return data if response.status == 200 else None

    def close(self) -> None:
        for conn in self._conns:
            if conn is not None:
                conn.close()
        self._conns = [None] * len(self._conns)


class ServeTraffic:
    """Request payloads of one serving workload and their answer checks."""

    def __init__(self, kind: str, contender, seed: int):
        import numpy as np
        from repro.serving.client import mix_pool_workload

        self.kind = kind
        self._contender = contender
        self._lock = threading.Lock()
        #: ``(request index, primary, mix, served latency)``.
        self.samples: List[Tuple[int, int, Tuple[int, ...], float]] = []
        self.observes = 0
        ids = list(contender.template_ids)
        rng = np.random.default_rng(derive(seed, kind))
        if kind == "serve-hot":
            pool = mix_pool_workload(
                ids, PAYLOADS, pool_size=HOT_POOL_KEYS, mpl=2, seed=derive(seed, "pool")
            )
            self.keys = [[(r.primary, tuple(r.mix))] for r in pool]
            self.path = "/v1/predict"
            self.payloads = [
                json.dumps({"primary": p, "mix": list(m)}).encode()
                for ((p, m),) in self.keys
            ]
        else:
            self.keys = []
            for _ in range(PAYLOADS):
                items = []
                for mpl in rng.integers(2, 6, size=COLD_ITEMS):
                    mix = tuple(sorted(int(ids[i]) for i in rng.integers(0, len(ids), size=mpl)))
                    items.append((mix[int(rng.integers(0, mpl))], mix))
                self.keys.append(items)
            self.path = "/v1/predict-batch"
            self.payloads = [
                json.dumps(
                    {"items": [{"primary": p, "mix": list(m)} for p, m in items]}
                ).encode()
                for items in self.keys
            ]
            self.noise = rng.uniform(0.95, 1.05, size=PAYLOADS).tolist()

    def send(self, lanes: Lanes, lane: int, index: int) -> bool:
        """One operation; every CHECK_EVERY-th prediction is kept."""
        slot = index % len(self.payloads)
        body = lanes.post(lane, self.path, self.payloads[slot])
        if body is None:
            return False
        keys = self.keys[slot]
        if self.kind == "serve-hot":
            if index % CHECK_EVERY == 0:
                latency = json.loads(body)["latency"]
                with self._lock:
                    self.samples.append((index, *keys[0], latency))
            return True
        items = json.loads(body)["items"]
        if len(items) != len(keys):
            return False
        base = index * len(keys)
        kept = [
            (index, *keys[j], items[j]["latency"])
            for j in range(len(keys))
            if (base + j) % CHECK_EVERY == 0
        ]
        if index % OBSERVE_EVERY == OBSERVE_EVERY - 1:
            primary, mix = keys[0]
            doc = {
                "primary": primary,
                "mix": list(mix),
                "observed_latency": items[0]["latency"] * self.noise[slot],
            }
            if lanes.post(lane, "/v1/observe", json.dumps(doc).encode()) is None:
                return False
            with self._lock:
                self.observes += 1
        with self._lock:
            self.samples.extend(kept)
        return True

    def verify(self, result: Result) -> None:
        """Every kept prediction must equal the artifact's, under ``==``."""
        for _, primary, mix, latency in self.samples:
            expected = self._contender.predict_known(primary, mix)
            result.check(latency == expected, f"served T{primary} in {mix}")

    def digest(self, limit: int) -> str:
        """Digest of the kept answers to requests ``0..limit-1``."""
        return _sha(json.dumps(sorted(s for s in self.samples if s[0] < limit)))


def _phases(
    traffic: ServeTraffic, lanes: Lanes, rates: Tuple[float, float], each: float
) -> Dict[str, loadgen.PhaseResult]:
    """Open loop at the low and high rate, then a closed loop."""
    out: Dict[str, loadgen.PhaseResult] = {}
    offset = 0
    for name, rate in (("lo", rates[0]), ("hi", rates[1]), ("closed", None)):
        def send(lane: int, index: int, base: int = offset) -> bool:
            return traffic.send(lanes, lane, base + index)

        if rate is None:
            out[name] = loadgen.closed_loop(send, each)
        else:
            out[name] = loadgen.open_loop(send, rate, each)
        offset += out[name].attempted
    return out


def _warm(traffic: ServeTraffic, lanes: Lanes) -> None:
    """Fill caches and pools before timing; results are not counted."""
    base = len(traffic.payloads) // 2
    loadgen.closed_loop(
        lambda lane, index: traffic.send(lanes, lane, base + index), WARMUP_S
    )
    traffic.samples.clear()
    traffic.observes = 0


def _goodput(phase: loadgen.PhaseResult) -> float:
    """Requests answered within the latency limit per second of phase.

    The phase runs from its first send to its last answer.
    """
    good = sum(1 for lat in phase.latencies() if lat <= LATENCY_LIMIT_S)
    if not good:
        return 0.0
    busy = max(o.done for o in phase.outcomes) - min(o.sent for o in phase.outcomes)
    return good / busy


def _open_count(phases: Dict[str, loadgen.PhaseResult]) -> int:
    """Requests of the fixed-size open-loop phases (the digest's scope)."""
    return phases["lo"].attempted + phases["hi"].attempted


def _round_trips(phases: Dict[str, loadgen.PhaseResult], names: Sequence[str]) -> List[float]:
    return [o.done - o.sent for name in names for o in phases[name].outcomes]


def _count_phases(result: Result, phases: Dict[str, loadgen.PhaseResult]) -> None:
    for phase in phases.values():
        result.attempted += phase.attempted
        result.failed += phase.failed


def _serve_command(artifact: Path) -> List[str]:
    return ["serve", str(artifact), "--port", "0", "--workers", "1"]


def run_serve(kind: str, seed: int, seconds: float, trace: int, work: Path) -> Result:
    from repro.serving.registry import load_artifact

    result = Result(kind, trace)
    artifact = work / "model.json"
    log = work / "server.log"
    setups: List[float] = []
    server: Optional[Server] = None
    for attempt in range(SETUPS if trace == 0 else 1):
        prepare_s = _prepare("artifact", derive(seed, "campaign"), artifact)
        server = Server(["-m", "repro.cli", *_serve_command(artifact)], log)
        setups.append(prepare_s + server.ready_s)
        if attempt < SETUPS - 1 and trace == 0:
            server.stop()
    rates = RATES[kind]
    lanes = Lanes(server.host, server.port)
    try:
        traffic = ServeTraffic(kind, load_artifact(artifact).contender, seed)
        _warm(traffic, lanes)
        each = seconds / (3 if trace == 0 else 6)
        phases = _phases(traffic, lanes, rates, each)
        try:
            lifecycle = server.get("/v1/stats").get("lifecycle", {})
            rss = server.peak_rss_mb()
        except (OSError, http.client.HTTPException, BenchError) as exc:
            # A dead server is failed work, reported like any other.
            result.failed += 1
            result.notes.append(f"server lost before the end: {exc}")
            lifecycle, rss = {}, 0.0
    finally:
        lanes.close()
        server.stop()
    _count_phases(result, phases)
    traffic.verify(result)
    result.check(not lifecycle.get("drifted"), "no drift under in-band observations")
    result.digest = traffic.digest(_open_count(phases))

    if trace == 0:
        result.metrics["setup_s"] = statistics.median(setups)
        result.metrics["peak_rss_mb"] = rss
        p50 = {}
        for name in ("lo", "hi"):
            phase = phases[name]
            p50[name] = _time_rows(result, f"latency.{name}", phase.latencies(), 1e3, "ms")
            _time_rows(result, f"lateness.{name}", [o.lateness for o in phase.outcomes], 1e3, "ms")
        closed = phases["closed"]
        _time_rows(result, "latency.closed", closed.latencies(), 1e3, "ms")
        # The high-rate p50 is report-only: no other workload has a
        # second load point to give the same metric (README.md).
        result.metrics["p50_ms"] = p50["lo"]
        result.metrics["rate_per_s"] = _goodput(closed)
        result.row("setup_s.samples", result.metrics["setup_s"], "s", len(setups))
        return result

    untraced_rt = _round_trips(phases, ("lo", "hi"))
    spans_path = work / "spans.json"
    server = Server(
        [str(BENCH / "serve_launcher.py"), str(spans_path), *_serve_command(artifact)], log
    )
    lanes = Lanes(server.host, server.port)
    try:
        _warm(traffic, lanes)
        before = server.get("/v1/stats")
        window_start = CLOCK()
        traced = _phases(traffic, lanes, rates, each)
        window_end = CLOCK()
        after = server.get("/v1/stats")
    finally:
        lanes.close()
        code = server.stop()
    _count_phases(result, traced)
    traffic.verify(result)
    result.check(
        traffic.digest(_open_count(traced)) == result.digest,
        "traced answers equal untraced",
    )
    if code != 0 or not spans_path.exists():
        raise BenchError(f"traced server exited with {code} and no spans")
    docs = json.loads(spans_path.read_text())
    requests = sum(p.attempted for p in traced.values()) + traffic.observes
    _serve_layers(
        result, docs, (window_start, window_end), requests,
        _round_trips(traced, ("lo", "hi", "closed")),
        statistics.fmean(_round_trips(traced, ("lo", "hi"))) / statistics.fmean(untraced_rt) - 1.0,
        before, after,
    )
    return result


def _serve_layers(
    result: Result,
    docs: List[Dict[str, Any]],
    window: Tuple[float, float],
    requests: int,
    round_trips: List[float],
    overhead: float,
    before: Dict[str, Any],
    after: Dict[str, Any],
) -> None:
    """Per-layer serving metrics; transport is the client-side remainder."""

    def in_window(doc) -> bool:
        return window[0] <= doc["start"] <= window[1]

    def handler(doc) -> bool:
        return in_window(doc) and not doc["attributes"]["thread_name"].startswith("batch-worker")

    everywhere = layer_times(docs, in_window)
    handlers = layer_times(docs, handler)
    total = sum(round_trips)
    rows = dict(handlers.layer_self)
    rows["transport (remainder)"] = total - handlers.total_self()
    result.check(rows["transport (remainder)"] >= 0, "server time within client time")

    def per_request_us(seconds: float) -> float:
        return seconds / requests * 1e6

    def per_call_us(name: str) -> float:
        calls = everywhere.name_calls.get(name, 0)
        return everywhere.name_total.get(name, 0.0) / calls * 1e6 if calls else 0.0

    def delta(section: str, key: str) -> float:
        return float(after[section][key] - before[section][key])

    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    batches = delta("batching", "batches")
    passes = [d for d in docs if in_window(d) and d["name"] == "Contender.predict_known_many"]
    metrics = dict.fromkeys((name for name, _, _ in PER_LAYER), 0.0)
    metrics.update({
        "serving.protocol.parse_us": per_request_us(
            sum(handlers.name_self.get(n, 0.0) for n in layers.PARSE_SPANS)
        ),
        "serving.protocol.serialize_us": per_request_us(
            sum(handlers.name_self.get(n, 0.0) for n in layers.SERIALIZE_SPANS)
        ),
        "serving.batching.wait_us": per_request_us(handlers.layer_self.get("serving.batching", 0.0)),
        "serving.batching.keys_per_batch": delta("batching", "unique_keys") / batches if batches else 0.0,
        "serving.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serving.cache.evictions_per_req": delta("cache", "evictions") / requests,
        "serving.cache.get_us": per_call_us("PredictionCache.get"),
        "serving.app.self_us": per_request_us(handlers.layer_self.get("serving.app", 0.0)),
        "serving.transport_us": per_request_us(rows["transport (remainder)"]),
        "core.contender.model_pass_us": per_call_us("Contender.predict_known_many"),
        "core.contender.keys_per_pass": (
            sum(d["attributes"]["keys"] for d in passes) / len(passes) if passes else 0.0
        ),
        "lifecycle.ingest_us": per_call_us("ResidualMonitor.ingest"),
        "trace_overhead": overhead,
    })
    result.metrics = metrics
    result.layer_rows = sorted(rows.items(), key=lambda kv: -kv[1])
    result.row("traced.round_trip_total", total, "s", len(round_trips))
    result.row("traced.http_requests", requests, "count", requests)


# ----------------------------------------------------------------------
# Offline workloads: train and sched-replay.


def _offline_layers(
    result: Result, docs: List[Dict[str, Any]], untraced: List[float], traced: List[float]
) -> None:
    """Per-operation layer metrics; unattributed is the bench's own span."""
    ops = len(traced)
    times = layer_times(docs)
    layer_of = {d["span_id"]: d["attributes"]["layer"] for d in docs}
    outermost_engine = [
        d for d in docs
        if d["attributes"]["layer"] == "engine" and layer_of.get(d["parent_id"]) != "engine"
    ]
    events = sum(d["attributes"].get("events", 0) for d in outermost_engine)
    engine_s = times.layer_self.get("engine", 0.0)
    total = sum(traced)
    rows = dict(times.layer_self)

    def per_op(layer: str) -> float:
        return times.layer_self.get(layer, 0.0) / ops

    def per_call_us(name: str, table: Dict[str, float]) -> float:
        calls = times.name_calls.get(name, 0)
        return table.get(name, 0.0) / calls * 1e6 if calls else 0.0

    metrics = dict.fromkeys((name for name, _, _ in PER_LAYER), 0.0)
    metrics.update({
        "workload.profile.calls": times.name_calls.get("TemplateCatalog.profile", 0) / ops,
        "workload.profile.self_s": per_op("workload"),
        "engine.run.calls": len(outermost_engine) / ops,
        "engine.run.self_s": engine_s / ops,
        "engine.events": events / ops,
        "engine.events_per_s": events / engine_s if engine_s else 0.0,
        "sampling.steady_state.self_s": per_op("sampling"),
        "core.training.self_s": per_op("core.training"),
        "core.contender.fit_s": times.name_total.get("Contender.reference_models", 0.0) / ops,
        "core.contender.predict_candidates_us": per_call_us(
            "Contender.predict_candidates", times.name_total
        ),
        "sched.policies.pick_self_us": per_call_us("PredictivePolicy.pick", times.name_self),
        "sched.replay.self_s": per_op("sched.replay"),
        "unattributed_s": per_op("unattributed"),
        "trace_overhead": statistics.fmean(traced) / statistics.fmean(untraced) - 1.0,
    })
    result.metrics = metrics
    result.layer_rows = sorted(rows.items(), key=lambda kv: -kv[1])
    result.row("traced.op_total", total, "s", ops)
    result.row("traced.op_mean", total / ops, "s", ops)


def _traced_pass(
    count: int, op: Callable[[int], Any]
) -> Tuple[List[Dict[str, Any]], List[float], List[Any]]:
    """Install the wrappers and run ``op(0..count-1)`` under root spans."""
    recorders = ThreadRecorders()
    layers.install(recorders)
    rec = recorders.recorder()
    walls: List[float] = []
    outputs: List[Any] = []
    for i in range(count):
        root = rec.start_span("bench.op", layer="unattributed")
        outputs.append(op(i))
        rec.end_span(root)
        walls.append(root.duration)
    return recorders.docs(), walls, outputs


def _count(seconds: float, nominal: float, minimum: int = 1) -> int:
    """Operations that fill about *seconds* at *nominal* seconds each.

    The count depends only on ``--seconds``, never on how fast this run
    happens to go, so every run of a workload does the same work.
    """
    return max(minimum, round(seconds / nominal))


def run_train(seed: int, seconds: float, trace: int, work: Path) -> Result:
    result = Result("train", trace)
    data_path = work / "training.json"
    setups = [
        _prepare("training", derive(seed, "campaign", 0), data_path)
        for _ in range(SETUPS if trace == 0 else 1)
    ]
    from repro.workload.catalog import TemplateCatalog

    catalog = TemplateCatalog()

    def campaign(i: int):
        """Campaign *i* plus its fit; returns ``(wall seconds, data)``."""
        started = time.perf_counter()
        data, _ = prepare.campaign(catalog, derive(seed, "campaign", i))
        return time.perf_counter() - started, data

    # The set-up process ran campaign 0: its data is the reference, and
    # running it again here is the warm-up.
    reference = _sha(data_path.read_text())
    result.digest = reference
    result.attempted += 1
    result.check(_sha(campaign(0)[1].to_json()) == reference, "campaign equals the set-up's")

    if trace == 0:
        walls: List[float] = []
        rates: List[float] = []
        for i in range(1, 1 + _count(seconds, TRAIN_OP_S, minimum=2)):
            wall, data = campaign(i)
            walls.append(wall)
            rates.append(sum(len(v) for v in data.observations.values()) / wall)
        result.attempted += len(walls)
        result.metrics["setup_s"] = statistics.median(setups)
        result.metrics["peak_rss_mb"] = vm_hwm_mb()
        result.metrics["p50_ms"] = _time_rows(result, "campaign", walls, 1e3, "ms")
        result.metrics["rate_per_s"] = statistics.median(rates)
        result.row("setup_s.samples", result.metrics["setup_s"], "s", len(setups))
        return result

    untraced: List[float] = []
    digests: List[str] = []
    for i in range(_count(seconds / 2, TRAIN_OP_S)):
        wall, data = campaign(i)
        untraced.append(wall)
        digests.append(_sha(data.to_json()))
    count = len(untraced)
    docs, traced, outputs = _traced_pass(count, lambda i: campaign(i)[1])
    result.attempted += 2 * count
    for i, data in enumerate(outputs):
        result.check(_sha(data.to_json()) == digests[i], f"traced campaign {i} equals untraced")
    _offline_layers(result, docs, untraced, traced)
    compile_engine = result.metrics["workload.profile.self_s"] + result.metrics["engine.run.self_s"]
    result.row("share.workload+engine", compile_engine / (sum(traced) / count), "ratio", count)
    return result


class TimedPolicy:
    """A policy proxy that records the wall time of every ``pick``."""

    def __init__(self, inner):
        self._inner = inner
        self.name = inner.name
        self.seconds: List[float] = []

    def pick(self, now, running, queue):
        started = time.perf_counter()
        choice = self._inner.pick(now, running, queue)
        self.seconds.append(time.perf_counter() - started)
        return choice


def run_sched(seed: int, seconds: float, trace: int, work: Path) -> Result:
    result = Result("sched-replay", trace)
    data_path = work / "training.json"
    setups = [
        _prepare("training", derive(seed, "campaign"), data_path)
        for _ in range(SETUPS if trace == 0 else 1)
    ]
    import repro.sched.replay as replay_mod
    from repro.apps.admission import ContenderBackend
    from repro.core.contender import Contender
    from repro.core.training import TrainingData
    from repro.sched.policies import make_policy
    from repro.sched.traces import TemplateDistribution, TraceConfig, generate_trace
    from repro.workload.catalog import TemplateCatalog

    catalog = TemplateCatalog()
    backend = ContenderBackend(Contender(TrainingData.from_json(data_path.read_text())))
    templates = TemplateDistribution.uniform(catalog.template_ids)

    def arrivals(i: int):
        return generate_trace(
            TraceConfig(
                kind="bursty", templates=templates, rate=TRACE_RATE,
                count=TRACE_COUNT, seed=derive(seed, "trace", i),
            )
        )

    def replay(trace_, policy):
        started = time.perf_counter()
        outcome = replay_mod.replay_trace(
            trace_, policy, catalog, max_mpl=SCHED_MAX_MPL, backend=backend
        )
        return time.perf_counter() - started, outcome

    def predictive():
        return make_policy("predictive", backend, window=SCHED_WINDOW, max_mpl=SCHED_MAX_MPL)

    count = _count(seconds, SCHED_OP_S, 2) if trace == 0 else _count(seconds / 2, SCHED_OP_S)
    traces = [arrivals(i) for i in range(count)]
    warm = replay(traces[0], predictive())[1].to_doc()
    result.digest = _sha(json.dumps(warm, sort_keys=True))
    result.attempted += 1
    result.check(warm["completed"] == TRACE_COUNT, "warm-up replay completed every query")

    if trace == 0:
        policy = TimedPolicy(predictive())
        walls: List[float] = []
        for i, arrival in enumerate(traces):
            wall, outcome = replay(arrival, policy)
            walls.append(wall)
            result.check(len(outcome.outcomes) == TRACE_COUNT, f"replay {i} completed")
            if i == 0:
                result.check(outcome.to_doc() == warm, "replay reproducible")
        result.attempted += len(walls)
        result.metrics["setup_s"] = statistics.median(setups)
        result.metrics["peak_rss_mb"] = vm_hwm_mb()
        result.metrics["p50_ms"] = _time_rows(result, "decision", policy.seconds, 1e3, "ms")
        result.metrics["rate_per_s"] = TRACE_COUNT / _time_rows(result, "replay", walls, 1.0, "s")
        result.row("setup_s.samples", result.metrics["setup_s"], "s", len(setups))
        return result

    untraced: List[float] = []
    docs_untraced: List[Dict[str, Any]] = []

    for arrival in traces:
        wall, outcome = replay(arrival, predictive())
        untraced.append(wall)
        docs_untraced.append(outcome.to_doc())
    policy = predictive()
    docs, traced, outputs = _traced_pass(count, lambda i: replay(traces[i], policy)[1])
    result.attempted += 2 * count
    for i, outcome in enumerate(outputs):
        result.check(outcome.to_doc() == docs_untraced[i], f"traced replay {i} equals untraced")
    _offline_layers(result, docs, untraced, traced)
    return result


def run(workload: str, seed: int, seconds: float, trace: int, work: Path) -> Result:
    """Run one workload; raises :class:`BenchError` when set-up fails."""
    if workload == "train":
        result = run_train(seed, seconds, trace, work)
    elif workload == "sched-replay":
        result = run_sched(seed, seconds, trace, work)
    elif workload in RATES:
        result = run_serve(workload, seed, seconds, trace, work)
    else:
        raise BenchError(f"unknown workload {workload!r}")
    expected = END_TO_END if trace == 0 else PER_LAYER
    missing = [name for name, _, _ in expected if name not in result.metrics]
    if missing:
        raise BenchError(f"{workload} did not measure {missing}")
    result.metrics = {name: result.metrics[name] for name, _, _ in expected}
    return result
