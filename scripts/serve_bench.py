#!/usr/bin/env python
"""Serving-tier throughput gate, standalone.

Runs only the serving metrics from ``scripts/bench_check.py`` — the
multi-worker predict-batch throughput against the live-measured
in-process plain-predict ceiling (>= 10x floor), and the plain
predict p99 ceiling — so `make serve-bench` answers "did I break the
serving tier?" in under a minute.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "scripts"))

from bench_check import _serving_throughput_metrics  # noqa: E402

P99_CEILING_MS = 50.0
SPEEDUP_FLOOR = 10.0


def main() -> int:
    print("measuring serving throughput (interleaved rounds)...")
    serving = _serving_throughput_metrics()
    floor = SPEEDUP_FLOOR * serving["ceiling_qps"]
    rows = [
        ("in-process ceiling", f"{serving['ceiling_qps']:,.0f} predictions/sec"),
        ("multi-worker batched", f"{serving['predictions_per_sec']:,.0f} predictions/sec"),
        ("speedup", f"{serving['speedup']:.1f}x (floor {SPEEDUP_FLOOR:.0f}x)"),
        ("plain predict p99", f"{serving['p99_ms']:.2f} ms (ceiling {P99_CEILING_MS:.0f} ms)"),
    ]
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"{label:<{width}}  {value}")

    failures = []
    if serving["predictions_per_sec"] < floor:
        failures.append(
            f"throughput {serving['predictions_per_sec']:,.0f}/s is below "
            f"the 10x floor ({floor:,.0f}/s)"
        )
    if serving["p99_ms"] > P99_CEILING_MS:
        failures.append(
            f"p99 {serving['p99_ms']:.2f} ms exceeds {P99_CEILING_MS:.0f} ms"
        )
    if failures:
        print("\nFAIL: " + "; ".join(failures))
        return 1
    print("\nserving gates hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
