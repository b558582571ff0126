"""Start ``repro serve`` with the layer wrappers installed.

    python3 -u bench/serve_launcher.py SPANS.json serve MODEL.json --port 0 --workers 1

Installs the wrappers of :mod:`bench.layers`, then hands the remaining
arguments to ``repro.cli.main``.  SIGINT stops the server the way
Ctrl-C does; the spans every thread recorded are then written to
SPANS.json as ``repro.obs.tracing.Span`` docs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def main(argv) -> int:
    from bench import layers
    from bench.spans import ThreadRecorders

    recorders = ThreadRecorders()
    layers.install(recorders)
    import repro.cli

    code = repro.cli.main(argv[1:])
    Path(argv[0]).write_text(json.dumps(recorders.docs()))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
