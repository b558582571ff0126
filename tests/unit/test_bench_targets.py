"""Every function the traced benchmark wraps still exists under its name.

``bench/layers.py`` wraps functions of ``src/`` by module and attribute
path.  A rename or deletion there would only surface as a crash of a
traced bench run; resolving every target here (without installing the
wrappers) makes it a tier-1 failure instead.
"""

import pytest

from bench.layers import TARGETS, _resolve


@pytest.mark.parametrize(
    "module, path", [(m, p) for m, p, _ in TARGETS], ids=lambda v: v
)
def test_bench_wrap_target_resolves(module, path):
    _, _, fn, _ = _resolve(module, path)
    assert callable(fn)
