"""Differential tests: lowered-program replay against the reference compiler.

The reference compiler (``tests/reference_compile.py``) walks a freshly
built plan tree; the shipped path lowers each template once and replays
the program per instance.  They must agree *bitwise*: same phase count,
labels, relations and flags, and the same ``float.hex`` of every demand —
over random jitter (a wide log-normal, plus the exact points where a
``sel``/``rows``/``cpu`` clamp engages), for all 25 templates and for
plan-text templates, at several CPU/I/O overlaps.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DEFAULT_CONFIG, SimulationConfig, SystemConfig
from repro.workload.catalog import TemplateCatalog
from repro.workload.custom import catalog_with_templates, template_from_plan_text
from repro.workload.templates import TEMPLATE_IDS, InstanceParams
from tests.reference_compile import phase_bits, reference_compile

#: Plan-text templates covering the operators no built-in template uses.
PLAN_TEXTS = {
    901: """\
GroupAggregate (groups=10 cpu=0.7)
  Sort (cpu=0.5)
    NestedLoopJoin (sel=0.6 lookup_ops=0.3)
      MergeJoin (sel=0.4)
        SeqScan web_sales (sel=0.1 cpu=0.3 width=20)
        BitmapHeapScan catalog_sales (rows=5000 cpu=0.5)
      Materialize
        IndexScan store_returns (rows=300)
""",
    902: """\
WindowAgg (cpu=1.1)
  HashAggregate (groups=50 width=8)
    HashJoin (sel=0.5 cpu=0)
      SeqScan store_sales (sel=0.5 cpu=0.5)
      SeqScan item
""",
    # Three streaming operators hide CPU behind the same I/O phase, so
    # the order of those additions shows in the bits.
    903: """\
GroupAggregate (groups=100 cpu=0.9)
  WindowAgg (cpu=0.6)
    MergeJoin (sel=0.3)
      SeqScan store_sales (sel=0.05 cpu=0.4)
      SeqScan date_dim
""",
}

TEMPLATES = tuple(TEMPLATE_IDS) + tuple(sorted(PLAN_TEXTS))

#: ``cpu_io_overlap`` values: the default, both extremes, and an odd one.
OVERLAPS = (None, 0.0, 1.0, 0.37)

#: The clamp thresholds of each jitter kind.
_CLAMPS = {"sel": (1e-9, 1.0), "rows": (1.0,), "cpu": (0.01,)}


@functools.lru_cache(maxsize=None)
def _catalog(overlap) -> TemplateCatalog:
    config = (
        DEFAULT_CONFIG
        if overlap is None
        else SystemConfig(simulation=SimulationConfig(cpu_io_overlap=overlap))
    )
    custom = [
        template_from_plan_text(tid, f"plan text {tid}", text)
        for tid, text in PLAN_TEXTS.items()
    ]
    return catalog_with_templates(TemplateCatalog(config=config), custom)


@functools.lru_cache(maxsize=None)
def _program(overlap, template_id):
    catalog = _catalog(overlap)
    return catalog.spec(template_id).lower(catalog.schema, catalog.config)


@functools.lru_cache(maxsize=None)
def clamp_points(template_id):
    """Jitters at which one of the template's clamps engages exactly,
    and one ulp either side."""
    points = set()
    for call, base in _program(None, template_id).calls:
        for threshold in _CLAMPS[call.__name__]:
            edge = threshold / base
            points.update(
                (edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf))
            )
    return tuple(sorted(p for p in points if 0.0 < p < math.inf))


def _expected(overlap, template_id, params):
    catalog = _catalog(overlap)
    plan = catalog.spec(template_id).plan(catalog.schema, params)
    return phase_bits(reference_compile(plan, catalog.config))


@st.composite
def instances(draw):
    template_id = draw(st.sampled_from(TEMPLATES))
    wide = st.floats(min_value=-9.0, max_value=9.0).map(math.exp)
    jitter = draw(st.one_of(wide, st.sampled_from(clamp_points(template_id))))
    return draw(st.sampled_from(OVERLAPS)), template_id, jitter


@given(case=instances())
@settings(max_examples=400, deadline=None)
def test_replay_is_bit_identical_to_reference(case):
    overlap, template_id, jitter = case
    params = InstanceParams(jitter)
    replayed = _program(overlap, template_id).phases(params)
    assert phase_bits(replayed) == _expected(overlap, template_id, params)


@pytest.mark.parametrize("overlap", OVERLAPS)
def test_canonical_profiles_match_reference(overlap):
    """``catalog.profile(tid)`` with ``rng=None`` is the canonical plan."""
    catalog = _catalog(overlap)
    for template_id in TEMPLATES:
        profile = catalog.profile(template_id)
        assert profile.template_id == template_id
        assert phase_bits(profile.phases) == _expected(
            overlap, template_id, InstanceParams()
        ), template_id


def test_drawn_profiles_match_reference_plans():
    """``profile(tid, rng)`` replays exactly ``plan(tid, rng)``'s draw."""
    catalog = _catalog(None)
    replay_rng = np.random.default_rng(11)
    plan_rng = np.random.default_rng(11)
    for _ in range(4):
        for template_id in TEMPLATES:
            profile = catalog.profile(template_id, replay_rng)
            plan = catalog.plan(template_id, plan_rng)
            assert phase_bits(profile.phases) == phase_bits(
                reference_compile(plan, catalog.config)
            ), template_id
