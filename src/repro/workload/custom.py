"""User-defined templates.

The 25 built-in templates reproduce the paper's workload, but a
downstream user's queries are their own.  This module turns an
EXPLAIN-style plan text (see :mod:`repro.engine.plan_parser`) into a
full :class:`~repro.workload.templates.TemplateSpec` — instance jitter
included — and builds catalogs that mix built-in and custom templates,
so the whole pipeline (isolated profiling, spoiler runs, steady-state
sampling, Contender predictions) works on user queries unchanged.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..engine.operators import (
    BitmapHeapScan,
    IndexScan,
    PlanNode,
    SeqScan,
)
from ..engine.plan_parser import parse_plan
from ..errors import WorkloadError
from .catalog import TemplateCatalog
from .schema import Schema
from .templates import InstanceParams, TEMPLATE_IDS, TemplateSpec


def _jitter_tree(node: PlanNode, params: InstanceParams) -> PlanNode:
    """Rebuild *node* with instance-jittered predicate parameters.

    Selectivities, matching-row counts, and CPU factors scale with the
    instance jitter — the same semantics the built-in template builders
    apply by hand.
    """
    replacements: Dict[str, object] = {}
    if node.children:
        replacements["children"] = tuple(
            _jitter_tree(child, params) for child in node.children
        )
    if isinstance(node, SeqScan):
        replacements["selectivity"] = params.sel(node.selectivity)
    elif isinstance(node, (IndexScan, BitmapHeapScan)):
        replacements["matching_rows"] = params.rows(node.matching_rows)
    replacements["cpu_factor"] = params.cpu(node.cpu_factor)
    return dataclasses.replace(node, **replacements)


def template_from_plan_text(
    template_id: int,
    description: str,
    plan_text: str,
    category: str = "custom",
) -> TemplateSpec:
    """A :class:`TemplateSpec` whose instances come from *plan_text*.

    Args:
        template_id: Id for the new template; must not collide with the
            built-in workload.
        description: Human-readable summary.
        plan_text: EXPLAIN-style plan (parsed once per schema, then
            jittered per instance).
        category: Behavioural label.

    Raises:
        WorkloadError: On id collisions.
    """
    if template_id in TEMPLATE_IDS:
        raise WorkloadError(
            f"template id {template_id} collides with the built-in workload"
        )

    # The last (schema, parsed root): catalogs build a template a few
    # times while lowering it, and never per instance.
    parsed: List[Tuple[Schema, PlanNode]] = []

    def build(schema: Schema, params: InstanceParams) -> PlanNode:
        if not parsed or parsed[0][0] is not schema:
            root = parse_plan(plan_text, schema, template_id=template_id).root
            parsed[:] = [(schema, root)]
        return _jitter_tree(parsed[0][1], params)

    return TemplateSpec(
        template_id=template_id,
        description=description,
        category=category,
        build=build,
    )


def catalog_with_templates(
    base: TemplateCatalog,
    custom: Iterable[TemplateSpec],
    include_builtin: Optional[Sequence[int]] = None,
) -> TemplateCatalog:
    """A catalog combining built-in and custom templates.

    Args:
        base: Source of the schema and configuration.
        custom: Custom specs (e.g. from :func:`template_from_plan_text`).
        include_builtin: Built-in template ids to keep (defaults to the
            base catalog's).

    Raises:
        WorkloadError: On duplicate custom ids.
    """
    specs: Dict[int, TemplateSpec] = {}
    for spec in custom:
        if spec.template_id in specs:
            raise WorkloadError(f"duplicate custom template {spec.template_id}")
        specs[spec.template_id] = spec
    builtin = (
        list(include_builtin)
        if include_builtin is not None
        else list(base.template_ids)
    )
    return TemplateCatalog(
        config=base.config,
        schema=base.schema,
        template_ids=builtin + sorted(specs),
        extra_specs=specs,
    )
