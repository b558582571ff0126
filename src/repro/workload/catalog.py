"""Template catalog: the workload façade the framework consumes.

A :class:`TemplateCatalog` binds the schema, the template specs, and the
system configuration together.  It hands out plan/profile instances (with
per-instance parameter jitter), runs templates in isolation, and measures
the per-fact-table scan times ``s_f`` that CQI needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..config import SystemConfig, DEFAULT_CONFIG
from ..engine.executor import ConcurrentExecutor, SingleShotStream
from ..engine.plans import QueryPlan
from ..engine.profile import ResourceProfile, scan_profile
from ..engine.stats import QueryStats
from ..errors import WorkloadError
from .schema import Schema, build_schema
from .templates import (
    InstanceParams,
    TemplateProgram,
    TemplateSpec,
    TEMPLATE_IDS,
    draw_params,
    get_spec,
)

_CANONICAL = InstanceParams()


@dataclass
class TemplateCatalog:
    """Workload access point.

    Attributes:
        config: Hardware + simulation configuration.
        schema: Star schema instance.
        template_ids: Templates available in this catalog (defaults to
            the full 25-template workload; experiments that need subsets,
            like the 17-template ML study, pass fewer).
        extra_specs: User-registered templates (see
            :mod:`repro.workload.custom`), keyed by template id; they
            participate in everything the built-ins do.
    """

    config: SystemConfig = field(default_factory=lambda: DEFAULT_CONFIG)
    schema: Schema = field(default_factory=build_schema)
    template_ids: Sequence[int] = field(default_factory=lambda: list(TEMPLATE_IDS))
    extra_specs: Dict[int, TemplateSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        overlap = set(self.extra_specs) & set(TEMPLATE_IDS)
        if overlap:
            raise WorkloadError(
                f"extra_specs collide with built-in templates: {sorted(overlap)}"
            )
        known = set(TEMPLATE_IDS) | set(self.extra_specs)
        bad = [t for t in self.template_ids if t not in known]
        if bad:
            raise WorkloadError(f"unknown template ids: {bad}")
        self.template_ids = list(self.template_ids)
        self._scan_seconds_cache: Dict[str, float] = {}
        # template id -> (spec, config, schema, program): one lowered
        # program per template, valid while all three are the objects it
        # was lowered from (callers may reassign ``config``/``schema``).
        self._programs: Dict[
            int, Tuple[TemplateSpec, SystemConfig, Schema, TemplateProgram]
        ] = {}

    def __getstate__(self) -> Dict[str, Any]:
        # Programs hold closures; a worker process re-lowers on first use.
        state = self.__dict__.copy()
        state["_programs"] = {}
        return state

    # ------------------------------------------------------------------
    # Plan and profile construction.

    def spec(self, template_id: int) -> TemplateSpec:
        """The spec for *template_id* (must be in this catalog)."""
        if template_id not in self.template_ids:
            raise WorkloadError(
                f"template {template_id} is not part of this catalog"
            )
        if template_id in self.extra_specs:
            return self.extra_specs[template_id]
        return get_spec(template_id)

    def plan(
        self,
        template_id: int,
        rng: Optional[np.random.Generator] = None,
    ) -> QueryPlan:
        """A plan instance; jittered parameters when *rng* is given."""
        params = draw_params(rng) if rng is not None else InstanceParams()
        return self.spec(template_id).plan(self.schema, params)

    def profile(
        self,
        template_id: int,
        rng: Optional[np.random.Generator] = None,
    ) -> ResourceProfile:
        """A compiled, executable instance of *template_id*.

        Replays the template's lowered program at this instance's jitter
        (:meth:`TemplateSpec.lower`): the same phases as compiling
        ``self.plan(template_id, rng)``, without building the tree.
        """
        params = draw_params(rng) if rng is not None else _CANONICAL
        return self._program(template_id).replay(params)

    def _program(self, template_id: int) -> TemplateProgram:
        """The lowered program of *template_id*, lowering on first use."""
        spec = self.spec(template_id)
        cached = self._programs.get(template_id)
        if (
            cached is not None
            and cached[0] is spec
            and cached[1] is self.config
            and cached[2] is self.schema
        ):
            return cached[3]
        program = spec.lower(self.schema, self.config)
        self._programs[template_id] = (spec, self.config, self.schema, program)
        return program

    def canonical_plan(self, template_id: int) -> QueryPlan:
        """The jitter-free plan (used for semantic/QEP features)."""
        return self.spec(template_id).plan(self.schema, InstanceParams())

    # ------------------------------------------------------------------
    # Isolated measurements.

    def run_isolated(
        self,
        template_id: int,
        rng: Optional[np.random.Generator] = None,
    ) -> QueryStats:
        """Run one instance alone on a cold cache and return its stats."""
        profile = self.profile(template_id, rng)
        executor = ConcurrentExecutor(self.config)
        result = executor.run([SingleShotStream(profile, name="isolated")])
        return result.completions[0].stats

    def scan_seconds(self, relation_name: str) -> float:
        """Isolated scan time ``s_f`` of a relation (Eq. 2), memoized.

        Measured the way the paper does: "by executing a query consisting
        of only the sequential scan".
        """
        if relation_name not in self._scan_seconds_cache:
            profile = scan_profile(self.schema[relation_name])
            executor = ConcurrentExecutor(self.config)
            result = executor.run([SingleShotStream(profile, name="scan")])
            self._scan_seconds_cache[relation_name] = result.completions[0].stats.latency
        return self._scan_seconds_cache[relation_name]

    def fact_scan_seconds(self) -> Dict[str, float]:
        """``s_f`` for every fact table in the schema."""
        return {
            rel.name: self.scan_seconds(rel.name)
            for rel in self.schema.fact_tables()
        }

    # ------------------------------------------------------------------
    # Convenience.

    def subset(self, template_ids: Iterable[int]) -> "TemplateCatalog":
        """A catalog over a subset of this catalog's templates."""
        ids = list(template_ids)
        return TemplateCatalog(
            config=self.config,
            schema=self.schema,
            template_ids=ids,
            extra_specs={
                t: spec for t, spec in self.extra_specs.items() if t in ids
            },
        )

    def describe(self) -> str:
        """Tabular summary of the workload."""
        lines = [f"{'id':>4}  {'category':<8} description"]
        for template_id in self.template_ids:
            spec = self.spec(template_id)
            lines.append(
                f"{spec.template_id:>4}  {spec.category:<8} {spec.description}"
            )
        return "\n".join(lines)
