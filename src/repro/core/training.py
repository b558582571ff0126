"""Training-data collection for Contender.

Everything Contender learns from is gathered here:

* per-template isolated statistics (one cold-cache run — the paper's
  constant-time sampling unit);
* per-template spoiler latencies per MPL (the linear-time sampling);
* steady-state samples of concurrent mixes (all pairs at MPL 2, LHS runs
  at MPLs 3+) — needed only to *fit* reference models, never to predict
  a new template.

The collected :class:`TrainingData` is a plain, picklable value object so
experiment harnesses can cache it.
"""

from __future__ import annotations

import json
import math
import pickle
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..engine.batched import run_batch  # bench/layers.py wraps this name
from ..engine.spoiler import measure_spoiler_latency
from ..engine.stats import QueryStats
from ..errors import ModelError, SamplingError
from ..obs.metrics import Registry
from ..obs.tracing import NULL_TRACE, TraceRecorder
from .campaign import parallel_map, task_rng
from ..sampling.lhs import lhs_runs
from ..sampling.mixes import all_pairs
from ..sampling.steady_state import SteadyStateConfig, run_steady_state
from ..workload.catalog import TemplateCatalog

Mix = Tuple[int, ...]


@dataclass(frozen=True)
class TemplateProfile:
    """Isolated statistics of one template (the paper's Table 1 inputs).

    Attributes:
        template_id: Template id.
        isolated_latency: ``l_min`` — cold-cache latency in isolation.
        io_fraction: ``p_t`` — fraction of isolated time spent on I/O.
        working_set_bytes: Largest intermediate result.
        records_accessed: Plan-estimated records read.
        plan_steps: Number of QEP operators.
        fact_scans: Fact tables read by sequential scans.
    """

    template_id: int
    isolated_latency: float
    io_fraction: float
    working_set_bytes: float
    records_accessed: float
    plan_steps: int
    fact_scans: frozenset

    def __post_init__(self) -> None:
        if not math.isfinite(self.isolated_latency) or self.isolated_latency <= 0:
            raise ModelError("isolated_latency must be positive and finite")
        if not math.isfinite(self.io_fraction) or not 0.0 <= self.io_fraction <= 1.0:
            raise ModelError("io_fraction must be in [0, 1]")
        if not math.isfinite(self.working_set_bytes) or self.working_set_bytes < 0:
            raise ModelError("working_set_bytes must be >= 0 and finite")


@dataclass(frozen=True)
class SpoilerCurve:
    """Spoiler latencies of one template across MPLs.

    Attributes:
        template_id: Template id.
        latencies: ``l_max`` per MPL (MPL 1 equals the isolated run).
    """

    template_id: int
    latencies: Mapping[int, float]

    def latency_at(self, mpl: int) -> float:
        try:
            return self.latencies[mpl]
        except KeyError:
            raise ModelError(
                f"template {self.template_id}: no spoiler sample at MPL {mpl}"
            ) from None

    def growth_rate(self, mpl: int, isolated_latency: float) -> float:
        """Scale-independent growth: spoiler latency over isolated."""
        if isolated_latency <= 0:
            raise ModelError("isolated_latency must be positive")
        return self.latency_at(mpl) / isolated_latency

    @property
    def mpls(self) -> List[int]:
        return sorted(self.latencies)


@dataclass(frozen=True)
class MixObservation:
    """Average steady-state latency of a primary template in one mix.

    Attributes:
        primary: Template whose latency was observed.
        mix: Full mix (the primary's slot included).
        latency: Mean trimmed steady-state latency.
        latency_std: Standard deviation across trimmed samples.
        num_samples: Trimmed samples averaged.
    """

    primary: int
    mix: Mix
    latency: float
    latency_std: float
    num_samples: int

    def __post_init__(self) -> None:
        if self.primary not in self.mix:
            raise ModelError(
                f"primary {self.primary} not in mix {tuple(self.mix)}"
            )
        if not math.isfinite(self.latency) or self.latency <= 0:
            raise ModelError("observed latency must be positive and finite")
        if self.latency_std < 0:
            raise ModelError("latency_std must be >= 0")
        if self.num_samples < 1:
            raise ModelError("num_samples must be >= 1")

    @property
    def mpl(self) -> int:
        return len(self.mix)

    def concurrent(self) -> Tuple[int, ...]:
        """The concurrent set: the mix minus one occurrence of primary."""
        rest = list(self.mix)
        rest.remove(self.primary)
        return tuple(rest)


@dataclass
class TrainingData:
    """Everything collected from the simulated testbed.

    Attributes:
        profiles: Isolated statistics per template.
        spoilers: Spoiler curves per template.
        observations: Steady-state mix observations, grouped by MPL.
        scan_seconds: Isolated scan time per fact table (``s_f``).
        config_seed: Seed the collection ran under (provenance).
    """

    profiles: Dict[int, TemplateProfile]
    spoilers: Dict[int, SpoilerCurve]
    observations: Dict[int, List[MixObservation]]
    scan_seconds: Dict[str, float]
    config_seed: int = 0

    @property
    def template_ids(self) -> List[int]:
        return sorted(self.profiles)

    def profile(self, template_id: int) -> TemplateProfile:
        try:
            return self.profiles[template_id]
        except KeyError:
            raise ModelError(f"no profile for template {template_id}") from None

    def spoiler(self, template_id: int) -> SpoilerCurve:
        try:
            return self.spoilers[template_id]
        except KeyError:
            raise ModelError(f"no spoiler curve for template {template_id}") from None

    def observations_for(
        self, primary: int, mpl: Optional[int] = None
    ) -> List[MixObservation]:
        """All observations with *primary* as the observed template."""
        mpls = [mpl] if mpl is not None else sorted(self.observations)
        out: List[MixObservation] = []
        for level in mpls:
            out.extend(
                obs
                for obs in self.observations.get(level, [])
                if obs.primary == primary
            )
        return out

    def restricted_to(self, template_ids: Sequence[int]) -> "TrainingData":
        """A view containing only *template_ids* (mixes must be subsets).

        Used for leave-one-out studies: drop a template's profile,
        spoiler curve, and every observation in which it participates.
        """
        keep: Set[int] = set(template_ids)
        missing = keep - set(self.profiles)
        if missing:
            raise ModelError(f"templates not in training data: {sorted(missing)}")
        return TrainingData(
            profiles={t: p for t, p in self.profiles.items() if t in keep},
            spoilers={t: s for t, s in self.spoilers.items() if t in keep},
            observations={
                mpl: [obs for obs in obs_list if set(obs.mix) <= keep]
                for mpl, obs_list in self.observations.items()
            },
            scan_seconds=dict(self.scan_seconds),
            config_seed=self.config_seed,
        )

    # ------------------------------------------------------------------
    # Persistence: pickle for the experiment-harness cache, JSON for
    # interchange with non-Python consumers (schedulers, dashboards).

    def to_json(self) -> str:
        """Serialize to a JSON document (stable layout, round-trips)."""
        doc = {
            "config_seed": self.config_seed,
            "scan_seconds": dict(self.scan_seconds),
            "profiles": {
                str(t): {
                    "isolated_latency": p.isolated_latency,
                    "io_fraction": p.io_fraction,
                    "working_set_bytes": p.working_set_bytes,
                    "records_accessed": p.records_accessed,
                    "plan_steps": p.plan_steps,
                    "fact_scans": sorted(p.fact_scans),
                }
                for t, p in self.profiles.items()
            },
            "spoilers": {
                str(t): {str(m): lat for m, lat in c.latencies.items()}
                for t, c in self.spoilers.items()
            },
            "observations": {
                str(mpl): [
                    {
                        "primary": o.primary,
                        "mix": list(o.mix),
                        "latency": o.latency,
                        "latency_std": o.latency_std,
                        "num_samples": o.num_samples,
                    }
                    for o in obs_list
                ]
                for mpl, obs_list in self.observations.items()
            },
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "TrainingData":
        """Parse a document produced by :meth:`to_json`."""
        try:
            doc = json.loads(text)
            profiles = {
                int(t): TemplateProfile(
                    template_id=int(t),
                    isolated_latency=p["isolated_latency"],
                    io_fraction=p["io_fraction"],
                    working_set_bytes=p["working_set_bytes"],
                    records_accessed=p["records_accessed"],
                    plan_steps=p["plan_steps"],
                    fact_scans=frozenset(p["fact_scans"]),
                )
                for t, p in doc["profiles"].items()
            }
            spoilers = {
                int(t): SpoilerCurve(
                    template_id=int(t),
                    latencies={int(m): lat for m, lat in c.items()},
                )
                for t, c in doc["spoilers"].items()
            }
            observations = {
                int(mpl): [
                    MixObservation(
                        primary=o["primary"],
                        mix=tuple(o["mix"]),
                        latency=o["latency"],
                        latency_std=o["latency_std"],
                        num_samples=o["num_samples"],
                    )
                    for o in obs_list
                ]
                for mpl, obs_list in doc["observations"].items()
            }
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"malformed TrainingData JSON: {exc}") from exc
        return TrainingData(
            profiles=profiles,
            spoilers=spoilers,
            observations=observations,
            scan_seconds=dict(doc["scan_seconds"]),
            config_seed=int(doc.get("config_seed", 0)),
        )

    def save(self, path: Path) -> None:
        """Pickle to *path* (creates parent directories)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            pickle.dump(self, fh)

    @staticmethod
    def load(path: Path) -> "TrainingData":
        """Unpickle from *path*."""
        with open(path, "rb") as fh:
            data = pickle.load(fh)
        if not isinstance(data, TrainingData):
            raise ModelError(f"{path} does not contain TrainingData")
        return data


def measure_template_profile(
    catalog: TemplateCatalog,
    template_id: int,
    runs: int = 1,
    rng: Optional[np.random.Generator] = None,
) -> TemplateProfile:
    """Measure one template's isolated statistics.

    Args:
        catalog: Workload.
        template_id: Template to measure.
        runs: Cold-cache runs to average (1 = the paper's single
            constant-time sample).
        rng: Instance jitter; ``None`` measures the canonical instance.
    """
    if runs < 1:
        raise SamplingError("runs must be >= 1")
    stats = [catalog.run_isolated(template_id, rng=rng) for _ in range(runs)]
    return _template_profile_from_stats(catalog, template_id, stats)


def _template_profile_from_stats(
    catalog: TemplateCatalog,
    template_id: int,
    stats: Sequence[QueryStats],
) -> TemplateProfile:
    """Fold isolated-run stats and plan constants into a profile."""
    plan = catalog.canonical_plan(template_id)
    return TemplateProfile(
        template_id=template_id,
        isolated_latency=statistics.fmean(s.latency for s in stats),
        io_fraction=statistics.fmean(s.io_fraction for s in stats),
        working_set_bytes=plan.working_set_bytes(),
        records_accessed=plan.records_accessed(),
        plan_steps=plan.num_steps,
        fact_scans=frozenset(plan.fact_tables_scanned()),
    )


def measure_spoiler_curve(
    catalog: TemplateCatalog,
    template_id: int,
    mpls: Sequence[int],
    rng: Optional[np.random.Generator] = None,
    seed: Optional[int] = None,
) -> SpoilerCurve:
    """Measure spoiler latency of a template at each MPL in *mpls*.

    When *seed* is given, every MPL's run draws from a fresh RNG keyed
    on ``("spoiler", template_id, seed)`` — the campaign's
    order-independent scheme — so the curve does not depend on the order
    of *mpls* or on any shared generator state.  The MPL is deliberately
    *not* part of the key: each run replays the same variance-draw
    sequence, keeping the random-I/O noise systematic across the curve
    (the paper measures one template instance per MPL under identical
    conditions; independent per-MPL draws would blur the continuum's
    upper bound).  *rng* (mutually exclusive with *seed*) preserves the
    legacy shared-generator path.
    """
    if seed is not None and rng is not None:
        raise SamplingError("pass either rng or seed, not both")

    def _rng_for(mpl: int) -> Optional[np.random.Generator]:
        if seed is None:
            return rng
        return task_rng(seed, "spoiler", key=template_id)

    latencies = {
        mpl: measure_spoiler_latency(
            catalog.profile(template_id), mpl, catalog.config, rng=_rng_for(mpl)
        ).latency
        for mpl in mpls
    }
    return SpoilerCurve(template_id=template_id, latencies=latencies)


# ----------------------------------------------------------------------
# The sampling campaign as independent, order-free tasks.

#: Campaign task: ``(kind, template_id_or_mix, mpl)``.  Plain tuples so
#: they pickle cheaply into worker processes.
CampaignTask = Tuple[str, object, int]


@dataclass(frozen=True)
class _CampaignContext:
    """Everything a worker needs to execute any campaign task."""

    catalog: TemplateCatalog
    steady: SteadyStateConfig
    config_seed: int


def _observe_mix(
    catalog: TemplateCatalog,
    mix: Mix,
    steady: SteadyStateConfig,
    rng: np.random.Generator,
) -> List[MixObservation]:
    """Run one steady-state mix and reduce it to per-primary observations."""
    result = run_steady_state(catalog, mix, config=steady, rng=rng)
    observations: List[MixObservation] = []
    for primary in sorted(set(mix)):
        lats = [s.latency for s in result.samples_for(primary)]
        observations.append(
            MixObservation(
                primary=primary,
                mix=tuple(mix),
                latency=statistics.fmean(lats),
                latency_std=statistics.stdev(lats) if len(lats) > 1 else 0.0,
                num_samples=len(lats),
            )
        )
    return observations


def _execute_campaign_task(context: _CampaignContext, task: CampaignTask):
    """Execute one campaign task (module-level: runs in worker processes).

    Each task derives its RNG purely from its own identity, so the result
    is independent of scheduling, chunking, and every other task.
    """
    kind, key, mpl = task
    if kind == "profile":
        return measure_template_profile(context.catalog, key)
    if kind == "spoiler":
        # Keyed per template, not per MPL: every point on a template's
        # curve replays the same variance-draw sequence, keeping the
        # random-I/O noise systematic across the curve (see
        # measure_spoiler_curve).
        rng = task_rng(context.config_seed, "spoiler", key=key)
        return measure_spoiler_latency(
            context.catalog.profile(key), mpl, context.catalog.config, rng=rng
        ).latency
    if kind == "mix":
        rng = task_rng(context.config_seed, "mix", key=key, mpl=mpl)
        return _observe_mix(context.catalog, key, context.steady, rng)
    raise SamplingError(f"unknown campaign task kind: {kind!r}")


def collect_training_data(
    catalog: TemplateCatalog,
    mpls: Sequence[int] = (2, 3, 4, 5),
    lhs_runs_per_mpl: int = 4,
    steady_config: Optional[SteadyStateConfig] = None,
    seed: Optional[int] = None,
    jobs: Optional[int] = None,
    chunk_size: Optional[int] = None,
    metrics: Optional[Registry] = None,
    tracer: Optional[TraceRecorder] = None,
) -> TrainingData:
    """Run the paper's full sampling campaign on the simulated testbed.

    MPL 2 is sampled exhaustively (all pairs, Sec. 2); higher MPLs use
    *lhs_runs_per_mpl* Latin Hypercube runs.  Spoiler curves cover MPL 1
    through ``max(mpls)``.

    Every simulation is an independent task whose randomness is keyed on
    ``(kind, template-or-mix, mpl, seed)`` (see
    :mod:`repro.core.campaign`), so the campaign is reproducible
    regardless of task order and bit-identical for any *jobs* value.

    Args:
        catalog: Workload to sample.
        mpls: Multiprogramming levels to observe mixes at.
        lhs_runs_per_mpl: LHS designs per MPL above 2.
        steady_config: Steady-state parameters; defaults are the paper's.
        seed: Campaign seed; defaults to the catalog's simulation seed.
        jobs: Worker processes — 1 runs in-process, 0 uses every core;
            defaults to the catalog's ``config.campaign.jobs``.
        chunk_size: Tasks per worker submission (0 = automatic); defaults
            to the catalog's ``config.campaign.chunk_size``.
        metrics: Registry receiving ``campaign_*`` metrics (task counts
            and wall times by kind, chunk queue depth, per-worker
            throughput); ``None`` collects nothing.  Instrumentation
            never touches the simulations themselves, so results are
            identical with and without it.
        tracer: Span recorder for the collection's phases (design /
            execute / assemble); span IDs derive from the campaign seed,
            so two runs of the same campaign produce identical trace
            structure.  ``None`` records nothing.

    Returns:
        A fully populated :class:`TrainingData`.
    """
    if not mpls:
        raise SamplingError("need at least one MPL")
    steady = steady_config if steady_config is not None else SteadyStateConfig()
    config_seed = int(seed) if seed is not None else catalog.config.simulation.seed
    if jobs is None:
        jobs = catalog.config.campaign.jobs
    if chunk_size is None:
        chunk_size = catalog.config.campaign.chunk_size
    trace = tracer if tracer is not None else NULL_TRACE
    templates = list(catalog.template_ids)
    spoiler_mpls = list(range(1, max(mpls) + 1))

    root = trace.start_span(
        "campaign.collect",
        key=("campaign", config_seed),
        templates=len(templates),
        mpls=list(mpls),
        jobs=jobs,
    )

    # Mix designs first: deterministic per MPL (the LHS generator is
    # keyed on the MPL, not on a shared stream), so the task list itself
    # is order-independent.
    with trace.span("campaign.design", key=("design", config_seed)):
        mixes_by_mpl: Dict[int, List[Mix]] = {}
        for mpl in sorted(mpls):
            if mpl == 2:
                mixes_by_mpl[mpl] = all_pairs(templates)
            else:
                mixes_by_mpl[mpl] = lhs_runs(
                    templates,
                    mpl,
                    lhs_runs_per_mpl,
                    task_rng(config_seed, "lhs", mpl=mpl),
                )

        tasks: List[CampaignTask] = [("profile", t, 0) for t in templates]
        tasks.extend(("spoiler", t, m) for t in templates for m in spoiler_mpls)
        # Duplicate mixes (an LHS draw can repeat) share one task: identical
        # keys would produce identical results anyway.
        seen: Set[CampaignTask] = set()
        for mpl, mixes in mixes_by_mpl.items():
            for mix in mixes:
                task = ("mix", mix, mpl)
                if task not in seen:
                    seen.add(task)
                    tasks.append(task)

    if metrics is not None:
        metrics.gauge(
            "campaign_templates", "Templates in the sampled workload."
        ).set(len(templates))
        metrics.gauge(
            "campaign_tasks_planned", "Tasks in the last campaign's plan."
        ).set(len(tasks))

    context = _CampaignContext(
        catalog=catalog, steady=steady, config_seed=config_seed
    )
    with trace.span(
        "campaign.execute", key=("execute", config_seed), tasks=len(tasks)
    ):
        results = parallel_map(
            _execute_campaign_task,
            context,
            tasks,
            jobs=jobs,
            chunk_size=chunk_size,
            metrics=metrics,
            task_label=lambda task: task[0],
        )
    by_task = dict(zip(tasks, results))

    with trace.span("campaign.assemble", key=("assemble", config_seed)):
        profiles = {t: by_task[("profile", t, 0)] for t in templates}
        spoilers = {
            t: SpoilerCurve(
                template_id=t,
                latencies={m: by_task[("spoiler", t, m)] for m in spoiler_mpls},
            )
            for t in templates
        }
        observations: Dict[int, List[MixObservation]] = {
            mpl: [obs for mix in mixes for obs in by_task[("mix", mix, mpl)]]
            for mpl, mixes in mixes_by_mpl.items()
        }

        data = TrainingData(
            profiles=profiles,
            spoilers=spoilers,
            observations=observations,
            scan_seconds=catalog.fact_scan_seconds(),
            config_seed=config_seed,
        )
    trace.end_span(root)
    return data
