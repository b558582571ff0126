"""Steady-state execution of one query mix (Sec. 2, Fig. 2).

To measure how a mix affects each of its member templates, the paper
holds the mix constant: one stream per mix slot, and when a query ends a
new instance of the same template starts immediately (paying a restart
cost for planning and dimension re-caching).  The experiment runs until
every stream has collected its target number of samples; the first and
last few are trimmed so only samples taken under the full, steady mix
survive.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..engine.executor import ConcurrentExecutor, RunResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..explain.recorder import ExplainRecorder
from ..engine.profile import ResourceProfile, startup_phase
from ..engine.stats import QueryStats
from ..errors import SamplingError
from ..workload.catalog import TemplateCatalog

Mix = Tuple[int, ...]


@dataclass(frozen=True)
class SteadyStateConfig:
    """Parameters of a steady-state experiment.

    Attributes:
        samples_per_stream: Samples to keep per stream after trimming
            (the paper uses n = 5).
        warmup: Leading samples trimmed per stream (cache warm-up,
            queries that started against an empty machine).
        cooldown: Trailing samples trimmed per stream (queries whose mix
            degraded as other streams drained).
        apply_restart_cost: Charge the configured restart cost to every
            non-initial query of a stream.
    """

    samples_per_stream: int = 5
    warmup: int = 1
    cooldown: int = 1
    apply_restart_cost: bool = True

    def __post_init__(self) -> None:
        if self.samples_per_stream < 1:
            raise SamplingError("samples_per_stream must be >= 1")
        if self.warmup < 0 or self.cooldown < 0:
            raise SamplingError("warmup and cooldown must be >= 0")

    @property
    def total_per_stream(self) -> int:
        """Completions each stream must produce before it stops."""
        return self.warmup + self.samples_per_stream + self.cooldown


@dataclass
class TemplateStream:
    """A stream that keeps re-issuing instances of one template."""

    catalog: TemplateCatalog
    template_id: int
    target: int
    rng: np.random.Generator
    restart_cost: float = 0.0
    name: str = ""

    def __post_init__(self) -> None:
        if self.target < 1:
            raise SamplingError("stream target must be >= 1")
        if not self.name:
            self.name = f"t{self.template_id}"
        # Built once: nearly every steady-state instance after the first
        # pays the restart cost.
        self._startup = (
            startup_phase(self.restart_cost) if self.restart_cost > 0 else None
        )

    def next_profile(self, now: float, completed: int) -> Optional[ResourceProfile]:
        if completed >= self.target:
            return None
        profile = self.catalog.profile(self.template_id, rng=self.rng)
        if completed > 0 and self._startup is not None:
            profile = profile.with_startup(self._startup)
        return profile


@dataclass
class SteadyStateResult:
    """Trimmed samples from one steady-state mix experiment.

    Attributes:
        mix: The executed mix (template id per slot).
        samples: Per-slot trimmed samples, parallel to ``mix``.
        run: The raw executor result (untrimmed, for diagnostics).
    """

    mix: Mix
    samples: List[List[QueryStats]]
    run: RunResult

    def samples_for(self, template_id: int) -> List[QueryStats]:
        """All trimmed samples of *template_id* across its slots."""
        out: List[QueryStats] = []
        for slot, slot_template in enumerate(self.mix):
            if slot_template == template_id:
                out.extend(self.samples[slot])
        if not out:
            raise SamplingError(f"template {template_id} not in mix {self.mix}")
        return out

    def mean_latency(self, template_id: int) -> float:
        """Average observed latency of *template_id* in this mix."""
        return statistics.fmean(s.latency for s in self.samples_for(template_id))


def run_steady_state(
    catalog: TemplateCatalog,
    mix: Sequence[int],
    config: Optional[SteadyStateConfig] = None,
    rng: Optional[np.random.Generator] = None,
    recorder: Optional["ExplainRecorder"] = None,
) -> SteadyStateResult:
    """Execute *mix* in steady state and return trimmed per-slot samples.

    Args:
        catalog: Workload to draw template instances from.
        mix: Template id per slot; length = MPL.  Duplicate ids mean
            several concurrent instances of that template.
        config: Steady-state parameters; defaults are the paper's.
        rng: Randomness for instance jitter (deterministic default).
        recorder: Optional blame-attribution recorder forwarded to the
            executor (see :mod:`repro.explain`).

    Returns:
        Trimmed samples per slot plus the raw run.
    """
    if not mix:
        raise SamplingError("mix must contain at least one template")
    cfg = config if config is not None else SteadyStateConfig()
    rng = rng if rng is not None else np.random.default_rng(
        catalog.config.simulation.seed
    )
    # The shared generator is the run's whole randomness budget: instance
    # jitter draws interleave with the executor's variance draws in event
    # order, which is why a mix run must own its generator (the campaign
    # keys one per mix task).
    restart = (
        catalog.config.simulation.restart_cost if cfg.apply_restart_cost else 0.0
    )
    streams = [
        TemplateStream(
            catalog=catalog,
            template_id=template_id,
            target=cfg.total_per_stream,
            rng=rng,
            restart_cost=restart,
            name=f"slot{slot}-t{template_id}",
        )
        for slot, template_id in enumerate(mix)
    ]
    executor = ConcurrentExecutor(catalog.config, rng=rng, recorder=recorder)
    run = executor.run(streams)

    # Trim warm-up and cool-down from each stream.
    by_stream = run.by_stream()
    samples: List[List[QueryStats]] = []
    for stream in streams:
        collected = by_stream.get(stream.name, [])
        end = len(collected) - cfg.cooldown
        trimmed = collected[cfg.warmup : end] if end > cfg.warmup else []
        if not trimmed:
            raise SamplingError(
                f"stream {stream.name} produced no samples after trimming"
            )
        samples.append(trimmed)
    return SteadyStateResult(mix=tuple(mix), samples=samples, run=run)
