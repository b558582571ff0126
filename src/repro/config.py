"""Hardware and simulation configuration.

The paper's testbed is PostgreSQL 8.4.3 on an 8-core Intel i7 with 8 GB of
RAM and a single magnetic disk (Sec. 6.1).  :class:`HardwareSpec` captures
the resources the Contender model reasons about — I/O bandwidth, random
IOPS, RAM — and :class:`SimulationConfig` the knobs of the discrete-event
executor that stands in for the real DBMS.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ConfigurationError
from .units import GB, MB


@dataclass(frozen=True)
class HardwareSpec:
    """Resources of the simulated database host.

    Attributes:
        cores: CPU cores.  The paper assumes cores >= MPL, so the CPU is
            never the contended resource; we keep the count anyway so the
            executor can model CPU saturation if a caller pushes past it.
        ram_bytes: Physical memory available to the DBMS and OS cache.
        seq_bandwidth: Sequential disk read bandwidth, bytes/second,
            aggregate across all streams.
        random_iops: Random-read operations per second the disk sustains.
        random_io_variance: Multiplicative spread of random-seek service
            time under concurrency.  Prior work observed up to an order of
            magnitude per-page variance ([8], quoted in Sec. 6.2); the
            executor draws a per-phase factor in
            ``[1/(1+v), 1+v]`` under contention.
    """

    cores: int = 8
    ram_bytes: float = GB(8)
    seq_bandwidth: float = MB(130)
    random_iops: float = 180.0
    random_io_variance: float = 0.35

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ConfigurationError(f"cores must be >= 1, got {self.cores}")
        if self.ram_bytes <= 0:
            raise ConfigurationError("ram_bytes must be positive")
        if self.seq_bandwidth <= 0:
            raise ConfigurationError("seq_bandwidth must be positive")
        if self.random_iops <= 0:
            raise ConfigurationError("random_iops must be positive")
        if self.random_io_variance < 0:
            raise ConfigurationError("random_io_variance must be >= 0")


@dataclass(frozen=True)
class SimulationConfig:
    """Behavioural knobs of the discrete-event executor.

    Attributes:
        shared_scans: Model synchronized (shared) sequential scans: queries
            concurrently scanning the same table form a single disk stream
            whose progress credits every member.  PostgreSQL >= 8.3 behaviour
            and the source of the paper's "positive interactions".
        scan_share_window: Fraction of a table scan during which a newly
            arriving scan can join an in-flight scan group.  1.0 means scans
            always coalesce; lower values model the synchronization window.
        spill_multiplier: Extra I/O generated per byte of working set that
            does not fit in the query's memory share (one write + one read
            pass ~= 2.0).
        spill_thrash: Super-linear penalty as the deficit grows relative
            to the memory actually available: the effective spill volume
            is ``multiplier * deficit * (1 + thrash * deficit/available)``,
            modeling recursive partitioning / multi-pass external sorts
            once the working set exceeds memory by a wide margin.
        restart_cost: Fixed seconds charged when a steady-state stream
            restarts a template (planning + dimension re-caching, Sec. 6.1).
        dimension_cache: Whether dimension tables stay buffer-resident after
            first touch within an experiment (hot dimensions are why fact
            scans dominate analytical I/O).
        cpu_io_overlap: Fraction of a phase's CPU work that overlaps its own
            I/O (asynchronous prefetch).  0 = strictly serial, 1 = perfect
            overlap; the effective phase demand interpolates between the two.
        time_epsilon: Smallest time advance the event loop will make;
            guards against floating-point stalls.
        max_events: Safety valve: the executor raises SimulationError if a
            single run exceeds this many events.
        seed: Base RNG seed for all stochastic components (parameter jitter,
            random-I/O variance).
    """

    shared_scans: bool = True
    scan_share_window: float = 1.0
    spill_multiplier: float = 2.0
    spill_thrash: float = 1.0
    restart_cost: float = 2.5
    dimension_cache: bool = True
    cpu_io_overlap: float = 0.7
    time_epsilon: float = 1e-9
    max_events: int = 2_000_000
    seed: int = 20140324  # EDBT 2014 opening day.

    def __post_init__(self) -> None:
        if not 0.0 <= self.scan_share_window <= 1.0:
            raise ConfigurationError("scan_share_window must be in [0, 1]")
        if self.spill_multiplier < 0:
            raise ConfigurationError("spill_multiplier must be >= 0")
        if self.spill_thrash < 0:
            raise ConfigurationError("spill_thrash must be >= 0")
        if self.restart_cost < 0:
            raise ConfigurationError("restart_cost must be >= 0")
        if not 0.0 <= self.cpu_io_overlap <= 1.0:
            raise ConfigurationError("cpu_io_overlap must be in [0, 1]")
        if self.time_epsilon <= 0:
            raise ConfigurationError("time_epsilon must be positive")
        if self.max_events < 1:
            raise ConfigurationError("max_events must be >= 1")


@dataclass(frozen=True)
class CampaignConfig:
    """Knobs of the sampling-campaign executor (:mod:`repro.core.campaign`).

    Results never depend on these values: every campaign task seeds its
    RNG from its own identity, so any ``jobs``/``chunk_size`` combination
    produces bit-identical training data.

    Attributes:
        jobs: Worker processes for the sampling campaign.  1 runs
            everything in-process (no pool); 0 means one worker per core.
        chunk_size: Tasks per worker submission; 0 sizes chunks
            automatically from the task count and worker count.
    """

    jobs: int = 1
    chunk_size: int = 0

    def __post_init__(self) -> None:
        if self.jobs < 0:
            raise ConfigurationError(f"jobs must be >= 0, got {self.jobs}")
        if self.chunk_size < 0:
            raise ConfigurationError(
                f"chunk_size must be >= 0, got {self.chunk_size}"
            )


@dataclass(frozen=True)
class ObservabilityConfig:
    """Knobs of the observability layer (:mod:`repro.obs`).

    Attributes:
        engine_metrics: Instrument the discrete-event executor.  Off by
            default: the engine hot loop must pay zero cost unless a
            deployment opts in (overhead is gated at <= 5% by
            ``scripts/bench_check.py`` even when enabled).
        campaign_metrics: Instrument the sampling campaign (per-task
            timings, chunk queue depth, cache hits): the experiment
            harness creates a registry on first use when set and no
            explicit one was handed to it.
        trace: Likewise for deterministic campaign spans: the harness
            creates a :class:`~repro.obs.tracing.TraceRecorder` seeded
            from the simulation seed when set.

    Per-phase timing has no knob: attach a
    :class:`~repro.engine.trace.Tracer` to the executor, whose interval
    samples carry every running query's phase label.
    """

    engine_metrics: bool = False
    campaign_metrics: bool = False
    trace: bool = False


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the online prediction service (:mod:`repro.serving`).

    Attributes:
        host: Interface the HTTP front end binds.
        port: TCP port; 0 lets the OS pick one (tests, smoke runs).
        workers: Batch-worker threads draining the request queue
            (within one process).
        worker_processes: Pre-fork HTTP worker processes sharing the
            listening port.  1 (the default) serves in-process; higher
            values fork that many workers running the same HTTP
            transport, and fall back to in-process where the platform
            lacks ``fork``.
        batch_window: Seconds a worker lingers after the first request of
            a batch to coalesce concurrent arrivals into one model call.
        max_batch: Most requests a single batch may absorb.
        request_timeout: Seconds a request waits for its batch result
            before answering 504.
        cache_entries: Capacity of the prediction cache (LRU).
        cache_ttl: Seconds a cached prediction stays servable.
        sla_factor: Default SLA multiple for the ``admit`` endpoint.
        max_mpl: Default concurrency cap for the ``admit`` endpoint.
        metrics_enabled: Expose the Prometheus ``/metrics`` endpoint and
            record per-endpoint request metrics.  Serving instrumentation
            is on by default (per-request cost is one dict update and a
            histogram observe — noise next to a socket round trip).
    """

    host: str = "127.0.0.1"
    port: int = 8181
    workers: int = 4
    worker_processes: int = 1
    batch_window: float = 0.002
    max_batch: int = 64
    request_timeout: float = 10.0
    cache_entries: int = 4096
    cache_ttl: float = 300.0
    sla_factor: float = 1.5
    max_mpl: int = 5
    metrics_enabled: bool = True

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ConfigurationError(f"port must be in [0, 65535], got {self.port}")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.worker_processes < 1:
            raise ConfigurationError("worker_processes must be >= 1")
        if self.batch_window < 0:
            raise ConfigurationError("batch_window must be >= 0")
        if self.max_batch < 1:
            raise ConfigurationError("max_batch must be >= 1")
        if self.request_timeout <= 0:
            raise ConfigurationError("request_timeout must be positive")
        if self.cache_entries < 0:
            raise ConfigurationError("cache_entries must be >= 0")
        if self.cache_ttl <= 0:
            raise ConfigurationError("cache_ttl must be positive")
        if self.sla_factor < 1.0:
            raise ConfigurationError("sla_factor must be >= 1")
        if self.max_mpl < 1:
            raise ConfigurationError("max_mpl must be >= 1")


@dataclass(frozen=True)
class LifecycleConfig:
    """Knobs of the model lifecycle subsystem (:mod:`repro.lifecycle`).

    The detectors are deterministic functions of the residual stream —
    no wall-clock reads, no RNG — so any fixed sequence of observations
    yields the same verdicts on every run (see docs/LIFECYCLE.md).

    Attributes:
        reference_window: Residuals frozen as the mean-shift reference
            (the first ``reference_window`` samples after a reset).
        test_window: Sliding window compared against the reference; the
            mean-shift detector is armed only once it is full.
        mean_shift_threshold: Absolute difference between test-window
            and reference-window mean relative residuals that counts as
            drift.  Residuals are signed relative errors, so 0.12 means
            "predictions are off by 12 points more than they used to be".
        ph_delta: Page-Hinkley drift-tolerance drain per sample; bounds
            the stationary excursion of the cumulative statistic.
        ph_lambda: Page-Hinkley alarm threshold on the drained cumulative
            deviation from the running mean.
        min_samples: Samples required before the Page-Hinkley test may
            fire (the running mean needs history to be meaningful).
        residual_window: Residuals retained per template for stats
            reporting (``repro stats`` / the ``/v1/stats`` endpoint).
        promotion_margin: Relative MRE improvement the candidate must
            show on the shadow set: it is promoted only when
            ``candidate_mre <= incumbent_mre * (1 - promotion_margin)``.
        shadow_samples: Steady-state samples per stream when collecting
            the held-out shadow mixes.
        recovery_mre: MRE ceiling the e2e growth scenario asserts after
            promotion (the "error restored" bar).
        enabled: Master switch for serving-side residual ingestion.
    """

    reference_window: int = 24
    test_window: int = 12
    mean_shift_threshold: float = 0.12
    ph_delta: float = 0.01
    ph_lambda: float = 0.6
    min_samples: int = 24
    residual_window: int = 64
    promotion_margin: float = 0.05
    shadow_samples: int = 3
    recovery_mre: float = 0.2
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.reference_window < 1:
            raise ConfigurationError("reference_window must be >= 1")
        if self.test_window < 1:
            raise ConfigurationError("test_window must be >= 1")
        if self.mean_shift_threshold <= 0:
            raise ConfigurationError("mean_shift_threshold must be positive")
        if self.ph_delta < 0:
            raise ConfigurationError("ph_delta must be >= 0")
        if self.ph_lambda <= 0:
            raise ConfigurationError("ph_lambda must be positive")
        if self.min_samples < 1:
            raise ConfigurationError("min_samples must be >= 1")
        if self.residual_window < self.test_window:
            raise ConfigurationError(
                "residual_window must be >= test_window"
            )
        if not 0.0 <= self.promotion_margin < 1.0:
            raise ConfigurationError("promotion_margin must be in [0, 1)")
        if self.shadow_samples < 1:
            raise ConfigurationError("shadow_samples must be >= 1")
        if self.recovery_mre <= 0:
            raise ConfigurationError("recovery_mre must be positive")


@dataclass(frozen=True)
class ExplainConfig:
    """Knobs of the blame-attribution subsystem (:mod:`repro.explain`).

    Attribution itself is opt-in per run — an executor only records when
    a recorder is attached — so these knobs govern report shape and the
    drift root-cause integration, not the engine hot loop.

    Attributes:
        samples_per_stream: Steady-state samples per stream when a blame
            report simulates a mix (``repro explain`` / ``/v1/explain``).
            Smaller than the campaign default: attribution wants the
            steady mix, not tight latency estimates.
        top_k: Co-runner templates listed in ranked outputs (the CLI
            table, the serving response, the drift root-cause section).
        root_cause_mixes: Most recent distinct mixes per drifted template
            that the root-cause analyzer re-simulates; bounds the cost of
            one ``lifecycle status`` / ``/v1/stats`` refresh.
    """

    samples_per_stream: int = 3
    top_k: int = 5
    root_cause_mixes: int = 3

    def __post_init__(self) -> None:
        if self.samples_per_stream < 1:
            raise ConfigurationError("samples_per_stream must be >= 1")
        if self.top_k < 1:
            raise ConfigurationError("top_k must be >= 1")
        if self.root_cause_mixes < 1:
            raise ConfigurationError("root_cause_mixes must be >= 1")


@dataclass(frozen=True)
class SystemConfig:
    """A complete simulated system: hardware plus executor behaviour."""

    hardware: HardwareSpec = field(default_factory=HardwareSpec)
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    serving: ServingConfig = field(default_factory=ServingConfig)
    campaign: CampaignConfig = field(default_factory=CampaignConfig)
    observability: ObservabilityConfig = field(
        default_factory=ObservabilityConfig
    )
    lifecycle: LifecycleConfig = field(default_factory=LifecycleConfig)
    explain: ExplainConfig = field(default_factory=ExplainConfig)

    def with_seed(self, seed: int) -> "SystemConfig":
        """Return a copy whose simulation RNG seed is *seed*."""
        return replace(self, simulation=replace(self.simulation, seed=seed))

    def with_jobs(self, jobs: int) -> "SystemConfig":
        """Return a copy whose campaign uses *jobs* worker processes."""
        return replace(self, campaign=replace(self.campaign, jobs=jobs))


#: The default configuration mirrors the paper's testbed.
DEFAULT_CONFIG = SystemConfig()
