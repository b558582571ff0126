"""Campaign executor unit tests: seeding, jobs resolution, parallel map."""

import os

import pytest

from repro.core.campaign import (
    parallel_map,
    resolve_jobs,
    task_rng,
    task_seed,
)
from repro.errors import SamplingError
from repro.obs.metrics import Registry


# ----------------------------------------------------------------------
# Seeding.


def test_task_seed_is_stable():
    a = task_seed(7, "mix", key=(26, 71), mpl=2)
    b = task_seed(7, "mix", key=(26, 71), mpl=2)
    assert a == b


def test_task_seed_distinguishes_every_component():
    base = task_seed(7, "mix", key=(26, 71), mpl=2)
    assert task_seed(8, "mix", key=(26, 71), mpl=2) != base
    assert task_seed(7, "spoiler", key=(26, 71), mpl=2) != base
    assert task_seed(7, "mix", key=(26, 72), mpl=2) != base
    assert task_seed(7, "mix", key=(26, 71), mpl=3) != base


def test_task_rng_streams_are_independent_of_call_order():
    first = task_rng(7, "mix", key=(26, 71), mpl=2).random(4).tolist()
    task_rng(7, "mix", key=(22, 65), mpl=2).random(100)  # unrelated draw
    second = task_rng(7, "mix", key=(26, 71), mpl=2).random(4).tolist()
    assert first == second


# ----------------------------------------------------------------------
# Jobs resolution.


def test_resolve_jobs_defaults_and_all_cores():
    assert resolve_jobs(None) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) == (os.cpu_count() or 1)


def test_resolve_jobs_rejects_negative():
    with pytest.raises(SamplingError):
        resolve_jobs(-1)


# ----------------------------------------------------------------------
# parallel_map.


def _square_plus(context, item):
    return item * item + context


def _fail_on_three(context, item):
    if item == 3:
        raise SamplingError("task three exploded")
    return item


def test_parallel_map_serial_matches_comprehension():
    items = list(range(10))
    assert parallel_map(_square_plus, 5, items, jobs=1) == [
        i * i + 5 for i in items
    ]


def test_parallel_map_preserves_item_order_across_processes():
    items = list(range(23))
    expected = [i * i + 1 for i in items]
    assert parallel_map(_square_plus, 1, items, jobs=2) == expected
    assert parallel_map(_square_plus, 1, items, jobs=2, chunk_size=1) == expected
    assert parallel_map(_square_plus, 1, items, jobs=2, chunk_size=50) == expected


def test_parallel_map_single_item_stays_in_process():
    assert parallel_map(_square_plus, 0, [4], jobs=8) == [16]


def test_parallel_map_propagates_worker_errors():
    with pytest.raises(SamplingError, match="task three exploded"):
        parallel_map(_fail_on_three, None, [1, 2, 3, 4], jobs=2, chunk_size=1)


def test_parallel_map_rejects_unpicklable_context():
    context = lambda: None  # noqa: E731 — locals don't pickle
    with pytest.raises(SamplingError, match="not picklable"):
        parallel_map(_square_plus, context, [1, 2], jobs=2)


def test_parallel_map_empty_items():
    assert parallel_map(_square_plus, 0, [], jobs=4) == []


# ----------------------------------------------------------------------
# parallel_map observability.


def _label_of(item):
    return "even" if item % 2 == 0 else "odd"


def test_serial_map_records_campaign_metrics():
    reg = Registry()
    items = list(range(6))
    out = parallel_map(
        _square_plus, 2, items, jobs=1, metrics=reg, task_label=_label_of
    )
    assert out == [i * i + 2 for i in items]
    assert reg.get("campaign_workers").value == 1
    assert reg.get("campaign_tasks_total").labels("even").value == 3
    assert reg.get("campaign_tasks_total").labels("odd").value == 3
    assert reg.get("campaign_task_seconds").labels("even").snapshot().count == 3
    assert (
        reg.get("campaign_worker_tasks_total").labels(os.getpid()).value == 6
    )


def test_pooled_map_merges_worker_metrics_into_parent():
    reg = Registry()
    items = list(range(12))
    out = parallel_map(
        _square_plus,
        0,
        items,
        jobs=2,
        chunk_size=3,
        metrics=reg,
        task_label=_label_of,
    )
    assert out == [i * i for i in items]
    assert reg.get("campaign_workers").value == 2
    assert reg.get("campaign_chunks_total").value == 4
    # Every chunk completed, so the queue fully drained.
    assert reg.get("campaign_chunk_queue_depth").value == 0
    assert reg.get("campaign_tasks_total").total() == 12
    assert reg.get("campaign_task_seconds").labels("odd").snapshot().count == 6
    # Per-worker attribution covers every task, whatever the split.
    assert reg.get("campaign_worker_tasks_total").total() == 12


def test_metrics_do_not_change_results_or_determinism():
    items = list(range(9))
    plain = parallel_map(_square_plus, 3, items, jobs=2, chunk_size=2)
    observed = parallel_map(
        _square_plus, 3, items, jobs=2, chunk_size=2, metrics=Registry()
    )
    assert plain == observed


def test_default_task_label_is_task():
    reg = Registry()
    parallel_map(_square_plus, 0, [1, 2], jobs=1, metrics=reg)
    assert reg.get("campaign_tasks_total").labels("task").value == 2


# ----------------------------------------------------------------------
# Per-task seeding makes ``jobs`` pure plumbing: campaign results are
# bit-identical for any worker count.


def _collect(jobs=1):
    from repro.config import CampaignConfig, SystemConfig
    from repro.core.training import collect_training_data
    from repro.sampling.steady_state import SteadyStateConfig
    from repro.workload.catalog import TemplateCatalog

    config = SystemConfig(campaign=CampaignConfig(jobs=jobs))
    catalog = TemplateCatalog(config=config).subset((26, 62, 71))
    return collect_training_data(
        catalog,
        mpls=(2,),
        lhs_runs_per_mpl=2,
        steady_config=SteadyStateConfig(samples_per_stream=3),
    ).to_json()


def test_campaign_bit_identical_across_jobs():
    assert _collect(jobs=2) == _collect()
