#!/usr/bin/env python3
"""Profile the sampling campaign's serial hot path.

Runs a small in-process campaign (jobs=1, so the simulator itself is on
the profile rather than pool plumbing) under cProfile and prints the
top entries by cumulative time.  Use it before and after touching the
executor or the sampling layers to see where the time went:

    make profile-campaign
"""

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

try:
    import repro  # noqa: F401
except ModuleNotFoundError:  # a checkout without `make install`
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.config import CampaignConfig, SystemConfig
from repro.core.training import collect_training_data
from repro.sampling.steady_state import SteadyStateConfig
from repro.workload.catalog import TemplateCatalog

SMALL_TEMPLATES = (26, 62, 71, 22, 65, 17)
TOP_N = 20


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()
    config = SystemConfig(campaign=CampaignConfig(jobs=1))
    catalog = TemplateCatalog(config=config).subset(SMALL_TEMPLATES)
    profiler = cProfile.Profile()
    profiler.enable()
    data = collect_training_data(
        catalog,
        mpls=(2, 3),
        lhs_runs_per_mpl=2,
        steady_config=SteadyStateConfig(samples_per_stream=3),
        jobs=1,
    )
    profiler.disable()

    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats("cumulative").print_stats(TOP_N)
    print(
        f"campaign: {len(data.profiles)} templates, "
        f"{sum(len(v) for v in data.observations.values())} observations"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
