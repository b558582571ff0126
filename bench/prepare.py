"""The benchmark's campaign, and one set-up step run as a fresh process.

    python3 bench/prepare.py training SEED OUT.json  # campaign + fit, data as JSON
    python3 bench/prepare.py artifact SEED OUT.json  # campaign + fit + pack

Run as a script, the step's wall time (imports included) is set-up time.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: The ``repro train`` defaults: 25 templates, MPLs 2-5, 4 LHS runs per
#: MPL, in-process.  Pinned here so a changed default cannot silently
#: change the benchmark's input.
MPLS = (2, 3, 4, 5)
LHS_RUNS = 4


def campaign(catalog, seed: int):
    """The default campaign plus the QS fit at every MPL: ``(data, model)``.

    Calls go through module attributes, so the traced run's wrappers see
    them.
    """
    import repro.core.contender as contender_mod
    import repro.core.training as training

    data = training.collect_training_data(
        catalog, mpls=MPLS, lhs_runs_per_mpl=LHS_RUNS, seed=seed, jobs=1
    )
    contender = contender_mod.Contender(data)
    for mpl in MPLS:
        contender.reference_models(mpl)
    return data, contender


def main(argv) -> int:
    from repro.workload.catalog import TemplateCatalog

    kind, seed, out = argv[0], int(argv[1]), Path(argv[2])
    data, contender = campaign(TemplateCatalog(), seed)
    if kind == "training":
        out.write_text(data.to_json())
        return 0
    from repro.serving.registry import save_artifact

    save_artifact(contender, out)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    raise SystemExit(main(sys.argv[1:]))
