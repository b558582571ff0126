"""Ranking-quality evaluation: does the predictor order mixes correctly?

Mean relative error (the paper's Eq. 1 metric, :mod:`repro.metrics`)
measures how far predictions land from observations — but Contender's
payoff is *decisions*: which queued query joins the running mix.  A
model can carry a respectable MRE and still rank alternatives near
coin-flip, so this package scores any
:class:`~repro.apps.admission.PredictionBackend` on decision quality:

* :mod:`repro.eval.metrics` — the kernels: pairwise winner-prediction
  accuracy, Kendall tau-b rank correlation (Knight's O(n log n)
  algorithm), and q-error distributions (p50/p90/max), alongside MRE;
* :mod:`repro.eval.scenarios` — a declarative scenario matrix
  (:class:`~repro.eval.scenarios.ScenarioSpec`): uniform / skewed /
  multi-tenant template mixes plus LearnedWMP-style per-set template
  -distribution families (arXiv 2401.12103), swept across MPLs;
* :mod:`repro.eval.backends` — named predictor variants: ``qs`` (the
  known-template QS path) and ``knn`` (every primary scored as-if-new
  through the Fig. 5 KNN pipeline, leave-one-template-out);
* :mod:`repro.eval.harness` — ground truth through the
  simulation campaign machinery — seed-deterministic and
  jobs-independent — and per-scenario scoring that reuses
  :class:`~repro.sched.policies.PredictivePolicy` candidate scoring,
  so the headline number answers "would the scheduler have picked the
  true winner?".

See docs/EVALUATION.md for metric definitions and the CLI
(``repro eval run`` / ``repro eval compare``).
"""

from .backends import BACKEND_NAMES, KnnNewTemplateBackend, named_backends
from .harness import (
    EvalReport,
    MatrixResult,
    ScenarioResult,
    ground_truth_latencies,
    run_matrix,
)
from .metrics import (
    kendall_tau,
    pairwise_accuracy,
    pairwise_counts,
    q_error_summary,
    q_errors,
)
from .scenarios import (
    FAMILIES,
    CandidateSet,
    ScenarioSpec,
    default_matrix,
    generate_candidate_sets,
)

__all__ = [
    "BACKEND_NAMES",
    "CandidateSet",
    "EvalReport",
    "FAMILIES",
    "KnnNewTemplateBackend",
    "MatrixResult",
    "ScenarioResult",
    "ScenarioSpec",
    "default_matrix",
    "generate_candidate_sets",
    "ground_truth_latencies",
    "kendall_tau",
    "named_backends",
    "pairwise_accuracy",
    "pairwise_counts",
    "q_error_summary",
    "q_errors",
    "run_matrix",
]
