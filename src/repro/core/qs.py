"""Query Sensitivity (QS) models — Sec. 5.2, Eq. 7.

A QS model is a per-template, per-MPL linear map from a mix's CQI to the
template's continuum point:

    c_{t,m} = µ_t * r_{t,m} + b_t

The slope µ says how strongly the template responds to concurrent I/O
demand; the intercept b is its baseline slowdown under concurrency even
when the concurrent queries need almost no I/O.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..errors import ModelError
from ..ml.linreg import SimpleLinearRegression
from .continuum import continuum_point, exceeds_continuum, latency_from_point
from .cqi import CQICalculator, CQIVariant
from .training import MixObservation, TrainingData


@dataclass(frozen=True)
class QSModel:
    """A fitted Query Sensitivity model.

    Attributes:
        template_id: The template the model belongs to (or -1 for a
            synthesized model of a new template).
        mpl: Multiprogramming level the model was fitted at.
        slope: µ_t.
        intercept: b_t.
        num_samples: Training mixes behind the fit (0 when synthesized).
        residual_std: Standard deviation of the fit's continuum-point
            residuals; 0 for synthesized models (no samples to measure).
    """

    template_id: int
    mpl: int
    slope: float
    intercept: float
    num_samples: int = 0
    residual_std: float = 0.0

    def __post_init__(self) -> None:
        for name in ("slope", "intercept", "residual_std"):
            if not math.isfinite(getattr(self, name)):
                raise ModelError(
                    f"QS model for template {self.template_id} at MPL "
                    f"{self.mpl}: {name} must be finite, "
                    f"got {getattr(self, name)!r}"
                )

    def predict_point(self, cqi: float) -> float:
        """Continuum point for a mix with the given CQI (Eq. 7)."""
        return self.slope * cqi + self.intercept

    def predict_latency(self, cqi: float, l_min: float, l_max: float) -> float:
        """End-to-end latency: Eq. 7 followed by the inverse of Eq. 6."""
        return latency_from_point(self.predict_point(cqi), l_min, l_max)

    def predict_interval(
        self,
        cqi: float,
        l_min: float,
        l_max: float,
        sigmas: float = 2.0,
    ) -> Tuple[float, float, float]:
        """(low, predicted, high) latency band from the fit residuals.

        The band is the point prediction ± ``sigmas`` residual standard
        deviations, scaled through the continuum; synthesized models
        (``residual_std == 0``) return a degenerate band.
        """
        if sigmas < 0:
            raise ModelError("sigmas must be >= 0")
        point = self.predict_point(cqi)
        spread = sigmas * self.residual_std
        low = latency_from_point(point - spread, l_min, l_max)
        mid = latency_from_point(point, l_min, l_max)
        high = latency_from_point(point + spread, l_min, l_max)
        return (low, mid, high)


def qs_training_pairs(
    data: TrainingData,
    calculator: CQICalculator,
    template_id: int,
    mpl: int,
    variant: CQIVariant = CQIVariant.FULL,
    l_max: Optional[float] = None,
    drop_outliers: bool = True,
    observations: Optional[Sequence[MixObservation]] = None,
) -> List[Tuple[float, float]]:
    """(CQI, continuum point) pairs for one template at one MPL.

    Args:
        data: Collected training data.
        calculator: CQI calculator over the same profiles.
        template_id: The primary template.
        mpl: Mix size to select observations for.
        variant: CQI ablation (Table 2).
        l_max: Continuum upper bound; defaults to the measured spoiler
            latency at *mpl*.
        drop_outliers: Drop observations that measurably exceed the
            spoiler bound (the paper's 4 % restart artifacts, Sec. 6.1).
        observations: Explicit observation subset; defaults to every
            observation of the template at *mpl*.
    """
    profile = data.profile(template_id)
    l_min = profile.isolated_latency
    bound = l_max if l_max is not None else data.spoiler(template_id).latency_at(mpl)
    if observations is None:
        observations = data.observations_for(template_id, mpl)
    pairs: List[Tuple[float, float]] = []
    for obs in observations:
        if obs.primary != template_id or obs.mpl != mpl:
            continue
        if drop_outliers and exceeds_continuum(obs.latency, bound):
            continue
        cqi = calculator.intensity(template_id, obs.mix, variant)
        point = continuum_point(obs.latency, l_min, bound)
        pairs.append((cqi, point))
    return pairs


def fit_qs_model(
    data: TrainingData,
    calculator: CQICalculator,
    template_id: int,
    mpl: int,
    variant: CQIVariant = CQIVariant.FULL,
    observations: Optional[Sequence[MixObservation]] = None,
) -> QSModel:
    """Fit the QS reference model of one template at one MPL.

    Raises:
        ModelError: When fewer than two usable training mixes exist.
    """
    pairs = qs_training_pairs(
        data, calculator, template_id, mpl, variant, observations=observations
    )
    if len(pairs) < 2:
        raise ModelError(
            f"template {template_id} at MPL {mpl}: "
            f"need >= 2 training mixes, have {len(pairs)}"
        )
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    reg = SimpleLinearRegression().fit(xs, ys)
    residuals = [y - reg.predict(x) for x, y in zip(xs, ys)]
    residual_std = float(
        (sum(r * r for r in residuals) / len(residuals)) ** 0.5
    )
    return QSModel(
        template_id=template_id,
        mpl=mpl,
        slope=reg.slope,
        intercept=reg.intercept,
        num_samples=len(pairs),
        residual_std=residual_std,
    )
