"""Query Sensitivity model tests."""

import pytest

from repro.core.cqi import CQICalculator, CQIVariant
from repro.core.qs import QSModel, fit_qs_model, qs_training_pairs
from repro.errors import ModelError


@pytest.fixture()
def calc(small_training_data):
    return CQICalculator(
        profiles=small_training_data.profiles,
        scan_seconds=small_training_data.scan_seconds,
    )


def test_qs_model_is_a_line():
    model = QSModel(template_id=1, mpl=2, slope=0.5, intercept=0.1)
    assert model.predict_point(0.0) == pytest.approx(0.1)
    assert model.predict_point(1.0) == pytest.approx(0.6)


def test_qs_model_latency_scaling():
    model = QSModel(template_id=1, mpl=2, slope=1.0, intercept=0.0)
    assert model.predict_latency(0.5, 100.0, 200.0) == pytest.approx(150.0)


def test_training_pairs_have_cqi_and_continuum(small_training_data, calc):
    pairs = qs_training_pairs(small_training_data, calc, 26, 2)
    assert pairs
    for cqi, point in pairs:
        assert 0.0 <= cqi <= 1.0
        assert -1.0 < point < 1.5


def test_fit_produces_model(small_training_data, calc):
    model = fit_qs_model(small_training_data, calc, 26, 2)
    assert model.template_id == 26
    assert model.mpl == 2
    assert model.num_samples == len(
        qs_training_pairs(small_training_data, calc, 26, 2)
    )


def test_fit_respects_variant(small_training_data, calc):
    full = fit_qs_model(small_training_data, calc, 26, 2, CQIVariant.FULL)
    base = fit_qs_model(
        small_training_data, calc, 26, 2, CQIVariant.BASELINE_IO
    )
    assert (full.slope, full.intercept) != (base.slope, base.intercept)


def test_io_bound_template_has_positive_slope(small_training_data, calc):
    """More concurrent I/O demand must mean more slowdown for an
    I/O-bound template — the core premise of QS."""
    model = fit_qs_model(small_training_data, calc, 26, 2)
    assert model.slope > 0


def test_fit_with_too_few_mixes_raises(small_training_data, calc):
    with pytest.raises(ModelError):
        fit_qs_model(
            small_training_data,
            calc,
            26,
            2,
            observations=small_training_data.observations_for(26, 2)[:1],
        )


def test_explicit_observations_subset(small_training_data, calc):
    obs = small_training_data.observations_for(26, 2)[:4]
    model = fit_qs_model(small_training_data, calc, 26, 2, observations=obs)
    assert model.num_samples <= 4


@pytest.mark.parametrize("field", ["slope", "intercept", "residual_std"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_coefficients_rejected(field, value):
    coeffs = dict(slope=0.5, intercept=0.1, residual_std=0.0)
    coeffs[field] = value
    with pytest.raises(ModelError, match=field):
        QSModel(template_id=1, mpl=2, **coeffs)
