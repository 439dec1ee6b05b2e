import numpy as np
import pytest

from homlab.coefficients import (
    A_PRESETS,
    F_PRESETS,
    W_PRESETS,
    CoefficientModel,
    make_preset,
    validate,
)
from homlab.errors import ConfigurationError


def test_unknown_preset_rejected():
    with pytest.raises(ConfigurationError):
        make_preset("perforated")
    with pytest.raises(ConfigurationError):
        make_preset("identity", w_preset="random")
    with pytest.raises(ConfigurationError):
        make_preset("identity", f_preset="bump")


@pytest.mark.parametrize("a", A_PRESETS)
@pytest.mark.parametrize("w", W_PRESETS)
def test_all_presets_validate_clean(a, w):
    report = validate(make_preset(a, w))
    assert report.ok
    assert report.failures == []
    assert report.symmetry_defect < 1e-14
    assert report.w_mean_abs < 1e-14


@pytest.mark.parametrize("f", F_PRESETS)
def test_load_presets_evaluate(f):
    model = make_preset("identity", f_preset=f)
    vals = model.f_eval(np.linspace(0, 1, 7), np.linspace(0, 1, 7))
    assert vals.shape == (7,)
    assert np.all(np.isfinite(vals))


def test_a_eval_shape_contract():
    model = make_preset("smooth-iso")
    x = np.zeros((3, 4))
    assert model.a_eval(x, x).shape == (3, 4, 2, 2)


def test_layered_ellipticity_window():
    model = make_preset("layered")
    y = np.linspace(0, 1, 257)
    a = model.a_eval(y, y)
    diag = a[..., 0, 0]
    assert diag.min() >= 1.0 - 1e-12
    assert diag.max() <= 3.0 + 1e-12
    assert model.kappa == pytest.approx(1.0 / 3.0)


def test_validate_flags_broken_model_without_raising():
    bad = CoefficientModel(
        a_eval=lambda y1, y2: np.stack(
            [np.stack([np.ones_like(y1), np.ones_like(y1) * 0.5], axis=-1),
             np.stack([np.zeros_like(y1), np.ones_like(y1)], axis=-1)],
            axis=-2),
        w_eval=lambda y1, y2: np.ones_like(np.asarray(y1, dtype=float)),  # mean 1, not 0
        f_eval=lambda x1, x2: np.ones_like(np.asarray(x1, dtype=float)),
        kappa=0.5)
    report = validate(bad)
    assert not report.ok
    assert len(report.failures) >= 2  # asymmetric A and non-mean-zero W
    joined = " ".join(report.failures)
    assert "symmetr" in joined
    assert "mean" in joined
