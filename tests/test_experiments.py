from tdas import ImageDataset, experiments
from tdas.calib import CalibrationError


def test_negative_control_samples_once_when_calibration_declines(monkeypatch, rng):
    # Without a mask the filtered run is the vanilla call, so it is not made
    # a second time; the stubs keep the test from sampling at all.
    reference = ImageDataset(rng.standard_normal((6,) + experiments.SHAPE))
    calls = []

    def generate_samples(model, total_steps, master_seed, freq=None):
        calls.append((total_steps, master_seed, freq))
        return ImageDataset(rng.standard_normal((6,) + experiments.SHAPE))

    def calibrate_from_sets(*args):
        raise CalibrationError("no quantile crossing")

    monkeypatch.setattr(experiments, "_reference", lambda spec: (None, reference))
    monkeypatch.setattr(experiments, "generate_samples", generate_samples)
    monkeypatch.setattr(experiments, "calibrate_from_sets", calibrate_from_sets)
    control = experiments.run_negative_control()
    assert calls == [(experiments.FAST_STEPS, 2000, None)]
    assert control["calibration_failed"] is True
    assert control["sliced_wasserstein_tdas"] == control["sliced_wasserstein_vanilla"]
    assert control["sw_change"] == 0.0
