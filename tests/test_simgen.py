"""Generator and Monte-Carlo driver tests."""

import math

import numpy as np
import pytest

from gammadep import (
    KAPPA_DEFAULTS,
    GammaSet,
    GammadepError,
    KernelPairSpec,
    SimConfig,
    gen_model,
    gen_null,
    mc_population_triple,
    size_power_experiment,
)
from gammadep.simgen import _draw_xy, _rng


class TestGenNull:
    def test_identical_seeds_identical_matrices(self):
        a = gen_null("null-a", 50, 4, seed=11)
        b = gen_null("null-a", 50, 4, seed=11)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, gen_null("null-a", 50, 4, seed=12))

    def test_banded_covariance_recovered(self):
        draws = gen_null("null-a", 100_000, 2, seed=21)
        cov = np.cov(draws.T)
        assert np.allclose(cov, [[1.0, 0.5], [0.5, 1.0]], atol=0.02)

    def test_banded_covariance_d5_band_structure(self):
        draws = gen_null("null-a", 200_000, 5, seed=22)
        cov = np.cov(draws.T)
        assert np.allclose(np.diag(cov), 1.0, atol=0.02)
        assert cov[0, 1] == pytest.approx(0.5, abs=0.02)
        assert cov[0, 2] == pytest.approx(0.0, abs=0.02)

    def test_t3_heavy_tails(self):
        draws = gen_null("null-b", 1_000_000, 1, seed=23).ravel()
        rate = np.mean(np.abs(draws) > 3.0)
        assert rate >= 5 * 0.0027

    def test_unknown_design(self):
        with pytest.raises(GammadepError):
            gen_null("null-c", 10, 2, seed=0)

    @pytest.mark.parametrize("design", ["null-a", "null-b"])
    def test_equals_the_x_block_of_the_simulation_draw(self, design):
        cfg = SimConfig(model=design, n=40, d1=3, d2=2, seed=0)
        x, _ = _draw_xy(cfg, 40, _rng(77))
        assert gen_null(design, 40, 3, seed=77).tobytes() == x.tobytes()


class TestSimConfig:
    def test_kappa_defaults(self):
        for (model, error), kappa in KAPPA_DEFAULTS.items():
            cfg = SimConfig(model=model, n=20, d1=3, d2=3, error=error)
            assert cfg.kappa == kappa

    def test_explicit_kappa_kept(self):
        cfg = SimConfig(model="m1", n=20, d1=3, d2=3, kappa=0.0)
        assert cfg.kappa == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(GammadepError) as exc:
            SimConfig(model="m2", n=20, d1=3, d2=4)
        assert exc.value.code == "BAD_DIM"

    def test_unknown_model(self):
        with pytest.raises(GammadepError):
            SimConfig(model="m9", n=20, d1=3, d2=3)


class TestGenModel:
    def test_m1_noiseless_is_identity(self):
        cfg = SimConfig(model="m1", n=200, d1=4, d2=4, kappa=0.0, seed=31)
        s = gen_model(cfg)
        assert np.array_equal(s.x, s.y)

    def test_m3_noiseless_circle_identity(self):
        cfg = SimConfig(model="m3", n=500, d1=3, d2=3, kappa=0.0, seed=32)
        s = gen_model(cfg)
        assert np.allclose(s.x**2 + s.y**2, 1.0, atol=1e-12)

    def test_m4_rotation_structure(self):
        # noiseless m4 is a rotation of two independent uniforms: x^2 + y^2
        # equals w1^2 + w2^2, so both coordinates stay inside [-sqrt2, sqrt2]
        cfg = SimConfig(model="m4", n=2000, d1=2, d2=2, kappa=0.0, seed=33)
        s = gen_model(cfg)
        assert np.max(np.abs(s.x)) <= math.sqrt(2.0) + 1e-12
        assert np.max(np.abs(s.y)) <= math.sqrt(2.0) + 1e-12

    def test_m5_sign_symmetry(self):
        cfg = SimConfig(model="m5", n=100_000, d1=1, d2=1, seed=34)
        s = gen_model(cfg)
        y = s.y.ravel()
        pos = np.sort(y[y > 0])
        neg = np.sort(-y[y < 0])
        # the two label classes mirror each other: compare central quantiles
        qs = np.linspace(0.05, 0.95, 19)
        assert np.allclose(np.quantile(pos, qs), np.quantile(neg, qs), atol=0.02)

    def test_determinism(self):
        cfg = SimConfig(model="m2", n=50, d1=3, d2=3, seed=35)
        assert np.array_equal(gen_model(cfg).y, gen_model(cfg).y)

    def test_null_designs_not_served_here(self):
        cfg = SimConfig(model="null-a", n=20, d1=3, d2=3, seed=36)
        with pytest.raises(GammadepError):
            gen_model(cfg)


class TestMcPopulationTriple:
    def test_sum_is_exactly_u_plus_v(self):
        cfg = SimConfig(model="m1", n=4, d1=3, d2=3, seed=41)
        t = mc_population_triple(cfg, KernelPairSpec.dcov(), 20_000, seed=41)
        assert t.sum == t.u + t.v

    def test_independence_gives_zeros(self):
        cfg = SimConfig(model="null-a", n=4, d1=3, d2=3, seed=42)
        t = mc_population_triple(cfg, KernelPairSpec.dcov(), 200_000, seed=42)
        assert abs(t.u) <= 3 * t.se_u
        assert abs(t.v) <= 3 * t.se_v
        assert abs(t.sum) <= 3 * t.se_sum

    def test_m1_d5_matches_reference_population_values(self):
        cfg = SimConfig(model="m1", n=4, d1=5, d2=5, error="normal", seed=43)
        t = mc_population_triple(cfg, KernelPairSpec.dcov(), 300_000, seed=43)
        assert t.u == pytest.approx(0.073, abs=3 * t.se_u + 5e-4)
        assert t.v == pytest.approx(-0.012, abs=3 * t.se_v + 5e-4)

    def test_pcov_population_runs(self):
        cfg = SimConfig(model="m3", n=5, d1=2, d2=2, seed=44)
        t = mc_population_triple(cfg, KernelPairSpec.pcov(), 20_000, seed=44)
        assert t.n_mc == 20_000
        assert math.isfinite(t.u) and math.isfinite(t.v)

    def test_sign_patterns_hold_for_t3_errors(self):
        # heavy-tailed error family: the first difference stays positive for
        # the linear model and negative for the circle model
        spec = KernelPairSpec.dcov()
        m1 = mc_population_triple(
            SimConfig(model="m1", n=4, d1=5, d2=5, error="t3", seed=1), spec, 800_000, seed=45
        )
        assert m1.u > 3 * m1.se_u and m1.v < -3 * m1.se_v
        m3 = mc_population_triple(
            SimConfig(model="m3", n=4, d1=5, d2=5, error="t3", seed=1), spec, 400_000, seed=46
        )
        assert m3.u < -3 * m3.se_u and m3.v > 3 * m3.se_v


class TestSizePowerExperiment:
    def test_reps_floor(self):
        cfg = SimConfig(model="null-a", n=30, d1=2, d2=2, reps=50, b_count=20, seed=51)
        with pytest.raises(GammadepError) as exc:
            size_power_experiment(cfg, GammaSet((1, 2)))
        assert exc.value.code == "TOO_FEW_REPS"

    def test_null_smoke_and_table_shape(self):
        cfg = SimConfig(model="null-a", n=40, d1=2, d2=2, reps=100, b_count=60, seed=52)
        res = size_power_experiment(cfg, GammaSet((1, 2)), combiners=("fisher",))
        assert res.methods == ("T1", "T2", "fisher")
        assert res.pvalues.shape == (100, 3)
        for m in res.methods:
            assert 0.0 <= res.rate(m) <= 0.15  # loose smoke window under the null
        doc = res.to_table_dict()
        assert doc["rows"][0]["method"] == "T1"
        assert "rate" in doc["rows"][0]
        text = res.to_text()
        assert "fisher" in text

    def test_thread_invariance(self):
        cfg = SimConfig(model="m1", n=30, d1=2, d2=2, reps=100, b_count=40, seed=53)
        a = size_power_experiment(cfg, GammaSet((1, 2)), combiners=("fisher",), threads=1)
        b = size_power_experiment(cfg, GammaSet((1, 2)), combiners=("fisher",), threads=3)
        assert np.array_equal(a.pvalues, b.pvalues)
        assert a.rejections == b.rejections

    def test_worker_count_capped_at_cpu_count(self, monkeypatch):
        import os

        from gammadep import inference

        seen = []
        real_pool = inference.ThreadPoolExecutor

        def recording_pool(max_workers):
            seen.append(max_workers)
            return real_pool(max_workers=max_workers)

        cfg = SimConfig(model="null-b", n=12, d1=2, d2=2, reps=100, b_count=9, seed=56)
        serial = size_power_experiment(cfg, GammaSet((1, 2)), combiners=("fisher",), threads=1)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(inference, "ThreadPoolExecutor", recording_pool)
        capped = size_power_experiment(cfg, GammaSet((1, 2)), combiners=("fisher",), threads=8)
        assert seen and max(seen) <= 2
        assert capped == serial
        assert np.array_equal(capped.pvalues, serial.pvalues)

    def test_noiseless_linear_power_is_one(self):
        cfg = SimConfig(model="m1", n=30, d1=2, d2=2, kappa=0.0, reps=100, b_count=60, seed=54)
        res = size_power_experiment(cfg, GammaSet((1, 2, 3)), combiners=("fisher",))
        for m in res.methods:
            assert res.rate(m) == 1.0

    def test_m4_power_reversal(self):
        # rotation model: the classical exponent is blind, the squared one
        # sees the dependence
        cfg = SimConfig(
            model="m4", n=100, d1=5, d2=5, error="normal", reps=300, b_count=200, seed=55
        )
        res = size_power_experiment(cfg, GammaSet((1, 2)), combiners=("fisher",), threads=4)
        assert res.rate("T1") <= 0.12
        assert res.rate("T2") >= 0.95
