"""Generator and Monte-Carlo driver tests."""

import math
from dataclasses import replace

import numpy as np
import pytest

from gammadep import (
    KAPPA_DEFAULTS,
    GammaSet,
    GammadepError,
    KernelPairSpec,
    SimConfig,
    gen_model,
    mc_population_triple,
    size_power_experiment,
)
from gammadep.simgen import _MC_BATCH, _band, _draw_error, _rng


def null_x(design, n, d, seed):
    return gen_model(SimConfig(model=design, n=n, d1=d, d2=d, seed=seed)).x


class TestGenNull:
    def test_identical_seeds_identical_matrices(self):
        a = null_x("null-a", 50, 4, seed=11)
        b = null_x("null-a", 50, 4, seed=11)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, null_x("null-a", 50, 4, seed=12))

    def test_banded_covariance_recovered(self):
        draws = null_x("null-a", 100_000, 2, seed=21)
        cov = np.cov(draws.T)
        assert np.allclose(cov, [[1.0, 0.5], [0.5, 1.0]], atol=0.02)

    def test_banded_covariance_d5_band_structure(self):
        draws = null_x("null-a", 200_000, 5, seed=22)
        cov = np.cov(draws.T)
        assert np.allclose(np.diag(cov), 1.0, atol=0.02)
        assert cov[0, 1] == pytest.approx(0.5, abs=0.02)
        assert cov[0, 2] == pytest.approx(0.0, abs=0.02)

    @pytest.mark.parametrize("d", [1, 2, 5, 300])
    def test_band_is_the_cholesky_factor(self, d):
        # LAPACK is the oracle here only: the draw takes no matrix product
        sigma = np.eye(d) + 0.5 * (np.eye(d, k=1) + np.eye(d, k=-1))
        want = np.linalg.cholesky(sigma)
        diag, sub = _band(d)
        got = np.diag(diag) + np.diag(sub, k=-1)
        assert np.all(np.abs(got - want) <= 2 * np.spacing(want))
        draw = _draw_error(_rng(d), 40, d, "normal")
        assert np.allclose(draw, _rng(d).standard_normal((40, d)) @ want.T, rtol=0.0, atol=1e-14)

    def test_t3_heavy_tails(self):
        draws = null_x("null-b", 1_000_000, 1, seed=23).ravel()
        rate = np.mean(np.abs(draws) > 3.0)
        assert rate >= 5 * 0.0027

    def test_unknown_design(self):
        with pytest.raises(GammadepError) as exc:
            null_x("null-c", 10, 2, seed=0)
        assert exc.value.code == "BAD_MODEL"

    @pytest.mark.parametrize("design", ["null-a", "null-b"])
    def test_equals_the_x_block_of_the_simulation_draw(self, design):
        # x is drawn first from the seed's Philox key, so the x block of a
        # null sample is byte-for-byte one lone draw of its error family
        cfg = SimConfig(model=design, n=40, d1=3, d2=2, seed=77)
        lone = _draw_error(_rng(77), 40, 3, {"null-a": "normal", "null-b": "t3"}[design])
        assert gen_model(cfg).x.tobytes() == lone.tobytes()


class TestSimConfig:
    def test_kappa_defaults(self):
        for (model, error), kappa in KAPPA_DEFAULTS.items():
            cfg = SimConfig(model=model, n=20, d1=3, d2=3, error=error)
            assert cfg.kappa == kappa

    def test_explicit_kappa_kept(self):
        cfg = SimConfig(model="m1", n=20, d1=3, d2=3, kappa=0.0)
        assert cfg.kappa == 0.0

    @pytest.mark.parametrize("model, family", [("null-a", "normal"), ("null-b", "t3"), ("m1", "normal")])
    def test_error_defaults_to_the_design_family(self, model, family):
        assert SimConfig(model=model, n=20, d1=3, d2=3).error == family
        assert SimConfig(model=model, n=20, d1=3, d2=3, error=family) == SimConfig(model=model, n=20, d1=3, d2=3)

    @pytest.mark.parametrize(
        "overrides, code",
        [
            ({"model": "null-a", "error": "t3"}, "BAD_ERROR"),
            ({"model": "null-b", "error": "normal"}, "BAD_ERROR"),
            ({"model": "null-a", "kappa": 0.7}, "BAD_KAPPA"),
            ({"model": "null-b", "kappa": 0.0}, "BAD_KAPPA"),
            ({"model": "m1", "seed": -1}, "SEED_RANGE"),
            ({"model": "m1", "seed": 2**64}, "SEED_RANGE"),
            ({"model": "m1", "seed": 1.5}, "SEED_RANGE"),
            ({"model": "m1", "seed": "7"}, "SEED_RANGE"),
        ],
    )
    def test_inputs_that_cannot_apply_are_refused(self, overrides, code):
        # a null design draws its own family and has no noise scale, so
        # these would change only the echo; a seed is keyed mod 2^64
        with pytest.raises(GammadepError) as exc:
            SimConfig(n=20, d1=3, d2=3, **overrides)
        assert exc.value.code == code

    def test_numpy_seed_is_stored_as_a_python_int(self):
        cfg = SimConfig(model="m1", n=20, d1=3, d2=3, seed=np.uint64(7))
        assert type(cfg.seed) is int
        assert cfg == SimConfig(model="m1", n=20, d1=3, d2=3, seed=7)

    def test_dimension_mismatch(self):
        with pytest.raises(GammadepError) as exc:
            SimConfig(model="m2", n=20, d1=3, d2=4)
        assert exc.value.code == "BAD_DIM"

    def test_unknown_model(self):
        with pytest.raises(GammadepError):
            SimConfig(model="m9", n=20, d1=3, d2=3)

    @pytest.mark.parametrize(
        "model, d1, d2",
        [("null-a", 0, 0), ("null-a", 3, 0), ("null-b", 0, 3), ("null-b", -1, -1), ("m1", 0, 0), ("m1", -1, -1)],
    )
    def test_nonpositive_dimension(self, model, d1, d2):
        with pytest.raises(GammadepError) as exc:
            SimConfig(model=model, n=20, d1=d1, d2=d2)
        assert exc.value.code == "BAD_DIM"


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

    def test_null_designs_served(self):
        for design in ("null-a", "null-b"):
            cfg = SimConfig(model=design, n=20, d1=3, d2=2, seed=36)
            s = gen_model(cfg)
            assert (s.x.shape, s.y.shape) == ((20, 3), (20, 2))


class TestMcPopulationTriple:
    def test_sum_is_exactly_u_plus_v(self):
        cfg = SimConfig(model="m1", n=4, d1=3, d2=3, seed=41)
        t = mc_population_triple(cfg, KernelPairSpec.dcov(), 20_000)
        assert t.sum == t.u + t.v

    def test_independence_gives_zeros(self):
        cfg = SimConfig(model="null-a", n=4, d1=3, d2=3, seed=42)
        t = mc_population_triple(cfg, KernelPairSpec.dcov(), 200_000)
        assert abs(t.u) <= 3 * t.se_u
        assert abs(t.v) <= 3 * t.se_v
        assert abs(t.sum) <= 3 * t.se_sum

    def test_m1_d5_matches_reference_population_values(self):
        cfg = SimConfig(model="m1", n=4, d1=5, d2=5, error="normal", seed=43)
        t = mc_population_triple(cfg, KernelPairSpec.dcov(), 300_000)
        assert t.u == pytest.approx(0.073, abs=3 * t.se_u + 5e-4)
        assert t.v == pytest.approx(-0.012, abs=3 * t.se_v + 5e-4)

    @pytest.mark.parametrize("kappa", [1e154, 1e308])
    def test_overflowing_noise_is_coded(self, kappa):
        cfg = SimConfig(model="m1", n=4, d1=1, d2=1, kappa=kappa, seed=47)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(GammadepError) as exc:
            mc_population_triple(cfg, KernelPairSpec.dcov(), 200)
        assert exc.value.code == "NONFINITE"

    def test_pcov_population_runs(self):
        cfg = SimConfig(model="m3", n=5, d1=2, d2=2, seed=44)
        t = mc_population_triple(cfg, KernelPairSpec.pcov(), 20_000)
        assert t.n_mc == 20_000
        assert math.isfinite(t.u) and math.isfinite(t.v)

    def test_sign_patterns_hold_for_t3_errors(self):
        # heavy-tailed error family: the first difference stays positive for
        # the linear model and negative for the circle model
        spec = KernelPairSpec.dcov()
        m1 = mc_population_triple(
            SimConfig(model="m1", n=4, d1=5, d2=5, error="t3", seed=45), spec, 800_000
        )
        assert m1.u > 3 * m1.se_u and m1.v < -3 * m1.se_v
        m3 = mc_population_triple(
            SimConfig(model="m3", n=4, d1=5, d2=5, error="t3", seed=46), spec, 400_000
        )
        assert m3.u < -3 * m3.se_u and m3.v > 3 * m3.se_v


# mc_population_triple(...).to_dict() recorded before its four kernel streams
# moved onto kernels.kernel_values; the values must come back bit for bit.
# The normal-noise entries (dcov-m1-d3, pcov-m3-d2) were re-pinned in their
# last bits when the banded draw became its two-term band combination; at
# d = 1 the band is the identity, so ghsic-null-a-d1 did not move.
PINNED_POPULATIONS = [
    (
        SimConfig(model="m1", n=50, d1=3, d2=3),
        KernelPairSpec.dcov(),
        11,
        {
            "u": 0.04412427818347318,
            "v": -0.051201352200168755,
            "sum": -0.007077074016695578,
            "se_u": 0.0204830677719123,
            "se_v": 0.02023599922445868,
            "se_sum": 0.03350957815007059,
            "n_mc": 20000,
        },
    ),
    (
        SimConfig(model="null-a", n=50, d1=1, d2=1),
        KernelPairSpec.ghsic(0.7, 1.3),
        12,
        {
            "u": -0.0005788662830636106,
            "v": 0.00044980854187021526,
            "sum": -0.0001290577411933953,
            "se_u": 0.0007514377457807366,
            "se_v": 0.0007450156852885526,
            "se_sum": 0.0012552336063791209,
            "n_mc": 20000,
        },
    ),
    (
        SimConfig(model="m3", n=50, d1=2, d2=2),
        KernelPairSpec.pcov(),
        13,
        {
            "u": -0.006205407071012553,
            "v": -0.002253632430011839,
            "sum": -0.008459039501024392,
            "se_u": 0.008667165378557636,
            "se_v": 0.008725109833628413,
            "se_sum": 0.01448571752353317,
            "n_mc": 20000,
        },
    ),
    # three batches, so the sums are combined across batches
    (
        SimConfig(model="m2", n=50, d1=2, d2=2, error="t3"),
        KernelPairSpec.dcov(),
        14,
        {
            "u": 0.02635853996281858,
            "v": -0.011972125483072539,
            "sum": 0.01438641447974604,
            "se_u": 0.001349812406469069,
            "se_v": 0.0013829954121934106,
            "se_sum": 0.002299752890548482,
            "n_mc": 2 * _MC_BATCH + 1,
        },
    ),
]


@pytest.mark.parametrize(
    "cfg,spec,seed,want",
    PINNED_POPULATIONS,
    ids=["dcov-m1-d3", "ghsic-null-a-d1", "pcov-m3-d2", "dcov-m2-t3-d2-3-batches"],
)
def test_population_values_are_pinned(cfg, spec, seed, want):
    assert mc_population_triple(replace(cfg, seed=seed), spec, want["n_mc"]).to_dict() == want


# size_power_experiment p-value tables, each entry k of p = k / (B + 1),
# recorded before the report step left the simulation path; a change that
# moves them edits these pins and names the moved entries
PINNED_TABLE_CONFIG = SimConfig(model="m1", n=30, d1=2, d2=2, reps=100, b_count=19, seed=57)
PINNED_TABLES = {
    ("dcov", "strict"): {
        "T1": (
            "1 3 1 1 2 1 3 1 1 1 1 18 2 4 2 3 4 1 7 2 1 1 1 1 2 1 1 1 1 4 1 4 1 5 1 1 6 1 1 1 4 3 1 3 "
            "1 1 1 2 1 5 5 1 1 4 1 1 3 1 1 1 1 1 1 3 2 1 4 18 13 1 1 2 11 1 4 1 1 1 1 5 1 1 1 1 1 5 1 "
            "1 2 1 1 1 15 6 1 1 1 1 1 3"
        ),
        "T2": (
            "1 1 1 1 13 7 3 1 1 8 1 3 7 6 9 2 17 5 11 8 1 5 1 1 10 11 1 1 1 4 1 3 3 15 1 1 4 1 1 1 4 "
            "1 1 10 1 2 4 1 1 7 1 1 1 9 1 1 12 4 1 1 1 1 1 1 4 1 11 13 20 10 1 8 8 1 10 1 2 5 2 17 1 "
            "2 4 2 2 5 1 3 11 1 11 5 19 20 2 1 1 3 1 5"
        ),
        "fisher": (
            "1 1 1 1 2 2 3 1 1 1 1 6 3 3 3 2 10 1 10 3 1 2 1 1 4 1 1 1 1 3 1 4 1 9 1 1 4 1 1 1 4 2 1 "
            "5 1 1 1 1 1 7 2 1 1 5 1 1 6 1 1 1 1 1 1 1 2 1 6 19 18 1 1 3 12 1 5 1 1 1 1 10 1 1 1 1 1 "
            "3 1 1 5 1 1 2 20 14 1 1 1 1 1 4"
        ),
        "cauchy": (
            "1 1 1 1 2 2 3 1 1 1 1 12 3 3 3 2 14 1 8 2 1 1 1 1 4 1 1 1 1 4 1 4 1 8 1 1 4 1 1 1 4 2 1 "
            "5 1 1 1 1 1 8 1 1 1 5 1 1 4 1 1 1 1 1 1 1 3 1 6 16 19 1 1 3 10 1 5 1 1 1 1 14 1 1 1 1 1 "
            "3 1 1 3 1 1 2 20 17 1 1 1 1 1 4"
        ),
    },
    ("dcov", "inclusive"): {
        "T1": (
            "1 3 1 1 2 1 3 1 1 1 1 18 2 4 2 3 4 1 7 2 1 1 1 1 2 1 1 1 1 4 1 4 1 5 1 1 6 1 1 1 4 3 1 3 "
            "1 1 1 2 1 5 5 1 1 4 1 1 3 1 1 1 1 1 1 3 2 1 4 18 13 1 1 2 11 1 4 1 1 1 1 5 1 1 1 1 1 5 1 "
            "1 2 1 1 1 15 6 1 1 1 1 1 3"
        ),
        "T2": (
            "1 1 1 1 13 7 3 1 1 8 1 3 7 6 9 2 17 5 11 8 1 5 1 1 10 11 1 1 1 4 1 3 3 15 1 1 4 1 1 1 4 "
            "1 1 10 1 2 4 1 1 7 1 1 1 9 1 1 12 4 1 1 1 1 1 1 4 1 11 13 20 10 1 8 8 1 10 1 2 5 2 17 1 "
            "2 4 2 2 5 1 3 11 1 11 5 19 20 2 1 1 3 1 5"
        ),
        "fisher": (
            "1 2 1 1 2 2 3 1 1 1 1 6 3 3 3 3 10 1 10 3 1 2 1 1 4 2 1 1 1 3 1 4 1 9 1 1 5 1 1 1 4 2 1 "
            "5 1 1 2 1 1 7 3 1 1 5 1 1 6 1 1 1 1 1 1 1 2 1 6 19 18 1 1 3 12 1 6 1 1 1 1 10 1 1 1 2 1 "
            "3 1 1 5 1 1 2 20 15 1 1 1 1 1 4"
        ),
        "cauchy": (
            "1 2 1 1 2 2 3 1 1 1 1 12 3 3 3 3 14 1 8 2 1 1 1 1 4 2 1 1 1 4 1 4 1 8 1 1 4 1 1 1 4 2 1 "
            "5 1 1 1 1 1 8 2 1 1 5 1 1 4 1 1 1 1 1 1 1 3 1 6 16 19 1 1 3 10 1 5 1 1 1 1 14 1 1 1 2 1 "
            "3 1 1 3 1 1 2 20 18 1 1 1 1 1 4"
        ),
    },
    ("ghsic", "strict"): {
        "T1": (
            "1 4 1 1 2 1 2 1 1 2 1 19 2 6 2 3 4 1 6 4 1 1 1 1 2 1 1 2 1 6 1 5 1 5 1 1 9 1 1 1 4 1 1 3 "
            "1 1 1 2 1 6 5 1 1 3 1 1 4 1 1 1 1 1 1 3 2 1 4 18 12 1 1 2 8 1 4 1 1 1 1 7 1 1 1 1 1 5 1 "
            "1 2 1 1 2 13 7 1 1 1 1 1 3"
        ),
        "T2": (
            "1 1 1 1 14 7 3 1 1 7 1 4 6 8 5 3 18 5 10 7 1 4 1 1 8 7 1 1 1 4 1 4 2 15 1 1 5 1 1 1 5 1 "
            "1 12 1 1 1 1 1 7 1 1 1 9 1 1 13 3 1 1 1 1 1 1 4 1 13 13 19 12 1 9 9 1 10 1 3 5 1 19 1 1 "
            "4 2 2 5 1 3 12 1 9 8 20 19 2 1 1 2 1 5"
        ),
        "fisher": (
            "1 1 1 1 2 2 3 1 1 1 1 9 3 7 2 3 8 1 7 5 1 1 1 1 3 1 1 1 1 4 1 4 1 9 1 1 8 1 1 1 4 1 1 6 "
            "1 1 1 1 1 8 2 1 1 5 1 1 8 1 1 1 1 1 1 1 2 1 7 18 18 1 1 3 11 1 6 1 1 2 1 15 1 1 1 1 1 5 "
            "1 1 4 1 1 5 20 14 1 1 1 1 1 3"
        ),
        "cauchy": (
            "1 1 1 1 2 2 3 1 1 3 1 18 3 6 2 3 15 1 6 5 1 1 1 1 3 1 1 1 1 5 1 4 1 7 1 1 7 1 1 1 4 1 1 "
            "6 1 1 1 1 1 7 2 1 1 5 1 1 7 1 1 1 1 1 1 1 3 1 7 16 20 1 1 3 10 1 5 1 1 2 1 18 1 1 1 1 1 "
            "5 1 1 4 1 1 5 20 18 1 1 1 1 1 3"
        ),
    },
    ("ghsic", "inclusive"): {
        "T1": (
            "1 4 1 1 2 1 2 1 1 2 1 19 2 6 2 3 4 1 6 4 1 1 1 1 2 1 1 2 1 6 1 5 1 5 1 1 9 1 1 1 4 1 1 3 "
            "1 1 1 2 1 6 5 1 1 3 1 1 4 1 1 1 1 1 1 3 2 1 4 18 12 1 1 2 8 1 4 1 1 1 1 7 1 1 1 1 1 5 1 "
            "1 2 1 1 2 13 7 1 1 1 1 1 3"
        ),
        "T2": (
            "1 1 1 1 14 7 3 1 1 7 1 4 6 8 5 3 18 5 10 7 1 4 1 1 8 7 1 1 1 4 1 4 2 15 1 1 5 1 1 1 5 1 "
            "1 12 1 1 1 1 1 7 1 1 1 9 1 1 13 3 1 1 1 1 1 1 4 1 13 13 19 12 1 9 9 1 10 1 3 5 1 19 1 1 "
            "4 2 2 5 1 3 12 1 9 8 20 19 2 1 1 2 1 5"
        ),
        "fisher": (
            "1 1 1 1 2 2 3 1 1 1 1 9 3 7 2 3 8 1 7 5 1 2 1 1 3 1 1 2 1 4 1 4 1 9 1 1 8 1 1 1 4 1 1 6 "
            "1 1 1 1 1 8 2 1 1 5 1 1 8 1 1 1 1 1 1 1 2 1 7 18 18 1 1 3 12 1 6 1 2 2 1 15 1 1 2 2 1 5 "
            "1 1 4 1 1 5 20 14 1 1 1 1 1 4"
        ),
        "cauchy": (
            "1 1 1 1 2 2 3 1 1 3 1 18 3 6 2 3 15 1 6 5 1 1 1 1 3 1 1 2 1 5 1 4 1 7 1 1 7 1 1 1 4 1 1 "
            "6 1 1 1 1 1 7 2 1 1 5 1 1 7 1 1 1 1 1 1 1 3 1 7 16 20 1 1 3 11 1 5 1 2 2 1 18 1 1 2 2 1 "
            "5 1 1 4 1 1 5 20 18 1 1 1 1 1 4"
        ),
    },
}


@pytest.mark.parametrize("kernel,tie_mode", list(PINNED_TABLES))
def test_pvalue_tables_are_pinned(kernel, tie_mode):
    cfg = PINNED_TABLE_CONFIG
    res = size_power_experiment(
        cfg, GammaSet((1, 2)), combiners=("fisher", "cauchy"), kernel=kernel, tie_mode=tie_mode
    )
    want = PINNED_TABLES[(kernel, tie_mode)]
    assert res.methods == tuple(want)
    counts = np.array([[int(k) for k in col.split()] for col in want.values()]).T
    assert np.array_equal(res.pvalues, counts / (cfg.b_count + 1))


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

    @staticmethod
    def _record_chunks(monkeypatch, cpu_count):
        """Patch the CPU count and record (label, blocks) of every forked fill."""
        import os

        from gammadep import inference

        seen = []
        real_fill = inference._forked_fill

        def recording_fill(fill, rows, blocks, label):
            seen.append((label, len(blocks)))
            return real_fill(fill, rows, blocks, label)

        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        monkeypatch.setattr(inference, "_forked_fill", recording_fill)
        return seen

    def test_worker_count_capped_at_cpu_count(self, monkeypatch):
        from gammadep import inference

        # from reps B n^2 = inference._FORK_MIN_WORK on the experiment forks
        # contiguous replication chunks, and each replication's pool runs
        # serially in its chunk: at n = 200 (8e8) one fill of 2 chunks and
        # no pool fork, though one pool's B n^2 = 8e6 alone would fork;
        # n = 12 (2.9e6): no fork at all
        assert 100 * 200 * 12**2 < inference._FORK_MIN_WORK <= 200 * 200**2
        for n, forks in ((200, [("rep", 2)]), (12, [])):
            cfg = SimConfig(model="null-b", n=n, d1=2, d2=2, reps=100, b_count=200, seed=56)
            with monkeypatch.context() as patch:
                serial = size_power_experiment(cfg, GammaSet((1, 2)), combiners=("fisher",), threads=1)
                seen = self._record_chunks(patch, cpu_count=2)
                capped = size_power_experiment(cfg, GammaSet((1, 2)), combiners=("fisher",), threads=8)
            assert seen == forks
            assert capped == serial
            assert np.array_equal(capped.pvalues, serial.pvalues)

    def test_thread_invariance_where_the_chunks_fork(self, monkeypatch):
        from gammadep import inference

        # reps B n^2 = 100 x 200 x 20^2 is the fork threshold
        assert 100 * 200 * 20**2 == inference._FORK_MIN_WORK
        cfg = SimConfig(model="null-a", n=20, d1=3, d2=3, reps=100, b_count=200, seed=60)
        seen = self._record_chunks(monkeypatch, cpu_count=3)
        tables = [size_power_experiment(cfg, GammaSet.default(), threads=t).pvalues for t in (1, 2, 3)]
        assert seen == [("rep", 2), ("rep", 3)]
        assert np.array_equal(tables[0], tables[1])
        assert np.array_equal(tables[0], tables[2])

    def test_chunks_are_capped_at_the_replication_peaks_that_fit(self, monkeypatch):
        # chunks share no matrices, so each adds one replication's peak; at
        # n = 300, B = 1 (9e6) the experiment forks unless memory holds
        # fewer than two of them, and the table never changes
        from gammadep import inference, kernels

        cfg = SimConfig(model="null-a", n=300, d1=2, d2=2, reps=100, b_count=1, seed=62)
        serial = size_power_experiment(cfg, GammaSet((1, 2)), threads=1)
        one = inference.pool_run_bytes(300, 2, "dcov", 2, 2)
        for avail, forks in ((int(1.5 * one), []), (int(2.5 * one), [("rep", 2)])):
            with monkeypatch.context() as patch:
                seen = self._record_chunks(patch, cpu_count=2)
                patch.setattr(kernels, "_mem_available", lambda: avail)
                got = size_power_experiment(cfg, GammaSet((1, 2)), threads=2)
            assert seen == forks
            assert np.array_equal(got.pvalues, serial.pvalues)

    def test_a_serial_replication_is_admitted_on_its_one_process_model(self, monkeypatch):
        # each replication's pool runs in one process, so the pair's check
        # counts one walker whatever the CPU count: at 1.5x one
        # replication's peak (``pool_run_bytes``) a threads=1 experiment
        # gives the unpatched table, not TOO_LARGE for a walker it never
        # starts
        from gammadep import inference, kernels

        cfg = SimConfig(model="null-a", n=20, d1=2, d2=2, reps=100, b_count=19, seed=63)
        want = size_power_experiment(cfg, GammaSet((1, 2)), threads=1)
        avail = int(1.5 * inference.pool_run_bytes(20, 2, "dcov", 20, 2))
        seen = self._record_chunks(monkeypatch, cpu_count=2)
        monkeypatch.setattr(kernels, "_mem_available", lambda: avail)
        got = size_power_experiment(cfg, GammaSet((1, 2)), threads=1)
        assert seen == []
        assert got == want
        assert np.array_equal(got.pvalues, want.pvalues)

    @pytest.mark.parametrize(
        "combiners, tie_mode",
        [(("fisher", "max"), "strict"), (("min", "min"), "strict"), (("fisher",), "ties-up")],
        ids=["unknown-combiner", "repeated-combiner", "unknown-tie-mode"],
    )
    def test_bad_plan_is_refused_before_any_draw(self, monkeypatch, combiners, tie_mode):
        from gammadep import PermutationPlan, permutation_test, simgen, validate_sample

        # the refusal a single test gives for the same plan
        sample = validate_sample(np.arange(8.0).reshape(4, 2), np.ones((4, 1)))
        plan = PermutationPlan(9, 1)
        with pytest.raises(GammadepError) as single:
            permutation_test(sample, KernelPairSpec.dcov(), GammaSet((1,)), plan, combiners, tie_mode=tie_mode)
        draws = []
        real = simgen.gen_model
        monkeypatch.setattr(simgen, "gen_model", lambda *a: draws.append(a) or real(*a))
        cfg = SimConfig(model="null-a", n=20, d1=2, d2=2, reps=100, b_count=9, seed=58)
        with pytest.raises(GammadepError) as exc:
            size_power_experiment(cfg, GammaSet((1, 2)), combiners, kernel="ghsic", tie_mode=tie_mode)
        assert (exc.value.code, str(exc.value)) == ("BAD_PLAN", str(single.value))
        assert draws == []

    def test_replicates_build_no_report(self, monkeypatch):
        from gammadep import inference, simgen

        cfg = SimConfig(model="m1", n=24, d1=2, d2=2, reps=100, b_count=19, seed=59)
        want = size_power_experiment(cfg, GammaSet((1, 2)), kernel="ghsic")

        def refuse(*args, **kwargs):
            raise AssertionError("a replicate reached the report step")

        for name in (
            "permutation_test",
            "jackknife_fast",
            "permutation_sigma0_sq",
            "asymptotic_pvalue",
            "TestReport",
            "GammaResult",
            "CombinedResult",
        ):
            for mod in (inference, simgen):
                monkeypatch.setattr(mod, name, refuse, raising=False)
        got = size_power_experiment(cfg, GammaSet((1, 2)), kernel="ghsic")
        assert np.array_equal(got.pvalues, want.pvalues)

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
