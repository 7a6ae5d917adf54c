"""Contract tests for the core value types."""

import copy
import math
import pickle

import numpy as np
import pytest

from gammadep import (
    INFINITY,
    GammaSet,
    GammadepError,
    KernelPairSpec,
    StatTriple,
    gamma_label,
    normalize_gamma,
    validate_sample,
)


class TestValidateSample:
    def test_well_formed(self):
        s = validate_sample([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]], [[1.0], [2.0], [3.0]])
        assert s.n == 3
        assert s.d1 == 2
        assert s.d2 == 1

    def test_row_mismatch(self):
        with pytest.raises(GammadepError) as exc:
            validate_sample(np.zeros((3, 2)), np.zeros((4, 1)))
        assert exc.value.code == "ROW_MISMATCH"

    def test_nan_rejected(self):
        x = np.zeros((3, 2))
        x[1, 0] = np.nan
        with pytest.raises(GammadepError) as exc:
            validate_sample(x, np.zeros((3, 1)))
        assert exc.value.code == "NONFINITE"

    def test_inf_rejected(self):
        y = np.zeros((3, 1))
        y[2, 0] = np.inf
        with pytest.raises(GammadepError) as exc:
            validate_sample(np.zeros((3, 2)), y)
        assert exc.value.code == "NONFINITE"

    def test_empty(self):
        with pytest.raises(GammadepError) as exc:
            validate_sample(np.zeros((0, 2)), np.zeros((0, 1)))
        assert exc.value.code == "EMPTY"

    def test_one_dimensional_input_becomes_a_column(self):
        s = validate_sample([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
        assert s.x.shape == (3, 1)

    def test_arrays_are_frozen(self):
        s = validate_sample(np.ones((2, 2)), np.ones((2, 1)))
        with pytest.raises(ValueError):
            s.x[0, 0] = 7.0

    def test_construction_is_byte_for_byte_pure(self):
        rows = [[0.1, 0.2], [0.3, 0.4]]
        a = validate_sample(rows, [[1.0], [2.0]])
        b = validate_sample(rows, [[1.0], [2.0]])
        assert a.x.tobytes() == b.x.tobytes()
        assert a.y.tobytes() == b.y.tobytes()

    def test_caller_mutation_does_not_leak_in(self):
        src = np.ones((2, 2))
        s = validate_sample(src, np.ones((2, 1)))
        src[0, 0] = 99.0
        assert s.x[0, 0] == 1.0


class TestGammaSet:
    def test_order_preserved(self):
        g = GammaSet((3, 1, INFINITY, 2))
        assert g.labels() == ["3", "1", "inf", "2"]

    def test_duplicates_rejected(self):
        with pytest.raises(GammadepError) as exc:
            GammaSet((1, 2, 1))
        assert exc.value.code == "BAD_GAMMA_SET"

    def test_string_inf_duplicates_the_singleton(self):
        with pytest.raises(GammadepError):
            GammaSet(("inf", INFINITY))

    def test_empty_rejected(self):
        with pytest.raises(GammadepError):
            GammaSet(())

    def test_parse(self):
        g = GammaSet.from_string("1,2,3,4,5,6,inf")
        assert len(g) == 7
        assert list(g)[-1] is INFINITY

    def test_nonpositive_rejected(self):
        with pytest.raises(GammadepError):
            GammaSet((0,))

    def test_normalize_gamma(self):
        assert normalize_gamma("inf") is INFINITY
        assert normalize_gamma("4") == 4
        assert gamma_label(INFINITY) == "inf"

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_copies_and_pickles_keep_the_infinity_singleton(self, protocol):
        # protocols 0 and 1 rebuild an object without calling __new__, so
        # the singleton survives them only through _Infinity.__reduce__
        assert copy.copy(INFINITY) is INFINITY and copy.deepcopy(INFINITY) is INFINITY
        assert pickle.loads(pickle.dumps(INFINITY, protocol=protocol)) is INFINITY
        g = pickle.loads(pickle.dumps(GammaSet.default(), protocol=protocol))
        assert g == GammaSet.default() and list(g)[-1] is INFINITY
        assert list(copy.deepcopy(g))[-1] is INFINITY


class TestKernelPairSpec:
    def test_dcov(self):
        spec = KernelPairSpec.dcov()
        assert spec.m == KernelPairSpec("dcov").m == 4
        assert spec.is_pair_dependent

    def test_pcov(self):
        spec = KernelPairSpec.pcov()
        assert spec.m == KernelPairSpec("pcov").m == 5
        assert not spec.is_pair_dependent

    def test_arity_is_read_only(self):
        with pytest.raises(AttributeError):
            KernelPairSpec.dcov().m = 5

    def test_ghsic_factory_equals_constructor(self):
        a = KernelPairSpec.ghsic(1, 2)
        b = KernelPairSpec("ghsic", (1.0, 2.0))
        assert a == b and hash(a) == hash(b)

    def test_ghsic_requires_bandwidths(self):
        with pytest.raises(GammadepError) as exc:
            KernelPairSpec("ghsic")
        assert exc.value.code == "BAD_BANDWIDTH"

    # 2 sigma^2 underflows to 0 at 1e-300 and overflows at 1e308
    @pytest.mark.parametrize(
        "bandwidths", [4, ("a", 1), (1.0,), (1.0, 2.0, 3.0), (1.0, float("nan")), (1e-300, 1.0), (1.0, 1e308)]
    )
    def test_ghsic_bandwidths_must_be_two_positive_reals(self, bandwidths):
        with pytest.raises(GammadepError) as exc:
            KernelPairSpec("ghsic", bandwidths)
        assert exc.value.code == "BAD_BANDWIDTH"

    def test_ghsic_positive_bandwidths(self):
        with pytest.raises(GammadepError):
            KernelPairSpec.ghsic(1.0, -2.0)

    def test_dcov_takes_no_bandwidths(self):
        with pytest.raises(GammadepError):
            KernelPairSpec("dcov", (1.0, 1.0))


class TestStatTriple:
    def test_differences(self):
        t = StatTriple(3.0, 2.0, 1.5)
        assert t.u == 1.5
        assert t.v == 0.5

    def test_nonfinite_rejected(self):
        with pytest.raises(GammadepError):
            StatTriple(np.nan, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("-inf")])
    @pytest.mark.parametrize("slot", range(6))
    def test_nonfinite_in_any_slot_is_coded(self, bad, slot):
        values = [0.5, 0.25, 0.125, 0.375, 0.125, 0.5]
        values[slot] = bad
        with pytest.raises(GammadepError) as exc:
            StatTriple(*values)
        assert exc.value.code == "NONFINITE"
        assert f"{('s1', 's2', 's3', 'u', 'v', 'mu1')[slot]}=" in str(exc.value)

    def test_differences_left_out_come_from_the_estimates(self):
        t = StatTriple(3.0, 2.0, 1.5)
        assert (t.u, t.v, t.mu1) == (1.5, 0.5, 2.0)
        t = StatTriple(3.0, 2.0, 1.5, u=1.25, v=0.75)
        assert (t.u, t.v, t.mu1) == (1.25, 0.75, 2.0)
        assert StatTriple(3.0, 2.0, 1.5, 1.25, 0.75, 2.5).mu1 == 2.5

    def test_numpy_scalars_become_python_floats(self):
        t = StatTriple(np.float64(0.5), np.float32(0.25), np.float64(0.125))
        assert [type(v) for v in (t.s1, t.s2, t.s3)] == [float, float, float]
        assert (t.s1, t.s2, t.s3) == (0.5, 0.25, 0.125)
