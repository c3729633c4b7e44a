"""Vectorized evaluation paths agree with the scalar seed paths (repro.perf)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.figures import fig3_series, fig4_series, fig5_series
from repro.core.kofn import binomial_pmf, binomial_pmf_array
from repro.errors import ParameterError
from repro.models.hw_closed import hw_large, hw_medium, hw_small
from repro.models.sw_options import evaluate_option
from repro.params.defaults import PAPER_HARDWARE
from repro.params.hardware import HardwareParams
from repro.perf import (
    fig3_series_vectorized,
    fig4_series_vectorized,
    fig5_series_vectorized,
    hw_availability_array,
    sweep_vectorized,
)
from repro.perf.vectorized import (
    hw_large_array,
    hw_medium_array,
    hw_small_array,
)

TOLERANCE = 1e-12

SCALAR_MODELS = {"small": hw_small, "medium": hw_medium, "large": hw_large}


def max_series_difference(a, b):
    assert a.parameter == b.parameter
    assert a.grid == pytest.approx(b.grid, abs=0.0)
    assert a.labels == b.labels
    return max(
        abs(x - y)
        for label in a.labels
        for x, y in zip(a.series[label], b.series[label])
    )


class TestBinomialPmfArray:
    def test_matches_scalar(self):
        grid = np.linspace(0.0, 1.0, 21)
        for n in (0, 1, 3, 5):
            for k in range(n + 1):
                expected = [binomial_pmf(k, n, float(p)) for p in grid]
                # numpy's pow may differ from python's by ~1 ulp
                np.testing.assert_allclose(
                    binomial_pmf_array(k, n, grid), expected, rtol=1e-14
                )

    def test_out_of_range_k_is_zero(self):
        grid = np.linspace(0.1, 0.9, 5)
        assert np.all(binomial_pmf_array(4, 3, grid) == 0.0)

    def test_invalid_probability_raises(self):
        with pytest.raises(ParameterError):
            binomial_pmf_array(1, 3, np.array([0.5, 1.5]))


class TestHwArrayModels:
    @pytest.mark.parametrize("name", sorted(SCALAR_MODELS))
    def test_matches_scalar_over_grid(self, name):
        grid = np.linspace(0.9, 1.0, 101)
        vectorized = hw_availability_array(
            name, grid, 0.99995, 0.9999, 0.99999
        )
        for value, a_c in zip(vectorized, grid):
            params = HardwareParams(
                a_role=float(a_c), a_vm=0.99995, a_host=0.9999, a_rack=0.99999
            )
            assert value == pytest.approx(
                SCALAR_MODELS[name](params), abs=TOLERANCE
            )

    def test_broadcasts_mixed_scalars_and_arrays(self):
        grid = np.linspace(0.99, 1.0, 7)
        out = hw_availability_array("large", 0.9999, grid, 0.9999, 0.99999)
        assert out.shape == grid.shape

    def test_unknown_topology_raises(self):
        from repro.errors import ModelError

        with pytest.raises(ModelError):
            hw_availability_array("ring", 0.999, 0.999, 0.999, 0.999)


HW_ARRAY_MODELS = {
    "small": hw_small_array,
    "medium": hw_medium_array,
    "large": hw_large_array,
}

#: ``(a_role, a_vm, a_host, a_rack)`` points for the bit-identity pins:
#: the paper's values, nearby high-availability points, mid-range points
#: and both ends of [0, 1].
PIN_GRID = (
    (0.9995, 0.99995, 0.9999, 0.99999),
    (0.999, 0.9995, 0.9992, 0.9999),
    (0.99999, 0.99995, 0.9999, 0.99999),
    (0.9, 0.95, 0.97, 0.99),
    (0.5, 0.6, 0.7, 0.8),
    (0.3, 1.0, 0.2, 0.9),
    (0.0, 0.5, 0.5, 0.5),
    (1.0, 1.0, 1.0, 1.0),
)

#: ``hw_*_array`` over ``PIN_GRID`` as ``float.hex`` strings, recorded from
#: the kernels that checked every k-of-n block and binomial weight on its
#: own.  Any change in the order of the arithmetic changes a last bit.
HW_PINS = {
    "small": (
        "0x1.fffe85ee4d4b3p-1",
        "0x1.fff0d1362a6efp-1",
        "0x1.fffeade11393dp-1",
        "0x1.d00a6bcfbbdf8p-1",
        "0x1.76cac9bd4dd3cp-5",
        "0x1.820464dfa5aeap-10",
        "0x0.0p+0",
        "0x1.0000000000000p+0",
    ),
    "medium": (
        "0x1.fffe857e3582ep-1",
        "0x1.fff0c17314522p-1",
        "0x1.fffeadc590d46p-1",
        "0x1.cc5f7f5762c3ap-1",
        "0x1.22db550735e43p-6",
        "0x1.66ae9f14081c3p-10",
        "0x0.0p+0",
        "0x1.0000000000000p+0",
    ),
    "large": (
        "0x1.ffffd4272706ep-1",
        "0x1.fffdbca80779bp-1",
        "0x1.fffffd17485fdp-1",
        "0x1.cd017af191785p-1",
        "0x1.163052c8aec35p-7",
        "0x1.3fdff5ef6631dp-15",
        "0x0.0p+0",
        "0x1.0000000000000p+0",
    ),
}

#: The two hardware points of the option pins.
OPTION_HARDWARE = (
    PAPER_HARDWARE,
    replace(
        PAPER_HARDWARE,
        a_role=0.999,
        a_vm=0.9999,
        a_host=0.9995,
        a_rack=0.99995,
    ),
)

#: ``evaluate_option`` ``(cp, shared_dp, local_dp, dp)`` as ``float.hex``
#: strings, keyed by ``(OPTION_HARDWARE index, option)``; recorded from
#: the models that resolved each role's quorum units per conditioning count.
OPTION_PINS = {
    (0, "1S"): (
        "0x1.fffe85f88d43dp-1",
        "0x1.fffeb0748fb42p-1",
        "0x1.fffac1dcec890p-1",
        "0x1.fff97254ebd2ap-1",
    ),
    (0, "2S"): (
        "0x1.fffe5bc65c5c1p-1",
        "0x1.fffeb073a81d2p-1",
        "0x1.ffe08c963ce83p-1",
        "0x1.ffdf3d1e81a80p-1",
    ),
    (0, "1L"): (
        "0x1.ffffd3980862fp-1",
        "0x1.ffffffffdbc55p-1",
        "0x1.fffac1dcec890p-1",
        "0x1.fffac1dcc84ebp-1",
    ),
    (0, "2L"): (
        "0x1.ffffa8febca75p-1",
        "0x1.fffffffee49e2p-1",
        "0x1.ffe08c963ce83p-1",
        "0x1.ffe08c952197cp-1",
    ),
    (1, "1S"): (
        "0x1.fff8dd91ef4a7p-1",
        "0x1.fff972449c3e2p-1",
        "0x1.fffac1dcec890p-1",
        "0x1.fff43432b6b84p-1",
    ),
    (1, "2S"): (
        "0x1.fff8a15b37dbdp-1",
        "0x1.fff9723eef6f9p-1",
        "0x1.ffe08c963ce83p-1",
        "0x1.ffd9ff3c3bb9bp-1",
    ),
    (1, "1L"): (
        "0x1.ffff5cf0016dbp-1",
        "0x1.fffffffa5885bp-1",
        "0x1.fffac1dcec890p-1",
        "0x1.fffac1d7451d8p-1",
    ),
    (1, "2L"): (
        "0x1.ffff1eb2387b9p-1",
        "0x1.fffffff3e2183p-1",
        "0x1.ffe08c963ce83p-1",
        "0x1.ffe08c8a1fbefp-1",
    ),
}


class TestHwArrayInputChecks:
    @pytest.mark.parametrize("name", sorted(HW_ARRAY_MODELS))
    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("bad", [float("nan"), -1e-9, 1.0 + 1e-9])
    def test_rejects_each_input_out_of_range(self, name, index, bad):
        inputs = [
            np.array([0.9995, 0.9999]),
            np.array([0.99995, 0.9999]),
            np.array([0.9999, 0.9999]),
            np.array([0.99999, 0.9999]),
        ]
        inputs[index] = np.array([inputs[index][0], bad])
        with pytest.raises(ParameterError, match="values must be in"):
            HW_ARRAY_MODELS[name](*inputs)

    @pytest.mark.parametrize("name", sorted(HW_ARRAY_MODELS))
    def test_accepts_both_ends_of_the_interval(self, name):
        out = HW_ARRAY_MODELS[name](0.0, 1.0, 0.0, 1.0)
        assert np.isfinite(out)


class TestBitIdentityPins:
    @pytest.mark.parametrize("name", sorted(HW_PINS))
    def test_hw_arrays_match_pins(self, name):
        columns = [np.array(column) for column in zip(*PIN_GRID)]
        values = HW_ARRAY_MODELS[name](*columns)
        assert [float(v).hex() for v in values] == list(HW_PINS[name])

    @pytest.mark.parametrize("key", sorted(OPTION_PINS))
    def test_options_match_pins(self, spec, software, key):
        point, option = key
        result = evaluate_option(
            spec, option, OPTION_HARDWARE[point], software
        )
        got = (result.cp, result.shared_dp, result.local_dp, result.dp)
        assert tuple(v.hex() for v in got) == OPTION_PINS[key]


class TestFigureSeries:
    def test_fig3_matches_scalar_path(self, hardware):
        scalar = fig3_series(hardware, points=41)
        vector = fig3_series_vectorized(hardware, points=41)
        assert max_series_difference(scalar, vector) < TOLERANCE

    def test_fig4_matches_scalar_path(self, spec, hardware, software):
        scalar = fig4_series(spec, hardware, software, points=21)
        vector = fig4_series_vectorized(spec, hardware, software, points=21)
        assert max_series_difference(scalar, vector) < TOLERANCE

    def test_fig5_matches_scalar_path(self, spec, hardware, software):
        scalar = fig5_series(spec, hardware, software, points=21)
        vector = fig5_series_vectorized(spec, hardware, software, points=21)
        assert max_series_difference(scalar, vector) < TOLERANCE

    def test_descending_grid_supported(self, hardware):
        result = fig3_series_vectorized(
            hardware, points=11, role_range=(1.0, 0.999)
        )
        assert result.grid[0] == 1.0 and result.grid[-1] == 0.999
        small = result.series["Small"]
        assert all(a >= b - 1e-15 for a, b in zip(small, small[1:]))


class TestSweepVectorized:
    def test_evaluates_whole_grid(self):
        result = sweep_vectorized("x", [1.0, 2.0, 3.0], {"sq": lambda x: x**2})
        assert result.series["sq"] == (1.0, 4.0, 9.0)

    def test_needs_evaluators(self):
        with pytest.raises(ParameterError):
            sweep_vectorized("x", [1.0, 2.0], {})

    def test_rejects_wrong_shape(self):
        with pytest.raises(ParameterError):
            sweep_vectorized("x", [1.0, 2.0], {"bad": lambda x: x[:1]})
