import logging
import math

import pytest
from hypothesis import example, given, strategies as st

from cavsim.control import ControlGains, GainTable, consensus_accel, lookup_gains
from cavsim.errors import NumericFault
from cavsim.types import TargetView, VehicleState

from estimation_oracle import consensus_accel_raw

GAINS = ControlGains(k=0.5, gamma=0.8, alpha=1)


def ego(r, v):
    return VehicleState(position=r, speed=v, acceleration=0.0, length=5.0, leg="a")


def view(r, v, length=5.0, t_gap=1.5):
    return TargetView(position=r, speed=v, length=length, time_gap=t_gap)


class TestConsensusAccel:
    def test_equilibrium_gives_zero(self):
        # ego exactly one desired headway behind, equal speeds
        v = 10.0
        target_r = 100.0
        ego_r = target_r - 5.0 - v * 1.5
        assert consensus_accel(ego(ego_r, v), view(target_r, v), GAINS) == pytest.approx(0.0, abs=1e-12)

    def test_one_meter_too_close(self):
        v = 10.0
        target_r = 100.0
        ego_r = target_r - 5.0 - v * 1.5 + 1.0
        out = consensus_accel(ego(ego_r, v), view(target_r, v), GAINS)
        assert out == pytest.approx(-0.5, abs=1e-12)

    def test_speed_term(self):
        # spacing term exactly zero, ego 2 m/s faster
        target_r = 100.0
        ego_r = target_r - 5.0 - 12.0 * 1.5
        out = consensus_accel(ego(ego_r, 12.0), view(target_r, 10.0), GAINS)
        assert out == pytest.approx(-0.8, abs=1e-12)

    def test_alpha_zero_silences_output(self):
        # 0.0 times the bracket: a zero of the bracket's sign.
        gains = ControlGains(k=0.5, gamma=0.8, alpha=0)
        out = consensus_accel(ego(0.0, 19.0), view(500.0, 3.0), gains)
        assert out == 0.0 and math.copysign(1.0, out) == -1.0
        out = consensus_accel(ego(0.0, 19.0), view(5.0, 3.0), gains)
        assert out == 0.0 and math.copysign(1.0, out) == 1.0

    @pytest.mark.parametrize("alpha", [0, 1])
    @pytest.mark.parametrize(
        "r_j, v_j",
        [(math.nan, 10.0), (math.inf, 10.0), (-math.inf, 10.0), (100.0, math.nan), (100.0, math.inf)],
    )
    def test_non_finite_input_raises(self, alpha, r_j, v_j):
        # VehicleState rejects a non-finite ego; a non-finite target reaches
        # the law and fails its output check at either alpha.
        gains = ControlGains(k=0.5, gamma=0.8, alpha=alpha)
        with pytest.raises(NumericFault, match="consensus law produced non-finite acceleration"):
            consensus_accel(ego(50.0, 10.0), view(r_j, v_j), gains)

    def test_non_finite_law_output_raises(self):
        # Finite inputs whose spacing overflows.
        with pytest.raises(NumericFault, match="consensus law produced non-finite acceleration"):
            consensus_accel(ego(1.0e308, 10.0), view(-1.0e308, 10.0), GAINS)

    @given(
        r_i=st.floats(-1.0e3, 1.0e3),
        v_i=st.floats(0.0, 40.0),
        r_j=st.floats(-1.0e3, 1.0e3),
        v_j=st.floats(0.0, 40.0),
        length=st.floats(1.0, 20.0),
        t_gap=st.floats(0.1, 3.0),
        k=st.floats(0.01, 5.0),
        gamma=st.floats(0.0, 5.0),
        alpha=st.sampled_from((0, 1)),
    )
    # Reassociating the spacing sum, (r_i + l) - r_j, changes this result's last bit.
    @example(r_i=103.7, v_i=12.3, r_j=131.9, v_j=11.1, length=4.6, t_gap=1.5, k=0.5, gamma=0.8, alpha=1)
    def test_matches_scalar_reference(self, r_i, v_i, r_j, v_j, length, t_gap, k, gamma, alpha):
        gains = ControlGains(k=k, gamma=gamma, alpha=alpha)
        out = consensus_accel(ego(r_i, v_i), view(r_j, v_j, length, t_gap), gains)
        expected = consensus_accel_raw(r_i, v_i, r_j, v_j, length, t_gap, alpha, k, gamma)
        assert out.hex() == expected.hex()

    @given(
        gap_err=st.floats(-30.0, 30.0),
        dv=st.floats(-10.0, 10.0),
        scale=st.floats(0.1, 4.0),
    )
    def test_linearity(self, gap_err, dv, scale):
        v = 10.0
        base = consensus_accel_raw(
            -5.0 - v * 1.5 + gap_err, v, 0.0, v - dv, 5.0, 1.5, 1, 0.5, 0.8
        )
        scaled = consensus_accel_raw(
            -5.0 - v * 1.5 + gap_err * scale, v, 0.0, v - dv * scale, 5.0, 1.5, 1, 0.5, 0.8
        )
        assert scaled == pytest.approx(base * scale, rel=1e-9, abs=1e-9)

    @given(gap_err=st.floats(0.1, 30.0))
    def test_sign_correctness(self, gap_err):
        v = 10.0
        eq_r = -5.0 - v * 1.5
        too_close = consensus_accel_raw(eq_r + gap_err, v, 0.0, v, 5.0, 1.5, 1, 0.5, 0.8)
        too_far = consensus_accel_raw(eq_r - gap_err, v, 0.0, v, 5.0, 1.5, 1, 0.5, 0.8)
        assert too_close < 0.0
        assert too_far > 0.0


class TestGainTable:
    def test_single_bucket_maps_everything(self):
        table = GainTable.single(0.5, 0.8)
        for v_i, v_j, h in [(0.0, 0.0, 0.0), (50.0, 3.0, 900.0), (12.0, 12.0, 25.0)]:
            gains = lookup_gains(table, v_i, v_j, h)
            assert (gains.k, gains.gamma) == (0.5, 0.8)

    def test_below_lowest_edge_clamps_and_warns(self, caplog):
        table = GainTable(
            v_i_edges=(5.0,), v_j_edges=(5.0,), headway_edges=(0.0,),
            entries=((((0.7, 0.9),),),),
        )
        with caplog.at_level(logging.WARNING, logger="cavsim.control"):
            gains = lookup_gains(table, 1.0, 10.0, 20.0)
        assert gains.k == 0.7
        assert any("below lowest bucket edge" in rec.message for rec in caplog.records)

    def test_half_open_bucket_boundary(self):
        table = GainTable(
            v_i_edges=(0.0,), v_j_edges=(0.0,),
            headway_edges=(0.0, 50.0),
            entries=((((0.5, 0.8), (0.3, 0.6)),),),
        )
        low = lookup_gains(table, 10.0, 10.0, 49.999)
        high = lookup_gains(table, 10.0, 10.0, 50.0)
        assert (low.k, low.gamma) == (0.5, 0.8)
        assert (high.k, high.gamma) == (0.3, 0.6)

    def test_totality_validation(self):
        with pytest.raises(ValueError):
            GainTable(
                v_i_edges=(0.0, 10.0), v_j_edges=(0.0,), headway_edges=(0.0,),
                entries=((((0.5, 0.8),),),),  # missing second v_i bucket
            )

    def test_unsorted_edges_rejected(self):
        with pytest.raises(ValueError):
            GainTable(
                v_i_edges=(10.0, 0.0), v_j_edges=(0.0,), headway_edges=(0.0,),
                entries=((((0.5, 0.8),),), (((0.5, 0.8),),)),
            )


def test_gains_validation():
    with pytest.raises(ValueError):
        ControlGains(k=0.0, gamma=0.8)
    with pytest.raises(ValueError):
        ControlGains(k=0.5, gamma=-0.1)
    with pytest.raises(ValueError):
        ControlGains(k=0.5, gamma=0.8, alpha=2)


@pytest.mark.parametrize("alpha", [0.0, 1.0, True, False], ids=["0.0", "1.0", "True", "False"])
def test_alpha_must_be_an_int(alpha):
    # -alpha * k is 0.0 for the int 0 but -0.0 for 0.0, so the law's signed
    # zero would depend on the gain's type.
    with pytest.raises(ValueError, match=f"not {type(alpha).__name__}"):
        ControlGains(k=0.5, gamma=0.8, alpha=alpha)
