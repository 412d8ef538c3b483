from __future__ import annotations

import dataclasses
import sys

import pytest
from hypothesis import given, strategies as st

from hetmarket.valuation import UrgencyState, channel_valuation

from oracles import record_outcome, urgency_factor


def state(losses=0, base=1.0, ceiling=2.0, saturation=5):
    return UrgencyState(
        base_value_per_mbps=base,
        max_value_per_mbps=ceiling,
        consecutive_losses=losses,
        saturation_losses=saturation,
    )


class TestFactor:
    def test_three_losses_on_unit_spread(self):
        # Increment is (2 - 1) / 5 = 0.2 per loss.
        assert state(losses=3).value_per_mbps == pytest.approx(1.6)

    def test_fresh_state_sits_at_baseline(self):
        assert state(losses=0).value_per_mbps == 1.0

    def test_saturates_at_ceiling(self):
        assert state(losses=5).value_per_mbps == 2.0
        assert state(losses=7).value_per_mbps == 2.0

    def test_flat_when_base_equals_ceiling(self):
        flat = state(losses=4, base=0.7, ceiling=0.7)
        assert flat.value_per_mbps == pytest.approx(0.7)

    @given(losses=st.integers(min_value=0, max_value=50))
    def test_factor_stays_within_band(self, losses):
        s = state(losses=losses, base=0.5, ceiling=1.0)
        assert 0.5 <= s.value_per_mbps <= 1.0

    @given(losses=st.integers(min_value=0, max_value=49))
    def test_factor_never_decreases_with_losses(self, losses):
        s = state(losses=losses, base=0.5, ceiling=1.0)
        bumped = state(losses=losses + 1, base=0.5, ceiling=1.0)
        assert bumped.value_per_mbps >= s.value_per_mbps


    @given(
        values=st.lists(st.floats(5e-324, sys.float_info.max), min_size=2, max_size=2).map(sorted),
        losses=st.integers(0, 10**6),
        saturation=st.integers(1, 2**1000),
    )
    def test_value_per_mbps_is_the_reference_factor(self, values, losses, saturation):
        s = state(losses=losses, base=values[0], ceiling=values[1], saturation=saturation)
        assert s.value_per_mbps == urgency_factor(s)

    def test_replaced_state_has_its_own_factor(self):
        assert dataclasses.replace(state(losses=0), consecutive_losses=3).value_per_mbps == (
            state(losses=3).value_per_mbps
        )


class TestValuation:
    def test_scales_linearly_with_rate(self):
        s = state(losses=3)
        assert channel_valuation(s, 5.5) == pytest.approx(1.6 * 5.5)
        assert channel_valuation(s, 0.0) == 0.0

    @given(rate=st.floats(min_value=1e-6, max_value=100.0),
           losses=st.integers(min_value=0, max_value=10))
    def test_doubling_rate_doubles_value(self, rate, losses):
        s = state(losses=losses, base=0.5, ceiling=1.0)
        assert channel_valuation(s, 2.0 * rate) == 2.0 * channel_valuation(s, rate)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            channel_valuation(state(), -0.1)


class TestOutcomeTracking:
    def test_win_resets_streak(self):
        assert record_outcome(state(losses=4), won_any_channel=True).consecutive_losses == 0

    def test_loss_extends_streak(self):
        assert record_outcome(state(losses=4), won_any_channel=False).consecutive_losses == 5

    def test_win_then_loss_restarts_climb(self):
        s = record_outcome(state(losses=4), won_any_channel=True)
        s = record_outcome(s, won_any_channel=False)
        assert s.value_per_mbps == pytest.approx(1.2)

    def test_states_are_immutable_snapshots(self):
        s = state(losses=2)
        record_outcome(s, won_any_channel=False)
        assert s.consecutive_losses == 2


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            UrgencyState(base_value_per_mbps=0.0, max_value_per_mbps=1.0)
        with pytest.raises(ValueError):
            UrgencyState(base_value_per_mbps=1.0, max_value_per_mbps=0.5)
        with pytest.raises(ValueError):
            UrgencyState(base_value_per_mbps=1.0, max_value_per_mbps=2.0,
                         saturation_losses=0)
        with pytest.raises(ValueError):
            UrgencyState(base_value_per_mbps=1.0, max_value_per_mbps=2.0,
                         consecutive_losses=-1)
