from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from hetmarket.engine import SimulationConfig, TopologyConfig
from hetmarket.netmodel import (
    FULL_COCHANNEL,
    MBS,
    NO_INTERFERENCE,
    SBS,
    BaseStation,
    ChannelModel,
    Topology,
    UserEquipment,
    achievable_rate_bps,
    channel_demand,
    distance,
    path_gain,
    sinr,
)


def macro(power=40.0, position=(0.0, 0.0), channels=4):
    return BaseStation(
        id=0, tier=MBS, position=position, tx_power_watts=power,
        num_channels=channels, power_unit_price=0.05,
    )


def small(station_id, position, power=4.0):
    return BaseStation(
        id=station_id, tier=SBS, position=position, tx_power_watts=power,
        num_channels=4, power_unit_price=0.05,
    )


def user(position, qos=4e6):
    return UserEquipment(id=9, position=position, qos_rate_bps=qos)


class TestGeometry:
    def test_distance_345(self):
        assert distance((0.0, 0.0), (3.0, 4.0)) == 5.0

    def test_gain_is_flat_inside_reference_distance(self):
        channel = ChannelModel()
        bs = macro()
        assert path_gain(bs, user((0.5, 0.0)), channel) == 1.0
        assert path_gain(bs, user((1.0, 0.0)), channel) == 1.0

    def test_gain_at_hundred_meters_macro(self):
        channel = ChannelModel()
        assert path_gain(macro(), user((100.0, 0.0)), channel) == pytest.approx(1e-6, rel=1e-12)

    def test_small_cell_attenuates_faster(self):
        channel = ChannelModel()
        g_macro = path_gain(macro(), user((100.0, 0.0)), channel)
        g_small = path_gain(small(1, (0.0, 0.0)), user((100.0, 0.0)), channel)
        assert g_small == pytest.approx(100.0 ** -3.5, rel=1e-12)
        assert g_small < g_macro

    def test_coincident_positions_have_unit_gain(self):
        # flat inside the reference distance, down to a distance of 0
        assert path_gain(macro(), user((0.0, 0.0)), ChannelModel()) == 1.0


class TestSinr:
    def test_hand_computed_two_small_cells(self):
        topo = Topology(
            stations=(macro(), small(1, (200.0, 0.0)), small(2, (-200.0, 0.0))),
            channel=ChannelModel(interference_mode=FULL_COCHANNEL),
        )
        ue = user((100.0, 0.0))
        signal = 40.0 * 100.0 ** -3.0
        interference = 4.0 * 100.0 ** -3.5 + 4.0 * 300.0 ** -3.5
        noise = 4e-21 * 1e6
        expected = signal / (interference + noise)
        assert sinr(topo.stations[0], ue, topo) == pytest.approx(expected, rel=1e-12)

    def test_no_interference_mode_reduces_to_snr(self):
        channel = ChannelModel(interference_mode=NO_INTERFERENCE)
        lonely = Topology(stations=(macro(),), channel=channel)
        crowded = Topology(stations=(macro(), small(1, (50.0, 0.0))), channel=channel)
        ue = user((100.0, 0.0))
        expected = 40.0 * 1e-6 / (4e-21 * 1e6)
        assert sinr(lonely.stations[0], ue, lonely) == pytest.approx(expected, rel=1e-12)
        assert sinr(crowded.stations[0], ue, crowded) == pytest.approx(expected, rel=1e-12)

    def test_cochannel_neighbour_lowers_sinr(self):
        ue = user((100.0, 0.0))
        lonely = Topology(stations=(macro(),), channel=ChannelModel())
        crowded = Topology(
            stations=(macro(), small(1, (120.0, 0.0))), channel=ChannelModel()
        )
        assert sinr(crowded.stations[0], ue, crowded) < sinr(lonely.stations[0], ue, lonely)

    def test_rate_of_snr_three_is_two_bits_per_hz(self):
        # log2(1 + 3) = 2, so a 1 MHz sub-channel carries 2 Mbps.
        power = 3 * 4e-21 * 1e6
        bs = BaseStation(
            id=0, tier=MBS, position=(0.0, 0.0), tx_power_watts=power,
            num_channels=4, power_unit_price=0.0,
        )
        topo = Topology(
            stations=(bs,), channel=ChannelModel(interference_mode=NO_INTERFERENCE)
        )
        rate = achievable_rate_bps(bs, user((0.5, 0.0)), topo)
        assert rate == pytest.approx(2e6, rel=1e-12)

    @given(near=st.floats(min_value=2.0, max_value=500.0),
           stretch=st.floats(min_value=1.01, max_value=10.0))
    def test_rate_decays_with_distance(self, near, stretch):
        topo = Topology(
            stations=(macro(),), channel=ChannelModel(interference_mode=NO_INTERFERENCE)
        )
        bs = topo.stations[0]
        close = achievable_rate_bps(bs, user((near, 0.0)), topo)
        far = achievable_rate_bps(bs, user((near * stretch, 0.0)), topo)
        assert close > far > 0.0


class TestChannelDemand:
    def test_partial_channel_rounds_up(self):
        assert channel_demand(user((1.0, 0.0), qos=2e6), 0.9e6) == 3

    def test_exact_fit_needs_one(self):
        assert channel_demand(user((1.0, 0.0), qos=2e6), 2e6) == 1

    def test_dead_channel_is_unservable(self):
        assert channel_demand(user((1.0, 0.0), qos=2e6), 0.0) is None
        assert channel_demand(user((1.0, 0.0), qos=2e6), -1.0) is None

    @given(qos=st.floats(min_value=1e5, max_value=1e7),
           rate=st.floats(min_value=1e4, max_value=1e7))
    def test_demand_is_minimal_cover(self, qos, rate):
        need = channel_demand(user((1.0, 0.0), qos=qos), rate)
        assert need >= 1
        assert need * rate >= qos
        assert (need - 1) * rate < qos


class TestValidation:
    def test_station_field_checks(self):
        with pytest.raises(ValueError):
            BaseStation(id=0, tier="femto", position=(0.0, 0.0),
                        tx_power_watts=1.0, num_channels=4, power_unit_price=0.1)
        with pytest.raises(ValueError):
            BaseStation(id=0, tier=MBS, position=(0.0, 0.0),
                        tx_power_watts=0.0, num_channels=4, power_unit_price=0.1)
        with pytest.raises(ValueError):
            BaseStation(id=0, tier=MBS, position=(0.0, 0.0),
                        tx_power_watts=1.0, num_channels=0, power_unit_price=0.1)
        with pytest.raises(ValueError):
            BaseStation(id=0, tier=MBS, position=(0.0, 0.0),
                        tx_power_watts=1.0, num_channels=4, power_unit_price=-0.1)

    def test_user_field_checks(self):
        with pytest.raises(ValueError):
            UserEquipment(id=0, position=(0.0, 0.0), qos_rate_bps=0.0)

    def test_channel_model_field_checks(self):
        # the channel model holds values; the config's validate() holds its rules
        for channel, problem in [
            (ChannelModel(bandwidth_hz=0.0), "bandwidth_hz must be positive"),
            (ChannelModel(mbs_pathloss_exponent=1.5), "mbs_pathloss_exponent must be at least 2"),
            (ChannelModel(interference_mode="partial"), "unknown interference_mode 'partial'"),
        ]:
            config = SimulationConfig(topology=TopologyConfig(channel=channel))
            assert config.validate() == [problem]

    def test_topology_needs_exactly_one_macro(self):
        with pytest.raises(ValueError):
            Topology(stations=(small(1, (10.0, 0.0)),), channel=ChannelModel())
        second = dataclasses.replace(macro(), id=5)
        with pytest.raises(ValueError):
            Topology(stations=(macro(), second), channel=ChannelModel())

    def test_topology_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            Topology(stations=(macro(), small(0, (10.0, 0.0))), channel=ChannelModel())

    def test_macro_must_out_power_small_cells(self):
        with pytest.raises(ValueError):
            Topology(
                stations=(macro(power=4.0), small(1, (10.0, 0.0), power=4.0)),
                channel=ChannelModel(),
            )

    def test_records_are_immutable(self):
        bs = macro()
        with pytest.raises(dataclasses.FrozenInstanceError):
            bs.tx_power_watts = 100.0

    def test_rate_identity_with_sinr(self):
        topo = Topology(
            stations=(macro(), small(1, (150.0, 0.0))), channel=ChannelModel()
        )
        ue = user((60.0, 30.0))
        for bs in topo.stations:
            gamma = sinr(bs, ue, topo)
            expect = 1e6 * math.log2(1.0 + gamma)
            assert achievable_rate_bps(bs, ue, topo) == pytest.approx(expect, rel=1e-12)
