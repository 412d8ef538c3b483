"""Round loop tying the physical layer, valuations, auctions, and policies.

One simulation run draws user positions and service classes from a per-run
seed, then plays a fixed number of rounds.  Every round is sealed-bid and
simultaneous: users decide from broadcast history only, entrance fees are
charged to everyone who bids, each station clears independently, winners pay,
loss streaks update, and every station's clearing price is broadcast to all
users.  Multiple runs fork child seeds from the master seed so a report is a
pure function of its configuration.  Each run hands its round logs, as they
are played, to one writer the caller chooses, and keeps only per-user totals.

Live llm users ask the endpoint at the start of each round, on up to
``LIVE_LANES`` threads of the run, each with its own kept-alive connection.
Their decisions are gathered by user id and entered in id order, so a
run's results never depend on thread timing.  The threads and connections
end with the run, also when it fails.
"""

from __future__ import annotations

import logging
import math
import random
import threading
from contextlib import ExitStack, closing
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .auction import AuctionRequest, reservation_price, run_vcg
from .llm_agent import (
    ChatCompletionClient,
    ForesightPolicy,
    LlmEndpointConfig,
    foresight_decide,
    llm_decide,
)
from .netmodel import (
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
    station_problems,
    tier_power_problems,
)
from .strategy import (
    ABSTAIN,
    BidDecision,
    EmpiricalPriceModel,
    MarketObservation,
    StationView,
    fastest_view,
    greedy_decide,
    myopic_decide,
)
from .valuation import UrgencyState, channel_valuation, urgency_problems

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor

log = logging.getLogger(__name__)

MYOPIC = "myopic"
GREEDY = "greedy"
LLM = "llm"
FORESIGHT = "foresight"
STRATEGIES = (LLM, FORESIGHT, GREEDY, MYOPIC)

COMPETITORS_UNIFORM = "uniform"
COMPETITORS_ORACLE = "oracle"

# threads, each with its own client, that send one round's live prompts
LIVE_LANES = 4


class ConfigurationError(ValueError):
    """One or more configuration problems, each listed in ``problems``."""

    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


@dataclass(frozen=True)
class TopologyConfig:
    """One macro station at the origin, small cells evenly spaced on a ring."""

    num_small_cells: int = 2
    mbs_power_watts: float = 40.0
    sbs_power_watts: float = 4.0
    channels_per_station: int = 4
    power_unit_price: float = 0.05
    macro_radius_m: float = 500.0
    sbs_ring_radius_m: float = 250.0
    channel: ChannelModel = field(default_factory=ChannelModel)

    def build(self) -> Topology:
        stations = [
            BaseStation(
                id=0,
                tier=MBS,
                position=(0.0, 0.0),
                tx_power_watts=self.mbs_power_watts,
                num_channels=self.channels_per_station,
                power_unit_price=self.power_unit_price,
            )
        ]
        for k in range(self.num_small_cells):
            angle = 2.0 * math.pi * k / self.num_small_cells
            stations.append(
                BaseStation(
                    id=k + 1,
                    tier=SBS,
                    position=(
                        self.sbs_ring_radius_m * math.cos(angle),
                        self.sbs_ring_radius_m * math.sin(angle),
                    ),
                    tx_power_watts=self.sbs_power_watts,
                    num_channels=self.channels_per_station,
                    power_unit_price=self.power_unit_price,
                )
            )
        return Topology(stations=tuple(stations), channel=self.channel)


@dataclass(frozen=True)
class PopulationConfig:
    """How many users, their money, their rate classes, and their policies."""

    num_ues: int = 40
    budget: float = 15.0
    qos_classes_mbps: tuple[float, ...] = (2.0, 4.0, 8.0)
    strategy_counts: dict[str, int] = field(
        default_factory=lambda: {MYOPIC: 40, GREEDY: 0, LLM: 0, FORESIGHT: 0}
    )

    def roster(self) -> list[str]:
        """Strategy per user id, in a fixed canonical order."""
        names: list[str] = []
        for strategy in STRATEGIES:
            names.extend([strategy] * self.strategy_counts.get(strategy, 0))
        return names


@dataclass(frozen=True)
class UrgencyConfig:
    """Per service class valuation factors; scalars broadcast to all classes.

    Each tuple holds 1 entry or one per service class, which
    ``SimulationConfig.validate`` checks.
    """

    base_value_per_mbps: tuple[float, ...] = (0.5,)
    max_value_per_mbps: tuple[float, ...] = (1.0,)
    saturation_losses: tuple[int, ...] = (5,)

    def class_settings(self, class_index: int) -> list:
        """The class's base value, maximum value and saturation losses."""
        values = (self.base_value_per_mbps, self.max_value_per_mbps, self.saturation_losses)
        return [v[0] if len(v) == 1 else v[class_index] for v in values]

    def for_class(self, class_index: int, consecutive_losses: int = 0) -> UrgencyState:
        base, top, saturation = self.class_settings(class_index)
        return UrgencyState(base, top, consecutive_losses, saturation)


@dataclass(frozen=True)
class AuctionConfig:
    entrance_fee: float = 0.1
    competitor_mode: str = COMPETITORS_UNIFORM


@dataclass(frozen=True)
class SimulationConfig:
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    population: PopulationConfig = field(default_factory=PopulationConfig)
    auction: AuctionConfig = field(default_factory=AuctionConfig)
    urgency: UrgencyConfig = field(default_factory=UrgencyConfig)
    endpoint: LlmEndpointConfig = field(default_factory=LlmEndpointConfig)
    foresight: ForesightPolicy = field(default_factory=ForesightPolicy)
    episodes: int = 40
    runs: int = 1
    seed: int = 0
    jobs: int = 1
    offline: bool = True

    def validate(self) -> list[str]:
        """Every rule the values break, once each, as a line naming its key;
        values that break one are kept from the checks that combine values."""
        pop, topo, channel = self.population, self.topology, self.topology.channel
        endpoint, foresight, fee = self.endpoint, self.foresight, self.auction.entrance_fee
        unknown = set(pop.strategy_counts) - set(STRATEGIES)
        total = sum(pop.strategy_counts.get(s, 0) for s in STRATEGIES)
        timeout_max = threading.TIMEOUT_MAX * 1000  # the largest a socket accepts
        num_classes = len(pop.qos_classes_mbps)
        names = ("base_value_per_mbps", "max_value_per_mbps", "saturation_losses")
        miscounted = [n for n in names if len(getattr(self.urgency, n)) not in (1, num_classes)]
        # (broken, line) per rule; a check written ``not x > 0`` fails for NaN too
        rules = [
            (self.episodes < 1, "episodes must be at least 1"),
            (self.runs < 1, "runs must be at least 1"),
            (self.jobs < 1, "jobs must be at least 1"),
            (self.seed < 0, "seed must be non-negative"),
            (pop.num_ues < 1, "num_ues must be at least 1"),
            (pop.budget <= 0, "budget must be positive"),
            # no budget goes below 0, so this bounds every sum of fees and payments
            (not pop.budget <= 0 and not math.isfinite(pop.num_ues * self.runs * pop.budget),
             "num_ues * runs * budget is not finite"),
            (not pop.qos_classes_mbps, "qos_classes_mbps cannot be empty"),
            (any(c <= 0 for c in pop.qos_classes_mbps),
             "qos_classes_mbps entries must be positive"),
            (not all(math.isfinite(c * 1e6) for c in pop.qos_classes_mbps),
             "qos_classes_mbps entries must be finite in bit/s"),
            (bool(unknown), f"unknown strategies: {sorted(unknown)}"),
            (any(v < 0 for v in pop.strategy_counts.values()),
             "strategy counts cannot be negative"),
            (not unknown and total != pop.num_ues,
             f"strategy counts sum to {total}, expected num_ues={pop.num_ues}"),
            # a -0.0 fee passes ``>= 0`` and would be written as every bid's fee_paid
            (not fee >= 0 or math.copysign(1.0, fee) < 0,
             f"entrance_fee must be 0.0 or positive, not {fee}"),
            # a zero timeout makes the socket non-blocking, and a negative one raises
            (endpoint.timeout_ms < 1, f"timeout_ms must be at least 1, not {endpoint.timeout_ms}"),
            (endpoint.timeout_ms > timeout_max,
             f"timeout_ms must be at most {timeout_max:.0f}, not {endpoint.timeout_ms}"),
            (endpoint.max_retries < 0,
             f"max_retries cannot be negative, not {endpoint.max_retries}"),
            # an inf temperature would be sent as Infinity
            (not 0 <= endpoint.temperature < math.inf,
             f"temperature must be finite and at least 0, not {endpoint.temperature}"),
            (not foresight.threshold_fraction >= 0, "foresight_threshold (threshold_fraction)"
             f" must be at least 0, not {foresight.threshold_fraction}"),
            # a share of the remaining rounds
            (not 0 <= foresight.pacing_fraction <= 1, "foresight_pacing (pacing_fraction)"
             f" must be between 0 and 1, not {foresight.pacing_fraction}"),
            (self.auction.competitor_mode not in (COMPETITORS_UNIFORM, COMPETITORS_ORACLE),
             f"unknown competitor_mode {self.auction.competitor_mode!r}"),
            (topo.num_small_cells < 0, "num_sbs (num_small_cells) cannot be negative"),
            # a radius of 0 places every UE on the macro station, and a
            # negative one turns the ring by half a turn
            (not topo.macro_radius_m > 0,
             f"macro_radius_m must be positive, not {topo.macro_radius_m}"),
            (not topo.sbs_ring_radius_m >= 0,
             f"sbs_ring_radius_m must be at least 0, not {topo.sbs_ring_radius_m}"),
        ]
        problems = [line for broken, line in rules if broken]
        problems += [f"{n} must have 1 entry or one per service class" for n in miscounted]
        # the rules of the stations that build() places, and of the channel
        smalls = [topo.sbs_power_watts] if topo.num_small_cells > 0 else []
        physical = []
        for tier, power in [(MBS, topo.mbs_power_watts), *((SBS, p) for p in smalls)]:
            physical += station_problems(
                tier, power, topo.channels_per_station, topo.power_unit_price,
                f"{tier.lower()}_power_watts", "channels_per_station",
            )
        physical += tier_power_problems(topo.mbs_power_watts, smalls)
        # NaN fails each channel check, as it would crash the demand's ceil
        physical += [line for broken, line in [
            (not channel.bandwidth_hz > 0, "bandwidth_hz must be positive"),
            (not channel.noise_density_w_per_hz > 0, "noise_density_w_per_hz must be positive"),
            (not channel.reference_distance_m > 0, "reference_distance_m must be positive"),
            (not channel.mbs_pathloss_exponent >= 2, "mbs_pathloss_exponent must be at least 2"),
            (not channel.sbs_pathloss_exponent >= 2, "sbs_pathloss_exponent must be at least 2"),
            (channel.interference_mode not in (FULL_COCHANNEL, NO_INTERFERENCE),
             f"unknown interference_mode {channel.interference_mode!r}"),
        ] if broken]
        urgency = []
        for class_index in range(0 if miscounted else num_classes):
            urgency += urgency_problems(*self.urgency.class_settings(class_index))
        problems = list(dict.fromkeys(problems + physical + urgency))
        # the checks below combine values that each passed their own rules
        if physical:
            return problems
        # each reserve, power_unit_price * tx power, is broadcast as a clearing
        # price; the macro's is the largest
        if not math.isfinite(topo.power_unit_price * topo.mbs_power_watts):
            problems.append(
                "a station's reserve power_unit_price * tx power is not finite:"
                f" power_unit_price = {topo.power_unit_price},"
                f" mbs_power_watts = {topo.mbs_power_watts}"
            )
        # no UE's SINR exceeds the macro power over the noise: path gains are
        # at most 1, the macro is the strongest station, and interference only
        # lowers SINR; so this best-case rate bounds every UE's rate, and a
        # finite one keeps every demand finite
        bandwidth, density = channel.bandwidth_hz, channel.noise_density_w_per_hz
        noise = density * bandwidth
        settings = f"bandwidth_hz = {bandwidth}, noise_density_w_per_hz = {density}"
        if noise == 0.0:
            return problems + [
                f"noise power bandwidth_hz * noise_density_w_per_hz is 0: {settings}"
            ]
        best_rate = bandwidth * math.log2(1.0 + topo.mbs_power_watts / noise)
        if not math.isfinite(best_rate):
            return problems + [
                "best-case rate bandwidth_hz * log2(1 + mbs_power_watts / noise power)"
                f" is not finite: {settings}, mbs_power_watts = {topo.mbs_power_watts}"
            ]
        # no UE-round wins more channels than a station has, each worth at most
        # the top value at the best-case rate; so this bounds every sum of
        # channel values in the artifacts
        top = max(self.urgency.max_value_per_mbps, default=0.0)
        bound = pop.num_ues * self.runs * self.episodes * topo.channels_per_station * top
        if not urgency and not math.isfinite(bound * (best_rate / 1e6)):
            problems.append(
                "num_ues * runs * episodes * channels_per_station * max_value_per_mbps"
                f" * best-case rate in Mbps is not finite: max_value_per_mbps = {top}"
            )
        return problems


# The round records are output values: ``run_round`` builds each one and only
# the writer reads them, so like the decisions and requests they are not
# frozen, which saves an ``object.__setattr__`` per field in ``__init__``.
# ``run_round`` builds a bid's record positionally, in field order
@dataclass(slots=True)
class UeRoundRecord:
    ue_id: int
    strategy: str
    station_id: int
    per_unit_bid: float
    quantity: int
    abstained: bool = field(default=False, init=False)
    fallback: bool
    channels_won: int
    per_unit_payment: float
    fee_paid: float
    gross_utility: float
    budget_after: float
    value_factor: float
    losses_after: int


@dataclass
class AbstentionRecord:
    """A round in which the UE did not bid.  Its fields are those of
    ``UeRoundRecord``, in the same order, but only six vary; the other eight
    are the class's own values, so it is built from the six positionally.
    Every abstention bids 0.0: it is ``ABSTAIN``, or that marked a fallback.
    """

    __slots__ = ("ue_id", "strategy", "fallback", "budget_after", "value_factor", "losses_after")
    ue_id: int
    strategy: str
    station_id: None = field(default=None, init=False)
    per_unit_bid: float = field(default=0.0, init=False)
    quantity: int = field(default=0, init=False)
    abstained: bool = field(default=True, init=False)
    fallback: bool
    channels_won: int = field(default=0, init=False)
    per_unit_payment: float = field(default=0.0, init=False)
    fee_paid: float = field(default=0.0, init=False)
    gross_utility: float = field(default=0.0, init=False)
    budget_after: float
    value_factor: float
    losses_after: int


@dataclass(slots=True)
class StationRoundRecord:
    station_id: int
    clearing_price: float
    allocations: dict[int, int]
    per_unit_payments: dict[int, float]
    seller_utility_terms: dict[int, float]
    fees_collected: float
    revenue: float


@dataclass(slots=True)
class RoundLog:
    round_index: int
    ues: tuple[UeRoundRecord | AbstentionRecord, ...]
    stations: tuple[StationRoundRecord, ...]


@dataclass(frozen=True)
class UeMetrics:
    run_index: int
    seed: int
    ue_id: int
    strategy: str
    episodes: int
    gross_utility: float
    net_utility: float
    channels_won: int
    bids_placed: int
    wins: int
    bid_precision: float | None
    fees_paid: float
    payments_paid: float
    fallbacks: int


# ``write(run_index, seed, rounds)`` takes one run's round logs as it plays them
RoundWriter = Callable[[int, int, Iterator[RoundLog]], None]


@dataclass(frozen=True)
class StrategySummary:
    strategy: str
    num_ue_runs: int
    avg_gross_utility: float
    avg_net_utility: float
    avg_channels_won: float
    avg_bids_placed: float
    avg_bid_precision: float | None
    fallback_rounds: int


@dataclass(frozen=True)
class MetricsReport:
    per_ue: tuple[UeMetrics, ...]
    per_strategy: dict[str, StrategySummary]


@dataclass
class _UeRuntime:
    ue: UserEquipment
    strategy: str
    budget: float
    class_index: int
    # its class's chain state for its streak, shared with the class's users
    urgency: UrgencyState
    # candidate stations in id order, fixed for the run, and the same views
    # by station id
    views: tuple[StationView, ...]
    by_station: dict[int, StationView]
    # fastest_view(views): the one a myopic user decides from
    fastest: StationView | None
    # totals over the rounds played so far, added in round order
    gross: float = 0.0
    fees: float = 0.0
    payments: float = 0.0
    channels: int = 0
    bids: int = 0
    wins: int = 0
    fallbacks: int = 0
    losses: int = 0  # rounds lost in a row


class SimulationRun:
    """Mutable state for one seeded run; drives rounds and tallies users."""

    def __init__(self, config: SimulationConfig, run_index: int, run_seed: int):
        self.config = config
        self.run_index = run_index
        self.seed = run_seed
        self.topology = config.topology.build()
        self.stations = self.topology.stations
        self.reserves = {bs.id: reservation_price(bs) for bs in self.stations}
        self.fee = config.auction.entrance_fee
        self.price_models = {i: EmpiricalPriceModel(reserve=r) for i, r in self.reserves.items()}
        # the live lanes' threads and clients, started by the first live round
        self._lanes: ThreadPoolExecutor | None = None
        self._clients: list[ChatCompletionClient] = []
        # per service class, the urgency state after n losses at index n; a
        # streak only resets to 0 or grows by 1, so a chain grows by appending.
        # Longer streaks share its first saturated state at the ceiling (same
        # value and starving test; base + increment * saturation_losses can round low)
        self._chains: list[list[UrgencyState]] = [
            [config.urgency.for_class(k)] for k in range(len(config.population.qos_classes_mbps))
        ]
        # rivals expected at each station, one map for every observation of a
        # round; oracle mode replaces it after each round, never changing it in
        # place, so an observation keeps the counts it was built with
        uniform = max(0, config.population.num_ues // len(self.stations) - 1)
        self.competitors = {bs.id: uniform for bs in self.stations}
        self.rounds_played = 0
        self.ues = self._build_population(random.Random(run_seed))

    def _build_population(self, rng: random.Random) -> list[_UeRuntime]:
        pop = self.config.population
        classes = pop.qos_classes_mbps
        roster = pop.roster()
        ues: list[_UeRuntime] = []
        for uid in range(pop.num_ues):
            radius = self.config.topology.macro_radius_m * math.sqrt(rng.random())
            theta = 2.0 * math.pi * rng.random()
            position = (radius * math.cos(theta), radius * math.sin(theta))
            class_index = rng.randrange(len(classes))
            ue = UserEquipment(
                id=uid,
                position=position,
                qos_rate_bps=classes[class_index] * 1e6,
            )
            views = []
            for bs in self.stations:
                rate = achievable_rate_bps(bs, ue, self.topology)
                need = channel_demand(ue, rate)
                # stations that cannot cover the QoS rate within their own
                # capacity are not candidates at all
                if need is None or need > bs.num_channels:
                    continue
                views.append(
                    StationView(
                        station_id=bs.id,
                        tier=bs.tier,
                        capacity=bs.num_channels,
                        reserve_price=self.reserves[bs.id],
                        rate_mbps=rate / 1e6,
                        demand=need,
                        price_history=self.price_models[bs.id],
                    )
                )
            ues.append(
                _UeRuntime(
                    ue=ue,
                    strategy=roster[uid],
                    budget=pop.budget,
                    class_index=class_index,
                    urgency=self._chains[class_index][0],
                    views=tuple(views),
                    by_station={v.station_id: v for v in views},
                    fastest=fastest_view(views),
                )
            )
        return ues

    def observation_for(self, runtime: _UeRuntime, round_index: int) -> MarketObservation:
        return MarketObservation(
            round_index=round_index,
            rounds_total=self.config.episodes,
            budget=runtime.budget,
            entrance_fee=self.fee,
            urgency=runtime.urgency,
            stations=runtime.views,
            competitors=self.competitors,
        )

    def _decide_live(self, round_index: int) -> dict[int, BidDecision]:
        """The decisions of the live llm UEs that can pay the fee, by UE id.

        Lane k of up to ``LIVE_LANES`` sends the prompts of deciders k,
        k + lanes, k + 2 * lanes and so on, one after another on its own
        client.  Lanes only read state and fill memos, each fill a single
        dict store of a value that depends only on its key.
        """
        if self.config.offline:
            return {}
        deciders = [r for r in self.ues if r.strategy == LLM and r.budget >= self.fee]
        if not deciders:
            return {}
        if self._lanes is None:
            # imported here: an offline run never starts a lane
            from concurrent.futures import ThreadPoolExecutor

            self._lanes = ThreadPoolExecutor(LIVE_LANES, thread_name_prefix="hetmarket-lane")
            # a client opens no connection until its lane first sends
            self._clients = [ChatCompletionClient(self.config.endpoint) for _ in range(LIVE_LANES)]
        lanes = min(LIVE_LANES, len(deciders))

        def lane(k: int) -> dict[int, BidDecision]:
            return {
                r.ue.id: llm_decide(self.observation_for(r, round_index), self._clients[k])
                for r in deciders[k::lanes]
            }

        decided: dict[int, BidDecision] = {}
        for decisions in self._lanes.map(lane, range(lanes)):
            decided.update(decisions)
        return decided

    def run_round(self, round_index: int) -> RoundLog:
        """Play one sealed-bid round and append its broadcasts to history."""
        requests_by_station: dict[int, list[AuctionRequest]] = {
            bs.id: [] for bs in self.stations
        }
        fees_by_station: dict[int, float] = {bs.id: 0.0 for bs in self.stations}
        decisions: list[BidDecision] = []
        # a decision reads only its own UE's budget and the price models, and
        # no entry changes another UE's budget or any price model; so the live
        # UEs decide first, all at once, and each UE enters as soon as it has
        # decided, in id order
        live = self._decide_live(round_index)
        for runtime in self.ues:  # ascending user id
            if runtime.budget < self.fee:
                decision = ABSTAIN
            elif runtime.strategy == MYOPIC:
                decision = myopic_decide(
                    runtime.fastest, runtime.budget, self.fee, runtime.urgency
                )
            elif runtime.ue.id in live:
                decision = live[runtime.ue.id]
            elif runtime.strategy == GREEDY:
                decision = greedy_decide(self.observation_for(runtime, round_index))
            else:
                # validate() admits no other strategy, so this is a foresight
                # UE or an offline llm UE, and both run the stand-in
                decision = foresight_decide(
                    self.observation_for(runtime, round_index), self.config.foresight
                )
            decisions.append(decision)
            if decision.station_id is None:  # abstained
                continue
            runtime.budget -= self.fee
            fees_by_station[decision.station_id] += self.fee
            requests_by_station[decision.station_id].append(
                AuctionRequest(
                    runtime.ue.id,
                    runtime.by_station[decision.station_id].demand,
                    decision.per_unit_bid,
                )
            )

        outcomes = {
            bs.id: run_vcg(requests_by_station[bs.id], bs.num_channels, self.reserves[bs.id])
            for bs in self.stations
        }

        ue_records: list[UeRoundRecord | AbstentionRecord] = []
        for runtime, decision in zip(self.ues, decisions):
            if decision.fallback:
                runtime.fallbacks += 1
            # a round adds to the totals in round order; it skips only adds of
            # 0, and those leave a sum begun at 0.0 as it is (it is never -0.0)
            if decision.station_id is None:
                # an abstention loses, and changes no total but the fallbacks
                losses = runtime.losses + 1
                ue_records.append(
                    AbstentionRecord(
                        runtime.ue.id, runtime.strategy, decision.fallback,
                        runtime.budget, runtime.urgency.value_per_mbps, losses,
                    )
                )
            else:
                view = runtime.by_station[decision.station_id]
                runtime.fees += self.fee
                runtime.bids += 1
                outcome = outcomes[view.station_id]
                won = outcome.allocations.get(runtime.ue.id, 0)
                per_unit_payment = 0.0
                gross = 0.0
                if won > 0:
                    per_unit_payment = outcome.per_unit_payments[runtime.ue.id]
                    paid = won * per_unit_payment
                    runtime.budget -= paid
                    runtime.payments += paid
                    value = channel_valuation(runtime.urgency, view.rate_mbps)
                    gross = won * (value - per_unit_payment)
                    runtime.gross += gross
                    runtime.channels += won
                    runtime.wins += 1
                # a win resets the loss streak, anything else extends it
                losses = 0 if won > 0 else runtime.losses + 1
                ue_records.append(
                    UeRoundRecord(
                        runtime.ue.id, runtime.strategy, decision.station_id,
                        decision.per_unit_bid, view.demand, decision.fallback, won,
                        per_unit_payment, self.fee, gross, runtime.budget,
                        runtime.urgency.value_per_mbps, losses,
                    )
                )
            runtime.losses = losses
            chain = self._chains[runtime.class_index]
            if losses < len(chain):
                runtime.urgency = chain[losses]
            else:
                end = chain[-1]
                if (end.consecutive_losses < end.saturation_losses
                        or end.value_per_mbps < end.max_value_per_mbps):
                    end = self.config.urgency.for_class(runtime.class_index, losses)
                    chain.append(end)
                runtime.urgency = end

        station_records = []
        for bs in self.stations:
            outcome = outcomes[bs.id]
            sold = math.fsum(
                won * outcome.per_unit_payments[uid]
                for uid, won in outcome.allocations.items()
            )
            # each run_vcg call builds its maps fresh and nothing else holds them
            station_records.append(
                StationRoundRecord(
                    station_id=bs.id,
                    clearing_price=outcome.clearing_price,
                    allocations=outcome.allocations,
                    per_unit_payments=outcome.per_unit_payments,
                    seller_utility_terms=outcome.seller_utility_terms,
                    fees_collected=fees_by_station[bs.id],
                    revenue=fees_by_station[bs.id] + sold,
                )
            )
            self.price_models[bs.id].append(outcome.clearing_price)

        if self.config.auction.competitor_mode == COMPETITORS_ORACLE:
            # each requester counts the others at its station
            self.competitors = {
                bs_id: max(0, len(reqs) - 1) for bs_id, reqs in requests_by_station.items()
            }
        return RoundLog(
            round_index=round_index,
            ues=tuple(ue_records),
            stations=tuple(station_records),
        )

    def _market_exhausted(self) -> bool:
        cheapest_entry = min(self.reserves.values()) + self.fee
        return all(r.budget < cheapest_entry for r in self.ues)

    def execute(self) -> Iterator[RoundLog]:
        """Play the rounds in order, yielding each log once its round is played."""
        try:
            for t in range(1, self.config.episodes + 1):
                if self._market_exhausted():
                    break
                yield self.run_round(t)
                self.rounds_played = t
        finally:
            # no lane outlives the run: wait for each, then end its connection
            if self._lanes is not None:
                self._lanes.shutdown(cancel_futures=True)
            for client in self._clients:
                client.close()

    def per_ue(self) -> tuple[UeMetrics, ...]:
        """One row per UE in id order, from the totals of the rounds played."""
        return tuple(
            UeMetrics(
                run_index=self.run_index,
                seed=self.seed,
                ue_id=r.ue.id,
                strategy=r.strategy,
                episodes=self.rounds_played,
                gross_utility=r.gross,
                net_utility=r.gross - r.fees,
                channels_won=r.channels,
                bids_placed=r.bids,
                wins=r.wins,
                bid_precision=(r.wins / r.bids) if r.bids else None,
                fees_paid=r.fees,
                payments_paid=r.payments,
                fallbacks=r.fallbacks,
            )
            for r in self.ues
        )


def spawn_run_seeds(master_seed: int, runs: int) -> list[int]:
    """Independent 64-bit child seeds; run i's seed does not depend on ``runs``."""
    parent = random.Random(master_seed)
    return [parent.getrandbits(64) for _ in range(runs)]


def _execute_run(
    task: tuple[SimulationConfig, int, int, RoundWriter | None],
) -> tuple[UeMetrics, ...]:
    config, run_index, run_seed, write = task
    run = SimulationRun(config, run_index, run_seed)
    with closing(run.execute()) as rounds:
        if write is not None:
            write(run_index, run_seed, rounds)
        for _ in rounds:  # the rounds no writer read are played all the same
            pass
    return run.per_ue()


def validate_all(configs: Sequence[SimulationConfig], problems: Sequence[str] = ()) -> None:
    """Raise one ConfigurationError listing ``problems`` and the configs' own, once each."""
    problems = [*problems, *(problem for config in configs for problem in config.validate())]
    if problems:
        raise ConfigurationError(list(dict.fromkeys(problems)))


def run_simulations(
    configs: Sequence[SimulationConfig], write: RoundWriter | None = None
) -> list[MetricsReport]:
    """Execute every run of every config and aggregate metrics per config.

    All configs are validated before round one.  The runs of all configs form
    one task list, run in order, or on a pool of as many worker processes as
    the largest ``jobs`` among the configs; either way the reports are the same.
    Whichever process plays a run hands its round logs to ``write`` as they
    are played (picklable with a pool); only per-user rows come back.
    Each finished run is logged at INFO level, in run order.
    """
    validate_all(configs)
    tasks = [
        (config, run_index, seed, write)
        for config in configs
        for run_index, seed in enumerate(spawn_run_seeds(config.seed, config.runs))
    ]
    config_indices = [i for i, config in enumerate(configs) for _ in range(config.runs)]
    jobs = min(max((config.jobs for config in configs), default=1), len(tasks))
    rows: list[list[UeMetrics]] = [[] for _ in configs]
    with ExitStack() as stack:
        if jobs > 1:
            # imported here: it loads multiprocessing, ~18 ms of a cold import
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            finished = pool.map(_execute_run, tasks)
        else:
            finished = map(_execute_run, tasks)
        for config_index, per_ue in zip(config_indices, finished):
            log.info(
                "config %d run %d done: seed %d, %d rounds",
                config_index, per_ue[0].run_index, per_ue[0].seed, per_ue[0].episodes,
            )
            rows[config_index].extend(per_ue)
    return [compute_metrics(per_ue) for per_ue in rows]


def run_simulation(config: SimulationConfig, write: RoundWriter | None = None) -> MetricsReport:
    """Execute every run of one config; raises before round one on bad config."""
    return run_simulations([config], write)[0]


def compute_metrics(per_ue: Sequence[UeMetrics]) -> MetricsReport:
    """Average the runs' per-user rows per strategy."""
    per_strategy: dict[str, StrategySummary] = {}
    for strategy in STRATEGIES:
        rows = [m for m in per_ue if m.strategy == strategy]
        if not rows:
            continue
        n = len(rows)
        precisions = [m.bid_precision for m in rows if m.bid_precision is not None]
        per_strategy[strategy] = StrategySummary(
            strategy=strategy,
            num_ue_runs=n,
            avg_gross_utility=math.fsum(m.gross_utility for m in rows) / n,
            avg_net_utility=math.fsum(m.net_utility for m in rows) / n,
            avg_channels_won=math.fsum(m.channels_won for m in rows) / n,
            avg_bids_placed=math.fsum(m.bids_placed for m in rows) / n,
            avg_bid_precision=(
                math.fsum(precisions) / len(precisions) if precisions else None
            ),
            fallback_rounds=sum(m.fallbacks for m in rows),
        )
    return MetricsReport(per_ue=tuple(per_ue), per_strategy=per_strategy)
