"""Executed multi-chip pipeline parallelism over C2C.

The tentpole claims, checked end to end:

* the contiguous partitioner never emits empty stages (and raises
  :class:`ConfigError` instead of silently idling chips), so the
  analytic model never bills a hop toward an idle chip;
* an executed partition prices each matrix layer by the compiler's
  closed form, and the price is the layer's executed one-input cycles;
* compiler-scheduled ``Read -> Send -> Receive`` forwarding lands
  activation payloads bit-exactly, healthy and under seeded link-error
  models (retransmission rides in pre-reserved ``arrival_latency``
  slack, so even the cycle counts agree);
* planning a transfer writes no chip, and the emitted programs are
  pinned by digest;
* an executed N-chip pipeline produces logits bit-identical to the
  single-chip oracle for a small fuzz corpus of CNN/MLP models, with
  and without the serving-layer cache.
"""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.arch import Hemisphere
from repro.compiler import (
    PartitionPlan,
    build_ring_transfer,
    pack_payload,
    partition_contiguous,
    unpack_payload,
)
from repro.errors import C2cLinkError, ConfigError
from repro.nn import (
    Dense,
    ReLU,
    Sequential,
    execute_pipeline,
    make_shapes,
    make_small_cnn,
    plan_runner_partition,
    resnet_layers,
    scale_out,
)
from repro.isa.encoding import encode_program_text
from repro.isa.mem import Read
from repro.nn.tsp_inference import TspCnnRunner
from repro.resil import Blacklist
from repro.serve import ProgramCache
from repro.sim import (
    DEFAULT_LINK_LATENCY,
    LinkErrorModel,
    MultiChipSystem,
    TspChip,
)
from repro.verify import assert_transfer_lockstep


# ----------------------------------------------------------------------
# Partitioner


class TestPartitionContiguous:
    def test_equal_costs_split_evenly(self):
        assert partition_contiguous([1.0] * 8, 4) == [
            [0, 1], [2, 3], [4, 5], [6, 7]
        ]

    def test_contiguous_and_complete(self):
        groups = partition_contiguous([5.0, 1.0, 1.0, 1.0, 1.0, 1.0], 3)
        assert [i for g in groups for i in g] == list(range(6))
        assert all(g for g in groups)
        assert len(groups) == 3

    def test_forced_split_never_leaves_a_chip_empty(self):
        # one dominant layer would satisfy the balance target alone; the
        # tail must still be spread so every chip gets a layer
        groups = partition_contiguous([100.0, 1.0, 1.0], 3)
        assert groups == [[0], [1], [2]]

    def test_one_chip_takes_everything(self):
        assert partition_contiguous([3.0, 2.0, 1.0], 1) == [[0, 1, 2]]

    def test_more_chips_than_layers_raises(self):
        with pytest.raises(ConfigError):
            partition_contiguous([1.0, 1.0], 3)

    def test_zero_chips_raises(self):
        with pytest.raises(ConfigError):
            partition_contiguous([1.0], 0)

    def test_plan_fingerprint_tracks_the_split(self, config):
        names = ["a", "b", "c", "d"]
        costs = [1.0, 1.0, 1.0, 1.0]
        two = PartitionPlan.plan(names, costs, 2, config, 24)
        again = PartitionPlan.plan(names, costs, 2, config, 24)
        four = PartitionPlan.plan(names, costs, 4, config, 24)
        other_latency = PartitionPlan.plan(names, costs, 2, config, 48)
        assert two.fingerprint == again.fingerprint
        assert two.fingerprint != four.fingerprint
        assert two.fingerprint != other_latency.fingerprint


# ----------------------------------------------------------------------
# Analytic stages are never empty


class TestPhantomHops:
    def test_scale_out_refuses_empty_stages(self, full_config):
        specs = resnet_layers(50)[:3]
        with pytest.raises(ConfigError):
            scale_out(specs, full_config, 8)

    def test_scale_out_one_layer_per_chip_is_fine(self, full_config):
        specs = resnet_layers(50)[:3]
        plan = scale_out(specs, full_config, 3)
        assert all(stage.layer_names for stage in plan.stages)
        assert plan.stages[-1].egress_vectors == 0


# ----------------------------------------------------------------------
# Payload packing


class TestPayloadPacking:
    def test_roundtrip_with_padding(self, rng):
        tensor = rng.integers(-127, 128, (3, 5, 7), dtype=np.int8)
        words = pack_payload(tensor, 64)
        assert words.shape == (2, 64)  # 105 bytes -> 2 lane-wide vectors
        assert np.array_equal(
            unpack_payload(words, tensor.shape, np.int8), tensor
        )

    def test_exact_fit(self, rng):
        tensor = rng.integers(-127, 128, (2, 64), dtype=np.int8)
        words = pack_payload(tensor, 64)
        assert words.shape == (2, 64)
        assert np.array_equal(
            unpack_payload(words, tensor.shape, np.int8), tensor
        )

    def test_short_payload_rejected(self):
        with pytest.raises(ConfigError):
            unpack_payload(np.zeros((1, 64), np.uint8), (9, 64), np.int8)


# ----------------------------------------------------------------------
# Single-hop forwarding


def run_forward_transfer(config, payload, model=None):
    system = MultiChipSystem.ring(config, 2)
    if model is not None:
        system.set_link_error_model(0, Hemisphere.EAST, 0, model)
    transfer = build_ring_transfer(system, [0, 1], len(payload))
    landed, results = transfer.run(system, payload)
    return landed, results[0].cycles, system


class TestForwardTransfer:
    def test_payload_lands_bit_exact(self, config, rng):
        payload = rng.integers(0, 256, (16, config.n_lanes), np.uint8)
        landed, _cycles, _ = run_forward_transfer(config, payload)
        assert np.array_equal(landed, payload)

    def test_noisy_link_still_exact(self, config, rng):
        payload = rng.integers(0, 256, (12, config.n_lanes), np.uint8)
        model = LinkErrorModel(seed=7, ber=1e-3, max_retries=2)
        landed, _cycles, system = run_forward_transfer(
            config, payload, model=model
        )
        ingress = system.chips[1].c2c_unit(Hemisphere.WEST).links[0]
        assert np.array_equal(landed, payload)
        assert ingress.corrected > 0  # the noise really happened

    def test_dead_link_faults(self, config, rng):
        payload = rng.integers(0, 256, (4, config.n_lanes), np.uint8)
        with pytest.raises(C2cLinkError):
            run_forward_transfer(
                config, payload, model=LinkErrorModel(dead_after=0)
            )

    def test_staging_overflow_rejected(self, config):
        system = MultiChipSystem.ring(config, 2)
        with pytest.raises(ConfigError):
            build_ring_transfer(
                system, [0, 1], (1 << config.mem_addr_bits) + 1
            )

    def test_hop_outside_system_rejected(self, config):
        system = MultiChipSystem.ring(config, 2)
        with pytest.raises(ConfigError):
            build_ring_transfer(system, [1, 2], 4)

    def test_empty_payload_rejected(self, config):
        system = MultiChipSystem.ring(config, 2)
        with pytest.raises(ConfigError):
            build_ring_transfer(system, [0, 1], 0)

    def test_run_refuses_a_payload_of_another_size(self, config):
        system = MultiChipSystem.ring(config, 2)
        transfer = build_ring_transfer(system, [0, 1], 4)
        with pytest.raises(ConfigError):
            transfer.run(system, np.zeros((3, config.n_lanes), np.uint8))


def program_digest(plan):
    """sha256 over every chip's per-ICU program text and instructions."""
    h = hashlib.sha256()
    for chip, program in enumerate(plan.programs):
        for icu in program.icus:
            queue = program.queue(icu)
            h.update(f"{chip}|{icu}|".encode())
            h.update(encode_program_text(queue))
            h.update(repr(queue).encode())
    return h.hexdigest()


class TestTransferPlanner:
    #: route -> digest of the 5-word transfer's programs on a 4-chip ring
    #: of the test chip; a change that means to move a transfer's schedule
    #: moves these and says so.  The first chip reads its words out of the
    #: outgoing hemisphere's slice nearest the link (3 hops); a direct hop,
    #: either way round, sends every cycle and a detour every 4; both ends
    #: of each cable are deskewed when the hop's payload is readable
    PINNED = {
        (0, 1):
            "63a18ae6dea7dd5a9812f76306e13c07c67d4104852b47a071847a64cc11fbf5",
        (0, 3, 2, 1):
            "4e18d900305d67c48c6c04d962c84b31ee51e9b7e7c27f568bb1561c1a758882",
        (1, 0):
            "b6e85770b207e99a8498e70467a5a4620ce85c68047580379feb05f76abb9b54",
    }

    @pytest.mark.parametrize(
        "route", list(PINNED), ids=lambda r: "-".join(map(str, r))
    )
    def test_emitted_programs_are_pinned(self, config, route):
        system = MultiChipSystem.ring(config, 4)
        plan = build_ring_transfer(system, list(route), 5)
        assert program_digest(plan) == self.PINNED[route]

    @pytest.mark.parametrize("route", [[0, 1], [0, 3, 2, 1]])
    def test_a_strict_ring_lands_the_words(self, config, route):
        """A strict link refuses a vector sent at another deskew epoch
        than its receiver's, so each hop deskews both ends of its cable —
        before the first ``Receive``, so the run is as long as on a
        lenient ring (34 cycles for two words over one hop)."""
        words = np.arange(2 * config.n_lanes, dtype=np.uint8).reshape(
            2, config.n_lanes
        )
        cycles = []
        for strict in (True, False):
            system = MultiChipSystem.ring(config, 4, strict_c2c=strict)
            plan = build_ring_transfer(system, route, 2)
            landed, runs = plan.run(system, words, replay=False)
            assert np.array_equal(landed, words)
            cycles.append([run.cycles for run in runs])
        assert cycles[0] == cycles[1]
        if route == [0, 1]:
            assert cycles[0][0] == 34

    def test_the_campaign_runs_the_transfer_serving_runs(self, config):
        """``build_ring_transfer`` has no options, so the fault campaign's
        direct hop and a pipeline boundary's are one program."""
        system = MultiChipSystem.ring(config, 2)
        plan = PartitionPlan.plan(["a", "b"], [1.0, 1.0], 2, config, 24)
        for n_words in (1, 5):
            assert program_digest(
                build_ring_transfer(system, [0, 1], n_words)
            ) == program_digest(plan.transfer(system, 0, n_words))

    @pytest.mark.parametrize("route", [[0, 1], [0, 3, 2, 1], [1, 0], [2]])
    def test_planning_writes_no_chip(self, config, route):
        system = MultiChipSystem.ring(config, 4)
        before = [chip.memory_image() for chip in system.chips]
        build_ring_transfer(system, route, 5)
        assert [chip.memory_image() for chip in system.chips] == before

    @pytest.mark.parametrize("dead, hops", [
        (frozenset(), 3), (frozenset(range(1, 16)), 18),
    ])
    def test_direct_run_is_hops_plus_words(self, config, rng, dead, hops):
        """A direct transfer's run: the last word leaves its slice
        ``n_words - 1`` cycles after the first, reaches the link after
        the read's delay and ``hops`` hops, and lands a link latency
        later — the one cycle the run retires in included.  Dead EAST
        slices push the head ``hops`` away from the link."""
        plan = PartitionPlan.plan(["a", "b"], [1.0, 1.0], 2, config, 24)
        blacklist = Blacklist(
            mem_slices=frozenset((Hemisphere.EAST, i) for i in dead)
        )
        system = MultiChipSystem.ring(config, 2)
        floorplan = system.chips[0].floorplan
        d_read = Read(address=0, stream=0).dfunc(system.chips[0].timing)
        link = system.chips[0].c2c_unit(Hemisphere.EAST).links[0]
        for n_words in (1, 2, 5):
            payload = rng.integers(0, 256, (n_words, config.n_lanes),
                                   np.uint8)
            transfer = plan.transfer(system, 0, n_words, blacklist=blacklist)
            assert floorplan.delta(
                floorplan.mem_slice(Hemisphere.EAST, transfer.head_slice),
                floorplan.c2c(Hemisphere.EAST),
            ) == hops
            landed, runs = transfer.run(system, payload)
            assert np.array_equal(landed, payload)
            assert runs[0].cycles == (
                hops + n_words + d_read + link.arrival_latency
            )

    def test_head_stages_next_to_its_link(self, config, rng):
        """The boundary's words leave from the healthy slice nearest the
        outgoing link: a blacklist that kills the nearest moves the head
        to the next nearest, under a cache key of its own, and the payload
        still lands byte for byte."""
        plan = PartitionPlan.plan(["a", "b"], [1.0, 1.0], 2, config, 24)
        payload = rng.integers(0, 256, (3, config.n_lanes), np.uint8)
        cache = ProgramCache(8)
        heads = []
        for blacklist in (None, Blacklist(
            mem_slices=frozenset({(Hemisphere.EAST, 15)})
        )):
            system = MultiChipSystem.ring(config, 2)
            transfer = plan.transfer(
                system, 0, len(payload), blacklist=blacklist, cache=cache
            )
            landed, _runs = transfer.run(system, payload)
            assert np.array_equal(landed, payload)
            heads.append((transfer.src_hemisphere, transfer.head_slice))
        assert heads == [(Hemisphere.EAST, 15), (Hemisphere.EAST, 14)]
        assert cache.stats.misses == 2

    def test_pipeline_boundary_plan_writes_no_chip(self, config):
        plan = PartitionPlan.plan(["a", "b"], [1.0, 1.0], 2, config, 24)
        system = MultiChipSystem.ring(config, 2)
        before = [chip.memory_image() for chip in system.chips]
        transfer = plan.transfer(system, 0, 5, cache=ProgramCache(8))
        assert transfer.route == [0, 1]
        assert [chip.memory_image() for chip in system.chips] == before


class TestTransferLockstep:
    """A transfer's plan stands in for a simulation of its programs: on
    every route the planner is pinned on, the replay lands the same words
    and leaves every chip the MEM words, cycles, activity, dispatches,
    drives, ``now`` and link counters a simulation leaves."""

    ROUTES = [list(route) for route in TestTransferPlanner.PINNED] + [[2]]

    @pytest.mark.parametrize("route", ROUTES,
                             ids=lambda r: "-".join(map(str, r)))
    def test_replay_equals_a_simulation(self, config, rng, route):
        def make_system():
            return MultiChipSystem.ring(config, 4)

        transfer = build_ring_transfer(make_system(), route, 5)
        payload = rng.integers(0, 256, (5, config.n_lanes), np.uint8)
        results = assert_transfer_lockstep(transfer, make_system, payload)
        assert len(results) == 4
        assert all(result.replay.run.skipped_cycles
                   == result.replay.run.cycles for result in results)
        landed = results[route[-1]].replay.outputs["landed"]
        assert np.array_equal(landed, payload)

    @pytest.mark.parametrize("replay", [False, True],
                             ids=["simulated", "replayed"])
    def test_a_landing_counts_one_sram_write_per_vector(self, config, rng,
                                                        replay):
        """A Receive's DMA landing is a lane-wide SRAM write: the
        simulator, the plan and a collector's rollup count it alike on
        every chip of a relayed route, by either route of running it."""
        from repro.obs import TelemetryCollector

        system = MultiChipSystem.ring(config, 4)
        collectors = [TelemetryCollector() for _ in system.chips]
        system.attach_telemetry(collectors)
        transfer = build_ring_transfer(system, [0, 3, 2, 1], 5)
        payload = rng.integers(0, 256, (5, config.n_lanes), np.uint8)
        _landed, runs = transfer.run(system, payload, replay=replay)
        for collector, run, plan in zip(collectors, runs, transfer.plans):
            assert collector.rollup() == run.activity == plan.activity
        writes = [run.activity.sram_write_bytes for run in runs]
        assert writes == [0, 5 * config.n_lanes, 5 * config.n_lanes,
                          5 * config.n_lanes]

    def test_a_degraded_route_replays_equal_to_a_simulation(self, config,
                                                            rng):
        """Dead MEM slices move the head and the staging slice, a dead
        cable the route: the plan follows both, and replays on chips
        with those slices dead and that cable's link dark."""
        blacklist = Blacklist(
            mem_slices=frozenset({(Hemisphere.EAST, 15),
                                  (Hemisphere.WEST, 0), (Hemisphere.EAST, 0)}),
            ring_cables=frozenset({0}),
        )
        plan = PartitionPlan.plan(["a", "b", "c"], [1.0] * 3, 3, config, 24)

        def make_system():
            system = MultiChipSystem.ring(config, 3)
            system.set_link_error_model(0, Hemisphere.EAST, 0,
                                        LinkErrorModel(dead_after=0))
            for chip in system.chips:
                for hemisphere, index in blacklist.mem_slices:
                    chip.mem_unit(hemisphere, index).mark_dead()
            return system

        transfer = plan.transfer(make_system(), 0, 3, blacklist=blacklist)
        assert transfer.route == [0, 2, 1] and transfer.stage_slice == 1
        payload = rng.integers(0, 256, (3, config.n_lanes), np.uint8)
        assert_transfer_lockstep(transfer, make_system, payload)

    def test_a_warm_pipeline_batch_simulates_nothing(self, config,
                                                     monkeypatch):
        """Once its programs are cached, a 2-chip batch runs no cycle of
        any chip: every stage replays, and so does the transfer."""
        runner, x_test = cnn_runner(config)
        plan = plan_runner_partition(runner, 2)
        system = MultiChipSystem.ring(config, 2)
        cache = ProgramCache(capacity=64)
        x = x_test[:4]
        oracle = runner.forward(x).logits
        execute_pipeline(runner, x, plan, system=system, cache=cache)
        calls = []
        monkeypatch.setattr(MultiChipSystem, "run",
                            lambda *a, **k: calls.append("system"))
        monkeypatch.setattr(TspChip, "run",
                            lambda *a, **k: calls.append("chip"))
        system.scrub()
        result = execute_pipeline(runner, x, plan, system=system,
                                  cache=cache)
        assert calls == []
        assert np.array_equal(result.logits, oracle)
        link = system.chips[0].c2c_unit(Hemisphere.EAST).links[0]
        ingress = system.chips[1].c2c_unit(Hemisphere.WEST).links[0]
        vectors = result.executed.stages[0].egress_vectors
        assert link.sent_vectors == link.tx_seq == vectors
        assert ingress.received_vectors == vectors


# ----------------------------------------------------------------------
# Executed pipeline vs the single-chip oracle


def load_bench():
    """``benchmarks/bench_scaleout.py``, whose four-matrix-layer CNN
    (``bench_model``) the deep-pipeline tests run."""
    spec = importlib.util.spec_from_file_location("bench_scaleout", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH = Path(__file__).resolve().parents[1] / "benchmarks/bench_scaleout.py"
make_deep_cnn = load_bench().bench_model


def make_mlp(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential([
        Dense(16, 32, rng=rng),
        ReLU(),
        Dense(32, 8, rng=rng),
    ])


def cnn_runner(config, model=None, seed=0):
    data = make_shapes(
        n_train=48, n_test=8, image_size=8, n_classes=3, seed=seed
    )
    model = model or make_small_cnn(3, channels=4, image_size=8, seed=seed)
    runner = TspCnnRunner(
        model, config, data.x_train[:24], max_vectors_per_program=32
    )
    return runner, data.x_test


def matrix_names(plan):
    return [list(stage.names) for stage in plan.stages]


class TestPartitionPrice:
    """The partitioner prices a matrix layer at one input's rows by the
    compiler's closed form (``TspCnnRunner.predicted_cycles``), and the
    price is what a one-input forward runs."""

    @pytest.mark.parametrize("factory, cycles", [
        (None, {"conv0": 39, "conv1": 42, "dense2": 31}),
        (make_deep_cnn,
         {"conv0": 39, "conv1": 52, "conv2": 42, "dense3": 45}),
    ], ids=["benchmark-cnn", "bench-model"])
    def test_price_is_the_one_input_cycles(self, config, factory, cycles):
        runner, x_test = cnn_runner(
            config, model=factory() if factory else None
        )
        plan = plan_runner_partition(runner, len(cycles))  # a layer a chip
        assert {stage.names[0]: stage.cost for stage in plan.stages} == (
            runner.forward(x_test[:1]).layer_cycles
        ) == cycles

    def test_splits_are_pinned(self, config):
        """The benchmark CNN's 2-chip split is ``pipeline-2chip``'s; the
        bench model's is its 2-chip ``BENCH_scaleout.json`` record."""
        cnn, _ = cnn_runner(config)
        assert matrix_names(plan_runner_partition(cnn, 2)) == [
            ["conv0", "conv1"], ["dense2"],
        ]
        deep, _ = cnn_runner(config, model=make_deep_cnn())
        assert matrix_names(plan_runner_partition(deep, 2)) == [
            ["conv0", "conv1"], ["conv2", "dense3"],
        ]
        assert matrix_names(plan_runner_partition(deep, 4)) == [
            ["conv0"], ["conv1"], ["conv2"], ["dense3"],
        ]


class TestExecutedPipeline:
    def test_two_chip_logits_match_oracle(self, config):
        runner, x_test = cnn_runner(config)
        x = x_test[:3]
        oracle = runner.forward(x)
        plan = plan_runner_partition(runner, 2)
        result = execute_pipeline(runner, x, plan)
        assert np.array_equal(result.logits, oracle.logits)
        executed = result.executed
        assert executed.n_chips == 2
        assert all(stage.cycles > 0 for stage in executed.stages)
        assert executed.stages[0].egress_vectors > 0
        assert executed.stages[0].transfer_cycles > 0
        assert executed.stages[-1].egress_vectors == 0

    def test_three_chip_logits_match_oracle(self, config):
        runner, x_test = cnn_runner(config)
        x = x_test[:2]
        oracle = runner.forward(x)
        plan = plan_runner_partition(runner, 3)
        result = execute_pipeline(runner, x, plan)
        assert np.array_equal(result.logits, oracle.logits)
        names = [n for s in result.executed.stages for n in s.layer_names]
        assert names == ["conv0", "conv1", "dense2"]

    def test_four_chip_deep_cnn_matches_oracle(self, config):
        runner, x_test = cnn_runner(config, model=make_deep_cnn())
        x = x_test[:2]
        oracle = runner.forward(x)
        plan = plan_runner_partition(runner, 4)
        result = execute_pipeline(runner, x, plan)
        assert np.array_equal(result.logits, oracle.logits)
        assert result.executed.n_chips == 4
        assert all(s.layer_names for s in result.executed.stages)

    def test_single_chip_path_matches_forward(self, config):
        runner, x_test = cnn_runner(config)
        x = x_test[:2]
        oracle = runner.forward(x)
        plan = plan_runner_partition(runner, 1)
        result = execute_pipeline(runner, x, plan)
        assert np.array_equal(result.logits, oracle.logits)
        assert result.executed.stages[0].cycles == oracle.total_cycles

    def test_cache_shares_chunk_programs_and_keys_transfers(self, config):
        runner, x_test = cnn_runner(config)
        x = x_test[:2]
        oracle = runner.forward(x)
        cache = ProgramCache(capacity=64)
        system = MultiChipSystem.ring(config, 2)
        plan = plan_runner_partition(runner, 2)
        first = execute_pipeline(runner, x, plan, system=system, cache=cache)
        assert np.array_equal(first.logits, oracle.logits)
        misses = cache.stats.misses
        again = execute_pipeline(runner, x, plan, system=system, cache=cache)
        assert np.array_equal(again.logits, oracle.logits)
        # the second run replays every chunk program *and* every timed
        # transfer from the cache — zero fresh builds
        assert cache.stats.misses == misses
        assert cache.stats.hits > 0

    def test_more_chips_than_matrix_layers_raises(self, config):
        runner, _ = cnn_runner(config)  # 3 matrix layers
        with pytest.raises(ConfigError):
            plan_runner_partition(runner, 4)

    def test_partition_fingerprint_reaches_transfer_keys(self, config):
        runner, x_test = cnn_runner(config)
        x = x_test[:1]
        cache = ProgramCache(capacity=64)
        plan = plan_runner_partition(runner, 2)
        execute_pipeline(runner, x, plan, cache=cache)
        with cache._lock:
            transfer_keys = [
                k for k in cache._programs if str(k).startswith("xfer:")
            ]
        assert transfer_keys
        assert all(plan.fingerprint in k for k in transfer_keys)


class TestExecutedPipelineUnderFaults:
    def test_noisy_and_bursty_links_stay_bit_exact(self, config):
        """Seeded BER + a forced-retransmission burst on the stage
        boundary: logits identical to the oracle, and a second identically
        faulted system agrees on every measured cycle (recovery rides in
        the pre-reserved arrival_latency slack, never arbitration)."""
        runner, x_test = cnn_runner(config)
        x = x_test[:2]
        oracle = runner.forward(x)

        def faulty_system():
            system = MultiChipSystem.ring(config, 2)
            system.set_link_error_model(
                0, Hemisphere.EAST, 0,
                LinkErrorModel(seed=11, ber=1e-3, burst=(2, 2),
                               max_retries=2),
            )
            return system

        plan = plan_runner_partition(runner, 2)
        first = execute_pipeline(runner, x, plan, system=faulty_system())
        again = execute_pipeline(runner, x, plan, system=faulty_system())
        assert np.array_equal(first.logits, oracle.logits)
        assert np.array_equal(again.logits, oracle.logits)
        for a, b in zip(first.executed.stages, again.executed.stages):
            assert a.cycles == b.cycles
            assert a.transfer_cycles == b.transfer_cycles

    def test_dead_link_raises_with_context(self, config):
        runner, x_test = cnn_runner(config)
        system = MultiChipSystem.ring(config, 2)
        system.set_link_error_model(
            0, Hemisphere.EAST, 0, LinkErrorModel(dead_after=0)
        )
        plan = plan_runner_partition(runner, 2)
        with pytest.raises(C2cLinkError) as err:
            execute_pipeline(runner, x_test[:1], plan, system=system)
        message = str(err.value)
        assert "link" in message
        assert "cycle" in message


class TestFuzzCorpus:
    """Every corpus model, every chip count: bit-identical to the oracle."""

    CORPUS = [
        ("small-cnn", None, 2),
        ("small-cnn", None, 3),
        ("deep-cnn", make_deep_cnn, 2),
        ("deep-cnn", make_deep_cnn, 4),
    ]

    @pytest.mark.parametrize(
        "label,factory,n_chips",
        CORPUS,
        ids=[f"{label}-{n}chips" for label, _, n in CORPUS],
    )
    def test_cnn_corpus(self, config, label, factory, n_chips):
        runner, x_test = cnn_runner(
            config, model=factory() if factory else None
        )
        x = x_test[:2]
        oracle = runner.forward(x)
        result = execute_pipeline(
            runner, x, plan_runner_partition(runner, n_chips)
        )
        assert np.array_equal(result.logits, oracle.logits)

    def test_mlp_corpus(self, config, rng):
        runner = TspCnnRunner(
            make_mlp(), config, rng.standard_normal((24, 16)),
            max_vectors_per_program=16,
        )
        x = rng.standard_normal((4, 16))
        oracle = runner.forward(x)
        plan = plan_runner_partition(runner, 2)
        result = execute_pipeline(runner, x, plan)
        assert np.array_equal(result.logits, oracle.logits)
