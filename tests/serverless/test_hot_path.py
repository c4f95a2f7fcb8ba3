"""Serving hot-path tests: exact prefix-integral windows, bounded
autoscaler history, the incremental pool counter, the fast-doubling
Fibonacci handler and the serve verb's input errors."""

import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


def oracle_average(samples, now, window):
    """Per-tick brute force: sum the step signal one tick at a time.

    ``samples`` is the full (never trimmed) ``(tick, value)`` history
    after same-tick overwrites; ticks before the first sample count zero.
    """
    start = max(now - window, 0)
    if not samples:
        return 0.0
    if now <= start:
        return float(samples[-1][1])
    ticks = [tick for tick, _ in samples]
    area = 0
    for tick in range(start, now):
        index = bisect.bisect_right(ticks, tick) - 1
        if index >= 0:
            area += samples[index][1]
    return area / float(now - start)


def fib_iterative(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, (a + b) % (10**18)
    return a


# Each step observes at (previous tick + gap): gap 0 is a same-tick
# overwrite.  After each observe the autoscaler is queried at up to
# ``lag`` ticks past the last sample, as the router's evaluations are.
STEPS = st.lists(
    st.tuples(st.integers(min_value=0, max_value=12),     # gap
              st.integers(min_value=0, max_value=40),     # value
              st.integers(min_value=0, max_value=15)),    # query lag
    min_size=1, max_size=60)


class TestPrefixIntegralWindows:
    @settings(max_examples=150, deadline=None)
    @given(steps=STEPS,
           first_tick=st.integers(min_value=0, max_value=30),
           stable=st.integers(min_value=1, max_value=40),
           panic_share=st.floats(min_value=0.0, max_value=1.0))
    def test_averages_equal_the_per_tick_oracle(self, steps, first_tick,
                                                stable, panic_share):
        from repro.serverless.scaler import (
            ConcurrencyAutoscaler,
            ScalingConfig,
            windowed_average,
        )

        panic = max(1, int(stable * panic_share))
        config = ScalingConfig(stable_window=stable, panic_window=panic)
        scaler = ConcurrencyAutoscaler(config, "fn")
        history = []
        tick = first_tick
        for gap, value, lag in steps:
            tick += gap
            scaler.observe(tick, value)
            if history and history[-1][0] == tick:
                history[-1] = (tick, value)
            else:
                history.append((tick, value))
            for now in (tick, tick + lag):
                for window in (stable, panic):
                    expected = oracle_average(history, now, window)
                    assert scaler.average(now, window) == expected
                    assert windowed_average(history, now, window) == expected
        # Small windows over long traces must actually have trimmed.
        if tick - first_tick > 2 * stable + 12:
            assert scaler.retained < len(history)

    def test_non_monotone_tick_raises_and_keeps_history(self):
        from repro.serverless.scaler import ConcurrencyAutoscaler, ScalingConfig

        scaler = ConcurrencyAutoscaler(ScalingConfig(), "fn")
        scaler.observe(10, 3)
        scaler.observe(20, 1)
        before = (list(scaler.ticks), list(scaler.values),
                  list(scaler.integral))
        with pytest.raises(ValueError, match="earlier"):
            scaler.observe(19, 5)
        assert (scaler.ticks, scaler.values, scaler.integral) == before
        scaler.observe(20, 2)  # same tick is an overwrite, not an error
        assert scaler.values[-1] == 2


def cluster_platform(requests, node_fail_rate=0.0):
    from repro.serverless.container import base_image
    from repro.serverless.loadgen import arrival_ticks
    from repro.serverless.platform import ClusterConfig, make_platform
    from repro.serverless.scaler import ScalingConfig
    from repro.workloads.catalog import get_function

    function = get_function("fibonacci-python")
    platform = make_platform(
        "riscv", seed=0,
        cluster=ClusterConfig(nodes=3, placement="spread",
                              node_fail_rate=node_fail_rate))
    platform.registry.push(base_image("python", "riscv"))
    platform.deploy("fn", "python-default", "python", function.handler,
                    scaling=ScalingConfig(target_concurrency=2,
                                          max_instances=8))
    arrivals = arrival_ticks("poisson", rps=100, requests=requests, seed=0)
    return platform, arrivals


class TestLinearServing:
    def test_autoscaler_history_stays_within_the_stable_window(self):
        platform, arrivals = cluster_platform(10_000)
        pool = platform.pool("fn")
        scaler = pool.autoscaler
        window = pool.scaling.stable_window
        seen = []
        worst = []
        observe = scaler.observe

        def checked_observe(tick, in_flight):
            observe(tick, in_flight)
            if not seen or seen[-1] != tick:
                seen.append(tick)
            inside = len(seen) - bisect.bisect_left(seen, tick - window)
            assert scaler.retained <= inside + 2
            # Expired samples are compacted before they outnumber the
            # live ones.
            assert len(scaler.ticks) < 2 * scaler.retained
            worst.append(scaler.retained)

        scaler.observe = checked_observe
        result = platform.serve("fn", arrivals)
        assert len(result.records) == 10_000
        assert max(worst) < 1000 < len(seen)

    def test_pool_busy_counter_matches_instances_after_every_event(self):
        platform, arrivals = cluster_platform(600, node_fail_rate=0.1)
        checks = []
        schedule = platform._schedule_eval

        def checked_schedule(pool, heap, order):
            assert pool.busy == sum(inst.busy for inst in pool.instances)
            assert pool.in_flight == pool.busy + len(pool.queue)
            checks.append(pool.busy)
            schedule(pool, heap, order)

        platform._schedule_eval = checked_schedule
        result = platform.serve("fn", arrivals)
        assert result.node_failures() > 0
        assert len(checks) >= len(arrivals)
        assert max(checks) > 0
        assert platform.pool("fn").busy == 0


class FakeContext:
    def __init__(self):
        self.meters = {}

    def meter(self, key, amount=1):
        self.meters[key] = self.meters.get(key, 0) + amount


class TestFibonacciHandler:
    @pytest.mark.parametrize("runtime", ["go", "python", "nodejs"])
    def test_fast_doubling_matches_the_loop(self, runtime):
        from repro.workloads.catalog import get_function

        handler = get_function("fibonacci-%s" % runtime).handler
        for n in list(range(301)) + [10_000, 12_345]:
            ctx = FakeContext()
            result = handler({"n": n}, ctx)
            assert result == {"fib_mod": fib_iterative(n), "n": n}
            assert ctx.meters == {"iterations": n}

    def test_negative_n_raises(self):
        from repro.workloads.catalog import get_function

        ctx = FakeContext()
        with pytest.raises(ValueError, match="n >= 0"):
            get_function("fibonacci-python").handler({"n": -1}, ctx)
        assert ctx.meters == {}


class TestServeCliErrors:
    @pytest.mark.parametrize("flags, message", [
        (["--requests", "0"], "at least one request"),
        (["--rps", "0"], "rps must be positive"),
        (["--target-concurrency", "0"], "target_concurrency"),
        (["--max-instances", "0"], "max_instances"),
        (["--nodes", "-1"], "nodes must be >= 1"),
        (["--nodes", "3", "--node-fail", "2"], "node_fail_rate"),
        (["--nodes", "3", "--node-capacity", "0"], "node_capacity"),
    ])
    def test_bad_input_exits_with_the_message(self, flags, message):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "fibonacci-python"] + flags)
        assert message in str(exit_info.value.code)
