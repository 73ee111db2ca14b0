"""The host-speed probe runs whole chunks and stays out of step times."""

from arcd import trainer
from arcd.data import synth

import hostspeed
import tracing


def test_probe_runs_for_its_share_and_reports_a_slowdown():
    probe = hostspeed.HostProbe()
    spent = probe.after(0.05)
    assert spent >= hostspeed.SHARE * 0.05 * 1e9
    assert probe.chunks >= 1 and probe.ns == spent
    assert probe.slowdown() > 0
    probe.run_for(0.0)           # at least one chunk, however short
    assert probe.ns > spent


def test_step_clock_leaves_probe_time_out(tmp_path):
    samples = synth.generate(synth.SyntheticSceneSpec(
        size=64, change_fraction=1.0, seed=5), 2)
    cfg = trainer.TrainConfig(lr0=1e-3, max_iteration=3, batch_size=1,
                              seed=5, checkpoint_every=0)
    probe = hostspeed.HostProbe()
    clock = tracing.StepClock(probe).install()
    try:
        trainer.train(samples, cfg, tmp_path)
    finally:
        clock.uninstall()
    assert len(clock.ticks) == 3 and probe.chunks >= 2
    pauses = [r - t for t, r in zip(clock.ticks, clock.resumed)]
    assert pauses[0] == 0 and min(pauses[1:]) > 0
    assert abs(sum(pauses) - probe.ns) <= 1e6
    # Between the first and the last tick: steps plus the pauses in it.
    span_ns = clock.ticks[-1] - clock.ticks[0]
    steps_ns = sum(clock.step_ms()) * 1e6
    assert abs(span_ns - steps_ns - sum(pauses[:-1])) <= 1e3
