"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from fractions import Fraction

import pytest

import run
import tracing
import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_job_lists(workload):
    assert workloads.make_jobs(workload, 7) == workloads.make_jobs(workload, 7)
    other = workloads.make_jobs(workload, 8)
    assert other != workloads.make_jobs(workload, 7)
    assert len(other) == len(workloads.make_jobs(workload, 7))
    assert len({job.name for job in other}) == len(other)


def test_oracles():
    for q in (Fraction(2, 3), Fraction(-3), 1):
        brute = 0
        for n in range(1, 70):
            assert workloads.closed_S(n, q) == brute
            brute += sum(q ** (i + 1) for i in range(n.bit_length()) if n >> i & 1)
    table = workloads.takagi_table(Fraction(1, 4), 6)
    assert table == [2 * Fraction(j, 64) * (1 - Fraction(j, 64)) for j in range(65)]


def _cheap_jobs():
    sweeps = [j for j in workloads.make_jobs("exact-sweep", 3) if j.kind == "sweep" and j.params[2] <= 256]
    evals = [j for j in workloads.make_jobs("cli-defaults", 3) if j.name.startswith("tdq eval")]
    return sweeps + evals


def test_self_times_sum_to_no_more_than_wall(tmp_path):
    lib = run.load_tdq()
    original = lib.trollope.theorem1_rhs
    ctx = workloads.Context(lib, tmp_path)
    tracer = tracing.Tracer(lib)
    with tracer.installed():
        assert lib.trollope.theorem1_rhs is not original
        (traced,) = run.run_passes(ctx, _cheap_jobs(), budget=0.0, tracer=tracer)
    assert lib.trollope.theorem1_rhs is original
    assert all(v.ok for v in traced.verdicts)
    layers = {name: traced.layers[name] for name in tracing.LAYER_NAMES if name in traced.layers}
    assert {"digit_sums.iter_S_direct", "trollope.theorem1_rhs", "cli.main"} <= set(layers)
    assert all(self_s >= 0 for _, self_s in layers.values())
    assert sum(self_s for _, self_s in layers.values()) <= traced.wall


def test_times_are_scaled_by_the_bursts_that_bracket_them():
    assert run.corrected([0.3, 0.2], [1e-3, 3e-3, 1e-3]) == [0.15, 0.1]
    ok = workloads.Verdict(True, False, 1)
    jobs = 12
    slow = run.Pass(2.0 * jobs, [2.0] * jobs, [1.0] * jobs, [2e-3] * (jobs + 1), [ok] * jobs, {}, {})
    fast = run.Pass(1.0 * jobs, [1.0] * jobs, [1.0] * jobs, [1e-3] * (jobs + 1), [ok] * jobs, {}, {})
    values, _ = run.end_to_end([0.2], [slow, fast])
    assert values["wall_s"] == jobs and values["job_p50_ms"] == 1000.0 and values["setup_s"] == 0.2
    raw, _ = run.end_to_end([0.4], [slow, fast], raw=True)
    assert raw["wall_s"] == 1.5 * jobs
    assert 1e-4 < run.calibrate() < 1.0
