"""Tests of the benchmark itself: generators, span self time, tracer, gate."""

import json
import shutil

import pytest

import gate
import run
import springsim
import springsim.cli
import workloads
from tracer import Target, Tracer, self_times


def _inputs(workload, seed, work):
    work.mkdir()
    job = workloads.make_job(workload, seed, work)
    files = {p.name: p.read_bytes() for p in work.iterdir()}
    job = json.loads(json.dumps(job).replace(str(work), "WORK"))
    return job, files


@pytest.mark.parametrize("workload", ["sweep", "fit_log", "stream_fit"])
def test_generators_repeat_for_a_seed(tmp_path, workload):
    first = _inputs(workload, 7, tmp_path / "a")
    assert first == _inputs(workload, 7, tmp_path / "b")
    assert first != _inputs(workload, 8, tmp_path / "c")


def test_sweep_work_is_equal_across_seeds():
    pool = workloads.load_pool()
    steps = set()
    for seed in range(5):
        rows = workloads.select_sweep(pool, seed)
        steps.add(sum(workloads.row_steps(r) for r in rows if r["expect"] == "ok"))
    assert len(steps) == 1


def test_self_time_on_a_synthetic_span_tree():
    #        0: root [0, 10]
    #   1: [1, 4]          3: [5, 6]   4: [5.5, 7] (overlaps 3)
    #   2: [2, 3] (child of 1)
    parent = [-1, 0, 1, 0, 0]
    t0 = [0.0, 1.0, 2.0, 5.0, 5.5]
    t1 = [10.0, 4.0, 3.0, 6.0, 7.0]
    assert self_times(parent, t0, t1) == pytest.approx([5.0, 2.0, 1.0, 1.0, 1.5])


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(i) for i in range(100, 0, -1)]) == (90.0, 90.0)
    assert run.tail([float(i) for i in range(1, 16)]) == (100 * 5 / 15, 5.0)
    assert run.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def test_tracer_covers_aliases_and_lists_missing_targets(tmp_path):
    original = springsim.simulator.run
    targets = (
        Target("simulator.run", "springsim.simulator", "run"),
        Target("simulator.gone", "springsim.simulator", "no_such_function"),
        Target("fitting.window.push", "springsim.fitting", "WindowState.push"),
    )
    tracer = Tracer(targets)
    tracer.install()
    try:
        assert springsim.harness.run is springsim.simulator.run is springsim.run
        assert springsim.harness.run is not original
        cfg = springsim.paper_table()[0].to_sim_config()
        springsim.harness.run(cfg)
        window = springsim.WindowState(4, 0.01)
        window.push(springsim.Sample(0.0, 1.0, 2.0))
    finally:
        tracer.uninstall()
    assert springsim.harness.run is original
    assert tracer.untraced == ["simulator.gone"]
    summary = tracer.summary()
    assert summary["simulator.run.calls"] == 1
    assert summary["fitting.window.push.calls"] == 1
    assert summary["simulator.run.self_s"] > 0
    tracer.write(tmp_path / "spans.csv")
    lines = (tmp_path / "spans.csv").read_text().splitlines()
    assert lines[0] == "id,parent,name,t0,t1,failed"
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["0", "-1", "simulator.run"],
        ["1", "-1", "fitting.window.push"],
    ]


@pytest.fixture(scope="module")
def paper_outputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("paper")
    codes = (
        springsim.cli.main(["grid", "--table", "paper", "--out", str(out)]),
        springsim.cli.main(["traces", str(out), "--out", str(out / "plots")]),
    )
    return out, codes


def _change_one_value(report):
    lines = report.read_text().splitlines()
    cells = lines[1].split(",")
    cells[5] = repr(float(cells[5]) * (1 + 1e-6))
    lines[1] = ",".join(cells)
    report.write_text("\n".join(lines) + "\n")


def test_gate_rejects_a_paper_report_with_one_changed_value(paper_outputs, tmp_path):
    out, codes = paper_outputs
    ref = json.loads(workloads.PAPER_REFERENCE.read_text())
    tally = gate.Tally()
    gate.check_paper(tally, out, out / "plots", codes, ref)
    assert (tally.failed, tally.max_rel_err) == (0, 0.0)

    changed = tmp_path / "changed"
    shutil.copytree(out, changed)
    _change_one_value(changed / "report.csv")
    tally = gate.Tally()
    gate.check_paper(tally, changed, changed / "plots", codes, ref)
    assert tally.failed == 2  # the digest and the row
    assert tally.max_rel_err == pytest.approx(1e-6)


def test_gate_rejects_a_sweep_row_with_one_changed_value(tmp_path):
    pool = workloads.load_pool()
    rows = [pool[0], pool[-1]]  # one ok row, one designed to fail
    workloads.write_specs(rows, tmp_path / "specs.ini")
    out = tmp_path / "out"
    code = springsim.cli.main(["grid", "--specs", str(tmp_path / "specs.ini"), "--out", str(out)])
    tally = gate.Tally()
    gate.check_sweep(tally, out, code, rows)
    assert (tally.attempted, tally.failed) == (3, 0)

    _change_one_value(out / "report.csv")
    tally = gate.Tally()
    gate.check_sweep(tally, out, code, rows)
    assert tally.failed == 1


def test_gate_rejects_a_designed_failure_that_succeeds(tmp_path):
    ok_row = workloads.load_pool()[0]
    rows = [dict(ok_row, expect="SingularConfiguration")]
    workloads.write_specs(rows, tmp_path / "specs.ini")
    out = tmp_path / "out"
    code = springsim.cli.main(["grid", "--specs", str(tmp_path / "specs.ini"), "--out", str(out)])
    tally = gate.Tally()
    gate.check_sweep(tally, out, code, rows)
    assert tally.failed == 2  # exit code 0 and the row did not fail


def test_gate_compares_fits_with_the_oracle():
    tally = gate.Tally()
    stdout = json.dumps({"n_samples": 10, "mu_star": 2.0, "alpha0_star": 1.0})
    gate.check_fit(tally, stdout, 0, 10, (2.0, 1.0))
    assert tally.failed == 0
    gate.check_fit(tally, stdout, 0, 10, (2.0 * (1 + 1e-5), 1.0))
    assert tally.failed == 1


def test_tracer_keeps_totals_of_passes_past_the_span_budget():
    tracer = Tracer((Target("fitting.window.push", "springsim.fitting", "WindowState.push"),))
    window = springsim.WindowState(4, 0.01)
    for pushes in (3, 5):
        tracer.install()
        try:
            for _ in range(pushes):
                window.push(springsim.Sample(0.0, 1.0, 2.0))
        finally:
            tracer.uninstall()
        tracer.end_pass(keep_spans=4)
    assert len(tracer.t0) == 3  # the second pass's spans were dropped
    assert tracer.summary()["fitting.window.push.calls"] == 8
