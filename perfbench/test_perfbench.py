"""Self-tests of the benchmark. Run: python3 -m pytest perfbench -q"""

import json
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import gate
import run
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def span(sid, parent, layer, t0, t1, name="x", info=None):
    return (sid, parent, layer, name, t0, t1, info)


def test_self_time_nested():
    s = [span(1, 0, "cli", 0, 100), span(2, 1, "spectral", 10, 40),
         span(3, 2, "quadrature", 20, 30), span(4, 1, "bulk", 60, 70)]
    assert spans.span_self_ns(s) == {1: 60, 2: 20, 3: 10, 4: 10}
    layers = spans.layer_self_seconds(s)
    assert layers == pytest.approx({"cli": 60e-9, "spectral": 20e-9,
                                    "quadrature": 10e-9, "bulk": 10e-9})


def test_self_time_threaded_overlap_is_shared():
    # two worker spans under the root overlap on [30, 60]; the second
    # one has a child on [40, 50]
    s = [span(1, 0, "cli", 0, 100), span(2, 1, "spectral", 10, 60),
         span(3, 1, "spectral", 30, 80), span(4, 3, "materials", 40, 50)]
    assert spans.span_self_ns(s) == {1: 30, 2: 50, 3: 40, 4: 10}
    layers = spans.layer_self_seconds(s)
    assert layers == pytest.approx({"cli": 30e-9, "spectral": 65e-9, "materials": 5e-9})
    assert sum(layers.values()) == pytest.approx(100e-9)


def test_self_time_child_outside_parent_is_clipped():
    s = [span(1, 0, "cli", 0, 10), span(2, 1, "spectral", 5, 15)]
    assert spans.span_self_ns(s)[1] == 5


def test_tracer_parents_on_worker_threads():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda: time.sleep(0.01), "materials", "eps_like")
    def work(i):
        time.sleep(0.01)
        inner()
        return i

    outer = tracer.wrap(work, "spectral", "work")

    def command():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(outer, range(4)))

    assert tracer.run_root(command) == [0, 1, 2, 3]
    by_id = {s[0]: s for s in tracer.spans}
    root = next(s for s in tracer.spans if s[3] == "main")
    for s in tracer.spans:
        if s[3] == "work":
            assert s[1] == root[0]
        elif s[3] == "eps_like":
            assert by_id[s[1]][3] == "work"
            assert by_id[s[1]][4] <= s[4] and s[5] <= by_id[s[1]][5]
    layers = spans.layer_self_seconds(tracer.spans)
    assert sum(layers.values()) == pytest.approx((root[5] - root[4]) / 1e9, rel=1e-9)
    assert layers["materials"] > 0.01


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    def snapshot(seed):
        wl = workloads.generate(name, seed)
        return [(c.argv, c.material_file) for c in wl.commands]

    assert snapshot(7) == snapshot(7)
    assert snapshot(7) != snapshot(8)
    for argv, _ in snapshot(7):
        assert argv[0] in ("sweep", "bulk")
        assert all(isinstance(a, str) for a in argv)


def test_generator_rejects_unknown_workload():
    with pytest.raises(ValueError):
        workloads.generate("no-such-workload", 1)


def test_retarded_grids_stay_retarded_under_auto():
    for seed in range(20):
        for cmd in workloads.generate("retarded-farfield", seed).commands:
            metal = cmd.material
            omega = float(cmd.flags["omega"])
            delta = workloads.skin_depth(metal, omega)
            assert float(cmd.flags["min"]) > 0.1 * delta
            assert float(cmd.flags["min"]) > 30 * workloads.fermi_wavelength(metal)


def _local_sweep_csv(cmd, tamper=False):
    """What `ewjn sweep` prints for a local-quasistatic charge z-sweep."""
    omega = float(cmd.flags["omega"])
    lines = ["z[m]," + ",".join(f"local-quasistatic:{c}" for c in
                                ("chi_xx", "chi_zz", "rate", "t1", "chi_err", "status"))]
    for z in gate.sweep_grid(cmd.flags):
        xx, zz = gate.closed_form(cmd.material, "E", z, omega)
        rate = (gate.MOMENTS["charge"] / gate.HBAR) ** 2 * xx
        values = (xx, 1.01 * zz if tamper else zz, rate, 1.0 / rate, 0.0)
        lines.append(",".join(["%.8e" % z] + ["%.8e" % v for v in values] + ["ok"]))
    return ("\n".join(lines) + "\n").encode()


def test_gate_checks_closed_forms():
    cmd = workloads._sweep("z", 1e-9, 1e-7, 3, "local-quasistatic", "charge",
                           omega=workloads.OMEGA_0)
    ok = gate.Gate()
    assert ok.command(0, cmd, 0, _local_sweep_csv(cmd)) and not ok.problems
    assert len(ok.cells) == 3 and all(c.good for c in ok.cells)
    bad = gate.Gate()
    assert not bad.command(0, cmd, 0, _local_sweep_csv(cmd, tamper=True))
    assert any("chi_zz != 2 chi_xx" in p for p in bad.problems)
    assert not gate.Gate().command(0, cmd, 3, _local_sweep_csv(cmd))


def test_metric_names(bench):
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    s = [span(1, 0, "cli", 0, 100, "main")]
    produced = spans.summarize([{"spans": s, "cmd_s": 1e-7}], 0, 1e-7)
    assert set(produced) == {m["name"] for m in bench["per_layer"]}
    assert set(run.END_TO_END_UNITS) == {m["name"] for m in bench["end_to_end"]}


def test_benchmark_json_lists_reasons_and_targets(bench):
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    for w in bench["workloads"]:
        assert w["why"].strip() and "\n" not in w["why"] and len(w["why"]) <= 200
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    for m in e2e.values():
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
        assert 0 < m["bound"] <= 0.25
    assert max(m["bound"] for m in e2e.values()) == e2e["setup_s"]["bound"]
    for m in bench["per_layer"]:
        target = spans.MOVES[m["name"]]
        assert target in e2e or (target == "none" and m["name"].startswith("trace.")), m
        assert m["unit"] == spans.unit_of(m["name"])
    assert set(spans.MOVES) == {m["name"] for m in bench["per_layer"]}
