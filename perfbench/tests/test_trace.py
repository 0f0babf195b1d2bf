import json
import re
from pathlib import Path

import pytest

from perfbench import trace

ROOT = Path(__file__).resolve().parents[2]
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_self_time_subtracts_children_once():
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["spectrum.solve_bands", 1.0, 4.0, 0],
        ["linalg.eigh", 2.0, 3.0, 1],
        ["cli.write_csv", 3.0, 6.0, 0],      # overlaps its sibling by one second
        ["cli.write_json", 8.0, 12.0, 0],    # sticks out of its parent
    ]
    assert trace.self_times(spans) == pytest.approx([10 - 5 - 2, 2.0, 1.0, 3.0, 4.0])


def test_recorder_nests_spans_and_self_times_add_up():
    recorder = trace.Recorder()
    inner = recorder.wrap("grid.inner", lambda: sum(range(1000)))
    outer = recorder.wrap("spectrum.outer", lambda: inner() + inner())
    outer()
    names = [s[0] for s in recorder.spans]
    parents = [s[3] for s in recorder.spans]
    assert names == ["spectrum.outer", "grid.inner", "grid.inner"]
    assert parents == [-1, 0, 0]
    root = recorder.spans[0]
    assert sum(trace.self_times(recorder.spans)) == pytest.approx(root[2] - root[1])


def test_inactive_recorder_records_nothing():
    recorder = trace.Recorder()
    fn = recorder.wrap("grid.f", lambda x: x + 1)
    recorder.active = False
    assert fn(1) == 2
    assert recorder.spans == []


def test_parse_importtime_splits_python_blochlab_and_scipy():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 | encodings",
        "import time:        50 |         50 |     scipy._lib",
        "import time:        25 |        250 |   scipy.linalg",
        "import time:        10 |         10 |   numpy",
        "import time:       400 |        660 | blochlab",
        "import time:         5 |        300 | blochlab.cli",
    ])
    times = trace.parse_importtime(log)
    assert times["python_s"] == pytest.approx(100e-6)
    assert times["blochlab_s"] == pytest.approx(960e-6)
    assert times["scipy_s"] == pytest.approx(250e-6)
    assert times["total_s"] == pytest.approx(1060e-6)


def test_job_metrics_split_first_amplitude_from_the_rest():
    doc = {
        "spans": [
            ["cli.main", 0.0, 5.0, -1],
            ["dynamics.exact_amplitude", 0.0, 3.0, 0],
            ["linalg.eigh", 0.5, 2.5, 1],
            ["dynamics.exact_amplitude", 3.0, 3.5, 0],
            ["superselection.selection_scan", 3.5, 4.5, 0],
            ["observables.cell_periodicity_defect", 3.6, 4.4, 4],
        ],
        "counters": {"linalg.eigh_max_n": 2048},
        "health": {"eigen_residual_max": 1e-12},
        "health_s": 0.25,
    }
    sums = trace.job_metrics(doc, "")
    assert sums["dynamics.exact_amplitude_first_s"] == pytest.approx(3.0)
    assert sums["dynamics.exact_amplitude_rest_s"] == pytest.approx(0.5)
    assert sums["dynamics.self_s"] == pytest.approx(1.5)
    assert sums["linalg.self_s"] == pytest.approx(2.0)
    assert sums["linalg.eigh_calls"] == 1
    assert sums["superselection.selection_scan_self_s"] == pytest.approx(0.2)
    assert sums["observables.cell_periodicity_defect_s"] == pytest.approx(0.8)
    assert sums["cli.self_s"] == pytest.approx(0.5)
    assert sums["spectrum.eigen_residual_max"] == 1e-12

    row = {"wall_s": 6.0, "bytes": 100, "sums": sums}
    metrics = trace.run_metrics([row], [], untraced_wall_s=5.0)
    assert list(metrics) == [name for name, _ in trace.PER_LAYER]
    assert metrics["trace.overhead_s"]["value"] == pytest.approx(0.75)
    assert metrics["trace.remainder_s"]["value"] == pytest.approx(6.0 - 5.0 - 0.25)
    assert metrics["cli.bytes_written"]["value"] == 100


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert METRIC_NAME.fullmatch(metric["name"]), metric["name"]
        assert UNIT.fullmatch(metric["unit"]), metric["unit"]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(trace.PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "wall_s", "job_p50_s", "peak_rss_mib"]
