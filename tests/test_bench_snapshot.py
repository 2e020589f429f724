"""tools/bench_snapshot.py on canned bench/run.py output: no benchmark runs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from types import ModuleType, SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_snapshot", ROOT / "tools" / "bench_snapshot.py")
snap = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(snap)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
HOST = {"python": "3", "numpy": "2", "nproc": 2, "cpu": "cpu", "commit": "abc", "starts": 7,
        "python_c_pass_s": 0.04, "python_S_c_pass_s": 0.01, "native": True,
        "cc_version": "cc 12", "numpy_cpu": {"baseline": ["X86_V2"], "dispatched": ["X86_V3"]}}


def canned(value: float, drop: str = "") -> str:
    """What run.py prints: report lines, then its JSON result, with every metric at value."""
    metrics = {name: {"value": value, "unit": unit} for name, unit in UNITS.items()
               if name != drop}
    result = {"correct": True, "attempted": 6, "failed": 0, "metrics": metrics}
    return ("env: {}\noperations: 6 attempted, 0 failed, 6 checked against stored output digests\n"
            + "".join(f"{name:32s} {value:14.6g} {unit}\n" for name, unit in UNITS.items())
            + json.dumps(result) + "\n")


@pytest.fixture
def feed(monkeypatch, tmp_path):
    """Each run.py process prints make(workload, seed); the host block is fixed and files go
    to tmp_path. Calling the fixture's value swaps make and returns the runs made so far."""
    calls = []

    def install(make=lambda workload, seed: canned(1.0 + seed), returncode=0):
        def run(args, **kwargs):
            workload, seed, seconds = (args[args.index(flag) + 1]
                                       for flag in ("--workload", "--seed", "--seconds"))
            calls.append((workload, int(seed), seconds))
            return subprocess.CompletedProcess(args, returncode, make(workload, int(seed)), "boom")

        monkeypatch.setattr(snap.repeat, "subprocess", SimpleNamespace(run=run))
        return calls

    monkeypatch.setattr(snap, "host", lambda: dict(HOST))
    monkeypatch.setattr(snap, "ROOT", tmp_path)
    install()
    return install


def test_snapshot_holds_each_metric_median_and_quartiles(feed, tmp_path):
    assert snap.main(["--label", "t"]) == 0
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert feed() == [(w, s, "4") for w in WORKLOADS for s in (0, 1)]
    assert set(report) == {"label", "seeds", "seconds", "host", "workloads"}
    assert (report["seeds"], report["seconds"], report["host"]) == ([0, 1], 4, HOST)
    assert list(report["workloads"]) == WORKLOADS
    for summary in report["workloads"].values():
        assert summary["correct"] is True and summary["failed"] == 0
        # bench/repeat.py's quartiles (statistics' default, exclusive method) of 1 and 2
        assert summary["metrics"] == {
            name: {"unit": unit, "median": 1.5, "q1": 0.75, "q3": 2.25}
            for name, unit in UNITS.items()}


def test_previous_file_gives_each_median_a_ratio(feed, tmp_path):
    assert snap.main(["--label", "before"]) == 0
    feed(lambda workload, seed: canned(2.0 * (1.0 + seed)))
    assert snap.main(["--label", "after", "--previous", str(tmp_path / "BENCH_before.json")]) == 0
    report = json.loads((tmp_path / "BENCH_after.json").read_text())
    assert report["previous"] == "BENCH_before.json"
    for summary in report["workloads"].values():
        for metric in summary["metrics"].values():
            assert metric["median"] == 3.0 and metric["ratio"] == 2.0


@pytest.mark.parametrize("path, value", [(("seeds",), [0]), (("seconds",), 1),
                                         (("host", "cpu"), "other"), (("host", "nproc"), 64)])
def test_a_previous_file_recorded_otherwise_is_refused_before_any_run(feed, tmp_path, capsys,
                                                                      path, value):
    assert snap.main(["--label", "before"]) == 0
    before = tmp_path / "BENCH_before.json"
    report = json.loads(before.read_text())
    *parents, key = path
    target = report
    for parent in parents:
        target = target[parent]
    target[key] = value
    before.write_text(json.dumps(report))
    runs = len(feed())
    assert snap.main(["--label", "after", "--previous", str(before)]) == 1
    assert f"{before}: recorded with" in capsys.readouterr().err
    assert len(feed()) == runs and not (tmp_path / "BENCH_after.json").exists()


def test_host_block_times_at_least_five_starts():
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath

    host = snap.host()
    assert set(host) == set(HOST) and host["starts"] >= 5
    assert 0 < host["python_S_c_pass_s"] and 0 < host["python_c_pass_s"]
    assert isinstance(host["native"], bool) and host["nproc"] >= 1
    assert host["cc_version"] is None or "\n" not in host["cc_version"]
    assert host["numpy_cpu"]["baseline"] == list(umath.__cpu_baseline__)
    assert set(host["numpy_cpu"]["dispatched"]) <= set(umath.__cpu_dispatch__)


def test_cc_version_is_the_first_line_or_null_without_a_compiler(monkeypatch, tmp_path):
    fake = tmp_path / "fakecc.py"
    fake.write_text("import sys\nprint('fakecc 1.0', sys.argv[1:])\nprint('second line')\n")
    for cc, version in ((f"{sys.executable} {fake}", "fakecc 1.0 ['--version']"),
                        (str(tmp_path / "no-such-cc"), None), (None, None),
                        (f"{sys.executable} -c raise", None)):
        monkeypatch.setattr(snap.sysconfig, "get_config_var", lambda name, cc=cc: cc)
        assert snap.cc_version() == version, cc


def test_numpy_cpu_keeps_the_dispatched_features_present(monkeypatch):
    def package(name, baseline, dispatch, features):
        umath = ModuleType(f"{name}._multiarray_umath")
        umath.__cpu_baseline__, umath.__cpu_dispatch__ = baseline, dispatch
        umath.__cpu_features__ = features
        module = ModuleType(name)
        module._multiarray_umath = umath
        monkeypatch.setitem(sys.modules, name, module)

    package("numpy._core", ["B"], ["X", "Y", "Z"], {"X": True, "Y": False})
    assert snap.numpy_cpu() == {"baseline": ["B"], "dispatched": ["X"]}
    # numpy 1.x has the module under numpy.core only
    monkeypatch.setitem(sys.modules, "numpy._core", None)
    package("numpy.core", [], ["Y"], {"Y": True})
    assert snap.numpy_cpu() == {"baseline": [], "dispatched": ["Y"]}
    monkeypatch.setitem(sys.modules, "numpy.core", None)
    assert snap.numpy_cpu() is None


@pytest.mark.parametrize("dropped", list(UNITS))
def test_a_metric_run_py_stops_printing_fails_loudly(feed, tmp_path, capsys, dropped):
    feed(lambda workload, seed: canned(1.0 + seed, dropped))
    assert snap.main(["--label", "t"]) == 1
    assert f"run.py printed no metrics.{dropped}" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_t.json").exists()


@pytest.mark.parametrize("stdout", ["", "wall_s 0.4 s\n", "[1, 2]\n"])
def test_output_without_a_result_line_fails_loudly(feed, capsys, stdout):
    feed(lambda workload, seed: stdout)
    assert snap.main(["--label", "t"]) == 1
    assert "the last stdout line is not run.py's JSON result" in capsys.readouterr().err


def test_a_run_that_exits_nonzero_ends_the_script(feed, tmp_path):
    feed(returncode=3)
    with pytest.raises(SystemExit, match=f"^{WORKLOADS[0]} seed 0: exit 3\nboom$"):
        snap.main(["--label", "t"])
    assert not (tmp_path / "BENCH_t.json").exists()


def test_a_previous_file_without_a_median_fails_loudly(feed, tmp_path, capsys):
    assert snap.main(["--label", "before"]) == 0
    before = tmp_path / "BENCH_before.json"
    report = json.loads(before.read_text())
    del report["workloads"]["exact-check"]["metrics"]["wall_s"]
    before.write_text(json.dumps(report))
    assert snap.main(["--label", "after", "--previous", str(before)]) == 1
    assert "no median of wall_s for exact-check" in capsys.readouterr().err


def test_an_incorrect_workload_is_written_and_exits_1(feed, tmp_path, capsys):
    def failing(workload, seed):
        out = canned(1.0 + seed)
        return out.replace('"correct": true', '"correct": false') if workload == "exact-check" else out

    feed(failing)
    assert snap.main(["--label", "t"]) == 1
    report = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert [w for w, s in report["workloads"].items() if not s["correct"]] == ["exact-check"]
    assert "exact-check is not correct" in capsys.readouterr().err
