"""``scripts/check_bench_records.py`` accepts the committed performance
records and rejects a record whose summary does not follow from its
runs."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = ROOT / "benchmarks" / "results" / "BENCH_perfbench.json"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def checker():
    spec = importlib.util.spec_from_file_location(
        "check_bench_records", ROOT / "scripts" / "check_bench_records.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def records():
    return json.loads(RECORDS.read_text())


def _problems(checker, record):
    return checker.check_record(0, record, BENCHMARK)


def _first_block(record):
    return next(iter(record["workloads"].values()))


def test_committed_records_pass(checker, records):
    assert checker.main(["--records", str(RECORDS)]) == 0
    for index, record in enumerate(records):
        assert checker.check_record(index, record, BENCHMARK) == []


def test_incorrect_run_fails(checker, records):
    record = copy.deepcopy(records[0])
    _first_block(record)["runs"][1]["correct"] = False
    assert any("not correct" in p for p in _problems(checker, record))


def test_stored_median_must_follow_from_runs(checker, records):
    record = copy.deepcopy(records[0])
    summary = next(iter(_first_block(record)["metrics"].values()))
    summary["change_median"] *= 1.01
    assert any("change_median" in p for p in _problems(checker, record))


def test_win_count_must_follow_from_runs(checker, records):
    record = copy.deepcopy(records[0])
    summary = next(iter(_first_block(record)["metrics"].values()))
    summary["wins"] = summary["of"] - summary["wins"] + 1
    assert any("wins" in p for p in _problems(checker, record))


def test_bound_must_match_benchmark(checker, records):
    record = copy.deepcopy(records[0])
    summary = next(iter(_first_block(record)["metrics"].values()))
    summary["bound"] = 0.5
    assert any("bound" in p for p in _problems(checker, record))


def test_unknown_workload_fails(checker, records):
    record = copy.deepcopy(records[0])
    name = next(iter(record["workloads"]))
    record["workloads"]["elsewhere"] = record["workloads"].pop(name)
    assert any("unknown workload" in p for p in _problems(checker, record))
