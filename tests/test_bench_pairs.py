"""tools/bench_pairs.py: the summary of paired benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def run(workload, pair, side, failed=0, attempted=6, **metrics):
    return {"workload": workload, "pair": pair, "seed": 0, "side": side, "failed": failed,
            "attempted": attempted, "metrics": metrics}


def test_quartiles_interpolate_between_order_statistics():
    assert bench_pairs.quartiles([3.0, 1.0, 2.0]) == [1.5, 2.0, 2.5]
    assert bench_pairs.quartiles([5.5, 5.94]) == pytest.approx([5.61, 5.72, 5.83])
    assert bench_pairs.quartiles([4.0]) == [4.0, 4.0, 4.0]


def test_summary_counts_lower_pairs_ties_and_failures():
    runs = [
        run("codec", 0, "parent", op_s=3.0, bpsp=6.1), run("codec", 0, "change", op_s=1.0, bpsp=6.1),
        run("codec", 1, "change", op_s=2.0, bpsp=6.1), run("codec", 1, "parent", op_s=1.0, bpsp=6.1),
        run("codec", 2, "parent", op_s=2.0, bpsp=6.1), run("codec", 2, "change", op_s=2.0, bpsp=6.1),
        run("train", 0, "parent", op_s=0.2), run("train", 0, "change", failed=1, attempted=4),
    ]
    summary = bench_pairs.summarize(runs, ["op_s", "bpsp", "peak_rss_mb"])
    assert list(summary) == ["codec/seed0", "train/seed0"]
    codec = summary["codec/seed0"]
    assert codec["pairs"] == 3
    assert codec["op_s"] == {"parent_q1_median_q3": [1.5, 2.0, 2.5], "change_q1_median_q3": [1.5, 2.0, 2.0],
                             "change_lower_in": 1, "ties": 1}
    assert codec["bpsp"]["ties"] == 3 and codec["bpsp"]["change_lower_in"] == 0
    assert "peak_rss_mb" not in codec
    assert codec["failed"] == {"parent": 0, "change": 0, "attempted_parent": 18, "attempted_change": 18}
    # a run without metrics takes its pair out of every metric but still counts its failures
    train = summary["train/seed0"]
    assert train["pairs"] == 1 and "op_s" not in train
    assert train["failed"] == {"parent": 0, "change": 1, "attempted_parent": 6, "attempted_change": 4}


def test_unpaired_run_is_left_out():
    runs = [run("codec", 0, "parent", op_s=1.0), run("codec", 0, "change", op_s=2.0),
            run("codec", 1, "parent", op_s=9.0)]
    codec = bench_pairs.summarize(runs, ["op_s"])["codec/seed0"]
    assert codec["pairs"] == 1
    assert codec["op_s"]["parent_q1_median_q3"] == [1.0, 1.0, 1.0]


SPEC = {"workloads": [{"name": "train"}, {"name": "codec_ctx"}],
        "end_to_end": [{"name": "op_s"}, {"name": "peak_rss_mb"}]}


def test_claim_names_a_workload_and_metric_of_the_benchmark():
    assert bench_pairs.parse_claim("codec_ctx/peak_rss_mb", SPEC) == {"workload": "codec_ctx",
                                                                      "metric": "peak_rss_mb"}


@pytest.mark.parametrize("text,unknown", [("codec/peak_rss_mb", "workload 'codec'"),
                                          ("codec_ctx/rss", "metric 'rss'"),
                                          ("codec_ctx", "metric ''")])
def test_claim_outside_the_benchmark_rejected(text, unknown):
    with pytest.raises(ValueError, match=unknown):
        bench_pairs.parse_claim(text, SPEC)
