"""tools/bench_pairs.py: the summary of paired benchmark runs."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def lower(name, bound):
    return {"name": name, "better": "lower", "bound": bound}


def run(workload, pair, side, failed=0, attempted=6, no_result=False, **metrics):
    return {"workload": workload, "pair": pair, "seed": 0, "side": side, "failed": failed,
            "attempted": attempted, "no_result": no_result, "metrics": metrics}


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
    summary = bench_pairs.summarize(runs, [lower("op_s", 0.25), lower("bpsp", 0.1), lower("peak_rss_mb", 0.1)])
    assert list(summary) == ["codec/seed0", "train/seed0"]
    codec = summary["codec/seed0"]
    assert codec["pairs"] == 3
    assert codec["op_s"] == {"parent_q1_median_q3": [1.5, 2.0, 2.5], "change_q1_median_q3": [1.5, 2.0, 2.0],
                             "change_lower_in": 1, "ties": 1, "verdict": "unresolved"}
    assert codec["bpsp"]["ties"] == 3 and codec["bpsp"]["change_lower_in"] == 0
    assert codec["bpsp"]["verdict"] == "ok"
    assert "peak_rss_mb" not in codec
    assert codec["failed"] == {"parent": 0, "change": 0, "attempted_parent": 18, "attempted_change": 18,
                               "no_result_parent": 0, "no_result_change": 0}
    # a run without metrics takes its pair out of every metric but still counts its failures
    train = summary["train/seed0"]
    assert train["pairs"] == 1 and "op_s" not in train
    assert train["failed"] == {"parent": 0, "change": 1, "attempted_parent": 6, "attempted_change": 4,
                               "no_result_parent": 0, "no_result_change": 0}


def test_mixed_modes_names_a_metric_whose_runs_jump_on_either_side():
    # codec_ctx at seed 1: a 6.5-MB jump between runs of one tree, against 0.25 * 0.1 * 153 = 3.8 MB
    jump = [152.4, 152.6, 152.9, 158.97, 159.07, 152.5]
    tight = [153.5, 153.6, 153.7, 153.55, 153.65, 153.6]
    for parent, change in [(jump, tight), (tight, jump)]:
        runs = [run("codec_ctx", p, side, peak_rss_mb=value, op_s=2.5)
                for p, (a, b) in enumerate(zip(parent, change)) for side, value in (("parent", a), ("change", b))]
        summary = bench_pairs.summarize(runs, [lower("op_s", 0.25), lower("peak_rss_mb", 0.1)])
        assert summary["codec_ctx/seed0"]["mixed_modes"] == ["peak_rss_mb"]


def test_mixed_modes_empty_for_tight_runs():
    # train at seed 0: runs within 1 MB of each other, against 0.25 * 0.1 * 108 = 2.7 MB
    parent, change = [107.6, 107.8, 108.0, 107.7], [93.3, 94.2, 93.8, 93.5]
    runs = [run("train", p, side, peak_rss_mb=value)
            for p, (a, b) in enumerate(zip(parent, change)) for side, value in (("parent", a), ("change", b))]
    summary = bench_pairs.summarize(runs, [lower("peak_rss_mb", 0.1)])
    assert summary["train/seed0"]["mixed_modes"] == []
    assert bench_pairs.two_modes([(108.0, 94.0), (110.8, 94.0)], 0.1)  # a 2.8-MB gap on the parent's side


def crashing_tree(tree, code):
    """A tree whose benchmark prints its environment line and exits with ``code`` before any result."""
    return write_tree(tree, {"perfbench/run.py": f'print("env {{}}")\nraise SystemExit({code})\n'.encode()})


def test_a_run_that_printed_no_result_counts_as_failed_on_its_side(tmp_path):
    record, environment = bench_pairs.run_once(crashing_tree(tmp_path, 3), "train", 0, 1, "change", 0)
    assert environment == {}
    assert record["no_result"] and record["exit_code"] == 3 and record["metrics"] == {}
    runs = [run("train", 0, "parent", op_s=1.0), run("train", 0, "change", op_s=1.0),
            run("train", 1, "parent", op_s=1.0), record]
    train = bench_pairs.summarize(runs, [lower("op_s", 0.25)])["train/seed0"]
    assert train["failed"] == {"parent": 0, "change": 0, "attempted_parent": 12, "attempted_change": 6,
                               "no_result_parent": 0, "no_result_change": 1}
    assert train["pairs"] == 2 and train["op_s"]["change_q1_median_q3"] == [1.0, 1.0, 1.0]


def test_unpaired_run_is_left_out():
    runs = [run("codec", 0, "parent", op_s=1.0), run("codec", 0, "change", op_s=2.0),
            run("codec", 1, "parent", op_s=9.0)]
    codec = bench_pairs.summarize(runs, [lower("op_s", 0.25)])["codec/seed0"]
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


def paired(parent, change):
    return list(zip(parent, change))


PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.02, 0.98]  # quartile spread 0.0275


@pytest.mark.parametrize("better,change,expected", [
    ("lower", [1.3] * 10, "worse"),      # median 30% above the parent's, bound 25%
    ("lower", [1.2] * 10, "ok"),         # 20% above: inside the bound
    ("higher", [0.7] * 10, "worse"),     # 30% below where higher is better
    ("higher", [1.3] * 10, "ok"),
])
def test_verdict_worse_only_beyond_the_bound_of_the_parent_median(better, change, expected):
    assert bench_pairs.verdict(paired(PARENT, change), better, 0.25) == expected


def test_verdict_unresolved_when_the_parent_spreads_wider_than_the_bound():
    wide = [0.5, 1.5] * 5  # quartiles 0.5, 1.0, 1.5: a spread of the whole median
    assert bench_pairs.verdict(paired(wide, [1.0] * 10), "lower", 0.25) == "unresolved"
    # unless every change run beats every parent run
    assert bench_pairs.verdict(paired(wide, [0.4] * 10), "lower", 0.25) == "ok"
    assert bench_pairs.verdict(paired(wide, [1.6] * 10), "higher", 0.25) == "ok"


def test_synthetic_runs_get_a_verdict_per_workload_and_metric():
    runs = []
    for pair, (a, b) in enumerate(zip(PARENT, [1.3] * 10)):
        runs += [run("train", pair, "parent", op_s=a, bpsp=6.0), run("train", pair, "change", op_s=b, bpsp=6.0)]
        runs += [run("codec", pair, "parent", op_s=a), run("codec", pair, "change", op_s=a)]
    summary = bench_pairs.summarize(runs, [lower("op_s", 0.25), lower("bpsp", 0.1)])
    assert summary["train/seed0"]["op_s"]["verdict"] == "worse"
    assert summary["train/seed0"]["bpsp"]["verdict"] == "ok"
    assert summary["codec/seed0"]["op_s"]["verdict"] == "ok"


@pytest.mark.parametrize("parent,change,met", [
    ([1.0] * 10, [0.9] * 9 + [1.0], True),        # 9 wins and a tie: a tie wins for neither side
    ([1.0] * 10, [0.9] * 8 + [1.0] * 2, False),   # 8 wins of 10
    (PARENT, [0.9] * 10, True),
    (PARENT, [a - 0.01 for a in PARENT], False),  # every pair won, but the medians differ by less than the spread
])
def test_claim_met_needs_nine_of_ten_pairs_and_a_median_gap_beyond_the_parent_spread(parent, change, met):
    assert bench_pairs.claim_met(paired(parent, change), "lower") is met


def test_claim_met_follows_the_metric_direction():
    assert bench_pairs.claim_met(paired(PARENT, [1.1] * 10), "higher")
    assert not bench_pairs.claim_met(paired(PARENT, [1.1] * 10), "lower")


def write_tree(tree, files):
    for name, content in files.items():
        (tree / name).parent.mkdir(parents=True, exist_ok=True)
        (tree / name).write_bytes(content)
    return tree


BENCH_FILES = {"BENCHMARK.json": b'{"paths": ["perfbench"]}\n', "perfbench/run.py": b"print(1)\n",
               "perfbench/weights/a.lhgw": b"\x00\x01"}


def test_src_lines_counts_the_lines_of_the_package_modules(tmp_path):
    write_tree(tmp_path, {"src/lhgm/a.py": b"x = 1\ny = 2\n", "src/lhgm/b.py": b"z = 3\n",
                          "src/lhgm/notes.txt": b"1\n2\n", "tools/c.py": b"w = 4\n"})
    assert bench_pairs.src_lines(tmp_path) == 3


def git(repo, *args):
    cmd = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false", *args]
    return subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True).stdout.strip()


def committed_tree(repo, files):
    """A new git repository whose one commit holds ``files`` and ignores what this repository's .gitignore does."""
    write_tree(repo, {**files, ".gitignore": b"__pycache__/\nperfbench/out/\n"})
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "parent")
    return repo


@pytest.mark.parametrize("edit", [{}, {"perfbench/out/result.json": b"{}"}, {"perfbench/__pycache__/run.pyc": b"x"},
                                  {"src/lhgm/model.py": b"x = 1\n"}])
def test_benchmark_unchanged_ignores_what_git_ignores_and_what_lies_outside_its_paths(tmp_path, edit):
    repo = committed_tree(tmp_path, BENCH_FILES)
    write_tree(repo, edit)
    assert bench_pairs.benchmark_unchanged(repo, "HEAD", ["perfbench"])


@pytest.mark.parametrize("edit", [{"perfbench/run.py": b"print(2)\n"}, {"perfbench/new.py": b""},
                                  {"BENCHMARK.json": b"{}"}, {"perfbench/weights/a.lhgw": b"\x00"}])
def test_benchmark_unchanged_false_for_any_edit_to_its_files(tmp_path, edit):
    repo = committed_tree(tmp_path, BENCH_FILES)
    parent = git(repo, "rev-parse", "HEAD")
    write_tree(repo, edit)
    assert not bench_pairs.benchmark_unchanged(repo, parent, ["perfbench"])  # uncommitted
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "change")
    change = git(repo, "rev-parse", "HEAD")
    assert not bench_pairs.benchmark_unchanged(repo, parent, ["perfbench"])  # committed
    assert bench_pairs.benchmark_unchanged(repo, change, ["perfbench"])
    git(repo, "checkout", "-q", parent)  # the edit undone, or the new file gone
    assert not bench_pairs.benchmark_unchanged(repo, change, ["perfbench"])


def fake_bit_gates(monkeypatch, lines):
    """``bench_pairs.bit_gates`` of two trees named after their sides, whose gates print ``lines``; and its calls."""
    calls = []

    def fake_run_bit_gate(tree):
        calls.append(tree)
        return lines[tree.name]

    monkeypatch.setattr(bench_pairs, "run_bit_gate", fake_run_bit_gate)
    return bench_pairs.bit_gates({"parent": Path("parent"), "change": Path("change")}), calls


@pytest.mark.parametrize("change_sha,identical", [("ab", True), ("cd", False)])
def test_bit_gates_run_once_per_side_and_compare_the_lines(monkeypatch, change_sha, identical):
    lines = {"parent": {"train_digest8": "f5", "train_bpsp": 6.5, "containers_sha256": "ab"},
             "change": {"train_digest8": "f5", "train_bpsp": 6.5, "containers_sha256": change_sha}}
    gates, calls = fake_bit_gates(monkeypatch, lines)
    assert gates == {"bit_gate": lines, "bit_identical": identical,
                     "bit_gate_differs": [] if identical else ["containers_sha256"]}
    assert calls == [Path("parent"), Path("change")]


@pytest.mark.parametrize("change_fields,differs", [
    ({"train_digest8": "73"}, ["train_digest8"]),  # training rounds differently, the coded bytes are the same
    ({"train_digest8": "73", "train_bpsp": 6.25}, ["train_bpsp", "train_digest8"]),
    ({"extra": 1}, ["extra"]),  # a field on one side only
])
def test_bit_gate_differs_names_each_field_that_differs(monkeypatch, change_fields, differs):
    parent = {"train_digest8": "f5", "train_bpsp": 6.5, "containers_sha256": "ab"}
    gates, _ = fake_bit_gates(monkeypatch, {"parent": parent, "change": {**parent, **change_fields}})
    assert gates["bit_gate_differs"] == differs and not gates["bit_identical"]


def test_copy_checkout_takes_the_working_tree_as_git_lists_it(tmp_path):
    repo = committed_tree(tmp_path / "repo", {**BENCH_FILES, "src/gone.py": b"x = 1\n"})
    write_tree(repo, {"perfbench/run.py": b"print(2)\n", "src/new.py": b"y = 2\n", "perfbench/out/result.json": b"{}"})
    (repo / "src" / "gone.py").unlink()
    into = tmp_path / "copy"
    into.mkdir()
    bench_pairs.copy_checkout(repo, into)
    copied = sorted(path.relative_to(into).as_posix() for path in into.rglob("*") if path.is_file())
    # modified and untracked files as they are now; the ignored and the deleted file left out
    assert copied == [".gitignore", "BENCHMARK.json", "perfbench/run.py", "perfbench/weights/a.lhgw", "src/new.py"]
    assert (into / "perfbench" / "run.py").read_bytes() == b"print(2)\n"


@pytest.mark.parametrize("claim,runs", [({"workload": "train", "metric": "op_s"}, True),
                                        ({"workload": "codec_ctx", "metric": "op_s"}, False),
                                        ({"workload": "train", "metric": "peak_rss_mb"}, False),
                                        (None, False)])
def test_a_train_op_s_claim_runs_ab_train_once_on_the_two_trees(monkeypatch, claim, runs):
    calls = []
    line = {"ratios": [0.7, 0.8], "wins": 2, "of": 2}
    monkeypatch.setattr(bench_pairs, "run_ab_train", lambda trees, seed: calls.append((trees, seed)) or line)
    trees = {"parent": Path("parent"), "change": Path("change")}
    assert bench_pairs.claim_checks(claim, trees, 3) == ({"ab_train": line} if runs else {})
    assert calls == ([(trees, 3)] if runs else [])


def test_run_ab_train_passes_the_parent_then_the_change_tree_and_the_seed(monkeypatch):
    seen = []
    monkeypatch.setattr(bench_pairs, "_tool_line", lambda script, *args: seen.append((script, args)) or {})
    bench_pairs.run_ab_train({"change": Path("c"), "parent": Path("p")}, 3)
    assert seen == [("ab_train.py", (Path("p"), Path("c"), "--seed", 3))]
