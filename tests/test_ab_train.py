"""tools/ab_train.py: two trees' lhgm under two package names, timed in alternating rounds."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("ab_train", ROOT / "tools" / "ab_train.py")
ab_train = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_train)


@pytest.fixture
def forget_packages():
    """Drops the ``lhgm_*`` packages a test loads, and their modules, from ``sys.modules`` afterwards."""
    yield
    for name in [name for name in sys.modules if name.startswith("lhgm_")]:
        del sys.modules[name]


def test_summary_gives_ratios_quartiles_and_wins():
    rounds = [{"parent": 0.1, "change": 0.07}, {"parent": 0.1, "change": 0.12}, {"parent": 0.2, "change": 0.1}]
    summary = ab_train.summarize(rounds)
    assert summary["ratios"] == pytest.approx([0.7, 1.2, 0.5])
    assert summary["ratio_q1_median_q3"] == pytest.approx([0.6, 0.7, 0.95])
    assert (summary["wins"], summary["of"]) == (2, 3)
    assert ab_train.summarize(rounds[:1])["ratio_q1_median_q3"] == pytest.approx([0.7] * 3)


def test_each_tree_loads_as_its_own_package(forget_packages):
    a = ab_train.load_package(ROOT, "lhgm_side_a")
    b = ab_train.load_package(ROOT, "lhgm_side_b")
    assert a.train is not b.train and a.tensor is not b.tensor
    # every module of one side reads its engine from its own package
    assert a.train.T is a.tensor and a.model.T is a.tensor and b.train.T is b.tensor
    assert a.train.__file__ == str(ROOT / "src" / "lhgm" / "train.py")


def test_setup_is_the_train_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    workloads = importlib.import_module("workloads")
    assert (workloads.TRAIN_WEIGHTS, workloads.TRAIN_IMAGES, workloads.TRAIN_IMAGE_SIZE) == (
        ab_train.WEIGHTS, ab_train.IMAGES, ab_train.IMAGE_SIZE)
    config = workloads._train_config(0, ab_train.STEPS)
    assert (config.steps, config.batch, config.patch, config.log_every) == (
        ab_train.STEPS, ab_train.BATCH, ab_train.PATCH, 1)


def test_one_round_per_side_gives_one_ratio(forget_packages, capsys):
    result = ab_train.run({"parent": ROOT, "change": ROOT}, rounds=1, steps=2, seed=0)
    assert (result["of"], len(result["ratios"]), result["steps"]) == (1, 1, 2)
    assert result["rounds"][0]["parent"] > 0 and result["rounds"][0]["change"] > 0
    assert capsys.readouterr().out.startswith("round 0: parent ")
