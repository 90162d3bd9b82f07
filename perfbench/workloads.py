"""The four benchmark workloads: set-up, timed operation and output check.

Each workload is split across two processes.  ``setup`` and ``check`` run in
the benchmark's parent process; ``load`` and ``run`` run in the worker
process, whose peak memory is the workload's.  The program only ever sees
the files that ``setup`` writes (or, for ``curve_vlad``, the records read
from them), never the seed.

Why these four (see README.md for the layer map):

* ``curve_vlad``: the criterion-06 training run with its eval curve; most of
  its time is evaluation and GAP.
* ``train_fv``: the same trainer driven through the CLI with NetFV and a
  single final evaluation, so training steps dominate and GAP barely shows.
* ``score_cli``: checkpoint scoring through the CLI, with no backward pass.
* ``prep_cli``: data preparation through the CLI, with no model at all.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import re
from pathlib import Path

import numpy as np

from framepool import cli, trainer
from framepool.featureio import SyntheticSpec, generate_synthetic, load_dataset, save_dataset
from framepool.losses import HuberParams
from framepool.metrics import GapConfig, gap
from framepool.netmodel import ModelConfig, init_model, set_output_prior
from framepool.rebalance import (
    build_hard_subset,
    build_tail_subset,
    label_frequency_stats,
    stats_csv,
)
from framepool.schedule import ScheduleParams
from framepool.trainer import TrainConfig, evaluate, make_checkpoint, save_checkpoint

# criterion-06 training setup, shared by curve_vlad and the score_cli checkpoint
MODEL_SEED = 42
SHUFFLE_SEED = 7
CRITERION_06_SCHEDULE = ScheduleParams(initial_lr=0.02, decay=0.9, decay_per_epoch=1.0)
CRITERION_06_MIN_GAP = 0.95
TOP_N = 20

SIZES = {
    "full": {
        "curve_vlad": {"train": 2000, "val": 500, "vocab": 50, "epochs": 2.5, "eval_every": 0.25},
        "train_fv": {"train": 2000, "val": 500, "vocab": 50, "epochs": 5.0},
        "score_cli": {"videos": 10000, "vocab": 200, "train": 1000, "val": 250},
        "prep_cli": {"videos": 20000, "vocab": 200, "rank_threshold": 20},
    },
    "toy": {
        "curve_vlad": {"train": 400, "val": 100, "vocab": 10, "epochs": 2.5, "eval_every": 1.25},
        "train_fv": {"train": 200, "val": 50, "vocab": 10, "epochs": 1.0},
        "score_cli": {"videos": 300, "vocab": 30, "train": 200, "val": 50},
        "prep_cli": {"videos": 500, "vocab": 30, "rank_threshold": 5},
    },
}


def _separable_spec(num_videos: int, vocab: int, seed: int) -> SyntheticSpec:
    # criterion 06's corpus: noise-free frames, mild label imbalance
    return SyntheticSpec(num_videos=num_videos, vocab_size=vocab, d_video=32, d_audio=8,
                         t_min=4, t_max=12, labels_min=1, labels_max=3,
                         imbalance_exponent=0.8, noise_scale=0.0, seed=seed)


def _train_fv_flags(vocab: int) -> list[str]:
    """Learning rate and output prior for train_fv.

    The prior is the spec's mean label count over the vocabulary.  Without it
    and a constant lr of 0.01 (instead of the CLI's slow preset) a 5-epoch
    NetFV run stops far from convergence, where its GAP depends strongly on
    the data seed.
    """
    prior = (1 + 3) / 2 / vocab  # labels_min, labels_max of _separable_spec
    return ["--initial-lr", "0.01", "--decay", "1.0", "--output-prior", str(prior)]


def _write_split(path: Path, records, spec: SyntheticSpec) -> None:
    save_dataset(str(path), records,
                 dataclasses.replace(spec.header(), record_count=len(records)))


def _videos_stepped(steps: int, n: int, batch: int) -> int:
    """Training videos visited by `steps` steps of the trainer's epoch loop."""
    per_epoch = -(-n // batch)
    return (steps // per_epoch) * n + min((steps % per_epoch) * batch, n)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cli(argv: list[str]) -> str:
    """Run one in-process CLI command; its stdout, or an error on non-zero exit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"framepool {argv[0]} exited with {code}")
    return out.getvalue()


def _stdout_value(text: str, key: str) -> str:
    match = re.search(rf"^{key}\s+(\S+)$", text, re.MULTILINE)
    if match is None:
        raise ValueError(f"no '{key}' line in CLI output")
    return match.group(1)


def _same_records(path: Path, expected) -> str | None:
    """None if the VFR at path reads back as exactly `expected`, else why not."""
    _, got = load_dataset(str(path))
    if len(got) != len(expected):
        return f"{path.name}: {len(got)} records, expected {len(expected)}"
    for a, b in zip(got, expected):
        if (a.id != b.id or not np.array_equal(a.labels, b.labels)
                or not np.array_equal(a.frames, b.frames.astype(np.float32))):
            return f"{path.name}: record {b.id!r} differs after read-back"
    return None


class Workload:
    """Base: subclasses fill in setup/load/run/check and how to count videos."""

    name = ""

    def __init__(self, size: str, seed: int, workdir: Path):
        self.p = SIZES[size][self.name]
        self.seed = seed
        self.dir = workdir

    def setup(self):
        """Write the program's inputs; return what `check` needs (parent)."""
        raise NotImplementedError

    def load(self):
        """Read the inputs before timing starts (worker)."""
        return None

    def run(self, state) -> dict:
        """The timed operation (worker); returns JSON-able outputs."""
        raise NotImplementedError

    def after_run(self, out: dict) -> None:
        """Untimed per-repeat bookkeeping (worker), e.g. output digests."""

    def before_run(self) -> None:
        """Untimed per-repeat preparation (worker), e.g. removing old outputs."""

    def check(self, reference, outs: list[dict | None]) -> tuple[list[str | None], float]:
        """(failure reason or None per repeat, final GAP) (parent)."""
        raise NotImplementedError

    def videos(self, out: dict) -> int:
        raise NotImplementedError


class CurveVlad(Workload):
    name = "curve_vlad"

    def setup(self):
        p = self.p
        spec = _separable_spec(p["train"] + p["val"], p["vocab"], self.seed)
        records = generate_synthetic(spec)
        _write_split(self.dir / "train.vfr", records[:p["train"]], spec)
        _write_split(self.dir / "val.vfr", records[p["train"]:], spec)
        return None

    def load(self):
        _, train = load_dataset(str(self.dir / "train.vfr"))
        _, val = load_dataset(str(self.dir / "val.vfr"))
        return train, val

    def run(self, state) -> dict:
        train, val = state
        p = self.p
        model = init_model(ModelConfig(pooling_kind="netvlad", cluster_size=8, hidden_size=64,
                                       d_video=32, d_audio=8, vocab_size=p["vocab"]),
                           seed=MODEL_SEED)
        set_output_prior(model, sum(r.labels.size for r in train) / (len(train) * p["vocab"]))
        config = TrainConfig(batch_size=32, epoch_budget=p["epochs"], eval_every=p["eval_every"],
                             seed=SHUFFLE_SEED, schedule=CRITERION_06_SCHEDULE)
        # looked up on the module at call time so that tracing can rebind it
        result = trainer.train(train, val, model, config)
        return {"curve": [list(row) for row in result.curve], "steps": result.global_step}

    def check(self, reference, outs):
        first = next((o for o in outs if o is not None), None)
        reasons = []
        for out in outs:
            if out is None:
                reasons.append("raised")
                continue
            final = [row for row in out["curve"] if row[1] == "val"][-1][2]
            if final < CRITERION_06_MIN_GAP:
                reasons.append(f"final val GAP {final:.4f} < {CRITERION_06_MIN_GAP}")
            elif out["curve"] != first["curve"]:
                reasons.append("curve differs from the first repeat")
            else:
                reasons.append(None)
        final_gap = [row for row in first["curve"] if row[1] == "val"][-1][2] if first else 0.0
        return reasons, final_gap

    def videos(self, out):
        return _videos_stepped(out["steps"], self.p["train"], 32)


class TrainFv(Workload):
    name = "train_fv"
    outputs = ("curve.csv", "model.vpck")

    setup = CurveVlad.setup  # the same train.vfr and val.vfr

    def argv(self) -> list[str]:
        d = self.dir
        return ["train", "--data", str(d / "train.vfr"), "--val", str(d / "val.vfr"),
                "--pooling", "netfv", "--clusters", "8", "--audio-clusters", "2",
                "--hidden", "64", "--batch-size", "32", "--epochs", str(self.p["epochs"]),
                "--eval-every", str(self.p["epochs"]),
                *_train_fv_flags(self.p["vocab"]),
                "--out-curve", str(d / "curve.csv"), "--out-checkpoint", str(d / "model.vpck")]

    def before_run(self):
        for name in self.outputs:
            (self.dir / name).unlink(missing_ok=True)

    def run(self, state):
        return {"stdout": _cli(self.argv())}

    def after_run(self, out):
        out["digests"] = [_digest(self.dir / name) for name in self.outputs]

    def check(self, reference, outs):
        # the files on disk are the last repeat's; every repeat must match them
        curve_text = (self.dir / "curve.csv").read_text()
        cp = trainer.load_checkpoint(str(self.dir / "model.vpck"))
        trainer.restore_checkpoint(cp)
        final_gap = float(curve_text.strip().splitlines()[-1].split(",")[2])
        digests = [_digest(self.dir / name) for name in self.outputs]
        reasons = []
        for out in outs:
            if out is None:
                reasons.append("raised")
            elif out["digests"] != digests:
                reasons.append("curve CSV or VPCK bytes differ between repeats")
            elif int(_stdout_value(out["stdout"], "steps")) != cp.meta["global_step"]:
                reasons.append("printed steps disagree with the checkpoint")
            elif abs(float(_stdout_value(out["stdout"], "final_val_gap")) - final_gap) > 1e-7:
                reasons.append("printed final_val_gap disagrees with the curve CSV")
            else:
                reasons.append(None)
        return reasons, final_gap

    def videos(self, out):
        return _videos_stepped(int(_stdout_value(out["stdout"], "steps")), self.p["train"], 32)


class ScoreCli(Workload):
    name = "score_cli"

    def setup(self):
        p = self.p
        n_fit = p["train"] + p["val"]
        spec = SyntheticSpec(num_videos=n_fit + p["videos"], vocab_size=p["vocab"],
                             seed=self.seed)
        records = generate_synthetic(spec)
        _write_split(self.dir / "eval.vfr", records[n_fit:], spec)
        fit, val = records[:p["train"]], records[p["train"]:n_fit]
        model = init_model(ModelConfig(pooling_kind="netvlad", cluster_size=8, hidden_size=64,
                                       d_video=32, d_audio=8, vocab_size=p["vocab"]),
                           seed=MODEL_SEED)
        set_output_prior(model, sum(r.labels.size for r in fit) / (len(fit) * p["vocab"]))
        # three epochs: a shorter run leaves GAP far from converged and swinging
        # by several percent with the data seed
        config = TrainConfig(batch_size=32, epoch_budget=3.0, eval_every=3.0,
                             seed=SHUFFLE_SEED, schedule=CRITERION_06_SCHEDULE)
        result = trainer.train(fit, val, model, config)
        save_checkpoint(str(self.dir / "model.vpck"),
                        make_checkpoint(result.model, result.opt_state, result.global_step,
                                        result.epoch_fraction, config))
        return None

    def before_run(self):
        (self.dir / "predictions.csv").unlink(missing_ok=True)

    def run(self, state):
        d = self.dir
        return {"stdout": _cli(["eval", "--checkpoint", str(d / "model.vpck"),
                                "--data", str(d / "eval.vfr"),
                                "--out-predictions", str(d / "predictions.csv")])}

    def after_run(self, out):
        out["digest"] = _digest(self.dir / "predictions.csv")

    def check(self, reference, outs):
        model, _, _, _ = trainer.restore_checkpoint(
            trainer.load_checkpoint(str(self.dir / "model.vpck")))
        _, records = load_dataset(str(self.dir / "eval.vfr"))
        expected_gap = f"{evaluate(records, model, HuberParams(), top_n=TOP_N)[0]:.7f}"
        rows_per_video: dict[str, int] = {}
        with open(self.dir / "predictions.csv", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            for video_id, _, _ in reader:
                rows_per_video[video_id] = rows_per_video.get(video_id, 0) + 1
        want_rows = min(TOP_N, self.p["vocab"])
        csv_ok = (len(rows_per_video) == len(trainer.dedupe_by_id(records))
                  and set(rows_per_video.values()) == {want_rows})
        digest = _digest(self.dir / "predictions.csv")
        reasons = []
        for out in outs:
            if out is None:
                reasons.append("raised")
            elif _stdout_value(out["stdout"], "GAP") != expected_gap:
                reasons.append(f"CLI GAP {_stdout_value(out['stdout'], 'GAP')} != "
                               f"trainer.evaluate GAP {expected_gap}")
            elif not csv_ok:
                reasons.append(f"predictions CSV does not hold {want_rows} rows per video")
            elif out["digest"] != digest:
                reasons.append("predictions CSV bytes differ between repeats")
            else:
                reasons.append(None)
        return reasons, float(expected_gap)

    def videos(self, out):
        return int(re.search(r"videos evaluated:\s+(\d+)", out["stdout"]).group(1))


class PrepCli(Workload):
    name = "prep_cli"
    outputs = ("data.vfr", "stats.csv", "hard.vfr", "tail.vfr")

    def spec(self) -> SyntheticSpec:
        # the CLI's gen defaults, spelled out so the reference matches them
        return SyntheticSpec(num_videos=self.p["videos"], vocab_size=self.p["vocab"],
                             seed=self.seed)

    def setup(self):
        """The in-process reference corpus that the CLI's files are checked against."""
        return generate_synthetic(self.spec())

    def before_run(self):
        for name in self.outputs:
            (self.dir / name).unlink(missing_ok=True)

    def run(self, state):
        d, p = self.dir, self.p
        data = str(d / "data.vfr")
        stdout = _cli(["gen", "--videos", str(p["videos"]), "--vocab", str(p["vocab"]),
                       "--seed", str(self.seed), "--out", data])
        stdout += _cli(["stats", "--data", data, "--out", str(d / "stats.csv")])
        stdout += _cli(["rebalance", "--data", data, "--mode", "hard",
                        "--out", str(d / "hard.vfr")])
        stdout += _cli(["rebalance", "--data", data, "--mode", "tail",
                        "--rank-threshold", str(p["rank_threshold"]),
                        "--out", str(d / "tail.vfr")])
        return {"stdout": stdout}

    def after_run(self, out):
        out["digests"] = [_digest(self.dir / name) for name in self.outputs]

    def check(self, reference, outs):
        vocab = self.p["vocab"]
        hard = build_hard_subset(reference, 3)
        tail = build_tail_subset(reference, self.p["rank_threshold"], vocab)
        stats = label_frequency_stats(reference, vocab)
        problem = (_same_records(self.dir / "data.vfr", reference)
                   or _same_records(self.dir / "hard.vfr", hard)
                   or _same_records(self.dir / "tail.vfr", tail))
        if problem is None and (self.dir / "stats.csv").read_text() != stats_csv(stats):
            problem = "stats.csv differs from the in-process table"
        digests = [_digest(self.dir / name) for name in self.outputs]
        reasons = []
        for out in outs:
            if out is None:
                reasons.append("raised")
            elif problem is not None:
                reasons.append(problem)
            elif out["digests"] != digests:
                reasons.append("output bytes differ between repeats")
            else:
                reasons.append(None)
        return reasons, prior_gap(tail, stats)

    def videos(self, out):
        return sum(int(n) for n in re.findall(r"^wrote .*?: (\d+) videos", out["stdout"],
                                              re.MULTILINE))


def prior_gap(records, stats) -> float:
    """GAP@20 of ranking every video by the label frequencies in `stats`.

    prep_cli trains no model; this number guards its outputs the way a
    validation GAP guards a training run, since it changes if the stats table
    or the tail subset does.
    """
    share = stats.counts / stats.total
    items = [(int(label), float(share[label])) for label in stats.order[:TOP_N]]
    predictions = [(r.id, items) for r in records]
    return gap(predictions, {r.id: r.labels for r in records}, GapConfig(n=TOP_N))


WORKLOADS = {w.name: w for w in (CurveVlad, TrainFv, ScoreCli, PrepCli)}
