"""Training harness: epoch-budgeted loops, periodic GAP evaluation, phases,
and checksummed checkpoints.

Epoch accounting is literal: after s steps with batch size b on n videos the
epoch fraction is s*b/n, and the loop runs while that fraction is below the
budget, so a run always stops within one batch of its budget.  Shuffling
draws a fresh full permutation per epoch from a counter-based generator keyed
by (seed, epoch index): any step of any epoch can be reproduced without
replaying the steps before it, which is what makes checkpoint resume exact.

Checkpoint container ("VPCK"): u32 version, length-prefixed JSON metadata,
then length-prefixed named float arrays, then CRC-32 over everything before
it.  The CRC is verified before featureio's ByteReader parses anything.  A
body that passes it but is malformed, or whose arrays are not exactly the
finite ones its config and optimizer imply, still raises CheckpointFormatError.
save_checkpoint writes beside the target and moves it into place once complete.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import asdict, dataclass, field, replace
from typing import Iterator, Sequence

import numpy as np

from .featureio import ByteReader, VideoRecord, atomic_write
from .losses import HuberParams, multilabel_loss
from .metrics import GapConfig, gap, rank_probs
from .netmodel import Model, ModelConfig, model_backward, model_forward, param_spec, param_views
from .optim import AdamState, adam_step, init_adam_state, sgd_step
from .pooling import EPS_SPREAD
from .schedule import ScheduleParams, SLOW_ANNEAL, lr_at

CHECKPOINT_MAGIC = b"VPCK"
CHECKPOINT_VERSION = 1
OPTIMIZER_KINDS = ("adam", "sgd")
EVAL_CHUNK = 128  # videos per scoring forward; the batch moves probabilities by an ulp

# curve rows are (epoch, split, gap, loss, lr) with split in {train, val}
CurveRow = tuple[float, str, float, float, float]


class CheckpointFormatError(ValueError):
    """Corrupted, truncated, or wrong-version checkpoint bytes."""


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int
    epoch_budget: float = 2.5
    eval_every: float = 0.25
    seed: int = 0
    schedule: ScheduleParams = SLOW_ANNEAL
    loss: HuberParams = HuberParams()
    optimizer: str = "adam"
    gap_top_n: int = 20

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.epoch_budget < math.inf:
            raise ValueError(f"epoch_budget must be finite and > 0, got {self.epoch_budget}")
        if not 0 < self.eval_every < math.inf:
            raise ValueError(f"eval_every must be finite and > 0, got {self.eval_every}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.optimizer not in OPTIMIZER_KINDS:
            raise ValueError(f"optimizer must be one of {OPTIMIZER_KINDS}")
        if self.gap_top_n < 1:
            raise ValueError(f"gap_top_n must be >= 1, got {self.gap_top_n}")
        self.schedule.validate()
        self.loss.validate()


@dataclass
class PhasePlan:
    phases: list[tuple[Sequence[VideoRecord], float]]  # (dataset, epoch budget)

    def validate(self) -> None:
        if not self.phases:
            raise ValueError("phase plan is empty")
        for i, (records, budget) in enumerate(self.phases):
            if len(records) == 0:
                raise ValueError(f"phase {i}: empty dataset")
            if not 0 < budget < math.inf:
                raise ValueError(f"phase {i}: epoch budget must be finite and > 0, got {budget}")


@dataclass
class TrainResult:
    model: Model
    curve: list[CurveRow]
    opt_state: AdamState | None
    global_step: int
    epoch_fraction: float


def steps_per_epoch(num_videos: int, batch_size: int) -> int:
    if num_videos < 1 or batch_size < 1:
        raise ValueError("num_videos and batch_size must both be >= 1")
    return -(-num_videos // batch_size)


def epoch_permutation(seed: int, epoch: int, num_videos: int) -> np.ndarray:
    """Full shuffle for one epoch, addressable without replaying prior epochs."""
    key = np.array([seed, epoch], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    return rng.permutation(num_videos)


def label_targets(records: Sequence[VideoRecord], vocab_size: int) -> np.ndarray:
    """The (videos, vocab) 0/1 indicator of each record's labels."""
    out = np.zeros((len(records), vocab_size))
    if records:
        out[np.repeat(np.arange(len(records)), [len(r.labels) for r in records]),
            np.concatenate([r.labels for r in records])] = 1.0
    return out


def dedupe_by_id(records: Sequence[VideoRecord]) -> list[VideoRecord]:
    # duplicated training sets repeat ids; evaluation scores each video once
    seen = set()
    out = []
    for record in records:
        if record.id not in seen:
            seen.add(record.id)
            out.append(record)
    return out


def check_records(records: Sequence[VideoRecord], model: Model) -> None:
    """Reject, before any work, the first record whose feature width is not the
    model's or that has a label id outside [0, vocab_size)."""
    if not records:
        return
    vocab, dim = model.config.vocab_size, model.config.feature_dim
    labels = np.concatenate([record.labels for record in records])
    owners = np.repeat(np.arange(len(records)), [record.labels.size for record in records])
    outside = owners[(labels < 0) | (labels >= vocab)]
    first_outside = outside[0] if outside.size else -1
    for i, record in enumerate(records):
        if record.frames.shape[1] != dim:
            raise ValueError(f"record {i} has feature width {record.frames.shape[1]}, "
                             f"model feature_dim is {dim}")
        if i == first_outside:
            raise ValueError(f"record {i} has a label id outside the model's vocabulary "
                             f"[0, {vocab})")


def _scoring_chunks(records: Sequence[VideoRecord], model: Model) -> Iterator[tuple]:
    """The records checked against the model, then (ids, frames, records) for
    each EVAL_CHUNK of their unique videos."""
    check_records(records, model)
    records = dedupe_by_id(records)
    if not records:
        raise ValueError("nothing to evaluate")
    for start in range(0, len(records), EVAL_CHUNK):
        chunk = records[start:start + EVAL_CHUNK]
        yield [r.id for r in chunk], [r.frames for r in chunk], chunk


@dataclass(frozen=True)
class Split:
    """A record list's scoring chunks, checked, deduped and cut once, for a
    caller that scores the same records at every eval point."""
    chunks: list[tuple[list[bytes], list[np.ndarray], list[VideoRecord]]]


def score_chunks(records: Sequence[VideoRecord] | Split, model: Model
                 ) -> Iterator[tuple[list[bytes], np.ndarray, np.ndarray]]:
    """The one scoring forward pass: the records checked against the model,
    then (ids, probs, targets) for each EVAL_CHUNK of their unique videos.  A
    Split is already checked; a record list is checked and cut as it goes."""
    chunks = records.chunks if isinstance(records, Split) else _scoring_chunks(records, model)
    for ids, frames, chunk in chunks:
        probs, _ = model_forward(frames, model)
        yield ids, probs, label_targets(chunk, model.config.vocab_size)


def evaluate(records: Sequence[VideoRecord] | Split, model: Model, loss_params: HuberParams,
             top_n: int = 20) -> tuple[float, float]:
    """(GAP, mean loss) over the unique videos of a record list or a Split."""
    ids, probs, targets = zip(*score_chunks(records, model))
    probs = np.vstack(probs)  # one at a time, so each chunk list is freed as it is stacked
    targets = np.vstack(targets)
    loss, _ = multilabel_loss(probs, targets, loss_params)
    ranked, truth = rank_probs([([i for chunk in ids for i in chunk], probs, targets)], top_n)
    return gap(ranked, truth, GapConfig(n=top_n)), loss


def _next_eval_point(f: float, eval_every: float) -> float:
    """The first multiple of ``eval_every`` above epoch fraction ``f``, or the
    next float above ``f`` when that multiple does not lie above it."""
    multiples = f / eval_every
    point = eval_every * (math.floor(multiples) + 1) if multiples < 2**53 else f
    return point if point > f else math.nextafter(f, math.inf)


def train(records: Sequence[VideoRecord], val_records: Sequence[VideoRecord],
          model: Model, config: TrainConfig, *, opt_state: AdamState | None = None,
          start_step: int = 0, epoch_offset: float = 0.0) -> TrainResult:
    """Budgeted training loop; optional state/step arguments support resume
    and phase chaining without changing the step-for-step behavior."""
    config.validate()
    n = len(records)
    if n == 0:
        raise ValueError("empty training dataset")
    if len(val_records) == 0:
        raise ValueError("empty validation dataset")
    splits = [Split(list(_scoring_chunks(split, model))) for split in (records, val_records)]

    b = config.batch_size
    spe = steps_per_epoch(n, b)
    if config.optimizer == "adam" and opt_state is None:
        opt_state = init_adam_state(model)

    def fraction(steps: int) -> float:
        return steps * b / n

    step = start_step
    curve: list[CurveRow] = []
    next_eval = _next_eval_point(fraction(step), config.eval_every)
    last_eval_step = step

    def emit_eval() -> None:
        nonlocal last_eval_step
        f = fraction(step)
        lr = lr_at(f, config.schedule)
        (train_gap, train_loss), (val_gap, val_loss) = [
            evaluate(split, model, config.loss, top_n=config.gap_top_n) for split in splits]
        curve.append((epoch_offset + f, "train", train_gap, train_loss, lr))
        curve.append((epoch_offset + f, "val", val_gap, val_loss, lr))
        last_eval_step = step

    while fraction(step) < config.epoch_budget:
        epoch = step // spe
        perm = epoch_permutation(config.seed, epoch, n)
        for chunk_start in range((step % spe) * b, n, b):
            if fraction(step) >= config.epoch_budget:
                break
            idx = perm[chunk_start:chunk_start + b]
            chosen = [records[i] for i in idx.tolist()]
            batch = [record.frames for record in chosen]
            targets = label_targets(chosen, model.config.vocab_size)

            lr = lr_at(fraction(step), config.schedule)
            probs, cache = model_forward(batch, model)
            loss, dprobs = multilabel_loss(probs, targets, config.loss)
            if not math.isfinite(loss):
                raise ValueError(f"non-finite loss at step {step}, epoch {fraction(step):.4f}")
            grads = model_backward(dprobs, cache)
            if config.optimizer == "adam":
                adam_step(model, grads, opt_state, lr)
            else:
                sgd_step(model, grads, lr)
            step += 1

            f = fraction(step)
            if f >= next_eval:
                emit_eval()
                next_eval = _next_eval_point(f, config.eval_every)

    if step > last_eval_step or not curve:
        emit_eval()
    return TrainResult(model=model, curve=curve, opt_state=opt_state,
                       global_step=step, epoch_fraction=fraction(step))


def train_phases(plan: PhasePlan, val_records: Sequence[VideoRecord], model: Model,
                 config: TrainConfig) -> TrainResult:
    """Sequential phases sharing model and optimizer state.

    Each phase restarts step accounting and the lr schedule on its own
    dataset; curve epochs are offset by the fractions already trained so the
    concatenated curve plots as one timeline.  The result counts the steps
    of every phase.
    """
    plan.validate()
    config.validate()
    opt_state = init_adam_state(model) if config.optimizer == "adam" else None
    offset = 0.0
    curve: list[CurveRow] = []
    steps = 0
    for phase_records, budget in plan.phases:
        phase_config = replace(config, epoch_budget=budget)
        result = train(phase_records, val_records, model, phase_config,
                       opt_state=opt_state, epoch_offset=offset)
        curve.extend(result.curve)
        offset += result.epoch_fraction
        steps += result.global_step
    return TrainResult(model=model, curve=curve, opt_state=opt_state,
                       global_step=steps, epoch_fraction=offset)


def curve_csv(curve: Sequence[CurveRow]) -> str:
    lines = ["epoch,split,gap,loss,lr"]
    for epoch, split, gap_value, loss, lr in curve:
        lines.append(f"{epoch:.6f},{split},{gap_value:.8f},{loss:.8f},{lr:.10g}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- checkpoints


@dataclass
class Checkpoint:
    meta: dict
    arrays: list[tuple[str, np.ndarray]] = field(default_factory=list)


def make_checkpoint(model: Model, opt_state: AdamState | None, global_step: int,
                    epoch_fraction: float, config: TrainConfig) -> Checkpoint:
    meta = {
        "model_config": asdict(model.config),
        "optimizer": {"kind": config.optimizer},
        "global_step": global_step,
        "epoch_fraction": epoch_fraction,
        "rng": {"scheme": "philox(seed, epoch)", "seed": config.seed},
    }
    arrays = list(model.arrays.items())
    if opt_state is not None:
        meta["optimizer"].update({"step": opt_state.step, "beta1": opt_state.beta1,
                                  "beta2": opt_state.beta2, "eps": opt_state.eps})
        for prefix, moment in (("adam.m.", opt_state.m), ("adam.v.", opt_state.v)):
            arrays += [(prefix + name, arr)
                       for name, arr in param_views(moment, model.config).items()]
    return Checkpoint(meta=meta, arrays=arrays)


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return (_is_int(value) or isinstance(value, float)) and math.isfinite(value)


# what restore_checkpoint accepts of each optimizer and position value
_META_RULES = {
    "beta1": ("a number in [0, 1)", lambda v: _is_finite(v) and 0 <= v < 1),
    "beta2": ("a number in [0, 1)", lambda v: _is_finite(v) and 0 <= v < 1),
    "eps": ("a finite number > 0", lambda v: _is_finite(v) and v > 0),
    "step": ("an integer >= 0", lambda v: _is_int(v) and v >= 0),
    "global_step": ("an integer >= 0", lambda v: _is_int(v) and v >= 0),
    "epoch_fraction": ("a finite number >= 0", lambda v: _is_finite(v) and v >= 0),
}


def restore_checkpoint(cp: Checkpoint) -> tuple[Model, AdamState | None, int, float]:
    """(model, optimizer state, global step, epoch fraction) from a checkpoint;
    exactly the arrays its config and optimizer imply, each finite and of its
    shape, with NetFV spreads at or above EPS_SPREAD, and metadata values of
    the kinds _META_RULES names."""
    try:
        config = ModelConfig(**cp.meta["model_config"])
        spec = param_spec(config)
        opt = cp.meta["optimizer"]
        if opt["kind"] not in OPTIMIZER_KINDS:
            raise ValueError(f"optimizer kind {opt['kind']!r} is not one of {OPTIMIZER_KINDS}")
        hyper = ({key: opt[key] for key in ("beta1", "beta2", "eps", "step")}
                 if opt["kind"] == "adam" else None)
        position = cp.meta["global_step"], cp.meta["epoch_fraction"]
    except (KeyError, TypeError, ValueError) as exc:  # a missing key, or a bad value
        raise CheckpointFormatError(f"bad checkpoint metadata: {exc!r}") from None
    checked = {**(hyper or {}), "global_step": position[0], "epoch_fraction": position[1]}
    for key, value in checked.items():
        what, ok = _META_RULES[key]
        if not ok(value):
            raise CheckpointFormatError(f"metadata {key}: expected {what}, got {value!r}")
    values = dict(cp.arrays)

    def gather(prefix: str) -> np.ndarray:
        """The arrays named prefix + spec name, checked, taken and laid out flat."""
        parts = []
        for name, shape in spec:
            name = prefix + name
            found = values[name].shape if name in values else "no such array"
            if found != shape:
                raise CheckpointFormatError(f"array {name}: expected shape {shape}, got {found}")
            if not np.isfinite(values[name]).all():
                raise CheckpointFormatError(f"array {name}: non-finite value")
            parts.append(values.pop(name).ravel())
        return np.concatenate(parts, dtype=np.float64)

    model = Model(config, gather(""))
    for name, view in model.arrays.items():
        if name.endswith(".spreads") and (view < EPS_SPREAD).any():
            raise CheckpointFormatError(f"array {name}: spread below the floor {EPS_SPREAD}")
    state = None if hyper is None else AdamState(gather("adam.m."), gather("adam.v."), **hyper)
    if values:
        raise CheckpointFormatError(f"array {next(iter(values))}: unused by config and optimizer")
    return (model, state) + position


_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def checkpoint_bytes(cp: Checkpoint) -> bytes:
    meta_blob = json.dumps(cp.meta, sort_keys=True).encode()
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION),
             struct.pack("<I", len(meta_blob)), meta_blob,
             struct.pack("<I", len(cp.arrays))]
    for name, arr in cp.arrays:
        arr = np.ascontiguousarray(arr)
        if arr.dtype not in _DTYPE_CODES:
            raise ValueError(f"array {name}: unsupported dtype {arr.dtype}")
        name_blob = name.encode()
        parts.append(struct.pack("<H", len(name_blob)))
        parts.append(name_blob)
        parts.append(struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body))


def checkpoint_from_bytes(blob: bytes) -> Checkpoint:
    """Parse VPCK bytes; anything malformed raises CheckpointFormatError."""
    if len(blob) < 16:
        raise CheckpointFormatError("file too short to be a checkpoint")
    body, crc_stored = blob[:-4], struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(body) != crc_stored:  # checked before any parsing
        raise CheckpointFormatError("checksum mismatch, file corrupted or truncated")
    try:
        return _parse_body(body)
    except CheckpointFormatError:
        raise
    except ValueError as exc:  # a short read, bad UTF-8, bad JSON or an impossible shape
        raise CheckpointFormatError(f"malformed checkpoint: {exc}") from None


def _parse_body(body: bytes) -> Checkpoint:
    reader = ByteReader(body, ValueError)  # reported as a malformed checkpoint
    magic, version, meta_len = reader.unpack("<4sII", "header")
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"bad magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise CheckpointFormatError(f"unsupported checkpoint version {version}")
    meta = json.loads(reader.take(meta_len, "metadata").decode())
    if not isinstance(meta, dict):
        raise CheckpointFormatError("checkpoint metadata is not a JSON object")
    arrays = []
    for _ in range(reader.unpack("<I", "array count")[0]):
        (name_len,) = reader.unpack("<H", "array name length")
        name = reader.take(name_len, "array name").decode()
        if any(name == seen for seen, _ in arrays):
            raise CheckpointFormatError(f"array {name}: stored twice")
        code, ndim = reader.unpack("<BB", f"array {name} dtype")
        if code not in _CODE_DTYPES:
            raise CheckpointFormatError(f"array {name}: unknown dtype code {code}")
        shape = tuple(reader.array("<u4", ndim, f"array {name} shape").tolist())
        arr = reader.array(_CODE_DTYPES[code], shape, f"array {name}")
        arrays.append((name, arr.astype(arr.dtype.newbyteorder("="))))
    if reader.left():
        raise CheckpointFormatError("trailing bytes after last array")
    return Checkpoint(meta=meta, arrays=arrays)


def save_checkpoint(path: str, cp: Checkpoint) -> None:
    with atomic_write(path) as sink:
        sink.write(checkpoint_bytes(cp))


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as source:
        return checkpoint_from_bytes(source.read())
