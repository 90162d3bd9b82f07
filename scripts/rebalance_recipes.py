"""Try the two second-phase rebalancing recipes against straight training.

All three runs spend the same total epoch budget.  The control trains on
the full set throughout; the tail recipe switches to videos carrying a
low-frequency label for the second phase; the hard recipe switches to
the set with single-label and 4-plus-label videos tripled.  Prints the
final validation GAP overall and on the tail-label slice of validation.

Usage: python3 scripts/rebalance_recipes.py [--phase1 1.5] [--phase2 1.0]
       [--rank-threshold 9]
"""

import argparse
import sys

from framepool.featureio import SyntheticSpec, generate_synthetic
from framepool.netmodel import ModelConfig, init_model, set_output_prior
from framepool.rebalance import build_hard_subset, build_tail_subset, label_frequency_stats
from framepool.schedule import ScheduleParams
from framepool.trainer import PhasePlan, TrainConfig, evaluate, train_phases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--train-videos", type=int, default=1200)
    parser.add_argument("--val-videos", type=int, default=300)
    parser.add_argument("--vocab", type=int, default=30)
    parser.add_argument("--phase1", type=float, default=1.5)
    parser.add_argument("--phase2", type=float, default=1.0)
    parser.add_argument("--rank-threshold", type=int, default=9,
                        help="labels ranked below this are head, the rest tail")
    parser.add_argument("--multiplier", type=int, default=3)
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--lr", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    spec = SyntheticSpec(num_videos=args.train_videos + args.val_videos,
                         vocab_size=args.vocab, d_video=16, d_audio=4,
                         t_min=3, t_max=8, labels_min=1, labels_max=3,
                         imbalance_exponent=1.5, noise_scale=0.05, seed=args.seed)
    records = generate_synthetic(spec)
    train_recs = records[:args.train_videos]
    val_recs = records[args.train_videos:]

    stats = label_frequency_stats(train_recs, args.vocab)
    ranks = stats.ranks
    tail_train = build_tail_subset(train_recs, args.rank_threshold, args.vocab)
    hard_train = build_hard_subset(train_recs, args.multiplier)
    tail_val = [r for r in val_recs if int(ranks[r.labels].max()) > args.rank_threshold]
    print(f"train {len(train_recs)} videos; tail subset {len(tail_train)}, "
          f"hard set {len(hard_train)}; tail slice of val {len(tail_val)}/{len(val_recs)}")

    config = ModelConfig(pooling_kind="netvlad", cluster_size=4, hidden_size=48,
                         d_video=16, d_audio=4, vocab_size=args.vocab)
    prior = sum(r.labels.size for r in train_recs) / (len(train_recs) * args.vocab)
    tc = TrainConfig(batch_size=args.batch_size,
                     epoch_budget=args.phase1 + args.phase2, eval_every=0.5,
                     seed=args.seed,
                     schedule=ScheduleParams(initial_lr=args.lr, decay=0.9,
                                             decay_per_epoch=1.0))
    recipes = [
        ("control (full set throughout)", [(train_recs, args.phase1 + args.phase2)]),
        ("tail second phase", [(train_recs, args.phase1), (tail_train, args.phase2)]),
        ("hard-tripled second phase", [(train_recs, args.phase1), (hard_train, args.phase2)]),
    ]
    for name, phases in recipes:
        model = init_model(config, seed=args.seed)
        set_output_prior(model, prior)
        result = train_phases(PhasePlan(phases=phases), val_recs, model, tc)
        overall, _ = evaluate(val_recs, result.model, tc.loss)
        tail_gap, _ = evaluate(tail_val, result.model, tc.loss)
        # result.global_step counts the last phase only; Adam counts every step
        print(f"{name}: val GAP {overall:.4f}, tail-slice GAP {tail_gap:.4f} "
              f"({result.opt_state.step} steps)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
