"""Training CLI: ``repro-train <dataset> [options]``.

Trains an RL-QVO policy on a Table III workload of one of the registry
datasets and saves it (weights + config) to a model directory that
:func:`repro.core.model_io.load_model` can restore.

Examples
--------
::

    repro-train yeast --size 8 --queries 12 --epochs 20 --out models/yeast-q8
    repro-train dblp --incremental-from 8 --epochs 30
    repro-train yeast --size 8 --eval-queries 6 --log-jsonl train.jsonl
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
import time
from functools import partial

from repro.core.config import RLQVOConfig
from repro.core.model_io import save_model
from repro.core.trainer import RLQVOTrainer
from repro.datasets.registry import DATASETS, dataset_stats, load_dataset
from repro.datasets.workloads import query_workload

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-train",
        description="Train an RL-QVO query-vertex-ordering policy.",
    )
    parser.add_argument("dataset", choices=sorted(DATASETS))
    parser.add_argument("--size", type=int, help="query vertex count (Table III)")
    parser.add_argument("--queries", type=int, default=12, help="workload size")
    parser.add_argument("--epochs", type=int, default=20)
    parser.add_argument("--rollouts", type=int, default=2, help="rollouts per query")
    parser.add_argument("--hidden-dim", type=int, default=64)
    parser.add_argument("--layers", type=int, default=2, help="GNN layers")
    parser.add_argument(
        "--gnn", default="gcn",
        choices=["gcn", "gat", "sage", "graphnn", "asap", "mlp"],
    )
    parser.add_argument("--train-match-limit", type=int, default=2000)
    parser.add_argument(
        "--train-time-limit", type=float, default=1.0,
        help="per-rollout enumeration deadline (s); the paper's full-scale "
        "runs use 500",
    )
    parser.add_argument(
        "--eval-queries", type=int, default=0, metavar="N",
        help="after every epoch, report the greedy policy's #enum / RI's on "
        "the last N queries of the workload's held-out half",
    )
    parser.add_argument(
        "--log-jsonl", metavar="PATH",
        help="write one JSON object per epoch (every EpochStats field plus "
        "the name of the workload trained on); the file is overwritten",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--incremental-from", type=int, metavar="SIZE",
        help="pretrain on Q<SIZE> first, then fine-tune on the target size",
    )
    parser.add_argument("--out", help="model output directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    spec = DATASETS[args.dataset]
    size = args.size if args.size is not None else spec.default_query_size
    out_dir = args.out or f"models/{args.dataset}-q{size}"

    config = RLQVOConfig(
        gnn_kind=args.gnn,
        num_gnn_layers=args.layers,
        hidden_dim=args.hidden_dim,
        epochs=args.epochs,
        rollouts_per_query=args.rollouts,
        train_match_limit=args.train_match_limit,
        train_time_limit=args.train_time_limit,
        seed=args.seed,
    )
    data = load_dataset(args.dataset)
    stats = dataset_stats(args.dataset)
    trainer = RLQVOTrainer(data, config, stats=stats)

    target = query_workload(
        args.dataset, size, count=args.queries, seed=args.seed, data=data
    )
    if not 0 <= args.eval_queries <= len(target.eval):
        raise SystemExit(
            f"--eval-queries must be in [0, {len(target.eval)}] "
            f"(the held-out half of --queries {args.queries})"
        )
    held_out = list(target.eval[len(target.eval) - args.eval_queries:]) or None

    def log(workload_name, epoch_stats) -> None:
        heldout = (
            f"{epoch_stats.heldout_ratio:.3f}" if epoch_stats.heldout_enum else "-"
        )
        print(
            f"epoch {epoch_stats.epoch:>3}: "
            f"return={epoch_stats.mean_return:+8.2f} "
            f"Δ#enum-reward={epoch_stats.mean_enum_reward:+6.2f} "
            f"used={epoch_stats.queries_used} "
            f"skipped={epoch_stats.queries_skipped} "
            f"ratio={epoch_stats.mean_ratio:.3f} "
            f"clip={epoch_stats.clip_fraction:.2f} "
            f"kl={epoch_stats.approx_kl:+.4f} "
            f"H={epoch_stats.entropy:.3f} "
            f"|g|={epoch_stats.grad_norm:.2f} "
            f"steps={epoch_stats.num_steps} "
            f"passes={epoch_stats.passes} "
            f"heldout={heldout} "
            f"sample={epoch_stats.time_sample:.2f}s "
            f"train={epoch_stats.time_train:.2f}s "
            f"({epoch_stats.elapsed:.1f}s)"
        )
        if sink is not None:
            # Epoch numbers restart with each ``train`` call; the
            # workload name tells a pretraining line from a fine-tune one.
            line = {"workload": workload_name, **dataclasses.asdict(epoch_stats)}
            sink.write(json.dumps(line) + "\n")

    start = time.perf_counter()
    with (
        open(args.log_jsonl, "w", encoding="utf-8", buffering=1)
        if args.log_jsonl
        else contextlib.nullcontext()
    ) as sink:
        if args.incremental_from is not None:
            pre = query_workload(
                args.dataset, args.incremental_from, count=args.queries,
                seed=args.seed, data=data,
            )
            print(f"pretraining on {pre.name} ({len(pre.train)} queries)")
            trainer.train(
                list(pre.train), log_fn=partial(log, pre.name),
                eval_queries=held_out,
            )
            print(f"incremental fine-tune on {target.name}")
            trainer.train(
                list(target.train), epochs=config.incremental_epochs,
                log_fn=partial(log, target.name), eval_queries=held_out,
            )
        else:
            print(f"training on {target.name} ({len(target.train)} queries)")
            trainer.train(
                list(target.train), log_fn=partial(log, target.name),
                eval_queries=held_out,
            )

    save_model(trainer.policy, out_dir)
    print(
        f"saved model to {out_dir} "
        f"(total {time.perf_counter() - start:.1f}s)"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
