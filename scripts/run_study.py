#!/usr/bin/env python3
"""Run one directional study over seeds; print each seed's arms, then the verdict.

coco: fine-tunes on the synthetic two-domain benchmark's source task from a
span-contrastive pretrained checkpoint (source + target corpora) and from
random init, scored by zero-shot nDCG@10 on the target task. Passes when the
pretrained arm's worst seed beats the scratch arm's best seed.

idro: fine-tunes one pretrained checkpoint with idro / groupdro / uniform
weighting on the 85/15-imbalanced source task, scored by final retrieval loss
on the rare query group and on all queries (fixed model-independent
negatives). Passes when, on seed means, idro is below uniform on the rare
group, and groupdro is at or below idro on the rare group but above it on
the average.
"""

import argparse
import logging
import sys

import numpy as np

from robustdr import experiments


def coco_verdict(runs):
    lo = min(r["with_coco"] for r in runs)
    hi = max(r["without_coco"] for r in runs)
    return f"min(with_coco)={lo:.4f}  max(without_coco)={hi:.4f}", lo > hi


def idro_verdict(runs):
    rare = {w: float(np.mean([r[w].rare for r in runs])) for w in runs[0]}
    avg = {w: float(np.mean([r[w].average for r in runs])) for w in runs[0]}
    means = "  ".join(f"{w}: rare={rare[w]:.4f} avg={avg[w]:.4f}" for w in rare)
    ok = (rare["idro"] < rare["uniform"] and rare["groupdro"] <= rare["idro"]
          and avg["groupdro"] > avg["idro"])
    return f"seed means  {means}", ok


VERDICTS = {"coco": coco_verdict, "idro": idro_verdict}


def arm_values(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return f"rare={value.rare:.4f} avg={value.average:.4f}"


def main(argv=None) -> int:
    """The exit code is 1 on FAIL."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("study", choices=VERDICTS)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.ERROR)

    run = getattr(experiments, f"run_{args.study}_directional")
    runs = []
    for seed in args.seeds:
        runs.append(run(seed))
        print(f"seed {seed}  " + "  ".join(f"{arm}: {arm_values(value)}"
                                           for arm, value in runs[-1].items()))
    summary, ok = VERDICTS[args.study](runs)
    print(f"\n{summary}  -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
