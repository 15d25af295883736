#!/usr/bin/env python3
"""Directional study: does corpus-adaptive contrastive pretraining transfer?

Fine-tunes twice per seed on the synthetic two-domain benchmark, once from a
span-contrastive pretrained checkpoint (source + target corpora) and once from
random init, then scores zero-shot nDCG@10 on the target task. Passes when the
pretrained arm's worst seed beats the scratch arm's best seed.
"""

import argparse
import logging
import sys

from robustdr.experiments import run_coco_directional


def main(argv=None) -> int:
    """Print each seed's values and the verdict; the exit code is 1 on FAIL."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.ERROR)

    results = []
    print(f"{'seed':>4}  {'with_pretrain':>13}  {'from_scratch':>12}")
    for seed in args.seeds:
        r = run_coco_directional(seed)
        results.append(r)
        print(f"{seed:>4}  {r['with_coco']:>13.4f}  {r['without_coco']:>12.4f}")
    lo = min(r["with_coco"] for r in results)
    hi = max(r["without_coco"] for r in results)
    verdict = "PASS" if lo > hi else "FAIL"
    print(f"\nmin(with_pretrain)={lo:.4f}  max(from_scratch)={hi:.4f}  -> {verdict}")
    return 0 if lo > hi else 1


if __name__ == "__main__":
    sys.exit(main())
