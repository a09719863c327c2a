"""Time a fresh-process ``markovdetect detect`` on a long document.

Trains an order-2 pair (``--smoothing 0.01``) on two seeded 60,000-character
corpora of different order-2 chains over 16 letters and a space, writes a
document of ``--chars`` characters from the first chain, then runs
``markovdetect detect`` on it in a child interpreter and prints the child's
wall time and peak resident memory (``os.wait4`` of that child).  The
calibration walk of ``detect`` takes one step per character, so its time
grows with ``--chars``.  Training and generating are not timed.

    python3 scripts/detect_scale.py
    python3 scripts/detect_scale.py --chars 2000 --seed 3 --out scale.json
"""
import argparse
import json
import tempfile
from pathlib import Path

from train_scale import order2_corpus, run_cli, write_record

TRAIN_CHARS = 60_000


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--chars", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, default=None,
                    help="optional JSON file for the timing")
    args = ap.parse_args()
    if args.chars < 3:
        ap.error("--chars must be at least 3")

    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        for name, seed in (("p", args.seed), ("q", args.seed + 1)):
            corpus = work / f"{name}.txt"
            corpus.write_text(order2_corpus(TRAIN_CHARS, seed), encoding="utf-8")
            argv = ["train", "--input", str(corpus), "--order", "2", "--smoothing", "0.01",
                    "--out", str(work / name)]
            if name == "q":
                argv += ["--alphabet-from", str(work / "p" / "model.json")]
            run_cli(argv, work)
        doc = work / "doc.txt"
        doc.write_text(order2_corpus(args.chars, args.seed), encoding="utf-8")
        seconds, peak_mb = run_cli(["detect", "--model-p", str(work / "p" / "model.json"),
                                    "--model-q", str(work / "q" / "model.json"),
                                    "--text", str(doc), "--out", str(work / "detect")], work)
        result = json.loads((work / "detect" / "detect.json").read_text())
    record = {"chars": args.chars, "seed": args.seed, "tokens": result["tokens"],
              "verdict": result["verdict"], "seconds": seconds, "peak_rss_mb": peak_mb}
    print(f"detect on {args.chars} characters: {seconds:.2f} s, peak RSS {peak_mb:.0f} MB "
          f"(verdict {result['verdict']})")
    write_record(args.out, record)


if __name__ == "__main__":
    main()
