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
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from train_scale import SRC, order2_corpus

TRAIN_CHARS = 60_000


def _run(argv, env, log: Path) -> tuple[float, float]:
    """Run ``argv`` and return its wall seconds and peak RSS in MB; exit on failure."""
    with log.open("w", encoding="utf-8") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - start
    # reaped here, so tell the Popen object how the child ended
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        sys.exit(f"{argv[3]} exited {child.returncode}: {log.read_text().strip()}")
    return seconds, usage.ru_maxrss / 1024.0


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
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        cli = [sys.executable, "-m", "markovdetect"]
        for name, seed in (("p", args.seed), ("q", args.seed + 1)):
            corpus = work / f"{name}.txt"
            corpus.write_text(order2_corpus(TRAIN_CHARS, seed), encoding="utf-8")
            argv = cli + ["train", "--input", str(corpus), "--order", "2", "--smoothing", "0.01",
                          "--out", str(work / name)]
            if name == "q":
                argv += ["--alphabet-from", str(work / "p" / "model.json")]
            _run(argv, env, work / "train.log")
        doc = work / "doc.txt"
        doc.write_text(order2_corpus(args.chars, args.seed), encoding="utf-8")
        argv = cli + ["detect", "--model-p", str(work / "p" / "model.json"),
                      "--model-q", str(work / "q" / "model.json"), "--text", str(doc),
                      "--out", str(work / "detect")]
        seconds, peak_mb = _run(argv, env, work / "detect.log")
        result = json.loads((work / "detect" / "detect.json").read_text())
    record = {"chars": args.chars, "seed": args.seed, "tokens": result["tokens"],
              "verdict": result["verdict"], "seconds": seconds, "peak_rss_mb": peak_mb}
    print(f"detect on {args.chars} characters: {seconds:.2f} s, peak RSS {peak_mb:.0f} MB "
          f"(verdict {result['verdict']})")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
