"""Time a fresh-process ``markovdetect train`` on a large corpus.

With ``--scheme char`` (the default) it writes a seeded order-2 character
corpus of ``--chars`` characters over 16 letters and a space; with
``--scheme word`` a seeded text of ``--words`` words drawn from a Zipf law
(mass proportional to 1/rank) over ``--vocab`` distinct words.  It then runs
``markovdetect train --scheme S --order k --smoothing 0.01`` on it in a
child interpreter (``--order`` defaults to 2 for characters and 1 for
words) and prints the child's wall time, its peak resident memory
(``os.wait4`` of that child) and the size of the ``model.json`` it wrote.
Generating the corpus is not timed.  :func:`run_cli` and
:func:`write_record` are the child runner and the ``--out`` writer of all
four ``scripts/*_scale.py``.

    python3 scripts/train_scale.py
    python3 scripts/train_scale.py --chars 200000 --seed 3 --out scale.json
    python3 scripts/train_scale.py --scheme word --vocab 2000 --order 1
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
SYMBOLS = b"abcdefghijklmnop "
STRAND_LEN = 1000


def run_cli(args: list[str], work: Path) -> tuple[float, float]:
    """Run ``markovdetect *args`` in a child interpreter that imports ``SRC``,
    logging its stderr to ``work/<command>.log``; return its wall seconds and
    its own peak RSS in MB (``os.wait4`` of that child), and exit with its
    stderr if it fails."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    log = work / f"{args[0]}.log"
    with log.open("w", encoding="utf-8") as err:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-m", "markovdetect", *args], env=env,
                                 stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - start
    # reaped here, so tell the Popen object how the child ended
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode:
        sys.exit(f"{args[0]} exited {child.returncode}: {log.read_text().strip()}")
    return seconds, usage.ru_maxrss / 1024.0


def write_record(path: Path | None, record: dict) -> None:
    """Write ``record`` to ``path`` as key-sorted JSON, if a path was given."""
    if path:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")


def order2_corpus(chars: int, seed: int) -> str:
    """``chars`` characters of a random order-2 chain, run as independent
    strands of ``STRAND_LEN`` characters side by side and then concatenated.
    Rows are Dirichlet(2) mixed with a uniform floor, so every context is
    reachable."""
    a = len(SYMBOLS)
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(0.9 * rng.dirichlet(np.full(a, 2.0), size=a * a) + 0.1 / a, axis=1)
    cdf[:, -1] = 1.0
    strands = -(-chars // STRAND_LEN)
    out = np.empty((STRAND_LEN, strands), dtype=np.uint8)
    out[:2] = rng.integers(0, a, size=(2, strands))
    for t in range(2, STRAND_LEN):
        ctx = out[t - 2].astype(np.int64) * a + out[t - 1]
        out[t] = (rng.random(strands)[:, None] >= cdf[ctx]).sum(axis=1)
    codes = out.T.reshape(-1)[:chars]
    return np.frombuffer(SYMBOLS, dtype=np.uint8)[codes].tobytes().decode("ascii")


def zipf_words(words: int, vocab: int, seed: int) -> str:
    """``words`` space-separated words ``w0 .. w{vocab - 1}``, drawn
    independently with mass proportional to 1 / (rank + 1)."""
    rng = np.random.default_rng(seed)
    law = 1.0 / np.arange(1, vocab + 1)
    names = np.array([f"w{i}" for i in range(vocab)])
    return " ".join(names[rng.choice(vocab, words, p=law / law.sum())].tolist())


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scheme", choices=("char", "word"), default="char")
    ap.add_argument("--chars", type=int, default=10_200_000,
                    help="corpus length under --scheme char")
    ap.add_argument("--words", type=int, default=200_000,
                    help="corpus length under --scheme word")
    ap.add_argument("--vocab", type=int, default=2000,
                    help="distinct words under --scheme word")
    ap.add_argument("--order", type=int, default=None,
                    help="model order (default 2 for char, 1 for word)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, default=None,
                    help="optional JSON file for the timing")
    args = ap.parse_args()
    word = args.scheme == "word"
    order = args.order if args.order is not None else 1 if word else 2
    length = args.words if word else args.chars
    if length < order + 1:
        ap.error(f"--{'words' if word else 'chars'} must be at least the order plus one")
    if word and args.vocab < 2:
        ap.error("--vocab must be at least 2")
    if order < 0:
        ap.error("--order must be at least 0")
    unit = "words" if word else "characters"

    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        corpus = work / "corpus.txt"
        text = (zipf_words(length, args.vocab, args.seed) if word
                else order2_corpus(length, args.seed))
        corpus.write_text(text, encoding="utf-8")
        del text
        seconds, peak_mb = run_cli(["train", "--input", str(corpus), "--scheme", args.scheme,
                                    "--order", str(order), "--smoothing", "0.01",
                                    "--out", str(work / "model")], work)
        summary = json.loads((work / "model" / "train_summary.json").read_text())
        model_bytes = (work / "model" / "model.json").stat().st_size
    record = {"scheme": args.scheme, "order": order, "words" if word else "chars": length,
              "seed": args.seed, "tokens": summary["tokens"],
              "alphabet_size": summary["alphabet_size"],
              "distinct_contexts": summary["distinct_contexts"],
              "seconds": seconds, "peak_rss_mb": peak_mb, "model_bytes": model_bytes}
    if word:
        record["vocab"] = args.vocab
    print(f"train --order {order} on {length} {unit}: {seconds:.2f} s, "
          f"peak RSS {peak_mb:.0f} MB, model.json {model_bytes / 1e6:.1f} MB "
          f"({summary['alphabet_size']} symbols, {summary['distinct_contexts']} contexts)")
    write_record(args.out, record)


if __name__ == "__main__":
    main()
