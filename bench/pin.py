"""Pin the benchmark's golden artifacts.

Runs every call of every workload once per seed and writes ``pins.json``
next to this file: the SHA-256 of each seedless artifact, of each seeded
artifact per seed, and the reference BER curves pooled over the seeds::

    python3 bench/pin.py

Re-pin only for an intended change of the artifacts, and say why.
"""

import json
import sys

import run

#: seeds whose artifacts are pinned and pooled into the reference curves
SEEDS = range(32)


def pin() -> dict:
    fixed, seeded, pooled = {}, {}, {}
    for seed in SEEDS:
        checker = run.Checker({}, seed)
        for workload in run.WORKLOADS.values():
            for task in workload.tasks:
                for call in task.calls:
                    if not call.seeded and call.key in fixed:
                        continue
                    text = checker.run(call)
                    if text is None:
                        raise SystemExit(f"pin: {call.key} failed at seed "
                                         f"{seed}")
                    if not call.seeded:
                        fixed[call.key] = run.digest(text)
                        continue
                    seeded.setdefault(call.key, {})[str(seed)] = \
                        run.digest(text)
                    if call.curve is None:
                        continue
                    rows = pooled.setdefault(call.key, [
                        [snr, 0, 0, 0] for snr in call.curve.grid()])
                    for row, (_, bits, be, _, fe) in zip(
                            rows, run.curve_counts(text)):
                        row[1] += bits
                        row[2] += be
                        row[3] += fe
        print(f"seed {seed} pinned", file=sys.stderr)
    return {
        "machine": run.machine_facts(),
        "seeds": list(SEEDS),
        "fixed": fixed,
        "seeded": seeded,
        "reference": pooled,
    }


def main() -> int:
    pins = pin()
    with open(run.PINS, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
