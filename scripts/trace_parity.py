#!/usr/bin/env python3
"""Checks that two builds solve the same LP identically, timings aside.

    scripts/trace_parity.py OLD_BUILD NEW_BUILD [--m 256] [--seed 1]
                            [--solvers pdip,ls,xbar] [--tile-dim N]

OLD_BUILD and NEW_BUILD are CMake build trees (each holding
tools/memlp_gen and tools/memlp_solve). The script generates one LP with
`memlp_gen --kind feasible`, solves it with every listed solver through
`memlp_solve --trace` in both builds, and compares the two JSONL traces
record by record: same record count, same fields, same values. Only timing
fields (`ts`, and any field ending in `seconds`, `_s` or `_ms`) are left
out of the comparison. It also checks that both builds generate the same
MPS file and exit with the same status.

`--tile-dim N` passes `--tile-dim N` to the xbar and ls solves, which
forces their arrays onto the tiled NoC with tiles of side N, so the tiled
write path and the composite settle are compared too (pdip has no array
and runs as without it).

Use it for changes that must not alter any solve (kernel speedups,
refactors): it exits 0 when every trace matches and 1 on any difference,
printing the first few differing fields of each solver.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

MAX_REPORTED = 5


def is_timing(field):
    return field == "ts" or field.endswith(("seconds", "_s", "_ms"))


def tool(build, name):
    path = Path(build) / "tools" / name
    if not path.is_file():
        sys.exit(f"trace_parity: {path} not found (is {build} a build tree?)")
    return str(path)


def generate(build, m, seed, out):
    with open(out, "wb") as sink:
        subprocess.run([tool(build, "memlp_gen"), "--kind", "feasible",
                        "--m", str(m), "--seed", str(seed)],
                       stdout=sink, check=True)


def solve(build, solver, mps, trace, tile_dim):
    command = [tool(build, "memlp_solve"), "--solver", solver,
               "--trace", str(trace), "--quiet"]
    if tile_dim and solver in ("xbar", "ls"):
        command += ["--tile-dim", str(tile_dim)]
    done = subprocess.run(command + [str(mps)],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    if done.returncode not in (0, 1):
        sys.exit(f"trace_parity: {build}: memlp_solve --solver {solver} "
                 f"exited {done.returncode}: {done.stderr.strip()}")
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    return done.returncode, records


def differences(old, new):
    """Lines describing every non-timing mismatch between two traces."""
    found = []
    if len(old) != len(new):
        found.append(f"record count {len(old)} != {len(new)}")
    for index, (a, b) in enumerate(zip(old, new)):
        for field in sorted(set(a) | set(b)):
            if is_timing(field):
                continue
            if field not in a or field not in b or a[field] != b[field]:
                found.append(f"record {index} ({a.get('type')}) {field}: "
                             f"{a.get(field, '<absent>')!r} != "
                             f"{b.get(field, '<absent>')!r}")
    return found


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_build")
    parser.add_argument("new_build")
    parser.add_argument("--m", type=int, default=256)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--solvers", default="pdip,ls,xbar")
    parser.add_argument("--tile-dim", type=int, default=0,
                        help="force xbar and ls onto the NoC with this "
                             "tile side (0 = each solver's default)")
    args = parser.parse_args()

    failed = False
    with tempfile.TemporaryDirectory(prefix="trace_parity.") as tmp:
        tmp = Path(tmp)
        old_mps, new_mps = tmp / "old.mps", tmp / "new.mps"
        generate(args.old_build, args.m, args.seed, old_mps)
        generate(args.new_build, args.m, args.seed, new_mps)
        same_mps = old_mps.read_bytes() == new_mps.read_bytes()
        print(f"memlp_gen --kind feasible --m {args.m} --seed {args.seed}: "
              f"{'identical' if same_mps else 'DIFFERENT'} MPS")
        failed |= not same_mps
        for solver in args.solvers.split(","):
            old_code, old = solve(args.old_build, solver, old_mps,
                                  tmp / f"{solver}.old.jsonl", args.tile_dim)
            new_code, new = solve(args.new_build, solver, old_mps,
                                  tmp / f"{solver}.new.jsonl", args.tile_dim)
            found = differences(old, new)
            if old_code != new_code:
                found.insert(0, f"exit code {old_code} != {new_code}")
            fields = sum(1 for record in old for f in record
                         if not is_timing(f))
            print(f"{solver}: {len(old)} records, {fields} fields compared, "
                  f"{len(found)} difference(s)")
            for line in found[:MAX_REPORTED]:
                print(f"  {line}")
            failed |= bool(found)
    print("FAIL: traces differ" if failed else "OK: traces identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
