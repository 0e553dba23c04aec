#!/usr/bin/env bash
# Runs N sets of the untraced benchmark and summarises their agreement.
#
#   benchmark/repeat.sh N [SEED]           # every set on SEED (default 1, the pinned seed)
#   benchmark/repeat.sh N --vary [FIRST]   # set i on seed FIRST+i (default first seed 1)
#
# A set runs every workload of BENCHMARK.json once, at the pinned
# run_seconds. On one seed the sets differ by the machine alone; with
# --vary (the acceptance driver's protocol) by the machine and the input.
# For each (workload, metric) pair — the gated end-to-end metrics, then
# the ungated timings every untraced run also prints — it reports min /
# median / max, max/min against 1 + bound, and, from four sets up, the
# interquartile range as a share of the median
# (statistics.quantiles(n=4), the figure the driver computes). Ungated
# timings are held against the same 0.10, which is what demoted them.
# Exits non-zero if a run fails, reports output that does not match its
# reference, or a gated pair — setup_s included — is outside its bound;
# operations over the latency limit are counted, not fatal.
set -euo pipefail
cd "$(dirname "$0")/.."
sets="${1:?usage: benchmark/repeat.sh N [SEED] | N --vary [FIRST_SEED]}"
vary=0
if [ "${2:-}" = "--vary" ]; then
    vary=1
    shift
fi
seed="${2:-1}"
exec python3 - "$sets" "$vary" "$seed" <<'PY'
import json, statistics, subprocess, sys

sets, vary, first = int(sys.argv[1]), sys.argv[2] == "1", int(sys.argv[3])
spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
DEMOTED_AT = 0.10
values = {}  # (workload, metric) -> [value per set]
units = {}
failed = {}  # workload -> operations failed across sets
for i in range(sets):
    seed = first + i if vary else first
    for w in spec["workloads"]:
        cmd = spec["command"] + ["--workload", w["name"], "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if run.returncode != 0:
            sys.exit(f"set {i + 1} {w['name']}: exit code {run.returncode}")
        lines = run.stdout.strip().splitlines()
        result, ungated = json.loads(lines[-1]), json.loads(lines[-2])["ungated"]
        if not result["correct"]:
            sys.exit(f"set {i + 1} {w['name']}: output did not match the reference")
        failed[w["name"]] = failed.get(w["name"], 0) + result["failed"]
        both = {**result["metrics"], **ungated}
        for name, m in both.items():
            values.setdefault((w["name"], name), []).append(m["value"])
            units[name] = m["unit"]
        print(f"# set {i + 1}/{sets} {w['name']} seed {seed}: "
              + " ".join(f"{n}={m['value']:.6g}" for n, m in both.items()), flush=True)

print(f"\n{'workload':<22}{'metric':<16}{'min':>14}{'median':>14}{'max':>14}"
      f"{'max/min':>9}{'iqr/med':>9}  verdict")
agree = True
for (w, name), v in values.items():
    gated = name in bounds
    bound = bounds.get(name, DEMOTED_AT)
    lo, med, hi = min(v), statistics.median(v), max(v)
    ratio = hi / lo if lo > 0 else float("inf")
    inside = ratio <= 1 + bound
    verdict = "within 1+bound" if inside else "OUTSIDE 1+bound"
    spread = ""
    if len(v) >= 4:
        q = statistics.quantiles(v, n=4)
        share = (q[2] - q[0]) / med if med else float("inf")
        spread = f"{share:9.4f}"
        verdict += ("; spread < bound/3" if share < bound / 3 else
                    "; spread < bound" if share <= bound else "; SPREAD > bound")
        inside = inside and share <= bound
    if gated:
        agree = agree and inside
    kind = f"bound {bound}" if gated else f"ungated, against {bound}"
    print(f"{w:<22}{name:<16}{lo:14.6g}{med:14.6g}{hi:14.6g}{ratio:9.4f}{spread:>9}"
          f"  {verdict} ({units[name]}, {kind})")
print("\noperations failed (over the latency limit): "
      + ", ".join(f"{w} {n}" for w, n in failed.items()))
print("every gated pair agrees within its bound" if agree
      else "some gated pair is outside its bound")
sys.exit(0 if agree else 1)
PY
