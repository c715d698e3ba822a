#!/usr/bin/env bash
# The 13 commands of perfbench's cli-battery, plus `example` on the
# example1, example2 and sphere_beltrami bundles (manifests in
# .github/manifests/), so that every audit of `example` is covered. Each
# runs on the projeq sources in SRC_DIR with its output in OUT_DIR/<label>.
# Run it from the repository root, which holds the manifests. It fails on
# the first command whose exit code differs from the expected one (2: a
# malformed-manifest probe) or that writes no report.json. The commands
# expected to pass run with --seed SEED (default 0).
#
#   .github/battery.sh SRC_DIR OUT_DIR [SEED]
set -u
src=$1
out=$2
run_seed=${3:-0}
while read -r label cmd manifest want; do
  seed=""
  if [ "$want" = 0 ]; then seed="--seed $run_seed"; fi
  code=0
  PYTHONPATH="$src" python -W error::RuntimeWarning -m projeq "$cmd" \
    --manifest "$manifest" --out "$out/$label" $seed \
    > /dev/null 2>&1 || code=$?
  if [ "$code" != "$want" ]; then echo "$label: exit $code, want $want"; exit 1; fi
  if [ ! -f "$out/$label/report.json" ]; then echo "$label: no report.json"; exit 1; fi
done <<'LIST'
check-bm check-bm perfbench/manifests/lc3.json 0
pair pair perfbench/manifests/lc3.json 0
weyl weyl perfbench/manifests/lc3.json 0
split split perfbench/manifests/lc3.json 0
lc-build lc-build perfbench/manifests/lc3.json 0
geodesic geodesic perfbench/manifests/lc3.json 0
conserve conserve perfbench/manifests/lc3.json 0
example example perfbench/manifests/torus.json 0
classify2d classify2d perfbench/manifests/liouville.json 0
probe-samples-0 check-bm perfbench/manifests/probe_samples_zero.json 2
probe-horizon-neg geodesic perfbench/manifests/probe_horizon_negative.json 2
probe-log-domain check-bm perfbench/manifests/probe_log_domain.json 2
probe-singular geodesic perfbench/manifests/probe_singular_metric.json 2
example1 example .github/manifests/example1.json 0
example2 example .github/manifests/example2.json 0
example-sphere example .github/manifests/sphere_beltrami.json 0
LIST
