#!/usr/bin/env bash
# Golden output digests of the figure and extension benches: runs
# table1_epi, fig7-fig15, eight ext_* studies and three vnoise_cli
# commands (sweep, sweep --sync, map) at a pinned configuration (--jobs
# 3 --no-cache, VNOISE_OUT_DIR=out/golden relative to the repo root, so
# fig8's "traces written to" line is stable) and checks the sha256 of
# each stdout, plus fig8's two CSV traces, against the committed list
# scripts/fig_digests.sha256. A refactor that moves any figure's
# output by one bit fails here and names the bench.
#
# A cached pass follows: fig9_sync_sweep and fig13_propagation run
# twice against a fresh --cache-dir under out/golden (cold, then warm,
# replaying every job from the cache). Both stdouts must equal the
# --no-cache one, and a per-bench manifest of the entry files' sha256,
# sorted by name, is digested with the rest, so the bytes the result
# cache writes are pinned too.
#
# Usage: scripts/fig_digests.sh [--update] [BUILD_DIR]
#   --update   rewrite scripts/fig_digests.sha256 from this build (only
#              for a change that is meant to move a figure)
#   BUILD_DIR  the build whose bench binaries to check, absolute or
#              relative to the repo root (default: build, the default
#              preset's; check.sh also checks build-v3, the x86-64-v3
#              preset's)
#
# Reuses out/vnoise_kit.cache when present, so the stressmark search is
# paid at most once.
set -euo pipefail

cd "$(dirname "$0")/.."

update=0
if [[ "${1:-}" == --update ]]; then
    update=1
    shift
fi
if [[ $# -gt 1 || "${1:-}" == -* ]]; then
    echo "usage: $0 [--update] [BUILD_DIR]" >&2
    exit 2
fi
build_dir="${1:-build}"
[[ "$build_dir" == /* ]] || build_dir="$PWD/$build_dir"
bin="$build_dir/bench"

benches=(
    fig7_freq_sweep fig8_oscilloscope fig9_sync_sweep fig10_misalignment
    fig11_delta_i fig12_consecutive fig13_propagation fig14_mappings
    fig15_mapping_opportunity
    ext_ablation_pdn ext_spectrum ext_guardband ext_variation ext_scaling
    ext_scheduler
    table1_epi ext_disruptive ext_genetic
)
# vnoise_cli commands, as "output-name subcommand [flags]".
cli_runs=(
    "cli_sweep sweep"
    "cli_sweep_sync sweep --sync"
    "cli_map map"
)
list="$PWD/scripts/fig_digests.sha256"

missing=()
for bench in "${benches[@]}"; do
    [[ -x "$bin/$bench" ]] || missing+=("bench/$bench")
done
[[ -x "$build_dir/tools/vnoise_cli" ]] || missing+=(tools/vnoise_cli)
if ((${#missing[@]})); then
    echo "fig_digests: not built in $build_dir: ${missing[*]}" >&2
    exit 2
fi

export VNOISE_OUT_DIR=out/golden
mkdir -p "$VNOISE_OUT_DIR"
kit="$VNOISE_OUT_DIR/vnoise_kit.cache"
if [[ -f out/vnoise_kit.cache && ! -f "$kit" ]]; then
    cp out/vnoise_kit.cache "$kit"
fi

for bench in "${benches[@]}"; do
    "$bin/$bench" --jobs 3 --no-cache \
        >"$VNOISE_OUT_DIR/$bench.stdout" 2>"$VNOISE_OUT_DIR/$bench.stderr"
done
for run in "${cli_runs[@]}"; do
    read -r name args <<<"$run"
    # shellcheck disable=SC2086  # $args is the word list of one command
    "$build_dir/tools/vnoise_cli" $args --jobs 3 --no-cache \
        >"$VNOISE_OUT_DIR/$name.stdout" 2>"$VNOISE_OUT_DIR/$name.stderr"
done

cached=(fig9_sync_sweep fig13_propagation)
for bench in "${cached[@]}"; do
    dir="$VNOISE_OUT_DIR/cache_$bench"
    rm -rf "$dir"
    for pass in cold warm; do
        out="$VNOISE_OUT_DIR/$bench.$pass"
        "$bin/$bench" --jobs 3 --cache-dir "$dir" \
            >"$out.stdout" 2>"$out.stderr"
        if ! cmp -s "$VNOISE_OUT_DIR/$bench.stdout" "$out.stdout"; then
            echo "fig_digests: $bench stdout with a $pass cache" \
                "differs from --no-cache" >&2
            exit 1
        fi
    done
    (cd "$dir" && LC_ALL=C ls | LC_ALL=C sort | xargs sha256sum) \
        >"$VNOISE_OUT_DIR/$bench.cache.sha256"
done

cd "$VNOISE_OUT_DIR"
outputs=()
for bench in "${benches[@]}"; do
    outputs+=("$bench.stdout")
done
for run in "${cli_runs[@]}"; do
    outputs+=("${run%% *}.stdout")
done
outputs+=(fig8_20us.csv fig8_period.csv)
for bench in "${cached[@]}"; do
    outputs+=("$bench.cache.sha256")
done

if ((update)); then
    sha256sum "${outputs[@]}" >"$list"
    echo "fig_digests: wrote ${#outputs[@]} digests to $list"
else
    sha256sum --quiet -c "$list"
    echo "fig_digests: ${#outputs[@]} outputs match $list"
fi
