#!/bin/sh
# bench.sh — the hot-path benchmark trajectory for this repository.
#
# Runs the steady-state evaluation benchmarks (repeated-point and cold
# variants, the batched-vs-per-point surface sweep, a memo-cold ROM build,
# the Section 6.2 transient boost, plus the assembly, model-build and CG
# kernel micro-benchmarks) and writes the parsed numbers to
# BENCH_evaluate.json next to the frozen pre-optimization baseline,
# together with the per-benchmark speedup and allocation ratios. Each
# benchmark runs 5 times at BENCHTIME each; the JSON records the median
# of every metric over the runs, plus the fastest and slowest ns_per_op
# (ns_per_op_min, ns_per_op_max) as the run-to-run spread and the number
# of runs, and every ratio is one of medians. Successive PRs diff the
# JSON instead of eyeballing `go test -bench` output.
#
# It also records the backend comparison — BenchmarkROMEvaluate against
# the full backend's repeated-point and cold solves — into
# BENCH_backend.json (acceptance bar: rom_vs_cold_full ≥ 10), and the
# serving benchmark — cmd/oftecload replaying SERVE_N concurrent mixed
# requests against a self-hosted oftecd — into BENCH_serve.json
# (acceptance bar: zero errors and cache hits+waits > 0).
#
# Usage: scripts/bench.sh [output.json] [backend-output.json] [serve-output.json]
#   BENCHTIME=1s scripts/bench.sh      # longer runs
#   SERVE_N=1000 scripts/bench.sh      # quick, start-up-dominated serving run
set -eu

cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-400ms}"
OUT="${1:-BENCH_evaluate.json}"
BACKEND_OUT="${2:-BENCH_backend.json}"
SERVE_OUT="${3:-BENCH_serve.json}"
raw="$(mktemp)"
parsed="$(mktemp)"
current="$(mktemp)"
trap 'rm -f "$raw" "$parsed" "$current"' EXIT

echo "== go test -bench (hot path, benchtime $BENCHTIME, count 5)"
go test -run '^$' \
	-bench '^(BenchmarkEvaluate|BenchmarkEvaluateExact|BenchmarkEvaluateCold|BenchmarkEvaluateExactCold|BenchmarkROMEvaluate|BenchmarkSurfaceGridBatched|BenchmarkROMBuild|BenchmarkGradVsFD|BenchmarkCoolantPower|BenchmarkTransientBoost)$' \
	-benchtime "$BENCHTIME" -count 5 -benchmem . | tee "$raw"
# The thermal line: assembly microbenchmarks, build microbenchmarks for
# NewModel on a cached network (BenchmarkNewModel) and on a configuration
# never seen before (BenchmarkNewModelCold), neither of which solves
# anything, and the CG kernel microbenchmarks on the paper-resolution
# Basicmath ω-slice BenchmarkEvaluateCold solves on: one SpMV
# (BenchmarkMulVec), one IC preconditioner apply (BenchmarkICApply), one
# full numeric IC factorization (BenchmarkICFactor, what a transient
# step pays when its (ω, I, Δt) changes) and the same slice's
# factorization finished from the network's prefix into pooled scratch
# (BenchmarkSliceFactor, what every steady solve pays before its CG). A
# kernel number times one kernel call, not a solve or a workload.
go test -run '^$' \
	-bench '^(BenchmarkAssemble|BenchmarkAssembleReference|BenchmarkNewModel|BenchmarkNewModelCold|BenchmarkMulVec|BenchmarkICApply|BenchmarkICFactor|BenchmarkSliceFactor)$' \
	-benchtime "$BENCHTIME" -count 5 -benchmem ./internal/thermal | tee -a "$raw"

# One JSON object per benchmark line: the name plus every value/unit pair
# (ns/op, B/op, allocs/op, and custom metrics like cg-iters).
awk '
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	printf "{\"name\":\"%s\",\"iterations\":%s", name, $2
	for (i = 3; i < NF; i += 2) {
		unit = $(i + 1)
		gsub(/\//, "_per_", unit)
		gsub(/[^A-Za-z0-9]+/, "_", unit)
		printf ",\"%s\":%s", unit, $i
	}
	print "}"
}' "$raw" >"$parsed"

# One object per benchmark: the median of each metric over its runs, in
# the order go test prints them, then the spread of ns_per_op and the
# number of runs.
jq -s '
	def median: sort | .[length / 2 | floor] as $hi | .[(length - 1) / 2 | floor] as $lo | ($lo + $hi) / 2;
	group_by(.name) | map(
		. as $runs
		| {(.[0].name): (
			reduce ($runs[0] | del(.name) | keys_unsorted[]) as $m ({}; .[$m] = ($runs | map(.[$m]) | median))
			+ {
				ns_per_op_min: ($runs | map(.ns_per_op) | min),
				ns_per_op_max: ($runs | map(.ns_per_op) | max),
				runs: ($runs | length)
			})}
	) | add' "$parsed" >"$current"

# Lint wall time: how long the full eight-analyzer oftecvet sweep takes
# over the module, compiled first so the number is pure analysis (load +
# type-check + analyzers), not go-build time. scripts/check.sh enforces
# the budget; this records the trajectory next to the solver numbers.
echo "== oftecvet wall time (full module, eight analyzers)"
vetbin="$(mktemp)"
go build -o "$vetbin" ./cmd/oftecvet
lint_start=$(date +%s%N)
"$vetbin"
lint_ms=$(( ($(date +%s%N) - lint_start) / 1000000 ))
rm -f "$vetbin"
echo "   oftecvet: ${lint_ms} ms"

# The baseline block is the pre-optimization state of this repository
# (Builder assembly per evaluation, fresh IC(0) per solve, no scratch
# reuse), measured with benchtime 2s on the reference container. It is
# frozen so every future run compares against the same origin. Every
# baseline call solved, while today's BenchmarkEvaluate and
# BenchmarkEvaluateExact repeat a few operating points and so time a
# result-memo hit; each speedup therefore divides by the benchmark that
# still solves on every call, which its entry names in "vs".
jq -n \
	--arg benchtime "$BENCHTIME" \
	--argjson lint_ms "$lint_ms" \
	--slurpfile current "$current" \
	'
	{
		BenchmarkEvaluate:      {ns_per_op: 5645555,  allocs_per_op: 89,  B_per_op: 2452920,  cg_iters: 29},
		BenchmarkEvaluateExact: {ns_per_op: 27096774, allocs_per_op: 520, B_per_op: 14612352, outer_iters: 6},
		BenchmarkAssemble:      {ns_per_op: 3818399,  allocs_per_op: 70,  B_per_op: 2098296}
	} as $baseline |
	{
		BenchmarkEvaluate:      "BenchmarkEvaluateCold",
		BenchmarkEvaluateExact: "BenchmarkEvaluateExactCold",
		BenchmarkAssemble:      "BenchmarkAssemble"
	} as $vs |
	$current[0] as $cur |
	{
		benchtime: $benchtime,
		baseline: $baseline,
		current: $cur,
		lint: {wall_ms: $lint_ms},
		speedup: ($baseline | to_entries
			| map($cur[$vs[.key]] as $now
				| select($now != null)
				| {key: .key, value: {
					vs: $vs[.key],
					ns: (.value.ns_per_op / $now.ns_per_op),
					# 0 allocs/op divides as 1 so the ratio stays finite;
					# read it as "at least this many times fewer".
					allocs: (.value.allocs_per_op / ([$now.allocs_per_op, 1] | max))
				}})
			| from_entries),
		# The blocked multi-RHS engine on the cold 40x40 surface sweep,
		# against the per-point reference path on the same fresh systems.
		# The batch replicates per-point CG bit-for-bit, and factors each
		# omega-slice once per group where the per-point path factors it
		# once per point, so the ratio is the amortization of the pattern
		# walk and of the slice factorizations.
		batched_surface: {
			perpoint: $cur["BenchmarkSurfaceGridBatched/perpoint"],
			batched:  $cur["BenchmarkSurfaceGridBatched/batched"],
			batched_vs_perpoint: ($cur["BenchmarkSurfaceGridBatched/perpoint"].ns_per_op
				/ $cur["BenchmarkSurfaceGridBatched/batched"].ns_per_op)
		},
		# CG kernel microbenchmarks (one kernel call each, no solve) on
		# the slice BenchmarkEvaluateCold solves on, next to it.
		kernels: {
			evaluate_cold: $cur.BenchmarkEvaluateCold,
			mul_vec:       $cur.BenchmarkMulVec,
			ic_apply:      $cur.BenchmarkICApply,
			ic_factor:     $cur.BenchmarkICFactor,
			slice_factor:  $cur.BenchmarkSliceFactor
		},
		# Build microbenchmarks (no solve): NewModel at paper resolution on
		# a cached network, against a configuration never seen before,
		# which assembles its network.
		build: {
			network_hit:  $cur.BenchmarkNewModel,
			network_cold: $cur.BenchmarkNewModelCold,
			cold_vs_hit: ($cur.BenchmarkNewModelCold.ns_per_op
				/ $cur.BenchmarkNewModel.ns_per_op)
		},
		# The Section 6.2 transient boost: a fresh backward-Euler
		# integration of 40 steps at two operating points, the two step
		# factorizations included.
		transient_boost: $cur.BenchmarkTransientBoost,
		# Adjoint gradients vs finite differences on the zoned k=8 SQP run
		# (9 decision variables). At k=8 SQP stops at its start point, so
		# both legs measure one derivative of both functions at x0: one
		# adjoint pair against 2(1+k) probes per function, not a solve.
		grad_vs_fd: {
			fd:   $cur["BenchmarkGradVsFD/fd"],
			grad: $cur["BenchmarkGradVsFD/grad"],
			func_evals_ratio: ($cur["BenchmarkGradVsFD/fd"].func_evals
				/ $cur["BenchmarkGradVsFD/grad"].func_evals)
		}
	}' >"$OUT"

echo "== wrote $OUT"
jq '.speedup' "$OUT"
jq '{grad_vs_fd_func_evals_ratio: .grad_vs_fd.func_evals_ratio}' "$OUT"

# The backend comparison: the ROM fast path against the full backend's
# cold solve (both use the distinct-point pattern, so neither the model
# memo nor the evaluation cache answers) and against the repeated-point
# hot path. rom_vs_cold_full is the number the ISSUE 5 acceptance bar
# reads: the ROM must evaluate at least 10× faster than a cold full
# solve while staying inside its advertised temperature-error bound
# (asserted by the fidelity tests in internal/thermal and the gate in
# scripts/check.sh).
jq -n \
	--arg benchtime "$BENCHTIME" \
	--slurpfile current "$current" \
	'
	$current[0] as $cur |
	{
		benchtime: $benchtime,
		full: {
			repeated: $cur.BenchmarkEvaluate,
			cold:     $cur.BenchmarkEvaluateCold
		},
		rom: $cur.BenchmarkROMEvaluate,
		speedup: {
			rom_vs_cold_full:     ($cur.BenchmarkEvaluateCold.ns_per_op / $cur.BenchmarkROMEvaluate.ns_per_op),
			# BenchmarkEvaluate repeats one operating point, so after the
			# first iteration it measures the model memo (~us), not a solve.
			# The honest direction is therefore how much faster the memo-hit
			# path is than a ROM solve — not a ROM "speedup" over full.
			repeated_full_vs_rom: ($cur.BenchmarkROMEvaluate.ns_per_op / $cur.BenchmarkEvaluate.ns_per_op)
		},
		# The coolant-seam comparison: the optimized cooling power 𝒫 of
		# the full OFTEC run on the same floorplan under the air actuator
		# versus the liquid cold-plate loop (BenchmarkCoolantPower legs).
		# power_ratio < 1 means liquid deploys cheaper at the optimum.
		coolant_liquid_vs_air: {
			air:    $cur["BenchmarkCoolantPower/air"],
			liquid: $cur["BenchmarkCoolantPower/liquid"],
			power_ratio: ($cur["BenchmarkCoolantPower/liquid"].watts
				/ $cur["BenchmarkCoolantPower/air"].watts)
		}
	}' >"$BACKEND_OUT"

echo "== wrote $BACKEND_OUT"
jq '.speedup' "$BACKEND_OUT"
jq '{coolant_liquid_vs_air_power_ratio: .coolant_liquid_vs_air.power_ratio}' "$BACKEND_OUT"

# The serving benchmark: oftecload self-hosts an oftecd and replays a
# deterministic mixed workload (scalar/zoned evaluates, optimizes,
# sweeps, Pareto fronts across three chips), writing latency percentiles
# and cache-coalescing rates. oftecload itself exits nonzero on any
# request error or if no cross-request coalescing was observed, so this
# doubles as the serving acceptance gate. The default 20,000 requests run
# for over a second on two CPUs, so steady-state serving outweighs the
# three model builds and first solves that dominate a 1,000-request run.
echo "== oftecload (serving benchmark, ${SERVE_N:-20000} requests × ${SERVE_C:-32} workers)"
go run ./cmd/oftecload -n "${SERVE_N:-20000}" -c "${SERVE_C:-32}" -out "$SERVE_OUT"

echo "== wrote $SERVE_OUT"
jq '{p50_ms, p90_ms, p99_ms, throughput_rps, errors, coalesce_rate: .cache.coalesce_rate}' "$SERVE_OUT"
