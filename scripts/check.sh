#!/bin/sh
# check.sh — the full verification gate for this repository:
#
#   build → go vet → gofmt (whole tree) → oftecvet (project static
#   analysis; any finding fails) → named test gates with -race
#   (concurrency, solver, Table-2 pin, adjoint, backend, batch, coolant)
#   → every remaining test with -race → evaluate-request, chip-spec,
#   optimize-request, pareto-request and sweep-request fuzz smokes → the
#   configuration-file fuzz smoke → the
#   benchmark module's tests → oftecd smoke (live daemon, every endpoint,
#   the resolution cap, clean SIGTERM shutdown) → parallel-sweep bench
#   smoke
#
# Run from anywhere inside the module; exits nonzero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

# Formatting gate: every Go file must be gofmt-clean, the analyzer
# fixtures under testdata/ included; only the benchmark's build tree is
# skipped.
echo "== gofmt -l"
unformatted=$(find . -path ./.bench_build -prune -o -name '*.go' -print | xargs gofmt -l)
if [ -n "$unformatted" ]; then
	echo "check.sh: gofmt -l lists unformatted files; run gofmt -w on them:" >&2
	echo "$unformatted" >&2
	exit 1
fi

# Project static analysis: any finding fails the gate.
echo "== go run ./cmd/oftecvet"
vet_start=$(date +%s)
go run ./cmd/oftecvet
vet_wall=$(( $(date +%s) - vet_start ))

# Self runtime budget: the suite runs on every gate, so it has to stay
# cheap. The budget is ~10× the current cost (compile of cmd/oftecvet
# plus a few seconds of analysis); tripping it means an analyzer
# regressed algorithmically or the module outgrew the loader.
if [ "$vet_wall" -gt 60 ]; then
	echo "check.sh: oftecvet took ${vet_wall}s, over the 60s self-runtime budget" >&2
	exit 1
fi
echo "   oftecvet wall time: ${vet_wall}s (budget 60s)"

# The named gates below run first, in fail-fast order, and each test runs
# exactly once: every gate skips the tests an earlier gate already ran
# (-skip with the earlier patterns), and the final ./... pass skips them
# all. A gate's package list covers every package holding a test its
# pattern selects first, so the final pass's -skip loses nothing.

# The concurrency surface first and by name, so a race in the evaluation
# cache or the fan-out engine fails fast and unambiguously even if the
# test names around it change.
conc='Concurrent|Singleflight|Eviction|Stress|ParallelMatchesSerial|ForEach'
echo "== go test -race (evaluation-cache + fan-out concurrency)"
go test -race -run "$conc" \
	./internal/core/... ./internal/experiments/... ./internal/solver/... ./internal/parallel/... \
	./internal/serve/... ./internal/evalcache/... ./internal/sparse/... ./internal/thermal/...
done_pat=$conc

# The solver robustness contract by name: Report conformance across all
# methods, cancellation within one iteration, fault-injected fallback
# degradation, and trace-hook safety — all under -race so the Workers>1
# trace/cancel paths are exercised with the detector on. The Trace and
# Cancel patterns also select the workload-trace and cancellation tests
# of the packages around the solver.
solv='Conformance|Fallback|Cancel|Trace|Stop|FaultWrapper|EvalAccounting'
echo "== go test -race (solver conformance + fallback fault injection)"
go test -race -run "$solv" -skip "$done_pat" \
	./internal/solver/... ./internal/core/... ./internal/backend/... ./internal/controller/... \
	./internal/evalcache/... ./internal/experiments/... ./internal/power/... ./internal/thermal/... \
	./internal/workload/...
done_pat="$done_pat|$solv"

# The Table-2 pin by name: Algorithm 1's eight paper-resolution optima
# (active-set SQP, finite differences, default options) against their
# committed values at solver tolerance. At GOMAXPROCS 1 the probe pairs
# run serially and at 2 they fan out, and the pin must hold at both.
pin='Table2Optima'
echo "== go test -race -cpu 1,2 (Table 2 pinned)"
go test -race -cpu 1,2 -run "$pin" -skip "$done_pat" ./internal/experiments/...
done_pat="$done_pat|$pin"

# The adjoint-gradient gate by name: the adjoint-vs-central-difference
# agreement suite (scalar and zoned), the smoothed-max bracket, the
# backend capability chain, the solver's analytic-gradient steering, and
# the core gradient-mode runs — the contract that keeps
# Options.Gradient's derivatives exact. The thermal package runs at
# GOMAXPROCS 1 and 2: EvaluateGrad's adjoint pair is a serial loop at one
# and concurrent at two, and both schedules must give the same bits.
adj='Adjoint|SmoothMax|Gradient'
echo "== go test -race (adjoint gradients vs finite differences)"
go test -race -run "$adj" -skip "$done_pat" \
	./internal/sparse/... ./internal/backend/... ./internal/core/... ./internal/solver/...
go test -race -cpu 1,2 -run "$adj" -skip "$done_pat" ./internal/thermal/...
done_pat="$done_pat|$adj"

# The backend-conformance gate by name: the k=1 zoned/scalar agreement
# contract through the backend layer, the registry and ROM fall-through
# behavior, ROM fidelity against the advertised bound, the ROM's
# construction bitwise equal to a serial per-point build, the
# backendleak seam analyzer, and mixed scalar/zoned traffic on one shared
# evalcache — the set that keeps every backend interchangeable. The
# thermal package runs at GOMAXPROCS 1 and 2: NewReducedModel's ω-group
# fan-out is a serial loop at one and concurrent at two, and both
# schedules must build the same ROM.
back='SingleZoneMatchesScalarRun|Registry|FullScalarMatchesModel|ROM|MixedTraffic|BackendLeak|Binding|Quantized|Oversized|Waiter'
echo "== go test -race (backend conformance)"
go test -race -run "$back" -skip "$done_pat" \
	./internal/core/... ./internal/backend/... ./internal/evalcache/... \
	./internal/lint/... ./internal/serve/...
go test -race -cpu 1,2 -run "$back" -skip "$done_pat" ./internal/thermal/...
done_pat="$done_pat|$back"

# The batched-equivalence gate by name: blocked multi-RHS CG against the
# scalar solver bitwise, EvaluateBatch against per-point DeepEqual
# (scalar, zoned, failures, mid-batch cancellation, dynamic-power flush
# spans, on grids wide enough for the lockstep route, and chunks narrow
# enough for the per-point route), the
# evalcache batch classification, the backend BatchEvaluator conformance
# contract, the batched surface sweep, and the /statz counters — the set
# that keeps the batch path interchangeable with the per-point path.
batch='Batch|Statz'
echo "== go test -race (batched equivalence)"
go test -race -run "$batch" -skip "$done_pat" \
	./internal/sparse/... ./internal/thermal/... ./internal/backend/... ./internal/core/... \
	./internal/serve/... ./internal/evalcache/... ./internal/experiments/...
done_pat="$done_pat|$batch"

# The coolant-conformance gate by name: the actuator contract (the
# Equation (8)/(9) air laws and their validation, the Equation (9) fit,
# knee continuity/monotonicity, exact-zero saturated-branch derivative),
# energy balance and command monotonicity on random operating points
# under every coolant, every Table-2 mode DeepEqual through the seam,
# liquid, liquid-dc and liquid-package adjoint gradients vs central
# differences, and the liquid/package backend registrations and the
# served coolant field — the set that keeps every actuator
# interchangeable. The compiler holds the seam itself: the air laws'
# parameter types carry no methods, so only coolant.Actuator reaches them.
cool='Coolant|Liquid|AirSpec|TestFanValidate|HeatSinkValidate|ConductanceMonotonic|CrossoverSpeed|DConductanceDOmega|CubicLaw|ConductanceLaw|FitLogLaw|ConvectionReference|ExampleAir|Knee|Saturated|TableTwoModes|ColdPlate|Facility|Package|SpecResolve|SpecJSON'
echo "== go test -race (coolant-actuator conformance)"
go test -race -run "$cool" -skip "$done_pat" \
	./internal/coolant/... ./internal/thermal/... ./internal/core/... \
	./internal/backend/... ./internal/serve/...
done_pat="$done_pat|$cool"

echo "== go test -race ./... (every test the gates above did not run)"
go test -race -skip "$done_pat" ./...

# A short fuzz smoke on oftecd's evaluate request, an untrusted boundary:
# any body that decodes, posted on the default chip, must answer 200 or
# 400, never panic or 500. Minimizing a newly interesting input is
# capped at 1s, so the smoke spends its 10s fuzzing, not shrinking.
echo "== go test -fuzz FuzzEvaluateRequest (10s smoke)"
go test -run '^$' -fuzz '^FuzzEvaluateRequest$' -fuzztime 10s -fuzzminimizetime 1s ./internal/serve

# The same smoke on oftecd's chip spec, the field every request decoder
# materializes into a thermal configuration: any body must decode and
# validate to a bounded, finite configuration or fail, never panic.
echo "== go test -fuzz FuzzChipSpecConfig (10s smoke)"
go test -run '^$' -fuzz '^FuzzChipSpecConfig$' -fuzztime 10s -fuzzminimizetime 1s ./internal/serve

# And on oftecd's optimize request: any body but a multistart over a
# zoning, posted on the default chip, must answer 200 with a finite
# outcome, streamed or not, or 400.
echo "== go test -fuzz FuzzOptimizeRequest (10s smoke)"
go test -run '^$' -fuzz '^FuzzOptimizeRequest$' -fuzztime 10s -fuzzminimizetime 1s ./internal/serve

# And on oftecd's Pareto request: any body with at most eight thresholds,
# posted on the default chip, must answer 200 with a finite front or 400.
echo "== go test -fuzz FuzzParetoRequest (10s smoke)"
go test -run '^$' -fuzz '^FuzzParetoRequest$' -fuzztime 10s -fuzzminimizetime 1s ./internal/serve

# And on oftecd's sweep request: any grid of at most 64 points, posted on
# the default chip, must answer 200 with n_omega·n_i finite points or 400.
echo "== go test -fuzz FuzzSweepRequest (10s smoke)"
go test -run '^$' -fuzz '^FuzzSweepRequest$' -fuzztime 10s -fuzzminimizetime 1s ./internal/serve

# And on the configuration file `oftec -config` reads (thermal.LoadConfig,
# with its coolant spec and floorplan): any input must fail to load, or
# load a configuration that validates and round-trips through SaveConfig
# to identical bytes.
echo "== go test -fuzz FuzzLoadConfig (10s smoke)"
go test -run '^$' -fuzz '^FuzzLoadConfig$' -fuzztime 10s -fuzzminimizetime 1s ./internal/thermal

# The end-to-end benchmark is a module of its own (perfbench/, built
# against this tree), so ./... above never reaches it. Its tests pin what
# the benchmark relies on: traced runs answer exactly what untraced runs
# answer, the backend capability probes resolve the same through the
# tracing decorator, and traced counts repeat run to run.
echo "== go -C perfbench test ."
go -C perfbench test .

# The oftecd smoke gate: a real daemon on an ephemeral port, one request
# against every endpoint (including a streamed optimize), then SIGTERM —
# the process must drain and exit zero. This is the only place the
# signal/listener plumbing in cmd/oftecd runs before a deploy would.
echo "== oftecd smoke (live daemon, every endpoint, SIGTERM)"
smokedir=$(mktemp -d)
trap 'kill "$smokepid" 2>/dev/null; rm -rf "$smokedir"' EXIT
go build -o "$smokedir/oftecd" ./cmd/oftecd
"$smokedir/oftecd" -addr 127.0.0.1:0 >"$smokedir/log" 2>&1 &
smokepid=$!
i=0
until grep -q 'listening on' "$smokedir/log"; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "check.sh: oftecd never started listening" >&2
		cat "$smokedir/log" >&2
		exit 1
	fi
	sleep 0.1
done
smokeaddr=$(sed -n 's/^oftecd: listening on //p' "$smokedir/log")
curl -sf "http://$smokeaddr/healthz" >/dev/null
curl -sf -X POST "http://$smokeaddr/v1/evaluate" \
	-d '{"omega_rpm":3000,"itec_a":1}' | jq -e '.runaway == false' >/dev/null
curl -sf -X POST "http://$smokeaddr/v1/optimize" \
	-d '{"chip":{"bench":"CRC32"}}' | jq -e '.feasible == true' >/dev/null
curl -sf -X POST "http://$smokeaddr/v1/optimize" \
	-d '{"stream":true}' | tail -n 1 | jq -e '.outcome.feasible == true' >/dev/null
curl -sf -X POST "http://$smokeaddr/v1/sweep" \
	-d '{"n_omega":3,"n_i":3}' | jq -e '.points | length == 9' >/dev/null
curl -sf -X POST "http://$smokeaddr/v1/pareto" \
	-d '{"tmax_c":[90]}' | jq -e '.points[0].feasible == true' >/dev/null
# The sweep above went through the blocked multi-RHS path; /statz must
# show the batch traffic next to the cache misses.
curl -sf "http://$smokeaddr/statz" | jq -e '.cache.misses > 0 and .batch.batches > 0' >/dev/null
# A grid resolution over thermal.MaxRes is refused before any model is
# built, and the daemon keeps answering.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$smokeaddr/v1/evaluate" \
	-d '{"chip":{"res":100000}}')
if [ "$code" != 400 ]; then
	echo "check.sh: oftecd answered $code to an over-cap grid resolution, want 400" >&2
	exit 1
fi
curl -sf "http://$smokeaddr/healthz" >/dev/null
kill -TERM "$smokepid"
if ! wait "$smokepid"; then
	echo "check.sh: oftecd did not exit cleanly on SIGTERM" >&2
	cat "$smokedir/log" >&2
	exit 1
fi
grep -q 'cache at exit' "$smokedir/log"
trap 'rm -rf "$smokedir"' EXIT
echo "   oftecd smoke: all endpoints answered, clean SIGTERM exit"

# Regenerate the paper-table dump from scratch. The file is derived
# output (gitignored, not committed — EXPERIMENTS.md quotes from it), so
# the gate proves it stays regenerable from the current tree.
echo "== go run ./cmd/benchtable -exp all > benchtable_output.txt"
go run ./cmd/benchtable -exp all > benchtable_output.txt

# One cold iteration of the 40×40 surface sweep in both serial and
# parallel form, so the fan-out path is exercised end-to-end on every gate.
echo "== go test -bench=SurfaceGrid -benchtime=1x"
go test -run '^$' -bench 'SurfaceGrid' -benchtime 1x .

# One iteration of each hot-path benchmark (repeated-point, cold, the
# transient boost, and assembly) and of the CG kernel microbenchmarks
# (SpMV, IC apply, the full IC factor and the slice factor through the
# network's prefix), so the symbolic-reuse path stays exercised on every
# gate; scripts/bench.sh runs the same set at full benchtime for the
# recorded numbers in BENCH_evaluate.json.
echo "== go test -bench (hot-path smoke, benchtime=1x)"
go test -run '^$' \
	-bench '^(BenchmarkEvaluate|BenchmarkEvaluateExact|BenchmarkEvaluateCold|BenchmarkEvaluateExactCold|BenchmarkROMEvaluate|BenchmarkTransientBoost)$' \
	-benchtime 1x .
go test -run '^$' -bench '^(BenchmarkAssemble|BenchmarkMulVec|BenchmarkICApply|BenchmarkICFactor|BenchmarkSliceFactor)$' -benchtime 1x ./internal/thermal

echo "== check.sh: all gates passed"
