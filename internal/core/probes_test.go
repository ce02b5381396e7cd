package core

import (
	"reflect"
	"testing"

	"oftec/internal/workload"
)

// TestRunParallelMatchesSerial pins the probe fan-out contract: a run
// whose solver takes its finite-difference probes on four workers returns
// exactly the outcome and the cache traffic of the serial run. It covers
// every Table-2 benchmark under SQP, Basicmath under trust region and
// interior point, the baseline modes (FixedFan pins the ω axis, so its
// derivative plans no probes there), and the fallback chain. Every solve
// is anchored on its solver call's incumbent, so a multistart launch,
// whose corner starts run concurrently at width four, returns the serial
// outcome too; its cache traffic differs (a start can wait on a point
// another start is solving, where the serial launch finds it cached), so
// only its outcome is compared.
func TestRunParallelMatchesSerial(t *testing.T) {
	type runCase struct {
		name, bench string
		opts        Options
	}
	var cases []runCase
	for _, b := range workload.Names {
		cases = append(cases, runCase{"sqp/" + b, b, Options{Mode: ModeHybrid}})
	}
	cases = append(cases,
		runCase{"trust/Basicmath", "Basicmath", Options{Mode: ModeHybrid, Method: MethodTrustRegion}},
		runCase{"interior/Basicmath", "Basicmath", Options{Mode: ModeHybrid, Method: MethodInteriorPoint}},
		runCase{"variable-fan/Basicmath", "Basicmath", Options{Mode: ModeVariableFan}},
		runCase{"fixed-fan/Basicmath", "Basicmath", Options{Mode: ModeFixedFan}},
		runCase{"tec-only/Basicmath", "Basicmath", Options{Mode: ModeTECOnly}},
		runCase{"fallback/Basicmath", "Basicmath", Options{Mode: ModeHybrid, Fallback: true}},
		runCase{"multistart/Basicmath", "Basicmath", Options{Mode: ModeHybrid, MultiStart: true}},
	)
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			run := func(workers int) (*Outcome, CacheStats) {
				s := benchSystem(t, c.bench)
				o := c.opts
				o.Workers = workers
				out, err := s.Run(o)
				if err != nil {
					t.Fatal(err)
				}
				out.Runtime = 0
				return out, s.CacheStats()
			}
			serial, serialStats := run(1)
			par, parStats := run(4)
			if !reflect.DeepEqual(serial, par) {
				t.Errorf("outcomes differ:\nserial   %+v\nparallel %+v", serial, par)
			}
			if !c.opts.MultiStart && serialStats != parStats {
				t.Errorf("cache traffic differs: serial %+v, parallel %+v", serialStats, parStats)
			}
		})
	}
}
