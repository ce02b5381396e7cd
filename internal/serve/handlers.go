package serve

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"net/http"

	"oftec/internal/backend"
	"oftec/internal/core"
	"oftec/internal/experiments"
	"oftec/internal/solver"
	"oftec/internal/thermal"
	"oftec/internal/units"
)

// fin maps non-finite values (runaway temperatures, +Inf powers) to 0 so
// JSON marshalling never fails; responses carry an explicit Runaway flag
// instead, and zero-valued fields are omitted.
func fin(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req EvaluateRequest
	if status, err := decode(w, r, &req); err != nil {
		s.writeError(w, status, err)
		return
	}
	entry, sys, status, err := s.system(req.Chip)
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	cfg := sys.Config()
	if req.OmegaRPM < 0 {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("serve: omega_rpm %g is negative", req.OmegaRPM))
		return
	}
	omega := units.RPMToRadPerSec(req.OmegaRPM)
	if omega > cfg.UMax()*(1+1e-9) {
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("serve: omega_rpm %g exceeds the fan maximum %g RPM",
				req.OmegaRPM, units.RadPerSecToRPM(cfg.UMax())))
		return
	}
	if err := checkCurrents(req.ITecA, req.CurrentsA, cfg.TEC.MaxCurrent); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}

	ctx, cancel, err := s.requestContext(r, req.TimeoutMS)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()

	op := backend.Scalar(omega, req.ITecA)
	var zoning *thermal.Zoning
	switch {
	case req.Zoning != nil:
		zoning, err = entry.zoning(sys, req.Zoning)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		if len(req.CurrentsA) != zoning.NumZones() {
			s.writeError(w, http.StatusBadRequest,
				fmt.Errorf("serve: %d currents for %d zones", len(req.CurrentsA), zoning.NumZones()))
			return
		}
		op = backend.OpPoint{Omega: omega, Currents: req.CurrentsA}
	case len(req.CurrentsA) > 0:
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("serve: currents_a needs a zoning"))
		return
	}
	res, err := sys.EvaluateContext(ctx, zoning, op, nil)
	if err != nil {
		s.writeError(w, solveStatus(ctx), err)
		return
	}

	resp := EvaluateResponse{
		OmegaRPM:        req.OmegaRPM,
		ITecA:           req.ITecA,
		CurrentsA:       req.CurrentsA,
		Runaway:         res.Runaway,
		MeetsConstraint: res.MeetsConstraint(cfg.TMax),
	}
	if !res.Runaway {
		resp.MaxTempC = fin(units.KToC(res.MaxChipTemp))
		resp.CoolingPowerW = fin(res.CoolingPower())
		resp.LeakageW = fin(res.PLeakage)
		resp.TECW = fin(res.PTEC)
		resp.FanW = fin(res.PFan)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// checkCurrents refuses a TEC current outside [0, iMax], with the same
// relative slack the fan speed gets against its maximum.
func checkCurrents(itec float64, zoned []float64, iMax float64) error {
	outside := func(i float64) bool { return i < 0 || i > iMax*(1+1e-9) }
	if outside(itec) {
		return fmt.Errorf("serve: itec_a %g A is outside the TEC range [0, %g] A", itec, iMax)
	}
	for k, i := range zoned {
		if outside(i) {
			return fmt.Errorf("serve: currents_a[%d] %g A is outside the TEC range [0, %g] A", k, i, iMax)
		}
	}
	return nil
}

// solveStatus distinguishes a deadline-killed solve (504) from a genuine
// evaluation failure (500).
func solveStatus(ctx context.Context) int {
	if ctx.Err() != nil {
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// optimizeOptions translates the wire request into core.Options.
func optimizeOptions(ctx context.Context, req OptimizeRequest) (core.Options, error) {
	// An omitted mode or method selects OFTEC with SQP.
	mode, err := core.ParseMode(cmp.Or(req.Mode, "oftec"))
	if err != nil {
		return core.Options{}, err
	}
	method, err := core.ParseMethod(cmp.Or(req.Method, "sqp"))
	if err != nil {
		return core.Options{}, err
	}
	return core.Options{
		Mode:       mode,
		Method:     method,
		MultiStart: req.MultiStart,
		Fallback:   req.Fallback,
		SkipOpt1:   req.Opt2Only,
		Solver:     solver.Options{Ctx: ctx},
	}, nil
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	var req OptimizeRequest
	if status, err := decode(w, r, &req); err != nil {
		s.writeError(w, status, err)
		return
	}
	entry, sys, status, err := s.system(req.Chip)
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	ctx, cancel, err := s.requestContext(r, req.TimeoutMS)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	opts, err := optimizeOptions(ctx, req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	var zoning *thermal.Zoning
	if req.Zoning != nil {
		if zoning, err = entry.zoning(sys, req.Zoning); err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	if err := sys.CheckOptions(zoning, opts); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}

	if req.Stream {
		s.streamOptimize(ctx, w, sys, zoning, opts)
		return
	}

	resp, err := runOptimize(sys, zoning, opts)
	if err != nil {
		s.writeError(w, solveStatus(ctx), err)
		return
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// runOptimize dispatches the scalar or zoned run and folds both outcome
// shapes into the wire response. A deadline that fires mid-solve is not
// an error: the solver stops at its next iteration boundary and the
// response reports the best-so-far point with stop reason "cancelled".
func runOptimize(sys *core.System, zoning *thermal.Zoning, opts core.Options) (OptimizeResponse, error) {
	if zoning != nil {
		out, err := sys.RunZoned(zoning, opts)
		if err != nil {
			return OptimizeResponse{}, err
		}
		resp := OptimizeResponse{
			Feasible:     out.Feasible,
			FailedAtOpt2: out.FailedAtOpt2,
			OmegaRPM:     fin(units.RadPerSecToRPM(out.Omega)),
			CurrentsA:    out.Currents,
			MinMaxTempC:  fin(units.KToC(out.MinMaxTemp)),
			RuntimeMS:    out.Runtime.Milliseconds(),
			FuncEvals:    out.Report.FuncEvals + out.Opt2Report.FuncEvals,
			Opt1Stopped:  stopName(out.Report.Stopped),
			Opt2Stopped:  stopName(out.Opt2Report.Stopped),
		}
		if out.Result != nil && !out.Result.Runaway {
			resp.MaxTempC = fin(units.KToC(out.Result.MaxChipTemp))
			resp.CoolingW = fin(out.Result.CoolingPower())
		}
		return resp, nil
	}
	out, err := sys.Run(opts)
	if err != nil {
		return OptimizeResponse{}, err
	}
	resp := OptimizeResponse{
		Feasible:     out.Feasible,
		FailedAtOpt2: out.FailedAtOpt2,
		OmegaRPM:     fin(units.RadPerSecToRPM(out.Omega)),
		ITecA:        fin(out.ITEC),
		MinMaxTempC:  fin(units.KToC(out.MinMaxTemp)),
		RuntimeMS:    out.Runtime.Milliseconds(),
		FuncEvals:    out.Opt1Report.FuncEvals + out.Opt2Report.FuncEvals,
		Opt1Stopped:  stopName(out.Opt1Report.Stopped),
		Opt2Stopped:  stopName(out.Opt2Report.Stopped),
	}
	if out.Result != nil && !out.Result.Runaway {
		resp.MaxTempC = fin(units.KToC(out.Result.MaxChipTemp))
		resp.CoolingW = fin(out.Result.CoolingPower())
	}
	return resp, nil
}

// stopName renders a stop reason, mapping the unset zero value (phase
// not run) to the empty string so it is omitted from the JSON.
func stopName(s solver.StopReason) string {
	if s == solver.StopUnset {
		return ""
	}
	return s.String()
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if status, err := decode(w, r, &req); err != nil {
		s.writeError(w, status, err)
		return
	}
	if req.NOmega < 2 || req.NI < 2 {
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("serve: sweep grid %d×%d must be at least 2×2", req.NOmega, req.NI))
		return
	}
	// Each edge is bounded before the product is taken, so it cannot wrap.
	if req.NOmega > maxGridPoints || req.NI > maxGridPoints || req.NOmega*req.NI > maxGridPoints {
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("serve: sweep grid %d×%d exceeds the %d-point limit", req.NOmega, req.NI, maxGridPoints))
		return
	}
	_, sys, status, err := s.system(req.Chip)
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	ctx, cancel, err := s.requestContext(r, req.TimeoutMS)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()

	pts, err := experiments.SurfaceSystem(ctx, sys, req.NOmega, req.NI, 0)
	if err != nil {
		s.writeError(w, solveStatus(ctx), err)
		return
	}
	resp := SweepResponse{NOmega: req.NOmega, NI: req.NI, Points: make([]SweepPoint, len(pts))}
	for i, p := range pts {
		sp := SweepPoint{
			OmegaRPM: fin(units.RadPerSecToRPM(p.Omega)),
			ITecA:    fin(p.ITEC),
			Runaway:  p.Runaway,
		}
		if !p.Runaway {
			sp.MaxTempC = fin(units.KToC(p.MaxTemp))
			sp.PowerW = fin(p.Power)
		}
		resp.Points[i] = sp
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePareto(w http.ResponseWriter, r *http.Request) {
	var req ParetoRequest
	if status, err := decode(w, r, &req); err != nil {
		s.writeError(w, status, err)
		return
	}
	_, sys, status, err := s.system(req.Chip)
	if err != nil {
		s.writeError(w, status, err)
		return
	}
	method, err := core.ParseMethod(cmp.Or(req.Method, "sqp"))
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	thresholds := make([]float64, len(req.TMaxC))
	for i, c := range req.TMaxC {
		thresholds[i] = units.CToK(c)
	}
	if err := sys.CheckPareto(thresholds); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel, err := s.requestContext(r, req.TimeoutMS)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()

	front, err := sys.ParetoFront(thresholds, core.Options{
		Mode:   core.ModeHybrid,
		Method: method,
		Solver: solver.Options{Ctx: ctx},
	})
	if err != nil {
		s.writeError(w, solveStatus(ctx), err)
		return
	}
	resp := ParetoResponse{Points: make([]ParetoPointJSON, len(front))}
	for i, p := range front {
		pj := ParetoPointJSON{TMaxC: fin(units.KToC(p.TMax)), Feasible: p.Feasible}
		if p.Feasible {
			pj.PowerW = fin(p.Power)
			pj.MaxTempC = fin(units.KToC(p.MaxTemp))
			pj.OmegaRPM = fin(units.RadPerSecToRPM(p.Omega))
			pj.ITecA = fin(p.ITEC)
		}
		resp.Points[i] = pj
	}
	s.writeJSON(w, http.StatusOK, resp)
}
