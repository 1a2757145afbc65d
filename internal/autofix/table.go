package autofix

import (
	"diogenes/internal/apps"
	"diogenes/internal/experiments"
	"diogenes/internal/proc"
)

// EvaluateAppWith plans and applies the automatic correction for one
// modelled application, producing the comparison row the engine's
// AutofixTable consumes. The pipeline report comes from the engine (cached
// and stage-parallel when the engine is), and its reference run supplies
// the unpatched runtime.
func EvaluateAppWith(e *experiments.Engine, name string, scale float64) (*experiments.AutofixRow, error) {
	spec, err := apps.ByName(name)
	if err != nil {
		return nil, err
	}
	rep, err := e.RunApp(name, scale)
	if err != nil {
		return nil, err
	}
	plan := BuildPlan(rep.Analysis)
	v, err := ApplyWith(func(f proc.Factory) proc.App {
		return spec.Build(scale, apps.Original, f)
	}, spec.Factory(), rep.UninstrumentedTime, plan, DefaultOptions())
	if err != nil {
		return nil, err
	}
	row := &experiments.AutofixRow{
		App:            name,
		AutoRealized:   v.Realized,
		AutoEstimated:  plan.Estimated,
		CallsElided:    v.SuppressedCalls,
		GuardViolation: v.GuardViolation,
		Valid:          v.Valid,
	}
	if v.OriginalTime > 0 {
		row.AutoRealizedPct = v.RealizedPct
	}
	return row, nil
}

// TableWith runs EvaluateAppWith over the four modelled applications on an
// engine: one worker per application, pipeline reports shared with any
// table1/table2 runs through the same cache.
func TableWith(e *experiments.Engine, scale float64) ([]experiments.AutofixRow, error) {
	return e.AutofixTable(scale, func(name string, scale float64) (*experiments.AutofixRow, error) {
		return EvaluateAppWith(e, name, scale)
	})
}
