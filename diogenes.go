// Package diogenes is the public API of the Diogenes / feed-forward
// measurement (FFM) reproduction: a performance tool that finds problematic
// CPU/GPU synchronizations and memory transfers and estimates the benefit of
// fixing them (Welton & Miller, "Diogenes: Looking For An Honest CPU/GPU
// Performance Measurement Tool", SC '19).
//
// The tool runs an application five times — baseline measurement, detailed
// tracing, memory tracing + data hashing, sync-use analysis, and analysis —
// adjusting instrumentation between runs based on what earlier runs
// observed. The result is a set of problems (unnecessary synchronizations,
// misplaced synchronizations, duplicate transfers), grouped so one source
// fix maps to one finding, each with an expected benefit.
//
// Applications are deterministic programs against the simulated CUDA driver
// (see internal/cuda); the four workloads of the paper's evaluation ship in
// internal/apps and are accessible through Workloads. A minimal custom
// application:
//
//	type myApp struct{}
//
//	func (myApp) Name() string { return "my-app" }
//	func (myApp) Run(p *diogenes.Process) error {
//	    buf, err := p.Ctx.Malloc(1<<20, "data")
//	    if err != nil {
//	        return err
//	    }
//	    ...
//	    return p.Ctx.Free(buf)
//	}
//
//	report, err := diogenes.Run(myApp{})
package diogenes

import (
	"io"

	"diogenes/internal/apps"
	"diogenes/internal/experiments"
	"diogenes/internal/ffm"
	"diogenes/internal/proc"
	"diogenes/internal/report"
)

// App is a deterministic application the tool can execute repeatedly.
type App = proc.App

// Process is one simulated execution environment (clock, GPU, host memory,
// call stack, CUDA context).
type Process = proc.Process

// Factory builds fresh processes with a fixed machine configuration.
type Factory = proc.Factory

// Config configures a full FFM run.
type Config = ffm.Config

// Report is the complete output of the pipeline for one application.
type Report = ffm.Report

// Analysis is stage 5's output: the execution graph, problem
// classifications, and benefit groupings.
type Analysis = ffm.Analysis

// StaticSequence is a problem sequence folded over the application's loop
// structure (the Figure 6 display unit).
type StaticSequence = ffm.StaticSequence

// APIFold is all problematic operations of one CUDA API function folded
// together (the Figure 7 display unit).
type APIFold = ffm.APIFold

// Workload describes one of the modelled evaluation applications.
type Workload = apps.Spec

// Variant selects the original or fixed build of a workload.
type Variant = apps.Variant

// Workload variants.
const (
	Original = apps.Original
	Fixed    = apps.Fixed
)

// DefaultConfig returns the standard tool configuration: default machine
// model, calibrated instrumentation overheads, default analysis thresholds.
func DefaultConfig() Config { return ffm.DefaultConfig() }

// DefaultFactory returns a process factory with the default device and
// driver configuration.
func DefaultFactory() Factory { return proc.DefaultFactory() }

// Run executes the full five-stage pipeline on app with the default
// configuration.
func Run(app App) (*Report, error) { return ffm.Run(app, DefaultConfig()) }

// Workloads returns the four modelled applications of the paper's
// evaluation (cumf_als, cuIBM, AMG, Rodinia gaussian) in Table 1 order.
func Workloads() []Workload { return apps.Registry() }

// WorkloadByName looks up one modelled application.
func WorkloadByName(name string) (Workload, error) { return apps.ByName(name) }

// RunWorkload runs the pipeline on a named workload at the given scale
// (1.0 = full modelled size) using that workload's machine configuration.
func RunWorkload(name string, scale float64) (*Report, error) {
	return (&experiments.Engine{Workers: 1}).RunApp(name, scale)
}

// WriteOverview renders the Figure 7 overview display for an analysis.
func WriteOverview(w io.Writer, a *Analysis) error { return report.Overview(w, a) }

// WriteSequence renders the Figure 6 sequence listing.
func WriteSequence(w io.Writer, a *Analysis, s StaticSequence) error {
	return report.Sequence(w, a, s)
}

// WriteSubsequence renders the Figure 8 refined estimate.
func WriteSubsequence(w io.Writer, a *Analysis, s StaticSequence) error {
	return report.Subsequence(w, a, s)
}

// WriteSavings renders the per-API-function expected savings summary.
func WriteSavings(w io.Writer, a *Analysis) error { return report.Savings(w, a) }

// WriteJSON exports an analysis in the tool's JSON interchange format.
func WriteJSON(w io.Writer, a *Analysis) error { return a.WriteJSON(w) }
