// Package cli implements the diogenes command line. It lives outside
// cmd/diogenes so every command is testable with injected writers; the main
// package is a two-line shim.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"diogenes/internal/apps"
	"diogenes/internal/autofix"
	"diogenes/internal/cuda"
	"diogenes/internal/experiments"
	"diogenes/internal/ffm"
	"diogenes/internal/interpose"
	"diogenes/internal/obs"
	"diogenes/internal/proc"
	"diogenes/internal/report"
	"diogenes/internal/timeline"
	"diogenes/internal/trace"
)

// Main dispatches a command line (without the program name) and returns the
// process exit code. All output goes to stdout/stderr. Global flags precede
// the command: `diogenes -parallel 4 table1` runs the experiment suite on a
// four-worker execution engine.
func Main(args []string, stdout, stderr io.Writer) int {
	globals := newFlagSet("diogenes")
	parallel := globals.Int("parallel", 1, "worker count for experiment suites (0 = all cores)")
	tracePath := globals.String("trace", "", "export a Chrome trace of the invocation's pipeline spans")
	metricsPath := globals.String("metrics", "", "export the invocation's self-measurement metrics as text")
	cpuProfile := globals.String("cpuprofile", "", "write a pprof CPU profile of the tool itself")
	memProfile := globals.String("memprofile", "", "write a pprof heap profile of the tool itself")
	showVersion := globals.Bool("version", false, "print the build's version and exit")
	if err := globals.Parse(args); err != nil {
		if err == flag.ErrHelp {
			usage(stderr)
			return 0
		}
		fmt.Fprintf(stderr, "diogenes: %v\n", err)
		usage(stderr)
		return 2
	}
	args = globals.Args()
	if *showVersion {
		if err := Version(stdout); err != nil {
			fmt.Fprintf(stderr, "diogenes: %v\n", err)
			return 1
		}
		return 0
	}
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	if *parallel < 0 {
		fmt.Fprintf(stderr, "diogenes: -parallel %d: worker count cannot be negative\n", *parallel)
		return 2
	}

	// Self-profiling of the tool process (wall-clock, via runtime/pprof) —
	// distinct from the virtual-time self-measurement below. No-ops unless
	// the flags are set.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(stderr, "diogenes: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "diogenes: -cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "diogenes: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "diogenes: -memprofile: %v\n", err)
			}
		}()
	}

	// One engine for the whole invocation: every sub-result a command
	// needs twice (table2 and autofix both re-run the table1 pipelines)
	// comes from the content-addressed report cache instead. The observer
	// rides along through every layer; recording is virtual-time-neutral,
	// so attaching it unconditionally cannot change any command's output.
	eng := experiments.NewEngine(*parallel)
	o := obs.New("diogenes")
	eng.SetObserver(o)
	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "list":
		err = List(stdout)
	case "run":
		err = RunCmd(stdout, eng, rest)
	case "analyze":
		err = Analyze(stdout, rest)
	case "replay":
		err = Replay(stdout, eng, rest)
	case "table1":
		err = Table1(stdout, eng, rest)
	case "table2":
		err = Table2(stdout, eng, rest)
	case "fleet":
		err = Fleet(stdout, eng, rest)
	case "overhead":
		err = Overhead(stdout, eng, rest)
	case "autofix":
		err = Autofix(stdout, eng, rest)
	case "verify":
		err = Verify(stdout, eng, rest)
	case "discover":
		err = Discover(stdout)
	case "timeline":
		err = Timeline(stdout, rest)
	case "serve":
		err = Serve(stdout, rest)
	case "verify-ledger":
		err = VerifyLedger(stdout, rest)
	case "version":
		err = Version(stdout)
	case "help", "-h", "--help":
		usage(stderr)
	default:
		fmt.Fprintf(stderr, "diogenes: unknown command %q\n", cmd)
		usage(stderr)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "diogenes: %v\n", err)
		var ec *ExitCodeError
		if errors.As(err, &ec) {
			return ec.Code
		}
		return 1
	}
	if code := exportObservations(stdout, stderr, o, *tracePath, *metricsPath); code != 0 {
		return code
	}
	return 0
}

// exportObservations writes the invocation's self-measurement through the
// global -trace/-metrics flags, the one way the tool exports it.
func exportObservations(stdout, stderr io.Writer, o *obs.Observer, tracePath, metricsPath string) int {
	if tracePath != "" {
		if err := writeFile(tracePath, o.Trace().Chrome().Write); err != nil {
			fmt.Fprintf(stderr, "diogenes: -trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "\npipeline span trace exported to %s\n", tracePath)
	}
	if metricsPath != "" {
		if err := writeFile(metricsPath, o.WriteSummary); err != nil {
			fmt.Fprintf(stderr, "diogenes: -metrics: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "self-measurement metrics exported to %s\n", metricsPath)
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprint(w, `Diogenes — feed-forward CPU/GPU performance measurement (SC '19 reproduction)

global flags (before the command):
  -parallel n               run experiment suites on n workers (0 = all
                            cores; default 1). Parallel runs produce output
                            byte-identical to serial runs: every pipeline
                            stage executes in its own simulated process on
                            its own virtual clock.
  -trace file               export a Chrome trace_event file of the
                            invocation's pipeline spans (Perfetto-loadable;
                            virtual-time, byte-identical for any -parallel)
  -metrics file             export the invocation's self-measurement
                            (span tree, overhead report, metrics) as text
  -cpuprofile file          write a pprof CPU profile of the tool itself
  -memprofile file          write a pprof heap profile of the tool itself
  -version                  print the build's version and exit

commands:
  list                      list the modelled applications and families
  run <app> [flags]         run the 5-stage FFM pipeline and show findings
      -scale f              workload scale (default 0.25)
      -family name          run a generative workload family instead of a
                            modelled app (see 'diogenes list')
      -seed n               family seed (default 1, with -family)
      -steps n              family length (default 80, with -family)
      -json file            export the analysis as JSON
      -report file          export the complete report as JSON — the input
                            the timeline explorer renders
      -records file         export the annotated trace (stage-4 records)
      -timeline file        export a chrome://tracing timeline
      -md file              export a Markdown findings report
      -sub from:to          refine the top sequence to entries [from,to]
  analyze <trace.json>      run stage 5 on a previously exported records file
  replay <trace.json>       re-drive the full pipeline from a captured trace;
                            the replayed analysis reproduces the original's
                            byte for byte
      -json file            export the replayed analysis as JSON
  fleet [app] [flags]       run the pipeline on every rank of an MPI app's
                            world and aggregate the findings across ranks
      -ranks n              world size (0 = the application's default)
      -scale f              workload scale (default 0.25)
      -json file            export the fleet report as JSON
  table1 [-scale f]         reproduce Table 1 (estimated vs actual benefit)
  table2 [app] [-scale f]   reproduce Table 2 (NVProf vs HPCToolkit vs Diogenes)
  overhead <app> [-scale f] show the §5.3 data-collection cost breakdown
  autofix <app> [-scale f]  plan, apply, and validate automatic corrections (§6)
  verify [-scale f]         apply automatic corrections to every app and
                            compare against the paper's manual fixes
  discover                  run the §3.1 sync-function identification test
  timeline <doc.json>       render the served timeline explorer offline from
                            a 'run -report', 'fleet -json' or 'run -records'
                            export (kind sniffed from the document)
      -o file               write the self-contained HTML here (default:
                            stdout)
      -model file           also export the raw timeline model JSON
  serve [flags]             run the pipeline as an HTTP analysis service
      -addr host:port       listen address (default 127.0.0.1:8377)
      -addr-file file       write the bound address here once listening
      -queue n              bounded job backlog; full means HTTP 429 (default 16)
      -workers n            concurrent jobs (0 = all cores)
      -engine-workers n     per-job experiment engine width (default 1)
      -store dir            persistent report store directory
      -store-budget n       store LRU byte budget (0 = unbounded)
      -ledger-batch n       provenance ledger Merkle batch size (1 = seal
                            every append; default 64)
      -ledger-flush d       provenance ledger flush interval (default 2s;
                            negative disables the timer)
      -cache-budget n       in-memory report cache budget in estimated
                            resident bytes (0 = unbounded)
      -timeout d            default per-job execution cap
      -drain d              graceful-shutdown drain budget (default 30s)
  verify-ledger <dir>       audit a store directory against its provenance
                            ledger: replay the chain, recompute every Merkle
                            root, re-hash every resident report. Exit 0 clean,
                            3 truncated (interrupted append, self-repairing),
                            4 tampered.
  version                   print the build's version and exit
`)
}

// List prints the modelled applications and the generative families.
func List(w io.Writer) error {
	fmt.Fprintln(w, "modelled applications:")
	for _, spec := range apps.Registry() {
		fmt.Fprintf(w, "  %-18s %s\n", spec.Name, spec.Description)
	}
	fmt.Fprintln(w, "\ngenerative families (run -family <name> -seed n):")
	for _, fam := range apps.Families() {
		fmt.Fprintf(w, "  %-18s %s\n", fam.Name, fam.Description)
	}
	return nil
}

// takeName splits a leading positional argument off args so flags may
// follow it (the flag package stops at the first non-flag argument).
func takeName(args []string) (string, []string) {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		return args[0], args[1:]
	}
	return "", args
}

func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// RunCmd executes the full pipeline on one application and renders the
// findings and optional exports.
func RunCmd(w io.Writer, eng *experiments.Engine, args []string) error {
	name, args := takeName(args)
	fs := newFlagSet("run")
	scale := fs.Float64("scale", 0.25, "workload scale")
	family := fs.String("family", "", "run a generative family instead of a modelled app")
	seed := fs.Uint64("seed", 1, "generative family seed (with -family)")
	steps := fs.Int("steps", 80, "generative family length (with -family)")
	jsonPath := fs.String("json", "", "export analysis JSON to file")
	reportPath := fs.String("report", "", "export the complete report JSON (timeline-explorer input) to file")
	recordsPath := fs.String("records", "", "export annotated trace records JSON to file")
	timelinePath := fs.String("timeline", "", "export a chrome://tracing timeline to file")
	mdPath := fs.String("md", "", "export a Markdown findings report to file")
	sub := fs.String("sub", "", "subsequence from:to of the top sequence")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if name != "" && *family != "" {
		return fmt.Errorf("run: give an application name or -family, not both")
	}
	if name == "" && *family == "" {
		return fmt.Errorf("run: application name or -family expected (see 'diogenes list')")
	}
	var rep *ffm.Report
	var err error
	if *family != "" {
		rep, err = eng.RunFamily(*family, *seed, *steps)
	} else {
		rep, err = eng.RunApp(name, *scale)
	}
	if err != nil {
		return err
	}
	a := rep.Analysis

	if err := report.Overview(w, a); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := report.Savings(w, a); err != nil {
		return err
	}
	fmt.Fprintln(w)

	seqs := a.StaticSequences()
	if len(seqs) > 0 {
		if err := report.Sequence(w, a, seqs[0]); err != nil {
			return err
		}
		fmt.Fprintln(w)
		if *sub != "" {
			var from, to int
			if _, err := fmt.Sscanf(*sub, "%d:%d", &from, &to); err != nil {
				return fmt.Errorf("run: -sub wants from:to, got %q", *sub)
			}
			s, err := a.SubsequenceBenefit(seqs[0], from, to)
			if err != nil {
				return err
			}
			if err := report.Subsequence(w, a, s); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	}

	folds := a.APIFolds()
	if len(folds) > 0 {
		if err := report.ExpandFold(w, a, folds[0]); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}

	if err := report.OverheadSummary(w, rep); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := report.OverlapSummary(w, rep.Overlap()); err != nil {
		return err
	}

	if *jsonPath != "" {
		if err := writeFile(*jsonPath, a.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nanalysis exported to %s\n", *jsonPath)
	}
	if *reportPath != "" {
		if err := writeFile(*reportPath, rep.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nreport exported to %s\n", *reportPath)
	}
	if *recordsPath != "" {
		if err := writeFile(*recordsPath, rep.Trace.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nannotated trace exported to %s\n", *recordsPath)
	}
	if *timelinePath != "" {
		tl := timeline.FromTrace(rep.Trace, rep.DeviceOps).Chrome()
		if err := writeFile(*timelinePath, tl.Write); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nchrome://tracing timeline exported to %s\n", *timelinePath)
	}
	if *mdPath != "" {
		if err := writeFile(*mdPath, func(f io.Writer) error {
			return report.WriteMarkdown(f, rep)
		}); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nMarkdown report exported to %s\n", *mdPath)
	}
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return write(f)
}

// Analyze re-runs stage 5 on a previously exported trace (§4's JSON
// interchange).
func Analyze(w io.Writer, args []string) error {
	path, args := takeName(args)
	fs := newFlagSet("analyze")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if path == "" {
		return fmt.Errorf("analyze: trace file expected")
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	run, err := trace.ReadJSON(f)
	if err != nil {
		return err
	}
	a := ffm.Analyze(run, ffm.DefaultAnalysisOptions())
	if err := report.Overview(w, a); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return report.Savings(w, a)
}

// Replay re-runs the full measurement pipeline on a previously captured
// trace (a `diogenes run -records` export): the trace is turned back into
// an executable application whose analysis reproduces the original's byte
// for byte. Unlike `analyze`, which re-runs only stage 5 on the recorded
// annotations, replay re-drives every collection stage.
func Replay(w io.Writer, eng *experiments.Engine, args []string) error {
	path, args := takeName(args)
	fs := newFlagSet("replay")
	jsonPath := fs.String("json", "", "export the replayed analysis as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if path == "" {
		return fmt.Errorf("replay: trace file expected (capture one with 'diogenes run <app> -records file.json')")
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	run, err := trace.ReadJSON(f)
	if err != nil {
		return err
	}
	rep, err := eng.Replay(run)
	if err != nil {
		return err
	}
	a := rep.Analysis
	if err := report.Overview(w, a); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if err := report.Savings(w, a); err != nil {
		return err
	}
	if seqs := a.StaticSequences(); len(seqs) > 0 {
		fmt.Fprintln(w)
		if err := report.Sequence(w, a, seqs[0]); err != nil {
			return err
		}
	}
	if folds := a.APIFolds(); len(folds) > 0 {
		fmt.Fprintln(w)
		if err := report.ExpandFold(w, a, folds[0]); err != nil {
			return err
		}
	}
	if *jsonPath != "" {
		if err := writeFile(*jsonPath, a.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nanalysis exported to %s\n", *jsonPath)
	}
	return nil
}

// Table1 regenerates Table 1.
func Table1(w io.Writer, eng *experiments.Engine, args []string) error {
	fs := newFlagSet("table1")
	scale := fs.Float64("scale", 0.25, "workload scale")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := eng.Table1(*scale)
	if err != nil {
		return err
	}
	return report.Table1(w, rows)
}

// Table2 regenerates Table 2 for the named applications (all by default).
func Table2(w io.Writer, eng *experiments.Engine, args []string) error {
	fs := newFlagSet("table2")
	scale := fs.Float64("scale", 0.25, "workload scale")
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := fs.Args()
	if len(names) == 0 {
		for _, spec := range apps.Registry() {
			names = append(names, spec.Name)
		}
	}
	sections, err := eng.Table2(*scale, names)
	if err != nil {
		return err
	}
	// One rendering path shared with the serve API keeps the outputs
	// byte-identical.
	return report.Table2Sections(w, names, sections)
}

// Fleet runs the all-ranks FFM pipeline on one MPI-modelled application
// and renders the aggregated fleet report. A partial report (contained rank
// failures) renders its DEGRADED section and still exits successfully —
// per-rank fault containment must never fail the launch.
func Fleet(w io.Writer, eng *experiments.Engine, args []string) error {
	name, args := takeName(args)
	fs := newFlagSet("fleet")
	ranks := fs.Int("ranks", 0, "world size (0 = the application's default)")
	scale := fs.Float64("scale", 0.25, "workload scale")
	jsonPath := fs.String("json", "", "export the fleet report as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if name == "" {
		return fmt.Errorf("fleet: application name expected (see 'diogenes list')")
	}
	fr, err := eng.Fleet(name, *scale, *ranks)
	if err != nil {
		return err
	}
	if err := report.FleetTable(w, fr); err != nil {
		return err
	}
	if *jsonPath != "" {
		if err := writeFile(*jsonPath, fr.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nfleet report exported to %s\n", *jsonPath)
	}
	return nil
}

// Overhead prints the §5.3 cost breakdown for one application.
func Overhead(w io.Writer, eng *experiments.Engine, args []string) error {
	name, args := takeName(args)
	fs := newFlagSet("overhead")
	scale := fs.Float64("scale", 0.25, "workload scale")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if name == "" {
		return fmt.Errorf("overhead: application name expected (see 'diogenes list')")
	}
	rep, err := eng.RunApp(name, *scale)
	if err != nil {
		return err
	}
	return report.OverheadSummary(w, rep)
}

// Autofix plans, applies and validates automatic corrections on one
// application.
func Autofix(w io.Writer, eng *experiments.Engine, args []string) error {
	name, args := takeName(args)
	fs := newFlagSet("autofix")
	scale := fs.Float64("scale", 0.25, "workload scale")
	noGuard := fs.Bool("no-guard", false, "skip the mprotect correctness guard")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if name == "" {
		return fmt.Errorf("autofix: application name expected (see 'diogenes list')")
	}
	spec, err := apps.ByName(name)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "Running the FFM pipeline on %s ...\n", name)
	rep, err := eng.RunApp(name, *scale)
	if err != nil {
		return err
	}
	opts := autofix.DefaultOptions()
	opts.Guard = !*noGuard
	plan := autofix.BuildPlan(rep.Analysis)

	view := report.PlanView{App: plan.App, Estimated: plan.Estimated, Skipped: plan.Skipped}
	for _, a := range plan.Actions {
		view.Actions = append(view.Actions, report.PlanAction{
			Kind: a.Kind.String(), Label: a.Label, Estimated: a.Estimated, Count: a.Count,
		})
	}
	if err := report.AutofixPlan(w, view); err != nil {
		return err
	}

	fmt.Fprintln(w, "\nApplying the plan (call-site elision) and re-running ...")
	// Every process of an MPI launch gets the plan, and the pipeline's
	// reference run is the unpatched runtime.
	v, err := autofix.ApplyWith(func(f proc.Factory) proc.App {
		return spec.Build(*scale, apps.Original, f)
	}, spec.Factory(), rep.UninstrumentedTime, plan, opts)
	if err != nil {
		return err
	}
	if !v.Valid {
		fmt.Fprintf(w, "FIX REJECTED by the correctness guard:\n  %s\n", v.GuardViolation)
		return nil
	}
	fmt.Fprintf(w, "  original run:   %8.3fs\n", v.OriginalTime.Seconds())
	fmt.Fprintf(w, "  patched run:    %8.3fs\n", v.PatchedTime.Seconds())
	fmt.Fprintf(w, "  realized:       %8.3fs (%.2f%%; estimated %.2f%%)\n",
		v.Realized.Seconds(), v.RealizedPct, v.EstimatedPct)
	fmt.Fprintf(w, "  calls elided:   %d   transfer sources guarded: %d\n",
		v.SuppressedCalls, v.GuardedRanges)
	return nil
}

// Verify applies the automatic correction to every modelled application and
// prints the realized benefit next to the paper's manual fix.
func Verify(w io.Writer, eng *experiments.Engine, args []string) error {
	fs := newFlagSet("verify")
	scale := fs.Float64("scale", 0.1, "workload scale")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := autofix.TableWith(eng, *scale)
	if err != nil {
		return err
	}
	// One rendering path shared with the serve API keeps the outputs
	// byte-identical.
	return report.AutofixTable(w, rows)
}

// Discover runs the §3.1 identification test and reports the funnel.
func Discover(w io.Writer) error {
	factory := apps.Must("rodinia_gaussian").Factory()
	fn, err := interpose.Discover(func() *cuda.Context { return factory.New().Ctx })
	if err != nil {
		return err
	}
	var names []string
	for _, f := range cuda.InternalFuncs {
		names = append(names, string(f))
	}
	fmt.Fprintf(w, "candidate internal functions: %s\n", strings.Join(names, ", "))
	fmt.Fprintf(w, "identified synchronization funnel: %s\n", fn)
	fmt.Fprintln(w, "(found by launching a never-completing kernel and observing where known synchronous calls park the CPU)")
	return nil
}
