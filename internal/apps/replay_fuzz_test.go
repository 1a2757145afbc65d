package apps_test

import (
	"bytes"
	"strings"
	"testing"

	"diogenes/internal/apps"
	"diogenes/internal/ffm"
	"diogenes/internal/proc"
	"diogenes/internal/trace"
)

// FuzzReplay is the replay robustness contract: any trace document the
// strict reader accepts must replay without panicking. Returning an error
// (unknown function, oversized transfer, inconsistent timing) is fine —
// crashing the tool on a hand-edited or corrupted capture is not.
func FuzzReplay(f *testing.F) {
	// Seed with real captures: a modelled app and two generative families
	// exercise every record kind the replayer classifies.
	addCapture := func(app proc.App, factory proc.Factory) {
		cfg := ffm.DefaultConfig()
		cfg.Factory = factory
		rep, err := ffm.Run(app, cfg)
		if err != nil {
			f.Fatalf("seed capture: %v", err)
		}
		var doc bytes.Buffer
		if err := rep.Trace.WriteJSON(&doc); err != nil {
			f.Fatalf("seed export: %v", err)
		}
		f.Add(doc.String())
	}
	gaussian := apps.Must("rodinia_gaussian")
	addCapture(gaussian.Build(0.02, apps.Original, gaussian.Factory()), gaussian.Factory())
	for _, name := range []string{"multi-stream", "thrust-churn"} {
		fam, err := apps.FamilyByName(name)
		if err != nil {
			f.Fatal(err)
		}
		addCapture(fam.New(1, 10, proc.DefaultFactory()), proc.DefaultFactory())
	}
	// Hand-written corner cases: empty run, unknown function, zero-byte
	// copy, wait shorter than its own transfer, access without a site.
	f.Add(`{"app":"x","execTime":1000}`)
	f.Add(`{"app":"x","execTime":1000,"records":[{"seq":1,"func":"cudaBogus","class":"sync","entry":10,"exit":20}]}`)
	f.Add(`{"app":"x","execTime":1000,"records":[{"seq":1,"func":"cudaMemcpy","class":"transfer","dir":"HtoD","entry":10,"exit":20}]}`)
	f.Add(`{"app":"x","execTime":9000,"records":[{"seq":1,"func":"cudaMemcpy","class":"transfer","dir":"DtoH","bytes":4096,"entry":10,"exit":5000,"syncWait":1,"protectedAccess":true,"firstUse":100}]}`)
	f.Add(`{"app":"x","execTime":500,"records":[{"seq":1,"func":"cudaDeviceSynchronize","class":"sync","entry":400,"exit":450,"syncWait":40,"stack":[{"function":"a","file":"f.c","line":1},{"function":"b","file":"f.c","line":2}]}]}`)

	f.Fuzz(func(t *testing.T, input string) {
		run, err := trace.ReadJSON(strings.NewReader(input))
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		p := proc.DefaultFactory().New()
		// SafeRun converts simulated deadlocks to errors; any other panic
		// propagates and fails the fuzz run.
		_ = proc.SafeRun(&apps.ReplayApp{Trace: run}, p)
	})
}
