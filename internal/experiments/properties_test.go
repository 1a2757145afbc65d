// The property suite: every generative family × many seeds, four
// invariants per scenario. Three (determinism, benefit bound, replay
// fidelity) live in CheckInvariants; the fourth — autofix soundness — is
// asserted here, in the external test package, because autofix imports
// experiments.
//
// Seed count is controlled by DIOGENES_PROPERTY_SEEDS (default 5 for local
// runs; CI sets 200+).
package experiments_test

import (
	"os"
	"strconv"
	"testing"

	"diogenes/internal/apps"
	"diogenes/internal/autofix"
	"diogenes/internal/experiments"
	"diogenes/internal/proc"
)

// propertySteps keeps one scenario cheap enough that hundreds of seeds per
// family stay within a CI budget while still covering multi-epoch loops.
const propertySteps = 20

func propertySeeds(t *testing.T) uint64 {
	t.Helper()
	env := os.Getenv("DIOGENES_PROPERTY_SEEDS")
	if env == "" {
		return 5
	}
	n, err := strconv.ParseUint(env, 10, 32)
	if err != nil || n == 0 {
		t.Fatalf("invalid DIOGENES_PROPERTY_SEEDS=%q: %v", env, err)
	}
	return n
}

// TestPropertyInvariants is the harness entry point: for every family and
// seed it checks that the pipeline is deterministic, that promised benefit
// never exceeds measured synchronization wait, that replaying the captured
// trace reproduces the analysis byte for byte, and that an autofix-patched
// variant realizes non-negative benefit (never runs slower than baseline).
func TestPropertyInvariants(t *testing.T) {
	seeds := propertySeeds(t)
	for _, fam := range apps.Families() {
		fam := fam
		t.Run(fam.Name, func(t *testing.T) {
			t.Parallel()
			eng := &experiments.Engine{Workers: 1}
			planned := 0
			for seed := uint64(1); seed <= seeds; seed++ {
				s := experiments.Scenario{Family: fam.Name, Seed: seed, Steps: propertySteps}
				rep, err := eng.CheckInvariants(s)
				if err != nil {
					t.Fatal(err)
				}

				// Invariant 4: autofix soundness. A patched run must never
				// be slower than its own unpatched baseline, and a tripped
				// correctness guard must invalidate the fix, not panic.
				plan := autofix.BuildPlan(rep.Analysis)
				if len(plan.Actions) == 0 {
					continue
				}
				planned++
				build := func(f proc.Factory) proc.App {
					return fam.New(s.Seed, s.Steps, f)
				}
				p0 := proc.DefaultFactory().New()
				if err := proc.SafeRun(build(proc.DefaultFactory()), p0); err != nil {
					t.Fatalf("%s: unpatched run: %v", s, err)
				}
				v, err := autofix.ApplyWith(build, proc.DefaultFactory(), p0.ExecTime(), plan, autofix.DefaultOptions())
				if err != nil {
					t.Fatalf("%s: autofix apply: %v", s, err)
				}
				if !v.Valid {
					if v.GuardViolation == "" {
						t.Fatalf("%s: invalid autofix validation without a guard violation", s)
					}
					continue // guard rejected the fix: sound, just not profitable
				}
				if v.Realized < 0 {
					t.Errorf("%s: autofix made the app slower: original %v, patched %v",
						s, v.OriginalTime, v.PatchedTime)
				}
			}
			t.Logf("%s: %d/%d scenarios produced autofix plans", fam.Name, planned, seeds)
		})
	}
}

// TestCheckInvariantsRejectsUnknownFamily covers the harness error path.
func TestCheckInvariantsRejectsUnknownFamily(t *testing.T) {
	s := experiments.Scenario{Family: "no-such-family", Seed: 1, Steps: 5}
	if _, err := (&experiments.Engine{Workers: 1}).CheckInvariants(s); err == nil {
		t.Fatal("unknown family accepted")
	}
}
