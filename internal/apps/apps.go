package apps

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"diogenes/internal/mpi"
	"diogenes/internal/proc"
	"diogenes/internal/simtime"
)

// Variant selects the original (problematic) or fixed build of an
// application.
type Variant int

// Variants.
const (
	Original Variant = iota
	Fixed
)

// String names the variant.
func (v Variant) String() string {
	if v == Fixed {
		return "fixed"
	}
	return "original"
}

// Spec describes one modelled application.
type Spec struct {
	Name        string
	Description string
	// New builds the application at the given scale (1.0 = default
	// iteration counts; tests use small fractions).
	New func(scale float64, v Variant) proc.App
	// NewWith builds the application over an explicit process factory.
	// Multi-process applications (the MPI ones) spawn their other ranks
	// from it, so a factory carrying a Prepare hook reaches every rank.
	// Nil means the app is single-process and New suffices.
	NewWith func(scale float64, v Variant, f proc.Factory) proc.App
	// Factory returns the process configuration the application is
	// measured on (device bandwidths and driver costs are per-machine).
	Factory func() proc.Factory
	// MPI describes the multi-rank launch for applications modelled as
	// MPI programs; nil means the application is single-process and fleet
	// analysis does not apply.
	MPI *MPISpec
}

// MPISpec is the multi-rank launch description of an MPI-modelled
// application: how large a world it runs in by default, what its
// collectives cost, and how to build one fresh rank program.
type MPISpec struct {
	// DefaultRanks is the world size used when the caller does not pick
	// one (the size the registry's observed-rank app also runs at).
	DefaultRanks int
	// BarrierLatency is the per-superstep collective cost.
	BarrierLatency simtime.Duration
	// Program builds a fresh instance of the rank program at the given
	// scale. Each call must return an independent value: fleet analysis
	// runs one per rank pipeline concurrently.
	Program func(scale float64, v Variant) mpi.RankProgram
}

// Build constructs the application over the given factory, using NewWith
// when the application is factory-aware and New otherwise.
func (s Spec) Build(scale float64, v Variant, f proc.Factory) proc.App {
	if s.NewWith != nil {
		return s.NewWith(scale, v, f)
	}
	return s.New(scale, v)
}

var registry []Spec

func register(s Spec) { registry = append(registry, s) }

// Registry returns all modelled applications in Table 1 order.
func Registry() []Spec {
	out := make([]Spec, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return order(out[i].Name) < order(out[j].Name) })
	return out
}

func order(name string) int {
	for i, n := range []string{"cumf_als", "cuibm", "amg", "rodinia_gaussian"} {
		if n == name {
			return i
		}
	}
	return 99
}

// Must returns the named application spec, panicking if it is unknown.
// Intended for benchmarks and examples with hard-coded names.
func Must(name string) Spec {
	s, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return s
}

// FactoryFor returns the registered machine configuration for an
// application name as it appears in a captured trace. MPI rank suffixes
// ("amg@rank0/2") are stripped before the lookup. ok is false for names
// with no registered spec (generative families, external traces) — replay
// then runs on the default machine, which is what produced those traces.
func FactoryFor(name string) (proc.Factory, bool) {
	if i := strings.IndexByte(name, '@'); i >= 0 {
		name = name[:i]
	}
	for _, s := range registry {
		if s.Name == name {
			return s.Factory(), true
		}
	}
	return proc.Factory{}, false
}

// ByName looks up an application spec.
func ByName(name string) (Spec, error) {
	for _, s := range registry {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("apps: unknown application %q", name)
}

// Checksummer is implemented by applications that record a digest of their
// computed results; tests use it to verify that a Fixed variant computes
// exactly what the Original did (the paper's correctness requirement for
// every applied fix, §5.1).
type Checksummer interface {
	// FinalState returns a digest of the application's results after a
	// Run in a process that keeps content (proc.Content), or "" if no such
	// Run has completed.
	FinalState() string
}

// checksum is the synchronized result-digest cell the modelled applications
// record their FinalState into. A parallel FFM run executes the same App
// value concurrently from several collection stages (each in its own
// process); the digest every content-keeping run computes is identical, but
// under the Go memory model the concurrent writes still need
// synchronization. Timing-only runs have no results and leave the cell
// alone.
type checksum struct {
	mu sync.Mutex
	v  string
}

func (c *checksum) set(v string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.v = v
}

func (c *checksum) get() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.v
}

// scaled returns max(1, round(n*scale)).
func scaled(n int, scale float64) int {
	v := int(float64(n)*scale + 0.5)
	if v < 1 {
		return 1
	}
	return v
}
