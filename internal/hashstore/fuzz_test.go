package hashstore

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"diogenes/internal/memory"
	"diogenes/internal/obs"
)

// FuzzHashTiers proves the memoized store classifies duplicate/unique
// exactly like plain sha256.Sum256 over a sequence of payloads read from
// simulated memory, and that every returned digest matches the eager one.
// The sequence mixes fresh sources, re-reads of an unchanged source (the
// dense memo), rewrites of one source with the same bytes and with
// different bytes (the version must defeat the memo), uniform payloads of
// a filled region (the uniform memo), dense copies of those bytes, and
// empty payloads.
func FuzzHashTiers(f *testing.F) {
	f.Add([]byte(""), []byte("a"), []byte("a"), byte(0))
	f.Add([]byte("x"), []byte("x"), []byte("y"), byte(0))
	f.Add([]byte{0, 0, 0, 0}, []byte{0, 0, 0}, []byte{0, 0, 0, 0}, byte(0))
	f.Add(bytes.Repeat([]byte("ab"), 64), bytes.Repeat([]byte("ab"), 64), []byte("ab"), byte(0))
	f.Add([]byte{7, 7, 7}, []byte{7, 7}, []byte{1, 2, 3}, byte(7))
	f.Add([]byte("same"), []byte("diff"), bytes.Repeat([]byte{0xff}, 5000), byte(0xff))
	f.Fuzz(func(t *testing.T, a, b, c []byte, fill byte) {
		sp := memory.NewSpace()
		alloc := func(n int) *memory.Region { return sp.Alloc(max(n, 1), "payload") }
		poke := func(r *memory.Region, p []byte) {
			if err := sp.Poke(r.Base(), p); err != nil {
				t.Fatal(err)
			}
		}
		fresh := func(p []byte) *memory.Region {
			r := alloc(len(p))
			poke(r, p)
			return r
		}
		shared := alloc(max(len(a), len(b)))
		uniform := alloc(len(c))
		ra := fresh(a)
		// Each step may write, then names the range the transfer reads and
		// whether a memo must answer for it.
		type read struct {
			r    *memory.Region
			n    int
			memo bool
		}
		steps := []func() read{
			func() read { return read{ra, len(a), false} },
			func() read { return read{ra, len(a), true} },
			func() read { return read{fresh(b), len(b), false} },
			func() read { poke(shared, a); return read{shared, len(a), false} },
			func() read { return read{shared, len(a), true} },
			func() read { poke(shared, a); return read{shared, len(a), false} },
			func() read { poke(shared, b); return read{shared, len(b), false} },
			func() read { return read{uniform, len(c), false} },
			func() read { return read{uniform, len(c), true} },
			func() read {
				if err := sp.Fill(uniform.Base(), fill, uniform.Size()); err != nil {
					t.Fatal(err)
				}
				return read{uniform, len(c), false}
			},
			func() read { return read{uniform, len(c) / 2, false} },
			func() read { return read{fresh(bytes.Repeat([]byte{fill}, len(c))), len(c), false} },
			func() read { return read{fresh(c), len(c), false} },
			func() read { return read{ra, 0, false} },
			func() read { return read{uniform, 0, false} },
			func() read { return read{ra, len(a), true} },
		}
		reg := obs.NewRegistry()
		tiered := New()
		tiered.SetMetrics(reg)
		avoided := reg.Counter("hashstore/sha256_avoided")
		eager := map[[sha256.Size]byte]int64{} // digest -> first seq
		for i, step := range steps {
			seq := int64(i + 1)
			rd := step()
			v, err := sp.View(rd.r.Base(), rd.n)
			if err != nil {
				t.Fatal(err)
			}
			p, err := sp.Peek(rd.r.Base(), rd.n)
			if err != nil {
				t.Fatal(err)
			}
			wasUniform := v.Uniform()
			before := avoided.Value()
			dup, first, hash := tiered.Insert(v, seq)
			if rd.memo && avoided.Value() != before+1 {
				t.Fatalf("step %d: a re-read of an unchanged source computed a sha256", i)
			}
			if v, _ := sp.View(rd.r.Base(), rd.n); v.Uniform() != wasUniform {
				t.Fatalf("step %d: hashing changed the source's representation", i)
			}

			sum := sha256.Sum256(p)
			wantFirst, wantDup := eager[sum]
			if !wantDup {
				eager[sum] = seq
				wantFirst = seq
			}
			if dup != wantDup {
				t.Fatalf("step %d (%q): tiered dup=%v, sha256 says %v", i, p, dup, wantDup)
			}
			if first != wantFirst {
				t.Fatalf("step %d: tiered firstSeq=%d, sha256 says %d", i, first, wantFirst)
			}
			if want := Key(sum).String(); hash != want {
				t.Fatalf("step %d: short hex %q != %q", i, hash, want)
			}
		}
		if tiered.Len() != len(eager) {
			t.Fatalf("tiered distinct=%d, sha256 distinct=%d", tiered.Len(), len(eager))
		}
		if tiered.Duplicates() != int64(len(steps)-len(eager)) {
			t.Fatalf("tiered duplicates=%d, sha256 says %d", tiered.Duplicates(), len(steps)-len(eager))
		}
		if computed := reg.Counter("hashstore/sha256_computed").Value(); computed+avoided.Value() != int64(len(steps)) {
			t.Fatalf("sha256_computed %d + sha256_avoided %d != %d inserts", computed, avoided.Value(), len(steps))
		}
	})
}
