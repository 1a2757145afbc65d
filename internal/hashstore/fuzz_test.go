package hashstore

import (
	"bytes"
	"crypto/sha256"
	"testing"
)

// FuzzHashTiers proves the tiered prefilter+witness path classifies
// duplicate/unique exactly like plain sha256.Sum256 over a sequence of
// arbitrary payloads, including empty ones, and that every returned digest
// matches the eager one.
func FuzzHashTiers(f *testing.F) {
	f.Add([]byte(""), []byte("a"), []byte("a"))
	f.Add([]byte("x"), []byte("x"), []byte("y"))
	f.Add([]byte{0, 0, 0, 0}, []byte{0, 0, 0}, []byte{0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte("ab"), 64), bytes.Repeat([]byte("ab"), 64), []byte("ab"))
	f.Fuzz(func(t *testing.T, a, b, c []byte) {
		payloads := [][]byte{a, b, c, a, c, nil}
		tiered := New()
		eager := map[[sha256.Size]byte]int64{} // digest -> first seq
		for i, p := range payloads {
			seq := int64(i + 1)
			dup, first, hash := tiered.Insert(p, seq)

			sum := sha256.Sum256(p)
			wantFirst, wantDup := eager[sum]
			if !wantDup {
				eager[sum] = seq
				wantFirst = seq
			}

			if dup != wantDup {
				t.Fatalf("payload %d (%q): tiered dup=%v, sha256 says %v", i, p, dup, wantDup)
			}
			if first != wantFirst {
				t.Fatalf("payload %d: tiered firstSeq=%d, sha256 says %d", i, first, wantFirst)
			}
			if want := Key(sum).String(); hash != want {
				t.Fatalf("payload %d: short hex %q != %q", i, hash, want)
			}
		}
		if tiered.Len() != len(eager) {
			t.Fatalf("tiered distinct=%d, sha256 distinct=%d", tiered.Len(), len(eager))
		}
		if tiered.Duplicates() != int64(len(payloads)-len(eager)) {
			t.Fatalf("tiered duplicates=%d, sha256 says %d", tiered.Duplicates(), len(payloads)-len(eager))
		}
	})
}
