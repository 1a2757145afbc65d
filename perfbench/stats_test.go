package main

import (
	"errors"
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: chooseTail must sort
	}
	return xs
}

func TestChooseTail(t *testing.T) {
	for _, tc := range []struct {
		n          int
		ok         bool
		percentile int
		value      float64
		beyond     int
	}{
		{n: 0, ok: false},
		{n: 19, ok: false}, // the median leaves only 9 beyond it
		{n: 20, ok: true, percentile: 50, value: 10, beyond: 10},
		{n: 33, ok: true, percentile: 69, value: 23, beyond: 10},
		{n: 100, ok: true, percentile: 90, value: 90, beyond: 10},
		{n: 1000, ok: true, percentile: 99, value: 990, beyond: 10},
		{n: 5000, ok: true, percentile: 99, value: 4950, beyond: 50},
	} {
		got, ok := chooseTail(seq(tc.n))
		if ok != tc.ok {
			t.Errorf("n=%d: ok=%v, want %v", tc.n, ok, tc.ok)
			continue
		}
		if got.Samples != tc.n {
			t.Errorf("n=%d: samples %d", tc.n, got.Samples)
		}
		if !ok {
			continue
		}
		if got.Percentile != tc.percentile || got.Value != tc.value || got.Beyond != tc.beyond {
			t.Errorf("n=%d: got p%d=%v with %d beyond, want p%d=%v with %d beyond",
				tc.n, got.Percentile, got.Value, got.Beyond, tc.percentile, tc.value, tc.beyond)
		}
		if got.Beyond < minTailBeyond {
			t.Errorf("n=%d: only %d samples beyond the tail", tc.n, got.Beyond)
		}
	}
}

func TestChooseTailIsHighestQualifying(t *testing.T) {
	for n := 20; n <= 400; n++ {
		tl, ok := chooseTail(seq(n))
		if !ok {
			t.Fatalf("n=%d: no tail", n)
		}
		if tl.Percentile < 99 && n-nearestRank(tl.Percentile+1, n) >= minTailBeyond {
			t.Fatalf("n=%d: p%d also has %d beyond, higher than chosen p%d",
				n, tl.Percentile+1, n-nearestRank(tl.Percentile+1, n), tl.Percentile)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median %v", got)
	}
}

func TestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n, p int
		want float64
	}{
		{n: 0, p: 10, want: 0},
		{n: 5, p: 10, want: 1}, // fewer than ten samples: the smallest
		{n: 10, p: 10, want: 1},
		{n: 11, p: 10, want: 2},
		{n: 100, p: 10, want: 10},
		{n: 100, p: 50, want: 50},
	} {
		if got := percentile(seq(tc.n), tc.p); got != tc.want {
			t.Errorf("p%d of 1..%d = %v, want %v", tc.p, tc.n, got, tc.want)
		}
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		status int
		err    error
		want   outcome
	}{
		{200, nil, outcomeOK},
		{202, nil, outcomeOK},
		{429, nil, outcomeRefused},
		{503, nil, outcomeRefused},
		{500, nil, outcomeServerErr},
		{502, nil, outcomeServerErr},
		{404, nil, outcomeClientErr},
		{200, errors.New("connection reset"), outcomeTransport},
	} {
		if got := classify(tc.status, tc.err); got != tc.want {
			t.Errorf("classify(%d, %v) = %v, want %v", tc.status, tc.err, got, tc.want)
		}
	}
}

func TestFailedFrac(t *testing.T) {
	var tl tally
	if tl.failedFrac() != 0 {
		t.Fatal("no attempts must give 0, not NaN")
	}
	for _, o := range []outcome{
		outcomeOK, outcomeOK, outcomeOK, outcomeOK, outcomeOK, outcomeOK,
		outcomeRefused, outcomeServerErr, outcomeTransport, outcomeFailed,
	} {
		tl.add(o)
	}
	if tl.Attempted != 10 || tl.failures() != 4 {
		t.Fatalf("attempted %d failures %d, want 10 and 4", tl.Attempted, tl.failures())
	}
	if got := tl.failedFrac(); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("failed_frac %v, want 0.4: a refusal counts as a failure", got)
	}
	if tl.Refused != 1 || tl.ServerErr != 1 || tl.Transport != 1 || tl.Failed != 1 || tl.ClientErr != 0 {
		t.Fatalf("per-class counts wrong: %+v", tl)
	}
}
