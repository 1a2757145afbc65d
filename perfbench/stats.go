package main

import (
	"math"
	"sort"
	"time"
)

// minTailBeyond is how many samples must lie beyond the reported tail
// percentile; a percentile with fewer samples past it is a single outlier,
// not a tail.
const minTailBeyond = 10

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample (the mean of the two middle samples
// for an even count). It is 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile of xs under the nearest-rank
// definition: with fewer than 100/p samples it is the smallest. It is 0
// for no samples.
func percentile(xs []float64, p int) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sortedCopy(xs)[nearestRank(p, len(xs))-1]
}

// nearestRank returns the number of samples at or below the p-th
// percentile of n samples under the nearest-rank definition.
func nearestRank(p, n int) int {
	k := int(math.Ceil(float64(p) * float64(n) / 100))
	if k < 1 {
		k = 1
	}
	return k
}

// tail is the highest whole percentile of a sample set that still has at
// least minTailBeyond samples beyond it, reported with its value and both
// counts.
type tail struct {
	Percentile int
	Value      float64
	Samples    int // samples in the set
	Beyond     int // samples strictly beyond the percentile's rank
}

// chooseTail picks the tail percentile of xs: the highest p in [50, 99]
// whose nearest rank leaves at least minTailBeyond samples beyond it. ok
// is false when even the median has fewer than that many beyond it.
func chooseTail(xs []float64) (t tail, ok bool) {
	s := sortedCopy(xs)
	n := len(s)
	for p := 99; p >= 50; p-- {
		k := nearestRank(p, n)
		if n-k >= minTailBeyond {
			return tail{Percentile: p, Value: s[k-1], Samples: n, Beyond: n - k}, true
		}
	}
	return tail{Samples: n}, false
}

// outcome classifies one attempted operation.
type outcome int

const (
	outcomeOK        outcome = iota
	outcomeRefused           // 429 or 503: the server turned the request away
	outcomeServerErr         // any other 5xx
	outcomeClientErr         // a 4xx the benchmark did not expect
	outcomeTransport         // no HTTP answer at all
	outcomeFailed            // the operation answered but its job failed
)

// classify maps an HTTP exchange to an outcome. err is the transport
// error, if any; status is ignored when err is set.
func classify(status int, err error) outcome {
	switch {
	case err != nil:
		return outcomeTransport
	case status == 429 || status == 503:
		return outcomeRefused
	case status >= 500:
		return outcomeServerErr
	case status >= 400:
		return outcomeClientErr
	}
	return outcomeOK
}

// tally counts attempted operations and how each one that did not succeed
// failed. failedFrac is their share of the attempts.
type tally struct {
	Attempted int
	Refused   int
	ServerErr int
	ClientErr int
	Transport int
	Failed    int
}

func (t *tally) add(o outcome) {
	t.Attempted++
	switch o {
	case outcomeRefused:
		t.Refused++
	case outcomeServerErr:
		t.ServerErr++
	case outcomeClientErr:
		t.ClientErr++
	case outcomeTransport:
		t.Transport++
	case outcomeFailed:
		t.Failed++
	}
}

// failures is every attempt that did not succeed: refusals count as
// failures, because a refused request misses any latency limit.
func (t tally) failures() int {
	return t.Refused + t.ServerErr + t.ClientErr + t.Transport + t.Failed
}

func (t tally) failedFrac() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.failures()) / float64(t.Attempted)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func secs(d time.Duration) float64 { return d.Seconds() }
