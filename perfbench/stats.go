package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie beyond a reported tail.
const tailBeyond = 10

// tail returns the highest percentile that still has tailBeyond samples
// beyond it: the (n-tailBeyond)-th smallest of n samples, with the
// percentile it sits at. ok is false with too few samples for any tail.
func tail(xs []float64) (value, percentile float64, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return 0, 0, false
	}
	s := sorted(xs)
	return s[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n), true
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writtenBytes reads the process's cumulative write(2) byte count from
// /proc/self/io; 0 where that file does not exist.
func writtenBytes() int64 {
	raw, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "wchar:"); ok {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics keeps values in insertion order for the human-readable lines.
// Values set with info are printed but left out of the JSON result.
type metrics struct {
	names []string
	vals  map[string]metric
	info  map[string]metric
	notes map[string]string
}

func newMetrics() *metrics {
	return &metrics{vals: map[string]metric{}, info: map[string]metric{}, notes: map[string]string{}}
}

func (m *metrics) set(name, unit string, v float64) {
	m.names = append(m.names, name)
	m.vals[name] = metric{Value: v, Unit: unit}
}

// setInfo records a value for the human-readable lines only.
func (m *metrics) setInfo(name, unit string, v float64) {
	m.names = append(m.names, name)
	m.info[name] = metric{Value: v, Unit: unit}
}

// get returns a value set either way.
func (m *metrics) get(name string) metric {
	if v, ok := m.vals[name]; ok {
		return v
	}
	return m.info[name]
}

// setTail records a tail value with its percentile and sample count.
func (m *metrics) setTail(name, unit string, xs []float64, set func(name, unit string, v float64)) {
	v, p, ok := tail(xs)
	set(name, unit, v)
	if ok {
		m.notes[name] = fmt.Sprintf("p%.6g of %d samples", p, len(xs))
	} else {
		m.notes[name] = fmt.Sprintf("no tail: %d samples", len(xs))
	}
}
