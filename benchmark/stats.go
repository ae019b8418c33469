package main

import (
	"sort"
	"time"
)

// samples keeps every observed duration so percentiles are exact.
type samples struct {
	ns []int64
}

func (s *samples) add(d time.Duration) { s.ns = append(s.ns, int64(d)) }

func (s *samples) n() int { return len(s.ns) }

// merge appends o's samples.
func (s *samples) merge(o *samples) { s.ns = append(s.ns, o.ns...) }

// quantile returns the q-quantile (nearest rank) in nanoseconds, or 0
// with no samples. It sorts in place.
func (s *samples) quantile(q float64) float64 {
	if len(s.ns) == 0 {
		return 0
	}
	sort.Slice(s.ns, func(i, j int) bool { return s.ns[i] < s.ns[j] })
	i := int(q * float64(len(s.ns)))
	if i >= len(s.ns) {
		i = len(s.ns) - 1
	}
	return float64(s.ns[i])
}

// us and ms convert quantiles for reporting.
func (s *samples) us(q float64) float64 { return s.quantile(q) / 1e3 }
func (s *samples) ms(q float64) float64 { return s.quantile(q) / 1e6 }
