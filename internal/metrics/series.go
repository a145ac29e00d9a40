package metrics

import (
	"fmt"

	"tcppr/internal/sim"
)

// Point is one time-series sample on the virtual clock.
type Point struct {
	T sim.Time `json:"t"`
	V float64  `json:"v"`
}

// Series is a preallocated ring buffer of samples. When the buffer is
// full the oldest point is overwritten, so a series always holds the most
// recent capacity samples; Dropped counts the overwrites. Appends never
// allocate after construction, keeping the sampler's per-tick cost flat.
type Series struct {
	name string
	buf  []Point
	head int // index of the oldest point
	n    int // number of valid points
	drop uint64
}

// NewSeries returns a series with room for capacity points.
func NewSeries(name string, capacity int) *Series {
	if capacity <= 0 {
		panic(fmt.Sprintf("metrics: series %q needs positive capacity, got %d", name, capacity))
	}
	return &Series{name: name, buf: make([]Point, capacity)}
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Len returns the number of retained points.
func (s *Series) Len() int { return s.n }

// Dropped returns how many old points were overwritten.
func (s *Series) Dropped() uint64 { return s.drop }

// Append records one sample, evicting the oldest when full.
func (s *Series) Append(t sim.Time, v float64) {
	if s.n == len(s.buf) {
		s.buf[s.head] = Point{T: t, V: v}
		s.head = (s.head + 1) % len(s.buf)
		s.drop++
		return
	}
	s.buf[(s.head+s.n)%len(s.buf)] = Point{T: t, V: v}
	s.n++
}

// At returns the i-th retained point in time order (0 is the oldest).
func (s *Series) At(i int) Point {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("metrics: series %q index %d out of range [0,%d)", s.name, i, s.n))
	}
	return s.buf[(s.head+i)%len(s.buf)]
}
