package transport

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// LatencyModel decides the one-way delay of each simulated message.
// Implementations must be safe for concurrent use.
type LatencyModel interface {
	Delay(from, to Addr) time.Duration
}

// ConstantLatency delays every message by the same amount. Zero is valid
// and makes the network instantaneous (useful in unit tests).
type ConstantLatency time.Duration

// Delay implements LatencyModel.
func (c ConstantLatency) Delay(from, to Addr) time.Duration { return time.Duration(c) }

// LogNormalLatency models heavy-tailed WAN delays: most messages arrive
// around Median, a few take much longer. Sigma controls the tail weight
// (0.5 is a reasonable internet-like value).
type LogNormalLatency struct {
	Median time.Duration
	Sigma  float64

	mu  sync.Mutex
	rng *rand.Rand
}

// NewLogNormalLatency returns a deterministic heavy-tailed model.
func NewLogNormalLatency(median time.Duration, sigma float64, seed int64) *LogNormalLatency {
	return &LogNormalLatency{Median: median, Sigma: sigma, rng: rand.New(rand.NewSource(seed))}
}

// Delay implements LatencyModel.
func (l *LogNormalLatency) Delay(from, to Addr) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	f := math.Exp(l.rng.NormFloat64() * l.Sigma)
	d := time.Duration(float64(l.Median) * f)
	if d < 0 {
		d = 0
	}
	return d
}
