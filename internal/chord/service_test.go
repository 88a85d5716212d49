package chord

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p2pltr/internal/ids"
	"p2pltr/internal/msg"
	"p2pltr/internal/transport"
	"p2pltr/internal/vclock"
)

// recorderService counts exports/imports; it handles no RPCs.
type recorderService struct {
	name     string
	mu       sync.Mutex
	items    []msg.StateItem
	exports  atomic.Int64
	imported atomic.Int64
}

func newRecorderService(name string) *recorderService {
	return &recorderService{name: name}
}

func (r *recorderService) Name() string { return r.name }

func (r *recorderService) HandleRPC(ctx context.Context, from transport.Addr, req msg.Message) (msg.Message, bool, error) {
	return nil, false, nil
}

func (r *recorderService) ExportOutside(newPred, self ids.ID) []msg.StateItem {
	r.exports.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	var out, keep []msg.StateItem
	for _, it := range r.items {
		if ids.BetweenRightIncl(it.ID, newPred, self) {
			keep = append(keep, it)
		} else {
			out = append(out, it)
		}
	}
	r.items = keep
	return out
}

func (r *recorderService) ExportAll() []msg.StateItem {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.items
	r.items = nil
	return out
}

func (r *recorderService) Import(items []msg.StateItem) {
	r.imported.Add(int64(len(items)))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.items = append(r.items, items...)
}

// pacedService is a recorderService that counts its maintenance passes,
// records the shared tick it was told and asks for a period of every.
type pacedService struct {
	*recorderService
	every  time.Duration
	shared time.Duration
	passes atomic.Int64
}

func (p *pacedService) Maintain(context.Context) { p.passes.Add(1) }
func (p *pacedService) MaintainEvery(shared time.Duration) time.Duration {
	p.shared = shared
	return p.every
}

// TestPacedMaintainerRunsOnItsOwnTicker: a PacedMaintainer whose period
// is shorter than the shared maintenance tick (4 × StabilizeEvery) runs
// at its own period; one whose period is longer rides the shared tick.
func TestPacedMaintainerRunsOnItsOwnTicker(t *testing.T) {
	clk := vclock.NewVirtual()
	clk.Register()
	defer clk.Unregister()
	cfg := FastConfig()
	cfg.Clock = clk
	n := NewNode(transport.NewSimnet(transport.WithClock(clk)).NewEndpoint("paced"), cfg, nil, nil)
	fast := &pacedService{recorderService: newRecorderService("fast"), every: cfg.StabilizeEvery}
	slow := &pacedService{recorderService: newRecorderService("slow"), every: time.Hour}
	n.Attach(fast)
	n.Attach(slow)
	n.Create()
	_ = clk.Sleep(context.Background(), 40*cfg.StabilizeEvery+cfg.StabilizeEvery/2)
	n.Stop()
	if f, s := fast.passes.Load(), slow.passes.Load(); f != 40 || s != 10 {
		t.Fatalf("passes: own period %d, shared tick %d; want 40 and 10", f, s)
	}
	if want := 4 * cfg.StabilizeEvery; fast.shared != want || slow.shared != want {
		t.Fatalf("told the shared tick as %v and %v, want %v", fast.shared, slow.shared, want)
	}
}
