// Package transport abstracts peer-to-peer message passing for P2P-LTR.
//
// Two implementations are provided:
//
//   - Simnet: an in-process simulated network with configurable latency
//     models, message loss, partitions, and peer crashes. It replaces the
//     Java-RMI LAN of the paper's prototype and is what tests, plans and
//     the benchmark run on ("we may specify the number of peers or
//     network latencies, or may provoke failures").
//   - TCP: a real RPC transport over net.Conn with persistent,
//     multiplexed connections, for running peers as separate processes.
//     Each call and answer is one length-prefixed frame of the msg wire
//     codec.
//
// The network model is semi-synchronous, as in the paper: calls carry
// deadlines and a timed-out peer is suspected of failure.
package transport

import (
	"context"
	"errors"
	"fmt"

	"p2pltr/internal/msg"
)

// Addr is a transport-level endpoint address. For Simnet it is an opaque
// name; for TCP it is "host:port".
type Addr string

// Handler processes one inbound request and returns the response.
// Implementations must be safe for concurrent use.
type Handler func(ctx context.Context, from Addr, req msg.Message) (msg.Message, error)

// Endpoint is one peer's attachment to the network.
type Endpoint interface {
	// Addr returns the address other peers use to reach this endpoint.
	Addr() Addr
	// Call sends req to the peer at 'to' and waits for its response,
	// honouring ctx cancellation and deadline.
	Call(ctx context.Context, to Addr, req msg.Message) (msg.Message, error)
	// SetHandler installs the inbound request handler. It must be called
	// before the endpoint receives traffic; calls arriving while no
	// handler is set fail.
	SetHandler(h Handler)
	// Close detaches the endpoint. Subsequent calls to or from it fail
	// with ErrUnreachable.
	Close() error
}

// Sentinel errors. Callers use errors.Is to classify failures: an
// unreachable or timed-out peer is treated as suspected-failed by Chord's
// stabilization and by the P2P-LTR retry loops.
var (
	ErrUnreachable = errors.New("transport: peer unreachable")
	ErrTimeout     = errors.New("transport: call timed out")
	ErrClosed      = errors.New("transport: endpoint closed")
	ErrNoHandler   = errors.New("transport: no handler installed")
)

// RemoteError wraps an application-level error returned by the remote
// handler, preserving its message across the wire.
type RemoteError struct {
	Msg string
}

func (e *RemoteError) Error() string { return fmt.Sprintf("remote: %s", e.Msg) }

// IsUnavailable reports whether err indicates the peer could not serve the
// call at the transport level (down, partitioned, timed out) as opposed to
// an application-level rejection.
func IsUnavailable(err error) bool {
	return errors.Is(err, ErrUnreachable) || errors.Is(err, ErrTimeout) ||
		errors.Is(err, ErrClosed) || errors.Is(err, context.DeadlineExceeded)
}

// IsTimeout reports whether err is a deadline-style failure — the
// semi-synchronous model's *suspicion* of failure, which message loss
// alone can produce. Its complement within IsUnavailable (connection
// refused, endpoint gone) is affirmative evidence the peer is down:
// failure detectors may act on it immediately, whereas timeouts deserve
// a strike budget under loss.
func IsTimeout(err error) bool {
	return errors.Is(err, ErrTimeout) || errors.Is(err, context.DeadlineExceeded)
}
