package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"p2pltr/internal/msg"
	"p2pltr/internal/trace"
)

// frameVersion is the version byte after every frame's length prefix
// (see msg.EncodeFrame).
const frameVersion = 0x81

// envelope is what one frame of the TCP transport carries: the call
// header, then Body as a tagged message (msg.Coder.Message). A response
// carries its request's Seq, which is all the caller matches it by, and
// leaves From empty. Trace is the compact trace context of the calling
// span (zero when the caller is untraced); it is what lets one trace ID
// span peers over real sockets, mirroring what simnet carries on the
// call context.
type envelope struct {
	Seq    uint64
	From   string
	ErrMsg string
	HasErr bool
	Trace  msg.TraceContext
	Body   msg.Message
}

func (env *envelope) wire(c *msg.Coder) {
	c.Uint64(&env.Seq)
	c.String(&env.From)
	c.String(&env.ErrMsg)
	c.Bool(&env.HasErr)
	env.Trace.Wire(c)
	c.Message(&env.Body)
}

// readEnvelope reads the next frame. A malformed or oversized frame is an
// error, and the caller drops the connection.
func readEnvelope(r *bufio.Reader) (envelope, error) {
	var env envelope
	err := msg.ReadFrame(r, frameVersion, env.wire)
	return env, err
}

// TCPEndpoint is a real-network Endpoint. Each endpoint listens on its own
// address; outbound calls use persistent connections with multiplexed
// request/response matching, so many concurrent RPCs share one socket.
type TCPEndpoint struct {
	ln   net.Listener
	addr Addr

	mu      sync.RWMutex
	h       Handler
	conns   map[Addr]*tcpConn
	inbound map[net.Conn]struct{}
	closed  bool
	nextSeq atomic.Uint64

	wg sync.WaitGroup
}

// ListenTCP starts an endpoint on bind ("127.0.0.1:0" picks a free port).
func ListenTCP(bind string) (*TCPEndpoint, error) {
	ln, err := net.Listen("tcp", bind)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", bind, err)
	}
	e := &TCPEndpoint{
		ln:      ln,
		addr:    Addr(ln.Addr().String()),
		conns:   make(map[Addr]*tcpConn),
		inbound: make(map[net.Conn]struct{}),
	}
	e.wg.Add(1)
	// lint:allow-rawgo — tcpnet is the real-socket transport: it exists
	// to run on the OS network and wall clock, outside the deterministic
	// regime (simulations use simnet). Same for every tag below.
	go e.acceptLoop()
	return e, nil
}

// Addr implements Endpoint.
func (e *TCPEndpoint) Addr() Addr { return e.addr }

// SetHandler implements Endpoint.
func (e *TCPEndpoint) SetHandler(h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.h = h
}

func (e *TCPEndpoint) handler() Handler {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.h
}

func (e *TCPEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		c, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		e.wg.Add(1)
		// lint:allow-rawgo — real-socket transport, outside the
		// deterministic regime.
		go func() {
			defer e.wg.Done()
			e.serveConn(c)
		}()
	}
}

// serveConn handles the server side of one inbound connection.
func (e *TCPEndpoint) serveConn(c net.Conn) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		c.Close()
		return
	}
	e.inbound[c] = struct{}{}
	e.mu.Unlock()
	defer func() {
		e.mu.Lock()
		delete(e.inbound, c)
		e.mu.Unlock()
		c.Close()
	}()
	r := bufio.NewReader(c)
	var wmu sync.Mutex
	for {
		env, err := readEnvelope(r)
		if err != nil {
			return // peer hung up or stream corrupt
		}
		// lint:allow-rawgo — real-socket transport: handler dispatch
		// rides OS concurrency by design.
		go func(env envelope) {
			h := e.handler()
			resp := envelope{Seq: env.Seq}
			if h == nil {
				resp.HasErr, resp.ErrMsg = true, ErrNoHandler.Error()
			} else {
				hctx := context.Background()
				if env.Trace.TraceID != 0 {
					hctx = trace.ContextWithRemote(hctx, trace.SpanContext{
						TraceID: env.Trace.TraceID,
						SpanID:  env.Trace.SpanID,
						Hops:    env.Trace.Hops,
					})
				}
				m, err := h(hctx, Addr(env.From), env.Body)
				if err != nil {
					resp.HasErr, resp.ErrMsg = true, err.Error()
				} else {
					resp.Body = m
				}
			}
			frame, err := msg.EncodeFrame(frameVersion, resp.wire)
			if err != nil {
				// The answer cannot be encoded (its type has no wire
				// tag): send the error, so the caller need not wait
				// out its deadline. A bodiless envelope always encodes.
				resp.Body, resp.HasErr, resp.ErrMsg = nil, true, err.Error()
				frame, _ = msg.EncodeFrame(frameVersion, resp.wire)
			}
			wmu.Lock()
			defer wmu.Unlock()
			// A failed write means the connection is gone; the read
			// loop above sees that and returns.
			_, _ = c.Write(frame)
		}(env)
	}
}

// tcpConn is a pooled outbound connection with in-flight call matching.
type tcpConn struct {
	c net.Conn

	mu      sync.Mutex // guards writes to c, pending and dead
	pending map[uint64]chan envelope
	dead    bool
}

func (tc *tcpConn) live() bool {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return !tc.dead
}

func (tc *tcpConn) fail() {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	if tc.dead {
		return
	}
	tc.dead = true
	tc.c.Close()
	// lint:unordered-ok — every pending caller is woken exactly once;
	// wake order is invisible on a real network anyway.
	for seq, ch := range tc.pending {
		close(ch)
		delete(tc.pending, seq)
	}
}

// readLoop demultiplexes responses to their waiting callers.
func (tc *tcpConn) readLoop() {
	r := bufio.NewReader(tc.c)
	for {
		env, err := readEnvelope(r)
		if err != nil {
			tc.fail()
			return
		}
		tc.mu.Lock()
		ch := tc.pending[env.Seq]
		delete(tc.pending, env.Seq)
		tc.mu.Unlock()
		if ch != nil {
			ch <- env
		}
	}
}

// getConn returns a live pooled connection to 'to', dialing if needed.
func (e *TCPEndpoint) getConn(ctx context.Context, to Addr) (*tcpConn, error) {
	e.mu.RLock()
	tc := e.conns[to]
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if tc != nil && tc.live() {
		return tc, nil
	}
	d := net.Dialer{}
	c, err := d.DialContext(ctx, "tcp", string(to))
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %v", ErrUnreachable, to, err)
	}
	tc = &tcpConn{c: c, pending: make(map[uint64]chan envelope)}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		c.Close()
		return nil, ErrClosed
	}
	if cur := e.conns[to]; cur != nil && cur.live() {
		// A concurrent first call dialed too and won: share its
		// connection, so every caller multiplexes one socket.
		e.mu.Unlock()
		c.Close()
		return cur, nil
	}
	e.conns[to] = tc
	e.mu.Unlock()
	// lint:allow-rawgo — real-socket transport, outside the
	// deterministic regime.
	go tc.readLoop()
	return tc, nil
}

// Call implements Endpoint.
func (e *TCPEndpoint) Call(ctx context.Context, to Addr, req msg.Message) (msg.Message, error) {
	tc, err := e.getConn(ctx, to)
	if err != nil {
		return nil, err
	}
	seq := e.nextSeq.Add(1)
	out := envelope{Seq: seq, From: string(e.addr), Body: req}
	if sp := trace.FromContext(ctx); sp != nil {
		if sc := sp.Context(); sc.TraceID != 0 {
			out.Trace = msg.TraceContext{TraceID: sc.TraceID, SpanID: sc.SpanID, Hops: sc.Hops}
		}
	} else if sc, ok := trace.RemoteFromContext(ctx); ok {
		// A relaying peer that never opened its own span still forwards
		// the inbound context, so multi-hop routes keep one trace ID.
		out.Trace = msg.TraceContext{TraceID: sc.TraceID, SpanID: sc.SpanID, Hops: sc.Hops}
	}
	frame, err := msg.EncodeFrame(frameVersion, out.wire)
	if err != nil {
		return nil, fmt.Errorf("transport: encode request: %w", err)
	}

	ch := make(chan envelope, 1)
	tc.mu.Lock()
	if tc.dead {
		tc.mu.Unlock()
		return nil, ErrUnreachable
	}
	tc.pending[seq] = ch
	_, err = tc.c.Write(frame)
	tc.mu.Unlock()
	if err != nil {
		tc.fail()
		return nil, fmt.Errorf("%w: send: %v", ErrUnreachable, err)
	}

	select {
	case env, ok := <-ch:
		if !ok {
			return nil, ErrUnreachable
		}
		if env.HasErr {
			return nil, &RemoteError{Msg: env.ErrMsg}
		}
		return env.Body, nil
	case <-ctx.Done():
		tc.mu.Lock()
		delete(tc.pending, seq)
		tc.mu.Unlock()
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return nil, ErrTimeout
		}
		return nil, ctx.Err()
	}
}

// Close implements Endpoint: it stops the listener and tears down pooled
// connections.
func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	conns := e.conns
	e.conns = map[Addr]*tcpConn{}
	inbound := make([]net.Conn, 0, len(e.inbound))
	// lint:unordered-ok — teardown: each conn is closed exactly once,
	// order immaterial.
	for c := range e.inbound {
		inbound = append(inbound, c)
	}
	e.mu.Unlock()

	err := e.ln.Close()
	// lint:unordered-ok — teardown: each conn fails exactly once, order
	// immaterial.
	for _, tc := range conns {
		tc.fail()
	}
	for _, c := range inbound {
		c.Close()
	}
	// lint:allow-rawgo — joins OS goroutines of the real-socket
	// transport; no virtual timeline exists here.
	e.wg.Wait()
	if err != nil && !errors.Is(err, io.ErrClosedPipe) {
		return err
	}
	return nil
}
