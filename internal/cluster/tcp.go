package cluster

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// TCP transport: one frame out, one frame back, connections reused
// across requests. The server keeps a connection open until the client
// closes it or it idles out; the client keeps a small pool of idle
// connections and discards any connection that sees an error, so a
// half-dead peer never poisons later requests.

const (
	// tcpIdleTimeout is how long a server-side connection may sit
	// between requests before the server hangs up.
	tcpIdleTimeout = 2 * time.Minute
	// tcpIOTimeout bounds a single frame read/write once a request has
	// started — large ApplyModel frames included.
	tcpIOTimeout = 30 * time.Second
	// tcpDialTimeout bounds connection establishment when the caller's
	// context carries no deadline.
	tcpDialTimeout = 5 * time.Second
	// tcpMaxIdleConns caps the client's idle pool.
	tcpMaxIdleConns = 4
)

// TCPServer serves the shard protocol on a listener, dispatching into a
// Backend. Create with ServeTCP; Close stops accepting and closes live
// connections.
type TCPServer struct {
	b   Backend
	ln  net.Listener
	log *obs.Logger

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// ServeTCP starts serving b on ln in the background. log may be nil.
func ServeTCP(ln net.Listener, b Backend, log *obs.Logger) *TCPServer {
	if log == nil {
		log = obs.NewLogger("cluster", io.Discard)
	}
	s := &TCPServer{b: b, ln: ln, log: log, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener address.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 1<<16)
	bw := bufio.NewWriterSize(conn, 1<<16)
	var inBuf, outBuf []byte
	for {
		_ = conn.SetReadDeadline(time.Now().Add(tcpIdleTimeout))
		req, buf, err := readFrame(br, inBuf)
		inBuf = buf
		if err != nil {
			return // EOF, idle timeout, or garbage — hang up either way
		}
		_ = conn.SetDeadline(time.Now().Add(tcpIOTimeout))
		outBuf = s.dispatch(outBuf, req)
		if err := writeFrame(bw, outBuf); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// dispatch runs one decoded request against the backend and encodes the
// response into buf.
func (s *TCPServer) dispatch(buf, req []byte) []byte {
	if len(req) == 0 {
		return encodeErrorResp(buf, fmt.Errorf("%w: empty request", ErrBadMessage))
	}
	op, body := req[0], req[1:]
	switch op {
	case opParse:
		domain, text, err := decodeParseReq(body)
		if err != nil {
			return encodeErrorResp(buf, err)
		}
		rec, err := s.b.HandleParse(context.Background(), domain, text)
		if err != nil {
			return encodeErrorResp(buf, err)
		}
		return encodeRecordResp(buf, domain, rec)
	case opFetchModel:
		a, err := s.b.ModelArtifact()
		if err != nil {
			return encodeErrorResp(buf, err)
		}
		return appendArtifact(append(buf[:0], stOK), a)
	case opApplyModel:
		a, err := decodeArtifact(body)
		if err != nil {
			return encodeErrorResp(buf, err)
		}
		// The artifact bytes alias the connection's read buffer, which
		// the next request will overwrite — the backend keeps them, so
		// copy.
		a.Data = append([]byte(nil), a.Data...)
		version, err := s.b.ApplyModel(a)
		if err != nil {
			return encodeErrorResp(buf, err)
		}
		return appendString(append(buf[:0], stOK), version)
	case opStatus:
		return encodeStatusResp(buf, s.b.Status())
	default:
		return encodeErrorResp(buf, fmt.Errorf("%w: %d", ErrUnknownOp, op))
	}
}

// Close stops the server: the listener closes, live connections are
// torn down, and all handler goroutines drain.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// TCPClient is a ShardClient over the wire format, with a small idle
// connection pool. Safe for concurrent use; connections that error are
// discarded, so a request never inherits a poisoned stream.
type TCPClient struct {
	addr string

	mu     sync.Mutex
	idle   []*tcpConn
	closed bool
}

type tcpConn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer
	// buf is the reusable frame read buffer.
	buf []byte
}

// DialTCP returns a lazy client for the shard server at addr — no
// connection is made until the first call.
func DialTCP(addr string) *TCPClient {
	return &TCPClient{addr: addr}
}

func (c *TCPClient) get(ctx context.Context) (*tcpConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("cluster: client closed")
	}
	if n := len(c.idle); n > 0 {
		tc := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return tc, nil
	}
	c.mu.Unlock()
	d := net.Dialer{Timeout: tcpDialTimeout}
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: dial %s: %w", c.addr, err)
	}
	return &tcpConn{
		c:  conn,
		br: bufio.NewReaderSize(conn, 1<<16),
		bw: bufio.NewWriterSize(conn, 1<<16),
	}, nil
}

func (c *TCPClient) put(tc *tcpConn) {
	c.mu.Lock()
	if !c.closed && len(c.idle) < tcpMaxIdleConns {
		c.idle = append(c.idle, tc)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	tc.c.Close()
}

// call performs one request/response round trip. The returned payload
// is a copy owned by the caller.
func (c *TCPClient) call(ctx context.Context, req []byte) ([]byte, error) {
	tc, err := c.get(ctx)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(tcpIOTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	_ = tc.c.SetDeadline(deadline)
	if err := writeFrame(tc.bw, req); err != nil {
		tc.c.Close()
		return nil, fmt.Errorf("cluster: write %s: %w", c.addr, err)
	}
	if err := tc.bw.Flush(); err != nil {
		tc.c.Close()
		return nil, fmt.Errorf("cluster: write %s: %w", c.addr, err)
	}
	payload, buf, err := readFrame(tc.br, tc.buf)
	tc.buf = buf
	if err != nil {
		tc.c.Close()
		return nil, fmt.Errorf("cluster: read %s: %w", c.addr, err)
	}
	out := append([]byte(nil), payload...)
	c.put(tc)
	return out, nil
}

// Parse implements ShardClient.
func (c *TCPClient) Parse(ctx context.Context, domain, text string) (*core.ParsedRecord, error) {
	resp, err := c.call(ctx, encodeParseReq(nil, domain, text))
	if err != nil {
		return nil, err
	}
	body, err := decodeStatusByte(resp)
	if err != nil {
		return nil, err
	}
	return decodeRecordResp(body)
}

// FetchModel implements ShardClient.
func (c *TCPClient) FetchModel(ctx context.Context) (Artifact, error) {
	resp, err := c.call(ctx, []byte{opFetchModel})
	if err != nil {
		return Artifact{}, err
	}
	body, err := decodeStatusByte(resp)
	if err != nil {
		return Artifact{}, err
	}
	return decodeArtifact(body) // resp is already the caller's copy
}

// ApplyModel implements ShardClient.
func (c *TCPClient) ApplyModel(ctx context.Context, a Artifact) (string, error) {
	resp, err := c.call(ctx, appendArtifact([]byte{opApplyModel}, a))
	if err != nil {
		return "", err
	}
	body, err := decodeStatusByte(resp)
	if err != nil {
		return "", err
	}
	r := &wireReader{b: body}
	version := r.str()
	if r.bad || r.pos != len(body) {
		return "", fmt.Errorf("%w: apply response", ErrBadMessage)
	}
	return version, nil
}

// Status implements ShardClient.
func (c *TCPClient) Status(ctx context.Context) (PeerStatus, error) {
	resp, err := c.call(ctx, []byte{opStatus})
	if err != nil {
		return PeerStatus{}, err
	}
	body, err := decodeStatusByte(resp)
	if err != nil {
		return PeerStatus{}, err
	}
	return decodeStatusResp(body)
}

// Close implements ShardClient: idle connections are closed; in-flight
// calls finish on their own connections.
func (c *TCPClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, tc := range c.idle {
		tc.c.Close()
	}
	c.idle = nil
	return nil
}
