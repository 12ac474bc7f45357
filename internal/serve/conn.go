package serve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Serve answers HTTP/1.1 on ln with the handler tree Handler returns. It
// is a small connection loop, not net/http's server: each connection
// reuses one http.Request, http.Header, url.URL and response buffer, and
// writes each response in one piece. It implements this subset of
// HTTP/1.1 framing:
//
//   - HTTP/1.1 and HTTP/1.0 requests; 1.0 closes after its response, as
//     does a request carrying "Connection: close". Other versions get
//     505, a malformed request line or header 400.
//   - A 1.1 request without a Host header gets 400, as does more than
//     one Host or a malformed, negative or conflicting Content-Length.
//   - The body is exactly Content-Length bytes. A request carrying
//     Transfer-Encoding gets 411 Length Required.
//   - "Expect: 100-continue" is answered with 100 Continue when the
//     handler first reads the body; other expectations get 417.
//   - A header block larger than the read buffer (8 KiB) gets 431.
//   - Bodies over maxBodyBytes reach the handlers' MaxBytesReader, as
//     under net/http.
//
// Every refusal above closes the connection after its answer. The
// header block must arrive within 5 s, the whole request within 10 s,
// and an idle keep-alive connection is closed after 30 s.
//
// A request's context ends when its client hangs up, so a decide waiting
// for the decision token expires undecided instead of deciding for no
// one. The context arms its watch, one background read of the socket,
// only when its Done method is first called, which only a contended
// decide does. Unlike net/http, the context is not cancelled when the
// handler returns.
//
// Serve always returns a non-nil error; after Shutdown it is
// http.ErrServerClosed.
func (s *Server) Serve(ln net.Listener) error {
	t := &s.tr
	t.mu.Lock()
	if t.closing {
		t.mu.Unlock()
		ln.Close()
		return http.ErrServerClosed
	}
	t.lns[ln] = struct{}{}
	t.loops++
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.lns, ln)
		t.loops--
		t.release()
		t.mu.Unlock()
	}()

	var backoff time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			if t.shut.Load() {
				return http.ErrServerClosed
			}
			if !retryAccept(err) {
				return err
			}
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			time.Sleep(backoff)
			continue
		}
		backoff = 0
		c := newConn(s, nc)
		t.mu.Lock()
		if t.closing {
			t.mu.Unlock()
			nc.Close()
			continue
		}
		t.conns[c] = struct{}{}
		t.mu.Unlock()
		go c.serve()
	}
}

// retryAccept reports whether an Accept error is passing (a timeout or
// exhausted descriptors or buffers) rather than a dead listener.
func retryAccept(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	for _, e := range []error{syscall.EMFILE, syscall.ENFILE, syscall.ECONNABORTED, syscall.ENOBUFS, syscall.ENOMEM} {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}

// Transport timeouts. They bound how long a stalled or silent client can
// pin a connection, so that no peer can hold a drain hostage.
const (
	headerTimeout = 5 * time.Second  // first byte to the end of the header block
	readTimeout   = 10 * time.Second // first byte to the end of the body
	idleTimeout   = 30 * time.Second // wait for the next request on a kept-alive connection
)

const (
	connReadBuf  = 8 << 10 // read buffer; a header block must fit in it
	connWriteBuf = 4 << 10
	// maxDiscard is how much of a body the handler left unread is read
	// and dropped to keep the connection; a longer rest closes it.
	maxDiscard = 256 << 10
	// lingerTimeout bounds the wait for the client's own close after
	// answering a request whose input was not all read, so the answer is
	// not lost to the reset that closing on unread data sends.
	lingerTimeout = 500 * time.Millisecond
	// maxRetainedBody is the largest response buffer a connection keeps.
	maxRetainedBody = 64 << 10
)

// transport is the connection state Serve and Shutdown share.
type transport struct {
	mu      sync.Mutex
	closing bool // Shutdown has begun: no new connection, idle ones closed
	lns     map[net.Listener]struct{}
	conns   map[*conn]struct{}
	loops   int           // Serve calls still running
	done    chan struct{} // closed once closing with no loop and no connection
	shut    atomic.Bool   // closing, read without the lock as responses are written

	panics atomic.Int64 // handler or framing panics recovered
}

func (t *transport) init() {
	t.lns = make(map[net.Listener]struct{})
	t.conns = make(map[*conn]struct{})
	t.done = make(chan struct{})
}

// close begins the shutdown: it closes every listener and every idle
// connection. A connection mid-request answers with "Connection: close"
// and then closes itself.
func (t *transport) close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.closing {
		t.closing = true
		t.shut.Store(true)
		for ln := range t.lns {
			ln.Close()
		}
		for c := range t.conns {
			if c.idle {
				c.nc.Close()
			}
		}
	}
	t.release()
}

// release closes done once the shutdown has nothing left to wait for.
// The caller holds mu.
func (t *transport) release() {
	if t.closing && t.loops == 0 && len(t.conns) == 0 {
		select {
		case <-t.done:
		default:
			close(t.done)
		}
	}
}

// conn is one client connection and everything its requests reuse.
type conn struct {
	s  *Server
	nc net.Conn
	br *bufio.Reader // reads through sockReader
	bw *bufio.Writer
	// idle is set, under s.tr.mu, while the connection waits for a
	// request; Shutdown closes it then rather than wait.
	idle bool

	// The byte a background read took from the socket, handed to br
	// before anything else.
	hasByte bool
	byteBuf [1]byte

	req  *http.Request // reused for every request
	tmpl *http.Request // zero request carrying ctx, copied into req
	url  url.URL
	hdr  http.Header
	body connBody
	ctx  connCtx
	w    respWriter

	keys   []string  // header names seen on this connection
	strs   [4]string // request targets recently seen
	strAt  int
	host   string
	remote string
	date   []byte // cached Date value
	dateAt int64  // its Unix second
	order  []string
}

func newConn(s *Server, nc net.Conn) *conn {
	c := &conn{s: s, nc: nc, hdr: make(http.Header), remote: nc.RemoteAddr().String()}
	c.br = bufio.NewReaderSize(sockReader{c}, connReadBuf)
	c.bw = bufio.NewWriterSize(nc, connWriteBuf)
	c.body.c = c
	c.ctx.c = c
	c.w.h = make(http.Header)
	c.req = new(http.Request)
	c.tmpl = new(http.Request).WithContext(&c.ctx)
	return c
}

// sockReader is what a connection's bufio.Reader reads: it first hands
// over a byte a background read took, and flushes buffered responses
// before it reads the socket, so pipelined answers go out together and
// no answer waits behind a blocking read.
type sockReader struct{ c *conn }

func (r sockReader) Read(p []byte) (int, error) {
	c := r.c
	if len(p) == 0 {
		return 0, nil
	}
	if c.hasByte {
		c.hasByte = false
		p[0] = c.byteBuf[0]
		return 1, nil
	}
	if c.bw.Buffered() > 0 {
		if err := c.bw.Flush(); err != nil {
			return 0, err
		}
	}
	return c.nc.Read(p)
}

// serve runs the connection's request loop until it closes.
func (c *conn) serve() {
	defer c.finish()
	for {
		if !c.await() {
			return
		}
		t0 := time.Now()
		c.nc.SetReadDeadline(t0.Add(headerTimeout))
		block, err := c.readHeader()
		if err != nil {
			if err == errHeaderTooLarge {
				c.refuse(http.StatusRequestHeaderFieldsTooLarge)
			}
			return
		}
		n := len(block)
		if code := c.parse(block); code != 0 {
			c.br.Discard(n)
			c.refuse(code)
			return
		}
		c.br.Discard(n)
		c.nc.SetReadDeadline(t0.Add(readTimeout))
		if !c.handle() {
			return
		}
	}
}

// await waits for the first byte of the next request. It reports false
// when the connection is done: shut down, timed out or hung up.
func (c *conn) await() bool {
	if c.br.Buffered() > 0 || c.hasByte {
		return true // a pipelined request
	}
	if c.bw.Flush() != nil {
		return false
	}
	t := &c.s.tr
	t.mu.Lock()
	if t.closing {
		t.mu.Unlock()
		return false
	}
	c.idle = true
	t.mu.Unlock()
	c.nc.SetReadDeadline(time.Now().Add(idleTimeout))
	_, err := c.br.Peek(1)
	t.mu.Lock()
	c.idle = false
	closed := t.closing // Shutdown closed the socket while it idled
	t.mu.Unlock()
	return err == nil && !closed
}

var errHeaderTooLarge = errors.New("header block larger than the read buffer")

// readHeader returns the request's header block, through its blank line,
// still unread in br.
func (c *conn) readHeader() ([]byte, error) {
	from := 0
	for {
		buf, _ := c.br.Peek(c.br.Buffered())
		if end := headerEnd(buf, from); end > 0 {
			return buf[:end], nil
		}
		if len(buf) >= c.br.Size() {
			return nil, errHeaderTooLarge
		}
		from = max(0, len(buf)-2)
		if _, err := c.br.Peek(len(buf) + 1); err != nil {
			return nil, err
		}
	}
}

// headerEnd is the length of the header block at the start of buf, up to
// and including the empty line that ends it, or 0 if it is incomplete.
// Lines end in CRLF or a bare LF, as net/http accepts.
func headerEnd(buf []byte, from int) int {
	for i := from; ; i++ {
		j := bytes.IndexByte(buf[i:], '\n')
		if j < 0 {
			return 0
		}
		i += j
		switch {
		case i+1 < len(buf) && buf[i+1] == '\n':
			return i + 2
		case i+2 < len(buf) && buf[i+1] == '\r' && buf[i+2] == '\n':
			return i + 3
		}
	}
}

// parse reads the request line and headers of block into c.req. It
// returns 0, or the status that refuses the request.
func (c *conn) parse(block []byte) int {
	line, rest := nextLine(block)
	method, line, ok1 := bytes.Cut(line, []byte{' '})
	target, proto, ok2 := bytes.Cut(line, []byte{' '})
	if !ok1 || !ok2 || !isToken(method) || len(target) == 0 {
		return http.StatusBadRequest
	}
	*c.req = *c.tmpl
	r := c.req
	switch string(proto) {
	case "HTTP/1.1":
		r.Proto, r.ProtoMajor, r.ProtoMinor = "HTTP/1.1", 1, 1
	case "HTTP/1.0":
		r.Proto, r.ProtoMajor, r.ProtoMinor = "HTTP/1.0", 1, 0
	default:
		if len(proto) == 8 && string(proto[:5]) == "HTTP/" && isDigit(proto[5]) && proto[6] == '.' && isDigit(proto[7]) {
			return http.StatusHTTPVersionNotSupported
		}
		return http.StatusBadRequest
	}
	r.Method = internMethod(method)
	r.RequestURI = c.intern(target)
	if !c.parseTarget(r.Method, r.RequestURI) {
		return http.StatusBadRequest
	}
	r.URL = &c.url
	r.RemoteAddr = c.remote

	for k, vs := range c.hdr {
		c.hdr[k] = vs[:0]
	}
	var (
		hosts, lengths int
		length         int64
		te, closeReq   bool
		expect         []byte
	)
	for len(rest) > 0 {
		line, rest = nextLine(rest)
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte{':'})
		if !ok || !isToken(name) {
			return http.StatusBadRequest // also a folded line, which starts with a space
		}
		value = bytes.Trim(value, " \t")
		if !validValue(value) {
			return http.StatusBadRequest
		}
		key := c.canonicalKey(name)
		switch key {
		case "Host":
			hosts++
			if string(value) != c.host {
				c.host = string(value)
			}
			continue // net/http keeps Host out of Header too
		case "Content-Length":
			n, ok := parseLength(value)
			if !ok || (lengths > 0 && n != length) {
				return http.StatusBadRequest
			}
			lengths++
			length = n
		case "Transfer-Encoding":
			te = true
		case "Connection":
			closeReq = closeReq || hasToken(value, "close")
		case "Expect":
			expect = value
		}
		vs := c.hdr[key]
		if n := len(vs); n < cap(vs) && vs[:n+1][n] == string(value) {
			vs = vs[:n+1]
		} else {
			vs = append(vs, string(value))
		}
		c.hdr[key] = vs
	}
	for k, vs := range c.hdr {
		if len(vs) == 0 {
			delete(c.hdr, k)
		}
	}
	r.Header = c.hdr

	switch {
	case hosts > 1, hosts == 0 && r.ProtoMinor == 1 && r.Method != http.MethodConnect:
		return http.StatusBadRequest
	case te:
		return http.StatusLengthRequired
	}
	r.Host = c.url.Host
	if r.Host == "" && hosts == 1 {
		r.Host = c.host
	}
	r.Close = closeReq || r.ProtoMinor == 0
	r.ContentLength = length
	c.body.n = length
	c.body.continueDue = false
	if expect != nil {
		if !bytes.EqualFold(expect, []byte("100-continue")) || r.ProtoMinor == 0 {
			return http.StatusExpectationFailed
		}
		c.body.continueDue = length > 0
	}
	if length > 0 {
		r.Body = &c.body
	} else {
		r.Body = http.NoBody
	}
	return 0
}

// parseTarget parses a request target into c.url. A plain origin-form
// path is taken as is; anything else goes through url.ParseRequestURI,
// as net/http does.
func (c *conn) parseTarget(method, target string) bool {
	if plainPath(target) {
		c.url = url.URL{Path: target}
		return true
	}
	raw := target
	authority := method == http.MethodConnect && !strings.HasPrefix(raw, "/")
	if authority {
		raw = "http://" + raw
	}
	u, err := url.ParseRequestURI(raw)
	if err != nil {
		return false
	}
	if authority {
		u.Scheme = ""
	}
	c.url = *u
	return true
}

// plainPath reports whether target is an origin-form path that needs no
// unescaping and would be escaped as it is, so url.URL{Path: target} is
// what url.ParseRequestURI would build.
func plainPath(target string) bool {
	if target[0] != '/' {
		return false
	}
	for i := 0; i < len(target); i++ {
		if !pathChar[target[i]] {
			return false
		}
	}
	return true
}

// handle serves the parsed request and writes its answer. It reports
// whether the connection stays open.
func (c *conn) handle() bool {
	r := c.req
	c.ctx.begin(c.body.n == 0)
	c.w.reset()
	c.s.mux.ServeHTTP(&c.w, r)
	gone := c.ctx.end()
	if gone {
		return false // the client hung up; no one reads the answer
	}

	keep := !r.Close && !c.s.tr.shut.Load()
	unread := c.body.n > 0
	if unread && keep && !c.body.continueDue && c.body.n <= maxDiscard {
		_, err := io.Copy(io.Discard, &c.body)
		unread = err != nil
	}
	if v := c.w.h["Connection"]; len(v) > 0 && hasToken([]byte(v[0]), "close") {
		keep = false
	}
	keep = keep && !unread
	c.writeResponse(keep, r.Method == http.MethodHead)
	if !keep {
		c.closeConn(unread)
	}
	return keep // the answer is flushed before the next blocking read
}

// finish ends the connection: it recovers a panic, closes the socket,
// waits for a background read to end and leaves the transport.
func (c *conn) finish() {
	if p := recover(); p != nil {
		c.s.tr.panics.Add(1)
		if p != http.ErrAbortHandler {
			log.Printf("serve: panic serving %s: %v", c.remote, p)
		}
	}
	c.nc.Close()
	c.ctx.bg.Wait()
	t := &c.s.tr
	t.mu.Lock()
	delete(t.conns, c)
	t.release()
	t.mu.Unlock()
}

// closeConn flushes the last answer and closes the connection. When the
// client's input was not all read it first closes the write side and
// waits, up to lingerTimeout, for the client to close its own.
func (c *conn) closeConn(unread bool) {
	if c.bw.Flush() != nil || !(unread || c.br.Buffered() > 0) {
		return
	}
	if cw, ok := c.nc.(interface{ CloseWrite() error }); ok && cw.CloseWrite() == nil {
		c.nc.SetReadDeadline(time.Now().Add(lingerTimeout))
		io.CopyN(io.Discard, c.nc, maxDiscard)
	}
}

// refuse answers a request the framing rules reject and closes the
// connection.
func (c *conn) refuse(code int) {
	c.w.reset()
	c.w.h.Set("Content-Type", "text/plain; charset=utf-8")
	c.w.WriteHeader(code)
	io.WriteString(&c.w, strconv.Itoa(code)+" "+http.StatusText(code)+"\n")
	c.writeResponse(false, false)
	c.closeConn(true)
}

// writeResponse writes the buffered answer: status line, Date, the
// handler's headers, Content-Length (none where the status forbids a
// body), "Connection: close" unless keep, then the body.
func (c *conn) writeResponse(keep, head bool) {
	w, b := &c.w, c.bw
	code := w.status
	if code == 0 {
		code = http.StatusOK
	}
	bodyOK := code >= 200 && code != http.StatusNoContent && code != http.StatusNotModified
	if _, typed := w.h["Content-Type"]; !typed && bodyOK && len(w.body) > 0 {
		w.h.Set("Content-Type", http.DetectContentType(w.body))
	}
	b.WriteString("HTTP/1.1 ")
	b.Write(strconv.AppendInt(b.AvailableBuffer(), int64(code), 10))
	b.WriteByte(' ')
	b.WriteString(http.StatusText(code))
	b.WriteString("\r\n")
	if _, ok := w.h["Date"]; !ok {
		b.WriteString("Date: ")
		b.Write(c.httpDate())
		b.WriteString("\r\n")
	}
	c.order = c.order[:0]
	for k := range w.h {
		switch k {
		case "Content-Length", "Transfer-Encoding", "Connection":
		default:
			c.order = append(c.order, k)
		}
	}
	slices.Sort(c.order)
	for _, k := range c.order {
		for _, v := range w.h[k] {
			b.WriteString(k)
			b.WriteString(": ")
			writeValue(b, v)
			b.WriteString("\r\n")
		}
	}
	if bodyOK && (!head || len(w.body) > 0) {
		b.WriteString("Content-Length: ")
		b.Write(strconv.AppendInt(b.AvailableBuffer(), int64(len(w.body)), 10))
		b.WriteString("\r\n")
	}
	if !keep {
		b.WriteString("Connection: close\r\n")
	}
	b.WriteString("\r\n")
	if bodyOK && !head {
		b.Write(w.body)
	}
}

// writeValue writes a header value with any CR or LF turned into a
// space, so no value can split the response.
func writeValue(b *bufio.Writer, v string) {
	for i := 0; i < len(v); i++ {
		if ch := v[i]; ch == '\r' || ch == '\n' {
			b.WriteByte(' ')
		} else {
			b.WriteByte(ch)
		}
	}
}

// httpDate is the current time in the Date header's format, formatted at
// most once a second per connection.
func (c *conn) httpDate() []byte {
	now := time.Now()
	if sec := now.Unix(); sec != c.dateAt || c.date == nil {
		c.dateAt = sec
		c.date = now.UTC().AppendFormat(c.date[:0], http.TimeFormat)
	}
	return c.date
}

// canonicalKey returns name in canonical header form, as a string this
// connection has already allocated when it has seen the name before.
func (c *conn) canonicalKey(name []byte) string {
	var buf [64]byte
	if len(name) > len(buf) {
		return http.CanonicalHeaderKey(string(name))
	}
	key := buf[:len(name)]
	upper := true
	for i, ch := range name {
		switch {
		case upper && 'a' <= ch && ch <= 'z':
			ch -= 'a' - 'A'
		case !upper && 'A' <= ch && ch <= 'Z':
			ch += 'a' - 'A'
		}
		key[i] = ch
		upper = ch == '-'
	}
	for _, k := range c.keys {
		if k == string(key) {
			return k
		}
	}
	k := string(key)
	if len(c.keys) < 32 {
		c.keys = append(c.keys, k)
	}
	return k
}

// intern returns b as a string, reusing one of the last few targets this
// connection saw when it repeats.
func (c *conn) intern(b []byte) string {
	for _, s := range c.strs {
		if s == string(b) {
			return s
		}
	}
	s := string(b)
	c.strs[c.strAt] = s
	c.strAt = (c.strAt + 1) % len(c.strs)
	return s
}

// connBody is a request body: the next n bytes of the connection.
type connBody struct {
	c           *conn
	n           int64 // bytes left
	continueDue bool  // a 100 Continue is owed before the first read
}

func (b *connBody) Read(p []byte) (int, error) {
	if b.n <= 0 {
		return 0, io.EOF
	}
	if b.continueDue {
		b.continueDue = false
		b.c.bw.WriteString("HTTP/1.1 100 Continue\r\n\r\n")
	}
	if int64(len(p)) > b.n {
		p = p[:b.n]
	}
	n, err := b.c.br.Read(p)
	b.n -= int64(n)
	if b.n == 0 {
		b.c.ctx.bodyRead()
	} else if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func (b *connBody) Close() error { return nil }

// connCtx is a request's context. It ends when the client hangs up: its
// Done channel is armed, by one background read of the socket, only
// once Done has been called and the body has been read. The channel is
// made once per connection; once it closes, the connection ends.
type connCtx struct {
	c  *conn
	bg sync.WaitGroup // the background read

	mu       sync.Mutex
	done     chan struct{}
	live     bool // a handler is running
	wanted   bool // Done was called during this request
	bodyDone bool // the body is read; the socket is free to watch
	armed    bool // a background read runs

	aborted atomic.Bool // the loop is stopping the background read
	gone    atomic.Bool // the client hung up; done is closed
}

func (x *connCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (x *connCtx) Value(any) any               { return nil }

func (x *connCtx) Err() error {
	if x.gone.Load() {
		return context.Canceled
	}
	return nil
}

func (x *connCtx) Done() <-chan struct{} {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.done == nil {
		x.done = make(chan struct{})
	}
	if x.live && !x.wanted {
		x.wanted = true
		x.arm()
	}
	return x.done
}

// begin starts a request's watch period.
func (x *connCtx) begin(bodyDone bool) {
	x.mu.Lock()
	x.live, x.wanted, x.bodyDone = true, false, bodyDone
	x.mu.Unlock()
}

// bodyRead marks the body read, arming a watch Done asked for.
func (x *connCtx) bodyRead() {
	x.mu.Lock()
	x.bodyDone = true
	x.arm()
	x.mu.Unlock()
}

// arm starts the background read if Done wants it and the socket is
// free. The caller holds mu.
func (x *connCtx) arm() {
	if !x.live || !x.wanted || !x.bodyDone || x.armed || x.gone.Load() {
		return
	}
	x.armed = true
	x.bg.Add(1)
	go x.watch()
}

// watch is the background read. A byte it reads is the start of a
// pipelined request and is kept for the next parse; an error other than
// the loop's own abort means the client is gone.
func (x *connCtx) watch() {
	defer x.bg.Done()
	c := x.c
	n, err := c.nc.Read(c.byteBuf[:])
	if n == 1 {
		c.hasByte = true
		return
	}
	var ne net.Error
	if err != nil && !(x.aborted.Load() && errors.As(err, &ne) && ne.Timeout()) {
		x.gone.Store(true)
		close(x.done)
	}
}

// end closes the request's watch period, stopping a background read, and
// reports whether the client hung up.
func (x *connCtx) end() bool {
	x.mu.Lock()
	x.live = false
	armed := x.armed
	x.armed = false
	x.mu.Unlock()
	if armed {
		x.aborted.Store(true)
		x.c.nc.SetReadDeadline(time.Unix(1, 0))
		x.bg.Wait()
		x.aborted.Store(false)
	}
	return x.gone.Load()
}

// respWriter buffers a handler's answer for writeResponse.
type respWriter struct {
	h      http.Header
	status int
	body   []byte
}

func (w *respWriter) reset() {
	clear(w.h)
	w.status = 0
	if cap(w.body) > maxRetainedBody {
		w.body = nil
	}
	w.body = w.body[:0]
}

func (w *respWriter) Header() http.Header { return w.h }

// WriteHeader records the status; as under net/http, only the first call
// counts. Informational (1xx) statuses are not sent.
func (w *respWriter) WriteHeader(code int) {
	if code < 100 || code > 999 {
		panic("serve: invalid WriteHeader code " + strconv.Itoa(code))
	}
	if w.status == 0 && code >= 200 {
		w.status = code
	}
}

func (w *respWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.status == http.StatusNoContent || w.status == http.StatusNotModified {
		return 0, http.ErrBodyNotAllowed
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

// nextLine splits off the first line of b, without its CRLF or LF.
func nextLine(b []byte) (line, rest []byte) {
	line, rest, _ = bytes.Cut(b, []byte{'\n'})
	return bytes.TrimSuffix(line, []byte{'\r'}), rest
}

// parseLength parses a Content-Length value: decimal digits only, within
// int64.
func parseLength(v []byte) (int64, bool) {
	if len(v) == 0 || len(v) > 18 {
		return 0, false
	}
	var n int64
	for _, ch := range v {
		if !isDigit(ch) {
			return 0, false
		}
		n = n*10 + int64(ch-'0')
	}
	return n, true
}

// hasToken reports whether the comma-separated list v holds token,
// ignoring case.
func hasToken(v []byte, token string) bool {
	for len(v) > 0 {
		var item []byte
		item, v, _ = bytes.Cut(v, []byte{','})
		if bytes.EqualFold(bytes.Trim(item, " \t"), []byte(token)) {
			return true
		}
	}
	return false
}

// internMethod returns a constant for the common methods.
func internMethod(m []byte) string {
	for _, s := range [...]string{http.MethodPost, http.MethodGet, http.MethodHead, http.MethodPut,
		http.MethodDelete, http.MethodOptions, http.MethodPatch, http.MethodConnect, http.MethodTrace} {
		if s == string(m) {
			return s
		}
	}
	return string(m)
}

func isDigit(ch byte) bool { return '0' <= ch && ch <= '9' }

func isToken(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	for _, ch := range b {
		if !tokenChar[ch] {
			return false
		}
	}
	return true
}

// validValue reports whether a header value holds no control byte but
// tab.
func validValue(v []byte) bool {
	for _, ch := range v {
		if ch < ' ' && ch != '\t' || ch == 0x7f {
			return false
		}
	}
	return true
}

// tokenChar and pathChar are the bytes allowed in an RFC 9110 token and
// in a plain path.
var tokenChar, pathChar = func() (tok, path [256]bool) {
	for ch := '0'; ch <= 'z'; ch++ {
		alnum := '0' <= ch && ch <= '9' || 'A' <= ch && ch <= 'Z' || 'a' <= ch && ch <= 'z'
		tok[ch], path[ch] = alnum, alnum
	}
	for _, ch := range "!#$%&'*+-.^_`|~" {
		tok[ch] = true
	}
	for _, ch := range "-_.~$&+,/:;=@" {
		path[ch] = true
	}
	return
}()
