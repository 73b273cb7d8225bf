package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"firstaid/internal/app"
	"firstaid/internal/apps"
	"firstaid/internal/fleet"
)

// TestServerTimeouts serves a fleet through newServer with shortened
// timeouts and checks that slow clients cannot hold a connection: one that
// stalls mid-header, one that trickles a batch body and one that idles a
// keep-alive connection are all disconnected, while an SSE stream, which
// has no write deadline, outlives every timeout and ends on Shutdown.
func TestServerTimeouts(t *testing.T) {
	defer func(h, r, i time.Duration) {
		readHeaderTimeout, readTimeout, idleTimeout = h, r, i
	}(readHeaderTimeout, readTimeout, idleTimeout)
	readHeaderTimeout, readTimeout, idleTimeout = 200*time.Millisecond, 300*time.Millisecond, 300*time.Millisecond
	// patience is how long a client waits for a disconnect before the
	// test gives up: ten times the longest timeout.
	const patience = 3 * time.Second

	f := fleet.New(func() app.Program {
		prog, err := apps.New("apache")
		if err != nil {
			panic(err)
		}
		return prog
	}, fleet.Config{Workers: 1})
	srv := newServer(f)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer func() {
		srv.Close()
		f.Close()
	}()
	addr := ln.Addr().String()

	t.Run("half-header", func(t *testing.T) {
		c := dial(t, addr)
		fmt.Fprint(c, "GET /healthz HTTP/1.1\r\nHost: firstaid\r\n")
		if d, err := untilClosed(c, patience); err != nil {
			t.Fatalf("client stalled mid-header still connected: %v", err)
		} else {
			t.Logf("disconnected after %v", d)
		}
	})

	t.Run("trickled-body", func(t *testing.T) {
		c := dial(t, addr)
		fmt.Fprint(c, "POST /events/batch HTTP/1.1\r\nHost: firstaid\r\nContent-Length: 4096\r\n\r\nFAB\x01")
		closed := make(chan error, 1)
		go func() {
			_, err := untilClosed(c, patience)
			closed <- err
		}()
		// One byte every 20 ms: the body would take over a minute.
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case err := <-closed:
				if err != nil {
					t.Fatalf("trickled body not cut off: %v", err)
				}
				return
			case <-tick.C:
				c.Write([]byte{1})
			}
		}
	})

	t.Run("idle-keepalive", func(t *testing.T) {
		c := dial(t, addr)
		fmt.Fprint(c, "GET /healthz HTTP/1.1\r\nHost: firstaid\r\n\r\n")
		br := bufio.NewReader(c)
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("healthz: %v", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Close {
			t.Fatalf("healthz: status %d, close %v; want a kept-alive 200", resp.StatusCode, resp.Close)
		}
		c.SetReadDeadline(time.Now().Add(patience))
		if _, err := br.ReadByte(); err != io.EOF {
			t.Fatalf("idle keep-alive connection not closed: %v", err)
		}
	})

	t.Run("sse-outlives-timeouts", func(t *testing.T) {
		c := dial(t, addr)
		fmt.Fprintf(c, "GET /trace/stream?from=%d HTTP/1.1\r\nHost: firstaid\r\n\r\n", f.Trace().Emitted())
		resp, err := http.ReadResponse(bufio.NewReader(c), nil)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("trace stream: %v (%v)", err, resp)
		}
		// Outlast every timeout, then make the fleet emit records and read
		// the first of them off the same stream.
		time.Sleep(readHeaderTimeout + readTimeout + idleTimeout)
		if _, err := f.Do(fleet.Request{Kind: "search", Data: "uid=1"}); err != nil {
			t.Fatal(err)
		}
		c.SetReadDeadline(time.Now().Add(patience))
		events := bufio.NewReader(resp.Body)
		for {
			line, err := events.ReadString('\n')
			if err != nil {
				t.Fatalf("trace stream ended: %v", err)
			}
			if strings.HasPrefix(line, "data: ") {
				return
			}
		}
	})

	// Last, as it shuts the server down: an open SSE stream must not hold
	// Shutdown until its timeout.
	t.Run("shutdown-ends-sse", func(t *testing.T) {
		c := dial(t, addr)
		fmt.Fprint(c, "GET /diagnoses/stream HTTP/1.1\r\nHost: firstaid\r\n\r\n")
		resp, err := http.ReadResponse(bufio.NewReader(c), nil)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("diagnoses stream: %v (%v)", err, resp)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		t0 := time.Now()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown with a stream open: %v after %v", err, time.Since(t0))
		}
		c.SetReadDeadline(time.Now().Add(patience))
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatalf("stream did not end cleanly: %v", err)
		}
	})
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// untilClosed reads c until the server closes it, returning how long that
// took, or an error if c is still open after patience.
func untilClosed(c net.Conn, patience time.Duration) (time.Duration, error) {
	t0 := time.Now()
	c.SetReadDeadline(t0.Add(patience))
	// A reset counts as closed; only the client's own deadline does not.
	if _, err := io.Copy(io.Discard, c); err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return 0, err
		}
	}
	return time.Since(t0), nil
}
