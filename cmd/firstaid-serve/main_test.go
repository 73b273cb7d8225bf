package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"firstaid/internal/apps"
	"firstaid/internal/fleet"
	"firstaid/internal/patch"
	"firstaid/internal/replay"
)

var (
	listenLine = regexp.MustCompile(`on http://(\S+) `)
	fleetLine  = regexp.MustCompile(`(?m)^fleet: \d+ request\(s\) across 2 worker\(s\); rerouted 0, blocked 0$`)
	coreLine   = regexp.MustCompile(`(?m)^core: failures 0, recoveries 0, skipped 0, patches made 0, active patches 0$`)
)

// TestSIGTERMRightAfterReady launches the server repeatedly and sends
// SIGTERM the moment /healthz first reports ready. A server that answers
// ready before its signal handler is installed dies on such a SIGTERM
// without draining; this one must exit 0 and print its shutdown report
// every time.
func TestSIGTERMRightAfterReady(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "firstaid-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building firstaid-serve: %v\n%s", err, out)
	}
	for i := 0; i < 20; i++ {
		launchAndStop(t, bin, i)
	}
}

func launchAndStop(t *testing.T, bin string, launch int) {
	t.Helper()
	cmd := exec.Command(bin, "-app", "apache", "-addr", "127.0.0.1:0", "-workers", "2")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := false
	defer func() {
		if !exited {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	br := bufio.NewReader(pipe)
	line, err := br.ReadString('\n')
	m := listenLine.FindStringSubmatch(line)
	if err != nil || m == nil {
		t.Fatalf("launch %d: no listen line (%q): %v; stderr: %s", launch, line, err, stderr.String())
	}
	rest := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(br)
		rest <- string(b)
	}()

	client := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for !ready(client, "http://"+m[1]) {
		if time.Now().After(deadline) {
			t.Fatalf("launch %d: not ready after 10s", launch)
		}
		time.Sleep(100 * time.Microsecond)
	}
	client.CloseIdleConnections()
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	var out string
	select {
	case out = <-rest:
	case <-time.After(30 * time.Second):
		t.Fatalf("launch %d: no exit within 30s of SIGTERM", launch)
	}
	err = cmd.Wait()
	exited = true
	if err != nil {
		t.Fatalf("launch %d: SIGTERM right after ready: %v; stdout:\n%s\nstderr: %s", launch, err, out, stderr.String())
	}
	if !fleetLine.MatchString(out) || !coreLine.MatchString(out) {
		t.Fatalf("launch %d: missing fleet:/core: shutdown lines in:\n%s", launch, out)
	}
}

// TestPatchesSurviveSIGKILL serves apache with -pool, triggers its bug,
// waits for the learned patch to reach the pool file, kills the server
// with SIGKILL — no shutdown, no final save — and restarts it on the same
// file. Replaying the same events, trigger included, must then fail
// nowhere: the patch outlived the crash.
func TestPatchesSurviveSIGKILL(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "firstaid-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building firstaid-serve: %v\n%s", err, out)
	}
	poolPath := filepath.Join(t.TempDir(), "apache.json")
	a, err := apps.New("apache")
	if err != nil {
		t.Fatal(err)
	}
	log := a.Workload(400, []int{110})
	var events []replay.Event
	for i := 0; i < log.Len(); i++ {
		events = append(events, log.At(i))
	}

	first := startServe(t, bin, "-app", "apache", "-addr", "127.0.0.1:0", "-workers", "1", "-pool", poolPath)
	if failed := first.post(t, events); failed == 0 {
		t.Fatal("the trigger did not fail on a server without patches")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if pool, err := patch.LoadFile(poolPath); err == nil && len(pool.Active()) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no patch in the pool file 10s after the failure")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := first.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	first.cmd.Wait()

	second := startServe(t, bin, "-app", "apache", "-addr", "127.0.0.1:0", "-workers", "1", "-pool", poolPath)
	if !strings.HasPrefix(second.head, "loaded ") {
		t.Fatalf("restart did not load the pool: %q", second.head)
	}
	if failed := second.post(t, events); failed != 0 {
		t.Fatalf("%d event(s) failed after the restart; the patch did not survive SIGKILL", failed)
	}
	out := second.stop(t)
	if !regexp.MustCompile(`(?m)^core: failures 0, recoveries 0, `).MatchString(out) {
		t.Fatalf("restarted server recovered from failures:\n%s", out)
	}
}

// served is a firstaid-serve subprocess started by startServe.
type served struct {
	cmd    *exec.Cmd
	base   string
	head   string // stdout before the listen line
	rest   chan string
	stderr *bytes.Buffer
	client *http.Client
}

// startServe runs bin with args and waits until /healthz reports ready.
// The process is killed when the test ends unless stop reaped it.
func startServe(t *testing.T, bin string, args ...string) *served {
	t.Helper()
	s := &served{cmd: exec.Command(bin, args...), rest: make(chan string, 1), stderr: &bytes.Buffer{},
		client: &http.Client{Timeout: 10 * time.Second}}
	s.cmd.Stderr = s.stderr
	pipe, err := s.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if s.cmd.ProcessState == nil {
			s.cmd.Process.Kill()
			s.cmd.Wait()
		}
	})
	br := bufio.NewReader(pipe)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("no listen line: %v; stdout %q; stderr: %s", err, s.head, s.stderr.String())
		}
		if m := listenLine.FindStringSubmatch(line); m != nil {
			s.base = "http://" + m[1]
			break
		}
		s.head += line
	}
	go func() {
		b, _ := io.ReadAll(br)
		s.rest <- string(b)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for !ready(s.client, s.base) {
		if time.Now().After(deadline) {
			t.Fatal("server not ready after 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return s
}

// post sends events one JSON request at a time from one source and
// returns how many the server reported failed.
func (s *served) post(t *testing.T, events []replay.Event) (failed int) {
	t.Helper()
	for _, ev := range events {
		body, _ := json.Marshal(fleet.Request{Kind: ev.Kind, Data: ev.Data, N: ev.N, Src: "c0"})
		resp, err := s.client.Post(s.base+"/events", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("event %d: %v", ev.Seq, err)
		}
		var res fleet.Result
		err = json.NewDecoder(resp.Body).Decode(&res)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("event %d: status %d, %v", ev.Seq, resp.StatusCode, err)
		}
		if res.Failed {
			failed++
		}
	}
	return failed
}

// stop sends SIGTERM and returns the rest of the server's stdout.
func (s *served) stop(t *testing.T) string {
	t.Helper()
	s.client.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var out string
	select {
	case out = <-s.rest:
	case <-time.After(30 * time.Second):
		t.Fatal("no exit within 30s of SIGTERM")
	}
	if err := s.cmd.Wait(); err != nil {
		t.Fatalf("exit after SIGTERM: %v; stderr: %s", err, s.stderr.String())
	}
	return out
}

func ready(c *http.Client, base string) bool {
	resp, err := c.Get(base + "/healthz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var h struct {
		Ready bool `json:"ready"`
	}
	return json.NewDecoder(resp.Body).Decode(&h) == nil && h.Ready
}
