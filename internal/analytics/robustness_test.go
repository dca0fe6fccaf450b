package analytics

import (
	"net"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"cloudgraph/internal/core"
	"cloudgraph/internal/realm"
	"cloudgraph/internal/telemetry"
)

func TestServerStalledConnTimesOut(t *testing.T) {
	reg := telemetry.NewRegistry()
	s, _ := serve(t, realm.Config{Engine: core.Config{Window: time.Hour}, Telemetry: reg},
		Options{IdleTimeout: 50 * time.Millisecond})

	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send half a command and stall: the server must cut us off at the
	// idle deadline rather than wait forever for the newline.
	if _, err := conn.Write([]byte("STA")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var buf [1]byte
	if _, err := conn.Read(buf[:]); err == nil {
		t.Fatal("read returned data; want connection closed by idle deadline")
	}

	deadline := time.Now().Add(5 * time.Second)
	for s.tel.timeouts.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.tel.timeouts.Value(); got != 1 {
		t.Errorf("timeout counter = %d, want 1", got)
	}
	if got := s.tel.conns.Value(); got != 1 {
		t.Errorf("connections counter = %d, want 1", got)
	}
}

func TestServerCloseUnblocksStalledConn(t *testing.T) {
	// The leak scenario: with default (minutes-long) deadlines a stalled
	// peer would pin its handler goroutine long past Close unless Close
	// force-closes tracked connections. Close must return promptly and
	// leave no handler goroutines behind.
	before := runtime.NumGoroutine()

	s, m := serve(t, realm.Config{Engine: core.Config{Window: time.Hour}}, Options{})
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("STATS")); err != nil { // no newline: stalled mid-command
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked on a stalled connection")
	}
	// The manager owns the engine's bus goroutines; stop them too so only
	// a leaked handler could keep the count up.
	m.Close()

	// All accept/handler goroutines must be gone once Close returns.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		buf := make([]byte, 1<<20)
		t.Errorf("goroutines leaked: %d -> %d\n%s", before, got, buf[:runtime.Stack(buf, true)])
	}
}

func TestGraphzHandler(t *testing.T) {
	e := core.NewEngine(core.Config{Window: time.Hour})
	h := GraphzHandler(e)

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/graphz", nil))
	if rr.Code != 404 {
		t.Errorf("empty engine: status = %d, want 404", rr.Code)
	}

	e.Ingest(hourOf(t, testCluster(t), t0))
	e.Flush()

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/graphz?size=16", nil))
	if rr.Code != 200 {
		t.Fatalf("status = %d, want 200", rr.Code)
	}
	body := rr.Body.String()
	if !strings.Contains(body, "nodes") || len(strings.Split(body, "\n")) < 3 {
		t.Errorf("ascii heatmap missing header or rows:\n%s", body)
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/graphz?format=pgm", nil))
	if rr.Code != 200 || !strings.HasPrefix(rr.Body.String(), "P5\n") {
		t.Errorf("pgm: status = %d, body prefix %q", rr.Code, rr.Body.String()[:8])
	}

	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/graphz?size=9999", nil))
	if rr.Code != 400 {
		t.Errorf("oversized size: status = %d, want 400", rr.Code)
	}
}
