package main

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"
)

// stallServer answers every request instantly, except that requests
// arriving before release wait for it.
type stallServer struct {
	*httptest.Server
	mu            sync.Mutex
	open, maxOpen int
	once          sync.Once
	releaseAt     time.Time
	released      chan struct{}
	stalled       chan struct{} // closed once releaseAt is set
}

func newStallServer(stall time.Duration) *stallServer {
	s := &stallServer{released: make(chan struct{}), stalled: make(chan struct{})}
	s.Server = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.once.Do(func() {
			s.releaseAt = time.Now().Add(stall)
			close(s.stalled)
			time.AfterFunc(stall, func() { close(s.released) })
		})
		<-s.released
		w.Write([]byte(`{"result":"1"}`))
	}))
	s.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		s.mu.Lock()
		defer s.mu.Unlock()
		switch st {
		case http.StateNew:
			s.open++
			s.maxOpen = max(s.maxOpen, s.open)
		case http.StateClosed, http.StateHijacked:
			s.open--
		}
	}
	s.Start()
	return s
}

func TestGeneratorChargesStallToQueuedArrivals(t *testing.T) {
	const (
		stall = 200 * time.Millisecond
		rate  = 100.0 // one arrival every 10ms
		n     = 50
	)
	srv := newStallServer(stall)
	defer srv.Close()
	conns := runtime.NumCPU()
	gen := NewGenerator(srv.URL, conns, 5*time.Second)
	defer gen.Close()
	arrivals := Schedule(rate, n, func(int) ([]byte, int) { return []byte(`{}`), 0 })
	start := time.Now()
	ph := gen.Run(context.Background(), arrivals)
	<-srv.stalled
	releaseOffset := srv.releaseAt.Sub(start)

	// Every arrival that fell due before the stall ended waited for it,
	// and its latency from the due time must say so.
	queued := 0
	for i, o := range ph.Outcomes {
		if !o.Sent || o.Status != http.StatusOK {
			t.Fatalf("arrival %d: sent=%v status=%d", i, o.Sent, o.Status)
		}
		due := arrivals[i].Due
		if due >= releaseOffset {
			continue
		}
		queued++
		if want := releaseOffset - due - 2*time.Millisecond; o.Latency < want {
			t.Errorf("arrival %d due at %v: latency %v does not include the stall (want >= %v)", i, due, o.Latency, want)
		}
	}
	if queued < int(stall.Seconds()*rate)-2 {
		t.Fatalf("only %d arrivals fell due during the stall", queued)
	}

	// The generator's own validity figures report the stall.
	var lags []float64
	for _, o := range ph.Outcomes {
		lags = append(lags, ms(o.Lag))
	}
	if lagP99 := quantile(lags, 0.99); lagP99 < ms(stall)/2 {
		t.Errorf("lag p99 = %.1fms, want it to show the %v stall", lagP99, stall)
	}
	if minBacklog := int(stall.Seconds()*rate) - conns - 3; ph.BacklogMax < minBacklog {
		t.Errorf("backlog max = %d, want >= %d during the stall", ph.BacklogMax, minBacklog)
	}

	// Never more connections than nproc, from either side.
	if ph.MaxConns > conns {
		t.Errorf("generator had %d requests in flight, more than %d", ph.MaxConns, conns)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.maxOpen > conns {
		t.Errorf("server saw %d open connections, more than nproc = %d", srv.maxOpen, conns)
	}
}

func TestGeneratorAbandonsAfterDrainBudget(t *testing.T) {
	srv := newStallServer(time.Second)
	defer srv.Close()
	gen := NewGenerator(srv.URL, 1, 100*time.Millisecond)
	defer gen.Close()
	arrivals := Schedule(100, 10, func(int) ([]byte, int) { return []byte(`{}`), 0 })
	ph := gen.Run(context.Background(), arrivals)
	if ph.Abandoned == 0 {
		t.Fatalf("no arrival was abandoned although the server stalled past the drain budget")
	}
	if ph.Outcomes[0].Latency < time.Second-10*time.Millisecond {
		t.Errorf("the in-flight request's latency %v misses the stall", ph.Outcomes[0].Latency)
	}
}
