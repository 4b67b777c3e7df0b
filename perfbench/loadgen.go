package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Arrival is one scheduled request: its due offset from the start of the
// phase, the JSON body to POST, and the index of its expected outcome.
type Arrival struct {
	Due  time.Duration
	Body []byte
	Ref  int
}

// Outcome is what the generator observed for one arrival.
type Outcome struct {
	Sent    bool
	Status  int           // HTTP status; 0 on a transport error
	Body    []byte        // full response body
	Latency time.Duration // due time → response fully read
	Lag     time.Duration // due time → send
}

// Phase is the result of driving one arrival schedule.
type Phase struct {
	Outcomes   []Outcome
	BacklogMax int   // most arrivals ever due but not yet sent
	Backlog    []int // due-but-unsent arrivals as each one fell due
	Abandoned  int   // arrivals never sent because the phase ran out of drain time
	MaxConns   int   // most requests ever in flight at once
}

// Generator is an open-loop HTTP load generator with due-time accounting.
//
// A dispatcher releases each arrival at its due time into a queue; a fixed
// pool of Conns workers, each holding one keep-alive connection, takes
// arrivals from the queue in order. An arrival that finds every worker busy
// waits in the queue, and that wait is charged to its latency because
// latency runs from the due time, not from the send. The generator never
// opens more connections than it has workers.
type Generator struct {
	URL    string
	Conns  int
	Client *http.Client
	// Drain bounds how long a phase waits, after its last arrival fell
	// due, for queued arrivals to be sent. Arrivals still queued then are
	// abandoned.
	Drain time.Duration
}

// NewGenerator returns a generator posting to url over at most conns
// connections.
func NewGenerator(url string, conns int, drain time.Duration) *Generator {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		MaxIdleConns:        conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	return &Generator{URL: url, Conns: conns, Client: &http.Client{Transport: tr}, Drain: drain}
}

// Close releases the generator's idle connections.
func (g *Generator) Close() { g.Client.CloseIdleConnections() }

// Run drives one schedule and returns once every sent request has been
// answered. Arrivals must be sorted by Due.
func (g *Generator) Run(ctx context.Context, arrivals []Arrival) *Phase {
	ph := &Phase{Outcomes: make([]Outcome, len(arrivals)), Backlog: make([]int, len(arrivals))}
	queue := make(chan int, len(arrivals))
	var (
		backlog  atomic.Int64 // queued, not yet taken by a worker
		inflight atomic.Int64
		maxConns atomic.Int64
		stop     atomic.Bool // set when the drain budget runs out
		wg       sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < g.Conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				backlog.Add(-1)
				if stop.Load() {
					continue
				}
				n := inflight.Add(1)
				for {
					m := maxConns.Load()
					if n <= m || maxConns.CompareAndSwap(m, n) {
						break
					}
				}
				ph.Outcomes[i] = g.send(ctx, start, arrivals[i])
				inflight.Add(-1)
			}
		}()
	}
	for i, a := range arrivals {
		if d := time.Until(start.Add(a.Due)); d > 0 {
			time.Sleep(d)
		}
		queue <- i
		b := int(backlog.Add(1))
		ph.Backlog[i] = b
		ph.BacklogMax = max(ph.BacklogMax, b)
	}
	close(queue)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(g.Drain):
		stop.Store(true)
		<-done
	}
	for _, o := range ph.Outcomes {
		if !o.Sent {
			ph.Abandoned++
		}
	}
	ph.MaxConns = int(maxConns.Load())
	return ph
}

// BacklogGrowth is the median backlog over the last third of the phase's
// arrivals minus the median over the first third: about zero while the
// server keeps up, and rising with the excess rate when it does not. The
// medians ignore a short stall that the server recovers from.
func (ph *Phase) BacklogGrowth() float64 {
	third := len(ph.Backlog) / 3
	if third == 0 {
		return 0
	}
	med := func(bs []int) float64 {
		f := make([]float64, len(bs))
		for i, b := range bs {
			f[i] = float64(b)
		}
		return median(f)
	}
	return med(ph.Backlog[len(ph.Backlog)-third:]) - med(ph.Backlog[:third])
}

// mergePhases joins the runs of one phase's schedules, in order, into one
// phase.
func mergePhases(parts []*Phase) *Phase {
	out := &Phase{}
	for _, ph := range parts {
		out.Outcomes = append(out.Outcomes, ph.Outcomes...)
		out.Backlog = append(out.Backlog, ph.Backlog...)
		out.BacklogMax = max(out.BacklogMax, ph.BacklogMax)
		out.Abandoned += ph.Abandoned
		out.MaxConns = max(out.MaxConns, ph.MaxConns)
	}
	return out
}

func (g *Generator) send(ctx context.Context, start time.Time, a Arrival) Outcome {
	due := start.Add(a.Due)
	sent := time.Now()
	o := Outcome{Sent: true, Lag: sent.Sub(due)}
	if o.Lag < 0 {
		o.Lag = 0
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.URL, bytes.NewReader(a.Body))
	if err == nil {
		req.Header.Set("Content-Type", "application/json")
		var resp *http.Response
		if resp, err = g.Client.Do(req); err == nil {
			o.Body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil {
				o.Status = resp.StatusCode
			}
		}
	}
	o.Latency = time.Since(due)
	return o
}

// Schedule spaces n arrivals evenly at rate per second starting at offset 0.
// The bodies come from body(i), which also names each arrival's reference.
func Schedule(rate float64, n int, body func(i int) ([]byte, int)) []Arrival {
	out := make([]Arrival, n)
	interval := float64(time.Second) / rate
	for i := range out {
		b, ref := body(i)
		out[i] = Arrival{Due: time.Duration(float64(i) * interval), Body: b, Ref: ref}
	}
	return out
}
