package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// client is one keep-alive connection to the control site. Each has its
// own transport, so the number of clients is the number of connections.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer // reused response buffer: answers reach several MB
}

const opTimeout = 30 * time.Second

func newClient(addr string) *client {
	return &client{
		base: "http://" + addr,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole body into the client's
// buffer, returning it with the latency up to the last byte.
func (c *client) do(ctx context.Context, method, path, body string) ([]byte, time.Duration, error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, strings.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != 200 {
		return nil, 0, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(c.buf.Bytes()))
	}
	return c.buf.Bytes(), lat, nil
}

// checker verifies one answer; it runs after the latency was taken, on
// the client's goroutine.
type checker interface {
	check(o op, body []byte, sent, got time.Time) error
}

// oracleChecker compares answers with the reference evaluator's. A body
// whose checksum already verified for the same query is accepted without
// being parsed again, which keeps the load generator's CPU share low on
// multi-megabyte answers; any other body is parsed in full.
type oracleChecker struct {
	queries []query
	want    []answer
	mu      sync.Mutex
	good    []bodySum
}

type bodySum struct {
	n   int
	crc uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func (oc *oracleChecker) check(o op, body []byte, _, _ time.Time) error {
	sum := bodySum{len(body), crc32.Checksum(body, castagnoli)}
	oc.mu.Lock()
	known := oc.good[o.key] == sum
	oc.mu.Unlock()
	if known {
		return nil
	}
	res, err := readResult(body, oc.queries[o.key].sel, false)
	if err != nil {
		return fmt.Errorf("%s: %w", o.template, err)
	}
	if res.partial {
		return fmt.Errorf("%s: answer flagged partial", o.template)
	}
	if want := oc.want[o.key]; res.answer != want {
		return fmt.Errorf("%s: got %d rows (hash %016x), oracle has %d (hash %016x): %s",
			o.template, res.rows, res.hash, want.rows, want.hash, o.text)
	}
	oc.mu.Lock()
	oc.good[o.key] = sum
	oc.mu.Unlock()
	return nil
}

// newOracleChecker parses and answers every distinct query of ops,
// assigning each op its key.
func newOracleChecker(st *store, ops []op) (*oracleChecker, error) {
	oc := &oracleChecker{}
	keys := map[string]int{}
	for i := range ops {
		if ops[i].template == pointReadTemplate {
			continue // checked against the writer's progress, not the data file
		}
		k, ok := keys[ops[i].text]
		if !ok {
			q, err := parseQuery(ops[i].text)
			if err != nil {
				return nil, err
			}
			k = len(oc.queries)
			keys[ops[i].text] = k
			oc.queries = append(oc.queries, q)
			oc.want = append(oc.want, st.eval(q))
		}
		ops[i].key = k
	}
	oc.good = make([]bodySum, len(oc.queries))
	return oc, nil
}

// phase is what one closed-loop phase (warm-up or measured) observed.
type phase struct {
	samples   []sample // ops of completed cycles only
	cycles    int      // completed cycles
	attempted int
	failed    int
	firstErr  error
	wallS     float64
	nextIndex int64 // where the op sequence continues
}

// driveClosed runs the op sequence in a closed loop: each client sends
// its next query when its previous answer has been read and checked.
// Clients draw op indexes from one counter, so the sequence — and the
// mix inside every cycle of cycleLen ops — is the same whatever their
// number. The phase ends at the first cycle boundary at which at least
// minCycles are complete and the elapsed time is within half a cycle of
// seconds.
func driveClosed(ctx context.Context, clients []*client, ops []op, cycleLen int, from int64, minCycles int, seconds float64, chk checker) phase {
	var (
		next   atomic.Int64
		stopAt atomic.Int64
		mu     sync.Mutex
		ph     phase
		wg     sync.WaitGroup
	)
	stopAt.Store(math.MaxInt64)
	t0 := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			attempted, failed := 0, 0
			var firstErr error
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if i%int64(cycleLen) == 0 {
					done := int(i / int64(cycleLen))
					el := time.Since(t0).Seconds()
					if done >= minCycles && done > 0 && el+el/float64(done)/2 >= seconds {
						stopAt.CompareAndSwap(math.MaxInt64, i)
					}
				}
				if i >= stopAt.Load() {
					break
				}
				o := ops[(from+i)%int64(len(ops))]
				attempted++
				sent := time.Now()
				body, lat, err := c.do(ctx, "POST", "/query", o.text)
				if err == nil {
					err = chk.check(o, body, sent, sent.Add(lat))
				}
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				mine = append(mine, sample{
					cycle: int(i / int64(cycleLen)), template: o.template,
					start: sent.Sub(t0).Seconds(), latMS: float64(lat) / float64(time.Millisecond),
				})
			}
			mu.Lock()
			ph.samples = append(ph.samples, mine...)
			ph.attempted += attempted
			ph.failed += failed
			if ph.firstErr == nil {
				ph.firstErr = firstErr
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	ph.wallS = time.Since(t0).Seconds()
	end := stopAt.Load()
	if end == math.MaxInt64 { // cancelled
		end = next.Load()
	}
	ph.cycles = int(end / int64(cycleLen))
	ph.nextIndex = from + int64(ph.cycles)*int64(cycleLen)
	kept := ph.samples[:0]
	for _, s := range ph.samples {
		if s.cycle < ph.cycles {
			kept = append(kept, s)
		}
	}
	ph.samples = kept
	return ph
}

// stallMonitor measures how far a 1 ms ticker oversleeps: time the host
// (or its scheduler) took away from the load generator. Oversleep
// beyond 5 ms is summed.
type stallMonitor struct {
	stop    chan struct{}
	done    chan struct{}
	stallMS float64
}

func startStallMonitor() *stallMonitor {
	m := &stallMonitor{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		last := time.Now()
		for {
			select {
			case <-m.stop:
				return
			case now := <-tick.C:
				if over := now.Sub(last) - time.Millisecond; over > 5*time.Millisecond {
					m.stallMS += float64(over) / float64(time.Millisecond)
				}
				last = now
			}
		}
	}()
	return m
}

// end stops the monitor and returns the summed stalls in milliseconds.
func (m *stallMonitor) end() float64 {
	close(m.stop)
	<-m.done
	return m.stallMS
}

// calibrate times two fixed CPU kernels, one arithmetic and one that
// misses the cache: a run whose host was slower than usual is
// recognisable by these figures in its own output.
func calibrate() (aluMS, memMS float64) {
	x := uint64(88172645463325252)
	step := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	t0 := time.Now()
	var acc uint64
	for i := 0; i < 20_000_000; i++ {
		acc += step() & 0xff
	}
	t1 := time.Now()
	for i := 0; i < 4_000_000; i++ {
		acc += uint64(calibTable[step()%uint64(len(calibTable))])
	}
	t2 := time.Now()
	calibSink = acc
	return float64(t1.Sub(t0)) / float64(time.Millisecond), float64(t2.Sub(t1)) / float64(time.Millisecond)
}

var (
	calibTable = make([]uint32, 8<<20) // 32 MB: larger than the last-level cache
	calibSink  uint64                  // keeps the kernels' results live
)
