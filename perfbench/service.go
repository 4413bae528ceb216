package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"dorado/internal/fleet"
	"dorado/internal/store"
)

// This file is the service workload: an in-process fleet (default
// GOMAXPROCS workers) with a durable store, served over loopback HTTP and
// driven by a closed-loop client. One lifecycle creates a session, boots a
// generated Mesa source, runs it to its halt, reads the result, parks the
// session into the store, reads it again (a revive), forks a new session
// from the parked snapshot, and destroys both. Every result is checked.

// svcClients is one: on the 2-CPU host the benchmark is tuned on, a second
// client loads the other CPU (a hyperthread sibling) while the first one's
// revive or run is timed, as often or as rarely as the two line up.
const svcClients = 1

// svcPrograms is how many of the seed's programs the lifecycles cycle
// through: with the three flavours, 12 distinct lifecycles, each repeated
// about 40 times in a 30-second run.
const svcPrograms = 4

// pollEvery spaces the polls of a run's status. Polling faster would take
// CPU from the fleet worker that runs the simulation.
const pollEvery = time.Millisecond

// runWaitShare is the share of a lifecycle's best run time so far that the
// client sleeps before its first poll, so that it does not poll, and load
// the other CPU, all through the run it is timing.
const runWaitShare = 0.8

// svcRunCycles is the run request's budget; every generated program halts
// well inside it.
const svcRunCycles = 5_000_000

// Session flavours, rotated per lifecycle: the mcps metrics of the service
// come from each flavour's runs.
var svcFlavours = [numConfigs]string{
	cfgDefault:    `{"language":"mesa"}`,
	cfgTranslated: `{"language":"mesa","translation":true}`,
	cfgProbed:     `{"language":"mesa","metrics":true,"profile":true}`,
}

// service is one running fleet behind an HTTP listener.
type service struct {
	dir  string
	mgr  *fleet.Manager
	http *http.Server
	base string
	done chan struct{}
}

func startService() (*service, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "service-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &service{dir: dir, mgr: fleet.New(fleet.Config{Store: st}), base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	s.http = &http.Server{Handler: fleet.NewServer(s.mgr)}
	go func() {
		defer close(s.done)
		s.http.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	}()
	return s, nil
}

// stop shuts the listener and the fleet down, waits for both, and removes
// the store.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	<-s.done
	if derr := s.mgr.Drain(ctx); err == nil {
		err = derr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// client is one closed-loop caller with its own connection pool.
type client struct {
	base   string
	hc     *http.Client
	tr     *tracer
	parent int // the lifecycle this client's spans belong to
	// runWait is how long the next lifecycle sleeps before it first polls
	// its run.
	runWait time.Duration

	requests int
	// syncMS and syncN add up the boot and state requests, each of which
	// is one fleet operation end to end (http.self_ms).
	syncMS float64
	syncN  int
}

func newClient(base string, tr *tracer) *client {
	return &client{base: base, tr: tr, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}}
}

// call sends one request and decodes a JSON answer into out (when not
// nil). It returns the status code; a status other than want is an error.
func (c *client) call(method, path, body string, want int, out any) (int, time.Duration, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	s := c.tr.begin()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := c.tr.endIn(s, "http."+method+" "+route(path), c.parent)
	c.requests++
	if err != nil {
		return 0, d, err
	}
	if resp.StatusCode != want {
		return resp.StatusCode, d, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if raw, ok := out.(*[]byte); ok {
			*raw = data
		} else if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, d, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, d, nil
}

// route replaces the ids in a path with {id}, for span names.
func route(path string) string {
	parts := strings.Split(path, "/")
	for i := 1; i < len(parts); i++ {
		switch parts[i-1] {
		case "sessions", "runs", "snapshots":
			parts[i] = "{id}"
		}
	}
	return strings.Join(parts, "/")
}

// lcBest is the fastest repetition, in ms, of each step of one distinct
// lifecycle, and the cycles its run simulates.
type lcBest struct {
	flavour                  int
	run, park, revive, total float64
	cycles                   uint64
}

// lifecycleResult is what one lifecycle measured.
type lifecycleResult struct {
	run, park, revive time.Duration
	cycles, executed  uint64
	busyRetries       int
}

// lifecycle runs one session through its whole life and checks every
// result against p.Want. On error it still destroys what it created.
func (c *client) lifecycle(p mesaProgram, flavour int) (lr lifecycleResult, err error) {
	var created []string
	defer func() {
		for _, id := range created {
			if _, _, derr := c.call("DELETE", "/v1/sessions/"+id, "", http.StatusOK, nil); err == nil {
				err = derr
			}
		}
	}()
	var cr struct{ ID string }
	if _, _, err := c.call("POST", "/v1/sessions", svcFlavours[flavour], http.StatusCreated, &cr); err != nil {
		return lr, err
	}
	created = append(created, cr.ID)
	sess := "/v1/sessions/" + cr.ID
	src, err := json.Marshal(map[string]string{"source": p.Source})
	if err != nil {
		return lr, err
	}
	_, d, err := c.call("POST", sess+"/boot", string(src), http.StatusOK, nil)
	if err != nil {
		return lr, err
	}
	c.syncMS, c.syncN = c.syncMS+ms(d), c.syncN+1

	var rv fleet.RunView
	if _, _, err := c.call("POST", sess+"/runs", fmt.Sprintf(`{"cycles":%d}`, svcRunCycles), http.StatusAccepted, &rv); err != nil {
		return lr, err
	}
	for wait := max(c.runWait, pollEvery); rv.Status == fleet.RunQueued || rv.Status == fleet.RunRunning; wait = pollEvery {
		time.Sleep(wait)
		if _, _, err := c.call("GET", sess+"/runs/"+rv.ID, "", http.StatusOK, &rv); err != nil {
			return lr, err
		}
	}
	if rv.Status != fleet.RunDone || rv.Result == nil || !rv.Result.Halted || rv.Finished == nil {
		return lr, fmt.Errorf("run %s ended %s (%s) without a halt", rv.ID, rv.Status, rv.Error)
	}
	// The run's own submitted-to-finished time: the client only learns of
	// the finish at its next poll, which would add up to pollEvery.
	lr.run = rv.Finished.Sub(rv.Submitted)
	lr.cycles = rv.Result.Ran

	st, err := c.state(sess, p.Want)
	if err != nil {
		return lr, err
	}
	lr.executed = st.Executed

	t0 := time.Now()
	var pr fleet.ParkResult
	for {
		code, _, err := c.call("POST", sess+"/park", "", http.StatusOK, &pr)
		if code == http.StatusConflict {
			lr.busyRetries++
			time.Sleep(time.Millisecond)
			continue
		}
		if err != nil {
			return lr, err
		}
		break
	}
	lr.park = time.Since(t0)
	var blob []byte
	if _, _, err := c.call("GET", "/v1/snapshots/"+pr.Snapshot, "", http.StatusOK, &blob); err != nil {
		return lr, err
	}
	if sum := sha256.Sum256(blob); hex.EncodeToString(sum[:]) != pr.Snapshot {
		return lr, fmt.Errorf("park hash %s is not the SHA-256 of the stored snapshot", pr.Snapshot)
	}

	t0 = time.Now()
	st, err = c.state(sess, p.Want)
	lr.revive = time.Since(t0)
	if err != nil {
		return lr, err
	}
	if !st.Parked {
		return lr, errors.New("read after park did not revive a parked session")
	}

	var fr struct{ ID string }
	if _, _, err := c.call("POST", "/v1/sessions", `{"from":"`+pr.Snapshot+`"}`, http.StatusCreated, &fr); err != nil {
		return lr, err
	}
	created = append(created, fr.ID)
	if _, err := c.state("/v1/sessions/"+fr.ID, p.Want); err != nil {
		return lr, fmt.Errorf("fork: %w", err)
	}
	return lr, nil
}

// state reads a session and checks it halted with want alone on the stack.
func (c *client) state(sess string, want uint16) (fleet.State, error) {
	var st fleet.State
	_, d, err := c.call("GET", sess, "", http.StatusOK, &st)
	if err != nil {
		return st, err
	}
	c.syncMS, c.syncN = c.syncMS+ms(d), c.syncN+1
	if !st.Halted || len(st.Stack) != 1 || st.Stack[0] != want {
		return st, fmt.Errorf("%s: halted=%v stack=%v, want [%d]", sess, st.Halted, st.Stack, want)
	}
	return st, nil
}

// scrape reads the fleet's op-latency histogram sums and counts from
// /metrics, keyed like `dorado_fleet_op_queue_us_sum{op="run"}`.
func scrape(c *client) (map[string]float64, error) {
	var body []byte
	if _, _, err := c.call("GET", "/metrics", "", http.StatusOK, &body); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "dorado_fleet_op_") {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok || !(strings.Contains(key, "_sum{") || strings.Contains(key, "_count{")) {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[key] = v
	}
	return out, sc.Err()
}

// svcStats accumulates measured lifecycles from all clients.
type svcStats struct {
	mu                 sync.Mutex
	clients            int
	lifecycles, failed int
	// best holds each distinct lifecycle's fastest repetition of each
	// step; lifecycle n is distinct lifecycle n mod len(progs)*numConfigs
	// (its program and flavour).
	best             map[int]lcBest
	cycles, executed uint64
	busyRetries      int
	requests         int
	syncMS           float64
	syncN            int
	before, after    map[string]float64
}

// measureService runs clients closed-loop lifecycles against s: each
// client first runs one untimed lifecycle per flavour, then lifecycles
// until dur has passed.
func measureService(s *service, progs []mesaProgram, clients int, dur time.Duration, tr *tracer) (*svcStats, error) {
	st := &svcStats{clients: clients, best: map[int]lcBest{}}
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient(s.base, tr)
		for f := 0; f < numConfigs; f++ {
			if _, err := cs[i].lifecycle(progs[f%len(progs)], f); err != nil {
				return nil, fmt.Errorf("warm-up lifecycle: %w", err)
			}
		}
		cs[i].requests, cs[i].syncMS, cs[i].syncN = 0, 0, 0
	}
	var err error
	if st.before, err = scrape(cs[0]); err != nil {
		return nil, err
	}
	cs[0].requests = 0
	var next int // lifecycle sequence number, shared by the clients
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for time.Since(start) < dur {
				st.mu.Lock()
				n := next
				next++
				st.mu.Unlock()
				flavour := n % numConfigs
				id := n % (len(progs) * numConfigs)
				c.parent = n
				c.runWait = time.Duration(runWaitShare * st.bestRun(id) * float64(time.Millisecond))
				t0 := time.Now()
				lr, err := c.lifecycle(progs[n%len(progs)], flavour)
				total := ms(time.Since(t0))
				st.mu.Lock()
				st.lifecycles++
				if err != nil {
					st.failed++
					fmt.Fprintln(os.Stderr, "perfbench: lifecycle:", err)
				} else {
					b, seen := st.best[id]
					if !seen {
						b = lcBest{flavour: flavour, run: ms(lr.run), park: ms(lr.park), revive: ms(lr.revive), total: total, cycles: lr.cycles}
					}
					b.run, b.park = min(b.run, ms(lr.run)), min(b.park, ms(lr.park))
					b.revive, b.total = min(b.revive, ms(lr.revive)), min(b.total, total)
					st.best[id] = b
					st.cycles += lr.cycles
					st.executed += lr.executed
					st.busyRetries += lr.busyRetries
				}
				st.mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	for _, c := range cs {
		st.requests += c.requests
		st.syncMS += c.syncMS
		st.syncN += c.syncN
	}
	if st.after, err = scrape(cs[0]); err != nil {
		return nil, err
	}
	return st, nil
}

// bestRun is the fastest run, in ms, of distinct lifecycle id so far, or 0.
func (st *svcStats) bestRun(id int) float64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.best[id].run
}

// e2e returns the service's end-to-end metrics over each distinct
// lifecycle's fastest repetitions, for the reason simStats.e2e gives: the
// host alternates between two speeds, and every distinct lifecycle repeats
// often enough to meet the faster one. ops_per_s is the closed loop's
// throughput at those latencies: clients over the mean best lifecycle.
func (st *svcStats) e2e() map[string]float64 {
	var run, park, revive []float64
	var total float64
	var cycles, runMS [numConfigs]float64
	for _, b := range st.best {
		run, park, revive = append(run, b.run), append(park, b.park), append(revive, b.revive)
		total += b.total
		cycles[b.flavour] += float64(b.cycles)
		runMS[b.flavour] += b.run
	}
	return map[string]float64{
		"ops_per_s":         1e3 * float64(st.clients*len(st.best)) / total,
		"mcps":              cycles[cfgDefault] / runMS[cfgDefault] / 1e3,
		"mcps_translated":   cycles[cfgTranslated] / runMS[cfgTranslated] / 1e3,
		"mcps_probed":       cycles[cfgProbed] / runMS[cfgProbed] / 1e3,
		"sim_cycles_per_op": ratio(float64(st.cycles), float64(st.executed)),
		"run_p50_ms":        percentile(run, 50),
		"run_p90_ms":        percentile(run, 90),
		"park_p50_ms":       percentile(park, 50),
		"park_p90_ms":       percentile(park, 90),
		"revive_p50_ms":     percentile(revive, 50),
		"revive_p90_ms":     percentile(revive, 90),
	}
}

// layers returns the fleet and http metrics: per-op queue wait and service
// time from the /metrics deltas, and the HTTP layer's own time as the
// boot and state requests' latency minus their operations' queue wait and
// service time.
func (st *svcStats) layers() map[string]float64 {
	out := map[string]float64{
		"fleet.busy_retries_per_lifecycle": ratio(float64(st.busyRetries), float64(st.lifecycles)),
		"http.requests_per_lifecycle":      ratio(float64(st.requests), float64(st.lifecycles)),
	}
	delta := func(k string) float64 { return st.after[k] - st.before[k] }
	var opUS float64
	for _, op := range []string{"boot", "run", "state"} {
		for _, part := range []string{"queue", "service"} {
			label := `{op="` + op + `"}`
			sum, n := delta("dorado_fleet_op_"+part+"_us_sum"+label), delta("dorado_fleet_op_"+part+"_us_count"+label)
			out["fleet."+part+"_ms."+op] = ratio(sum, n) / 1e3
			if op != "run" {
				opUS += sum
			}
		}
	}
	out["http.self_ms"] = ratio(st.syncMS-opUS/1e3, float64(st.syncN))
	return out
}

// setupService generates the inputs, opens a store, starts the fleet and
// its server, and builds one session of each flavour; it returns the
// running service and the seconds that took.
func setupService(seed int64) (*service, inputs, float64, error) {
	t0 := time.Now()
	in := generate(seed, svcIters)
	s, err := startService()
	if err != nil {
		return nil, in, 0, err
	}
	c := newClient(s.base, nil)
	for _, body := range svcFlavours {
		var cr struct{ ID string }
		if _, _, err = c.call("POST", "/v1/sessions", body, http.StatusCreated, &cr); err != nil {
			break
		}
		if _, _, err = c.call("DELETE", "/v1/sessions/"+cr.ID, "", http.StatusOK, nil); err != nil {
			break
		}
	}
	secs := time.Since(t0).Seconds()
	if err != nil {
		s.stop() //nolint:errcheck // already failing
		return nil, in, 0, err
	}
	return s, in, secs, nil
}

// serviceWorkload sets the service up setupReps times (keeping the last,
// stopping the others) and measures it.
func serviceWorkload(seed int64, dur time.Duration, clients int, tr *tracer) (outcome, error) {
	var svc *service
	var in inputs
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if svc != nil {
			if err := svc.stop(); err != nil {
				return outcome{}, err
			}
		}
		s, gen, secs, err := setupService(seed)
		if err != nil {
			return outcome{}, err
		}
		svc, in = s, gen
		setups = append(setups, secs)
	}
	st, err := measureService(svc, in.Programs[:svcPrograms], clients, dur, tr)
	if serr := svc.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return outcome{}, err
	}
	o := outcome{attempted: st.lifecycles, failed: st.failed, setups: setups, e2e: st.e2e(), layers: st.layers()}
	if tr != nil {
		o.traced = func() (map[string]float64, error) {
			m, err := bootedMachine(in.Programs[0])
			if err != nil {
				return nil, err
			}
			return layerTimers(in, m, tr)
		}
	}
	return o, nil
}

// serviceLayers measures the fleet and http layers for the simulation
// workloads' traced runs: a short single-client service run on the seed's
// service inputs.
func serviceLayers(seed int64) (map[string]float64, error) {
	in := generate(seed, svcIters)
	s, err := startService()
	if err != nil {
		return nil, err
	}
	st, err := measureService(s, in.Programs[:svcPrograms], 1, 2*time.Second, nil)
	if serr := s.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	if st.failed > 0 {
		return nil, fmt.Errorf("service layer sample: %d of %d lifecycles failed", st.failed, st.lifecycles)
	}
	return st.layers(), nil
}
